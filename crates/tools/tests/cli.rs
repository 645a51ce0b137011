//! End-to-end tests of the command-line tools on real image files.

use std::process::Command;

/// A scratch directory of the test's own: tests run in parallel and each
/// removes its directory when done.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lfs-tools-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn mklfs_dump_fsck_pipeline() {
    let dir = tmpdir("pipeline");
    let img = dir.join("disk.img");
    let img_s = img.to_str().unwrap();

    // mklfs
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img_s, "16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "mklfs: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("formatted"), "{stdout}");

    // Populate the image through the library.
    {
        use vfs::FileSystem;
        let disk = blockdev::FileDisk::open(&img).unwrap();
        let mut fs = lfs_core::Lfs::mount(disk, lfs_core::LfsConfig::default()).unwrap();
        fs.mkdir("/docs").unwrap();
        fs.write_file("/docs/readme.txt", b"tool test").unwrap();
        fs.sync().unwrap();
    }

    // lfsdump
    let out = Command::new(env!("CARGO_BIN_EXE_lfsdump"))
        .args([img_s, "--segments", "--tree"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lfsdump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("superblock:"), "{stdout}");
    assert!(stdout.contains("checkpoint 0:"), "{stdout}");
    assert!(stdout.contains("readme.txt"), "{stdout}");
    assert!(stdout.contains("ACTIVE"), "{stdout}");

    // lfsck
    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img_s)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lfsck: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mklfs_512kb_segments() {
    let dir = tmpdir("seg512");
    let img = dir.join("disk512.img");
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img.to_str().unwrap(), "8", "--seg-kb", "512"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("512 KB"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lfsck_rejects_garbage() {
    let dir = tmpdir("garbage");
    let img = dir.join("junk.img");
    std::fs::write(&img, vec![0xa5u8; 64 * 4096]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_image_is_diagnosed_with_exit_code_2() {
    let dir = tmpdir("corrupt-exit2");
    let img = dir.join("junk.img");
    std::fs::write(&img, vec![0x5au8; 80 * 4096]).unwrap();
    for bin in [env!("CARGO_BIN_EXE_lfsck"), env!("CARGO_BIN_EXE_lfsdump")] {
        let out = Command::new(bin)
            .arg(img.to_str().unwrap())
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} on garbage image: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stderr.is_empty(),
            "{bin} must print a diagnostic for a corrupt image"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_checkpoints_are_corrupt_not_crash() {
    // A valid superblock with both checkpoint regions trashed must yield a
    // clean diagnostic and exit 2, not a panic (exit 101).
    let dir = tmpdir("torn-cp");
    let img = dir.join("torn.img");
    let img_s = img.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img_s, "16"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Checkpoint regions live at blocks 1 and 33; overwrite their headers.
    let mut bytes = std::fs::read(&img).unwrap();
    for cr_block in [1usize, 33] {
        bytes[cr_block * 4096..(cr_block + 1) * 4096].fill(0xee);
    }
    std::fs::write(&img, bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img_s)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tools_usage_errors() {
    for bin in [env!("CARGO_BIN_EXE_mklfs"), env!("CARGO_BIN_EXE_lfsck")] {
        let out = Command::new(bin).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} without args");
    }
}

/// `lfstop`'s write cost is the paper's `(new + cleaner reads + cleaner
/// writes) / new`: on a run where the cleaner relocated live blocks, the
/// printed figure must include the bytes it wrote back.
#[test]
fn lfstop_write_cost_counts_cleaner_writes() {
    use vfs::FileSystem;
    let dir = tmpdir("lfstop-write-cost");
    let mut fs =
        lfs_core::Lfs::format(blockdev::MemDisk::new(4096), lfs_core::LfsConfig::small()).unwrap();
    fs.set_obs(lfs_obs::Obs::recording(1024));
    for i in 0..32 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 3 * 4096])
            .unwrap();
    }
    fs.sync().unwrap();
    for i in (0..32).step_by(2) {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    fs.sync().unwrap();
    assert!(
        fs.clean_pass().unwrap() > 0,
        "cleaner found nothing to clean"
    );
    let stats = *fs.stats();
    assert!(
        stats.log_bytes_cleaner(lfs_core::BlockKind::Data) > 0,
        "the cleaner relocated no live blocks"
    );

    let snap = dir.join("metrics.json");
    std::fs::write(&snap, fs.metrics_snapshot().unwrap().to_json_string()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lfstop"))
        .arg(&snap)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lfstop: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = format!("write cost {:.2}", stats.write_cost());
    assert!(
        stdout.contains(&expected),
        "want {expected:?} in:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
