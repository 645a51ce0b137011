//! Table 3 — recovery time for various crash configurations.
//!
//! "The different crash configurations were generated by running a program
//! that created one, ten, or fifty megabytes of fixed-size files before
//! the system was crashed. A special version of Sprite LFS was used that
//! had an infinite checkpoint interval." We reproduce exactly that: format
//! with automatic checkpoints disabled, create the files, flush the log
//! tail (without a checkpoint), "crash" by taking the raw device image,
//! and time roll-forward recovery on the simulated disk.

#![allow(clippy::field_reassign_with_default)]

use blockdev::{BlockDevice, DiskModel, SimDisk};
use cleaner_sim::sweep;
use lfs_bench::{append_jsonl, finish, or_die, smoke_mode, Table};
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;
use workload::CrashWorkload;

fn recovery_seconds(file_size: u64, total_bytes: u64) -> (f64, u64) {
    let blocks = (total_bytes / 4096) * 4 + 40_000; // Generous headroom.
    let mut cfg = LfsConfig::default();
    cfg.checkpoint_every_bytes = 0; // Infinite checkpoint interval.
    cfg.roll_forward = true;
    let mut fs = or_die(
        "format LFS",
        Lfs::format(SimDisk::new(blocks, DiskModel::wren_iv()), cfg),
    );
    let w = CrashWorkload::new(file_size, total_bytes);
    or_die("crash workload", w.run(&mut fs));
    // Write the log tail but do NOT checkpoint.
    or_die("flush log tail", fs.flush());
    let image = fs.device().image().to_vec();
    drop(fs);

    // "Crash": mount the raw image and measure the simulated disk time
    // recovery needs (roll-forward + the recovery checkpoint).
    let disk = SimDisk::from_image(image, DiskModel::wren_iv());
    let mut recovered = or_die("recovery mount", Lfs::mount(disk, cfg));
    let busy = recovered.device().stats().busy_ns;
    // Sanity: every file must be back.
    let n = or_die("statfs", recovered.statfs()).num_files;
    assert_eq!(n, w.count, "recovered {n} files, expected {}", w.count);
    (busy as f64 / 1e9, w.count)
}

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    println!("Table 3: recovery time in seconds for various crash configurations\n");
    let sizes: &[(u64, &str)] = &[
        (1 << 10, "1 KB"),
        (10 << 10, "10 KB"),
        (100 << 10, "100 KB"),
    ];
    let amounts: &[(u64, &str)] = if smoke {
        &[(1 << 20, "1 MB"), (4 << 20, "4 MB")]
    } else {
        &[(1 << 20, "1 MB"), (10 << 20, "10 MB"), (50 << 20, "50 MB")]
    };

    let mut headers = vec!["File size"];
    for (_, label) in amounts {
        headers.push(label);
    }
    let mut table = Table::new(&headers);
    // Every (file size, data amount) cell is an independent sweep point —
    // it formats its own disk, crashes it, and times its own recovery —
    // so the grid runs on worker threads; cells are emitted afterwards in
    // row-major order, bit-identical to the old nested loops.
    let cells: Vec<(u64, u64)> = sizes
        .iter()
        .flat_map(|&(fsz, _)| amounts.iter().map(move |&(total, _)| (fsz, total)))
        .collect();
    let results = sweep::map_indexed(cells.len(), sweep::default_threads(), |i| {
        let (fsz, total) = cells[i];
        recovery_seconds(fsz, total)
    });
    for (si, &(fsz, flabel)) in sizes.iter().enumerate() {
        let mut row = vec![flabel.to_string()];
        for (ai, &(total, _)) in amounts.iter().enumerate() {
            let (secs, count) = results[si * amounts.len() + ai];
            row.push(format!("{secs:.1}"));
            append_jsonl(
                "table3",
                &serde_json::json!({
                    "file_size": fsz, "data_bytes": total,
                    "files": count, "recovery_sec": secs,
                }),
            );
        }
        table.row(row);
    }
    table.print();
    println!(
        "\nExpected shape (paper): recovery time grows with the amount of data\n\
         and is dominated by the NUMBER of files recovered — many small files\n\
         take far longer than the same megabytes in large files."
    );
    finish()
}
