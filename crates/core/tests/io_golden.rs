//! Golden digests of the read and write paths.
//!
//! Fixed seeded op mixes run on a simulated Wren IV. Each mix pins the
//! final disk image (a hash) and the full SimDisk `IoStats`: request
//! counts, bytes, seeks and every simulated-time figure. The digests were
//! recorded while the per-block reader and the assemble-then-write writer
//! still existed, and both settings of each gave the same image and the
//! same stats; only the per-block reader issued more read requests. Any
//! change to what reaches the disk, in what order, or at what simulated
//! cost, shows up here. The image hashes were re-recorded for on-disk
//! format version 2, whose images differ from version 1's only in
//! checksum-bearing fields (superblock version and checksum, checkpoint
//! checksums, summary header and per-entry checksums); the `IoStats`
//! digests are unchanged.
//!
//! Alongside the digests, every read is checked against `vfs::ModelFs`,
//! read-ahead must leave the image unchanged, and the flush path's host
//! copies must be exactly the blocks it synthesizes.

use blockdev::{BlockDevice, CrashDisk, DiskModel, IoStats, MemDisk, QueueDevice, SimDisk};
use lfs_core::{BlockKind, Lfs, LfsConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfs::model::ModelFs;
use vfs::{FileSystem, FsError, Ino};

/// 16 MB disk: enough for the workload plus cleaner headroom.
const DISK_BLOCKS: u64 = 4096;

const NFILES: usize = 4;

const MIX_OPS: usize = 200;

#[derive(Clone, Debug)]
enum Op {
    Write {
        file: usize,
        offset: u64,
        len: usize,
        fill: u8,
    },
    Truncate {
        file: usize,
        size: u64,
    },
    Read {
        file: usize,
        offset: u64,
        len: usize,
    },
    Sync,
    DropCaches,
    CleanPass,
}

/// Offsets reach past the ten direct blocks (40 KB), so indirect-block
/// loads break read runs and indirect blocks are synthesized in the same
/// chunks as borrowed data blocks.
fn write_op() -> impl Strategy<Value = Op> {
    (0..NFILES, 0u64..300_000, 1usize..16_384, any::<u8>()).prop_map(|(file, offset, len, fill)| {
        Op::Write {
            file,
            offset,
            len,
            fill,
        }
    })
}

fn read_op() -> impl Strategy<Value = Op> {
    (0..NFILES, 0u64..320_000, 1usize..32_768).prop_map(|(file, offset, len)| Op::Read {
        file,
        offset,
        len,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        write_op(),
        write_op(),
        (0..NFILES, 0u64..300_000).prop_map(|(file, size)| Op::Truncate { file, size }),
        read_op(),
        read_op(),
        Just(Op::Sync),
        Just(Op::DropCaches),
        Just(Op::CleanPass),
    ]
}

/// One golden mix: `MIX_OPS` ops drawn from `seed` with the same shape
/// as [`op_strategy`].
fn mix(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..MIX_OPS)
        .map(|_| match rng.gen_range(0u32..12) {
            0..=3 => Op::Write {
                file: rng.gen_range(0..NFILES),
                offset: rng.gen_range(0u64..300_000),
                len: rng.gen_range(1usize..16_384),
                fill: rng.gen_range(0u32..256) as u8,
            },
            4 => Op::Truncate {
                file: rng.gen_range(0..NFILES),
                size: rng.gen_range(0u64..300_000),
            },
            5..=7 => Op::Read {
                file: rng.gen_range(0..NFILES),
                offset: rng.gen_range(0u64..320_000),
                len: rng.gen_range(1usize..32_768),
            },
            8 => Op::Sync,
            9 | 10 => Op::DropCaches,
            _ => Op::CleanPass,
        })
        .collect()
}

/// The golden mixes: a seed and the configuration it runs under, so the
/// digests cover every cleaning policy, two write streams, and the
/// cleaner's sparse live-block reads.
fn mixes() -> Vec<(u64, LfsConfig)> {
    let small = LfsConfig::small();
    let sparse = LfsConfig {
        read_live_threshold: 1.0,
        ..small
    };
    vec![
        (1, small),
        (2, small),
        (3, small.greedy()),
        (4, small.adaptive()),
        (5, small.with_streams(2)),
        (6, sparse),
    ]
}

/// Per mix, in [`mixes`] order: the image hash, then `IoStats` as
/// reads, writes, bytes_read, bytes_written, seeks, busy_ns,
/// sync_busy_ns, positioning_ns, service_ns.
#[rustfmt::skip]
const GOLDEN: [(u64, [u64; 9]); 6] = [
    (0x2e46_798b_051d_0fc8, [144, 97, 2187264, 2723840, 204, 6560331013, 3922232116, 2782558794, 6560331013]),
    (0xaa67_3343_c611_5c85, [182, 131, 2998272, 3538944, 275, 8876201750, 5345741496, 3847574175, 8876201750]),
    (0xb964_4114_de50_982f, [198, 210, 5521408, 5640192, 354, 13407569966, 7682312298, 4821723999, 13407569966]),
    (0x715d_d9a8_9928_cd4d, [161, 115, 2400256, 2723840, 246, 7329789216, 4542528561, 3388177011, 7329789216]),
    (0x0899_f780_fe4c_7dae, [200, 204, 4403200, 4530176, 336, 11573725154, 6749015205, 4701897649, 11573725154]),
    (0x2197_756a_4576_c8fb, [345, 160, 3063808, 4235264, 396, 10881236176, 6694171829, 5266565655, 10881236176]),
];

fn stats_digest(s: IoStats) -> [u64; 9] {
    [
        s.reads,
        s.writes,
        s.bytes_read,
        s.bytes_written,
        s.seeks,
        s.busy_ns,
        s.sync_busy_ns,
        s.positioning_ns,
        s.service_ns,
    ]
}

/// Word-wise FNV-1a over the disk image.
fn image_hash(img: &[u8]) -> u64 {
    img.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs `ops` on `fs` next to a `ModelFs`, asserting every read returns
/// the model's bytes, and ends with a sync.
fn run<D: QueueDevice>(fs: &mut Lfs<D>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model = ModelFs::new();
    let inos: Vec<(Ino, Ino)> = (0..NFILES)
        .map(|i| {
            let path = format!("/f{i}");
            (
                fs.create(&path).expect("create"),
                model.create(&path).expect("model create"),
            )
        })
        .collect();
    for op in ops {
        match *op {
            Op::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let data = vec![fill; len];
                fs.write(inos[file].0, offset, &data).expect("write");
                model
                    .write(inos[file].1, offset, &data)
                    .expect("model write");
            }
            Op::Truncate { file, size } => {
                fs.truncate(inos[file].0, size).expect("truncate");
                model.truncate(inos[file].1, size).expect("model truncate");
            }
            Op::Read { file, offset, len } => {
                let mut got = vec![0u8; len];
                let mut want = vec![0u8; len];
                let n = fs.read(inos[file].0, offset, &mut got).expect("read");
                let m = model
                    .read(inos[file].1, offset, &mut want)
                    .expect("model read");
                prop_assert_eq!(&got[..n], &want[..m], "read bytes diverged on {:?}", op);
            }
            Op::Sync => fs.sync().expect("sync"),
            Op::DropCaches => fs.drop_caches(),
            Op::CleanPass => {
                // The cleaner's rewrites flow through the same chunk
                // writer as foreground flushes.
                fs.clean_pass().expect("clean");
            }
        }
    }
    fs.sync().expect("final sync");
    Ok(())
}

/// The flush path copies exactly the blocks it synthesizes (summaries,
/// inode groups, indirect/imap/usage encodes); data and directory-log
/// blocks go to the device borrowed from the cache.
fn assert_copy_identity<D: QueueDevice>(fs: &Lfs<D>) -> Result<(), TestCaseError> {
    let s = fs.stats();
    prop_assert_eq!(
        s.flush_copy_bytes,
        s.total_log_bytes() - s.log_bytes(BlockKind::Data) - s.log_bytes(BlockKind::DirLog),
        "host copies must be exactly the synthesized blocks"
    );
    Ok(())
}

#[test]
fn golden_mixes_reproduce_their_digests() {
    let mut actual = Vec::new();
    for (seed, cfg) in mixes() {
        let ops = mix(seed);
        let mut fs =
            Lfs::format(SimDisk::new(DISK_BLOCKS, DiskModel::wren_iv()), cfg).expect("format");
        run(&mut fs, &ops).unwrap();
        assert_copy_identity(&fs).unwrap();
        actual.push((
            image_hash(fs.device().image()),
            stats_digest(fs.device().stats()),
        ));

        // Read-ahead fetches extra blocks but must never change the image.
        let ra = LfsConfig {
            read_ahead_blocks: 32,
            ..cfg
        };
        let mut fs_ra = Lfs::format(MemDisk::new(DISK_BLOCKS), ra).expect("format");
        run(&mut fs_ra, &ops).unwrap();
        assert_eq!(
            image_hash(fs_ra.device().image()),
            image_hash(fs.device().image()),
            "read-ahead changed the image of mix {seed}"
        );
    }
    assert_eq!(actual, GOLDEN, "I/O digests moved: {actual:#x?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Across random write/truncate/read/clean interleavings, reads match
    /// the model with and without read-ahead, read-ahead leaves the image
    /// byte-identical, and host copies are exactly the synthesized blocks.
    #[test]
    fn reads_match_model_and_read_ahead_keeps_image(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut plain = Lfs::format(
            SimDisk::new(DISK_BLOCKS, DiskModel::wren_iv()), LfsConfig::small()).expect("format");
        let ra = LfsConfig { read_ahead_blocks: 32, ..LfsConfig::small() };
        let mut readahead = Lfs::format(MemDisk::new(DISK_BLOCKS), ra).expect("format");
        run(&mut plain, &ops)?;
        run(&mut readahead, &ops)?;
        prop_assert_eq!(plain.device().image(), readahead.device().image());
        assert_copy_identity(&plain)?;
        assert_copy_identity(&readahead)?;
    }
}

/// The sparse cleaner path ("read just the live blocks", §3.4) must fetch
/// maximal runs of consecutive live blocks as single device requests: for
/// a segment whose liveness is clustered (whole small files), the request
/// count stays below the block count.
#[test]
fn sparse_cleaner_reads_coalesce_runs() {
    let mut c = LfsConfig::small();
    c.read_live_threshold = 1.0; // Every scavenge takes the sparse path.
    let mut fs = Lfs::format(SimDisk::new(DISK_BLOCKS, DiskModel::wren_iv()), c).expect("format");
    for i in 0..32 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 3 * 4096])
            .expect("write");
    }
    fs.sync().expect("sync");
    for i in (0..32).step_by(2) {
        fs.unlink(&format!("/f{i}")).expect("unlink");
    }
    fs.sync().expect("sync");

    let before = fs.device().stats();
    let cleaned = fs.clean_pass().expect("clean");
    let after = fs.device().stats();
    assert!(cleaned > 0, "cleaner found nothing to clean");
    let requests = after.reads - before.reads;
    let blocks = (after.bytes_read - before.bytes_read) / 4096;
    assert!(
        requests < blocks,
        "sparse cleaner issued {requests} read requests for {blocks} blocks \
         (runs were not coalesced)"
    );

    // And cleaning must not have corrupted anything.
    for i in (1..32).step_by(2) {
        let ino = fs.lookup(&format!("/f{i}")).expect("lookup");
        let data = fs.read_to_vec(ino).expect("read back");
        assert_eq!(data, vec![i as u8; 3 * 4096]);
    }
}

/// A torn gather write must recover exactly like a torn contiguous write:
/// `CrashDisk` journals the assembled gather bytes as one request, a crash
/// tears an arbitrary block subset out of it, and the per-entry summary
/// checksums make roll-forward treat the damage as end-of-log. Every
/// block-granularity cut of a gather-written log must mount, pass fsck,
/// and show each file either before or after its write — never garbage.
#[test]
fn torn_gather_write_recovers_atomically() {
    let config = LfsConfig::small();
    let mut fs = Lfs::format(CrashDisk::new(2048), config).expect("format");
    fs.write_file("/base", b"pre-existing").expect("write");
    fs.sync().expect("sync");
    fs.device_mut().checkpoint_baseline();
    // Multi-block chunks: borrowed data blocks and synthesized metadata
    // travel in the same gather request, so a tear can split them.
    fs.write_file("/fresh", &[7u8; 12_000]).expect("write");
    fs.sync().expect("sync");

    let crash: &CrashDisk = fs.device();
    let n = crash.num_block_cuts();
    assert!(n > 0, "workload produced no tearable writes");
    for cut in 0..=n {
        for seed in [1u64, 0x9e37_79b9_7f4a_7c15] {
            let image = crash.torn_image_after(cut, seed, false).unwrap();
            let mut fs2 = Lfs::mount(image, config)
                .unwrap_or_else(|e| panic!("torn cut {cut}/{n} seed {seed:#x}: mount failed: {e}"));
            let report = fs2.check().unwrap();
            assert!(
                report.is_clean(),
                "torn cut {cut}/{n} seed {seed:#x}: fsck: {:#?}",
                report.errors
            );
            let base = fs2.lookup("/base").expect("base must survive");
            assert_eq!(fs2.read_to_vec(base).unwrap(), b"pre-existing");
            match fs2.lookup("/fresh") {
                Ok(ino) => {
                    let data = fs2.read_to_vec(ino).unwrap();
                    assert!(
                        data == vec![7u8; 12_000] || data.is_empty(),
                        "torn cut {cut}/{n}: half-written content, len {}",
                        data.len()
                    );
                }
                Err(FsError::NotFound) => {}
                Err(e) => panic!("torn cut {cut}/{n}: {e}"),
            }
        }
    }
}
