//! Criterion benchmarks of write-path throughput: how fast dirty data
//! reaches the device through the zero-copy gather writer. The device is
//! a `MemDisk` with no timing model, so the measurement is host-side
//! copying and allocation only. Each timed phase includes the syncs that
//! flush it, so the chunk writer dominates the measurement.

use blockdev::MemDisk;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lfs_core::Lfs;
use workload::{LargeFileBench, LargeFilePhase, SmallFileBench};

const DISK_MB: u64 = 64;

fn lfs() -> Lfs<MemDisk> {
    let cfg = lfs_bench::production_lfs_config(DISK_MB);
    Lfs::format(MemDisk::new(DISK_MB * 256), cfg).unwrap()
}

/// Sequential 8 MB write plus the sync that flushes it — the data-heavy
/// shape, where every cached data block goes out without a copy.
fn bench_seq_flush(c: &mut Criterion) {
    let large = LargeFileBench {
        file_bytes: 8 << 20,
        io_size: 8192,
        seed: 0xf19,
    };
    let mut g = c.benchmark_group("flush_seq_write_8mb");
    g.bench_function("gather", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| {
                let ino = large.setup(fs).unwrap();
                large.run_phase(fs, ino, LargeFilePhase::SeqWrite).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Create-and-sync of many small files — metadata-heavy flushes (inode
/// groups, imap, dirlog). The data and dirlog blocks are borrowed; the
/// synthesized metadata renders into the reusable scratch pool.
fn bench_small_flush(c: &mut Criterion) {
    let small = SmallFileBench {
        nfiles: 500,
        file_size: 1024,
        files_per_dir: 100,
    };
    let mut g = c.benchmark_group("flush_small_create_500");
    g.bench_function("gather", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| small.create_phase(fs).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_seq_flush, bench_small_flush
}
criterion_main!(benches);
