#![warn(missing_docs)]

//! Shared machinery for the benchmark binaries.
//!
//! Every figure/table binary combines three pieces:
//!
//! - a file system (LFS or the FFS baseline) over a [`blockdev::SimDisk`]
//!   parameterised to the paper's Wren IV disk;
//! - a workload from the `workload` crate;
//! - a [`HostModel`] that charges CPU time per operation, so elapsed time,
//!   files/sec, and disk-utilization numbers can be recomputed the way
//!   §5.1 measures them on a Sun-4/260 — and rescaled for faster CPUs the
//!   way Figure 8(b) extrapolates them.
//!
//! Binaries print a human-readable table (the paper's rows) and append a
//! machine-readable JSON line per row to `bench_results/<name>.jsonl`, so
//! EXPERIMENTS.md can be regenerated.

pub mod host;
pub mod output;
pub mod queue;
pub mod volume;

pub use host::{HostModel, PhaseMeasurement};
pub use output::{append_jsonl, finish, or_die, results_dir, try_append_jsonl, Table};
pub use queue::{run_queue_depth, QueueDepthRun};
pub use volume::{run_volume_scaling, VolumeScalingRun, VolumeWorkload};

use blockdev::{DiskModel, SimDisk};
use lfs_core::LfsConfig;

/// A 300 MB simulated Wren IV — "the disk was formatted with a file system
/// having around 300 megabytes of usable storage" (§5.1).
pub fn paper_disk() -> SimDisk {
    SimDisk::new(300 * 256, DiskModel::wren_iv()) // 300 MB of 4 KB blocks.
}

/// A smaller simulated disk for quicker runs.
pub fn disk_mb(mb: u64) -> SimDisk {
    SimDisk::new(mb * 256, DiskModel::wren_iv())
}

/// An LFS configuration proportionate to a `disk_mb`-megabyte disk for
/// the production-workload experiments: 512 KB segments (one of the
/// paper's two sizes), an inode map sized to the expected file count, and
/// cleaning watermarks that are a small fraction of the segment count.
#[allow(clippy::field_reassign_with_default)]
pub fn production_lfs_config(disk_mb: u64) -> LfsConfig {
    let mut cfg = LfsConfig::default();
    cfg.seg_blocks = 128; // 512 KB segments.
    cfg.flush_threshold_bytes = 127 * 4096;
    cfg.max_inodes = (disk_mb as u32 * 64).clamp(2048, 65_536);
    let nsegs = (disk_mb * 2) as u32; // 512 KB segments per MB… × 2.
    cfg.clean_low_water = (nsegs / 20).clamp(4, 16);
    cfg.clean_high_water = (nsegs / 8).clamp(8, 40);
    cfg.segs_per_clean = (nsegs / 16).clamp(4, 16);
    cfg
}

/// True when the harness should run at reduced scale (smoke mode), e.g.
/// under `cargo test`. Controlled by the `LFS_BENCH_SMOKE` environment
/// variable.
pub fn smoke_mode() -> bool {
    std::env::var("LFS_BENCH_SMOKE").is_ok()
}
