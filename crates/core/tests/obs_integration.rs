//! Integration tests for the observability layer: trace events from real
//! file-system activity, and exact agreement between a metrics snapshot
//! and the in-memory statistics (the Table 2 / Table 4 cross-check).

use blockdev::{BlockDevice, MemDisk, SimDisk};
use lfs_core::{BlockKind, Lfs, LfsConfig};
use lfs_obs::Obs;
use vfs::FileSystem;

fn small_cfg() -> LfsConfig {
    LfsConfig::small()
}

/// Runs enough traffic to force flushes, checkpoints, and cleaning
/// (same overwrite-churn shape as `cleaner_reclaims_overwritten_segments`).
fn churn<D: blockdev::QueueDevice>(fs: &mut Lfs<D>) {
    let ino = fs.create("/churn").unwrap();
    for round in 0..200u32 {
        let data = vec![(round % 251) as u8; 64 * 1024];
        fs.write(ino, 0, &data).unwrap();
        fs.advance_clock(100);
    }
    fs.sync().unwrap();
    assert!(
        fs.stats().cleaner.segments_cleaned > 0,
        "churn failed to trigger the cleaner"
    );
}

#[test]
fn trace_captures_segment_writes_checkpoints_and_cleaning() {
    let disk = MemDisk::new(4096);
    let mut fs = Lfs::format(disk, small_cfg()).unwrap();
    fs.set_obs(Obs::recording(4096));
    churn(&mut fs);

    let counts = fs.obs().trace.counts();
    assert!(
        counts.get("segment_write").copied().unwrap_or(0) > 0,
        "no segment_write events: {counts:?}"
    );
    assert!(
        counts.get("checkpoint").copied().unwrap_or(0) > 0,
        "no checkpoint events: {counts:?}"
    );
    assert!(
        counts.get("cleaner_pass").copied().unwrap_or(0) > 0,
        "no cleaner_pass events — churn() did not trigger cleaning: {counts:?}"
    );

    // Every buffered event must export as parseable JSONL tagged with a
    // kind and a timestamp.
    let jsonl = fs.obs().trace.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let v = serde_json::from_str(line).expect("trace line parses");
        assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
        assert!(v.get("t").and_then(|t| t.as_u64()).is_some());
    }
}

/// The cross-check demanded by the issue: Table 2 and Table 4 figures
/// recomputed from a serialized metrics snapshot must equal the live
/// `LfsStats` getters *exactly* (bit-for-bit for the floats, since the
/// snapshot mirrors the same accumulators rather than re-deriving them).
#[test]
fn snapshot_reproduces_table2_and_table4_exactly() {
    let disk = SimDisk::new(4096, blockdev::DiskModel::wren_iv());
    let mut fs = Lfs::format(disk, small_cfg()).unwrap();
    fs.set_obs(Obs::recording(1024));
    churn(&mut fs);

    let snap = fs.metrics_snapshot().expect("registry attached");
    // Round-trip through JSON so the test also covers serialization.
    let snap =
        lfs_obs::MetricsSnapshot::from_json(&serde_json::from_str(&snap.to_json_string()).unwrap())
            .unwrap();

    let stats = fs.stats();

    // Table 4: per-kind log bytes and bandwidth shares.
    let mut total = 0u64;
    for kind in BlockKind::ALL {
        let new = snap.counter(&format!("lfs.log_bytes.{}", kind.slug()));
        let cleaner = snap.counter(&format!("lfs.cleaner_log_bytes.{}", kind.slug()));
        assert_eq!(new + cleaner, stats.log_bytes(kind), "kind {kind:?}");
        total += new + cleaner;
    }
    assert_eq!(total, stats.total_log_bytes());
    for kind in BlockKind::ALL {
        let new = snap.counter(&format!("lfs.log_bytes.{}", kind.slug()));
        let cleaner = snap.counter(&format!("lfs.cleaner_log_bytes.{}", kind.slug()));
        let share = if total == 0 {
            0.0
        } else {
            (new + cleaner) as f64 / total as f64
        };
        assert_eq!(
            share,
            stats.log_bandwidth_share(kind),
            "bandwidth share for {kind:?} must match bit-for-bit"
        );
    }

    // Table 2: cleaner figures and write cost.
    assert_eq!(
        snap.counter("lfs.cleaner.segments_cleaned"),
        stats.cleaner.segments_cleaned
    );
    assert_eq!(
        snap.counter("lfs.cleaner.segments_empty"),
        stats.cleaner.segments_empty
    );
    assert_eq!(
        snap.counter("lfs.cleaner.bytes_read"),
        stats.cleaner.bytes_read
    );
    assert_eq!(snap.counter("lfs.cleaner.passes"), stats.cleaner.passes);
    assert_eq!(
        snap.gauge("lfs.cleaner.utilization_sum"),
        Some(stats.cleaner.utilization_sum),
        "utilization sum must survive the JSON round-trip exactly"
    );

    let new_bytes: u64 = BlockKind::ALL
        .iter()
        .map(|k| snap.counter(&format!("lfs.log_bytes.{}", k.slug())))
        .sum();
    let cleaner_written: u64 = BlockKind::ALL
        .iter()
        .map(|k| snap.counter(&format!("lfs.cleaner_log_bytes.{}", k.slug())))
        .sum();
    assert!(new_bytes > 0, "churn produced no new log bytes");
    let write_cost = (new_bytes + snap.counter("lfs.cleaner.bytes_read") + cleaner_written) as f64
        / new_bytes as f64;
    assert_eq!(
        write_cost,
        stats.write_cost(),
        "write cost recomputed from the snapshot must match exactly"
    );

    // Operation counters.
    assert_eq!(snap.counter("lfs.checkpoints"), stats.checkpoints);
    assert_eq!(snap.counter("lfs.partial_writes"), stats.partial_writes);
    assert_eq!(snap.counter("lfs.io_retries"), stats.io_retries);
    assert_eq!(snap.counter("lfs.io_giveups"), stats.io_giveups);

    // Device-side mirror.
    let d = fs.device().stats();
    assert_eq!(snap.counter("disk.busy_ns"), d.busy_ns);
    assert_eq!(snap.counter("disk.writes"), d.writes);

    // Latency histograms actually observed traffic, and the simulated
    // device's service times flowed into them.
    let writes = snap.hist("disk.write_ns").expect("disk.write_ns present");
    assert!(writes.count > 0);
    assert!(writes.sum > 0, "SimDisk service times must be non-zero");
    let op_write = snap.hist("op.write_ns").expect("op.write_ns present");
    assert!(op_write.count > 0);
    assert!(op_write.quantile(0.99).is_some());
}

#[test]
fn mount_with_obs_traces_roll_forward() {
    let disk = MemDisk::new(4096);
    let mut fs = Lfs::format(disk, small_cfg()).unwrap();
    fs.sync().unwrap();
    // Write past the checkpoint, flush the log, then "crash" by taking
    // the device back without a final checkpoint.
    fs.write_file("/after-checkpoint", b"roll me forward")
        .unwrap();
    fs.flush().unwrap();
    let disk = fs.into_device();

    let obs = Obs::recording(256);
    let mut fs = Lfs::mount_with_obs(disk, small_cfg(), obs).unwrap();
    let counts = fs.obs().trace.counts();
    assert!(
        counts.get("roll_forward").copied().unwrap_or(0) > 0,
        "mount found nothing to roll forward: {counts:?}"
    );
    let ino = fs.lookup("/after-checkpoint").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"roll me forward");
}

#[test]
fn obs_off_by_default_and_snapshot_absent() {
    let disk = MemDisk::new(2048);
    let mut fs = Lfs::format(disk, small_cfg()).unwrap();
    fs.write_file("/f", b"quiet").unwrap();
    fs.sync().unwrap();
    assert!(!fs.obs().is_on());
    assert!(fs.metrics_snapshot().is_none());
    assert!(fs.obs().trace.counts().is_empty());
}
