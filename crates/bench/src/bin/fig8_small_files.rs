//! Figure 8 — small-file performance under Sprite LFS and SunOS (FFS).
//!
//! (a) 10000 one-kilobyte files created, read back in order, deleted;
//!     files/sec per phase for both systems, plus disk utilization during
//!     the create phase (LFS ≈ CPU-bound with the disk ~17% busy; FFS
//!     keeps the disk ~85% busy on synchronous metadata writes).
//! (b) predicted create-phase performance with 2× and 4× faster CPUs and
//!     the same disk.

use blockdev::{BlockDevice, IoStats};
use cleaner_sim::sweep;
use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::{
    append_jsonl, finish, or_die, paper_disk, smoke_mode, HostModel, PhaseMeasurement, Table,
};
use lfs_core::{Lfs, LfsConfig};
use workload::SmallFileBench;

struct PhaseResult {
    files_per_sec: f64,
    disk_util: f64,
    disk: IoStats,
}

fn measure(
    stats_before: IoStats,
    stats_after: IoStats,
    host: &HostModel,
    bench: &SmallFileBench,
) -> PhaseResult {
    let d = stats_after.since(&stats_before);
    let ops = bench.nfiles as u64;
    let bytes = ops * bench.file_size as u64;
    let m = PhaseMeasurement::new(host, ops, bytes, d);
    PhaseResult {
        files_per_sec: m.ops_per_sec(ops),
        disk_util: m.disk_utilization(),
        disk: d,
    }
}

/// Create/read/delete results for one system (one sweep point).
struct SystemRun {
    create: PhaseResult,
    read: PhaseResult,
    delete: PhaseResult,
}

fn run_lfs(bench: &SmallFileBench, host: &HostModel) -> SystemRun {
    let mut lfs = or_die(
        "format LFS",
        Lfs::format(paper_disk(), LfsConfig::default()),
    );
    let s0 = lfs.device().stats();
    or_die("LFS create phase", bench.create_phase(&mut lfs));
    let s1 = lfs.device().stats();
    lfs.drop_caches();
    let s1b = lfs.device().stats();
    or_die("LFS read phase", bench.read_phase(&mut lfs));
    let s2 = lfs.device().stats();
    or_die("LFS delete phase", bench.delete_phase(&mut lfs));
    let s3 = lfs.device().stats();
    SystemRun {
        create: measure(s0, s1, host, bench),
        read: measure(s1b, s2, host, bench),
        delete: measure(s2, s3, host, bench),
    }
}

fn run_ffs(bench: &SmallFileBench, host: &HostModel) -> SystemRun {
    let mut ffs = or_die(
        "format FFS",
        Ffs::format(paper_disk(), FfsConfig::default()),
    );
    let f0 = ffs.device().stats();
    or_die("FFS create phase", bench.create_phase(&mut ffs));
    let f1 = ffs.device().stats();
    ffs.drop_caches();
    let f1b = ffs.device().stats();
    or_die("FFS read phase", bench.read_phase(&mut ffs));
    let f2 = ffs.device().stats();
    or_die("FFS delete phase", bench.delete_phase(&mut ffs));
    let f3 = ffs.device().stats();
    SystemRun {
        create: measure(f0, f1, host, bench),
        read: measure(f1b, f2, host, bench),
        delete: measure(f2, f3, host, bench),
    }
}

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    let bench = if smoke {
        SmallFileBench {
            nfiles: 500,
            file_size: 1024,
            files_per_dir: 50,
        }
    } else {
        SmallFileBench::paper()
    };
    let host = HostModel::sun4();
    println!(
        "Figure 8(a): {} x {} KB files — create, read (same order), delete\n",
        bench.nfiles,
        bench.file_size / 1024
    );

    // Sprite LFS and the SunOS (FFS) baseline are independent sweep
    // points — each formats its own fresh paper disk — so they run on
    // worker threads and come back in input order, bit-identical to the
    // old back-to-back loop.
    let mut runs = sweep::map_indexed(2, sweep::default_threads(), |i| {
        if i == 0 {
            run_lfs(&bench, &host)
        } else {
            run_ffs(&bench, &host)
        }
    });
    let ffs_run = runs.pop().expect("ffs sweep point");
    let lfs_run = runs.pop().expect("lfs sweep point");
    let (lfs_create, lfs_read, lfs_delete) = (lfs_run.create, lfs_run.read, lfs_run.delete);
    let (ffs_create, ffs_read, ffs_delete) = (ffs_run.create, ffs_run.read, ffs_run.delete);

    let mut table = Table::new(&["phase", "Sprite LFS files/s", "SunOS files/s", "LFS/FFS"]);
    for (phase, l, f) in [
        ("create", &lfs_create, &ffs_create),
        ("read", &lfs_read, &ffs_read),
        ("delete", &lfs_delete, &ffs_delete),
    ] {
        table.row(vec![
            phase.into(),
            format!("{:.0}", l.files_per_sec),
            format!("{:.0}", f.files_per_sec),
            format!("{:.1}x", l.files_per_sec / f.files_per_sec),
        ]);
        append_jsonl(
            "fig8a",
            &serde_json::json!({
                "phase": phase, "lfs": l.files_per_sec, "ffs": f.files_per_sec,
            }),
        );
    }
    table.print();
    println!(
        "\nCreate-phase disk utilization: Sprite LFS {:.0}% (paper: 17%), SunOS {:.0}% (paper: 85%)",
        lfs_create.disk_util * 100.0,
        ffs_create.disk_util * 100.0
    );

    // ---------------- Figure 8(b): CPU scaling --------------------------
    println!("\nFigure 8(b): predicted create performance with faster CPUs\n");
    let mut table = Table::new(&["host", "Sprite LFS files/s", "SunOS files/s"]);
    for mult in [1.0, 2.0, 4.0] {
        let h = HostModel::sun4_times(mult);
        let ops = bench.nfiles as u64;
        let bytes = ops * bench.file_size as u64;
        let l = PhaseMeasurement::new(&h, ops, bytes, lfs_create.disk);
        let f = PhaseMeasurement::new(&h, ops, bytes, ffs_create.disk);
        table.row(vec![
            h.name.into(),
            format!("{:.0}", l.ops_per_sec(ops)),
            format!("{:.0}", f.ops_per_sec(ops)),
        ]);
        append_jsonl(
            "fig8b",
            &serde_json::json!({
                "cpu_mult": mult,
                "lfs": l.ops_per_sec(ops),
                "ffs": f.ops_per_sec(ops),
            }),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): LFS create scales 4-6x with CPU speed while\n\
         SunOS barely improves (its disk is already ~85% busy)."
    );
    finish()
}
