//! Figure 9 — large-file performance under Sprite LFS and SunOS (FFS).
//!
//! A 100 MB file is written sequentially, read sequentially, written
//! randomly, read randomly, and re-read sequentially; the figure reports
//! the bandwidth of each phase. Expected shape: LFS wins both write
//! phases (it turns random writes into sequential log writes), ties the
//! random-read phase, and loses sequential re-read after random writes
//! (the blocks are scattered in the log, so the reads seek).

use blockdev::{BlockDevice, IoStats};
use cleaner_sim::sweep;
use ffs_baseline::{Ffs, FfsConfig};
use lfs_bench::{
    append_jsonl, finish, or_die, paper_disk, smoke_mode, HostModel, PhaseMeasurement, Table,
};
use lfs_core::{Lfs, LfsConfig};
use workload::{LargeFileBench, LargeFilePhase};

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    let bench = if smoke {
        LargeFileBench::paper_scaled(0.02) // 2 MB
    } else {
        LargeFileBench::paper_scaled(1.0) // 100 MB
    };
    let host = HostModel::sun4();
    println!(
        "Figure 9: {} MB file, five phases, {} KB transfers\n",
        bench.file_bytes >> 20,
        bench.io_size / 1024
    );

    let run = |name: &str| -> Vec<(LargeFilePhase, IoStats)> {
        let mut out = Vec::new();
        match name {
            "lfs" => {
                let mut fs = or_die(
                    "format LFS",
                    Lfs::format(paper_disk(), LfsConfig::default()),
                );
                let ino = or_die("LFS setup", bench.setup(&mut fs));
                for phase in LargeFilePhase::ALL {
                    fs.drop_caches();
                    let before = fs.device().stats();
                    or_die(phase.label(), bench.run_phase(&mut fs, ino, phase));
                    out.push((phase, fs.device().stats().since(&before)));
                }
            }
            _ => {
                let mut fs = or_die(
                    "format FFS",
                    Ffs::format(paper_disk(), FfsConfig::default()),
                );
                let ino = or_die("FFS setup", bench.setup(&mut fs));
                for phase in LargeFilePhase::ALL {
                    fs.drop_caches();
                    let before = fs.device().stats();
                    or_die(phase.label(), bench.run_phase(&mut fs, ino, phase));
                    out.push((phase, fs.device().stats().since(&before)));
                }
            }
        }
        out
    };

    // The two systems are independent sweep points (each owns a fresh
    // paper disk), so they run on worker threads; results come back in
    // input order, bit-identical to running them back to back.
    let mut runs = sweep::map_indexed(2, sweep::default_threads(), |i| {
        run(if i == 0 { "lfs" } else { "ffs" })
    });
    let ffs = runs.pop().expect("ffs sweep point");
    let lfs = runs.pop().expect("lfs sweep point");

    let mut table = Table::new(&["phase", "Sprite LFS KB/s", "SunOS KB/s"]);
    let nops = bench.file_bytes / bench.io_size as u64;
    for ((phase, ld), (_, fd)) in lfs.iter().zip(&ffs) {
        let l = PhaseMeasurement::new(&host, nops, bench.file_bytes, *ld);
        let f = PhaseMeasurement::new(&host, nops, bench.file_bytes, *fd);
        table.row(vec![
            phase.label().into(),
            format!("{:.0}", l.kb_per_sec(bench.file_bytes)),
            format!("{:.0}", f.kb_per_sec(bench.file_bytes)),
        ]);
        append_jsonl(
            "fig9",
            &serde_json::json!({
                "phase": phase.label(),
                "lfs_kb_s": l.kb_per_sec(bench.file_bytes),
                "ffs_kb_s": f.kb_per_sec(bench.file_bytes),
            }),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): LFS ≥ SunOS everywhere except the final\n\
         sequential reread of a randomly-written file."
    );
    finish()
}
