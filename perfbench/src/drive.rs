//! Driving code the workloads share: a one-thread timed window over a bare
//! `Lfs`, and the timed remounts that follow a crash.

use std::time::{Duration, Instant};

use blockdev::QueueDevice;
use lfs_core::{Lfs, LfsConfig};

use crate::meter::{Meter, Recorder, Snap};
use crate::report::{DevSnap, LayerExtra, LfsSnap, Pass, Recovery};

/// Fresh copies of a crash image mounted per run; `recovery_ms` is the
/// median of their mount times.
const MOUNTS: usize = 15;

/// Runs `unit` on this thread, checking the clock after each one, until
/// `secs` have passed. `unit` returns how many reads it found wrong;
/// `dev` reads the device counters.
pub fn window<D: QueueDevice + 'static>(
    fs: &mut Lfs<D>,
    dev: fn(&Lfs<D>) -> DevSnap,
    secs: Duration,
    tracing: bool,
    mut unit: impl FnMut(&mut Meter<Lfs<D>>) -> u64,
) -> Pass {
    let dev0 = dev(fs);
    let lfs0 = LfsSnap::of(fs.stats());
    let start = Instant::now();
    let rec = Recorder::new(start, 0, tracing);
    let mut meter = Meter::new(
        fs,
        rec,
        Some(Box::new(|fs: &mut Lfs<D>| Snap::of(fs.stats()))),
    );
    let deadline = start + secs;
    let mut bad = 0;
    loop {
        bad += unit(&mut meter);
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let rec = meter.rec;
    Pass {
        rec,
        wall_ns,
        thread_ns: wall_ns,
        dev: dev(fs).since(&dev0),
        lfs: LfsSnap::of(fs.stats()).since(&lfs0),
        shared: None,
        verify_failures: bad,
        threads: 1,
        extra: LayerExtra::default(),
    }
}

/// Mounts [`MOUNTS`] fresh copies of a crash image made by `copy`, timing
/// each mount, and hands the first mounted file system to `check`.
pub fn remount<D: QueueDevice>(
    cfg: LfsConfig,
    copy: impl Fn() -> D,
    check: impl FnOnce(&mut Lfs<D>, &mut Recovery),
) -> Recovery {
    let mut rec = Recovery::default();
    let mut check = Some(check);
    for _ in 0..MOUNTS {
        let dev = copy();
        let t = Instant::now();
        let mounted = Lfs::mount(dev, cfg);
        let ns = t.elapsed().as_nanos() as u64;
        match mounted {
            Ok(mut fs) => {
                rec.mount_ns.push(ns);
                if let Some(check) = check.take() {
                    rec.replay_bytes = fs.device().stats().bytes_read;
                    check(&mut fs, &mut rec);
                }
            }
            Err(e) => {
                rec.checked += 1;
                rec.note_bad(format!("mount after crash failed: {e}"));
                return rec;
            }
        }
    }
    rec
}
