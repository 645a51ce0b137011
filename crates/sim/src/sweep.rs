//! Parallel sweeps over independent benchmark points.
//!
//! Regenerating the paper's Figures 4–7 means running the §3.5 simulator
//! to stabilisation at many independent `(utilization, pattern, policy)`
//! points. Each point owns its own [`SimConfig`] — including its own PRNG
//! seed — so the points share no state whatsoever and the sweep is
//! embarrassingly parallel. The figure and table binaries that drive a
//! real file system (Figures 8 and 9, Tables 2 and 3) use the same
//! [`map_indexed`] helper: each of their points formats its own disk and
//! runs its own workload.
//!
//! Determinism is unaffected by parallelism: every point's RNG stream is
//! derived only from its own config's seed, never from thread scheduling,
//! so [`run_parallel`] returns bit-identical results to [`run_serial`] in
//! the same (input) order. The determinism regression test below pins
//! this.
//!
//! Thread count defaults to the host's available parallelism and can be
//! overridden with the `LFS_SWEEP_THREADS` environment variable
//! (`LFS_SWEEP_THREADS=1` forces the serial path).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{SimConfig, SimResult, Simulator};

/// Worker-thread count: `LFS_SWEEP_THREADS` if set, else the host's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("LFS_SWEEP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `f(0..n)` across `threads` workers and returns the results
/// indexed exactly like the inputs.
///
/// Workers pull the next unclaimed index from a shared counter and
/// deposit the result in that index's slot, so scheduling affects only
/// wall-clock, never content or order — provided `f` is a pure function
/// of its index.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep worker skipped a point")
        })
        .collect()
}

/// Runs every point to stabilisation on the calling thread, in order.
pub fn run_serial(points: &[SimConfig]) -> Vec<SimResult> {
    run_parallel(points, 1)
}

/// Runs every point to stabilisation across `threads` worker threads,
/// returning the results in the order of `points`.
pub fn run_parallel(points: &[SimConfig], threads: usize) -> Vec<SimResult> {
    map_indexed(points.len(), threads, |i| {
        Simulator::new(points[i]).run_until_stable()
    })
}

/// Runs every point with [`default_threads`] workers.
pub fn run(points: &[SimConfig]) -> Vec<SimResult> {
    run_parallel(points, default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, Policy};

    fn point(util: f64) -> SimConfig {
        SimConfig {
            nsegments: 60,
            blocks_per_segment: 32,
            clean_target: 3,
            segs_per_pass: 3,
            pattern: AccessPattern::hot_cold_default(),
            policy: Policy::CostBenefit,
            age_sort: true,
            ..SimConfig::default_at(util)
        }
    }

    /// A parallel sweep must be bit-identical to the serial loop at every
    /// point, regardless of how many workers raced over the work queue.
    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        // The generic helper the real-file-system binaries use keeps input
        // order for any worker count, and a single point runs inline.
        let in_order: Vec<u64> = (0..17).map(|i| (i as u64) * 31 + 7).collect();
        assert_eq!(map_indexed(17, 8, |i| (i as u64) * 31 + 7), in_order);
        assert_eq!(map_indexed(1, 8, |i| i), vec![0]);

        let points: Vec<SimConfig> = [0.3, 0.5, 0.75].into_iter().map(point).collect();
        let serial = run_serial(&points);
        let parallel = run_parallel(&points, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            // Bit-identical, not approximately equal.
            assert_eq!(s.write_cost.to_bits(), p.write_cost.to_bits());
            assert_eq!(s.steps, p.steps);
            assert_eq!(
                s.avg_cleaned_utilization.to_bits(),
                p.avg_cleaned_utilization.to_bits()
            );
            assert_eq!(
                s.cleaning_histogram.fractions(),
                p.cleaning_histogram.fractions()
            );
            assert_eq!(
                s.cleaned_histogram.fractions(),
                p.cleaned_histogram.fractions()
            );
        }
    }

    #[test]
    fn thread_override_parses() {
        // Results must not depend on the worker count either.
        let points: Vec<SimConfig> = [0.4, 0.6].into_iter().map(point).collect();
        let two = run_parallel(&points, 2);
        let eight = run_parallel(&points, 8);
        for (a, b) in two.iter().zip(&eight) {
            assert_eq!(a.write_cost.to_bits(), b.write_cost.to_bits());
        }
    }
}
