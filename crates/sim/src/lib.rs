#![warn(missing_docs)]

//! The file-system simulator of Section 3.5.
//!
//! "We built a simple file system simulator so that we could analyze
//! different cleaning policies under controlled conditions. The simulator
//! models a file system as a fixed number of 4-kbyte files, with the
//! number chosen to produce a particular overall disk capacity
//! utilization. At each step, the simulator overwrites one of the files
//! with new data, using one of two pseudo-random access patterns"
//! (uniform, or hot-and-cold with 90% of accesses to 10% of the files).
//!
//! The simulator runs until the write cost stabilises, exactly as in the
//! paper, and can snapshot the segment-utilization distribution "at the
//! points during the simulation when segment cleaning was initiated"
//! (Figures 5 and 6). It reproduces:
//!
//! - Figure 3 — the analytic write-cost formula ([`write_cost_formula`]);
//! - Figure 4 — greedy cleaning under uniform and hot-and-cold access;
//! - Figure 5 — utilization distributions for the greedy policy;
//! - Figure 6 — the bimodal distribution under cost-benefit cleaning;
//! - Figure 7 — write cost of cost-benefit vs greedy.

mod histogram;
mod simulator;
pub mod sweep;

pub use histogram::Histogram;
pub use simulator::{SimResult, Simulator};

/// How files are chosen for overwriting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Every file equally likely.
    Uniform,
    /// `hot_fraction` of the files receive `hot_access_fraction` of the
    /// accesses; the paper's hot-and-cold uses 0.1 / 0.9.
    HotCold {
        /// Fraction of files in the hot group.
        hot_fraction: f64,
        /// Fraction of accesses that go to the hot group.
        hot_access_fraction: f64,
    },
    /// Zipfian access: file of rank `r` is chosen with probability
    /// proportional to `1 / (r+1)^theta`. Unlike `HotCold`'s two flat
    /// groups this produces a continuous popularity gradient — the
    /// key-value-store shape the skew parameter `theta` (0 < theta < 1,
    /// commonly 0.99-like skews use 0.9) comes from.
    Zipf {
        /// Skew exponent in `(0, 1)`; higher is more skewed.
        theta: f64,
    },
}

impl AccessPattern {
    /// The paper's hot-and-cold pattern: 10% of files get 90% of writes.
    pub fn hot_cold_default() -> AccessPattern {
        AccessPattern::HotCold {
            hot_fraction: 0.1,
            hot_access_fraction: 0.9,
        }
    }

    /// A key-value-store-like Zipfian skew.
    pub fn zipf_default() -> AccessPattern {
        AccessPattern::Zipf { theta: 0.9 }
    }
}

/// Which policy selects segments for cleaning: the real file system's
/// policy type, so the simulator ranks segments with the same
/// [`Policy::rank`] formulas.
pub use lfs_core::CleaningPolicy as Policy;

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of segments on the simulated disk.
    pub nsegments: u32,
    /// Blocks (= files) per segment.
    pub blocks_per_segment: u32,
    /// Overall disk capacity utilization the file population produces.
    pub disk_utilization: f64,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Cleaning policy.
    pub policy: Policy,
    /// Sort live blocks by age before writing them out (§3.4 policy 4).
    pub age_sort: bool,
    /// Cleaning runs until this many clean segments exist.
    pub clean_target: u32,
    /// Segments cleaned per pass ("a few tens at a time").
    pub segs_per_pass: u32,
    /// Number of temperature-keyed write streams (log heads). `1` is the
    /// classic single-head log; with more, new writes are routed by a
    /// per-file heat estimate (hottest stream first) and cleaner
    /// relocations go to the coldest stream — mirroring `lfs_core`'s
    /// write-stream machinery.
    pub streams: u32,
    /// PRNG seed (the simulator is fully deterministic).
    pub seed: u64,
}

impl SimConfig {
    /// The calibrated default configuration.
    ///
    /// The paper does not give the simulator's disk size or cleaning
    /// thresholds; these values are calibrated (see DESIGN.md) so that the
    /// simulator operates in the regime the paper's results imply: the
    /// clean-segment pool is *small* relative to the hot working set, so
    /// hot segments are cleaned before they decay fully and the dead-space
    /// budget accumulates in the slowly-decaying cold segments. In this
    /// regime all four qualitative results of §3.5 reproduce: greedy is
    /// worse under locality than under uniform access, and cost-benefit
    /// beats greedy with a bimodal segment distribution.
    pub fn default_at(utilization: f64) -> SimConfig {
        SimConfig {
            nsegments: 300,
            blocks_per_segment: 64,
            disk_utilization: utilization,
            pattern: AccessPattern::Uniform,
            policy: Policy::Greedy,
            age_sort: false,
            clean_target: 4,
            segs_per_pass: 4,
            streams: 1,
            seed: 0x5eed,
        }
    }

    /// Number of files this configuration simulates.
    pub fn num_files(&self) -> u32 {
        let total = self.nsegments as u64 * self.blocks_per_segment as u64;
        ((total as f64 * self.disk_utilization) as u64).max(1) as u32
    }
}

/// The analytic write cost of formula (1):
/// `write cost = 2 / (1 - u)` for `0 < u < 1`, and 1.0 at `u = 0`
/// (an empty segment need not be read at all).
pub fn write_cost_formula(u: f64) -> f64 {
    assert!((0.0..1.0).contains(&u), "u must be in [0, 1)");
    if u == 0.0 {
        1.0
    } else {
        2.0 / (1.0 - u)
    }
}

/// The paper's reference point for Unix FFS on small-file workloads:
/// 5–10% of disk bandwidth → write cost 10–20. We plot the optimistic end.
pub const FFS_TODAY_WRITE_COST: f64 = 10.0;

/// The paper's estimate for an improved Unix FFS (logging, delayed
/// writes, disk request sorting): ~25% of bandwidth → write cost 4.
pub const FFS_IMPROVED_WRITE_COST: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_paper_anchor_points() {
        assert_eq!(write_cost_formula(0.0), 1.0);
        assert!((write_cost_formula(0.5) - 4.0).abs() < 1e-12);
        assert!((write_cost_formula(0.8) - 10.0).abs() < 1e-9);
        // u = 0.8 is where LFS crosses FFS-today; u = 0.5 crosses
        // FFS-improved (§3.4).
        assert!((write_cost_formula(0.8) - FFS_TODAY_WRITE_COST).abs() < 1e-9);
        assert!((write_cost_formula(0.5) - FFS_IMPROVED_WRITE_COST).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn formula_rejects_full_segments() {
        write_cost_formula(1.0);
    }

    #[test]
    fn num_files_scales_with_utilization() {
        let lo = SimConfig::default_at(0.25).num_files();
        let hi = SimConfig::default_at(0.75).num_files();
        assert_eq!(hi, 3 * lo);
    }
}
