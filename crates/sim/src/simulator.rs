//! The simulator core.

use std::collections::VecDeque;

use lfs_core::cleaner::PolicyCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::histogram::Histogram;
use crate::{AccessPattern, Policy, SimConfig};

const NO_SEG: u32 = u32::MAX;

/// Q16 fixed-point heat unit (mirrors `lfs_core`'s estimator).
const HEAT_ONE: u32 = 1 << 16;
/// At or above this a file routes to the hottest stream.
const HEAT_HOT: u32 = 3 * HEAT_ONE;
/// At or above this a file routes to the warm stream.
const HEAT_WARM: u32 = HEAT_ONE;

/// Precomputed Zipfian sampler (Gray et al.'s quick method): one uniform
/// draw per sample after an O(n) harmonic precomputation.
#[derive(Clone, Copy)]
struct Zipf {
    n: u32,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u32, theta: f64) -> Zipf {
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "Zipf theta must be in (0, 1)"
        );
        let zetan: f64 = (1..=n as u64).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 2f64.powf(-theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Maps a uniform draw in `[0, 1)` to a rank in `[0, n)` (rank 0 is
    /// the most popular).
    fn sample(&self, u: f64) -> u32 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 2f64.powf(-self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u32;
        r.min(self.n - 1)
    }
}

/// Where a file's single block currently lives.
#[derive(Clone, Copy)]
struct FileLoc {
    seg: u32,
    pos: u32,
}

/// One simulated segment.
#[derive(Clone)]
struct Segment {
    /// Blocks appended, in order: `(file id, write time of the block)`.
    entries: Vec<(u32, u64)>,
    live: u32,
    /// Most recent modified time of any block in the segment (§3.6).
    youngest: u64,
    clean: bool,
}

impl Segment {
    fn fresh() -> Segment {
        Segment {
            entries: Vec::new(),
            live: 0,
            youngest: 0,
            clean: true,
        }
    }
}

/// Result of running the simulator to convergence.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The stabilised write cost.
    pub write_cost: f64,
    /// Utilization distribution of segments available to the cleaner,
    /// sampled whenever cleaning started (Figures 5 and 6).
    pub cleaning_histogram: Histogram,
    /// Utilization distribution of the segments actually *cleaned* —
    /// bimodal under cost-benefit ("most of the segments cleaned had
    /// utilizations around 15%", Figure 6 caption).
    pub cleaned_histogram: Histogram,
    /// Average utilization of the segments actually cleaned.
    pub avg_cleaned_utilization: f64,
    /// Steps executed.
    pub steps: u64,
}

/// The Section 3.5 simulator.
pub struct Simulator {
    cfg: SimConfig,
    rng: StdRng,
    files: Vec<FileLoc>,
    segs: Vec<Segment>,
    /// Ring of clean segment ids. Invariant: a segment id is in the ring
    /// iff its `clean` flag is set, so `free_list.len()` is the clean
    /// count and both the space check in `step()` and the advance in
    /// `append_block()` are O(1) instead of scans over every segment.
    free_list: VecDeque<u32>,
    /// One log head per temperature stream: `cur_segs[0]` is the hottest
    /// (and with `streams = 1` the only, historical head), the last the
    /// coldest — where the cleaner writes its relocations.
    cur_segs: Vec<u32>,
    /// Per-file exponential-decay heat `(q16, last touch)`; empty with a
    /// single stream (nothing reads it).
    heat: Vec<(u32, u64)>,
    /// Heat half-life in steps: every file is written about once per
    /// `nfiles` steps under uniform access, so hot files (written much
    /// more often) accumulate heat while cold ones decay to zero.
    heat_half_life: u64,
    zipf: Option<Zipf>,
    clock: u64,
    // Write-cost accounting (current measurement window).
    new_blocks: u64,
    cleaner_read_blocks: u64,
    cleaner_written_blocks: u64,
    cleaning_histogram: Histogram,
    cleaned_histogram: Histogram,
    cleaned_util_sum: f64,
    cleaned_count: u64,
    /// Trace sink for cleaner-pass events. Off by default; `step()` never
    /// touches it (the only emit site is inside `run_cleaner`), so the
    /// hot loop pays nothing for the instrumentation.
    trace: lfs_obs::Trace,
}

impl Simulator {
    /// Builds the simulator and performs the initial sequential layout of
    /// all files (the "initially all the free space is in a single extent"
    /// state of §3.2).
    pub fn new(cfg: SimConfig) -> Simulator {
        let nfiles = cfg.num_files();
        assert!(
            (nfiles as u64) < cfg.nsegments as u64 * cfg.blocks_per_segment as u64,
            "disk utilization must be below 1.0"
        );
        let nstreams = cfg.streams.clamp(1, 4);
        assert!(
            nstreams < cfg.nsegments,
            "stream count must leave segments to write into"
        );
        let zipf = match cfg.pattern {
            AccessPattern::Zipf { theta } => Some(Zipf::new(nfiles, theta)),
            _ => None,
        };
        let mut sim = Simulator {
            rng: StdRng::seed_from_u64(cfg.seed),
            files: vec![
                FileLoc {
                    seg: NO_SEG,
                    pos: 0
                };
                nfiles as usize
            ],
            segs: vec![Segment::fresh(); cfg.nsegments as usize],
            // Segments 0..streams become the initial log heads below;
            // the rest are the clean pool.
            free_list: (nstreams..cfg.nsegments).collect(),
            cur_segs: (0..nstreams).collect(),
            heat: if nstreams > 1 {
                vec![(0, 0); nfiles as usize]
            } else {
                Vec::new()
            },
            heat_half_life: (nfiles as u64 / 2).max(1),
            zipf,
            clock: 0,
            new_blocks: 0,
            cleaner_read_blocks: 0,
            cleaner_written_blocks: 0,
            cleaning_histogram: Histogram::new(50),
            cleaned_histogram: Histogram::new(50),
            cleaned_util_sum: 0.0,
            cleaned_count: 0,
            trace: lfs_obs::Trace::off(),
            cfg,
        };
        for s in 0..nstreams {
            sim.segs[s as usize].clean = false;
        }
        // The initial population has no heat yet, so with several
        // streams it lays out on the coldest — the right prior: a file
        // proves itself hot by being overwritten.
        let t = nstreams as usize - 1;
        for f in 0..nfiles {
            sim.append_block(f, 0, t, false);
        }
        sim
    }

    fn nstreams(&self) -> usize {
        self.cur_segs.len()
    }

    /// Decayed heat of file `f` at the current clock.
    fn file_heat(&self, f: u32) -> u32 {
        let (q, last) = self.heat[f as usize];
        let shifts = (self.clock.saturating_sub(last) / self.heat_half_life).min(31);
        q >> shifts
    }

    /// Records a write to `f` in the heat estimator (several streams
    /// only; a single-stream simulator never calls this).
    fn touch_file(&mut self, f: u32) {
        let q = self.file_heat(f);
        self.heat[f as usize] = (q.saturating_add(HEAT_ONE), self.clock);
    }

    /// The stream a new write of `f` routes to: hottest first, mirroring
    /// `lfs_core::heat`'s class thresholds.
    fn stream_of(&self, f: u32) -> usize {
        let n = self.nstreams();
        if n == 1 {
            return 0;
        }
        let q = self.file_heat(f);
        if q >= HEAT_HOT {
            0
        } else if q >= HEAT_WARM {
            1.min(n - 1)
        } else {
            n - 1
        }
    }

    /// Routes cleaner-pass trace events (picked-segment utilizations,
    /// empty counts) into `trace`, timestamped with the simulation clock.
    pub fn set_trace(&mut self, trace: lfs_obs::Trace) {
        self.trace = trace;
    }

    /// The attached trace handle (off by default).
    pub fn trace(&self) -> &lfs_obs::Trace {
        &self.trace
    }

    fn pick_file(&mut self) -> u32 {
        let n = self.files.len() as u32;
        match self.cfg.pattern {
            AccessPattern::Uniform => self.rng.gen_range(0..n),
            AccessPattern::HotCold {
                hot_fraction,
                hot_access_fraction,
            } => {
                let hot_files = ((n as f64 * hot_fraction) as u32).max(1).min(n);
                if hot_files == n || self.rng.gen_bool(hot_access_fraction) {
                    self.rng.gen_range(0..hot_files)
                } else {
                    self.rng.gen_range(hot_files..n)
                }
            }
            AccessPattern::Zipf { .. } => {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                self.zipf
                    .expect("Zipf sampler precomputed in new()")
                    .sample(u)
            }
        }
    }

    /// Appends one block for file `f` to stream `t`'s log head,
    /// invalidating its old copy. `mtime` is the block's modification
    /// time carried along by the cleaner; new writes use the current
    /// clock.
    fn append_block(&mut self, f: u32, mtime: u64, t: usize, by_cleaner: bool) {
        // Advance to a clean segment if the stream's segment is full.
        if self.segs[self.cur_segs[t] as usize].entries.len()
            >= self.cfg.blocks_per_segment as usize
        {
            let next = self
                .free_list
                .pop_front()
                .expect("out of clean segments — cleaner invariant broken");
            self.cur_segs[t] = next;
            let seg = &mut self.segs[next as usize];
            seg.clean = false;
            seg.entries.clear();
            seg.live = 0;
            seg.youngest = 0;
        }
        // Invalidate the old copy.
        let old = self.files[f as usize];
        if old.seg != NO_SEG {
            self.segs[old.seg as usize].live -= 1;
        }
        let cur = self.cur_segs[t];
        let seg = &mut self.segs[cur as usize];
        let pos = seg.entries.len() as u32;
        seg.entries.push((f, mtime));
        seg.live += 1;
        seg.youngest = seg.youngest.max(mtime);
        self.files[f as usize] = FileLoc { seg: cur, pos };
        if by_cleaner {
            self.cleaner_written_blocks += 1;
        }
    }

    fn clean_segments_available(&self) -> u32 {
        self.free_list.len() as u32
    }

    /// One simulation step: overwrite one file; clean if out of space.
    pub fn step(&mut self) {
        self.clock += 1;
        let full = |sim: &Simulator, t: usize| {
            sim.segs[sim.cur_segs[t] as usize].entries.len() >= sim.cfg.blocks_per_segment as usize
        };
        if self.nstreams() == 1 {
            // Ensure space exists before writing (the cleaner needs the
            // segments it fills to already be clean). The check comes
            // before the pick, preserving the historical single-stream
            // RNG draw sequence exactly.
            if self.free_list.is_empty() && full(self, 0) {
                self.run_cleaner(0);
            }
            let f = self.pick_file();
            let now = self.clock;
            self.append_block(f, now, 0, false);
        } else {
            // The target stream depends on the file, so pick first. The
            // stream is judged on the heat *before* this write: one
            // write does not make a cold file warm.
            let f = self.pick_file();
            let t = self.stream_of(f);
            self.touch_file(f);
            if self.free_list.is_empty() && full(self, t) {
                self.run_cleaner(t);
            }
            let now = self.clock;
            self.append_block(f, now, t, false);
        }
        self.new_blocks += 1;
    }

    /// Runs the cleaner until enough clean segments exist — "the simulator
    /// runs until all clean segments are exhausted, then simulates the
    /// actions of a cleaner until a threshold number of clean segments is
    /// available again."
    ///
    /// The target is capped at what the live data physically allows:
    /// at high disk utilizations, `clean_target` clean segments may not be
    /// achievable, and cleaning fully-live segments (`u = 1`) would move
    /// bytes without reclaiming anything — the cleaner skips those and
    /// stops when no candidate can make progress.
    fn run_cleaner(&mut self, need: usize) {
        // One reciprocal for every utilization computed below: the
        // snapshot loop alone divides once per segment per cleaning.
        let inv_spb = 1.0 / self.cfg.blocks_per_segment as f64;
        let is_head = |sim: &Simulator, i: usize| sim.cur_segs.contains(&(i as u32));
        // Snapshot the distribution the cleaner sees (Figures 5/6),
        // skipping clean segments (nothing for the cleaner to look at).
        for (i, s) in self.segs.iter().enumerate() {
            if !s.clean && !is_head(self, i) {
                self.cleaning_histogram.add(s.live as f64 * inv_spb);
            }
        }
        let spb = self.cfg.blocks_per_segment;
        let min_live_segs = (self.files.len() as u32).div_ceil(spb);
        let max_clean = self
            .cfg
            .nsegments
            .saturating_sub(min_live_segs)
            .saturating_sub(1 + self.nstreams() as u32);
        let target = self.cfg.clean_target.min(max_clean).max(1);
        let mut stalled = 0;
        while self.clean_segments_available() < target {
            let before = self.clean_segments_available();
            // The adaptive policy scores against the candidate
            // population: mean utilization and mean age (see
            // `Policy::rank`).
            let (mean_util, mean_age) = if self.cfg.policy == Policy::Adaptive {
                let mut n = 0u64;
                let (mut us, mut ages) = (0.0f64, 0.0f64);
                for (i, s) in self.segs.iter().enumerate() {
                    if !s.clean && !is_head(self, i) && s.live < spb {
                        n += 1;
                        us += s.live as f64 * inv_spb;
                        ages += (self.clock.saturating_sub(s.youngest) + 1) as f64;
                    }
                }
                if n == 0 {
                    (0.5, 1.0)
                } else {
                    (us / n as f64, ages / n as f64)
                }
            } else {
                (0.5, 1.0)
            };
            // Pacing below uses its own target-fill deficit, so the
            // clean fraction is not needed here.
            let ctx = PolicyCtx {
                mean_util,
                mean_age,
                clean_frac: 0.0,
            };
            let mut ranked: Vec<(f64, u32)> = self
                .segs
                .iter()
                .enumerate()
                .filter(|&(i, s)| !s.clean && !is_head(self, i) && s.live < spb)
                .map(|(i, s)| {
                    let u = s.live as f64 * inv_spb;
                    let age = self.clock.saturating_sub(s.youngest) + 1;
                    (self.cfg.policy.rank(u, age, &ctx), i as u32)
                })
                .collect();
            if ranked.is_empty() {
                break; // Only fully-live segments remain.
            }
            // Only the pace's worth of top scores matter: a linear-time
            // selection beats sorting the whole candidate list, and the
            // (small) selected prefix is then ordered best-first. The
            // adaptive policy paces by the clean-segment deficit —
            // bigger installments the closer the disk is to wedging.
            let pace = if self.cfg.policy == Policy::Adaptive {
                let fill = self.clean_segments_available() as f64 / target as f64;
                let deficit = (1.0 - fill).clamp(0.0, 1.0);
                ((self.cfg.segs_per_pass as f64 * (0.25 + 0.75 * deficit)).round() as usize).max(1)
            } else {
                self.cfg.segs_per_pass as usize
            };
            let k = pace.min(ranked.len());
            let desc = |a: &(f64, u32), b: &(f64, u32)| b.0.partial_cmp(&a.0).unwrap();
            if k < ranked.len() {
                ranked.select_nth_unstable_by(k - 1, desc);
                ranked.truncate(k);
            }
            ranked.sort_by(desc);
            let picked: Vec<u32> = ranked.iter().map(|&(_, i)| i).collect();

            if self.trace.is_on() {
                let mut empty = 0u32;
                let mut utilizations = Vec::with_capacity(picked.len());
                for &si in &picked {
                    let seg = &self.segs[si as usize];
                    if seg.live == 0 {
                        empty += 1;
                    } else {
                        utilizations.push(seg.live as f64 * inv_spb);
                    }
                }
                self.trace
                    .emit(self.clock, || lfs_obs::TraceEvent::CleanerPass {
                        segments: picked.len() as u32,
                        empty,
                        utilizations,
                    });
            }

            // Gather live blocks of the picked segments.
            let mut live: Vec<(u32, u64)> = Vec::new();
            for &si in &picked {
                let seg = &self.segs[si as usize];
                let u = seg.live as f64 * inv_spb;
                self.cleaned_util_sum += u;
                self.cleaned_histogram.add(u);
                self.cleaned_count += 1;
                if seg.live > 0 {
                    // "If a segment to be cleaned has no live blocks then
                    // it need not be read at all."
                    self.cleaner_read_blocks += self.cfg.blocks_per_segment as u64;
                    // Take the entries out instead of cloning them; the
                    // drained (empty, capacity kept) vector goes back so
                    // the segment's buffer is reused across cleanings.
                    let mut entries = std::mem::take(&mut self.segs[si as usize].entries);
                    for (pos, (f, t)) in entries.drain(..).enumerate() {
                        let loc = self.files[f as usize];
                        if loc.seg == si && loc.pos == pos as u32 {
                            live.push((f, t));
                            // Detach the file from its (about to be
                            // recycled) source so the re-append below does
                            // not decrement the zeroed segment.
                            self.files[f as usize].seg = NO_SEG;
                        }
                    }
                    self.segs[si as usize].entries = entries;
                }
            }
            if self.cfg.age_sort {
                // Oldest first, so cold data segregates together.
                live.sort_by_key(|&(_, t)| t);
            }
            // Mark sources clean, then write the live blocks back to the
            // head of the log.
            for &si in &picked {
                let seg = &mut self.segs[si as usize];
                seg.entries.clear();
                seg.live = 0;
                seg.youngest = 0;
                seg.clean = true;
                self.free_list.push_back(si);
            }
            // Relocations route by the surviving file's own heat, with
            // the coldest stream as the unheated default. Blanket
            // cold-routing would be wrong for the live blocks salvaged
            // out of a *hot* segment: they survived because they are
            // recent, and burying them in cold segments seeds those
            // segments with soon-to-die bytes (the exact mixing the
            // streams exist to prevent).
            for (f, t) in live {
                let mut dst = self.stream_of(f);
                // Near the packing limit the preferred head may be full
                // with no clean segment left to extend it. Some head
                // always has room — a pass frees at least as much space
                // as it rewrites — so spill there rather than wedge.
                // (Mixing temperatures when the disk is this full is the
                // lesser evil.)
                let full = |sim: &Simulator, s: usize| {
                    sim.segs[sim.cur_segs[s] as usize].entries.len() >= spb as usize
                };
                if self.free_list.is_empty() && full(self, dst) {
                    if let Some(alt) = (0..self.nstreams()).find(|&s| !full(self, s)) {
                        dst = alt;
                    }
                }
                self.append_block(f, t, dst, true);
            }
            // Guard against zero-net oscillation near the packing limit.
            if self.clean_segments_available() <= before {
                stalled += 1;
                if stalled >= 3 {
                    break;
                }
            } else {
                stalled = 0;
            }
        }
        assert!(
            self.clean_segments_available() > 0
                || self.segs[self.cur_segs[need] as usize].entries.len()
                    < self.cfg.blocks_per_segment as usize,
            "cleaner could not reclaim any space — disk utilization too high"
        );
    }

    /// Write cost accumulated in the current measurement window.
    fn window_write_cost(&self) -> f64 {
        if self.new_blocks == 0 {
            return 1.0;
        }
        (self.new_blocks + self.cleaner_read_blocks + self.cleaner_written_blocks) as f64
            / self.new_blocks as f64
    }

    fn reset_window(&mut self) {
        self.new_blocks = 0;
        self.cleaner_read_blocks = 0;
        self.cleaner_written_blocks = 0;
    }

    /// Runs until the write cost stabilises ("in each run the simulator
    /// was allowed to run until the write cost stabilized and all
    /// cold-start variance had been removed").
    pub fn run_until_stable(&mut self) -> SimResult {
        let n = self.files.len() as u64;
        let window = (n * 8).max(50_000);
        // Warm-up must remove *all* cold-start variance (the paper's
        // phrase): under hot-and-cold access a cold file is overwritten
        // only once per `0.9 n / 0.1` steps, and the standing population
        // of slowly-decaying cold segments is exactly what the greedy
        // pathology of Figure 5 depends on. Run long enough for every
        // cold file to have been rewritten several times.
        let warmup = match self.cfg.pattern {
            AccessPattern::Uniform => n * 20,
            // Skewed patterns: the coldest files are rewritten orders of
            // magnitude less often, and the standing cold-segment
            // population is what the policy comparisons depend on.
            AccessPattern::HotCold { .. } | AccessPattern::Zipf { .. } => n * 60,
        }
        .max(100_000);
        for _ in 0..warmup {
            self.step();
        }
        self.reset_window();
        // Drop the cold-start histogram too.
        self.cleaning_histogram = Histogram::new(50);
        self.cleaned_histogram = Histogram::new(50);
        self.cleaned_util_sum = 0.0;
        self.cleaned_count = 0;

        let mut prev = f64::INFINITY;
        let mut steps = window;
        for _round in 0..40 {
            for _ in 0..window {
                self.step();
            }
            steps += window;
            let wc = self.window_write_cost();
            if (wc - prev).abs() / wc < 0.01 {
                prev = wc;
                break;
            }
            prev = wc;
            self.reset_window();
        }
        SimResult {
            write_cost: prev,
            cleaning_histogram: self.cleaning_histogram.clone(),
            cleaned_histogram: self.cleaned_histogram.clone(),
            avg_cleaned_utilization: if self.cleaned_count == 0 {
                0.0
            } else {
                self.cleaned_util_sum / self.cleaned_count as f64
            },
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_cost_formula;

    fn quick(cfg: SimConfig) -> SimResult {
        Simulator::new(cfg).run_until_stable()
    }

    /// A scaled-down version of the calibrated default regime: the clean
    /// pool stays small relative to the hot working set (see
    /// `SimConfig::default_at`).
    fn small(util: f64) -> SimConfig {
        SimConfig {
            nsegments: 150,
            blocks_per_segment: 32,
            disk_utilization: util,
            clean_target: 3,
            segs_per_pass: 3,
            ..SimConfig::default_at(util)
        }
    }

    #[test]
    fn trace_records_cleaner_passes_with_utilizations() {
        let mut sim = Simulator::new(small(0.75));
        sim.set_trace(lfs_obs::Trace::ring(1024));
        for _ in 0..50_000 {
            sim.step();
        }
        let counts = sim.trace().counts();
        assert!(
            counts.get("cleaner_pass").copied().unwrap_or(0) > 0,
            "no cleaner passes traced: {counts:?}"
        );
        // Utilizations in the events must be valid fractions.
        for line in sim.trace().to_jsonl().lines() {
            let v = serde_json::from_str(line).expect("trace line parses");
            if let Some(us) = v.get("utilizations").and_then(|u| u.as_array()) {
                for u in us {
                    let u = u.as_f64().unwrap();
                    assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
                }
            }
        }
    }

    #[test]
    fn low_utilization_write_cost_near_one() {
        let r = quick(small(0.10));
        assert!(
            r.write_cost < 2.0,
            "write cost {} at 10% utilization",
            r.write_cost
        );
    }

    #[test]
    fn write_cost_grows_with_utilization() {
        let lo = quick(small(0.3)).write_cost;
        let hi = quick(small(0.8)).write_cost;
        assert!(hi > lo * 1.5, "lo={lo} hi={hi}");
    }

    #[test]
    fn greedy_uniform_beats_no_variance_formula() {
        // "Even with uniform random access patterns, the variance in
        // segment utilization allows a substantially lower write cost
        // than would be predicted from the overall disk capacity
        // utilization and formula (1)."
        let util = 0.75;
        let r = quick(small(util));
        assert!(
            r.write_cost < write_cost_formula(util),
            "measured {} vs formula {}",
            r.write_cost,
            write_cost_formula(util)
        );
        // And the segments cleaned have lower utilization than the disk
        // average (~0.55 at 75% in the paper).
        assert!(
            r.avg_cleaned_utilization < util,
            "cleaned at u={}",
            r.avg_cleaned_utilization
        );
    }

    #[test]
    fn hot_cold_greedy_worse_than_uniform_greedy() {
        // The surprising Figure 4 result: locality + greedy is WORSE.
        let mut u = small(0.75);
        u.seed = 7;
        let uniform = quick(u).write_cost;
        let mut hc = small(0.75);
        hc.pattern = AccessPattern::hot_cold_default();
        hc.age_sort = true;
        hc.seed = 7;
        let hotcold = quick(hc).write_cost;
        assert!(
            hotcold > uniform,
            "hot-and-cold {hotcold} should exceed uniform {uniform}"
        );
    }

    #[test]
    fn cost_benefit_beats_greedy_on_hot_cold() {
        // Figure 7: cost-benefit reduces write cost substantially under
        // locality.
        let mut g = small(0.75);
        g.pattern = AccessPattern::hot_cold_default();
        g.policy = Policy::Greedy;
        g.age_sort = true;
        let greedy = quick(g).write_cost;
        let mut cb = g;
        cb.policy = Policy::CostBenefit;
        let cost_benefit = quick(cb).write_cost;
        assert!(
            cost_benefit < greedy,
            "cost-benefit {cost_benefit} vs greedy {greedy}"
        );
    }

    #[test]
    fn cost_benefit_distribution_is_bimodal() {
        // Figure 6: cold segments cleaned around high utilization, hot
        // around low — mass at both ends of the cleaned distribution.
        let mut cfg = small(0.75);
        cfg.pattern = AccessPattern::hot_cold_default();
        cfg.policy = Policy::CostBenefit;
        cfg.age_sort = true;
        let r = quick(cfg);
        let h = &r.cleaned_histogram;
        assert!(h.total() > 0);
        let low = h.mass_in(0.0, 0.35);
        let high = h.mass_in(0.6, 1.01);
        assert!(
            low > 0.1 && high > 0.1,
            "expected bimodal cleaned distribution: low {low}, high {high}"
        );
    }

    #[test]
    fn locality_with_greedy_never_beats_uniform() {
        // The paper also reports that greedy got "worse and worse as the
        // locality increased" (§3.5). In our simulator the *direction*
        // (locality hurts greedy relative to uniform) reproduces, but the
        // monotonic sharpening does not: a very small hot set decays fully
        // between cleanings and gets cheap again. EXPERIMENTS.md records
        // this divergence. Here we pin the part that does hold: both
        // locality settings stay at or above the uniform cost.
        let uniform_wc = quick(SimConfig::default_at(0.75)).write_cost;
        for (hf, ha) in [(0.1, 0.9), (0.05, 0.95)] {
            let mut cfg = SimConfig::default_at(0.75);
            cfg.pattern = AccessPattern::HotCold {
                hot_fraction: hf,
                hot_access_fraction: ha,
            };
            cfg.age_sort = true;
            let wc = quick(cfg).write_cost;
            assert!(
                wc > uniform_wc * 0.9,
                "hot/cold {hf}/{ha}: {wc} collapsed below uniform {uniform_wc}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(small(0.5)).write_cost;
        let b = quick(small(0.5)).write_cost;
        assert_eq!(a, b);
    }
}
