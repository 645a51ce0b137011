//! The segment cleaner: mechanism (§3.3) and policies (§3.4–3.6).
//!
//! The mechanism is the paper's three-step process: "read a number of
//! segments into memory, identify the live data, and write the live data
//! back to a smaller number of clean segments." Liveness is established
//! from the segment summary: the uid (inode number + version) check
//! discards blocks of deleted or truncated files without touching the
//! inode; surviving candidates are confirmed against the actual block
//! pointers.
//!
//! Policy: segments are selected either greedily (least utilized first) or
//! by the cost-benefit ratio
//!
//! ```text
//! benefit   (1 - u) * age
//! ------- = -------------
//!   cost        1 + u
//! ```
//!
//! which "allows cold segments to be cleaned at a much higher utilization
//! than hot segments" (§3.5). With age-sorting enabled, live blocks are
//! written back grouped by age so cold data segregates into its own
//! segments — the source of the bimodal distribution in Figure 6.

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{FsError, FsResult};

use crate::config::CleaningPolicy;
use crate::fs::{CachedBlock, IndKey, Lfs};
use crate::inode::{Inode, INODE_DISK_SIZE};
use crate::layout::DiskAddr;
use crate::summary::{EntryKind, Summary};
use crate::usage::SegState;

/// What a policy may observe about the candidate population before
/// scoring individual segments: the live segment-utilization
/// distribution, summarized. Greedy and cost-benefit ignore it (their
/// scores are per-segment functions); the adaptive policy reads it to
/// blend between the two regimes and to pace itself.
#[derive(Clone, Copy, Debug)]
pub struct PolicyCtx {
    /// Mean utilization of the dirty (cleanable) segments.
    pub mean_util: f64,
    /// Mean age of the dirty segments, in logical clock ticks.
    pub mean_age: f64,
    /// Clean segments as a fraction of all segments.
    pub clean_frac: f64,
}

/// Victim selection and pacing (§3.4–3.6 generalized): each policy
/// scores candidate segments and decides how many to take per pass.
///
/// The adaptive policy follows Lomet & Luo. Cost-benefit's fixed `age`
/// weighting has two failure modes: when the disk is mostly empty it
/// passes over nearly-free segments in favour of old half-full ones
/// (copying for no reason), and its age term has dimensions of raw clock
/// ticks, so its strength varies with geometry and workload rate.
/// Adaptive fixes both by reading the candidate population: ages are
/// normalized by the population mean (scale-free), and the age term is
/// weighted by the population's mean utilization — on an emptyish disk
/// (low mean utilization) it scores almost purely on free space like
/// greedy, while on a full disk it leans on age like cost-benefit, where
/// hot/cold segregation matters most. Pacing scales with the
/// clean-segment deficit so a nearly-wedged disk cleans in bigger
/// installments and an idle one in smaller.
impl CleaningPolicy {
    /// Short name for traces, metrics and benches.
    pub fn name(self) -> &'static str {
        match self {
            CleaningPolicy::Greedy => "greedy",
            CleaningPolicy::CostBenefit => "cost-benefit",
            CleaningPolicy::Adaptive => "adaptive",
        }
    }

    /// Ranks a segment for cleaning: higher is better. `u` is the
    /// segment's utilization and `age` the time since its youngest block
    /// was written. Greedy takes the least-utilized segment (§3.4);
    /// cost-benefit is the paper's `(1-u)*age/(1+u)` (§3.5).
    pub fn rank(self, u: f64, age: u64, ctx: &PolicyCtx) -> f64 {
        match self {
            CleaningPolicy::Greedy => 1.0 - u,
            CleaningPolicy::CostBenefit => (1.0 - u) * age as f64 / (1.0 + u),
            CleaningPolicy::Adaptive => {
                let age_norm = age as f64 / ctx.mean_age.max(1.0);
                (1.0 - u) / (1.0 + u) * (1.0 + age_norm * ctx.mean_util)
            }
        }
    }

    /// How many segments to pick this pass, given the configured base.
    pub fn pace(self, base: u32, ctx: &PolicyCtx) -> u32 {
        match self {
            CleaningPolicy::Greedy | CleaningPolicy::CostBenefit => base,
            CleaningPolicy::Adaptive => {
                let deficit = (1.0 - ctx.clean_frac).clamp(0.0, 1.0);
                ((base as f64 * (0.5 + 1.5 * deficit)).round() as u32).max(1)
            }
        }
    }
}

/// Max-heap entry for candidate selection: `(score, seg, live_bytes)`
/// ordered by score descending with ties to the lower segment id — the
/// same order the previous full stable sort produced.
struct HeapCand((f64, u32, u64));

impl PartialEq for HeapCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapCand {}

impl PartialOrd for HeapCand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapCand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
             .0
            .partial_cmp(&other.0 .0)
            .unwrap_or(std::cmp::Ordering::Equal)
            // Lower segment id wins ties, so it must compare greater.
            .then(other.0 .1.cmp(&self.0 .1))
    }
}

impl<D: QueueDevice> Lfs<D> {
    /// Runs the cleaner if the number of clean segments has fallen below
    /// the low-water mark, continuing until the high-water mark is
    /// reached or nothing more can be cleaned.
    pub(crate) fn maybe_clean(&mut self) -> FsResult<()> {
        if self.cleaning {
            return Ok(());
        }
        if self.usage.clean_count() >= self.cfg.clean_low_water {
            return Ok(());
        }
        self.cleaning = true;
        let res = if self.cfg.clean_pace_segs > 0 {
            self.clean_increment()
        } else {
            self.clean_until_high_water()
        };
        self.cleaning = false;
        res
    }

    /// One paced installment of background cleaning: at most
    /// `clean_pace_segs` segments are relocated, then control returns
    /// to the foreground. The next mutation that still finds the file
    /// system below the low-water mark runs the next installment, so
    /// cleaning interleaves with foreground traffic instead of holding
    /// the write point for a full low-to-high-water burst. An
    /// installment is deferred while queued foreground writes are still
    /// in flight — the cleaner spends device idle time first.
    fn clean_increment(&mut self) -> FsResult<()> {
        if self.nsop_depth > 0 {
            // See `clean_until_high_water`: checkpoints are deferred
            // mid-namespace-operation, so copying now would only burn
            // log space.
            return Ok(());
        }
        let q = self.dev.queue_stats();
        let in_flight = q.submitted.saturating_sub(q.completed);
        if in_flight as usize * 2 > self.dev.queue_capacity() {
            // Foreground submissions fill more than half the ring; let
            // them drain rather than queueing cleaner traffic behind
            // them. The mutation stream (or the next checkpoint fence)
            // will trigger the next installment — and if it never
            // comes, allocation failure falls back to the unpaced
            // emergency path.
            return Ok(());
        }
        let mut cands = self.select_candidates();
        if cands.is_empty() {
            // A checkpoint may still promote pending-free segments.
            if self
                .usage
                .iter()
                .any(|(_, u)| u.state == SegState::PendingFree)
            {
                self.checkpoint()?;
            }
            return Ok(());
        }
        cands.truncate(self.cfg.clean_pace_segs as usize);
        self.clean_segments(&cands)?;
        self.checkpoint()?;
        Ok(())
    }

    /// Forces one cleaning pass regardless of the watermarks; returns the
    /// number of segments cleaned. Useful for experiments that study the
    /// cleaner directly.
    pub fn clean_pass(&mut self) -> FsResult<u32> {
        let was_cleaning = self.cleaning;
        self.cleaning = true;
        let res = (|| {
            let cands = self.select_candidates();
            if cands.is_empty() {
                return Ok(0);
            }
            let n = cands.len() as u32;
            self.clean_segments(&cands)?;
            self.checkpoint()?;
            Ok(n)
        })();
        self.cleaning = was_cleaning;
        res
    }

    /// Emergency cleaning invoked by `flush` when segment allocation
    /// fails: regenerate whatever clean segments the policy can, using
    /// the cleaner's reserved pool for the relocations.
    pub(crate) fn clean_for_space(&mut self) -> FsResult<()> {
        self.clean_until_high_water()
    }

    fn clean_until_high_water(&mut self) -> FsResult<()> {
        if self.nsop_depth > 0 {
            // Checkpoints are deferred while a namespace operation is
            // mid-flight (see `Lfs::checkpoint`), and without them cleaned
            // segments cannot be promoted to reusable — so copying now
            // would only burn log space. Cleaning resumes at the
            // operation's end-of-mutation policy.
            return Ok(());
        }
        let mut stalled = 0;
        loop {
            if self.usage.clean_count() >= self.cfg.clean_high_water {
                return Ok(());
            }
            let cands = self.select_candidates();
            if cands.is_empty() {
                // A checkpoint may still promote pending-free segments.
                let pending = self
                    .usage
                    .iter()
                    .any(|(_, u)| u.state == SegState::PendingFree);
                if pending {
                    self.checkpoint()?;
                    continue;
                }
                return Ok(());
            }
            let before = self.usage.clean_count();
            self.clean_segments(&cands)?;
            // The checkpoint makes the relocations durable and promotes
            // the sources to clean.
            self.checkpoint()?;
            // Guard against zero-net oscillation: when the best available
            // candidates are so full that relocating them consumes as much
            // space as it frees, stop — more free space must come from
            // future deletions, not from copying.
            if self.usage.clean_count() <= before {
                stalled += 1;
                if stalled >= 8 {
                    return Ok(());
                }
            } else {
                stalled = 0;
            }
        }
    }

    /// Chooses segments to clean under the configured policy, bounded by
    /// `segs_per_clean` and by the free space available to absorb the
    /// live data.
    fn select_candidates(&self) -> Vec<u32> {
        let seg_bytes = self.cfg.seg_bytes();
        let now = self.clock;
        let pol = self.cfg.policy;
        // Summarize the candidate population for the policy: the live
        // utilization distribution of the dirty segments plus the free
        // fraction. The fixed policies ignore it, so computing it does
        // not perturb their selections.
        let ctx = {
            let mut nsegs = 0u64;
            let mut ndirty = 0u64;
            let mut util_sum = 0.0f64;
            let mut age_sum = 0.0f64;
            for (seg, u) in self.usage.iter() {
                nsegs += 1;
                if u.state == SegState::Dirty && !self.is_write_point_seg(seg) {
                    ndirty += 1;
                    util_sum += u.utilization(seg_bytes);
                    age_sum += (now.saturating_sub(u.last_write) + 1) as f64;
                }
            }
            PolicyCtx {
                mean_util: if ndirty == 0 {
                    0.0
                } else {
                    util_sum / ndirty as f64
                },
                mean_age: if ndirty == 0 {
                    1.0
                } else {
                    age_sum / ndirty as f64
                },
                clean_frac: if nsegs == 0 {
                    0.0
                } else {
                    self.usage.clean_count() as f64 / nsegs as f64
                },
            }
        };
        let per_pass = pol.pace(self.cfg.segs_per_clean, &ctx);
        // Split candidates as they stream out of the usage table: empty
        // segments go to their own (small, capped) list, the rest into a
        // max-heap popped lazily below. Only the handful of segments a
        // pass actually picks pay ordering cost, instead of a full sort
        // of every dirty segment on each pass. Ties break toward the
        // lower segment id, matching what the previous stable sort (over
        // the id-ordered usage iterator) produced.
        let desc = |a: &(f64, u32, u64), b: &(f64, u32, u64)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut empties: Vec<(f64, u32, u64)> = Vec::new();
        let mut heap: std::collections::BinaryHeap<HeapCand> = self
            .usage
            .iter()
            .filter(|&(seg, u)| {
                !self.is_write_point_seg(seg)
                    && u.state == SegState::Dirty
                    && u.seal_seq <= self.checkpoint_seq
                    && (u.live_bytes as u64) < seg_bytes
            })
            .filter_map(|(seg, u)| {
                let util = u.utilization(seg_bytes);
                let age = now.saturating_sub(u.last_write) + 1;
                let cand = (pol.rank(util, age, &ctx), seg, u.live_bytes as u64);
                if u.live_bytes == 0 {
                    empties.push(cand);
                    None
                } else {
                    Some(HeapCand(cand))
                }
            })
            .collect();
        let empty_cap = 2 * self.cfg.clean_high_water as usize;
        if empties.len() > empty_cap {
            // Top-k selection: only the best `empty_cap` empties matter.
            empties.select_nth_unstable_by(empty_cap - 1, desc);
            empties.truncate(empty_cap);
        }
        empties.sort_by(desc);

        // Don't pick more live data than we can write back into the free
        // space we currently have — otherwise the relocation itself runs
        // out of room. The cleaner may use its reserved segments, so the
        // full clean count stands; keep one segment of headroom for the
        // metadata and summaries that ride along with relocations.
        let head_room: u64 = self
            .write_points
            .iter()
            .map(|&(_, off)| (self.sb.seg_blocks.saturating_sub(off)) as u64 * BLOCK_SIZE as u64)
            .sum();
        let free_budget = self.usage.clean_count() as u64 * seg_bytes + head_room;
        // The relocation flush also carries whatever dirty application
        // data waits in the cache, plus metadata (inode blocks, map/table
        // blocks, summaries); the covering checkpoint then writes its own
        // settle batch, whose worst case scales with the inode map size.
        // Picked live data is rewritten alongside whatever dirty
        // application data is waiting, plus metadata whose fixed part can
        // be substantial: a relocation touching scattered files can dirty
        // every inode-map block, and the covering checkpoint settles the
        // map and usage table again. Budget half of what remains after
        // those, so a pass can never outgrow the space it runs in.
        let meta_fixed = (self.imap.num_blocks() as u64 + self.usage.num_blocks() as u64 + 8)
            * BLOCK_SIZE as u64;
        let budget = free_budget.saturating_sub(self.dirty_bytes + meta_fixed) / 2;
        let mut picked = Vec::new();
        let mut live_total = 0u64;
        let mut reclaim_total = 0u64;
        // Empty segments first, unconditionally: they cost nothing to
        // reclaim ("need not be read at all") but, under cost-benefit
        // ranking, young empty segments can paradoxically rank below old
        // half-full ones and starve the free pool.
        for &(_, seg, _) in &empties {
            reclaim_total += seg_bytes;
            picked.push(seg);
        }
        let nempties = picked.len();
        // Lazy best-first pop: most passes examine only a few segments
        // beyond the `segs_per_clean` they pick (budget skips excepted).
        while picked.len() - nempties < per_pass as usize {
            let Some(HeapCand((_, seg, live))) = heap.pop() else {
                break;
            };
            if live_total + live > budget {
                continue; // An emptier segment later may still fit.
            }
            live_total += live;
            reclaim_total += seg_bytes - live;
            picked.push(seg);
        }
        // On a multi-volume set, make sure no shard starves: the layout
        // can only place chunks for shard `s` in segments with
        // `seg % n == s`, so a shard with zero clean segments and no pick
        // in this pass would stall even while the aggregate clean count
        // looks healthy. Keep popping the heap for the best candidate on
        // each starved shard (still subject to the live-data budget).
        let n = self.nshards;
        if n > 1 {
            let mut clean_per_shard = vec![0u32; n];
            for (seg, u) in self.usage.iter() {
                if u.state == SegState::Clean {
                    clean_per_shard[self.shard_of_seg(seg)] += 1;
                }
            }
            let mut has_pick = vec![false; n];
            for &seg in &picked {
                has_pick[self.shard_of_seg(seg)] = true;
            }
            let starved = |sh: usize, has_pick: &[bool]| clean_per_shard[sh] == 0 && !has_pick[sh];
            if (0..n).any(|sh| starved(sh, &has_pick)) {
                while let Some(HeapCand((_, seg, live))) = heap.pop() {
                    let sh = self.shard_of_seg(seg);
                    if !starved(sh, &has_pick) {
                        continue;
                    }
                    if live_total + live > budget {
                        continue;
                    }
                    live_total += live;
                    reclaim_total += seg_bytes - live;
                    picked.push(seg);
                    has_pick[sh] = true;
                    if !(0..n).any(|s| starved(s, &has_pick)) {
                        break;
                    }
                }
            }
        }
        // Only clean when the pass reclaims meaningfully more than its
        // own overhead — otherwise copying nearly-full segments burns
        // bandwidth (and, near capacity, the very space it is trying to
        // regenerate) without making progress.
        let overhead = 8 * BLOCK_SIZE as u64 + live_total / 8;
        if reclaim_total <= overhead {
            return Vec::new();
        }
        picked
    }

    /// The cleaning mechanism: read segments, identify live blocks, stage
    /// them for rewriting, flush, and retire the sources.
    pub(crate) fn clean_segments(&mut self, segs: &[u32]) -> FsResult<()> {
        self.timed(|o| &o.clean, |fs| fs.clean_segments_inner(segs))
    }

    fn clean_segments_inner(&mut self, segs: &[u32]) -> FsResult<()> {
        self.stats.cleaner.passes += 1;
        let seg_bytes = self.cfg.seg_bytes();
        // Gathered before scavenging mutates the usage table, so the
        // trace shows the utilizations the pick policy actually saw.
        let mut empty = 0u32;
        let mut utilizations = Vec::new();
        if self.obs.obs.trace.is_on() {
            for &seg in segs {
                let u = self.usage.get(seg);
                if u.live_bytes == 0 {
                    empty += 1;
                } else {
                    utilizations.push(u.live_bytes as f64 / seg_bytes as f64);
                }
            }
        }
        self.emit(|| lfs_obs::TraceEvent::CleanerPass {
            segments: segs.len() as u32,
            empty,
            utilizations,
        });
        // One segment's worth of staged copy data is the per-installment
        // bound: the old code scavenged *every* candidate before flushing
        // once, so a pass over tens of segments held the write point — and
        // any foreground flush behind it — for the whole multi-segment
        // burst. Flushing whenever the staged bytes reach one segment
        // bounds the delay a background pass can impose on a foreground
        // flush to roughly one segment write.
        let stage_bound = (self.sb.seg_blocks.saturating_sub(1)) as u64 * BLOCK_SIZE as u64;
        for &seg in segs {
            let usage = *self.usage.get(seg);
            self.stats.cleaner.segments_cleaned += 1;
            let shard = self.shard_of_seg(seg);
            self.cleaned_per_shard[shard] += 1;
            if usage.live_bytes == 0 {
                // "If a segment to be cleaned has no live blocks then it
                // need not be read at all" (§3.4).
                self.stats.cleaner.segments_empty += 1;
                self.usage.set_seal_seq(seg, self.write_seq);
                self.usage.set_state(seg, SegState::PendingFree);
                continue;
            }
            if self.dirty_bytes >= stage_bound {
                self.flush()?;
            }
            let u = usage.live_bytes as f64 / seg_bytes as f64;
            self.stats.cleaner.utilization_sum += u;
            self.stats.cleaner.record_clean_utilization(u);
            self.scavenge_segment(seg)?;
        }
        // Write the remaining staged live data back to the head of the
        // log (with age-sorting if configured — see `flush`).
        self.flush()?;
        for &seg in segs {
            let live = self.usage.get(seg).live_bytes;
            if live != 0 {
                let detail = self.debug_scavenge_report(seg);
                return Err(FsError::Corrupt(format!(
                    "segment {seg} still has {live} live bytes after cleaning: {detail}"
                )));
            }
            // Record the relocation sequence: the segment becomes
            // reusable once a checkpoint covers it.
            self.usage.set_seal_seq(seg, self.write_seq);
            self.usage.set_state(seg, SegState::PendingFree);
        }
        Ok(())
    }

    /// Diagnostic: re-scavenges a segment and describes anything still
    /// live (used only in the corruption error path).
    fn debug_scavenge_report(&mut self, seg: u32) -> String {
        let seg_blocks = self.sb.seg_blocks as usize;
        let mut buf = vec![0u8; seg_blocks * BLOCK_SIZE];
        let start = self.sb.seg_start(seg);
        if self.dev.read_blocks(start, &mut buf).is_err() {
            return "unreadable".into();
        }
        let mut out = String::new();
        let mut off = 0usize;
        let mut prev_seq = 0u64;
        while off + 1 < seg_blocks {
            let Ok(summary) = Summary::decode(&buf[off * BLOCK_SIZE..(off + 1) * BLOCK_SIZE])
            else {
                break;
            };
            if summary.seq <= prev_seq || off + 1 + summary.entries.len() > seg_blocks {
                break;
            }
            prev_seq = summary.seq;
            for (j, entry) in summary.entries.iter().enumerate() {
                let addr = start + (off + 1 + j) as u64;
                let live = match entry.kind {
                    EntryKind::Data => {
                        self.imap
                            .get(entry.ino)
                            .map(|e| e.is_live() && e.version == entry.version)
                            .unwrap_or(false)
                            && self.block_ptr(entry.ino, entry.offset as u64).unwrap_or(0) == addr
                    }
                    EntryKind::ImapBlock => {
                        (entry.offset as usize) < self.imap.num_blocks()
                            && self.imap.block_addr(entry.offset as usize) == addr
                    }
                    EntryKind::UsageBlock => {
                        (entry.offset as usize) < self.usage.num_blocks()
                            && self.usage.block_addr(entry.offset as usize) == addr
                    }
                    _ => false,
                };
                if live {
                    out.push_str(&format!(
                        " {:?}(ino {} off {})",
                        entry.kind, entry.ino, entry.offset
                    ));
                }
            }
            off += 1 + summary.entries.len();
        }
        if out.is_empty() {
            out = " nothing verifiably live (accounting drift)".into();
        }
        out
    }

    /// Reads one segment, walks its summaries, and stages every live block
    /// as dirty cache state so the next flush relocates it.
    fn scavenge_segment(&mut self, seg: u32) -> FsResult<()> {
        let seg_bytes = self.cfg.seg_bytes();
        let u = self.usage.get(seg).utilization(seg_bytes);
        if self.cfg.read_live_threshold > 0.0 && u < self.cfg.read_live_threshold {
            return self.scavenge_segment_sparse(seg);
        }
        let seg_blocks = self.sb.seg_blocks as usize;
        let mut buf = vec![0u8; seg_blocks * BLOCK_SIZE];
        let start = self.sb.seg_start(seg);
        self.read_retry(start, &mut buf)?;
        self.stats.cleaner.bytes_read += buf.len() as u64;

        let mut off = 0usize;
        let mut prev_seq = 0u64;
        while off + 1 < seg_blocks {
            let sblock = &buf[off * BLOCK_SIZE..(off + 1) * BLOCK_SIZE];
            let summary = match Summary::decode(sblock) {
                Ok(s) => s,
                Err(_) => break, // End of this segment's valid chain.
            };
            // Stale summaries left over from the segment's previous life
            // have smaller sequence numbers; the live chain is strictly
            // increasing.
            if summary.seq <= prev_seq || off + 1 + summary.entries.len() > seg_blocks {
                break;
            }
            prev_seq = summary.seq;
            for (j, entry) in summary.entries.iter().enumerate() {
                let blk_off = off + 1 + j;
                let addr = start + blk_off as u64;
                let content = &buf[blk_off * BLOCK_SIZE..(blk_off + 1) * BLOCK_SIZE];
                self.stage_if_live(entry, addr, content)?;
            }
            off += 1 + summary.entries.len();
        }
        Ok(())
    }

    /// The "read just the live blocks" variant the paper proposes but
    /// never implemented (§3.4): walk the summaries block by block and
    /// fetch only the blocks that are actually live. For very sparse
    /// segments this reads a small fraction of the segment at the cost of
    /// discontiguous (seeking) reads — the ablation bench quantifies the
    /// trade.
    fn scavenge_segment_sparse(&mut self, seg: u32) -> FsResult<()> {
        let seg_blocks = self.sb.seg_blocks as usize;
        let start = self.sb.seg_start(seg);
        let mut sbuf = vec![0u8; BLOCK_SIZE];
        let mut off = 0usize;
        let mut prev_seq = 0u64;
        while off + 1 < seg_blocks {
            self.read_retry(start + off as u64, &mut sbuf)?;
            self.stats.cleaner.bytes_read += BLOCK_SIZE as u64;
            let summary = match Summary::decode(&sbuf) {
                Ok(s) => s,
                Err(_) => break,
            };
            if summary.seq <= prev_seq || off + 1 + summary.entries.len() > seg_blocks {
                break;
            }
            prev_seq = summary.seq;
            // Pass 1: the fast liveness pre-checks, which need no block
            // contents (confirming a data pointer may load an indirect
            // block, but never the data itself).
            let mut worth: Vec<(usize, DiskAddr)> = Vec::new();
            for (j, entry) in summary.entries.iter().enumerate() {
                let addr = start + (off + 1 + j) as u64;
                let worth_reading = match entry.kind {
                    EntryKind::Data => {
                        let e = match self.imap.get(entry.ino) {
                            Ok(e) => *e,
                            Err(_) => continue,
                        };
                        e.is_live()
                            && e.version == entry.version
                            && self.block_ptr(entry.ino, entry.offset as u64)? == addr
                    }
                    EntryKind::Indirect1 | EntryKind::Indirect2 => true,
                    EntryKind::InodeBlock => true,
                    EntryKind::ImapBlock => {
                        (entry.offset as usize) < self.imap.num_blocks()
                            && self.imap.block_addr(entry.offset as usize) == addr
                    }
                    EntryKind::UsageBlock => {
                        (entry.offset as usize) < self.usage.num_blocks()
                            && self.usage.block_addr(entry.offset as usize) == addr
                    }
                    EntryKind::DirLog => false,
                };
                if worth_reading {
                    worth.push((j, addr));
                }
            }
            // Pass 2: fetch the survivors. Entries adjacent in the chunk
            // occupy adjacent disk blocks, so every maximal stretch of
            // consecutive addresses is one contiguous run — read it as a
            // single device request instead of block by block. Staging
            // re-verifies liveness per block, so batching never relocates
            // anything the per-block order would not have.
            let mut i = 0usize;
            while i < worth.len() {
                let mut end = i + 1;
                while end < worth.len() && worth[end].1 == worth[end - 1].1 + 1 {
                    end += 1;
                }
                let count = end - i;
                let mut content = vec![0u8; count * BLOCK_SIZE];
                self.read_run_retry(worth[i].1, &mut content)?;
                self.stats.cleaner.bytes_read += content.len() as u64;
                for (k, &(j, addr)) in worth[i..end].iter().enumerate() {
                    self.stage_if_live(
                        &summary.entries[j],
                        addr,
                        &content[k * BLOCK_SIZE..(k + 1) * BLOCK_SIZE],
                    )?;
                }
                i = end;
            }
            off += 1 + summary.entries.len();
        }
        Ok(())
    }

    /// Checks one summarised block for liveness and stages it if live.
    fn stage_if_live(
        &mut self,
        entry: &crate::summary::SummaryEntry,
        addr: DiskAddr,
        content: &[u8],
    ) -> FsResult<()> {
        match entry.kind {
            EntryKind::Data => {
                let ino = entry.ino;
                let e = match self.imap.get(ino) {
                    Ok(e) => *e,
                    Err(_) => return Ok(()),
                };
                // The uid fast path: a version mismatch means the file was
                // deleted or truncated — "the block can be discarded
                // immediately without examining the file's inode" (§3.3).
                if !e.is_live() || e.version != entry.version {
                    return Ok(());
                }
                let bno = entry.offset as u64;
                if self.block_ptr(ino, bno)? != addr {
                    return Ok(());
                }
                // The block is confirmed live; refuse to relocate it if
                // the media rotted it (silent propagation of bad data is
                // worse than a loud failure). Dead blocks are never
                // checked — a torn chunk in a crashed segment legally
                // holds garbage behind a valid summary.
                if crate::codec::block_checksum(content) != entry.csum
                    && !self.blocks.contains_key(&(ino, bno))
                {
                    return Err(FsError::Corrupt(format!(
                        "cleaner: live block (ino {ino} blk {bno}) at addr {addr} \
                         failed its summary checksum (media rot?)"
                    )));
                }
                // Stage the block: dirty cache state relocates on flush.
                // Crucially, keep the block's ORIGINAL modification time
                // (from the summary entry): relocation does not make data
                // young, and the cost-benefit policy depends on that.
                if !self.blocks.contains_key(&(ino, bno)) {
                    let lru = {
                        self.lru_tick += 1;
                        self.lru_tick
                    };
                    self.blocks.insert(
                        (ino, bno),
                        CachedBlock {
                            data: std::sync::Arc::new(content.to_vec()),
                            dirty: false,
                            lru,
                            mtime: entry.mtime,
                        },
                    );
                }
                let original_mtime = self
                    .blocks
                    .get(&(ino, bno))
                    .map(|b| if b.dirty { b.mtime } else { entry.mtime })
                    .unwrap_or(entry.mtime);
                self.mark_block_dirty(ino, bno);
                if let Some(b) = self.blocks.get_mut(&(ino, bno)) {
                    b.mtime = original_mtime;
                }
            }
            EntryKind::Indirect1 | EntryKind::Indirect2 => {
                let ino = entry.ino;
                let e = match self.imap.get(ino) {
                    Ok(e) => *e,
                    Err(_) => return Ok(()),
                };
                if !e.is_live() || e.version != entry.version {
                    return Ok(());
                }
                let key = match entry.kind {
                    EntryKind::Indirect1 => IndKey::Single(entry.offset),
                    _ => IndKey::Double,
                };
                if let Some(cached) = self.inds.get_mut(&(ino, key)) {
                    if cached.disk_addr == addr {
                        crate::fs::set_dirty(&mut cached.dirty, &mut self.dirty_ind_count);
                        self.dirty_files.insert(ino);
                    }
                    return Ok(());
                }
                // Not cached: confirm via the parent pointer, then load.
                if self.ensure_ind(ino, key, false)? {
                    let cached = self.inds.get_mut(&(ino, key)).unwrap();
                    if cached.disk_addr == addr {
                        crate::fs::set_dirty(&mut cached.dirty, &mut self.dirty_ind_count);
                        self.dirty_files.insert(ino);
                    }
                }
            }
            EntryKind::InodeBlock => {
                for slot in 0..crate::layout::INODES_PER_BLOCK {
                    let b = &content[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE];
                    // An undecodable slot in a dead chunk is legal (torn
                    // write behind a valid summary); skip it rather than
                    // abort the pass. Live-but-rotted inodes surface in
                    // `clean_segments`' live-bytes audit instead.
                    let Ok(decoded) = Inode::decode(b) else {
                        continue;
                    };
                    let Some(inode) = decoded else {
                        continue;
                    };
                    let ino = inode.ino;
                    let e = match self.imap.get(ino) {
                        Ok(e) => *e,
                        Err(_) => continue,
                    };
                    if e.is_live() && e.addr == addr && e.slot == slot as u8 {
                        self.ensure_inode(ino)?;
                        let c = self.inodes.get_mut(&ino).unwrap();
                        crate::fs::set_dirty(&mut c.dirty, &mut self.dirty_inode_count);
                        self.dirty_files.insert(ino);
                    }
                }
            }
            EntryKind::ImapBlock => {
                let idx = entry.offset as usize;
                if idx < self.imap.num_blocks() && self.imap.block_addr(idx) == addr {
                    self.imap.mark_block_dirty(idx);
                }
            }
            EntryKind::UsageBlock => {
                let idx = entry.offset as usize;
                if idx < self.usage.num_blocks() && self.usage.block_addr(idx) == addr {
                    self.usage.mark_block_dirty(idx);
                }
            }
            EntryKind::DirLog => {
                // Directory-log records matter only between a checkpoint
                // and a crash; segments eligible for cleaning are older
                // than the last checkpoint, so these are dead.
            }
        }
        Ok(())
    }
}
