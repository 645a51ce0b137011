//! Run-time configuration of the file system.

use blockdev::BLOCK_SIZE;

/// Which cleaning policy the cleaner uses to select segments (Section 3.4,
/// policy question 3) and whether live blocks are age-sorted on the way out
/// (policy question 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CleaningPolicy {
    /// Always clean the least-utilized segments.
    Greedy,
    /// Clean the segments with the highest benefit-to-cost ratio
    /// `(1-u)*age/(1+u)` — the paper's cost-benefit policy (Section 3.5).
    CostBenefit,
    /// Adapt victim selection and pacing to the measured utilization
    /// distribution of the candidate set (Lomet & Luo): greedy-like when
    /// segments are mostly empty, cost-benefit-like as the disk fills,
    /// with scale-free ages so the blend is geometry-independent. See
    /// [`CleaningPolicy::rank`] and [`CleaningPolicy::pace`].
    Adaptive,
}

/// Configuration for [`crate::Lfs`].
///
/// The defaults mirror the production Sprite LFS settings reported in the
/// paper: one-megabyte segments, cost-benefit cleaning with age-sorting,
/// cleaning triggered when clean segments drop below a low-water mark and
/// continuing until a high-water mark is reached.
#[derive(Clone, Copy, Debug)]
pub struct LfsConfig {
    /// Segment size in blocks. The paper uses 512 KB or 1 MB segments
    /// (128 or 256 four-kilobyte blocks).
    pub seg_blocks: u32,
    /// Maximum number of inodes (sizes the inode map).
    pub max_inodes: u32,
    /// Start cleaning when the number of clean segments drops below this
    /// ("a threshold value (typically a few tens of segments)").
    pub clean_low_water: u32,
    /// Stop cleaning once this many clean segments exist
    /// ("typically 50-100 clean segments").
    pub clean_high_water: u32,
    /// How many segments the cleaner reads per pass ("a few tens of
    /// segments at a time").
    pub segs_per_clean: u32,
    /// When non-zero, background cleaning runs as bounded installments
    /// of at most this many segments per trigger instead of one burst
    /// from the low-water mark all the way to the high-water mark. Each
    /// mutation that finds the file system below the low-water mark
    /// contributes one installment, so cleaning interleaves with
    /// foreground traffic; an installment is skipped while queued
    /// foreground writes are still in flight, so the cleaner spends
    /// idle device time first. 0 (the default) keeps the burst
    /// behaviour. Emergency cleaning on allocation failure always runs
    /// unpaced regardless of this setting.
    pub clean_pace_segs: u32,
    /// Segment-selection policy.
    pub policy: CleaningPolicy,
    /// Sort live blocks by age before rewriting them (the age-sort of
    /// Section 3.4; always beneficial with cost-benefit selection).
    pub age_sort: bool,
    /// Flush the write buffer once this many dirty bytes accumulate.
    /// Defaults to one segment's payload so that most flushes fill a whole
    /// segment, as the paper assumes.
    pub flush_threshold_bytes: u64,
    /// Run roll-forward at mount (Section 4.2). The production Sprite
    /// system had this disabled and discarded the log tail; both modes are
    /// supported and tested.
    pub roll_forward: bool,
    /// Write a checkpoint automatically after this many bytes of new log
    /// data (0 disables; checkpoints then happen only on `sync` and when
    /// the cleaner needs to recycle segments). This is the paper's
    /// suggested alternative to the fixed 30-second interval: "perform
    /// checkpoints after a given amount of new data has been written"
    /// (§4.1).
    pub checkpoint_every_bytes: u64,
    /// Maximum bytes of clean blocks cached in memory (the "file cache").
    pub cache_limit_bytes: u64,
    /// When a segment's utilization is below this threshold, the cleaner
    /// reads only its summary blocks and live blocks instead of the whole
    /// segment. The paper suggests this but never tried it: "in practice
    /// it may be faster to read just the live blocks, particularly if the
    /// utilization is very low (we haven't tried this in Sprite LFS)"
    /// (§3.4). 0.0 disables it, matching Sprite; see the ablation bench.
    pub read_live_threshold: f64,
    /// Extend a read run by up to this many blocks past the requested
    /// range, as long as the addresses stay contiguous and the blocks are
    /// not already cached. 0 disables read-ahead, so a read fetches
    /// exactly the blocks it covers — which keeps the simulated disk time
    /// of the figure benchmarks fixed.
    pub read_ahead_blocks: u32,
    /// Number of temperature-keyed write streams per shard (hot → cold).
    /// 1 (the default) keeps the single write point per shard and is
    /// bit-identical to the pre-stream image; 2 splits hot/cold; 3 adds a
    /// warm class. Live blocks salvaged by the cleaner always go to the
    /// coldest stream ("cold by definition" — the age-sort insight of
    /// §3.4 applied at placement time). Capped at
    /// [`crate::stats::MAX_STREAMS`].
    pub streams: u32,
}

impl LfsConfig {
    /// Production-like defaults: 1 MB segments, cost-benefit cleaning.
    pub fn default_config() -> LfsConfig {
        LfsConfig {
            seg_blocks: 256,
            max_inodes: 65_536,
            clean_low_water: 16,
            clean_high_water: 40,
            segs_per_clean: 16,
            clean_pace_segs: 0,
            policy: CleaningPolicy::CostBenefit,
            age_sort: true,
            flush_threshold_bytes: 255 * BLOCK_SIZE as u64,
            roll_forward: true,
            checkpoint_every_bytes: 8 << 20,
            cache_limit_bytes: 64 << 20,
            read_live_threshold: 0.0,
            read_ahead_blocks: 0,
            streams: 1,
        }
    }

    /// A small configuration for unit tests and doctests: 64 KB segments
    /// and a few thousand inodes, so that interesting cleaning behaviour
    /// happens on disks of a few megabytes.
    pub fn small() -> LfsConfig {
        LfsConfig {
            seg_blocks: 16,
            max_inodes: 2048,
            clean_low_water: 6,
            clean_high_water: 12,
            segs_per_clean: 4,
            clean_pace_segs: 0,
            policy: CleaningPolicy::CostBenefit,
            age_sort: true,
            flush_threshold_bytes: 15 * BLOCK_SIZE as u64,
            roll_forward: true,
            checkpoint_every_bytes: 1 << 20,
            cache_limit_bytes: 8 << 20,
            read_live_threshold: 0.0,
            read_ahead_blocks: 0,
            streams: 1,
        }
    }

    /// The paper's alternative segment size: 512 KB.
    pub fn with_half_megabyte_segments(mut self) -> LfsConfig {
        self.seg_blocks = 128;
        self.flush_threshold_bytes = 127 * BLOCK_SIZE as u64;
        self
    }

    /// Caps each background-cleaning trigger at `segs` relocated
    /// segments (see [`LfsConfig::clean_pace_segs`]).
    pub fn paced(mut self, segs: u32) -> LfsConfig {
        self.clean_pace_segs = segs;
        self
    }

    /// Switches the cleaner to the greedy policy without age-sort — the
    /// "LFS Greedy" configuration of Figures 5 and 7.
    pub fn greedy(mut self) -> LfsConfig {
        self.policy = CleaningPolicy::Greedy;
        self.age_sort = false;
        self
    }

    /// Splits each shard's log head into `n` temperature-keyed write
    /// streams (see [`LfsConfig::streams`]).
    pub fn with_streams(mut self, n: u32) -> LfsConfig {
        self.streams = n.clamp(1, crate::stats::MAX_STREAMS as u32);
        self
    }

    /// Switches the cleaner to the adaptive policy (with age-sort, which
    /// it subsumes but never hurts).
    pub fn adaptive(mut self) -> LfsConfig {
        self.policy = CleaningPolicy::Adaptive;
        self
    }

    /// Segment payload capacity in bytes (excluding nothing — summaries are
    /// carved out of the same blocks as they are written).
    pub fn seg_bytes(&self) -> u64 {
        self.seg_blocks as u64 * BLOCK_SIZE as u64
    }
}

impl Default for LfsConfig {
    fn default() -> Self {
        LfsConfig::default_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_segment_size() {
        let c = LfsConfig::default();
        assert_eq!(c.seg_bytes(), 1 << 20);
        assert_eq!(c.policy, CleaningPolicy::CostBenefit);
        assert!(c.age_sort);
    }

    #[test]
    fn half_megabyte_variant() {
        let c = LfsConfig::default().with_half_megabyte_segments();
        assert_eq!(c.seg_bytes(), 512 << 10);
    }

    #[test]
    fn greedy_variant_disables_age_sort() {
        let c = LfsConfig::default().greedy();
        assert_eq!(c.policy, CleaningPolicy::Greedy);
        assert!(!c.age_sort);
    }

    #[test]
    fn watermarks_are_sane() {
        let c = LfsConfig::default();
        assert!(c.clean_low_water < c.clean_high_water);
        assert!(c.segs_per_clean > 0);
    }
}
