//! The `Lfs` file system: state, caching, addressing, and the VFS surface.
//!
//! The write path is the paper's: modifications accumulate in the file
//! cache ([`Lfs`] keeps dirty blocks, inodes, and indirect blocks in
//! memory) and reach disk only through large sequential partial writes
//! built by the flush machinery in `flush.rs`. Reads consult the cache
//! first and otherwise walk inode pointers exactly as Unix FFS would —
//! "once a file's inode has been found, the number of disk I/Os required
//! to read the file is identical in Sprite LFS and Unix FFS" (§3.1).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use blockdev::{BlockDevice, QueueDevice, BLOCK_SIZE};
use vfs::{DirEntry, FileSystem, FileType, FsError, FsResult, Ino, Metadata, StatFs, ROOT_INO};

use crate::config::LfsConfig;
use crate::dir::{self, DirRecord};
use crate::dirlog::{DirLogRecord, DirOp};
use crate::inode::{IndirectBlock, Inode, InodeAttrs};
use crate::inodemap::InodeMap;
use crate::layout::{
    blocks_for_size, classify_block, BlockClass, DiskAddr, IND1_START, IND2_START, MAX_FILE_SIZE,
    NIL_ADDR, PTRS_PER_BLOCK,
};
use crate::stats::LfsStats;
use crate::superblock::Superblock;
use crate::usage::{SegState, UsageTable};

/// Attempts per device operation on the retry paths (1 initial + 4
/// retries). Paired with [`blockdev::FaultPlan`]'s default burst length
/// this lets transient faults clear; persistent faults still surface
/// within a bounded delay.
pub(crate) const IO_ATTEMPTS: u32 = 5;

/// Half-life of the per-inode heat counters, in logical clock ticks
/// (the clock advances once per mutation). A file needs roughly three
/// writes inside a half-life to classify hot; one half-life of silence
/// halves its heat. See [`crate::heat`].
pub(crate) const HEAT_HALF_LIFE: u64 = 128;

/// Whether a device error is worth retrying. Geometry errors are
/// deterministic (a retry cannot fix an out-of-range request); only
/// `Io` errors model conditions that can clear.
pub(crate) fn is_transient(e: &blockdev::BlockError) -> bool {
    matches!(e, blockdev::BlockError::Io(_))
}

/// Exponential backoff between retries: 20 µs, 40 µs, 80 µs, ...
/// Short enough not to matter in tests, present so the policy is honest.
pub(crate) fn backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(20u64 << attempt));
}

/// Sets a cache entry's dirty flag, bumping the matching running count on
/// a clean→dirty transition. Taking the flag and counter as plain `&mut`s
/// lets call sites hold a map entry and the counter (disjoint [`Lfs`]
/// fields) at the same time.
pub(crate) fn set_dirty(flag: &mut bool, count: &mut usize) {
    if !*flag {
        *flag = true;
        *count += 1;
    }
}

/// Issues one gather write ([`BlockDevice::write_run_gather`]) with the
/// same bounded-retry policy as [`Lfs::write_retry`]. A free function over
/// disjoint [`Lfs`] fields rather than a method: the borrowed slices in
/// `bufs` point into the block cache, which a `&mut self` receiver would
/// forbid.
pub(crate) fn gather_write_retry<D: BlockDevice>(
    dev: &mut D,
    stats: &mut LfsStats,
    obs: &crate::obs::FsObs,
    start: u64,
    bufs: &[&[u8]],
    kind: blockdev::WriteKind,
) -> FsResult<()> {
    for attempt in 0..IO_ATTEMPTS {
        match dev.write_run_gather(start, bufs, kind) {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) && attempt + 1 < IO_ATTEMPTS => {
                stats.io_retries += 1;
                let trace = &obs.obs.trace;
                if trace.is_on() {
                    trace.emit(dev.stats().busy_ns, || lfs_obs::TraceEvent::Retry {
                        write: true,
                        attempt: attempt + 1,
                    });
                }
                backoff(attempt);
            }
            Err(e) => {
                if is_transient(&e) {
                    stats.io_giveups += 1;
                    let trace = &obs.obs.trace;
                    if trace.is_on() {
                        trace.emit(dev.stats().busy_ns, || lfs_obs::TraceEvent::Giveup {
                            write: true,
                        });
                    }
                }
                return Err(FsError::device(e));
            }
        }
    }
    unreachable!("retry loop always returns")
}

/// A cached file (or directory) data block.
///
/// The payload is reference-counted so the queued write path can hand the
/// device a zero-copy window onto the cache ([`blockdev::IoBuf`]): a
/// submission clones the `Arc`, and a later in-place mutation of the
/// still-in-flight block copies-on-write via [`Arc::make_mut`] instead of
/// corrupting the queued snapshot. On the synchronous path the count
/// never exceeds one and `make_mut` degenerates to a plain `&mut`.
pub(crate) struct CachedBlock {
    pub(crate) data: Arc<Vec<u8>>,
    pub(crate) dirty: bool,
    pub(crate) lru: u64,
    /// The block's modification time — per *block*, not per file, which
    /// is the refinement §3.6 of the paper says Sprite planned. The
    /// cleaner preserves it across relocations so segment ages and
    /// age-sorting reflect true block ages.
    pub(crate) mtime: u64,
}

impl CachedBlock {
    /// Whether the block is pinned against eviction: its payload `Arc` is
    /// shared with a concurrent reader's published snapshot or an
    /// in-flight queued submission. See [`Lfs::maybe_evict_except`].
    pub(crate) fn pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }
}

/// A cached inode.
pub(crate) struct CachedInode {
    pub(crate) inode: Inode,
    pub(crate) dirty: bool,
}

/// Identifies one indirect block of a file: `Single(k)` is single-indirect
/// block `k` (k = 0 hangs off `inode.indirect`; k ≥ 1 off slot `k-1` of the
/// double-indirect block); `Double` is the double-indirect block itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum IndKey {
    Single(u32),
    Double,
}

/// A cached indirect block together with its current on-disk home.
pub(crate) struct CachedInd {
    pub(crate) blk: IndirectBlock,
    pub(crate) dirty: bool,
    /// Where the block currently lives on disk ([`NIL_ADDR`] if never
    /// written); flush uses this to retire the old copy's live bytes.
    pub(crate) disk_addr: DiskAddr,
}

/// One name in the in-memory directory cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DirSlot {
    pub(crate) ino: Ino,
    pub(crate) ftype: FileType,
    /// Directory data block that holds the entry.
    pub(crate) blk: u64,
}

/// The cached view of one directory.
#[derive(Default)]
pub(crate) struct DirCache {
    pub(crate) map: HashMap<String, DirSlot>,
    /// Hint: a block index known to have had free space recently.
    pub(crate) space_hint: u64,
}

/// Sprite LFS over a block device.
///
/// See the crate-level documentation for the overall design, and
/// [`Lfs::format`] / [`Lfs::mount`] for how instances come to be.
pub struct Lfs<D: QueueDevice> {
    pub(crate) dev: D,
    pub(crate) sb: Superblock,
    pub(crate) cfg: LfsConfig,
    /// Mount epoch (stamped into summaries; see `summary.rs`).
    pub(crate) epoch: u32,
    pub(crate) imap: InodeMap,
    pub(crate) usage: UsageTable,
    pub(crate) inodes: HashMap<Ino, CachedInode>,
    /// Running count of dirty entries in `inodes`, maintained at every
    /// flag transition so `needs_flush` never scans the cache.
    pub(crate) dirty_inode_count: usize,
    pub(crate) blocks: HashMap<(Ino, u64), CachedBlock>,
    pub(crate) dirty_blocks: BTreeSet<(Ino, u64)>,
    pub(crate) inds: HashMap<(Ino, IndKey), CachedInd>,
    /// Running count of dirty entries in `inds`; see `dirty_inode_count`.
    pub(crate) dirty_ind_count: usize,
    pub(crate) dcache: HashMap<Ino, DirCache>,
    /// Files with any dirty state (data, indirect, or inode).
    pub(crate) dirty_files: BTreeSet<Ino>,
    /// Directory-op records not yet written to the log.
    pub(crate) dirlog_pending: Vec<DirLogRecord>,
    /// Depth of in-flight namespace operations (see [`Lfs::with_nsop`]).
    /// While non-zero, `checkpoint` degrades to a plain flush.
    pub(crate) nsop_depth: u32,
    /// Log write points, one per (temperature stream, shard) pair:
    /// `write_points[t * nshards + s]` is the `(segment, next free block
    /// offset)` of stream `t`'s log head on shard `s`. Stream 0 is the
    /// hottest; the last stream is the coldest and receives
    /// cleaner-salvaged blocks. With `streams = 1` (the default) this is
    /// one entry per shard and behaves exactly like the per-shard write
    /// point it generalizes; on a single volume it is one entry, the
    /// scalar `cur_seg`/`cur_off` pair of the paper. Always non-empty.
    pub(crate) write_points: Vec<(u32, u32)>,
    /// Number of shards of the device (cached; `write_points.len()` is
    /// `nshards × streams`, so it can no longer serve as the shard
    /// count).
    pub(crate) nshards: usize,
    /// Per-inode update-temperature estimator driving stream routing.
    pub(crate) heat: crate::heat::HeatMap,
    /// Segments cleaned per shard since mount (one entry per write
    /// point). Not part of [`crate::stats::CleanerStats`] — that struct
    /// is `Copy` — but published next to it as `shard.<i>.*` metrics so
    /// an operator can spot a cleaner neglecting one disk.
    pub(crate) cleaned_per_shard: Vec<u64>,
    /// Sequence number of the last partial write.
    pub(crate) write_seq: u64,
    /// Sequence number covered by the last checkpoint.
    pub(crate) checkpoint_seq: u64,
    /// Which checkpoint region the *next* checkpoint goes to.
    pub(crate) next_cr: usize,
    /// Logical clock (incremented per mutation).
    pub(crate) clock: u64,
    pub(crate) lru_tick: u64,
    /// Bytes of dirty data blocks awaiting flush.
    pub(crate) dirty_bytes: u64,
    /// New log bytes since the last checkpoint (drives the
    /// `checkpoint_every_bytes` policy).
    pub(crate) bytes_since_checkpoint: u64,
    /// Live files + directories, excluding the root.
    pub(crate) nfiles: u64,
    /// Re-entrancy guard for the cleaner.
    pub(crate) cleaning: bool,
    /// Set while a checkpoint writes its final metadata: those writes may
    /// use every clean segment, including the cleaner's reserve, because
    /// completing the checkpoint is what makes reserved space reusable.
    pub(crate) settling: bool,
    pub(crate) stats: LfsStats,
    /// Observability handles (tracing + metrics); off by default.
    pub(crate) obs: crate::obs::FsObs,
    /// Reusable serialization pool: synthesized blocks (summaries, inode
    /// groups, map encodes) of each partial-write chunk render here, and
    /// checkpoints encode into the same allocation, instead of a fresh
    /// `Vec` per chunk. Grows to the largest chunk seen and stays.
    pub(crate) scratch: Vec<u8>,
    /// Scratch pool for the *queued* write path: each in-flight chunk's
    /// synthesized blocks render into one `Arc<Vec<u8>>` whose windows are
    /// submitted zero-copy ([`blockdev::IoBuf::Shared`]). A buffer is
    /// reusable once its strong count drops back to one (the submission
    /// completed), so the pool never grows past the ring depth + 1.
    pub(crate) scratch_pool: Vec<Arc<Vec<u8>>>,
    /// The checkpoint sequence each region currently holds on disk
    /// (`None` until this instance writes it). Group commit may skip the
    /// region writes only when *both* regions already record
    /// `write_seq` — otherwise an idle `sync` after `format`'s first
    /// checkpoint would leave the second region unwritten.
    pub(crate) cp_seqs: [Option<u64>; 2],
}

/// Looks `bno` up in a pointer window (see [`Lfs::ptr_window`]).
fn win_lookup(win: &Option<(u64, Vec<DiskAddr>)>, bno: u64) -> Option<DiskAddr> {
    let (start, ptrs) = win.as_ref()?;
    ptrs.get(usize::try_from(bno.checked_sub(*start)?).ok()?)
        .copied()
}

impl<D: QueueDevice> Lfs<D> {
    /// Formats `dev` as a fresh log-structured file system containing only
    /// the root directory, writes both checkpoint regions, and returns the
    /// mounted file system.
    pub fn format(dev: D, cfg: LfsConfig) -> FsResult<Lfs<D>> {
        let sb = Superblock::compute(dev.num_blocks(), cfg.seg_blocks, cfg.max_inodes)
            .ok_or(FsError::InvalidArgument("device too small for geometry"))?;
        // On a sharded device every segment must live on exactly one
        // shard, which requires the striping unit to equal the segment
        // size; and each shard needs at least one segment to host its
        // write point.
        if dev.shard_count() > 1 {
            if dev.stripe_blocks() != Some(cfg.seg_blocks as u64) {
                return Err(FsError::InvalidArgument(
                    "stripe unit must equal the segment size",
                ));
            }
            if (sb.nsegments as usize) < dev.shard_count() {
                return Err(FsError::InvalidArgument(
                    "device too small: fewer segments than shards",
                ));
            }
        }
        // Every (stream, shard) write point needs its own segment.
        let streams = cfg.streams.clamp(1, crate::stats::MAX_STREAMS as u32) as usize;
        if (sb.nsegments as usize) < dev.shard_count().max(1) * streams {
            return Err(FsError::InvalidArgument(
                "device too small: fewer segments than write streams",
            ));
        }
        let mut fs = Lfs::bare(dev, sb, cfg);
        let sb_block = {
            let enc = fs.sb.encode();
            let mut b = [0u8; BLOCK_SIZE];
            b.copy_from_slice(&enc);
            b
        };
        fs.dev
            .write_block(
                crate::layout::SUPERBLOCK_ADDR,
                &sb_block,
                blockdev::WriteKind::Sync,
            )
            .map_err(FsError::device)?;

        // Create the root directory through the normal machinery.
        fs.imap.reserve(ROOT_INO);
        let now = fs.now();
        let root = Inode::new(ROOT_INO, 0, FileType::Directory, now);
        fs.inodes.insert(
            ROOT_INO,
            CachedInode {
                inode: root,
                dirty: true,
            },
        );
        fs.dirty_inode_count += 1;
        fs.dirty_files.insert(ROOT_INO);
        let wp_segs: Vec<u32> = fs.write_points.iter().map(|&(s, _)| s).collect();
        for s in wp_segs {
            fs.usage.set_state(s, SegState::Active);
        }

        // Write the initial state to *both* regions so `read_latest`
        // always has two candidates.
        fs.checkpoint()?;
        fs.checkpoint()?;
        Ok(fs)
    }

    /// Constructs the in-memory state shared by `format` and `mount`.
    pub(crate) fn bare(dev: D, sb: Superblock, cfg: LfsConfig) -> Lfs<D> {
        // One write point per (temperature stream, shard) pair; each
        // cursor starts its log in the lowest-numbered segment of its
        // shard not claimed by a hotter stream. On a homogeneous set
        // this is segment `t * nshards + s` for stream `t` on shard `s`;
        // mount replaces the assignment with the checkpoint's.
        let shards = dev.shard_count().max(1);
        let streams = cfg.streams.clamp(1, crate::stats::MAX_STREAMS as u32) as usize;
        let ncursors = shards * streams;
        let mut write_points = vec![(0u32, 0u32); ncursors];
        let mut next_stream = vec![0usize; shards];
        let mut placed = 0usize;
        let mut g = 0u32;
        while placed < ncursors && (g as u64) < sb.nsegments as u64 {
            let s = dev.shard_of_stripe(g as u64).min(shards - 1);
            if next_stream[s] < streams {
                write_points[next_stream[s] * shards + s] = (g, 0);
                next_stream[s] += 1;
                placed += 1;
            }
            g += 1;
        }
        Lfs {
            dev,
            imap: InodeMap::new(sb.max_inodes),
            usage: UsageTable::new(sb.nsegments),
            sb,
            cfg,
            epoch: 0,
            inodes: HashMap::new(),
            dirty_inode_count: 0,
            blocks: HashMap::new(),
            dirty_blocks: BTreeSet::new(),
            inds: HashMap::new(),
            dirty_ind_count: 0,
            dcache: HashMap::new(),
            dirty_files: BTreeSet::new(),
            dirlog_pending: Vec::new(),
            nsop_depth: 0,
            write_points,
            nshards: shards,
            heat: crate::heat::HeatMap::new(HEAT_HALF_LIFE),
            cleaned_per_shard: vec![0; shards],
            write_seq: 0,
            checkpoint_seq: 0,
            next_cr: 0,
            clock: 0,
            lru_tick: 0,
            dirty_bytes: 0,
            bytes_since_checkpoint: 0,
            nfiles: 0,
            cleaning: false,
            settling: false,
            stats: LfsStats::default(),
            obs: crate::obs::FsObs::default(),
            scratch: Vec::new(),
            scratch_pool: Vec::new(),
            cp_seqs: [None, None],
        }
    }

    /// Writes `buf` at `start`, retrying transient device errors with
    /// exponential backoff.
    ///
    /// Only [`blockdev::BlockError::Io`] is considered transient; geometry
    /// errors (`OutOfRange`, `Misaligned`) are bugs or corruption and fail
    /// immediately. Each absorbed retry bumps [`LfsStats::io_retries`];
    /// exhausting the budget bumps [`LfsStats::io_giveups`] (the
    /// degraded-mode signal) and surfaces the last error as
    /// [`FsError::Device`].
    pub(crate) fn write_retry(
        &mut self,
        start: u64,
        buf: &[u8],
        kind: blockdev::WriteKind,
    ) -> FsResult<()> {
        for attempt in 0..IO_ATTEMPTS {
            match self.dev.write_blocks(start, buf, kind) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) && attempt + 1 < IO_ATTEMPTS => {
                    self.stats.io_retries += 1;
                    self.emit(|| lfs_obs::TraceEvent::Retry {
                        write: true,
                        attempt: attempt + 1,
                    });
                    backoff(attempt);
                }
                Err(e) => {
                    if is_transient(&e) {
                        self.stats.io_giveups += 1;
                        self.emit(|| lfs_obs::TraceEvent::Giveup { write: true });
                    }
                    return Err(FsError::device(e));
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Reads into `buf` from `start`, retrying transient device errors.
    /// See [`Lfs::write_retry`] for the retry policy.
    pub(crate) fn read_retry(&mut self, start: u64, buf: &mut [u8]) -> FsResult<()> {
        for attempt in 0..IO_ATTEMPTS {
            match self.dev.read_blocks(start, buf) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) && attempt + 1 < IO_ATTEMPTS => {
                    self.stats.io_retries += 1;
                    self.emit(|| lfs_obs::TraceEvent::Retry {
                        write: false,
                        attempt: attempt + 1,
                    });
                    backoff(attempt);
                }
                Err(e) => {
                    if is_transient(&e) {
                        self.stats.io_giveups += 1;
                        self.emit(|| lfs_obs::TraceEvent::Giveup { write: false });
                    }
                    return Err(FsError::device(e));
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Reads a contiguous run of blocks as *one* device request (see
    /// [`BlockDevice::read_run`] for why this costs exactly the same
    /// simulated time as per-block reads), retrying transient errors.
    /// See [`Lfs::write_retry`] for the retry policy.
    pub(crate) fn read_run_retry(&mut self, start: u64, buf: &mut [u8]) -> FsResult<()> {
        for attempt in 0..IO_ATTEMPTS {
            match self.dev.read_run(start, buf) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) && attempt + 1 < IO_ATTEMPTS => {
                    self.stats.io_retries += 1;
                    self.emit(|| lfs_obs::TraceEvent::Retry {
                        write: false,
                        attempt: attempt + 1,
                    });
                    backoff(attempt);
                }
                Err(e) => {
                    if is_transient(&e) {
                        self.stats.io_giveups += 1;
                        self.emit(|| lfs_obs::TraceEvent::Giveup { write: false });
                    }
                    return Err(FsError::device(e));
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Folds device-side retry/giveup counts from the submission ring
    /// into [`LfsStats`]. With a queued device the engine owns retries of
    /// transient apply failures (re-issuing from the file system would
    /// reorder the log around later queued submissions); the counts still
    /// belong in the same `io_retries` / `io_giveups` ledger the
    /// synchronous retry paths feed.
    pub(crate) fn absorb_queue_errors(&mut self) {
        let (retries, giveups) = self.dev.take_queue_errors();
        self.stats.io_retries += retries;
        self.stats.io_giveups += giveups;
    }

    /// Returns the underlying device (e.g. to inspect [`blockdev::IoStats`]).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the file system (without syncing) and returns the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// File-system statistics (Table 2 / Table 4 inputs).
    pub fn stats(&self) -> &LfsStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &LfsConfig {
        &self.cfg
    }

    /// The superblock geometry.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Current logical time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock — workload generators use this to give
    /// data realistic ages for the cost-benefit policy.
    pub fn advance_clock(&mut self, delta: u64) {
        self.clock += delta;
    }

    /// Number of clean (immediately writable) segments.
    pub fn clean_segment_count(&self) -> u32 {
        self.usage.clean_count()
    }

    /// The log write points, one per (temperature stream, shard) pair,
    /// stream-major: entry `t * nshards + s` is stream `t`'s `(segment,
    /// next free block offset)` on shard `s`. A single-volume,
    /// single-stream file system has exactly one.
    pub fn write_points(&self) -> &[(u32, u32)] {
        &self.write_points
    }

    /// Number of shards of the underlying device.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Number of temperature streams per shard.
    pub fn stream_count(&self) -> usize {
        self.write_points.len() / self.nshards
    }

    /// Which shard segment `seg` lives on (always 0 on a single
    /// volume). Delegates to the device's stripe mapping, which is
    /// `seg % nshards` on homogeneous sets but skips exhausted shards
    /// on heterogeneous ones.
    pub fn shard_of_seg(&self, seg: u32) -> usize {
        self.dev.shard_of_stripe(seg as u64).min(self.nshards - 1)
    }

    /// The `write_points` index of stream `stream` on shard `shard`.
    pub(crate) fn cursor_index(&self, stream: usize, shard: usize) -> usize {
        stream * self.nshards + shard
    }

    /// The temperature stream that should carry a dirty block of `ino`:
    /// the inode's heat class, for cleaner relocations and foreground
    /// writes alike. Routing survivors by their file's *own* heat (not
    /// blanket-coldest) matters: blocks salvaged from a hot segment are
    /// usually recent and about to die again, and burying them in a cold
    /// segment seeds it with soon-to-be-dead bytes. Genuinely cold
    /// survivors still land cold — an idle file's heat decays to zero.
    pub(crate) fn stream_of_block(&self, ino: Ino, _bno: u64) -> usize {
        let nstreams = self.stream_count();
        if nstreams == 1 {
            return 0;
        }
        self.heat.class(ino, self.clock, nstreams)
    }

    /// Whether `seg` currently holds any shard's write point. Such
    /// segments are off-limits to the cleaner: the log is still growing
    /// into them.
    pub(crate) fn is_write_point_seg(&self, seg: u32) -> bool {
        self.write_points.iter().any(|&(s, _)| s == seg)
    }

    /// Dirty-byte level that triggers an automatic flush.
    /// [`LfsConfig::flush_threshold_bytes`] is sized so one flush fills
    /// one segment; on a multi-volume set a flush that small keeps only
    /// one arm busy while the other shards idle, so the trigger scales
    /// with the number of write points — each flush then carries about
    /// one segment *per shard* and the layout rotation hands every arm a
    /// full segment. Exactly the configured threshold on a single
    /// volume.
    pub(crate) fn flush_trigger_bytes(&self) -> u64 {
        self.cfg.flush_threshold_bytes * self.nshards as u64
    }

    /// Per-segment `last_write` times (the age input to the cost-benefit
    /// policy). With per-block modification times in the summaries, a
    /// segment full of cold blocks keeps its old age even while the
    /// owning files' mtimes advance.
    pub fn segment_ages(&self) -> Vec<u64> {
        self.usage.iter().map(|(_, u)| u.last_write).collect()
    }

    /// Per-segment `(state, utilization)` snapshot — the data behind
    /// Figure 10.
    pub fn segment_snapshot(&self) -> Vec<(SegState, f64)> {
        let seg_bytes = self.cfg.seg_bytes();
        self.usage
            .iter()
            .map(|(_, u)| (u.state, u.utilization(seg_bytes)))
            .collect()
    }

    /// Drops all *clean* cached file data (and cached indirect blocks of
    /// clean files), so subsequent reads exercise the disk. Benchmarks use
    /// this between phases to measure cold-cache read behaviour, the way
    /// the paper's machine (32 MB RAM) could not keep the working set
    /// resident.
    pub fn drop_caches(&mut self) {
        self.blocks.retain(|_, b| b.dirty);
        self.inds.retain(|_, e| e.dirty);
        let dirty: std::collections::HashSet<Ino> = self.dirty_files.iter().copied().collect();
        self.inodes.retain(|ino, c| c.dirty || dirty.contains(ino));
        self.dcache.clear();
    }

    /// Applies a deferred access-time update (see `shared.rs`: lock-free
    /// readers queue atimes and the writer lane drains them before its
    /// next operation). Quiet like [`InodeMap::set_atime_quiet`] — never
    /// dirties anything — and skipped when the file has since been
    /// deleted, so a stale queued atime cannot resurrect a freed entry.
    /// A freshly created inode has no disk address yet (`is_live` is
    /// false until its first flush) but is still allocated — it sits in
    /// the inode cache — and its atime must be applied, or a read of a
    /// new file would lose its access time where the exclusive path
    /// keeps it.
    pub(crate) fn apply_atime_quiet(&mut self, ino: Ino, atime: u64) {
        let allocated = self.imap.get(ino).map(|e| e.is_live()).unwrap_or(false)
            || self.inodes.contains_key(&ino);
        if allocated {
            self.imap.set_atime_quiet(ino, atime);
        }
    }

    /// Advances and returns the logical clock.
    pub(crate) fn now(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // ----- inode cache -------------------------------------------------

    /// Ensures `ino` is in the inode cache, loading it from the log if
    /// needed.
    pub(crate) fn ensure_inode(&mut self, ino: Ino) -> FsResult<()> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        let entry = *self.imap.get(ino)?;
        if !entry.is_live() {
            return Err(FsError::InvalidArgument("no such inode"));
        }
        let mut buf = [0u8; BLOCK_SIZE];
        self.dev
            .read_block(entry.addr, &mut buf)
            .map_err(FsError::device)?;
        // Inodes are packed 16 to a block exactly so that one read serves
        // many files; adopt every still-current inode in the block, not
        // just the requested one (a big win for "read files in creation
        // order" workloads — Figure 8's read phase).
        for slot in 0..crate::layout::INODES_PER_BLOCK {
            let off = slot * crate::inode::INODE_DISK_SIZE;
            let Some(inode) = Inode::decode(&buf[off..off + crate::inode::INODE_DISK_SIZE])? else {
                continue;
            };
            let other = inode.ino;
            if self.inodes.contains_key(&other) {
                continue;
            }
            let current = match self.imap.get(other) {
                Ok(e) => e.is_live() && e.addr == entry.addr && e.slot == slot as u8,
                Err(_) => false,
            };
            if current {
                self.inodes.insert(
                    other,
                    CachedInode {
                        inode,
                        dirty: false,
                    },
                );
            }
        }
        if !self.inodes.contains_key(&ino) {
            return Err(FsError::Corrupt(format!(
                "inode {ino}: slot {} of block {} does not hold it",
                entry.slot, entry.addr
            )));
        }
        Ok(())
    }

    /// Returns a copy of the cached inode.
    pub(crate) fn inode_clone(&mut self, ino: Ino) -> FsResult<Inode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes[&ino].inode.clone())
    }

    /// Borrows the cached inode. The hot paths use this instead of
    /// [`Lfs::inode_clone`]: most callers only need one or two fields.
    pub(crate) fn inode_ref(&mut self, ino: Ino) -> FsResult<&Inode> {
        self.ensure_inode(ino)?;
        Ok(&self.inodes[&ino].inode)
    }

    /// Copies out just the scalar attributes — what stat and name
    /// resolution need — without cloning the block-pointer arrays.
    pub(crate) fn inode_attrs(&mut self, ino: Ino) -> FsResult<InodeAttrs> {
        Ok(self.inode_ref(ino)?.attrs())
    }

    /// Mutably borrows the cached inode, marking it dirty. Replaces the
    /// clone-mutate-[`Lfs::put_inode`] dance on paths that always commit
    /// their change; do not use for conditional mutations.
    pub(crate) fn inode_mut(&mut self, ino: Ino) -> FsResult<&mut Inode> {
        self.ensure_inode(ino)?;
        self.dirty_files.insert(ino);
        let c = self.inodes.get_mut(&ino).expect("ensured above");
        set_dirty(&mut c.dirty, &mut self.dirty_inode_count);
        Ok(&mut c.inode)
    }

    /// Stores a modified inode back into the cache and marks it dirty.
    pub(crate) fn put_inode(&mut self, inode: Inode) {
        let ino = inode.ino;
        let old = self
            .inodes
            .insert(inode.ino, CachedInode { inode, dirty: true });
        if !old.is_some_and(|c| c.dirty) {
            self.dirty_inode_count += 1;
        }
        self.dirty_files.insert(ino);
    }

    // ----- indirect blocks ---------------------------------------------

    /// Disk address of the indirect block `key` of `ino`, as recorded in
    /// its parent pointer, or [`NIL_ADDR`].
    fn ind_parent_ptr(&mut self, ino: Ino, key: IndKey) -> FsResult<DiskAddr> {
        let (indirect, dindirect) = {
            let inode = self.inode_ref(ino)?;
            (inode.indirect, inode.dindirect)
        };
        Ok(match key {
            IndKey::Single(0) => indirect,
            IndKey::Double => dindirect,
            IndKey::Single(k) => {
                if dindirect == NIL_ADDR && !self.inds.contains_key(&(ino, IndKey::Double)) {
                    NIL_ADDR
                } else {
                    self.ensure_ind(ino, IndKey::Double, false)?;
                    match self.inds.get(&(ino, IndKey::Double)) {
                        Some(d) => d.blk.ptrs[(k - 1) as usize],
                        None => NIL_ADDR,
                    }
                }
            }
        })
    }

    /// Ensures the indirect block `key` of `ino` is cached. With
    /// `create`, a missing block is materialised empty (it becomes dirty
    /// only when a pointer is stored). Returns whether the block exists.
    pub(crate) fn ensure_ind(&mut self, ino: Ino, key: IndKey, create: bool) -> FsResult<bool> {
        if self.inds.contains_key(&(ino, key)) {
            return Ok(true);
        }
        let addr = self.ind_parent_ptr(ino, key)?;
        if addr == NIL_ADDR {
            if !create {
                return Ok(false);
            }
            self.inds.insert(
                (ino, key),
                CachedInd {
                    blk: IndirectBlock::new(),
                    dirty: false,
                    disk_addr: NIL_ADDR,
                },
            );
            return Ok(true);
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev
            .read_blocks(addr, &mut buf)
            .map_err(FsError::device)?;
        self.inds.insert(
            (ino, key),
            CachedInd {
                blk: IndirectBlock::decode(&buf),
                dirty: false,
                disk_addr: addr,
            },
        );
        Ok(true)
    }

    /// Current disk address of file block `bno` of `ino` ([`NIL_ADDR`] for
    /// holes).
    pub(crate) fn block_ptr(&mut self, ino: Ino, bno: u64) -> FsResult<DiskAddr> {
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(i) => Ok(self.inode_ref(ino)?.direct[i]),
            BlockClass::Indirect1(i) => {
                if !self.ensure_ind(ino, IndKey::Single(0), false)? {
                    return Ok(NIL_ADDR);
                }
                Ok(self.inds[&(ino, IndKey::Single(0))].blk.ptrs[i])
            }
            BlockClass::Indirect2(i, j) => {
                let key = IndKey::Single(i as u32 + 1);
                if !self.ensure_ind(ino, key, false)? {
                    return Ok(NIL_ADDR);
                }
                Ok(self.inds[&(ino, key)].blk.ptrs[j])
            }
        }
    }

    /// Stores a new address for file block `bno`, returning the old one.
    ///
    /// Dirties whatever holds the pointer (inode or indirect block); the
    /// caller is responsible for usage-table accounting.
    pub(crate) fn set_block_ptr(
        &mut self,
        ino: Ino,
        bno: u64,
        addr: DiskAddr,
    ) -> FsResult<DiskAddr> {
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(i) => {
                let inode = self.inode_mut(ino)?;
                let old = inode.direct[i];
                inode.direct[i] = addr;
                Ok(old)
            }
            BlockClass::Indirect1(i) => {
                self.ensure_ind(ino, IndKey::Single(0), true)?;
                let e = self.inds.get_mut(&(ino, IndKey::Single(0))).unwrap();
                let old = e.blk.ptrs[i];
                e.blk.ptrs[i] = addr;
                set_dirty(&mut e.dirty, &mut self.dirty_ind_count);
                self.dirty_files.insert(ino);
                Ok(old)
            }
            BlockClass::Indirect2(i, j) => {
                let key = IndKey::Single(i as u32 + 1);
                self.ensure_ind(ino, IndKey::Double, true)?;
                self.ensure_ind(ino, key, true)?;
                // The double-indirect block will need rewriting once the
                // single relocates; mark it conservatively now.
                let d = self.inds.get_mut(&(ino, IndKey::Double)).unwrap();
                set_dirty(&mut d.dirty, &mut self.dirty_ind_count);
                let e = self.inds.get_mut(&(ino, key)).unwrap();
                let old = e.blk.ptrs[j];
                e.blk.ptrs[j] = addr;
                set_dirty(&mut e.dirty, &mut self.dirty_ind_count);
                self.dirty_files.insert(ino);
                Ok(old)
            }
        }
    }

    // ----- data block cache --------------------------------------------

    fn touch_lru(&mut self) -> u64 {
        self.lru_tick += 1;
        self.lru_tick
    }

    /// Ensures file block `bno` of `ino` is cached (reading from disk or
    /// materialising zeros for a hole).
    pub(crate) fn ensure_block(&mut self, ino: Ino, bno: u64) -> FsResult<()> {
        if self.blocks.contains_key(&(ino, bno)) {
            return Ok(());
        }
        let addr = self.block_ptr(ino, bno)?;
        let mut data = vec![0u8; BLOCK_SIZE];
        if addr != NIL_ADDR {
            self.dev
                .read_blocks(addr, &mut data)
                .map_err(FsError::device)?;
        }
        self.insert_fetched(ino, bno, data);
        Ok(())
    }

    /// Inserts one freshly fetched (clean) block, with exactly the cache
    /// bookkeeping [`Lfs::ensure_block`] does: LRU touch, modification
    /// stamp, eviction check.
    fn insert_fetched(&mut self, ino: Ino, bno: u64, data: Vec<u8>) {
        let lru = self.touch_lru();
        let mtime = self.clock;
        self.blocks.insert(
            (ino, bno),
            CachedBlock {
                data: Arc::new(data),
                dirty: false,
                lru,
                mtime,
            },
        );
        self.maybe_evict_except(Some((ino, bno)));
    }

    /// Ensures file block `bno` of `ino` is cached and returns a clone of
    /// its reference-counted payload. The extra `Arc` pins the cache entry
    /// ([`CachedBlock::pinned`]) for as long as the caller holds it, and a
    /// writer that mutates the block meanwhile copies-on-write
    /// (`Arc::make_mut`), so the returned snapshot stays immutable.
    pub(crate) fn block_arc(&mut self, ino: Ino, bno: u64) -> FsResult<Arc<Vec<u8>>> {
        self.ensure_block(ino, bno)?;
        Ok(self
            .blocks
            .get(&(ino, bno))
            .expect("ensure_block keeps its own block resident")
            .data
            .clone())
    }

    /// Ensures file blocks `first..=last` of `ino` are cached, fetching
    /// runs of blocks with *contiguous disk addresses* as single device
    /// requests.
    ///
    /// Exactly equivalent to calling [`Lfs::ensure_block`] on each block
    /// in order: device requests happen in the same order (a pending run
    /// is issued before anything that would itself touch the device — an
    /// indirect-block load — and before skipping a cached block), blocks
    /// enter the cache in the same order with the same LRU ticks, and a
    /// run costs the same simulated time as its blocks read back-to-back
    /// ([`BlockDevice::read_run`]). Only the device's *request count*
    /// differs.
    fn fetch_blocks(&mut self, ino: Ino, first: u64, last: u64) -> FsResult<()> {
        // The run being assembled: (start address, first file block,
        // block count).
        let mut run: Option<(DiskAddr, u64, u64)> = None;
        // Pointer window: one cloned stretch of pointers (the inode's
        // direct array or a cached indirect block), so assembly resolves
        // addresses with an array index per block instead of per-block
        // cache lookups. Purely a lookup cache — loading it never touches
        // the device.
        let mut win: Option<(u64, Vec<DiskAddr>)> = None;
        for bno in first..=last {
            if self.blocks.contains_key(&(ino, bno)) {
                self.fetch_run(ino, &mut run)?;
                continue;
            }
            let addr = match win_lookup(&win, bno) {
                Some(a) => a,
                None => match self.ptr_window(ino, bno)? {
                    Some(w) => {
                        let a = w.1[(bno - w.0) as usize];
                        win = Some(w);
                        a
                    }
                    None => {
                        // Resolving this pointer reads an indirect block;
                        // issue the pending run first so device requests
                        // stay in per-block order.
                        self.fetch_run(ino, &mut run)?;
                        let a = self.block_ptr(ino, bno)?;
                        win = self.ptr_window(ino, bno)?;
                        a
                    }
                },
            };
            if addr == NIL_ADDR {
                // A hole: materialise zeros without a device read.
                self.fetch_run(ino, &mut run)?;
                self.insert_fetched(ino, bno, vec![0u8; BLOCK_SIZE]);
                continue;
            }
            run = match run {
                Some((start, rb, count)) if addr == start + count => Some((start, rb, count + 1)),
                Some(prev) => {
                    let mut prev = Some(prev);
                    self.fetch_run(ino, &mut prev)?;
                    Some((addr, bno, 1))
                }
                None => Some((addr, bno, 1)),
            };
        }
        // Read-ahead: extend the final run through blocks whose addresses
        // are already resolvable from cached state and stay contiguous.
        // Stops at holes, cached blocks, pointers that would need their
        // own device read, and end of file — so with the default window
        // of 0 exactly the blocks of the request are fetched.
        if self.cfg.read_ahead_blocks > 0 && run.is_some() {
            let file_blocks = blocks_for_size(self.inode_ref(ino)?.size);
            let limit = last.saturating_add(self.cfg.read_ahead_blocks as u64);
            let mut next = last + 1;
            while next < file_blocks && next <= limit {
                let (start, rb, count) = run.expect("checked above");
                if self.blocks.contains_key(&(ino, next)) {
                    break;
                }
                let addr = match win_lookup(&win, next) {
                    Some(a) => Some(a),
                    None => {
                        win = self.ptr_window(ino, next)?;
                        win.as_ref().map(|w| w.1[(next - w.0) as usize])
                    }
                };
                match addr {
                    Some(a) if a != NIL_ADDR && a == start + count => {
                        run = Some((start, rb, count + 1));
                    }
                    _ => break,
                }
                next += 1;
            }
        }
        self.fetch_run(ino, &mut run)
    }

    /// Returns the contiguous stretch of file-block pointers covering
    /// `bno` that is resolvable from cached state alone: `(first file
    /// block of the stretch, the pointer values)`. `None` exactly when an
    /// indirect block would need its own device read first. A stretch
    /// under an absent indirect tree comes back as [`NIL_ADDR`]s, matching
    /// per-block hole semantics.
    fn ptr_window(&mut self, ino: Ino, bno: u64) -> FsResult<Option<(u64, Vec<DiskAddr>)>> {
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(_) => Ok(Some((0, self.inode_ref(ino)?.direct.to_vec()))),
            BlockClass::Indirect1(_) => {
                if let Some(e) = self.inds.get(&(ino, IndKey::Single(0))) {
                    return Ok(Some((IND1_START, e.blk.ptrs.to_vec())));
                }
                if self.inode_ref(ino)?.indirect == NIL_ADDR {
                    return Ok(Some((IND1_START, vec![NIL_ADDR; PTRS_PER_BLOCK])));
                }
                Ok(None)
            }
            BlockClass::Indirect2(i, _) => {
                let win_start = IND2_START + (i * PTRS_PER_BLOCK) as u64;
                let key = IndKey::Single(i as u32 + 1);
                if let Some(e) = self.inds.get(&(ino, key)) {
                    return Ok(Some((win_start, e.blk.ptrs.to_vec())));
                }
                if let Some(d) = self.inds.get(&(ino, IndKey::Double)) {
                    if d.blk.ptrs[i] == NIL_ADDR {
                        return Ok(Some((win_start, vec![NIL_ADDR; PTRS_PER_BLOCK])));
                    }
                    return Ok(None);
                }
                if self.inode_ref(ino)?.dindirect == NIL_ADDR {
                    return Ok(Some((win_start, vec![NIL_ADDR; PTRS_PER_BLOCK])));
                }
                Ok(None)
            }
        }
    }

    /// Issues the pending run (if any) as one device request, scattered
    /// straight into the blocks' final cache buffers (no bounce buffer,
    /// no second copy), and inserts them in file order.
    fn fetch_run(&mut self, ino: Ino, run: &mut Option<(DiskAddr, u64, u64)>) -> FsResult<()> {
        let Some((start, first_bno, count)) = run.take() else {
            return Ok(());
        };
        if count == 1 {
            // Single-block run: skip the scatter-list machinery (this is
            // the common case for small files).
            let mut data = vec![0u8; BLOCK_SIZE];
            self.dev
                .read_run(start, &mut data)
                .map_err(FsError::device)?;
            self.insert_fetched(ino, first_bno, data);
            return Ok(());
        }
        let mut boxes: Vec<Vec<u8>> = (0..count).map(|_| vec![0u8; BLOCK_SIZE]).collect();
        let mut bufs: Vec<&mut [u8]> = boxes.iter_mut().map(|b| &mut b[..]).collect();
        self.dev
            .read_run_scatter(start, &mut bufs)
            .map_err(FsError::device)?;
        for (i, data) in boxes.into_iter().enumerate() {
            self.insert_fetched(ino, first_bno + i as u64, data);
        }
        Ok(())
    }

    /// Marks a cached block dirty, tracking flush bookkeeping and
    /// stamping the block's modification time.
    pub(crate) fn mark_block_dirty(&mut self, ino: Ino, bno: u64) {
        let now = self.clock;
        let b = self.blocks.get_mut(&(ino, bno)).expect("block not cached");
        b.mtime = now;
        if !b.dirty {
            b.dirty = true;
            self.dirty_bytes += BLOCK_SIZE as u64;
            self.dirty_blocks.insert((ino, bno));
        }
        self.dirty_files.insert(ino);
    }

    /// Evicts clean blocks when the cache exceeds its limit, never
    /// evicting `protect`.
    ///
    /// Blocks whose payload `Arc` is shared are *pinned* and never
    /// evicted: a second strong count means a concurrent reader holds a
    /// published snapshot ([`crate::SharedLfs`]'s read cache) or a queued
    /// submission still references the block in flight. Evicting the
    /// entry itself would be data-safe (every holder keeps its own
    /// reference), but dropping it would let an interleaved re-read
    /// install a *second* allocation for the same `(ino, bno)` while the
    /// first is still being served — the divergence the pin guard exists
    /// to prevent, and the reason the running dirty-count invariants
    /// (`needs_flush`'s debug asserts) can be checked against scans at
    /// any interleaving point.
    ///
    /// `protect` is set by [`Lfs::insert_fetched`] so a freshly fetched
    /// block cannot be evicted by its own insertion: when every other
    /// entry is dirty or pinned, the newest block would otherwise be the
    /// only candidate, and callers that fetch-then-access would find the
    /// cache empty under them (panic in the write path, livelock in the
    /// read path).
    fn maybe_evict_except(&mut self, protect: Option<(Ino, u64)>) {
        let limit = (self.cfg.cache_limit_bytes / BLOCK_SIZE as u64) as usize;
        if self.blocks.len() <= limit + limit / 8 {
            return;
        }
        let mut clean: Vec<((Ino, u64), u64)> = self
            .blocks
            .iter()
            .filter(|(&k, b)| !b.dirty && !b.pinned() && Some(k) != protect)
            .map(|(&k, b)| (k, b.lru))
            .collect();
        let excess = self.blocks.len().saturating_sub(limit);
        // Only the `excess` least-recently-used entries are evicted, so an
        // O(n) partition suffices — no need to sort the whole clean set.
        if clean.len() > excess && excess > 0 {
            clean.select_nth_unstable_by_key(excess - 1, |&(_, lru)| lru);
            clean.truncate(excess);
        }
        for (k, _) in clean.into_iter().take(excess) {
            self.blocks.remove(&k);
        }
    }

    /// Asserts that every running count matches a fresh scan of the
    /// caches: the dirty-inode and dirty-indirect populations
    /// (`needs_flush`'s O(1) inputs), the dirty-block set, and the
    /// dirty-byte total. Test-only hook for the eviction/pinning
    /// interleaving proptests; release builds compile it to nothing.
    #[doc(hidden)]
    pub fn assert_running_counts(&self) {
        debug_assert_eq!(
            self.dirty_inode_count,
            self.inodes.values().filter(|c| c.dirty).count(),
            "dirty inode running count diverged from scan"
        );
        debug_assert_eq!(
            self.dirty_ind_count,
            self.inds.values().filter(|c| c.dirty).count(),
            "dirty indirect running count diverged from scan"
        );
        debug_assert_eq!(
            self.dirty_blocks.len(),
            self.blocks.values().filter(|b| b.dirty).count(),
            "dirty block set diverged from scan"
        );
        debug_assert_eq!(
            self.dirty_bytes,
            self.dirty_blocks.len() as u64 * BLOCK_SIZE as u64,
            "dirty byte total diverged from dirty block set"
        );
    }

    /// Drops all cached state for a deleted file.
    pub(crate) fn purge_file(&mut self, ino: Ino) {
        if self.inodes.remove(&ino).is_some_and(|c| c.dirty) {
            self.dirty_inode_count -= 1;
        }
        let dic = &mut self.dirty_ind_count;
        self.inds.retain(|&(i, _), e| {
            if i == ino && e.dirty {
                *dic -= 1;
            }
            i != ino
        });
        let keys: Vec<(Ino, u64)> = self
            .blocks
            .keys()
            .filter(|&&(i, _)| i == ino)
            .copied()
            .collect();
        for k in keys {
            if let Some(b) = self.blocks.remove(&k) {
                if b.dirty {
                    self.dirty_bytes -= BLOCK_SIZE as u64;
                }
            }
            self.dirty_blocks.remove(&k);
        }
        self.dirty_files.remove(&ino);
        self.dcache.remove(&ino);
    }

    // ----- file data I/O -----------------------------------------------

    /// The shared write path (used for regular files and, internally, for
    /// directory content).
    pub(crate) fn write_internal(
        &mut self,
        ino: Ino,
        offset: u64,
        data: &[u8],
        count_app_bytes: bool,
    ) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let old_size = self.inode_ref(ino)?.size;
        let mut pos = 0usize;
        while pos < data.len() {
            // Flush incrementally *before* buffering more: a single huge
            // write must not demand more clean segments at once than the
            // cleaner maintains, and a failing flush must not leave ever
            // more dirty data stranded in the cache.
            if self.dirty_bytes >= self.flush_trigger_bytes() {
                // Keep the inode's size current so a crash mid-write
                // recovers a correct prefix. (Mutating the cached inode in
                // place means there is no pre-flush clone whose pointers
                // could go stale.)
                let m = self.inode_mut(ino)?;
                m.size = m.size.max(offset + pos as u64);
                self.flush()?;
                self.maybe_clean()?;
            }
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - pos);
            let full_overwrite = off_in == 0 && n == BLOCK_SIZE;
            if full_overwrite {
                // No read needed: replace or insert the whole block.
                let lru = self.touch_lru();
                let existing = self.blocks.get_mut(&(ino, bno));
                match existing {
                    Some(b) => {
                        Arc::make_mut(&mut b.data).copy_from_slice(&data[pos..pos + n]);
                        b.lru = lru;
                    }
                    None => {
                        let mtime = self.clock;
                        self.blocks.insert(
                            (ino, bno),
                            CachedBlock {
                                data: Arc::new(data[pos..pos + n].to_vec()),
                                dirty: false,
                                lru,
                                mtime,
                            },
                        );
                    }
                }
            } else {
                self.ensure_block(ino, bno)?;
                let b = self.blocks.get_mut(&(ino, bno)).unwrap();
                Arc::make_mut(&mut b.data)[off_in..off_in + n].copy_from_slice(&data[pos..pos + n]);
            }
            self.mark_block_dirty(ino, bno);
            pos += n;
        }
        let now = self.now();
        let m = self.inode_mut(ino)?;
        m.size = old_size.max(end);
        m.mtime = now;
        if count_app_bytes {
            self.stats.app_bytes_written += data.len() as u64;
        }
        self.after_mutation()?;
        Ok(())
    }

    /// The shared read path: the missing blocks of the range are fetched
    /// up front in contiguous-address runs, then copied out of the cache.
    pub(crate) fn read_internal(
        &mut self,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        let size = self.inode_ref(ino)?.size;
        if offset >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - offset) as usize);
        let first = offset / BLOCK_SIZE as u64;
        let last = (offset + n as u64 - 1) / BLOCK_SIZE as u64;
        self.fetch_blocks(ino, first, last)?;
        let mut pos = 0usize;
        while pos < n {
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let len = (BLOCK_SIZE - off_in).min(n - pos);
            if let Some(b) = self.blocks.get(&(ino, bno)) {
                buf[pos..pos + len].copy_from_slice(&b.data[off_in..off_in + len]);
                pos += len;
            } else {
                // Only when a cache smaller than the request evicted a
                // block between fetch and copy.
                self.ensure_block(ino, bno)?;
            }
        }
        let now = self.clock;
        self.imap.set_atime_quiet(ino, now);
        Ok(n)
    }

    /// Frees all blocks of `ino` past `new_blocks` file blocks, adjusting
    /// usage accounting and pruning emptied indirect blocks.
    pub(crate) fn free_blocks_from(&mut self, ino: Ino, new_blocks: u64) -> FsResult<()> {
        let old_blocks = blocks_for_size(self.inode_ref(ino)?.size);
        // Dirty blocks can exist beyond the recorded size (a write that
        // buffered data and then failed before updating the size); drop
        // them too, or they leak in the cache forever.
        let zombies: Vec<(Ino, u64)> = self
            .dirty_blocks
            .range((ino, old_blocks.max(new_blocks))..=(ino, u64::MAX))
            .copied()
            .collect();
        for key in zombies {
            if let Some(b) = self.blocks.remove(&key) {
                if b.dirty {
                    self.dirty_bytes -= BLOCK_SIZE as u64;
                }
            }
            self.dirty_blocks.remove(&key);
        }
        for bno in new_blocks..old_blocks {
            // Drop the cached copy first.
            if let Some(b) = self.blocks.remove(&(ino, bno)) {
                if b.dirty {
                    self.dirty_bytes -= BLOCK_SIZE as u64;
                }
            }
            self.dirty_blocks.remove(&(ino, bno));
            let old = match classify_block(bno) {
                Some(BlockClass::Direct(_)) => self.set_block_ptr(ino, bno, NIL_ADDR)?,
                Some(_) => {
                    // Only touch indirect trees that exist.
                    if self.block_ptr(ino, bno)? == NIL_ADDR {
                        NIL_ADDR
                    } else {
                        self.set_block_ptr(ino, bno, NIL_ADDR)?
                    }
                }
                None => NIL_ADDR,
            };
            if old != NIL_ADDR {
                if let Some(seg) = self.sb.seg_of(old) {
                    self.usage.sub_live(seg, BLOCK_SIZE as u32);
                }
            }
        }
        self.prune_indirect(ino)?;
        Ok(())
    }

    /// Releases indirect blocks that no longer hold any pointers.
    fn prune_indirect(&mut self, ino: Ino) -> FsResult<()> {
        let keys: Vec<IndKey> = self
            .inds
            .keys()
            .filter(|&&(i, _)| i == ino)
            .map(|&(_, k)| k)
            .collect();
        let mut freed_single = Vec::new();
        for key in keys {
            if let IndKey::Single(k) = key {
                let e = &self.inds[&(ino, key)];
                if e.blk.is_empty() {
                    let old = e.disk_addr;
                    if self.inds.remove(&(ino, key)).is_some_and(|e| e.dirty) {
                        self.dirty_ind_count -= 1;
                    }
                    if old != NIL_ADDR {
                        if let Some(seg) = self.sb.seg_of(old) {
                            self.usage.sub_live(seg, BLOCK_SIZE as u32);
                        }
                    }
                    freed_single.push(k);
                }
            }
        }
        if !freed_single.is_empty() {
            let mut inode = self.inode_clone(ino)?;
            let mut inode_changed = false;
            for k in &freed_single {
                if *k == 0 {
                    inode.indirect = NIL_ADDR;
                    inode_changed = true;
                } else if self.inds.contains_key(&(ino, IndKey::Double)) {
                    let d = self.inds.get_mut(&(ino, IndKey::Double)).unwrap();
                    d.blk.ptrs[(*k - 1) as usize] = NIL_ADDR;
                    set_dirty(&mut d.dirty, &mut self.dirty_ind_count);
                }
            }
            // Now check whether the double-indirect block emptied out.
            if let Some(d) = self.inds.get(&(ino, IndKey::Double)) {
                if d.blk.is_empty() {
                    let old = d.disk_addr;
                    if self
                        .inds
                        .remove(&(ino, IndKey::Double))
                        .is_some_and(|e| e.dirty)
                    {
                        self.dirty_ind_count -= 1;
                    }
                    if old != NIL_ADDR {
                        if let Some(seg) = self.sb.seg_of(old) {
                            self.usage.sub_live(seg, BLOCK_SIZE as u32);
                        }
                    }
                    inode.dindirect = NIL_ADDR;
                    inode_changed = true;
                }
            }
            if inode_changed {
                self.put_inode(inode);
            } else {
                self.dirty_files.insert(ino);
            }
        }
        Ok(())
    }

    /// Deletes a file whose link count reached zero.
    pub(crate) fn delete_file(&mut self, ino: Ino) -> FsResult<()> {
        self.heat.forget(ino);
        self.free_blocks_from(ino, 0)?;
        // Retire the on-disk inode slot.
        let entry = *self.imap.get(ino)?;
        if entry.is_live() {
            if let Some(seg) = self.sb.seg_of(entry.addr) {
                self.usage
                    .sub_live(seg, crate::inode::INODE_DISK_SIZE as u32);
            }
        }
        self.imap.free(ino);
        self.purge_file(ino);
        // Saturating: during roll-forward replay the counter is still 0
        // (mount recomputes it from the inode map after replay finishes).
        self.nfiles = self.nfiles.saturating_sub(1);
        Ok(())
    }

    // ----- directories ---------------------------------------------------

    /// Loads a directory's entries into the directory cache.
    pub(crate) fn ensure_dcache(&mut self, dirino: Ino) -> FsResult<()> {
        if self.dcache.contains_key(&dirino) {
            return Ok(());
        }
        let attrs = self.inode_attrs(dirino)?;
        if attrs.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let nblocks = blocks_for_size(attrs.size);
        let mut cache = DirCache::default();
        for blk in 0..nblocks {
            self.ensure_block(dirino, blk)?;
            let records = dir::decode_block(&self.blocks[&(dirino, blk)].data)?;
            for rec in records {
                cache.map.insert(
                    rec.name,
                    DirSlot {
                        ino: rec.ino,
                        ftype: rec.ftype,
                        blk,
                    },
                );
            }
        }
        self.dcache.insert(dirino, cache);
        Ok(())
    }

    /// Looks up `name` in directory `dirino`.
    pub(crate) fn dir_lookup(&mut self, dirino: Ino, name: &str) -> FsResult<Option<DirSlot>> {
        self.ensure_dcache(dirino)?;
        Ok(self.dcache[&dirino].map.get(name).copied())
    }

    /// Reads the records of one directory block from cache.
    fn dir_block_records(&mut self, dirino: Ino, blk: u64) -> FsResult<Vec<DirRecord>> {
        self.ensure_block(dirino, blk)?;
        dir::decode_block(&self.blocks[&(dirino, blk)].data)
    }

    /// Rewrites one directory block with `records`.
    fn dir_block_write(&mut self, dirino: Ino, blk: u64, records: &[DirRecord]) -> FsResult<()> {
        let buf = dir::encode_block(records);
        self.write_internal(dirino, blk * BLOCK_SIZE as u64, &buf, false)
    }

    /// Inserts an entry into a directory.
    ///
    /// The caller must already have checked that the name is free.
    pub(crate) fn dir_insert(
        &mut self,
        dirino: Ino,
        name: &str,
        ino: Ino,
        ftype: FileType,
    ) -> FsResult<()> {
        self.ensure_dcache(dirino)?;
        let nblocks = blocks_for_size(self.inode_ref(dirino)?.size);
        // Built once and moved from block to block — popped back out of a
        // candidate that could not fit it, never cloned.
        let mut pending = Some(DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        });
        let hint = self.dcache[&dirino]
            .space_hint
            .min(nblocks.saturating_sub(1));
        // Try the hint block first, then every block, then append.
        let mut target = None;
        let order = std::iter::once(hint).chain((0..nblocks).filter(|&b| b != hint));
        let candidates: Vec<u64> = if nblocks == 0 {
            vec![]
        } else {
            order.collect()
        };
        for blk in candidates {
            let mut records = self.dir_block_records(dirino, blk)?;
            records.push(pending.take().expect("record is pending"));
            if dir::fits(&records) {
                target = Some((blk, records));
                break;
            }
            pending = records.pop();
        }
        let (blk, records) = match target {
            Some(t) => t,
            None => (nblocks, vec![pending.expect("record is pending")]),
        };
        self.dir_block_write(dirino, blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache
            .map
            .insert(name.to_string(), DirSlot { ino, ftype, blk });
        cache.space_hint = blk;
        Ok(())
    }

    /// Removes an entry from a directory, returning what it referred to.
    pub(crate) fn dir_remove(&mut self, dirino: Ino, name: &str) -> FsResult<DirSlot> {
        self.ensure_dcache(dirino)?;
        let slot = self.dcache[&dirino]
            .map
            .get(name)
            .copied()
            .ok_or(FsError::NotFound)?;
        let mut records = self.dir_block_records(dirino, slot.blk)?;
        records.retain(|r| r.name != name);
        self.dir_block_write(dirino, slot.blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache.map.remove(name);
        cache.space_hint = slot.blk;
        Ok(slot)
    }

    /// All live entries of a directory.
    pub(crate) fn dir_entries(&mut self, dirino: Ino) -> FsResult<Vec<(String, DirSlot)>> {
        self.ensure_dcache(dirino)?;
        let mut out: Vec<(String, DirSlot)> = self.dcache[&dirino]
            .map
            .iter()
            .map(|(n, s)| (n.clone(), *s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // ----- path resolution ----------------------------------------------

    /// Resolves a path to an inode number.
    pub(crate) fn resolve(&mut self, path: &str) -> FsResult<Ino> {
        let parts = vfs::path::components(path)?;
        let mut cur = ROOT_INO;
        for part in parts {
            if self.inode_ref(cur)?.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = self.dir_lookup(cur, part)?.ok_or(FsError::NotFound)?.ino;
        }
        Ok(cur)
    }

    /// Resolves a path to `(parent directory inode, final name)`.
    pub(crate) fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parent_parts, name) = vfs::path::split_parent(path)?;
        let mut cur = ROOT_INO;
        for part in parent_parts {
            if self.inode_ref(cur)?.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = self.dir_lookup(cur, part)?.ok_or(FsError::NotFound)?.ino;
        }
        if self.inode_ref(cur)?.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((cur, name))
    }

    // ----- common post-mutation policy -----------------------------------

    /// Runs `f` as one atomic *namespace operation*.
    ///
    /// Flushes inside `f` are safe: the directory-operation log record is
    /// pushed before the mutations, so roll-forward can finish or undo a
    /// half-applied operation after a crash (§4.2). A *checkpoint*,
    /// however, declares the on-disk state complete and puts the repair
    /// record behind the checkpoint where replay never sees it — so a
    /// checkpoint landing between, say, a rename's entry removal and its
    /// entry insertion would freeze the orphaned intermediate state
    /// forever. While the guard is held, [`Lfs::checkpoint`] degrades to
    /// a plain flush and the cleaner defers segment promotion; the
    /// caller's `after_mutation` (outside the guard) checkpoints normally.
    fn with_nsop<T>(&mut self, f: impl FnOnce(&mut Self) -> FsResult<T>) -> FsResult<T> {
        self.nsop_depth += 1;
        let r = f(self);
        self.nsop_depth -= 1;
        r
    }

    /// Applies the flush / clean / checkpoint policies after a mutation.
    pub(crate) fn after_mutation(&mut self) -> FsResult<()> {
        if self.dirty_bytes >= self.flush_trigger_bytes() {
            self.flush()?;
        }
        if self.cfg.checkpoint_every_bytes > 0
            && self.bytes_since_checkpoint >= self.cfg.checkpoint_every_bytes
        {
            self.checkpoint()?;
        }
        self.maybe_clean()?;
        Ok(())
    }

    /// Creates a file or directory (the shared half of `create`/`mkdir`).
    fn create_node(&mut self, path: &str, ftype: FileType) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.with_nsop(|fs| {
            let ino = fs.imap.allocate().ok_or(FsError::NoInodes)?;
            let now = fs.now();
            let version = fs.imap.version(ino);
            let inode = Inode::new(ino, version, ftype, now);
            fs.put_inode(inode);
            fs.nfiles += 1;
            fs.dirlog_pending.push(DirLogRecord {
                op: match ftype {
                    FileType::Regular => DirOp::Create,
                    FileType::Directory => DirOp::Mkdir,
                },
                dir: parent,
                name: name.to_string(),
                ino,
                nlink: 1,
                version,
                dir2: 0,
                name2: String::new(),
            });
            fs.dir_insert(parent, name, ino, ftype)?;
            Ok(ino)
        })?;
        self.after_mutation()?;
        Ok(ino)
    }
}

impl<D: QueueDevice> FileSystem for Lfs<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.timed(|o| &o.create, |fs| fs.create_node(path, FileType::Regular))
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.create_node(path, FileType::Directory)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.resolve(path)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.timed(
            |o| &o.write,
            |fs| {
                if fs.inode_ref(ino)?.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                fs.heat.touch(ino, fs.clock);
                fs.write_internal(ino, offset, data, true)
            },
        )
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.timed(
            |o| &o.read,
            |fs| {
                if fs.inode_ref(ino)?.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                fs.read_internal(ino, offset, buf)
            },
        )
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        let attrs = self.inode_attrs(ino)?;
        if attrs.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        if size < attrs.size {
            let new_blocks = blocks_for_size(size);
            self.free_blocks_from(ino, new_blocks)?;
            // Zero the tail of the now-final partial block so a later
            // extension reads back zeros.
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let bno = size / BLOCK_SIZE as u64;
                if self.block_ptr(ino, bno)? != NIL_ADDR || self.blocks.contains_key(&(ino, bno)) {
                    self.ensure_block(ino, bno)?;
                    let off = (size % BLOCK_SIZE as u64) as usize;
                    let b = self.blocks.get_mut(&(ino, bno)).unwrap();
                    Arc::make_mut(&mut b.data)[off..].fill(0);
                    self.mark_block_dirty(ino, bno);
                }
            }
            if size == 0 {
                // "The version number is incremented whenever the file is
                // deleted or truncated to length zero" (§3.3).
                let v = self.imap.bump_version(ino);
                self.inode_mut(ino)?.version = v;
            }
        }
        let now = self.now();
        self.heat.touch(ino, now);
        let m = self.inode_mut(ino)?;
        m.size = size;
        m.mtime = now;
        self.after_mutation()?;
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.timed(
            |o| &o.unlink,
            |this| {
                let (parent, name) = this.resolve_parent(path)?;
                let slot = this.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
                if slot.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                let mut inode = this.inode_clone(slot.ino)?;
                inode.nlink -= 1;
                let nlink = inode.nlink;
                let version = inode.version;
                this.with_nsop(|fs| {
                    fs.dirlog_pending.push(DirLogRecord {
                        op: DirOp::Unlink,
                        dir: parent,
                        name: name.to_string(),
                        ino: slot.ino,
                        nlink,
                        version,
                        dir2: 0,
                        name2: String::new(),
                    });
                    fs.dir_remove(parent, name)?;
                    if nlink == 0 {
                        fs.delete_file(slot.ino)
                    } else {
                        fs.put_inode(inode);
                        Ok(())
                    }
                })?;
                this.after_mutation()?;
                Ok(())
            },
        )
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let slot = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
        if slot.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !self.dir_entries(slot.ino)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty);
        }
        let version = self.imap.version(slot.ino);
        self.with_nsop(|fs| {
            fs.dirlog_pending.push(DirLogRecord {
                op: DirOp::Rmdir,
                dir: parent,
                name: name.to_string(),
                ino: slot.ino,
                nlink: 0,
                version,
                dir2: 0,
                name2: String::new(),
            });
            fs.dir_remove(parent, name)?;
            fs.delete_file(slot.ino)
        })?;
        self.after_mutation()?;
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let src = self
            .dir_lookup(from_parent, from_name)?
            .ok_or(FsError::NotFound)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        if let Some(dst) = self.dir_lookup(to_parent, to_name)? {
            if dst.ino == src.ino {
                return Ok(());
            }
            if src.ftype == FileType::Directory || dst.ftype == FileType::Directory {
                return Err(FsError::AlreadyExists);
            }
        }
        self.with_nsop(|fs| {
            if let Some(dst) = fs.dir_lookup(to_parent, to_name)? {
                // Replace a regular-file target: unlink it as part of the
                // atomic rename.
                let mut dst_inode = fs.inode_clone(dst.ino)?;
                dst_inode.nlink -= 1;
                let nlink = dst_inode.nlink;
                let version = dst_inode.version;
                fs.dirlog_pending.push(DirLogRecord {
                    op: DirOp::Unlink,
                    dir: to_parent,
                    name: to_name.to_string(),
                    ino: dst.ino,
                    nlink,
                    version,
                    dir2: 0,
                    name2: String::new(),
                });
                fs.dir_remove(to_parent, to_name)?;
                if nlink == 0 {
                    fs.delete_file(dst.ino)?;
                } else {
                    fs.put_inode(dst_inode);
                }
            }
            let src_inode = fs.inode_clone(src.ino)?;
            fs.dirlog_pending.push(DirLogRecord {
                op: DirOp::Rename,
                dir: from_parent,
                name: from_name.to_string(),
                ino: src.ino,
                nlink: src_inode.nlink,
                version: src_inode.version,
                dir2: to_parent,
                name2: to_name.to_string(),
            });
            fs.dir_remove(from_parent, from_name)?;
            fs.dir_insert(to_parent, to_name, src.ino, src.ftype)
        })?;
        self.after_mutation()?;
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let src_ino = self.resolve(existing)?;
        let mut inode = self.inode_clone(src_ino)?;
        if inode.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        inode.nlink += 1;
        let now = self.now();
        inode.ctime = now;
        let nlink = inode.nlink;
        let version = inode.version;
        self.with_nsop(|fs| {
            fs.put_inode(inode);
            fs.dirlog_pending.push(DirLogRecord {
                op: DirOp::Link,
                dir: parent,
                name: name.to_string(),
                ino: src_ino,
                nlink,
                version,
                dir2: 0,
                name2: String::new(),
            });
            fs.dir_insert(parent, name, src_ino, FileType::Regular)
        })?;
        self.after_mutation()?;
        Ok(())
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        // Attrs only — stat must not clone the block-pointer arrays.
        let mut m = self.inode_attrs(ino)?.metadata();
        if let Ok(e) = self.imap.get(ino) {
            m.atime = m.atime.max(e.atime);
        }
        Ok(m)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let dirino = self.resolve(path)?;
        if self.inode_ref(dirino)?.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok(self
            .dir_entries(dirino)?
            .into_iter()
            .map(|(name, slot)| DirEntry {
                name,
                ino: slot.ino,
                ftype: slot.ftype,
            })
            .collect())
    }

    fn sync(&mut self) -> FsResult<()> {
        self.checkpoint()
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        let live: u64 = self.usage.iter().map(|(_, u)| u.live_bytes as u64).sum();
        // Include data that is dirty in the cache but not yet on disk.
        let pending = self.dirty_bytes;
        Ok(StatFs {
            total_bytes: self.sb.nsegments as u64 * self.cfg.seg_bytes(),
            live_bytes: live + pending,
            num_files: self.nfiles,
        })
    }
}
