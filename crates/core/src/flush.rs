//! The write path: building partial writes and checkpoints.
//!
//! A flush gathers everything dirty in the file cache — directory-log
//! records first (the §4.2 ordering guarantee), then file data blocks,
//! indirect blocks, inode blocks, inode-map blocks, and segment-usage
//! blocks — lays the blocks out after a summary block in the current
//! segment, updates every pointer to the new addresses, and issues one
//! large sequential device write per chunk. "For workloads that contain
//! many small files, a log-structured file system converts the many small
//! synchronous random writes of traditional file systems into large
//! asynchronous sequential transfers" (§3).

use std::collections::BTreeSet;

use blockdev::{IoBuf, QueueDevice, WriteKind, BLOCK_SIZE};
use vfs::{FsError, FsResult, Ino};

use crate::dirlog;
use crate::fs::{gather_write_retry, set_dirty, IndKey, Lfs};
use crate::inode::INODE_DISK_SIZE;
use crate::layout::{classify_block, BlockClass, DiskAddr, NIL_ADDR};
use crate::ordering::{CheckpointReady, DataWritten, Flush};
use crate::stats::BlockKind;
use crate::summary::{EntryKind, Summary, SummaryEntry, MAX_SUMMARY_ENTRIES};
use crate::usage::SegState;

/// Clean segments normal writes may never consume — the cleaner's private
/// pool for relocating live data when the log runs out of space.
pub(crate) const CLEANER_RESERVE_SEGS: usize = 2;

/// Most heat entries a checkpoint persists (the hottest ones win).
/// Bounds the region payload: 512 pairs cost 4 KB, one extra block.
const MAX_CHECKPOINT_HEAT: usize = 512;

/// One block scheduled for the current partial write.
#[derive(Clone, Debug)]
enum Item {
    DirLog(Box<[u8]>),
    Data { ino: Ino, bno: u64 },
    Ind { ino: Ino, key: IndKey },
    InodeBlk { inos: Vec<Ino> },
    Imap(usize),
    Usage(usize),
}

impl Item {
    fn stats_kind(&self) -> BlockKind {
        match self {
            Item::DirLog(_) => BlockKind::DirLog,
            Item::Data { .. } => BlockKind::Data,
            Item::Ind { .. } => BlockKind::Indirect,
            Item::InodeBlk { .. } => BlockKind::Inode,
            Item::Imap(_) => BlockKind::Imap,
            Item::Usage(_) => BlockKind::Usage,
        }
    }
}

/// Placement of one partial write.
struct ChunkPlan {
    seg: u32,
    off: u32,
    n_items: usize,
    /// Index into [`Lfs::write_points`] of the cursor this chunk
    /// advances — encodes both the temperature stream (`cursor /
    /// nshards`) and the shard (`cursor % nshards`).
    cursor: usize,
}

/// The result of the (pure) layout computation.
struct LayoutPlan {
    chunks: Vec<ChunkPlan>,
    /// Segments newly allocated (to be marked Active in order).
    allocated: Vec<u32>,
    /// Where every shard's write point ends up after the plan executes
    /// (same order as [`Lfs::write_points`]; untouched shards keep their
    /// current position).
    end_wps: Vec<(u32, u32)>,
}

impl<D: QueueDevice> Lfs<D> {
    /// True if any state is waiting to reach the log. O(1): the inode and
    /// indirect-block dirty populations are running counts maintained at
    /// every flag transition, not cache scans (this predicate runs on
    /// every write while the caches hold the whole working set).
    pub fn needs_flush(&self) -> bool {
        debug_assert_eq!(
            self.dirty_inode_count,
            self.inodes.values().filter(|c| c.dirty).count()
        );
        debug_assert_eq!(
            self.dirty_ind_count,
            self.inds.values().filter(|c| c.dirty).count()
        );
        !self.dirty_blocks.is_empty()
            || !self.dirlog_pending.is_empty()
            || self.dirty_inode_count > 0
            || self.dirty_ind_count > 0
            || self.imap.has_dirty()
            || self.usage.has_dirty()
    }

    /// True when a `sync` would be a pure group commit: nothing dirty,
    /// nothing in the log tail past the last checkpoint, and *both*
    /// checkpoint regions already record `write_seq` — exactly the skip
    /// condition of `checkpoint_inner`. [`crate::SharedLfs`] mirrors this
    /// into an atomic so concurrent `sync` callers can hand off without
    /// taking the writer lane at all.
    pub(crate) fn sync_settled(&self) -> bool {
        self.nsop_depth == 0
            && !self.needs_flush()
            && self.checkpoint_seq == self.write_seq
            && self.bytes_since_checkpoint == 0
            && self.cp_seqs[0] == Some(self.write_seq)
            && self.cp_seqs[1] == Some(self.write_seq)
    }

    /// Writes everything dirty to the log as one or more partial writes.
    ///
    /// This is the paper's fundamental operation: it converts the
    /// accumulated small modifications into large sequential transfers.
    /// It does *not* write a checkpoint; see [`Lfs::checkpoint`].
    pub fn flush(&mut self) -> FsResult<()> {
        self.flush_tokened().map(drop)
    }

    /// [`Lfs::flush`], returning the [`Flush<DataWritten>`] ordering token
    /// of the last chunk written. Checkpointing goes through this form:
    /// the token is the compile-time proof that the log writes a
    /// checkpoint will cover were staged → sealed → submitted in order,
    /// and [`Flush::fence`] is the only way to turn it into the
    /// [`CheckpointReady`] the region write demands.
    pub(crate) fn flush_tokened(&mut self) -> FsResult<Flush<DataWritten>> {
        if !self.needs_flush() {
            return Ok(Flush::idle());
        }
        let res = self.timed(|o| &o.flush, |fs| fs.flush_inner());
        // On a queued device the ring engine owns retries of transient
        // apply failures; fold whatever it absorbed (or gave up on) into
        // the same ledger the synchronous retry paths use.
        self.absorb_queue_errors();
        res
    }

    fn flush_inner(&mut self) -> FsResult<Flush<DataWritten>> {
        // ---- gather -----------------------------------------------------
        let dirlog_blocks = dirlog::encode_records(&self.dirlog_pending);

        // Items are gathered into one group per temperature stream plus
        // (with several streams) a trailing metadata group; the flat
        // item list written below is the concatenation of the groups in
        // that order. With a single stream this is exactly the
        // historical single-list gather. Two constraints meet here:
        //
        // * *Placement*: metadata (directory log, inode/imap/usage
        //   blocks) rides the hot stream's write point — it turns over
        //   fastest, so segregating it from cold file data keeps cold
        //   segments at high, stable utilization (§3.4).
        // * *Ordering*: an inode must reach the log *after* every data
        //   and indirect block it references, or roll-forward could
        //   adopt an inode whose blocks a crash swallowed (§4.2). The
        //   streams write to distinct cursors but share one sequence
        //   numbering, and replay stops at the first missing sequence —
        //   so the inode/imap/usage group must take the *highest*
        //   sequence numbers, i.e. come last in the flat list, even
        //   though its chunks land on the stream-0 cursor.
        let nstreams = self.stream_count();
        let ngroups = if nstreams == 1 { 1 } else { nstreams + 1 };
        let meta = ngroups - 1;
        let mut groups: Vec<Vec<Item>> = vec![Vec::new(); ngroups];
        for b in dirlog_blocks {
            groups[0].push(Item::DirLog(b));
        }

        // Data blocks, grouped per file. With age-sorting enabled the
        // cleaner's relocations are grouped oldest-first so cold data
        // segregates from hot data (§3.4, policy 4).
        let mut file_order: Vec<Ino> = {
            let mut inos: BTreeSet<Ino> = self.dirty_blocks.iter().map(|&(i, _)| i).collect();
            for (&(i, _), c) in self.inds.iter() {
                if c.dirty {
                    inos.insert(i);
                }
            }
            for (&i, c) in self.inodes.iter() {
                if c.dirty {
                    inos.insert(i);
                }
            }
            inos.extend(self.dirty_files.iter().copied());
            inos.into_iter().collect()
        };
        if self.cleaning && self.cfg.age_sort {
            // "Sort the blocks by the time they were last modified and
            // group blocks of similar age together into new segments"
            // (§3.4). Files are ordered by the age of their oldest dirty
            // block; within a file, blocks are already relocated
            // together, which is the grouping the policy wants.
            let mut keyed: Vec<(u64, Ino)> = Vec::with_capacity(file_order.len());
            for ino in file_order {
                let oldest_block = self
                    .dirty_blocks
                    .range((ino, 0)..=(ino, u64::MAX))
                    .filter_map(|k| self.blocks.get(k).map(|b| b.mtime))
                    .min();
                let key = match oldest_block {
                    Some(t) => t,
                    None => self.inode_ref(ino).map(|i| i.mtime).unwrap_or(0),
                };
                keyed.push((key, ino));
            }
            keyed.sort_unstable();
            file_order = keyed.into_iter().map(|(_, i)| i).collect();
        }

        // Make sure every indirect block that will receive a pointer
        // update exists in the cache before layout, so it is part of the
        // batch.
        let dirty_data: Vec<(Ino, u64)> = self.dirty_blocks.iter().copied().collect();
        for &(ino, bno) in &dirty_data {
            match classify_block(bno).ok_or(FsError::FileTooLarge)? {
                BlockClass::Direct(_) => {}
                BlockClass::Indirect1(_) => {
                    self.ensure_ind(ino, IndKey::Single(0), true)?;
                    let e = self.inds.get_mut(&(ino, IndKey::Single(0))).unwrap();
                    set_dirty(&mut e.dirty, &mut self.dirty_ind_count);
                }
                BlockClass::Indirect2(i, _) => {
                    self.ensure_ind(ino, IndKey::Double, true)?;
                    let d = self.inds.get_mut(&(ino, IndKey::Double)).unwrap();
                    set_dirty(&mut d.dirty, &mut self.dirty_ind_count);
                    let key = IndKey::Single(i as u32 + 1);
                    self.ensure_ind(ino, key, true)?;
                    let e = self.inds.get_mut(&(ino, key)).unwrap();
                    set_dirty(&mut e.dirty, &mut self.dirty_ind_count);
                }
            }
        }

        let mut dirty_inos: Vec<Ino> = Vec::new();
        for &ino in &file_order {
            // Data blocks of this file, in file order.
            let blocks: Vec<u64> = self
                .dirty_blocks
                .range((ino, 0)..=(ino, u64::MAX))
                .map(|&(_, b)| b)
                .collect();
            for bno in blocks {
                let t = self.stream_of_block(ino, bno);
                groups[t].push(Item::Data { ino, bno });
            }
            // Indirect blocks: singles first (their addresses go into the
            // double), then the double. They follow the file's own heat
            // class — an indirect block changes whenever its file does.
            let mut keys: Vec<IndKey> = self
                .inds
                .iter()
                .filter(|(&(i, _), c)| i == ino && c.dirty)
                .map(|(&(_, k), _)| k)
                .collect();
            keys.sort();
            let ft = if nstreams == 1 {
                0
            } else {
                self.heat.class(ino, self.clock, nstreams)
            };
            for key in keys {
                groups[ft].push(Item::Ind { ino, key });
            }
            if self.inodes.get(&ino).map(|c| c.dirty).unwrap_or(false)
                || self.dirty_files.contains(&ino)
            {
                dirty_inos.push(ino);
            }
        }
        // Pack dirty inodes 16 to a block, preserving the file order.
        for group in dirty_inos.chunks(crate::layout::INODES_PER_BLOCK) {
            groups[meta].push(Item::InodeBlk {
                inos: group.to_vec(),
            });
        }

        // Inode-map blocks: already dirty ones plus those about to change
        // because of the inode relocations above.
        let mut imap_blocks: BTreeSet<usize> = self.imap.dirty_blocks().into_iter().collect();
        for &ino in &dirty_inos {
            imap_blocks.insert(crate::inodemap::InodeMap::block_of(ino));
        }
        for &idx in &imap_blocks {
            groups[meta].push(Item::Imap(idx));
        }

        // Usage blocks: iterate with the layout until the set of touched
        // segments stabilises (normally one extra round at most).
        let mut usage_blocks: BTreeSet<usize> = self.usage.dirty_blocks().into_iter().collect();
        // Segments that will lose live bytes (old homes of rewritten
        // blocks) are known before layout.
        for &(ino, bno) in &dirty_data {
            let old = self.block_ptr(ino, bno)?;
            if old != NIL_ADDR {
                if let Some(seg) = self.sb.seg_of(old) {
                    usage_blocks.insert(crate::usage::UsageTable::block_of(seg));
                }
            }
        }
        for &(seg, _) in &self.write_points {
            usage_blocks.insert(crate::usage::UsageTable::block_of(seg));
        }

        // Usage items are appended in place (to the metadata group) and
        // truncated off again when the layout touches new segments — no
        // per-round clone of the whole item list (which holds dirlog
        // payloads and inode groups).
        let base_meta = groups[meta].len();
        let plan = loop {
            for &idx in &usage_blocks {
                groups[meta].push(Item::Usage(idx));
            }
            let counts: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            let plan = {
                let mut plan = self.layout(&counts);
                // Out of clean segments: let the cleaner regenerate some
                // (it has a reserved allocation pool precisely so it can
                // still run now), then retry. Several rounds may be
                // needed when space is very tight.
                let mut rounds = 0;
                while matches!(plan, Err(FsError::NoSpace)) && !self.cleaning && rounds < 4 {
                    self.cleaning = true;
                    let res = self.clean_for_space();
                    self.cleaning = false;
                    res?;
                    plan = self.layout(&counts);
                    rounds += 1;
                }
                plan?
            };
            let mut grew = false;
            for c in &plan.chunks {
                if usage_blocks.insert(crate::usage::UsageTable::block_of(c.seg)) {
                    grew = true;
                }
            }
            if !grew {
                break plan;
            }
            groups[meta].truncate(base_meta);
        };
        // Flatten into the single write-order list: stream 0 (hottest)
        // first, the metadata group last so inodes take the highest
        // sequence numbers of the batch. The layout above consumed
        // per-group counts in the same order, so chunk `i` covers
        // exactly the next `n_items` of this list.
        let items: Vec<Item> = groups.into_iter().flatten().collect();

        // ---- commit segment allocation -----------------------------------
        for &seg in &plan.allocated {
            self.usage.set_state(seg, SegState::Active);
        }

        // ---- assign addresses -------------------------------------------
        let mut addrs: Vec<DiskAddr> = Vec::with_capacity(items.len());
        for c in &plan.chunks {
            let base = self.sb.seg_start(c.seg) + c.off as u64;
            for i in 0..c.n_items {
                addrs.push(base + 1 + i as u64);
            }
        }
        debug_assert_eq!(addrs.len(), items.len());

        // ---- apply pointer and accounting updates -------------------------
        let now = self.clock;
        let by_cleaner = self.cleaning;
        for (item, &addr) in items.iter().zip(&addrs) {
            let seg = self.sb.seg_of(addr).expect("log write outside segments");
            match item {
                Item::DirLog(_) => {}
                Item::Data { ino, bno } => {
                    // Per-block modification time (the §3.6 refinement):
                    // segment ages reflect the blocks actually in them,
                    // not the owning file's latest touch.
                    let mtime = self
                        .blocks
                        .get(&(*ino, *bno))
                        .map(|b| b.mtime)
                        .unwrap_or(now);
                    let old = self.set_block_ptr(*ino, *bno, addr)?;
                    if old != NIL_ADDR {
                        if let Some(s) = self.sb.seg_of(old) {
                            self.usage.sub_live(s, BLOCK_SIZE as u32);
                        }
                    }
                    self.usage.add_live(seg, BLOCK_SIZE as u32, mtime);
                }
                Item::Ind { ino, key } => {
                    // Update the parent pointer.
                    match key {
                        IndKey::Single(0) => {
                            self.inode_mut(*ino)?.indirect = addr;
                        }
                        IndKey::Single(k) => {
                            let d = self
                                .inds
                                .get_mut(&(*ino, IndKey::Double))
                                .expect("double-indirect missing for child update");
                            d.blk.ptrs[(*k - 1) as usize] = addr;
                            set_dirty(&mut d.dirty, &mut self.dirty_ind_count);
                        }
                        IndKey::Double => {
                            self.inode_mut(*ino)?.dindirect = addr;
                        }
                    }
                    let e = self.inds.get_mut(&(*ino, *key)).unwrap();
                    let old = e.disk_addr;
                    e.disk_addr = addr;
                    if old != NIL_ADDR {
                        if let Some(s) = self.sb.seg_of(old) {
                            self.usage.sub_live(s, BLOCK_SIZE as u32);
                        }
                    }
                    self.usage.add_live(seg, BLOCK_SIZE as u32, now);
                }
                Item::InodeBlk { inos } => {
                    for (slot, &ino) in inos.iter().enumerate() {
                        let old = *self.imap.get(ino)?;
                        if old.is_live() {
                            if let Some(s) = self.sb.seg_of(old.addr) {
                                self.usage.sub_live(s, INODE_DISK_SIZE as u32);
                            }
                        }
                        self.imap.set_location(ino, addr, slot as u8);
                        self.usage.add_live(seg, INODE_DISK_SIZE as u32, now);
                    }
                }
                Item::Imap(idx) => {
                    let old = self.imap.block_addr(*idx);
                    if old != NIL_ADDR {
                        if let Some(s) = self.sb.seg_of(old) {
                            self.usage.sub_live_quiet(s, BLOCK_SIZE as u32);
                        }
                    }
                    self.usage.add_live_quiet(seg, BLOCK_SIZE as u32, now);
                    self.imap.block_written(*idx, addr);
                }
                Item::Usage(idx) => {
                    let old = self.usage.block_addr(*idx);
                    if old != NIL_ADDR {
                        if let Some(s) = self.sb.seg_of(old) {
                            self.usage.sub_live_quiet(s, BLOCK_SIZE as u32);
                        }
                    }
                    self.usage.add_live_quiet(seg, BLOCK_SIZE as u32, now);
                    // `block_written` runs during serialization below so
                    // the dirty bit survives until the content snapshot.
                }
            }
        }

        // ---- seal segments the layout moved past --------------------------
        // (Sealing before serialization so the usage blocks carry the
        // final states.) A segment is sealed when the log head leaves it,
        // or when it has no room left for another partial write (a chunk
        // needs a summary plus at least one block).
        {
            let mut seq = self.write_seq;
            let mut seg_last_seq: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for c in &plan.chunks {
                seq += 1;
                seg_last_seq.insert(c.seg, seq);
            }
            // Each touched segment belongs to exactly one cursor: the one
            // that was parked on it before the flush, or the one the plan
            // advanced onto it. (With a single stream the owner is always
            // the segment's shard cursor — the historical lookup.)
            let mut owner: std::collections::BTreeMap<u32, usize> =
                std::collections::BTreeMap::new();
            for (c, &(seg, _)) in self.write_points.iter().enumerate() {
                owner.insert(seg, c);
            }
            for c in &plan.chunks {
                owner.insert(c.seg, c.cursor);
            }
            let mut touched: BTreeSet<u32> = seg_last_seq.keys().copied().collect();
            for &(seg, _) in &self.write_points {
                touched.insert(seg);
            }
            for seg in touched {
                let cur = owner[&seg];
                let (end_seg, end_off) = plan.end_wps[cur];
                let is_end = seg == end_seg;
                let end_full = end_off + 1 >= self.sb.seg_blocks;
                if !is_end || end_full {
                    self.usage.set_state(seg, SegState::Dirty);
                    let s = seg_last_seq.get(&seg).copied().unwrap_or(self.write_seq);
                    self.usage.set_seal_seq(seg, s);
                }
            }
        }

        // ---- serialize and write ------------------------------------------
        let mut item_idx = 0usize;
        let mut seq = self.write_seq;
        let time = self.clock;
        let mut written = Flush::idle();
        for c in &plan.chunks {
            seq += 1;
            let chunk_items = &items[item_idx..item_idx + c.n_items];
            let chunk_addrs = &addrs[item_idx..item_idx + c.n_items];
            let start = self.sb.seg_start(c.seg) + c.off as u64;
            written =
                self.write_chunk_gather(chunk_items, chunk_addrs, start, seq, time, by_cleaner)?;
            if !by_cleaner {
                self.bytes_since_checkpoint += ((1 + c.n_items) * BLOCK_SIZE) as u64;
            }
            self.stats.partial_writes += 1;
            self.stats.add_stream_bytes(
                c.cursor / self.nshards,
                ((1 + c.n_items) * BLOCK_SIZE) as u64,
            );
            self.emit(|| lfs_obs::TraceEvent::SegmentWrite {
                seg: c.seg,
                blocks: c.n_items as u32 + 1, // items + the summary block
                by_cleaner,
            });
            item_idx += c.n_items;
        }
        self.write_seq = seq;
        self.write_points = plan.end_wps;

        // ---- clear dirty state --------------------------------------------
        for (ino, bno) in std::mem::take(&mut self.dirty_blocks) {
            if let Some(b) = self.blocks.get_mut(&(ino, bno)) {
                b.dirty = false;
            }
        }
        self.dirty_bytes = 0;
        for c in self.inodes.values_mut() {
            c.dirty = false;
        }
        self.dirty_inode_count = 0;
        for c in self.inds.values_mut() {
            c.dirty = false;
        }
        self.dirty_ind_count = 0;
        self.dirty_files.clear();
        self.dirlog_pending.clear();
        self.maybe_evict_after_flush();
        Ok(written)
    }

    /// Writes one partial-write chunk as a single gather request: data and
    /// directory-log blocks go to the device as borrowed slices straight
    /// from the cache; only genuinely synthesized blocks (the summary,
    /// inode groups, indirect/imap/usage encodes) are rendered, into the
    /// reusable scratch pool, so the host copies only what it synthesizes
    /// (`LfsStats::flush_copy_bytes`). On the simulated disk the request
    /// costs what one contiguous write of the same blocks would.
    ///
    /// On a queued device (ring capacity > 1) the chunk is *submitted*
    /// instead of written: cached data blocks ride along as `Arc` clones
    /// ([`IoBuf::Shared`], still zero-copy — a later in-place write to a
    /// block in flight copies-on-write), synthesized blocks as shared
    /// windows of a pooled scratch buffer, and the call returns without
    /// waiting for the device. The foreground only blocks again at an
    /// ordering barrier (a read, a checkpoint fence, or the ring filling
    /// up). Retries of transient apply failures belong to the ring engine
    /// on this path — re-issuing from here would reorder the log around
    /// later queued submissions — and are folded back into
    /// [`crate::LfsStats`] by [`Lfs::absorb_queue_errors`].
    #[allow(clippy::too_many_arguments)]
    fn write_chunk_gather(
        &mut self,
        items: &[Item],
        addrs: &[DiskAddr],
        start: u64,
        seq: u64,
        time: u64,
        by_cleaner: bool,
    ) -> FsResult<Flush<DataWritten>> {
        let staged = Flush::stage();
        let n = items.len();
        let need = (1 + n) * BLOCK_SIZE;
        let queued = self.dev.queue_capacity() > 1;
        // Synthesized blocks render into `scratch`: the plain reusable
        // buffer on the synchronous path, or a pooled `Arc` buffer on the
        // queued path (a pool entry is free again once its submission
        // completed and dropped the other strong reference).
        let mut owned_scratch = Vec::new();
        let mut arc_scratch = None;
        let scratch: &mut Vec<u8> = if queued {
            let arc = match self
                .scratch_pool
                .iter()
                .position(|a| std::sync::Arc::strong_count(a) == 1)
            {
                Some(i) => self.scratch_pool.swap_remove(i),
                None => std::sync::Arc::new(Vec::new()),
            };
            std::sync::Arc::make_mut(arc_scratch.insert(arc))
        } else {
            owned_scratch = std::mem::take(&mut self.scratch);
            &mut owned_scratch
        };
        if scratch.len() < need {
            scratch.resize(need, 0);
        }
        // Pass 1: render synthesized blocks into their scratch slots and
        // build the summary entries. Each entry's content checksum (the
        // torn-write detector roll-forward relies on) is computed over the
        // exact bytes the device will receive — scratch slot or borrowed
        // cache block.
        let mut entries = Vec::with_capacity(n);
        for (j, item) in items.iter().enumerate() {
            let dst = &mut scratch[(1 + j) * BLOCK_SIZE..(2 + j) * BLOCK_SIZE];
            let entry = match item {
                Item::DirLog(data) => {
                    let mut e = SummaryEntry::meta(EntryKind::DirLog, 0, time);
                    e.csum = crate::codec::block_checksum(data);
                    e
                }
                Item::Data { ino, bno } => {
                    let b = &self.blocks[&(*ino, *bno)];
                    let mut e =
                        SummaryEntry::data(*ino, *bno as u32, self.imap.version(*ino), b.mtime);
                    e.csum = crate::codec::block_checksum(&b.data);
                    e
                }
                Item::Ind { ino, key } => {
                    self.inds[&(*ino, *key)].blk.encode_into(dst);
                    self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
                    let mut e = match key {
                        IndKey::Single(k) => SummaryEntry {
                            kind: EntryKind::Indirect1,
                            ino: *ino,
                            offset: *k,
                            version: self.imap.version(*ino),
                            mtime: time,
                            csum: 0,
                        },
                        IndKey::Double => SummaryEntry {
                            kind: EntryKind::Indirect2,
                            ino: *ino,
                            offset: 0,
                            version: self.imap.version(*ino),
                            mtime: time,
                            csum: 0,
                        },
                    };
                    e.csum = crate::codec::block_checksum(dst);
                    e
                }
                Item::InodeBlk { inos } => {
                    // The pool is reused: zero the slot so a partial inode
                    // group leaves the same zero padding a fresh buffer had.
                    dst.fill(0);
                    for (slot, &ino) in inos.iter().enumerate() {
                        let inode = &self.inodes[&ino].inode;
                        inode.encode_into(
                            &mut dst[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE],
                        );
                    }
                    self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
                    let mut e = SummaryEntry::meta(EntryKind::InodeBlock, 0, time);
                    e.csum = crate::codec::block_checksum(dst);
                    e
                }
                Item::Imap(idx) => {
                    self.imap.encode_block_into(*idx, dst);
                    self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
                    let mut e = SummaryEntry::meta(EntryKind::ImapBlock, *idx as u32, time);
                    e.csum = crate::codec::block_checksum(dst);
                    e
                }
                Item::Usage(idx) => {
                    self.usage.block_written(*idx, addrs[j]);
                    self.usage.encode_block_into(*idx, dst);
                    self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
                    let mut e = SummaryEntry::meta(EntryKind::UsageBlock, *idx as u32, time);
                    e.csum = crate::codec::block_checksum(dst);
                    e
                }
            };
            self.stats
                .add_log_bytes(entry_stats_kind(item), BLOCK_SIZE as u64, by_cleaner);
            entries.push(entry);
        }
        let summary = Summary {
            epoch: self.epoch,
            seq,
            write_time: time,
            entries,
        };
        summary.encode_into(&mut scratch[..BLOCK_SIZE]);
        let sealed = staged.seal_summary();
        self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
        self.stats
            .add_log_bytes(BlockKind::Summary, BLOCK_SIZE as u64, by_cleaner);
        // Pass 2 (queued): enqueue the chunk and return without waiting.
        // The summary and synthesized blocks go as shared windows of the
        // pooled scratch `Arc`; cached data blocks as `Arc` clones of
        // their cache entries (no copy — an in-place overwrite while the
        // submission is in flight clones-on-write instead); only the
        // small, rare directory-log payloads are copied into owned
        // buffers. The pool entry goes back in the pool still pinned by
        // the in-flight submission and becomes reusable on completion.
        if let Some(arc) = arc_scratch {
            let mut bufs: Vec<IoBuf> = Vec::with_capacity(1 + n);
            bufs.push(IoBuf::shared_range(arc.clone(), 0, BLOCK_SIZE));
            for (j, item) in items.iter().enumerate() {
                match item {
                    Item::DirLog(data) => bufs.push(IoBuf::Owned(data.to_vec())),
                    Item::Data { ino, bno } => {
                        bufs.push(IoBuf::shared(self.blocks[&(*ino, *bno)].data.clone()))
                    }
                    _ => bufs.push(IoBuf::shared_range(
                        arc.clone(),
                        (1 + j) * BLOCK_SIZE,
                        BLOCK_SIZE,
                    )),
                }
            }
            self.scratch_pool.push(arc);
            self.dev
                .submit_gather(start, bufs, WriteKind::Async)
                .map_err(FsError::device)?;
            return Ok(sealed.submitted());
        }
        // Pass 2 (synchronous): hand the device the block list without
        // assembling it — scratch slots for synthesized blocks, borrowed
        // cache data for the rest. `gather_write_retry` is a free function
        // over disjoint fields precisely so these borrows can be live
        // across the write.
        let scratch_ref: &[u8] = &owned_scratch;
        let mut bufs: Vec<&[u8]> = Vec::with_capacity(1 + n);
        bufs.push(&scratch_ref[..BLOCK_SIZE]);
        for (j, item) in items.iter().enumerate() {
            match item {
                Item::DirLog(data) => bufs.push(data),
                Item::Data { ino, bno } => bufs.push(&self.blocks[&(*ino, *bno)].data),
                _ => bufs.push(&scratch_ref[(1 + j) * BLOCK_SIZE..(2 + j) * BLOCK_SIZE]),
            }
        }
        let res = gather_write_retry(
            &mut self.dev,
            &mut self.stats,
            &self.obs,
            start,
            &bufs,
            WriteKind::Async,
        );
        drop(bufs);
        self.scratch = owned_scratch;
        res.map(|()| sealed.submitted())
    }

    fn maybe_evict_after_flush(&mut self) {
        // Reuse the normal eviction policy via a no-op block touch.
        let limit = (self.cfg.cache_limit_bytes / BLOCK_SIZE as u64) as usize;
        if self.blocks.len() <= limit {
            return;
        }
        let mut clean: Vec<((Ino, u64), u64)> = self
            .blocks
            .iter()
            // Pinned blocks (payload `Arc` shared with a reader snapshot
            // or an in-flight submission) stay; see `Lfs::maybe_evict_except`.
            .filter(|(_, b)| !b.dirty && !b.pinned())
            .map(|(&k, b)| (k, b.lru))
            .collect();
        // Only the `excess` least-recently-used clean blocks leave the
        // cache; a selection partition finds them in O(n) instead of
        // paying for a full sort of every clean entry.
        let excess = self.blocks.len() - limit;
        if clean.len() > excess {
            clean.select_nth_unstable_by_key(excess - 1, |&(_, lru)| lru);
            clean.truncate(excess);
        }
        for (k, _) in clean {
            self.blocks.remove(&k);
        }
    }

    /// Computes chunk placement for the per-group item counts in
    /// `counts` (one entry per temperature stream, hot first; with
    /// several streams a trailing metadata group that targets the hot
    /// stream's cursors) without mutating anything.
    ///
    /// Chunks rotate across shards: the chunk that will carry sequence
    /// number `s` prefers the write points of shard `s % nshards`,
    /// falling back to the next shards in wrap order only when the
    /// primary shard has neither head room nor a clean segment left.
    /// Recovery's fast path depends on this: if a shard's write point
    /// had room for another chunk, the chunk whose sequence maps to that
    /// shard *must* be there. Within a shard a chunk prefers its own
    /// stream's cursor and falls back to the other streams' cursors on
    /// that shard before trying the next shard — temperature is a
    /// placement *hint*; space is a guarantee. On a single volume with a
    /// single stream the rotation is the identity and the placement is
    /// exactly the historical single-write-point layout.
    fn layout(&self, counts: &[usize]) -> FsResult<LayoutPlan> {
        let seg_blocks = self.sb.seg_blocks;
        let nsh = self.nshards;
        let nstr = self.stream_count();
        let mut chunks = Vec::new();
        let mut allocated = Vec::new();
        let mut wps = self.write_points.clone();
        // Clean segments available for allocation, in index order, pooled
        // per shard and shared by that shard's stream cursors. Normal
        // writes must leave a couple of segments *per shard* for the
        // cleaner, which needs somewhere to copy live data even when the
        // log is full — without this reserve the file system can wedge
        // with free space it cannot reach.
        let mut avail: Vec<Vec<u32>> = vec![Vec::new(); nsh];
        for s in self.usage.clean_segs() {
            if !self.is_write_point_seg(s) {
                avail[self.shard_of_seg(s)].push(s);
            }
        }
        // Normal writes leave segments for the cleaner; the cleaner's own
        // relocations and a checkpoint's settle writes may use everything
        // (the selection budget guarantees they fit, and completing them
        // is what regenerates free space).
        let reserve = if self.cleaning || self.settling {
            0
        } else {
            CLEANER_RESERVE_SEGS
        };
        for pool in &mut avail {
            let keep = pool.len().saturating_sub(reserve);
            pool.truncate(keep);
            pool.reverse(); // Pop from the low end.
        }
        let mut ordinal = 0u64;
        for (g, &count) in counts.iter().enumerate() {
            // The metadata group (index `nstr`, present only with
            // several streams) targets the hot stream's cursors.
            let t = if g < nstr { g } else { 0 };
            let mut remaining = count;
            while remaining > 0 {
                let primary = ((self.write_seq + 1 + ordinal) % nsh as u64) as usize;
                let mut placed = false;
                'rows: for r in 0..nstr {
                    let row = (t + r) % nstr;
                    for k in 0..nsh {
                        let sh = (primary + k) % nsh;
                        let cur = self.cursor_index(row, sh);
                        loop {
                            let (seg, off) = wps[cur];
                            let space = seg_blocks.saturating_sub(off) as usize;
                            if space < 2 {
                                // No room for a summary plus at least one
                                // block.
                                match avail[sh].pop() {
                                    Some(s) => {
                                        allocated.push(s);
                                        wps[cur] = (s, 0);
                                        continue;
                                    }
                                    None => break, // next cursor
                                }
                            }
                            let take = remaining.min(space - 1).min(MAX_SUMMARY_ENTRIES);
                            chunks.push(ChunkPlan {
                                seg,
                                off,
                                n_items: take,
                                cursor: cur,
                            });
                            wps[cur] = (seg, off + 1 + take as u32);
                            remaining -= take;
                            placed = true;
                            break 'rows;
                        }
                    }
                }
                if !placed {
                    return Err(FsError::NoSpace);
                }
                ordinal += 1;
            }
        }
        Ok(LayoutPlan {
            chunks,
            allocated,
            end_wps: wps,
        })
    }

    /// Writes a checkpoint: flushes everything, lets the metadata settle,
    /// promotes cleaned segments, and writes the alternate checkpoint
    /// region (§4.1).
    pub fn checkpoint(&mut self) -> FsResult<()> {
        if self.nsop_depth > 0 {
            // A namespace operation is mid-flight: its directory-log
            // record is (or will be) in the log, but the matching
            // directory/inode mutations may be half-applied. A checkpoint
            // now would declare that intermediate state complete and bury
            // the repair record where roll-forward never replays it — so
            // only flush, and let the operation's own `after_mutation`
            // write the real checkpoint.
            return self.flush();
        }
        self.timed(|o| &o.checkpoint, |fs| fs.checkpoint_inner())
    }

    fn checkpoint_inner(&mut self) -> FsResult<()> {
        // Group commit: when nothing has reached the log since the last
        // checkpoint and *both* regions already record `write_seq` (see
        // `cp_seqs` — `format` writes the regions one at a time), there
        // is nothing to make durable. Concurrent `sync` callers amortize
        // into the one checkpoint already on disk: one log append + one
        // checkpoint barrier serves them all (§4.1's cost argument).
        if !self.needs_flush()
            && self.checkpoint_seq == self.write_seq
            && self.bytes_since_checkpoint == 0
            && self.cp_seqs[0] == Some(self.write_seq)
            && self.cp_seqs[1] == Some(self.write_seq)
        {
            self.stats.group_commits += 1;
            return Ok(());
        }
        // Every flush hands back the ordering token of its last chunk;
        // the settle loop keeps only the newest one, which is all the
        // fence below needs — a barrier drains *everything* in flight.
        let written = self.flush_tokened()?;
        // Let the inode map and usage table reach the log; their own
        // relocations are accounted quietly, so this settles quickly.
        // Settle writes may dip into the cleaner's reserve — finishing
        // this checkpoint is what turns pending segments clean again.
        self.settling = true;
        let settle = (|mut written: Flush<DataWritten>| -> FsResult<Flush<DataWritten>> {
            for _ in 0..4 {
                if !self.imap.has_dirty() && !self.usage.has_dirty() {
                    break;
                }
                written = self.flush_tokened()?;
            }
            Ok(written)
        })(written);
        self.settling = false;
        let written = settle?;
        // The heat snapshot rides only multi-stream checkpoints: a
        // single-stream image must stay byte-identical to the
        // pre-stream format, and has no routing to seed anyway.
        let heat = if self.stream_count() > 1 {
            self.heat.snapshot(self.clock, MAX_CHECKPOINT_HEAT)
        } else {
            Vec::new()
        };
        let cp = crate::checkpoint::Checkpoint {
            epoch: self.epoch,
            seq: self.write_seq,
            timestamp: self.clock,
            cur_seg: self.write_points[0].0,
            cur_off: self.write_points[0].1,
            extra_write_points: self.write_points[1..].to_vec(),
            imap_addrs: self.imap.block_addr_vec().to_vec(),
            usage_addrs: self.usage.block_addr_vec().to_vec(),
            live_bytes: self.usage.live_vec(),
            heat,
        };
        // The summary → checkpoint ordering edge: every queued log write
        // must have completed before the region claims to cover it. On a
        // synchronous device this is a no-op; on a ring it is the one
        // explicit barrier of the flush pipeline (direct reads and the
        // region writes below drain implicitly, but the edge deserves to
        // be spelled out — CrashDisk enumerates legal reorderings between
        // fences, never across them). The `written` token makes the edge
        // a type: `CheckpointReady` only exists on the far side of the
        // fence, and `write_region_ordered` will not run without it.
        let fence_res = written.fence(&mut self.dev).map_err(FsError::device);
        // Claim ring-side retry/giveup counts even when the fence itself
        // failed — a giveup *is* the fence failure, and the stats ledger
        // must reflect it on this call, not whenever the next flush runs.
        self.absorb_queue_errors();
        let ready = fence_res?;
        let region = self.sb.checkpoint_addrs()[self.next_cr];
        // Write the region payload-first, header-last (see
        // `Checkpoint::write_to`), retrying transient device errors so a
        // flaky disk does not abort the checkpoint.
        // The checkpoint image renders into the same reusable scratch
        // pool the flush path uses, so steady-state checkpoints allocate
        // nothing.
        let mut enc = std::mem::take(&mut self.scratch);
        cp.encode_into(&mut enc)?;
        let write_res = self.write_region_ordered(region, &enc, ready);
        self.scratch = enc;
        write_res?;
        let written_cr = self.next_cr;
        self.cp_seqs[written_cr] = Some(self.write_seq);
        self.next_cr = 1 - self.next_cr;
        self.checkpoint_seq = self.write_seq;
        self.bytes_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        self.emit(|| lfs_obs::TraceEvent::Checkpoint {
            seq: self.write_seq,
            region: written_cr as u8,
        });
        // Only now do the cleaned segments become allocatable: the
        // checkpoint just written covers their relocations (the cleaner's
        // flush preceded it), so even a crash right after this point
        // recovers safely. The on-disk usage table still says PendingFree
        // until the next checkpoint; `mount` promotes such segments on
        // load, which is sound for the same reason — any checkpoint that
        // recorded PendingFree was written after the relocation flush.
        self.usage.promote_pending(self.checkpoint_seq);
        Ok(())
    }

    /// The retrying flavour of [`Checkpoint::write_ordered`]: payload
    /// blocks first, header block last, each through the bounded
    /// transient-error retry, gated on the same consumed
    /// [`CheckpointReady`] proof. `enc` is the encoded region image.
    ///
    /// [`Checkpoint::write_ordered`]: crate::checkpoint::Checkpoint::write_ordered
    fn write_region_ordered(
        &mut self,
        region: DiskAddr,
        enc: &[u8],
        ready: CheckpointReady,
    ) -> FsResult<()> {
        let _proof_consumed = ready;
        if enc.len() > BLOCK_SIZE {
            self.write_retry(region + 1, &enc[BLOCK_SIZE..], WriteKind::Sync)?;
        }
        self.write_retry(region, &enc[..BLOCK_SIZE], WriteKind::Sync)
    }
}

fn entry_stats_kind(item: &Item) -> BlockKind {
    item.stats_kind()
}
