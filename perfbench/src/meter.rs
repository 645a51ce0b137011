//! Call metering from outside the program: a [`FileSystem`] wrapper that
//! times every call, keeps latency samples, and — when tracing — records
//! one span per call and charges it to exactly one ledger bucket.
//!
//! The bucket of a call is decided from public counters read just before
//! and just after it (see [`Snap`]): `cleaner` if a cleaning pass ran
//! during the call, else `checkpoint` if a checkpoint was written, else
//! `flush` if log bytes moved, else the call's own `fs.<op>` bucket.

use std::time::Instant;

use vfs::{DirEntry, FileSystem, FsResult, Ino, Metadata, StatFs};

/// The file-system calls the benchmark distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Create,
    Lookup,
    Read,
    Write,
    Truncate,
    Unlink,
    Sync,
    Mkdir,
    Other,
}

/// Number of [`Op`] variants.
pub const NOPS: usize = 9;

impl Op {
    /// All ops, in index order.
    pub const ALL: [Op; NOPS] = [
        Op::Create,
        Op::Lookup,
        Op::Read,
        Op::Write,
        Op::Truncate,
        Op::Unlink,
        Op::Sync,
        Op::Mkdir,
        Op::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Lookup => "lookup",
            Op::Read => "read",
            Op::Write => "write",
            Op::Truncate => "truncate",
            Op::Unlink => "unlink",
            Op::Sync => "sync",
            Op::Mkdir => "mkdir",
            Op::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Public counters that decide a traced call's ledger bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snap {
    /// `LfsStats::cleaner.passes`.
    pub passes: u64,
    /// `LfsStats::checkpoints`.
    pub checkpoints: u64,
    /// `LfsStats::total_log_bytes()`.
    pub log_bytes: u64,
}

impl Snap {
    pub fn of(s: &lfs_core::LfsStats) -> Snap {
        Snap {
            passes: s.cleaner.passes,
            checkpoints: s.checkpoints,
            log_bytes: s.total_log_bytes(),
        }
    }
}

/// Reads a [`Snap`] for the stack under a meter.
pub type Probe<F> = Box<dyn FnMut(&mut F) -> Snap + Send>;

/// Where the ledger charges a traced call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    Cleaner,
    Checkpoint,
    Flush,
    Fs(Op),
}

impl Bucket {
    fn classify(op: Op, before: Snap, after: Snap) -> Bucket {
        if after.passes != before.passes {
            Bucket::Cleaner
        } else if after.checkpoints != before.checkpoints {
            Bucket::Checkpoint
        } else if after.log_bytes != before.log_bytes {
            Bucket::Flush
        } else {
            Bucket::Fs(op)
        }
    }

    fn code(self) -> u8 {
        match self {
            Bucket::Cleaner => 0,
            Bucket::Checkpoint => 1,
            Bucket::Flush => 2,
            Bucket::Fs(op) => 3 + op.index() as u8,
        }
    }

    fn code_name(code: u8) -> String {
        match code {
            0 => "cleaner".into(),
            1 => "checkpoint".into(),
            2 => "flush".into(),
            255 => "-".into(),
            c => format!("fs.{}", Op::ALL[(c - 3) as usize].name()),
        }
    }
}

/// One traced interval. `name` is an [`Op`] index, or [`STEP`] for a
/// client step the benchmark itself opened.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: u8,
    pub bucket: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span name code of a benchmark-level client step.
pub const STEP: u8 = 254;

/// Host time charged per ledger bucket.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub cleaner_ns: u64,
    pub checkpoint_ns: u64,
    pub flush_ns: u64,
    pub fs_ns: [u64; NOPS],
    pub fs_calls: [u64; NOPS],
}

impl Ledger {
    fn charge(&mut self, b: Bucket, ns: u64) {
        match b {
            Bucket::Cleaner => self.cleaner_ns += ns,
            Bucket::Checkpoint => self.checkpoint_ns += ns,
            Bucket::Flush => self.flush_ns += ns,
            Bucket::Fs(op) => {
                self.fs_ns[op.index()] += ns;
                self.fs_calls[op.index()] += 1;
            }
        }
    }

    /// Time charged to any bucket (everything except `bench.gen_ns`).
    pub fn charged_ns(&self) -> u64 {
        self.cleaner_ns + self.checkpoint_ns + self.flush_ns + self.fs_ns.iter().sum::<u64>()
    }

    fn merge(&mut self, o: &Ledger) {
        self.cleaner_ns += o.cleaner_ns;
        self.checkpoint_ns += o.checkpoint_ns;
        self.flush_ns += o.flush_ns;
        for i in 0..NOPS {
            self.fs_ns[i] += o.fs_ns[i];
            self.fs_calls[i] += o.fs_calls[i];
        }
    }
}

/// Length of the time slices throughput is counted in.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Work completed in one time slice (by the end time of each call).
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    pub calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
}

/// Everything one meter (one client thread) measured.
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    /// Calls per op.
    pub calls: [u64; NOPS],
    /// Host ns spent inside calls, per op.
    pub ns: [u64; NOPS],
    /// Latency samples (ns) of read, write and sync calls.
    pub lat_read: Vec<u64>,
    pub lat_write: Vec<u64>,
    pub lat_sync: Vec<u64>,
    /// User bytes returned by reads / accepted by writes.
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Work per [`SLICE_NS`] slice since the epoch.
    pub slices: Vec<Slice>,
    tracing: bool,
    pub spans: Vec<Span>,
    next_id: u32,
    parent: u32,
    req: u32,
    pub ledger: Ledger,
}

impl Recorder {
    /// A recorder whose span times count from `epoch`. `thread` keeps span
    /// ids of concurrent recorders distinct.
    pub fn new(epoch: Instant, thread: u32, tracing: bool) -> Recorder {
        Recorder {
            epoch,
            thread,
            calls: [0; NOPS],
            ns: [0; NOPS],
            lat_read: Vec::new(),
            lat_write: Vec::new(),
            lat_sync: Vec::new(),
            read_bytes: 0,
            write_bytes: 0,
            failed: 0,
            slices: Vec::new(),
            tracing,
            spans: Vec::new(),
            next_id: 0,
            parent: 0,
            req: 0,
            ledger: Ledger::default(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn mint(&mut self) -> u32 {
        self.next_id += 1;
        (self.thread << 24) | (self.next_id & 0x00FF_FFFF)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a client-step span for request stream `req`; calls made until
    /// [`Recorder::end_step`] become its children.
    pub fn begin_step(&mut self, req: u32) -> Option<(u32, Instant)> {
        if !self.tracing {
            return None;
        }
        let id = self.mint();
        self.parent = id;
        self.req = req;
        Some((id, Instant::now()))
    }

    pub fn end_step(&mut self, token: Option<(u32, Instant)>) {
        let Some((id, start)) = token else { return };
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent: 0,
            req: self.req,
            name: STEP,
            bucket: 255,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        self.parent = 0;
    }

    /// Accounts one call from `t0` to `t1`; `bytes` is the user bytes it
    /// moved, or `None` when it failed. `snaps` are the probe's counters
    /// around a traced call.
    fn record(
        &mut self,
        op: Op,
        t0: Instant,
        t1: Instant,
        bytes: Option<usize>,
        snaps: Option<(Snap, Snap)>,
    ) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        let i = op.index();
        self.calls[i] += 1;
        self.ns[i] += ns;
        let slot = (self.since_epoch(t1) / SLICE_NS) as usize;
        if self.slices.len() <= slot {
            self.slices.resize(slot + 1, Slice::default());
        }
        let slice = &mut self.slices[slot];
        slice.calls += 1;
        let bytes = match bytes {
            Some(b) => b as u64,
            None => {
                self.failed += 1;
                0
            }
        };
        match op {
            Op::Read => {
                self.lat_read.push(ns);
                self.read_bytes += bytes;
                slice.read_bytes += bytes;
                slice.read_ns += ns;
            }
            Op::Write => {
                self.lat_write.push(ns);
                self.write_bytes += bytes;
                slice.write_bytes += bytes;
                slice.write_ns += ns;
            }
            Op::Sync => self.lat_sync.push(ns),
            _ => {}
        }
        if let Some((before, after)) = snaps {
            let bucket = Bucket::classify(op, before, after);
            self.ledger.charge(bucket, ns);
            let id = self.mint();
            self.spans.push(Span {
                id,
                parent: self.parent,
                req: self.req,
                name: i as u8,
                bucket: bucket.code(),
                start_ns: self.since_epoch(t0),
                end_ns: self.since_epoch(t1),
            });
        }
    }

    /// Total calls of every op.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn ns_of(&self, op: Op) -> u64 {
        self.ns[op.index()]
    }

    /// Total host ns spent inside calls.
    pub fn call_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, mut o: Recorder) {
        for i in 0..NOPS {
            self.calls[i] += o.calls[i];
            self.ns[i] += o.ns[i];
        }
        self.lat_read.append(&mut o.lat_read);
        self.lat_write.append(&mut o.lat_write);
        self.lat_sync.append(&mut o.lat_sync);
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
        self.failed += o.failed;
        if self.slices.len() < o.slices.len() {
            self.slices.resize(o.slices.len(), Slice::default());
        }
        for (a, b) in self.slices.iter_mut().zip(&o.slices) {
            a.calls += b.calls;
            a.read_bytes += b.read_bytes;
            a.read_ns += b.read_ns;
            a.write_bytes += b.write_bytes;
            a.write_ns += b.write_ns;
        }
        self.spans.append(&mut o.spans);
        self.ledger.merge(&o.ledger);
    }

    /// Writes the spans as CSV (`id,parent,req,name,bucket,start_ns,end_ns`).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,name,bucket,start_ns,end_ns")?;
        for s in &self.spans {
            let name = if s.name == STEP {
                "step"
            } else {
                Op::ALL[s.name as usize].name()
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.req,
                name,
                Bucket::code_name(s.bucket),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A [`FileSystem`] that forwards to `fs` and meters every call.
pub struct Meter<'a, F> {
    fs: &'a mut F,
    pub rec: Recorder,
    probe: Option<Probe<F>>,
}

impl<'a, F: FileSystem> Meter<'a, F> {
    /// Meters `fs`. With a probe (required when `rec` traces) every call
    /// is also charged to a ledger bucket.
    pub fn new(fs: &'a mut F, rec: Recorder, probe: Option<Probe<F>>) -> Meter<'a, F> {
        let probe = if rec.tracing() { probe } else { None };
        Meter { fs, rec, probe }
    }

    /// Times `f`; `bytes` says how many user bytes a successful result
    /// moved.
    fn call<R>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut F) -> FsResult<R>,
        bytes: impl FnOnce(&R) -> usize,
    ) -> FsResult<R> {
        let before = self.probe.as_mut().map(|p| p(self.fs));
        let t0 = Instant::now();
        let r = f(self.fs);
        let t1 = Instant::now();
        let snaps = match (before, self.probe.as_mut()) {
            (Some(b), Some(p)) => Some((b, p(self.fs))),
            _ => None,
        };
        self.rec
            .record(op, t0, t1, r.as_ref().ok().map(bytes), snaps);
        r
    }
}

impl<F: FileSystem> FileSystem for Meter<'_, F> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.call(Op::Create, |fs| fs.create(path), |_| 0)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.call(Op::Mkdir, |fs| fs.mkdir(path), |_| 0)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.call(Op::Lookup, |fs| fs.lookup(path), |_| 0)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.call(Op::Write, |fs| fs.write(ino, offset, data), |_| data.len())
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.call(Op::Read, |fs| fs.read(ino, offset, buf), |&n| n)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.call(Op::Truncate, |fs| fs.truncate(ino, size), |_| 0)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.call(Op::Unlink, |fs| fs.unlink(path), |_| 0)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.call(Op::Other, |fs| fs.rmdir(path), |_| 0)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.call(Op::Other, |fs| fs.rename(from, to), |_| 0)
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.call(Op::Other, |fs| fs.link(existing, new), |_| 0)
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.call(Op::Other, |fs| fs.metadata(ino), |_| 0)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.call(Op::Other, |fs| fs.readdir(path), |_| 0)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.call(Op::Sync, |fs| fs.sync(), |_| 0)
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        self.call(Op::Other, |fs| fs.statfs(), |_| 0)
    }
}
