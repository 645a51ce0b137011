//! `stream`: the Figure 9 shape. Bare `Lfs` on a `VolumeSet` of two
//! `QueuedDev(4)<SimDisk>` Wren IVs, one thread. Three 16 MiB files (6× the
//! 8 MiB cache) are read back sequentially and rewritten sequentially in
//! 8 KiB calls, one file at a time, with a sync after each file. Whole
//! segments die, so the cleaner mostly reclaims empty segments.

use std::time::Duration;

use blockdev::{BlockDevice, DiskModel, QueueDevice, QueuedDev, SimDisk, VolumeSet, BLOCK_SIZE};
use lfs_core::layout::SEGMENTS_START;
use lfs_core::{Lfs, LfsConfig};
use vfs::{FileSystem, Ino};

use crate::drive;
use crate::payload::{Payload, Stamp};
use crate::report::{DevSnap, Pass, Recovery};
use crate::Workload;

type Dev = VolumeSet<QueuedDev<SimDisk>>;

const SHARDS: usize = 2;
const SHARD_BLOCKS: u64 = 64 * 256;
const RING: usize = 4;
const CACHE_BYTES: u64 = 8 << 20;
const FILES: usize = 3;
const FILE_BYTES: usize = 16 << 20;
const OP_BYTES: usize = 8 << 10;
const OPS_PER_FILE: usize = FILE_BYTES / OP_BYTES;
/// The crash cuts 3 MiB into the next file's rewrite: one flush (one
/// segment per shard) past the sync, the rest still dirty in the cache.
const CRASH_OPS: usize = (3 << 20) / OP_BYTES;

fn config() -> LfsConfig {
    LfsConfig {
        cache_limit_bytes: CACHE_BYTES,
        ..LfsConfig::default()
    }
}

fn volume(images: Option<Vec<Vec<u8>>>) -> Dev {
    let shards = match images {
        None => (0..SHARDS)
            .map(|_| QueuedDev::new(SimDisk::new(SHARD_BLOCKS, DiskModel::wren_iv()), RING))
            .collect(),
        Some(imgs) => imgs
            .into_iter()
            .map(|img| QueuedDev::new(SimDisk::from_image(img, DiskModel::wren_iv()), RING))
            .collect(),
    };
    VolumeSet::new(shards, SEGMENTS_START, config().seg_blocks as u64)
}

fn path(f: usize) -> String {
    format!("/big{f}")
}

pub struct Stack {
    fs: Lfs<Dev>,
    gen: Gen,
}

struct Gen {
    payload: Payload,
    inos: Vec<Ino>,
    /// Generation each file was last completely written (and synced) at.
    gens: Vec<u64>,
    /// Next file the window reads and rewrites.
    next: usize,
    /// File a crash interrupted mid-rewrite.
    torn: Option<usize>,
    buf: Vec<u8>,
}

impl Gen {
    /// Rewrites the first `ops` calls' worth of file `f` at the next
    /// generation. Returns whether every write succeeded.
    fn write_file<F: FileSystem>(&mut self, fs: &mut F, f: usize, ops: usize) -> bool {
        let g = self.gens[f] + 1;
        let mut ok = true;
        for op in 0..ops {
            let first = (op * OP_BYTES / BLOCK_SIZE) as u64;
            self.payload.fill(f as u64, g, first, &mut self.buf);
            ok &= fs
                .write(self.inos[f], (op * OP_BYTES) as u64, &self.buf)
                .is_ok();
        }
        ok
    }

    /// One unit of the window: read file `next` back, verifying every
    /// call, then rewrite it and sync. Returns the reads that did not
    /// verify.
    fn unit<F: FileSystem>(&mut self, fs: &mut F) -> u64 {
        let f = self.next;
        self.next = (f + 1) % FILES;
        let mut bad = 0;
        for op in 0..OPS_PER_FILE {
            let first = (op * OP_BYTES / BLOCK_SIZE) as u64;
            match fs.read(self.inos[f], (op * OP_BYTES) as u64, &mut self.buf) {
                Ok(n)
                    if n == OP_BYTES
                        && self
                            .payload
                            .matches(f as u64, self.gens[f], first, &self.buf) => {}
                Ok(_) => bad += 1,
                Err(_) => {} // counted as a failed call by the meter
            }
        }
        if self.write_file(fs, f, OPS_PER_FILE) && fs.sync().is_ok() {
            self.gens[f] += 1;
        }
        bad
    }
}

fn dev_snap(fs: &Lfs<Dev>) -> DevSnap {
    let dev = fs.device();
    DevSnap {
        io: dev.stats(),
        queue: dev.queue_stats(),
        shard_busy: dev.shards().iter().map(|s| s.stats().busy_ns).collect(),
    }
}

pub struct Stream;

impl Workload for Stream {
    type Stack = Stack;

    fn setup(seed: u64) -> Stack {
        let mut fs = Lfs::format(volume(None), config()).expect("format stream volume");
        let mut gen = Gen {
            payload: Payload::new(seed),
            inos: Vec::new(),
            gens: vec![0; FILES],
            next: 0,
            torn: None,
            buf: vec![0u8; OP_BYTES],
        };
        for f in 0..FILES {
            gen.inos
                .push(fs.create(&path(f)).expect("create stream file"));
            assert!(
                gen.write_file(&mut fs, f, OPS_PER_FILE),
                "initial write of {}",
                path(f)
            );
            fs.sync().expect("sync stream file");
            gen.gens[f] = 1;
        }
        Stack { fs, gen }
    }

    fn measure(st: &mut Stack, _seed: u64, secs: Duration, tracing: bool) -> Pass {
        let gen = &mut st.gen;
        drive::window(&mut st.fs, dev_snap, secs, tracing, |fs| gen.unit(fs))
    }

    fn crash(st: Stack) -> Recovery {
        let Stack { mut fs, mut gen } = st;
        let f = gen.next;
        gen.write_file(&mut fs, f, CRASH_OPS);
        gen.torn = Some(f);
        // The rings apply what was already submitted; what is still in the
        // cache is lost.
        let images: Vec<Vec<u8>> = fs
            .into_device()
            .into_shards()
            .into_iter()
            .map(|s| s.into_inner().image().to_vec())
            .collect();
        drive::remount(
            config(),
            || volume(Some(images.clone())),
            |fs, rec| {
                for f in 0..FILES {
                    rec.checked += 1;
                    if let Err(e) = check_file(fs, &gen, f) {
                        rec.note_bad(format!("{}: {e}", path(f)));
                    }
                }
            },
        )
    }
}

/// A synced file must read back as its last generation; the file the crash
/// interrupted may also show a prefix of blocks from the next one.
fn check_file(fs: &mut Lfs<Dev>, gen: &Gen, f: usize) -> Result<(), String> {
    let ino = fs.lookup(&path(f)).map_err(|e| e.to_string())?;
    let size = fs.metadata(ino).map_err(|e| e.to_string())?.size;
    if size != FILE_BYTES as u64 {
        return Err(format!("size {size}, want {FILE_BYTES}"));
    }
    let g = gen.gens[f];
    let mut newer_allowed = gen.torn == Some(f);
    let mut buf = vec![0u8; 1 << 20];
    for chunk in 0..FILE_BYTES / buf.len() {
        let n = fs
            .read(ino, (chunk * buf.len()) as u64, &mut buf)
            .map_err(|e| e.to_string())?;
        if n != buf.len() {
            return Err(format!("short read of {n} bytes"));
        }
        for (i, blk) in buf.chunks(BLOCK_SIZE).enumerate() {
            let block = (chunk * buf.len() / BLOCK_SIZE + i) as u64;
            let want = |version| {
                Some(Stamp {
                    owner: f as u64,
                    version,
                    block,
                })
            };
            let got = gen.payload.identify(blk);
            if newer_allowed && got == want(g + 1) {
                continue;
            }
            newer_allowed = false;
            if got != want(g) {
                return Err(format!("block {block} is {got:?}, want generation {g}"));
            }
        }
    }
    Ok(())
}
