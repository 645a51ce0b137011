//! `churn`: the Table 2 regime. Bare `Lfs<SimDisk>` on a ~128 MiB Wren IV
//! with a 16 MiB cache. A key population fills ~62 % of the disk; the
//! window interleaves Zipf (θ = 0.9) whole-value overwrites with verified
//! Zipf point reads, syncing every 64 writes. The cleaner does most of
//! the work.

use std::time::Duration;

use blockdev::{BlockDevice, DiskModel, QueueDevice, SimDisk, BLOCK_SIZE};
use lfs_core::{Lfs, LfsConfig};
use rand::rngs::StdRng;
use rand::Rng;
use vfs::{FileSystem, Ino};
use workload::kv::Zipf;

use crate::drive;
use crate::payload::Payload;
use crate::report::{DevSnap, Pass, Recovery};
use crate::Workload;

const DISK_BLOCKS: u64 = 128 * 256;
const CACHE_BYTES: u64 = 16 << 20;
/// Share of the disk's blocks the key population occupies.
const FILL: f64 = 0.62;
/// Value lengths are uniform over this range in 512-byte steps (mean 8 KiB).
const LEN_MIN: usize = 4096;
const LEN_MAX: usize = 12288;
const THETA: f64 = 0.9;
const SYNC_EVERY: u32 = 64;
/// The crash cuts this many writes after the last sync.
const CRASH_AFTER: u32 = SYNC_EVERY / 2;

fn config() -> LfsConfig {
    LfsConfig {
        cache_limit_bytes: CACHE_BYTES,
        ..LfsConfig::default()
    }
}

struct Key {
    ino: Ino,
    len: usize,
    /// Version the last completed sync made durable.
    synced: u64,
    /// Version of the last acknowledged write.
    current: u64,
}

pub struct Stack {
    fs: Lfs<SimDisk>,
    gen: Gen,
}

/// The generated operation stream and what it expects to read back.
struct Gen {
    keys: Vec<Key>,
    payload: Payload,
    rng: StdRng,
    zipf: Zipf,
    write_perm: (u64, u64),
    read_perm: (u64, u64),
    buf: Vec<u8>,
    writes_since_sync: u32,
    touched: Vec<usize>,
    step: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A random affine permutation of `0..n`, so popularity rank and key
/// number are unrelated (and differ between writes and reads).
fn permutation(rng: &mut StdRng, n: u64) -> (u64, u64) {
    loop {
        let a = rng.gen_range(1..n) | 1;
        if gcd(a, n) == 1 {
            return (a, rng.gen_range(0..n));
        }
    }
}

fn path(k: usize) -> String {
    format!("/kv/{k:05}")
}

impl Gen {
    fn pick(&mut self, perm: (u64, u64)) -> usize {
        let n = self.keys.len() as u64;
        let rank = self.zipf.sample(self.rng.gen_range(0.0..1.0));
        ((rank * perm.0 + perm.1) % n) as usize
    }

    /// One generated operation: even steps overwrite a key, odd steps read
    /// one back and verify it. Returns false when a read did not verify.
    fn step<F: FileSystem>(&mut self, fs: &mut F) -> bool {
        self.step += 1;
        if self.step.is_multiple_of(2) {
            let k = self.pick(self.write_perm);
            let key = &self.keys[k];
            let (ino, len, version) = (key.ino, key.len, key.current + 1);
            self.payload
                .fill(k as u64, version, 0, &mut self.buf[..len]);
            if fs.write(ino, 0, &self.buf[..len]).is_ok() {
                self.keys[k].current = version;
                self.touched.push(k);
            }
            self.writes_since_sync += 1;
            if self.writes_since_sync == SYNC_EVERY {
                if fs.sync().is_ok() {
                    for k in self.touched.drain(..) {
                        self.keys[k].synced = self.keys[k].current;
                    }
                }
                self.writes_since_sync = 0;
            }
            true
        } else {
            let k = self.pick(self.read_perm);
            let key = &self.keys[k];
            let (ino, len, version) = (key.ino, key.len, key.current);
            match fs.read(ino, 0, &mut self.buf[..len]) {
                Ok(n) => n == len && self.payload.matches(k as u64, version, 0, &self.buf[..len]),
                Err(_) => true, // counted as a failed call by the meter
            }
        }
    }
}

fn dev_snap(fs: &Lfs<SimDisk>) -> DevSnap {
    let io = fs.device().stats();
    DevSnap {
        io,
        queue: fs.device().queue_stats(),
        shard_busy: vec![io.busy_ns],
    }
}

pub struct Churn;

impl Workload for Churn {
    type Stack = Stack;

    fn setup(seed: u64) -> Stack {
        let dev = SimDisk::new(DISK_BLOCKS, DiskModel::wren_iv());
        let mut fs = Lfs::format(dev, config()).expect("format churn disk");
        let mut rng = workload::rng(seed);
        let payload = Payload::new(seed);
        fs.mkdir("/kv").expect("mkdir /kv");
        let target = (DISK_BLOCKS as f64 * FILL) as usize;
        let mut keys = Vec::new();
        let mut blocks = 0;
        let mut buf = vec![0u8; LEN_MAX];
        while blocks < target {
            let len = LEN_MIN + 512 * rng.gen_range(0..(LEN_MAX - LEN_MIN) / 512 + 1);
            let k = keys.len();
            let ino = fs.create(&path(k)).expect("create key");
            payload.fill(k as u64, 0, 0, &mut buf[..len]);
            fs.write(ino, 0, &buf[..len]).expect("write initial value");
            blocks += len.div_ceil(BLOCK_SIZE);
            keys.push(Key {
                ino,
                len,
                synced: 0,
                current: 0,
            });
        }
        fs.sync().expect("sync initial values");
        let n = keys.len() as u64;
        let write_perm = permutation(&mut rng, n);
        let read_perm = permutation(&mut rng, n);
        Stack {
            fs,
            gen: Gen {
                keys,
                payload,
                rng,
                zipf: Zipf::new(n, THETA),
                write_perm,
                read_perm,
                buf,
                writes_since_sync: 0,
                touched: Vec::new(),
                step: 0,
            },
        }
    }

    fn measure(st: &mut Stack, _seed: u64, secs: Duration, tracing: bool) -> Pass {
        let gen = &mut st.gen;
        drive::window(&mut st.fs, dev_snap, secs, tracing, |fs| {
            u64::from(!gen.step(fs))
        })
    }

    fn crash(st: Stack) -> Recovery {
        let Stack { mut fs, mut gen } = st;
        // Run on, unmeasured, to a fixed distance past the last sync.
        while gen.writes_since_sync != CRASH_AFTER {
            gen.step(&mut fs);
        }
        let image = fs.into_device().image().to_vec();
        drive::remount(
            config(),
            || SimDisk::from_image(image.clone(), DiskModel::wren_iv()),
            |fs, rec| check(fs, &gen, rec),
        )
    }
}

/// Every key must read back as one whole version between the last synced
/// one and the last acknowledged one.
fn check(fs: &mut Lfs<SimDisk>, st: &Gen, rec: &mut Recovery) {
    let mut buf = vec![0u8; LEN_MAX + 1];
    for (k, key) in st.keys.iter().enumerate() {
        rec.checked += 1;
        let got = fs
            .lookup(&path(k))
            .and_then(|ino| fs.read(ino, 0, &mut buf));
        let n = match got {
            Ok(n) => n,
            Err(e) => {
                rec.note_bad(format!("key {k}: {e}"));
                continue;
            }
        };
        let version = st
            .payload
            .identify(&buf[..n.min(BLOCK_SIZE)])
            .map(|s| s.version);
        let ok = n == key.len
            && version.is_some_and(|v| {
                (key.synced..=key.current).contains(&v)
                    && st.payload.matches(k as u64, v, 0, &buf[..n])
            });
        if !ok {
            rec.note_bad(format!(
                "key {k}: {n} of {} bytes, version {version:?}, want {}..={}",
                key.len, key.synced, key.current
            ));
        }
    }
}
