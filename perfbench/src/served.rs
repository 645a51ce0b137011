//! `served`: the deployment path. `Client` → lfs-wire → pool →
//! `SharedLfs` → `Lfs` → `QueuedDev(4)` → `SimDisk`. One connection per
//! host CPU (at most two) runs a closed loop that steps its share of 300
//! simulated office clients (`ClientMix::mixed()`, ~1.5 KiB files) in
//! rotation and syncs every 24 steps. Live data stays well under the
//! 64 MiB cache and the 128 MiB disk is mostly empty.

use std::thread;
use std::time::{Duration, Instant};

use blockdev::{BlockDevice, DiskModel, QueueDevice, QueuedDev, SimDisk};
use lfs_core::{LfsConfig, SharedLfs};
use lfs_server::{serve, Client, ServerConfig, ServerHandle};
use vfs::FileSystem;
use workload::clients::{ClientMix, ClientSim};

use crate::drive;
use crate::meter::{Meter, Probe, Recorder, Snap};
use crate::report::{DevSnap, LayerExtra, LfsSnap, Pass, Recovery};
use crate::shadow::{Shadow, Shadowed};
use crate::Workload;

type Dev = QueuedDev<SimDisk>;

const DISK_BLOCKS: u64 = 128 * 256;
const RING: usize = 4;
const MAX_CONNS: usize = 2;
/// Simulated clients, split round-robin over the connections.
const CLIENTS: usize = 300;
const MEAN_LEN: usize = 1536;
/// Steps each client takes during set-up, so files exist before timing.
const WARM_STEPS: usize = 40;
const SYNC_EVERY: u32 = 24;
/// The crash cuts each connection this many steps after its last sync.
const CRASH_AFTER: u32 = SYNC_EVERY / 2;

fn config() -> LfsConfig {
    LfsConfig::default()
}

/// One connection per CPU of the host, counted before the process pinned
/// itself to one, at most [`MAX_CONNS`].
fn connections() -> usize {
    crate::HOST_CPUS.get().copied().unwrap_or(1).min(MAX_CONNS)
}

/// One connection's closed loop: its clients, and what they should find
/// after a crash.
struct Conn<F> {
    fs: F,
    /// This connection's clients: ids `conn`, `conn + nconns`, ….
    sims: Vec<ClientSim>,
    conn: usize,
    nconns: usize,
    shadow: Shadow,
    next: usize,
    since_sync: u32,
    /// Steps taken inside the timed window.
    steps: u64,
}

impl<F: FileSystem> Conn<F> {
    fn new(fs: F, conn: usize, nconns: usize, seed: u64) -> Conn<F> {
        Conn {
            fs,
            sims: (conn..CLIENTS)
                .step_by(nconns)
                .map(|id| ClientSim::new(id, seed, ClientMix::mixed(), MEAN_LEN))
                .collect(),
            conn,
            nconns,
            shadow: Shadow::default(),
            next: 0,
            since_sync: 0,
            steps: 0,
        }
    }

    /// Creates the clients' directories and takes the warm-up steps.
    fn warm(&mut self) {
        let mut fs = Shadowed {
            fs: &mut self.fs,
            model: &mut self.shadow,
        };
        for c in &mut self.sims {
            c.setup(&mut fs).expect("create client directory");
        }
        for _ in 0..WARM_STEPS {
            for c in &mut self.sims {
                c.step(&mut fs);
            }
        }
        fs.sync().expect("sync after warm-up");
    }

    /// Steps the next client in rotation on `fs`, syncing on cadence.
    fn step<G: FileSystem>(
        sims: &mut [ClientSim],
        next: &mut usize,
        since_sync: &mut u32,
        fs: &mut G,
    ) {
        sims[*next].step(fs);
        *next = (*next + 1) % sims.len();
        *since_sync += 1;
        if *since_sync == SYNC_EVERY {
            // A failed sync is counted by the meter; the shadow then keeps
            // accepting the older states too.
            let _ = fs.sync();
            *since_sync = 0;
        }
    }

    /// The timed closed loop, until `stop` says so. Returns the recorder and
    /// the loop's wall time.
    fn drive(&mut self, rec: Recorder, probe: Option<Probe<F>>, stop: Stop) -> (Recorder, u64) {
        let start = Instant::now();
        let mut meter = Meter::new(&mut self.fs, rec, probe);
        let mut fs = Shadowed {
            fs: &mut meter,
            model: &mut self.shadow,
        };
        loop {
            let done = match stop {
                Stop::At(t) => Instant::now() >= t,
                Stop::After(n) => self.steps >= n,
            };
            if done {
                break;
            }
            let client = (self.conn + self.next * self.nconns) as u32;
            let token = fs.fs.rec.begin_step(client);
            Self::step(
                &mut self.sims,
                &mut self.next,
                &mut self.since_sync,
                &mut fs,
            );
            fs.fs.rec.end_step(token);
            self.steps += 1;
        }
        (meter.rec, start.elapsed().as_nanos() as u64)
    }

    /// Runs on, unmeasured, to the crash point.
    fn run_to_crash_point(&mut self) {
        let mut fs = Shadowed {
            fs: &mut self.fs,
            model: &mut self.shadow,
        };
        while self.since_sync != CRASH_AFTER {
            Self::step(
                &mut self.sims,
                &mut self.next,
                &mut self.since_sync,
                &mut fs,
            );
        }
    }
}

#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(u64),
}

pub struct Stack {
    fs: SharedLfs<Dev>,
    server: ServerHandle,
    conns: Vec<Conn<Client>>,
}

fn format() -> SharedLfs<Dev> {
    let dev = QueuedDev::new(SimDisk::new(DISK_BLOCKS, DiskModel::wren_iv()), RING);
    SharedLfs::format(dev, config()).expect("format served disk")
}

fn warm_all<F: FileSystem + Send>(conns: &mut [Conn<F>]) {
    thread::scope(|s| {
        for c in conns.iter_mut() {
            s.spawn(move || c.warm());
        }
    });
}

fn dev_snap(fs: &SharedLfs<Dev>) -> DevSnap {
    fs.with_fs(|lfs| {
        let io = lfs.device().stats();
        DevSnap {
            io,
            queue: lfs.device().queue_stats(),
            shard_busy: vec![io.busy_ns],
        }
    })
}

/// Drives every connection on its own thread and merges what they saw.
fn drive_all<F: FileSystem + Send>(
    fs: &SharedLfs<Dev>,
    conns: &mut [Conn<F>],
    stops: &[Stop],
    tracing: bool,
) -> Pass {
    let dev0 = dev_snap(fs);
    let lfs0 = LfsSnap::of(&fs.stats());
    let shared0 = fs.shared_stats();
    let epoch = Instant::now();
    let results: Vec<(Recorder, u64)> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(stops)
            .enumerate()
            .map(|(i, (c, &stop))| {
                let probe_fs = fs.clone();
                let probe: Probe<F> = Box::new(move |_: &mut F| Snap::of(&probe_fs.stats()));
                let rec = Recorder::new(epoch, i as u32, tracing);
                s.spawn(move || c.drive(rec, Some(probe), stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let threads = results.len();
    let mut thread_ns = 0;
    let mut merged = Recorder::new(epoch, 0, tracing);
    for (r, ns) in results {
        thread_ns += ns;
        merged.merge(r);
    }
    let sh = fs.shared_stats();
    Pass {
        rec: merged,
        wall_ns,
        thread_ns,
        dev: dev_snap(fs).since(&dev0),
        lfs: LfsSnap::of(&fs.stats()).since(&lfs0),
        shared: Some(lfs_core::SharedReadStats {
            reads: sh.reads - shared0.reads,
            lockfree_reads: sh.lockfree_reads - shared0.lockfree_reads,
            block_hits: sh.block_hits - shared0.block_hits,
            block_misses: sh.block_misses - shared0.block_misses,
            read_bytes: sh.read_bytes - shared0.read_bytes,
            sync_handoffs: sh.sync_handoffs - shared0.sync_handoffs,
        }),
        verify_failures: 0,
        threads,
        extra: LayerExtra::default(),
    }
}

fn verify_failures<F>(conns: &[Conn<F>]) -> u64 {
    conns
        .iter()
        .flat_map(|c| &c.sims)
        .map(|s| s.stats.verify_failures)
        .sum()
}

/// Replays the traced window's client streams in-process on an identical
/// stack without the server, step for step, and returns its mean call ns.
fn in_process_call_ns(seed: u64, steps: &[u64]) -> f64 {
    let fs = format();
    let n = steps.len();
    let mut conns: Vec<Conn<SharedLfs<Dev>>> =
        (0..n).map(|i| Conn::new(fs.clone(), i, n, seed)).collect();
    warm_all(&mut conns);
    let stops: Vec<Stop> = steps.iter().map(|&s| Stop::After(s)).collect();
    let pass = drive_all(&fs, &mut conns, &stops, false);
    pass.rec.call_ns() as f64 / pass.rec.total_calls().max(1) as f64
}

pub struct Served;

impl Workload for Served {
    type Stack = Stack;

    fn setup(seed: u64) -> Stack {
        let fs = format();
        let n = connections();
        let server = serve(
            fs.clone(),
            "127.0.0.1:0",
            ServerConfig {
                workers: n,
                queue_cap: 64,
            },
        )
        .expect("start server");
        let mut conns: Vec<Conn<Client>> = (0..n)
            .map(|i| Conn::new(Client::connect(server.addr()).expect("connect"), i, n, seed))
            .collect();
        warm_all(&mut conns);
        Stack { fs, server, conns }
    }

    fn measure(st: &mut Stack, seed: u64, secs: Duration, tracing: bool) -> Pass {
        let before = verify_failures(&st.conns);
        for c in &mut st.conns {
            c.steps = 0;
        }
        let stops = vec![Stop::At(Instant::now() + secs); st.conns.len()];
        let mut pass = drive_all(&st.fs, &mut st.conns, &stops, tracing);
        pass.verify_failures = verify_failures(&st.conns) - before;
        if tracing {
            let tcp_ns = pass.rec.call_ns() as f64 / pass.rec.total_calls().max(1) as f64;
            let steps: Vec<u64> = st.conns.iter().map(|c| c.steps).collect();
            let local_ns = in_process_call_ns(seed, &steps);
            pass.extra = LayerExtra {
                server_call_ns: tcp_ns,
                wire_share: 1.0 - local_ns / tcp_ns,
            };
        }
        pass
    }

    fn crash(st: Stack) -> Recovery {
        let Stack {
            fs,
            server,
            mut conns,
        } = st;
        thread::scope(|s| {
            for c in conns.iter_mut() {
                s.spawn(move || c.run_to_crash_point());
            }
        });
        let shadows: Vec<Shadow> = conns.into_iter().map(|c| c.shadow).collect();
        server.stop();
        let lfs = fs
            .into_inner()
            .unwrap_or_else(|_| panic!("server still holds the mount after stop"));
        // The ring applies what was already submitted; what is still in the
        // cache is lost.
        let image = lfs.into_device().into_inner().image().to_vec();
        drive::remount(
            config(),
            || {
                QueuedDev::new(
                    SimDisk::from_image(image.clone(), DiskModel::wren_iv()),
                    RING,
                )
            },
            |fs, rec| {
                for sh in &shadows {
                    sh.check(fs, rec);
                }
            },
        )
    }
}
