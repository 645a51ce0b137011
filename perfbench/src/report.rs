//! What a run measured, and how it becomes the printed metrics.

use blockdev::{IoStats, QueueStats};
use lfs_core::{BlockKind, LfsStats, SharedReadStats};

use crate::meter::{Op, Recorder, Slice, SLICE_NS};

/// The subset of [`LfsStats`] the metrics use, as plain differences.
#[derive(Clone, Copy, Debug, Default)]
pub struct LfsSnap {
    pub new_log: u64,
    /// Log bytes appended by the cleaner (`LfsStats::log_bytes_cleaner`).
    pub cleaner_log: u64,
    pub data_log: u64,
    pub cleaner_read: u64,
    pub passes: u64,
    pub segs: u64,
    pub segs_empty: u64,
    pub util_sum: f64,
    pub checkpoints: u64,
    pub group_commits: u64,
    pub copy_bytes: u64,
}

impl LfsSnap {
    pub fn of(s: &LfsStats) -> LfsSnap {
        LfsSnap {
            new_log: s.new_log_bytes(),
            cleaner_log: BlockKind::ALL.iter().map(|&k| s.log_bytes_cleaner(k)).sum(),
            data_log: s.log_bytes(BlockKind::Data),
            cleaner_read: s.cleaner.bytes_read,
            passes: s.cleaner.passes,
            segs: s.cleaner.segments_cleaned,
            segs_empty: s.cleaner.segments_empty,
            util_sum: s.cleaner.utilization_sum,
            checkpoints: s.checkpoints,
            group_commits: s.group_commits,
            copy_bytes: s.flush_copy_bytes,
        }
    }

    pub fn since(&self, e: &LfsSnap) -> LfsSnap {
        LfsSnap {
            new_log: self.new_log - e.new_log,
            cleaner_log: self.cleaner_log - e.cleaner_log,
            data_log: self.data_log - e.data_log,
            cleaner_read: self.cleaner_read - e.cleaner_read,
            passes: self.passes - e.passes,
            segs: self.segs - e.segs,
            segs_empty: self.segs_empty - e.segs_empty,
            util_sum: self.util_sum - e.util_sum,
            checkpoints: self.checkpoints - e.checkpoints,
            group_commits: self.group_commits - e.group_commits,
            copy_bytes: self.copy_bytes - e.copy_bytes,
        }
    }

    fn log_total(&self) -> u64 {
        self.new_log + self.cleaner_log
    }
}

/// Device-side counters of one stack, read through public stats.
#[derive(Clone, Debug, Default)]
pub struct DevSnap {
    pub io: IoStats,
    pub queue: QueueStats,
    /// Simulated busy ns per shard (one entry on a single volume).
    pub shard_busy: Vec<u64>,
}

impl DevSnap {
    pub fn since(&self, e: &DevSnap) -> DevSnap {
        let q = &self.queue;
        let eq = &e.queue;
        DevSnap {
            io: self.io.since(&e.io),
            queue: QueueStats {
                submitted: q.submitted - eq.submitted,
                completed: q.completed - eq.completed,
                depth_sum: q.depth_sum - eq.depth_sum,
                max_depth: q.max_depth,
                ring_full_waits: q.ring_full_waits - eq.ring_full_waits,
                retries: q.retries - eq.retries,
                giveups: q.giveups - eq.giveups,
                dropped: q.dropped - eq.dropped,
                fences: q.fences - eq.fences,
            },
            shard_busy: self
                .shard_busy
                .iter()
                .zip(&e.shard_busy)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// One timed window.
pub struct Pass {
    pub rec: Recorder,
    /// Wall time of the window.
    pub wall_ns: u64,
    /// Sum over client threads of their time in the window: the total the
    /// ledger's buckets add up to (equal to `wall_ns` with one thread).
    pub thread_ns: u64,
    pub dev: DevSnap,
    pub lfs: LfsSnap,
    pub shared: Option<SharedReadStats>,
    /// Reads whose contents did not verify during the window.
    pub verify_failures: u64,
    /// Client threads (connections) that drove the window.
    pub threads: usize,
    /// Figures only some workloads produce (traced windows only).
    pub extra: LayerExtra,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.rec.total_calls() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Crash, remount and durability check.
#[derive(Default)]
pub struct Recovery {
    /// Host ns of each mount of a fresh copy of the crash image.
    pub mount_ns: Vec<u64>,
    /// Device bytes the (first) mount read.
    pub replay_bytes: u64,
    /// Values checked after the crash.
    pub checked: u64,
    /// Checked values that were lost, torn or older than the last sync.
    pub bad: u64,
    pub first_bad: Option<String>,
}

impl Recovery {
    pub fn note_bad(&mut self, what: String) {
        self.bad += 1;
        if self.first_bad.is_none() {
            self.first_bad = Some(what);
        }
    }

    pub fn median_mount_ns(&self) -> f64 {
        median(&self.mount_ns.iter().map(|&n| n as f64).collect::<Vec<_>>())
    }
}

/// A printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// A finished run: human-readable lines plus the machine-readable result.
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of sorted `s`.
fn pct(s: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Percentiles a tail is read at; the highest one with at least ten
/// samples beyond it is reported.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Latency populations are cut, in time order, into stretches of at least
/// this many samples; p50 and tail are the medians of the per-stretch
/// figures. Every stretch of a large population then reads its tail at
/// the same percentile (p99, with 50 to 99 samples beyond it), so the
/// figure neither jumps between percentiles as the sample count drifts
/// nor rests on the few slowest calls of a whole run, which on a shared
/// host are mostly preemptions.
const STRETCH: usize = 5_000;

/// The highest ladder percentile of sorted `s` with at least ten samples
/// beyond it, with its value and the count beyond.
fn tail_of(s: &[u64]) -> (f64, u64, usize) {
    let n = s.len();
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(50.0);
    (p, pct(s, p), beyond(p))
}

/// The median and the tail of one latency population.
pub struct Latency {
    pub n: usize,
    pub stretches: usize,
    pub p50_ns: f64,
    /// Percentile each stretch's tail is read at, and samples beyond it.
    pub tail_pct: f64,
    pub tail_beyond: usize,
    pub tail_ns: f64,
    /// The same rule applied to the whole population at once.
    pub whole: (f64, u64, usize),
}

pub fn latency(samples: &[u64]) -> Latency {
    let n = samples.len();
    if n == 0 {
        return Latency {
            n,
            stretches: 0,
            p50_ns: 0.0,
            tail_pct: 50.0,
            tail_beyond: 0,
            tail_ns: 0.0,
            whole: (50.0, 0, 0),
        };
    }
    let k = (n / STRETCH).max(1);
    let (mut p50s, mut tails) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let (mut tail_pct, mut tail_beyond) = (50.0, 0);
    for i in 0..k {
        let mut s = samples[i * n / k..(i + 1) * n / k].to_vec();
        s.sort_unstable();
        let (p, v, b) = tail_of(&s);
        p50s.push(pct(&s, 50.0) as f64);
        tails.push(v as f64);
        (tail_pct, tail_beyond) = (p, b);
    }
    let mut all = samples.to_vec();
    all.sort_unstable();
    Latency {
        n,
        stretches: k,
        p50_ns: median(&p50s),
        tail_pct,
        tail_beyond,
        tail_ns: median(&tails),
        whole: tail_of(&all),
    }
}

/// Median over the window's whole slices of a per-slice rate.
fn slice_median(r: &Recorder, wall_ns: u64, rate: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let whole = ((wall_ns / SLICE_NS) as usize).clamp(1, r.slices.len().max(1));
    let v: Vec<f64> = r.slices.iter().take(whole).filter_map(rate).collect();
    median(&v)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const MIB: f64 = (1u64 << 20) as f64;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], pass: &Pass, rec: &Recovery) -> Report {
    let r = &pass.rec;
    let ops = r.total_calls();
    let attempted = ops + rec.checked;
    let failed = r.failed + pass.verify_failures + rec.bad;
    let read = latency(&r.lat_read);
    let write = latency(&r.lat_write);
    let sync = latency(&r.lat_sync);
    let us = |ns: f64| ns / 1e3;
    let mut lines = Vec::new();
    for (name, l) in [("read", &read), ("write", &write), ("sync", &sync)] {
        lines.push(format!(
            "{name:>5}: n={} in {} stretch(es); medians of stretch p50={:.1}us, p{}={:.1}us ({} samples beyond each); whole run p{}={:.1}us ({} beyond)",
            l.n,
            l.stretches,
            us(l.p50_ns),
            l.tail_pct,
            us(l.tail_ns),
            l.tail_beyond,
            l.whole.0,
            us(l.whole.1 as f64),
            l.whole.2
        ));
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    lines.push(format!(
        "error_rate={error_rate} ({failed} failed of {attempted} attempted: {} failed calls, {} read verification failures, {} bad of {} values checked after the crash)",
        r.failed, pass.verify_failures, rec.bad, rec.checked
    ));
    if let Some(b) = &rec.first_bad {
        lines.push(format!("first durability failure: {b}"));
    }
    lines.push(format!(
        "recovery: {} mounts, median {:.3} ms, first mount read {} bytes; mount ns: {:?}",
        rec.mount_ns.len(),
        rec.median_mount_ns() / 1e6,
        rec.replay_bytes,
        rec.mount_ns
    ));
    lines.push(format!(
        "whole-window ops_per_s={:.1}, read_mb_per_s={:.2}, write_mb_per_s={:.2}",
        pass.ops_per_s(),
        r.read_bytes as f64 / MIB / (r.ns_of(Op::Read).max(1) as f64 / 1e9),
        r.write_bytes as f64 / MIB / (r.ns_of(Op::Write).max(1) as f64 / 1e9),
    ));
    let per_slice: Vec<String> = r.slices.iter().map(|s| s.calls.to_string()).collect();
    lines.push(format!(
        "calls per {} ms slice: {}",
        SLICE_NS / 1_000_000,
        per_slice.join(" ")
    ));
    let mbps = |bytes: u64, ns: u64| (ns > 0).then(|| bytes as f64 / MIB / (ns as f64 / 1e9));
    let metrics = vec![
        m("setup_s", median(setup_s), "s"),
        m(
            "ops_per_s",
            slice_median(r, pass.wall_ns, |s| {
                Some(s.calls as f64 * 1e9 / SLICE_NS as f64)
            }),
            "1/s",
        ),
        m(
            "read_mb_per_s",
            slice_median(r, pass.wall_ns, |s| mbps(s.read_bytes, s.read_ns)),
            "MB/s",
        ),
        m(
            "write_mb_per_s",
            slice_median(r, pass.wall_ns, |s| mbps(s.write_bytes, s.write_ns)),
            "MB/s",
        ),
        m("read_p50_us", us(read.p50_ns), "us"),
        m("read_tail_us", us(read.tail_ns), "us"),
        m("write_p50_us", us(write.p50_ns), "us"),
        m("write_tail_us", us(write.tail_ns), "us"),
        m("sync_p50_us", us(sync.p50_ns), "us"),
        m("sync_tail_us", us(sync.tail_ns), "us"),
        m("recovery_ms", rec.median_mount_ns() / 1e6, "ms"),
        m(
            "write_amp",
            pass.dev.io.bytes_written as f64 / r.write_bytes.max(1) as f64,
            "ratio",
        ),
        m(
            "sim_ops_per_s",
            ops as f64 / (pass.dev.io.busy_ns.max(1) as f64 / 1e9),
            "1/s",
        ),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("ok_rate", 1.0 - error_rate, "ratio"),
    ];
    Report {
        lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Per-layer figures that only some workloads can produce.
#[derive(Default)]
pub struct LayerExtra {
    /// Mean host ns per TCP call.
    pub server_call_ns: f64,
    /// Share of TCP call time not spent by an in-process replay of the
    /// same streams on an identical stack.
    pub wire_share: f64,
}

/// The per-layer metrics and ledger of a traced run. `untraced_ops_per_s`
/// comes from an untraced window of the same workload and seed.
pub fn per_layer(pass: &Pass, rec: &Recovery, untraced_ops_per_s: f64) -> Report {
    let r = &pass.rec;
    let extra = &pass.extra;
    let l = &r.ledger;
    let d = &pass.dev.io;
    let lf = &pass.lfs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let gen_ns = pass.thread_ns.saturating_sub(l.charged_ns());
    let mut out = vec![
        m("server.call_ns", extra.server_call_ns, "ns"),
        m("server.wire_share", extra.wire_share, "ratio"),
    ];
    let sh = pass.shared.unwrap_or_default();
    out.push(m(
        "shared.lockfree_ratio",
        ratio(sh.lockfree_reads as f64, sh.reads as f64),
        "ratio",
    ));
    out.push(m(
        "shared.hit_ratio",
        ratio(
            sh.block_hits as f64,
            (sh.block_hits + sh.block_misses) as f64,
        ),
        "ratio",
    ));
    out.push(m("shared.sync_handoffs", sh.sync_handoffs as f64, "count"));
    for op in [
        Op::Create,
        Op::Lookup,
        Op::Read,
        Op::Write,
        Op::Truncate,
        Op::Unlink,
        Op::Sync,
    ] {
        let i = op as usize;
        out.push(m(
            format!("fs.{}.calls", op.name()),
            l.fs_calls[i] as f64,
            "count",
        ));
        out.push(m(format!("fs.{}.ns", op.name()), l.fs_ns[i] as f64, "ns"));
    }
    let checksum_bytes = lf.log_total() + lf.cleaner_read + rec.replay_bytes;
    let nonempty = lf.segs - lf.segs_empty;
    let cleaner_write_cost = ratio(
        (lf.new_log + lf.cleaner_read + lf.cleaner_log) as f64,
        lf.new_log as f64,
    );
    let shard_max = pass.dev.shard_busy.iter().copied().max().unwrap_or(0);
    let shard_min = pass.dev.shard_busy.iter().copied().min().unwrap_or(0);
    let q = &pass.dev.queue;
    out.extend([
        m("flush.ns", l.flush_ns as f64, "ns"),
        m("flush.data_bytes", lf.data_log as f64, "B"),
        m(
            "flush.meta_bytes",
            (lf.log_total() - lf.data_log) as f64,
            "B",
        ),
        m("flush.copy_bytes", lf.copy_bytes as f64, "B"),
        m("checksum.bytes", checksum_bytes as f64, "B"),
        m("checkpoint.count", lf.checkpoints as f64, "count"),
        m("checkpoint.group_commits", lf.group_commits as f64, "count"),
        m("checkpoint.ns", l.checkpoint_ns as f64, "ns"),
        m("cleaner.ns", l.cleaner_ns as f64, "ns"),
        m("cleaner.passes", lf.passes as f64, "count"),
        m("cleaner.segments", lf.segs as f64, "count"),
        m(
            "cleaner.empty_ratio",
            ratio(lf.segs_empty as f64, lf.segs as f64),
            "ratio",
        ),
        m(
            "cleaner.avg_u",
            ratio(lf.util_sum, nonempty as f64),
            "ratio",
        ),
        m("cleaner.read_bytes", lf.cleaner_read as f64, "B"),
        m("cleaner.moved_bytes", lf.cleaner_log as f64, "B"),
        m("cleaner.write_cost", cleaner_write_cost, "ratio"),
        m(
            "cache.miss_ratio",
            ratio(
                d.bytes_read.saturating_sub(lf.cleaner_read) as f64,
                r.read_bytes as f64,
            ),
            "ratio",
        ),
        m("queue.submitted", q.submitted as f64, "count"),
        m(
            "queue.mean_depth",
            q.mean_in_flight_depth().unwrap_or(0.0),
            "count",
        ),
        m("queue.ring_full_waits", q.ring_full_waits as f64, "count"),
        m("queue.fences", q.fences as f64, "count"),
        m(
            "volume.busy_spread",
            ratio(shard_max as f64, shard_min as f64),
            "ratio",
        ),
        m("dev.reads", d.reads as f64, "count"),
        m("dev.writes", d.writes as f64, "count"),
        m("dev.read_bytes", d.bytes_read as f64, "B"),
        m("dev.write_bytes", d.bytes_written as f64, "B"),
        m("dev.seeks", d.seeks as f64, "count"),
        m("dev.busy_s", d.busy_ns as f64 / 1e9, "s"),
        m("recovery.replay_bytes", rec.replay_bytes as f64, "B"),
        m("recovery.mount_ns", rec.median_mount_ns(), "ns"),
        m("bench.gen_ns", gen_ns as f64, "ns"),
        m("ledger.total_ns", pass.thread_ns as f64, "ns"),
        m("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s"),
        m("trace.traced_ops_per_s", pass.ops_per_s(), "1/s"),
        m(
            "trace.overhead",
            1.0 - ratio(pass.ops_per_s(), untraced_ops_per_s),
            "ratio",
        ),
    ]);

    let mut lines = vec![format!(
        "ledger over {} client thread(s), total {:.3} s of thread time:",
        pass.threads,
        pass.thread_ns as f64 / 1e9
    )];
    let mut row = |name: String, ns: u64, calls: Option<u64>| {
        let share = ratio(ns as f64, pass.thread_ns as f64) * 100.0;
        let per = calls.map_or(String::new(), |c| {
            format!(
                "  {c} calls, {:.1} us/call",
                ratio(ns as f64, c as f64) / 1e3
            )
        });
        lines.push(format!(
            "  {name:<14} {:>12.3} ms {share:>6.2}%{per}",
            ns as f64 / 1e6
        ));
    };
    row("cleaner".into(), l.cleaner_ns, None);
    row("checkpoint".into(), l.checkpoint_ns, None);
    row("flush".into(), l.flush_ns, None);
    for op in Op::ALL {
        let i = op as usize;
        if l.fs_calls[i] > 0 {
            row(format!("fs.{}", op.name()), l.fs_ns[i], Some(l.fs_calls[i]));
        }
    }
    row("bench.gen".into(), gen_ns, None);
    lines.push(format!(
        "  sum of buckets = {} ns = ledger total {} ns",
        l.charged_ns() + gen_ns,
        pass.thread_ns
    ));
    lines.push(format!(
        "tracing overhead: traced {:.0} ops/s vs untraced {:.0} ops/s ({:+.1}%)",
        pass.ops_per_s(),
        untraced_ops_per_s,
        (ratio(pass.ops_per_s(), untraced_ops_per_s) - 1.0) * 100.0
    ));
    let failed = r.failed + pass.verify_failures + rec.bad;
    if let Some(b) = &rec.first_bad {
        lines.push(format!("first durability failure: {b}"));
    }
    Report {
        lines,
        correct: failed == 0,
        attempted: r.total_calls() + rec.checked,
        failed,
        metrics: out,
    }
}
