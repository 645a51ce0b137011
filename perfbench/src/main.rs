//! The repository benchmark: three self-verifying workloads driven
//! through the real LFS stacks, measured only from outside the program.
//!
//! ```text
//! perfbench --workload served|stream|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and the ledger, and writes the spans to
//! `.perfbench/spans-<workload>-<seed>.csv`. The last line of standard
//! output is always one JSON object. See `NOTES.md` for what each
//! workload and metric means.

mod affinity;
mod churn;
mod drive;
mod meter;
mod payload;
mod report;
mod served;
mod shadow;
mod stream;

use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use report::{Pass, Recovery, Report};

/// CPUs the process could use before it pinned itself to one.
pub static HOST_CPUS: OnceLock<usize> = OnceLock::new();

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One workload: how to build its stack, drive a timed window over it,
/// and crash and recover it.
pub trait Workload {
    type Stack;

    fn setup(seed: u64) -> Self::Stack;

    /// Drives the stack for `secs`, tracing every call when `tracing`.
    /// The seed is passed again for workloads that replay their streams.
    fn measure(stack: &mut Self::Stack, seed: u64, secs: Duration, tracing: bool) -> Pass;

    /// Cuts power (no sync), remounts fresh copies of the image and checks
    /// what survived.
    fn crash(stack: Self::Stack) -> Recovery;
}

fn run<W: Workload>(name: &str, seed: u64, secs: Duration, trace: bool) -> Report {
    if trace {
        let untraced = {
            let mut stack = W::setup(seed);
            W::measure(&mut stack, seed, secs, false).ops_per_s()
        };
        let mut stack = W::setup(seed);
        let pass = W::measure(&mut stack, seed, secs, true);
        let rec = W::crash(stack);
        let mut report = report::per_layer(&pass, &rec, untraced);
        report.lines.push(spans_note(name, &pass, seed));
        report
    } else {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut stack = None;
        for _ in 0..SETUPS {
            drop(stack.take());
            let t = Instant::now();
            stack = Some(W::setup(seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut stack = stack.expect("at least one set-up");
        let pass = W::measure(&mut stack, seed, secs, false);
        let rec = W::crash(stack);
        report::end_to_end(&setup_s, &pass, &rec)
    }
}

fn spans_note(name: &str, pass: &Pass, seed: u64) -> String {
    let dir = Path::new(".perfbench");
    let path = dir.join(format!("spans-{name}-{seed}.csv"));
    match std::fs::create_dir_all(dir).and_then(|()| pass.rec.write_spans(&path)) {
        Ok(()) => format!(
            "{} spans written to {}",
            pass.rec.spans.len(),
            path.display()
        ),
        Err(e) => format!("spans not written: {e}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload served|stream|churn --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let secs = Duration::from_secs(args.seconds);
    // Every thread the run starts inherits this placement.
    let cpus = affinity::allowed();
    HOST_CPUS.get_or_init(|| cpus.len().max(1));
    let cpu = cpus.first().copied();
    let pinned = cpu.is_some_and(|c| affinity::pin(&[c]));
    let report = match args.workload.as_str() {
        "served" => run::<served::Served>("served", args.seed, secs, args.trace),
        "stream" => run::<stream::Stream>("stream", args.seed, secs, args.trace),
        "churn" => run::<churn::Churn>("churn", args.seed, secs, args.trace),
        w => {
            eprintln!("perfbench: unknown workload {w} (served, stream, churn)");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} cpu={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if pinned {
            format!("{}", cpu.unwrap_or(0))
        } else {
            "unpinned".into()
        }
    );
    for l in &report.lines {
        println!("{l}");
    }
    for x in &report.metrics {
        println!("{:<28} {:>18.4} {}", x.name, x.value, x.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
