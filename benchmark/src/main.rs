//! The rbcast benchmark: one workload per process, timed through the
//! surfaces users run, with every operation's output checked.
//!
//! ```text
//! rbcast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rbcast-benchmark --self-check
//! ```
//!
//! With `--trace 0` the run is timed with no instrumentation and the
//! last line of standard output carries the end-to-end metrics. With
//! `--trace 1` the run alternates untraced operations with traced
//! replicas that time each layer's public calls, and the last line
//! carries the per-layer metrics. `WORKLOADS.md` describes the
//! workloads and every metric.

mod net;
mod selfcheck;
mod sim;
mod stats;
mod sweep;
mod trace;

use stats::{median, quantile, ratio, Metrics};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["flood-1m", "indirect-byz", "sweep-small", "net-chaos"];

/// End-to-end metrics: every untraced run reports each of them.
const END_TO_END: [&str; 6] = [
    "op_s.p90",
    "ns_per_delivery",
    "runs_per_s",
    "commits_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics outside `net.*`: every traced run reports each of
/// them (and `net::NET_METRICS`).
const PER_LAYER: [&str; 29] = [
    "grid.arena_build_s",
    "adversary.place_s",
    "adversary.audit_s",
    "adversary.faults",
    "sim.network_new_s",
    "sim.run_s",
    "sim.engine_self_s",
    "sim.engine_ns_per_delivery",
    "sim.rounds",
    "sim.deliveries",
    "sim.messages",
    "protocols.on_start_s",
    "protocols.on_message_s",
    "protocols.on_message_calls",
    "protocols.on_round_end_s",
    "protocols.on_round_end_calls",
    "protocols.ns_per_on_message",
    "protocols.decide_per_round_end",
    "core.setup_frac",
    "core.engine.utilization",
    "core.engine.task_s.p50",
    "core.engine.task_s.p90",
    "core.supervisor.tasks",
    "core.supervisor.retries",
    "core.supervisor.quarantined",
    "core.arena_cache.hits",
    "core.arena_cache.misses",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// When a run stops starting new batches.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    /// True when one more batch as long as the last one, which started
    /// at `last`, would end past the deadline. A run then ends close to
    /// `--seconds` rather than up to a whole batch after it.
    pub fn no_room_after(&self, last: Instant) -> bool {
        let now = Instant::now();
        (now - self.start + (now - last)).as_secs_f64() > self.seconds
    }
}

/// Timed batches of the untraced run. A batch is one operation, or on
/// `sweep-small` one pass over every experiment of the sweep. Each run
/// first makes one untimed, checked warm-up batch.
#[derive(Debug, Default)]
pub struct Timing {
    secs_per_op: Vec<f64>,
    ns_per_delivery: Vec<f64>,
    ops_per_s: Vec<f64>,
    commits_per_s: Vec<f64>,
}

impl Timing {
    pub fn batch(&mut self, secs: f64, ops: u64, deliveries: u64, commits: u64) {
        self.secs_per_op.push(secs / ops as f64);
        self.ns_per_delivery
            .push(ratio(secs * 1e9, deliveries as f64));
        self.ops_per_s.push(ops as f64 / secs);
        self.commits_per_s.push(commits as f64 / secs);
    }

    pub fn batches(&self) -> usize {
        self.secs_per_op.len()
    }

    /// The end-to-end metrics, read at the slow tail of the batches: the
    /// 90th percentile of batch time, and the rates of that batch. A
    /// shared host's speed can switch for tens of seconds at a time
    /// between a common slow state and faster spells; a run's median
    /// batch then follows how much of the run fell in a fast spell, while
    /// its slow tail stays put (`WORKLOADS.md`, "Steadiness").
    pub fn end_to_end(&self, m: &mut Metrics, setup_s: &[f64]) {
        let op_s = &self.secs_per_op;
        eprintln!(
            "timed batches: {}; op_s p10 {:.6} p50 {:.6} p90 {:.6}",
            op_s.len(),
            quantile(op_s, 0.1),
            median(op_s),
            quantile(op_s, 0.9)
        );
        m.set("op_s.p90", quantile(op_s, 0.9), "s");
        m.set(
            "ns_per_delivery",
            quantile(&self.ns_per_delivery, 0.9),
            "ns",
        );
        m.set("runs_per_s", quantile(&self.ops_per_s, 0.1), "1/s");
        m.set("commits_per_s", quantile(&self.commits_per_s, 0.1), "1/s");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
}

/// Runs a set-up repeatedly: at least 5 times, then until half a second
/// of set-up has been measured, at most 50 times. Each repetition's
/// result is dropped after it is timed. Returns the last result and the
/// seconds of every repetition; `setup_s` is their median.
pub fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = f()?;
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() >= 50 || (secs.len() >= 5 && secs.iter().sum::<f64>() >= 0.5) {
            return Ok((out, secs));
        }
    }
}

/// The `obs` counters the core layer keeps: supervisor tasks, retries
/// and quarantines, arena-cache hits and misses.
pub fn obs_counts() -> [u64; 5] {
    [
        "supervisor/tasks",
        "supervisor/retries",
        "supervisor/quarantined",
        "arena/hits",
        "arena/misses",
    ]
    .map(|name| rbcast_core::obs::counter(name).get())
}

/// Metrics every traced run reports the same way.
pub fn common_trace_metrics(
    m: &mut Metrics,
    traced_op_s: f64,
    untraced_op_s: f64,
    unattributed: f64,
    obs_before: [u64; 5],
) {
    let now = obs_counts();
    let delta = |i: usize| (now[i] - obs_before[i]) as f64;
    m.set("core.supervisor.tasks", delta(0), "count");
    m.set("core.supervisor.retries", delta(1), "count");
    m.set("core.supervisor.quarantined", delta(2), "count");
    m.set("core.arena_cache.hits", delta(3), "count");
    m.set("core.arena_cache.misses", delta(4), "count");
    m.set(
        "trace.overhead_frac",
        ratio(traced_op_s, untraced_op_s) - 1.0,
        "ratio",
    );
    m.set("trace.unattributed_frac", unattributed, "ratio");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

const USAGE: &str =
    "usage: rbcast-benchmark --workload <flood-1m|indirect-byz|sweep-small|net-chaos> \
--seed <n> --seconds <s> --trace <0|1>\n       rbcast-benchmark --self-check";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-check") {
        return if selfcheck::run() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let deadline = Deadline {
        start: Instant::now(),
        seconds: args.seconds,
    };
    println!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}}}",
        stats::host_fingerprint(),
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let (checks, metrics, tracer) = match args.workload.as_str() {
        "flood-1m" => sim::run(sim::flood_1m, args.seed, &deadline, args.trace),
        "indirect-byz" => sim::run(sim::indirect_byz, args.seed, &deadline, args.trace),
        "sweep-small" => sweep::run(args.seed, &deadline, args.trace),
        _ => net::run(args.seed, &deadline, args.trace),
    };
    for why in &checks.reasons {
        eprintln!("check failed: {why}");
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER
            .iter()
            .chain(net::NET_METRICS.iter())
            .copied()
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<&&str> = expected
        .iter()
        .filter(|n| metrics.get(n).is_none())
        .collect();
    let extra: Vec<&&str> = metrics.names().filter(|n| !expected.contains(n)).collect();
    if checks.attempted == 0 || !missing.is_empty() || !extra.is_empty() {
        eprintln!("error: no result (operations: {}, missing metrics: {missing:?}, unexpected: {extra:?})", checks.attempted);
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", stats::result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
