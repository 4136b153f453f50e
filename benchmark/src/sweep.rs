//! `sweep-small`: a threshold-table-shaped sweep run through the
//! supervised engine on two worker threads.

use crate::sim::{self, Case, Counts, Faults};
use crate::stats::{median, mix64, ratio, Checks, Metrics};
use crate::trace::{ProtoAcc, Span, Tracer};
use crate::{obs_counts, repeat_setup, Deadline, Timing};
use rbcast_core::supervisor::{
    run_experiments_supervised, supervise, Supervised, SupervisorConfig, TaskReport,
};
use rbcast_core::{thresholds, Experiment, Outcome, ProtocolKind};
use rbcast_grid::{Metric, NeighborTable, Torus};
use std::rc::Rc;
use std::time::Instant;

/// Worker threads: the host the sizes were chosen on has two cores.
pub const THREADS: usize = 2;
/// Seeded placements per (cell, t).
const REPLICATES: u64 = 6;

/// The cells of the sweep: protocol, fault behaviour and radius. Full
/// indirect runs at r=1 only; at r=2 one run costs seconds and would
/// dominate the sweep.
const CELLS: [(ProtocolKind, Faults, u32); 7] = [
    (ProtocolKind::Flood, Faults::Crash, 1),
    (ProtocolKind::Flood, Faults::Crash, 2),
    (ProtocolKind::Cpa, Faults::Liar, 1),
    (ProtocolKind::Cpa, Faults::Liar, 2),
    (ProtocolKind::IndirectSimplified, Faults::Forger, 1),
    (ProtocolKind::IndirectSimplified, Faults::Forger, 2),
    (ProtocolKind::IndirectFull, Faults::Liar, 1),
];

/// The largest t the protocol is proven to tolerate at radius r.
fn proven_t(protocol: ProtocolKind, r: u32) -> usize {
    (match protocol {
        ProtocolKind::Flood => thresholds::crash_max_t(r),
        ProtocolKind::Cpa => thresholds::cpa_guaranteed_t(r),
        _ => thresholds::byzantine_max_t(r),
    }) as usize
}

/// A placement seed for one (cell, t, replicate), mixed from the
/// workload seed.
fn placement_seed(seed: u64, cell: usize, t: usize, rep: u64) -> u64 {
    mix64(seed ^ ((cell as u64) << 48) ^ ((t as u64) << 32) ^ rep)
}

/// Every experiment of the sweep: each cell, t from 0 to its proven
/// bound, several seeded `RandomLocal` placements on the radius's
/// default torus.
pub fn cases(seed: u64) -> Vec<Case> {
    let mut out = Vec::new();
    for (i, &(protocol, faults, r)) in CELLS.iter().enumerate() {
        for t in 0..=proven_t(protocol, r) {
            for rep in 0..REPLICATES {
                let s = placement_seed(seed, i, t, rep);
                out.push(Case::random_local(
                    r,
                    Torus::for_radius(r),
                    protocol,
                    faults,
                    t,
                    s,
                ));
            }
        }
    }
    out
}

/// The experiments of one seed with each one's checked fault count.
fn inputs(seed: u64) -> Result<(Vec<Case>, Vec<Experiment>, Vec<usize>), String> {
    let cases = cases(seed);
    let experiments = cases.iter().map(Case::experiment).collect();
    let arenas: Vec<NeighborTable> = [1, 2]
        .iter()
        .map(|&r| NeighborTable::build(&Torus::for_radius(r), r, Metric::Linf))
        .collect();
    let faults = cases
        .iter()
        .map(|c| c.prepare(&arenas[c.r as usize - 1]))
        .collect::<Result<Vec<usize>, String>>()?;
    Ok((cases, experiments, faults))
}

/// One pass through `run_experiments_supervised`: checks every task and
/// returns the pass's counts, deliveries and commits.
fn pass(
    cases: &[Case],
    experiments: &[Experiment],
    faults: &[usize],
    reference: Option<&[Counts]>,
    checks: &mut Checks,
) -> (Vec<Counts>, u64, u64) {
    let report = run_experiments_supervised(experiments, THREADS, &SupervisorConfig::new());
    let mut counts = Vec::with_capacity(cases.len());
    let (mut deliveries, mut commits) = (0, 0);
    for (i, task) in report.tasks.iter().enumerate() {
        let TaskReport::Done {
            outcome,
            digest,
            attempts,
        } = task
        else {
            checks.record(vec![format!("task {i} quarantined: {task:?}")]);
            counts.push(Counts::default());
            continue;
        };
        let mut problems = sim::check(
            &cases[i],
            outcome,
            *digest,
            faults[i],
            reference.map(|r| &r[i]),
        );
        if *attempts != 1 {
            problems.push(format!("task {i} needed {attempts} attempts"));
        }
        checks.record(problems);
        deliveries += outcome.stats.deliveries;
        commits += outcome.committed_correct as u64;
        counts.push(Counts::of(outcome, *digest));
    }
    (counts, deliveries, commits)
}

/// What one traced task hands back to the main thread.
#[derive(Debug)]
struct TracedTask {
    outcome: Outcome,
    hash: u64,
    spans: Vec<Span>,
    proto: ProtoAcc,
}

/// One traced pass: every task through `supervise`, running the traced
/// replica. Returns the pass's wall seconds.
fn traced_pass(
    cases: &[Case],
    faults: &[usize],
    reference: &[Counts],
    pass_no: u64,
    tr: &mut Tracer,
    acc: &ProtoAcc,
    checks: &mut Checks,
) -> f64 {
    let origin = tr.origin();
    let t0 = Instant::now();
    let tasks = supervise(
        cases,
        THREADS,
        &SupervisorConfig::new(),
        |ctx, case: &Case| {
            let mut task_tr = Tracer::new(origin);
            let task_acc = Rc::new(ProtoAcc::default());
            let op = pass_no * 1_000_000 + ctx.index as u64;
            let root = task_tr.open("sweep.task", op);
            let (outcome, hash) = sim::run_replica(case, &mut task_tr, op, &task_acc);
            task_tr.close(root);
            let proto = ProtoAcc::default();
            proto.add(&task_acc);
            Ok(TracedTask {
                outcome,
                hash,
                spans: task_tr.spans,
                proto,
            })
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    for (i, task) in tasks.into_iter().enumerate() {
        let Supervised::Done { value: task, .. } = task else {
            checks.record(vec![format!("traced task {i} failed: {task:?}")]);
            continue;
        };
        let mut problems = sim::check(
            &cases[i],
            &task.outcome,
            task.hash,
            faults[i],
            Some(&reference[i]),
        );
        if task.proto.msg.calls() != task.outcome.stats.deliveries {
            problems.push(format!(
                "task {i}: on_message calls differ from the deliveries"
            ));
        }
        checks.record(problems);
        acc.add(&task.proto);
        tr.absorb(task.spans);
    }
    secs
}

/// Runs `sweep-small`.
pub fn run(seed: u64, deadline: &Deadline, trace: bool) -> (Checks, Metrics, Tracer) {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tr = Tracer::new(Instant::now());
    let ((cases, experiments, faults), setup_s) = match repeat_setup(|| inputs(seed)) {
        Ok(v) => v,
        Err(why) => {
            checks.record(vec![format!("input check: {why}")]);
            return (checks, metrics, tr);
        }
    };
    let n = cases.len() as u64;
    let obs_before = obs_counts();
    let mut reference: Option<Vec<Counts>> = None;
    let mut timing = Timing::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let acc = ProtoAcc::default();
    loop {
        let t0 = Instant::now();
        let (counts, deliveries, commits) = pass(
            &cases,
            &experiments,
            &faults,
            reference.as_deref(),
            &mut checks,
        );
        let secs = t0.elapsed().as_secs_f64();
        // The first pass warms up (threads, caches, allocator): it is
        // checked, and sets the reference counts, but is not timed.
        if reference.is_some() {
            timing.batch(secs, n, deliveries, commits);
            untraced_s.push(secs);
        }
        let reference = reference.get_or_insert(counts);
        if trace {
            let pass_no = traced_s.len() as u64 + 1;
            let secs = traced_pass(
                &cases,
                &faults,
                reference,
                pass_no,
                &mut tr,
                &acc,
                &mut checks,
            );
            traced_s.push(secs);
        }
        if timing.batches() >= 2 && deadline.no_room_after(t0) {
            break;
        }
    }
    let reference = reference.expect("the loop ran at least one pass");
    if trace {
        match inputs(seed.wrapping_add(1)) {
            Ok((cases2, experiments2, faults2)) => {
                let (counts2, _, _) = pass(&cases2, &experiments2, &faults2, None, &mut checks);
                if counts2 == reference {
                    checks.record(vec![
                        "a second seed repeated the first seed's counts".to_string()
                    ]);
                }
            }
            Err(why) => checks.record(vec![format!("second seed input check: {why}")]),
        }
        let total = Counts {
            hash: 0,
            rounds: reference.iter().map(|c| c.rounds).sum(),
            deliveries: reference.iter().map(|c| c.deliveries).sum(),
            messages: reference.iter().map(|c| c.messages).sum(),
            faults: reference.iter().map(|c| c.faults).sum(),
            decisions: reference.iter().map(|c| c.decisions).sum(),
        };
        sim::layer_metrics(
            &mut metrics,
            &tr,
            &acc,
            "sweep.task",
            traced_s.len(),
            &total,
        );
        let busy_s = tr.total("sweep.task");
        let wall_s: f64 = traced_s.iter().sum();
        metrics.set(
            "core.engine.utilization",
            ratio(busy_s, wall_s * THREADS as f64),
            "ratio",
        );
        crate::net::absent(&mut metrics);
        let (covered, whole) = tr.covered("sweep.task");
        crate::common_trace_metrics(
            &mut metrics,
            median(&traced_s),
            median(&untraced_s),
            ratio(whole - covered, whole),
            obs_before,
        );
    } else {
        timing.end_to_end(&mut metrics, &setup_s);
    }
    (checks, metrics, tr)
}

/// For `--self-check`: a pass over the sweep's first experiments, then
/// the same pass checked against its own counts with one task's digest
/// altered. Returns the problems each found.
pub fn self_check() -> (Vec<String>, Vec<String>) {
    let (cases, experiments, faults) = match inputs(1) {
        Ok(v) => v,
        Err(why) => return (vec![why], Vec::new()),
    };
    let n = cases.len().min(8);
    let (cases, experiments, faults) = (&cases[..n], &experiments[..n], &faults[..n]);
    let mut clean = Checks::default();
    let (mut counts, _, _) = pass(cases, experiments, faults, None, &mut clean);
    counts[1].hash ^= 1;
    let mut wrong = Checks::default();
    pass(cases, experiments, faults, Some(&counts), &mut wrong);
    (clean.reasons, wrong.reasons)
}
