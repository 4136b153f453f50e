//! The single-broadcast workloads `flood-1m` and `indirect-byz`, and
//! the traced replica of `Experiment::run_traced` that `sweep-small`
//! shares.

use crate::stats::{median, quantile, ratio, Checks, Metrics};
use crate::trace::{timed, ProtoAcc, Sampled, Tracer};
use crate::{obs_counts, repeat_setup, Deadline, Timing};
use rbcast_adversary::{local_fault_bound_in, Placement};
use rbcast_core::{thresholds, Experiment, FaultKind, Outcome, ProtocolKind};
use rbcast_grid::{Coord, Metric, NeighborTable, NodeId, Torus};
use rbcast_protocols::{
    attackers, Cpa, Flood, Indirect, IndirectConfig, Msg, PersistentFlood, ProtocolParams,
};
use rbcast_sim::{ChannelConfig, EngineKind, Network, Process};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// `Experiment`'s default round cap.
const MAX_ROUNDS: u32 = 10_000;
/// Consecutive rejected draws before a random placement stops (the
/// value `rbcast run --placement random` uses).
const PLACEMENT_ATTEMPTS: u32 = 60;

/// How the placed faults behave (the `FaultKind`s the workloads use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    Crash,
    Liar,
    Forger,
}

impl Faults {
    fn kind(self) -> FaultKind {
        match self {
            Faults::Crash => FaultKind::CrashStop,
            Faults::Liar => FaultKind::Liar,
            Faults::Forger => FaultKind::Forger,
        }
    }
}

/// One broadcast experiment, described so that it can be run both
/// through `Experiment` and through the traced replica.
#[derive(Debug, Clone)]
pub struct Case {
    pub r: u32,
    pub torus: Torus,
    pub protocol: ProtocolKind,
    pub t: usize,
    pub placement: Placement,
    pub faults: Faults,
}

impl Case {
    /// A case with faults placed by `RandomLocal` at local bound `t`.
    pub fn random_local(
        r: u32,
        torus: Torus,
        protocol: ProtocolKind,
        faults: Faults,
        t: usize,
        seed: u64,
    ) -> Case {
        Case {
            r,
            torus,
            protocol,
            t,
            placement: Placement::RandomLocal {
                t,
                seed,
                attempts: PLACEMENT_ATTEMPTS,
            },
            faults,
        }
    }

    pub fn experiment(&self) -> Experiment {
        Experiment::new(self.r, self.protocol)
            .with_torus(self.torus.clone())
            .with_t(self.t)
            .with_placement(self.placement.clone())
            .with_fault_kind(self.faults.kind())
    }

    /// Places and audits the faults, as the benchmark's input check:
    /// returns the fault count, or why the input is unusable.
    pub fn prepare(&self, arena: &NeighborTable) -> Result<usize, String> {
        let faults = self.placement.place(&self.torus, self.r, Metric::Linf);
        let bound = local_fault_bound_in(arena, &faults);
        if bound > self.t {
            return Err(format!(
                "placement breaks its bound: {bound} > t={}",
                self.t
            ));
        }
        if self.t > 0 && faults.is_empty() {
            return Err("placement placed no faults".to_string());
        }
        Ok(faults.len())
    }
}

/// `flood-1m`: flood at r=1 on a 1000×1000 torus, crash-stop faults at
/// t = r(2r+1) − 1 (Theorem 5: every honest node commits).
pub fn flood_1m(seed: u64) -> Case {
    let t = thresholds::crash_max_t(1) as usize;
    Case::random_local(
        1,
        Torus::new(1000, 1000),
        ProtocolKind::Flood,
        Faults::Crash,
        t,
        seed,
    )
}

/// `indirect-byz`: simplified indirect-report at r=2 on a 60×60 torus,
/// forgers at t = `byzantine_max_t(2)` (Theorems 1–3).
pub fn indirect_byz(seed: u64) -> Case {
    let t = thresholds::byzantine_max_t(2) as usize;
    Case::random_local(
        2,
        Torus::new(60, 60),
        ProtocolKind::IndirectSimplified,
        Faults::Forger,
        t,
        seed,
    )
}

/// The exact counts of one operation; identical inputs must repeat them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub hash: u64,
    pub rounds: u32,
    pub deliveries: u64,
    pub messages: u64,
    pub faults: usize,
    pub decisions: usize,
}

impl Counts {
    pub fn of(outcome: &Outcome, hash: u64) -> Counts {
        Counts {
            hash,
            rounds: outcome.stats.rounds,
            deliveries: outcome.stats.deliveries,
            messages: outcome.stats.messages_sent,
            faults: outcome.fault_count,
            decisions: outcome.committed_correct + outcome.committed_wrong,
        }
    }
}

/// Every check one broadcast must pass: the honest nodes all commit the
/// source value, none commits a wrong one, the faults are the ones the
/// input check placed, and the exact counts repeat the reference's.
pub fn check(
    case: &Case,
    outcome: &Outcome,
    hash: u64,
    faults: usize,
    reference: Option<&Counts>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.committed_wrong > 0 {
        problems.push(format!(
            "{} honest nodes committed a wrong value",
            outcome.committed_wrong
        ));
    }
    if outcome.undecided > 0 || outcome.committed_correct != outcome.honest {
        problems.push(format!(
            "{} of {} honest nodes did not commit",
            outcome.honest - outcome.committed_correct,
            outcome.honest
        ));
    }
    if outcome.audited_bound > case.t {
        problems.push(format!(
            "audited bound {} > t={}",
            outcome.audited_bound, case.t
        ));
    }
    if outcome.fault_count != faults {
        problems.push(format!(
            "{} faults placed, input check placed {faults}",
            outcome.fault_count
        ));
    }
    if let Some(reference) = reference {
        let counts = Counts::of(outcome, hash);
        if counts != *reference {
            problems.push(format!(
                "counts {counts:?} differ from the seed's first run {reference:?}"
            ));
        }
    }
    problems
}

/// Builds node `id`'s process exactly as `Experiment` does.
fn make_process(
    case: &Case,
    faults: &HashSet<NodeId>,
    params: ProtocolParams,
    id: NodeId,
) -> Box<dyn Process<Msg>> {
    let wrong = !params.value;
    if faults.contains(&id) {
        return match case.faults {
            Faults::Crash => attackers::silent(),
            Faults::Liar => attackers::liar(wrong),
            Faults::Forger => attackers::forger(wrong),
        };
    }
    match case.protocol {
        ProtocolKind::Flood => Box::new(Flood::new(params)),
        ProtocolKind::PersistentFlood { repeats } => {
            Box::new(PersistentFlood::new(params, repeats))
        }
        ProtocolKind::Cpa => Box::new(Cpa::new(params)),
        ProtocolKind::IndirectFull => Box::new(Indirect::new(params, IndirectConfig::full())),
        ProtocolKind::IndirectSimplified => {
            Box::new(Indirect::new(params, IndirectConfig::simplified()))
        }
        ProtocolKind::IndirectCustom(cfg) => Box::new(Indirect::new(params, cfg)),
    }
}

/// `Experiment::run_traced`, re-wired from the layers' public functions
/// with a span around each call and every process wrapped in the timing
/// adapter. It must reproduce the untraced outcome and trace hash.
pub fn run_replica(case: &Case, tr: &mut Tracer, op: u64, acc: &Rc<ProtoAcc>) -> (Outcome, u64) {
    let (r, metric, torus) = (case.r, Metric::Linf, &case.torus);
    let arena = tr.time("grid.arena_build", op, || {
        Arc::new(NeighborTable::build(torus, r, metric))
    });
    let faults = tr.time("adversary.place", op, || {
        case.placement.place(torus, r, metric)
    });
    let audited_bound = tr.time("adversary.audit", op, || {
        local_fault_bound_in(&arena, &faults)
    });
    let fault_set: HashSet<NodeId> = faults.iter().copied().collect();
    let params = ProtocolParams {
        source: torus.id(Coord::ORIGIN),
        value: true,
        t: case.t,
    };
    let honest_ids: Vec<NodeId> = torus
        .node_ids()
        .filter(|id| !fault_set.contains(id))
        .collect();
    let mut net = tr.time("sim.network_new", op, || {
        let mut net = Network::with_arena(Arc::clone(&arena), ChannelConfig::reliable(), |id| {
            timed(make_process(case, &fault_set, params, id), acc)
        });
        net.set_classifier(Msg::kind);
        net.set_completion_mask(&honest_ids);
        net.set_early_termination(true);
        net.set_round_budget(None);
        net.set_engine(EngineKind::default());
        let byzantine_proof = match case.protocol {
            ProtocolKind::Cpa | ProtocolKind::IndirectFull | ProtocolKind::IndirectSimplified => {
                true
            }
            ProtocolKind::Flood | ProtocolKind::PersistentFlood { .. } => {
                case.faults == Faults::Crash
            }
            ProtocolKind::IndirectCustom(_) => false,
        };
        if audited_bound <= case.t && byzantine_proof {
            net.set_safety_oracle(params.value, &faults);
        }
        if case.faults == Faults::Crash {
            for &f in &faults {
                net.crash_at(f, 0);
            }
        }
        net
    });
    let stats = tr.time("sim.run", op, || net.run(MAX_ROUNDS));
    let (mut committed_correct, mut committed_wrong, mut undecided) = (0, 0, 0);
    for &id in &honest_ids {
        match net.decision(id) {
            Some((v, _)) if v == params.value => committed_correct += 1,
            Some(_) => committed_wrong += 1,
            None => undecided += 1,
        }
    }
    let outcome = Outcome {
        honest: honest_ids.len(),
        committed_correct,
        committed_wrong,
        undecided,
        fault_count: faults.len(),
        audited_bound,
        stats,
        message_kinds: net.kind_counts().iter().map(|(&k, &v)| (k, v)).collect(),
        last_decision_round: net.latest_decision_round(&honest_ids),
    };
    (outcome, net.trace_hash())
}

/// The per-layer metrics that the traced replica's spans and the
/// process adapter give, per traced operation. `roots` names the span
/// that encloses one operation.
pub fn layer_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    acc: &ProtoAcc,
    roots: &str,
    ops: usize,
    counts: &Counts,
) {
    let per_op = |x: f64| x / ops.max(1) as f64;
    let proto_s = acc.est_ns() * 1e-9;
    let run_s = tr.total("sim.run");
    let engine_self_s = run_s - proto_s;
    let before_run = tr.total("grid.arena_build")
        + tr.total("adversary.place")
        + tr.total("adversary.audit")
        + tr.total("sim.network_new");
    m.set(
        "grid.arena_build_s",
        per_op(tr.total("grid.arena_build")),
        "s",
    );
    m.set(
        "adversary.place_s",
        per_op(tr.total("adversary.place")),
        "s",
    );
    m.set(
        "adversary.audit_s",
        per_op(tr.total("adversary.audit")),
        "s",
    );
    m.set("adversary.faults", counts.faults as f64, "count");
    m.set(
        "sim.network_new_s",
        per_op(tr.total("sim.network_new")),
        "s",
    );
    m.set("sim.run_s", per_op(run_s), "s");
    m.set("sim.engine_self_s", per_op(engine_self_s), "s");
    m.set(
        "sim.engine_ns_per_delivery",
        ratio(per_op(engine_self_s) * 1e9, counts.deliveries as f64),
        "ns",
    );
    m.set("sim.rounds", f64::from(counts.rounds), "count");
    m.set("sim.deliveries", counts.deliveries as f64, "count");
    m.set("sim.messages", counts.messages as f64, "count");
    protocol_metrics(m, acc, ops);
    let task_s = tr.durations(roots);
    m.set(
        "core.setup_frac",
        ratio(before_run, tr.total(roots)),
        "ratio",
    );
    m.set("core.engine.task_s.p50", median(&task_s), "s");
    m.set("core.engine.task_s.p90", quantile(&task_s, 0.9), "s");
}

/// `protocols.*`, per traced operation.
pub fn protocol_metrics(m: &mut Metrics, acc: &ProtoAcc, ops: usize) {
    let per_op = |x: f64| x / ops.max(1) as f64;
    let secs = |x: &Sampled| per_op(x.est_ns() * 1e-9);
    let calls = |x: &Sampled| per_op(x.calls() as f64);
    m.set("protocols.on_start_s", secs(&acc.start), "s");
    m.set("protocols.on_message_s", secs(&acc.msg), "s");
    m.set("protocols.on_message_calls", calls(&acc.msg), "count");
    m.set("protocols.on_round_end_s", secs(&acc.end), "s");
    m.set("protocols.on_round_end_calls", calls(&acc.end), "count");
    m.set(
        "protocols.ns_per_on_message",
        ratio(acc.msg.est_ns(), acc.msg.calls() as f64),
        "ns",
    );
    m.set(
        "protocols.decide_per_round_end",
        ratio(acc.end_decides.get() as f64, acc.end.calls() as f64),
        "ratio",
    );
}

/// Runs `flood-1m` or `indirect-byz` (chosen by `make`) and returns the
/// checks, the metrics and the spans.
pub fn run(
    make: fn(u64) -> Case,
    seed: u64,
    deadline: &Deadline,
    trace: bool,
) -> (Checks, Metrics, Tracer) {
    let case = make(seed);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tr = Tracer::new(Instant::now());
    let (faults, setup_s) = match repeat_setup(|| {
        case.prepare(&NeighborTable::build(&case.torus, case.r, Metric::Linf))
    }) {
        Ok(v) => v,
        Err(why) => {
            checks.record(vec![format!("input check: {why}")]);
            return (checks, metrics, tr);
        }
    };
    let experiment = case.experiment();
    let mut reference: Option<Counts> = None;
    let mut timing = Timing::default();
    let mut untraced_s = Vec::new();
    let acc = Rc::new(ProtoAcc::default());
    let obs_before = obs_counts();
    let mut op = 0u64;
    loop {
        let t0 = Instant::now();
        let (outcome, hash) = experiment.run_traced();
        let secs = t0.elapsed().as_secs_f64();
        checks.record(check(&case, &outcome, hash, faults, reference.as_ref()));
        // The first broadcast warms caches and the allocator: it is
        // checked, and sets the reference counts, but is not timed.
        if reference.is_some() {
            timing.batch(
                secs,
                1,
                outcome.stats.deliveries,
                outcome.committed_correct as u64,
            );
            untraced_s.push(secs);
        }
        let counts = *reference.get_or_insert(Counts::of(&outcome, hash));
        if trace {
            op += 1;
            let calls = acc.msg.calls();
            let root = tr.open("sim.op", op);
            let (traced, traced_hash) = run_replica(&case, &mut tr, op, &acc);
            tr.close(root);
            let mut problems = check(&case, &traced, traced_hash, faults, Some(&counts));
            if traced != outcome {
                problems.push("traced outcome differs from the untraced one".to_string());
            }
            if acc.msg.calls() - calls != traced.stats.deliveries {
                problems.push("on_message calls differ from the deliveries".to_string());
            }
            checks.record(problems);
        }
        if timing.batches() >= 2 && deadline.no_room_after(t0) {
            break;
        }
    }
    let Some(counts) = reference else {
        return (checks, metrics, tr);
    };
    if trace {
        let second = make(seed.wrapping_add(1));
        let (outcome, hash) = second.experiment().run_traced();
        let mut problems = check(&second, &outcome, hash, outcome.fault_count, None);
        if Counts::of(&outcome, hash) == counts {
            problems.push("a second seed repeated the first seed's counts".to_string());
        }
        checks.record(problems);
        let ops = tr.durations("sim.op").len();
        layer_metrics(&mut metrics, &tr, &acc, "sim.op", ops, &counts);
        metrics.set("core.engine.utilization", 0.0, "ratio");
        crate::net::absent(&mut metrics);
        let (covered, whole) = tr.covered("sim.op");
        crate::common_trace_metrics(
            &mut metrics,
            median(&tr.durations("sim.op")),
            median(&untraced_s),
            ratio(whole - covered, whole),
            obs_before,
        );
    } else {
        timing.end_to_end(&mut metrics, &setup_s);
    }
    (checks, metrics, tr)
}
