//! `net-chaos`: `NodeRuntime`s pumped round-robin on one thread over a
//! `LoopbackHub`, each behind a seeded `ChaosTransport` and writing a
//! `FileJournal`; one node is killed mid-run and reopened from its
//! journal. Every run must commit exactly what the sim oracle commits.

use crate::stats::{median, quantile, ratio, Checks, Metrics};
use crate::trace::{bump, ns_since, timed, ProtoAcc, Sampled, Tracer};
use crate::{obs_counts, repeat_setup, Deadline, Timing};
use rbcast_adversary::{local_fault_bound_in, Placement};
use rbcast_core::thresholds;
use rbcast_grid::{Metric, NeighborTable, NodeId};
use rbcast_net::journal::JournalError;
use rbcast_net::{
    ChaosConfig, ChaosTransport, ClusterSpec, Datagram, FileJournal, LoopbackHub, NetJournal,
    NetProtocol, NodeReport, NodeRuntime, Record, RuntimeConfig,
};
use rbcast_sim::driver::commit_digest;
use rbcast_sim::{ChannelConfig, Network};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Delivery rounds: enough for simplified indirect at r=1 on 8×8 to
/// commit every (instance, node) pair, which each run checks against the
/// sim oracle before it starts.
const ROUNDS: u32 = 10;
/// Ticks the killed node stays down before it is reopened.
const DOWN_TICKS: u64 = 50;
/// Sub-seeds each run cycles through. The chaos pattern and the victim
/// change a cluster run's ticks by up to ~3× (its time by a few
/// percent), so every run measures several; each repeats its own exact
/// counts.
const SUB_SEEDS: u64 = 3;
/// A run that has not finished after this many ticks has wedged.
const MAX_TICKS: u64 = 2_000_000;

/// The cluster: simplified indirect at r=1 on the 8×8 torus, one
/// broadcast instance originating at each node.
pub fn spec() -> ClusterSpec {
    ClusterSpec {
        width: 8,
        height: 8,
        radius: 1,
        metric: Metric::Linf,
        protocol: NetProtocol::IndirectSimplified,
        t: thresholds::byzantine_max_t(1) as usize,
        instances: 64,
        rounds: ROUNDS,
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        rounds: ROUNDS,
        patience: 200_000,
        ..RuntimeConfig::default()
    }
}

/// The node to kill: one node, picked by the seed, of a seeded
/// `RandomLocal` crash placement at local bound 1; the audit must find
/// it a single fault.
pub fn victim(seed: u64, arena: &NeighborTable, tr: &mut Tracer) -> Result<u32, String> {
    let placed = tr.time("adversary.place", 0, || {
        Placement::RandomLocal {
            t: 1,
            seed,
            attempts: 60,
        }
        .place(arena.torus(), arena.radius(), arena.metric())
    });
    let pick = *placed
        .get((seed % placed.len().max(1) as u64) as usize)
        .ok_or("the crash placement is empty")?;
    match tr.time("adversary.audit", 0, || {
        local_fault_bound_in(arena, &[pick])
    }) {
        1 => Ok(pick.0),
        b => Err(format!("victim audit found local bound {b}")),
    }
}

/// Calls into every node's transport, journal and protocols, and the
/// pump loop's own tallies. Only the traced run fills it, and only while
/// its operation runs: boot is set-up (except that protocol callbacks,
/// `on_start` among them, are recorded there too), and the restart's
/// `NodeRuntime::open` is timed whole as `replay_ns`.
#[derive(Debug, Default)]
pub struct NetAcc {
    paused: Cell<bool>,
    send: Sampled,
    send_bytes: Cell<u64>,
    poll: Sampled,
    poll_hits: Cell<u64>,
    tick: Sampled,
    append: Sampled,
    /// Every append, paused or not: the journals on disk must hold
    /// exactly this many lines.
    appends: Cell<u64>,
    /// Every pump is timed: pump costs vary by node and by tick, and
    /// their total bounds what the spans leave unattributed.
    pump_ns: Cell<u64>,
    pumps: Cell<u64>,
    idle_pumps: Cell<u64>,
    replay_ns: Cell<u64>,
    proto: Rc<ProtoAcc>,
}

impl NetAcc {
    /// Which of the net layers and the protocols record calls.
    fn record(&self, net: bool, protocols: bool) {
        self.paused.set(!net);
        self.proto.paused.set(!protocols);
    }

    fn transport_ns(&self) -> f64 {
        self.send.est_ns() + self.poll.est_ns() + self.tick.est_ns()
    }
}

struct TimedDatagram {
    inner: Box<dyn Datagram>,
    acc: Rc<NetAcc>,
}

impl Datagram for TimedDatagram {
    fn send(&mut self, to: u32, bytes: &[u8]) {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.send(to, bytes);
        }
        self.acc.send.run(|| inner.send(to, bytes));
        bump(&self.acc.send_bytes, bytes.len() as u64);
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.poll();
        }
        let got = self.acc.poll.run(|| inner.poll());
        bump(&self.acc.poll_hits, u64::from(got.is_some()));
        got
    }

    fn tick(&mut self, now: u64) {
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.tick(now);
        }
        self.acc.tick.run(|| inner.tick(now));
    }
}

struct TimedJournal {
    inner: Box<dyn NetJournal>,
    acc: Rc<NetAcc>,
}

impl NetJournal for TimedJournal {
    fn append(&mut self, record: &Record) {
        bump(&self.acc.appends, 1);
        let inner = &mut self.inner;
        if self.acc.paused.get() {
            return inner.append(record);
        }
        self.acc.append.run(|| inner.append(record));
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        self.inner.records()
    }
}

/// What one cluster run is checked against.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub victim: u32,
    pub oracle_digest: u64,
    /// Appends a garbage line to the victim's journal before it is
    /// reopened (the self-check's quarantine case).
    pub corrupt_journal: bool,
}

/// The live cluster of one operation.
struct Cluster {
    spec: ClusterSpec,
    arena: Arc<NeighborTable>,
    hub: Rc<LoopbackHub>,
    chaos: ChaosConfig,
    dir: PathBuf,
    nodes: Vec<Option<NodeRuntime>>,
    acc: Option<Rc<NetAcc>>,
    ticks: u64,
}

impl Cluster {
    /// Boots every node with a fresh journal under `dir`.
    fn boot(
        spec: ClusterSpec,
        seed: u64,
        dir: &Path,
        acc: Option<Rc<NetAcc>>,
    ) -> Result<Cluster, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("journal dir {}: {e}", dir.display()))?;
        let arena = spec.arena();
        let mut cluster = Cluster {
            spec,
            hub: LoopbackHub::new(),
            chaos: ChaosConfig::smoke(seed),
            dir: dir.to_path_buf(),
            nodes: (0..arena.len()).map(|_| None).collect(),
            arena,
            acc,
            ticks: 0,
        };
        for node in 0..cluster.nodes.len() as u32 {
            cluster
                .open(node)
                .map_err(|e| format!("node {node} failed to boot: {e}"))?;
        }
        Ok(cluster)
    }

    fn journal_path(&self, node: u32) -> PathBuf {
        self.dir.join(format!("node-{node}.jsonl"))
    }

    /// Opens (or reopens from its journal) one node, wired as
    /// `LoopbackCluster` wires it but with a file journal.
    fn open(&mut self, node: u32) -> Result<(), JournalError> {
        let port = self.hub.attach(node);
        let mut chaos = self.chaos;
        chaos.seed ^= u64::from(node) << 17;
        let mut transport: Box<dyn Datagram> = Box::new(ChaosTransport::new(node, port, chaos));
        let file = FileJournal::open(&self.journal_path(node))?;
        let mut journal: Box<dyn NetJournal> = Box::new(file);
        let spec = self.spec;
        let proto = self.acc.as_ref().map(|a| Rc::clone(&a.proto));
        if let Some(acc) = &self.acc {
            transport = Box::new(TimedDatagram {
                inner: transport,
                acc: Rc::clone(acc),
            });
            journal = Box::new(TimedJournal {
                inner: journal,
                acc: Rc::clone(acc),
            });
        }
        let rt = NodeRuntime::open(
            Arc::clone(&self.arena),
            NodeId(node),
            &spec.instance_ids(),
            &mut |inst| match &proto {
                Some(p) => timed(spec.process_for(inst), p),
                None => spec.process_for(inst),
            },
            transport,
            journal,
            runtime_config(),
        )?;
        self.nodes[node as usize] = Some(rt);
        Ok(())
    }

    /// Pumps every live node once; true when all of them have finished.
    fn step(&mut self) -> bool {
        self.ticks += 1;
        let mut all_done = true;
        for rt in self.nodes.iter_mut().flatten() {
            let done = match &self.acc {
                None => rt.pump(),
                Some(acc) => {
                    let io = acc.send.calls() + acc.poll_hits.get();
                    let t0 = Instant::now();
                    let done = rt.pump();
                    bump(&acc.pump_ns, ns_since(t0));
                    bump(&acc.pumps, 1);
                    if acc.send.calls() + acc.poll_hits.get() == io {
                        bump(&acc.idle_pumps, 1);
                    }
                    done
                }
            };
            all_done &= done;
        }
        all_done
    }

    /// The operation: run until the victim is halfway through its
    /// rounds, kill it, keep the rest running, reopen it from its
    /// journal, and run until every node has finished.
    fn run(&mut self, victim: u32, corrupt_journal: bool) -> Result<(), String> {
        let v = victim as usize;
        while self.nodes[v]
            .as_ref()
            .is_some_and(|rt| rt.rounds_closed() < ROUNDS / 2)
        {
            self.step();
            if self.ticks > MAX_TICKS {
                return Err("wedged before the kill".to_string());
            }
        }
        self.nodes[v] = None;
        for _ in 0..DOWN_TICKS {
            self.step();
        }
        if corrupt_journal {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(self.journal_path(victim))
                .map_err(|e| e.to_string())?;
            file.write_all(b"{\"kind\":\"garbage\"}\n")
                .map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        if let Some(acc) = &self.acc {
            acc.record(false, false);
        }
        let reopened = self.open(victim);
        if let Some(acc) = &self.acc {
            acc.record(true, true);
            bump(&acc.replay_ns, ns_since(t0));
        }
        reopened
            .map_err(|e| format!("node {victim} quarantined: its journal did not replay: {e}"))?;
        while !self.step() {
            if self.ticks > MAX_TICKS {
                return Err("wedged after the restart".to_string());
            }
        }
        Ok(())
    }

    fn reports(&self) -> Vec<NodeReport> {
        self.nodes
            .iter()
            .flatten()
            .map(NodeRuntime::report)
            .collect()
    }
}

/// The exact counts of one cluster run; one seed must repeat them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub digest: u64,
    pub decisions: usize,
    pub ticks: u64,
    pub link_sent: u64,
    pub retransmits: u64,
    pub dup_rx: u64,
    pub acks_rx: u64,
    pub frames_ingested: u64,
    pub wire_errors: u64,
    pub forced_rounds: u64,
    pub journal_appends: u64,
    pub journal_bytes: u64,
}

/// Lines and bytes of every journal under `dir`.
fn journal_totals(dir: &Path) -> (u64, u64) {
    let mut lines = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(data) = std::fs::read(entry.path()) {
            lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
            bytes += data.len() as u64;
        }
    }
    (lines, bytes)
}

/// Every check one cluster run must pass: it ran to the end, no node is
/// quarantined or degraded, its commit digest is the sim oracle's, and
/// its exact counts repeat the reference's.
pub fn check(
    ran: &Result<(), String>,
    reports: &[NodeReport],
    counts: &Counts,
    oracle_digest: u64,
    reference: Option<&Counts>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(why) = ran {
        problems.push(why.clone());
    }
    let degraded = reports.iter().filter(|r| !r.healthy()).count();
    if degraded > 0 {
        problems.push(format!("{degraded} nodes ended degraded"));
    }
    if counts.digest != oracle_digest {
        problems.push(format!(
            "commit digest {:#018x} differs from the sim oracle's {oracle_digest:#018x}",
            counts.digest
        ));
    }
    if let Some(reference) = reference {
        if counts != reference {
            problems.push(format!(
                "counts {counts:?} differ from the seed's first run {reference:?}"
            ));
        }
    }
    problems
}

/// When one cluster run booted, started and ended.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub boot: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl OpTimes {
    pub fn boot_s(&self) -> f64 {
        (self.start - self.boot).as_secs_f64()
    }

    pub fn op_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One cluster run: boot (set-up), the timed operation, then the
/// checks. Returns when each phase began and the run's counts.
pub fn operation(
    plan: &Plan,
    dir: &Path,
    reference: Option<&Counts>,
    acc: Option<Rc<NetAcc>>,
    checks: &mut Checks,
) -> Option<(OpTimes, Counts)> {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(a) = &acc {
        a.record(false, true);
    }
    let boot = Instant::now();
    let mut cluster = match Cluster::boot(spec(), plan.seed, dir, acc) {
        Ok(c) => c,
        Err(why) => {
            checks.record(vec![why]);
            return None;
        }
    };
    if let Some(a) = &cluster.acc {
        a.record(true, true);
    }
    let start = Instant::now();
    let ran = cluster.run(plan.victim, plan.corrupt_journal);
    let times = OpTimes {
        boot,
        start,
        end: Instant::now(),
    };
    if let Some(a) = &cluster.acc {
        a.record(false, false);
    }
    let reports = cluster.reports();
    let summary =
        rbcast_net::cluster::summarize(&cluster.spec, reports.clone(), cluster.ticks, Vec::new());
    drop(cluster);
    let (journal_appends, journal_bytes) = journal_totals(dir);
    let mut counts = Counts {
        digest: summary.digest,
        decisions: summary.decisions.len(),
        ticks: summary.ticks,
        journal_appends,
        journal_bytes,
        ..Counts::default()
    };
    for r in &reports {
        counts.link_sent += r.link_totals.sent;
        counts.retransmits += r.link_totals.retransmits;
        counts.dup_rx += r.link_totals.dup_rx;
        counts.acks_rx += r.link_totals.acks_rx;
        counts.frames_ingested += r.stats.frames_ingested;
        counts.wire_errors += r.stats.wire_errors;
        counts.forced_rounds += r.stats.forced_rounds;
    }
    checks.record(check(
        &ran,
        &reports,
        &counts,
        plan.oracle_digest,
        reference,
    ));
    let _ = std::fs::remove_dir_all(dir);
    Some((times, counts))
}

/// The sim oracle re-wired from `ClusterSpec::sim_oracle` with spans,
/// for the traced run's `sim.*` and `grid.*` metrics. Returns its digest
/// and its summed sim counts.
fn traced_oracle(
    spec: &ClusterSpec,
    tr: &mut Tracer,
    acc: &Rc<ProtoAcc>,
) -> (u64, crate::sim::Counts) {
    let op = 0;
    let root = tr.open("net.oracle", op);
    let arena = tr.time("grid.arena_build", op, || spec.arena());
    let mut decisions = Vec::new();
    let mut counts = crate::sim::Counts::default();
    for inst in spec.instance_ids() {
        let mut net = tr.time("sim.network_new", op, || {
            Network::with_arena(Arc::clone(&arena), ChannelConfig::reliable(), |_| {
                timed(spec.process_for(inst), acc)
            })
        });
        let stats = tr.time("sim.run", op, || net.run(spec.rounds));
        counts.rounds += stats.rounds;
        counts.deliveries += stats.deliveries;
        counts.messages += stats.messages_sent;
        for id in arena.torus().node_ids() {
            if let Some((value, round)) = net.decision(id) {
                decisions.push((inst, id, value, round));
            }
        }
    }
    tr.close(root);
    counts.decisions = decisions.len();
    (commit_digest(&decisions), counts)
}

/// A journal directory, removed with everything in it when dropped.
struct RemovedOnDrop(PathBuf);

impl Drop for RemovedOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where this run's journals live: inside the working directory, unique
/// to the process.
pub fn journal_dir(op: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("net-chaos-{}-{op}", std::process::id()))
}

/// Runs `net-chaos`.
pub fn run(seed: u64, deadline: &Deadline, trace: bool) -> (Checks, Metrics, Tracer) {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tr = Tracer::new(Instant::now());
    let spec = spec();
    // The parity reference, outside every timed span.
    let oracle = spec.sim_oracle();
    let n_pairs = spec.arena().len() * spec.instances as usize;
    if oracle.decisions.len() != n_pairs {
        checks.record(vec![format!(
            "the sim oracle commits {} of {n_pairs} pairs",
            oracle.decisions.len()
        )]);
        return (checks, metrics, tr);
    }
    let arena = spec.arena();
    let plan_for = |seed: u64, k: u64, tr: &mut Tracer| -> Result<Plan, String> {
        let seed = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Ok(Plan {
            seed,
            victim: victim(seed, &arena, tr)?,
            oracle_digest: oracle.digest,
            corrupt_journal: false,
        })
    };
    let plans = match (0..SUB_SEEDS)
        .map(|k| plan_for(seed, k, &mut tr))
        .collect::<Result<Vec<Plan>, String>>()
    {
        Ok(p) => p,
        Err(why) => {
            checks.record(vec![why]);
            return (checks, metrics, tr);
        }
    };
    let mut references: Vec<Option<Counts>> = vec![None; plans.len()];
    // The first cluster run warms up the allocator, caches and file
    // system. It is checked, and sets its sub-seed's reference counts,
    // but is timed neither as set-up nor as an operation.
    match operation(&plans[0], &journal_dir(0), None, None, &mut checks) {
        Some((_, counts)) => references[0] = Some(counts),
        None => return (checks, metrics, tr),
    }
    // Each set-up boot gets a fresh journal directory, as each
    // operation's boot does. Closing the cluster and removing the
    // directory are clean-up: they happen after the boot is timed.
    let mut boots = 0;
    let boot_once = || {
        boots += 1;
        let dir = journal_dir(0).with_extension(format!("setup{boots}"));
        let booted = Cluster::boot(spec, plans[0].seed, &dir, None);
        let dir = RemovedOnDrop(dir);
        booted.map(|cluster| (cluster, dir))
    };
    let mut setup_s = match repeat_setup(boot_once) {
        Ok((_, secs)) => secs,
        Err(why) => {
            checks.record(vec![why]);
            return (checks, metrics, tr);
        }
    };
    let obs_before = obs_counts();
    let mut timing = Timing::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_counts = Vec::new();
    let acc = Rc::new(NetAcc::default());
    let mut op = 0;
    let mut runs = 1;
    loop {
        let t0 = Instant::now();
        let k = runs % plans.len();
        runs += 1;
        op += 1;
        let Some((times, counts)) = operation(
            &plans[k],
            &journal_dir(op),
            references[k].as_ref(),
            None,
            &mut checks,
        ) else {
            break;
        };
        setup_s.push(times.boot_s());
        untraced_s.push(times.op_s());
        timing.batch(
            times.op_s(),
            1,
            counts.frames_ingested,
            counts.decisions as u64,
        );
        let counts = *references[k].get_or_insert(counts);
        if trace {
            op += 1;
            let acc = Some(Rc::clone(&acc));
            if let Some((times, counts)) =
                operation(&plans[k], &journal_dir(op), Some(&counts), acc, &mut checks)
            {
                tr.record("net.boot", op, times.boot, times.start);
                tr.record("net.op", op, times.start, times.end);
                traced_s.push(times.op_s());
                traced_counts.push(counts);
            }
        }
        // Every sub-seed at least twice, so each repeats its counts.
        if runs >= 2 * plans.len() && deadline.no_room_after(t0) {
            break;
        }
    }
    let Some(first) = references[0] else {
        return (checks, metrics, tr);
    };
    if trace {
        let second = plan_for(seed.wrapping_add(1), 0, &mut Tracer::new(Instant::now()));
        match second {
            Ok(plan2) => {
                op += 1;
                if let Some((_, counts2)) =
                    operation(&plan2, &journal_dir(op), None, None, &mut checks)
                {
                    if counts2 == first {
                        checks.record(vec![
                            "a second seed repeated the first seed's counts".to_string()
                        ]);
                    }
                }
            }
            Err(why) => checks.record(vec![why]),
        }
        let journal_lines: u64 = traced_counts.iter().map(|c| c.journal_appends).sum();
        if acc.appends.get() != journal_lines {
            checks.record(vec![format!(
                "{} journal appends made, {journal_lines} lines on disk",
                acc.appends.get()
            )]);
        }
        let oracle_acc = Rc::new(ProtoAcc::default());
        let (digest, sim_counts) = traced_oracle(&spec, &mut tr, &oracle_acc);
        if digest != oracle.digest {
            checks.record(vec![
                "the traced sim oracle's digest differs from ClusterSpec::sim_oracle".to_string(),
            ]);
        }
        layer_metrics(
            &mut metrics,
            &tr,
            &oracle_acc,
            &sim_counts,
            &acc,
            &traced_counts,
            &traced_s,
            median(&setup_s),
        );
        let op_total: f64 = traced_s.iter().sum();
        let covered = (acc.pump_ns.get() + acc.replay_ns.get()) as f64 * 1e-9;
        crate::common_trace_metrics(
            &mut metrics,
            median(&traced_s),
            median(&untraced_s),
            ratio(op_total - covered, op_total),
            obs_before,
        );
    } else {
        timing.end_to_end(&mut metrics, &setup_s);
    }
    let _ = std::fs::remove_dir(".bench_out");
    (checks, metrics, tr)
}

/// The per-layer metrics of `net-chaos`: `sim.*` from the traced
/// oracle, the rest per traced cluster run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    oracle_acc: &ProtoAcc,
    sim_counts: &crate::sim::Counts,
    acc: &NetAcc,
    counts: &[Counts],
    traced_s: &[f64],
    boot_s: f64,
) {
    let ops = traced_s.len().max(1) as f64;
    let op_ns: f64 = traced_s.iter().sum::<f64>() * 1e9;
    let frac = |ns: f64| ratio(ns, op_ns);
    let mean = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64 / ops;
    let per_op = |x: u64| x as f64 / ops;
    let mean_span = |name: &str| ratio(tr.total(name), tr.durations(name).len() as f64);
    let run_s = tr.total("sim.run");
    let engine_self_s = run_s - oracle_acc.est_ns() * 1e-9;
    m.set("grid.arena_build_s", tr.total("grid.arena_build"), "s");
    m.set("adversary.place_s", mean_span("adversary.place"), "s");
    m.set("adversary.audit_s", mean_span("adversary.audit"), "s");
    m.set("adversary.faults", 1.0, "count");
    m.set("sim.network_new_s", tr.total("sim.network_new"), "s");
    m.set("sim.run_s", run_s, "s");
    m.set("sim.engine_self_s", engine_self_s, "s");
    m.set(
        "sim.engine_ns_per_delivery",
        ratio(engine_self_s * 1e9, sim_counts.deliveries as f64),
        "ns",
    );
    m.set("sim.rounds", f64::from(sim_counts.rounds), "count");
    m.set("sim.deliveries", sim_counts.deliveries as f64, "count");
    m.set("sim.messages", sim_counts.messages as f64, "count");
    crate::sim::protocol_metrics(m, &acc.proto, traced_s.len());
    m.set(
        "core.setup_frac",
        ratio(boot_s, boot_s + op_ns * 1e-9 / ops),
        "ratio",
    );
    m.set("core.engine.utilization", 0.0, "ratio");
    m.set("core.engine.task_s.p50", median(traced_s), "s");
    m.set("core.engine.task_s.p90", quantile(traced_s, 0.9), "s");
    let transport_ns = acc.transport_ns();
    let pump_ns = acc.pump_ns.get() as f64;
    // `on_start` runs at boot, outside every pump.
    let in_pump_protocols_ns = acc.proto.msg.est_ns() + acc.proto.end.est_ns();
    let pump_self_ns = pump_ns - transport_ns - acc.append.est_ns() - in_pump_protocols_ns;
    m.set("net.transport.frac", frac(transport_ns), "ratio");
    m.set(
        "net.transport.send_calls",
        per_op(acc.send.calls()),
        "count",
    );
    m.set(
        "net.transport.send_bytes",
        per_op(acc.send_bytes.get()),
        "count",
    );
    m.set(
        "net.transport.poll_calls",
        per_op(acc.poll.calls()),
        "count",
    );
    m.set(
        "net.transport.poll_hits",
        per_op(acc.poll_hits.get()),
        "count",
    );
    m.set(
        "net.journal.append_frac",
        frac(acc.append.est_ns()),
        "ratio",
    );
    m.set("net.journal.appends", mean(|c| c.journal_appends), "count");
    m.set("net.journal.bytes", mean(|c| c.journal_bytes), "count");
    m.set(
        "net.journal.replay_frac",
        frac(acc.replay_ns.get() as f64),
        "ratio",
    );
    m.set("net.runtime.pump_frac", frac(pump_ns), "ratio");
    m.set("net.runtime.pumps", per_op(acc.pumps.get()), "count");
    m.set(
        "net.runtime.self_frac",
        frac(pump_self_ns.max(0.0)),
        "ratio",
    );
    m.set(
        "net.runtime.idle_pump_frac",
        ratio(acc.idle_pumps.get() as f64, acc.pumps.get() as f64),
        "ratio",
    );
    m.set(
        "net.runtime.frames_ingested",
        mean(|c| c.frames_ingested),
        "count",
    );
    m.set("net.runtime.wire_errors", mean(|c| c.wire_errors), "count");
    m.set(
        "net.runtime.forced_rounds",
        mean(|c| c.forced_rounds),
        "count",
    );
    m.set("net.link.sent", mean(|c| c.link_sent), "count");
    m.set("net.link.retransmits", mean(|c| c.retransmits), "count");
    m.set("net.link.dup_rx", mean(|c| c.dup_rx), "count");
    m.set("net.link.acks_rx", mean(|c| c.acks_rx), "count");
    m.set(
        "net.link.first_send_frac",
        ratio(mean(|c| c.link_sent), mean(|c| c.link_sent + c.retransmits)),
        "ratio",
    );
    m.set("net.ticks", mean(|c| c.ticks), "count");
}

/// The `net.*` metrics of a workload that runs no network layer.
pub fn absent(m: &mut Metrics) {
    for name in NET_METRICS {
        m.set(
            name,
            0.0,
            if name.ends_with("frac") {
                "ratio"
            } else {
                "count"
            },
        );
    }
}

pub const NET_METRICS: [&str; 22] = [
    "net.transport.frac",
    "net.transport.send_calls",
    "net.transport.send_bytes",
    "net.transport.poll_calls",
    "net.transport.poll_hits",
    "net.journal.append_frac",
    "net.journal.appends",
    "net.journal.bytes",
    "net.journal.replay_frac",
    "net.runtime.pump_frac",
    "net.runtime.pumps",
    "net.runtime.self_frac",
    "net.runtime.idle_pump_frac",
    "net.runtime.frames_ingested",
    "net.runtime.wire_errors",
    "net.runtime.forced_rounds",
    "net.link.sent",
    "net.link.retransmits",
    "net.link.dup_rx",
    "net.link.acks_rx",
    "net.link.first_send_frac",
    "net.ticks",
];
