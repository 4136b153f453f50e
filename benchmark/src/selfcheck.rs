//! `--self-check`: shows that every output check passes a correct run
//! and fires on a deliberately wrong expectation.

use crate::net::{self, Plan};
use crate::sim::{self, Case, Counts, Faults};
use crate::stats::Checks;
use crate::trace::{ProtoAcc, Tracer};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, ProtocolKind};
use rbcast_grid::{Metric, NeighborTable, Torus};
use std::rc::Rc;
use std::time::Instant;

struct Report {
    all: bool,
}

impl Report {
    /// A check that must pass on a correct run.
    fn clean(&mut self, name: &str, problems: &[String]) {
        let ok = problems.is_empty();
        println!(
            "self-check {name}: {}",
            if ok { "passes" } else { "FLAGGED" }
        );
        for p in problems {
            println!("    {p}");
        }
        self.all &= ok;
    }

    /// A check that must fire on a wrong expectation.
    fn fires(&mut self, name: &str, problems: &[String]) {
        let ok = !problems.is_empty();
        println!(
            "self-check {name}: {}",
            if ok { "fires" } else { "DID NOT FIRE" }
        );
        if let Some(p) = problems.first() {
            println!("    {p}");
        }
        self.all &= ok;
    }
}

fn sim_checks(out: &mut Report) {
    let t = thresholds::crash_max_t(1) as usize;
    let case = Case::random_local(
        1,
        Torus::new(30, 30),
        ProtocolKind::Flood,
        Faults::Crash,
        t,
        5,
    );
    let arena = NeighborTable::build(&case.torus, case.r, Metric::Linf);
    let faults = case
        .prepare(&arena)
        .expect("the self-check input is within its bound");
    let (outcome, hash) = case.experiment().run_traced();
    let good = Counts::of(&outcome, hash);
    out.clean(
        "sim: a correct broadcast",
        &sim::check(&case, &outcome, hash, faults, Some(&good)),
    );

    let mut tr = Tracer::new(Instant::now());
    let (traced, traced_hash) = sim::run_replica(&case, &mut tr, 1, &Rc::new(ProtoAcc::default()));
    let mut problems = sim::check(&case, &traced, traced_hash, faults, Some(&good));
    if traced != outcome {
        problems.push("traced outcome differs from the untraced one".to_string());
    }
    out.clean(
        "sim: the traced replica reproduces hash and outcome",
        &problems,
    );

    let wrong_hash = Counts {
        hash: hash ^ 1,
        ..good
    };
    out.fires(
        "sim: wrong expected trace hash",
        &sim::check(&case, &outcome, hash, faults, Some(&wrong_hash)),
    );
    let wrong_count = Counts {
        deliveries: good.deliveries + 1,
        ..good
    };
    out.fires(
        "sim: wrong expected delivery count",
        &sim::check(&case, &outcome, hash, faults, Some(&wrong_count)),
    );
    out.fires(
        "sim: wrong expected fault count",
        &sim::check(&case, &outcome, hash, faults + 1, None),
    );
    let mut wrong_commit = outcome.clone();
    wrong_commit.committed_correct -= 1;
    wrong_commit.committed_wrong += 1;
    out.fires(
        "sim: an honest node commits a wrong value",
        &sim::check(&case, &wrong_commit, hash, faults, None),
    );

    // Theorem 4: a double strip of r(2r+1) crashes partitions the torus.
    let strip = Case {
        placement: Placement::DoubleStrip,
        t: thresholds::crash_impossible_t(1) as usize,
        ..Case::random_local(
            1,
            Torus::for_radius(1),
            ProtocolKind::Flood,
            Faults::Crash,
            0,
            0,
        )
    };
    let (o, h) = strip.experiment().run_traced();
    out.fires(
        "sim: honest nodes left undecided",
        &sim::check(&strip, &o, h, o.fault_count, None),
    );

    let (again, again_hash) = case.experiment().run_traced();
    let repeat = Counts::of(&again, again_hash) == good;
    out.fires(
        "sim: one seed run twice repeats its counts",
        &if repeat {
            vec!["counts repeat".to_string()]
        } else {
            Vec::new()
        },
    );
    let other = Case::random_local(
        1,
        Torus::new(30, 30),
        ProtocolKind::Flood,
        Faults::Crash,
        t,
        6,
    );
    let (o2, h2) = other.experiment().run_traced();
    out.clean(
        "sim: a second seed changes the counts",
        &if Counts::of(&o2, h2) == good {
            vec!["a second seed repeated the counts".to_string()]
        } else {
            Vec::new()
        },
    );
}

fn net_checks(out: &mut Report) {
    let spec = net::spec();
    let oracle = spec.sim_oracle();
    let seed = 3;
    let victim = net::victim(seed, &spec.arena(), &mut Tracer::new(Instant::now()))
        .expect("the self-check victim audits as one fault");
    let plan = Plan {
        seed,
        victim,
        oracle_digest: oracle.digest,
        corrupt_journal: false,
    };
    let mut checks = Checks::default();
    let Some((_, good)) = net::operation(&plan, &net::journal_dir(1), None, None, &mut checks)
    else {
        out.clean("net: a correct cluster run", &checks.reasons);
        return;
    };
    out.clean("net: a correct cluster run", &checks.reasons);

    let mut checks = Checks::default();
    let wrong = Plan {
        oracle_digest: oracle.digest ^ 1,
        ..plan
    };
    net::operation(&wrong, &net::journal_dir(2), Some(&good), None, &mut checks);
    out.fires("net: wrong expected oracle digest", &checks.reasons);

    let mut checks = Checks::default();
    let wrong_ticks = net::Counts {
        ticks: good.ticks + 1,
        ..good
    };
    net::operation(
        &plan,
        &net::journal_dir(3),
        Some(&wrong_ticks),
        None,
        &mut checks,
    );
    out.fires("net: wrong expected tick count", &checks.reasons);

    let mut checks = Checks::default();
    let corrupt = Plan {
        corrupt_journal: true,
        ..plan
    };
    net::operation(
        &corrupt,
        &net::journal_dir(4),
        Some(&good),
        None,
        &mut checks,
    );
    out.fires(
        "net: the restarted node is quarantined by a corrupt journal",
        &checks.reasons,
    );
    let _ = std::fs::remove_dir(".bench_out");
}

/// Runs every self-check; true when each behaved as expected.
pub fn run() -> bool {
    let mut out = Report { all: true };
    sim_checks(&mut out);
    let (clean, wrong) = crate::sweep::self_check();
    out.clean("sweep: a correct supervised pass", &clean);
    out.fires("sweep: wrong expected digest for one task", &wrong);
    net_checks(&mut out);
    println!(
        "self-check: {}",
        if out.all {
            "all checks behave"
        } else {
            "FAILED"
        }
    );
    out.all
}
