//! SCALE — throughput of the sparse wavefront engine at 10⁴, 10⁵ and
//! 10⁶ nodes (fault-free flood, CPA and simplified indirect-report at
//! r = 1), written to `BENCH_scale.json` at the workspace root.
//!
//! The sparse engine only touches frontier nodes each round, so a
//! single broadcast wave over an `n`-node torus costs O(total
//! deliveries), not O(n · rounds); this bin is the gate that keeps it
//! that way. Each cell is one run on a `side × side` torus timed with
//! the sanctioned [`rbcast_core::obs`] stopwatch, reporting nodes/sec
//! (population over wall time — the headline scaling number) and
//! rounds/sec.
//!
//! `-- --smoke` (run by `ci.sh`) executes only the 10⁴ cells, reruns
//! each on the dense oracle engine, and fails unless the trace hashes
//! are byte-identical and every sparse run lands under the wall budget.
//! No JSON is written in smoke mode.

use rbcast_bench::perf::{self, ScaleCell};
use rbcast_core::{obs, EngineKind, Experiment, ProtocolKind};
use rbcast_grid::Torus;
use std::path::Path;

/// The protocol axis: label and kind, fault-free at the protocol's
/// default `t`. `IndirectSimplified` stands in for the indirect-report
/// family — the full protocol's report traffic is quadratic in the
/// neighborhood and is benched separately (see DESIGN.md).
const PROTOCOLS: [(&str, ProtocolKind); 3] = [
    ("flood", ProtocolKind::Flood),
    ("cpa", ProtocolKind::Cpa),
    ("indirect", ProtocolKind::IndirectSimplified),
];

/// The size axis: torus sides giving ~10⁴, ~10⁵ and 10⁶ nodes.
const SIDES: [u32; 3] = [100, 316, 1000];

/// Per-cell wall budget for the smoke gate, milliseconds. A 10⁴-node
/// release-build run completes in well under a second on one core; the
/// budget is generous so CI noise cannot flake the gate, while still
/// catching an accidental return to O(n · rounds) scanning (which
/// multiplies the 10⁴ cell several-fold).
const SMOKE_BUDGET_MS: f64 = 30_000.0;

/// Throughput floor for the indirect-report 10⁴ smoke cell, nodes/sec.
/// The packed-chain fast path clears 100k nodes/s in release on one
/// core; the pre-packing implementation managed ~30k. The floor sits
/// far below both so machine noise cannot flake CI, yet a return to
/// per-delivery chain allocation (which costs a multiple, not a few
/// percent) still trips it.
const INDIRECT_SMOKE_FLOOR_NODES_PER_SEC: f64 = 10_000.0;

/// One fault-free broadcast on a `side × side` torus under `engine`.
fn experiment(kind: ProtocolKind, side: u32, engine: EngineKind) -> Experiment {
    Experiment::new(1, kind)
        .with_torus(Torus::new(side, side))
        .with_engine(engine)
}

/// Runs one cell and times it. Returns the cell plus the trace hash so
/// the smoke gate can compare engines.
fn run_cell(label: &str, kind: ProtocolKind, side: u32, engine: EngineKind) -> (ScaleCell, u64) {
    let exp = experiment(kind, side, engine);
    // Each cell reports its own peak, not the running maximum of the
    // cells before it; without the reset there is no per-cell figure.
    let rss_reset = perf::reset_peak_rss();
    let t0 = obs::Stopwatch::start();
    let (outcome, hash) = exp.run_traced();
    let wall_ms = t0.elapsed_ms();
    let nodes = (side as usize) * (side as usize);
    assert!(
        outcome.all_honest_correct(),
        "{label}@{side}: fault-free broadcast must reach every node"
    );
    let cell = ScaleCell {
        protocol: label.to_string(),
        side: side as usize,
        nodes,
        rounds: outcome.stats.rounds,
        deliveries: outcome.stats.deliveries,
        messages: outcome.stats.messages_sent,
        wall_ms,
        peak_rss_kb: rss_reset.then(perf::peak_rss_kb).flatten(),
    };
    let rss = match cell.peak_rss_kb {
        Some(kb) => format!(", peak rss {} MB", kb / 1024),
        None => String::new(),
    };
    println!(
        "{label:>9} side {side:>4} ({nodes:>7} nodes): {} rounds, {} deliveries \
         in {:.1} ms ({:.0} nodes/s, {:.0} rounds/s{rss})",
        cell.rounds,
        cell.deliveries,
        cell.wall_ms,
        cell.nodes_per_sec(),
        cell.rounds_per_sec()
    );
    (cell, hash)
}

/// The CI gate: 10⁴-node cells only, each checked against the dense
/// oracle for byte-identical trace hashes and against the wall budget.
fn smoke() -> ! {
    let mut ok = true;
    for (label, kind) in PROTOCOLS {
        let (cell, sparse_hash) = run_cell(label, kind, 100, EngineKind::Sparse);
        let (_, dense_hash) = run_cell(label, kind, 100, EngineKind::Dense);
        if sparse_hash != dense_hash {
            eprintln!(
                "scale smoke FAILED: {label}@100 sparse hash {sparse_hash:#018x} \
                 != dense oracle hash {dense_hash:#018x}"
            );
            ok = false;
        }
        if cell.wall_ms > SMOKE_BUDGET_MS {
            eprintln!(
                "scale smoke FAILED: {label}@100 took {:.0} ms (budget {:.0} ms)",
                cell.wall_ms, SMOKE_BUDGET_MS
            );
            ok = false;
        }
        if label == "indirect" && cell.nodes_per_sec() < INDIRECT_SMOKE_FLOOR_NODES_PER_SEC {
            eprintln!(
                "scale smoke FAILED: indirect@100 ran at {:.0} nodes/s \
                 (floor {INDIRECT_SMOKE_FLOOR_NODES_PER_SEC:.0})",
                cell.nodes_per_sec()
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("scale smoke passed: sparse matches the dense oracle at 10^4 nodes");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
    }
    let mut cells = Vec::new();
    for side in SIDES {
        for (label, kind) in PROTOCOLS {
            let (cell, _) = run_cell(label, kind, side, EngineKind::Sparse);
            cells.push(cell);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    perf::write_scale_json(&root.join("BENCH_scale.json"), "sparse", &cells);
}
