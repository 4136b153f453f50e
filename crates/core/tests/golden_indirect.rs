//! Golden differential matrix for the indirect-report protocols.
//!
//! The constants below were captured from the pre-packing
//! implementation (heap-allocated relay chains, `BTreeMap`-keyed
//! evidence) immediately before the compact-chain rewrite landed, and
//! the packed implementation must reproduce them **bit-for-bit**: the
//! FNV trace hash folds every delivery's `(round, index, receiver,
//! claimed)` tuple plus each round's decided count, so hash equality
//! pins per-node, per-round behavior — not just aggregate counts. Any
//! future change to chain representation, evidence indexing, caching,
//! or forwarding order that alters protocol behavior in any observable
//! way fails this test; a pure performance change passes untouched.
//!
//! The matrix spans both §VI variants (full, 3 relays, two-level
//! commit; simplified, 1 relay, one-level) plus a custom 2-relay
//! configuration, all three fault behaviors (crash-stop, value-liar,
//! chain-forger), clustered / random-local / Bernoulli placements, and
//! square and non-square tori. Row 8 deliberately over-seeds faults
//! past the tolerance bound, pinning behavior on the wrong-commit path
//! too. Rows 9–13 were captured from the per-node-outbox engine
//! immediately before the shared-outbox rewrite. They pin transmission
//! order for flood with crash faults, CPA with liars, persistent flood,
//! a lossy channel with jammers and a spoofing channel.

use rbcast_adversary::Placement;
use rbcast_core::{engine, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Torus;
use rbcast_protocols::{CommitRule, IndirectConfig};
use rbcast_sim::ChannelConfig;

/// One pinned row: experiment constructor paired with the captured
/// baseline `(hash, correct, wrong, undecided, rounds, deliveries,
/// messages)`.
struct Golden {
    make: fn() -> Experiment,
    hash: u64,
    correct: usize,
    wrong: usize,
    undecided: usize,
    rounds: u32,
    deliveries: u64,
    messages: u64,
}

fn custom_two_relay() -> ProtocolKind {
    ProtocolKind::IndirectCustom(IndirectConfig {
        max_relays: 2,
        rule: CommitRule::TwoLevel,
    })
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectSimplified)
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Liar)
            },
            hash: 0x0e92_611d_d161_da05,
            correct: 143,
            wrong: 0,
            undecided: 0,
            rounds: 8,
            deliveries: 10232,
            messages: 1344,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectSimplified)
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Forger)
            },
            hash: 0xfd80_5df4_cc45_b905,
            correct: 143,
            wrong: 0,
            undecided: 0,
            rounds: 8,
            deliveries: 10296,
            messages: 1352,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectSimplified)
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 7,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::CrashStop)
            },
            hash: 0xc99e_d384_37f2_eedd,
            correct: 135,
            wrong: 0,
            undecided: 0,
            rounds: 8,
            deliveries: 7930,
            messages: 1136,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectFull)
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 99,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::Forger)
            },
            hash: 0x9311_baf2_849d_1c52,
            correct: 134,
            wrong: 0,
            undecided: 0,
            rounds: 7,
            deliveries: 56800,
            messages: 9435,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectFull)
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Liar)
            },
            hash: 0x6be6_a200_5f22_b93d,
            correct: 143,
            wrong: 0,
            undecided: 0,
            rounds: 7,
            deliveries: 38064,
            messages: 6845,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectFull)
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 3,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::CrashStop)
            },
            hash: 0x1c23_a921_c22a_0b80,
            correct: 136,
            wrong: 0,
            undecided: 0,
            rounds: 7,
            deliveries: 27774,
            messages: 5288,
        },
        Golden {
            make: || {
                Experiment::new(1, custom_two_relay())
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Forger)
            },
            hash: 0x5fa3_d4cc_0390_7a61,
            correct: 143,
            wrong: 0,
            undecided: 0,
            rounds: 7,
            deliveries: 29488,
            messages: 4997,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectSimplified)
                    .with_torus(Torus::new(24, 9))
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Liar)
            },
            hash: 0xd999_9207_24ca_a621,
            correct: 215,
            wrong: 0,
            undecided: 0,
            rounds: 12,
            deliveries: 14200,
            messages: 1928,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::IndirectFull)
                    .with_torus(Torus::new(18, 18))
                    .with_t(1)
                    .with_placement(Placement::Bernoulli { p: 0.05, seed: 2 })
                    .with_fault_kind(FaultKind::Forger)
            },
            hash: 0x0875_61db_345f_fa54,
            correct: 69,
            wrong: 240,
            undecided: 0,
            rounds: 6,
            deliveries: 115_688,
            messages: 20963,
        },
        // Rows 9-13 pin transmission order for the other protocols and
        // the §X channels. The dense oracle shares the sparse engine's
        // outbox collection, so these hashes, not engine parity, are
        // what catch a reordering there.
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::Flood)
                    .with_t(2)
                    .with_placement(Placement::RandomLocal {
                        t: 2,
                        seed: 5,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::CrashStop)
            },
            hash: 0xfbc5_7ab1_ffd7_9a20,
            correct: 120,
            wrong: 0,
            undecided: 0,
            rounds: 6,
            deliveries: 650,
            messages: 120,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::Cpa)
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 11,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::Liar)
            },
            hash: 0x1ce9_6ea9_8bf8_25b6,
            correct: 135,
            wrong: 0,
            undecided: 0,
            rounds: 10,
            deliveries: 1680,
            messages: 215,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::PersistentFlood { repeats: 3 })
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 4,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::CrashStop)
                    .with_early_termination(false)
            },
            hash: 0xb9c4_55a0_c97a_1f42,
            correct: 134,
            wrong: 0,
            undecided: 0,
            rounds: 9,
            deliveries: 2976,
            messages: 402,
        },
        Golden {
            make: || {
                // Jammers default to the placed (silent) faults.
                Experiment::new(1, ProtocolKind::PersistentFlood { repeats: 2 })
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed: 8,
                        attempts: 30,
                    })
                    .with_fault_kind(FaultKind::Silent)
                    .with_channel(ChannelConfig::lossy(0.2, 2, 42).with_jammers(Vec::new(), 2))
            },
            hash: 0x473b_3d90_6d69_e3ad,
            correct: 134,
            wrong: 0,
            undecided: 0,
            rounds: 7,
            deliveries: 1782,
            messages: 265,
        },
        Golden {
            make: || {
                Experiment::new(1, ProtocolKind::Cpa)
                    .with_t(1)
                    .with_placement(Placement::FrontierCluster { t: 1 })
                    .with_fault_kind(FaultKind::Spoofer)
                    .with_channel(ChannelConfig::reliable().with_spoofing())
            },
            hash: 0x1ff2_39ac_a2df_3a86,
            correct: 72,
            wrong: 71,
            undecided: 0,
            rounds: 9,
            deliveries: 1192,
            messages: 152,
        },
    ]
}

#[test]
fn packed_chains_reproduce_the_prechange_baseline_bit_for_bit() {
    let rows = goldens();
    let grid: Vec<Experiment> = rows.iter().map(|g| (g.make)()).collect();
    let results = engine::run_experiments_traced(&grid, 1);
    assert_eq!(results.len(), rows.len());
    for (i, (g, (o, h))) in rows.iter().zip(&results).enumerate() {
        assert_eq!(
            *h, g.hash,
            "row {i}: trace hash {h:#018x} diverged from the pre-packing \
             baseline {:#018x}",
            g.hash
        );
        let got = (
            o.committed_correct,
            o.committed_wrong,
            o.undecided,
            o.stats.rounds,
            o.stats.deliveries,
            o.stats.messages_sent,
        );
        let want = (
            g.correct,
            g.wrong,
            g.undecided,
            g.rounds,
            g.deliveries,
            g.messages,
        );
        assert_eq!(got, want, "row {i}: outcome diverged from baseline");
    }
}

#[test]
fn golden_matrix_is_thread_count_invariant() {
    let grid: Vec<Experiment> = goldens().iter().map(|g| (g.make)()).collect();
    let base = engine::run_experiments_traced(&grid, 1);
    for threads in [2usize, 8] {
        let other = engine::run_experiments_traced(&grid, threads);
        assert_eq!(base, other, "thread divergence at {threads}");
    }
}
