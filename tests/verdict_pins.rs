//! Verdict pins across commits.
//!
//! The equivalence suites (`parallel_equivalence`, `bytecode_equivalence`,
//! `borrowed_audit`, …) compare configurations of *one* commit with each
//! other, so a refactor that changed a reject class everywhere at once
//! would pass them all. This suite compares against a committed table
//! (`tests/verdict_pins.tsv`): for every paper app × workload seed it
//! pins the honest run's ACCEPT fingerprint (`groups/fuel/nodes/edges`)
//! and, for every `Mutator` / `WireMutator` / `ExhaustMutator` /
//! `PoolMutator` / `TableMutator` × a few seeds, the verdict's [`RejectReason::kind`] and full message — the
//! message names the coordinate a rejection reports, so "same class,
//! different operation" is caught too.
//!
//! Maps in a 12-request fixture fit in one leaf, so the two mutators
//! that forge a map write off or at the new key's path also run on a
//! larger MOTD and wiki fixture, at 1 and 4 threads; those rows come
//! last and name the fixture's size and the thread count.
//!
//! The table is data, not expectation: when a change is *meant* to move
//! a verdict, run the suite, read the diff it prints, and replace the
//! table with the `verdict_pins.actual.tsv` it writes to
//! `CARGO_TARGET_TMPDIR`.

mod common;

use apps::App;
use karousos::{
    encode_advice, run_instrumented_server, Auditor, CollectorMode, ExhaustMutator, Limits,
    Mutation, Mutator, PoolMutator, TableMutator, WireMutator,
};
use workload::{Experiment, Mix};

const WORKLOAD_SEEDS: [u64; 2] = [5, 23];
const STRUCTURED_SEEDS: u64 = 4;
const WIRE_SEEDS: u64 = 6;
const EXHAUST_SEEDS: u64 = 2;
const TABLE_SEEDS: u64 = 3;

/// Budgets tight enough that the exhaustion vectors trip them on a
/// 12-request fixture (the defaults would let `edge-explosion` through
/// the volume gate and into gigabytes of graph).
fn tight_limits() -> Limits {
    Limits {
        decode_max_nodes: 1 << 15,
        dict_max_entries: 1 << 12,
        graph_max_nodes: 1 << 14,
        max_group_width: 11,
        ..Limits::default()
    }
}

fn verdict_columns(
    program: &kem::Program,
    trace: &kem::Trace,
    bytes: &[u8],
    isolation: kvstore::IsolationLevel,
    limits: Limits,
) -> String {
    verdict_columns_at(program, trace, bytes, isolation, limits, 1)
}

fn verdict_columns_at(
    program: &kem::Program,
    trace: &kem::Trace,
    bytes: &[u8],
    isolation: kvstore::IsolationLevel,
    limits: Limits,
    threads: usize,
) -> String {
    let auditor = Auditor {
        limits,
        threads,
        ..Auditor::default()
    };
    let report = auditor.audit(program, trace, bytes, isolation);
    common::verdict_columns(&common::comparable(report))
}

fn actual_table() -> String {
    let mut out = String::new();
    // The vectors that came with the value pool, and then with the
    // tables, get their rows after everyone else's, so the rows pinned
    // before them keep their place.
    let (mut pool_rows, mut table_rows) = (String::new(), String::new());
    for app in App::ALL {
        for wseed in WORKLOAD_SEEDS {
            let mix = if app == App::Wiki {
                Mix::Wiki
            } else {
                Mix::RW_MIXES[1]
            };
            let mut exp = Experiment::paper_default(app, mix, 4, wseed);
            exp.requests = 12;
            let program = app.program();
            let (run, advice) = run_instrumented_server(
                &program,
                &exp.inputs(),
                &exp.server_config(),
                CollectorMode::Karousos,
            )
            .expect("apps run cleanly");
            let honest = encode_advice(&advice);
            let mut row = |mutator: &str, mseed: u64, bytes: &[u8], limits: Limits| {
                let out = if mutator.starts_with("pool-") {
                    &mut pool_rows
                } else if mutator.starts_with("table-") {
                    &mut table_rows
                } else {
                    &mut out
                };
                out.push_str(&format!(
                    "{}\t{wseed}\t{mutator}\t{mseed}\t{}\n",
                    app.name(),
                    verdict_columns(&program, &run.trace, bytes, exp.isolation, limits)
                ));
            };
            row("honest", 0, &honest, Limits::default());
            let mut mutated = |m: Option<Mutation>, mseed: u64, limits: Limits| {
                if let Some(m) = m {
                    row(m.mutator, mseed, &m.bytes, limits);
                }
            };
            for m in Mutator::ALL {
                for mseed in 0..STRUCTURED_SEEDS {
                    mutated(m.apply(&advice, mseed), mseed, Limits::default());
                }
            }
            for m in WireMutator::ALL {
                for mseed in 0..WIRE_SEEDS {
                    mutated(m.apply(&honest, mseed), mseed, Limits::default());
                }
            }
            for m in ExhaustMutator::ALL {
                for mseed in 0..EXHAUST_SEEDS {
                    mutated(m.apply(&advice, mseed), mseed, tight_limits());
                }
            }
            for m in PoolMutator::ALL {
                for mseed in 0..WIRE_SEEDS {
                    mutated(m.apply(&honest, mseed), mseed, Limits::default());
                }
            }
            for m in TableMutator::ALL {
                for mseed in 0..TABLE_SEEDS {
                    mutated(m.apply(&honest, mseed), mseed, Limits::default());
                }
            }
        }
    }
    out + &pool_rows + &table_rows + &forged_rows()
}

/// The map-forging pool mutators on fixtures whose maps outgrow a leaf.
fn forged_rows() -> String {
    let mut out = String::new();
    for (app, mix, requests) in [
        (App::Motd, Mix::WriteHeavy, 40),
        (App::Wiki, Mix::Wiki, 100),
    ] {
        let wseed = WORKLOAD_SEEDS[0];
        let mut exp = Experiment::paper_default(app, mix, 4, wseed);
        exp.requests = requests;
        let program = app.program();
        let (run, advice) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        )
        .expect("apps run cleanly");
        let honest = encode_advice(&advice);
        for m in [PoolMutator::ForgeOffPath, PoolMutator::ForgeAtKey] {
            for mseed in 0..WIRE_SEEDS {
                let mutation = m.apply(&honest, mseed).expect("a map past one leaf");
                for threads in [1, 4] {
                    out.push_str(&format!(
                        "{}/{requests}\t{wseed}\t{}\t{mseed}\tthreads={threads}\t{}\n",
                        app.name(),
                        mutation.mutator,
                        verdict_columns_at(
                            &program,
                            &run.trace,
                            &mutation.bytes,
                            exp.isolation,
                            Limits::default(),
                            threads
                        )
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn verdicts_match_the_committed_table() {
    common::assert_pinned(
        "verdict_pins",
        include_str!("verdict_pins.tsv"),
        &actual_table(),
    );
}
