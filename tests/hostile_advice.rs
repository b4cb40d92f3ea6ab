//! Hostile-advice fault injection (the robustness keystone).
//!
//! The advice is attacker-controlled (§3), so the verifier owes three
//! guarantees on *every* input: it never panics (a panic is a
//! denial-of-audit), it never ACCEPTs advice whose semantics were
//! tampered with, and it still ACCEPTs advice whose representation
//! merely changed (Lemma 3: grouping does not affect the verdict).
//!
//! This harness takes honest runs of each paper application, applies
//! thousands of deterministic seeded mutations from the
//! `karousos::faultinject` catalogue — structured (drop / duplicate /
//! reorder log entries, forge values and dictating writes, corrupt
//! opcounts and emitters), wire-level (truncation, bit flips,
//! declared-length inflation), value-pool (dangling, forward and
//! swapped references, malformed, duplicate and worst-shaped nodes) and
//! table (dangling strings, forward parents, inflated counts, bad UTF-8,
//! a handler id too deep to afford) — and audits every mutant, checking
//! each outcome against its mutation's contract.

use std::collections::BTreeSet;

use apps::App;
use karousos::{
    encode_advice, honest_must_accept, run_instrumented_server, AuditReport, Auditor,
    CollectorMode, MutationClass, MutationOutcome, Mutator, PoolMutator, RejectReason,
    TableMutator, WireMutator,
};
use kem::{Program, Trace};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// The audit, with the bare reason the mutation contracts are stated in.
fn audit(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
) -> Result<AuditReport, RejectReason> {
    let audited = Auditor::default().audit(program, trace, bytes, isolation);
    audited.map_err(|failure| failure.reason)
}

/// Seeds tried per structured mutator per scenario.
const STRUCTURED_SEEDS: u64 = 25;
/// Seeds tried per wire mutator per scenario.
const WIRE_SEEDS: u64 = 30;

struct Scenario {
    app: App,
    isolation: IsolationLevel,
    workload_seed: u64,
}

fn scenarios() -> Vec<Scenario> {
    // One scenario per paper application, across isolation levels, so
    // every mutator finds targets (the wiki workload is transaction-
    // heavy, MOTD is variable-log-heavy).
    App::ALL
        .iter()
        .zip(IsolationLevel::ALL)
        .enumerate()
        .map(|(i, (app, iso))| Scenario {
            app: *app,
            isolation: iso,
            workload_seed: 1000 + i as u64,
        })
        .collect()
}

#[test]
fn hostile_advice_contract_holds_across_thousands_of_mutations() {
    let mut total_mutations = 0usize;
    let mut kinds_exercised: BTreeSet<&'static str> = BTreeSet::new();
    let mut cosmetic_accepts = 0usize;
    let mut violations: Vec<String> = Vec::new();

    for sc in scenarios() {
        let mix = if sc.app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::RW_MIXES[1]
        };
        let mut exp = Experiment::paper_default(sc.app, mix, 4, sc.workload_seed);
        exp.requests = 12;
        exp.isolation = sc.isolation;
        let program = sc.app.program();
        let (out, advice) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        )
        .expect("apps run cleanly");
        let honest_bytes = encode_advice(&advice);

        // Fault-injection verdicts are only meaningful against a
        // baseline the verifier accepts.
        honest_must_accept(&program, &out.trace, &honest_bytes, sc.isolation);

        let mut check = |mutation: karousos::Mutation| {
            total_mutations += 1;
            kinds_exercised.insert(mutation.mutator);
            let result = audit(&program, &out.trace, &mutation.bytes, sc.isolation);
            let outcome = MutationOutcome::of(&result);
            if mutation.class == MutationClass::Cosmetic
                && matches!(outcome, MutationOutcome::Accepted)
            {
                cosmetic_accepts += 1;
            }
            if let Some(why) = outcome.violation(mutation.class) {
                violations.push(format!(
                    "{} on {} @ {}: {} ({})",
                    mutation.mutator,
                    sc.app.name(),
                    sc.isolation,
                    why,
                    mutation.description,
                ));
            }
        };

        for m in Mutator::ALL {
            for seed in 0..STRUCTURED_SEEDS {
                if let Some(mutation) = m.apply(&advice, seed) {
                    check(mutation);
                }
            }
        }
        for m in WireMutator::ALL {
            for seed in 0..WIRE_SEEDS {
                if let Some(mutation) = m.apply(&honest_bytes, seed) {
                    check(mutation);
                }
            }
        }
        for m in PoolMutator::ALL {
            for seed in 0..WIRE_SEEDS {
                if let Some(mutation) = m.apply(&honest_bytes, seed) {
                    check(mutation);
                }
            }
        }
        for m in TableMutator::ALL {
            for seed in 0..4 {
                if let Some(mutation) = m.apply(&honest_bytes, seed) {
                    check(mutation);
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "{} contract violations:\n{}",
        violations.len(),
        violations.join("\n")
    );
    assert!(
        total_mutations >= 1000,
        "harness ran only {total_mutations} mutations; need ≥1000"
    );
    assert!(
        kinds_exercised.len() >= 10,
        "harness exercised only {} mutator kinds: {:?}",
        kinds_exercised.len(),
        kinds_exercised
    );
    assert!(
        cosmetic_accepts > 0,
        "the cosmetic control never ran — ACCEPT-side coverage is gone"
    );
}

/// The semantic mutators are each designed to trip a *specific*
/// defense; spot-check a few reject reasons so a refactor that
/// accidentally reroutes a rejection (still REJECT, wrong layer)
/// surfaces here.
#[test]
fn semantic_mutations_trip_the_designed_defense() {
    // One honest run per app: different apps exercise different advice
    // sections, so each mutator finds a target in at least one of them.
    let runs: Vec<_> = App::ALL
        .iter()
        .map(|&app| {
            let mix = if app == App::Wiki {
                Mix::Wiki
            } else {
                Mix::RW_MIXES[1]
            };
            let mut exp = Experiment::paper_default(app, mix, 4, 7);
            exp.requests = 10;
            let program = app.program();
            let (out, advice) = run_instrumented_server(
                &program,
                &exp.inputs(),
                &exp.server_config(),
                CollectorMode::Karousos,
            )
            .expect("apps run cleanly");
            let isolation = exp.isolation;
            honest_must_accept(&program, &out.trace, &encode_advice(&advice), isolation);
            (program, out, advice, isolation)
        })
        .collect();

    let reject = |m: Mutator| {
        let (program, out, mutation, isolation) = runs
            .iter()
            .find_map(|(program, out, advice, isolation)| {
                m.apply(advice, 3).map(|mu| (program, out, mu, *isolation))
            })
            .unwrap_or_else(|| panic!("{} found no target in any app", m.name()));
        audit(program, &out.trace, &mutation.bytes, isolation)
            .expect_err("semantic mutation accepted")
    };

    assert!(matches!(
        reject(Mutator::DuplicateHandlerLogEntry),
        RejectReason::InvalidLogOp { .. }
    ));
    assert!(matches!(
        reject(Mutator::PerturbOpnum),
        RejectReason::InvalidLogOp { .. }
    ));
    assert!(matches!(
        reject(Mutator::PerturbHandlerId),
        RejectReason::InvalidLogOp { .. }
    ));
    assert!(matches!(
        reject(Mutator::DropTag),
        RejectReason::MissingTag { .. }
    ));
    assert!(matches!(
        reject(Mutator::CorruptOpcount),
        RejectReason::OpcountMismatch { .. } | RejectReason::HandlerNotExecuted { .. }
    ));

    // A pool that breaks the format is refused where it is read; a
    // well-formed pool that tells another story gets to replay.
    let pool_reject_seeded = |m: PoolMutator, seed: u64| {
        let (program, out, mutation, isolation) = runs
            .iter()
            .find_map(|(program, out, advice, isolation)| {
                m.apply(&encode_advice(advice), seed)
                    .map(|mu| (program, out, mu, *isolation))
            })
            .unwrap_or_else(|| panic!("{} found no target in any app", m.name()));
        audit(program, &out.trace, &mutation.bytes, isolation)
            .expect_err("semantic mutation accepted")
    };
    let pool_reject = |m: PoolMutator| pool_reject_seeded(m, 3);
    for (m, label) in [
        (PoolMutator::DanglingRef, "pool ref"),
        (PoolMutator::ForwardRef, "pool ref"),
        (PoolMutator::BadWidth, "pool node width"),
        (PoolMutator::UnsortedSiblings, "pool node key order"),
    ] {
        match pool_reject(m) {
            RejectReason::MalformedAdvice { what } => {
                assert!(what.contains(label), "{}: {what}", m.name())
            }
            other => panic!("{}: expected malformed advice, got {other}", m.name()),
        }
    }
    assert!(matches!(
        pool_reject(PoolMutator::SwapRef),
        RejectReason::VarLogMismatch { .. } | RejectReason::StateOpMismatch { .. }
    ));

    // The tallest tree a pool may describe, every node on one path
    // full, is taken in, fed to a program that updates it, and refused
    // for what it holds; a level taller, it is refused where it is read.
    let (mut grew, mut too_tall) = (0, 0);
    for seed in 0..8 {
        match pool_reject_seeded(PoolMutator::TallTree, seed) {
            RejectReason::MalformedAdvice { what } => {
                assert!(what.contains("pool node tree too deep"), "{what}");
                too_tall += 1;
            }
            RejectReason::VarLogMismatch { .. } | RejectReason::StateOpMismatch { .. } => grew += 1,
            other => panic!("pool-tall-tree: {other}"),
        }
    }
    assert!(
        grew > 0 && too_tall > 0,
        "{grew} decoded, {too_tall} refused"
    );

    // A table that breaks the format is refused where it is read; a
    // handler id referred to past the budget is exhaustion, and so is a
    // table longer than the budget, whatever names its entries.
    let (program, out, advice, isolation) = &runs[0];
    let bytes = encode_advice(advice);
    for (m, label) in [
        (TableMutator::DanglingHid, "hid"),
        (TableMutator::ForwardParent, "hid parent"),
        (TableMutator::InflateCount, " len"),
        (TableMutator::BadUtf8, "string"),
    ] {
        let mutation = m.apply(&bytes, 3).expect("the tables have entries");
        match audit(program, &out.trace, &mutation.bytes, *isolation) {
            Err(RejectReason::MalformedAdvice { what }) => {
                assert!(what.contains(label), "{}: {what}", m.name())
            }
            other => panic!("{}: expected malformed advice, got {other:?}", m.name()),
        }
    }
    for m in [TableMutator::DeepChain, TableMutator::Flood] {
        let mutation = m.apply(&bytes, 3).expect("applies");
        assert!(matches!(
            audit(program, &out.trace, &mutation.bytes, *isolation),
            Err(RejectReason::ResourceExhausted {
                resource: karousos::ResourceKind::DecodeNodes,
                ..
            })
        ));
    }

    let truncated = WireMutator::Truncate
        .apply(&encode_advice(advice), 3)
        .expect("truncate applies");
    assert!(matches!(
        audit(program, &out.trace, &truncated.bytes, *isolation).unwrap_err(),
        RejectReason::MalformedAdvice { .. }
    ));
}

/// The shape of a pooled container is the server's to choose. The worst
/// it can choose — as tall as a pool may describe, every node full on
/// the path to where the program's next insert lands — is fed to replay,
/// grows a level there, and is compared entry by entry with the next
/// logged version: same entries, so ACCEPT, at every seed and without a
/// `VerifierInternal` on the way.
#[test]
fn a_history_recut_as_tall_as_a_pool_allows_still_accepts() {
    let mut exp = Experiment::paper_default(App::Motd, Mix::WriteHeavy, 4, 11);
    exp.requests = 320;
    let program = App::Motd.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("motd runs cleanly");
    let honest = encode_advice(&advice);
    honest_must_accept(&program, &out.trace, &honest, exp.isolation);
    for seed in 0..6 {
        let mutation = PoolMutator::RecutTall
            .apply(&honest, seed)
            .expect("a 241-entry history to re-cut");
        let result = audit(&program, &out.trace, &mutation.bytes, exp.isolation);
        assert!(
            MutationOutcome::of(&result)
                .violation(MutationClass::Cosmetic)
                .is_none(),
            "{}: {:?}",
            mutation.description,
            result.err().map(|r| r.to_string())
        );
    }
}
