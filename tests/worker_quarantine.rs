//! A panicking group worker must not wedge the audit or take the
//! process down. The worker pool catches the panic, and it becomes the
//! audit's `VerifierInternal` verdict at that group: like any other
//! failure, it ends the audit there, and no later group is merged.
//!
//! This file holds a SINGLE test function on purpose: the panic
//! injection hook (`inject_group_panic_for_tests`) is a one-shot
//! process-wide latch, so a concurrently running audit in the same
//! test binary could consume the armed panic. Keeping the whole
//! matrix inside one `#[test]` serialises every audit that might
//! observe it.

use karousos::{encode_advice, run_instrumented_server, Auditor, CollectorMode, RejectReason};
use kem::dsl::*;
use kem::{Program, ProgramBuilder, SchedPolicy, ServerConfig, Value};
use kvstore::IsolationLevel;
use obs::{CounterId, HistogramId, Obs};

fn branch_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("seen", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            swrite("seen", add(sread("seen"), lit(1i64))),
            iff(
                field(payload(), "b"),
                vec![respond(lit(1i64))],
                vec![respond(lit(2i64))],
            ),
        ],
    );
    b.request_handler("handle");
    b.build().unwrap()
}

#[test]
fn panicking_worker_ends_the_audit_at_its_group() {
    let program = branch_program();
    // Half the requests take each branch: two replay groups.
    let inputs: Vec<Value> = (0..8)
        .map(|i| Value::map([("b", Value::int(i % 2))]))
        .collect();
    let cfg = ServerConfig {
        concurrency: 2,
        policy: SchedPolicy::Random { seed: 41 },
        ..Default::default()
    };
    let (out, advice) =
        run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos).unwrap();
    let bytes = encode_advice(&advice);

    for threads in [1, 4] {
        // Arm the one-shot latch: the worker replaying group 0 panics.
        karousos::verifier::inject_group_panic_for_tests(0);
        let auditor = Auditor {
            threads,
            obs: Obs::enabled(),
            ..Auditor::default()
        };
        let verdict = auditor.audit(&program, &out.trace, &bytes, IsolationLevel::Serializable);
        match verdict.map_err(|failure| failure.reason) {
            Err(RejectReason::VerifierInternal { ref what }) => {
                assert!(
                    what.contains("injected"),
                    "threads={threads}: unexpected payload {what:?}"
                );
            }
            other => panic!("threads={threads}: expected VerifierInternal, got {other:?}"),
        }
        // The merge stopped at group 0: no group's replay was merged
        // and the audit formed no report.
        let shard = auditor.obs.snapshot().metrics;
        assert_eq!(
            shard.histogram_count(HistogramId::GroupFuelSpent),
            0,
            "threads={threads}: a group past the panic was merged"
        );
        assert_eq!(
            shard.counter(CounterId::GroupsFormed),
            0,
            "threads={threads}"
        );
    }

    // The latch is spent: an un-armed audit over the same advice still
    // accepts, proving injection leaves no residue.
    let auditor = Auditor {
        threads: 2,
        ..Auditor::default()
    };
    auditor
        .audit(&program, &out.trace, &bytes, IsolationLevel::Serializable)
        .expect("honest advice must accept once the injected panic is consumed");
}
