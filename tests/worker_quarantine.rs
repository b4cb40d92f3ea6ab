//! Worker supervision: a panicking group worker must not wedge the
//! audit or take the process down. The panic is caught, the group is
//! quarantined to a deterministic `VerifierInternal` verdict, the
//! remaining groups still replay (graceful degradation), and obs
//! records the incident.
//!
//! This file holds a SINGLE test function on purpose: the panic
//! injection hook (`inject_group_panic_for_tests`) is a one-shot
//! process-wide latch, so a concurrently running audit in the same
//! test binary could consume the armed panic. Keeping the whole
//! matrix inside one `#[test]` serialises every audit that might
//! observe it.

use karousos::{
    audit_encoded_with_obs, encode_advice, run_instrumented_server, AuditOptions, CollectorMode,
    Limits, RejectReason,
};
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
fn panicking_worker_is_quarantined_and_other_groups_finish() {
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
        let obs = Obs::enabled();
        let opts = AuditOptions {
            limits: Limits::default(),
            ..AuditOptions::with_threads(threads)
        };
        let verdict = audit_encoded_with_obs(
            &program,
            &out.trace,
            &bytes,
            IsolationLevel::Serializable,
            opts,
            &obs,
        );
        match verdict {
            Err(RejectReason::VerifierInternal { ref what }) => {
                assert!(
                    what.contains("injected"),
                    "threads={threads}: unexpected payload {what:?}"
                );
            }
            other => panic!("threads={threads}: expected quarantine verdict, got {other:?}"),
        }
        let shard = obs.snapshot().metrics;
        assert_eq!(
            shard.counter(CounterId::GroupsQuarantined),
            1,
            "threads={threads}"
        );
        assert!(
            shard.counter(CounterId::PanicsCaught) >= 1,
            "threads={threads}"
        );
        // Graceful degradation: the surviving group still replayed —
        // its per-group fuel sample landed in the histogram even
        // though group 0 died before reporting.
        assert!(
            shard.histogram_count(HistogramId::GroupFuelSpent) >= 1,
            "threads={threads}: surviving group never replayed"
        );
        assert!(
            shard.counter(CounterId::ReplayFuelSpent) > 0,
            "threads={threads}: no fuel accounted for surviving group"
        );
    }

    // The latch is spent: an un-armed audit over the same advice still
    // accepts, proving injection leaves no residue.
    let opts = AuditOptions::with_threads(2);
    audit_encoded_with_obs(
        &program,
        &out.trace,
        &bytes,
        IsolationLevel::Serializable,
        opts,
        &Obs::noop(),
    )
    .expect("honest advice must accept once the injected panic is consumed");
}
