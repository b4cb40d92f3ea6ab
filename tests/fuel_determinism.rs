//! Fuel accounting is a function of the advice, not of the verifier's
//! execution configuration: the same (advice, limits) pair must yield
//! an identical verdict — and for accepted runs, an identical total
//! fuel bill — at every point of the shared matrix (`tests/common`).
//! This is what makes `ResourceExhausted { resource: ReplayFuel }` a
//! reproducible audit verdict rather than a scheduling accident.

mod common;

use apps::App;
use common::{audit_points, matrix, matrix_with, THREADS};
use karousos::{
    encode_advice, run_instrumented_server, run_instrumented_server_encoded, CollectorMode,
    ExhaustMutator, Limits, RejectReason, ResourceKind,
};
use kem::dsl::*;
use kem::{run_server, ExecHooks, HandlerId, ProgramBuilder, RequestId, ServerConfig, Value};
use kvstore::IsolationLevel;
use proptest::prelude::*;
use workload::{Experiment, Mix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Honest advice: every matrix point ACCEPTs and bills the same
    /// total fuel.
    #[test]
    fn honest_fuel_bill_is_config_independent(
        app_pick in 0usize..3,
        seed in 0u64..500,
        concurrency in 1usize..6,
    ) {
        let app = App::ALL[app_pick];
        let mix = if app == App::Wiki { Mix::Wiki } else { Mix::Mixed };
        let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
        exp.requests = 16;
        let program = app.program();
        let (out, advice) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        ).unwrap();
        let bytes = encode_advice(&advice);
        let verdict = audit_points(
            &program,
            &out.trace,
            &bytes,
            exp.isolation,
            &matrix(),
            &format!("{app:?} seed={seed}"),
        );
        match verdict {
            Ok(accepted) => prop_assert!(
                accepted.reexec.fuel_spent > 0,
                "{app:?} seed={seed}: zero fuel billed for a non-empty replay"
            ),
            Err(e) => return Err(TestCaseError::fail(format!(
                "{app:?} seed={seed} rejected honest run: {e}"
            ))),
        }
    }

    /// Loop-bombed advice under a tight budget: every matrix point
    /// REJECTs with the same `ResourceExhausted` verdict — same group,
    /// same spent, same limit.
    #[test]
    fn exhaustion_verdict_is_config_independent(
        seed in 0u64..500,
        fuel_budget in 1_000u64..50_000,
    ) {
        let mut exp = Experiment::paper_default(App::Stacks, Mix::Mixed, 4, seed);
        exp.requests = 12;
        let program = App::Stacks.program();
        let (out, advice) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        ).unwrap();
        let bytes = match ExhaustMutator::LoopBomb.apply(&advice, seed) {
            Some(m) => m.bytes,
            // No nondet ops in this run: nothing to bomb; accept-side
            // determinism is already covered above.
            None => return Ok(()),
        };
        let limits = Limits { replay_fuel: fuel_budget, ..Limits::default() };
        let _ = audit_points(
            &program,
            &out.trace,
            &bytes,
            exp.isolation,
            &matrix_with(&THREADS, limits),
            &format!("seed={seed} budget={fuel_budget}"),
        );
    }
}

/// Exhaustion at every unit of a small loop of fused windows
/// (`kem::bytecode`, "Operand fusion"): a window is charged head first,
/// then — after the local read — op by op, so whichever unit the budget
/// ends on, the replay must stop there, reporting `spent == limit + 1`
/// (where the first over-budget unit stops the meter), and ACCEPT from
/// the honest bill upwards.
#[test]
fn exhaustion_point_is_interpreter_independent_at_every_unit() {
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            let_("n", len(field(payload(), "s"))),
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), lit(3i64)),
                vec![
                    let_(
                        "n",
                        modulo(add(mul(local("n"), lit(5i64)), lit(3i64)), lit(11i64)),
                    ),
                    let_("i", add(local("i"), lit(1i64))),
                ],
            ),
            respond(add(local("n"), lit(1i64))),
        ],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let inputs = vec![Value::map([("s", Value::str("ab"))]); 3];
    let (out, bytes) = run_instrumented_server_encoded(
        &program,
        &inputs,
        &ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .expect("the loop runs");
    let audit = |replay_fuel: u64| {
        let limits = Limits {
            replay_fuel,
            ..Limits::default()
        };
        audit_points(
            &program,
            &out.trace,
            &bytes,
            IsolationLevel::Serializable,
            &matrix_with(&THREADS, limits),
            &format!("replay_fuel={replay_fuel}"),
        )
    };
    let bill = audit(u64::MAX)
        .expect("honest run accepted")
        .reexec
        .fuel_spent;
    // One group, three trips of 15 units and the straight-line rest.
    assert!((50..200).contains(&bill), "bill {bill}");
    for limit in 1..bill {
        assert_eq!(
            audit(limit),
            Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::ReplayFuel,
                group: Some(0),
                spent: limit + 1,
                limit,
            }),
            "replay_fuel={limit}"
        );
    }
    assert_eq!(audit(bill).map(|a| a.reexec.fuel_spent), Ok(bill));
}

/// The server's side of the test above, on the same program. The server
/// runs fused windows in place too (`kem::vm`): it charges a window op
/// by op and reports the `LoopBranch` tail's branch bit, so at every
/// budget below its bill it stops on the fuel meter, the branch bits it
/// reported never fall as the budget grows, and at the bill its trace
/// and advice are the unmetered run's, byte for byte.
#[test]
fn server_exhaustion_is_op_by_op_at_every_unit() {
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            let_("n", len(field(payload(), "s"))),
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), lit(3i64)),
                vec![
                    let_(
                        "n",
                        modulo(add(mul(local("n"), lit(5i64)), lit(3i64)), lit(11i64)),
                    ),
                    let_("i", add(local("i"), lit(1i64))),
                ],
            ),
            respond(add(local("n"), lit(1i64))),
        ],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let inputs = vec![Value::map([("s", Value::str("ab"))]); 3];

    /// Branch bits reported and fuel billed.
    #[derive(Default)]
    struct Probe {
        bits: u64,
        fuel: u64,
    }
    impl ExecHooks for Probe {
        fn on_branch(&mut self, _: bool) {
            self.bits += 1;
        }
        fn on_handler_fuel(&mut self, _: RequestId, _: &HandlerId, fuel: u64) {
            self.fuel += fuel;
        }
    }
    let config = |fuel_limit| ServerConfig {
        fuel_limit,
        ..ServerConfig::default()
    };
    let serve = |fuel_limit| {
        let mut probe = Probe::default();
        let out = run_server(&program, &inputs, &config(fuel_limit), &mut probe);
        (out.map(|_| ()).map_err(|e| e.message), probe)
    };
    let (unmetered, probe) = serve(u64::MAX);
    assert_eq!(unmetered, Ok(()));
    // Three trips and the exit, per request: four loop decisions.
    assert_eq!(probe.bits, 3 * 4, "one bit per loop decision");
    let bill = probe.fuel;
    assert!((50..200).contains(&bill), "bill {bill}");
    let mut bits = 0;
    for limit in 0..bill {
        let (out, probe) = serve(limit);
        assert_eq!(
            out,
            Err("interpreter fuel budget exhausted".to_string()),
            "fuel_limit={limit}"
        );
        assert!(probe.bits >= bits, "fuel_limit={limit}: bits fell");
        bits = probe.bits;
    }
    let (at_bill, probe) = serve(bill);
    assert_eq!(at_bill, Ok(()));
    assert_eq!(probe.bits, 3 * 4);
    let collect = |fuel_limit| {
        run_instrumented_server_encoded(
            &program,
            &inputs,
            &config(fuel_limit),
            CollectorMode::Karousos,
        )
        .expect("runs within its bill")
    };
    let ((unmetered, advice), (billed, billed_advice)) = (collect(u64::MAX), collect(bill));
    assert_eq!(billed.trace, unmetered.trace);
    assert_eq!(billed_advice, advice);
}
