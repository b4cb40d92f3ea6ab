//! Fuel accounting is a function of the advice, not of the verifier's
//! execution configuration: the same (advice, limits) pair must yield
//! an identical verdict — and for accepted runs, an identical total
//! fuel bill — at every thread count. This is what
//! makes `ResourceExhausted { resource: ReplayFuel }` a reproducible
//! audit verdict rather than a scheduling accident.

use apps::App;
use karousos::{
    audit_encoded_with_options, encode_advice, run_instrumented_server, AuditOptions,
    CollectorMode, ExhaustMutator, Limits, RejectReason,
};
use proptest::prelude::*;
use workload::{Experiment, Mix};

const MATRIX: [usize; 2] = [1, 4];

fn matrix_verdicts(
    program: &kem::Program,
    trace: &kem::Trace,
    bytes: &[u8],
    isolation: kvstore::IsolationLevel,
    limits: Limits,
) -> Vec<Result<u64, RejectReason>> {
    MATRIX
        .iter()
        .map(|&threads| {
            let opts = AuditOptions {
                limits,
                ..AuditOptions::with_threads(threads)
            };
            audit_encoded_with_options(program, trace, bytes, isolation, opts)
                .map(|report| report.reexec.fuel_spent)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Honest advice: every configuration ACCEPTs and bills the same
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
        let verdicts = matrix_verdicts(
            &program, &out.trace, &bytes, exp.isolation, Limits::default(),
        );
        for (v, threads) in verdicts.iter().zip(MATRIX) {
            match v {
                Ok(fuel) => prop_assert!(
                    *fuel > 0,
                    "{app:?} seed={seed}: zero fuel billed for a non-empty replay"
                ),
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{app:?} seed={seed} threads={threads} rejected honest run: {e}"
                ))),
            }
        }
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{app:?} seed={seed}: fuel bill diverged across configs: {verdicts:?}"
        );
    }

    /// Loop-bombed advice under a tight budget: every configuration
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
        let verdicts = matrix_verdicts(&program, &out.trace, &bytes, exp.isolation, limits);
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "seed={seed} budget={fuel_budget}: verdict diverged across configs: {verdicts:?}"
        );
    }
}
