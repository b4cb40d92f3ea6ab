//! Randomized Completeness: honest runs accept across randomly drawn
//! configurations (app, mix, seed, concurrency, isolation, mode) — and
//! so does Lemma 3's ungrouped side, the same bytes with every request
//! tagged on its own, with the same execution graph.

use apps::App;
use karousos::{encode_advice, run_instrumented_server, singleton_tags, Auditor, CollectorMode};
use kvstore::IsolationLevel;
use proptest::prelude::*;
use workload::{Experiment, Mix};

proptest! {
    // Each case runs a full server + audit; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_runs_always_accept(
        app_pick in 0usize..3,
        mix_pick in 0usize..3,
        seed in 0u64..1_000,
        concurrency in 1usize..12,
        iso_pick in 0usize..3,
        orochi in any::<bool>(),
    ) {
        let app = App::ALL[app_pick];
        let mix = if app == App::Wiki { Mix::Wiki } else { Mix::RW_MIXES[mix_pick] };
        let isolation = IsolationLevel::ALL[iso_pick];
        let mode = if orochi { CollectorMode::OrochiJs } else { CollectorMode::Karousos };

        let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
        exp.requests = 25;
        exp.isolation = isolation;
        let program = app.program();
        let (out, advice) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            mode,
        ).expect("apps run cleanly");

        // Audit through the wire form, exercising codec + verifier.
        let bytes = encode_advice(&advice);
        let run = format!(
            "{} {} c={} seed={} iso={} {:?}",
            app.name(), mix.name(), concurrency, seed, isolation, mode
        );
        let report = Auditor::default()
            .audit(&program, &out.trace, &bytes, isolation)
            .map_err(|e| TestCaseError::fail(format!("rejected honest run: {run}: {e}")))?;

        // Lemma 3: every request a group of its own agrees with the
        // batched audit.
        let singletons = singleton_tags(&bytes, &out.trace).expect("honest tags parse");
        let ooo = Auditor::default()
            .audit(&program, &out.trace, &singletons, isolation)
            .map_err(|e| TestCaseError::fail(format!("OOOAudit rejected {run}: {e}")))?;
        prop_assert_eq!(report.graph_nodes, ooo.graph_nodes, "{}", run);
        prop_assert_eq!(report.graph_edges, ooo.graph_edges, "{}", run);
        prop_assert_eq!(
            report.reexec.activations_covered,
            ooo.reexec.activations_covered,
            "{}",
            run
        );
        prop_assert!(
            report.reexec.handlers_executed <= ooo.reexec.handlers_executed,
            "{}",
            run
        );
    }
}
