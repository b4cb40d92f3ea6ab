//! Lemma 1 in practice: the audit's verdict is independent of the
//! order in which the re-executor drains each group's active queue
//! (any well-formed schedule — one respecting activation order and
//! program order — is equivalent, Appendix C Lemma 1).
//!
//! Checked for honest advice (all schedules ACCEPT with identical
//! statistics) and for tampered advice (all schedules REJECT).

use apps::App;
use karousos::{run_instrumented_server_encoded, Auditor, CollectorMode, ReplaySchedule};
use proptest::prelude::*;
use workload::{Experiment, Mix};

const SCHEDULES: [ReplaySchedule; 4] = [
    ReplaySchedule::Fifo,
    ReplaySchedule::Lifo,
    ReplaySchedule::Random { seed: 17 },
    ReplaySchedule::Random { seed: 99 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn honest_audits_agree_across_schedules(
        app_pick in 0usize..3,
        seed in 0u64..500,
        concurrency in 1usize..8,
    ) {
        let app = App::ALL[app_pick];
        let mix = if app == App::Wiki { Mix::Wiki } else { Mix::Mixed };
        let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
        exp.requests = 20;
        let program = app.program();
        let (out, advice) = run_instrumented_server_encoded(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        ).unwrap();

        let mut verdicts = Vec::new();
        for schedule in SCHEDULES {
            let auditor = Auditor { schedule, ..Auditor::default() };
            match auditor.audit(&program, &out.trace, &advice, exp.isolation) {
                Ok(report) => verdicts.push((
                    true,
                    report.reexec.groups,
                    report.reexec.handlers_executed,
                    report.graph_nodes,
                    report.graph_edges,
                )),
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "{app:?} seed={seed} {schedule:?} rejected honest run: {e}"
                    )))
                }
            }
        }
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "schedules disagreed: {verdicts:?}"
        );
    }

    #[test]
    fn tampered_audits_reject_under_every_schedule(
        seed in 0u64..500,
    ) {
        let mut exp = Experiment::paper_default(App::Stacks, Mix::Mixed, 4, seed);
        exp.requests = 20;
        let program = App::Stacks.program();
        let (mut out, advice) = run_instrumented_server_encoded(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        ).unwrap();
        // Tamper with the last response.
        if let Some(kem::TraceEvent::Response { output, .. }) =
            out.trace.events_mut().last_mut()
        {
            *output = kem::Value::str("forged");
        }
        for schedule in SCHEDULES {
            let auditor = Auditor { schedule, ..Auditor::default() };
            prop_assert!(
                auditor.audit(&program, &out.trace, &advice, exp.isolation).is_err(),
                "schedule {schedule:?} accepted a forged trace"
            );
        }
    }
}
