//! Lemma 3 in practice: batched `Audit` and ungrouped `OOOAudit`
//! (Fig. 22) agree — on honest runs (both ACCEPT) and on forgeries
//! (both REJECT) — across apps, schedules, and seeds.

use apps::App;
use karousos::{
    audit, encode_advice, ooo_audit, run_instrumented_server, Advice, AuditOptions, AuditReport,
    CollectorMode, Limits, RejectReason, ReplaySchedule, ResourceKind,
};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

const SER: IsolationLevel = IsolationLevel::Serializable;

fn honest(
    app: App,
    mix: Mix,
    n: usize,
    concurrency: usize,
    seed: u64,
) -> (kem::Program, kem::Trace, karousos::Advice) {
    let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
    exp.requests = n;
    let program = app.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .unwrap();
    (program, out.trace, advice)
}

/// `OOOAudit` of `a`'s encoding, draining its queue in `schedule` order.
fn ooo_of(
    p: &kem::Program,
    t: &kem::Trace,
    a: &Advice,
    schedule: ReplaySchedule,
) -> Result<AuditReport, RejectReason> {
    let opts = AuditOptions {
        schedule,
        ..AuditOptions::default()
    };
    ooo_audit(p, t, &encode_advice(a), SER, opts)
}

#[test]
fn ooo_audit_accepts_honest_runs() {
    for app in App::ALL {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::Mixed
        };
        for seed in 0..4u64 {
            let (p, t, a) = honest(app, mix, 25, 4, seed);
            for schedule in [
                ReplaySchedule::Fifo,
                ReplaySchedule::Lifo,
                ReplaySchedule::Random { seed: 31 },
            ] {
                ooo_of(&p, &t, &a, schedule).unwrap_or_else(|e| {
                    panic!(
                        "OOOAudit rejected honest {} run (seed {seed}, {schedule:?}): {e}",
                        app.name()
                    )
                });
            }
        }
    }
}

#[test]
fn ooo_audit_agrees_with_batched_audit() {
    // Lemma 3: the batched audit is equivalent to OOOAudit on a
    // specific well-formed schedule; combined with Lemma 1 (all
    // well-formed schedules are equivalent), the two must produce the
    // same verdict *and* the same derived state — here compared via the
    // execution graph's node/edge counts.
    for app in App::ALL {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::ReadHeavy
        };
        let (p, t, a) = honest(app, mix, 25, 4, 7);
        let batched = audit(&p, &t, &a, SER).unwrap();
        let ooo = ooo_of(&p, &t, &a, ReplaySchedule::Fifo).unwrap();
        assert_eq!(batched.graph_nodes, ooo.graph_nodes, "{}", app.name());
        assert_eq!(batched.graph_edges, ooo.graph_edges, "{}", app.name());
        assert_eq!(
            batched.reexec.activations_covered,
            ooo.reexec.activations_covered,
            "{}",
            app.name()
        );
        // Batching's whole point: strictly fewer handler interpretations
        // whenever any group has more than one member.
        assert!(
            batched.reexec.handlers_executed <= ooo.reexec.handlers_executed,
            "{}",
            app.name()
        );
    }
}

#[test]
fn ooo_audit_rejects_forgeries() {
    let (p, mut t, a) = honest(App::Stacks, Mix::Mixed, 20, 4, 3);
    if let Some(kem::TraceEvent::Response { output, .. }) = t.events_mut().last_mut() {
        *output = kem::Value::str("forged");
    }
    for schedule in [ReplaySchedule::Fifo, ReplaySchedule::Random { seed: 5 }] {
        assert!(ooo_of(&p, &t, &a, schedule).is_err());
    }
}

#[test]
fn ooo_audit_ignores_tags_entirely() {
    // A server that refuses to tag (no grouping advice at all) still
    // gets audited by OOOAudit — grouping is an efficiency mechanism,
    // not a soundness one.
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 15, 2, 9);
    a.tags.clear();
    assert!(audit(&p, &t, &a, SER).is_err(), "batched audit needs tags");
    ooo_of(&p, &t, &a, ReplaySchedule::Fifo).expect("OOOAudit succeeds without tags");
}

/// `OOOAudit` starts at the bytes like every audit, so the decoder's
/// budgets stand in front of it too.
#[test]
fn ooo_audit_decodes_under_the_budgets() {
    let (p, t, a) = honest(App::Wiki, Mix::Wiki, 25, 4, 1);
    let bytes = encode_advice(&a);
    let (few_bytes, few_nodes) = (
        Limits {
            decode_max_bytes: 16,
            ..Limits::default()
        },
        Limits {
            decode_max_nodes: 8,
            ..Limits::default()
        },
    );
    for (limits, tripped) in [
        (few_bytes, ResourceKind::DecodeBytes),
        (few_nodes, ResourceKind::DecodeNodes),
    ] {
        let opts = AuditOptions {
            limits,
            ..AuditOptions::default()
        };
        match ooo_audit(&p, &t, &bytes, SER, opts) {
            Err(RejectReason::ResourceExhausted { resource, .. }) => assert_eq!(resource, tripped),
            other => panic!("expected {tripped:?} exhaustion, got {other:?}"),
        }
    }
}
