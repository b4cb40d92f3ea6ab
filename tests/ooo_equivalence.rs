//! Lemma 3 in practice: batched `Audit` and ungrouped `OOOAudit`
//! (Fig. 22) agree — on honest runs (both ACCEPT) and on forgeries
//! (both REJECT) — across apps, schedules, and seeds.
//!
//! `OOOAudit` is the one audit over the same bytes with every traced
//! request given a tag of its own (`singleton_tags`): every request
//! replays as a group of one, whatever the server tagged.

use apps::App;
use karousos::{
    encode_advice, run_instrumented_server, singleton_tags, Advice, AuditReport, Auditor,
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

/// `Audit` of `a`'s encoding.
fn audit(
    p: &kem::Program,
    t: &kem::Trace,
    a: &Advice,
    isolation: IsolationLevel,
) -> Result<AuditReport, RejectReason> {
    let audited = Auditor::default().audit(p, t, &encode_advice(a), isolation);
    audited.map_err(|failure| failure.reason)
}

/// `OOOAudit` of `a`'s encoding: its singleton-tag rewrite audited,
/// each group's queue drained in `schedule` order.
fn ooo_of(
    p: &kem::Program,
    t: &kem::Trace,
    a: &Advice,
    schedule: ReplaySchedule,
) -> Result<AuditReport, RejectReason> {
    let auditor = Auditor {
        schedule,
        ..Auditor::default()
    };
    let bytes = singleton_tags(&encode_advice(a), t).expect("honest tags parse");
    let audited = auditor.audit(p, t, &bytes, SER);
    audited.map_err(|failure| failure.reason)
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

/// The batched audit arms a fresh meter per group, so `OOOAudit`'s
/// singleton groups are metered one request at a time. Either way the
/// first over-budget group stops its meter at `limit + 1`.
#[test]
fn ooo_audit_meters_each_group() {
    let (p, t, a) = honest(App::Wiki, Mix::Wiki, 25, 4, 1);
    let bytes = encode_advice(&a);
    let singletons = singleton_tags(&bytes, &t).unwrap();
    for (fuel, group_spent) in [(1, 2), (100, 101)] {
        let auditor = Auditor {
            limits: Limits {
                replay_fuel: fuel,
                ..Limits::default()
            },
            ..Auditor::default()
        };
        for (audit, advice) in [("batched audit", &bytes), ("OOOAudit", &singletons)] {
            assert_eq!(
                auditor.audit(&p, &t, advice, SER).err().map(|f| f.reason),
                Some(RejectReason::ResourceExhausted {
                    resource: ResourceKind::ReplayFuel,
                    group: Some(0),
                    spent: group_spent,
                    limit: fuel,
                }),
                "{audit} at replay_fuel {fuel}"
            );
        }
    }
}
