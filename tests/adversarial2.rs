//! Second adversarial wave: log-ordering forgeries, phantom
//! continuations, and the behaviours that are deliberately *tolerated*
//! (over-logging that constrains nothing).

mod common;

use apps::App;
use common::audit_matrix;
use karousos::{run_instrumented_server, Advice, CollectorMode, RejectReason, TxOpType};
use kem::{HandlerId, Program, RequestId, Trace};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

const SER: IsolationLevel = IsolationLevel::Serializable;

fn honest(app: App, mix: Mix, n: usize, concurrency: usize, seed: u64) -> (Program, Trace, Advice) {
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

#[test]
fn swapped_handler_log_entries_rejected() {
    // Swapping two same-handler entries inverts the handler-log
    // precedence edges against program order — a cycle in G — or
    // changes the registration set visible at the emit.
    use kem::dsl::*;
    let mut b = kem::ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            register("ev", "listener"),
            emit("ev", lit(1i64)),
            respond(lit("ok")),
        ],
    );
    b.function("listener", vec![]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (out, mut a) = run_instrumented_server(
        &p,
        &[kem::Value::Null],
        &kem::ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    audit_matrix(&p, &out.trace, &a, SER).expect("honest baseline accepts");
    let log = a.handler_logs.values_mut().next().expect("one request");
    assert!(log.len() >= 2 && log[0].hid == log[1].hid);
    log.swap(0, 1);
    let err = audit_matrix(&p, &out.trace, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::CycleInG
                | RejectReason::HandlerOpMismatch { .. }
                | RejectReason::MissingActivatedHandler { .. }
                | RejectReason::EmitActivationMismatch { .. }
                | RejectReason::HandlerNotExecuted { .. }
        ),
        "{err}"
    );
}

#[test]
fn swapped_tx_log_entries_rejected() {
    // Swapping a transaction's GET and PUT breaks the txnum ↔ position
    // correspondence CheckStateOp enforces.
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 20, 1, 2);
    let log = a
        .tx_logs
        .values_mut()
        .find(|l| l.len() >= 3)
        .expect("report transactions have ≥3 ops");
    log.swap(1, 2);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::StateOpMismatch { .. }
                | RejectReason::TxLogMalformed { .. }
                | RejectReason::SelfReadNotLastModification { .. }
                | RejectReason::InvalidLogOp { .. }
        ),
        "{err}"
    );
}

#[test]
fn dropped_tx_log_entry_rejected() {
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 20, 1, 3);
    let log = a
        .tx_logs
        .values_mut()
        .find(|l| l.len() >= 3)
        .expect("report transactions have ≥3 ops");
    log.remove(1);
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn redirected_dictating_write_rejected() {
    // Point a GET at a *different* PUT of the same key (an earlier
    // version): values differ ⇒ simulate-and-check or output mismatch;
    // equal values would still flunk the write-order cross-checks.
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 40, 1, 4);
    // Find a key with ≥ 2 committed writes and a GET reading the later.
    let mut writes: std::collections::HashMap<String, Vec<karousos::TxPos>> = Default::default();
    for pos in &a.write_order {
        let key = a.tx_entry(pos).unwrap().key.clone().unwrap();
        writes.entry(key).or_default().push(pos.clone());
    }
    let (key, versions) = writes
        .into_iter()
        .find(|(_, v)| v.len() >= 2)
        .expect("some dump reported twice");
    let earlier = versions[0].clone();
    let later = versions[1].clone();
    let mut redirected = false;
    for log in a.tx_logs.values_mut() {
        for e in log.iter_mut() {
            if e.optype == TxOpType::Get && e.key.as_deref() == Some(key.as_str()) {
                if let karousos::TxOpContents::Get { from: Some(pos) } = &mut e.contents {
                    if *pos == later {
                        *pos = earlier.clone();
                        redirected = true;
                        break;
                    }
                }
            }
        }
        if redirected {
            break;
        }
    }
    if !redirected {
        // No GET observed the later version in this schedule; the
        // scenario is vacuous — skip rather than assert.
        return;
    }
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn phantom_db_continuation_rejected() {
    // Report a continuation handler hanging off a real transactional
    // op that never activated it.
    let (p, t, mut a) = honest(App::Stacks, Mix::Mixed, 20, 1, 5);
    // Find a tx op coordinate and attach a phantom child there.
    let (tx, entry) = a
        .tx_logs
        .iter()
        .find_map(|(tx, log)| log.first().map(|e| (tx.clone(), e.clone())))
        .expect("transactions exist");
    let phantom = HandlerId::child(&entry.hid, kem::FunctionId(2), entry.opnum);
    a.opcounts.insert((tx.rid, phantom), 0);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::HandlerNotExecuted { .. } | RejectReason::BadActivationParent { .. }
        ),
        "{err}"
    );
}

#[test]
fn stolen_tag_causes_divergence() {
    // Give one request the tag of a different control-flow class.
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 20, 1, 6);
    let mut by_tag: std::collections::BTreeMap<u64, Vec<RequestId>> = Default::default();
    for (rid, tag) in &a.tags {
        by_tag.entry(*tag).or_default().push(*rid);
    }
    assert!(by_tag.len() >= 2, "mixed workload has several groups");
    let mut tags = by_tag.keys();
    let (t1, t2) = (*tags.next().unwrap(), *tags.next().unwrap());
    let victim = by_tag[&t2][0];
    a.tags.insert(victim, t1);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::Divergence { .. }
                | RejectReason::OpcountMismatch { .. }
                | RejectReason::GroupSetupMismatch { .. }
                | RejectReason::ResponseEmitterMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn off_by_one_response_emitter_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 7);
    let rid = *a.response_emitted_by.keys().next().unwrap();
    let (hid, opnum) = a.response_emitted_by.get(&rid).unwrap().clone();
    let shifted = opnum.saturating_sub(1);
    a.response_emitted_by.insert(rid, (hid, shifted));
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(err, RejectReason::ResponseEmitterMismatch { .. }),
        "{err}"
    );
}

#[test]
fn unused_extra_nondet_entries_are_tolerated() {
    // Over-logging that constrains nothing is not misbehaviour: an
    // extra recorded nondeterministic value at a coordinate re-execution
    // never consults cannot change the audit's meaning.
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 8);
    let ((rid, hid), _) = a
        .opcounts
        .iter()
        .next()
        .map(|(k, c)| (k.clone(), *c))
        .unwrap();
    a.nondet.insert(
        kem::OpRef::new(rid, HandlerId::child(&hid, kem::FunctionId(0), 1), 1),
        kem::Value::int(42),
    );
    // Still rejected — but only because the phantom coordinate's
    // handler is unknown? No: nondet entries are not validated against
    // opcounts (they are consulted by coordinate). The audit accepts.
    audit_matrix(&p, &t, &a, SER).expect("unconsulted nondet entries are harmless");
}

#[test]
fn var_log_read_turned_into_write_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 20, 4, 9);
    let entry = a
        .var_logs
        .values_mut()
        .flat_map(|l| l.values_mut())
        .find(|e| e.access == karousos::AccessType::Read)
        .expect("mixed MOTD logs reads");
    entry.access = karousos::AccessType::Write;
    entry.value = Some(kem::Value::int(7));
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::VarLogMismatch { .. } | RejectReason::VarChainBroken { .. }
        ),
        "{err}"
    );
}

#[test]
fn write_order_with_foreign_entry_rejected() {
    // Append a duplicate of an existing entry: length/uniqueness checks.
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 20, 1, 10);
    let dup = a.write_order[0].clone();
    a.write_order.push(dup);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(err, RejectReason::WriteOrderMismatch { .. }),
        "{err}"
    );
}

#[test]
fn implausible_nondet_rejected() {
    // Replace a recorded timestamp with a non-integer: the §5
    // well-formedness checks fire before the value reaches re-execution.
    let (p, t, mut a) = honest(App::Wiki, Mix::Wiki, 10, 1, 11);
    let key = a.nondet.keys().next().unwrap().clone();
    a.nondet.insert(key, kem::Value::str("not a timestamp"));
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(err, RejectReason::ImplausibleNondet { .. }),
        "{err}"
    );
}

#[test]
fn out_of_range_random_rejected() {
    use kem::dsl::*;
    let mut b = kem::ProgramBuilder::new();
    b.function("handle", vec![nondet_random("r", 10), respond(local("r"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (out, mut a) = run_instrumented_server(
        &p,
        &[kem::Value::Null],
        &kem::ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    let key = a.nondet.keys().next().unwrap().clone();
    a.nondet.insert(key, kem::Value::int(10_000)); // bound is 10
                                                   // The trace must be tampered consistently or the output check also
                                                   // fires; either way, rejection.
    let err = audit_matrix(&p, &out.trace, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::ImplausibleNondet { .. } | RejectReason::OutputMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn forged_initialization_value_rejected() {
    // The initialization activation `I` is trusted and never
    // re-executed, so its writes are never simulate-and-checked. A
    // malicious server logs a *fake* backfilled init-write entry with a
    // poisoned value and points a read at it; the forged value then
    // flows into responses. The verifier must cross-check logged values
    // at executed-write coordinates against the dictionary.
    use kem::dsl::*;
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("banner", kem::Value::str("welcome"), true);
    b.function("handle", vec![respond(sread("banner"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (mut out, mut a) = run_instrumented_server(
        &p,
        &[kem::Value::Null],
        &kem::ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    // Honest: the single read is R-ordered after init, nothing logged.
    assert_eq!(a.var_log_entries(), 0);
    audit_matrix(&p, &out.trace, &a, SER).expect("honest baseline accepts");

    // The attack: log a fake init write with a poisoned value, point
    // the read at it, and tamper the response to match.
    let init_op = kem::OpRef::new(kem::RequestId::INIT, kem::init_handler_id(), 1);
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    let read_op = kem::OpRef::new(RequestId(0), hid, 1);
    let mut log = karousos::VarLog::new();
    log.insert(
        init_op.clone(),
        karousos::VarLogEntry {
            access: karousos::AccessType::Write,
            value: Some(kem::Value::str("HACKED")),
            prec: None,
        },
    );
    log.insert(
        read_op,
        karousos::VarLogEntry {
            access: karousos::AccessType::Read,
            value: None,
            prec: Some(init_op),
        },
    );
    a.var_logs.insert(p.var_id("banner").unwrap(), log);
    if let Some(kem::TraceEvent::Response { output, .. }) = out.trace.events_mut().last_mut() {
        *output = kem::Value::str("HACKED");
    }
    let err = audit_matrix(&p, &out.trace, &a, SER)
        .expect_err("a forged initialization value must not be accepted");
    assert!(
        matches!(
            err,
            RejectReason::VarLogMismatch { .. } | RejectReason::VarChainBroken { .. }
        ),
        "{err}"
    );
}

#[test]
fn fabricated_transaction_squatting_on_var_coordinates_rejected() {
    // §4.4's first cross-check: "the verifier ensures that all
    // operations in the transaction logs are produced during
    // re-execution". A malicious server fabricates a whole transaction
    // whose entries sit at coordinates that re-execution occupies with
    // *variable accesses* (which never consult the OpMap): the fake
    // transaction then justifies arbitrary GET values elsewhere unless
    // the verifier demands every logged operation be consumed.
    use kem::dsl::*;
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("x", kem::Value::Int(0), true);
    // Two loggable ops (coordinates 1 and 2) that are NOT state ops.
    b.function(
        "handle",
        vec![swrite("x", add(sread("x"), lit(1i64))), respond(lit("ok"))],
    );
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (out, mut a) = run_instrumented_server(
        &p,
        &[kem::Value::Null],
        &kem::ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    audit_matrix(&p, &out.trace, &a, SER).expect("honest baseline accepts");

    // Fabricate a committed transaction occupying coordinates 1–2 of
    // the (real) request handler.
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    let tx = karousos::KTxId {
        rid: RequestId(0),
        hid: hid.clone(),
        opnum: 1,
    };
    a.tx_logs.insert(
        tx.clone(),
        vec![
            karousos::TxLogEntry {
                hid: hid.clone(),
                opnum: 1,
                optype: TxOpType::Start,
                key: None,
                contents: karousos::TxOpContents::None,
            },
            karousos::TxLogEntry {
                hid: hid.clone(),
                opnum: 2,
                optype: TxOpType::Commit,
                key: None,
                contents: karousos::TxOpContents::None,
            },
        ],
    );
    let err = audit_matrix(&p, &out.trace, &a, SER)
        .expect_err("a transaction never produced by re-execution must be rejected");
    assert!(
        matches!(err, RejectReason::UnexecutedLogEntry { .. }),
        "{err}"
    );
}
