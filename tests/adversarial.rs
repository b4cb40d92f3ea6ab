//! Soundness suite: forged advice and tampered traces must be REJECTed.
//!
//! Each test mutates an honest `(trace, advice)` pair — or hand-crafts
//! advice, as a malicious server would — and asserts the audit rejects,
//! checking *which* defense fired where the paper pins it down. Every
//! audit runs at each point of the shared matrix (`tests/common`): the
//! same defense must fire however the audit is run.

mod common;

use apps::App;
use common::audit_matrix;
use karousos::advice::{AccessType, VarLogEntry};
use karousos::{run_instrumented_server, Advice, CollectorMode, RejectReason, TxOpType};
use kem::dsl::*;
use kem::{HandlerId, OpRef, Program, ProgramBuilder, RequestId, Trace, Value};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

const SER: IsolationLevel = IsolationLevel::Serializable;

/// Runs an honest experiment, returning everything an attacker starts
/// from.
fn honest(app: App, mix: Mix, n: usize, concurrency: usize, seed: u64) -> (Program, Trace, Advice) {
    let exp = {
        let mut e = Experiment::paper_default(app, mix, concurrency, seed);
        e.requests = n;
        e
    };
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
fn baseline_honest_accepts() {
    let (p, t, a) = honest(App::Stacks, Mix::Mixed, 25, 4, 9);
    audit_matrix(&p, &t, &a, SER).unwrap();
}

#[test]
fn tampered_output_rejected() {
    let (p, mut t, a) = honest(App::Motd, Mix::Mixed, 20, 4, 1);
    for ev in t.events_mut().iter_mut().rev() {
        if let kem::TraceEvent::Response { output, .. } = ev {
            *output = Value::str("forged response");
            break;
        }
    }
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn swapped_inputs_rejected() {
    let (p, mut t, a) = honest(App::Motd, Mix::Mixed, 20, 1, 2);
    // Swap the inputs of the first two requests (outputs stay).
    let mut inputs: Vec<Value> = Vec::new();
    for ev in t.events() {
        if let kem::TraceEvent::Request { input, .. } = ev {
            inputs.push(input.clone());
        }
    }
    let mut idx = 0;
    for ev in t.events_mut().iter_mut() {
        if let kem::TraceEvent::Request { input, .. } = ev {
            *input = inputs[[1usize, 0].get(idx).copied().unwrap_or(idx)].clone();
            idx += 1;
        }
    }
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn forged_var_log_value_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::WriteHeavy, 20, 4, 3);
    // Corrupt the value of some logged write.
    let entry = a
        .var_logs
        .values_mut()
        .flat_map(|log| log.values_mut())
        .find(|e| e.access == AccessType::Write && e.value.is_some())
        .expect("write-heavy MOTD logs writes");
    entry.value = Some(Value::str("poison"));
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::VarLogMismatch { .. }
                | RejectReason::OutputMismatch { .. }
                // The poisoned value can also blow up re-execution
                // itself (e.g. a map operation on a string), which is
                // equally a rejection.
                | RejectReason::ReexecError { .. }
        ),
        "{err}"
    );
}

#[test]
fn dropped_var_log_entry_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::WriteHeavy, 20, 4, 3);
    let (var, key) = {
        let (var, log) = a.var_logs.iter().next().expect("MOTD logs variables");
        (*var, log.keys().next().unwrap().clone())
    };
    a.var_logs.get_mut(&var).unwrap().remove(&key);
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn inflated_opcount_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 4);
    let key = a.opcounts.keys().next().unwrap().clone();
    *a.opcounts.get_mut(&key).unwrap() += 1;
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(matches!(err, RejectReason::OpcountMismatch { .. }), "{err}");
}

#[test]
fn deflated_opcount_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 4);
    let key = a
        .opcounts
        .iter()
        .find(|(_, c)| **c > 0)
        .map(|(k, _)| k.clone())
        .expect("some handler has ops");
    *a.opcounts.get_mut(&key).unwrap() -= 1;
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn phantom_handler_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 5);
    // Report a handler that never ran, hanging off a real one.
    let ((rid, parent), _) = a.opcounts.iter().find(|(_, c)| **c > 0).unwrap();
    let phantom = HandlerId::child(parent, kem::FunctionId(0), 1);
    let rid = *rid;
    a.opcounts.insert((rid, phantom), 0);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::HandlerNotExecuted { .. }
                | RejectReason::BadActivationParent { .. }
                | RejectReason::OpcountMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn advice_for_unknown_request_rejected() {
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 10, 1, 6);
    let ((_, hid), count) = a
        .opcounts
        .iter()
        .next()
        .map(|(k, c)| (k.clone(), *c))
        .unwrap();
    a.opcounts.insert((RequestId(999), hid), count);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(matches!(err, RejectReason::UnknownRequest { .. }), "{err}");
}

#[test]
fn wrong_response_emitter_rejected() {
    let (p, t, mut a) = honest(App::Stacks, Mix::Mixed, 15, 1, 7);
    // Point some request's responseEmittedBy at a different handler of
    // the same request.
    let rid = *a.response_emitted_by.keys().next().unwrap();
    let other = a
        .opcounts
        .keys()
        .find(|(r, h)| *r == rid && Some(h) != a.response_emitted_by.get(&rid).map(|(h, _)| h))
        .map(|(_, h)| h.clone())
        .expect("stacks requests have several handlers");
    a.response_emitted_by.insert(rid, (other, 0));
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn missing_nondet_rejected() {
    let (p, t, mut a) = honest(App::Wiki, Mix::Wiki, 15, 2, 8);
    let key = a.nondet.keys().next().unwrap().clone();
    a.nondet.remove(&key);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(matches!(err, RejectReason::MissingNondet { .. }), "{err}");
}

#[test]
fn tampered_nondet_rejected() {
    let (p, t, mut a) = honest(App::Wiki, Mix::Wiki, 15, 2, 8);
    let key = a.nondet.keys().next().unwrap().clone();
    a.nondet.insert(key, Value::int(123_456));
    assert!(audit_matrix(&p, &t, &a, SER).is_err());
}

#[test]
fn forged_put_value_rejected() {
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 20, 1, 9);
    let entry = a
        .tx_logs
        .values_mut()
        .flatten()
        .find(|e| e.optype == TxOpType::Put)
        .expect("stacks writes rows");
    if let karousos::TxOpContents::Put { value } = &mut entry.contents {
        *value = Value::str("poison");
    }
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::StateOpMismatch { .. }
                | RejectReason::OutputMismatch { .. }
                | RejectReason::Isolation(_)
        ),
        "{err}"
    );
}

#[test]
fn truncated_write_order_rejected() {
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 20, 1, 10);
    assert!(!a.write_order.is_empty());
    a.write_order.pop();
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(err, RejectReason::WriteOrderMismatch { .. }),
        "{err}"
    );
}

#[test]
fn reordered_write_order_rejected() {
    // Swap two committed writes of the same key: the inverted version
    // order contradicts the read dependencies.
    let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 40, 1, 11);
    let mut by_key: std::collections::HashMap<String, Vec<usize>> = Default::default();
    for (i, pos) in a.write_order.iter().enumerate() {
        let key = a.tx_entry(pos).unwrap().key.clone().unwrap();
        by_key.entry(key).or_default().push(i);
    }
    let (i, j) = by_key
        .values()
        .find(|v| v.len() >= 2)
        .map(|v| (v[0], v[1]))
        .expect("some dump reported twice");
    a.write_order.swap(i, j);
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::Isolation(_)
                | RejectReason::CycleInG
                | RejectReason::WriteOrderMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn aborted_transaction_claimed_committed_rejected() {
    // Find a run with at least one abort, then flip its last log entry
    // to a commit.
    for seed in 0..80u64 {
        let (p, t, mut a) = honest(App::Stacks, Mix::WriteHeavy, 25, 4, seed);
        let aborted = a
            .tx_logs
            .iter()
            .find(|(_, log)| log.last().is_some_and(|e| e.optype == TxOpType::Abort))
            .map(|(tx, _)| tx.clone());
        let Some(tx) = aborted else { continue };
        let log = a.tx_logs.get_mut(&tx).unwrap();
        let last = log.last_mut().unwrap();
        last.optype = TxOpType::Commit;
        last.key = None;
        assert!(audit_matrix(&p, &t, &a, SER).is_err());
        return;
    }
    panic!("no schedule with an aborted transaction found");
}

#[test]
fn merged_groups_reject_on_divergence() {
    // Force every request into one group: requests with different
    // control flow then diverge during batched re-execution.
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 20, 1, 12);
    let tags: std::collections::BTreeSet<u64> = a.tags.values().copied().collect();
    assert!(tags.len() > 1, "mix produces several groups");
    for tag in a.tags.values_mut() {
        *tag = 1;
    }
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(
            err,
            RejectReason::Divergence { .. } | RejectReason::GroupSetupMismatch { .. }
        ),
        "{err}"
    );
}

#[test]
fn fully_split_groups_still_accept() {
    // Grouping is the server's choice: declining to batch loses
    // efficiency, not correctness.
    let (p, t, mut a) = honest(App::Motd, Mix::Mixed, 20, 4, 13);
    for (i, tag) in a.tags.values_mut().enumerate() {
        *tag = 10_000 + i as u64;
    }
    let report = audit_matrix(&p, &t, &a, SER).unwrap();
    assert_eq!(report.reexec.groups, 20);
}

#[test]
fn unbalanced_trace_rejected() {
    let (p, mut t, a) = honest(App::Motd, Mix::Mixed, 10, 1, 14);
    t.push_response(RequestId(0), Value::str("extra"));
    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert_eq!(err, RejectReason::UnbalancedTrace);
}

/// The Figure 5 attack: a dishonest server arranges advice and outputs
/// so each of two requests allegedly reads the *other's* write — a
/// physically impossible execution that out-of-order replay would
/// happily reproduce. The execution graph must contain a cycle.
#[test]
fn fig5_cross_reads_from_the_future_rejected() {
    // Program: t := x; x := input; respond t.
    let mut b = ProgramBuilder::new();
    b.shared_var("x", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            let_("t", sread("x")),
            swrite("x", field(payload(), "v")),
            respond(local("t")),
        ],
    );
    b.request_handler("handle");
    let p = b.build().unwrap();

    let hid = HandlerId::root(p.function_id("handle").unwrap());
    let r0 = RequestId(0);
    let r1 = RequestId(1);
    let w0 = OpRef::new(r0, hid.clone(), 2);
    let w1 = OpRef::new(r1, hid.clone(), 2);
    let rd0 = OpRef::new(r0, hid.clone(), 1);
    let rd1 = OpRef::new(r1, hid.clone(), 1);
    let init = OpRef::new(RequestId::INIT, kem::init_handler_id(), 1);

    // Trace: both requests arrive, then the *impossible* responses —
    // each request returns the other's written value.
    let mut t = Trace::new();
    t.push_request(r0, Value::map([("v", Value::int(5))]));
    t.push_request(r1, Value::map([("v", Value::int(7))]));
    t.push_response(r0, Value::int(7)); // allegedly read r1's write
    t.push_response(r1, Value::int(5)); // allegedly read r0's write

    let mut a = Advice::default();
    a.tags.insert(r0, 1);
    a.tags.insert(r1, 1);
    a.opcounts.insert((r0, hid.clone()), 2);
    a.opcounts.insert((r1, hid.clone()), 2);
    a.response_emitted_by.insert(r0, (hid.clone(), 2));
    a.response_emitted_by.insert(r1, (hid.clone(), 2));
    let mut log = karousos::VarLog::new();
    // Write chain: init → w0 → w1 (consistent with simulate-and-check).
    log.insert(
        w0.clone(),
        VarLogEntry {
            access: AccessType::Write,
            value: Some(Value::int(5)),
            prec: Some(init),
        },
    );
    log.insert(
        w1.clone(),
        VarLogEntry {
            access: AccessType::Write,
            value: Some(Value::int(7)),
            prec: Some(w0.clone()),
        },
    );
    // The forged reads: r0 reads w1 (the future), r1 reads w0.
    log.insert(
        rd0,
        VarLogEntry {
            access: AccessType::Read,
            value: None,
            prec: Some(w1),
        },
    );
    log.insert(
        rd1,
        VarLogEntry {
            access: AccessType::Read,
            value: None,
            prec: Some(w0),
        },
    );
    a.var_logs.insert(p.var_id("x").unwrap(), log);

    let err = audit_matrix(&p, &t, &a, SER).unwrap_err();
    assert_eq!(
        err,
        RejectReason::CycleInG,
        "the execution graph must expose the cycle"
    );
}

#[test]
fn decode_of_corrupted_wire_advice_fails_cleanly() {
    let (_, _, a) = honest(App::Motd, Mix::Mixed, 10, 1, 15);
    let bytes = karousos::encode_advice(&a);
    // Truncations at arbitrary points must error, never panic.
    for cut in (0..bytes.len()).step_by(97) {
        assert!(karousos::decode_advice(&bytes[..cut]).is_err() || cut == bytes.len());
    }
    // Advice that survives the wire round-trips exactly.
    assert_eq!(karousos::decode_advice(&bytes).unwrap(), a);
}
