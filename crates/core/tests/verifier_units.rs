//! Unit-level checks of the verifier's preprocessing: graph structure,
//! OpMap construction, and the individual REJECT sites of Figs. 14–16,
//! exercised directly through `preprocess`.

use karousos::advice::{Advice, HandlerLogEntry, HandlerOp};
use karousos::verifier::{preprocess, OpMapEntry, Preprocessed, RejectReason};
use karousos::{decode_advice_view, encode_advice, run_instrumented_server, CollectorMode};
use kem::dsl::*;
use kem::{FunctionId, HandlerId, OpRef, ProgramBuilder, RequestId, ServerConfig, Trace, Value};
use kvstore::IsolationLevel;

const SER: IsolationLevel = IsolationLevel::Serializable;

/// Runs `preprocess` over `a` the way an audit reaches it: encoded,
/// decoded to a view, built into a [`karousos::AdviceRef`].
fn pp(
    p: &kem::Program,
    t: &Trace,
    a: &Advice,
    iso: IsolationLevel,
) -> Result<Preprocessed, RejectReason> {
    let bytes = encode_advice(a);
    let view = decode_advice_view(&bytes).expect("own encoding decodes");
    let mut interner = kem::ValueInterner::new();
    preprocess(
        p,
        t,
        &karousos::AdviceRef::from_view(&view, &mut interner),
        iso,
    )
}

fn pp_err(p: &kem::Program, t: &Trace, a: &Advice, iso: IsolationLevel) -> RejectReason {
    pp(p, t, a, iso).unwrap_err()
}

/// Minimal program with one handler doing one loggable write.
fn tiny_program() -> kem::Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("x", Value::Int(0), true);
    b.function("handle", vec![swrite("x", lit(1i64)), respond(lit("ok"))]);
    b.request_handler("handle");
    b.build().unwrap()
}

fn tiny_honest() -> (kem::Program, Trace, Advice) {
    let p = tiny_program();
    let (out, a) = run_instrumented_server(
        &p,
        &[Value::Null],
        &ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    (p, out.trace, a)
}

#[test]
fn preprocess_builds_expected_graph() {
    let (p, t, a) = tiny_honest();
    let pre = pp(&p, &t, &a, SER).unwrap();
    // Nodes: ReqStart, ReqEnd, handler Start/Op(1)/End = 5.
    assert_eq!(pre.graph.node_count(), 5);
    // Edges: time chain (1), boundary req→handler (1), program chain
    // start→op1→end (2), respond boundary op1→reqEnd→handlerEnd (2).
    assert_eq!(pre.graph.edge_count(), 6);
    assert!(!pre.graph.has_cycle());
    assert!(pre.op_map.is_empty(), "no handler/tx logs for this program");
    assert!(pre.committed.is_empty());
}

#[test]
fn op_map_locates_handler_log_entries() {
    let mut b = ProgramBuilder::new();
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
    let (out, a) = run_instrumented_server(
        &p,
        &[Value::Null],
        &ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    let pre = pp(&p, &out.trace, &a, SER).unwrap();
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    // The tables are indexed by node id; the coordinates name the node
    // of an operation.
    let node = |opnum| {
        pre.coords
            .op_node(&OpRef::new(RequestId(0), hid.clone(), opnum))
            .unwrap()
    };
    assert_eq!(
        pre.op_map.get(node(1)),
        Some(&OpMapEntry::HandlerLog { index: 0 })
    );
    assert_eq!(
        pre.op_map.get(node(2)),
        Some(&OpMapEntry::HandlerLog { index: 1 })
    );
    // The emit's activation set contains the listener.
    let activated = pre.activated.get(node(2)).unwrap();
    assert_eq!(activated.len(), 1);
    assert_eq!(activated[0].function(), p.function_id("listener").unwrap());
}

#[test]
fn duplicate_log_coordinates_rejected() {
    let (p, t, mut a) = {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![
                emit("e1", lit(1i64)),
                emit("e2", lit(2i64)),
                respond(null()),
            ],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let (out, a) = run_instrumented_server(
            &p,
            &[Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        (p, out.trace, a)
    };
    // Duplicate the first handler-log entry's coordinate.
    let log = a.handler_logs.values_mut().next().unwrap();
    let first = log[0].clone();
    log[1] = HandlerLogEntry {
        hid: first.hid.clone(),
        opnum: first.opnum,
        op: log[1].op.clone(),
    };
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(
            err,
            RejectReason::InvalidLogOp {
                why: "duplicate log entry",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn out_of_range_log_opnum_rejected() {
    let (p, t, mut a) = tiny_honest();
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    a.handler_logs.insert(
        RequestId(0),
        vec![HandlerLogEntry {
            hid,
            opnum: 99,
            op: HandlerOp::Emit {
                event: "ghost".into(),
            },
        }],
    );
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(
            err,
            RejectReason::InvalidLogOp {
                why: "opnum out of range",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn log_opnum_at_either_edge_of_the_count_rejected() {
    // Position 0 is the handler's start node and `count + 1` its end
    // node: neither is an operation a log entry can name.
    let (p, t, a) = tiny_honest();
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    let count = a.opcounts[&(RequestId(0), hid.clone())];
    for opnum in [0, count + 1] {
        let mut a = a.clone();
        a.handler_logs.insert(
            RequestId(0),
            vec![HandlerLogEntry {
                hid: hid.clone(),
                opnum,
                op: HandlerOp::Emit {
                    event: "ghost".into(),
                },
            }],
        );
        let err = pp_err(&p, &t, &a, SER);
        assert!(
            matches!(
                &err,
                RejectReason::InvalidLogOp {
                    at,
                    why: "opnum out of range",
                } if at.opnum == opnum
            ),
            "opnum {opnum}: {err}"
        );
    }
}

#[test]
fn advice_for_a_request_outside_the_trace_rejected() {
    let (p, t, mut a) = tiny_honest();
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    a.opcounts.insert((RequestId(7), hid), 1);
    assert_eq!(
        pp_err(&p, &t, &a, SER),
        RejectReason::UnknownRequest { rid: RequestId(7) }
    );
}

#[test]
fn activation_with_an_unreported_parent_rejected() {
    let (p, t, mut a) = tiny_honest();
    let f = p.function_id("handle").unwrap();
    let ghost_parent = HandlerId::root(FunctionId(55));
    a.opcounts
        .insert((RequestId(0), HandlerId::child(&ghost_parent, f, 1)), 0);
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(err, RejectReason::BadActivationParent { .. }),
        "{err}"
    );
}

#[test]
fn declared_node_totals_stop_at_the_budget_or_at_u32() {
    use karousos::{audit_encoded_with_obs, AuditOptions, Limits, ResourceKind};
    let (p, t, mut a) = tiny_honest();
    let exhausted = |a: &Advice, limits: Limits| {
        let opts = AuditOptions {
            limits,
            ..AuditOptions::default()
        };
        let noop = obs::Obs::noop();
        match audit_encoded_with_obs(&p, &t, &encode_advice(a), SER, opts, &noop).unwrap_err() {
            RejectReason::ResourceExhausted {
                resource: ResourceKind::GraphNodes,
                spent,
                limit,
                ..
            } => (spent, limit),
            other => panic!("expected the graph-node verdict, got {other}"),
        }
    };
    // Forged counts past the node budget: the volume gate answers
    // before any table sized by the declared total exists.
    for count in a.opcounts.values_mut() {
        *count = 1 << 20;
    }
    let budget = Limits {
        graph_max_nodes: 1 << 10,
        ..Limits::default()
    };
    assert_eq!(exhausted(&a, budget), ((1 << 20) + 2, 1 << 10));
    // With every budget lifted, a total that does not fit the node id
    // type is still a typed reject, not a wrapped index.
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    a.opcounts.insert((RequestId(0), hid.clone()), u32::MAX);
    a.opcounts
        .insert((RequestId(0), HandlerId::child(&hid, FunctionId(0), 1)), 7);
    let (spent, limit) = exhausted(&a, Limits::unlimited());
    assert_eq!(limit, u64::from(u32::MAX));
    assert_eq!(spent, 2 + (u64::from(u32::MAX) + 2) + (7 + 2));
}

#[test]
fn log_for_unknown_handler_rejected() {
    let (p, t, mut a) = tiny_honest();
    let ghost = HandlerId::root(FunctionId(55));
    a.handler_logs.insert(
        RequestId(0),
        vec![HandlerLogEntry {
            hid: ghost,
            opnum: 1,
            op: HandlerOp::Emit {
                event: "ghost".into(),
            },
        }],
    );
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(
            err,
            RejectReason::InvalidLogOp {
                why: "handler not in opcounts",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn emit_of_registered_event_requires_reported_handler() {
    // A handler log claiming an emit of an event with a *global*
    // registration, without reporting the activated handler in
    // opcounts, must be caught at preprocessing (Fig. 16 line 25).
    let mut b = ProgramBuilder::new();
    b.function("handle", vec![respond(lit("ok"))]);
    b.function("listener", vec![]);
    b.request_handler("handle");
    b.global_registration("tick", "listener");
    let p = b.build().unwrap();
    let (out, mut a) = run_instrumented_server(
        &p,
        &[Value::Null],
        &ServerConfig::default(),
        CollectorMode::Karousos,
    )
    .unwrap();
    // Forge: claim handle emitted "tick" (and bump its opcount so the
    // coordinate is in range), but don't report the listener.
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    *a.opcounts.get_mut(&(RequestId(0), hid.clone())).unwrap() += 1;
    a.handler_logs.insert(
        RequestId(0),
        vec![HandlerLogEntry {
            hid,
            opnum: 1,
            op: HandlerOp::Emit {
                event: "tick".into(),
            },
        }],
    );
    let err = pp_err(&p, &out.trace, &a, SER);
    assert!(
        matches!(err, RejectReason::MissingActivatedHandler { .. }),
        "{err}"
    );
}

#[test]
fn response_emitter_beyond_opcount_rejected() {
    let (p, t, mut a) = tiny_honest();
    let rid = RequestId(0);
    let (hid, _) = a.response_emitted_by.get(&rid).unwrap().clone();
    a.response_emitted_by.insert(rid, (hid, 50));
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(
            err,
            RejectReason::BadResponseEmitter {
                why: "opnum out of range",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn unbalanced_trace_rejected_in_preprocess() {
    let (p, mut t, a) = tiny_honest();
    t.push_request(RequestId(9), Value::Null);
    assert_eq!(pp_err(&p, &t, &a, SER), RejectReason::UnbalancedTrace);
}

#[test]
fn activation_edge_requires_in_range_parent_op() {
    let (p, t, mut a) = tiny_honest();
    // A child whose activating opnum exceeds the parent's opcount.
    let parent = HandlerId::root(p.function_id("handle").unwrap());
    let child = HandlerId::child(&parent, p.function_id("handle").unwrap(), 40);
    a.opcounts.insert((RequestId(0), child), 0);
    let err = pp_err(&p, &t, &a, SER);
    assert!(
        matches!(err, RejectReason::BadActivationParent { .. }),
        "{err}"
    );
}

#[test]
fn check_op_squatting_on_var_coordinate_rejected() {
    // A forged Check entry occupying a variable-access coordinate is
    // caught by consumed-coordinate accounting, like fabricated
    // transactions.
    let (p, t, mut a) = tiny_honest();
    let hid = HandlerId::root(p.function_id("handle").unwrap());
    a.handler_logs.insert(
        RequestId(0),
        vec![HandlerLogEntry {
            hid,
            opnum: 1, // actually the loggable write's coordinate
            op: HandlerOp::Check {
                event: "ghost".into(),
            },
        }],
    );
    let err = karousos::audit(&p, &t, &a, SER).unwrap_err();
    assert!(
        matches!(err, RejectReason::UnexecutedLogEntry { .. }),
        "{err}"
    );
}
