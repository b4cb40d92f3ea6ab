//! Unit-level checks of the verifier's preprocessing: graph structure,
//! OpMap construction, and the individual REJECT sites of Figs. 14–16,
//! exercised directly through `preprocess_staged`.

use karousos::advice::{Advice, HandlerLogEntry, HandlerOp};
use karousos::verifier::{preprocess_staged, OpMapEntry, Preprocessed, RejectReason};
use karousos::{decode_advice_view, encode_advice, run_instrumented_server, CollectorMode};
use kem::dsl::*;
use kem::{FunctionId, HandlerId, OpRef, ProgramBuilder, RequestId, ServerConfig, Trace, Value};
use kvstore::IsolationLevel;

const SER: IsolationLevel = IsolationLevel::Serializable;

/// Runs preprocess over `a` the way an audit reaches it — encoded,
/// decoded to a view, built into a [`karousos::AdviceRef`] — on the
/// calling thread, with its deferred edges merged into `G`.
fn pp(
    p: &kem::Program,
    t: &Trace,
    a: &Advice,
    iso: IsolationLevel,
) -> Result<Preprocessed, RejectReason> {
    let bytes = encode_advice(a);
    let view = decode_advice_view(&bytes).expect("own encoding decodes");
    let mut interner = kem::ValueInterner::new();
    let advice = karousos::AdviceRef::from_view(&view, &mut interner);
    let mut staged = preprocess_staged(p, t, &advice, iso, 1)?;
    staged.deferred.merge_into(&mut staged.pre.graph);
    Ok(staged.pre)
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
    assert!(pre.graph.probe_cycle().back_edge.is_none());
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
    let listener = pre.coords.paths().id(activated[0]).unwrap();
    assert_eq!(listener.function(), p.function_id("listener").unwrap());
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
    use karousos::{Auditor, Limits, ResourceKind};
    let (p, t, mut a) = tiny_honest();
    let exhausted = |a: &Advice, limits: Limits| {
        let auditor = Auditor {
            limits,
            ..Auditor::default()
        };
        match auditor
            .audit(&p, &t, &encode_advice(a), SER)
            .unwrap_err()
            .reason
        {
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
    let err = audit_err_at(&p, &t, &a, 1);
    assert!(
        matches!(err, RejectReason::UnexecutedLogEntry { .. }),
        "{err}"
    );
}

/// Two sequential requests, each one committed transaction whose log
/// is `[start, GET k, PUT k, PUT k, PUT j, commit]`: index 2 is a `PUT`
/// that is not a last modification, 3 and 4 are the two that are.
fn two_transactions() -> (kem::Program, Trace, Advice) {
    let mut b = ProgramBuilder::new();
    let next = |tx: fn(kem::Expr, kem::Expr, &str) -> kem::Stmt, then: &str| {
        vec![tx(field(payload(), "tx"), field(payload(), "ctx"), then)]
    };
    b.function("handle", vec![tx_start(lit(0i64), "started")]);
    b.function(
        "started",
        next(|tx, ctx, then| tx_get(tx, lit("k"), ctx, then), "got"),
    );
    b.function(
        "got",
        next(
            |tx, ctx, then| tx_put(tx, lit("k"), lit(1i64), ctx, then),
            "put1",
        ),
    );
    b.function(
        "put1",
        next(
            |tx, ctx, then| tx_put(tx, lit("k"), lit(2i64), ctx, then),
            "put2",
        ),
    );
    b.function(
        "put2",
        next(
            |tx, ctx, then| tx_put(tx, lit("j"), lit(3i64), ctx, then),
            "put3",
        ),
    );
    b.function("put3", next(tx_commit, "done"));
    b.function("done", vec![respond(lit("ok"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let cfg = ServerConfig {
        concurrency: 1,
        ..ServerConfig::default()
    };
    let (out, a) = run_instrumented_server(
        &p,
        &[Value::Null, Value::Null],
        &cfg,
        CollectorMode::Karousos,
    )
    .unwrap();
    (p, out.trace, a)
}

/// Deleting preprocess's `lastModification` map must not have moved a
/// write-order verdict: each reason still fires, and of two defects the
/// one that was reported before is reported now — the length before
/// any entry, an earlier entry before a later one, an entry's own
/// checks in their order, and every write-order defect before a log
/// that does not translate, which in turn precedes the Adya check.
#[test]
fn write_order_reasons_fire_in_their_precedence() {
    use karousos::advice::{TxOpContents, TxPos};
    use kem::TxOpKind;
    let (p, t, honest) = two_transactions();
    pp(&p, &t, &honest, SER).unwrap();
    let txs: Vec<_> = honest.tx_logs.keys().cloned().collect();
    let at = |tx: usize, index: u32| TxPos {
        tx: txs[tx].clone(),
        index,
    };
    let mut stranger = txs[0].clone();
    stranger.opnum += 100;
    let nowhere = TxPos {
        tx: stranger,
        index: 3,
    };
    assert_eq!(
        honest.write_order,
        [at(0, 3), at(0, 4), at(1, 3), at(1, 4)],
        "the fixture's honest write order"
    );

    // What isolation verification says of `a`, called the way
    // preprocess calls it. Rows that leave the logs well-formed must
    // get the same answer from the whole of preprocess.
    let verdict = |a: &Advice, through_preprocess: bool| {
        let bytes = encode_advice(a);
        let view = decode_advice_view(&bytes).unwrap();
        let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let committed: Vec<bool> = (a.tx_logs.values())
            .map(|log| log.last().is_some_and(|e| e.optype == TxOpKind::Commit))
            .collect();
        let direct = karousos::verifier::verify_isolation(&advice, &committed, SER).unwrap_err();
        if through_preprocess {
            let staged = preprocess_staged(&p, &t, &advice, SER, 1);
            assert_eq!(direct, staged.unwrap_err());
        }
        direct
    };
    let mismatch = |why| RejectReason::WriteOrderMismatch { why };
    type Edit = Box<dyn Fn(&mut Advice)>;
    let order = |order: Vec<TxPos>| -> Edit { Box::new(move |a| a.write_order = order.clone()) };
    let log_entry = |tx: usize, index: usize, edit: fn(&mut karousos::advice::TxLogEntry)| {
        let key = txs[tx].clone();
        Box::new(move |a: &mut Advice| edit(&mut a.tx_logs.get_mut(&key).unwrap()[index])) as Edit
    };
    let drop_key = |tx, index| log_entry(tx, index, |e| e.key = None);
    // A GET dictated by a `tx_start`: no history operation to point at.
    let dangle_get = |tx| {
        log_entry(tx, 1, |e| {
            let TxOpContents::Get { from } = &mut e.contents else {
                panic!("entry 1 is the GET")
            };
            let own = from
                .clone()
                .expect("the second transaction reads the first");
            *from = Some(TxPos { index: 0, ..own });
        })
    };

    let rows: Vec<(&str, Vec<Edit>, RejectReason, bool)> = vec![
        (
            "length, before an entry in no log",
            vec![order(vec![
                at(0, 3),
                at(0, 4),
                at(1, 3),
                at(1, 4),
                nowhere.clone(),
            ])],
            mismatch("length differs from last-modification count"),
            true,
        ),
        (
            "unknown transaction, before a duplicate",
            vec![order(vec![nowhere.clone(), at(0, 4), at(0, 4), at(1, 4)])],
            mismatch("entry not in any log"),
            true,
        ),
        (
            "index past the log, before a GET",
            vec![order(vec![at(0, 9), at(0, 1), at(1, 3), at(1, 4)])],
            mismatch("entry not in any log"),
            true,
        ),
        (
            "duplicate, before a GET",
            vec![order(vec![at(0, 3), at(0, 3), at(1, 1), at(1, 4)])],
            mismatch("duplicate entry"),
            true,
        ),
        (
            "GET, before a PUT that is not the last",
            vec![order(vec![at(0, 1), at(0, 2), at(1, 3), at(1, 4)])],
            mismatch("entry is not a PUT"),
            true,
        ),
        (
            "tx_start, before the same entry again",
            vec![order(vec![at(0, 0), at(0, 0), at(1, 3), at(1, 4)])],
            mismatch("entry is not a PUT"),
            true,
        ),
        (
            "PUT without key, before a PUT that is not the last and the untranslatable log",
            vec![drop_key(0, 4), order(vec![at(0, 3), at(0, 4), at(1, 2)])],
            mismatch("entry is a PUT without a key"),
            false,
        ),
        (
            "PUT that is not the last, before an untranslatable GET",
            vec![
                dangle_get(1),
                order(vec![at(0, 3), at(0, 4), at(1, 2), at(1, 4)]),
            ],
            mismatch("entry is not a committed last modification"),
            false,
        ),
        (
            "last PUT of a transaction that did not commit",
            vec![
                log_entry(1, 5, |e| e.optype = TxOpKind::Abort),
                order(vec![at(0, 3), at(1, 3)]),
            ],
            mismatch("entry is not a committed last modification"),
            false,
        ),
        (
            "untranslatable GET, before a version order the Adya check refuses",
            vec![
                dangle_get(1),
                order(vec![at(1, 3), at(0, 4), at(0, 3), at(1, 4)]),
            ],
            mismatch("GET references untranslatable write"),
            false,
        ),
        (
            "state operation without key, after a write order that checks out",
            vec![drop_key(0, 1)],
            RejectReason::TxLogMalformed {
                tx: txs[0].clone(),
                why: "state operation without key",
            },
            false,
        ),
    ];
    for (what, edits, expected, through_preprocess) in rows {
        let mut a = honest.clone();
        for edit in &edits {
            edit(&mut a);
        }
        assert_eq!(verdict(&a, through_preprocess), expected, "{what}");
    }
    // The last row's second defect on its own is the Adya check's.
    let mut a = honest.clone();
    a.write_order = vec![at(1, 3), at(0, 4), at(0, 3), at(1, 4)];
    assert!(
        matches!(verdict(&a, true), RejectReason::Isolation(_)),
        "reordered installs of k"
    );
}

/// `n` sequential requests, each one transaction that commits at once.
fn committing_requests(n: usize) -> (kem::Program, Trace, Advice) {
    let mut b = ProgramBuilder::new();
    b.function("handle", vec![tx_start(lit(0i64), "started")]);
    b.function(
        "started",
        vec![tx_commit(
            field(payload(), "tx"),
            field(payload(), "ctx"),
            "done",
        )],
    );
    b.function("done", vec![respond(lit("ok"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let cfg = ServerConfig {
        concurrency: 1,
        ..ServerConfig::default()
    };
    let (out, a) =
        run_instrumented_server(&p, &vec![Value::Null; n], &cfg, CollectorMode::Karousos).unwrap();
    (p, out.trace, a)
}

/// The whole audit at `threads`.
fn audit_at(
    p: &kem::Program,
    t: &Trace,
    a: &Advice,
    threads: usize,
) -> Result<karousos::AuditReport, RejectReason> {
    let auditor = karousos::Auditor {
        threads,
        ..karousos::Auditor::default()
    };
    let audited = auditor.audit(p, t, &encode_advice(a), SER);
    audited.map_err(|failure| failure.reason)
}

fn audit_err_at(p: &kem::Program, t: &Trace, a: &Advice, threads: usize) -> RejectReason {
    audit_at(p, t, a, threads).unwrap_err()
}

/// Preprocess cuts 64 requests into ranges of 16 at one thread and of
/// 2 at eight, so requests 0 and 1 share a range at both. A range runs
/// to its end: the later request's fault, in an earlier section, is the
/// serial first error and wins over the earlier request's.
#[test]
fn first_error_in_a_range_is_the_serial_first() {
    use kem::TxOpKind;
    let (p, t, honest) = committing_requests(64);
    let (first, second) = (RequestId(0), RequestId(1));
    // Request 0: its transaction log opens with a commit (the external
    // section, the last).
    let mut a = honest.clone();
    let tx = a.tx_logs.keys().find(|tx| tx.rid == first).unwrap().clone();
    a.tx_logs.get_mut(&tx).unwrap()[0].optype = TxOpKind::Commit;
    let external = RejectReason::TxLogMalformed {
        tx,
        why: "first entry is not the tx_start",
    };
    // Request 1: a handler whose parent the advice does not report (the
    // activation section).
    let ghost_parent = HandlerId::root(FunctionId(55));
    let f = p.function_id("handle").unwrap();
    let orphan = HandlerId::child(&ghost_parent, f, 1);
    let mut both = a.clone();
    both.opcounts.insert((second, orphan), 0);
    for threads in [1, 8] {
        assert!(audit_at(&p, &t, &honest, threads).is_ok());
        assert_eq!(
            audit_err_at(&p, &t, &a, threads),
            external,
            "threads {threads}"
        );
        assert_eq!(
            audit_err_at(&p, &t, &both, threads),
            RejectReason::BadActivationParent { rid: second },
            "threads {threads}"
        );
    }
}

/// Of two response-emitter faults in one range, the one whose request
/// arrived first wins, whatever the request ids say: the
/// boundary-response section follows trace order.
#[test]
fn response_emitter_faults_order_by_arrival() {
    let (p, mut t, mut a) = committing_requests(64);
    // Request 1 arrives, and is answered, before request 0.
    t.events_mut()[..4].rotate_left(2);
    assert_eq!(t.request_ids()[..2], [RequestId(1), RequestId(0)]);
    a.response_emitted_by.remove(&RequestId(0));
    let (hid, _) = a.response_emitted_by[&RequestId(1)].clone();
    a.response_emitted_by.insert(RequestId(1), (hid, 50));
    for threads in [1, 8] {
        assert_eq!(
            audit_err_at(&p, &t, &a, threads),
            RejectReason::BadResponseEmitter {
                rid: RequestId(1),
                why: "opnum out of range",
            },
            "threads {threads}"
        );
    }
}
