//! End-to-end round trips: honest server runs must be ACCEPTed.

use karousos::{
    encode_advice, run_instrumented_server, Advice, AuditReport, Auditor, CollectorMode,
    RejectReason,
};
use kem::dsl::*;
use kem::{Program, ProgramBuilder, SchedPolicy, ServerConfig, Trace, Value};
use kvstore::IsolationLevel;

/// Audits advice still in memory as the bytes it encodes to.
fn audit(
    program: &Program,
    trace: &Trace,
    advice: &Advice,
    isolation: IsolationLevel,
) -> Result<AuditReport, RejectReason> {
    let bytes = encode_advice(advice);
    let audited = Auditor::default().audit(program, trace, &bytes, isolation);
    audited.map_err(|failure| failure.reason)
}

fn cfg(concurrency: usize, seed: u64) -> ServerConfig {
    ServerConfig {
        concurrency,
        policy: SchedPolicy::Random { seed },
        ..Default::default()
    }
}

/// Audit an honest run and expect ACCEPT.
fn assert_honest_accept(program: &Program, inputs: &[Value], cfg: &ServerConfig) {
    for mode in [CollectorMode::Karousos, CollectorMode::OrochiJs] {
        let (out, advice) = run_instrumented_server(program, inputs, cfg, mode).unwrap();
        let report = audit(program, &out.trace, &advice, cfg.isolation)
            .unwrap_or_else(|e| panic!("honest run rejected ({mode:?}): {e}"));
        assert!(report.reexec.groups >= 1);
    }
}

fn counter_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("count", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            swrite("count", add(sread("count"), lit(1i64))),
            respond(sread("count")),
        ],
    );
    b.request_handler("handle");
    b.build().unwrap()
}

#[test]
fn echo_accepts() {
    let mut b = ProgramBuilder::new();
    b.function("handle", vec![respond(field(payload(), "x"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let inputs: Vec<Value> = (0..5).map(|i| Value::map([("x", Value::int(i))])).collect();
    assert_honest_accept(&p, &inputs, &cfg(1, 0));
}

#[test]
fn shared_counter_accepts() {
    let p = counter_program();
    let inputs = vec![Value::Null; 8];
    assert_honest_accept(&p, &inputs, &cfg(1, 1));
    assert_honest_accept(&p, &inputs, &cfg(4, 2));
}

#[test]
fn branching_groups_accept() {
    let mut b = ProgramBuilder::new();
    b.shared_var("msg", Value::str("hello"), true);
    b.function(
        "handle",
        vec![iff(
            eq(field(payload(), "op"), lit("get")),
            vec![respond(sread("msg"))],
            vec![swrite("msg", field(payload(), "m")), respond(lit("ok"))],
        )],
    );
    b.request_handler("handle");
    let p = b.build().unwrap();
    let inputs = vec![
        Value::map([("op", Value::str("get"))]),
        Value::map([("op", Value::str("set")), ("m", Value::str("a"))]),
        Value::map([("op", Value::str("get"))]),
        Value::map([("op", Value::str("set")), ("m", Value::str("b"))]),
        Value::map([("op", Value::str("get"))]),
    ];
    for seed in 0..5 {
        assert_honest_accept(&p, &inputs, &cfg(3, seed));
    }
}

#[test]
fn emit_trees_accept() {
    let mut b = ProgramBuilder::new();
    b.shared_var("acc", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            register("work", "worker"),
            emit("work", field(payload(), "n")),
            emit("done", null()),
        ],
    );
    b.function("worker", vec![swrite("acc", add(sread("acc"), payload()))]);
    b.function("finisher", vec![respond(sread("acc"))]);
    b.request_handler("handle");
    b.global_registration("done", "finisher");
    let p = b.build().unwrap();
    let inputs: Vec<Value> = (1..=6)
        .map(|i| Value::map([("n", Value::int(i))]))
        .collect();
    for seed in 0..5 {
        assert_honest_accept(&p, &inputs, &cfg(3, seed));
    }
}

#[test]
fn transactions_accept_at_all_isolation_levels() {
    let mut b = ProgramBuilder::new();
    b.function("handle", vec![tx_start(payload(), "go")]);
    b.function(
        "go",
        vec![iff(
            eq(field(field(payload(), "ctx"), "op"), lit("put")),
            vec![tx_put(
                field(payload(), "tx"),
                field(field(payload(), "ctx"), "k"),
                field(field(payload(), "ctx"), "v"),
                null(),
                "after",
            )],
            vec![tx_get(
                field(payload(), "tx"),
                field(field(payload(), "ctx"), "k"),
                null(),
                "after_get",
            )],
        )],
    );
    b.function(
        "after",
        vec![iff(
            field(payload(), "ok"),
            vec![tx_commit(field(payload(), "tx"), null(), "done_w")],
            vec![respond(lit("retry"))],
        )],
    );
    b.function(
        "after_get",
        vec![iff(
            field(payload(), "ok"),
            vec![tx_commit(
                field(payload(), "tx"),
                field(payload(), "value"),
                "done_r",
            )],
            vec![respond(lit("retry"))],
        )],
    );
    b.function("done_w", vec![respond(lit("ok"))]);
    b.function("done_r", vec![respond(field(payload(), "ctx"))]);
    b.request_handler("handle");
    let p = b.build().unwrap();

    let inputs: Vec<Value> = (0..10)
        .map(|i| {
            if i % 2 == 0 {
                Value::map([
                    ("op", Value::str("put")),
                    ("k", Value::str(format!("k{}", i % 3))),
                    ("v", Value::int(i)),
                ])
            } else {
                Value::map([
                    ("op", Value::str("get")),
                    ("k", Value::str(format!("k{}", i % 3))),
                ])
            }
        })
        .collect();

    for isolation in IsolationLevel::ALL {
        for seed in 0..4 {
            let c = ServerConfig {
                concurrency: 3,
                isolation,
                policy: SchedPolicy::Random { seed },
                ..Default::default()
            };
            assert_honest_accept(&p, &inputs, &c);
        }
    }
}

#[test]
fn nondet_accepts() {
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            nondet_counter("t"),
            nondet_random("r", 1000),
            respond(mapv(vec![("t", local("t")), ("r", local("r"))])),
        ],
    );
    b.request_handler("handle");
    let p = b.build().unwrap();
    assert_honest_accept(&p, &vec![Value::Null; 6], &cfg(2, 3));
}

#[test]
fn tampered_response_rejected() {
    let p = counter_program();
    let (mut out, advice) = run_instrumented_server(
        &p,
        &vec![Value::Null; 4],
        &cfg(1, 0),
        CollectorMode::Karousos,
    )
    .unwrap();
    // Flip one response in the trace (the server lied about an output).
    for ev in out.trace.events_mut().iter_mut() {
        if let kem::TraceEvent::Response { output, .. } = ev {
            *output = Value::int(999);
            break;
        }
    }
    let err = audit(&p, &out.trace, &advice, IsolationLevel::Serializable).unwrap_err();
    assert!(
        matches!(
            err,
            karousos::RejectReason::OutputMismatch { .. }
                | karousos::RejectReason::VarLogMismatch { .. }
        ),
        "unexpected rejection: {err}"
    );
}

#[test]
fn missing_advice_rejected() {
    let p = counter_program();
    let (out, _) = run_instrumented_server(
        &p,
        &vec![Value::Null; 2],
        &cfg(1, 0),
        CollectorMode::Karousos,
    )
    .unwrap();
    let empty = karousos::Advice::default();
    let err = audit(&p, &out.trace, &empty, IsolationLevel::Serializable).unwrap_err();
    assert!(matches!(
        err,
        karousos::RejectReason::BadResponseEmitter { .. }
            | karousos::RejectReason::MissingTag { .. }
    ));
}

#[test]
fn empty_trace_accepts_trivially() {
    // An audit window with no requests: nothing to check, ACCEPT.
    let p = counter_program();
    let trace = kem::Trace::new();
    let advice = karousos::Advice::default();
    let report = audit(&p, &trace, &advice, IsolationLevel::Serializable).unwrap();
    assert_eq!(report.reexec.groups, 0);
}

#[test]
fn single_request_audit() {
    let p = counter_program();
    let (out, advice) =
        run_instrumented_server(&p, &[Value::Null], &cfg(1, 0), CollectorMode::Karousos).unwrap();
    let report = audit(&p, &out.trace, &advice, IsolationLevel::Serializable).unwrap();
    assert_eq!(report.reexec.groups, 1);
    assert_eq!(report.reexec.activations_covered, 1);
}

#[test]
fn check_operations_round_trip() {
    // §C.1.3 "Check operations": listener counts are logged as handler
    // ops and recomputed by the verifier from the registration history.
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            listener_count("before", "boom"),
            register("boom", "on_boom"),
            listener_count("after", "boom"),
            unregister("boom", "on_boom"),
            listener_count("end", "boom"),
            respond(mapv(vec![
                ("before", local("before")),
                ("after", local("after")),
                ("end", local("end")),
            ])),
        ],
    );
    b.function("on_boom", vec![]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (out, advice) = run_instrumented_server(
        &p,
        &vec![Value::Null; 3],
        &cfg(2, 5),
        CollectorMode::Karousos,
    )
    .unwrap();
    let resp = out.trace.output_of(kem::RequestId(0)).unwrap();
    assert_eq!(resp.field("before").unwrap(), &Value::int(0));
    assert_eq!(resp.field("after").unwrap(), &Value::int(1));
    assert_eq!(resp.field("end").unwrap(), &Value::int(0));
    // Honest audit accepts (and the wire codec carries Check entries).
    audit(&p, &out.trace, &advice, IsolationLevel::Serializable).unwrap();
}

#[test]
fn forged_check_count_history_rejected() {
    // A server reordering a Check op after a Register in the handler
    // log would change the recomputed count and the fed value: the
    // response mismatch (or handler-op mismatch) catches it.
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            listener_count("n", "boom"),
            register("boom", "on_boom"),
            respond(local("n")),
        ],
    );
    b.function("on_boom", vec![]);
    b.request_handler("handle");
    let p = b.build().unwrap();
    let (out, mut advice) =
        run_instrumented_server(&p, &[Value::Null], &cfg(1, 0), CollectorMode::Karousos).unwrap();
    // Swap the Check and Register entries in the handler log.
    let log = advice.handler_logs.values_mut().next().unwrap();
    log.swap(0, 1);
    assert!(audit(&p, &out.trace, &advice, IsolationLevel::Serializable).is_err());
}
