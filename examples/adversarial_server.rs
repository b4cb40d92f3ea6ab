//! Play the dishonest server: a gallery of attacks and the defenses
//! that stop them.
//!
//! ```sh
//! cargo run --release --example adversarial_server
//! ```
//!
//! Each attack starts from an honest stacks-application run, then
//! tampers with the trace or the advice the way a misbehaving server
//! could; the audit must name the defense that fired. The final attack
//! is the paper's Figure 5: a physically impossible cross-read that
//! only the execution-graph cycle check can catch.

use apps::App;
use karousos::advice::{AccessType, VarLogEntry};
use karousos::{
    encode_advice, run_instrumented_server, Advice, AuditFailure, AuditReport, Auditor,
    CollectorMode,
};
use kem::dsl::*;
use kem::TxOpKind;
use kem::{HandlerId, OpRef, ProgramBuilder, RequestId, Trace, Value};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

const SER: IsolationLevel = IsolationLevel::Serializable;

fn main() {
    let exp = Experiment::paper_default(App::Stacks, Mix::Mixed, 4, 3);
    let exp = workload::Experiment {
        requests: 40,
        ..exp
    };
    let program = App::Stacks.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("stacks runs cleanly");
    println!(
        "honest run: {:?}\n",
        audit(&program, &out.trace, &advice, SER).map(|_| "ACCEPT")
    );

    // Attack 1: lie about a response.
    let mut t = out.trace.clone();
    if let Some(kem::TraceEvent::Response { output, .. }) = t.events_mut().last_mut() {
        *output = Value::str("everything is fine, nothing was dropped");
    }
    show("forged response", audit(&program, &t, &advice, SER));

    // Attack 2: overstate how many times a dump was reported, by
    // corrupting the logged PUT value.
    let mut a = advice.clone();
    if let Some(entry) = a
        .tx_logs
        .values_mut()
        .flatten()
        .find(|e| e.optype == TxOpKind::Put)
    {
        if let karousos::TxOpContents::Put { value } = &mut entry.contents {
            *value = Value::map([("dump", Value::str("x")), ("count", Value::int(1_000_000))]);
        }
    }
    show("forged PUT value", audit(&program, &out.trace, &a, SER));

    // Attack 3: hide a committed write from the write order.
    let mut a = advice.clone();
    a.write_order.pop();
    show(
        "truncated write order",
        audit(&program, &out.trace, &a, SER),
    );

    // Attack 4: claim all requests batch together (they do not share
    // control flow).
    let mut a = advice.clone();
    for tag in a.tags.values_mut() {
        *tag = 0;
    }
    show("forged grouping", audit(&program, &out.trace, &a, SER));

    // Attack 5 — Figure 5 of the paper: two requests that each
    // allegedly read the *other's* write. Out-of-order replay would
    // reproduce it; the execution graph exposes the impossibility.
    let (program, trace, advice) = fig5();
    show(
        "figure-5 cross reads",
        audit(&program, &trace, &advice, SER),
    );
}

/// Audits advice as the dishonest server would send it: encoded.
fn audit(
    program: &kem::Program,
    trace: &Trace,
    advice: &Advice,
    isolation: IsolationLevel,
) -> Result<AuditReport, Box<AuditFailure>> {
    Auditor::default().audit(program, trace, &encode_advice(advice), isolation)
}

fn show(name: &str, result: Result<AuditReport, Box<AuditFailure>>) {
    match result {
        Ok(_) => println!("{name:<24} ACCEPT  (!!! the attack went unnoticed)"),
        Err(e) => println!("{name:<24} REJECT: {e}"),
    }
}

/// Builds the Figure 5 scenario from scratch, as a malicious server
/// would: program `t := x; x := input; respond t`, with advice claiming
/// each of two concurrent requests observed the other's write.
fn fig5() -> (kem::Program, Trace, Advice) {
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
    let program = b.build().unwrap();

    let hid = HandlerId::root(program.function_id("handle").unwrap());
    let (r0, r1) = (RequestId(0), RequestId(1));
    let w0 = OpRef::new(r0, hid.clone(), 2);
    let w1 = OpRef::new(r1, hid.clone(), 2);
    let init = OpRef::new(RequestId::INIT, kem::init_handler_id(), 1);

    let mut trace = Trace::new();
    trace.push_request(r0, Value::map([("v", Value::int(5))]));
    trace.push_request(r1, Value::map([("v", Value::int(7))]));
    trace.push_response(r0, Value::int(7));
    trace.push_response(r1, Value::int(5));

    let mut advice = Advice::default();
    for rid in [r0, r1] {
        advice.tags.insert(rid, 1);
        advice.opcounts.insert((rid, hid.clone()), 2);
        advice.response_emitted_by.insert(rid, (hid.clone(), 2));
    }
    let mut log = karousos::VarLog::new();
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
    log.insert(
        OpRef::new(r0, hid.clone(), 1),
        VarLogEntry {
            access: AccessType::Read,
            value: None,
            prec: Some(w1),
        },
    );
    log.insert(
        OpRef::new(r1, hid.clone(), 1),
        VarLogEntry {
            access: AccessType::Read,
            value: None,
            prec: Some(w0),
        },
    );
    advice.var_logs.insert(program.var_id("x").unwrap(), log);
    (program, trace, advice)
}
