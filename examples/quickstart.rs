//! Quickstart: write a tiny event-driven app, run the instrumented
//! server on it, and audit the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper's deployment (Fig. 1): the *server* runs
//! the application and collects advice; the *collector* (here, the
//! simulated server boundary) produces the trusted trace; the
//! *verifier* replays the trace in batches and accepts or rejects.

use karousos::{encode_advice, run_instrumented_server, Auditor, CollectorMode};
use kem::dsl::*;
use kem::{ProgramBuilder, SchedPolicy, ServerConfig, Value};
use kvstore::IsolationLevel;

fn main() {
    // 1. The application: a shared greeting that clients read or set.
    let mut b = ProgramBuilder::new();
    b.shared_var("greeting", Value::str("hello"), /* loggable */ true);
    b.function(
        "handle",
        vec![iff(
            eq(field(payload(), "op"), lit("get")),
            vec![respond(sread("greeting"))],
            vec![
                swrite("greeting", field(payload(), "text")),
                respond(lit("ok")),
            ],
        )],
    );
    b.request_handler("handle");
    let program = b.build().expect("valid program");

    // 2. A workload: interleaved reads and writes, four at a time.
    let inputs: Vec<Value> = (0..12)
        .map(|i| {
            if i % 3 == 0 {
                Value::map([
                    ("op", Value::str("set")),
                    ("text", Value::str(format!("msg {i}"))),
                ])
            } else {
                Value::map([("op", Value::str("get"))])
            }
        })
        .collect();
    let cfg = ServerConfig {
        concurrency: 4,
        isolation: IsolationLevel::Serializable,
        policy: SchedPolicy::Random { seed: 2024 },
        ..Default::default()
    };

    // 3. Run the Karousos server: it executes the app *and* collects
    //    advice; the trace is the collector's ground truth.
    let (out, advice) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
        .expect("application runs cleanly");
    println!(
        "server handled {} requests in {} scheduler steps",
        inputs.len(),
        out.steps
    );
    let bytes = encode_advice(&advice);
    println!(
        "advice: {} var-log entries, {} bytes on the wire",
        advice.var_log_entries(),
        bytes.len()
    );

    // 4. Audit: re-execute the trace in groups, checked against the
    //    (untrusted) advice as it crossed the wire.
    let auditor = Auditor::default();
    let report = auditor
        .audit(&program, &out.trace, &bytes, cfg.isolation)
        .expect("honest executions are always accepted");
    println!(
        "ACCEPT: {} re-execution groups covering {} handler activations \
         ({} handler bodies actually interpreted)",
        report.reexec.groups, report.reexec.activations_covered, report.reexec.handlers_executed
    );

    // 5. A tampered trace is rejected.
    let mut tampered = out.trace.clone();
    for ev in tampered.events_mut().iter_mut().rev() {
        if let kem::TraceEvent::Response { output, .. } = ev {
            *output = Value::str("message the server never sent");
            break;
        }
    }
    let err = auditor
        .audit(&program, &tampered, &bytes, cfg.isolation)
        .expect_err("tampered traces are always rejected");
    println!("REJECT (as expected): {err}");
}
