//! Audit a realistic wiki workload end-to-end, comparing Karousos
//! against the Orochi-JS baseline on grouping and advice size.
//!
//! ```sh
//! cargo run --release --example wiki_audit
//! ```
//!
//! This is the paper's headline application (§6): a Wiki.js-like app
//! with page creation, comments, and renders in the 25/15/60 ratio
//! derived from a Wikipedia trace.

use std::time::Instant;

use apps::App;
use karousos::{advice_sizes, encode_advice, run_instrumented_server, Auditor, CollectorMode};
use workload::{Experiment, Mix};

fn main() {
    let exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 30, 7);
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    println!(
        "wiki workload: {} requests, concurrency {}",
        inputs.len(),
        exp.concurrency
    );

    for mode in [CollectorMode::Karousos, CollectorMode::OrochiJs] {
        let t0 = Instant::now();
        let (out, advice) = run_instrumented_server(&program, &inputs, &exp.server_config(), mode)
            .expect("wiki runs cleanly");
        let server_time = t0.elapsed();

        let bytes = encode_advice(&advice);
        let t0 = Instant::now();
        let report = Auditor::default()
            .audit(&program, &out.trace, &bytes, exp.isolation)
            .expect("honest wiki executions are accepted");
        let verify_time = t0.elapsed();

        let sizes = advice_sizes(&advice);
        println!("\n[{mode:?}]");
        println!("  server time          {server_time:?}");
        println!("  verification time    {verify_time:?}");
        println!("  re-execution groups  {}", report.reexec.groups);
        println!(
            "  advice               {} KB total, {} KB variable logs ({}%)",
            sizes.total() / 1024,
            sizes.var_logs / 1024,
            sizes.var_logs * 100 / sizes.total().max(1)
        );
        println!(
            "  dedup                {} collapsed vs {} expanded operations",
            report.reexec.uniform_ops, report.reexec.expanded_ops
        );
    }

    // The sequential baseline replays one request at a time.
    let (out, _) = run_instrumented_server(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .unwrap();
    let t0 = Instant::now();
    let seq =
        baselines::sequential_reexecute(&program, &out.trace, exp.isolation).expect("replay runs");
    println!(
        "\n[sequential baseline] {} requests replayed in {:?} ({} matched)",
        seq.replayed,
        t0.elapsed(),
        seq.matched
    );
}
