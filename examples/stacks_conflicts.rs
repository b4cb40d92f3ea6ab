//! Concurrency, conflicts, and isolation levels on the stack-dump app.
//!
//! ```sh
//! cargo run --release --example stacks_conflicts
//! ```
//!
//! Demonstrates the transactional substrate end-to-end: conflicting
//! concurrent reports produce retry errors (the paper's deadlock-
//! avoidance behaviour), aborted transactions leave no trace in the
//! write order, and the audit accepts at every supported isolation
//! level — including the weak levels where dirty reads are legal.

use apps::App;
use karousos::{encode_advice, run_instrumented_server, Auditor, CollectorMode};
use kem::TxOpKind;
use kem::{RequestId, SchedPolicy, ServerConfig, Value};
use kvstore::IsolationLevel;

fn main() {
    // Everyone reports the same dump at once: conflicts guaranteed on
    // some schedules.
    let inputs: Vec<Value> = (0..8)
        .map(|i| {
            if i % 4 == 3 {
                apps::stacks::count("segfault in parser")
            } else {
                apps::stacks::report("segfault in parser")
            }
        })
        .collect();
    let program = App::Stacks.program();

    for isolation in IsolationLevel::ALL {
        println!("== isolation: {isolation} ==");
        for seed in 0..3u64 {
            let cfg = ServerConfig {
                concurrency: 6,
                isolation,
                policy: SchedPolicy::Random { seed },
                ..Default::default()
            };
            let (out, advice) =
                run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
                    .expect("stacks runs cleanly");
            let retries = (0..inputs.len())
                .filter(|&i| {
                    out.trace
                        .output_of(RequestId(i as u64))
                        .and_then(|v| v.field("error").cloned())
                        .is_some()
                })
                .count();
            let aborted = advice
                .tx_logs
                .values()
                .filter(|log| log.last().is_some_and(|e| e.optype == TxOpKind::Abort))
                .count();
            let bytes = encode_advice(&advice);
            let verdict = match Auditor::default().audit(&program, &out.trace, &bytes, isolation) {
                Ok(_) => "ACCEPT".to_string(),
                Err(e) => format!("REJECT: {e}"),
            };
            println!(
                "  seed {seed}: {} commits, {aborted} aborted txns, {retries} retry \
                 responses → {verdict}",
                out.store_stats.committed,
            );
        }
    }
}
