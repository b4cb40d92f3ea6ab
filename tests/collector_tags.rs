//! Branch bits stay with the activation that took them.
//!
//! A request's Karousos tag digests the multiset of its handlers'
//! (handler id, control-flow digest) pairs. Here every request runs two
//! listeners that loop `n` times and a transaction continuation that
//! branches on `flag`, and concurrently scheduled requests interleave
//! their activations. If a branch bit were folded into any digest but
//! that of the activation that took it, a request's tag would depend
//! on the schedule, and requests with the same `(n, flag)` would not
//! share a tag.

use karousos::{run_instrumented_server, CollectorMode};
use kem::dsl::*;
use kem::{ProgramBuilder, RequestId, SchedPolicy, ServerConfig, Value};

fn program() -> kem::Program {
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            register("e", "count_a"),
            register("e", "count_b"),
            emit("e", payload()),
            tx_start(payload(), "started"),
        ],
    );
    let count = || {
        vec![
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), field(payload(), "n")),
                vec![let_("i", add(local("i"), lit(1i64)))],
            ),
        ]
    };
    b.function("count_a", count());
    b.function("count_b", count());
    b.function(
        "started",
        vec![
            iff(
                field(field(payload(), "ctx"), "flag"),
                vec![respond(lit("yes"))],
                vec![respond(lit("no"))],
            ),
            tx_commit(field(payload(), "tx"), null(), "committed"),
        ],
    );
    b.function("committed", vec![]);
    b.request_handler("handle");
    b.build().expect("program builds")
}

/// 24 requests: each `(n, flag)` of {1, 2, 3} × {true, false}, four times.
fn inputs() -> Vec<(i64, bool)> {
    (0..24).map(|i| (1 + i % 3, (i / 3) % 2 == 0)).collect()
}

fn tags(program: &kem::Program, concurrency: usize, policy: SchedPolicy) -> Vec<u64> {
    let inputs: Vec<Value> = inputs()
        .into_iter()
        .map(|(n, flag)| Value::map([("n", Value::Int(n)), ("flag", Value::Bool(flag))]))
        .collect();
    let cfg = ServerConfig {
        concurrency,
        policy,
        ..ServerConfig::default()
    };
    let (_, advice) = run_instrumented_server(program, &inputs, &cfg, CollectorMode::Karousos)
        .expect("the program runs cleanly");
    (0..inputs.len() as u64)
        .map(|r| advice.tags[&RequestId(r)])
        .collect()
}

#[test]
fn branch_bits_stay_with_the_activation_that_took_them() {
    let program = program();
    let serial = tags(&program, 1, SchedPolicy::Fifo);
    for seed in 1..=4 {
        let concurrent = tags(&program, 8, SchedPolicy::Random { seed });
        assert_eq!(
            concurrent, serial,
            "seed {seed}: a tag depends on the schedule"
        );
    }
    let inputs = inputs();
    for (i, a) in inputs.iter().enumerate() {
        for (j, b) in inputs.iter().enumerate() {
            assert_eq!(
                serial[i] == serial[j],
                a == b,
                "requests {i} {a:?} and {j} {b:?}: tags equal iff inputs equal"
            );
        }
    }
}
