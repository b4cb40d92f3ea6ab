//! Orochi-JS: Orochi's algorithms on the Karousos codebase (§6).
//!
//! The paper cannot run Orochi directly (its implementation is bound to
//! PHP), so it reimplements Orochi's two distinguishing policies on the
//! shared codebase:
//!
//! 1. **Grouping**: "requests are placed in a re-executed batch only if
//!    they induce the identical *sequence* of handlers, not merely a
//!    topologically equivalent tree" — the order-sensitive tag of
//!    [`karousos::CollectorMode::OrochiJs`].
//! 2. **Logging**: "all accesses to (loggable) variables are logged,
//!    rather than only the R-concurrent accesses".
//!
//! Both live in the collector, and the verifier machinery is shared:
//! Orochi-JS advice is [`karousos::run_instrumented_server`] run with
//! [`karousos::CollectorMode::OrochiJs`] — simply advice in which every
//! access is logged and groups are finer — so [`karousos::Auditor`]
//! audits both. This module holds the tests of that claim.

#[cfg(test)]
mod tests {
    use karousos::{encode_advice, run_instrumented_server, Auditor, CollectorMode};
    use kem::dsl::*;
    use kem::{Program, ProgramBuilder, SchedPolicy, ServerConfig, Value};
    use kvstore::IsolationLevel;

    /// A program whose two sibling handlers can run in either order:
    /// Karousos batches the two orders together, Orochi-JS must not.
    fn sibling_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Int(0), true);
        b.function(
            "handle",
            vec![emit("a", null()), emit("b", null()), respond(lit("ok"))],
        );
        b.function("on_a", vec![swrite("x", add(sread("x"), lit(1i64)))]);
        b.function("on_b", vec![swrite("x", add(sread("x"), lit(10i64)))]);
        b.request_handler("handle");
        b.global_registration("a", "on_a");
        b.global_registration("b", "on_b");
        b.build().unwrap()
    }

    #[test]
    fn orochi_honest_accepts() {
        let p = sibling_program();
        let cfg = ServerConfig {
            concurrency: 4,
            policy: SchedPolicy::Random { seed: 7 },
            ..Default::default()
        };
        let inputs = vec![Value::Null; 6];
        let (out, advice) =
            run_instrumented_server(&p, &inputs, &cfg, CollectorMode::OrochiJs).unwrap();
        let bytes = encode_advice(&advice);
        let auditor = Auditor::default();
        auditor
            .audit(&p, &out.trace, &bytes, IsolationLevel::Serializable)
            .unwrap();
    }

    #[test]
    fn orochi_logs_at_least_as_much_as_karousos() {
        let p = sibling_program();
        let cfg = ServerConfig {
            concurrency: 4,
            policy: SchedPolicy::Random { seed: 7 },
            ..Default::default()
        };
        let inputs = vec![Value::Null; 6];
        let (_, oro) = run_instrumented_server(&p, &inputs, &cfg, CollectorMode::OrochiJs).unwrap();
        let (_, kar) = run_instrumented_server(&p, &inputs, &cfg, CollectorMode::Karousos).unwrap();
        assert!(oro.var_log_entries() >= kar.var_log_entries());
        assert!(
            karousos::encode_advice(&oro).len() >= karousos::encode_advice(&kar).len(),
            "Orochi-JS advice should not be smaller"
        );
    }

    #[test]
    fn orochi_groups_are_never_coarser() {
        let p = sibling_program();
        let inputs = vec![Value::Null; 10];
        for seed in 0..6u64 {
            let cfg = ServerConfig {
                concurrency: 5,
                policy: SchedPolicy::Random { seed },
                ..Default::default()
            };
            let (out_o, oro) =
                run_instrumented_server(&p, &inputs, &cfg, CollectorMode::OrochiJs).unwrap();
            let (out_k, kar) =
                run_instrumented_server(&p, &inputs, &cfg, CollectorMode::Karousos).unwrap();
            let go = oro.groups(&out_o.trace.request_ids()).len();
            let gk = kar.groups(&out_k.trace.request_ids()).len();
            assert!(go >= gk, "seed {seed}: orochi {go} groups < karousos {gk}");
        }
    }
}
