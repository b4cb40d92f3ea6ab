//! Cost-ledger determinism: the per-group attribution rows are an
//! *audit artifact*, so their deterministic columns must be
//! bit-identical across every execution strategy — the telemetry-on
//! points of the shared matrix (`tests/common`), one per worker-thread
//! count — exactly like verdicts and metrics. The advisory columns
//! (wall-clock, allocation events) are excluded from the deterministic
//! key by construction; this file pins both halves of that contract,
//! plus the power-of-two bucket classification the registry's histograms
//! are built on.

mod common;

use apps::App;
use karousos::{
    audit_encoded_with_obs, run_instrumented_server_encoded, AuditOptions, CollectorMode,
};
use obs::Obs;
use proptest::prelude::*;
use workload::{Experiment, Mix};

fn wiki_run() -> (
    kem::Program,
    kem::RunOutput,
    Vec<u8>,
    kvstore::IsolationLevel,
) {
    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 5);
    exp.requests = 80;
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    let (out, advice) = run_instrumented_server_encoded(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("wiki app runs");
    (program, out, advice, exp.isolation)
}

fn ledger_for(
    program: &kem::Program,
    out: &kem::RunOutput,
    advice: &[u8],
    iso: kvstore::IsolationLevel,
    opts: AuditOptions,
) -> obs::CostLedger {
    let obs = Obs::enabled();
    audit_encoded_with_obs(program, &out.trace, advice, iso, opts, &obs)
        .expect("honest advice must be accepted");
    obs.snapshot().ledger
}

#[test]
fn ledger_bit_identical_across_threads_bytecode() {
    let (program, out, advice, iso) = wiki_run();
    let mut reference: Option<obs::CostLedger> = None;
    for point in common::matrix().into_iter().filter(|p| p.obs) {
        let opts = point.opts;
        let ledger = ledger_for(&program, &out, &advice, iso, opts);
        assert!(!ledger.groups.is_empty(), "wiki audit must record groups");
        // Rows arrive in ascending group order in every
        // configuration (shards are absorbed in merge order).
        for w in ledger.groups.windows(2) {
            assert!(
                w[0].group < w[1].group,
                "ledger rows out of order: {} then {}",
                w[0].group,
                w[1].group
            );
        }
        // Every handler runs the framework loop (`apps::middleware`):
        // collapsed integer arithmetic, the fused windows' case. The
        // fused columns are shares of their row's ops and fuel.
        assert!(ledger.totals().fused_fuel > 0, "no fused window metered");
        for g in &ledger.groups {
            assert!(g.bytecode_ops > 0, "group {} metered no ops", g.group);
            assert!(g.fused_ops <= g.bytecode_ops && g.fused_fuel <= g.fuel);
        }
        match &reference {
            None => reference = Some(ledger),
            Some(r) => {
                let keys: Vec<[u64; 13]> = ledger
                    .groups
                    .iter()
                    .map(|g| g.deterministic_key())
                    .collect();
                let ref_keys: Vec<[u64; 13]> =
                    r.groups.iter().map(|g| g.deterministic_key()).collect();
                assert_eq!(ref_keys, keys, "ledger diverged at {opts:?}");
                // Totals over the deterministic columns agree
                // too (fuel, ops, fused windows, feeds, var accesses).
                let (rt, lt) = (r.totals(), ledger.totals());
                assert_eq!(rt.groups, lt.groups);
                assert_eq!(rt.requests, lt.requests);
                assert_eq!(rt.fuel, lt.fuel);
                assert_eq!(rt.ops, lt.ops);
                assert_eq!(rt.bytecode_ops, lt.bytecode_ops);
                assert_eq!(rt.fused_fuel, lt.fused_fuel);
                assert_eq!(rt.dict_feeds, lt.dict_feeds);
                assert_eq!(rt.var_accesses, lt.var_accesses);
            }
        }
    }
}

proptest! {
    /// Power-of-two bucket-edge classification: for any value, the
    /// chosen bucket's bound contains it and the previous bucket's
    /// bound does not — including exactly at the edges, where
    /// `v == 2^i` must land in bucket `i`, not `i + 1`.
    #[test]
    fn bucket_classification_is_tight(v in any::<u64>()) {
        let i = obs::bucket_index(v);
        prop_assert!(i < obs::NUM_BUCKETS);
        match obs::bucket_bound(i) {
            Some(bound) => prop_assert!(v <= bound, "{v} > bound {bound} of its bucket {i}"),
            None => {
                // Overflow bucket: v exceeds the last finite bound.
                let last = obs::bucket_bound(obs::NUM_BUCKETS - 2).expect("finite bound");
                prop_assert!(v > last, "{v} <= {last} but classified overflow");
            }
        }
        if i > 0 {
            let prev = obs::bucket_bound(i - 1).expect("finite bound");
            prop_assert!(v > prev, "{v} fits bucket {} too", i - 1);
        }
    }

    /// Exact edges: `2^k` goes in bucket k, `2^k + 1` in bucket k+1.
    #[test]
    fn bucket_edges_classify_exactly(k in 0u32..14) {
        let edge = 1u64 << k;
        prop_assert_eq!(obs::bucket_index(edge), k as usize);
        prop_assert_eq!(obs::bucket_index(edge + 1), k as usize + 1);
    }
}
