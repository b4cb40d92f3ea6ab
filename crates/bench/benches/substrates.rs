//! Microbenches for the substrates the Karousos algorithms sit on:
//! the transactional store, Adya isolation checking, R-order testing,
//! and execution-graph cycle detection. These quantify the ablation
//! costs called out in DESIGN.md (per-operation bookkeeping vs
//! application work).

use criterion::{criterion_group, criterion_main, Criterion};
use karousos::r_precedes;
use kem::{FunctionId, HandlerId, OpRef, RequestId};
use kvstore::{IsolationLevel, Store};

fn bench_store(c: &mut Criterion) {
    c.bench_function("kvstore/put-get-commit", |b| {
        b.iter(|| {
            let mut s: Store<i64> = Store::new(IsolationLevel::Serializable);
            for i in 0..100 {
                let t = s.begin();
                s.put(t, "k", i, 1).unwrap();
                s.get(t, "k").unwrap();
                s.commit(t).unwrap();
            }
            s
        })
    });
}

fn bench_adya(c: &mut Criterion) {
    // A chain of 200 transactions each reading the previous write.
    let mut b = adya::HistoryBuilder::new();
    b.put(adya::TxnId(0), "x");
    b.commit(adya::TxnId(0));
    for i in 1..200u64 {
        // The previous transaction's PUT is its op 0 (for the first
        // transaction) or op 1 (GET then PUT).
        let prev_put = if i == 1 { 0 } else { 1 };
        b.get(adya::TxnId(i), "x", Some((adya::TxnId(i - 1), prev_put)));
        b.put(adya::TxnId(i), "x");
        b.commit(adya::TxnId(i));
    }
    let history = b.finish();
    c.bench_function("adya/serializability-200txn", |bch| {
        bch.iter(|| adya::check_isolation(&history, adya::IsolationLevel::Serializable).unwrap())
    });
}

fn bench_rorder(c: &mut Criterion) {
    // A deep handler chain: ancestor tests walk parent pointers.
    let mut hid = HandlerId::root(FunctionId(0));
    for i in 1..40 {
        hid = HandlerId::child(&hid, FunctionId(i), 1);
    }
    let root_op = OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1);
    let leaf_op = OpRef::new(RequestId(0), hid, 1);
    c.bench_function("rorder/ancestor-depth-40", |b| {
        b.iter(|| r_precedes(&root_op, &leaf_op))
    });
}

fn bench_graph(c: &mut Criterion) {
    use karousos::verifier::{Coords, Graph};
    use std::sync::Arc;
    // One request whose single handler has 50k + 1 operations (they
    // are consecutive node ids): the chain is its program order.
    let hid = HandlerId::root(FunctionId(0));
    let trace = [RequestId(0)];
    let opcounts = [((RequestId(0), hid.clone()), 50_001)]
        .into_iter()
        .collect();
    let coords = Arc::new(Coords::build(&trace, &opcounts).unwrap());
    let first = coords.op_node(&OpRef::new(RequestId(0), hid, 1)).unwrap();
    c.bench_function("graph/cycle-detect-50k", |b| {
        b.iter(|| {
            let mut g = Graph::new(coords.clone());
            for i in 0..50_000u32 {
                g.add_edge(first + i, first + i + 1, karousos::EdgeKind::Program);
            }
            assert!(!g.has_cycle());
            g
        })
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(10);
    targets = bench_store, bench_adya, bench_rorder, bench_graph
}
criterion_main!(substrates);
