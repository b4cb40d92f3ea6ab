//! Property tests for the direct serialization graph.

use std::collections::{BTreeMap, BTreeSet};

use adya::{
    check_isolation, Dsg, EdgeKind, History, HistoryBuilder, IsolationLevel, Op, OpRef, TxnId,
    Violation,
};
use proptest::prelude::*;

/// A random sequential history: transactions run one at a time, each
/// reading keys (from the latest committed installer) and writing keys.
/// Such histories are serial by construction, so they must pass every
/// isolation level.
fn serial_history(ops: Vec<(u8, bool, u8)>) -> adya::History {
    let mut b = HistoryBuilder::new();
    // last committed final write per key: (txn, index)
    let mut installed: std::collections::HashMap<u8, (TxnId, u32)> = Default::default();
    let mut txn = 0u64;
    let mut pending: Vec<(u8, u32)> = Vec::new(); // key → op index of last put
    for (key, is_write, commit_roll) in ops {
        let id = TxnId(txn);
        b.touch(id);
        if is_write {
            let r = b.put(id, &format!("k{key}"));
            pending.retain(|(k, _)| *k != key);
            pending.push((key, r.index));
        } else {
            let from = installed.get(&key).copied();
            b.get(id, &format!("k{key}"), from);
        }
        if commit_roll % 3 == 0 {
            // Commit this transaction: its pending writes install.
            b.commit(id);
            for (k, i) in pending.drain(..) {
                installed.insert(k, (id, i));
            }
            txn += 1;
        } else if commit_roll % 7 == 0 {
            // Abort: nothing installs.
            pending.clear();
            txn += 1;
        }
    }
    // Abandon (abort) the trailing transaction.
    b.finish()
}

/// One generated operation: `(key, is_put, dictating write)`; the
/// dictating write is `(txn, index)` drawn blind, so it may dangle,
/// name a `GET`, or name an aborted or intermediate write.
type GenOp = (u8, bool, Option<(u8, u8)>);

/// An arbitrary — mostly *not* serial — history: transactions with
/// blind reads, some committed, and a version order that starts from
/// the store-shaped default and is then perturbed with dangling
/// entries, `GET` entries, duplicates, swaps and removals.
fn arbitrary_history(txns: Vec<(Vec<GenOp>, bool)>, edits: Vec<(u8, u8, u8, u8)>) -> History {
    let mut b = HistoryBuilder::new();
    for (t, (ops, committed)) in txns.iter().enumerate() {
        let id = TxnId(t as u64);
        b.touch(id);
        for (key, is_put, from) in ops {
            let key = format!("k{key}");
            if *is_put {
                b.put(id, &key);
            } else {
                b.get(id, &key, from.map(|(t, i)| (TxnId(t as u64), i as u32)));
            }
        }
        if *committed {
            b.commit(id);
        }
    }
    let mut order = b.clone().finish().version_order;
    for (action, pos, txn, index) in edits {
        let entry = OpRef {
            txn: TxnId(txn as u64),
            index: index as u32,
        };
        let len = order.len();
        let at = if len == 0 { 0 } else { pos as usize % len };
        match action % 4 {
            0 => order.insert(at, entry),
            1 if len > 0 => order.insert(at, order[at]),
            2 if len > 1 => order.swap(at, (at + 1) % len),
            3 if len > 0 => {
                order.remove(at);
            }
            _ => {}
        }
    }
    b.set_version_order(order);
    b.finish()
}

/// The DSG edge set as `Dsg::build` computed it before the version
/// order was bucketed by key: for every key of the history, filter the
/// whole version order down to that key's entries, then walk them.
fn reference_edges(h: &History) -> BTreeSet<(TxnId, TxnId, EdgeKind)> {
    let mut edges = BTreeSet::new();
    let mut readers: BTreeMap<(TxnId, u32), Vec<TxnId>> = BTreeMap::new();
    let mut init_readers: BTreeMap<&str, Vec<TxnId>> = BTreeMap::new();
    for (txn, rec) in h.txns.iter().filter(|(_, rec)| rec.committed) {
        for op in &rec.ops {
            match op {
                Op::Get { from: Some(w), .. } => {
                    if w.txn != *txn && h.is_committed(w.txn) {
                        edges.insert((w.txn, *txn, EdgeKind::ReadDepend));
                    }
                    readers.entry((w.txn, w.index)).or_default().push(*txn);
                }
                Op::Get { key, from: None } => {
                    init_readers.entry(key.as_str()).or_default().push(*txn);
                }
                Op::Put { .. } => {}
            }
        }
    }
    for key in h.keys() {
        let order = h.version_order_of(&key);
        if let (Some(first), Some(rs)) = (order.first(), init_readers.get(key.as_str())) {
            for r in rs.iter().filter(|r| **r != first.txn) {
                edges.insert((*r, first.txn, EdgeKind::AntiDepend));
            }
        }
        for pair in order.windows(2) {
            let (w1, w2) = (pair[0], pair[1]);
            if w1.txn != w2.txn {
                edges.insert((w1.txn, w2.txn, EdgeKind::WriteDepend));
            }
            for r in readers.get(&(w1.txn, w1.index)).into_iter().flatten() {
                if *r != w2.txn {
                    edges.insert((*r, w2.txn, EdgeKind::AntiDepend));
                }
            }
        }
    }
    edges
}

/// `check_isolation` with the aberrant-read test as it was before the
/// installed writes were collected once: a scan of the version order
/// per committed cross-transaction `GET`. The cycle tests run on the
/// real `Dsg`, whose edge set the caller has already compared with
/// [`reference_edges`].
fn reference_check(h: &History, level: IsolationLevel) -> Result<(), Violation> {
    for entry in &h.version_order {
        let malformed = Violation::MalformedVersionOrder { entry: *entry };
        let Some(Op::Put { key }) = h.op(*entry) else {
            return Err(malformed);
        };
        if !h.is_committed(entry.txn) {
            return Err(malformed);
        }
        if h.txns[&entry.txn].last_put_to(key) != Some(entry.index) {
            return Err(Violation::NotFinalWrite { entry: *entry });
        }
    }
    let dsg = Dsg::build(h);
    let cycle = |kinds: &[EdgeKind]| dsg.find_cycle(kinds);
    if level == IsolationLevel::ReadUncommitted {
        return match cycle(&[EdgeKind::WriteDepend]) {
            Some(witness) => Err(Violation::G0 { witness }),
            None => Ok(()),
        };
    }
    for (txn, rec) in h.txns.iter().filter(|(_, rec)| rec.committed) {
        for (i, op) in rec.ops.iter().enumerate() {
            let Op::Get { from: Some(w), .. } = op else {
                continue;
            };
            let reader = OpRef {
                txn: *txn,
                index: i as u32,
            };
            if w.txn == *txn {
                continue;
            }
            let Some(Op::Put { .. }) = h.op(*w) else {
                return Err(Violation::G1b { reader });
            };
            if !h.is_committed(w.txn) {
                return Err(Violation::G1a { reader });
            }
            if !h.version_order.contains(w) {
                return Err(Violation::G1b { reader });
            }
        }
    }
    if let Some(witness) = cycle(&[EdgeKind::WriteDepend, EdgeKind::ReadDepend]) {
        return Err(Violation::G1c { witness });
    }
    if level == IsolationLevel::Serializable {
        if let Some(witness) = cycle(&[
            EdgeKind::WriteDepend,
            EdgeKind::ReadDepend,
            EdgeKind::AntiDepend,
        ]) {
            return Err(Violation::G2 { witness });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bucketed `Dsg::build` and the sorted installed-write lookup
    /// agree with the per-key filter and the per-read scan they
    /// replaced, on histories whose version order may dangle, repeat
    /// itself or name `GET`s.
    #[test]
    fn bucketed_version_order_matches_per_key_filter(
        txns in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..3, any::<bool>(), prop::option::of((0u8..7, 0u8..5))),
                    0..6,
                ),
                any::<bool>(),
            ),
            1..6,
        ),
        edits in prop::collection::vec((0u8..8, any::<u8>(), 0u8..7, 0u8..5), 0..6),
    ) {
        let h = arbitrary_history(txns, edits);
        let built: BTreeSet<_> = Dsg::build(&h).edges().collect();
        prop_assert_eq!(built, reference_edges(&h));
        for level in [
            IsolationLevel::ReadUncommitted,
            IsolationLevel::ReadCommitted,
            IsolationLevel::Serializable,
        ] {
            prop_assert_eq!(
                check_isolation(&h, level).map(|_| ()),
                reference_check(&h, level),
                "level {:?}", level
            );
        }
    }

    /// Serial histories pass all three levels.
    #[test]
    fn serial_histories_pass_everything(ops in prop::collection::vec((0u8..3, any::<bool>(), 0u8..21), 1..40)) {
        let h = serial_history(ops);
        for level in [
            IsolationLevel::ReadUncommitted,
            IsolationLevel::ReadCommitted,
            IsolationLevel::Serializable,
        ] {
            prop_assert!(check_isolation(&h, level).is_ok(), "level {level:?}");
        }
    }

    /// DSG edges never originate from or point to uncommitted
    /// transactions, and never self-loop.
    #[test]
    fn dsg_edges_are_between_distinct_committed_txns(ops in prop::collection::vec((0u8..3, any::<bool>(), 0u8..21), 1..40)) {
        let h = serial_history(ops);
        let g = Dsg::build(&h);
        let nodes: std::collections::HashSet<TxnId> = g.nodes().collect();
        for (a, b, _) in g.edges() {
            prop_assert!(a != b, "self loop {a:?}");
            prop_assert!(nodes.contains(&a) && nodes.contains(&b));
            prop_assert!(h.is_committed(a) && h.is_committed(b));
        }
    }

    /// Write-dependency edges per key form a path (no branching): each
    /// transaction has at most one ww successor per key chain in a
    /// serial history.
    #[test]
    fn ww_edges_follow_version_order_shape(ops in prop::collection::vec((0u8..2, any::<bool>(), 0u8..21), 1..40)) {
        let h = serial_history(ops);
        let g = Dsg::build(&h);
        // In a serial history the ww subgraph must be acyclic.
        prop_assert!(g.find_cycle(&[EdgeKind::WriteDepend]).is_none());
    }
}

/// Reading the initial state of a key whose first version was installed
/// earlier creates an anti-dependency that breaks serializability when
/// it contradicts a read dependency.
#[test]
fn init_read_anti_dependency_cycles() {
    let mut b = HistoryBuilder::new();
    // T0 installs k. T1 reads k's *initial* state (claims it ran
    // before T0) but also reads a value T0 wrote to another key j —
    // contradiction.
    b.put(TxnId(0), "k");
    b.put(TxnId(0), "j");
    b.commit(TxnId(0));
    b.get(TxnId(1), "k", None); // initial read ⇒ T1 → T0 (anti)
    b.get(TxnId(1), "j", Some((TxnId(0), 1))); // reads T0 ⇒ T0 → T1 (wr)
    b.commit(TxnId(1));
    let h = b.finish();
    assert!(check_isolation(&h, IsolationLevel::ReadCommitted).is_ok());
    assert!(matches!(
        check_isolation(&h, IsolationLevel::Serializable),
        Err(adya::Violation::G2 { .. })
    ));
}
