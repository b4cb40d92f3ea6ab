//! Property tests for the direct serialization graph and the per-level
//! checks, against the `String` / `BTreeMap` checker in `model/`.

mod model;

use std::collections::{BTreeMap, BTreeSet};

use adya::{
    check_isolation, Dsg, EdgeKind, History, HistoryBuilder, IsolationLevel, OpRef, TxnId,
    Violation,
};
use proptest::prelude::*;

const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::Serializable,
];

/// One call on a history builder. Keys are owned here so that the
/// production builder can borrow them.
#[derive(Debug, Clone)]
enum Step {
    Touch(TxnId),
    Put(TxnId, String),
    Get(TxnId, String, Option<(TxnId, u32)>),
    Commit(TxnId),
}

/// The production builder and the model's, fed the same calls.
fn feed<'k>(steps: &'k [Step]) -> (HistoryBuilder<'k>, model::HistoryBuilder) {
    let mut real = HistoryBuilder::new();
    let mut model = model::HistoryBuilder::new();
    for step in steps {
        match step {
            Step::Touch(txn) => {
                real.touch(*txn);
                model.touch(*txn);
            }
            Step::Put(txn, key) => {
                assert_eq!(real.put(*txn, key), model.put(*txn, key));
            }
            Step::Get(txn, key, from) => {
                assert_eq!(real.get(*txn, key, *from), model.get(*txn, key, *from));
            }
            Step::Commit(txn) => {
                real.commit(*txn);
                model.commit(*txn);
            }
        }
    }
    (real, model)
}

/// An edit of the version order: `(action, position, txn, index)`.
type Edit = (u8, u8, u8, u8);

/// Both histories of `steps`, with a version order that starts from
/// the store-shaped default — which the two builders must derive alike
/// — and is then perturbed with dangling entries, `GET` entries,
/// duplicates, swaps and removals.
fn histories(steps: &[Step], edits: &[Edit], id_of: fn(u8) -> TxnId) -> (History, model::History) {
    let (mut real, mut model) = feed(steps);
    let mut order = model.clone().finish().version_order;
    assert_eq!(real.clone().finish().version_order(), order);
    for (action, pos, txn, index) in edits {
        let entry = OpRef {
            txn: id_of(*txn),
            index: *index as u32,
        };
        let len = order.len();
        let at = if len == 0 { 0 } else { *pos as usize % len };
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
    real.set_version_order(order.clone());
    model.set_version_order(order);
    (real.finish(), model.finish())
}

/// One generated operation: `(key, is_put, dictating write)`; the
/// dictating write is `(txn, index)` drawn blind, so it may dangle,
/// name a `GET`, or name an aborted or intermediate write.
type GenOp = (u8, bool, Option<(u8, u8)>);

fn step_of(txn: TxnId, (key, is_put, from): &GenOp, id_of: fn(u8) -> TxnId) -> Step {
    let key = format!("k{key}");
    if *is_put {
        Step::Put(txn, key)
    } else {
        Step::Get(txn, key, from.map(|(t, i)| (id_of(t), i as u32)))
    }
}

/// An arbitrary — mostly *not* serial — history: transactions with
/// blind reads, some committed, each fed whole and in id order.
fn arbitrary_history(txns: &[(Vec<GenOp>, bool)]) -> Vec<Step> {
    let mut steps = Vec::new();
    for (t, (ops, committed)) in txns.iter().enumerate() {
        let id = dense_id(t as u8);
        steps.push(Step::Touch(id));
        steps.extend(ops.iter().map(|op| step_of(id, op, dense_id)));
        if *committed {
            steps.push(Step::Commit(id));
        }
    }
    steps
}

/// The same material with sparse ids met in no order: every operation
/// names its transaction, so transactions interleave and are first
/// touched wherever they happen to appear; commits come last, in a
/// drawn order that may name a transaction twice or one that did
/// nothing.
fn interleaved_history(ops: &[(u8, GenOp)], commits: &[u8]) -> Vec<Step> {
    let ops = ops
        .iter()
        .map(|(t, op)| step_of(sparse_id(*t), op, sparse_id));
    let commits = commits.iter().map(|t| Step::Commit(sparse_id(*t)));
    ops.chain(commits).collect()
}

fn dense_id(t: u8) -> TxnId {
    TxnId(t as u64)
}

fn sparse_id(t: u8) -> TxnId {
    TxnId(t as u64 * 7919 % 1000)
}

/// The DSG edge set by the definition, with no bucketing at all: for
/// every key of the history, filter the whole version order down to
/// that key's entries, then walk them.
fn reference_edges(h: &model::History) -> BTreeSet<(TxnId, TxnId, EdgeKind)> {
    let mut edges = BTreeSet::new();
    let mut readers: BTreeMap<(TxnId, u32), Vec<TxnId>> = BTreeMap::new();
    let mut init_readers: BTreeMap<&str, Vec<TxnId>> = BTreeMap::new();
    for (txn, rec) in h.txns.iter().filter(|(_, rec)| rec.committed) {
        for op in &rec.ops {
            match op {
                model::Op::Get { from: Some(w), .. } => {
                    if w.txn != *txn && h.is_committed(w.txn) {
                        edges.insert((w.txn, *txn, EdgeKind::ReadDepend));
                    }
                    readers.entry((w.txn, w.index)).or_default().push(*txn);
                }
                model::Op::Get { key, from: None } => {
                    init_readers.entry(key.as_str()).or_default().push(*txn);
                }
                model::Op::Put { .. } => {}
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

/// The production checker and the model agree on everything either can
/// be asked: the graph's nodes and edges, a cycle and its witness under
/// every subset of edge kinds, and the verdict — payload included — at
/// every level.
fn assert_agree(real: &History, model: &model::History) -> Result<(), TestCaseError> {
    let dsg = Dsg::build(real);
    let model_dsg = model::Dsg::build(model);
    let edges: Vec<_> = dsg.edges().collect();
    prop_assert_eq!(&edges, &model_dsg.edges().collect::<Vec<_>>());
    prop_assert_eq!(
        edges.iter().copied().collect::<BTreeSet<_>>(),
        reference_edges(model)
    );
    prop_assert_eq!(dsg.edge_count(), edges.len());
    prop_assert_eq!(
        dsg.nodes().collect::<Vec<_>>(),
        model_dsg.nodes().collect::<Vec<_>>()
    );
    let all = [
        EdgeKind::WriteDepend,
        EdgeKind::ReadDepend,
        EdgeKind::AntiDepend,
    ];
    for subset in 0u8..8 {
        let kinds: Vec<EdgeKind> = (0..3)
            .filter(|bit| subset & 1 << bit != 0)
            .map(|bit| all[bit])
            .collect();
        prop_assert_eq!(
            dsg.find_cycle(&kinds),
            model_dsg.find_cycle(&kinds),
            "kinds {:?}",
            kinds
        );
    }
    for level in LEVELS {
        prop_assert_eq!(
            check_isolation(real, level).map(|_| ()),
            model::check_isolation(model, level).map(|_| ()),
            "level {:?}",
            level
        );
    }
    Ok(())
}

fn gen_op(txns: u8, ops: u8) -> impl Strategy<Value = GenOp> {
    (
        0u8..3,
        any::<bool>(),
        prop::option::of((0..txns + 2, 0..ops)),
    )
}

/// A random sequential history: transactions run one at a time, each
/// reading keys (from the latest committed installer) and writing keys.
/// Such histories are serial by construction, so they must pass every
/// isolation level.
fn serial_history(ops: &[(u8, bool, u8)]) -> Vec<Step> {
    let mut steps = Vec::new();
    // last committed final write per key: (txn, index)
    let mut installed: std::collections::HashMap<u8, (TxnId, u32)> = Default::default();
    let mut txn = 0u64;
    let mut issued = 0u32;
    let mut pending: Vec<(u8, u32)> = Vec::new(); // key → op index of last put
    for (key, is_write, commit_roll) in ops {
        let id = TxnId(txn);
        steps.push(Step::Touch(id));
        if *is_write {
            steps.push(Step::Put(id, format!("k{key}")));
            pending.retain(|(k, _)| k != key);
            pending.push((*key, issued));
        } else {
            let from = installed.get(key).copied();
            steps.push(Step::Get(id, format!("k{key}"), from));
        }
        issued += 1;
        if commit_roll % 3 == 0 {
            // Commit this transaction: its pending writes install.
            steps.push(Step::Commit(id));
            for (k, i) in pending.drain(..) {
                installed.insert(k, (id, i));
            }
        } else if commit_roll % 7 == 0 {
            // Abort: nothing installs.
            pending.clear();
        } else {
            continue;
        }
        txn += 1;
        issued = 0;
    }
    // Abandon (abort) the trailing transaction.
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense checker agrees with the model on histories whose reads
    /// are blind and whose version order may dangle, repeat itself or
    /// name `GET`s.
    #[test]
    fn dense_checker_matches_the_model(
        txns in prop::collection::vec(
            (prop::collection::vec(gen_op(5, 5), 0..6), any::<bool>()),
            1..6,
        ),
        edits in prop::collection::vec((0u8..8, any::<u8>(), 0u8..7, 0u8..5), 0..6),
    ) {
        let steps = arbitrary_history(&txns);
        let (real, model) = histories(&steps, &edits, dense_id);
        assert_agree(&real, &model)?;
    }

    /// The same with sparse ids in no order and interleaved
    /// transactions: ranking happens at `finish()`, and every violation
    /// still reports the caller's ids.
    #[test]
    fn sparse_interleaved_ids_match_the_model(
        ops in prop::collection::vec((0u8..6, gen_op(6, 5)), 0..24),
        commits in prop::collection::vec(0u8..7, 0..7),
        edits in prop::collection::vec((0u8..8, any::<u8>(), 0u8..8, 0u8..5), 0..6),
    ) {
        let steps = interleaved_history(&ops, &commits);
        let (real, model) = histories(&steps, &edits, sparse_id);
        assert_agree(&real, &model)?;
    }

    /// Serial histories pass all three levels.
    #[test]
    fn serial_histories_pass_everything(ops in prop::collection::vec((0u8..3, any::<bool>(), 0u8..21), 1..40)) {
        let steps = serial_history(&ops);
        let (real, model) = histories(&steps, &[], dense_id);
        for level in LEVELS {
            prop_assert!(check_isolation(&real, level).is_ok(), "level {level:?}");
        }
        assert_agree(&real, &model)?;
    }

    /// DSG edges never originate from or point to uncommitted
    /// transactions, and never self-loop.
    #[test]
    fn dsg_edges_are_between_distinct_committed_txns(ops in prop::collection::vec((0u8..3, any::<bool>(), 0u8..21), 1..40)) {
        let steps = serial_history(&ops);
        let h = feed(&steps).0.finish();
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
        let steps = serial_history(&ops);
        let h = feed(&steps).0.finish();
        let g = Dsg::build(&h);
        // In a serial history the ww subgraph must be acyclic.
        prop_assert!(g.find_cycle(&[EdgeKind::WriteDepend]).is_none());
    }
}

fn put(txn: u64, key: &str) -> Step {
    Step::Put(TxnId(txn), key.into())
}

fn get(txn: u64, key: &str, from: Option<(u64, u32)>) -> Step {
    Step::Get(TxnId(txn), key.into(), from.map(|(t, i)| (TxnId(t), i)))
}

fn at(txn: u64, index: u32) -> OpRef {
    OpRef {
        txn: TxnId(txn),
        index,
    }
}

/// The history of `steps` under the explicit version order `order`,
/// after checking that the model agrees about it.
fn checked(steps: &[Step], order: Vec<OpRef>) -> History {
    let (mut real, mut model) = feed(steps);
    real.set_version_order(order.clone());
    model.set_version_order(order);
    let (real, model) = (real.finish(), model.finish());
    assert_agree(&real, &model).unwrap();
    real
}

/// Reading the initial state of a key whose first version was installed
/// earlier creates an anti-dependency that breaks serializability when
/// it contradicts a read dependency.
#[test]
fn init_read_anti_dependency_cycles() {
    // T0 installs k. T1 reads k's *initial* state (claims it ran
    // before T0) but also reads a value T0 wrote to another key j —
    // contradiction.
    let steps = [
        put(0, "k"),
        put(0, "j"),
        Step::Commit(TxnId(0)),
        get(1, "k", None),         // initial read ⇒ T1 → T0 (anti)
        get(1, "j", Some((0, 1))), // reads T0 ⇒ T0 → T1 (wr)
        Step::Commit(TxnId(1)),
    ];
    let h = checked(&steps, vec![at(0, 0), at(0, 1)]);
    assert!(check_isolation(&h, IsolationLevel::ReadCommitted).is_ok());
    assert_eq!(
        check_isolation(&h, IsolationLevel::Serializable).map(|_| ()),
        Err(Violation::G2 { witness: TxnId(0) })
    );
}

/// A dictating write or a version-order entry naming a transaction the
/// history never met: no edge, no panic, and the reports carry the
/// caller's ids — the reader for the read, the entry for the order.
#[test]
fn dangling_rank() {
    let steps = [
        put(0, "x"),
        Step::Commit(TxnId(0)),
        get(1, "x", Some((77, 0))),
        Step::Commit(TxnId(1)),
    ];
    let h = checked(&steps, vec![at(0, 0)]);
    assert_eq!(Dsg::build(&h).edge_count(), 0);
    assert!(check_isolation(&h, IsolationLevel::ReadUncommitted).is_ok());
    assert_eq!(
        check_isolation(&h, IsolationLevel::ReadCommitted).map(|_| ()),
        Err(Violation::G1b { reader: at(1, 0) })
    );
    let h = checked(&steps, vec![at(0, 0), at(77, 0)]);
    assert_eq!(
        check_isolation(&h, IsolationLevel::ReadUncommitted).map(|_| ()),
        Err(Violation::MalformedVersionOrder { entry: at(77, 0) })
    );
}

/// A version-order entry naming an existing `GET` is rejected by the
/// check, but `Dsg::build` — callable on its own — files it under the
/// `GET`'s key like any other entry: it becomes a write-depend
/// endpoint there.
#[test]
fn version_order_names_a_get() {
    let steps = [
        put(0, "x"),
        Step::Commit(TxnId(0)),
        get(1, "x", None),
        Step::Commit(TxnId(1)),
    ];
    let h = checked(&steps, vec![at(0, 0), at(1, 0)]);
    assert_eq!(
        Dsg::build(&h).edges().collect::<Vec<_>>(),
        [
            (TxnId(0), TxnId(1), EdgeKind::WriteDepend),
            (TxnId(1), TxnId(0), EdgeKind::AntiDepend),
        ]
    );
    for level in LEVELS {
        assert_eq!(
            check_isolation(&h, level).map(|_| ()),
            Err(Violation::MalformedVersionOrder { entry: at(1, 0) })
        );
    }
}

/// The same installed write listed twice is not this crate's to reject
/// (the verifier's write-order check does): it is its own successor,
/// which adds no write-depend edge but does make its readers
/// anti-depend on it.
#[test]
fn duplicate_version_order_entry() {
    let steps = [
        put(0, "x"),
        Step::Commit(TxnId(0)),
        get(1, "x", Some((0, 0))),
        Step::Commit(TxnId(1)),
    ];
    let h = checked(&steps, vec![at(0, 0), at(0, 0)]);
    assert_eq!(
        Dsg::build(&h).edges().collect::<Vec<_>>(),
        [
            (TxnId(0), TxnId(1), EdgeKind::ReadDepend),
            (TxnId(1), TxnId(0), EdgeKind::AntiDepend),
        ]
    );
    assert!(check_isolation(&h, IsolationLevel::ReadCommitted).is_ok());
    assert_eq!(
        check_isolation(&h, IsolationLevel::Serializable).map(|_| ()),
        Err(Violation::G2 { witness: TxnId(0) })
    );
}

/// A transaction that reads its own installed write is still a reader
/// of that version: it anti-depends on the next installer.
#[test]
fn own_write_reader_before_the_next_installer() {
    let steps = [
        put(0, "x"),
        get(0, "x", Some((0, 0))),
        Step::Commit(TxnId(0)),
        put(1, "x"),
        Step::Commit(TxnId(1)),
    ];
    let h = checked(&steps, vec![at(0, 0), at(1, 0)]);
    assert_eq!(
        Dsg::build(&h).edges().collect::<Vec<_>>(),
        [
            (TxnId(0), TxnId(1), EdgeKind::WriteDepend),
            (TxnId(0), TxnId(1), EdgeKind::AntiDepend),
        ]
    );
    assert!(check_isolation(&h, IsolationLevel::Serializable).is_ok());
}
