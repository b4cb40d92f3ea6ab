//! The `String` / `BTreeMap` isolation checker this crate shipped before
//! its history went dense, kept unchanged in behaviour as the model the
//! property tests compare the production checker with: transactions in
//! a `BTreeMap` by id, a `String` key per operation, a `BTreeSet` of
//! edges, and a `find_cycle` that rebuilds its adjacency per call. The
//! plain-data types (`TxnId`, `OpRef`, `EdgeKind`, `Violation`,
//! `IsolationLevel`) are the crate's own, so answers compare with `==`.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use adya::{EdgeKind, IsolationLevel, OpRef, TxnId, Violation};

/// One operation in a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A write of `key`. Values are irrelevant to isolation testing; only
    /// write identity matters.
    Put {
        /// The written key.
        key: String,
    },
    /// A read of `key`, dictated by the write `from` (`None` = the
    /// initial, never-written state).
    Get {
        /// The read key.
        key: String,
        /// The dictating write, if any.
        from: Option<OpRef>,
    },
}

impl Op {
    /// The key this operation touches.
    pub fn key(&self) -> &str {
        match self {
            Op::Put { key } | Op::Get { key, .. } => key,
        }
    }
}

/// The record of a single transaction within a history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnRecord {
    /// The transaction's operations, in issue order.
    pub ops: Vec<Op>,
    /// Whether the transaction committed.
    pub committed: bool,
}

impl TxnRecord {
    /// Index of the final `PUT` to `key`, if the transaction wrote it.
    pub fn last_put_to(&self, key: &str) -> Option<u32> {
        self.ops
            .iter()
            .enumerate()
            .rev()
            .find(|(_, op)| matches!(op, Op::Put { key: k } if k == key))
            .map(|(i, _)| i as u32)
    }
}

/// A complete history: transactions plus the global version order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// Every transaction, keyed by id.
    pub txns: BTreeMap<TxnId, TxnRecord>,
    /// Installed writes in version order. Each entry must reference a
    /// `PUT`; [`check_isolation`] validates this.
    pub version_order: Vec<OpRef>,
}

impl History {
    /// Looks up the operation referenced by `r`, if it exists.
    pub fn op(&self, r: OpRef) -> Option<&Op> {
        self.txns.get(&r.txn)?.ops.get(r.index as usize)
    }

    /// Whether `txn` committed.
    pub fn is_committed(&self, txn: TxnId) -> bool {
        self.txns.get(&txn).is_some_and(|t| t.committed)
    }

    /// The version order restricted to `key`, in order.
    pub fn version_order_of(&self, key: &str) -> Vec<OpRef> {
        self.version_order
            .iter()
            .copied()
            .filter(|r| self.op(*r).is_some_and(|op| op.key() == key))
            .collect()
    }

    /// Every key mentioned anywhere in the history, deduplicated.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .txns
            .values()
            .flat_map(|t| t.ops.iter().map(|op| op.key().to_string()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// Incremental builder producing a [`History`].
///
/// The builder also derives a *default version order* — committed final
/// writes in commit order — which is what a correctly behaving store
/// produces (it matches the `kvstore` binlog). Callers that have an
/// explicit version order (the Karousos verifier, with its untrusted
/// `writeOrder` advice) should override it with
/// [`HistoryBuilder::set_version_order`].
#[derive(Debug, Clone, Default)]
pub struct HistoryBuilder {
    txns: BTreeMap<TxnId, TxnRecord>,
    commit_order: Vec<TxnId>,
    explicit_version_order: Option<Vec<OpRef>>,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a `PUT` by `txn`, returning its [`OpRef`].
    pub fn put(&mut self, txn: TxnId, key: &str) -> OpRef {
        let rec = self.txns.entry(txn).or_default();
        rec.ops.push(Op::Put {
            key: key.to_string(),
        });
        OpRef {
            txn,
            index: (rec.ops.len() - 1) as u32,
        }
    }

    /// Records a `GET` by `txn` dictated by `from` (a `(txn, index)`
    /// pair, or `None` for the initial state), returning its [`OpRef`].
    pub fn get(&mut self, txn: TxnId, key: &str, from: Option<(TxnId, u32)>) -> OpRef {
        let rec = self.txns.entry(txn).or_default();
        rec.ops.push(Op::Get {
            key: key.to_string(),
            from: from.map(|(t, i)| OpRef { txn: t, index: i }),
        });
        OpRef {
            txn,
            index: (rec.ops.len() - 1) as u32,
        }
    }

    /// Marks `txn` committed.
    pub fn commit(&mut self, txn: TxnId) {
        let rec = self.txns.entry(txn).or_default();
        rec.committed = true;
        self.commit_order.push(txn);
    }

    /// Ensures `txn` exists (useful for explicitly-aborted transactions).
    pub fn touch(&mut self, txn: TxnId) {
        self.txns.entry(txn).or_default();
    }

    /// Overrides the derived version order.
    pub fn set_version_order(&mut self, order: Vec<OpRef>) {
        self.explicit_version_order = Some(order);
    }

    /// Finalizes the history.
    pub fn finish(self) -> History {
        let version_order = match self.explicit_version_order {
            Some(o) => o,
            None => {
                // Derived order: for each commit (in commit order), the
                // final PUT per key in first-PUT order — the same shape
                // the kvstore binlog has.
                let mut order = Vec::new();
                for txn in &self.commit_order {
                    let rec = &self.txns[txn];
                    let mut seen = Vec::new();
                    for op in &rec.ops {
                        if let Op::Put { key } = op {
                            if !seen.iter().any(|k| k == key) {
                                seen.push(key.clone());
                            }
                        }
                    }
                    for key in seen {
                        let index = rec
                            .last_put_to(&key)
                            .expect("key came from a PUT of this txn");
                        order.push(OpRef { txn: *txn, index });
                    }
                }
                order
            }
        };
        History {
            txns: self.txns,
            version_order,
        }
    }
}

/// A direct serialization graph over committed transactions.
#[derive(Debug, Clone, Default)]
pub struct Dsg {
    nodes: BTreeSet<TxnId>,
    edges: BTreeSet<(TxnId, TxnId, EdgeKind)>,
}

impl Dsg {
    /// Builds the DSG of `history`.
    ///
    /// Reads from aborted transactions, intermediate writes, or dangling
    /// references produce no edges here — they are reported as phenomena
    /// by [`check_isolation`] instead.
    pub fn build(history: &History) -> Self {
        let mut g = Dsg::default();
        for (txn, rec) in &history.txns {
            if rec.committed {
                g.nodes.insert(*txn);
            }
        }

        // Read-depend edges from every committed GET whose dictating
        // write belongs to a committed installer.
        for (txn, rec) in &history.txns {
            if !rec.committed {
                continue;
            }
            for op in &rec.ops {
                if let Op::Get { from: Some(w), .. } = op {
                    if w.txn != *txn && history.is_committed(w.txn) {
                        g.edges.insert((w.txn, *txn, EdgeKind::ReadDepend));
                    }
                }
            }
        }

        // Write-depend edges between consecutive installers of each key,
        // and anti-depend edges from readers of a version to the
        // installer of the next version.
        let mut readers: BTreeMap<(TxnId, u32), Vec<TxnId>> = BTreeMap::new();
        let mut init_readers: BTreeMap<&str, Vec<TxnId>> = BTreeMap::new();
        for (txn, rec) in &history.txns {
            if !rec.committed {
                continue;
            }
            for op in &rec.ops {
                match op {
                    Op::Get { from: Some(w), .. } => {
                        readers.entry((w.txn, w.index)).or_default().push(*txn);
                    }
                    Op::Get { key, from: None } => {
                        init_readers.entry(key.as_str()).or_default().push(*txn);
                    }
                    Op::Put { .. } => {}
                }
            }
        }
        // The version order bucketed by key in one pass; entries that
        // reference no operation belong to no key. (Filtering the whole
        // order once per key is keys × writes, both advice-sized.)
        let mut by_key: BTreeMap<&str, Vec<OpRef>> = BTreeMap::new();
        for entry in &history.version_order {
            if let Some(op) = history.op(*entry) {
                by_key.entry(op.key()).or_default().push(*entry);
            }
        }
        for (key, order) in &by_key {
            // A read of the initial (never-written) state anti-depends
            // on the installer of the key's first version.
            if let Some(first) = order.first() {
                if let Some(rs) = init_readers.get(key) {
                    for r in rs {
                        if *r != first.txn {
                            g.edges.insert((*r, first.txn, EdgeKind::AntiDepend));
                        }
                    }
                }
            }
            for pair in order.windows(2) {
                let (w1, w2) = (pair[0], pair[1]);
                if w1.txn != w2.txn {
                    g.edges.insert((w1.txn, w2.txn, EdgeKind::WriteDepend));
                }
                if let Some(rs) = readers.get(&(w1.txn, w1.index)) {
                    for r in rs {
                        if *r != w2.txn {
                            g.edges.insert((*r, w2.txn, EdgeKind::AntiDepend));
                        }
                    }
                }
            }
        }
        g
    }

    /// The committed transactions.
    pub fn nodes(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.nodes.iter().copied()
    }

    /// All edges as `(from, to, kind)`.
    pub fn edges(&self) -> impl Iterator<Item = (TxnId, TxnId, EdgeKind)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the subgraph restricted to `kinds` contains a cycle; if
    /// so, returns one node on the cycle.
    pub fn find_cycle(&self, kinds: &[EdgeKind]) -> Option<TxnId> {
        let mut adj: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
        for n in &self.nodes {
            adj.entry(*n).or_default();
        }
        for (a, b, k) in &self.edges {
            if kinds.contains(k) {
                adj.entry(*a).or_default().push(*b);
                adj.entry(*b).or_default();
            }
        }
        // Iterative three-colour DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<TxnId, Colour> = adj.keys().map(|&n| (n, Colour::White)).collect();
        let roots: Vec<TxnId> = adj.keys().copied().collect();
        for root in roots {
            if colour[&root] != Colour::White {
                continue;
            }
            // Stack of (node, next-child-index).
            let mut stack: Vec<(TxnId, usize)> = vec![(root, 0)];
            colour.insert(root, Colour::Grey);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = &adj[&node];
                if *idx < children.len() {
                    let child = children[*idx];
                    *idx += 1;
                    match colour[&child] {
                        Colour::Grey => return Some(child),
                        Colour::White => {
                            colour.insert(child, Colour::Grey);
                            stack.push((child, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour.insert(node, Colour::Black);
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Validates the version order itself: every entry must reference an
/// existing `PUT` of a committed transaction, and must be that
/// transaction's final write to the key.
fn check_version_order(history: &History) -> Result<(), Violation> {
    for entry in &history.version_order {
        let op = history
            .op(*entry)
            .ok_or(Violation::MalformedVersionOrder { entry: *entry })?;
        let key = match op {
            Op::Put { key } => key.clone(),
            Op::Get { .. } => return Err(Violation::MalformedVersionOrder { entry: *entry }),
        };
        if !history.is_committed(entry.txn) {
            return Err(Violation::MalformedVersionOrder { entry: *entry });
        }
        let final_index = history.txns[&entry.txn]
            .last_put_to(&key)
            .expect("a PUT to this key exists");
        if final_index != entry.index {
            return Err(Violation::NotFinalWrite { entry: *entry });
        }
    }
    Ok(())
}

/// Detects G1a and G1b aberrant reads by committed transactions.
fn check_aberrant_reads(history: &History) -> Result<(), Violation> {
    // Installed writes are exactly the version order entries; sorted
    // once so each read's lookup is a search, not a scan of the order.
    let mut installed = history.version_order.clone();
    installed.sort_unstable();
    for (txn, rec) in &history.txns {
        if !rec.committed {
            continue;
        }
        for (i, op) in rec.ops.iter().enumerate() {
            let Op::Get { from: Some(w), .. } = op else {
                continue;
            };
            let reader = OpRef {
                txn: *txn,
                index: i as u32,
            };
            if w.txn == *txn {
                continue; // reads of own writes are always fine
            }
            let Some(Op::Put { .. }) = history.op(*w) else {
                return Err(Violation::G1b { reader });
            };
            if !history.is_committed(w.txn) {
                return Err(Violation::G1a { reader });
            }
            // Reading a committed transaction's non-installed write is an
            // intermediate read (G1b).
            if installed.binary_search(w).is_err() {
                return Err(Violation::G1b { reader });
            }
        }
    }
    Ok(())
}

/// Checks `history` against `level`, returning the first phenomenon found.
///
/// Follows the verifier's `IsolationLvlVer` structure (paper Fig. 17):
/// read uncommitted tests only write-dependency cycles; read committed
/// additionally tests aberrant reads and read-dependency cycles;
/// serializability additionally includes anti-dependency edges. The
/// version order itself is validated first at every level.
///
/// On success, returns the constructed [`Dsg`] for further inspection.
pub fn check_isolation(history: &History, level: IsolationLevel) -> Result<Dsg, Violation> {
    check_version_order(history)?;
    let dsg = Dsg::build(history);
    match level {
        IsolationLevel::ReadUncommitted => {
            if let Some(witness) = dsg.find_cycle(&[EdgeKind::WriteDepend]) {
                return Err(Violation::G0 { witness });
            }
        }
        IsolationLevel::ReadCommitted => {
            check_aberrant_reads(history)?;
            if let Some(witness) = dsg.find_cycle(&[EdgeKind::WriteDepend, EdgeKind::ReadDepend]) {
                return Err(Violation::G1c { witness });
            }
        }
        IsolationLevel::Serializable => {
            check_aberrant_reads(history)?;
            if let Some(witness) = dsg.find_cycle(&[EdgeKind::WriteDepend, EdgeKind::ReadDepend]) {
                return Err(Violation::G1c { witness });
            }
            if let Some(witness) = dsg.find_cycle(&[
                EdgeKind::WriteDepend,
                EdgeKind::ReadDepend,
                EdgeKind::AntiDepend,
            ]) {
                return Err(Violation::G2 { witness });
            }
        }
    }
    Ok(dsg)
}
