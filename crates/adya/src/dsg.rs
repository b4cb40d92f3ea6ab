//! The direct serialization graph (DSG).
//!
//! Nodes are committed transactions; edges are the three dependency
//! kinds of Adya's theory (§4.4 of the paper):
//!
//! * **read-depend** (`wr`): `T2` reads a version installed by `T1`;
//! * **write-depend** (`ww`): `T1` installs a version of a key and `T2`
//!   installs the next version (per the version order);
//! * **anti-depend** (`rw`): `T1` reads a version of a key and `T2`
//!   installs the next version.

use std::collections::{BTreeMap, BTreeSet};

use crate::history::{History, Op, OpRef, TxnId};

/// The kind of a DSG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Write-depend (`ww`).
    WriteDepend,
    /// Read-depend (`wr`).
    ReadDepend,
    /// Anti-depend (`rw`).
    AntiDepend,
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
    /// by [`check_isolation`](crate::check_isolation) instead.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    #[test]
    fn simple_wr_edge() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.commit(TxnId(1));
        let g = Dsg::build(&b.finish());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(TxnId(0), TxnId(1), EdgeKind::ReadDepend)]);
        assert!(g
            .find_cycle(&[EdgeKind::ReadDepend, EdgeKind::WriteDepend])
            .is_none());
    }

    #[test]
    fn ww_edges_follow_version_order() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.put(TxnId(1), "x");
        b.commit(TxnId(1));
        let g = Dsg::build(&b.finish());
        assert!(g
            .edges()
            .any(|e| e == (TxnId(0), TxnId(1), EdgeKind::WriteDepend)));
    }

    #[test]
    fn anti_dependency_edge() {
        // T1 reads x0 (installed by T0); T2 installs x1 ⇒ T1 --rw--> T2.
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.commit(TxnId(1));
        b.put(TxnId(2), "x");
        b.commit(TxnId(2));
        let g = Dsg::build(&b.finish());
        assert!(g
            .edges()
            .any(|e| e == (TxnId(1), TxnId(2), EdgeKind::AntiDepend)));
    }

    #[test]
    fn write_skew_forms_g2_cycle() {
        // T1 reads x0, writes y1; T2 reads y0, writes x1: rw edges both
        // ways, a cycle only once anti-dependencies are considered.
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.put(TxnId(0), "y");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.put(TxnId(1), "y");
        b.commit(TxnId(1));
        b.get(TxnId(2), "y", Some((TxnId(0), 1)));
        b.put(TxnId(2), "x");
        b.commit(TxnId(2));
        let g = Dsg::build(&b.finish());
        assert!(g
            .find_cycle(&[EdgeKind::ReadDepend, EdgeKind::WriteDepend])
            .is_none());
        assert!(g
            .find_cycle(&[
                EdgeKind::ReadDepend,
                EdgeKind::WriteDepend,
                EdgeKind::AntiDepend
            ])
            .is_some());
    }

    #[test]
    fn uncommitted_readers_produce_no_edges() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        // TxnId(1) never commits.
        let g = Dsg::build(&b.finish());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 1);
    }

    #[test]
    fn self_reads_produce_no_edges() {
        let mut b = HistoryBuilder::new();
        let w = b.put(TxnId(0), "x");
        b.get(TxnId(0), "x", Some((w.txn, w.index)));
        b.commit(TxnId(0));
        let g = Dsg::build(&b.finish());
        assert_eq!(g.edge_count(), 0);
    }
}
