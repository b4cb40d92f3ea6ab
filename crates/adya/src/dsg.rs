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
//!
//! The graph is one vector of `(from, to, kind)` over transaction ranks,
//! sorted and deduplicated, with the offset of each source's first edge:
//! a CSR that [`Dsg::find_cycle`] walks in place, so a transaction's
//! successors come in ascending `(to, kind)` order whichever kinds the
//! walk admits.

use crate::history::{History, Kind, TxnId};

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

/// Where each bucket of `0..buckets` starts when items are laid out by
/// bucket, given the bucket of every item; one extra entry closes the
/// last bucket.
fn starts_of(buckets: usize, of_items: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut starts = vec![0u32; buckets + 1];
    for bucket in of_items {
        starts[bucket + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    starts
}

/// Items grouped by a small integer: bucket `b` is
/// `items[starts[b]..starts[b + 1]]`, in the order the items came.
struct Buckets<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Buckets<T> {
    /// Counting sort of the `(bucket, item)` pairs `pairs()` yields —
    /// it is called twice and must yield the same pairs both times.
    fn group<I: Iterator<Item = (usize, T)>>(buckets: usize, pairs: impl Fn() -> I) -> Self {
        let starts = starts_of(buckets, pairs().map(|(bucket, _)| bucket));
        let mut next = starts.clone();
        let mut items = vec![T::default(); starts[buckets] as usize];
        for (bucket, item) in pairs() {
            items[next[bucket] as usize] = item;
            next[bucket] += 1;
        }
        Buckets { starts, items }
    }

    fn of(&self, bucket: usize) -> &[T] {
        &self.items[self.starts[bucket] as usize..self.starts[bucket + 1] as usize]
    }
}

/// A direct serialization graph over the committed transactions of the
/// [`History`] it borrows.
#[derive(Debug, Clone)]
pub struct Dsg<'h> {
    history: &'h History,
    /// `(from, to, kind)` by rank, ascending, each once.
    edges: Vec<(u32, u32, EdgeKind)>,
    /// The edges leaving rank `r` are `edges[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
}

impl<'h> Dsg<'h> {
    /// Builds the DSG of `history`.
    ///
    /// Reads from aborted transactions, intermediate writes, or dangling
    /// references produce no edges here — they are reported as phenomena
    /// by [`check_isolation`](crate::check_isolation) instead.
    pub fn build(history: &'h History) -> Self {
        let mut edges = Vec::with_capacity(history.ops.len() + history.order_ranks.len());

        // Read-depend edges from every committed GET whose dictating
        // write belongs to a committed installer.
        for (reader, _, op) in history.committed_ops() {
            if let Kind::Get(Some((writer, _))) = op.kind {
                let installer = history.committed.get(writer as usize) == Some(&true);
                if writer as usize != reader && installer {
                    edges.push((writer, reader as u32, EdgeKind::ReadDepend));
                }
            }
        }

        // The readers of each written operation and of each key's
        // initial state, and the version order of each key. An entry
        // that references no operation belongs to no key, and neither
        // does a read of one.
        let readers = Buckets::group(history.ops.len(), || {
            history
                .committed_ops()
                .filter_map(|(reader, _, op)| match op.kind {
                    Kind::Get(Some((writer, index))) => {
                        Some((history.at(writer, index)?, reader as u32))
                    }
                    _ => None,
                })
        });
        let init_readers = Buckets::group(history.keys as usize, || {
            history.committed_ops().filter_map(|(reader, _, op)| {
                (op.kind == Kind::Get(None)).then_some((op.key as usize, reader as u32))
            })
        });
        let by_key = Buckets::group(history.keys as usize, || {
            let entries = history.version_order().iter().zip(&history.order_ranks);
            entries.filter_map(|(entry, rank)| {
                let at = history.at(*rank, entry.index)?;
                Some((history.ops[at].key as usize, (*rank, at)))
            })
        });

        // Write-depend edges between consecutive installers of each key,
        // and anti-depend edges from readers of a version to the
        // installer of the next version.
        for key in 0..history.keys as usize {
            let order = by_key.of(key);
            // A read of the initial (never-written) state anti-depends
            // on the installer of the key's first version.
            if let Some((first, _)) = order.first() {
                for reader in init_readers.of(key).iter().filter(|r| *r != first) {
                    edges.push((*reader, *first, EdgeKind::AntiDepend));
                }
            }
            for pair in order.windows(2) {
                let ((w1, at1), (w2, _)) = (pair[0], pair[1]);
                if w1 != w2 {
                    edges.push((w1, w2, EdgeKind::WriteDepend));
                }
                for reader in readers.of(at1).iter().filter(|r| **r != w2) {
                    edges.push((*reader, w2, EdgeKind::AntiDepend));
                }
            }
        }

        edges.sort_unstable();
        edges.dedup();
        let sources = edges.iter().map(|(from, _, _)| *from as usize);
        let offsets = starts_of(history.ids.len(), sources);
        Dsg {
            history,
            edges,
            offsets,
        }
    }

    /// The committed transactions.
    pub fn nodes(&self) -> impl Iterator<Item = TxnId> + '_ {
        let ids = self.history.ids.iter().zip(&self.history.committed);
        ids.filter(|(_, committed)| **committed).map(|(id, _)| *id)
    }

    /// All edges as `(from, to, kind)`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (TxnId, TxnId, EdgeKind)> + '_ {
        let ids = &self.history.ids;
        self.edges
            .iter()
            .map(move |(from, to, kind)| (ids[*from as usize], ids[*to as usize], *kind))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of write-, read- and anti-depend edges, in that order.
    pub fn edge_counts(&self) -> [usize; 3] {
        let mut counts = [0; 3];
        for (_, _, kind) in &self.edges {
            counts[*kind as usize] += 1;
        }
        counts
    }

    /// Whether the subgraph restricted to `kinds` contains a cycle; if
    /// so, returns one node on the cycle.
    pub fn find_cycle(&self, kinds: &[EdgeKind]) -> Option<TxnId> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mask = kinds.iter().fold(0u8, |mask, kind| mask | 1 << *kind as u8);
        let n = self.history.ids.len();
        let mut colour = vec![WHITE; n];
        // Iterative three-colour DFS; the stack holds (node, position
        // of its next edge), and a path can be every node long.
        let mut stack: Vec<(usize, u32)> = Vec::with_capacity(n);
        for root in 0..n {
            if colour[root] != WHITE {
                continue;
            }
            colour[root] = GREY;
            stack.push((root, self.offsets[root]));
            while let Some((node, next)) = stack.last_mut() {
                if *next == self.offsets[*node + 1] {
                    colour[*node] = BLACK;
                    stack.pop();
                    continue;
                }
                let (_, child, kind) = self.edges[*next as usize];
                *next += 1;
                if mask & 1 << kind as u8 == 0 {
                    continue;
                }
                let child = child as usize;
                match colour[child] {
                    GREY => return Some(self.history.ids[child]),
                    WHITE => {
                        colour[child] = GREY;
                        stack.push((child, self.offsets[child]));
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
        let h = b.finish();
        let g = Dsg::build(&h);
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
        let h = b.finish();
        let g = Dsg::build(&h);
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
        let h = b.finish();
        let g = Dsg::build(&h);
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
        let h = b.finish();
        let g = Dsg::build(&h);
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
        let h = b.finish();
        let g = Dsg::build(&h);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 1);
    }

    #[test]
    fn self_reads_produce_no_edges() {
        let mut b = HistoryBuilder::new();
        let w = b.put(TxnId(0), "x");
        b.get(TxnId(0), "x", Some((w.txn, w.index)));
        b.commit(TxnId(0));
        let h = b.finish();
        let g = Dsg::build(&h);
        assert_eq!(g.edge_count(), 0);
    }
}
