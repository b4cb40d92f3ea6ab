//! Transactional histories: the input to Adya's algorithms.
//!
//! A history is (a) the per-transaction operation sequences, each `GET`
//! annotated with its dictating write (the *TxOp order* in the paper's
//! terminology), and (b) a *version order*: a global total order over the
//! installed (final, committed) writes of each key. In Karousos, (a)
//! comes from the transaction logs and (b) from the `writeOrder` advice.
//!
//! A finished [`History`] is dense (DESIGN.md §18): a transaction is
//! its *rank* among the ascending ids, a key is a `u32` interned once
//! per history, the operations are one flat array cut by per-transaction
//! offsets, and a reference to another transaction is a `(rank, index)`
//! pair whose rank is [`NO_TXN`] when it names none.

use std::collections::HashMap;

/// Identifier of a transaction in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A reference to an operation: the `index`-th operation of `txn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpRef {
    /// The issuing transaction.
    pub txn: TxnId,
    /// Zero-based position within that transaction's operation list.
    pub index: u32,
}

/// The rank of a reference that names no transaction of the history.
pub(crate) const NO_TXN: u32 = u32::MAX;

/// What an operation does to its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A write. `last` marks the transaction's final `PUT` to the key:
    /// the only one a commit installs. Values are irrelevant to
    /// isolation testing; only write identity matters.
    Put { last: bool },
    /// A read dictated by the write `(rank, index)` (`None` = the
    /// initial, never-written state).
    Get(Option<(u32, u32)>),
}

/// One operation of the flat array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) key: u32,
    pub(crate) kind: Kind,
}

/// A complete history: transactions plus the global version order.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Transaction ids, ascending: a transaction's index here is its rank.
    pub(crate) ids: Vec<TxnId>,
    /// Whether each transaction committed, by rank.
    pub(crate) committed: Vec<bool>,
    /// Where each rank's operations start in `ops`; one past the last
    /// rank closes the array.
    pub(crate) starts: Vec<u32>,
    pub(crate) ops: Vec<Op>,
    /// Number of distinct keys; key ids are `0..keys`.
    pub(crate) keys: u32,
    /// Installed writes in version order. Each entry must reference a
    /// `PUT`; [`check_isolation`](crate::check_isolation) validates this.
    version_order: Vec<OpRef>,
    /// The rank of each version-order entry's transaction.
    pub(crate) order_ranks: Vec<u32>,
    /// How many operations are a committed transaction's final `PUT`.
    final_writes: usize,
}

/// The rank of `txn` among the ascending `ids`. An id that is its own
/// rank — every id the Karousos verifier hands in — is found by one
/// probe.
fn rank_in(ids: &[TxnId], txn: TxnId) -> u32 {
    let probe = usize::try_from(txn.0).ok();
    let rank = match probe {
        Some(r) if ids.get(r) == Some(&txn) => Some(r),
        _ => ids.binary_search(&txn).ok(),
    };
    rank.map_or(NO_TXN, |r| r as u32)
}

impl History {
    /// The flat position of the `index`-th operation of `rank`, if the
    /// history has one.
    pub(crate) fn at(&self, rank: u32, index: u32) -> Option<usize> {
        let start = *self.starts.get(rank as usize)?;
        let end = *self.starts.get(rank as usize + 1)?;
        let at = start.checked_add(index).filter(|at| *at < end)?;
        Some(at as usize)
    }

    /// The flat operation range of `rank`, a rank of this history.
    pub(crate) fn span(&self, rank: usize) -> std::ops::Range<usize> {
        self.starts[rank] as usize..self.starts[rank + 1] as usize
    }

    /// Every operation of a committed transaction, ascending, as
    /// `(rank, index within the transaction, operation)`.
    pub(crate) fn committed_ops(&self) -> impl Iterator<Item = (usize, usize, &Op)> + '_ {
        let ranks = (0..self.ids.len()).filter(|rank| self.committed[*rank]);
        ranks.flat_map(|rank| {
            let ops = self.ops[self.span(rank)].iter().enumerate();
            ops.map(move |(index, op)| (rank, index, op))
        })
    }

    fn op(&self, r: OpRef) -> Option<Op> {
        let at = self.at(rank_in(&self.ids, r.txn), r.index)?;
        self.ops.get(at).copied()
    }

    /// Whether `txn` committed.
    pub fn is_committed(&self, txn: TxnId) -> bool {
        let rank = rank_in(&self.ids, txn) as usize;
        self.committed.get(rank).copied().unwrap_or(false)
    }

    /// Whether `r` is a `PUT` and its transaction's last one to that key
    /// — the write a commit installs.
    pub fn is_final_put(&self, r: OpRef) -> bool {
        matches!(self.op(r), Some(op) if op.kind == Kind::Put { last: true })
    }

    /// How many operations are the final `PUT` of a *committed*
    /// transaction: the length a complete version order has.
    pub fn final_write_count(&self) -> usize {
        self.final_writes
    }

    /// The version order, as given or derived.
    pub fn version_order(&self) -> &[OpRef] {
        &self.version_order
    }

    /// Number of operations, all transactions together.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys as usize
    }
}

/// A transaction as the builder first met it.
#[derive(Debug, Clone)]
struct Pending {
    id: TxnId,
    committed: bool,
    ops: u32,
}

/// An operation as the builder was handed it: its transaction by
/// arrival slot, its dictating write still by id.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    slot: u32,
    key: u32,
    /// `None` for a `PUT`.
    get: Option<Option<(TxnId, u32)>>,
}

/// Incremental builder producing a [`History`].
///
/// Keys are borrowed from the caller (`'k`) and interned: the builder
/// copies no string. The builder also derives a *default version order*
/// — committed final writes in commit order — which is what a correctly
/// behaving store produces (it matches the `kvstore` binlog). Callers
/// that have an explicit version order (the Karousos verifier, with its
/// untrusted `writeOrder` advice) should override it with
/// [`HistoryBuilder::set_version_order`].
#[derive(Debug, Clone, Default)]
pub struct HistoryBuilder<'k> {
    /// Transactions in arrival order.
    txns: Vec<Pending>,
    /// Arrival slot of every id that is not its own slot number.
    sparse: HashMap<TxnId, u32>,
    ops: Vec<RawOp>,
    keys: HashMap<&'k str, u32>,
    /// Arrival slots, in commit order.
    commit_order: Vec<u32>,
    explicit_version_order: Option<Vec<OpRef>>,
}

impl<'k> HistoryBuilder<'k> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `txns` transactions and
    /// `ops` operations, so that feeding it that many allocates nothing
    /// but the key table's growth.
    pub fn with_capacity(txns: usize, ops: usize) -> Self {
        HistoryBuilder {
            txns: Vec::with_capacity(txns),
            ops: Vec::with_capacity(ops),
            commit_order: Vec::with_capacity(txns),
            ..Self::default()
        }
    }

    /// The arrival slot of `txn`, met now if never before.
    fn slot(&mut self, txn: TxnId) -> usize {
        let dense = usize::try_from(txn.0).unwrap_or(usize::MAX);
        if self.txns.get(dense).is_some_and(|t| t.id == txn) {
            return dense;
        }
        if let Some(slot) = self.sparse.get(&txn) {
            return *slot as usize;
        }
        let slot = self.txns.len();
        if slot != dense {
            self.sparse.insert(txn, slot as u32);
        }
        self.txns.push(Pending {
            id: txn,
            committed: false,
            ops: 0,
        });
        slot
    }

    fn push(&mut self, txn: TxnId, key: &'k str, get: Option<Option<(TxnId, u32)>>) -> OpRef {
        let slot = self.slot(txn);
        let next = self.keys.len() as u32;
        let key = *self.keys.entry(key).or_insert(next);
        self.ops.push(RawOp {
            slot: slot as u32,
            key,
            get,
        });
        let pending = &mut self.txns[slot];
        pending.ops += 1;
        OpRef {
            txn,
            index: pending.ops - 1,
        }
    }

    /// Records a `PUT` by `txn`, returning its [`OpRef`].
    pub fn put(&mut self, txn: TxnId, key: &'k str) -> OpRef {
        self.push(txn, key, None)
    }

    /// Records a `GET` by `txn` dictated by `from` (a `(txn, index)`
    /// pair, or `None` for the initial state), returning its [`OpRef`].
    pub fn get(&mut self, txn: TxnId, key: &'k str, from: Option<(TxnId, u32)>) -> OpRef {
        self.push(txn, key, Some(from))
    }

    /// Marks `txn` committed.
    pub fn commit(&mut self, txn: TxnId) {
        let slot = self.slot(txn);
        self.txns[slot].committed = true;
        self.commit_order.push(slot as u32);
    }

    /// Ensures `txn` exists (useful for explicitly-aborted transactions).
    pub fn touch(&mut self, txn: TxnId) {
        self.slot(txn);
    }

    /// Overrides the derived version order.
    pub fn set_version_order(&mut self, order: Vec<OpRef>) {
        self.explicit_version_order = Some(order);
    }

    /// Finalizes the history: ranks the transactions, lays the
    /// operations out by rank, and marks each transaction's final `PUT`
    /// per key — every step one pass over its input.
    pub fn finish(self) -> History {
        let n = self.txns.len();
        // Arrival slots by ascending id. The verifier's ids arrive in
        // order and a store's nearly so.
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        if !self.txns.windows(2).all(|w| w[0].id < w[1].id) {
            by_rank.sort_unstable_by_key(|slot| self.txns[*slot as usize].id);
        }
        let mut history = History {
            ids: Vec::with_capacity(n),
            committed: Vec::with_capacity(n),
            starts: Vec::with_capacity(n + 1),
            keys: self.keys.len() as u32,
            ..History::default()
        };
        let mut rank_of_slot = vec![0u32; n];
        let mut total = 0u32;
        for (rank, slot) in by_rank.iter().enumerate() {
            let txn = &self.txns[*slot as usize];
            rank_of_slot[*slot as usize] = rank as u32;
            history.ids.push(txn.id);
            history.committed.push(txn.committed);
            history.starts.push(total);
            total += txn.ops;
        }
        history.starts.push(total);

        // Operations by rank; the sort is stable, so arrival order is
        // kept within a transaction (and is one scan when, as for the
        // verifier, they arrived by rank).
        let mut raw = self.ops;
        raw.sort_by_key(|op| rank_of_slot[op.slot as usize]);
        let resolve = |(txn, index)| (rank_in(&history.ids, txn), index);
        let ops = raw.iter().map(|op| Op {
            key: op.key,
            kind: op.get.map_or(Kind::Put { last: false }, |from| {
                Kind::Get(from.map(resolve))
            }),
        });
        history.ops = ops.collect();

        // Walking a transaction backwards, the first PUT met per key is
        // its final one. `seen[key]` is stamped with the rank, so the
        // table is never cleared.
        let mut seen = vec![NO_TXN; self.keys.len()];
        for rank in 0..n {
            for at in history.span(rank).rev() {
                let op = &mut history.ops[at];
                if matches!(op.kind, Kind::Put { .. }) && seen[op.key as usize] != rank as u32 {
                    seen[op.key as usize] = rank as u32;
                    op.kind = Kind::Put { last: true };
                    history.final_writes += usize::from(history.committed[rank]);
                }
            }
        }

        history.version_order = match self.explicit_version_order {
            Some(order) => order,
            None => {
                // Derived order: for each commit (in commit order), the
                // final PUT per key in first-PUT order — the same shape
                // the kvstore binlog has. `seen` is now stamped with the
                // commit's position.
                let mut order = Vec::new();
                let mut final_at = vec![0u32; self.keys.len()];
                seen.fill(NO_TXN);
                for (nth, slot) in self.commit_order.iter().enumerate() {
                    let rank = rank_of_slot[*slot as usize] as usize;
                    let ops = &history.ops[history.span(rank)];
                    for (index, op) in ops.iter().enumerate() {
                        if op.kind == (Kind::Put { last: true }) {
                            final_at[op.key as usize] = index as u32;
                        }
                    }
                    for op in ops {
                        let first = seen[op.key as usize] != nth as u32;
                        if matches!(op.kind, Kind::Put { .. }) && first {
                            seen[op.key as usize] = nth as u32;
                            order.push(OpRef {
                                txn: history.ids[rank],
                                index: final_at[op.key as usize],
                            });
                        }
                    }
                }
                order
            }
        };
        history.order_ranks = history
            .version_order
            .iter()
            .map(|entry| rank_in(&history.ids, entry.txn))
            .collect();
        history
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn at(txn: u64, index: u32) -> OpRef {
        OpRef {
            txn: TxnId(txn),
            index,
        }
    }

    #[test]
    fn builder_derives_binlog_like_version_order() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "a");
        b.put(TxnId(0), "b");
        b.put(TxnId(0), "a"); // final write to a is index 2
        b.commit(TxnId(0));
        b.put(TxnId(1), "a");
        b.commit(TxnId(1));
        let h = b.finish();
        assert_eq!(h.version_order(), [at(0, 2), at(0, 1), at(1, 0)]);
        assert_eq!(h.final_write_count(), 3);
        assert_eq!((h.op_count(), h.key_count()), (4, 2));
    }

    #[test]
    fn aborted_txns_not_in_version_order() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "a");
        // no commit
        let h = b.finish();
        assert!(h.version_order().is_empty());
        assert!(!h.is_committed(TxnId(0)));
        assert!(h.is_final_put(at(0, 0)));
        assert_eq!(h.final_write_count(), 0);
    }

    #[test]
    fn final_put_is_the_last_write_per_key() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "k");
        b.get(TxnId(0), "k", None);
        b.put(TxnId(0), "k");
        b.put(TxnId(0), "other");
        let h = b.finish();
        let finals: Vec<bool> = (0..5).map(|i| h.is_final_put(at(0, i))).collect();
        assert_eq!(finals, [false, false, true, true, false]);
        assert!(!h.is_final_put(at(9, 0)));
    }

    /// Ids that are neither dense nor in order are ranked at `finish()`:
    /// operations interleaved across transactions land in their own
    /// transaction's range, and a dictating write is found by id.
    #[test]
    fn sparse_unordered_ids_are_ranked_at_finish() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(900), "x");
        b.put(TxnId(7), "y");
        b.put(TxnId(900), "y");
        b.get(TxnId(1), "x", Some((TxnId(900), 0)));
        b.put(TxnId(7), "y");
        b.commit(TxnId(900));
        b.commit(TxnId(7));
        let h = b.finish();
        assert_eq!(h.ids, [TxnId(1), TxnId(7), TxnId(900)]);
        assert_eq!(h.committed, [false, true, true]);
        assert_eq!(h.starts, [0, 1, 3, 5]);
        assert_eq!(h.ops[0].kind, Kind::Get(Some((2, 0))));
        assert_eq!(h.version_order(), [at(900, 0), at(900, 1), at(7, 1)]);
        assert_eq!(h.order_ranks, [2, 2, 1]);
        assert!(h.is_committed(TxnId(7)) && !h.is_committed(TxnId(8)));
    }

    /// A reference to a transaction the history never met keeps its id
    /// for the report and gets the rank that names nothing.
    #[test]
    fn dangling_rank() {
        let mut b = HistoryBuilder::new();
        b.get(TxnId(0), "x", Some((TxnId(5), 3)));
        b.set_version_order(vec![at(5, 3)]);
        let h = b.finish();
        assert_eq!(h.ops[0].kind, Kind::Get(Some((NO_TXN, 3))));
        assert_eq!(h.order_ranks, [NO_TXN]);
        assert_eq!(h.at(NO_TXN, 3), None);
        assert_eq!(h.version_order(), [at(5, 3)]);
    }
}
