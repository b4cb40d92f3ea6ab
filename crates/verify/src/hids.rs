//! The handler paths of one advice, each given one index.
//!
//! Advice names a few dozen distinct handler paths tens of thousands of
//! times: in every log key, `prec`, transaction id and `opcounts` entry.
//! The wire's handler-id table writes each once, as `(parent, function,
//! opnum)` with the parent an earlier entry (`wire.rs`). [`HidTable`] is
//! that table with each distinct path once — a hostile table may write
//! one twice — and its indices are the paths' **ranks** in
//! [`HandlerId`] order: the lexicographic order of their
//! `(function, opnum)` steps, a proper prefix first. So wherever the
//! advice sorts by a handler id (a request's activations, the
//! transaction ids), it sorts by rank, and a lookup compares integers.
//!
//! The decoder turns every handler-id reference into its path's rank
//! as it reads it ([`crate::OpAt`]), so nothing downstream holds a
//! [`HandlerId`] for the advice's coordinates: an id is borrowed from
//! the table ([`HidTable::id`]) where a rejection or forensics renders
//! one, or where the server side re-encodes a view. An id built
//! elsewhere — a request handler's root, the initialization handler, a
//! hand-built test fixture — is resolved a step at a time from the root
//! ([`HidTable::rank`]).

use std::collections::HashMap;
use std::ops::Range;

use kem_lang::{init_handler_id, FunctionId, HandlerId, OpRef};

use crate::advice::{KTxId, OpAt};

/// Distinct handler paths in [`HandlerId`] order (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HidTable {
    /// By rank: the id of each path, and its parent's rank + 1 (0 for a
    /// root).
    ids: Vec<(HandlerId, u32)>,
    /// `[parent rank + 1, function, opnum, rank]` of every path,
    /// ascending: what [`HidTable::step`] searches.
    steps: Vec<[u32; 4]>,
}

/// Builds a [`HidTable`]: interns paths one step at a time, each
/// `(parent, function, opnum)` once, then ranks them
/// ([`Interner::finish`]).
#[derive(Default)]
pub(crate) struct Interner {
    /// By interned id: `(parent id + 1 (0 for a root), function,
    /// opnum)`, a parent before its children.
    entries: Vec<(u32, FunctionId, u32)>,
    index: HashMap<(u32, FunctionId, u32), u32>,
}

impl Interner {
    /// An interner with room for `n` paths.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Interner {
            entries: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
        }
    }

    /// The interned id of `(function, opnum)` below the path of id
    /// `parent`, added if new.
    pub(crate) fn intern(&mut self, parent: Option<u32>, function: FunctionId, opnum: u32) -> u32 {
        let key = (parent.map_or(0, |p| p + 1), function, opnum);
        let next = self.entries.len() as u32;
        let id = *self.index.entry(key).or_insert(next);
        if id == next {
            self.entries.push(key);
        }
        id
    }

    /// Ranks the paths by a preorder walk that visits siblings in
    /// `(function, opnum)` order — [`HandlerId`] order — and builds the
    /// table: the table, and the rank of each interned id.
    pub(crate) fn finish(self) -> (HidTable, Vec<u32>) {
        let entries = self.entries;
        let n = entries.len();
        // Ids grouped by parent, siblings in path order: the children
        // of id `p` are the run keyed `p + 1`, the roots the run keyed 0.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|id| entries[*id as usize]);
        let children = |key: u32| {
            let run = |k: u32| order.partition_point(|id| entries[*id as usize].0 < k) as u32;
            run(key)..run(key + 1)
        };
        let mut ranks = vec![0u32; n];
        let mut ids: Vec<(HandlerId, u32)> = Vec::with_capacity(n);
        let mut steps: Vec<[u32; 4]> = Vec::with_capacity(n);
        // One run per level of the path being walked: at most `n`.
        let mut stack: Vec<Range<u32>> = Vec::with_capacity(n + 1);
        stack.push(children(0));
        while let Some(run) = stack.last_mut() {
            let Some(at) = run.next() else {
                stack.pop();
                continue;
            };
            let id = order[at as usize];
            let (parent, function, opnum) = entries[id as usize];
            let rank = ids.len() as u32;
            // A parent is visited, and ranked, before its children.
            let parent = parent.checked_sub(1).map(|p| ranks[p as usize]);
            let parent_id = parent.map(|p| &ids[p as usize].0);
            let step = parent.map_or(0, |p| p + 1);
            ids.push((HandlerId::new(parent_id, function, opnum), step));
            steps.push([step, function.0, opnum, rank]);
            ranks[id as usize] = rank;
            stack.push(children(id + 1));
        }
        steps.sort_unstable();
        (HidTable { ids, steps }, ranks)
    }
}

impl HidTable {
    /// The table of the paths of `hids` and their ancestors.
    pub fn of<'h>(hids: impl IntoIterator<Item = &'h HandlerId>) -> HidTable {
        let (mut interner, mut chain) = (Interner::default(), Vec::new());
        for hid in hids {
            chain.extend(std::iter::successors(Some(hid), |h| h.parent()));
            let mut parent = None;
            for h in chain.drain(..).rev() {
                parent = Some(interner.intern(parent, h.function(), h.opnum()));
            }
        }
        interner.finish().0
    }

    /// The id of the path at `rank`.
    pub fn id(&self, rank: u32) -> Option<&HandlerId> {
        self.ids.get(rank as usize).map(|(id, _)| id)
    }

    /// The rank of the parent of the path at `rank`.
    pub fn parent(&self, rank: u32) -> Option<u32> {
        self.ids.get(rank as usize)?.1.checked_sub(1)
    }

    /// The rank of the path `parent` then `(function, opnum)` — a root
    /// for no parent — if the table holds it.
    pub fn step(&self, parent: Option<u32>, function: FunctionId, opnum: u32) -> Option<u32> {
        let key = [parent.map_or(0, |p| p + 1), function.0, opnum];
        let at = self.steps.binary_search_by(|s| s[..3].cmp(&key)).ok()?;
        self.steps.get(at).map(|s| s[3])
    }

    /// The rank of `hid`'s path, if the table holds it: stepped down
    /// from its root. For ids built apart from the table; the advice's
    /// own coordinates carry their ranks.
    pub fn rank(&self, hid: &HandlerId) -> Option<u32> {
        let chain: Vec<&HandlerId> = std::iter::successors(Some(hid), |h| h.parent()).collect();
        chain.iter().rev().try_fold(None, |parent, h| {
            self.step(parent, h.function(), h.opnum()).map(Some)
        })?
    }

    /// The id of the path at `rank`, cloned off the table: what a
    /// rejection shows, or owned advice holds. A rank past the table,
    /// which no decoded advice holds, shows as the initialization
    /// handler.
    pub fn hid(&self, rank: u32) -> HandlerId {
        self.id(rank).cloned().unwrap_or_else(init_handler_id)
    }

    /// The operation `at` names, with its handler's id
    /// ([`HidTable::hid`]).
    pub fn op_ref(&self, at: &OpAt) -> OpRef {
        OpRef::new(at.rid, self.hid(at.path), at.opnum)
    }

    /// The transaction whose `tx_start` is `at` ([`HidTable::hid`]).
    pub fn tx_id(&self, at: &OpAt) -> KTxId {
        let OpRef { rid, hid, opnum } = self.op_ref(at);
        KTxId { rid, hid, opnum }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Handler trees as `(parent pick, function, opnum)` steps grown
    /// from a few roots; a repeated step repeats a path.
    fn arb_tree() -> impl Strategy<Value = Vec<(prop::sample::Index, u32, u32)>> {
        prop::collection::vec((any::<prop::sample::Index>(), 0u32..3, 0u32..3), 1..24)
    }

    fn build(steps: &[(prop::sample::Index, u32, u32)]) -> Vec<HandlerId> {
        let mut tree = vec![
            HandlerId::root(FunctionId(0)),
            HandlerId::root(FunctionId(2)),
        ];
        for (pick, function, opnum) in steps {
            let parent = tree[pick.index(tree.len())].clone();
            tree.push(HandlerId::child(&parent, FunctionId(*function), *opnum));
        }
        tree
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Ranks follow `HandlerId` order, each distinct path once; any
        /// equal id resolves to its path's rank, by read or by steps.
        #[test]
        fn ranks_are_handler_id_order(steps in arb_tree()) {
            let tree = build(&steps);
            let table = HidTable::of(&tree);
            let mut paths = tree.clone();
            paths.sort();
            paths.dedup();
            prop_assert_eq!(table.id(paths.len() as u32), None);
            for (rank, path) in (0u32..).zip(&paths) {
                let id = table.id(rank).unwrap();
                prop_assert_eq!(id, path);
                prop_assert_eq!(table.rank(id), Some(rank));
                prop_assert_eq!(table.rank(path), Some(rank));
                let parent = path.parent().map(|p| table.rank(p).unwrap());
                prop_assert_eq!(table.parent(rank), parent);
                prop_assert_eq!(table.step(parent, path.function(), path.opnum()), Some(rank));
            }
            let absent = HandlerId::child(&tree[0], FunctionId(9), 0);
            prop_assert_eq!(table.rank(&absent), None);
            prop_assert_eq!(table.step(None, FunctionId(1), 0), None);
        }

        /// Wire entries that repeat a path — directly or under a
        /// repeated parent — share its rank.
        #[test]
        fn repeated_entries_share_a_rank(steps in arb_tree()) {
            let tree = build(&steps);
            // The tree twice, the copy's parents in the copy.
            let entry = |copy: u32| {
                let tree = &tree;
                move |id: &HandlerId| {
                    let parent = id.parent().and_then(|p| tree.iter().position(|t| t == p));
                    (parent.map(|p| p as u32 + copy), id.function(), id.opnum())
                }
            };
            let n = tree.len() as u32;
            let entries: Vec<_> = tree.iter().map(entry(0)).chain(tree.iter().map(entry(n))).collect();
            let mut interner = Interner::default();
            let mut interned: Vec<u32> = Vec::new();
            for (parent, function, opnum) in entries {
                let parent = parent.map(|p| interned[p as usize]);
                interned.push(interner.intern(parent, function, opnum));
            }
            let (table, ranks) = interner.finish();
            prop_assert_eq!(&table, &HidTable::of(&tree));
            for (entry, id) in tree.iter().chain(&tree).enumerate() {
                prop_assert_eq!(table.id(ranks[interned[entry] as usize]), Some(id));
            }
        }
    }
}
