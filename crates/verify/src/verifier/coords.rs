//! Dense operation coordinates: how the verifier names an operation.
//!
//! The paper's structures (`G`, the `OpMap`, `activatedHandlers`, the
//! coverage sets of Fig. 18) are all keyed by an operation coordinate
//! `(rid, hid, opnum)`. The advice already fixes a total order over
//! those coordinates: `opcounts` is sorted by `(rid, hid)` and declares
//! how many operations each handler activation issued. [`Coords`] turns
//! that order into two index spaces, built once per audit:
//!
//! * the **activation index** of `(rid, hid)` is its rank in `opcounts`
//!   — a request's activations are one contiguous slice;
//! * the **node id** of a position inside activation `a` is
//!   `2·R + base[a] + pos`, where `pos` is `0` for the handler's start
//!   node, `k` for its `k`-th operation and `count + 1` for its end
//!   node, `base` is the prefix sum of `count + 2`, and the `2·R`
//!   request-boundary nodes (`2·t` arrival, `2·t + 1` delivery for the
//!   request of trace rank `t`) come first.
//!
//! Everything keyed by a coordinate is then an array indexed by one of
//! the two, and ids ascend in `(rid, hid, pos)` order — the order of
//! [`OpRef`] — so "the smallest uncovered coordinate" is the first
//! clear slot of a table.
//!
//! The node total is declared by the advice. It is summed with checked
//! arithmetic (past `u32` is a typed reject), and every audit path runs
//! the `graph_max_nodes` volume gate before preprocess builds a
//! `Coords`, so no table sized by it is allocated past that budget.

use std::ops::Range;

use kem_lang::{FunctionId, HandlerId, OpRef, RequestId};

use crate::advice_ref::VecMap;
use crate::verifier::reject::{RejectReason, ResourceKind};

/// Position within a handler: start (`0`), an operation, or end (`∞`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HPos {
    /// Handler start node `(rid, hid, 0)`.
    Start,
    /// The `opnum`-th operation (1-based).
    Op(u32),
    /// Handler end node `(rid, hid, ∞)`.
    End,
}

/// A node of `G`, decoded from its id ([`Coords::node`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GNode {
    /// Request arrival `(rid, 0)`.
    ReqStart(RequestId),
    /// Response delivery `(rid, ∞)`.
    ReqEnd(RequestId),
    /// A handler-scoped node.
    Handler {
        /// The request.
        rid: RequestId,
        /// The handler.
        hid: HandlerId,
        /// Position within the handler.
        pos: HPos,
    },
}

impl std::fmt::Display for GNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GNode::ReqStart(rid) => write!(f, "{rid}:REQ"),
            GNode::ReqEnd(rid) => write!(f, "{rid}:RESP"),
            GNode::Handler { rid, hid, pos } => match pos {
                HPos::Start => write!(f, "{rid} {hid} start"),
                HPos::Op(n) => write!(f, "{rid} {hid} op{n}"),
                HPos::End => write!(f, "{rid} {hid} end"),
            },
        }
    }
}

/// One handler activation the advice reports: an `opcounts` entry and
/// the node ids it owns. Built only by [`Coords::build`], which checks
/// that `start + count + 1` — the end node — fits a `u32`.
#[derive(Debug, Clone)]
pub(crate) struct Activation {
    pub(crate) rid: RequestId,
    pub(crate) hid: HandlerId,
    /// Node id of the handler's start node; operation `k` is node
    /// `start + k`.
    pub(crate) start: u32,
    /// Operations the handler allegedly issued.
    pub(crate) count: u32,
    /// Activation index of `hid.parent()` in the same request; `None`
    /// for a request handler, or when the advice does not report the
    /// parent.
    pub(crate) parent: Option<u32>,
}

impl Activation {
    /// Node id of the handler's end node.
    pub(crate) fn end(&self) -> u32 {
        self.start + self.count + 1
    }

    /// Node id of the `opnum`-th operation (`1..=count`).
    pub(crate) fn op(&self, opnum: u32) -> Option<u32> {
        (1..=self.count)
            .contains(&opnum)
            .then(|| self.start + opnum)
    }

    /// Whether this is the handler running `function` that the
    /// `opnum`-th operation of activation `parent` activated.
    fn is_child(&self, parent: u32, function: FunctionId, opnum: u32) -> bool {
        self.parent == Some(parent) && self.hid.function() == function && self.hid.opnum() == opnum
    }
}

/// The coordinate system of one audit (see the module docs).
#[derive(Debug, Default)]
pub struct Coords {
    /// Trace rank → request id.
    trace_order: Vec<RequestId>,
    /// Request id → trace rank, ascending by id.
    by_rid: Vec<(RequestId, u32)>,
    /// One per `opcounts` entry, ascending `(rid, hid)`.
    acts: Vec<Activation>,
    /// `acts[i].start`, ascending: what [`Coords::activation_of`]
    /// searches, four bytes an activation.
    starts: Vec<u32>,
    /// `(rid, index of its first activation)`, one per request
    /// `opcounts` reports, ascending: a request's activations end where
    /// the next request's begin.
    first_act: Vec<(RequestId, u32)>,
    /// `2·R + Σ(count + 2)`.
    nodes: u32,
}

impl Coords {
    /// Builds the coordinates of a trace (request ids in arrival order)
    /// and the advice's `opcounts`. Fails, with the graph-node resource
    /// verdict, only when the declared node total does not fit a `u32`.
    pub fn build(
        trace_order: &[RequestId],
        opcounts: &VecMap<(RequestId, HandlerId), u32>,
    ) -> Result<Coords, RejectReason> {
        let mut acts: Vec<Activation> = Vec::with_capacity(opcounts.len());
        let mut first_act: Vec<(RequestId, u32)> = Vec::with_capacity(trace_order.len());
        // The next free node id; `None` once the declared total no
        // longer fits.
        let mut next = u32::try_from(trace_order.len())
            .ok()
            .and_then(|r| r.checked_mul(2));
        for ((rid, hid), count) in opcounts {
            let Some(start) = next else { break };
            if first_act.last().is_none_or(|(last, _)| last != rid) {
                // At most `u32::MAX / 2` activations fit the node total.
                first_act.push((*rid, acts.len() as u32));
            }
            acts.push(Activation {
                rid: *rid,
                hid: hid.clone(),
                start,
                count: *count,
                parent: None,
            });
            next = start.checked_add(*count).and_then(|n| n.checked_add(2));
        }
        let Some(nodes) = next else {
            let declared = opcounts
                .values()
                .fold((trace_order.len() as u64).saturating_mul(2), |n, c| {
                    n.saturating_add(u64::from(*c) + 2)
                });
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::GraphNodes,
                group: None,
                spent: declared,
                limit: u64::from(u32::MAX),
            });
        };
        // Parent links: activations sort parent-first, an only child
        // right behind its parent, so each search starts at the
        // previous activation of the same request.
        let mut lo = 0;
        for i in 0..acts.len() {
            let Some((earlier, [act, ..])) = acts.split_at_mut_checked(i) else {
                break;
            };
            if earlier.get(lo).is_some_and(|first| first.rid != act.rid) {
                lo = i;
            }
            let same_request = earlier.get(lo..).unwrap_or(&[]);
            act.parent = act.hid.parent().and_then(|parent| {
                let near = same_request.len().saturating_sub(1);
                let offset = find_among(same_request, near, |a| a.hid == *parent, parent)?;
                u32::try_from(lo + offset).ok()
            });
        }
        let mut by_rid: Vec<(RequestId, u32)> = trace_order
            .iter()
            .zip(0u32..)
            .map(|(rid, rank)| (*rid, rank))
            .collect();
        by_rid.sort_unstable();
        let starts = acts.iter().map(|act| act.start).collect();
        Ok(Coords {
            trace_order: trace_order.to_vec(),
            by_rid,
            acts,
            starts,
            first_act,
            nodes,
        })
    }

    /// Number of nodes: two per traced request plus `count + 2` per
    /// activation.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Every activation, ascending `(rid, hid)` — the activation index
    /// is the position in this slice.
    pub(crate) fn activations(&self) -> &[Activation] {
        &self.acts
    }

    /// Rank of `rid` in the trace's arrival order.
    pub(crate) fn trace_rank(&self, rid: RequestId) -> Option<u32> {
        let i = self.by_rid.binary_search_by_key(&rid, |(r, _)| *r).ok()?;
        self.by_rid.get(i).map(|(_, rank)| *rank)
    }

    /// Node id of the arrival of `rid`.
    pub fn request_start(&self, rid: RequestId) -> Option<u32> {
        self.trace_rank(rid).map(|rank| rank * 2)
    }

    /// Node id of the response delivery of `rid`.
    pub fn request_end(&self, rid: RequestId) -> Option<u32> {
        self.trace_rank(rid).map(|rank| rank * 2 + 1)
    }

    /// The activation indices of `rid`: one contiguous range.
    pub(crate) fn activations_of(&self, rid: RequestId) -> Range<u32> {
        let Ok(i) = self.first_act.binary_search_by_key(&rid, |(r, _)| *r) else {
            return 0..0;
        };
        let first = |i: usize| self.first_act.get(i).map(|(_, first)| *first);
        let end = first(i + 1).unwrap_or(self.acts.len() as u32);
        first(i).unwrap_or(end)..end
    }

    /// Finds `hid` among the activations `within` (one request's range,
    /// from [`Coords::activations_of`]). `near` is an offset into the
    /// range where the caller last found something related: the same
    /// handler in a sibling request's range, or the handler the
    /// previous log entry named. That offset and the one after it —
    /// where a handler's first child sorts, which is where a
    /// continuation lands — are tried first and confirmed by equality;
    /// the binary search is what keeps a wrong hint, or ranges that
    /// differ in length or order, correct.
    pub(crate) fn find_in(&self, within: &Range<u32>, hid: &HandlerId, near: u32) -> Option<u32> {
        let slice = self.acts.get(within.start as usize..within.end as usize)?;
        let offset = find_among(slice, near as usize, |a| a.hid == *hid, hid)?;
        Some(within.start + offset as u32)
    }

    /// [`Coords::find_in`] for a handler whose parent's activation
    /// index is already known: a hint is confirmed by the parent link
    /// and the last path element — integer compares — instead of a
    /// walk up both handler ids. Equivalent, because the link was
    /// itself established by equality when the coordinates were built.
    pub(crate) fn find_child_in(
        &self,
        within: &Range<u32>,
        parent: u32,
        hid: &HandlerId,
        near: u32,
    ) -> Option<u32> {
        let slice = self.acts.get(within.start as usize..within.end as usize)?;
        let is_child = |a: &Activation| a.is_child(parent, hid.function(), hid.opnum());
        let offset = find_among(slice, near as usize, is_child, hid)?;
        Some(within.start + offset as u32)
    }

    /// [`Coords::find_child_in`] for the handler running `function`
    /// that the `opnum`-th operation of activation `parent` activates,
    /// without the caller building its id: the id is built only when
    /// the hint misses.
    pub(crate) fn find_activated_in(
        &self,
        within: &Range<u32>,
        parent: u32,
        function: FunctionId,
        opnum: u32,
        near: u32,
    ) -> Option<u32> {
        let slice = self.acts.get(within.start as usize..within.end as usize)?;
        let hinted = [near, near.saturating_add(1)].into_iter().find(|offset| {
            slice
                .get(*offset as usize)
                .is_some_and(|a| a.is_child(parent, function, opnum))
        });
        if let Some(offset) = hinted {
            return Some(within.start + offset);
        }
        let hid = HandlerId::child(&self.acts.get(parent as usize)?.hid, function, opnum);
        self.find_child_in(within, parent, &hid, near)
    }

    /// The activation `(rid, hid)`, searched over all of `opcounts`.
    pub(crate) fn find(&self, rid: RequestId, hid: &HandlerId) -> Option<&Activation> {
        let i = self.find_in(&self.activations_of(rid), hid, 0)?;
        self.acts.get(i as usize)
    }

    /// Node id of the operation `op`, if the advice reports its handler
    /// and the opnum is within the reported count.
    pub fn op_node(&self, op: &OpRef) -> Option<u32> {
        self.find(op.rid, &op.hid)?.op(op.opnum)
    }

    /// The activation that owns node `id` (its start node, one of its
    /// operations or its end node); `None` for a request-boundary node
    /// and past the last node.
    pub(crate) fn activation_of(&self, id: u32) -> Option<&Activation> {
        if id >= self.nodes {
            return None;
        }
        let before = self.starts.partition_point(|start| *start <= id);
        self.acts.get(before.checked_sub(1)?)
    }

    /// Decodes a node id.
    pub fn node(&self, id: u32) -> Option<GNode> {
        if id >= self.nodes {
            return None;
        }
        if (id as usize) < self.trace_order.len() * 2 {
            let rid = *self.trace_order.get((id / 2) as usize)?;
            return Some(if id.is_multiple_of(2) {
                GNode::ReqStart(rid)
            } else {
                GNode::ReqEnd(rid)
            });
        }
        let act = self.activation_of(id)?;
        let pos = id - act.start;
        Some(GNode::Handler {
            rid: act.rid,
            hid: act.hid.clone(),
            pos: match pos {
                0 => HPos::Start,
                p if p <= act.count => HPos::Op(p),
                _ => HPos::End,
            },
        })
    }

    /// The operation coordinate of node `id`, if it is an operation.
    pub(crate) fn op_ref(&self, id: u32) -> Option<OpRef> {
        match self.node(id)? {
            GNode::Handler {
                rid,
                hid,
                pos: HPos::Op(opnum),
            } => Some(OpRef::new(rid, hid, opnum)),
            _ => None,
        }
    }

    /// Rendered label of node `id` (empty if out of range).
    pub fn label(&self, id: u32) -> String {
        self.node(id).map(|n| n.to_string()).unwrap_or_default()
    }
}

/// Resolves a run of coordinates that tend to sit near one another — a
/// sorted log's keys, or the writes its entries point at — to node ids:
/// each is looked for in the request, and at the offset, where the
/// previous one was found ([`Coords::find_in`]).
#[derive(Debug, Default)]
pub(crate) struct Nearby {
    rid: Option<RequestId>,
    /// The activations of `rid`.
    within: Range<u32>,
    /// Offset into `within` of the last match. Kept across requests:
    /// the next request often has the same handler tree.
    near: u32,
}

impl Nearby {
    /// [`Coords::op_node`] of `op`.
    pub(crate) fn op_node(&mut self, coords: &Coords, op: &OpRef) -> Option<u32> {
        if self.rid != Some(op.rid) {
            self.rid = Some(op.rid);
            self.within = coords.activations_of(op.rid);
        }
        let act = coords.find_in(&self.within, &op.hid, self.near)?;
        self.near = act - self.within.start;
        coords.acts.get(act as usize)?.op(op.opnum)
    }
}

/// The offset of `hid` in `slice` (one request's activations, ascending
/// by handler id): `near` and `near + 1` are tried with `confirm`, then
/// the slice is searched.
fn find_among(
    slice: &[Activation],
    near: usize,
    confirm: impl Fn(&Activation) -> bool,
    hid: &HandlerId,
) -> Option<usize> {
    for offset in [near, near.saturating_add(1)] {
        if slice.get(offset).is_some_and(&confirm) {
            return Some(offset);
        }
    }
    slice.binary_search_by(|a| a.hid.cmp(hid)).ok()
}

/// A sparse table over node ids: a dense `node → slot` index in front
/// of the values, so a lookup is two array reads and the memory is four
/// bytes per node plus the entries that exist.
#[derive(Debug)]
pub struct NodeTable<T> {
    /// `0` = no entry, else `1 +` the position in `vals`.
    slots: Vec<u32>,
    vals: Vec<T>,
}

impl<T> Default for NodeTable<T> {
    fn default() -> Self {
        NodeTable {
            slots: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<T> NodeTable<T> {
    /// An empty table over `nodes` node ids.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeTable {
            slots: vec![0; nodes],
            vals: Vec::new(),
        }
    }

    /// Splits this empty table at the ascending node ids `cuts` into one
    /// [`NodeRows`] per range between consecutive cuts, each to be
    /// filled on its own (on any thread) and handed back to
    /// [`NodeTable::join`].
    pub(crate) fn split(&mut self, cuts: &[u32]) -> Vec<NodeRows<'_, T>> {
        let mut rest = self.slots.as_mut_slice();
        let mut parts = Vec::with_capacity(cuts.len().saturating_sub(1));
        for range in cuts.windows(2) {
            let [first, end] = [range[0], range[1]];
            let len = (end.saturating_sub(first) as usize).min(rest.len());
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let vals = Vec::new();
            parts.push(NodeRows { first, slots, vals });
        }
        parts
    }

    /// Takes back, in order, the entries of the parts [`NodeTable::split`]
    /// cut at `cuts`. A part numbered its slots from its own first
    /// entry, so they move past the entries of the parts before it.
    pub(crate) fn join(&mut self, cuts: &[u32], parts: Vec<Vec<T>>) {
        self.vals.reserve_exact(parts.iter().map(Vec::len).sum());
        for (range, vals) in cuts.windows(2).zip(parts) {
            let base = self.vals.len() as u32;
            let slots = self.slots.get_mut(range[0] as usize..range[1] as usize);
            for slot in slots
                .unwrap_or(&mut [])
                .iter_mut()
                .filter(|slot| **slot != 0)
            {
                *slot += base;
            }
            self.vals.extend(vals);
        }
    }

    /// The entry of `node`.
    #[inline]
    pub fn get(&self, node: u32) -> Option<&T> {
        let slot = *self.slots.get(node as usize)?;
        self.vals.get(slot.checked_sub(1)? as usize)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no node has an entry.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The nodes that have an entry, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| **slot != 0)
            .map(|(node, _)| node as u32)
    }
}

/// One node range of a [`NodeTable`] being filled apart from the rest
/// ([`NodeTable::split`]): its slots, borrowed from the table, and its
/// own entries, which its slots number from 1.
#[derive(Debug)]
pub(crate) struct NodeRows<'t, T> {
    /// The range's first node id.
    first: u32,
    slots: &'t mut [u32],
    vals: Vec<T>,
}

impl<T> NodeRows<'_, T> {
    /// Sets the entry of `node` unless it has one or lies outside the
    /// range; whether it did.
    pub(crate) fn insert(&mut self, node: u32, val: T) -> bool {
        let slot = self.slots.get_mut(node.wrapping_sub(self.first) as usize);
        match slot {
            Some(slot) if *slot == 0 => {
                self.vals.push(val);
                // At most one entry per node, and nodes fit a `u32`.
                *slot = self.vals.len() as u32;
                true
            }
            _ => false,
        }
    }

    /// Nodes in the range.
    pub(crate) fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// Room for `entries` more entries.
    pub(crate) fn reserve(&mut self, entries: usize) {
        self.vals.reserve_exact(entries);
    }

    /// The entries, in insertion order, for [`NodeTable::join`].
    pub(crate) fn into_entries(self) -> Vec<T> {
        self.vals
    }
}

/// One part of a split [`NodeLists`]: its nodes' ranges of its items,
/// and the items.
pub(crate) type ListPart<T> = (Vec<(u32, u32)>, Vec<T>);

/// A [`NodeTable`] of lists, held flat: one vector of items and a table
/// of each node's range of it, so a list costs no allocation of its
/// own.
#[derive(Debug)]
pub struct NodeLists<T> {
    at: NodeTable<(u32, u32)>,
    items: Vec<T>,
}

impl<T> NodeLists<T> {
    /// An empty table over `nodes` node ids.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeLists {
            at: NodeTable::new(nodes),
            items: Vec::new(),
        }
    }

    /// The list of `node`.
    pub fn get(&self, node: u32) -> Option<&[T]> {
        let (lo, hi) = *self.at.get(node)?;
        self.items.get(lo as usize..hi as usize)
    }

    /// [`NodeTable::split`] for lists: a part holds each node's range of
    /// a vector of items of its own.
    pub(crate) fn split(&mut self, cuts: &[u32]) -> Vec<NodeRows<'_, (u32, u32)>> {
        self.at.split(cuts)
    }

    /// [`NodeTable::join`] for lists.
    pub(crate) fn join(&mut self, cuts: &[u32], parts: Vec<ListPart<T>>) {
        self.items
            .reserve_exact(parts.iter().map(|(_, items)| items.len()).sum());
        let mut ranges = Vec::with_capacity(parts.len());
        for (mut at, mut items) in parts {
            let base = self.items.len() as u32;
            for (lo, hi) in &mut at {
                *lo += base;
                *hi += base;
            }
            self.items.append(&mut items);
            ranges.push(at);
        }
        self.at.join(cuts, ranges);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use kem_lang::FunctionId;
    use proptest::prelude::*;

    /// One generated request: its id, whether the trace contains it,
    /// and a handler tree as `(parent pick, function, opnum, count)`
    /// steps grown from a root (a repeated path keeps its last count,
    /// like a repeated `opcounts` key on the wire).
    type GenRequest = (u64, bool, u32, Vec<(prop::sample::Index, u32, u32, u32)>);

    fn arb_requests() -> impl Strategy<Value = Vec<GenRequest>> {
        prop::collection::vec(
            (
                0u64..12,
                any::<bool>(),
                0u32..4,
                prop::collection::vec(
                    (any::<prop::sample::Index>(), 0u32..3, 1u32..4, 0u32..4),
                    0..6,
                ),
            ),
            1..6,
        )
    }

    /// The trace order (requests flagged as traced, in generation
    /// order — not ascending) and the `opcounts` of generated requests.
    fn build(requests: &[GenRequest]) -> (Vec<RequestId>, VecMap<(RequestId, HandlerId), u32>) {
        let mut trace: Vec<RequestId> = Vec::new();
        let mut opcounts: Vec<((RequestId, HandlerId), u32)> = Vec::new();
        for (rid, traced, root_count, steps) in requests {
            let rid = RequestId(*rid);
            if *traced && !trace.contains(&rid) {
                trace.push(rid);
            }
            let mut tree = vec![HandlerId::root(FunctionId(0))];
            opcounts.push(((rid, tree[0].clone()), *root_count));
            for (pick, function, opnum, count) in steps {
                let parent = tree[pick.index(tree.len())].clone();
                let hid = HandlerId::child(&parent, FunctionId(*function), *opnum);
                opcounts.push(((rid, hid.clone()), *count));
                tree.push(hid);
            }
        }
        (trace, opcounts.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every position of every activation, and both boundaries of
        /// every traced request, decode back to what they encode; ids
        /// are dense and ascend in `(rid, hid, pos)` order.
        #[test]
        fn ids_round_trip_and_ascend(requests in arb_requests()) {
            let (trace, opcounts) = build(&requests);
            let c = Coords::build(&trace, &opcounts).unwrap();
            for (rank, rid) in trace.iter().enumerate() {
                let (start, end) = (c.request_start(*rid).unwrap(), c.request_end(*rid).unwrap());
                prop_assert_eq!((start, end), (2 * rank as u32, 2 * rank as u32 + 1));
                prop_assert_eq!(c.node(start), Some(GNode::ReqStart(*rid)));
                prop_assert_eq!(c.node(end), Some(GNode::ReqEnd(*rid)));
            }
            let mut next = 2 * trace.len() as u32;
            for (((rid, hid), count), act) in opcounts.iter().zip(c.activations()) {
                prop_assert_eq!((act.rid, &act.hid, act.count), (*rid, hid, *count));
                prop_assert_eq!(act.start, next);
                for pos in 0..=count + 1 {
                    let expected = match pos {
                        0 => HPos::Start,
                        p if p <= *count => HPos::Op(p),
                        _ => HPos::End,
                    };
                    let node = GNode::Handler { rid: *rid, hid: hid.clone(), pos: expected };
                    prop_assert_eq!(c.node(next), Some(node));
                    prop_assert!(!c.label(next).is_empty());
                    let op = OpRef::new(*rid, hid.clone(), pos);
                    let is_op = (1..=*count).contains(&pos);
                    prop_assert_eq!(c.op_node(&op), is_op.then_some(next));
                    prop_assert_eq!(c.op_ref(next), is_op.then_some(op));
                    next += 1;
                }
                prop_assert_eq!(act.end() + 1, next);
            }
            prop_assert_eq!(c.node_count(), next as usize);
            prop_assert_eq!(c.node(next), None);
            prop_assert_eq!(c.label(next), "");
        }

        /// The first uncovered slot of a table over node ids is the
        /// smallest uncovered coordinate — what the map-keyed coverage
        /// check found by comparing every uncovered `OpRef`.
        #[test]
        fn first_uncovered_node_is_the_minimum_coordinate(
            requests in arb_requests(),
            covered in prop::collection::vec(any::<bool>(), 0..64),
        ) {
            let (trace, opcounts) = build(&requests);
            let c = Coords::build(&trace, &opcounts).unwrap();
            let ops: Vec<(OpRef, u32)> = (0..c.node_count() as u32)
                .filter_map(|id| Some((c.op_ref(id)?, id)))
                .collect();
            let is_covered = |i: usize| covered.get(i).copied().unwrap_or(false);
            let first_clear = ops.iter().enumerate().find(|(i, _)| !is_covered(*i));
            let minimum = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| !is_covered(*i))
                .map(|(_, (op, _))| op)
                .min();
            prop_assert_eq!(first_clear.map(|(_, (op, _))| op), minimum);
        }

        /// Whatever the hint, and whichever request's range it came
        /// from, `find_in` and `find_child_in` return what a scan of
        /// the range by handler id returns; parent links name the
        /// activation of `hid.parent()`.
        #[test]
        fn hinted_lookups_match_a_scan(requests in arb_requests(), near in 0u32..8) {
            let (trace, opcounts) = build(&requests);
            let c = Coords::build(&trace, &opcounts).unwrap();
            let acts = c.activations();
            let scan = |within: &Range<u32>, hid: &HandlerId| {
                within.clone().find(|i| acts[*i as usize].hid == *hid)
            };
            for (i, act) in acts.iter().enumerate() {
                let within = c.activations_of(act.rid);
                prop_assert!(within.contains(&(i as u32)));
                prop_assert_eq!(within.len(), acts.iter().filter(|a| a.rid == act.rid).count());
                prop_assert_eq!(c.activation_of(act.start).map(|a| a.start), Some(act.start));
                prop_assert_eq!(c.activation_of(act.end()).map(|a| a.start), Some(act.start));
                let parent = act.hid.parent().and_then(|p| scan(&within, p));
                prop_assert_eq!(act.parent, parent);
                // Look every handler up in every request's range: the
                // ranges differ in length and order, so most hints are
                // wrong and many handlers are absent.
                for (rid, _) in opcounts.keys() {
                    let other = c.activations_of(*rid);
                    let found = scan(&other, &act.hid);
                    prop_assert_eq!(c.find_in(&other, &act.hid, near), found);
                    let there = act.hid.parent().and_then(|p| scan(&other, p));
                    if let Some(parent_there) = there {
                        let child = c.find_child_in(&other, parent_there, &act.hid, near);
                        prop_assert_eq!(child, found);
                        let (function, opnum) = (act.hid.function(), act.hid.opnum());
                        let activated =
                            c.find_activated_in(&other, parent_there, function, opnum, near);
                        prop_assert_eq!(activated, found);
                    }
                }
            }
            // Request ids are drawn from `0..12`: one nothing reports
            // has no activations, and neither has a boundary node.
            prop_assert!(c.activations_of(RequestId(12)).is_empty());
            prop_assert!(c.activations_of(RequestId::INIT).is_empty());
            prop_assert!(c.activation_of(0).is_none() || trace.is_empty());
            prop_assert!(c.activation_of(c.node_count() as u32).is_none());
        }
    }

    #[test]
    fn node_total_past_u32_is_a_typed_reject() {
        let hid = HandlerId::root(FunctionId(0));
        let opcounts = [RequestId(0), RequestId(1)]
            .into_iter()
            .map(|rid| ((rid, hid.clone()), u32::MAX - 2))
            .collect();
        let err = Coords::build(&[RequestId(0), RequestId(1)], &opcounts).unwrap_err();
        assert!(
            matches!(
                err,
                RejectReason::ResourceExhausted {
                    resource: ResourceKind::GraphNodes,
                    spent,
                    limit,
                    ..
                } if spent == 4 + 2 * u64::from(u32::MAX) && limit == u64::from(u32::MAX)
            ),
            "{err}"
        );
        // The largest total that fits is accepted without wrapping.
        let opcounts = [((RequestId(0), hid), u32::MAX - 4)].into_iter().collect();
        let c = Coords::build(&[RequestId(0)], &opcounts).unwrap();
        assert_eq!(c.node_count(), u32::MAX as usize);
        assert_eq!(c.activations()[0].end(), u32::MAX - 1);
    }

    #[test]
    fn node_table_holds_one_entry_per_node() {
        let mut t: NodeTable<&str> = NodeTable::new(4);
        assert!(t.is_empty());
        let mut parts = t.split(&[0, 4]);
        assert!(parts[0].insert(2, "a"));
        assert!(parts[0].insert(0, "b"));
        assert!(!parts[0].insert(2, "c"));
        assert!(!parts[0].insert(9, "outside"));
        let entries = parts.into_iter().map(NodeRows::into_entries).collect();
        t.join(&[0, 4], entries);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(2), Some(&"a"));
        assert_eq!(t.get(0), Some(&"b"));
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(9), None);
        assert_eq!(t.nodes().collect::<Vec<_>>(), vec![0, 2]);
    }

    /// A table split at node ids and filled part by part holds what one
    /// filled in a piece would, lists included.
    #[test]
    fn node_tables_fill_by_parts() {
        let cuts = [0, 3, 3, 7];
        let mut t = NodeTable::new(7);
        let mut parts = t.split(&cuts);
        assert!(parts[0].insert(1, "a"));
        assert!(!parts[0].insert(1, "again"));
        assert!(!parts[0].insert(3, "outside"));
        assert!(!parts[1].insert(3, "empty range"));
        assert!(parts[2].insert(6, "b"));
        assert!(parts[2].insert(3, "c"));
        let entries = parts.into_iter().map(NodeRows::into_entries).collect();
        t.join(&cuts, entries);
        assert_eq!(t.len(), 3);
        assert_eq!(t.nodes().collect::<Vec<_>>(), vec![1, 3, 6]);
        assert_eq!(
            (t.get(1), t.get(3), t.get(6)),
            (Some(&"a"), Some(&"c"), Some(&"b"))
        );

        let cuts = [0, 2, 5];
        let mut lists = NodeLists::new(5);
        let mut parts = lists.split(&cuts);
        assert!(parts[0].insert(1, (0, 2)));
        assert!(parts[1].insert(2, (0, 0)));
        assert!(parts[1].insert(4, (0, 1)));
        let items = [vec!['a', 'b'], vec!['c']];
        let parts = parts
            .into_iter()
            .map(NodeRows::into_entries)
            .zip(items)
            .collect();
        lists.join(&cuts, parts);
        assert_eq!(lists.get(1), Some(&['a', 'b'][..]));
        assert_eq!(lists.get(2), Some(&[][..]));
        assert_eq!(lists.get(4), Some(&['c'][..]));
        assert_eq!(lists.get(0), None);
    }
}
