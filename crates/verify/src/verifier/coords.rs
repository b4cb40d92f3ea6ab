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
//! A handler is named by its path's rank in the advice's [`HidTable`],
//! which orders paths as handler ids order, so a request's activations
//! ascend by rank too: the advice's coordinates carry the rank
//! ([`OpAt`]), so `(rid, rank)` resolves to an activation by searching
//! the request's slice of integers ([`Coords::act_in`]), and the handler
//! an operation activates is one step down the table from its parent's
//! rank ([`Coords::child_in`]). A coordinate built by hand ([`OpRef`])
//! reads its rank off the table first ([`Coords::op_node`]).
//!
//! The node total is declared by the advice. It is summed with checked
//! arithmetic (past `u32` is a typed reject), and every audit path runs
//! the `graph_max_nodes` volume gate before preprocess builds a
//! `Coords`, so no table sized by it is allocated past that budget.

use std::ops::Range;
use std::sync::Arc;

use kem_lang::{FunctionId, HandlerId, OpRef, RequestId};

use crate::advice::OpAt;
use crate::advice_ref::AdviceRef;
use crate::hids::HidTable;
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
    /// The handler: its path's rank in the coordinates' [`HidTable`]
    /// ([`Coords::hid`]).
    pub(crate) path: u32,
    /// Node id of the handler's start node; operation `k` is node
    /// `start + k`.
    pub(crate) start: u32,
    /// Operations the handler allegedly issued.
    pub(crate) count: u32,
    /// [`Activation::parent`], or [`NO_PARENT`]: a `u32`, not an
    /// `Option`, so that an activation is 24 bytes, not 32.
    parent: u32,
}

/// The `parent` of an activation without one.
const NO_PARENT: u32 = u32::MAX;

impl Activation {
    /// Activation index of the handler's parent in the same request;
    /// `None` for a request handler, or when the advice does not report
    /// the parent.
    pub(crate) fn parent(&self) -> Option<u32> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }

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
}

/// The coordinate system of one audit (see the module docs).
#[derive(Debug, Default)]
pub struct Coords {
    /// Trace rank → request id.
    trace_order: Vec<RequestId>,
    /// Request id → trace rank, ascending by id.
    by_rid: Vec<(RequestId, u32)>,
    /// The handler paths the activations' ranks index.
    paths: Arc<HidTable>,
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
    /// over the advice's handler-id table and `opcounts`. Fails, with
    /// the graph-node resource verdict, only when the declared node
    /// total does not fit a `u32`.
    pub fn build(
        trace_order: &[RequestId],
        advice: &AdviceRef<'_>,
    ) -> Result<Coords, RejectReason> {
        let (paths, opcounts) = (Arc::clone(&advice.paths), advice.opcounts);
        let mut acts: Vec<Activation> = Vec::with_capacity(opcounts.len());
        let mut first_act: Vec<(RequestId, u32)> = Vec::with_capacity(trace_order.len());
        // The next free node id; `None` once the declared total no
        // longer fits.
        let mut next = u32::try_from(trace_order.len())
            .ok()
            .and_then(|r| r.checked_mul(2));
        for (&(rid, path), count) in opcounts.iter() {
            let Some(start) = next else { break };
            if first_act.last().is_none_or(|(last, _)| *last != rid) {
                // At most `u32::MAX / 2` activations fit the node total.
                first_act.push((rid, acts.len() as u32));
            }
            // A parent sorts before its children: it is already in.
            let within = first_act.last().map_or(0, |(_, first)| *first)..acts.len() as u32;
            let parent = paths.parent(path).and_then(|p| act_in(&acts, &within, p));
            acts.push(Activation {
                rid,
                path,
                start,
                count: *count,
                parent: parent.unwrap_or(NO_PARENT),
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
            paths,
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

    /// The traced requests with their trace ranks, ascending by id.
    pub(crate) fn traced(&self) -> &[(RequestId, u32)] {
        &self.by_rid
    }

    /// The handler paths the activations' ranks index.
    pub fn paths(&self) -> &HidTable {
        &self.paths
    }

    /// The handler id of `act`.
    pub(crate) fn hid(&self, act: &Activation) -> Option<&HandlerId> {
        self.paths.id(act.path)
    }

    /// The activation of path rank `path` among the activations
    /// `within` (one request's range, from [`Coords::activations_of`]).
    pub(crate) fn act_in(&self, within: &Range<u32>, path: u32) -> Option<u32> {
        act_in(&self.acts, within, path)
    }

    /// The activation of path rank `path` among the activations
    /// `within`.
    pub(crate) fn find_in(&self, within: &Range<u32>, path: u32) -> Option<&Activation> {
        let i = self.act_in(within, path)?;
        self.acts.get(i as usize)
    }

    /// The activation among `within` of the handler running `function`
    /// that the `opnum`-th operation of the handler of path rank
    /// `parent` activates.
    pub(crate) fn child_in(
        &self,
        within: &Range<u32>,
        parent: u32,
        function: FunctionId,
        opnum: u32,
    ) -> Option<&Activation> {
        let i = self.act_in(within, self.paths.step(Some(parent), function, opnum)?)?;
        self.acts.get(i as usize)
    }

    /// Node id of the operation `op`, built by hand, if the advice
    /// reports its handler and the opnum is within the reported count.
    pub fn op_node(&self, op: &OpRef) -> Option<u32> {
        let within = self.activations_of(op.rid);
        self.find_in(&within, self.paths.rank(&op.hid)?)?
            .op(op.opnum)
    }

    /// The activation that owns node `id` (its start node, one of its
    /// operations or its end node); `None` for a request-boundary node
    /// and past the last node.
    pub(crate) fn activation_of(&self, id: u32) -> Option<&Activation> {
        self.acts.get(self.act_of(id)? as usize)
    }

    /// [`Coords::activation_of`], as an activation index.
    pub(crate) fn act_of(&self, id: u32) -> Option<u32> {
        if id >= self.nodes {
            return None;
        }
        let before = self.starts.partition_point(|start| *start <= id);
        u32::try_from(before.checked_sub(1)?).ok()
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
            hid: self.hid(act)?.clone(),
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

/// Resolves coordinates that come in runs of one request — a sorted
/// log's keys, or the writes its entries point at — to node ids, with
/// the request's activations looked up once per run.
#[derive(Debug, Default)]
pub(crate) struct RequestRun {
    rid: Option<RequestId>,
    /// The activations of `rid`.
    within: Range<u32>,
}

impl RequestRun {
    /// Node id of the advice's operation `op` ([`Coords::op_node`]).
    pub(crate) fn op_node(&mut self, coords: &Coords, op: &OpAt) -> Option<u32> {
        self.op_at(coords, op).map(|(node, _)| node)
    }

    /// Node id of the advice's operation `op` and the index of the
    /// activation that owns it.
    pub(crate) fn op_at(&mut self, coords: &Coords, op: &OpAt) -> Option<(u32, u32)> {
        if self.rid != Some(op.rid) {
            self.rid = Some(op.rid);
            self.within = coords.activations_of(op.rid);
        }
        let act = coords.act_in(&self.within, op.path)?;
        Some((coords.acts.get(act as usize)?.op(op.opnum)?, act))
    }
}

/// The activation of path rank `path` among `acts[within]`, which
/// ascend by it.
fn act_in(acts: &[Activation], within: &Range<u32>, path: u32) -> Option<u32> {
    let slice = acts.get(within.start as usize..within.end as usize)?;
    let offset = slice.binary_search_by_key(&path, |a| a.path).ok()?;
    Some(within.start + offset as u32)
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
    use crate::advice_ref::by_hand;
    use kem_lang::FunctionId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
    fn build(requests: &[GenRequest]) -> (Vec<RequestId>, BTreeMap<(RequestId, HandlerId), u32>) {
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

    /// The coordinates of `trace` over advice reporting `opcounts`.
    fn coords(
        trace: &[RequestId],
        opcounts: &BTreeMap<(RequestId, HandlerId), u32>,
    ) -> Result<Coords, RejectReason> {
        Coords::build(trace, &by_hand::advice(opcounts, &BTreeMap::new()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every position of every activation, and both boundaries of
        /// every traced request, decode back to what they encode; ids
        /// are dense and ascend in `(rid, hid, pos)` order.
        #[test]
        fn ids_round_trip_and_ascend(requests in arb_requests()) {
            let (trace, opcounts) = build(&requests);
            let c = coords(&trace, &opcounts).unwrap();
            for (rank, rid) in trace.iter().enumerate() {
                let (start, end) = (c.request_start(*rid).unwrap(), c.request_end(*rid).unwrap());
                prop_assert_eq!((start, end), (2 * rank as u32, 2 * rank as u32 + 1));
                prop_assert_eq!(c.node(start), Some(GNode::ReqStart(*rid)));
                prop_assert_eq!(c.node(end), Some(GNode::ReqEnd(*rid)));
            }
            let mut next = 2 * trace.len() as u32;
            for (((rid, hid), count), act) in opcounts.iter().zip(c.activations()) {
                prop_assert_eq!((act.rid, c.hid(act), act.count), (*rid, Some(hid), *count));
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
            let c = coords(&trace, &opcounts).unwrap();
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

        /// In whichever request's range, `find_in` and `child_in`
        /// return what a scan of the range by handler id returns —
        /// for the coordinates' own ids and for equal ones built apart;
        /// parent links name the activation of `hid.parent()`.
        #[test]
        fn lookups_match_a_scan(requests in arb_requests()) {
            let (trace, opcounts) = build(&requests);
            let c = coords(&trace, &opcounts).unwrap();
            let acts = c.activations();
            let scan = |within: &Range<u32>, hid: &HandlerId| {
                within.clone().find(|i| c.hid(&acts[*i as usize]) == Some(hid))
            };
            for (i, act) in acts.iter().enumerate() {
                let hid = c.hid(act).unwrap();
                let within = c.activations_of(act.rid);
                prop_assert!(within.contains(&(i as u32)));
                prop_assert_eq!(within.len(), acts.iter().filter(|a| a.rid == act.rid).count());
                prop_assert_eq!(c.activation_of(act.start).map(|a| a.start), Some(act.start));
                prop_assert_eq!(c.activation_of(act.end()).map(|a| a.start), Some(act.start));
                let parent = hid.parent().and_then(|p| scan(&within, p));
                prop_assert_eq!(act.parent(), parent);
                let apart = HandlerId::from_path(&hid.path()).unwrap();
                // Look every handler up in every request's range: many
                // handlers are absent from some.
                for (rid, _) in opcounts.keys() {
                    let other = c.activations_of(*rid);
                    let found = scan(&other, hid).map(|i| acts[i as usize].start);
                    let rank = c.paths().rank(hid).unwrap();
                    prop_assert_eq!(c.paths().rank(&apart), Some(rank));
                    prop_assert_eq!(c.find_in(&other, rank).map(|a| a.start), found);
                    if let Some(parent) = hid.parent().and_then(|p| c.paths().rank(p)) {
                        let child = c.child_in(&other, parent, hid.function(), hid.opnum());
                        prop_assert_eq!(child.map(|a| a.start), found);
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
    fn an_activation_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Activation>(), 24);
    }

    #[test]
    fn node_total_past_u32_is_a_typed_reject() {
        let hid = HandlerId::root(FunctionId(0));
        let opcounts = [RequestId(0), RequestId(1)]
            .into_iter()
            .map(|rid| ((rid, hid.clone()), u32::MAX - 2))
            .collect();
        let err = coords(&[RequestId(0), RequestId(1)], &opcounts).unwrap_err();
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
        let c = coords(&[RequestId(0)], &opcounts).unwrap();
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
