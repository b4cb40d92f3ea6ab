//! The verifier's `Preprocess` phase (Fig. 14 lines 18–27).
//!
//! Builds the execution graph `G` with time-precedence, program,
//! boundary, activation, handler-log, and external-state edges; builds
//! the `OpMap` and `activatedHandlers` structures consumed by
//! re-execution; classifies committed transactions; and runs isolation
//! verification on the alleged transactional history.
//!
//! # Coordinates
//!
//! The first thing preprocess builds is the audit's [`Coords`]
//! (`coords.rs`): from then on an operation is a node id, a handler
//! activation is its rank in `advice.opcounts`, and a transaction is its
//! rank in `advice.tx_logs`. The structures handed to re-execution are
//! tables over those indices, the variable logs are indexed by them
//! (`var_index.rs`), and the graph's edges are id pairs.
//!
//! # Sharded execution
//!
//! Every section after the trace scan is *per-request decomposable*:
//! each advice map is keyed by (or contains) the request id, a
//! request's activations are one contiguous range of the coordinates,
//! and every coordinate a request's logs put into the `OpMap` lies in
//! that range, so no two requests can collide there.
//! [`preprocess_staged`] exploits this: requests are sharded over the
//! verifier's worker pool (`pool.rs`), each shard runs the six
//! advice-driven sections for its request in serial section order, and
//! the calling thread merges deterministically —
//!
//! * **errors** by the lexicographic minimum of `(section, position)`,
//!   where position is the request's rank in the section's serial
//!   iteration order (ascending request id, except the
//!   boundary-response section which follows trace order), so the
//!   winning [`RejectReason`] is exactly the serial first error;
//! * **edges** as one fragment per request, appended in ascending
//!   request order. Node ids come from the coordinates, not from the
//!   order edges arrive in, so the merge is a plain append.
//!
//! The edge fragments are returned as [`DeferredEdges`] rather than
//! merged eagerly, which lets the audit overlap the merge with group
//! replay; [`DeferredEdges::merge_into`] merges them on the spot.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use kem::{HandlerId, OpRef, Program, RequestId, Trace, TraceEvent};

use crate::advice::{KTxId, TxOpType};
use crate::advice_ref::{AdviceRef, TxContentsRef, TxEntryRef, VecMap};
use crate::verifier::coords::{Activation, Coords, Nearby, NodeTable};
use crate::verifier::graph::{Edge, EdgeKind, Graph};
use crate::verifier::isolation::{verify_isolation, IsolationStats};
use crate::verifier::pool;
use crate::verifier::reject::RejectReason;
use crate::verifier::var_index::VarIndex;
use crate::wire::{HandlerLogEntryView, HandlerOpView};

/// Where a re-executed operation's log entry lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMapEntry {
    /// In the request's handler log, at `index`.
    HandlerLog {
        /// Position in the handler log.
        index: u32,
    },
    /// In a transaction log, at `index`.
    TxLog {
        /// The transaction, by rank in `advice.tx_logs`.
        tx: u32,
        /// Position in the transaction log (= `txnum`).
        index: u32,
    },
}

/// Everything `Preprocess` hands to re-execution and postprocessing.
#[derive(Debug)]
pub struct Preprocessed {
    /// The execution graph `G` (so far).
    pub graph: Graph,
    /// The audit's coordinates, shared with `graph` (which the audit
    /// takes out of this struct before re-execution starts).
    pub coords: Arc<Coords>,
    /// Operation node → log-entry location.
    pub op_map: NodeTable<OpMapEntry>,
    /// Emit node → handlers it allegedly activates.
    pub activated: NodeTable<Vec<HandlerId>>,
    /// Check-operation node → listener count implied by the handler
    /// log's registration history at that point.
    pub check_counts: NodeTable<i64>,
    /// Whether each transaction, by rank in `advice.tx_logs`, allegedly
    /// committed.
    pub committed: Vec<bool>,
    /// The size of the history and graph isolation verification checked.
    pub isolation: IsolationStats,
    /// `advice.var_logs` by id: which entry an operation node is logged
    /// at, and which write each entry points at.
    pub var_index: VarIndex,
    /// Operation node → position in `advice.nondet` of the value
    /// recorded there.
    pub nondet: VecMap<u32, u32>,
}

/// Preprocess edge fragments not yet merged into `G`: one per request,
/// ascending request id. [`DeferredEdges::merge_into`] appends them;
/// deferring that is what lets the audit overlap it with group
/// replay (the re-executor reads `op_map`/`activated`/
/// `check_counts`, never the graph, so the merge is safe to run
/// concurrently with replay).
#[derive(Debug, Default)]
pub struct DeferredEdges {
    batches: Vec<Vec<Edge>>,
}

impl DeferredEdges {
    /// Total deferred edges.
    pub fn edge_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Appends every deferred edge to `g`, with capacity reserved up
    /// front. Idempotent: batches are drained.
    pub fn merge_into(&mut self, g: &mut Graph) {
        g.reserve(self.edge_count());
        for batch in self.batches.drain(..) {
            g.append(&batch);
        }
    }
}

/// Output of [`preprocess_staged`]: the preprocessed structures (with
/// `G` holding only the trace's time-precedence edges) plus the
/// deferred advice-driven edge fragments.
#[derive(Debug)]
pub struct PreStaged {
    /// The preprocessed structures.
    pub pre: Preprocessed,
    /// Edge fragments to merge into `pre.graph` (eagerly, or overlapped
    /// with group replay by the audit).
    pub deferred: DeferredEdges,
}

/// Advice-driven sections, in serial execution order. The
/// boundary-response section is the only one whose serial iteration
/// follows trace order instead of ascending request id.
const SEC_PROGRAM: usize = 0;
const SEC_BOUNDARY_RESPONSE: usize = 2;
const SEC_ACTIVATION: usize = 3;
const SEC_HANDLER: usize = 4;
const SEC_EXTERNAL: usize = 5;

/// Everything one request's shard reads: its ranges of the sorted
/// advice maps, found on the calling thread by one ascending walk. `'x`
/// is the advice storage — ultimately the wire bytes on the borrowed
/// path.
struct RidWork<'x> {
    rid: RequestId,
    /// The request's arrival and delivery nodes; `None` for a request
    /// only the advice names. Arrival nodes ascend in trace order.
    boundary: Option<(u32, u32)>,
    /// This request's activations (indices into the coordinates).
    acts: Range<u32>,
    handler_log: Option<&'x [HandlerLogEntryView<'x>]>,
    /// This request's transactions (ranks in `advice.tx_logs`).
    txs: Range<u32>,
}

/// One request's preprocess output: its edge fragment, its entries of
/// the node tables, and the first error (tagged with its section).
#[derive(Default)]
struct RidShard {
    edges: Vec<Edge>,
    op_map: Vec<(u32, OpMapEntry)>,
    activated: Vec<(u32, Vec<HandlerId>)>,
    check_counts: Vec<(u32, i64)>,
    /// Ranks of the allegedly committed transactions.
    committed: Vec<u32>,
    err: Option<(usize, RejectReason)>,
}

/// What every shard reads besides its own [`RidWork`].
struct ShardCtx<'c, 'x> {
    advice: &'x AdviceRef<'x>,
    coords: &'c Coords,
    /// Global registrations never change during a run; indexed by
    /// event once, shared read-only by every shard.
    global_by_event: HashMap<&'c str, Vec<kem::FunctionId>>,
}

/// Runs `Preprocess`. `isolation` is the level the store is deployed at
/// (known to the principal). The advice-driven sections run sharded per
/// request over `threads` threads, the calling thread included (`1`
/// runs every shard on it, spawning nothing), and the edge merge is
/// deferred (see the module docs for the determinism argument).
pub fn preprocess_staged<'a>(
    program: &Program,
    trace: &Trace,
    advice: &'a AdviceRef<'a>,
    isolation: kvstore::IsolationLevel,
    threads: usize,
) -> Result<PreStaged, RejectReason> {
    if !trace.is_balanced() {
        return Err(RejectReason::UnbalancedTrace);
    }
    let trace_order = trace.request_ids();
    let coords = Arc::new(Coords::build(&trace_order, &advice.opcounts)?);

    // Time precedence stays on the calling thread: it is a single cheap
    // chronological chain over the trusted trace.
    let mut graph = Graph::new(coords.clone());
    add_time_precedence_edges(&mut graph, trace);

    let work = shard_work(advice, &coords, &trace_order);

    let mut global_by_event: HashMap<&str, Vec<kem::FunctionId>> = HashMap::new();
    for (e, f) in &program.global_registrations {
        global_by_event
            .entry(e.as_str())
            .or_default()
            .push(kem::FunctionId(*f));
    }
    let ctx = ShardCtx {
        advice,
        coords: &coords,
        global_by_event,
    };

    let nshards = work.len();
    let run = |i: usize| Ok(run_rid_shard(&ctx, &work[i]));
    let mut shards = pool::collect(threads, nshards, &run)?;

    // First error in serial order: lexicographic minimum of
    // (section, position). Position is the shard's rank in ascending
    // request order for every section except boundary-response, whose
    // serial iteration is trace order.
    let mut best: Option<((usize, usize), RejectReason)> = None;
    for (i, (shard, w)) in shards.iter().zip(&work).enumerate() {
        if let Some((section, reason)) = &shard.err {
            let pos = match w.boundary {
                Some((arrival, _)) if *section == SEC_BOUNDARY_RESPONSE => arrival as usize,
                _ => i,
            };
            let key = (*section, pos);
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, reason.clone()));
            }
        }
    }
    if let Some((_, reason)) = best {
        return Err(reason);
    }

    // Table merges: per-request node ranges are disjoint, so scattering
    // the fragments in shard order reproduces the serial tables.
    let nodes = coords.node_count();
    let entries = |len: fn(&RidShard) -> usize| shards.iter().map(len).sum::<usize>();
    let mut op_map = NodeTable::new(nodes, entries(|s| s.op_map.len()));
    let mut activated = NodeTable::new(nodes, entries(|s| s.activated.len()));
    let mut check_counts = NodeTable::new(nodes, entries(|s| s.check_counts.len()));
    let mut committed = vec![false; advice.tx_logs.len()];
    let mut batches: Vec<Vec<Edge>> = Vec::with_capacity(nshards);
    for shard in &mut shards {
        for (node, entry) in shard.op_map.drain(..) {
            op_map.insert(node, entry);
        }
        for (node, hids) in shard.activated.drain(..) {
            activated.insert(node, hids);
        }
        for (node, count) in shard.check_counts.drain(..) {
            check_counts.insert(node, count);
        }
        for tx in shard.committed.drain(..) {
            if let Some(c) = committed.get_mut(tx as usize) {
                *c = true;
            }
        }
        batches.push(std::mem::take(&mut shard.edges));
    }

    let isolation = verify_isolation(advice, &committed, isolation)?;

    // Last, so that an audit preprocess rejects does not pay for them.
    let var_index = VarIndex::build(coords.clone(), &advice.var_logs)?;
    let nondet = nondet_by_node(advice, &coords);

    Ok(PreStaged {
        pre: Preprocessed {
            graph,
            coords,
            op_map,
            activated,
            check_counts,
            committed,
            isolation,
            var_index,
            nondet,
        },
        deferred: DeferredEdges { batches },
    })
}

/// `advice.nondet` by the node of each entry's coordinate. Replay asks
/// only about operations it executes, so an entry at a coordinate
/// `opcounts` does not cover is left out: nothing can ask for it. The
/// log ascends like the activations do, so each entry is looked for
/// where the previous one was found.
fn nondet_by_node(advice: &AdviceRef<'_>, coords: &Coords) -> VecMap<u32, u32> {
    let mut nearby = Nearby::default();
    let by_node = advice
        .nondet
        .keys()
        .zip(0u32..)
        .filter_map(|(op, position)| Some((nearby.op_node(coords, op)?, position)))
        .collect();
    VecMap::from_wire(by_node)
}

/// The shard universe — every request the advice mentions plus every
/// request the trace contains, ascending — each with its ranges of the
/// advice maps. All of them are sorted by request id first, so one
/// cursor per map walks them in step.
fn shard_work<'x>(
    advice: &'x AdviceRef<'x>,
    coords: &Coords,
    trace_order: &[RequestId],
) -> Vec<RidWork<'x>> {
    let acts = coords.activations();
    let logs = advice.handler_logs.as_slice();
    let txs = advice.tx_logs.as_slice();
    let mut rids: Vec<RequestId> = Vec::with_capacity(trace_order.len());
    let mut mention = |rid: RequestId| {
        if rids.last() != Some(&rid) {
            rids.push(rid);
        }
    };
    acts.iter().for_each(|a| mention(a.rid));
    logs.iter().for_each(|(rid, _)| mention(*rid));
    txs.iter().for_each(|(tx, _)| mention(tx.rid));
    trace_order.iter().for_each(|rid| mention(*rid));
    rids.sort_unstable();
    rids.dedup();

    let (mut a, mut l, mut t) = (0usize, 0usize, 0usize);
    rids.into_iter()
        .map(|rid| {
            let a0 = a;
            while acts.get(a).is_some_and(|act| act.rid == rid) {
                a += 1;
            }
            let handler_log = match logs.get(l) {
                Some((r, log)) if *r == rid => {
                    l += 1;
                    Some(*log)
                }
                _ => None,
            };
            let t0 = t;
            while txs.get(t).is_some_and(|(tx, _)| tx.rid == rid) {
                t += 1;
            }
            RidWork {
                rid,
                boundary: coords.request_start(rid).zip(coords.request_end(rid)),
                acts: a0 as u32..a as u32,
                handler_log,
                txs: t0 as u32..t as u32,
            }
        })
        .collect()
}

/// Runs every advice-driven section for one request, in serial section
/// order, stopping at the first error. Within a shard the first error
/// found is its `(section, position)` minimum, because sections run in
/// ascending order and the position (this request's rank) is fixed.
fn run_rid_shard<'x>(ctx: &ShardCtx<'_, 'x>, work: &RidWork<'x>) -> RidShard {
    let mut shard = RidShard::default();
    let acts = ctx
        .coords
        .activations()
        .get(work.acts.start as usize..work.acts.end as usize)
        .unwrap_or(&[]);
    let txs = ctx
        .advice
        .tx_logs
        .as_slice()
        .get(work.txs.start as usize..work.txs.end as usize)
        .unwrap_or(&[]);
    // Pre-size the hot fragments from the work item — the op counts
    // fix the program section's edge count up front, and every log
    // entry adds at most one edge and one `OpMap` entry.
    let program_edges: usize = acts.iter().map(|a| a.count as usize + 1).sum();
    let log_len = work.handler_log.map_or(0, <[_]>::len);
    let tx_entries: usize = txs.iter().map(|(_, log)| log.len()).sum();
    shard
        .edges
        .reserve_exact(program_edges + 2 * acts.len() + 2 + log_len + tx_entries);
    shard.op_map.reserve_exact(log_len + tx_entries);
    let result = (|| -> Result<(), (usize, RejectReason)> {
        section_program(&mut shard, work, acts).map_err(|e| (SEC_PROGRAM, e))?;
        section_boundary_roots(&mut shard, work, acts);
        section_boundary_response(&mut shard, ctx, work).map_err(|e| (SEC_BOUNDARY_RESPONSE, e))?;
        section_activation(&mut shard, ctx, work, acts).map_err(|e| (SEC_ACTIVATION, e))?;
        // The duplicate check of `CheckOpIsValid`, over this request's
        // node range: handler log first, then transaction logs, the
        // serial insertion order.
        let first = acts.first().map_or(0, |a| a.start);
        let span = acts.last().map_or(0, |a| a.end() + 1 - first);
        let mut logged = Logged {
            first,
            seen: vec![false; span as usize],
            near: 0,
        };
        section_handler(&mut shard, ctx, work, &mut logged).map_err(|e| (SEC_HANDLER, e))?;
        section_external(&mut shard, ctx, work, txs, &mut logged).map_err(|e| (SEC_EXTERNAL, e))?;
        Ok(())
    })();
    if let Err(e) = result {
        shard.err = Some(e);
    }
    shard
}

/// Which nodes of one request's range already hold an `OpMap` entry.
struct Logged {
    /// The range's first node id.
    first: u32,
    seen: Vec<bool>,
    /// Where the last logged operation's handler sits among the
    /// request's activations (the next lookup's hint).
    near: u32,
}

impl Logged {
    /// Marks `node`; `false` if it was marked already (or lies outside
    /// the request's range, which resolution never produces).
    fn insert(&mut self, node: u32) -> bool {
        let slot = node
            .checked_sub(self.first)
            .and_then(|i| self.seen.get_mut(i as usize));
        match slot {
            Some(seen) if !*seen => {
                *seen = true;
                true
            }
            _ => false,
        }
    }
}

/// Time precedence: the trusted trace is a chronological record of the
/// boundary events, so chain them in order. This subsumes the
/// `CreateTimePrecedenceGraph`/`SplitNodes` edges of Orochi (every
/// "response before request" pair is connected transitively).
fn add_time_precedence_edges(graph: &mut Graph, trace: &Trace) {
    let coords = graph.coords().clone();
    let mut prev: Option<u32> = None;
    for ev in trace.events() {
        let node = match ev {
            TraceEvent::Request { rid, .. } => coords.request_start(*rid),
            TraceEvent::Response { rid, .. } => coords.request_end(*rid),
        };
        // A balanced trace names only its own requests.
        let Some(node) = node else { continue };
        if let Some(p) = prev {
            graph.add_edge(p, node, EdgeKind::Time);
        }
        prev = Some(node);
    }
}

/// `AddProgramEdges` (Fig. 14 lines 33–44), for one request: each
/// activation's nodes are consecutive ids, start to end.
fn section_program(
    shard: &mut RidShard,
    work: &RidWork<'_>,
    acts: &[Activation],
) -> Result<(), RejectReason> {
    for act in acts {
        if work.boundary.is_none() {
            return Err(RejectReason::UnknownRequest { rid: work.rid });
        }
        for node in act.start..act.end() {
            shard
                .edges
                .push(Edge::new(node, node + 1, EdgeKind::Program));
        }
    }
    Ok(())
}

/// `AddBoundaryEdges` (Fig. 15), arrival half: request arrival precedes
/// every root handler's start. No errors.
fn section_boundary_roots(shard: &mut RidShard, work: &RidWork<'_>, acts: &[Activation]) {
    let Some((arrival, _)) = work.boundary else {
        return;
    };
    for act in acts {
        if act.hid.parent().is_none() {
            shard
                .edges
                .push(Edge::new(arrival, act.start, EdgeKind::Boundary));
        }
    }
}

/// `AddBoundaryEdges` (Fig. 15), response half: the alleged emitting
/// operation precedes response delivery, which precedes the rest of the
/// emitter. Serial iteration is trace order, which the calling thread's
/// error selection reproduces via the arrival node.
fn section_boundary_response(
    shard: &mut RidShard,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
) -> Result<(), RejectReason> {
    let Some((_, delivery)) = work.boundary else {
        return Ok(());
    };
    let rid = work.rid;
    let Some((hid_r, opnum_r)) = ctx.advice.response_emitted_by.get(&rid) else {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "missing",
        });
    };
    let Some((_, emitter)) = find_act(ctx, work, hid_r, 0) else {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "emitter not in opcounts",
        });
    };
    if *opnum_r > emitter.count {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "opnum out of range",
        });
    }
    // Position 0 is the emitter's start node and `count + 1` its end
    // node, so the emitting position and the one after it are
    // consecutive ids whatever `opnum_r` is.
    let at = emitter.start + *opnum_r;
    shard
        .edges
        .push(Edge::new(at, delivery, EdgeKind::Boundary));
    shard
        .edges
        .push(Edge::new(delivery, at + 1, EdgeKind::Boundary));
    Ok(())
}

/// The activation of `hid` within this shard's request, with its offset
/// into the request's activations. `near` is such an offset to try
/// first ([`Coords::find_in`]).
fn find_act<'c>(
    ctx: &ShardCtx<'c, '_>,
    work: &RidWork<'_>,
    hid: &HandlerId,
    near: u32,
) -> Option<(u32, &'c Activation)> {
    let i = ctx.coords.find_in(&work.acts, hid, near)?;
    Some((
        i - work.acts.start,
        ctx.coords.activations().get(i as usize)?,
    ))
}

/// Activation edges for every reported handler: the handler id encodes
/// its activator structurally (function, parent, activating opnum), so
/// the edge `(rid, parent, opnum) → (rid, hid, 0)` can be added for all
/// handlers uniformly — emits get their extra registration discipline
/// checks in [`section_handler`], and database-completion activations
/// are validated by re-execution itself.
fn section_activation(
    shard: &mut RidShard,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    acts: &[Activation],
) -> Result<(), RejectReason> {
    let rid = work.rid;
    for act in acts {
        if act.hid.parent().is_none() {
            continue;
        }
        // The coordinates resolved every parent when they were built.
        let activator = act
            .parent
            .and_then(|p| ctx.coords.activations().get(p as usize))
            .and_then(|p| p.op(act.hid.opnum()));
        let Some(activator) = activator else {
            return Err(RejectReason::BadActivationParent { rid });
        };
        shard
            .edges
            .push(Edge::new(activator, act.start, EdgeKind::Activation));
    }
    Ok(())
}

/// The range half of `CheckOpIsValid` (Fig. 16 lines 58–61), also the
/// whole check for *referenced* operations (dictating writes, which are
/// mapped by their own log): `(rid, hid, opnum)` must lie within a
/// reported handler. Returns its node id.
fn op_in_range(
    act: Option<&Activation>,
    rid: RequestId,
    hid: &HandlerId,
    opnum: u32,
) -> Result<u32, RejectReason> {
    let invalid = |why| RejectReason::InvalidLogOp {
        at: OpRef::new(rid, hid.clone(), opnum),
        why,
    };
    let act = act.ok_or_else(|| invalid("handler not in opcounts"))?;
    act.op(opnum).ok_or_else(|| invalid("opnum out of range"))
}

/// `CheckOpIsValid` for an operation of this shard's own request:
/// resolves it inside the request's activations and marks it logged.
/// The duplicate check runs against the shard's own range —
/// equivalent to a global check because every coordinate a request's
/// logs insert carries that request's id.
fn claim_op(
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    logged: &mut Logged,
    hid: &HandlerId,
    opnum: u32,
) -> Result<u32, RejectReason> {
    // Consecutive log entries name the same handler or its
    // continuation far more often than not.
    let found = find_act(ctx, work, hid, logged.near);
    if let Some((offset, _)) = found {
        logged.near = offset;
    }
    let node = op_in_range(found.map(|(_, act)| act), work.rid, hid, opnum)?;
    if !logged.insert(node) {
        return Err(RejectReason::InvalidLogOp {
            at: OpRef::new(work.rid, hid.clone(), opnum),
            why: "duplicate log entry",
        });
    }
    Ok(node)
}

/// A log position as an `OpMap` index. Logs are slices of decoded
/// advice, far below `u32::MAX` entries under any decode budget; a
/// longer one is refused rather than truncated.
fn log_index(i: usize) -> Result<u32, RejectReason> {
    u32::try_from(i).map_err(|_| RejectReason::MalformedAdvice {
        what: "log longer than 2^32 entries".into(),
    })
}

/// `AddHandlerRelatedEdges` (Fig. 16 lines 3–28), for one request.
fn section_handler(
    shard: &mut RidShard,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    logged: &mut Logged,
) -> Result<(), RejectReason> {
    let Some(log) = work.handler_log else {
        return Ok(());
    };
    let rid = work.rid;
    if work.boundary.is_none() {
        return Err(RejectReason::UnknownRequest { rid });
    }
    // Event names stay borrowed from the advice bytes: the registration
    // scan allocates nothing per entry.
    let mut registered: Vec<(&str, kem::FunctionId)> = Vec::new();
    let mut prev: Option<u32> = None;
    for (i, entry) in log.iter().enumerate() {
        let node = claim_op(ctx, work, logged, &entry.hid, entry.opnum)?;
        shard.op_map.push((
            node,
            OpMapEntry::HandlerLog {
                index: log_index(i)?,
            },
        ));
        if let Some(p) = prev {
            shard.edges.push(Edge::new(p, node, EdgeKind::HandlerLog));
        }
        prev = Some(node);
        match entry.op {
            HandlerOpView::Register { event, function } => {
                registered.push((event, function));
            }
            HandlerOpView::Unregister { event, function } => {
                registered.retain(|(e, f)| !(*e == event && *f == function));
            }
            HandlerOpView::Emit { event } => {
                // All functions registered for the event at this
                // point: global registrations first, then the
                // request's own, in registration order.
                let globals = ctx
                    .global_by_event
                    .get(event)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let own = registered
                    .iter()
                    .filter(|(e, _)| *e == event)
                    .map(|(_, f)| *f);
                let mut hids = Vec::with_capacity(globals.len());
                for f in globals.iter().copied().chain(own) {
                    let hid = HandlerId::child(&entry.hid, f, entry.opnum);
                    if find_act(ctx, work, &hid, logged.near).is_none() {
                        return Err(RejectReason::MissingActivatedHandler { rid });
                    }
                    hids.push(hid);
                }
                shard.activated.push((node, hids));
            }
            HandlerOpView::Check { event } => {
                // The count a check op observes: global
                // registrations plus this request's live ones for
                // the event, at this point in the handler log.
                let count = ctx.global_by_event.get(event).map_or(0, Vec::len)
                    + registered.iter().filter(|(e, _)| *e == event).count();
                shard.check_counts.push((node, count as i64));
            }
        }
    }
    Ok(())
}

/// `AddExternalStateEdges` (Fig. 16 lines 30–56), for one request's
/// transactions (ascending `KTxId`, i.e. ascending rank), recording the
/// committed set (`lastModification` is read off the history that
/// isolation verification builds).
fn section_external<'x>(
    shard: &mut RidShard,
    ctx: &ShardCtx<'_, 'x>,
    work: &RidWork<'x>,
    txs: &[(KTxId, Vec<TxEntryRef<'x>>)],
    logged: &mut Logged,
) -> Result<(), RejectReason> {
    for (rank, (tx, log)) in (work.txs.start..).zip(txs) {
        if work.boundary.is_none() {
            return Err(RejectReason::UnknownRequest { rid: tx.rid });
        }
        let malformed = |why| RejectReason::TxLogMalformed {
            tx: tx.clone(),
            why,
        };
        let Some(first) = log.first() else {
            return Err(malformed("empty log"));
        };
        if first.optype != TxOpType::Start || first.hid != tx.hid || first.opnum != tx.opnum {
            return Err(malformed("first entry is not the tx_start"));
        }
        let is_committed = log.last().is_some_and(|e| e.optype == TxOpType::Commit);
        if is_committed {
            shard.committed.push(rank);
        }

        let mut my_writes: BTreeMap<&str, u32> = BTreeMap::new();
        for (i, entry) in log.iter().enumerate() {
            if i > 0 && entry.optype == TxOpType::Start {
                return Err(malformed("tx_start after the first entry"));
            }
            if i + 1 < log.len() && matches!(entry.optype, TxOpType::Commit | TxOpType::Abort) {
                return Err(malformed("operations after commit/abort"));
            }
            let index = log_index(i)?;
            let node = claim_op(ctx, work, logged, &entry.hid, entry.opnum)?;
            shard
                .op_map
                .push((node, OpMapEntry::TxLog { tx: rank, index }));
            let at = || OpRef::new(tx.rid, entry.hid.clone(), entry.opnum);

            match entry.optype {
                TxOpType::Get => {
                    let Some(key) = entry.key else {
                        return Err(malformed("GET without key"));
                    };
                    let TxContentsRef::Get { from } = &entry.contents else {
                        return Err(malformed("GET with non-GET contents"));
                    };
                    if let Some(pos) = from {
                        let Some(opw) = ctx.advice.tx_entry(pos) else {
                            return Err(RejectReason::BadDictatingWrite { at: at() });
                        };
                        if opw.optype != TxOpType::Put || opw.key != Some(key) {
                            return Err(RejectReason::BadDictatingWrite { at: at() });
                        }
                        // The dictating write may be another request's.
                        let writer = op_in_range(
                            ctx.coords.find(pos.tx.rid, &opw.hid),
                            pos.tx.rid,
                            &opw.hid,
                            opw.opnum,
                        )?;
                        // Write-read edge: PUT → GET (§4.4; only WR, not
                        // WW/RW, for external state — see footnote 3).
                        shard
                            .edges
                            .push(Edge::new(writer, node, EdgeKind::ExternalWr));
                    }
                    // Transactions observe their own writes.
                    let reads_own =
                        |w_idx: u32| matches!(from, Some(p) if p.index == w_idx && p.tx == *tx);
                    let self_read_ok = match my_writes.get(key) {
                        Some(&w_idx) => reads_own(w_idx),
                        None => !matches!(from, Some(p) if p.tx == *tx),
                    };
                    if !self_read_ok {
                        return Err(RejectReason::SelfReadNotLastModification { at: at() });
                    }
                }
                TxOpType::Put => {
                    let Some(key) = entry.key else {
                        return Err(malformed("PUT without key"));
                    };
                    if !matches!(entry.contents, TxContentsRef::Put { .. }) {
                        return Err(malformed("PUT with non-PUT contents"));
                    }
                    my_writes.insert(key, index);
                }
                TxOpType::Start | TxOpType::Commit | TxOpType::Abort => {
                    if !matches!(entry.contents, TxContentsRef::None) {
                        return Err(malformed("control entry with contents"));
                    }
                }
            }
        }
    }
    Ok(())
}
