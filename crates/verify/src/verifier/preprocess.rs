//! The verifier's `Preprocess` phase (Fig. 14 lines 18–27).
//!
//! Builds the execution graph `G` with time-precedence, boundary,
//! handler-log and external-state edges (program and activation edges
//! are `G`'s own, so their sections only check them); builds the
//! `OpMap` and `activatedHandlers` structures consumed by re-execution;
//! classifies committed transactions; and runs isolation verification
//! on the alleged transactional history.
//!
//! # Coordinates
//!
//! The first thing preprocess builds is the audit's [`Coords`]
//! (`coords.rs`): from then on an operation is a node id, a handler
//! activation is its rank in `advice.opcounts`, a handler path its rank
//! in the advice's handler-id table, and a transaction its rank in
//! `advice.tx_logs`. The structures handed to re-execution are tables
//! over those indices, the variable logs are indexed by them
//! (`var_index.rs`), and the graph's edges are id pairs.
//!
//! # Sharded execution
//!
//! Every section after the trace scan is *per-request decomposable*:
//! each advice map is keyed by (or contains) the request id, a
//! request's activations are one contiguous range of the coordinates,
//! and every coordinate a request's logs put into the `OpMap` lies in
//! that range, so no two requests can collide there; a run of requests
//! consecutive in id order owns one contiguous range of node ids.
//! [`preprocess_staged`] cuts the ascending request order into about
//! four such ranges per thread, run on the verifier's worker pool
//! (`pool.rs`). A range shard runs the six advice-driven sections for
//! its requests one by one, each in serial section order, into one edge
//! batch and its node range of the tables, and the calling thread joins
//! the shards deterministically —
//!
//! * **errors** by the lexicographic minimum of `(section, position)`,
//!   where position is the request's rank in the section's serial
//!   iteration order (ascending request id, except the
//!   boundary-response section which follows trace order), so the
//!   winning [`RejectReason`] is exactly the serial first error. One
//!   request's error does not stop the rest of its range, whose later
//!   requests may fail in an earlier section;
//! * **edges** as one batch per range, appended in range order: the
//!   serial order. Node ids come from the coordinates, not from the
//!   order edges arrive in, so the merge is a plain append;
//! * **tables** in place: a shard writes only its own node range, and
//!   the entries join in range order.
//!
//! The edge batches are returned as [`DeferredEdges`] rather than
//! merged eagerly, which lets the audit overlap the merge with group
//! replay; [`DeferredEdges::merge_into`] merges them on the spot.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use kem_lang::{Program, RequestId, Trace, TraceEvent, TxOpKind};

use crate::advice::OpAt;
use crate::advice_ref::{AdviceRef, LogMap};
use crate::verifier::coords::{Activation, Coords, NodeLists, NodeRows, NodeTable, RequestRun};
use crate::verifier::graph::{Edge, EdgeKind, Graph};
use crate::verifier::isolation::{verify_isolation, IsolationStats};
use crate::verifier::pool;
use crate::verifier::reject::RejectReason;
use crate::verifier::var_index::VarIndex;
use crate::wire::{HandlerLogEntryView, HandlerOpView, TxLogEntryView, TxOpContentsView};

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
    /// Emit node → the paths (ranks in the coordinates' handler-id
    /// table) of the handlers it allegedly activates, in registration
    /// order (global registrations first).
    pub activated: NodeLists<u32>,
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
    /// recorded there, ascending by node.
    pub nondet: Vec<(u32, u32)>,
}

/// Preprocess edge batches not yet merged into `G`: one per range of
/// requests, ascending. [`DeferredEdges::merge_into`] appends them;
/// deferring that lets the audit overlap it with group replay (the
/// re-executor reads `op_map`/`activated`/`check_counts`, never the
/// graph, so the merge is safe to run concurrently with replay).
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
/// deferred advice-driven edge batches.
#[derive(Debug)]
pub struct PreStaged {
    /// The preprocessed structures.
    pub pre: Preprocessed,
    /// Edge batches to merge into `pre.graph` (eagerly, or overlapped
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

/// Everything one request's sections read: its ranges of the sorted
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

/// What one range shard fills of the node tables: its node range.
type Rows<'t> = (
    NodeRows<'t, OpMapEntry>,
    NodeRows<'t, (u32, u32)>,
    NodeRows<'t, i64>,
);

/// One range of requests' output — its edge batch, its rows of the
/// tables, its requests' first error — and the scratch its sections
/// reuse from request to request.
struct RangeShard<'x, 't> {
    edges: Vec<Edge>,
    /// Also the duplicate check of `CheckOpIsValid`: an operation is
    /// logged once it has an entry.
    op_map: NodeRows<'t, OpMapEntry>,
    /// Emit node → its range of `paths`.
    activated: NodeRows<'t, (u32, u32)>,
    paths: Vec<u32>,
    check_counts: NodeRows<'t, i64>,
    /// Ranks of the allegedly committed transactions.
    committed: Vec<u32>,
    /// The serial-first error, keyed by `(section, position)`.
    err: Option<((usize, usize), RejectReason)>,
    /// A handler log's live registrations. Event names stay borrowed
    /// from the advice bytes: the scan allocates nothing per entry.
    registered: Vec<(&'x str, kem_lang::FunctionId)>,
    /// A transaction's last write to each key, by log index.
    my_writes: HashMap<&'x str, u32>,
}

impl RangeShard<'_, '_> {
    fn edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.edges.push(Edge::new(from, to, kind));
    }
}

/// What every shard reads besides its own requests.
struct ShardCtx<'c, 'x> {
    advice: &'x AdviceRef<'x>,
    coords: &'c Coords,
    /// Global registrations never change during a run; indexed by
    /// event once, shared read-only by every shard.
    global_by_event: HashMap<&'c str, Vec<kem_lang::FunctionId>>,
}

impl<'c, 'x> ShardCtx<'c, 'x> {
    /// The activations at the indices `acts`.
    fn acts(&self, acts: Range<u32>) -> &'c [Activation] {
        let range = acts.start as usize..acts.end as usize;
        self.coords.activations().get(range).unwrap_or(&[])
    }

    /// The transactions of the ranks `txs`.
    fn txs(&self, txs: Range<u32>) -> LogMap<'x, OpAt, TxLogEntryView<'x>> {
        self.advice
            .tx_logs
            .ranks(txs.start as usize..txs.end as usize)
    }
}

/// Runs `Preprocess`. `isolation` is the level the store is deployed at
/// (known to the principal). The advice-driven sections run over about
/// four ranges of requests per thread, on `threads` threads the calling
/// one included (`1` runs every range on it, spawning nothing), and the
/// edge merge is deferred (see the module docs for the determinism
/// argument).
pub fn preprocess_staged<'a>(
    program: &Program,
    trace: &Trace,
    advice: &'a AdviceRef<'a>,
    isolation: adya::IsolationLevel,
    threads: usize,
) -> Result<PreStaged, RejectReason> {
    if !trace.is_balanced() {
        return Err(RejectReason::UnbalancedTrace);
    }
    let trace_order = trace.request_ids();
    let coords = Arc::new(Coords::build(&trace_order, advice)?);

    // Time precedence stays on the calling thread: it is a single cheap
    // chronological chain over the trusted trace.
    let mut graph = Graph::new(coords.clone());
    add_time_precedence_edges(&mut graph, trace);

    let work = shard_work(advice, &coords);

    let mut global_by_event: HashMap<&str, Vec<kem_lang::FunctionId>> = HashMap::new();
    for (e, f) in &program.global_registrations {
        global_by_event
            .entry(e.as_str())
            .or_default()
            .push(kem_lang::FunctionId(*f));
    }
    let ctx = ShardCtx {
        advice,
        coords: &coords,
        global_by_event,
    };

    // Range `k` is `work[cut(k)..cut(k + 1)]`. It writes the tables from
    // its first activation's start node (range 0 from node 0) to the
    // next range's, handed to it through a lock it alone takes.
    let (nshards, nodes) = ((4 * threads.max(1)).min(work.len()), coords.node_count());
    let cut = |k: usize| k * work.len() / nshards;
    let first_node = |k: usize| match k {
        0 => 0,
        _ => work
            .get(cut(k))
            .and_then(|w| coords.activations().get(w.acts.start as usize))
            .map_or(nodes as u32, |act| act.start),
    };
    let cuts: Vec<u32> = (0..=nshards).map(first_node).collect();
    let (mut op_map, mut activated) = (NodeTable::new(nodes), NodeLists::new(nodes));
    let mut check_counts = NodeTable::new(nodes);
    let tables = op_map.split(&cuts).into_iter().zip(activated.split(&cuts));
    let rows: Vec<Mutex<Option<Rows>>> = (tables.zip(check_counts.split(&cuts)))
        .map(|((op, act), check)| Mutex::new(Some((op, act, check))))
        .collect();
    let run = |k: usize| match rows.get(k).and_then(|rows| rows.lock().ok()?.take()) {
        Some(rows) => Ok(run_range(&ctx, &work, cut(k)..cut(k + 1), rows)),
        None => Err(RejectReason::VerifierInternal {
            what: "a preprocess range ran twice".into(),
        }),
    };
    let shards = pool::collect(threads, nshards, &run)?;

    let best = shards
        .iter()
        .filter_map(|shard| shard.err.as_ref())
        .min_by_key(|(key, _)| *key);
    if let Some((_, reason)) = best {
        return Err(reason.clone());
    }

    let mut committed = vec![false; advice.tx_logs.len()];
    let mut batches = Vec::with_capacity(nshards);
    let (mut op_rows, mut activated_rows, mut check_rows) = (vec![], vec![], vec![]);
    for shard in shards {
        for tx in shard.committed {
            if let Some(c) = committed.get_mut(tx as usize) {
                *c = true;
            }
        }
        batches.push(shard.edges);
        op_rows.push(shard.op_map.into_entries());
        activated_rows.push((shard.activated.into_entries(), shard.paths));
        check_rows.push(shard.check_counts.into_entries());
    }
    drop(rows);
    op_map.join(&cuts, op_rows);
    activated.join(&cuts, activated_rows);
    check_counts.join(&cuts, check_rows);

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
/// `opcounts` does not cover is left out: nothing can ask for it. Node
/// ids ascend with the coordinates, so the table ascends with `nondet`.
fn nondet_by_node(advice: &AdviceRef<'_>, coords: &Coords) -> Vec<(u32, u32)> {
    let mut run = RequestRun::default();
    advice
        .nondet
        .keys()
        .zip(0u32..)
        .filter_map(|(op, position)| Some((run.op_node(coords, op)?, position)))
        .collect()
}

/// The shard universe — every request the advice mentions plus every
/// request the trace contains, ascending — each with its ranges of the
/// advice maps. All four lists are sorted by request id, so one cursor
/// per list merges them.
fn shard_work<'x>(advice: &'x AdviceRef<'x>, coords: &Coords) -> Vec<RidWork<'x>> {
    let acts = coords.activations();
    let (logs, txs) = (advice.handler_logs, advice.tx_logs);
    let traced = coords.traced();
    let (mut a, mut l, mut t, mut r) = (0usize, 0usize, 0usize, 0usize);
    let mut work = Vec::with_capacity(traced.len());
    loop {
        let heads = [
            acts.get(a).map(|act| act.rid),
            logs.key(l).copied(),
            txs.key(t).map(|tx| tx.rid),
            traced.get(r).map(|(rid, _)| *rid),
        ];
        let Some(rid) = heads.into_iter().flatten().min() else {
            return work;
        };
        let a0 = a;
        while acts.get(a).is_some_and(|act| act.rid == rid) {
            a += 1;
        }
        let handler_log = match logs.key(l) {
            Some(r) if *r == rid => {
                l += 1;
                logs.log(l - 1)
            }
            _ => None,
        };
        let t0 = t;
        while txs.key(t).is_some_and(|tx| tx.rid == rid) {
            t += 1;
        }
        let boundary = match traced.get(r) {
            Some((traced, rank)) if *traced == rid => {
                r += 1;
                Some((rank * 2, rank * 2 + 1))
            }
            _ => None,
        };
        work.push(RidWork {
            rid,
            boundary,
            acts: a0 as u32..a as u32,
            handler_log,
            txs: t0 as u32..t as u32,
        });
    }
}

/// Runs every advice-driven section for the requests `work[ranks]` into
/// their node range of the tables: request by request, each in serial
/// section order up to its first error, which is its
/// `(section, position)` minimum because its position in each section
/// is fixed. The shard keeps the minimum over its requests.
fn run_range<'x, 't>(
    ctx: &ShardCtx<'_, 'x>,
    work: &[RidWork<'x>],
    ranks: Range<usize>,
    (mut op_map, activated, check_counts): Rows<'t>,
) -> RangeShard<'x, 't> {
    let range = work.get(ranks.clone()).unwrap_or(&[]);
    // Pre-size the hot outputs: a request adds a boundary edge into its
    // request handler and two response edges, and every log entry adds
    // at most one edge and one `OpMap` entry.
    let logged = |w: &RidWork<'_>| {
        let txs = ctx.txs(w.txs.clone()).values().map(<[_]>::len);
        w.handler_log.map_or(0, <[_]>::len) + txs.sum::<usize>()
    };
    let entries: usize = range.iter().map(logged).sum();
    op_map.reserve(entries);
    let mut shard = RangeShard {
        edges: Vec::with_capacity(3 * range.len() + entries),
        op_map,
        activated,
        paths: Vec::new(),
        check_counts,
        committed: Vec::new(),
        err: None,
        registered: Vec::new(),
        my_writes: HashMap::new(),
    };
    for (rank, work) in ranks.zip(range) {
        let acts = ctx.acts(work.acts.clone());
        let sh = &mut shard;
        let run = (|| -> Result<(), (usize, RejectReason)> {
            // `AddProgramEdges` (Fig. 14 lines 33–44): program order is
            // `G`'s own, but only a traced request has handlers.
            if work.boundary.is_none() && !acts.is_empty() {
                let rid = work.rid;
                return Err((SEC_PROGRAM, RejectReason::UnknownRequest { rid }));
            }
            section_boundary_roots(sh, ctx, work, acts);
            section_boundary_response(sh, ctx, work).map_err(|e| (SEC_BOUNDARY_RESPONSE, e))?;
            section_activation(ctx, work, acts).map_err(|e| (SEC_ACTIVATION, e))?;
            // Handler log first, then transaction logs: the serial
            // insertion order of the duplicate check.
            section_handler(sh, ctx, work).map_err(|e| (SEC_HANDLER, e))?;
            section_external(sh, ctx, work).map_err(|e| (SEC_EXTERNAL, e))
        })();
        let Err((section, reason)) = run else {
            continue;
        };
        let position = match work.boundary {
            Some((arrival, _)) if section == SEC_BOUNDARY_RESPONSE => arrival as usize,
            _ => rank,
        };
        let key = (section, position);
        if shard.err.as_ref().is_none_or(|(best, _)| key < *best) {
            shard.err = Some((key, reason));
        }
    }
    shard
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

/// `AddBoundaryEdges` (Fig. 15), arrival half: request arrival precedes
/// every root handler's start. No errors.
fn section_boundary_roots(
    shard: &mut RangeShard<'_, '_>,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    acts: &[Activation],
) {
    let Some((arrival, _)) = work.boundary else {
        return;
    };
    for act in acts {
        if ctx.coords.paths().parent(act.path).is_none() {
            shard.edge(arrival, act.start, EdgeKind::Boundary);
        }
    }
}

/// `AddBoundaryEdges` (Fig. 15), response half: the alleged emitting
/// operation precedes response delivery, which precedes the rest of the
/// emitter. Serial iteration is trace order, which the calling thread's
/// error selection reproduces via the arrival node.
fn section_boundary_response(
    shard: &mut RangeShard<'_, '_>,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
) -> Result<(), RejectReason> {
    let Some((_, delivery)) = work.boundary else {
        return Ok(());
    };
    let bad = |why| RejectReason::BadResponseEmitter { rid: work.rid, why };
    let Some(&(path_r, opnum_r)) = ctx.advice.response_emitted_by.get(&work.rid) else {
        return Err(bad("missing"));
    };
    let Some(emitter) = ctx.coords.find_in(&work.acts, path_r) else {
        return Err(bad("emitter not in opcounts"));
    };
    if opnum_r > emitter.count {
        return Err(bad("opnum out of range"));
    }
    // Position 0 is the emitter's start node and `count + 1` its end
    // node, so the emitting position and the one after it are
    // consecutive ids whatever `opnum_r` is.
    let at = emitter.start + opnum_r;
    shard.edge(at, delivery, EdgeKind::Boundary);
    shard.edge(delivery, at + 1, EdgeKind::Boundary);
    Ok(())
}

/// Activation edges for every reported handler: the handler id encodes
/// its activator structurally (function, parent, activating opnum), so
/// the edge `(rid, parent, opnum) → (rid, hid, 0)` is `G`'s own for all
/// handlers uniformly, once every handler with a parent is found to have
/// that activator. Emits get their extra registration discipline checks
/// in [`section_handler`], and database-completion activations are
/// validated by re-execution itself.
fn section_activation(
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    acts: &[Activation],
) -> Result<(), RejectReason> {
    let coords = ctx.coords;
    for act in acts {
        let child = coords.hid(act).and_then(|hid| hid.parent()).is_some();
        if child && coords.activator(act).is_none() {
            return Err(RejectReason::BadActivationParent { rid: work.rid });
        }
    }
    Ok(())
}

/// The range half of `CheckOpIsValid` (Fig. 16 lines 58–61), also the
/// whole check for *referenced* operations (dictating writes, which are
/// mapped by their own log): `at` must lie within a reported handler,
/// `act`. Returns its node id.
fn op_in_range(
    ctx: &ShardCtx<'_, '_>,
    act: Option<&Activation>,
    at: OpAt,
) -> Result<u32, RejectReason> {
    let invalid = |why| RejectReason::InvalidLogOp {
        at: ctx.coords.paths().op_ref(&at),
        why,
    };
    let act = act.ok_or_else(|| invalid("handler not in opcounts"))?;
    act.op(at.opnum)
        .ok_or_else(|| invalid("opnum out of range"))
}

/// `CheckOpIsValid` for an operation of `work`'s request: resolves it
/// inside the request's activations and gives it its `OpMap` entry,
/// which a duplicate finds taken. The duplicate check runs against the
/// shard's own node range — equivalent to a global check because every
/// coordinate a request's logs insert carries that request's id.
fn claim_op(
    shard: &mut RangeShard<'_, '_>,
    ctx: &ShardCtx<'_, '_>,
    work: &RidWork<'_>,
    path: u32,
    opnum: u32,
    entry: OpMapEntry,
) -> Result<u32, RejectReason> {
    let at = OpAt::new(work.rid, path, opnum);
    let node = op_in_range(ctx, ctx.coords.find_in(&work.acts, path), at)?;
    if !shard.op_map.insert(node, entry) {
        return Err(RejectReason::InvalidLogOp {
            at: ctx.coords.paths().op_ref(&at),
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
fn section_handler<'x>(
    shard: &mut RangeShard<'x, '_>,
    ctx: &ShardCtx<'_, 'x>,
    work: &RidWork<'x>,
) -> Result<(), RejectReason> {
    let Some(log) = work.handler_log else {
        return Ok(());
    };
    let rid = work.rid;
    if work.boundary.is_none() {
        return Err(RejectReason::UnknownRequest { rid });
    }
    shard.registered.clear();
    let mut prev: Option<u32> = None;
    for (i, entry) in log.iter().enumerate() {
        let at = OpMapEntry::HandlerLog {
            index: log_index(i)?,
        };
        let node = claim_op(shard, ctx, work, entry.path, entry.opnum, at)?;
        if let Some(p) = prev {
            shard.edge(p, node, EdgeKind::HandlerLog);
        }
        prev = Some(node);
        match entry.op {
            HandlerOpView::Register { event, function } => {
                shard.registered.push((event, function));
            }
            HandlerOpView::Unregister { event, function } => {
                shard
                    .registered
                    .retain(|(e, f)| !(*e == event && *f == function));
            }
            HandlerOpView::Emit { event } => {
                // All functions registered for the event at this
                // point: global registrations first, then the
                // request's own, in registration order. Each is found
                // as a child of the emitter, which `claim_op` just found.
                let globals = ctx.global_by_event.get(event).map(Vec::as_slice);
                let own = shard.registered.iter().filter(|(e, _)| *e == event);
                let lo = shard.paths.len() as u32;
                for f in globals.unwrap_or(&[]).iter().chain(own.map(|(_, f)| f)) {
                    let found = ctx.coords.child_in(&work.acts, entry.path, *f, entry.opnum);
                    let Some(act) = found else {
                        return Err(RejectReason::MissingActivatedHandler { rid });
                    };
                    shard.paths.push(act.path);
                }
                shard.activated.insert(node, (lo, shard.paths.len() as u32));
            }
            HandlerOpView::Check { event } => {
                // The count a check op observes: global
                // registrations plus this request's live ones for
                // the event, at this point in the handler log.
                let count = ctx.global_by_event.get(event).map_or(0, Vec::len)
                    + shard.registered.iter().filter(|(e, _)| *e == event).count();
                shard.check_counts.insert(node, count as i64);
            }
        }
    }
    Ok(())
}

/// `AddExternalStateEdges` (Fig. 16 lines 30–56), for one request's
/// transactions (ascending `OpAt`, i.e. ascending rank), recording the
/// committed set (`lastModification` is read off the history that
/// isolation verification builds).
fn section_external<'x>(
    shard: &mut RangeShard<'x, '_>,
    ctx: &ShardCtx<'_, 'x>,
    work: &RidWork<'x>,
) -> Result<(), RejectReason> {
    for (rank, (tx, log)) in (work.txs.start..).zip(ctx.txs(work.txs.clone()).iter()) {
        if work.boundary.is_none() {
            return Err(RejectReason::UnknownRequest { rid: tx.rid });
        }
        let paths = ctx.coords.paths();
        let malformed = |why| RejectReason::TxLogMalformed {
            tx: paths.tx_id(tx),
            why,
        };
        let Some(first) = log.first() else {
            return Err(malformed("empty log"));
        };
        if first.optype != TxOpKind::Start || first.path != tx.path || first.opnum != tx.opnum {
            return Err(malformed("first entry is not the tx_start"));
        }
        let is_committed = log.last().is_some_and(|e| e.optype == TxOpKind::Commit);
        if is_committed {
            shard.committed.push(rank);
        }

        shard.my_writes.clear();
        for (i, entry) in log.iter().enumerate() {
            if i > 0 && entry.optype == TxOpKind::Start {
                return Err(malformed("tx_start after the first entry"));
            }
            if i + 1 < log.len() && matches!(entry.optype, TxOpKind::Commit | TxOpKind::Abort) {
                return Err(malformed("operations after commit/abort"));
            }
            let index = log_index(i)?;
            let entry_at = OpMapEntry::TxLog { tx: rank, index };
            let node = claim_op(shard, ctx, work, entry.path, entry.opnum, entry_at)?;
            let at = || paths.op_ref(&OpAt::new(tx.rid, entry.path, entry.opnum));

            match entry.optype {
                TxOpKind::Get => {
                    let Some(key) = entry.key else {
                        return Err(malformed("GET without key"));
                    };
                    let TxOpContentsView::Get { from } = &entry.contents else {
                        return Err(malformed("GET with non-GET contents"));
                    };
                    if let Some(pos @ (wtx, _)) = from {
                        let Some(opw) = ctx.advice.tx_entry(pos) else {
                            return Err(RejectReason::BadDictatingWrite { at: at() });
                        };
                        if opw.optype != TxOpKind::Put || opw.key != Some(key) {
                            return Err(RejectReason::BadDictatingWrite { at: at() });
                        }
                        // The dictating write may be another request's.
                        let acts = ctx.coords.activations_of(wtx.rid);
                        let found = ctx.coords.find_in(&acts, opw.path);
                        let writer =
                            op_in_range(ctx, found, OpAt::new(wtx.rid, opw.path, opw.opnum))?;
                        // Write-read edge: PUT → GET (§4.4; only WR, not
                        // WW/RW, for external state — see footnote 3).
                        shard.edge(writer, node, EdgeKind::ExternalWr);
                    }
                    // Transactions observe their own writes.
                    let own = from.filter(|(from_tx, _)| from_tx == tx).map(|(_, i)| i);
                    let self_read_ok = match shard.my_writes.get(key) {
                        Some(&w_idx) => own == Some(w_idx),
                        None => own.is_none(),
                    };
                    if !self_read_ok {
                        return Err(RejectReason::SelfReadNotLastModification { at: at() });
                    }
                }
                TxOpKind::Put => {
                    let Some(key) = entry.key else {
                        return Err(malformed("PUT without key"));
                    };
                    if !matches!(entry.contents, TxOpContentsView::Put { .. }) {
                        return Err(malformed("PUT with non-PUT contents"));
                    }
                    shard.my_writes.insert(key, index);
                }
                TxOpKind::Start | TxOpKind::Commit | TxOpKind::Abort => {
                    if !matches!(entry.contents, TxOpContentsView::None) {
                        return Err(malformed("control entry with contents"));
                    }
                }
            }
        }
    }
    Ok(())
}
