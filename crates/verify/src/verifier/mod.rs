//! The Karousos verifier: `Audit = Preprocess → ReExec → Postprocess`
//! (Fig. 14 lines 13–16).
//!
//! [`Auditor::audit`] consumes the trusted trace and the untrusted
//! advice — as the bytes the server sent; there is no other audit —
//! and either ACCEPTs (returning statistics) or REJECTs with a typed
//! [`RejectReason`]. Soundness rests on the combination of:
//!
//! * re-execution producing exactly the traced outputs,
//! * simulate-and-check on variable and `PUT` values,
//! * Adya-style isolation verification of the alleged store history,
//! * acyclicity of the execution graph `G` after the per-variable
//!   WR/WW/RW edges are embedded.

mod coords;
mod forensics;
mod graph;
mod isolation;
mod pool;
mod preprocess;
mod reexec;
mod reject;
mod var_index;
mod vars;

pub use coords::{Coords, GNode, HPos, NodeLists, NodeTable};
pub use forensics::{
    cycle_report, AuditDiagnostics, AuditFailure, CostAttribution, CycleEdgeReport, CycleReport,
    TopGroupCost,
};
pub use graph::{CycleEdge, CycleProbe, EdgeKind, Graph};
pub use isolation::{verify_isolation, IsolationStats};
pub use obs::PhaseTiming;
pub use preprocess::{preprocess_staged, DeferredEdges, OpMapEntry, PreStaged, Preprocessed};
#[doc(hidden)]
pub use reexec::inject_group_panic_for_tests;
pub use reexec::{ReExecutor, ReexecStats, ReexecTiming, ReplaySchedule};
pub use reject::{RejectReason, ResourceKind};
pub use var_index::VarIndex;
pub use vars::{Candidate, FeedCounters, VarStates};

use kem_lang::{init_handler_id, OpRef, Program, RequestId, Trace, VarId};
use obs::{CounterId, GaugeId, HistogramId, Layer, LayerClock, Obs};

use crate::advice_ref::AdviceRef;
use crate::config::Limits;

/// The audit (Fig. 14 `Audit`): how it runs, and the one call that runs
/// it. None of the fields can change the verdict — a parallel audit
/// produces bit-identical statistics and the same [`RejectReason`] as
/// `threads = 1`, and the handle only observes.
#[derive(Debug, Clone)]
pub struct Auditor {
    /// Threads for preprocess, group replay and graph assembly, the
    /// calling one included: `1` is fully sequential, `0` means one per
    /// available core.
    pub threads: usize,
    /// The order each group's active queue is drained in (Lemma-1
    /// experiments; deployments use FIFO).
    pub schedule: ReplaySchedule,
    /// Resource budgets (DESIGN.md §10). The fuel budget is counted
    /// deterministically, so like the other knobs it cannot make
    /// verdicts diverge across thread counts; the wall-clock deadline
    /// is the one machine-dependent exception and defaults far above
    /// any honest group.
    pub limits: Limits,
    /// Where spans and metrics go. A noop handle takes early-return
    /// branches everywhere; an enabled one also attaches cost
    /// attribution to a REJECT.
    pub obs: Obs,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor {
            threads: 1,
            schedule: ReplaySchedule::Fifo,
            limits: Limits::default(),
            obs: Obs::noop(),
        }
    }
}

impl Auditor {
    /// Audits the advice's wire bytes against the trusted trace. This
    /// is what a deployed verifier does — the advice arrives as bytes
    /// from the untrusted server, and decoding (including its cost) is
    /// part of verification.
    ///
    /// Returns statistics on ACCEPT. On REJECT the [`AuditFailure`]
    /// carries the typed [`RejectReason`] — malformed bytes are a
    /// rejection like any other — and its [`AuditDiagnostics`]: for a
    /// cyclic execution graph, a minimal cycle whose every edge names
    /// its [`EdgeKind`] and inducing operations and variable.
    pub fn audit(
        &self,
        program: &Program,
        trace: &Trace,
        bytes: &[u8],
        isolation: adya::IsolationLevel,
    ) -> Result<AuditReport, Box<AuditFailure>> {
        audit_bytes(self, program, trace, bytes, isolation, Mode::Grouped)
    }

    /// `OOOAudit` (Fig. 22): audits with *ungrouped*, out-of-order
    /// re-execution — the executor the paper's Completeness/Soundness
    /// proofs are stated over. Slower than [`Auditor::audit`] (no
    /// batching), but it ignores the control-flow tags entirely, and
    /// Lemma 3 says the two must agree on every honest input. Replay
    /// itself is serial; `threads` parallelizes the preprocess sections
    /// and the per-variable graph assembly.
    pub fn ooo_audit(
        &self,
        program: &Program,
        trace: &Trace,
        bytes: &[u8],
        isolation: adya::IsolationLevel,
    ) -> Result<AuditReport, Box<AuditFailure>> {
        audit_bytes(self, program, trace, bytes, isolation, Mode::Ungrouped)
    }

    /// The concrete thread count (`0` resolved to the core count).
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Statistics of a successful audit.
#[derive(Debug, Clone, Copy)]
pub struct AuditReport {
    /// Re-execution statistics (groups, dedup counters).
    pub reexec: ReexecStats,
    /// Nodes in the final execution graph `G`.
    pub graph_nodes: usize,
    /// Edges in the final execution graph `G`.
    pub graph_edges: usize,
    /// Wall clock per [`Layer`], teardown included.
    pub timing: PhaseTiming,
}

/// Runs the trusted initialization phase: installs every loggable
/// variable into the verifier's dictionaries, numbering loggable
/// variables 1.. in declaration order (matching the runtime's
/// `init_shared_state`). Public so harnesses that measure the ReExec
/// phase in isolation (e.g. the allocation-count bench) can reproduce
/// the audit's setup exactly.
pub fn init_vars(program: &Program, vars: &mut VarStates) {
    let init_hid = init_handler_id();
    let mut opnum = 0u32;
    for (i, decl) in program.vars.iter().enumerate() {
        if decl.loggable {
            opnum += 1;
            vars.on_initialize(
                VarId(i as u32),
                OpRef::new(RequestId::INIT, init_hid.clone(), opnum),
                decl.init.clone(),
            );
        }
    }
}

/// The counter a given edge kind feeds.
fn edge_counter(kind: EdgeKind) -> CounterId {
    match kind {
        EdgeKind::Time => CounterId::EdgesTime,
        EdgeKind::Program => CounterId::EdgesProgram,
        EdgeKind::Boundary => CounterId::EdgesBoundary,
        EdgeKind::Activation => CounterId::EdgesActivation,
        EdgeKind::HandlerLog => CounterId::EdgesHandlerLog,
        EdgeKind::ExternalWr => CounterId::EdgesExternalWr,
        EdgeKind::VarWr => CounterId::EdgesVarWr,
        EdgeKind::VarWw => CounterId::EdgesVarWw,
        EdgeKind::VarRw => CounterId::EdgesVarRw,
    }
}

/// Pre-replay volume budgets on decoded advice (DESIGN.md §10): the
/// total dictionary feed (every var-log entry becomes a dictionary
/// entry during replay) and a lower bound on the execution graph's node
/// count (each advice opcount implies that many operation nodes, plus a
/// begin/end pair per handler). Both are sums the verifier can compute
/// in one cheap walk *before* committing to preprocess allocations, so
/// flood advice rejects in O(advice) instead of O(allocated). The node
/// sum is exactly what preprocess sizes its coordinate tables by
/// (`coords.rs`), so this gate must run before `preprocess_staged` on
/// every audit path.
fn check_advice_volume(advice: &AdviceRef<'_>, limits: &Limits) -> Result<(), RejectReason> {
    let dict_entries: u64 = advice.var_logs.values().map(|l| l.len() as u64).sum();
    if dict_entries > limits.dict_max_entries {
        return Err(RejectReason::ResourceExhausted {
            resource: ResourceKind::DictEntries,
            group: None,
            spent: dict_entries,
            limit: limits.dict_max_entries,
        });
    }
    let mut implied_nodes: u64 = 0;
    for count in advice.opcounts.values() {
        implied_nodes = implied_nodes.saturating_add(*count as u64 + 2);
    }
    if implied_nodes > limits.graph_max_nodes {
        return Err(RejectReason::ResourceExhausted {
            resource: ResourceKind::GraphNodes,
            group: None,
            spent: implied_nodes,
            limit: limits.graph_max_nodes,
        });
    }
    Ok(())
}

/// Post-merge graph budgets: the final node/edge counts of `G` after
/// every edge source merged. The pre-replay estimate bounds the
/// advice-implied nodes; this is the authoritative check before the
/// cycle traversal commits to visiting them all.
fn check_graph_volume(nodes: usize, edges: usize, limits: &Limits) -> Result<(), RejectReason> {
    if nodes as u64 > limits.graph_max_nodes {
        return Err(RejectReason::ResourceExhausted {
            resource: ResourceKind::GraphNodes,
            group: None,
            spent: nodes as u64,
            limit: limits.graph_max_nodes,
        });
    }
    if edges as u64 > limits.graph_max_edges {
        return Err(RejectReason::ResourceExhausted {
            resource: ResourceKind::GraphEdges,
            group: None,
            spent: edges as u64,
            limit: limits.graph_max_edges,
        });
    }
    Ok(())
}

/// How the one root re-executes: the only thing [`Auditor::audit`] and
/// [`Auditor::ooo_audit`] (Lemma 3's two sides) do differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Re-execution batched by control-flow tag (Fig. 18), groups
    /// spread over the threads: the production audit.
    Grouped,
    /// `OOOExec` (Fig. 22): every request on its own, tags ignored,
    /// one queue on the calling thread.
    Ungrouped,
}

/// The one audit, from wire bytes to verdict: both of [`Auditor`]'s
/// methods are a call to this. It owns the one [`LayerClock`], the byte
/// and node budgets in front of the decoder, the `catch_unwind` backstop
/// and the one [`conclude`], so no audit reaches `preprocess_staged`
/// without all four (DESIGN.md §4).
///
/// The advice is attacker-controlled and a panic in the verifier would
/// be a denial-of-audit, so any residual panic is converted into
/// [`RejectReason::VerifierInternal`]. The audit path is written to be
/// panic-free by construction (every advice-driven lookup is a typed
/// rejection); the boundary is the backstop, and the fault-injection
/// harness treats crossing it as a verifier bug. A panic inside a pool
/// item is caught by the pool instead, as an error at that item's index
/// ([`pool::ordered`]); the backstop catches any other panic on the
/// calling thread.
fn audit_bytes(
    auditor: &Auditor,
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: adya::IsolationLevel,
    mode: Mode,
) -> Result<AuditReport, Box<AuditFailure>> {
    let (limits, obs) = (&auditor.limits, &auditor.obs);
    let mut clock = LayerClock::start(obs, Layer::Decode);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Byte budget first: the cheapest check, applied before a
        // single advice byte is parsed.
        if bytes.len() as u64 > limits.decode_max_bytes {
            let over = RejectReason::ResourceExhausted {
                resource: ResourceKind::DecodeBytes,
                group: None,
                spent: bytes.len() as u64,
                limit: limits.decode_max_bytes,
            };
            return Err(over.into());
        }
        // Zero-copy decode: the audit runs over a borrowed
        // [`AdviceRef`] built straight from the wire view, so the only
        // copies on the accept path are the values replay actually
        // retains — each distinct container node built once, from the
        // advice's value pool, and each distinct string a value names
        // once, by the decode. Handler events, store keys, and the
        // write order stay pointers into `bytes`. The node budget caps
        // total declared collection elements across all sections, and
        // what the tables and the pool declare apart from them.
        let (view, decode_stats) = crate::wire::decode_advice_view_bounded(
            bytes,
            limits.decode_max_nodes,
        )
        .map_err(|e| match e {
            crate::wire::BoundedDecodeError::NodesExhausted { offset: _, limit } => {
                RejectReason::ResourceExhausted {
                    resource: ResourceKind::DecodeNodes,
                    group: None,
                    // The budget trips on the first node past
                    // the cap; the true declared total is
                    // unknown (and unaffordable to learn).
                    spent: limit.saturating_add(1),
                    limit,
                }
            }
            crate::wire::BoundedDecodeError::Malformed(e) => RejectReason::MalformedAdvice {
                what: e.to_string(),
            },
        })?;
        clock.enter(
            Layer::AdviceRef,
            &[
                ("bytes", bytes.len() as u64),
                ("pool_nodes", decode_stats.pool_nodes),
                ("logical_nodes", decode_stats.logical_nodes),
                ("wire_nodes", decode_stats.wire_nodes),
            ],
        );
        let advice = AdviceRef::from_view(&view, &mut kem_lang::ValueInterner::new());
        let copied = decode_stats.bytes_copied;
        obs.count(CounterId::BytesDecoded, bytes.len() as u64);
        obs.count(CounterId::DecodeBytesCopied, copied);
        clock.enter(
            Layer::Preprocess,
            &[
                ("copied", copied),
                ("pool_refs", decode_stats.pool_refs),
                ("inline_containers", decode_stats.inline_containers),
            ],
        );
        audit_decoded(
            auditor, program, trace, &advice, isolation, &mut clock, mode,
        )
        // The view, the interner and the advice drop here, in the layer
        // the audit left the clock in: teardown on ACCEPT.
    }))
    .unwrap_or_else(|payload| {
        // The backstop fired (the fault-injection harness treats any
        // crossing of this boundary as a verifier bug): carry the
        // payload into the forensics.
        let what = format!("audit panicked: {}", pool::panic_message(&*payload));
        Err(RejectReason::VerifierInternal { what }.into())
    });
    conclude(clock, outcome)
}

/// Where every audit ends, whichever way it left the root — verdict,
/// budget, malformed advice, panic backstop. Owns what only the
/// outermost function can know: the layer a REJECT happened in (the one
/// the clock stopped in), the heartbeat's terminal state, the timing
/// with the drops that followed the verdict in it, and, on REJECT, what
/// the audit spent getting there (cost attribution from the ledger).
fn conclude(
    clock: LayerClock<'_>,
    outcome: Result<AuditReport, Box<AuditFailure>>,
) -> Result<AuditReport, Box<AuditFailure>> {
    let obs = clock.obs();
    match outcome {
        Ok(mut report) => {
            report.timing = clock.finish(Layer::Done);
            Ok(report)
        }
        Err(mut failure) => {
            failure.diagnostics.phase = clock.layer();
            clock.finish(Layer::Rejected);
            if obs.is_enabled() {
                failure.diagnostics.attribution =
                    CostAttribution::from_ledger(&obs.snapshot().ledger);
            }
            Err(failure)
        }
    }
}

/// The layers after the decode, preprocess to teardown. Each boundary
/// is one [`LayerClock::enter`]; a REJECT leaves through `?` with the
/// clock still in the layer that found it.
fn audit_decoded<'a>(
    auditor: &Auditor,
    program: &Program,
    trace: &Trace,
    advice: &'a AdviceRef<'a>,
    isolation: adya::IsolationLevel,
    clock: &mut LayerClock<'_>,
    mode: Mode,
) -> Result<AuditReport, Box<AuditFailure>> {
    let (limits, obs) = (&auditor.limits, clock.obs());
    let threads = auditor.effective_threads();

    // Volume budgets before preprocess commits to advice-proportional
    // allocations.
    check_advice_volume(advice, limits)?;

    // Preprocess (includes isolation-level verification): the
    // advice-driven sections run in ranges of requests; the edge
    // batches come back deferred so that their merge into `G` can
    // overlap group replay.
    let PreStaged {
        mut pre,
        mut deferred,
    } = preprocess_staged(program, trace, advice, isolation, threads)?;

    // Advice-volume metrics (guarded: the sums cost a walk over the
    // advice, which the disabled path must not pay).
    if obs.is_enabled() {
        let mut var_entries = 0u64;
        for log in advice.var_logs.values() {
            var_entries += log.len() as u64;
            obs.observe(HistogramId::VarLogLen, log.len() as u64);
        }
        obs.count(CounterId::RConcurrentOpsLogged, var_entries);
        obs.count(
            CounterId::HandlerOpsLogged,
            advice.handler_logs.values().map(|l| l.len() as u64).sum(),
        );
        obs.count(
            CounterId::TxOpsLogged,
            advice.tx_logs.values().map(|l| l.len() as u64).sum(),
        );
        obs.count(CounterId::NondetLogged, advice.nondet.len() as u64);
        obs.gauge(GaugeId::WorkerThreads, threads as u64);
    }

    // Run the initialization phase (trusted: it is part of the program;
    // Fig. 14 line 20), installing loggable variables.
    let mut vars = VarStates::new();
    init_vars(program, &mut vars);

    // ReExec. The calling thread merges the deferred preprocess edges
    // into `G` while replay runs (replay never reads the graph).
    // Grouped, each group is replayed whole and its unit streams into
    // the global state in ascending order as it lands; ungrouped, the
    // whole run is one unit, merged the same way.
    clock.enter(Layer::Replay, &[]);
    let mut graph = std::mem::take(&mut pre.graph);
    let executor = ReExecutor::new(program, trace, advice, &pre, &mut vars)
        .with_schedule(auditor.schedule)
        .with_limits(*limits)
        .with_obs(obs.clone());
    let merge_edges = {
        let (graph, deferred, obs) = (&mut graph, &mut deferred, obs.clone());
        move || {
            let espan = obs.span_start();
            let edges = deferred.edge_count() as u64;
            deferred.merge_into(graph);
            obs.record_span("edge-merge", 0, espan, &[("edges", edges)]);
        }
    };
    let (reexec, timing) = match mode {
        Mode::Grouped => executor.run_pipelined(threads, merge_edges),
        Mode::Ungrouped => executor.run_ungrouped(merge_edges),
    }?;
    clock.carve(Layer::StateMerge, timing.state_merge);

    obs.count(CounterId::GroupsFormed, reexec.groups as u64);
    obs.count(CounterId::UniformOps, reexec.uniform_ops);
    obs.count(CounterId::ExpandedOps, reexec.expanded_ops);
    let feeds = vars.feeds();
    obs.count(CounterId::DictFeeds, feeds.dict_feeds);
    obs.count(CounterId::LoggedReads, feeds.logged_reads);

    // Postprocess: embed internal-state edges, check acyclicity.
    clock.enter(Layer::EdgeEmbed, &[("groups", reexec.groups as u64)]);
    vars.add_internal_state_edges_sharded(&mut graph, threads)?;

    if obs.is_enabled() {
        let counts = graph.edge_kind_counts();
        for kind in EdgeKind::ALL {
            obs.count(edge_counter(kind), counts[kind as usize]);
        }
        obs.gauge(GaugeId::GraphNodes, graph.node_count() as u64);
        obs.gauge(GaugeId::GraphEdges, graph.edge_count() as u64);
        obs.gauge(
            GaugeId::FuelHeadroom,
            limits.replay_fuel.saturating_sub(reexec.max_group_fuel),
        );
    }

    // Final graph budgets before the traversal commits to visiting
    // every node (the declared ones plus two per traced request).
    let (graph_nodes, graph_edges) = (graph.node_count(), graph.edge_count());
    check_graph_volume(graph_nodes, graph_edges, limits)?;

    clock.enter(Layer::CycleCheck, &[("edges", graph_edges as u64)]);
    let probe = graph.probe_cycle();
    obs.count(CounterId::CycleCheckVisits, probe.visits);
    if probe.back_edge.is_some() {
        let mut failure: Box<AuditFailure> = RejectReason::CycleInG.into();
        failure.diagnostics.cycle = cycle_report(&graph);
        return Err(failure);
    }
    // Everything the audit built drops on the way out, from here.
    clock.enter(Layer::Teardown, &[("visits", probe.visits)]);
    Ok(AuditReport {
        reexec,
        graph_nodes,
        graph_edges,
        timing: PhaseTiming::default(),
    })
}
