//! Grouped re-execution with SIMD-on-demand (Figs. 18–19).
//!
//! The verifier re-executes each control-flow group as a batch: one
//! interpreter pass over the group's shared statement sequence, with
//! [`MultiValue`] locals. Uniform values are computed once for the
//! whole group; divergence (a branch whose truthiness differs across
//! the group, mismatched emit activations, …) rejects the audit.
//!
//! Within a group, handlers are drawn from an `active` queue seeded
//! with the request handlers; emits and database completions enqueue
//! children. Re-execution thus respects the activation order `A` and
//! per-handler program order but nothing else — which is exactly the
//! freedom the R-order formalizes.
//!
//! The pass is the server's own dispatch loop (`kem_lang::vm`) over the
//! program's compiled bytecode (`kem_lang::bytecode`, built once at program
//! build time), run with multivalue operands on a `Replay` machine,
//! which holds the effectful ops and their advice checks: locals are
//! frame **slot indices** over a `Vec`, shared-variable and function
//! mentions carry their ids, and event names are interned symbols that
//! resolve to `&str` borrows. Together with [`MultiValue::collect`]
//! (which stays collapsed until values actually diverge) this makes
//! replaying a uniform-group operation allocation-free: the per-request
//! loop touches only pre-sized tables and `Arc`-backed values.
//!
//! Operations are named by the audit's coordinates (`coords.rs`). Each
//! group member's activation of a handler is looked up once, when the
//! handler is enqueued; from then on an operation is `start + opnum`,
//! the `OpMap` and the listener counts are array reads, a variable
//! access hands its node to the variable state (`vars.rs`), a
//! transaction is its rank in `advice.tx_logs`, and what a group
//! covered is a list of indices folded into whole-audit tables at the
//! merge.
//!
//! [`ReExecutor`] holds only what the audit hands replay; a private
//! `Worker` owns one replay unit — its variable state, tables, meter
//! and VM buffers — and `Worker::finish` turns it into the unit the merge
//! applies. Both paths build units that way: a group each in
//! [`ReExecutor::run_pipelined`], and the whole run as one unit in
//! [`ReExecutor::run_ungrouped`] (`OOOAudit`, every request a singleton
//! on one queue). Every unit records its shared-variable accesses
//! (`GroupVars`); none writes the global state while it replays.
//!
//! A unit that fails — a check, a budget, or a panic the pool caught —
//! is merged like any other: its recorded accesses first, then its
//! error, which ends the audit (Figs. 14 and 18 return REJECT at the
//! first failed check). No group past it is claimed or merged.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use kem_lang::vm::{Machine, Vm, VmError, Write};
use kem_lang::{
    tx_payload_keys, Exchange, FunctionId, HandlerId, NondetKind, OpRef, Program, RequestId, Sym,
    Trace, TxOpKind, Value, VarId,
};

use obs::{CounterId, HistogramId, Obs, ObsShard};

use crate::advice::OpAt;
use crate::advice_ref::AdviceRef;
use crate::config::Limits;
use crate::multivalue::MultiValue;
use crate::verifier::coords::Coords;
use crate::verifier::pool;
use crate::verifier::preprocess::{OpMapEntry, Preprocessed};
use crate::verifier::reject::{RejectReason, ResourceKind};
use crate::verifier::var_index::VarLog;
use crate::verifier::vars::{Candidate, GroupAccesses, GroupVars, VarStates, Written};
use crate::wire::{HandlerLogEntryView, HandlerOpView, TxLogEntryView, TxOpContentsView};

/// Fuel units between wall-clock polls of the group deadline: frequent
/// enough that an over-deadline group is caught within microseconds of
/// real work, rare enough that `Instant::now` stays off the hot path.
const DEADLINE_POLL_INTERVAL: u64 = 4096;

/// Group index the next replay worker should panic in (test-only,
/// armed by [`inject_group_panic_for_tests`]); `-1` means disarmed.
static INJECT_PANIC: AtomicI64 = AtomicI64::new(-1);

/// Arms a one-shot injected panic in the worker that replays group `g`
/// (`-1` disarms). Exercises the pool's panic catch from integration
/// tests: the panic must become the audit's
/// [`RejectReason::VerifierInternal`] verdict at group `g` without
/// deadlocking the merge or killing the process.
#[doc(hidden)]
pub fn inject_group_panic_for_tests(g: i64) {
    INJECT_PANIC.store(g, Ordering::SeqCst);
}

/// The order in which a group's `active` queue is drained.
///
/// Appendix C's Lemma 1 ("equivalence of well-formed op schedules")
/// states that any replay order respecting activation order and
/// program order produces the same audit outcome; this enum lets tests
/// drive the re-executor with different orders and check exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplaySchedule {
    /// Breadth-first: oldest activation first (the default).
    #[default]
    Fifo,
    /// Depth-first: newest activation first.
    Lifo,
    /// Seeded random draws from the queue.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Re-execution statistics, reported in the audit report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReexecStats {
    /// Number of re-execution groups.
    pub groups: usize,
    /// Handler bodies interpreted (once per group — the dedup win).
    pub handlers_executed: u64,
    /// Handler activations covered (summed over group members).
    pub activations_covered: u64,
    /// Operations whose operands stayed collapsed (computed once).
    pub uniform_ops: u64,
    /// Operations that expanded to per-request evaluation.
    pub expanded_ops: u64,
    /// Replay fuel spent (one unit per statement executed and per
    /// expression node evaluated). Counted inside the single-threaded
    /// per-group interpreter, so the total is bit-identical at every
    /// thread count.
    pub fuel_spent: u64,
    /// The hungriest single group's fuel spend — the number the
    /// `fuel_headroom` gauge is measured against.
    pub max_group_fuel: u64,
}

impl ReexecStats {
    /// Accumulates another group's counters (the `groups` field is set
    /// once for the whole run, not summed).
    fn absorb(&mut self, other: &ReexecStats) {
        self.handlers_executed += other.handlers_executed;
        self.activations_covered += other.activations_covered;
        self.uniform_ops += other.uniform_ops;
        self.expanded_ops += other.expanded_ops;
        self.fuel_spent += other.fuel_spent;
        self.max_group_fuel = self.max_group_fuel.max(other.max_group_fuel);
    }
}

/// Wall-clock breakdown of [`ReExecutor::run_pipelined`], defined the
/// same way at every thread count: the two fields sum to the call's
/// wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReexecTiming {
    /// Group replay: the call's wall clock net of `state_merge` — the
    /// overlapped side job, the groups the calling thread interprets
    /// and its waits for the ones spawned workers do.
    pub group_replay: Duration,
    /// State merge: the calling thread's time applying each group's
    /// resolved variable accesses to the global state and
    /// running the whole-audit final checks. Never its waits.
    pub state_merge: Duration,
}

impl ReexecTiming {
    /// A section that started at `start`: whatever the calling thread
    /// did not spend merging — the side job, the units it replayed and
    /// its waits for the rest — is group replay.
    fn split(start: Instant, state_merge: Duration) -> Self {
        ReexecTiming {
            group_replay: start.elapsed().saturating_sub(state_merge),
            state_merge,
        }
    }
}

/// What one replay unit produced, before the merge phase.
struct GroupRun {
    /// The unit's shared-variable accesses.
    accesses: GroupAccesses,
    /// The unit's own error, if replay failed. Ordered *after* the
    /// unit's recorded accesses during the merge: every error a worker
    /// can detect locally, the sequential audit detects at the same
    /// point, so a cross-group error in an earlier event still wins.
    error: Option<RejectReason>,
    /// Activation indices the unit executed, in execution order.
    executed: Vec<u32>,
    /// `OpMap` nodes the unit's operations consumed.
    consumed: Vec<u32>,
    /// Responses the unit produced, in production order.
    outputs: Vec<(RequestId, Value)>,
    stats: ReexecStats,
    /// The worker's telemetry shard (disabled — and heap-free — unless
    /// the audit was handed an enabled [`Obs`]).
    obs: ObsShard,
}

/// The re-executor: what the audit hands replay. Each replay unit — a
/// control-flow group, or for the ungrouped replay every traced request
/// at once — is replayed by a worker of its own, and the units are
/// merged into `global` in order.
pub struct ReExecutor<'a> {
    program: &'a Program,
    trace: &'a Trace,
    advice: &'a AdviceRef<'a>,
    pre: &'a Preprocessed,
    /// The whole-audit variable state the units are merged into.
    global: &'a mut VarStates,
    schedule: ReplaySchedule,
    /// Resource budgets; each unit's meter is armed from these
    /// (installed via [`ReExecutor::with_limits`], unlimited by
    /// default).
    limits: Limits,
    /// Telemetry handle; [`Obs::noop`] (zero-cost) unless installed
    /// via [`ReExecutor::with_obs`].
    obs: Obs,
}

/// A replay unit's fuel/deadline meter (DESIGN.md §10), armed when its
/// worker is built: fuel `spent` against `limit` (`limits.replay_fuel`,
/// scaled), the wall clock polled at `next_poll` against `deadline`
/// (`deadline_ms` long; forensics), and the width cap. `group` is
/// `None` for the ungrouped replay.
struct Meter {
    spent: u64,
    limit: u64,
    max_group_width: u64,
    deadline: Option<Instant>,
    deadline_ms: u64,
    next_poll: u64,
    group: Option<u64>,
}

/// One replay unit's worker: the state a group's replay — or the
/// ungrouped replay's, over every request — owns, consumed by
/// [`Worker::finish`] into the unit the merge applies.
struct Worker<'a> {
    program: &'a Program,
    advice: &'a AdviceRef<'a>,
    pre: &'a Preprocessed,
    schedule: ReplaySchedule,
    /// The unit's variable state: resolves its accesses and records
    /// them for the merge.
    vars: GroupVars,
    rng: rand::rngs::SmallRng,
    /// Per-request copies of non-loggable shared variables (assumed
    /// R-ordered, §5 — effectively request-local or init-constant): by
    /// variable, then by the request's [`Group::nonlog_slot`]. A
    /// variable's row appears with its first write and is as long as
    /// the members this worker replays.
    nonlog: Vec<Vec<Option<Value>>>,
    /// Transaction-token table: token integer → transaction and how
    /// far into its log re-execution has got.
    tx_table: Vec<TxToken>,
    /// Activation indices executed so far. Like `consumed` and
    /// `outputs`, a list sized by what this worker touched; the
    /// whole-audit tables are [`Coverage`]'s.
    executed: Vec<u32>,
    /// Every OpMap node a re-executed operation consumed; at the end
    /// of re-execution these must cover the whole OpMap (§4.4: "all
    /// operations in the transaction logs are produced during
    /// re-execution" — and likewise for handler logs).
    consumed: Vec<u32>,
    outputs: Vec<(RequestId, Value)>,
    stats: ReexecStats,
    meter: Meter,
    /// The dispatch loop's scratch and its op counters: ops dispatched
    /// (fed to [`CounterId::BytecodeOps`] once per group, in merge
    /// order) and, of those, the ops and the fuel of windows that ran
    /// fused — how much of a replay is collapsed integer arithmetic
    /// (ledger columns beside `bytecode_ops`).
    vm: Vm<MultiValue>,
    /// Per-member activations of the running handler, pooled like the
    /// loop's scratch: handlers never nest.
    vm_slots: Vec<Option<Slot>>,
    /// The per-member activations of every handler enqueued so far,
    /// back to back; a [`Pending`] names its run. Grows with what this
    /// worker replays and is never searched.
    pending_slots: Vec<Option<Slot>>,
}

/// One live transaction token: the transaction it names, by rank in
/// `advice.tx_logs`, and the `txnum` of its latest re-executed
/// operation.
#[derive(Clone, Copy)]
struct TxToken {
    tx: u32,
    txnum: u32,
}

/// Where one group member's activation of the running handler sits in
/// the coordinates: its activation index, and operation `k` is node
/// `start + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    act: u32,
    start: u32,
    count: u32,
}

impl Slot {
    /// The slot of activation index `act`.
    fn of(coords: &Coords, act: u32) -> Option<Slot> {
        let activation = coords.activations().get(act as usize)?;
        Some(Slot {
            act,
            start: activation.start,
            count: activation.count,
        })
    }
}

/// A handler activation waiting in a group's queue.
struct Pending {
    /// The handler's path, by rank in the coordinates' handler-id table.
    path: u32,
    payload: MultiValue,
    /// Each member's activation of `path`, in group order, as a run of
    /// [`Worker::pending_slots`]: resolved when the handler was
    /// enqueued — by whoever activated it, which is the one place a
    /// member's `(rid, hid)` is looked up. `None` (the member's advice
    /// reports no such activation) fails the handler's first bump or
    /// its exit check, exactly as a per-bump lookup would.
    slots: Range<usize>,
}

/// A group's queue of activated handlers.
type Queue = VecDeque<Pending>;

/// Per-handler frame: each group member's activation (resolved when
/// the handler was enqueued; every operation is arithmetic on it) and
/// the operation count so far.
struct Frame {
    /// The handler's path rank in the coordinates' handler-id table.
    path: u32,
    idx: u32,
    /// The activation `(rid, hid)` per group member, in group order
    /// (see [`Pending::slots`]).
    slots: Vec<Option<Slot>>,
}

impl Frame {
    /// Node id of member `i`'s current operation. Callers run after
    /// [`Replay::bump`] accepted `idx` for every member, so the
    /// error is a verifier bug, not bad advice.
    fn node(&self, i: usize) -> Result<u32, RejectReason> {
        self.at(i).map(|(node, _)| node)
    }

    /// [`Frame::node`], with the index of the activation that owns it.
    fn at(&self, i: usize) -> Result<(u32, u32), RejectReason> {
        match self.slots.get(i).copied().flatten() {
            Some(slot) if self.idx <= slot.count => Ok((slot.start + self.idx, slot.act)),
            _ => Err(RejectReason::VerifierInternal {
                what: "operation outside its activation".into(),
            }),
        }
    }
}

/// One group's context: its requests, in trace order, and what each
/// owns in the sorted advice — found once per group, so per-operation
/// work never searches by request id.
struct Group<'a> {
    rids: Vec<RequestId>,
    /// Each member's rank in the trace's arrival order.
    ranks: Vec<Option<u32>>,
    /// Each member's activations, as a range of the coordinates.
    slices: Vec<Range<u32>>,
    /// Each member's handler log (empty when the advice has none).
    handler_logs: Vec<&'a [HandlerLogEntryView<'a>]>,
    /// Where member 0's copies of the non-loggable variables sit in the
    /// worker's table; member `i`'s sit `i` further. `0` when the
    /// worker replays this group only.
    nonlog_slot: usize,
}

impl<'a> Group<'a> {
    fn new(rids: Vec<RequestId>, advice: &'a AdviceRef<'a>, coords: &Coords) -> Self {
        let ranks = rids.iter().map(|r| coords.trace_rank(*r)).collect();
        let slices = rids.iter().map(|r| coords.activations_of(*r)).collect();
        let handler_logs = rids
            .iter()
            .map(|r| advice.handler_logs.get(r).map_or(&[][..], Vec::as_slice))
            .collect();
        Group {
            rids,
            ranks,
            slices,
            handler_logs,
            nonlog_slot: 0,
        }
    }

    fn n(&self) -> usize {
        self.rids.len()
    }

    /// Appends each member's activation of the request handler of path
    /// rank `path` (none, for a path the table lacks) to `out`,
    /// returning the run.
    fn resolve_root(
        &self,
        coords: &Coords,
        path: Option<u32>,
        out: &mut Vec<Option<Slot>>,
    ) -> Range<usize> {
        let first = out.len();
        out.extend(
            self.slices
                .iter()
                .map(|within| Slot::of(coords, coords.act_in(within, path?)?)),
        );
        first..out.len()
    }

    /// [`Group::resolve_root`] for a handler the running handler
    /// activated, whose per-member activations are `parents`: a member
    /// without its parent activation has none of the child.
    fn resolve_child(
        &self,
        coords: &Coords,
        parents: &[Option<Slot>],
        path: Option<u32>,
        out: &mut Vec<Option<Slot>>,
    ) -> Range<usize> {
        let first = out.len();
        out.extend(self.slices.iter().zip(parents).map(|(within, parent)| {
            (*parent)?;
            Slot::of(coords, coords.act_in(within, path?)?)
        }));
        first..out.len()
    }
}

impl<'a> ReExecutor<'a> {
    /// Creates a re-executor over prepared state.
    pub fn new(
        program: &'a Program,
        trace: &'a Trace,
        advice: &'a AdviceRef<'a>,
        pre: &'a Preprocessed,
        vars: &'a mut VarStates,
    ) -> Self {
        // The initialization writes were recorded before the audit had
        // coordinates; from here on they are ids like every access.
        vars.bind(&pre.var_index);
        ReExecutor {
            program,
            trace,
            advice,
            pre,
            global: vars,
            schedule: ReplaySchedule::Fifo,
            limits: Limits::unlimited(),
            obs: Obs::noop(),
        }
    }

    /// Sets the replay schedule (Lemma-1 experiments; the default FIFO
    /// is what deployments use).
    pub fn with_schedule(mut self, schedule: ReplaySchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Installs a telemetry handle. Workers record group-replay spans
    /// and histograms into per-lane shards that the merge phase
    /// absorbs in ascending group order, so exported metrics are
    /// deterministic across thread counts.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Installs resource budgets (DESIGN.md §10). Grouped runs arm a
    /// fresh per-group fuel/deadline meter from these for every group;
    /// the ungrouped single-pass replay arms one meter scaled by the
    /// request count (its one pass does every request's work).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Does nothing: handlers always replay on the bytecode VM. Kept for
    /// `benchmark/src/adapter.rs`; removed by ROADMAP item 1 step 1.
    #[doc(hidden)]
    pub fn with_bytecode(self, _: bool) -> Self {
        self
    }

    /// Runs re-execution over all groups (Fig. 18), performing the
    /// final whole-audit checks (lines 62–64), on `threads` threads —
    /// the calling one included — through the verifier's worker pool
    /// (`pool.rs`).
    ///
    /// Groups are independent by construction — same handler tree,
    /// disjoint requests — so each is replayed whole with its own local
    /// state, recording its shared-variable accesses. The calling thread
    /// runs `overlap` first (the audit merges `G`'s deferred preprocess
    /// edges there; replay never reads the graph), then merges each
    /// group's unit into the global state in ascending group order
    /// (`Merge::run`), replaying a group itself whenever the unit it
    /// needs has not arrived. Every unit comes from the same per-group
    /// code and meets the same merge in the same order, so the outcome
    /// (verdict, [`RejectReason`], statistics) is bit-identical at every
    /// thread count; only the wall clock differs.
    pub fn run_pipelined<F: FnOnce() + Send>(
        self,
        threads: usize,
        overlap: F,
    ) -> Result<(ReexecStats, ReexecTiming), RejectReason> {
        let t_section = Instant::now();
        let (program, advice, pre, obs) = (self.program, self.advice, self.pre, &self.obs);
        let order = self.trace.request_ids();
        for rid in &order {
            if !advice.tags.contains_key(rid) {
                return Err(RejectReason::MissingTag { rid: *rid });
            }
        }
        let groups = advice.groups(&order);
        let ngroups = groups.len();
        let exchanges = self.trace.exchanges();
        let exchanges = exchanges.as_slice();
        obs.progress_replay_total(ngroups as u64);
        // What each group's local state starts from: the trusted
        // initialization writes, shared and not copied.
        let init_vars: GroupVars = self.global.group_vars();
        // Each pool lane's variable store, handed from group to group:
        // the calling thread's, and the spawned lanes'. A lock only
        // swaps a whole store in or out, so a poisoned one still holds
        // a valid store.
        let home = Mutex::<Written>::default();
        let spawned: Vec<Mutex<Written>> = (1..threads.min(ngroups))
            .map(|_| Mutex::default())
            .collect();
        let store = |lane: u32| {
            let store = match lane.checked_sub(1) {
                None => &home,
                Some(spawned_lane) => spawned.get(spawned_lane as usize)?,
            };
            Some(store.lock().unwrap_or_else(PoisonError::into_inner))
        };

        // Smallest group index known to have failed: the pool skips
        // groups strictly beyond it (the merge stops there), but never
        // groups before it, which the merge still needs.
        let failed_floor = AtomicUsize::new(usize::MAX);
        let run_unit = |gidx: usize, lane: u32| -> GroupRun {
            let rids = groups[gidx].as_slice();
            if INJECT_PANIC.load(Ordering::SeqCst) == gidx as i64
                && INJECT_PANIC
                    .compare_exchange(gidx as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                // Test-only hook (armed by `inject_group_panic_for_tests`)
                // that exercises the pool's panic catch.
                #[allow(clippy::panic)]
                {
                    panic!("injected test panic in group {gidx}")
                };
            }
            let shard = obs.shard(lane);
            // Charge this group's allocations (thread-local probe;
            // reads 0 unless a counting allocator feeds it).
            let alloc_before = if shard.is_enabled() {
                obs::allocprobe::reading()
            } else {
                0
            };
            let t_group = shard.span_start();
            let written = store(lane).map(|mut store| std::mem::take(&mut *store));
            let vars = init_vars.fresh(pre.var_index.entries_of(rids), written.unwrap_or_default());
            let meter = Meter::arm(&self.limits, Some(gidx as u64), 1);
            let mut worker = Worker::new(program, advice, pre, self.schedule, vars, meter);
            let error = worker
                .run_group(Group::new(rids.to_vec(), advice, &pre.coords), exchanges)
                .err();
            let vm = (worker.vm.ops, worker.vm.fused_ops, worker.vm.fused_fuel);
            let (mut unit, written) = worker.finish(error, shard);
            if let Some(mut store) = store(lane) {
                *store = written;
            }
            let fuel = unit.stats.fuel_spent;
            if unit.obs.is_enabled() {
                // The group's handler-tree digest is its control-flow
                // tag (equal across members by construction).
                let digest = rids
                    .first()
                    .and_then(|r| advice.tags.get(r))
                    .copied()
                    .unwrap_or(0);
                let (shard, size) = (&mut unit.obs, rids.len() as u64);
                shard.observe(HistogramId::GroupSize, size);
                shard.count(CounterId::ReplayFuelSpent, fuel);
                shard.count(CounterId::BytecodeOps, vm.0);
                shard.observe(HistogramId::GroupFuelSpent, fuel);
                let dur = shard.record_span(
                    "group-replay",
                    t_group,
                    &[("group", gidx as u64), ("size", size), ("digest", digest)],
                );
                shard.observe(HistogramId::GroupReplayUs, dur);
                let (var_reads, var_writes, feeds) = unit.accesses.tally();
                shard.record_group_cost(obs::GroupCost {
                    group: gidx as u64,
                    requests: size,
                    first_rid: rids.first().map(|r| r.0).unwrap_or(0),
                    digest,
                    fuel,
                    uniform_ops: unit.stats.uniform_ops,
                    expanded_ops: unit.stats.expanded_ops,
                    bytecode_ops: vm.0,
                    fused_ops: vm.1,
                    fused_fuel: vm.2,
                    dict_feeds: feeds.dict_feeds,
                    logged_reads: feeds.logged_reads,
                    var_reads,
                    var_writes,
                    wall_us: dur,
                    alloc_events: obs::allocprobe::reading().saturating_sub(alloc_before),
                });
            }
            // Heartbeat: live even before the merge absorbs the
            // shard (a noop handle makes this an early return).
            obs.progress_group_replayed(fuel);
            if unit.error.is_some() {
                failed_floor.fetch_min(gidx, Ordering::Relaxed);
                obs.progress_floor(gidx as u64);
            }
            unit
        };

        let merge = Merge::new(self.global, advice, pre, obs, ngroups, order.len());
        let merged = pool::ordered(threads, ngroups, &failed_floor, &run_unit, |pool| {
            overlap();
            merge.run(ngroups, exchanges, |gidx| pool.take(gidx))
        });
        let (stats, state_merge) = merged?;
        Ok((stats, ReexecTiming::split(t_section, state_merge)))
    }

    /// `OOOExec` (Fig. 22): out-of-order re-execution *without*
    /// grouping — every request is its own singleton group and all
    /// requests' handler activations share one global queue, drained in
    /// any well-formed order. This is the executor the paper's proofs
    /// reason about; [`ReExecutor::run_pipelined`] is the batched
    /// production variant shown equivalent to it by Lemma 3.
    ///
    /// The whole run is one replay unit on the calling thread, after
    /// `overlap`: it records its accesses like a group and meets the
    /// same merge. Control-flow tags are ignored (OOOAudit does not
    /// group), so this also audits advice from servers that decline to
    /// tag.
    pub fn run_ungrouped<F: FnOnce()>(
        self,
        overlap: F,
    ) -> Result<(ReexecStats, ReexecTiming), RejectReason> {
        let t_section = Instant::now();
        overlap();
        let (program, advice, pre) = (self.program, self.advice, self.pre);
        let order = self.trace.request_ids();
        let exchanges = self.trace.exchanges();
        // One worker replays every singleton group, so each gets its
        // own slot of the non-loggable table: its place in the trace.
        let groups: Vec<Group<'a>> = order
            .iter()
            .enumerate()
            .map(|(nonlog_slot, rid)| Group {
                nonlog_slot,
                ..Group::new(vec![*rid], advice, &pre.coords)
            })
            .collect();
        let init_vars = self.global.group_vars();
        let replay = |_| {
            let vars = init_vars.fresh(pre.var_index.entries_of(&order), Written::default());
            // One pass does every request's work, so its one meter is
            // scaled by the request count (the grouped path budgets per
            // group).
            let meter = Meter::arm(&self.limits, None, order.len() as u64);
            let mut worker = Worker::new(program, advice, pre, self.schedule, vars, meter);
            let error = worker.run_interleaved(&groups, &exchanges).err();
            Ok(worker.finish(error, ObsShard::disabled()).0)
        };
        let merge = Merge::new(
            self.global,
            advice,
            pre,
            &self.obs,
            order.len(),
            order.len(),
        );
        let (stats, state_merge) = merge.run(1, &exchanges, replay)?;
        Ok((stats, ReexecTiming::split(t_section, state_merge)))
    }
}

impl Meter {
    /// A meter armed from `limits` for `group`. `scale` is `1` for a
    /// group and the request count for the ungrouped replay.
    fn arm(limits: &Limits, group: Option<u64>, scale: u64) -> Self {
        let scale = scale.max(1);
        Meter {
            spent: 0,
            limit: limits.replay_fuel.saturating_mul(scale),
            max_group_width: limits.max_group_width,
            // `u64::MAX` (or an Instant overflow) disables the deadline.
            deadline: if limits.group_deadline_ms == u64::MAX {
                None
            } else {
                Instant::now().checked_add(Duration::from_millis(
                    limits.group_deadline_ms.saturating_mul(scale),
                ))
            },
            deadline_ms: limits.group_deadline_ms,
            next_poll: DEADLINE_POLL_INTERVAL,
            group,
        }
    }

    /// Charges `n` fuel units: the charges `kem_lang::bytecode::lower` folded
    /// onto one op. One unit per statement executed and per expression
    /// node evaluated makes the spend a pure function of the program and
    /// the advice — never of the worker layout — so a
    /// [`ResourceKind::ReplayFuel`] verdict is deterministic, and it
    /// reports `spent == limit + 1`: where the first over-budget unit
    /// stops the meter. Every [`DEADLINE_POLL_INTERVAL`] units the wall
    /// clock is polled against the group deadline (that verdict is
    /// machine-dependent by nature; see DESIGN.md §10).
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), RejectReason> {
        let new = self.spent.saturating_add(n);
        if new > self.limit {
            self.spent = self.limit.saturating_add(1);
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::ReplayFuel,
                group: self.group,
                spent: self.spent,
                limit: self.limit,
            });
        }
        self.spent = new;
        if new >= self.next_poll {
            self.next_poll = new.saturating_add(DEADLINE_POLL_INTERVAL);
            return self.poll_deadline();
        }
        Ok(())
    }

    #[cold]
    fn poll_deadline(&self) -> Result<(), RejectReason> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now > deadline {
            let over = now.duration_since(deadline).as_millis() as u64;
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::GroupDeadline,
                group: self.group,
                spent: self.deadline_ms.saturating_add(over),
                limit: self.deadline_ms,
            });
        }
        Ok(())
    }
}

impl<'a> Worker<'a> {
    /// A worker for one unit over `vars`, metered by `meter`. A `Random`
    /// schedule draws from an RNG seeded by the schedule's seed and, for
    /// a group, its index, so draw sequences never depend on how groups
    /// are distributed over workers.
    fn new(
        program: &'a Program,
        advice: &'a AdviceRef<'a>,
        pre: &'a Preprocessed,
        schedule: ReplaySchedule,
        vars: GroupVars,
        meter: Meter,
    ) -> Self {
        let seed = match (schedule, meter.group) {
            (ReplaySchedule::Random { seed }, Some(g)) => {
                seed ^ (g + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
            (ReplaySchedule::Random { seed }, None) => seed,
            _ => 0,
        };
        Worker {
            program,
            advice,
            pre,
            schedule,
            vars,
            rng: rand::SeedableRng::seed_from_u64(seed),
            nonlog: Vec::new(),
            tx_table: Vec::new(),
            executed: Vec::new(),
            consumed: Vec::new(),
            outputs: Vec::new(),
            stats: ReexecStats::default(),
            meter,
            vm: Vm::default(),
            vm_slots: Vec::new(),
            pending_slots: Vec::new(),
        }
    }

    /// Ends the unit's replay — `error` is how it failed, if it did —
    /// and hands what the merge applies over, with `obs`, the shard the
    /// unit's telemetry goes to, and the variable store back, cleared.
    fn finish(self, error: Option<RejectReason>, obs: ObsShard) -> (GroupRun, Written) {
        let (accesses, written) = self.vars.finish_keeping();
        let run = GroupRun {
            accesses,
            error,
            executed: self.executed,
            consumed: self.consumed,
            outputs: self.outputs,
            stats: ReexecStats {
                fuel_spent: self.meter.spent,
                max_group_fuel: self.meter.spent,
                ..self.stats
            },
            obs,
        };
        (run, written)
    }

    /// Draws the next handler from an active queue per the schedule.
    fn next_active<T>(&mut self, active: &mut VecDeque<T>) -> Option<T> {
        match self.schedule {
            ReplaySchedule::Fifo => active.pop_front(),
            ReplaySchedule::Lifo => active.pop_back(),
            ReplaySchedule::Random { .. } => {
                if active.is_empty() {
                    None
                } else {
                    let i = rand::Rng::gen_range(&mut self.rng, 0..active.len());
                    active.remove(i)
                }
            }
        }
    }

    /// `OOOExec`'s replay: the singleton `groups`, in trace order, their
    /// handler activations on one global queue drained with the
    /// schedule. Children go back into the same queue, so requests'
    /// handlers interleave freely.
    fn run_interleaved(
        &mut self,
        groups: &[Group<'a>],
        trace: &[Exchange<'_>],
    ) -> Result<(), RejectReason> {
        // One global queue of (singleton group, activated handler).
        let mut active: VecDeque<(usize, Pending)> = VecDeque::new();
        for (gi, (x, g)) in trace.iter().zip(groups).enumerate() {
            let mut roots = Queue::new();
            self.enqueue_roots(g, &mut roots, &MultiValue::uniform(x.input.clone()))?;
            active.extend(roots.into_iter().map(|root| (gi, root)));
        }
        while let Some((gi, pending)) = self.next_active(&mut active) {
            let Some(g) = groups.get(gi) else { continue };
            let mut children = Queue::new();
            self.exec_handler(g, &mut children, pending)?;
            active.extend(children.into_iter().map(|child| (gi, child)));
        }
        Ok(())
    }

    fn run_group(&mut self, g: Group<'a>, trace: &[Exchange<'_>]) -> Result<(), RejectReason> {
        // Width cap: a forged control-flow tag that collapses many
        // requests into one group multiplies every MultiValue by the
        // group width, so an oversized group is rejected up front
        // instead of amplifying allocations 2^20-fold.
        if (g.n() as u64) > self.meter.max_group_width {
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::GroupWidth,
                group: self.meter.group,
                spent: g.n() as u64,
                limit: self.meter.max_group_width,
            });
        }
        // (1) Initialize: inputs and the request handlers. The common
        // case — every member sent the same input — collapses without
        // materializing a per-request vector.
        let mut inputs: Vec<&Value> = Vec::with_capacity(g.n());
        for rank in &g.ranks {
            let Some(x) = rank.and_then(|r| trace.get(r as usize)) else {
                return Err(RejectReason::UnbalancedTrace);
            };
            inputs.push(x.input);
        }
        let payload = match inputs.split_first() {
            Some((first, rest)) if rest.iter().any(|input| input != first) => {
                MultiValue::from_vec(inputs.into_iter().cloned().collect())
            }
            Some((first, _)) => MultiValue::uniform((*first).clone()),
            None => MultiValue::uniform(Value::Null),
        };
        // Size the per-group lists by what this group can touch: its
        // members' activations, responses and handler-log entries
        // (transaction-log entries grow `consumed` as they come).
        let (acts, logged) = g
            .slices
            .iter()
            .zip(&g.handler_logs)
            .fold((0, 0), |(acts, logged), (slice, log)| {
                (acts + slice.len(), logged + log.len())
            });
        self.executed.reserve(acts);
        self.pending_slots.reserve(acts);
        self.consumed.reserve(logged);
        self.outputs.reserve(g.n());
        let mut active = Queue::new();
        self.enqueue_roots(&g, &mut active, &payload)?;
        // (2) Execute with SIMD-on-demand. The draw order is free:
        // anything respecting activation order (children enter the
        // queue only when activated) is a well-formed schedule.
        while let Some(pending) = self.next_active(&mut active) {
            self.exec_handler(&g, &mut active, pending)?;
        }
        Ok(())
    }

    /// The first member (by position in its group) without an
    /// activation in the enqueued run `slots`.
    fn missing_member(&self, slots: &Range<usize>) -> Option<usize> {
        let run = self.pending_slots.get(slots.clone()).unwrap_or(&[]);
        run.iter().position(Option::is_none)
    }

    /// Enqueues the program's request handlers for every member of `g`.
    fn enqueue_roots(
        &mut self,
        g: &Group<'a>,
        active: &mut Queue,
        payload: &MultiValue,
    ) -> Result<(), RejectReason> {
        let coords = &self.pre.coords;
        for &f in &self.program.request_handlers {
            let path = coords.paths().step(None, kem_lang::FunctionId(f), 0);
            let slots = g.resolve_root(coords, path, &mut self.pending_slots);
            let (Some(path), None) = (path, self.missing_member(&slots)) else {
                return Err(RejectReason::GroupSetupMismatch {
                    why: "request handler missing from opcounts",
                });
            };
            active.push_back(Pending {
                path,
                payload: payload.clone(),
                slots,
            });
        }
        Ok(())
    }

    fn exec_handler(
        &mut self,
        g: &Group<'a>,
        active: &mut Queue,
        pending: Pending,
    ) -> Result<(), RejectReason> {
        let Pending {
            path,
            payload,
            slots: enqueued,
        } = pending;
        let Some(fid) = self.pre.coords.paths().id(path).map(HandlerId::function) else {
            return Err(RejectReason::VerifierInternal {
                what: "a handler outside the handler-id table".into(),
            });
        };
        // `INIT_FUNCTION` lies past every program's functions.
        let Some(func) = self.program.code().funcs.get(fid.0 as usize) else {
            return Err(RejectReason::ReexecError {
                message: format!("handler references unknown function {fid}"),
            });
        };
        self.stats.handlers_executed += 1;
        self.stats.activations_covered += g.n() as u64;
        // Per-member activations come from a reusable pool, like the
        // loop's scratch: handlers never nest, so each activation clears
        // and refills the same buffer instead of allocating. (Error
        // paths drop it with the frame — the group is finished then.)
        let mut slots = std::mem::take(&mut self.vm_slots);
        slots.clear();
        slots.extend_from_slice(self.pending_slots.get(enqueued).unwrap_or(&[]));
        self.executed.extend(slots.iter().flatten().map(|s| s.act));
        let mut frame = Frame {
            path,
            idx: 0,
            slots,
        };
        // The scratch is taken out so the machine can borrow `self`.
        let mut vm = std::mem::take(&mut self.vm);
        let mut replay = Replay {
            ex: self,
            g,
            active,
            frame: &mut frame,
        };
        let result = vm.run(&mut replay, func, payload);
        self.vm = vm;
        result?;
        // (c) Handler exit: every request must have consumed exactly its
        // reported operation count.
        for (i, rid) in g.rids.iter().enumerate() {
            match frame.slots.get(i).copied().flatten() {
                Some(slot) if slot.count == frame.idx => {}
                _ => return Err(RejectReason::OpcountMismatch { rid: *rid }),
            }
        }
        self.vm_slots = frame.slots;
        Ok(())
    }

    /// The log of `var`, read by node id.
    fn var_log(&self, var: VarId) -> VarLog<'a> {
        self.pre.var_index.log(&self.advice.var_logs, var)
    }

    fn note_dedup(&mut self, uniform: bool) {
        if uniform {
            self.stats.uniform_ops += 1;
        } else {
            self.stats.expanded_ops += 1;
        }
    }
}

/// One handler activation of a group being replayed: the [`Machine`]
/// the dispatch loop (`kem_lang::vm`) runs on, over multivalues.
struct Replay<'r, 'a> {
    ex: &'r mut Worker<'a>,
    g: &'r Group<'a>,
    active: &'r mut Queue,
    frame: &'r mut Frame,
}

/// The verifier's wording of the loop's own failures.
impl From<VmError> for RejectReason {
    fn from(e: VmError) -> Self {
        let message = match e {
            VmError::Op(e) => e.message,
            VmError::Divergence(context) => {
                return RejectReason::Divergence {
                    context: context.into(),
                }
            }
            VmError::NotList(_) => "for-each over non-list".into(),
            VmError::ItemOutOfRange => "for-each item out of range".into(),
            VmError::LoopLimit => "while loop exceeded iteration limit".into(),
            VmError::Underflow(what) => {
                return RejectReason::VerifierInternal { what: what.into() }
            }
        };
        RejectReason::ReexecError { message }
    }
}

impl<'a> Replay<'_, 'a> {
    /// The coordinate of member `i`'s current operation.
    fn at(&self, i: usize) -> OpRef {
        let at = OpAt::new(self.g.rids[i], self.frame.path, self.frame.idx);
        self.ex.pre.coords.paths().op_ref(&at)
    }

    /// Advances the operation counter, checking it stays within every
    /// group member's reported opcount (Fig. 18 line 43).
    fn bump(&mut self) -> Result<u32, RejectReason> {
        let frame = &mut *self.frame;
        frame.idx += 1;
        for (i, rid) in self.g.rids.iter().enumerate() {
            match frame.slots.get(i).copied().flatten() {
                Some(slot) if frame.idx <= slot.count => {}
                _ => return Err(RejectReason::OpcountMismatch { rid: *rid }),
            }
        }
        Ok(frame.idx)
    }

    /// `ActivateHandlers` (Fig. 19 lines 29–34): the emit must activate
    /// identical handler sets across the group; activations are
    /// enqueued in canonical (sorted) order — siblings are R-concurrent,
    /// so any order is faithful.
    fn activate_handlers(&mut self, payload: MultiValue) -> Result<(), RejectReason> {
        let pre = self.ex.pre;
        let mut canonical: Option<Vec<u32>> = None;
        // Scratch for sorting later members' activation lists; reused
        // across the whole group so the comparison loop allocates at
        // most once, not once per request.
        let mut scratch: Vec<u32> = Vec::new();
        for i in 0..self.g.n() {
            let paths = pre.activated.get(self.frame.node(i)?).unwrap_or(&[]);
            match &canonical {
                None => {
                    let mut c = paths.to_vec();
                    c.sort_unstable();
                    canonical = Some(c);
                }
                // Fast path: already element-wise equal to the sorted
                // canonical list.
                Some(c) if c.as_slice() == paths => {}
                Some(c) => {
                    scratch.clear();
                    scratch.extend_from_slice(paths);
                    scratch.sort_unstable();
                    if scratch != *c {
                        return Err(RejectReason::EmitActivationMismatch { at: self.at(0) });
                    }
                }
            }
        }
        for path in canonical.unwrap_or_default() {
            let slots = &mut self.ex.pending_slots;
            self.active.push_back(Pending {
                slots: self
                    .g
                    .resolve_child(&pre.coords, &self.frame.slots, Some(path), slots),
                path,
                payload: payload.clone(),
            });
        }
        Ok(())
    }

    /// `CheckStateOp` coordinate checks (Fig. 19 lines 5–7): the
    /// re-executed operation of member `i` must map to the `txnum`-th
    /// entry of transaction `tx` — or, for `None`, of whichever
    /// transaction the OpMap holds there. Consumes the node and returns
    /// the transaction and the log entry.
    fn consume_state_op(
        &mut self,
        i: usize,
        tx: Option<u32>,
        txnum: u32,
    ) -> Result<(u32, &'a TxLogEntryView<'a>), RejectReason> {
        let node = self.frame.node(i)?;
        let found = match self.ex.pre.op_map.get(node) {
            Some(OpMapEntry::TxLog { tx: t, index })
                if *index == txnum && tx.is_none_or(|tx| tx == *t) =>
            {
                *t
            }
            _ => {
                return Err(RejectReason::StateOpMismatch {
                    at: self.at(i),
                    why: "operation not logged at this transaction position",
                })
            }
        };
        let entry = self
            .ex
            .advice
            .tx_logs
            .as_slice()
            .get(found as usize)
            .and_then(|(_, log)| log.get(txnum as usize))
            .ok_or_else(|| RejectReason::MalformedAdviceAt {
                at: self.at(i),
                what: "transaction log position out of range",
            })?;
        self.ex.consumed.push(node);
        Ok((found, entry))
    }

    /// Enqueues the continuation handler of an asynchronous operation.
    fn enqueue_continuation(
        &mut self,
        on_done: FunctionId,
        payloads: Vec<Value>,
    ) -> Result<(), RejectReason> {
        let coords = &self.ex.pre.coords;
        let pending = &mut self.ex.pending_slots;
        let path = coords
            .paths()
            .step(Some(self.frame.path), on_done, self.frame.idx);
        let slots = self
            .g
            .resolve_child(coords, &self.frame.slots, path, pending);
        let missing = self.ex.missing_member(&slots);
        let (Some(path), None) = (path, missing) else {
            return Err(RejectReason::StateOpMismatch {
                at: self.at(missing.unwrap_or_default()),
                why: "continuation handler missing from opcounts",
            });
        };
        self.active.push_back(Pending {
            path,
            payload: MultiValue::from_vec(payloads),
            slots,
        });
        Ok(())
    }

    /// `CheckHandlerOp` (Fig. 19 lines 17–23) for member `i`'s current
    /// operation: its node must map to a handler-log entry equal to
    /// `expected`. Consumes the node and returns it.
    fn consume_handler_op(
        &mut self,
        i: usize,
        expected: &HandlerOpView<'_>,
    ) -> Result<u32, RejectReason> {
        let node = self.frame.node(i)?;
        let Some(OpMapEntry::HandlerLog { index }) = self.ex.pre.op_map.get(node) else {
            return Err(RejectReason::HandlerOpMismatch {
                at: self.at(i),
                why: "not in handler log",
            });
        };
        let entry = self
            .g
            .handler_logs
            .get(i)
            .and_then(|log| log.get(*index as usize));
        let Some(entry) = entry else {
            return Err(RejectReason::MalformedAdviceAt {
                at: self.at(i),
                what: "handler log position out of range",
            });
        };
        if entry.op != *expected {
            return Err(RejectReason::HandlerOpMismatch {
                at: self.at(i),
                why: "logged handler op differs",
            });
        }
        self.ex.consumed.push(node);
        Ok(node)
    }

    /// A handler op by every member: one operation, checked against
    /// each member's handler log.
    fn handler_op(&mut self, expected: HandlerOpView<'_>) -> Result<(), RejectReason> {
        self.bump()?;
        for i in 0..self.g.n() {
            self.consume_handler_op(i, &expected)?;
        }
        Ok(())
    }

    /// An event name, borrowed from the program's interner.
    fn event(&self, event: Sym) -> &'a str {
        self.ex.program.code().interner.resolve(event)
    }
}

impl Machine for Replay<'_, '_> {
    type Operand = MultiValue;
    type Error = RejectReason;

    fn width(&self) -> usize {
        self.g.n()
    }

    #[inline]
    fn charge(&mut self, units: u64) -> Result<(), RejectReason> {
        self.ex.meter.charge(units)
    }

    fn fuel_left(&self) -> u64 {
        let meter = &self.ex.meter;
        meter.limit.saturating_sub(meter.spent)
    }

    fn unknown_local(name: &str) -> RejectReason {
        RejectReason::ReexecError {
            message: format!("unknown local {name}"),
        }
    }

    /// A loggable variable is read by every member as one operation,
    /// fed per member from the log or the dictionary (Fig. 20). A
    /// non-loggable one is each member's copy: what the member last
    /// wrote, else the declared initial value.
    fn shared_read(&mut self, var: VarId, loggable: bool) -> Result<MultiValue, RejectReason> {
        let (ex, g) = (&mut *self.ex, self.g);
        if !loggable {
            let init = &ex.program.var(var).init;
            let row = ex.nonlog.get(var.0 as usize).map_or(&[][..], Vec::as_slice);
            let copies = row.get(g.nonlog_slot..).unwrap_or(&[]);
            let copy = |i: usize| copies.get(i).and_then(Option::as_ref).unwrap_or(init);
            return MultiValue::collect(g.n(), |i| Ok(copy(i).clone()));
        }
        self.bump()?;
        let (ex, frame) = (&mut *self.ex, &*self.frame);
        let log = ex.var_log(var);
        let mv = MultiValue::collect(g.n(), |i| {
            let (node, act) = frame.at(i)?;
            ex.vars.read(var, node, act, &log)
        })?;
        ex.note_dedup(mv.is_uniform());
        Ok(mv)
    }

    /// A write by every member: to the loggable variable's state
    /// (Fig. 21), or to each member's copy of a non-loggable one. That
    /// table grows to the program's variables and the worker's
    /// members, both trusted sizes. A map edit is built only for the
    /// copies; the loggable variable's state checks it against the log.
    fn shared_write(
        &mut self,
        var: VarId,
        loggable: bool,
        w: Write<MultiValue>,
    ) -> Result<(), RejectReason> {
        let n = self.g.n();
        if !loggable {
            let v = w.build(n).map_err(VmError::Op)?;
            let (nonlog, first) = (&mut self.ex.nonlog, self.g.nonlog_slot);
            let slot = var.0 as usize;
            if slot >= nonlog.len() {
                nonlog.resize_with(slot + 1, Vec::new);
            }
            let row = &mut nonlog[slot];
            if row.len() < first + n {
                row.resize(first + n, None);
            }
            for (copy, val) in row[first..first + n].iter_mut().zip(v.iter(n)) {
                *copy = Some(val.clone());
            }
            return Ok(());
        }
        self.bump()?;
        let (ex, frame) = (&mut *self.ex, &*self.frame);
        let log = ex.var_log(var);
        if let Write::Value(v) = &w {
            ex.note_dedup(v.is_uniform());
            for (i, val) in v.iter(n).enumerate() {
                let (node, act) = frame.at(i)?;
                ex.vars
                    .write(var, node, act, Candidate::Built(val.clone()), &log)?;
            }
            return Ok(());
        }
        // A map edit. It counts as uniform exactly when the built values
        // would have collapsed: every operand uniform, or every member's
        // value the first's — which, once each member's write resolved,
        // is its resolved value (a checked write's equals what it would
        // have built). A refusal resolves no value, so there the values
        // are built to be counted.
        let uniform = w.uniform();
        let (mut first, mut same) = (None, true);
        let mut checked = Ok(());
        for i in 0..n {
            let Some(edit) = w.edit(i) else { break };
            let resolved = edit.map_err(|e| VmError::Op(e).into()).and_then(|edit| {
                let (node, act) = frame.at(i)?;
                ex.vars.write(var, node, act, Candidate::Edit(edit), &log)
            });
            match resolved {
                Ok(_) if uniform || !same => {}
                Ok(v) => match &first {
                    None => first = Some(v),
                    Some(f) => same = *f == v,
                },
                Err(e) => {
                    checked = Err(e);
                    break;
                }
            }
        }
        let counted = match checked {
            Ok(()) => Some(uniform || same),
            Err(_) => w.build(n).ok().map(|v| v.is_uniform()),
        };
        if let Some(uniform) = counted {
            ex.note_dedup(uniform);
        }
        checked
    }

    fn emit(&mut self, event: Sym, payload: MultiValue) -> Result<(), RejectReason> {
        let event = self.event(event);
        self.handler_op(HandlerOpView::Emit { event })?;
        self.activate_handlers(payload)
    }

    fn register(&mut self, event: Sym, function: FunctionId) -> Result<(), RejectReason> {
        let event = self.event(event);
        self.handler_op(HandlerOpView::Register { event, function })
    }

    fn unregister(&mut self, event: Sym, function: FunctionId) -> Result<(), RejectReason> {
        let event = self.event(event);
        self.handler_op(HandlerOpView::Unregister { event, function })
    }

    fn respond(&mut self, v: MultiValue) -> Result<(), RejectReason> {
        let (ex, frame) = (&mut *self.ex, &*self.frame);
        for (rid, val) in self.g.rids.iter().zip(v.iter(self.g.n())) {
            match ex.advice.response_emitted_by.get(rid) {
                Some(&(path, idx)) if path == frame.path && idx == frame.idx => {}
                _ => return Err(RejectReason::ResponseEmitterMismatch { rid: *rid }),
            }
            ex.outputs.push((*rid, val.clone()));
        }
        Ok(())
    }

    // Token and key screening stay the defaults, no-ops: the live
    // runtime validates between operand evaluations, re-execution per
    // member at the terminal op.

    /// `tx_start`: hands each member a token for the transaction whose
    /// log begins at this operation.
    fn tx_start(&mut self, ctx: MultiValue, on_done: FunctionId) -> Result<(), RejectReason> {
        self.bump()?;
        let mut payloads = Vec::with_capacity(self.g.n());
        for i in 0..self.g.n() {
            // Preprocess admits a transaction log only if its first
            // entry sits at the transaction's own coordinate, so the
            // transaction `(rid, hid, idx)` is the one — if any — whose
            // entry 0 the OpMap holds at this node.
            let (tx, entry) = self.consume_state_op(i, None, 0)?;
            let token = self.ex.tx_table.len() as i64;
            self.ex.tx_table.push(TxToken { tx, txnum: 0 });
            if entry.optype != TxOpKind::Start {
                return Err(RejectReason::StateOpMismatch {
                    at: self.at(i),
                    why: "expected tx_start",
                });
            }
            let payload =
                tx_payload_keys().payload(ctx.get(i).clone(), Value::Int(token), true, None);
            payloads.push(payload);
        }
        self.enqueue_continuation(on_done, payloads)
    }

    /// An asynchronous state operation other than `tx_start`, from its
    /// evaluated operands: token resolution, per-transaction sequencing,
    /// advice checks, and continuation payload construction.
    fn tx_op(
        &mut self,
        requested: TxOpKind,
        tx_v: MultiValue,
        key_v: Option<MultiValue>,
        value_v: Option<MultiValue>,
        ctx_v: MultiValue,
        on_done: FunctionId,
    ) -> Result<(), RejectReason> {
        self.bump()?;
        if let Some(k) = &key_v {
            self.ex.note_dedup(k.is_uniform());
        }
        let mut payloads = Vec::with_capacity(self.g.n());
        let advice = self.ex.advice;
        for (i, rid) in self.g.rids.iter().enumerate() {
            let token = tx_v
                .get(i)
                .as_int()
                .and_then(|t| self.ex.tx_table.get_mut(t as usize))
                .ok_or_else(|| RejectReason::ReexecError {
                    message: "invalid transaction token".into(),
                })?;
            let owner = advice.tx_logs.as_slice().get(token.tx as usize);
            if owner.is_none_or(|(ktx, _)| ktx.rid != *rid) {
                return Err(RejectReason::StateOpMismatch {
                    at: self.at(i),
                    why: "transaction belongs to a different request",
                });
            }
            token.txnum = token.txnum.saturating_add(1);
            let TxToken { tx, txnum } = *token;
            let (_, entry) = self.consume_state_op(i, Some(tx), txnum)?;
            let at = || self.at(i);
            let mismatch = |why| Err(RejectReason::StateOpMismatch { at: at(), why });
            let malformed = |what| Err(RejectReason::MalformedAdviceAt { at: at(), what });
            let internal = |what: &str| RejectReason::VerifierInternal { what: what.into() };
            let payload = |ok, read| {
                tx_payload_keys().payload(ctx_v.get(i).clone(), tx_v.get(i).clone(), ok, read)
            };
            // The operation allegedly conflicted and aborted the
            // transaction (the paper's retry-error path): feed the
            // failure result. If the log recorded the contested key it
            // must match.
            let conflict = entry.optype == TxOpKind::Abort && requested != TxOpKind::Abort;
            if conflict {
                if let (Some(logged), Some(kv)) = (entry.key, &key_v) {
                    if kv.get(i).as_str() != Some(logged) {
                        return mismatch("conflict record key mismatch");
                    }
                }
                payloads.push(payload(false, None));
                continue;
            }
            if entry.optype != requested {
                return mismatch("logged operation type differs");
            }
            if let TxOpKind::Get | TxOpKind::Put = requested {
                let kv = key_v
                    .as_ref()
                    .ok_or_else(|| internal("re-executed without a key expression"))?;
                if entry.key != kv.get(i).as_str() {
                    return mismatch("key mismatch");
                }
            }
            let mut read = None;
            match (requested, &entry.contents) {
                (TxOpKind::Get, TxOpContentsView::Get { from }) => {
                    let value = match from {
                        None => None,
                        Some(pos) => match advice.tx_entry(pos).map(|w| &w.contents) {
                            Some(TxOpContentsView::Put { value }) => Some(value.value().clone()),
                            Some(_) => return malformed("dictating write is not a PUT"),
                            None => {
                                return malformed("dictating write outside any transaction log")
                            }
                        },
                    };
                    read = Some((value.is_some(), value.unwrap_or(Value::Null)));
                }
                (TxOpKind::Get, _) => return malformed("GET with non-GET contents"),
                (TxOpKind::Put, TxOpContentsView::Put { value: logged }) => {
                    // Simulate-and-check for external state: the
                    // re-executed PUT must produce the logged value.
                    let vv = value_v
                        .as_ref()
                        .ok_or_else(|| internal("PUT re-executed without a value expression"))?;
                    if logged.value() != vv.get(i) {
                        return mismatch("logged PUT value differs from re-execution");
                    }
                }
                (TxOpKind::Put, _) => return malformed("PUT with non-PUT contents"),
                (TxOpKind::Commit | TxOpKind::Abort, _) => {}
                (TxOpKind::Start, _) => return Err(internal("tx_start as a later operation")),
            }
            payloads.push(payload(true, read));
        }
        self.enqueue_continuation(on_done, payloads)
    }

    /// A listener-count check by every member: the handler-log check,
    /// then the count preprocess recomputed from the log's registration
    /// history at that point.
    fn listener_count(&mut self, event: Sym) -> Result<MultiValue, RejectReason> {
        let event = self.event(event);
        self.bump()?;
        MultiValue::collect(self.g.n(), |i| {
            let node = self.consume_handler_op(i, &HandlerOpView::Check { event })?;
            match self.ex.pre.check_counts.get(node) {
                Some(count) => Ok(Value::Int(*count)),
                None => Err(RejectReason::HandlerOpMismatch {
                    at: self.at(i),
                    why: "check op has no recomputed count",
                }),
            }
        })
    }

    /// A nondeterministic operation by every member: each is fed the
    /// value the advice recorded at its node.
    fn nondet(&mut self, kind: NondetKind) -> Result<MultiValue, RejectReason> {
        self.bump()?;
        let (pre, advice) = (self.ex.pre, self.ex.advice);
        MultiValue::collect(self.g.n(), |i| {
            let node = self.frame.node(i)?;
            let at = pre.nondet.binary_search_by_key(&node, |(node, _)| *node);
            let position = at.ok().and_then(|at| pre.nondet.get(at));
            let recorded = position.and_then(|(_, p)| advice.nondet.as_slice().get(*p as usize));
            let Some(v) = recorded.map(|(_, raw)| raw.value()) else {
                return Err(RejectReason::MissingNondet { at: self.at(i) });
            };
            // Basic well-formedness of recorded nondeterminism (§5):
            // the value must be type- and range-plausible for its
            // source. Karousos gives no stronger guarantee about
            // nondeterministic values.
            let plausible = match kind {
                NondetKind::Counter => v.as_int().is_some_and(|i| i >= 1),
                NondetKind::Random { bound } => {
                    v.as_int().is_some_and(|i| (0..bound.max(1)).contains(&i))
                }
            };
            if !plausible {
                return Err(RejectReason::ImplausibleNondet { at: self.at(i) });
            }
            Ok(v.clone())
        })
    }
}

/// The serial half of a grouped run: the global state every group's
/// unit is folded into, in ascending group order.
///
/// Applying a group's resolved accesses to the global state runs the
/// cross-group checks at the same event position a one-thread audit
/// hits them, so the first error — applied or group-local — does not
/// depend on which thread produced the units.
struct Merge<'m> {
    global: &'m mut VarStates,
    advice: &'m AdviceRef<'m>,
    pre: &'m Preprocessed,
    obs: &'m Obs,
    stats: ReexecStats,
    coverage: Coverage<'m>,
}

impl<'m> Merge<'m> {
    /// An empty merge of `groups` units into `global`, covering
    /// `requests` traced requests.
    fn new(
        global: &'m mut VarStates,
        advice: &'m AdviceRef<'m>,
        pre: &'m Preprocessed,
        obs: &'m Obs,
        groups: usize,
        requests: usize,
    ) -> Self {
        Merge {
            global,
            advice,
            pre,
            obs,
            stats: ReexecStats {
                groups,
                ..Default::default()
            },
            coverage: Coverage::new(&pre.coords, requests),
        }
    }

    /// Merges units `0..ngroups` as `next_unit` hands them over (it may
    /// replay the group on the spot or wait until a worker has), stopping
    /// at the first error, then runs the whole-audit final checks.
    /// Returns the statistics and the time spent merging and checking —
    /// never the time spent inside `next_unit`.
    fn run(
        mut self,
        ngroups: usize,
        trace: &[Exchange<'_>],
        mut next_unit: impl FnMut(usize) -> Result<GroupRun, RejectReason>,
    ) -> Result<(ReexecStats, Duration), RejectReason> {
        let span = self.obs.span_start();
        let mut busy = Duration::ZERO;
        for gidx in 0..ngroups {
            let outcome = next_unit(gidx).and_then(|unit| {
                let t = Instant::now();
                let outcome = self.merge_unit(unit);
                busy += t.elapsed();
                outcome
            });
            if let Err(e) = outcome {
                self.obs.progress_floor(gidx as u64);
                return Err(e);
            }
        }
        let t = Instant::now();
        final_checks(trace, self.pre, &self.coverage)?;
        busy += t.elapsed();
        // The span is the merge loop's extent, waits included; the
        // layer's own time is `busy`.
        let args = [
            ("groups", ngroups as u64),
            ("busy_us", busy.as_micros() as u64),
        ];
        self.obs
            .record_span(obs::Layer::StateMerge.name(), 0, span, &args);
        Ok((self.stats, busy))
    }

    /// Applies one group's recorded unit to the global merge state:
    /// apply the event stream to the global variable states, absorb the
    /// worker's telemetry shard, surface the group's own error — of any
    /// kind — then fold its statistics and coverage lists.
    fn merge_unit(&mut self, unit: GroupRun) -> Result<(), RejectReason> {
        self.global
            .merge_group(unit.accesses, &self.pre.var_index, &self.advice.var_logs)?;
        // Absorbed before the error check so a failing group's replay span
        // still appears in the exported trace.
        self.obs.absorb(unit.obs);
        if let Some(e) = unit.error {
            return Err(e);
        }
        self.stats.absorb(&unit.stats);
        self.coverage
            .absorb(&unit.executed, &unit.consumed, unit.outputs);
        Ok(())
    }
}

/// What re-execution has covered so far, as tables over the audit's
/// coordinates. Groups report what they touched as index lists
/// ([`GroupRun`]); only this whole-audit record is sized by the trace.
struct Coverage<'c> {
    coords: &'c Coords,
    /// By activation index: the handler was executed.
    executed: Vec<bool>,
    /// By node id: a re-executed operation consumed the node's `OpMap`
    /// entry.
    consumed: Vec<bool>,
    /// By trace rank: the response re-execution produced.
    outputs: Vec<Option<Value>>,
}

impl<'c> Coverage<'c> {
    fn new(coords: &'c Coords, requests: usize) -> Self {
        Coverage {
            coords,
            executed: vec![false; coords.activations().len()],
            consumed: vec![false; coords.node_count()],
            outputs: vec![None; requests],
        }
    }

    /// Folds one unit's lists in. A later response of the same
    /// request replaces an earlier one, as re-execution order had it.
    fn absorb(&mut self, executed: &[u32], consumed: &[u32], outputs: Vec<(RequestId, Value)>) {
        for act in executed {
            if let Some(e) = self.executed.get_mut(*act as usize) {
                *e = true;
            }
        }
        for node in consumed {
            if let Some(c) = self.consumed.get_mut(*node as usize) {
                *c = true;
            }
        }
        for (rid, value) in outputs {
            let rank = self.coords.trace_rank(rid);
            if let Some(out) = rank.and_then(|r| self.outputs.get_mut(r as usize)) {
                *out = Some(value);
            }
        }
    }
}

/// The whole-audit checks after every group replayed (Fig. 18 lines
/// 62–64). `trace` is the trace by request in arrival order, which is
/// what trace ranks count.
fn final_checks(
    trace: &[Exchange<'_>],
    pre: &Preprocessed,
    coverage: &Coverage<'_>,
) -> Result<(), RejectReason> {
    // (3): outputs must match the trace exactly.
    for (rank, x) in trace.iter().enumerate() {
        let Some(expected) = x.output else {
            return Err(RejectReason::UnbalancedTrace);
        };
        match coverage.outputs.get(rank) {
            Some(Some(got)) if got == expected => {}
            _ => return Err(RejectReason::OutputMismatch { rid: x.rid }),
        }
    }
    // Line 64: no advice handlers that we did not execute.
    if let Some(act) = coverage.executed.iter().position(|e| !e) {
        let rid = coverage.coords.activations().get(act).map(|a| a.rid);
        return Err(match rid {
            Some(rid) => RejectReason::HandlerNotExecuted { rid },
            None => RejectReason::VerifierInternal {
                what: "coverage table longer than the coordinates".into(),
            },
        });
    }
    // Every logged handler/state operation must have been produced
    // (and consumed) by re-execution — otherwise fabricated
    // transactions or handler ops could squat on coordinates that
    // re-execution occupies with variable accesses, which never
    // consult the OpMap. Node ids ascend in coordinate order, so the
    // first uncovered node is the smallest uncovered coordinate.
    let uncovered = pre
        .op_map
        .nodes()
        .find(|node| coverage.consumed.get(*node as usize) != Some(&true));
    if let Some(node) = uncovered {
        return Err(match coverage.coords.op_ref(node) {
            Some(at) => RejectReason::UnexecutedLogEntry { at },
            None => RejectReason::VerifierInternal {
                what: "OpMap entry at a node that is not an operation".into(),
            },
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice_ref::by_hand;
    use kem_lang::FunctionId;

    /// A hostile group: members whose activation ranges differ in
    /// length and order, so one handler sits at a different offset in
    /// each. Every member must still resolve exactly.
    #[test]
    fn members_with_different_handler_trees_resolve_exactly() {
        let root = HandlerId::root(FunctionId(0));
        let child = |f| HandlerId::child(&root, FunctionId(f), 1);
        // r0: root, f1, f2.  r1: root, f2 (shorter).  r2: root, f0,
        // f1, f2 (an extra handler shifts the rest).
        let trees: [&[HandlerId]; 3] = [
            &[root.clone(), child(1), child(2)],
            &[root.clone(), child(2)],
            &[root.clone(), child(0), child(1), child(2)],
        ];
        let rids: Vec<RequestId> = (0..3).map(RequestId).collect();
        let opcounts = rids
            .iter()
            .zip(trees)
            .flat_map(|(rid, tree)| tree.iter().map(|hid| ((*rid, hid.clone()), 1)))
            .collect();
        let advice = by_hand::advice(&opcounts, &Default::default());
        let coords = Coords::build(&rids, &advice).unwrap();
        let g = Group::new(rids, &advice, &coords);

        let acts = |slots: &[Option<Slot>]| -> Vec<Option<u32>> {
            slots.iter().map(|s| s.map(|s| s.act)).collect()
        };
        let mut parents = Vec::new();
        let rank = |hid: &HandlerId| coords.paths().rank(hid);
        assert_eq!(g.resolve_root(&coords, rank(&root), &mut parents), 0..3);
        assert_eq!(acts(&parents), vec![Some(0), Some(3), Some(5)]);
        for (slot, activation) in parents.iter().zip([0, 3, 5]) {
            assert_eq!(*slot, Slot::of(&coords, activation));
        }
        let children = |parents: &[Option<Slot>], f| {
            // Appended behind whatever the buffer already holds.
            let mut out = vec![None];
            let path = rank(&child(f));
            assert_eq!(g.resolve_child(&coords, parents, path, &mut out), 1..4);
            acts(&out[1..])
        };
        assert_eq!(children(&parents, 2), vec![Some(2), Some(4), Some(8)]);
        assert_eq!(children(&parents, 1), vec![Some(1), None, Some(7)]);
        assert_eq!(children(&parents, 0), vec![None, None, Some(6)]);
        // A member whose parent activation is unknown has no child.
        let orphaned = [parents[0], None, parents[2]];
        assert_eq!(children(&orphaned, 2), vec![Some(2), None, Some(8)]);
    }
}
