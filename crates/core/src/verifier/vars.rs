//! Verifier-side program-variable machinery (§4.2–§4.3, Figs. 20–21).
//!
//! For each loggable variable the verifier maintains, while
//! re-executing:
//!
//! * the **variable dictionary**: every value written, indexed by the
//!   writing operation — used to feed unlogged reads via
//!   `FindNearestRPrecedingWrite`;
//! * the **observers** of each write: the reads that observed it (from
//!   the variable log for logged reads, from the dictionary for
//!   unlogged ones) and the single write that overwrote it;
//! * the **first write** of the alleged history.
//!
//! After re-execution, [`VarStates::add_internal_state_edges_sharded`]
//! embeds the per-variable history into the execution graph `G` as WR,
//! WW, and RW edges, *and* checks that the write chain from the first
//! write covers exactly the writes that were re-executed — without this
//! coverage check, a server could park forged writes outside the chain
//! where no simulate-and-check would ever touch them.
//!
//! # Operations are ids
//!
//! An operation is named by its id in the audit's [`VarIndex`]: the
//! node id the coordinates give it, or an id past the nodes for a
//! coordinate `opcounts` does not cover (`var_index.rs`). Replay hands
//! over the node it is executing, the index turns the log's `prec`s
//! into ids once per audit, and everything here is keyed by `u32`. An
//! `OpRef` is decoded from the coordinates only to render a rejection.
//!
//! # Two halves
//!
//! `OnRead` and `OnWrite` are each split where the work stops depending
//! on one group only:
//!
//! * **resolve** ([`VarStates::resolve_read`],
//!   [`VarStates::resolve_write`]) consults the log and a dictionary
//!   and decides what the access is fed and which write it observed or
//!   overwrote. A group's replay runs it against the group's own state:
//!   the log is the same everywhere, and `FindNearestRPrecedingWrite`
//!   only ever reaches writes of the access's own request (one group
//!   replays a whole request) and the initialization.
//! * **apply** ([`VarStates::apply_read`], [`VarStates::apply_write`])
//!   records the outcome and runs the checks another group can fail:
//!   one overwriting write per write, one first write, and a logged
//!   value against the dictating write if that write has run
//!   *anywhere*. The merge runs it on the whole-audit state, in group
//!   order, at the position the access has in its group's stream.
//!
//! [`VarStates::on_read`] and [`VarStates::on_write`] are the two
//! halves back to back on one state, which is Figs. 20–21 as printed
//! and what the ungrouped `OOOAudit` replay calls. A grouped replay
//! runs them apart: [`GroupVars`] resolves a group's accesses and
//! records them, [`VarStates::merge_group`] applies the record.

use std::collections::BTreeMap;
use std::sync::Arc;

use kem::{OpRef, Value, VarId};

use crate::advice::AccessType;
use crate::advice_ref::{VarLogRef, VecMap};
use crate::verifier::coords::Coords;
use crate::verifier::graph::{EdgeKind, Graph};
use crate::verifier::pool;
use crate::verifier::reject::RejectReason;
use crate::verifier::var_index::{VarIndex, VarLog, NONE};

/// What is attached to one write: who read it and who overwrote it.
#[derive(Debug, Default)]
struct Observers {
    /// The reads that observed the write, in the order they were
    /// applied.
    readers: Vec<u32>,
    /// The write that overwrote it.
    overwritten_by: Option<u32>,
}

/// Per-variable verifier state. Keys are ids of the audit's
/// [`VarIndex`]; a write that ran is a node id.
#[derive(Debug, Default)]
struct VarState {
    /// The value of every write that was re-executed, by node. Node ids
    /// ascend in `(rid, hid, opnum)` order and an activation's
    /// operations are consecutive, so "the last write of a handler
    /// before an operation" is the last key of a range.
    dict: BTreeMap<u32, Value>,
    /// By write: its observers. The write may be one that has not run
    /// (yet, or ever) and is only named by a log.
    observers: BTreeMap<u32, Observers>,
    /// The alleged first write, for a variable the program does not
    /// initialize.
    first: Option<u32>,
}

/// All per-variable states, indexed densely by [`VarId`].
///
/// Variable ids are dense indices assigned at program build time (the
/// same resolve pass that interns identifiers), so a `Vec` slot per
/// variable replaces hashing on the replay hot path; untouched slots
/// stay `Default` and contribute nothing to the graph.
#[derive(Debug, Default)]
pub struct VarStates {
    /// Initialization writes recorded before the audit had coordinates
    /// (`init_vars` runs on a fresh state); [`VarStates::bind`] gives
    /// them ids.
    unbound: Vec<(VarId, OpRef, Value)>,
    /// By variable: the id and value of its trusted initialization
    /// write. The one thing every group's state shares with the
    /// whole-audit state, so it is shared and not copied.
    init: Arc<Vec<Option<(u32, Value)>>>,
    per: Vec<VarState>,
    feeds: FeedCounters,
}

/// How re-executed reads were fed: from a logged var-log entry
/// (R-concurrent accesses) or from the dictionary via
/// `FindNearestRPrecedingWrite` (R-ordered accesses). Plain `u64`
/// adds on the replay hot path — no branch, no allocation — whose
/// totals surface as the `logged_reads` / `dict_feeds` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FeedCounters {
    /// Reads satisfied from the advice dictionary.
    pub dict_feeds: u64,
    /// Reads satisfied by a logged var-log entry.
    pub logged_reads: u64,
}

/// How a resolved read was fed, and what is left to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fed {
    /// From the dictionary: the read is not logged.
    Dict,
    /// From the log, and the dictating write had already run where the
    /// read was resolved: its value was compared there.
    Log,
    /// From the log entry at this position, whose write had not run
    /// where the read was resolved. Another group may have run it: the
    /// apply half compares.
    LogUnchecked(u32),
}

/// A re-executed read, resolved.
#[derive(Debug, Clone, Copy)]
struct ReadEvent {
    var: VarId,
    /// The read's node.
    node: u32,
    /// The write it observed.
    from: u32,
    fed: Fed,
}

/// A re-executed write, resolved.
#[derive(Debug, Clone)]
struct WriteEvent {
    var: VarId,
    /// The write's node.
    node: u32,
    value: Value,
    /// The write it overwrote; `None` if it claims to be the first.
    prec: Option<u32>,
}

/// One shared-variable access of a group's replay, as far as the group
/// could decide it: what it is at, what it was fed from or overwrote.
#[derive(Debug)]
enum VarEvent {
    /// A re-executed read.
    Read(ReadEvent),
    /// A re-executed write.
    Write(WriteEvent),
    /// The access the group's own state refused, which ended the
    /// group's replay: the merge reports it here, behind whatever an
    /// earlier event of the stream fails against another group.
    Refused(RejectReason),
}

/// The variable state of one group's replay
/// ([`VarStates::group_vars`]): the trusted initialization writes plus
/// the writes the group re-executes, and the record of its accesses.
///
/// A group's unlogged reads only ever consult writes by their own
/// request's ancestors or the initialization — both present here — so
/// the values fed to the interpreter match the sequential audit's
/// exactly; and a chain conflict between two of the group's own writes
/// stops the group where the sequential audit stops.
#[doc(hidden)]
#[derive(Debug)]
pub struct GroupVars {
    local: VarStates,
    /// Accesses in group program order.
    events: Vec<VarEvent>,
}

/// A finished group's accesses in group program order, up to and
/// including the refused one if one ended the replay
/// ([`GroupVars::finish`]).
///
/// [`VarStates::merge_group`] applies the streams to the whole-audit
/// state in ascending group order. Cross-group checks — a dictating
/// write's logged value versus what its group's re-execution produced,
/// chain overwrite conflicts — fire there at exactly the event position
/// the sequential audit hits them, so verdict and reason are
/// independent of worker scheduling.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct GroupAccesses(Vec<VarEvent>);

impl GroupVars {
    /// An empty state for another group of the same audit.
    pub(crate) fn fresh(&self) -> GroupVars {
        self.local.group_vars()
    }

    /// [`VarStates::on_read`] as far as this group decides it.
    pub fn on_read(
        &mut self,
        var: VarId,
        node: u32,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        let resolved = self.local.resolve_read(var, node, log);
        self.record(resolved.map(|(value, event)| (value, VarEvent::Read(event))))
    }

    /// [`VarStates::on_write`] as far as this group decides it. The
    /// write takes its place in the group's own chain too.
    pub fn on_write(
        &mut self,
        var: VarId,
        node: u32,
        value: Value,
        log: &VarLog<'_>,
    ) -> Result<(), RejectReason> {
        let resolved = self.local.resolve_write(var, node, value, log);
        let applied = resolved.and_then(|event| {
            self.local.apply_write(event.clone())?;
            Ok(((), VarEvent::Write(event)))
        });
        self.record(applied)
    }

    /// Appends an access to the stream: the resolved event, or the
    /// refusal.
    fn record<T>(
        &mut self,
        access: Result<(T, VarEvent), RejectReason>,
    ) -> Result<T, RejectReason> {
        match access {
            Ok((out, event)) => {
                self.events.push(event);
                Ok(out)
            }
            Err(e) => {
                self.events.push(VarEvent::Refused(e.clone()));
                Err(e)
            }
        }
    }

    /// Ends the group's replay: its state is dropped, its accesses go
    /// to the merge.
    pub fn finish(self) -> GroupAccesses {
        GroupAccesses(self.events)
    }
}

impl GroupAccesses {
    /// `(reads, writes)` the group re-executed, and how the reads were
    /// fed.
    pub(crate) fn tally(&self) -> (u64, u64, FeedCounters) {
        let (mut reads, mut writes, mut feeds) = (0, 0, FeedCounters::default());
        for event in &self.0 {
            match event {
                VarEvent::Read(read) => {
                    reads += 1;
                    feeds.count(read.fed);
                }
                VarEvent::Write(_) => writes += 1,
                VarEvent::Refused(_) => {}
            }
        }
        (reads, writes, feeds)
    }
}

impl FeedCounters {
    fn count(&mut self, fed: Fed) {
        match fed {
            Fed::Dict => self.dict_feeds += 1,
            Fed::Log | Fed::LogUnchecked(_) => self.logged_reads += 1,
        }
    }
}

/// One variable's contribution to the execution graph: the WR / WW / RW
/// edges its write chain implies, as node-id pairs tagged with their
/// [`EdgeKind`]. Fragments are built independently per variable
/// (on the verifier's worker pool) and merged into `G` in
/// ascending-`VarId` order, so the final graph — and any rejection — is
/// identical regardless of how the assembly was sharded.
type EdgeFragment = Vec<(u32, u32, EdgeKind)>;

impl VarStates {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// How reads were fed so far (see [`FeedCounters`]). Read from the
    /// global state after the merge phase, the totals equal a
    /// sequential re-execution's regardless of worker count.
    pub fn feeds(&self) -> FeedCounters {
        self.feeds
    }

    /// Runs the trusted initialization write of `var` (the verifier
    /// runs the initialization phase itself; Fig. 14 line 20). A
    /// variable has one; it takes effect at [`VarStates::bind`].
    pub fn on_initialize(&mut self, var: VarId, op: OpRef, value: Value) {
        self.unbound.push((var, op, value));
    }

    /// Gives the initialization writes recorded so far their ids in
    /// `index`. [`crate::verifier::ReExecutor::new`] does this for the
    /// state it is handed; a test driving [`VarStates::on_read`] and
    /// [`VarStates::on_write`] itself does it before the first access
    /// (an access on a state with unbound writes is refused).
    #[doc(hidden)]
    pub fn bind(&mut self, index: &VarIndex) {
        if self.unbound.is_empty() {
            return;
        }
        let init = Arc::make_mut(&mut self.init);
        for (var, op, value) in self.unbound.drain(..) {
            let id = index.id_of(&op).unwrap_or_else(|| index.unnamed_id());
            let slot = var.0 as usize;
            if slot >= init.len() {
                init.resize(slot + 1, None);
            }
            if let Some(entry) = init.get_mut(slot) {
                *entry = Some((id, value));
            }
        }
    }

    /// An empty state for one group's replay: it knows the
    /// initialization writes and will learn the group's own writes,
    /// which is all [`VarStates::resolve_read`] and
    /// [`VarStates::resolve_write`] consult for a group's accesses.
    /// Costs a reference count; grows with what the group touches.
    #[doc(hidden)]
    pub fn group_vars(&self) -> GroupVars {
        GroupVars {
            local: VarStates {
                unbound: Vec::new(),
                init: Arc::clone(&self.init),
                per: Vec::new(),
                feeds: FeedCounters::default(),
            },
            events: Vec::new(),
        }
    }

    /// Applies one group's accesses to this, the whole-audit state, in
    /// the order the group made them; the first one another group makes
    /// fail — or the one the group itself refused — is the verdict.
    /// `index` and `var_logs` are what the group resolved against.
    #[doc(hidden)]
    pub fn merge_group(
        &mut self,
        accesses: GroupAccesses,
        index: &VarIndex,
        var_logs: &VecMap<VarId, VarLogRef>,
    ) -> Result<(), RejectReason> {
        self.bound()?;
        // The group resolved each access; what is left is what another
        // group can fail — and a write's value moves into the
        // dictionary, it is not copied out of the stream.
        for event in accesses.0 {
            match event {
                VarEvent::Read(read) => self.apply_read(&read, &index.log(var_logs, read.var))?,
                VarEvent::Write(write) => self.apply_write(write)?,
                VarEvent::Refused(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Refuses to work on a state whose initialization writes were
    /// never given ids: it would answer as if the program initialized
    /// nothing.
    fn bound(&self) -> Result<(), RejectReason> {
        if self.unbound.is_empty() {
            Ok(())
        } else {
            Err(RejectReason::VerifierInternal {
                what: "variable access before the initialization writes were bound".into(),
            })
        }
    }

    /// The state slot for `var`, growing the dense table on first
    /// touch (ids are dense, so the table tops out at the program's
    /// variable count).
    fn state_mut(&mut self, var: VarId) -> &mut VarState {
        let i = var.0 as usize;
        if i >= self.per.len() {
            self.per.resize_with(i + 1, VarState::default);
        }
        &mut self.per[i]
    }

    fn init_of(&self, var: VarId) -> Option<(u32, &Value)> {
        let (id, value) = self.init.get(var.0 as usize)?.as_ref()?;
        Some((*id, value))
    }

    /// The value the write `id` produced, if it has run here: a
    /// re-executed write of this state, or the trusted initialization
    /// (which `OnWrite` never simulate-and-checks).
    fn value_of(&self, var: VarId, id: u32) -> Option<&Value> {
        let executed = self.per.get(var.0 as usize).and_then(|s| s.dict.get(&id));
        executed.or_else(|| {
            self.init_of(var)
                .filter(|(init, _)| *init == id)
                .map(|(_, value)| value)
        })
    }

    /// `FindNearestRPrecedingWrite`: the latest write (under `<_R`)
    /// that precedes the operation at `node` — the last write of its
    /// own handler below it, else the last write of the nearest
    /// ancestor that wrote at all (an ancestor ran to completion before
    /// its descendants started, so all of its operations R-precede),
    /// else the initialization, everyone's ancestor.
    ///
    /// Ancestors are followed through [`Activation::parent`] — the
    /// activation index the coordinates resolved `hid.parent()` to —
    /// not through handler ids. That reaches every ancestor that can
    /// have written: a write is in the dictionary only if its handler
    /// was executed, replay executes a handler only from a slot it
    /// resolved when the handler was enqueued, a request handler has no
    /// parent, and any other handler is enqueued from its activator's
    /// own resolved slot and accepted only if its `parent` link is that
    /// slot's activation (`Coords::find_child_in`). So by induction an
    /// executed activation's links lead through executed activations up
    /// to its request handler, and an activation the advice leaves
    /// unlinked was never executed and wrote nothing.
    ///
    /// [`Activation::parent`]: crate::verifier::coords::Activation
    fn nearest_preceding(&self, var: VarId, node: u32, coords: &Coords) -> Option<(u32, &Value)> {
        let dict = self.per.get(var.0 as usize).map(|state| &state.dict);
        if let Some(dict) = dict.filter(|dict| !dict.is_empty()) {
            let acts = coords.activations();
            // The handler being searched and the node its search stops
            // below: the operation itself, then each ancestor's end.
            let mut scope = coords.activation_of(node).map(|act| (act, node));
            while let Some((act, below)) = scope {
                let first_op = act.start.saturating_add(1);
                if first_op < below {
                    if let Some((id, value)) = dict.range(first_op..below).next_back() {
                        return Some((*id, value));
                    }
                }
                scope = act
                    .parent
                    .and_then(|parent| acts.get(parent as usize))
                    .map(|parent| (parent, parent.end()));
            }
        }
        self.init_of(var)
    }

    /// Re-executes a read (Fig. 20 `OnRead`), returning the value to
    /// feed the program. `log` is the variable's log
    /// ([`VarIndex::log`]).
    pub fn on_read(
        &mut self,
        var: VarId,
        node: u32,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        let (value, event) = self.resolve_read(var, node, log)?;
        self.apply_read(&event, log)?;
        Ok(value)
    }

    /// The half of `OnRead` that one group decides: the value to feed
    /// and the write the read observed.
    fn resolve_read(
        &self,
        var: VarId,
        node: u32,
        log: &VarLog<'_>,
    ) -> Result<(Value, ReadEvent), RejectReason> {
        self.bound()?;
        let event = |from, fed| ReadEvent {
            var,
            node,
            from,
            fed,
        };
        let Some((position, entry)) = log.entry_at(node) else {
            // Unlogged read: it was R-ordered with its dictating write,
            // which therefore has already been re-executed; find it in
            // the dictionary.
            let Some((from, value)) = self.nearest_preceding(var, node, log.coords()) else {
                return Err(RejectReason::VarChainBroken {
                    why: "unlogged read has no R-preceding write",
                });
            };
            return Ok((value.clone(), event(from, Fed::Dict)));
        };
        // Logged read: the dictating write must itself be logged; feed
        // its value.
        if entry.access != AccessType::Read {
            return Err(log.mismatch(node, "re-executed read logged as write"));
        }
        let (from, dictating) = log.prec(position);
        if from == NONE {
            return Err(log.mismatch(node, "logged read lacks dictating write"));
        }
        let Some(w) = log.entry(dictating) else {
            return Err(log.mismatch(node, "dictating write not in log"));
        };
        if w.access != AccessType::Write {
            return Err(log.mismatch(node, "dictating entry is not a write"));
        }
        let Some(value) = &w.value else {
            return Err(log.mismatch(node, "dictating write has no value"));
        };
        // If the dictating write has already run (always true for the
        // trusted initialization writes, which are never
        // simulate-and-checked by OnWrite), its logged value must match
        // what execution actually produced — otherwise the server could
        // park poisoned values at coordinates that re-execution never
        // validates.
        let fed = match self.value_of(var, from) {
            Some(actual) if actual != value => {
                return Err(log.mismatch(
                    node,
                    "dictating write's logged value differs from execution",
                ));
            }
            Some(_) => Fed::Log,
            None => Fed::LogUnchecked(dictating),
        };
        Ok((value.clone(), event(from, fed)))
    }

    /// The half of `OnRead` that needs every group before it: counts
    /// the feed, compares a logged value against a dictating write the
    /// resolving state had not seen run, and records the observer.
    fn apply_read(&mut self, event: &ReadEvent, log: &VarLog<'_>) -> Result<(), RejectReason> {
        self.feeds.count(event.fed);
        if let Fed::LogUnchecked(dictating) = event.fed {
            if let Some(actual) = self.value_of(event.var, event.from) {
                let logged = log.entry(dictating).and_then(|w| w.value.as_ref());
                if logged != Some(actual) {
                    return Err(log.mismatch(
                        event.node,
                        "dictating write's logged value differs from execution",
                    ));
                }
            }
        }
        let observers = &mut self.state_mut(event.var).observers;
        observers
            .entry(event.from)
            .or_default()
            .readers
            .push(event.node);
        Ok(())
    }

    /// Re-executes a write (Fig. 21 `OnWrite`): simulate-and-check
    /// against the log, record the dictionary entry, and maintain the
    /// write chain.
    pub fn on_write(
        &mut self,
        var: VarId,
        node: u32,
        value: Value,
        log: &VarLog<'_>,
    ) -> Result<(), RejectReason> {
        let event = self.resolve_write(var, node, value, log)?;
        self.apply_write(event)
    }

    /// The half of `OnWrite` that one group decides: simulate-and-check
    /// against the log, and the write this one overwrote.
    fn resolve_write(
        &self,
        var: VarId,
        node: u32,
        value: Value,
        log: &VarLog<'_>,
    ) -> Result<WriteEvent, RejectReason> {
        self.bound()?;
        let logged_prec = match log.entry_at(node) {
            Some((position, entry)) => {
                if entry.access != AccessType::Write {
                    return Err(log.mismatch(node, "re-executed write logged as read"));
                }
                // Simulate-and-check: the re-executed value must equal
                // the logged one, validating whatever fed or will feed
                // logged reads (§4.3).
                if entry.value.as_ref() != Some(&value) {
                    return Err(log.mismatch(node, "logged write value differs from re-execution"));
                }
                Some(log.prec(position).0).filter(|prec| *prec != NONE)
            }
            None => None,
        };
        // An unlogged write, and a backfilled one (logged lazily, so
        // the log doesn't say what it overwrote), overwrote the nearest
        // R-preceding write: find it so the chain stays connected.
        let prec = logged_prec.or_else(|| {
            self.nearest_preceding(var, node, log.coords())
                .map(|(id, _)| id)
        });
        Ok(WriteEvent {
            var,
            node,
            value,
            prec,
        })
    }

    /// The half of `OnWrite` that needs every group before it: the
    /// dictionary entry, and the write's place in the chain.
    fn apply_write(&mut self, event: WriteEvent) -> Result<(), RejectReason> {
        let initialized = self.init_of(event.var).is_some();
        let state = self.state_mut(event.var);
        // Replay executes an operation once. Advice that makes it run a
        // handler twice gets the first value kept, as the per-handler
        // write lists kept it; the chain checks below refuse the second
        // write unless it claims to overwrite something else.
        state.dict.entry(event.node).or_insert(event.value);
        match event.prec {
            Some(prec) => {
                // Two handlers cannot overwrite the same value.
                let observers = state.observers.entry(prec).or_default();
                if observers.overwritten_by.is_some() {
                    return Err(RejectReason::VarChainBroken {
                        why: "two writes overwrite the same write",
                    });
                }
                observers.overwritten_by = Some(event.node);
            }
            None => {
                if initialized || state.first.is_some() {
                    return Err(RejectReason::VarChainBroken {
                        why: "two writes claim to be the first",
                    });
                }
                state.first = Some(event.node);
            }
        }
        Ok(())
    }

    /// Postprocessing (Fig. 21 `AddInternalStateEdges`): walks each
    /// variable's write chain from the first write, adding WR / WW / RW
    /// edges to `G`, and checks the chain covers exactly the
    /// re-executed writes. The per-variable fragments are built on
    /// `threads` threads, the calling one included, and taken in
    /// ascending `VarId` order: the first broken chain in that order
    /// rejects, and edges enter `G` in the same order at every thread
    /// count.
    pub fn add_internal_state_edges_sharded(
        &self,
        g: &mut Graph,
        threads: usize,
    ) -> Result<(), RejectReason> {
        // The dense table is already in ascending-`VarId` order;
        // untouched slots produce empty fragments.
        let nodes = u32::try_from(g.node_count()).unwrap_or(u32::MAX);
        let fragment = |var: usize| {
            let init = self.init.get(var).and_then(Option::as_ref);
            var_fragment(&self.per[var], init.map(|(id, _)| *id), nodes)
        };
        let fragments = pool::collect(threads, self.per.len(), &fragment)?;

        // Merge in VarId order.
        g.reserve(fragments.iter().map(Vec::len).sum());
        for (var, frag) in (0u32..).zip(&fragments) {
            for (from, to, kind) in frag {
                g.add_var_edge(*from, *to, *kind, VarId(var));
            }
        }
        Ok(())
    }
}

/// Walks one variable's write chain from its first write (Fig. 21
/// `AddInternalStateEdges`), returning the WR / WW / RW edges it
/// implies, or the chain-coverage rejection. `init` is the id of the
/// variable's initialization write; ids from `nodes` up are not nodes
/// of `G`.
///
/// Every write on the chain has run: the chain starts at the
/// initialization (or at a re-executed write that found nothing before
/// it) and continues through `overwritten_by`, which only a re-executed
/// write sets, to itself. So the chain covers the re-executed writes
/// exactly when it is as long as there are such writes, and it has a
/// cycle exactly when it gets longer — no visited set is kept.
fn var_fragment(
    state: &VarState,
    init: Option<u32>,
    nodes: u32,
) -> Result<EdgeFragment, RejectReason> {
    let mut edges: EdgeFragment = Vec::new();
    // The trusted initialization precedes everything, cannot
    // participate in a cycle and so gets no ordering edges; it is the
    // only write on the chain that is not a node.
    let in_g = |id: u32| id < nodes;
    // Readers and overwriting writes were re-executed, which replay
    // only does at a node; an id handed to `on_read` / `on_write` that
    // is none fails closed here instead of indexing `G` out of range.
    let endpoint = |id: u32| {
        if in_g(id) {
            Ok(id)
        } else {
            Err(RejectReason::VerifierInternal {
                what: "internal-state edge endpoint outside the coordinates".into(),
            })
        }
    };
    let executed = state.dict.len() + usize::from(init.is_some());
    let (mut chain_len, mut chain_observed) = (0usize, 0usize);
    let mut cur = init.or(state.first);
    while let Some(w) = cur {
        chain_len += 1;
        if chain_len > executed {
            return Err(RejectReason::VarChainBroken {
                why: "write chain has a cycle",
            });
        }
        let Some(observers) = state.observers.get(&w) else {
            break;
        };
        chain_observed += 1;
        if in_g(w) {
            for r in &observers.readers {
                edges.push((w, endpoint(*r)?, EdgeKind::VarWr));
            }
        }
        if let Some(w2) = observers.overwritten_by {
            let w2 = endpoint(w2)?;
            for r in &observers.readers {
                edges.push((endpoint(*r)?, w2, EdgeKind::VarRw));
            }
            if in_g(w) {
                edges.push((w, w2, EdgeKind::VarWw));
            }
        }
        cur = observers.overwritten_by;
    }
    // Coverage: every re-executed write must be on the chain (otherwise
    // its log entry escaped simulate-and-check's ordering constraints),
    // and no alleged observer may hang off a write that is not on the
    // chain.
    if chain_len != executed {
        return Err(RejectReason::VarChainBroken {
            why: "re-executed write not covered by the write chain",
        });
    }
    if chain_observed != state.observers.len() {
        // Every write that ran is on the chain, so what is left over is
        // attached to writes that never ran.
        let ran = |id: &u32| state.dict.contains_key(id) || Some(*id) == init;
        let mut off_chain = state.observers.iter().filter(|(id, _)| !ran(id));
        return Err(RejectReason::VarChainBroken {
            why: if off_chain.any(|(_, o)| !o.readers.is_empty()) {
                "read observes a write outside the chain"
            } else {
                "write observer attached outside the chain"
            },
        });
    }
    Ok(edges)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice::VarLogEntry;
    use crate::advice_ref::{VarLogRef, VecMap};
    use kem::{init_handler_id, FunctionId, HandlerId, RequestId};

    fn init_op() -> OpRef {
        OpRef::new(RequestId::INIT, init_handler_id(), 1)
    }

    fn var() -> VarId {
        VarId(0)
    }

    /// The coordinates of a few handler activations, the log of
    /// [`var`], and a state bound to both.
    struct Fixture {
        coords: Arc<Coords>,
        logs: VecMap<VarId, VarLogRef>,
        index: VarIndex,
        vs: VarStates,
    }

    impl Fixture {
        /// `acts` are `(rid, hid, opcount)`; requests are traced in
        /// ascending id order. `init` is the value of the trusted
        /// initialization write, if the variable has one.
        fn new(acts: &[(u64, &HandlerId, u32)], log: VarLogRef, init: Option<i64>) -> Self {
            let opcounts: VecMap<(RequestId, HandlerId), u32> = acts
                .iter()
                .map(|(rid, hid, count)| ((RequestId(*rid), (*hid).clone()), *count))
                .collect();
            let mut trace: Vec<RequestId> = opcounts.keys().map(|(rid, _)| *rid).collect();
            trace.dedup();
            let coords = Arc::new(Coords::build(&trace, &opcounts).unwrap());
            let logs: VecMap<VarId, VarLogRef> = [(var(), log)].into_iter().collect();
            let index = VarIndex::build(coords.clone(), &logs).unwrap();
            let mut vs = VarStates::new();
            if let Some(value) = init {
                vs.on_initialize(var(), init_op(), Value::int(value));
            }
            vs.bind(&index);
            Fixture {
                coords,
                logs,
                index,
                vs,
            }
        }

        fn node(&self, rid: u64, hid: &HandlerId, opnum: u32) -> u32 {
            self.coords
                .op_node(&OpRef::new(RequestId(rid), hid.clone(), opnum))
                .unwrap()
        }

        fn read(&mut self, rid: u64, hid: &HandlerId, opnum: u32) -> Result<Value, RejectReason> {
            let node = self.node(rid, hid, opnum);
            self.vs
                .on_read(var(), node, &self.index.log(&self.logs, var()))
        }

        fn write(
            &mut self,
            rid: u64,
            hid: &HandlerId,
            opnum: u32,
            value: i64,
        ) -> Result<(), RejectReason> {
            let node = self.node(rid, hid, opnum);
            let log = self.index.log(&self.logs, var());
            self.vs.on_write(var(), node, Value::int(value), &log)
        }

        fn edges(&self) -> Result<Graph, RejectReason> {
            let mut g = Graph::new(self.coords.clone());
            self.vs.add_internal_state_edges_sharded(&mut g, 1)?;
            Ok(g)
        }
    }

    fn op(rid: u64, hid: &HandlerId, opnum: u32) -> OpRef {
        OpRef::new(RequestId(rid), hid.clone(), opnum)
    }

    fn write_entry(value: i64, prec: Option<OpRef>) -> VarLogEntry {
        VarLogEntry {
            access: AccessType::Write,
            value: Some(Value::int(value)),
            prec,
        }
    }

    fn read_entry(prec: OpRef) -> VarLogEntry {
        VarLogEntry {
            access: AccessType::Read,
            value: None,
            prec: Some(prec),
        }
    }

    #[test]
    fn unlogged_read_fed_from_init() {
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 1)], VarLogRef::new(), Some(5));
        assert_eq!(fx.read(0, &h, 1).unwrap(), Value::int(5));
    }

    #[test]
    fn access_before_bind_is_refused() {
        // A state whose initialization writes have no ids yet would
        // answer as if the program initialized nothing; it refuses.
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 2)], VarLogRef::new(), None);
        fx.vs.on_initialize(var(), init_op(), Value::int(5));
        let internal =
            |r: Result<(), RejectReason>| matches!(r, Err(RejectReason::VerifierInternal { .. }));
        assert!(internal(fx.read(0, &h, 1).map(|_| ())));
        assert!(internal(fx.write(0, &h, 1, 9)));
        let group = fx.vs.group_vars().finish();
        assert!(internal(fx.vs.merge_group(group, &fx.index, &fx.logs)));
        fx.vs.bind(&fx.index);
        assert_eq!(fx.read(0, &h, 1).unwrap(), Value::int(5));
    }

    #[test]
    fn unlogged_read_prefers_same_handler_write() {
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 2)], VarLogRef::new(), Some(5));
        fx.write(0, &h, 1, 9).unwrap();
        assert_eq!(fx.read(0, &h, 2).unwrap(), Value::int(9));
    }

    #[test]
    fn unlogged_read_climbs_to_nearest_ancestor() {
        // Paper Fig. 4: a write by another request, re-executed in
        // between, must not shadow the ancestor's write when feeding an
        // unlogged read. Request 0's root writes 7 (unlogged — it
        // overwrote init, which is R-ordered); request 1's root writes
        // 3 (logged: it overwrote request 0's write, cross-request ⇒
        // R-concurrent); then request 0's child reads (unlogged: the
        // dictating write is its ancestor's) and must see 7, not 3.
        let root_a = HandlerId::root(FunctionId(0));
        let root_b = HandlerId::root(FunctionId(1));
        let child = HandlerId::child(&root_a, FunctionId(2), 2);
        let mut log = VarLogRef::new();
        log.insert(op(1, &root_b, 1), write_entry(3, Some(op(0, &root_a, 1))));
        let mut fx = Fixture::new(
            &[(0, &root_a, 2), (0, &child, 1), (1, &root_b, 1)],
            log,
            Some(0),
        );
        fx.write(0, &root_a, 1, 7).unwrap();
        fx.write(1, &root_b, 1, 3).unwrap();
        assert_eq!(fx.read(0, &child, 1).unwrap(), Value::int(7));
    }

    #[test]
    fn nearest_r_preceding_write_is_latest_strictly_before() {
        // Pins `FindNearestRPrecedingWrite` (Figs. 20/21) on the
        // node-ordered dictionary: among several same-handler writes
        // the dictating one is the *latest* with opnum strictly below
        // the read — never the read's own opnum, never a later write.
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 10)], VarLogRef::new(), Some(0));
        for (opnum, val) in [(2, 20), (5, 50), (9, 90)] {
            fx.write(0, &h, opnum, val).unwrap();
        }
        let mut read_at = |opnum: u32| fx.read(0, &h, opnum).unwrap();
        // Before any same-handler write: falls through to init.
        assert_eq!(read_at(1), Value::int(0));
        // Between writes: the latest strictly-preceding one.
        assert_eq!(read_at(3), Value::int(20));
        assert_eq!(read_at(4), Value::int(20));
        assert_eq!(read_at(6), Value::int(50));
        // At a write's own opnum: strictly-before, so the previous one.
        assert_eq!(read_at(5), Value::int(20));
        assert_eq!(read_at(9), Value::int(50));
        // Past the last write.
        assert_eq!(read_at(10), Value::int(90));
    }

    #[test]
    fn dictionary_finds_the_latest_write_whatever_order_the_writes_ran_in() {
        // Groups replay handlers in queue order, not coordinate order:
        // a dictionary filled newest handler first still answers by
        // position. Siblings are R-concurrent, so their writes are
        // logged, each over the one that ran before it.
        let root = HandlerId::root(FunctionId(0));
        let kids: Vec<HandlerId> = (1..=3)
            .map(|k| HandlerId::child(&root, FunctionId(k), k))
            .collect();
        let values = [10, 20, 30];
        let newest_first = [2usize, 1, 0];
        let mut log = VarLogRef::new();
        let mut overwritten = op(0, &root, 4);
        for k in newest_first {
            let at = op(0, &kids[k], 2);
            log.insert(at.clone(), write_entry(values[k], Some(overwritten)));
            overwritten = at;
        }
        let mut acts = vec![(0, &root, 4)];
        acts.extend(kids.iter().map(|kid| (0, kid, 3)));
        let mut fx = Fixture::new(&acts, log, Some(-1));
        fx.write(0, &root, 4, 40).unwrap();
        for k in newest_first {
            // Whichever sibling wrote before it, an unlogged read is
            // fed its ancestor's write.
            assert_eq!(fx.read(0, &kids[k], 1).unwrap(), Value::int(40));
            fx.write(0, &kids[k], 2, values[k]).unwrap();
        }
        for (kid, value) in kids.iter().zip(values) {
            assert_eq!(fx.read(0, kid, 3).unwrap(), Value::int(value));
        }
        fx.edges().unwrap();
    }

    #[test]
    fn unlinked_activations_never_ran_so_the_ancestor_walk_misses_nothing() {
        // `nearest_preceding` climbs `Activation::parent`. The
        // coordinates link every activation whose parent the advice
        // reports; one whose parent is missing stays unlinked — and
        // replay cannot have executed it (it is enqueued only from its
        // parent's resolved slot), so it has no writes to miss. An
        // unlogged read inside it falls through to the initialization,
        // exactly as the walk over `hid.parent()` did with an empty
        // dictionary for the unreported parent.
        let root = HandlerId::root(FunctionId(0));
        let ghost_parent = HandlerId::child(&root, FunctionId(7), 1);
        let orphan = HandlerId::child(&ghost_parent, FunctionId(8), 1);
        let linked = HandlerId::child(&root, FunctionId(1), 1);
        let mut fx = Fixture::new(
            &[(0, &root, 1), (0, &linked, 1), (0, &orphan, 1)],
            VarLogRef::new(),
            Some(0),
        );
        let acts = fx.coords.activations();
        assert_eq!(acts.len(), 3);
        for act in acts {
            let reported_parent = act.hid.parent().and_then(|p| fx.coords.find(act.rid, p));
            assert_eq!(
                act.parent.map(|p| &acts[p as usize].hid),
                reported_parent.map(|p| &p.hid),
                "{}: linked exactly when the parent is reported",
                act.hid
            );
        }
        fx.write(0, &root, 1, 11).unwrap();
        assert_eq!(fx.read(0, &linked, 1).unwrap(), Value::int(11));
        assert_eq!(fx.read(0, &orphan, 1).unwrap(), Value::int(0));
    }

    #[test]
    fn logged_read_fed_from_log() {
        let h = HandlerId::root(FunctionId(0));
        let mut log = VarLogRef::new();
        log.insert(op(1, &h, 1), write_entry(42, None));
        log.insert(op(0, &h, 1), read_entry(op(1, &h, 1)));
        let mut fx = Fixture::new(&[(0, &h, 1), (1, &h, 1)], log, Some(0));
        assert_eq!(fx.read(0, &h, 1).unwrap(), Value::int(42));
        assert_eq!(
            fx.vs.feeds(),
            FeedCounters {
                dict_feeds: 0,
                logged_reads: 1
            }
        );
    }

    #[test]
    fn logged_read_with_missing_dictating_write_rejected() {
        // The dictating write is a coordinate of a request the advice
        // reports no handler for, and has no entry of its own.
        let h = HandlerId::root(FunctionId(0));
        let mut log = VarLogRef::new();
        log.insert(op(0, &h, 1), read_entry(op(9, &h, 1)));
        let mut fx = Fixture::new(&[(0, &h, 1)], log, None);
        let err = fx.read(0, &h, 1).unwrap_err();
        assert!(
            matches!(
                &err,
                RejectReason::VarLogMismatch { at, why: "dictating write not in log" }
                    if *at == op(0, &h, 1)
            ),
            "{err}"
        );
    }

    #[test]
    fn simulate_and_check_rejects_wrong_logged_value() {
        let h = HandlerId::root(FunctionId(0));
        let mut log = VarLogRef::new();
        log.insert(op(0, &h, 1), write_entry(999, Some(init_op()))); // forged
        let mut fx = Fixture::new(&[(0, &h, 1)], log, Some(0));
        let err = fx.write(0, &h, 1, 1).unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarLogMismatch {
                why: "logged write value differs from re-execution",
                ..
            }
        ));
    }

    #[test]
    fn double_overwrite_rejected() {
        let h0 = HandlerId::root(FunctionId(0));
        let h1 = HandlerId::root(FunctionId(1));
        let mut log = VarLogRef::new();
        for (rid, h) in [(0, &h0), (1, &h1)] {
            // Both claim to overwrite init.
            log.insert(op(rid, h, 1), write_entry(1, Some(init_op())));
        }
        let mut fx = Fixture::new(&[(0, &h0, 1), (1, &h1, 1)], log, Some(0));
        fx.write(0, &h0, 1, 1).unwrap();
        let err = fx.write(1, &h1, 1, 1).unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarChainBroken {
                why: "two writes overwrite the same write"
            }
        ));
    }

    #[test]
    fn second_first_write_rejected() {
        // No initialization: the first unlogged write opens the chain,
        // and a backfilled write of another request that also found
        // nothing before it cannot open it again.
        let h = HandlerId::root(FunctionId(0));
        let mut log = VarLogRef::new();
        log.insert(op(1, &h, 1), write_entry(2, None));
        let mut fx = Fixture::new(&[(0, &h, 1), (1, &h, 1)], log, None);
        fx.write(0, &h, 1, 1).unwrap();
        let err = fx.write(1, &h, 1, 2).unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarChainBroken {
                why: "two writes claim to be the first"
            }
        ));
    }

    #[test]
    fn chain_edges_and_coverage() {
        let h0 = HandlerId::root(FunctionId(0));
        let h1 = HandlerId::root(FunctionId(1));
        let mut log = VarLogRef::new();
        log.insert(op(0, &h0, 1), write_entry(1, Some(init_op())));
        log.insert(op(1, &h1, 1), read_entry(op(0, &h0, 1)));
        let mut fx = Fixture::new(&[(0, &h0, 1), (1, &h1, 1)], log, Some(0));
        fx.write(0, &h0, 1, 1).unwrap();
        fx.read(1, &h1, 1).unwrap();
        // WR edge from the write to the read (init-side edges skipped).
        assert_eq!(fx.edges().unwrap().edge_count(), 1);
    }

    #[test]
    fn uncovered_write_rejected() {
        // A forged read observing a write that was never re-executed:
        // coverage must fail.
        let h = HandlerId::root(FunctionId(0));
        let phantom = op(7, &h, 3);
        let mut log = VarLogRef::new();
        log.insert(phantom.clone(), write_entry(66, None));
        log.insert(op(0, &h, 1), read_entry(phantom));
        let mut fx = Fixture::new(&[(0, &h, 1)], log, Some(0));
        // The read executes and observes the phantom; the phantom write
        // itself is never re-executed.
        fx.read(0, &h, 1).unwrap();
        let err = fx.edges().unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarChainBroken {
                why: "read observes a write outside the chain"
            }
        ));
    }

    #[test]
    fn overwritten_write_that_never_ran_breaks_the_chain() {
        // A write logged as overwriting a coordinate outside
        // `opcounts`: it is off the chain that starts at init, and the
        // dangling observer is reported only if every re-executed
        // write were covered — here the write itself is not.
        let h = HandlerId::root(FunctionId(0));
        let ghost = op(0, &HandlerId::child(&h, FunctionId(9), 1), 1);
        let mut log = VarLogRef::new();
        log.insert(op(0, &h, 1), write_entry(1, Some(ghost)));
        let mut fx = Fixture::new(&[(0, &h, 1)], log, Some(0));
        fx.write(0, &h, 1, 1).unwrap();
        let err = fx.edges().unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarChainBroken {
                why: "re-executed write not covered by the write chain"
            }
        ));
    }

    #[test]
    fn one_coordinate_keyed_in_two_logs_is_two_entries() {
        // Variable 0's log says the operation is a write of 1 over
        // init; variable 1's log keys the same coordinate as a read.
        // Each variable sees its own entry.
        let h = HandlerId::root(FunctionId(0));
        let other = VarId(1);
        let mut log0 = VarLogRef::new();
        log0.insert(op(0, &h, 1), write_entry(1, Some(init_op())));
        let mut log1 = VarLogRef::new();
        log1.insert(op(0, &h, 1), read_entry(op(0, &h, 1)));
        let opcounts: VecMap<(RequestId, HandlerId), u32> =
            [((RequestId(0), h.clone()), 1)].into_iter().collect();
        let coords = Arc::new(Coords::build(&[RequestId(0)], &opcounts).unwrap());
        let logs: VecMap<VarId, VarLogRef> = [(var(), log0), (other, log1)].into_iter().collect();
        let index = VarIndex::build(coords.clone(), &logs).unwrap();
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        vs.bind(&index);
        let node = coords.op_node(&op(0, &h, 1)).unwrap();
        vs.on_write(var(), node, Value::int(1), &index.log(&logs, var()))
            .unwrap();
        let err = vs
            .on_write(other, node, Value::int(1), &index.log(&logs, other))
            .unwrap_err();
        assert!(matches!(
            err,
            RejectReason::VarLogMismatch {
                why: "re-executed write logged as read",
                ..
            }
        ));
        // A variable the advice has no log for reads as unlogged.
        assert!(index.log(&logs, VarId(2)).entry_at(node).is_none());
    }
}
