//! Verifier-side program-variable machinery (§4.2–§4.3, Figs. 20–21):
//! per loggable variable, the writes that ran (which feed unlogged reads
//! via `FindNearestRPrecedingWrite`), the reads that observed each write
//! and the one write that overwrote it, and the alleged first write.
//! [`VarStates::add_internal_state_edges_sharded`] embeds each history
//! into `G` as WR, WW and RW edges, *and* checks that the write chain
//! covers exactly the re-executed writes — otherwise a server could park
//! forged writes where no simulate-and-check would touch them.
//!
//! An operation is named by its id in the audit's [`VarIndex`]: its node
//! id, or an id past the nodes for a coordinate `opcounts` does not
//! cover. An `OpRef` is decoded only to render a rejection.
//!
//! `OnRead` and `OnWrite` are split where the work stops depending on
//! one group, and each half has its own store (DESIGN.md §19):
//!
//! * **resolve** ([`Ran`]) consults the log and the writes that ran
//!   where the access is resolved — per variable and activation a span
//!   in node order ([`Written`]) for `FindNearestRPrecedingWrite` to
//!   search — and decides what the access is fed and which write it
//!   observed or overwrote. A group resolves against its own writes:
//!   the log is the same everywhere, and the nearest preceding write is
//!   one of the access's own request (a group replays whole requests)
//!   or the initialization.
//! * **apply** ([`VarStates::apply_read`], [`VarStates::apply_write`])
//!   records the outcome in the whole-audit [`WriteTable`] and runs the
//!   checks another group can fail. Every replay unit — a group, or the
//!   ungrouped replay's one unit — resolves into a [`GroupVars`], and
//!   the merge applies each unit's stream in order
//!   ([`VarStates::merge_group`]). [`VarStates::on_read`] /
//!   [`VarStates::on_write`] run the halves back to back, as
//!   Figs. 20–21 print them: the reference the tests hold the split to.
//!
//! A write that passes simulate-and-check keeps the log entry's value,
//! which the advice holds anyway, not the re-executed copy proved equal
//! to it: a later compare against it is a pointer compare. A write of a
//! map edit ([`Candidate::Edit`]) is checked against the logged map
//! without being built at all (DESIGN.md §19); only a write the log does
//! not hold builds its value.

use std::sync::Arc;

use kem_lang::{MapEdit, OpRef, Value, VarId};

use crate::advice::{AccessType, OpAt};
use crate::advice_ref::VecMap;
use crate::verifier::coords::Activation;
use crate::verifier::graph::{EdgeKind, Graph};
use crate::verifier::pool;
use crate::verifier::reject::RejectReason;
use crate::verifier::var_index::{act_of, VarIndex, VarLog, NONE};
use crate::wire::{RawValue, VarLogEntryView};

/// A variable's trusted initialization write.
#[derive(Debug, Clone)]
struct Init {
    id: u32,
    /// The activation `id` belongs to ([`act_of`]).
    act: u32,
    value: Value,
}

/// By variable.
type Inits = Vec<Option<Init>>;

fn init_of(init: &Inits, var: VarId) -> Option<&Init> {
    init.get(var.0 as usize)?.as_ref()
}

const OVERWRITTEN_TWICE: RejectReason = RejectReason::VarChainBroken {
    why: "two writes overwrite the same write",
};
const FIRST_TWICE: RejectReason = RejectReason::VarChainBroken {
    why: "two writes claim to be the first",
};

/// What a re-executed write produced, as simulate-and-check takes it:
/// its value, or the map edit that makes it, not yet applied.
#[derive(Debug, Clone)]
pub enum Candidate<'v> {
    /// The value written.
    Built(Value),
    /// A `map_insert` / `map_remove` of the variable's new value.
    Edit(MapEdit<'v>),
}

impl From<Value> for Candidate<'_> {
    fn from(v: Value) -> Self {
        Candidate::Built(v)
    }
}

impl Candidate<'_> {
    /// Whether `logged` is the value written.
    fn matches(&self, logged: &Value) -> bool {
        match self {
            Candidate::Built(v) => logged == v,
            Candidate::Edit(edit) => edit.eq_built(logged),
        }
    }

    /// The value written.
    fn build(self) -> Value {
        match self {
            Candidate::Built(v) => v,
            Candidate::Edit(edit) => edit.build(),
        }
    }
}

/// The resolve half's store: a run per `(variable, activation)` of the
/// writes that ran where the accesses are resolved. A worker hands it
/// from group to group; [`Written::clear`] costs what the last group
/// touched, and the buffers stay.
#[derive(Debug, Default)]
pub(crate) struct Written {
    /// By activation, one up ([`bucket`]): its newest run, [`NONE`] for
    /// none.
    at: Vec<u32>,
    runs: Vec<Run>,
    /// The runs' writes, by node. A handler runs its operations in
    /// order, so a write is a push; a node written again keeps its
    /// first value.
    values: Vec<(u32, Value)>,
    /// The runs' ids that the unit's writes overwrote — its own chain
    /// step — and, in a variable's run of no activation, [`NONE`] once
    /// one of them claimed to be the first.
    overwritten: Vec<(u32, ())>,
}

/// One variable's writes in one activation ([`act_of`]), and the ids of
/// that activation its writes overwrote: spans of the store's buffers.
#[derive(Debug)]
struct Run {
    var: VarId,
    act: u32,
    /// The activation's run for another variable; [`NONE`] ends them.
    next: u32,
    values: Span,
    overwritten: Span,
}

/// The slot of activation `act` in [`Written::at`]: [`NONE`], no
/// operation's, takes slot 0.
fn bucket(act: u32) -> usize {
    act.wrapping_add(1) as usize
}

/// `len` elements of a buffer from `start`, ascending by id without
/// repeats, with room for the next power of two of them.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of<V>(self, buffer: &[(u32, V)]) -> &[(u32, V)] {
        let start = self.start as usize;
        buffer.get(start..start + self.len as usize).unwrap_or(&[])
    }

    /// Puts `id` in the span of `buffer` with the value `make` builds,
    /// unless it is there; whether it went in. A full span grows in
    /// place at the buffer's end, and elsewhere moves there with twice
    /// the room; what it leaves is reclaimed at the clear.
    fn put<V: Default>(
        &mut self,
        buffer: &mut Vec<(u32, V)>,
        id: u32,
        make: impl FnOnce() -> V,
    ) -> bool {
        let at = match self.of(buffer) {
            [.., (last, _)] if *last < id => self.len as usize,
            [] => 0,
            items => match items.binary_search_by_key(&id, |(id, _)| *id) {
                Ok(_) => return false,
                Err(at) => at,
            },
        };
        if self.len == 0 || self.len.is_power_of_two() {
            let (end, room) = (buffer.len(), self.len.saturating_mul(2).max(1));
            if (self.start + self.len) as usize != end {
                buffer.resize_with(end + self.len as usize, Default::default);
                let moved = self.start as usize..(self.start + self.len) as usize;
                moved
                    .zip(end..)
                    .for_each(|(from, to)| buffer.swap(from, to));
                self.start = end as u32;
            }
            buffer.resize_with((self.start + room) as usize, Default::default);
        }
        let (start, end) = (self.start as usize, (self.start + self.len) as usize);
        buffer[end] = (id, make());
        buffer[start + at..=end].rotate_right(1);
        self.len += 1;
        true
    }
}

impl Written {
    /// The position of the run of `(var, act)`, if the unit has one.
    fn find(&self, var: VarId, act: u32) -> Option<usize> {
        let mut at = *self.at.get(bucket(act))? as usize;
        while let Some(run) = self.runs.get(at) {
            if run.var == var {
                return Some(at);
            }
            at = run.next as usize;
        }
        None
    }

    /// The position of the run of `(var, act)`, made on first touch.
    fn touch(&mut self, var: VarId, act: u32) -> usize {
        if let Some(at) = self.find(var, act) {
            return at;
        }
        let slot = bucket(act);
        if slot >= self.at.len() {
            self.at.resize(slot + 1, NONE);
        }
        let next = std::mem::replace(&mut self.at[slot], self.runs.len() as u32);
        let (values, overwritten) = Default::default();
        let run = Run {
            var,
            act,
            next,
            values,
            overwritten,
        };
        self.runs.push(run);
        self.runs.len() - 1
    }

    /// The writes of `var` in `act`, by node.
    fn values(&self, var: VarId, act: u32) -> &[(u32, Value)] {
        let run = self.find(var, act).and_then(|at| self.runs.get(at));
        run.map_or(&[], |run| run.values.of(&self.values))
    }

    /// Records the write at `node`, of activation `act`.
    fn write(&mut self, var: VarId, act: u32, node: u32, value: impl FnOnce() -> Value) {
        let at = self.touch(var, act);
        self.runs[at].values.put(&mut self.values, node, value);
    }

    /// Marks `id`, of activation `act`, overwritten by a write of `var`;
    /// `false` if a write of the unit already had.
    fn overwrite(&mut self, var: VarId, act: u32, id: u32) -> bool {
        let at = self.touch(var, act);
        self.runs[at]
            .overwritten
            .put(&mut self.overwritten, id, || ())
    }

    /// Forgets the unit's writes.
    pub(crate) fn clear(&mut self) {
        for run in &self.runs {
            if let Some(head) = self.at.get_mut(bucket(run.act)) {
                *head = NONE;
            }
        }
        self.runs.clear();
        self.values.clear();
        self.overwritten.clear();
    }
}

/// The apply half's store: a record per `(variable, id)` the merge met,
/// reached through a dense table over the id space. An id's records are
/// chained: at most one per variable of the program.
#[derive(Debug, Default)]
struct WriteTable {
    /// By id: its newest record, [`NONE`] for none. Sized to the id
    /// space ([`VarStates::bind`]) at the first record.
    head: Vec<u32>,
    ids: usize,
    records: Vec<Record>,
    /// Every applied read — the record it observed and its node — in
    /// apply order.
    reads: Vec<(u32, u32)>,
    /// By variable.
    chains: Vec<Chain>,
}

/// What the merge knows of one write.
#[derive(Debug)]
struct Record {
    var: VarId,
    id: u32,
    /// The id's record for another variable; [`NONE`] ends the chain.
    next: u32,
    /// The value the write produced, if it ran.
    value: Option<Value>,
    /// The write that overwrote it; [`NONE`] for none.
    overwritten_by: u32,
    observed: bool,
}

impl Record {
    /// Whether a reader or an overwriting write hangs off the write.
    fn attached(&self) -> bool {
        self.observed || self.overwritten_by != NONE
    }
}

/// One variable's chain, as far as the merge built it.
#[derive(Debug, Default, Clone, Copy)]
struct Chain {
    /// The alleged first write, for a variable nothing initializes.
    first: Option<u32>,
    /// Writes that ran, and records something is attached to.
    ran: usize,
    attached: usize,
}

impl WriteTable {
    /// The record of `(var, id)` and its position, if the merge met it.
    fn find(&self, var: VarId, id: u32) -> Option<(u32, &Record)> {
        let mut at = *self.head.get(id as usize)?;
        while let Some(record) = self.records.get(at as usize) {
            if record.var == var {
                return Some((at, record));
            }
            at = record.next;
        }
        None
    }

    /// The record of `(var, id)`, made on first touch, its position and
    /// the variable's chain.
    fn touch(&mut self, var: VarId, id: u32) -> (u32, &mut Record, &mut Chain) {
        let slot = id as usize;
        if slot >= self.head.len() {
            self.head.resize(self.ids.max(slot + 1), NONE);
        }
        let at = match self.find(var, id) {
            Some((at, _)) => at,
            None => {
                let next = std::mem::replace(&mut self.head[slot], self.records.len() as u32);
                self.records.push(Record {
                    var,
                    id,
                    next,
                    value: None,
                    overwritten_by: NONE,
                    observed: false,
                });
                self.records.len() as u32 - 1
            }
        };
        let v = var.0 as usize;
        if v >= self.chains.len() {
            self.chains.resize(v + 1, Chain::default());
        }
        (at, &mut self.records[at as usize], &mut self.chains[v])
    }

    /// The reads counting-sorted by record: record `at`'s readers, in
    /// apply order, are `nodes[starts[at]..starts[at + 1]]`.
    fn readers(&self) -> (Vec<u32>, Vec<u32>) {
        let mut starts = vec![0u32; self.records.len() + 1];
        for (at, _) in &self.reads {
            starts[*at as usize + 1] += 1;
        }
        let mut sum = 0;
        for start in &mut starts {
            sum += *start;
            *start = sum;
        }
        let (mut fill, mut nodes) = (starts.clone(), vec![0u32; self.reads.len()]);
        for (at, reader) in &self.reads {
            let next = &mut fill[*at as usize];
            nodes[*next as usize] = *reader;
            *next += 1;
        }
        (starts, nodes)
    }
}

/// All per-variable state of an audit (see the module docs). Variable
/// ids are dense indices assigned at program build time, so a `Vec`
/// slot per variable replaces hashing on the replay hot path.
#[derive(Debug, Default)]
pub struct VarStates {
    /// Initialization writes recorded before the audit had coordinates;
    /// [`VarStates::bind`] gives them ids.
    unbound: Vec<(VarId, OpRef, Value)>,
    /// Shared with every group's state, not copied.
    init: Arc<Inits>,
    /// Filled only by [`VarStates::on_write`].
    written: Written,
    table: WriteTable,
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
    /// where the read was resolved: the apply half compares.
    LogUnchecked(u32),
}

/// A re-executed read, resolved: at `node`, observing `from`.
#[derive(Debug, Clone, Copy)]
struct ReadEvent {
    var: VarId,
    node: u32,
    from: u32,
    fed: Fed,
}

/// A re-executed write, resolved: at `node`, overwriting `prec`, or
/// claiming to be the first.
#[derive(Debug, Clone)]
struct WriteEvent {
    var: VarId,
    node: u32,
    value: Value,
    prec: Option<u32>,
}

/// One shared-variable access of a group's replay, as far as the group
/// could decide it.
#[derive(Debug)]
enum VarEvent {
    Read(ReadEvent),
    Write(WriteEvent),
    /// The access the group refused, which ended its replay: the merge
    /// reports it behind what earlier events fail against other groups.
    Refused(RejectReason),
}

/// The variable state of one replay unit (a group, or the ungrouped
/// replay's every request): the shared initialization writes, the
/// writes the unit re-executes, and its accesses. A chain conflict
/// between two of the unit's own writes stops the unit where the
/// sequential audit stops.
#[doc(hidden)]
#[derive(Debug)]
pub struct GroupVars {
    init: Arc<Inits>,
    written: Written,
    /// Accesses in group program order.
    events: Vec<VarEvent>,
}

/// A finished group's accesses, up to the refused one if one ended the
/// replay. The merge applies them in ascending group order, so verdict
/// and reason do not depend on worker scheduling.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct GroupAccesses(Vec<VarEvent>);

impl GroupVars {
    /// A state for another group of the same audit over `written`, a
    /// cleared store, its stream reserved for `events` accesses.
    pub(crate) fn fresh(&self, events: usize, written: Written) -> GroupVars {
        GroupVars {
            init: Arc::clone(&self.init),
            written,
            events: Vec::with_capacity(events),
        }
    }

    /// [`VarStates::on_read`] as far as this group decides it.
    pub fn on_read(
        &mut self,
        var: VarId,
        node: u32,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        self.read(var, node, act_of(log.coords(), node), log)
    }

    /// [`GroupVars::on_read`] of the operation at `node` of activation
    /// `act`.
    pub(crate) fn read(
        &mut self,
        var: VarId,
        node: u32,
        act: u32,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        let resolved = Ran::of(&self.written, &self.init, var).resolve_read(node, act, log);
        self.record(resolved.map(|(value, event)| (value, VarEvent::Read(event))))
    }

    /// [`VarStates::on_write`] as far as this group decides it, with the
    /// checks of [`VarStates::apply_write`] on the group's own writes.
    pub fn on_write<'v>(
        &mut self,
        var: VarId,
        node: u32,
        value: impl Into<Candidate<'v>>,
        log: &VarLog<'_>,
    ) -> Result<(), RejectReason> {
        let act = act_of(log.coords(), node);
        self.write(var, node, act, value.into(), log).map(drop)
    }

    /// [`GroupVars::on_write`] of the operation at `node` of activation
    /// `act`, returning the value the write resolved to: the logged
    /// value it was checked against, or its own.
    pub(crate) fn write(
        &mut self,
        var: VarId,
        node: u32,
        act: u32,
        value: Candidate<'_>,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        let resolved = Ran::of(&self.written, &self.init, var).resolve_write(node, act, value, log);
        let initialized = init_of(&self.init, var).is_some();
        let written = &mut self.written;
        let stepped = resolved.and_then(|(event, prec_act)| {
            written.write(var, act, node, || event.value.clone());
            match event.prec {
                Some(prec) if !written.overwrite(var, prec_act, prec) => {
                    return Err(OVERWRITTEN_TWICE)
                }
                None if initialized || !written.overwrite(var, NONE, NONE) => {
                    return Err(FIRST_TWICE)
                }
                Some(_) | None => {}
            }
            Ok((event.value.clone(), VarEvent::Write(event)))
        });
        self.record(stepped)
    }

    /// Appends the resolved event, or the refusal.
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

    /// Ends the group's replay: its accesses go to the merge.
    pub fn finish(self) -> GroupAccesses {
        GroupAccesses(self.events)
    }

    /// [`GroupVars::finish`], handing back the store, cleared for the
    /// next group.
    pub(crate) fn finish_keeping(self) -> (GroupAccesses, Written) {
        let mut written = self.written;
        written.clear();
        (GroupAccesses(self.events), written)
    }
}

impl GroupAccesses {
    /// `(reads, writes)` the group re-executed, and how reads were fed.
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

/// One variable's WR / WW / RW edges, merged into `G` in ascending
/// `VarId` order whatever the sharding.
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
    /// `index`, and the write table its id space. `ReExecutor::new` does
    /// this; an access on a state with unbound writes is refused.
    #[doc(hidden)]
    pub fn bind(&mut self, index: &VarIndex) {
        self.table.ids = index.unnamed_id() as usize + 1;
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
            let act = index.act_of(id);
            init[slot] = Some(Init { id, act, value });
        }
    }

    /// An empty state for one replay unit.
    #[doc(hidden)]
    pub fn group_vars(&self) -> GroupVars {
        GroupVars {
            init: Arc::clone(&self.init),
            written: Written::default(),
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
        var_logs: &VecMap<'_, VarId, Vec<(OpAt, VarLogEntryView<'_>)>>,
    ) -> Result<(), RejectReason> {
        self.bound()?;
        for event in accesses.0 {
            match event {
                VarEvent::Read(read) => self.apply_read(&read, || index.log(var_logs, read.var))?,
                VarEvent::Write(write) => self.apply_write(write)?,
                VarEvent::Refused(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Refuses a state whose initialization writes were never given
    /// ids: it would answer as if the program initialized nothing.
    fn bound(&self) -> Result<(), RejectReason> {
        if self.unbound.is_empty() {
            Ok(())
        } else {
            Err(RejectReason::VerifierInternal {
                what: "variable access before the initialization writes were bound".into(),
            })
        }
    }

    /// Re-executes a read (Fig. 20 `OnRead`) on this state, both halves
    /// at once, returning the value to feed the program. `log` is
    /// [`VarIndex::log`] of `var`. Replay records through
    /// `GroupVars::on_read` instead; the tests check that split
    /// against this.
    pub fn on_read(
        &mut self,
        var: VarId,
        node: u32,
        log: &VarLog<'_>,
    ) -> Result<Value, RejectReason> {
        self.bound()?;
        let act = act_of(log.coords(), node);
        let (value, event) =
            Ran::of(&self.written, &self.init, var).resolve_read(node, act, log)?;
        self.apply_read(&event, || *log)?;
        Ok(value)
    }

    /// The half of `OnRead` that needs every group before it: counts
    /// the feed, compares a logged value against a dictating write the
    /// resolving state had not seen run, and records the reader. `log`
    /// is the read variable's, wanted only for that compare.
    fn apply_read<'l>(
        &mut self,
        event: &ReadEvent,
        log: impl FnOnce() -> VarLog<'l>,
    ) -> Result<(), RejectReason> {
        self.feeds.count(event.fed);
        if let Fed::LogUnchecked(dictating) = event.fed {
            let init = init_of(&self.init, event.var).filter(|init| init.id == event.from);
            let ran = self.table.find(event.var, event.from);
            let actual = ran.and_then(|(_, record)| record.value.as_ref());
            let actual = actual.or(init.map(|init| &init.value));
            let log = log();
            let logged = log.entry(dictating).and_then(|w| w.value.as_ref());
            let logged = logged.map(RawValue::value);
            if actual.is_some_and(|actual| logged != Some(actual)) {
                return Err(log.mismatch(
                    event.node,
                    "dictating write's logged value differs from execution",
                ));
            }
        }
        let (at, record, chain) = self.table.touch(event.var, event.from);
        chain.attached += usize::from(!record.attached());
        record.observed = true;
        self.table.reads.push((at, event.node));
        Ok(())
    }

    /// Re-executes a write (Fig. 21 `OnWrite`) on this state, both
    /// halves at once: simulate-and-check against the log, record the
    /// dictionary entry, and maintain the write chain. Replay records
    /// through `GroupVars::on_write` instead; the tests check that
    /// split against this.
    pub fn on_write(
        &mut self,
        var: VarId,
        node: u32,
        value: Value,
        log: &VarLog<'_>,
    ) -> Result<(), RejectReason> {
        self.bound()?;
        let act = act_of(log.coords(), node);
        let (event, _) =
            Ran::of(&self.written, &self.init, var).resolve_write(node, act, value.into(), log)?;
        let value = || event.value.clone();
        self.written.write(var, act, node, value);
        self.apply_write(event)
    }

    /// The half of `OnWrite` that needs every group before it: the
    /// write's value, and its place in the chain.
    fn apply_write(&mut self, event: WriteEvent) -> Result<(), RejectReason> {
        let initialized = init_of(&self.init, event.var).is_some();
        let (_, record, chain) = self.table.touch(event.var, event.node);
        // Advice that makes replay run a handler twice gets the first
        // value kept; the chain checks refuse the second write.
        if record.value.is_none() {
            record.value = Some(event.value);
            chain.ran += 1;
        }
        match event.prec {
            Some(prec) => {
                // Two handlers cannot overwrite the same value.
                let (_, record, chain) = self.table.touch(event.var, prec);
                if record.overwritten_by != NONE {
                    return Err(OVERWRITTEN_TWICE);
                }
                chain.attached += usize::from(!record.attached());
                record.overwritten_by = event.node;
            }
            None if initialized || chain.first.is_some() => return Err(FIRST_TWICE),
            None => chain.first = Some(event.node),
        }
        Ok(())
    }

    /// Postprocessing (Fig. 21 `AddInternalStateEdges`): each
    /// variable's chain's edges, and its coverage check, built on
    /// `threads` threads and taken in ascending `VarId` order, so the
    /// first broken chain and the edge order are those of one thread.
    pub fn add_internal_state_edges_sharded(
        &self,
        g: &mut Graph,
        threads: usize,
    ) -> Result<(), RejectReason> {
        let nodes = u32::try_from(g.node_count()).unwrap_or(u32::MAX);
        let readers = self.table.readers();
        let fragment = |var: usize| {
            let init = self.init.get(var).and_then(Option::as_ref);
            let init = init.map(|init| init.id);
            var_fragment(&self.table, &readers, VarId(var as u32), init, nodes)
        };
        // A variable the merge never met has an empty fragment.
        let fragments = pool::collect(threads, self.table.chains.len(), &fragment)?;

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

/// The resolve half for one variable: the writes that ran where the
/// access is resolved, and the initialization.
#[derive(Clone, Copy)]
struct Ran<'s> {
    written: &'s Written,
    var: VarId,
    init: Option<&'s Init>,
}

impl<'s> Ran<'s> {
    fn of(written: &'s Written, init: &'s Inits, var: VarId) -> Self {
        Ran {
            written,
            var,
            init: init_of(init, var),
        }
    }

    /// The value the write `id`, of activation `act`, produced, if it
    /// ran here (the trusted initialization always has).
    fn value_of(self, id: u32, act: u32) -> Option<&'s Value> {
        let values = self.written.values(self.var, act);
        let executed = values.binary_search_by_key(&id, |(node, _)| *node).ok();
        let executed = executed
            .and_then(|at| values.get(at))
            .map(|(_, value)| value);
        executed.or_else(|| {
            self.init
                .filter(|init| init.id == id)
                .map(|init| &init.value)
        })
    }

    /// `FindNearestRPrecedingWrite`: the latest write (under `<_R`)
    /// that precedes the operation at `node` of activation `act` — the
    /// last write of its own handler below it, else the last write of
    /// the nearest ancestor that wrote at all (an ancestor ran to
    /// completion before its descendants started, so all of its
    /// operations R-precede), else the initialization, everyone's
    /// ancestor — with the activation it belongs to. Ancestors are
    /// followed through `Activation::parent`, which reaches every
    /// ancestor that can have written (DESIGN.md §19, and
    /// `unlinked_activations_never_ran_so_the_ancestor_walk_misses_nothing`).
    fn nearest_preceding(
        self,
        node: u32,
        act: u32,
        acts: &[Activation],
    ) -> Option<(u32, u32, &'s Value)> {
        // The handler being searched and the node its search stops
        // below: the operation itself, then each ancestor's end.
        let mut scope = acts
            .get(act as usize)
            .map(|activation| (act, activation, node));
        while let Some((act, activation, below)) = scope {
            let values = self.written.values(self.var, act);
            let before = values.partition_point(|(node, _)| *node < below);
            let last = before.checked_sub(1).and_then(|last| values.get(last));
            if let Some((id, value)) = last.filter(|(id, _)| *id > activation.start) {
                return Some((*id, act, value));
            }
            scope = activation.parent().and_then(|parent| {
                let activation = acts.get(parent as usize)?;
                Some((parent, activation, activation.end()))
            });
        }
        self.init.map(|init| (init.id, init.act, &init.value))
    }

    /// The half of `OnRead` that one group decides: the value to feed
    /// and the write the read observed.
    fn resolve_read(
        self,
        node: u32,
        act: u32,
        log: &VarLog<'_>,
    ) -> Result<(Value, ReadEvent), RejectReason> {
        let event = |from, fed| ReadEvent {
            var: self.var,
            node,
            from,
            fed,
        };
        let Some((position, entry)) = log.entry_at(node, act) else {
            // Unlogged read: it was R-ordered with its dictating write,
            // which has therefore run; find it.
            let acts = log.coords().activations();
            let Some((from, _, value)) = self.nearest_preceding(node, act, acts) else {
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
        let (from, from_act) = log.prec(position);
        if from == NONE {
            return Err(log.mismatch(node, "logged read lacks dictating write"));
        }
        let Some((dictating, w)) = log.entry_at(from, from_act) else {
            return Err(log.mismatch(node, "dictating write not in log"));
        };
        if w.access != AccessType::Write {
            return Err(log.mismatch(node, "dictating entry is not a write"));
        }
        let Some(value) = w.value.as_ref().map(RawValue::value) else {
            return Err(log.mismatch(node, "dictating write has no value"));
        };
        // A dictating write that has run (the initialization always
        // has) must have logged what it produced — otherwise the server
        // could park poisoned values where replay never validates them.
        let fed = match self.value_of(from, from_act) {
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

    /// The half of `OnWrite` that one group decides: simulate-and-check
    /// against the log, and the write this one overwrote with the
    /// activation it belongs to ([`NONE`] for none).
    fn resolve_write(
        self,
        node: u32,
        act: u32,
        value: Candidate<'_>,
        log: &VarLog<'_>,
    ) -> Result<(WriteEvent, u32), RejectReason> {
        let (value, logged_prec) = match log.entry_at(node, act) {
            Some((position, entry)) => {
                if entry.access != AccessType::Write {
                    return Err(log.mismatch(node, "re-executed write logged as read"));
                }
                // Simulate-and-check: the re-executed value must equal
                // the logged one, validating whatever fed or will feed
                // logged reads (§4.3). The logged value is kept, and a
                // map edit is checked against it without being built.
                let logged = entry.value.as_ref().map(RawValue::value);
                let Some(logged) = logged.filter(|logged| value.matches(logged)) else {
                    return Err(log.mismatch(node, "logged write value differs from re-execution"));
                };
                let prec = Some(log.prec(position)).filter(|(prec, _)| *prec != NONE);
                (logged.clone(), prec)
            }
            None => (value.build(), None),
        };
        // An unlogged write, and a backfilled one (logged lazily, so
        // the log doesn't say what it overwrote), overwrote the nearest
        // R-preceding write: find it so the chain stays connected.
        let prec = logged_prec.or_else(|| {
            let acts = log.coords().activations();
            let (id, act, _) = self.nearest_preceding(node, act, acts)?;
            Some((id, act))
        });
        let event = WriteEvent {
            var: self.var,
            node,
            value,
            prec: prec.map(|(id, _)| id),
        };
        Ok((event, prec.map_or(NONE, |(_, act)| act)))
    }
}

/// Walks one variable's write chain from its first write, returning the
/// edges it implies or the coverage rejection. `init` is the id of its
/// initialization write; ids from `nodes` up are not nodes of `G`.
///
/// Every write on the chain has run: it starts at the initialization or
/// at a re-executed write and continues through `overwritten_by`, which
/// only a re-executed write sets. So the chain covers the re-executed
/// writes exactly when it is as long, and has a cycle exactly when it
/// gets longer — no visited set is kept.
fn var_fragment(
    table: &WriteTable,
    (starts, readers): &(Vec<u32>, Vec<u32>),
    var: VarId,
    init: Option<u32>,
    nodes: u32,
) -> Result<EdgeFragment, RejectReason> {
    let mut edges: EdgeFragment = Vec::new();
    // The trusted initialization precedes everything, cannot
    // participate in a cycle and so gets no ordering edges; it is the
    // only write on the chain that is not a node.
    let in_g = |id: u32| id < nodes;
    // Readers and overwriting writes ran at nodes; an id that is none
    // fails closed here instead of indexing `G` out of range.
    let endpoint = |id: u32| {
        if in_g(id) {
            Ok(id)
        } else {
            Err(RejectReason::VerifierInternal {
                what: "internal-state edge endpoint outside the coordinates".into(),
            })
        }
    };
    let chain = table.chains.get(var.0 as usize).copied();
    let chain = chain.unwrap_or_default();
    let executed = chain.ran + usize::from(init.is_some());
    let (mut chain_len, mut chain_attached) = (0usize, 0usize);
    let mut cur = init.or(chain.first);
    while let Some(w) = cur {
        chain_len += 1;
        if chain_len > executed {
            return Err(RejectReason::VarChainBroken {
                why: "write chain has a cycle",
            });
        }
        let Some((at, record)) = table.find(var, w).filter(|(_, r)| r.attached()) else {
            break;
        };
        chain_attached += 1;
        let at = at as usize;
        let observed = &readers[starts[at] as usize..starts[at + 1] as usize];
        if in_g(w) {
            for r in observed {
                edges.push((w, endpoint(*r)?, EdgeKind::VarWr));
            }
        }
        cur = Some(record.overwritten_by).filter(|w2| *w2 != NONE);
        if let Some(w2) = cur {
            let w2 = endpoint(w2)?;
            for r in observed {
                edges.push((endpoint(*r)?, w2, EdgeKind::VarRw));
            }
            if in_g(w) {
                edges.push((w, w2, EdgeKind::VarWw));
            }
        }
    }
    // Coverage: every re-executed write must be on the chain (otherwise
    // its log entry escaped simulate-and-check's ordering constraints),
    // and nothing may hang off a write that is not on the chain.
    if chain_len != executed {
        return Err(RejectReason::VarChainBroken {
            why: "re-executed write not covered by the write chain",
        });
    }
    if chain_attached != chain.attached {
        // Every write that ran is on the chain, so what is left over is
        // attached to writes that never ran.
        let ran = |r: &Record| r.value.is_some() || Some(r.id) == init;
        let mut off_chain =
            (table.records.iter()).filter(|r| r.var == var && r.attached() && !ran(r));
        return Err(RejectReason::VarChainBroken {
            why: if off_chain.any(|r| r.observed) {
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
mod store_model;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice::{self, VarLogEntry};
    use crate::advice_ref::{by_hand, AdviceRef};
    use crate::verifier::coords::Coords;
    use kem_lang::{init_handler_id, FunctionId, HandlerId, PMap, RequestId};

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
        advice: AdviceRef<'static>,
        index: VarIndex,
        vs: VarStates,
    }

    impl Fixture {
        /// `acts` are `(rid, hid, opcount)`; requests are traced in
        /// ascending id order. `init` is the value of the trusted
        /// initialization write, if the variable has one.
        fn new(acts: &[(u64, &HandlerId, u32)], log: advice::VarLog, init: Option<i64>) -> Self {
            let opcounts = acts
                .iter()
                .map(|(rid, hid, count)| ((RequestId(*rid), (*hid).clone()), *count))
                .collect();
            let advice = by_hand::advice(&opcounts, &[(var(), log)].into());
            let mut trace: Vec<RequestId> = acts.iter().map(|(rid, ..)| RequestId(*rid)).collect();
            trace.sort();
            trace.dedup();
            let coords = Arc::new(Coords::build(&trace, &advice).unwrap());
            let index = VarIndex::build(coords.clone(), &advice.var_logs).unwrap();
            let mut vs = VarStates::new();
            if let Some(value) = init {
                vs.on_initialize(var(), init_op(), Value::int(value));
            }
            vs.bind(&index);
            Fixture {
                coords,
                advice,
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
                .on_read(var(), node, &self.index.log(&self.advice.var_logs, var()))
        }

        fn write(
            &mut self,
            rid: u64,
            hid: &HandlerId,
            opnum: u32,
            value: i64,
        ) -> Result<(), RejectReason> {
            let node = self.node(rid, hid, opnum);
            let log = self.index.log(&self.advice.var_logs, var());
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
        let mut fx = Fixture::new(&[(0, &h, 1)], advice::VarLog::new(), Some(5));
        assert_eq!(fx.read(0, &h, 1).unwrap(), Value::int(5));
    }

    #[test]
    fn access_before_bind_is_refused() {
        // A state whose initialization writes have no ids yet would
        // answer as if the program initialized nothing; it refuses.
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 2)], advice::VarLog::new(), None);
        fx.vs.on_initialize(var(), init_op(), Value::int(5));
        let internal =
            |r: Result<(), RejectReason>| matches!(r, Err(RejectReason::VerifierInternal { .. }));
        assert!(internal(fx.read(0, &h, 1).map(|_| ())));
        assert!(internal(fx.write(0, &h, 1, 9)));
        let group = fx.vs.group_vars().finish();
        assert!(internal(fx.vs.merge_group(
            group,
            &fx.index,
            &fx.advice.var_logs
        )));
        fx.vs.bind(&fx.index);
        assert_eq!(fx.read(0, &h, 1).unwrap(), Value::int(5));
    }

    #[test]
    fn unlogged_read_prefers_same_handler_write() {
        let h = HandlerId::root(FunctionId(0));
        let mut fx = Fixture::new(&[(0, &h, 2)], advice::VarLog::new(), Some(5));
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
        let mut log = advice::VarLog::new();
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
        let mut fx = Fixture::new(&[(0, &h, 10)], advice::VarLog::new(), Some(0));
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
        let mut log = advice::VarLog::new();
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
    fn a_write_behind_its_handlers_last_is_put_in_order() {
        // Advice that runs a handler twice makes a group write below its
        // last write: the write is put in place, and a read between the
        // two is fed the one below it. The writes name distinct ghost
        // writes as overwritten, so the group's chain step passes.
        let h = HandlerId::root(FunctionId(0));
        let ghost = |opnum| op(0, &HandlerId::child(&h, FunctionId(9), 1), opnum);
        let mut log = advice::VarLog::new();
        log.insert(op(0, &h, 1), write_entry(10, Some(ghost(1))));
        log.insert(op(0, &h, 3), write_entry(30, Some(ghost(2))));
        let fx = Fixture::new(&[(0, &h, 4)], log, Some(0));
        let log = fx.index.log(&fx.advice.var_logs, var());
        let mut group = fx.vs.group_vars();
        let node = |opnum| fx.node(0, &h, opnum);
        group
            .on_write(var(), node(3), Value::int(30), &log)
            .unwrap();
        group
            .on_write(var(), node(1), Value::int(10), &log)
            .unwrap();
        let act = fx.coords.act_of(node(1)).unwrap();
        let written = group.written.values(var(), act);
        assert_eq!(
            written.iter().map(|(node, _)| *node).collect::<Vec<_>>(),
            [node(1), node(3)]
        );
        assert_eq!(group.on_read(var(), node(2), &log).unwrap(), Value::int(10));
        assert_eq!(group.on_read(var(), node(4), &log).unwrap(), Value::int(30));
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
            advice::VarLog::new(),
            Some(0),
        );
        let acts = fx.coords.activations();
        assert_eq!(acts.len(), 3);
        let hid = |act| fx.coords.hid(act).unwrap();
        for act in acts {
            let parent = hid(act).parent().and_then(|p| fx.coords.paths().rank(p));
            let within = fx.coords.activations_of(act.rid);
            let reported_parent = parent.and_then(|p| fx.coords.find_in(&within, p));
            assert_eq!(
                act.parent().map(|p| hid(&acts[p as usize])),
                reported_parent.map(hid),
                "{}: linked exactly when the parent is reported",
                hid(act)
            );
        }
        fx.write(0, &root, 1, 11).unwrap();
        assert_eq!(fx.read(0, &linked, 1).unwrap(), Value::int(11));
        assert_eq!(fx.read(0, &orphan, 1).unwrap(), Value::int(0));
    }

    #[test]
    fn logged_read_fed_from_log() {
        let h = HandlerId::root(FunctionId(0));
        let mut log = advice::VarLog::new();
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
    fn checked_write_keeps_the_logged_value() {
        // Simulate-and-check proves the re-executed map equal to the
        // logged one. The state keeps the advice's map, not the copy,
        // and an unlogged read behind the write in its handler is fed
        // that same map — on one state, and in a group and its merge.
        let h = HandlerId::root(FunctionId(0));
        let map = || Value::map([("k", Value::int(1))]);
        let mut log = advice::VarLog::new();
        let entry = VarLogEntry {
            access: AccessType::Write,
            value: Some(map()),
            prec: Some(init_op()),
        };
        log.insert(op(0, &h, 1), entry);
        let logged = |fx: &Fixture| {
            // The log's one entry.
            let entry = fx.advice.var_logs.get(&var()).and_then(|log| log.first());
            match entry
                .and_then(|(_, e)| e.value.as_ref())
                .map(RawValue::value)
            {
                Some(Value::Map(m)) => Some(m.clone()),
                _ => None,
            }
        };
        let shared = |value: Option<&Value>, logged: Option<PMap>| match (value, logged) {
            (Some(Value::Map(v)), Some(logged)) => v.ptr_eq(&logged),
            _ => false,
        };
        let kept = |fx: &Fixture, node| {
            let record = fx.vs.table.find(var(), node);
            shared(record.and_then(|(_, r)| r.value.as_ref()), logged(fx))
        };

        let mut fx = Fixture::new(&[(0, &h, 2)], log.clone(), Some(0));
        let (write, read) = (fx.node(0, &h, 1), fx.node(0, &h, 2));
        let log0 = fx.index.log(&fx.advice.var_logs, var());
        fx.vs.on_write(var(), write, map(), &log0).unwrap();
        assert!(!shared(Some(&map()), logged(&fx)), "a fresh map is a copy");
        assert!(kept(&fx, write));
        let fed = fx.read(0, &h, 2).unwrap();
        assert!(shared(Some(&fed), logged(&fx)));

        let mut fx = Fixture::new(&[(0, &h, 2)], log, Some(0));
        let log0 = fx.index.log(&fx.advice.var_logs, var());
        let mut group = fx.vs.group_vars();
        group.on_write(var(), write, map(), &log0).unwrap();
        let fed = group.on_read(var(), read, &log0).unwrap();
        assert!(shared(Some(&fed), logged(&fx)));
        fx.vs
            .merge_group(group.finish(), &fx.index, &fx.advice.var_logs)
            .unwrap();
        assert!(kept(&fx, write));
    }

    #[test]
    fn logged_read_with_missing_dictating_write_rejected() {
        // The dictating write is a coordinate of a request the advice
        // reports no handler for, and has no entry of its own.
        let h = HandlerId::root(FunctionId(0));
        let mut log = advice::VarLog::new();
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
        let mut log = advice::VarLog::new();
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
        let mut log = advice::VarLog::new();
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
    fn a_group_refuses_a_conflict_between_its_own_writes() {
        // The group stops at the access the sequential audit stops at,
        // not only at the merge: it would otherwise replay on and bill
        // fuel the sequential audit never spends.
        let h = HandlerId::root(FunctionId(0));
        let mut log = advice::VarLog::new();
        for opnum in [1, 2] {
            log.insert(op(0, &h, opnum), write_entry(1, Some(init_op())));
        }
        let fx = Fixture::new(&[(0, &h, 2)], log, Some(0));
        let log = fx.index.log(&fx.advice.var_logs, var());
        let mut group = fx.vs.group_vars();
        group
            .on_write(var(), fx.node(0, &h, 1), Value::int(1), &log)
            .unwrap();
        let second = group.on_write(var(), fx.node(0, &h, 2), Value::int(1), &log);
        assert_eq!(second, Err(OVERWRITTEN_TWICE));

        // Siblings that find no write before them, with nothing
        // initialized: each claims to be the first.
        let kids = [1, 2].map(|k| HandlerId::child(&h, FunctionId(k), k));
        let acts = [(0, &h, 1), (0, &kids[0], 1), (0, &kids[1], 1)];
        let fx = Fixture::new(&acts, advice::VarLog::new(), None);
        let log = fx.index.log(&fx.advice.var_logs, var());
        let mut group = fx.vs.group_vars();
        let mut write = |kid| group.on_write(var(), fx.node(0, kid, 1), Value::int(1), &log);
        assert_eq!(write(&kids[0]), Ok(()));
        assert_eq!(write(&kids[1]), Err(FIRST_TWICE));
    }

    #[test]
    fn second_first_write_rejected() {
        // No initialization: the first unlogged write opens the chain,
        // and a backfilled write of another request that also found
        // nothing before it cannot open it again.
        let h = HandlerId::root(FunctionId(0));
        let mut log = advice::VarLog::new();
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
        let mut log = advice::VarLog::new();
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
        let mut log = advice::VarLog::new();
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
        let mut log = advice::VarLog::new();
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
        let mut log0 = advice::VarLog::new();
        log0.insert(op(0, &h, 1), write_entry(1, Some(init_op())));
        let mut log1 = advice::VarLog::new();
        log1.insert(op(0, &h, 1), read_entry(op(0, &h, 1)));
        let opcounts = [((RequestId(0), h.clone()), 1)].into();
        let advice = by_hand::advice(&opcounts, &[(var(), log0), (other, log1)].into());
        let coords = Arc::new(Coords::build(&[RequestId(0)], &advice).unwrap());
        let logs = advice.var_logs;
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
        let act = coords.act_of(node).unwrap();
        assert!(index.log(&logs, VarId(2)).entry_at(node, act).is_none());
    }
}
