//! The variable logs on the audit's coordinates.
//!
//! A variable log is keyed by operation coordinate and its entries
//! point at other coordinates (`prec`: the dictating or overwritten
//! write). Re-execution asks two things of it, once per access: *is
//! this operation logged*, and *which entry does its `prec` name*.
//! [`VarIndex`] answers both with integers. It is built once per audit,
//! inside preprocess next to the [`Coords`], and gives every coordinate
//! a variable log mentions an id:
//!
//! * a coordinate `opcounts` covers is its **node id**;
//! * any other — the trusted initialization writes, which belong to no
//!   request, and whatever a hostile log names outside the reported
//!   handlers — gets an id **past `node_count()`**, handed out in the
//!   order the coordinates are met. Such a coordinate can be an entry's
//!   key or a `prec`, it can be observed and overwritten, and it has to
//!   stay equal to itself and distinct from everything else for the
//!   chain checks to reach the verdicts they reach on `OpRef`s; it just
//!   never becomes an endpoint in `G`.
//!
//! The index is dense over the activations ([`act_of`]): a log keys an
//! activation's operations in one run of entries, in operation order,
//! so `head` gives each activation the newest log's run, the runs of
//! other logs are chained (`next`), and "is this operation logged" is a
//! search of the ids of one activation's run. An id past the nodes is
//! an activation of its own, whose run is its one entry. Per entry the
//! index keeps the chain link, the id of its key, and the id of its
//! `prec` with the activation that id belongs to, and per request its
//! entry count: four bytes an activation and sixteen an entry. A
//! coordinate keyed in two variables' logs is two entries, one per log,
//! on one chain.
//!
//! Resolution walks each log in key order. A coordinate of the advice
//! carries its handler's path rank ([`crate::OpAt`]), so it resolves by
//! searching integers ([`Coords::find_in`]); keys, and in an honest log
//! most `prec`s, come in runs of one request, whose activations are
//! looked up once per run ([`RequestRun`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use kem_lang::{OpRef, RequestId, VarId};

use crate::advice::OpAt;
use crate::advice_ref::VecMap;
use crate::verifier::coords::{Coords, RequestRun};
use crate::verifier::reject::{RejectReason, ResourceKind};
use crate::wire::VarLogEntryView;

/// "No such id / no such entry" in the index's `u32` columns. The build
/// refuses an id space that would reach it.
pub(crate) const NONE: u32 = u32::MAX;

/// One variable log's columns.
#[derive(Debug)]
struct LogIndex {
    /// The number of the log's first entry: entries are numbered across
    /// the logs, one log after another.
    base: u32,
    /// Per entry: the id of its `prec` and the activation that id
    /// belongs to ([`act_of`]); [`NONE`] twice for none.
    prec: Vec<(u32, u32)>,
}

/// Every variable log of one audit's advice, indexed by id (see the
/// module docs).
#[derive(Debug)]
pub struct VarIndex {
    coords: Arc<Coords>,
    /// By activation ([`act_of`]): the number of the first entry of the
    /// newest log's run of entries keyed in it, [`NONE`] for none. As
    /// long as the activations a log keys, and the ids past the nodes.
    head: Vec<u32>,
    /// By entry number, at the first entry of a run: the run of the same
    /// activation in the log before, [`NONE`] ending the chain. Numbers
    /// ascend with the logs, so a chain descends through them.
    next: Vec<u32>,
    /// By entry number: the id of the entry's key. A run's ascend.
    ids: Vec<u32>,
    /// One per entry of the `var_logs` the index was built from, in the
    /// same order.
    logs: Vec<LogIndex>,
    /// The coordinates outside `opcounts` that some log names.
    outside: BTreeMap<OpAt, u32>,
    /// By request, ascending: the entries keyed at its coordinates.
    keyed: Vec<(RequestId, u32)>,
}

/// The activation an id belongs to in variable state: the one that owns
/// a node, and for an id past the nodes one of its own past the
/// activations, which no handler runs. [`NONE`] for no operation's node.
pub(crate) fn act_of(coords: &Coords, id: u32) -> u32 {
    match id.checked_sub(coords.node_count() as u32) {
        Some(past) => (coords.activations().len() as u32).saturating_add(past),
        None => coords.act_of(id).unwrap_or(NONE),
    }
}

/// The graph-node resource verdict, for an index whose ids or entries
/// would reach [`NONE`].
fn exhausted(spent: u64) -> RejectReason {
    RejectReason::ResourceExhausted {
        resource: ResourceKind::GraphNodes,
        group: None,
        spent,
        limit: u64::from(u32::MAX),
    }
}

impl VarIndex {
    /// Indexes `var_logs` over `coords`. Fails, with the graph-node
    /// resource verdict, only if the logs name so many coordinates
    /// outside `opcounts`, or hold so many entries, that the ids or the
    /// entry numbers no longer fit a `u32`. Preprocess
    /// builds the audit's index (`Preprocessed::var_index`); public for
    /// the tests that drive [`VarStates`](crate::verifier::VarStates)
    /// directly.
    #[doc(hidden)]
    pub fn build(
        coords: Arc<Coords>,
        var_logs: &VecMap<'_, VarId, Vec<(OpAt, VarLogEntryView<'_>)>>,
    ) -> Result<VarIndex, RejectReason> {
        // Entries are numbered below `NONE`, like ids.
        let entries: usize = var_logs.values().map(Vec::len).sum();
        if entries >= NONE as usize {
            return Err(exhausted(entries as u64 + 1));
        }
        let mut index = VarIndex {
            coords,
            head: Vec::new(),
            next: Vec::with_capacity(entries),
            ids: Vec::with_capacity(entries),
            logs: Vec::with_capacity(var_logs.len()),
            outside: BTreeMap::new(),
            keyed: Vec::new(),
        };
        for entries in var_logs.values() {
            let base = index.next.len() as u32;
            let mut prec = Vec::with_capacity(entries.len());
            let (mut keys, mut precs) = (RequestRun::default(), RequestRun::default());
            let mut run = NONE;
            for (key, entry) in entries {
                // Keys ascend, so a request's keys are one run.
                match index.keyed.last_mut() {
                    Some((rid, n)) if *rid == key.rid => *n = n.saturating_add(1),
                    _ => index.keyed.push((key.rid, 1)),
                }
                // Until every log is read, a run's first entry holds its
                // activation and the others `NONE`.
                let (id, act) = index.resolve(key, &mut keys)?;
                index.ids.push(id);
                index.next.push(if act == run { NONE } else { act });
                run = act;
                prec.push(match &entry.prec {
                    Some(p) => index.resolve(p, &mut precs)?,
                    None => (NONE, NONE),
                });
            }
            index.logs.push(LogIndex { base, prec });
        }
        // Chain the runs, now that the activations past the nodes are
        // known.
        let acts = index.coords.activations().len() + index.outside.len();
        if !index.next.is_empty() {
            index.head = vec![NONE; acts];
        }
        for (number, next) in (0u32..).zip(&mut index.next) {
            if let Some(head) = index.head.get_mut(*next as usize) {
                *next = std::mem::replace(head, number);
            }
        }
        index.keyed.sort_unstable_by_key(|(rid, _)| *rid);
        index.keyed.dedup_by(|(rid, n), (kept, total)| {
            let same = rid == kept;
            if same {
                *total = total.saturating_add(*n);
            }
            same
        });
        Ok(index)
    }

    /// The id of `op` — its node, or the id it has (or now gets) as a
    /// coordinate outside `opcounts` — and the activation it belongs to
    /// ([`act_of`]).
    fn resolve(&mut self, op: &OpAt, run: &mut RequestRun) -> Result<(u32, u32), RejectReason> {
        if let Some(at) = run.op_at(&self.coords, op) {
            return Ok(at);
        }
        let id = match self.outside.get(op) {
            Some(id) => *id,
            None => {
                let id = self.id_space();
                // `id_space()` itself stays below `NONE` too: it is the
                // id of an initialization write no log names.
                if id >= u64::from(NONE - 1) {
                    return Err(exhausted(id + 2));
                }
                self.outside.insert(*op, id as u32);
                id as u32
            }
        };
        Ok((id, act_of(&self.coords, id)))
    }

    /// Ids handed out so far: the nodes and the outside coordinates.
    fn id_space(&self) -> u64 {
        self.coords.node_count() as u64 + self.outside.len() as u64
    }

    /// The id the logs know `op` by, if they name it or `opcounts`
    /// covers it.
    pub(crate) fn id_of(&self, op: &OpRef) -> Option<u32> {
        let op = OpAt::new(op.rid, self.coords.paths().rank(&op.hid)?, op.opnum);
        let node = RequestRun::default().op_at(&self.coords, &op);
        node.map(|(node, _)| node)
            .or_else(|| self.outside.get(&op).copied())
    }

    /// An id no log names and no node has. A variable's initialization
    /// write that is not in the index takes it: it then needs identity
    /// only against the ids its variable's log can name, and a variable
    /// has one initialization write.
    pub(crate) fn unnamed_id(&self) -> u32 {
        // `resolve` keeps the id space below `NONE - 1`.
        u32::try_from(self.id_space()).unwrap_or(NONE - 1)
    }

    /// The activation `id` belongs to in variable state ([`act_of`]).
    pub(crate) fn act_of(&self, id: u32) -> u32 {
        act_of(&self.coords, id)
    }

    /// How many entries the logs key at coordinates of `rids`.
    pub(crate) fn entries_of(&self, rids: &[RequestId]) -> usize {
        let keyed = |rid: &RequestId| {
            let at = self.keyed.binary_search_by_key(rid, |(r, _)| *r).ok();
            at.and_then(|at| self.keyed.get(at))
                .map_or(0, |(_, n)| *n as usize)
        };
        rids.iter().map(keyed).sum()
    }

    /// The log of `var`, as re-execution reads it. `var_logs` must be
    /// the logs this index was built from.
    #[doc(hidden)]
    pub fn log<'a>(
        &'a self,
        var_logs: &VecMap<'a, VarId, Vec<(OpAt, VarLogEntryView<'a>)>>,
        var: VarId,
    ) -> VarLog<'a> {
        let found = var_logs.position(&var).and_then(|i| {
            let (_, log) = var_logs.as_slice().get(i)?;
            Some((self.logs.get(i)?, log.as_slice()))
        });
        VarLog {
            coords: &self.coords,
            head: &self.head,
            next: &self.next,
            ids: &self.ids,
            base: found.map_or(0, |(index, _)| index.base),
            prec: found.map_or(&[], |(index, _)| &index.prec),
            entries: found.map_or(&[], |(_, entries)| entries),
        }
    }
}

/// One variable's log, read by id: empty when the advice has no log for
/// the variable.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct VarLog<'a> {
    coords: &'a Coords,
    head: &'a [u32],
    next: &'a [u32],
    ids: &'a [u32],
    /// The number of the log's first entry.
    base: u32,
    prec: &'a [(u32, u32)],
    entries: &'a [(OpAt, VarLogEntryView<'a>)],
}

impl<'a> VarLog<'a> {
    /// The coordinates the ids belong to.
    pub(crate) fn coords(&self) -> &'a Coords {
        self.coords
    }

    /// The entry keyed by `id`, of activation `act` ([`act_of`]), with
    /// its position: the activation's chain, followed down to this log's
    /// run, and a search of the run's ids.
    pub(crate) fn entry_at(&self, id: u32, act: u32) -> Option<(u32, &'a VarLogEntryView<'a>)> {
        let end = self.base + self.entries.len() as u32;
        let mut number = *self.head.get(act as usize)?;
        // A chain descends through the logs: past this log's first
        // number, no run is this log's.
        while number != NONE && number >= self.base {
            if number < end {
                // A run's ids lie in its activation's operations; an id
                // past the nodes is a run of one.
                let (first, count) = match self.coords.activations().get(act as usize) {
                    Some(activation) => (activation.start, activation.count),
                    None => (id.saturating_sub(1), 1),
                };
                let run = self.ids.get(number as usize..end as usize)?;
                let run = run.get(..run.len().min(count as usize))?;
                let at = run.partition_point(|key| *key > first && *key < id);
                if run.get(at) != Some(&id) {
                    return None;
                }
                let position = number - self.base + at as u32;
                return Some((position, self.entry(position)?));
            }
            number = *self.next.get(number as usize)?;
        }
        None
    }

    /// The entry at `position`.
    pub(crate) fn entry(&self, position: u32) -> Option<&'a VarLogEntryView<'a>> {
        self.entries.get(position as usize).map(|(_, entry)| entry)
    }

    /// The `prec` of the entry at `position`: its id and the activation
    /// it belongs to ([`act_of`]), [`NONE`] twice for none.
    pub(crate) fn prec(&self, position: u32) -> (u32, u32) {
        let prec = self.prec.get(position as usize);
        prec.copied().unwrap_or((NONE, NONE))
    }

    /// The rejection for a re-executed access at `node` that its log
    /// entry contradicts. An `OpRef` exists only here, to be shown.
    pub(crate) fn mismatch(&self, node: u32, why: &'static str) -> RejectReason {
        match self.coords.op_ref(node) {
            Some(at) => RejectReason::VarLogMismatch { at, why },
            None => RejectReason::VerifierInternal {
                what: "variable access at a node that is not an operation".into(),
            },
        }
    }
}
