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
//! Per entry the index keeps the id of its `prec` and the position of
//! the entry that `prec` is the key of, per log the entries' own ids in
//! ascending order, and per request its entry count — sixteen bytes an
//! entry, nothing per node. Lookups are per variable: the same
//! coordinate keyed in two variables' logs is two entries in two tables.
//!
//! Resolution walks each log in key order. Keys ascend in
//! `(rid, hid, opnum)` and so do the activations, so a key is nearly
//! always in the activation the previous key was in, or the next; a
//! `prec` names a handler of another request, which in an honest trace
//! has the tree the previous `prec`'s request had. Both are therefore
//! tried at the offset that matched last time and confirmed by
//! equality ([`Nearby`], [`Coords::find_in`]); the search that compares
//! handler paths is the fallback that keeps a wrong guess correct.

use std::collections::BTreeMap;
use std::sync::Arc;

use kem_lang::{OpRef, RequestId, VarId};

use crate::advice::{AccessType, VarLogEntry};
use crate::advice_ref::{VarLogRef, VecMap};
use crate::verifier::coords::{Coords, Nearby};
use crate::verifier::reject::{RejectReason, ResourceKind};

/// "No such id / no such entry" in the index's `u32` columns. The build
/// refuses an id space that would reach it.
pub(crate) const NONE: u32 = u32::MAX;

/// One variable log's columns.
#[derive(Debug)]
struct LogIndex {
    /// Id of an entry's key → the entry's position.
    by_id: VecMap<u32, u32>,
    /// Per entry: the id of its `prec` and, for a read entry, the
    /// position of the entry keyed by that coordinate — the dictating
    /// write, what `log.get(prec)` finds. [`NONE`] for an absent `prec`
    /// and for one no entry is keyed by. Parallel to the entries.
    prec: Vec<(u32, u32)>,
}

/// Every variable log of one audit's advice, indexed by id (see the
/// module docs).
#[derive(Debug)]
pub struct VarIndex {
    coords: Arc<Coords>,
    /// One per entry of the `var_logs` the index was built from, in the
    /// same order.
    logs: Vec<LogIndex>,
    /// The coordinates outside `opcounts` that some log names.
    outside: BTreeMap<OpRef, u32>,
    /// By request, ascending: the entries keyed at its coordinates.
    keyed: Vec<(RequestId, u32)>,
}

impl VarIndex {
    /// Indexes `var_logs` over `coords`. Fails, with the graph-node
    /// resource verdict, only if the logs name so many coordinates
    /// outside `opcounts` that the ids no longer fit a `u32`. Preprocess
    /// builds the audit's index (`Preprocessed::var_index`); public for
    /// the tests that drive [`VarStates`](crate::verifier::VarStates)
    /// directly.
    #[doc(hidden)]
    pub fn build(
        coords: Arc<Coords>,
        var_logs: &VecMap<VarId, VarLogRef>,
    ) -> Result<VarIndex, RejectReason> {
        let mut index = VarIndex {
            coords,
            logs: Vec::with_capacity(var_logs.len()),
            outside: BTreeMap::new(),
            keyed: Vec::new(),
        };
        for log in var_logs.values() {
            let entries = log.as_slice();
            let mut by_id = Vec::with_capacity(entries.len());
            let mut prec = Vec::with_capacity(entries.len());
            let (mut key_hint, mut prec_hint) = (Nearby::default(), Nearby::default());
            for ((key, entry), position) in entries.iter().zip(0u32..) {
                // Keys ascend, so a request's keys are one run.
                match index.keyed.last_mut() {
                    Some((rid, n)) if *rid == key.rid => *n = n.saturating_add(1),
                    _ => index.keyed.push((key.rid, 1)),
                }
                by_id.push((index.resolve(key, &mut key_hint)?, position));
                prec.push(match &entry.prec {
                    Some(p) => (index.resolve(p, &mut prec_hint)?, NONE),
                    None => (NONE, NONE),
                });
            }
            // Node ids ascend with the keys, so this sorts only a log
            // that keys ids past the nodes.
            let by_id = VecMap::from_wire(by_id);
            // Only a read is fed from the entry its `prec` names.
            for ((id, dictating), (_, entry)) in prec.iter_mut().zip(entries) {
                if *id != NONE && entry.access == AccessType::Read {
                    *dictating = by_id.get(id).copied().unwrap_or(NONE);
                }
            }
            index.logs.push(LogIndex { by_id, prec });
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

    /// The id of `op`: its node, or the id it has (or now gets) as a
    /// coordinate outside `opcounts`.
    fn resolve(&mut self, op: &OpRef, hint: &mut Nearby) -> Result<u32, RejectReason> {
        if let Some(node) = hint.op_node(&self.coords, op) {
            return Ok(node);
        }
        if let Some(id) = self.outside.get(op) {
            return Ok(*id);
        }
        let id = self.id_space();
        // `id_space()` itself stays below `NONE` too: it is the id of
        // an initialization write no log names.
        if id >= u64::from(NONE - 1) {
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::GraphNodes,
                group: None,
                spent: id + 2,
                limit: u64::from(u32::MAX),
            });
        }
        self.outside.insert(op.clone(), id as u32);
        Ok(id as u32)
    }

    /// Ids handed out so far: the nodes and the outside coordinates.
    fn id_space(&self) -> u64 {
        self.coords.node_count() as u64 + self.outside.len() as u64
    }

    /// The id the logs know `op` by, if they name it or `opcounts`
    /// covers it.
    pub(crate) fn id_of(&self, op: &OpRef) -> Option<u32> {
        self.coords
            .op_node(op)
            .or_else(|| self.outside.get(op).copied())
    }

    /// An id no log names and no node has. A variable's initialization
    /// write that is not in the index takes it: it then needs identity
    /// only against the ids its variable's log can name, and a variable
    /// has one initialization write.
    pub(crate) fn unnamed_id(&self) -> u32 {
        // `resolve` keeps the id space below `NONE - 1`.
        u32::try_from(self.id_space()).unwrap_or(NONE - 1)
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
    pub fn log<'a>(&'a self, var_logs: &'a VecMap<VarId, VarLogRef>, var: VarId) -> VarLog<'a> {
        let found = var_logs.position(&var).and_then(|i| {
            let (_, log) = var_logs.as_slice().get(i)?;
            Some((self.logs.get(i)?, log.as_slice()))
        });
        VarLog {
            coords: &self.coords,
            index: found.map(|(index, _)| index),
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
    index: Option<&'a LogIndex>,
    entries: &'a [(OpRef, VarLogEntry)],
}

impl<'a> VarLog<'a> {
    /// The coordinates the ids belong to.
    pub(crate) fn coords(&self) -> &'a Coords {
        self.coords
    }

    /// The entry keyed by `id`, with its position.
    pub(crate) fn entry_at(&self, id: u32) -> Option<(u32, &'a VarLogEntry)> {
        let position = *self.index?.by_id.get(&id)?;
        Some((position, self.entry(position)?))
    }

    /// The entry at `position`.
    pub(crate) fn entry(&self, position: u32) -> Option<&'a VarLogEntry> {
        self.entries.get(position as usize).map(|(_, entry)| entry)
    }

    /// The `prec` of the entry at `position`: its id and, if the entry
    /// is a read, the position of the entry it is the key of ([`NONE`]
    /// where there is none).
    pub(crate) fn prec(&self, position: u32) -> (u32, u32) {
        self.index
            .and_then(|index| index.prec.get(position as usize))
            .copied()
            .unwrap_or((NONE, NONE))
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
