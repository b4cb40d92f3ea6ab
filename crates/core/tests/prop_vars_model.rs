//! The coordinate-indexed variable state against the `OpRef`-keyed one
//! it replaced.
//!
//! [`model`] is the variable state as it was before operations were
//! named by node id (Figs. 20–21 over `HashMap`s and `BTreeMap`s keyed
//! by `(rid, hid, opnum)`), kept verbatim as a reference model — the way
//! `crates/adya/tests/prop_dsg.rs` keeps the per-key scans. It exists
//! only here: nothing in the verifier calls it.
//!
//! The property: over generated handler trees, two variables, an
//! execution that logs what Karousos logs (R-concurrent accesses, with
//! backfilled writes) and a replay of it request by request, then with
//! a few hostile edits to the logs — keys moved outside `opcounts`,
//! `prec` pointed at the initialization, at itself, at a later
//! operation, at a read entry, at a coordinate nothing reports (with
//! and without a forged write there), the same coordinate keyed in the
//! other variable's log, a forged value, a dropped entry — both
//! implementations feed the same values, fail at the same access with
//! the same [`RejectReason`], count the same feeds and embed the same
//! `(from, to, kind)` edges in the same order.
//!
//! The new state runs twice. Once with both halves of every access back
//! to back on one state (`VarStates::on_read` / `on_write`), as the
//! model works. Once the way the audit does: each request is a
//! group whose accesses are resolved against the group's own state and
//! recorded, and the records are merged into the whole-audit state in
//! request order — where a group has run ahead of a failure only the
//! merge can see, and the verdict is still the model's.
//!
//! Every operation is executed once, as replay does.

use std::sync::Arc;

use karousos::verifier::{Coords, Graph, RejectReason, VarIndex, VarStates};
use karousos::{
    decode_advice_view, encode_advice, r_concurrent, AccessType, Advice, AdviceRef, FeedCounters,
    VarLog, VarLogEntry,
};
use kem::{init_handler_id, FunctionId, HandlerId, OpRef, RequestId, Value, VarId};
use proptest::prelude::*;

/// The `OpRef`-keyed implementation (`crates/core/src/verifier/vars.rs`
/// at commit `540c495`), with the per-variable fragments built on the
/// calling thread.
mod model {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use karousos::verifier::{Coords, EdgeKind, Graph, RejectReason};
    use karousos::{AccessType, FeedCounters, VarLog};
    use kem::{HandlerId, OpRef, RequestId, Value, VarId};

    /// Per-variable verifier state.
    #[derive(Debug, Default)]
    pub struct VarState {
        /// Written values: `(rid, hid) → [(opnum, value)]`, opnums ascending.
        dict: HashMap<(RequestId, HandlerId), Vec<(u32, Value)>>,
        /// write → reads that observed it.
        read_observers: BTreeMap<OpRef, Vec<OpRef>>,
        /// write → the write that overwrote it.
        write_observer: BTreeMap<OpRef, OpRef>,
        /// The alleged first write.
        initializer: Option<OpRef>,
        /// Every write actually re-executed (for chain coverage).
        executed_writes: HashSet<OpRef>,
    }

    /// Inserts `(opnum, value)` into an opnum-ascending write list, keeping
    /// the ascending invariant even for out-of-order insertions (re-executed
    /// opnums are monotonic per handler, so the fast path is a push).
    fn dict_insert(writes: &mut Vec<(u32, Value)>, opnum: u32, value: Value) {
        match writes.last() {
            Some((last, _)) if *last >= opnum => {
                let i = writes.partition_point(|(n, _)| *n < opnum);
                writes.insert(i, (opnum, value));
            }
            _ => writes.push((opnum, value)),
        }
    }

    impl VarState {
        /// Records the trusted initialization write (the verifier runs the
        /// initialization phase itself; Fig. 14 line 20).
        fn initialize(&mut self, op: OpRef, value: Value) {
            dict_insert(
                self.dict.entry((op.rid, op.hid.clone())).or_default(),
                op.opnum,
                value,
            );
            self.executed_writes.insert(op.clone());
            self.initializer = Some(op);
        }

        /// `FindNearestRPrecedingWrite`: the latest write (under `<_R`) that
        /// precedes `(rid, hid, opnum)`, found by binary-searching this
        /// handler's earlier writes (the per-handler list is opnum-ordered),
        /// then each ancestor's writes, then the initialization
        /// activation's.
        fn find_nearest_r_preceding(
            &self,
            rid: RequestId,
            hid: &HandlerId,
            opnum: u32,
        ) -> Option<(OpRef, Value)> {
            // Writes by this very handler, before this op: the last entry
            // with an opnum strictly below `opnum`.
            if let Some(writes) = self.dict.get(&(rid, hid.clone())) {
                let i = writes.partition_point(|(n, _)| *n < opnum);
                if i > 0 {
                    let (n, v) = &writes[i - 1];
                    return Some((OpRef::new(rid, hid.clone(), *n), v.clone()));
                }
            }
            // Nearest ancestor with any write: all of an ancestor's ops
            // R-precede all of a descendant's (the ancestor ran to
            // completion first), so take its last write.
            let mut cur = hid.parent();
            while let Some(a) = cur {
                if let Some(writes) = self.dict.get(&(rid, a.clone())) {
                    if let Some((n, v)) = writes.last() {
                        return Some((OpRef::new(rid, a.clone(), *n), v.clone()));
                    }
                }
                cur = a.parent();
            }
            // The initialization activation is everyone's ancestor.
            let init = (RequestId::INIT, kem::init_handler_id());
            if rid != RequestId::INIT {
                if let Some(writes) = self.dict.get(&init) {
                    if let Some((n, v)) = writes.last() {
                        return Some((OpRef::new(init.0, init.1.clone(), *n), v.clone()));
                    }
                }
            }
            None
        }

        /// The value the re-executed (or trusted-initialization) write at
        /// exactly `op` produced, if that write has run.
        fn dict_value(&self, op: &OpRef) -> Option<&Value> {
            let writes = self.dict.get(&(op.rid, op.hid.clone()))?;
            writes
                .binary_search_by_key(&op.opnum, |(n, _)| *n)
                .ok()
                .map(|i| &writes[i].1)
        }
    }

    /// All per-variable states, indexed densely by [`VarId`].
    ///
    /// Variable ids are dense indices assigned at program build time (the
    /// same lowering that interns identifiers), so a `Vec` slot per
    /// variable replaces hashing on the replay hot path; untouched slots
    /// stay `Default` and contribute nothing to the graph.
    #[derive(Debug, Default)]
    pub struct VarStates {
        per: Vec<VarState>,
        feeds: FeedCounters,
    }

    /// One variable's contribution to the execution graph: the WR / WW / RW
    /// edges its write chain implies, as node-id pairs tagged with their
    /// [`EdgeKind`]. Fragments are built independently per variable
    /// (optionally on worker threads) and merged into `G` in
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

        /// Runs the trusted initialization write of `var`.
        pub fn on_initialize(&mut self, var: VarId, op: OpRef, value: Value) {
            self.state_mut(var).initialize(op, value);
        }

        /// Re-executes a read (Fig. 20 `OnRead`), returning the value to
        /// feed the program.
        pub fn on_read(
            &mut self,
            var: VarId,
            op: OpRef,
            log: Option<&VarLog>,
        ) -> Result<Value, RejectReason> {
            let logged = log.and_then(|l| l.get(&op));
            if logged.is_some() {
                self.feeds.logged_reads += 1;
            } else {
                self.feeds.dict_feeds += 1;
            }
            let state = self.state_mut(var);
            if let Some(entry) = logged {
                // Logged read: the dictating write must itself be logged;
                // feed its value.
                if entry.access != AccessType::Read {
                    return Err(RejectReason::VarLogMismatch {
                        at: op,
                        why: "re-executed read logged as write",
                    });
                }
                let Some(prec) = &entry.prec else {
                    return Err(RejectReason::VarLogMismatch {
                        at: op,
                        why: "logged read lacks dictating write",
                    });
                };
                let Some(w) = log.and_then(|l| l.get(prec)) else {
                    return Err(RejectReason::VarLogMismatch {
                        at: op,
                        why: "dictating write not in log",
                    });
                };
                if w.access != AccessType::Write {
                    return Err(RejectReason::VarLogMismatch {
                        at: op,
                        why: "dictating entry is not a write",
                    });
                }
                let Some(value) = &w.value else {
                    return Err(RejectReason::VarLogMismatch {
                        at: op,
                        why: "dictating write has no value",
                    });
                };
                // If the dictating write has already run (always true for
                // the trusted initialization writes, which are never
                // simulate-and-checked by OnWrite), its logged value must
                // match what execution actually produced — otherwise the
                // server could park poisoned values at coordinates that
                // re-execution never validates.
                if let Some(actual) = state.dict_value(prec) {
                    if actual != value {
                        return Err(RejectReason::VarLogMismatch {
                            at: op,
                            why: "dictating write's logged value differs from execution",
                        });
                    }
                }
                state
                    .read_observers
                    .entry(prec.clone())
                    .or_default()
                    .push(op);
                Ok(value.clone())
            } else {
                // Unlogged read: it was R-ordered with its dictating write,
                // which therefore has already been re-executed; find it in
                // the dictionary.
                let Some((w, value)) = state.find_nearest_r_preceding(op.rid, &op.hid, op.opnum)
                else {
                    return Err(RejectReason::VarChainBroken {
                        why: "unlogged read has no R-preceding write",
                    });
                };
                state.read_observers.entry(w).or_default().push(op);
                Ok(value)
            }
        }

        /// Re-executes a write (Fig. 21 `OnWrite`): simulate-and-check
        /// against the log, record the dictionary entry, and maintain the
        /// write chain.
        pub fn on_write(
            &mut self,
            var: VarId,
            op: OpRef,
            value: Value,
            log: Option<&VarLog>,
        ) -> Result<(), RejectReason> {
            let state = self.state_mut(var);
            dict_insert(
                state.dict.entry((op.rid, op.hid.clone())).or_default(),
                op.opnum,
                value.clone(),
            );
            state.executed_writes.insert(op.clone());

            let logged = log.and_then(|l| l.get(&op));
            let prec: Option<OpRef> = match logged {
                Some(entry) => {
                    if entry.access != AccessType::Write {
                        return Err(RejectReason::VarLogMismatch {
                            at: op,
                            why: "re-executed write logged as read",
                        });
                    }
                    // Simulate-and-check: the re-executed value must equal
                    // the logged one, validating whatever fed or will feed
                    // logged reads (§4.3).
                    if entry.value.as_ref() != Some(&value) {
                        return Err(RejectReason::VarLogMismatch {
                            at: op,
                            why: "logged write value differs from re-execution",
                        });
                    }
                    match &entry.prec {
                        Some(p) => Some(p.clone()),
                        // Backfilled write: the log doesn't say what it
                        // overwrote; find it like an unlogged write so the
                        // chain stays connected.
                        None => state
                            .find_nearest_r_preceding(op.rid, &op.hid, op.opnum)
                            .map(|(w, _)| w)
                            .filter(|w| *w != op),
                    }
                }
                None => state
                    .find_nearest_r_preceding(op.rid, &op.hid, op.opnum)
                    .map(|(w, _)| w)
                    .filter(|w| *w != op),
            };
            match prec {
                Some(p) => {
                    // Two handlers cannot overwrite the same value.
                    if state.write_observer.contains_key(&p) {
                        return Err(RejectReason::VarChainBroken {
                            why: "two writes overwrite the same write",
                        });
                    }
                    state.write_observer.insert(p, op);
                }
                None => {
                    if state.initializer.is_some() {
                        return Err(RejectReason::VarChainBroken {
                            why: "two writes claim to be the first",
                        });
                    }
                    state.initializer = Some(op);
                }
            }
            Ok(())
        }

        /// Postprocessing (Fig. 21 `AddInternalStateEdges`): walks each
        /// variable's write chain from the initializer, adding WR / WW / RW
        /// edges to `G`, and checks the chain covers exactly the
        /// re-executed writes. Variables in ascending `VarId` order.
        pub fn add_internal_state_edges(&self, g: &mut Graph) -> Result<(), RejectReason> {
            let coords = g.coords().clone();
            let mut fragments = Vec::with_capacity(self.per.len());
            for state in &self.per {
                fragments.push(var_fragment(state, &coords)?);
            }
            for (var, frag) in (0u32..).zip(&fragments) {
                for (from, to, kind) in frag {
                    g.add_var_edge(*from, *to, *kind, VarId(var));
                }
            }
            Ok(())
        }
    }

    /// Walks one variable's write chain from the initializer (Fig. 21
    /// `AddInternalStateEdges`), returning the WR / WW / RW edges it
    /// implies, or the chain-coverage rejection. Each operation on the
    /// chain is resolved to its node once.
    fn var_fragment(state: &VarState, coords: &Coords) -> Result<EdgeFragment, RejectReason> {
        let mut edges: EdgeFragment = Vec::new();
        // The node of a chain operation; `None` for the trusted
        // initialization activation, which precedes everything, cannot
        // participate in a cycle and so gets no ordering edges. Every other
        // operation on the chain was re-executed, which replay only does
        // inside an activation the coordinates know, within its count.
        let node = |op: &OpRef| -> Result<Option<u32>, RejectReason> {
            if op.rid == RequestId::INIT {
                return Ok(None);
            }
            match coords.op_node(op) {
                Some(node) => Ok(Some(node)),
                None => Err(RejectReason::VerifierInternal {
                    what: "internal-state edge endpoint outside the coordinates".into(),
                }),
            }
        };
        let push = |edges: &mut EdgeFragment, from: Option<u32>, to: Option<u32>, kind| {
            if let (Some(from), Some(to)) = (from, to) {
                edges.push((from, to, kind));
            }
        };
        let mut visited: HashSet<OpRef> = HashSet::new();
        let mut reader_nodes: Vec<Option<u32>> = Vec::new();
        let mut cur = match &state.initializer {
            Some(w) => Some((w.clone(), node(w)?)),
            None => None,
        };
        while let Some((w, w_node)) = cur {
            if !visited.insert(w.clone()) {
                return Err(RejectReason::VarChainBroken {
                    why: "write chain has a cycle",
                });
            }
            reader_nodes.clear();
            for r in state.read_observers.get(&w).into_iter().flatten() {
                reader_nodes.push(node(r)?);
            }
            for r_node in &reader_nodes {
                push(&mut edges, w_node, *r_node, EdgeKind::VarWr);
            }
            cur = match state.write_observer.get(&w) {
                Some(w2) => {
                    let w2_node = node(w2)?;
                    for r_node in &reader_nodes {
                        push(&mut edges, *r_node, w2_node, EdgeKind::VarRw);
                    }
                    push(&mut edges, w_node, w2_node, EdgeKind::VarWw);
                    Some((w2.clone(), w2_node))
                }
                None => None,
            };
        }
        // Coverage: every re-executed write must be on the chain (otherwise
        // its log entry escaped simulate-and-check's ordering constraints),
        // and no alleged observer may hang off a write that is not on the
        // chain.
        for w in &state.executed_writes {
            if !visited.contains(w) {
                return Err(RejectReason::VarChainBroken {
                    why: "re-executed write not covered by the write chain",
                });
            }
        }
        for key in state.read_observers.keys() {
            if !visited.contains(key) {
                return Err(RejectReason::VarChainBroken {
                    why: "read observes a write outside the chain",
                });
            }
        }
        for key in state.write_observer.keys() {
            if !visited.contains(key) {
                return Err(RejectReason::VarChainBroken {
                    why: "write observer attached outside the chain",
                });
            }
        }
        Ok(edges)
    }
}

/// Operations per generated handler.
const COUNT: u32 = 5;
const VARS: u32 = 2;

/// Handler trees over up to three requests, as parent picks: handler
/// `i`'s parent is an earlier handler of the same request, or none.
fn arb_handlers() -> impl Strategy<Value = Vec<(RequestId, HandlerId)>> {
    prop::collection::vec((0u64..3, any::<prop::sample::Index>()), 1..9).prop_map(|raw| {
        let mut out: Vec<(RequestId, HandlerId)> = Vec::with_capacity(raw.len());
        for (i, (rid, pick)) in raw.into_iter().enumerate() {
            let rid = RequestId(rid);
            let same: Vec<usize> = (0..i).filter(|&j| out[j].0 == rid).collect();
            let hid = match pick.index(same.len() + 1).checked_sub(1) {
                None => HandlerId::root(FunctionId(i as u32)),
                Some(p) => HandlerId::child(&out[same[p]].1, FunctionId(i as u32), 1),
            };
            out.push((rid, hid));
        }
        out
    })
}

/// One access of the generated execution.
#[derive(Debug, Clone)]
struct Access {
    var: VarId,
    at: OpRef,
    /// `Some(value)` for a write.
    write: Option<i64>,
}

/// One hostile edit: which logged entry (by pick) and what to do to it.
type Edit = (prop::sample::Index, u8, prop::sample::Index);

fn init_op(var: VarId) -> OpRef {
    OpRef::new(RequestId::INIT, init_handler_id(), var.0 + 1)
}

/// A handler no generated tree contains.
fn ghost(of: &HandlerId) -> HandlerId {
    HandlerId::child(of, FunctionId(900), 3)
}

/// The logs an honest Karousos server produces for `accesses` executed
/// in that order (Fig. 13): an access R-concurrent with the variable's
/// last write is logged with that write as its `prec`, and the write is
/// backfilled if it has no entry yet.
fn honest_logs(accesses: &[Access]) -> Vec<VarLog> {
    let mut logs: Vec<VarLog> = (0..VARS).map(|_| VarLog::new()).collect();
    let mut last: Vec<(OpRef, i64)> = (0..VARS).map(|v| (init_op(VarId(v)), -1)).collect();
    for a in accesses {
        let v = a.var.0 as usize;
        let (last_write, last_value) = last[v].clone();
        if r_concurrent(&a.at, &last_write) {
            let log = &mut logs[v];
            if log.get(&last_write).is_none() {
                log.insert(
                    last_write.clone(),
                    VarLogEntry {
                        access: AccessType::Write,
                        value: Some(Value::int(last_value)),
                        prec: None,
                    },
                );
            }
            log.insert(
                a.at.clone(),
                VarLogEntry {
                    access: if a.write.is_some() {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    },
                    value: a.write.map(Value::int),
                    prec: Some(last_write),
                },
            );
        }
        if let Some(value) = a.write {
            last[v] = (a.at.clone(), value);
        }
    }
    logs
}

/// Applies one hostile edit to the logs (a no-op when the logs offer
/// nothing to apply it to).
fn apply_edit(logs: &mut [VarLog], edit: &Edit, accesses: &[Access]) {
    let (pick, what, other) = edit;
    let logged: Vec<(usize, OpRef)> = logs
        .iter()
        .enumerate()
        .flat_map(|(v, log)| log.keys().map(move |k| (v, k.clone())))
        .collect();
    if logged.is_empty() {
        return;
    }
    let (v, key) = logged[pick.index(logged.len())].clone();
    let Some(entry) = logs[v].get(&key).cloned() else {
        return;
    };
    let rekey = |logs: &mut [VarLog], to: OpRef| {
        logs[v].remove(&key);
        logs[v].insert(to, entry.clone());
    };
    let reprec = |logs: &mut [VarLog], to: Option<OpRef>| {
        let mut e = entry.clone();
        e.prec = to;
        logs[v].insert(key.clone(), e);
    };
    let outside = OpRef::new(key.rid, ghost(&key.hid), 1);
    let any_access = accesses[other.index(accesses.len())].at.clone();
    match what % 14 {
        0 => rekey(logs, OpRef::new(key.rid, ghost(&key.hid), key.opnum)),
        1 => rekey(logs, OpRef::new(key.rid, key.hid.clone(), 0)),
        2 => rekey(logs, OpRef::new(key.rid, key.hid.clone(), COUNT + 1)),
        3 => reprec(logs, Some(init_op(VarId(v as u32)))),
        4 => {
            // ... with a forged entry keyed at the initialization.
            reprec(logs, Some(init_op(VarId(v as u32))));
            logs[v].insert(
                init_op(VarId(v as u32)),
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(Value::int(other.index(2) as i64 - 1)),
                    prec: None,
                },
            );
        }
        5 => reprec(logs, Some(key.clone())),
        6 => reprec(
            logs,
            Some(OpRef::new(key.rid, key.hid.clone(), key.opnum + 1)),
        ),
        7 => {
            let reads: Vec<OpRef> = logs[v]
                .iter()
                .filter(|(k, e)| e.access == AccessType::Read && **k != key)
                .map(|(k, _)| k.clone())
                .collect();
            if !reads.is_empty() {
                let to = reads[other.index(reads.len())].clone();
                reprec(logs, Some(to));
            }
        }
        8 => {
            reprec(logs, Some(outside.clone()));
            logs[v].insert(
                outside,
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(Value::int(other.index(4) as i64)),
                    prec: None,
                },
            );
        }
        9 => reprec(logs, Some(outside)),
        10 => {
            let w = (v + 1) % VARS as usize;
            logs[w].insert(key.clone(), entry.clone());
        }
        11 => {
            let mut e = entry.clone();
            e.value = Some(Value::int(77));
            logs[v].insert(key.clone(), e);
        }
        12 => {
            logs[v].remove(&key);
        }
        _ => reprec(logs, Some(any_access)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn coordinate_state_matches_the_opref_keyed_model(
        handlers in arb_handlers(),
        picks in prop::collection::vec(
            (any::<prop::sample::Index>(), 1u32..COUNT + 1, 0u32..VARS, prop::option::of(0i64..4)),
            1..24,
        ),
        edits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<u8>(), any::<prop::sample::Index>()),
            0..3,
        ),
        initialized in any::<bool>(),
    ) {
        // The execution: each picked operation once, in an order that
        // respects the handler tree (a handler has a larger index than
        // its ancestors) and program order, requests interleaved as the
        // picks fell.
        let mut accesses: Vec<(usize, Access)> = Vec::new();
        for (pick, opnum, var, write) in &picks {
            let h = pick.index(handlers.len());
            let (rid, hid) = &handlers[h];
            let at = OpRef::new(*rid, hid.clone(), *opnum);
            if accesses.iter().all(|(_, a)| a.at != at) {
                accesses.push((h, Access { var: VarId(*var), at, write: *write }));
            }
        }
        accesses.sort_by_key(|(h, a)| (*h, a.at.opnum));
        let executed: Vec<Access> = accesses.into_iter().map(|(_, a)| a).collect();
        let mut logs = honest_logs(&executed);
        for edit in &edits {
            apply_edit(&mut logs, edit, &executed);
        }
        // The advice, as the audit reads it: every generated handler
        // reported, requests traced in ascending order.
        let owned = Advice {
            var_logs: logs
                .into_iter()
                .zip(0u32..)
                .filter(|(log, _)| !log.is_empty())
                .map(|(log, v)| (VarId(v), log))
                .collect(),
            opcounts: handlers
                .iter()
                .map(|(rid, hid)| ((*rid, hid.clone()), COUNT))
                .collect(),
            ..Advice::default()
        };
        let bytes = encode_advice(&owned);
        let view = decode_advice_view(&bytes).unwrap();
        let advice = AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let mut trace: Vec<RequestId> = handlers.iter().map(|(rid, _)| *rid).collect();
        trace.sort();
        trace.dedup();
        let coords = Arc::new(Coords::build(&trace, &advice).unwrap());
        let index = VarIndex::build(coords.clone(), &advice.var_logs).unwrap();

        let fresh = || {
            let mut vs = VarStates::new();
            if initialized {
                for v in 0..VARS {
                    vs.on_initialize(VarId(v), init_op(VarId(v)), Value::int(-1));
                }
            }
            vs.bind(&index);
            vs
        };
        let mut old = model::VarStates::new();
        if initialized {
            for v in 0..VARS {
                old.on_initialize(VarId(v), init_op(VarId(v)), Value::int(-1));
            }
        }

        // The replay: request by request (what a grouped audit does),
        // each request's accesses in execution order. What the model
        // answers, up to and including its first rejection:
        let mut replay = executed.clone();
        replay.sort_by_key(|a| a.at.rid);
        let mut expected: Vec<Result<Option<Value>, RejectReason>> = Vec::new();
        for a in &replay {
            let log = owned.var_logs.get(&a.var);
            expected.push(match a.write {
                Some(value) => old.on_write(a.var, a.at.clone(), Value::int(value), log).map(|()| None),
                None => old.on_read(a.var, a.at.clone(), log).map(Some),
            });
            if expected.last().is_some_and(Result::is_err) {
                break;
            }
        }
        let rejection = expected.last().and_then(|r| r.as_ref().err());

        // Both halves back to back on one state.
        let mut one = fresh();
        for (a, expected) in replay.iter().zip(&expected) {
            let node = coords.op_node(&a.at).unwrap();
            let log = index.log(&advice, a.var);
            let got = match a.write {
                Some(value) => one.on_write(a.var, node, Value::int(value), &log).map(|()| None),
                None => one.on_read(a.var, node, &log).map(Some),
            };
            prop_assert_eq!(&got, expected, "at {}", a.at);
        }

        // A group per request, merged in request order. A group stops
        // at the access its own state refuses and otherwise runs to its
        // end; the merge stops the audit.
        let mut merged = fresh();
        let mut merge_rejection = None;
        let mut done = 0;
        for group in replay.chunk_by(|a, b| a.at.rid == b.at.rid) {
            let mut vars = merged.group_vars();
            for (i, a) in group.iter().enumerate() {
                let node = coords.op_node(&a.at).unwrap();
                let log = index.log(&advice, a.var);
                let got = match a.write {
                    Some(value) => vars.on_write(a.var, node, Value::int(value), &log).map(|()| None),
                    None => vars.on_read(a.var, node, &log).map(Some),
                };
                // Up to the model's rejection the group is fed what the
                // model feeds; the rejection itself may be one only the
                // merge can see.
                match expected.get(done + i) {
                    Some(Ok(fed)) => prop_assert_eq!(got.as_ref().ok(), Some(fed), "at {}", a.at),
                    Some(Err(e)) => prop_assert!(got.is_ok() || got.as_ref().err() == Some(e)),
                    None => {}
                }
                if got.is_err() {
                    break;
                }
            }
            done += group.len();
            if let Err(e) = merged.merge_group(vars.finish(), &index, &advice) {
                merge_rejection = Some(e);
                break;
            }
        }
        prop_assert_eq!(merge_rejection.as_ref(), rejection);

        if rejection.is_none() {
            let mut g_old = Graph::new(coords.clone());
            let embedded = old.add_internal_state_edges(&mut g_old);
            for new in [&one, &merged] {
                let feeds: FeedCounters = new.feeds();
                prop_assert_eq!(feeds, old.feeds());
                let mut g_new = Graph::new(coords.clone());
                prop_assert_eq!(&new.add_internal_state_edges_sharded(&mut g_new, 1), &embedded);
                if embedded.is_ok() {
                    // `to_dot` lists every edge as `from -> to [kind]`,
                    // in insertion order.
                    prop_assert_eq!(g_new.to_dot(), g_old.to_dot());
                }
            }
        }
    }
}
