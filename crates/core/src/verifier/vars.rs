//! Verifier-side program-variable machinery (§4.2–§4.3, Figs. 20–21).
//!
//! For each loggable variable the verifier maintains, while
//! re-executing:
//!
//! * the **variable dictionary** (`var_dict`): every value written,
//!   indexed by the writing operation — used to feed unlogged reads via
//!   `FindNearestRPrecedingWrite`;
//! * **`read_observers`**: for each write, the reads that observed it
//!   (from the variable log for logged reads, from the dictionary for
//!   unlogged ones);
//! * **`write_observer`**: for each write, the single write that
//!   overwrote it;
//! * the **`initializer`**: the first write in the alleged history.
//!
//! After re-execution, [`VarStates::add_internal_state_edges`] embeds
//! the per-variable history into the execution graph `G` as WR, WW, and
//! RW edges, *and* checks that the write chain from the initializer
//! covers exactly the writes that were re-executed — without this
//! coverage check, a server could park forged writes outside the chain
//! where no simulate-and-check would ever touch them.

use std::collections::{BTreeMap, HashMap, HashSet};

use kem::{HandlerId, OpRef, RequestId, Value, VarId};

use crate::advice::AccessType;
use crate::advice_ref::VarLogRef;
use crate::verifier::coords::Coords;
use crate::verifier::graph::{EdgeKind, Graph};
use crate::verifier::reject::RejectReason;

/// Per-variable verifier state.
#[derive(Debug, Default, Clone)]
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
/// same resolve pass that interns identifiers), so a `Vec` slot per
/// variable replaces hashing on the replay hot path; untouched slots
/// stay `Default` and contribute nothing to the graph.
#[derive(Debug, Default, Clone)]
pub struct VarStates {
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
        log: Option<&VarLogRef>,
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
            let Some((w, value)) = state.find_nearest_r_preceding(op.rid, &op.hid, op.opnum) else {
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
        log: Option<&VarLogRef>,
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
    /// re-executed writes.
    pub fn add_internal_state_edges(&self, g: &mut Graph) -> Result<(), RejectReason> {
        self.add_internal_state_edges_sharded(g, 1)
    }

    /// [`VarStates::add_internal_state_edges`], with the per-variable
    /// fragment construction sharded over `threads` worker threads.
    ///
    /// Determinism: variables are processed in ascending `VarId` order
    /// for both error selection (the first broken chain in that order
    /// rejects, regardless of which worker found it) and fragment
    /// merging (edges enter `G` in the same order a single-threaded
    /// walk would produce).
    pub fn add_internal_state_edges_sharded(
        &self,
        g: &mut Graph,
        threads: usize,
    ) -> Result<(), RejectReason> {
        // The dense table is already in ascending-`VarId` order, so the
        // sequential walk is a plain iteration; untouched slots produce
        // empty fragments.
        let nvars = self.per.len();
        let coords: &Coords = g.coords();
        let fragments: Vec<EdgeFragment> = if threads <= 1 || nvars <= 1 {
            let mut frags = Vec::with_capacity(nvars);
            for state in &self.per {
                frags.push(var_fragment(state, coords)?);
            }
            frags
        } else {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let next = AtomicUsize::new(0);
            let per = &self.per;
            let mut slots: Vec<Option<Result<EdgeFragment, RejectReason>>> = Vec::new();
            slots.resize_with(nvars, || None);
            let workers = threads.min(nvars);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut out: Vec<(usize, Result<EdgeFragment, RejectReason>)> =
                                Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= per.len() {
                                    break;
                                }
                                out.push((i, var_fragment(&per[i], coords)));
                            }
                            out
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok(results) => {
                            for (i, res) in results {
                                slots[i] = Some(res);
                            }
                        }
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
            // First error in VarId order wins — same as the sequential
            // walk, independent of worker scheduling.
            let mut frags = Vec::with_capacity(nvars);
            for slot in slots {
                match slot {
                    Some(Ok(frag)) => frags.push(frag),
                    Some(Err(e)) => return Err(e),
                    None => {
                        return Err(RejectReason::VerifierInternal {
                            what: "edge fragment missing after sharded assembly".into(),
                        })
                    }
                }
            }
            frags
        };

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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice::VarLogEntry;
    use kem::{init_handler_id, FunctionId};

    fn init_op() -> OpRef {
        OpRef::new(RequestId::INIT, init_handler_id(), 1)
    }

    fn var() -> VarId {
        VarId(0)
    }

    #[test]
    fn unlogged_read_fed_from_init() {
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(5));
        let h = HandlerId::root(FunctionId(0));
        let r = OpRef::new(RequestId(0), h, 1);
        let v = vs.on_read(var(), r, None).unwrap();
        assert_eq!(v, Value::int(5));
    }

    #[test]
    fn unlogged_read_prefers_same_handler_write() {
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(5));
        let h = HandlerId::root(FunctionId(0));
        vs.on_write(
            var(),
            OpRef::new(RequestId(0), h.clone(), 1),
            Value::int(9),
            None,
        )
        .unwrap();
        let v = vs
            .on_read(var(), OpRef::new(RequestId(0), h, 2), None)
            .unwrap();
        assert_eq!(v, Value::int(9));
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
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let root_a = HandlerId::root(FunctionId(0));
        let root_b = HandlerId::root(FunctionId(1));
        let w_a = OpRef::new(RequestId(0), root_a.clone(), 1);
        vs.on_write(var(), w_a.clone(), Value::int(7), None)
            .unwrap();
        let mut log = VarLogRef::new();
        let w_b = OpRef::new(RequestId(1), root_b.clone(), 1);
        log.insert(
            w_b.clone(),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(3)),
                prec: Some(w_a),
            },
        );
        vs.on_write(var(), w_b, Value::int(3), Some(&log)).unwrap();
        let child = HandlerId::child(&root_a, FunctionId(2), 2);
        let v = vs
            .on_read(var(), OpRef::new(RequestId(0), child, 1), None)
            .unwrap();
        assert_eq!(v, Value::int(7));
    }

    #[test]
    fn nearest_r_preceding_write_is_latest_strictly_before() {
        // Pins `FindNearestRPrecedingWrite` (Figs. 20/21) under the
        // binary-searched dictionary: among several same-handler writes
        // the dictating one is the *latest* with opnum strictly below
        // the read — never the read's own opnum, never a later write.
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h = HandlerId::root(FunctionId(0));
        for (opnum, val) in [(2, 20), (5, 50), (9, 90)] {
            vs.on_write(
                var(),
                OpRef::new(RequestId(0), h.clone(), opnum),
                Value::int(val),
                None,
            )
            .unwrap();
        }
        let read_at = |vs: &mut VarStates, opnum: u32| {
            vs.on_read(var(), OpRef::new(RequestId(0), h.clone(), opnum), None)
                .unwrap()
        };
        // Before any same-handler write: falls through to init.
        assert_eq!(read_at(&mut vs, 1), Value::int(0));
        // Between writes: the latest strictly-preceding one.
        assert_eq!(read_at(&mut vs, 3), Value::int(20));
        assert_eq!(read_at(&mut vs, 4), Value::int(20));
        assert_eq!(read_at(&mut vs, 6), Value::int(50));
        // At a write's own opnum: strictly-before, so the previous one.
        assert_eq!(read_at(&mut vs, 5), Value::int(20));
        assert_eq!(read_at(&mut vs, 9), Value::int(50));
        // Past the last write.
        assert_eq!(read_at(&mut vs, 10), Value::int(90));
    }

    #[test]
    fn dict_insert_keeps_opnum_order_for_out_of_order_insertions() {
        let mut writes: Vec<(u32, Value)> = Vec::new();
        for n in [4u32, 1, 9, 6] {
            dict_insert(&mut writes, n, Value::int(n as i64));
        }
        let opnums: Vec<u32> = writes.iter().map(|(n, _)| *n).collect();
        assert_eq!(opnums, vec![1, 4, 6, 9]);
    }

    #[test]
    fn logged_read_fed_from_log() {
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h = HandlerId::root(FunctionId(0));
        let w_op = OpRef::new(RequestId(1), h.clone(), 1);
        let r_op = OpRef::new(RequestId(0), h.clone(), 1);
        let mut log = VarLogRef::new();
        log.insert(
            w_op.clone(),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(42)),
                prec: None,
            },
        );
        log.insert(
            r_op.clone(),
            VarLogEntry {
                access: AccessType::Read,
                value: None,
                prec: Some(w_op),
            },
        );
        let v = vs.on_read(var(), r_op, Some(&log)).unwrap();
        assert_eq!(v, Value::int(42));
    }

    #[test]
    fn logged_read_with_missing_dictating_write_rejected() {
        let mut vs = VarStates::new();
        let h = HandlerId::root(FunctionId(0));
        let r_op = OpRef::new(RequestId(0), h.clone(), 1);
        let mut log = VarLogRef::new();
        log.insert(
            r_op.clone(),
            VarLogEntry {
                access: AccessType::Read,
                value: None,
                prec: Some(OpRef::new(RequestId(9), h, 1)),
            },
        );
        let err = vs.on_read(var(), r_op, Some(&log)).unwrap_err();
        assert!(matches!(err, RejectReason::VarLogMismatch { .. }));
    }

    #[test]
    fn simulate_and_check_rejects_wrong_logged_value() {
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h = HandlerId::root(FunctionId(0));
        let w_op = OpRef::new(RequestId(0), h, 1);
        let mut log = VarLogRef::new();
        log.insert(
            w_op.clone(),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(999)), // forged
                prec: Some(init_op()),
            },
        );
        let err = vs
            .on_write(var(), w_op, Value::int(1), Some(&log))
            .unwrap_err();
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
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h0 = HandlerId::root(FunctionId(0));
        let h1 = HandlerId::root(FunctionId(1));
        let mut log = VarLogRef::new();
        for (rid, h) in [(RequestId(0), &h0), (RequestId(1), &h1)] {
            log.insert(
                OpRef::new(rid, h.clone(), 1),
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(Value::int(1)),
                    prec: Some(init_op()), // both claim to overwrite init
                },
            );
        }
        vs.on_write(
            var(),
            OpRef::new(RequestId(0), h0, 1),
            Value::int(1),
            Some(&log),
        )
        .unwrap();
        let err = vs
            .on_write(
                var(),
                OpRef::new(RequestId(1), h1, 1),
                Value::int(1),
                Some(&log),
            )
            .unwrap_err();
        assert!(matches!(err, RejectReason::VarChainBroken { .. }));
    }

    #[test]
    fn chain_edges_and_coverage() {
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h0 = HandlerId::root(FunctionId(0));
        let h1 = HandlerId::root(FunctionId(1));
        let w1 = OpRef::new(RequestId(0), h0.clone(), 1);
        let mut log = VarLogRef::new();
        log.insert(
            w1.clone(),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(1)),
                prec: Some(init_op()),
            },
        );
        let r1 = OpRef::new(RequestId(1), h1.clone(), 1);
        log.insert(
            r1.clone(),
            VarLogEntry {
                access: AccessType::Read,
                value: None,
                prec: Some(w1.clone()),
            },
        );
        vs.on_write(var(), w1, Value::int(1), Some(&log)).unwrap();
        vs.on_read(var(), r1, Some(&log)).unwrap();
        let opcounts = [((RequestId(0), h0), 1), ((RequestId(1), h1), 1)]
            .into_iter()
            .collect();
        let coords = Coords::build(&[RequestId(0), RequestId(1)], &opcounts).unwrap();
        let mut g = Graph::new(std::sync::Arc::new(coords));
        vs.add_internal_state_edges(&mut g).unwrap();
        // WR edge from the write to the read (init-side edges skipped).
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn uncovered_write_rejected() {
        // A forged read observing a write that was never re-executed:
        // coverage must fail.
        let mut vs = VarStates::new();
        vs.on_initialize(var(), init_op(), Value::int(0));
        let h = HandlerId::root(FunctionId(0));
        let phantom = OpRef::new(RequestId(7), h.clone(), 3);
        let r = OpRef::new(RequestId(0), h.clone(), 1);
        let mut log = VarLogRef::new();
        log.insert(
            phantom.clone(),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(66)),
                prec: None,
            },
        );
        log.insert(
            r.clone(),
            VarLogEntry {
                access: AccessType::Read,
                value: None,
                prec: Some(phantom),
            },
        );
        // The read executes and observes the phantom; the phantom write
        // itself is never re-executed.
        vs.on_read(var(), r, Some(&log)).unwrap();
        let mut g = Graph::default();
        let err = vs.add_internal_state_edges(&mut g).unwrap_err();
        assert!(matches!(err, RejectReason::VarChainBroken { .. }));
    }
}
