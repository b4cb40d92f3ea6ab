//! Deterministic advice fault injection.
//!
//! The verifier consumes *hostile* input: the advice comes from the
//! untrusted server (§3's threat model), so the audit must terminate
//! with ACCEPT or a typed REJECT on **every** byte string — panicking,
//! over-allocating, or looping on crafted advice is a denial-of-audit.
//! This module provides the mutation catalogue the hostile-advice
//! harness drives: a deterministic, seeded set of *structured* mutators
//! (operating on a decoded [`Advice`]), *wire* mutators (operating on
//! the encoded bytes), and *pool* mutators (operating on the encoded
//! value pool and the references into it).
//!
//! Every mutator carries a [`MutationClass`] stating what a correct
//! verifier must do with its output:
//!
//! * [`MutationClass::Semantic`] — the mutation changes the alleged
//!   execution; the audit **must reject**. Each semantic mutator is
//!   designed so that rejection is guaranteed by a specific defense
//!   (e.g. duplicating a handler-log entry trips `CheckOpIsValid`'s
//!   duplicate-coordinate check, Fig. 16 lines 58–61).
//! * [`MutationClass::Cosmetic`] — the mutation changes only the
//!   advice's representation or grouping efficiency, not its meaning;
//!   the audit **must still accept** (Lemma 3: grouping does not affect
//!   the audit's verdict).
//! * [`MutationClass::Ambiguous`] — the mutation may or may not change
//!   the semantics (a bit flip can land in a tag value and merely
//!   regroup); the only obligation is that the verifier **must not
//!   panic** and must return a typed verdict.
//!
//! All randomness is an internal splitmix64 stream keyed by the caller's
//! seed, so any failure reproduces from `(mutator, seed)` alone.

use kem::pvalue::{CHUNK, MAX_CHECKED_HEIGHT};
use kem::{FunctionId, HandlerId, OpRef, Program, RequestId, Trace, TxOpKind, Value, VarId};

use crate::advice::{Advice, KTxId, OpAt, TxOpContents, TxPos};
use crate::verifier::{AuditReport, Auditor, RejectReason};
use crate::wire::{
    decode_advice_view, encode_advice, put_uvar, AdviceView, AdviceViewExt, TxOpContentsView,
};
use crate::HidTable;

/// What a correct verifier must do with a mutation's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// The alleged execution changed: the audit must REJECT.
    Semantic,
    /// The semantics may or may not have changed: the audit must
    /// return a typed verdict without panicking; either verdict is
    /// acceptable.
    Ambiguous,
    /// Only the representation changed: the audit must still ACCEPT.
    Cosmetic,
}

/// One applied mutation, ready to audit.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The mutator's name, for reporting.
    pub mutator: &'static str,
    /// What a correct verifier must do with `bytes`.
    pub class: MutationClass,
    /// Human-readable description of exactly what was changed.
    pub description: String,
    /// The mutated advice, encoded.
    pub bytes: Vec<u8>,
}

/// What the audit did with a mutation.
#[derive(Debug, Clone)]
pub enum MutationOutcome {
    /// The audit accepted.
    Accepted,
    /// The audit rejected with a typed reason.
    Rejected(RejectReason),
}

impl MutationOutcome {
    /// Classifies an audit result.
    pub fn of(result: &Result<AuditReport, RejectReason>) -> Self {
        match result {
            Ok(_) => MutationOutcome::Accepted,
            Err(r) => MutationOutcome::Rejected(r.clone()),
        }
    }

    /// Checks this outcome against the mutation's contract. Returns a
    /// description of the violation, or `None` if the verifier behaved
    /// correctly.
    ///
    /// A [`RejectReason::VerifierInternal`] outcome is a violation for
    /// *every* class: it means a panic crossed the audit path (caught
    /// only by the `catch_unwind` backstop) or an internal invariant
    /// broke — a verifier bug, not evidence about the server.
    pub fn violation(&self, class: MutationClass) -> Option<String> {
        if let MutationOutcome::Rejected(RejectReason::VerifierInternal { what }) = self {
            return Some(format!("verifier internal fault: {what}"));
        }
        match (class, self) {
            (MutationClass::Semantic, MutationOutcome::Accepted) => {
                Some("semantic mutation was ACCEPTED".to_string())
            }
            (MutationClass::Cosmetic, MutationOutcome::Rejected(r)) => {
                Some(format!("cosmetic mutation was REJECTED: {r}"))
            }
            _ => None,
        }
    }
}

/// Audits honest advice and panics if it is rejected.
///
/// Harness precondition helper: fault-injection results are only
/// meaningful against a baseline the verifier accepts, so a rejection
/// here is a bug in the collector or the verifier, not in the harness.
pub fn honest_must_accept(
    program: &Program,
    trace: &Trace,
    advice_bytes: &[u8],
    isolation: kvstore::IsolationLevel,
) -> AuditReport {
    match Auditor::default().audit(program, trace, advice_bytes, isolation) {
        Ok(report) => report,
        Err(failure) => panic!("honest advice rejected: {}", failure.reason),
    }
}

/// Deterministic splitmix64 stream; all mutator randomness comes from
/// here so a failing case replays from its seed.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be nonzero.
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A value no honest execution produces; forged into logs so
/// simulate-and-check (Figs. 19–21) is guaranteed to see a difference.
fn poison() -> Value {
    Value::str("__karousos_fault_injected__")
}

/// Picks `(rid, index)` of a handler-log entry, if any log is
/// non-empty.
fn pick_handler_log_entry(a: &Advice, rng: &mut Rng) -> Option<(RequestId, usize)> {
    let candidates: Vec<(RequestId, usize)> = a
        .handler_logs
        .iter()
        .flat_map(|(rid, log)| (0..log.len()).map(|i| (*rid, i)))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len())])
}

/// Structured-advice mutators: decode → mutate one coordinate →
/// re-encode. Each variant documents the defense its `Semantic` cases
/// are designed to trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// Remove one handler-log entry. The re-executed operation finds no
    /// log entry at its coordinate → `HandlerOpMismatch`.
    DropHandlerLogEntry,
    /// Duplicate one handler-log entry in place. Two entries share a
    /// coordinate → `InvalidLogOp` (duplicate) in `CheckOpIsValid`.
    DuplicateHandlerLogEntry,
    /// Swap two adjacent handler-log entries of the *same* handler.
    /// The log-precedence edge now opposes program order → `CycleInG`.
    ReorderHandlerLog,
    /// Remove one variable-log entry. Ambiguous: a backfilled entry may
    /// not be load-bearing for this trace.
    DropVarLogEntry,
    /// Replace a logged variable write's value with a poison value.
    /// Simulate-and-check (Fig. 20) compares it against re-execution →
    /// `VarLogMismatch`.
    ForgeVarWriteValue,
    /// Move a handler-log entry's opnum beyond its handler's opcount →
    /// `InvalidLogOp` (out of range).
    PerturbOpnum,
    /// Point a handler-log entry at a handler absent from `opcounts` →
    /// `InvalidLogOp` (unknown handler).
    PerturbHandlerId,
    /// Repoint a `GET`'s dictating write at its transaction's
    /// `tx_start` — not a `PUT` of the key → `BadDictatingWrite`
    /// (Fig. 16 line 48).
    ForgeDictatingWrite,
    /// Drop the last entry of a transaction log. The re-executed
    /// operation is no longer logged at its position →
    /// `StateOpMismatch`.
    TruncateTxLog,
    /// Replace a logged `PUT` value with a poison value.
    /// Simulate-and-check on `PUT` values → `StateOpMismatch`.
    ForgePutValue,
    /// Swap `responseEmittedBy` between two requests whose entries
    /// differ → `ResponseEmitterMismatch` (Fig. 18 line 57).
    SwapResponseEmitters,
    /// Increment one handler's opcount. Re-execution issues fewer
    /// operations than claimed → `OpcountMismatch` (Fig. 18 line 43).
    CorruptOpcount,
    /// Remove a request's control-flow tag → `MissingTag`.
    DropTag,
    /// Give one request a fresh, unique tag. Changes only grouping:
    /// Lemma 3 says the verdict is unaffected, so this must ACCEPT.
    SplitGroupTag,
    /// Remove a recorded nondeterministic value that re-execution will
    /// ask for → `MissingNondet` (§5).
    DropNondet,
    /// Replace a recorded nondeterministic value with a poison value.
    /// Ambiguous: plausibility checks or output comparison usually
    /// catch it, but a value that feeds nothing observable may pass.
    PoisonNondet,
    /// Swap two differing entries of the write order. Ambiguous: at
    /// weak isolation levels a different order can still be admissible.
    ShuffleWriteOrder,
}

impl Mutator {
    /// Every structured mutator.
    pub const ALL: &'static [Mutator] = &[
        Mutator::DropHandlerLogEntry,
        Mutator::DuplicateHandlerLogEntry,
        Mutator::ReorderHandlerLog,
        Mutator::DropVarLogEntry,
        Mutator::ForgeVarWriteValue,
        Mutator::PerturbOpnum,
        Mutator::PerturbHandlerId,
        Mutator::ForgeDictatingWrite,
        Mutator::TruncateTxLog,
        Mutator::ForgePutValue,
        Mutator::SwapResponseEmitters,
        Mutator::CorruptOpcount,
        Mutator::DropTag,
        Mutator::SplitGroupTag,
        Mutator::DropNondet,
        Mutator::PoisonNondet,
        Mutator::ShuffleWriteOrder,
    ];

    /// The mutator's name, for reporting.
    pub fn name(self) -> &'static str {
        match self {
            Mutator::DropHandlerLogEntry => "drop-handler-log-entry",
            Mutator::DuplicateHandlerLogEntry => "duplicate-handler-log-entry",
            Mutator::ReorderHandlerLog => "reorder-handler-log",
            Mutator::DropVarLogEntry => "drop-var-log-entry",
            Mutator::ForgeVarWriteValue => "forge-var-write-value",
            Mutator::PerturbOpnum => "perturb-opnum",
            Mutator::PerturbHandlerId => "perturb-handler-id",
            Mutator::ForgeDictatingWrite => "forge-dictating-write",
            Mutator::TruncateTxLog => "truncate-tx-log",
            Mutator::ForgePutValue => "forge-put-value",
            Mutator::SwapResponseEmitters => "swap-response-emitters",
            Mutator::CorruptOpcount => "corrupt-opcount",
            Mutator::DropTag => "drop-tag",
            Mutator::SplitGroupTag => "split-group-tag",
            Mutator::DropNondet => "drop-nondet",
            Mutator::PoisonNondet => "poison-nondet",
            Mutator::ShuffleWriteOrder => "shuffle-write-order",
        }
    }

    /// What the audit must do with this mutator's output.
    pub fn class(self) -> MutationClass {
        match self {
            Mutator::DropVarLogEntry | Mutator::PoisonNondet | Mutator::ShuffleWriteOrder => {
                MutationClass::Ambiguous
            }
            Mutator::SplitGroupTag => MutationClass::Cosmetic,
            _ => MutationClass::Semantic,
        }
    }

    /// Applies this mutator to `advice` with deterministic randomness
    /// from `seed`. Returns `None` when the advice has nothing this
    /// mutator targets (e.g. no transaction logs to truncate).
    pub fn apply(self, advice: &Advice, seed: u64) -> Option<Mutation> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name()));
        let mut a = advice.clone();
        let description = match self {
            Mutator::DropHandlerLogEntry => {
                let (rid, i) = pick_handler_log_entry(&a, &mut rng)?;
                let log = a.handler_logs.get_mut(&rid)?;
                let e = log.remove(i);
                format!(
                    "dropped handler-log entry {i} of {rid} ({} op {})",
                    e.hid, e.opnum
                )
            }
            Mutator::DuplicateHandlerLogEntry => {
                let (rid, i) = pick_handler_log_entry(&a, &mut rng)?;
                let log = a.handler_logs.get_mut(&rid)?;
                let e = log.get(i)?.clone();
                log.insert(i + 1, e);
                format!("duplicated handler-log entry {i} of {rid}")
            }
            Mutator::ReorderHandlerLog => {
                let candidates: Vec<(RequestId, usize)> = a
                    .handler_logs
                    .iter()
                    .flat_map(|(rid, log)| {
                        log.windows(2)
                            .enumerate()
                            .filter(|(_, w)| w[0].hid == w[1].hid && w[0].opnum != w[1].opnum)
                            .map(|(i, _)| (*rid, i))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (rid, i) = candidates[rng.below(candidates.len())];
                a.handler_logs.get_mut(&rid)?.swap(i, i + 1);
                format!("swapped handler-log entries {i} and {} of {rid}", i + 1)
            }
            Mutator::DropVarLogEntry => {
                let candidates: Vec<(VarId, OpRef)> = a
                    .var_logs
                    .iter()
                    .flat_map(|(var, log)| log.keys().map(|op| (*var, op.clone())))
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (var, op) = candidates[rng.below(candidates.len())].clone();
                a.var_logs.get_mut(&var)?.remove(&op);
                format!("dropped var-log entry of v{} at {op}", var.0)
            }
            Mutator::ForgeVarWriteValue => {
                let candidates: Vec<(VarId, OpRef)> = a
                    .var_logs
                    .iter()
                    .flat_map(|(var, log)| {
                        log.iter()
                            .filter(|(_, e)| e.value.is_some())
                            .map(|(op, _)| (*var, op.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (var, op) = candidates[rng.below(candidates.len())].clone();
                a.var_logs.get_mut(&var)?.get_mut(&op)?.value = Some(poison());
                format!("forged written value of v{} at {op}", var.0)
            }
            Mutator::PerturbOpnum => {
                let (rid, i) = pick_handler_log_entry(&a, &mut rng)?;
                let log = a.handler_logs.get_mut(&rid)?;
                let hid = log.get(i)?.hid.clone();
                let count = a.opcounts.get(&(rid, hid)).copied().unwrap_or(1_000_000);
                let entry = log.get_mut(i)?;
                entry.opnum = count.saturating_add(1);
                format!(
                    "set opnum of handler-log entry {i} of {rid} to {}",
                    entry.opnum
                )
            }
            Mutator::PerturbHandlerId => {
                let (rid, i) = pick_handler_log_entry(&a, &mut rng)?;
                let entry = a.handler_logs.get_mut(&rid)?.get_mut(i)?;
                entry.hid = HandlerId::root(FunctionId(0xDEAD_BEEF));
                format!("pointed handler-log entry {i} of {rid} at an unknown handler")
            }
            Mutator::ForgeDictatingWrite => {
                let candidates: Vec<(KTxId, usize)> = a
                    .tx_logs
                    .iter()
                    .flat_map(|(tx, log)| {
                        log.iter()
                            .enumerate()
                            .filter(|(_, e)| e.optype == TxOpKind::Get)
                            .map(|(i, _)| (tx.clone(), i))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (tx, i) = candidates[rng.below(candidates.len())].clone();
                let entry = a.tx_logs.get_mut(&tx)?.get_mut(i)?;
                entry.contents = TxOpContents::Get {
                    from: Some(TxPos {
                        tx: tx.clone(),
                        index: 0,
                    }),
                };
                format!("repointed dictating write of {tx} entry {i} at tx_start")
            }
            Mutator::TruncateTxLog => {
                let candidates: Vec<KTxId> = a
                    .tx_logs
                    .iter()
                    .filter(|(_, log)| log.len() >= 2)
                    .map(|(tx, _)| tx.clone())
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let tx = candidates[rng.below(candidates.len())].clone();
                let log = a.tx_logs.get_mut(&tx)?;
                log.pop();
                format!("truncated transaction log {tx} to {} entries", log.len())
            }
            Mutator::ForgePutValue => {
                let candidates: Vec<(KTxId, usize)> = a
                    .tx_logs
                    .iter()
                    .flat_map(|(tx, log)| {
                        log.iter()
                            .enumerate()
                            .filter(|(_, e)| matches!(e.contents, TxOpContents::Put { .. }))
                            .map(|(i, _)| (tx.clone(), i))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (tx, i) = candidates[rng.below(candidates.len())].clone();
                a.tx_logs.get_mut(&tx)?.get_mut(i)?.contents =
                    TxOpContents::Put { value: poison() };
                format!("forged PUT value of {tx} entry {i}")
            }
            Mutator::SwapResponseEmitters => {
                let rids: Vec<RequestId> = a.response_emitted_by.keys().copied().collect();
                if rids.len() < 2 {
                    return None;
                }
                let i = rng.below(rids.len());
                let r1 = rids[i];
                let v1 = a.response_emitted_by.get(&r1)?.clone();
                let r2 = rids
                    .iter()
                    .cycle()
                    .skip(i + 1)
                    .take(rids.len() - 1)
                    .find(|r| a.response_emitted_by.get(r) != Some(&v1))
                    .copied()?;
                let v2 = a.response_emitted_by.get(&r2)?.clone();
                a.response_emitted_by.insert(r1, v2);
                a.response_emitted_by.insert(r2, v1);
                format!("swapped responseEmittedBy of {r1} and {r2}")
            }
            Mutator::CorruptOpcount => {
                let keys: Vec<(RequestId, HandlerId)> = a.opcounts.keys().cloned().collect();
                if keys.is_empty() {
                    return None;
                }
                let key = keys[rng.below(keys.len())].clone();
                let count = a.opcounts.get_mut(&key)?;
                *count = count.saturating_add(1);
                format!("incremented opcount of ({}, {}) to {count}", key.0, key.1)
            }
            Mutator::DropTag => {
                let rids: Vec<RequestId> = a.tags.keys().copied().collect();
                if rids.is_empty() {
                    return None;
                }
                let rid = rids[rng.below(rids.len())];
                a.tags.remove(&rid);
                format!("dropped control-flow tag of {rid}")
            }
            Mutator::SplitGroupTag => {
                let rids: Vec<RequestId> = a.tags.keys().copied().collect();
                if rids.is_empty() {
                    return None;
                }
                let rid = rids[rng.below(rids.len())];
                let fresh = a.tags.values().max().copied().unwrap_or(0) + 1;
                a.tags.insert(rid, fresh);
                format!("gave {rid} the fresh singleton tag {fresh}")
            }
            Mutator::DropNondet => {
                let ops: Vec<OpRef> = a.nondet.keys().cloned().collect();
                if ops.is_empty() {
                    return None;
                }
                let op = ops[rng.below(ops.len())].clone();
                a.nondet.remove(&op);
                format!("dropped recorded nondet value at {op}")
            }
            Mutator::PoisonNondet => {
                let ops: Vec<OpRef> = a.nondet.keys().cloned().collect();
                if ops.is_empty() {
                    return None;
                }
                let op = ops[rng.below(ops.len())].clone();
                a.nondet.insert(op.clone(), poison());
                format!("poisoned recorded nondet value at {op}")
            }
            Mutator::ShuffleWriteOrder => {
                let n = a.write_order.len();
                if n < 2 {
                    return None;
                }
                let i = rng.below(n);
                let j = (1..n)
                    .map(|off| (i + off) % n)
                    .find(|&j| a.write_order[j] != a.write_order[i])?;
                a.write_order.swap(i, j);
                format!("swapped write-order entries {i} and {j}")
            }
        };
        Some(Mutation {
            mutator: self.name(),
            class: self.class(),
            description,
            bytes: encode_advice(&a),
        })
    }
}

/// Resource-exhaustion mutators: each crafts advice that attacks one
/// budget in [`crate::config::Limits`], for the chaos harness proving
/// every exhaustion vector terminates with a typed REJECT instead of a
/// hang, OOM, or abort (DESIGN.md §10).
///
/// Unlike [`Mutator`], whose semantic cases trip a *correctness*
/// defense, these trip a *resource* defense: under a tight limit the
/// audit must reject with the [`MutationOutcome`] this mutator's
/// [`ExhaustMutator::expected`] names, and under default (generous)
/// limits the attack must still terminate with some typed verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustMutator {
    /// Inflate every recorded nondet integer to 2^40. A program whose
    /// loop bound is advice-fed (a nondet counter) replays 2^40
    /// iterations → the fuel meter trips → `ResourceExhausted`
    /// (`replay_fuel`), or the group deadline if fuel is unmetered.
    LoopBomb,
    /// Wrap one recorded nondet value in lists nested past the
    /// decoder's depth guard. The recursion that would exhaust the
    /// verifier's stack is cut off by the nesting cap →
    /// `MalformedAdvice` ("value nesting too deep").
    DeepRecursion,
    /// Replace one recorded nondet value with a list of 2^16 elements:
    /// many small nodes whose decoded form dwarfs its wire form. The
    /// cumulative node budget trips → `ResourceExhausted`
    /// (`decode_max_nodes`).
    AllocBomb,
    /// Flood one variable's log with 2^14 fabricated entries. The
    /// pre-preprocess volume walk trips → `ResourceExhausted`
    /// (`dict_max_entries`) before any dictionary is allocated.
    DictFlood,
    /// Inflate every handler opcount to 2^20. Each claimed operation
    /// implies a graph node (plus edges), so the advice-implied node
    /// bound trips → `ResourceExhausted` (`graph_max_nodes`) before
    /// preprocess allocates the graph.
    EdgeExplosion,
    /// Merge every request into one group by giving all requests the
    /// same control-flow tag. Every `MultiValue` in that group's replay
    /// would be as wide as the whole trace → the group-width cap trips
    /// → `ResourceExhausted` (`max_group_width`).
    OversizedMultivalue,
    /// Replace one recorded nondet value with a list that holds one
    /// list twice, which holds one list twice, … forty deep: forty pool
    /// nodes on the wire describing 2^41 elements. A reference is
    /// charged what its container holds, so the node budget trips while
    /// the pool is read → `ResourceExhausted` (`decode_max_nodes`),
    /// before anything can walk the value.
    PoolBomb,
}

impl ExhaustMutator {
    /// Every exhaustion mutator.
    pub const ALL: &'static [ExhaustMutator] = &[
        ExhaustMutator::LoopBomb,
        ExhaustMutator::DeepRecursion,
        ExhaustMutator::AllocBomb,
        ExhaustMutator::DictFlood,
        ExhaustMutator::EdgeExplosion,
        ExhaustMutator::OversizedMultivalue,
        ExhaustMutator::PoolBomb,
    ];

    /// The mutator's name, for reporting.
    pub fn name(self) -> &'static str {
        match self {
            ExhaustMutator::LoopBomb => "loop-bomb",
            ExhaustMutator::DeepRecursion => "deep-recursion",
            ExhaustMutator::AllocBomb => "alloc-bomb",
            ExhaustMutator::DictFlood => "dict-flood",
            ExhaustMutator::EdgeExplosion => "edge-explosion",
            ExhaustMutator::OversizedMultivalue => "oversized-multivalue",
            ExhaustMutator::PoolBomb => "pool-bomb",
        }
    }

    /// The budget this mutator attacks, i.e. the
    /// [`crate::verifier::ResourceKind`] a tight-limits audit must
    /// report — or `None` for [`ExhaustMutator::DeepRecursion`], whose
    /// designed defense is the decoder's nesting guard
    /// (`MalformedAdvice`), not a configured budget.
    pub fn expected(self) -> Option<crate::verifier::ResourceKind> {
        use crate::verifier::ResourceKind;
        match self {
            ExhaustMutator::LoopBomb => Some(ResourceKind::ReplayFuel),
            ExhaustMutator::DeepRecursion => None,
            ExhaustMutator::AllocBomb | ExhaustMutator::PoolBomb => Some(ResourceKind::DecodeNodes),
            ExhaustMutator::DictFlood => Some(ResourceKind::DictEntries),
            ExhaustMutator::EdgeExplosion => Some(ResourceKind::GraphNodes),
            ExhaustMutator::OversizedMultivalue => Some(ResourceKind::GroupWidth),
        }
    }

    /// Applies this mutator to `advice` with deterministic randomness
    /// from `seed`. Returns `None` when the advice has nothing this
    /// mutator targets (e.g. no nondet values to inflate).
    pub fn apply(self, advice: &Advice, seed: u64) -> Option<Mutation> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name()));
        let mut a = advice.clone();
        let description = match self {
            ExhaustMutator::LoopBomb => {
                if a.nondet.is_empty() {
                    return None;
                }
                let mut inflated = 0usize;
                for v in a.nondet.values_mut() {
                    *v = Value::Int(1 << 40);
                    inflated += 1;
                }
                format!("inflated {inflated} nondet values to 2^40")
            }
            ExhaustMutator::DeepRecursion => {
                let ops: Vec<OpRef> = a.nondet.keys().cloned().collect();
                if ops.is_empty() {
                    return None;
                }
                let op = ops[rng.below(ops.len())].clone();
                // Nest two past the decoder's 64-level guard.
                let mut v = Value::Int(0);
                for _ in 0..66 {
                    v = Value::from_vec(vec![v]);
                }
                a.nondet.insert(op.clone(), v);
                format!("wrapped nondet value at {op} in 66 nested lists")
            }
            ExhaustMutator::AllocBomb => {
                let ops: Vec<OpRef> = a.nondet.keys().cloned().collect();
                if ops.is_empty() {
                    return None;
                }
                let op = ops[rng.below(ops.len())].clone();
                let n = 1usize << 16;
                a.nondet
                    .insert(op.clone(), Value::from_vec(vec![Value::Null; n]));
                format!("replaced nondet value at {op} with a {n}-element list")
            }
            ExhaustMutator::DictFlood => {
                let var = a.var_logs.keys().next().copied().unwrap_or(VarId(0));
                let hid = HandlerId::root(FunctionId(0));
                let n = 1u32 << 14;
                let log = a.var_logs.entry(var).or_default();
                for i in 0..n {
                    log.insert(
                        OpRef::new(RequestId(u64::MAX), hid.clone(), i),
                        crate::advice::VarLogEntry {
                            access: crate::advice::AccessType::Write,
                            value: Some(Value::Int(i as i64)),
                            prec: None,
                        },
                    );
                }
                format!("flooded v{}'s log with {n} fabricated entries", var.0)
            }
            ExhaustMutator::EdgeExplosion => {
                if a.opcounts.is_empty() {
                    return None;
                }
                let mut inflated = 0usize;
                for count in a.opcounts.values_mut() {
                    *count = 1 << 20;
                    inflated += 1;
                }
                format!("inflated {inflated} opcounts to 2^20")
            }
            ExhaustMutator::OversizedMultivalue => {
                if a.tags.len() < 2 {
                    return None;
                }
                let shared = *a.tags.values().next()?;
                for tag in a.tags.values_mut() {
                    *tag = shared;
                }
                format!("merged all {} requests into one group", a.tags.len())
            }
            ExhaustMutator::PoolBomb => {
                let ops: Vec<OpRef> = a.nondet.keys().cloned().collect();
                if ops.is_empty() {
                    return None;
                }
                let op = ops[rng.below(ops.len())].clone();
                // Forty allocations here too: each level shares the one
                // below. Nothing may walk this value, only encode it.
                let mut v = Value::from_vec(vec![Value::Null; 2]);
                for _ in 1..40 {
                    v = Value::from_vec(vec![v.clone(), v]);
                }
                a.nondet.insert(op.clone(), v);
                format!("replaced nondet value at {op} with a 40-level doubling list")
            }
        };
        Some(Mutation {
            mutator: self.name(),
            class: MutationClass::Semantic,
            description,
            bytes: encode_advice(&a),
        })
    }
}

/// Wire-level mutators: operate directly on the encoded bytes, before
/// any decoding. These exercise the codec's own defenses (positioned
/// errors, the trailing-bytes check, declared-length budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMutator {
    /// Cut the byte string short. Decoding is deterministic, so a
    /// strict prefix of a valid encoding always hits end-of-input →
    /// `MalformedAdvice`.
    Truncate,
    /// Append garbage after a valid encoding → the `trailing bytes`
    /// check fires.
    AppendGarbage,
    /// Flip one bit. Ambiguous: the flip can land in a tag value and
    /// merely regroup, or corrupt structure; must never panic.
    BitFlip,
    /// Replace the leading declared length with an enormous one → the
    /// decoder's length-vs-remaining-bytes budget rejects it before
    /// preallocating.
    InflateLength,
}

impl WireMutator {
    /// Every wire mutator.
    pub const ALL: &'static [WireMutator] = &[
        WireMutator::Truncate,
        WireMutator::AppendGarbage,
        WireMutator::BitFlip,
        WireMutator::InflateLength,
    ];

    /// The mutator's name, for reporting.
    pub fn name(self) -> &'static str {
        match self {
            WireMutator::Truncate => "wire-truncate",
            WireMutator::AppendGarbage => "wire-append-garbage",
            WireMutator::BitFlip => "wire-bit-flip",
            WireMutator::InflateLength => "wire-inflate-length",
        }
    }

    /// What the audit must do with this mutator's output.
    pub fn class(self) -> MutationClass {
        match self {
            WireMutator::BitFlip => MutationClass::Ambiguous,
            _ => MutationClass::Semantic,
        }
    }

    /// Applies this mutator to encoded advice with deterministic
    /// randomness from `seed`. Returns `None` when the input is too
    /// short to mutate.
    pub fn apply(self, bytes: &[u8], seed: u64) -> Option<Mutation> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name()));
        let (out, description) = match self {
            WireMutator::Truncate => {
                if bytes.len() < 2 {
                    return None;
                }
                let cut = 1 + rng.below(bytes.len() - 1);
                (
                    bytes[..cut].to_vec(),
                    format!("truncated {} bytes to {cut}", bytes.len()),
                )
            }
            WireMutator::AppendGarbage => {
                let extra = 1 + rng.below(8);
                let mut out = bytes.to_vec();
                for _ in 0..extra {
                    out.push((rng.next() & 0xff) as u8);
                }
                (out, format!("appended {extra} garbage bytes"))
            }
            WireMutator::BitFlip => {
                if bytes.is_empty() {
                    return None;
                }
                let pos = rng.below(bytes.len());
                let bit = rng.below(8);
                let mut out = bytes.to_vec();
                out[pos] ^= 1 << bit;
                (out, format!("flipped bit {bit} of byte {pos}"))
            }
            WireMutator::InflateLength => {
                // The encoding opens with the varint tag count; replace
                // it with 2^40, far beyond any buffer's element budget.
                let first = skip_uvar(bytes)?;
                let mut out = Vec::with_capacity(bytes.len() + 6);
                put_uvar(&mut out, 1 << 40);
                out.extend_from_slice(&bytes[first..]);
                (out, "declared 2^40 tags".to_string())
            }
        };
        Some(Mutation {
            mutator: self.name(),
            class: self.class(),
            description,
            bytes: out,
        })
    }
}

/// Value-pool mutators: operate on the encoded pool section and on the
/// references into it (DESIGN.md §20). A pool node may name only nodes
/// before it, holds 1 to 16 entries, keeps a map's keys ascending
/// across its whole subtree, and roots a tree of at most 16 levels;
/// each `Semantic` case here breaks one of those and must be
/// `MalformedAdvice` at the node — except [`PoolMutator::SwapRef`] and
/// the [`PoolMutator::TallTree`] that keeps to 16 levels, well-formed
/// pools telling a different story, which must survive decoding to be
/// caught by replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMutator {
    /// Point a logged value's reference past the end of the pool →
    /// `pool ref`.
    DanglingRef,
    /// Append a node that refers to itself, or to the node after it →
    /// `pool ref`: a node is known only once it has been read, so no
    /// cycle can be written down.
    ForwardRef,
    /// Append a node of width 0, or of width 17 → `pool node width`.
    BadWidth,
    /// Append two one-entry map leaves and a branch that lists them in
    /// descending key order → `pool node key order`: each leaf is
    /// sorted, the subtree is not.
    UnsortedSiblings,
    /// Append the same node twice. Nothing refers to either copy and
    /// nothing requires a pool to be free of duplicates: must ACCEPT.
    DuplicateNode,
    /// Point a logged write's reference at a different pool node of the
    /// same kind. Every reference is valid, so this decodes; the value
    /// is not what re-execution writes → `VarLogMismatch` /
    /// `StateOpMismatch`.
    SwapRef,
    /// Point a logged write's reference at an appended tree of null
    /// entries in the worst shape a pool can describe: every node on
    /// one root-to-leaf path full, every other as thin as a node may be,
    /// and as tall as an assembled tree may be — or one level taller.
    /// The first decodes and is not what re-execution writes; the second
    /// is `pool node tree too deep`.
    TallTree,
    /// Re-cut a logged map into that shape, entry for entry, with the
    /// full path where the next version's new key lands (for a list, at
    /// the end): the program is fed the tree, its one update splits
    /// every node on the path and the root, and the taller tree is
    /// compared, entry by entry, with the next logged version. Content
    /// is untouched and no shape is owed: must ACCEPT. Needs a container
    /// of 241 entries; smaller advice has no target.
    RecutTall,
    /// In a logged map write that adds one key to another logged
    /// version, swap a root child off the new key's path for a copy of
    /// the same shape, every node new, with one value changed → the
    /// logged value is not what re-execution writes: `VarLogMismatch`.
    /// Needs a map past one leaf; smaller advice has no target.
    ForgeOffPath,
    /// In such a write, change the new key's value, copying only the
    /// nodes on its path: every other node is the honest one, shared by
    /// reference → `VarLogMismatch`.
    ForgeAtKey,
}

/// A reference in a value position of the log sections: where its
/// bytes are, and what it names.
struct LoggedRef {
    span: std::ops::Range<usize>,
    id: usize,
}

/// Offset of `part`, a subslice of `bytes`, within it.
fn offset_in(bytes: &[u8], part: &[u8]) -> usize {
    (part.as_ptr() as usize).saturating_sub(bytes.as_ptr() as usize)
}

/// The references in logged write values (var-log writes and
/// transactional `PUT`s), at any depth.
fn logged_refs(bytes: &[u8], view: &AdviceView<'_>) -> Vec<LoggedRef> {
    let mut refs = Vec::new();
    for raw in &view.values {
        let at = offset_in(bytes, raw.bytes());
        // The view validated these bytes, so the scan reaches the end.
        let _ = refs_in(bytes, at, &mut refs);
    }
    refs
}

/// Collects the references in the value encoded at `bytes[at..]` and
/// returns where it ends; `None` if the bytes are not a value.
fn refs_in(bytes: &[u8], at: usize, refs: &mut Vec<LoggedRef>) -> Option<usize> {
    let uvar = |at: usize| uvar_at(bytes, at);
    let body = at + 1;
    match *bytes.get(at)? {
        0 => Some(body),
        1 => Some(body + 1),
        2 | 3 => Some(uvar(body)?.1),
        tag @ (4 | 5) => {
            let (n, mut at) = uvar(body)?;
            for _ in 0..n {
                if tag == 5 {
                    at = uvar(at)?.1;
                }
                at = refs_in(bytes, at, refs)?;
            }
            Some(at)
        }
        6 => {
            let (id, end) = uvar(body)?;
            refs.push(LoggedRef { span: at..end, id });
            Some(end)
        }
        _ => None,
    }
}

/// The varint at `bytes[at..]` and where it ends.
fn uvar_at(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    let rest = bytes.get(at..)?;
    Some((read_uvar(rest)? as usize, at + skip_uvar(rest)?))
}

/// Where the tags section — the wire's first: a count, then `(rid,
/// tag)` pairs — ends.
fn tags_end(bytes: &[u8]) -> Option<usize> {
    let (tags, mut at) = uvar_at(bytes, 0)?;
    for _ in 0..tags.checked_mul(2)? {
        at = uvar_at(bytes, at)?.1;
    }
    Some(at)
}

/// `bytes` with the tags section rewritten to give every request of
/// `trace` a tag of its own, and every later byte copied unchanged.
/// Audited, these are Lemma 3's ungrouped side (`OOOAudit`, Fig. 22):
/// every request replays as a singleton group, whatever the server
/// tagged. `None` when the tags section does not parse. A decode
/// error's offset past the tags section shifts by the rewrite's change
/// in length.
pub fn singleton_tags(bytes: &[u8], trace: &Trace) -> Option<Vec<u8>> {
    let end = tags_end(bytes)?;
    let mut rids: Vec<u64> = trace.request_ids().iter().map(|rid| rid.0).collect();
    rids.sort_unstable();
    rids.dedup();
    let mut out = Vec::with_capacity(bytes.len());
    put_uvar(&mut out, rids.len() as u64);
    for (tag, rid) in rids.iter().enumerate() {
        put_uvar(&mut out, *rid);
        put_uvar(&mut out, tag as u64);
    }
    out.extend_from_slice(&bytes[end..]);
    Some(out)
}

/// The string table's spans, then the handler-id table's: each opens
/// with its count's, then one per entry.
fn table_spans(bytes: &[u8]) -> Option<[Vec<std::ops::Range<usize>>; 2]> {
    let mut at = tags_end(bytes)?;
    let mut tables = [Vec::new(), Vec::new()];
    for (strings, spans) in [true, false].into_iter().zip(&mut tables) {
        let (n, entries) = uvar_at(bytes, at)?;
        spans.push(at..entries);
        at = entries;
        for _ in 0..n.min(bytes.len()) {
            let start = at;
            if strings {
                let (len, text) = uvar_at(bytes, at)?;
                at = text.checked_add(len)?;
            } else {
                for _ in 0..3 {
                    at = uvar_at(bytes, at)?.1;
                }
            }
            spans.push(start..at);
        }
    }
    Some(tables)
}

/// `bytes` with `strings` appended to the string table, and the index
/// of the first of them.
fn with_strings(bytes: &[u8], strings: &[String]) -> Option<(Vec<u8>, usize)> {
    let [table, _] = table_spans(bytes)?;
    let (count, end) = (table.first()?, table.last()?.end);
    let first = table.len() - 1;
    let mut out = bytes[..count.start].to_vec();
    put_uvar(&mut out, (first + strings.len()) as u64);
    out.extend_from_slice(&bytes[count.end..end]);
    for s in strings {
        put_uvar(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&bytes[end..]);
    Some((out, first))
}

/// `bytes` with `span` replaced by `with`.
fn spliced(bytes: &[u8], span: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    [&bytes[..span.start], with, &bytes[span.end..]].concat()
}

/// `bytes` with the reference at `span` naming pool node `id`.
fn with_ref(bytes: &[u8], span: &std::ops::Range<usize>, id: usize) -> Vec<u8> {
    let mut reference = vec![6];
    put_uvar(&mut reference, id as u64);
    spliced(bytes, span.clone(), &reference)
}

/// `bytes` with `nodes` appended to the pool.
fn with_nodes(bytes: &[u8], view: &AdviceView<'_>, nodes: &[&[u8]]) -> Option<Vec<u8>> {
    let start = offset_in(bytes, view.pool_bytes);
    let count = skip_uvar(view.pool_bytes)?;
    let mut out = bytes[..start].to_vec();
    put_uvar(&mut out, (view.pool.len() + nodes.len()) as u64);
    out.extend_from_slice(&view.pool_bytes[count..]);
    for node in nodes {
        out.extend_from_slice(node);
    }
    out.extend_from_slice(&bytes[start + view.pool_bytes.len()..]);
    Some(out)
}

impl PoolMutator {
    /// Every pool mutator.
    pub const ALL: &'static [PoolMutator] = &[
        PoolMutator::DanglingRef,
        PoolMutator::ForwardRef,
        PoolMutator::BadWidth,
        PoolMutator::UnsortedSiblings,
        PoolMutator::DuplicateNode,
        PoolMutator::SwapRef,
        PoolMutator::TallTree,
        PoolMutator::RecutTall,
        PoolMutator::ForgeOffPath,
        PoolMutator::ForgeAtKey,
    ];

    /// The mutator's name, for reporting.
    pub fn name(self) -> &'static str {
        match self {
            PoolMutator::DanglingRef => "pool-dangling-ref",
            PoolMutator::ForwardRef => "pool-forward-ref",
            PoolMutator::BadWidth => "pool-bad-width",
            PoolMutator::UnsortedSiblings => "pool-unsorted-siblings",
            PoolMutator::DuplicateNode => "pool-duplicate-node",
            PoolMutator::SwapRef => "pool-swap-ref",
            PoolMutator::TallTree => "pool-tall-tree",
            PoolMutator::RecutTall => "pool-recut-tall",
            PoolMutator::ForgeOffPath => "pool-forge-off-path",
            PoolMutator::ForgeAtKey => "pool-forge-at-key",
        }
    }

    /// What the audit must do with this mutator's output.
    pub fn class(self) -> MutationClass {
        match self {
            PoolMutator::DuplicateNode | PoolMutator::RecutTall => MutationClass::Cosmetic,
            _ => MutationClass::Semantic,
        }
    }

    /// Applies this mutator to honest encoded advice with deterministic
    /// randomness from `seed`. Returns `None` when the advice has
    /// nothing this mutator targets (no logged value is a reference),
    /// or is not decodable advice.
    pub fn apply(self, honest: &[u8], seed: u64) -> Option<Mutation> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name()));
        // The keys the nodes this mutator appends hold, appended to the
        // string table first.
        let keys: Vec<String> = match self {
            PoolMutator::UnsortedSiblings => vec!["b".into(), "a".into()],
            PoolMutator::DuplicateNode => vec!["k".into()],
            // Below anything a program inserts.
            PoolMutator::TallTree => (0..TreeWriter::fewest(MAX_CHECKED_HEIGHT + 1))
                .map(|i| format!("\u{1}{i:03}"))
                .collect(),
            _ => Vec::new(),
        };
        let (bytes, key) = with_strings(honest, &keys)?;
        let bytes = &bytes[..];
        let view = decode_advice_view(bytes).ok()?;
        // The index the first appended node gets.
        let next = view.pool.len() as u64;
        // A one-entry list leaf or two-child map branch naming `ids`.
        let naming = |head: &[u8], ids: &[u64]| {
            let mut node = head.to_vec();
            for id in ids {
                put_uvar(&mut node, *id);
            }
            node
        };
        let (out, description) = match self {
            PoolMutator::DanglingRef => {
                let refs = logged_refs(bytes, &view);
                let target = refs.get(rng.below(refs.len().max(1)))?;
                let id = view.pool.len() + rng.below(1000);
                (
                    with_ref(bytes, &target.span, id),
                    format!(
                        "pointed the reference at byte {} past the pool, at node {id}",
                        target.span.start
                    ),
                )
            }
            PoolMutator::ForwardRef => {
                let ahead = rng.below(2) as u64;
                // [ref next + ahead], then a node for it to be ahead of.
                let first = naming(&[2, 1, 6], &[next + ahead]);
                (
                    with_nodes(bytes, &view, &[&first, &[2, 1, 0]])?,
                    format!("appended a node referring to node {}", next + ahead),
                )
            }
            PoolMutator::BadWidth => {
                let wide = [&[2u8, 17][..], &[0; 17]].concat();
                let (node, width) = if rng.below(2) == 0 {
                    (&[0u8, 0][..], 0)
                } else {
                    (&wide[..], 17)
                };
                (
                    with_nodes(bytes, &view, &[node])?,
                    format!("appended a node of width {width}"),
                )
            }
            PoolMutator::UnsortedSiblings => {
                let leaf = |key: usize| [naming(&[0, 1], &[key as u64]), vec![0]].concat();
                let branch = naming(&[1, 2], &[next, next + 1]);
                let nodes: [&[u8]; 3] = [&leaf(key), &leaf(key + 1), &branch];
                (
                    with_nodes(bytes, &view, &nodes)?,
                    "appended a branch over leaves {b} and {a}, in that order".to_string(),
                )
            }
            PoolMutator::DuplicateNode => {
                let node = &[
                    naming(&[0, 1], &[key as u64]),
                    vec![2, (rng.next() & 0x3f) as u8],
                ]
                .concat();
                (
                    with_nodes(bytes, &view, &[node, node])?,
                    "appended one unreferenced node twice".to_string(),
                )
            }
            PoolMutator::SwapRef => {
                let refs = logged_refs(bytes, &view);
                let target = refs.get(rng.below(refs.len().max(1)))?;
                let was = view.pool.get(target.id)?;
                // Another node of the same kind that is a different
                // value (two nodes can hold equal entries in differently
                // cut trees).
                let other = refs.iter().map(|r| r.id).find(|id| {
                    view.pool.get(*id).is_some_and(|v| {
                        std::mem::discriminant(v) == std::mem::discriminant(was) && v != was
                    })
                })?;
                (
                    with_ref(bytes, &target.span, other),
                    format!(
                        "pointed the reference at byte {} at node {other} instead of {}",
                        target.span.start, target.id
                    ),
                )
            }
            PoolMutator::TallTree => {
                let height = MAX_CHECKED_HEIGHT + rng.below(2);
                let refs = logged_refs(bytes, &view);
                let target = refs.get(rng.below(refs.len().max(1)))?;
                let is_map = matches!(view.pool.get(target.id)?, Value::Map(_));
                let entries: Vec<Vec<u8>> = (0..TreeWriter::fewest(height))
                    .map(|i| match is_map {
                        true => [naming(&[], &[(key + i) as u64]), vec![0]].concat(),
                        false => vec![0],
                    })
                    .collect();
                let entries: Vec<&[u8]> = entries.iter().map(Vec::as_slice).collect();
                let tree = TreeWriter::tall(is_map, &entries, next, height, entries.len() - 1)?;
                (
                    with_tree(bytes, &view, &tree.nodes, &target.span)?,
                    format!(
                        "pointed the reference at byte {} at a {height}-level tree with a full path",
                        target.span.start
                    ),
                )
            }
            PoolMutator::RecutTall => {
                let refs = logged_refs(bytes, &view);
                let height = MAX_CHECKED_HEIGHT;
                // The logged containers big enough to re-cut, each with
                // the entry that the one update replay makes of it lands
                // after.
                let len = |v: &Value| match v {
                    Value::List(l) => l.len(),
                    Value::Map(m) => m.len(),
                    _ => 0,
                };
                let targets: Vec<(&LoggedRef, usize)> = refs
                    .iter()
                    .filter(|r| view.pool.get(r.id).map_or(0, len) >= TreeWriter::fewest(height))
                    .filter_map(|r| {
                        let lands = match view.pool.get(r.id)? {
                            Value::Map(m) => refs
                                .iter()
                                .find_map(|r| new_key_at(m, view.pool.get(r.id)?))?,
                            list => len(list),
                        };
                        Some((r, lands.saturating_sub(1)))
                    })
                    .collect();
                let (target, at) = *targets.get(rng.below(targets.len().max(1)))?;
                let nodes = pool_node_spans(view.pool_bytes)?;
                let mut entries = Vec::new();
                entries_under(view.pool_bytes, &nodes, target.id, &mut entries)?;
                let is_map = matches!(view.pool.get(target.id)?, Value::Map(_));
                let tree = TreeWriter::tall(is_map, &entries, next, height, at)?;
                (
                    with_tree(bytes, &view, &tree.nodes, &target.span)?,
                    format!(
                        "re-cut node {}, {} entries, as a {height}-level tree with a full path to entry {at}",
                        target.id,
                        entries.len()
                    ),
                )
            }
            PoolMutator::ForgeOffPath | PoolMutator::ForgeAtKey => {
                let refs = logged_refs(bytes, &view);
                let off_path = self == PoolMutator::ForgeOffPath;
                // Logged maps one key past another logged version, with
                // where that key sits; off the path needs a branch root.
                let targets: Vec<(&LoggedRef, usize)> = refs
                    .iter()
                    .filter_map(|r| {
                        let v = view.pool.get(r.id)?;
                        if off_path && v.as_map()?.root().entries().is_some() {
                            return None;
                        }
                        let at = refs
                            .iter()
                            .find_map(|w| new_key_at(view.pool.get(w.id)?.as_map()?, v))?;
                        Some((r, at))
                    })
                    .collect();
                let (target, at) = *targets.get(rng.below(targets.len().max(1)))?;
                let mut forger = Forger {
                    pool: view.pool_bytes,
                    spans: pool_node_spans(view.pool_bytes)?,
                    sizes: &view.pool,
                    next,
                    nodes: Vec::new(),
                };
                let description = if off_path {
                    let mut ids = forger.children(target.id)?;
                    let path = forger.child_at(&ids, at)?.0;
                    let off: Vec<usize> = (0..ids.len()).filter(|&i| i != path).collect();
                    let slot = *off.get(rng.below(off.len().max(1)))?;
                    let entry = rng.below(forger.len(ids[slot])?.max(1));
                    ids[slot] = forger.rewrite(ids[slot], Some(entry), true)?;
                    forger.branch_like(target.id, &ids)?;
                    format!(
                        "copied child {slot} of node {}, off the new key's path, with entry {entry} changed",
                        target.id
                    )
                } else {
                    forger.rewrite(target.id as u64, Some(at), false)?;
                    format!(
                        "changed entry {at} of node {}, the new key, copying only its path",
                        target.id
                    )
                };
                (
                    with_tree(bytes, &view, &forger.nodes, &target.span)?,
                    description,
                )
            }
        };
        Some(Mutation {
            mutator: self.name(),
            class: self.class(),
            description,
            bytes: out,
        })
    }
}

/// String- and handler-id-table mutators (DESIGN.md §20): each breaks a
/// rule the two tables keep — every reference names an entry, a parent
/// is an earlier entry, a count fits the bytes after it, a string is
/// UTF-8 — or has references describe more than the node budget allows,
/// and must be REJECTed at decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMutator {
    /// Drop the string table's last entry: the first reference to it
    /// names nothing → `MalformedAdvice` there.
    DanglingString,
    /// Drop the handler-id table's last entry, which no later entry can
    /// name as its parent: the table stays valid, and the first section
    /// reference to the entry names nothing → `MalformedAdvice` (`hid`)
    /// there.
    DanglingHid,
    /// Point a handler-id entry's parent at itself, or at the entry
    /// after it → `hid parent`: an id is known only once it has been
    /// read, so no cycle can be written down.
    ForwardParent,
    /// Declare 2^40 entries in the string or the handler-id table →
    /// `strings len` / `hids len`, before room is made for them.
    InflateCount,
    /// Make a string entry's first byte `0xff` → `string`.
    BadUtf8,
    /// Append a chain of 4 096 handler ids, each the child of the one
    /// before, and name the deepest from 17 408 new opcount entries:
    /// each reference is charged the 4 096 steps it would have been
    /// written out as → `ResourceExhausted` (`decode_nodes`) under the
    /// default budget, while the references are read.
    DeepChain,
    /// Grow the string or the handler-id table to one entry more than
    /// the default node budget, every new entry valid — an empty string,
    /// a root — and named by nothing → `ResourceExhausted`
    /// (`decode_nodes`) at the count, before room is made for them.
    Flood,
}

impl TableMutator {
    /// Every table mutator.
    pub const ALL: &'static [TableMutator] = &[
        TableMutator::DanglingString,
        TableMutator::DanglingHid,
        TableMutator::ForwardParent,
        TableMutator::InflateCount,
        TableMutator::BadUtf8,
        TableMutator::DeepChain,
        TableMutator::Flood,
    ];

    /// The mutator's name, for reporting.
    pub fn name(self) -> &'static str {
        match self {
            TableMutator::DanglingString => "table-dangling-string",
            TableMutator::DanglingHid => "table-dangling-hid",
            TableMutator::ForwardParent => "table-forward-parent",
            TableMutator::InflateCount => "table-inflate-count",
            TableMutator::BadUtf8 => "table-bad-utf8",
            TableMutator::DeepChain => "table-deep-chain",
            TableMutator::Flood => "table-flood",
        }
    }

    /// Applies this mutator to honest encoded advice with deterministic
    /// randomness from `seed`. Returns `None` when the table it targets
    /// is empty, or the bytes are not decodable advice.
    pub fn apply(self, bytes: &[u8], seed: u64) -> Option<Mutation> {
        let mut rng = Rng::new(seed ^ fnv1a(self.name()));
        let [strings, hids] = table_spans(bytes)?;
        let (out, description) = match self {
            TableMutator::DanglingString | TableMutator::DanglingHid => {
                let (name, spans) = match self {
                    TableMutator::DanglingString => ("string", &strings),
                    _ => ("handler id", &hids),
                };
                let (count, last) = (spans.first()?, spans.get(1..)?.last()?);
                let mut out = bytes[..count.start].to_vec();
                put_uvar(&mut out, spans.len() as u64 - 2);
                out.extend_from_slice(&bytes[count.end..last.start]);
                out.extend_from_slice(&bytes[last.end..]);
                (out, format!("dropped {name} {}", spans.len() - 2))
            }
            TableMutator::ForwardParent => {
                let i = rng.below(hids.len().saturating_sub(1).max(1));
                let parent = i + rng.below(2);
                let entry = hids.get(i + 1)?.start;
                let field = entry..uvar_at(bytes, entry)?.1;
                let mut with = Vec::new();
                put_uvar(&mut with, parent as u64 + 1);
                (
                    spliced(bytes, field, &with),
                    format!("gave handler id {i} the parent {parent}"),
                )
            }
            TableMutator::InflateCount => {
                let (name, spans) = match rng.below(2) {
                    0 => ("strings", &strings),
                    _ => ("handler ids", &hids),
                };
                let mut with = Vec::new();
                put_uvar(&mut with, 1 << 40);
                (
                    spliced(bytes, spans.first()?.clone(), &with),
                    format!("declared 2^40 {name}"),
                )
            }
            TableMutator::BadUtf8 => {
                let texts: Vec<usize> = (strings.get(1..)?.iter())
                    .filter_map(|e| match uvar_at(bytes, e.start)? {
                        (0, _) => None,
                        (_, text) => Some(text),
                    })
                    .collect();
                let at = *texts.get(rng.below(texts.len().max(1)))?;
                (
                    spliced(bytes, at..at + 1, &[0xff]),
                    format!("made the string at byte {at} start with 0xff"),
                )
            }
            TableMutator::DeepChain => {
                let mut view = decode_advice_view(bytes).ok()?;
                let mut deepest = HandlerId::root(FunctionId(rng.below(1 << 16) as u32));
                for _ in 1..4096 {
                    deepest = HandlerId::child(&deepest, FunctionId(0), 1);
                }
                let held = (0..).map_while(|rank| view.paths.id(rank));
                let paths = HidTable::of(held.chain([&deepest]));
                let path = paths.rank(&deepest)?;
                reranked(&mut view, paths)?;
                let refs = (1 << 14) + (1 << 10);
                for rid in 0..refs {
                    view.opcounts.push(((RequestId(rid), path), 1));
                }
                (
                    view.encode(),
                    format!("named a 4096-step handler id from {refs} opcounts"),
                )
            }
            TableMutator::Flood => {
                // An empty string is one zero byte, a root three.
                let (name, spans, width) = match rng.below(2) {
                    0 => ("strings", &strings, 1),
                    _ => ("handler ids", &hids, 3),
                };
                let (count, end) = (spans.first()?, spans.last()?.end);
                let n = crate::Limits::default().decode_max_nodes + 1;
                let mut head = bytes[..count.start].to_vec();
                put_uvar(&mut head, n);
                head.extend_from_slice(&bytes[count.end..end]);
                let added = (n as usize - (spans.len() - 1)) * width;
                // Allocated zeroed, the new entries' pages are touched by
                // no one: the decode refuses the count without reading
                // them.
                let mut out = vec![0; head.len() + added + (bytes.len() - end)];
                out[..head.len()].copy_from_slice(&head);
                let tail = out.len() - (bytes.len() - end);
                out[tail..].copy_from_slice(&bytes[end..]);
                (out, format!("declared {n} {name}, all valid"))
            }
        };
        Some(Mutation {
            mutator: self.name(),
            class: MutationClass::Semantic,
            description,
            bytes: out,
        })
    }
}

/// `view` over `paths`, a table that holds every path of the view's own:
/// each rank the view holds is moved to its path's rank there.
fn reranked(view: &mut AdviceView<'_>, paths: HidTable) -> Option<()> {
    let old = std::mem::replace(&mut view.paths, std::sync::Arc::new(paths));
    let ranks = (0..).map_while(|rank| old.id(rank));
    let map: Vec<u32> = ranks.map(|h| view.paths.rank(h)).collect::<Option<_>>()?;
    let re = |rank: &mut u32| *rank = map[*rank as usize];
    let at = |at: &mut OpAt| re(&mut at.path);
    view.hids.iter_mut().for_each(re);
    for entry in &mut view.handler_logs.entries {
        re(&mut entry.path);
    }
    for (op, entry) in view.var_logs.iter_mut().flat_map(|(_, log)| log) {
        at(op);
        entry.prec.as_mut().map(at);
    }
    view.tx_logs.index.iter_mut().for_each(|(tx, _)| at(tx));
    for entry in &mut view.tx_logs.entries {
        re(&mut entry.path);
        if let TxOpContentsView::Get {
            from: Some((tx, _)),
        } = &mut entry.contents
        {
            at(tx);
        }
    }
    view.write_order.iter_mut().for_each(|(tx, _)| at(tx));
    view.response_emitted_by
        .iter_mut()
        .for_each(|(_, (rank, _))| re(rank));
    view.opcounts.iter_mut().for_each(|((_, rank), _)| re(rank));
    view.nondet.iter_mut().for_each(|(op, _)| at(op));
    Some(())
}

/// If `next` is the map `m` with one more key, how many of `m`'s keys
/// sort below it.
fn new_key_at(m: &kem::PMap, next: &Value) -> Option<usize> {
    let Value::Map(n) = next else { return None };
    if n.len() != m.len() + 1 {
        return None;
    }
    let at = n.keys().zip(m.keys()).take_while(|(a, b)| a == b).count();
    n.keys().skip(at + 1).eq(m.keys().skip(at)).then_some(at)
}

/// `bytes` with the nodes `tree` appended to the pool and the
/// reference at `span` — in the logs, so after the pool — naming the
/// last of them.
fn with_tree(
    bytes: &[u8],
    view: &AdviceView<'_>,
    tree: &[Vec<u8>],
    span: &std::ops::Range<usize>,
) -> Option<Vec<u8>> {
    let nodes: Vec<&[u8]> = tree.iter().map(Vec::as_slice).collect();
    let grown = with_nodes(bytes, view, &nodes)?;
    let shift = grown.len() - bytes.len();
    let root = view.pool.len() + nodes.len() - 1;
    Some(with_ref(
        &grown,
        &(span.start + shift..span.end + shift),
        root,
    ))
}

/// Where each node of the pool section `pool` lies in it.
fn pool_node_spans(pool: &[u8]) -> Option<Vec<std::ops::Range<usize>>> {
    let mut at = skip_uvar(pool)?;
    let mut spans = Vec::new();
    for _ in 0..read_uvar(pool)? {
        let start = at;
        let (kind, width) = (*pool.get(at)?, *pool.get(at + 1)?);
        at += 2;
        for _ in 0..width {
            at = entry_end(pool, kind, at)?;
        }
        spans.push(start..at);
    }
    Some(spans)
}

/// Where the entry of a pool node of `kind` at `bytes[at..]` ends: a
/// leaf's value, with its key in a map, or a branch's child id.
fn entry_end(bytes: &[u8], kind: u8, at: usize) -> Option<usize> {
    let rest = bytes.get(at..)?;
    match kind {
        0 => refs_in(bytes, at + skip_uvar(rest)?, &mut Vec::new()),
        2 => refs_in(bytes, at, &mut Vec::new()),
        _ => Some(at + skip_uvar(rest)?),
    }
}

/// The encoded entries of the container rooted at pool node `id`, in
/// order: what its leaves hold, whatever the tree above them.
fn entries_under<'a>(
    pool: &'a [u8],
    nodes: &[std::ops::Range<usize>],
    id: usize,
    out: &mut Vec<&'a [u8]>,
) -> Option<()> {
    let node = nodes.get(id)?;
    let (kind, width) = (*pool.get(node.start)?, *pool.get(node.start + 1)?);
    let mut at = node.start + 2;
    for _ in 0..width {
        let end = entry_end(pool, kind, at)?;
        if kind == 0 || kind == 2 {
            out.push(pool.get(at..end)?);
        } else {
            entries_under(pool, nodes, read_uvar(pool.get(at..)?)? as usize, out)?;
        }
        at = end;
    }
    Some(())
}

/// Writes copies of pool map nodes with one leaf value changed; the
/// last node written is the copy of the node the rewrite started at.
struct Forger<'p> {
    pool: &'p [u8],
    spans: Vec<std::ops::Range<usize>>,
    /// The pool, built: what each node's subtree holds.
    sizes: &'p [Value],
    /// The id the first node written gets.
    next: u64,
    nodes: Vec<Vec<u8>>,
}

impl Forger<'_> {
    /// Entries under map node `id`.
    fn len(&self, id: u64) -> Option<usize> {
        self.sizes.get(id as usize)?.as_map().map(kem::PMap::len)
    }

    /// A map branch's child ids; `None` for anything else.
    fn children(&self, id: usize) -> Option<Vec<u64>> {
        let span = self.spans.get(id)?;
        let (kind, width) = (*self.pool.get(span.start)?, *self.pool.get(span.start + 1)?);
        if kind != 1 {
            return None;
        }
        let mut at = span.start + 2;
        let mut ids = Vec::with_capacity(width as usize);
        for _ in 0..width {
            let (id, end) = uvar_at(self.pool, at)?;
            ids.push(id as u64);
            at = end;
        }
        Some(ids)
    }

    /// The child holding entry `at` of its parent, and `at` within it.
    fn child_at(&self, children: &[u64], mut at: usize) -> Option<(usize, usize)> {
        for (i, &child) in children.iter().enumerate() {
            let len = self.len(child)?;
            if at < len {
                return Some((i, at));
            }
            at -= len;
        }
        None
    }

    fn push(&mut self, node: Vec<u8>) -> u64 {
        self.nodes.push(node);
        self.next + self.nodes.len() as u64 - 1
    }

    /// A branch of node `id`'s kind over `ids`.
    fn branch_like(&mut self, id: usize, ids: &[u64]) -> Option<u64> {
        let kind = *self.pool.get(self.spans.get(id)?.start)?;
        let mut node = vec![kind, ids.len() as u8];
        for id in ids {
            put_uvar(&mut node, *id);
        }
        Some(self.push(node))
    }

    /// A copy of map node `id` with entry `at` of its subtree, if any,
    /// holding another value: the nodes on the path to it are copied,
    /// and with `whole` every other node under `id` too, else they are
    /// shared.
    fn rewrite(&mut self, id: u64, at: Option<usize>, whole: bool) -> Option<u64> {
        let id = id as usize;
        if let Some(children) = self.children(id) {
            let path = match at {
                Some(at) => Some(self.child_at(&children, at)?),
                None => None,
            };
            let mut ids = Vec::with_capacity(children.len());
            for (i, &child) in children.iter().enumerate() {
                ids.push(match path {
                    Some((p, inner)) if p == i => self.rewrite(child, Some(inner), whole)?,
                    _ if whole => self.rewrite(child, None, whole)?,
                    _ => child,
                });
            }
            return self.branch_like(id, &ids);
        }
        let span = self.spans.get(id)?.clone();
        let (kind, width) = (*self.pool.get(span.start)?, *self.pool.get(span.start + 1)?);
        if kind != 0 {
            return None;
        }
        let mut node = vec![kind, width];
        let mut from = span.start + 2;
        for i in 0..width as usize {
            let value = uvar_at(self.pool, from)?.1;
            let end = entry_end(self.pool, kind, from)?;
            node.extend_from_slice(self.pool.get(from..value)?);
            let was = self.pool.get(value..end)?;
            match Some(i) == at {
                // Null, or `true` where it was null.
                true if was == [0] => node.extend_from_slice(&[1, 1]),
                true => node.push(0),
                false => node.extend_from_slice(was),
            }
            from = end;
        }
        Some(self.push(node))
    }
}

/// Writes pool nodes for a tree over encoded `entries`; the root is the
/// last node written.
struct TreeWriter<'e> {
    leaf_kind: u8,
    entries: &'e [&'e [u8]],
    /// The id the first node written gets.
    next: u64,
    nodes: Vec<Vec<u8>>,
}

impl<'e> TreeWriter<'e> {
    /// Fewest entries a `height`-level tree with one full path holds:
    /// a full leaf, and fifteen one-entry siblings at each level above.
    fn fewest(height: usize) -> usize {
        CHUNK + (CHUNK - 1) * (height - 1)
    }

    /// The tree of `height` levels over `entries` whose path to entry
    /// `at` is full and whose other nodes are as thin as the entries
    /// left over allow; `None` if there are too few.
    fn tall(
        is_map: bool,
        entries: &'e [&'e [u8]],
        next: u64,
        height: usize,
        at: usize,
    ) -> Option<TreeWriter<'e>> {
        let mut w = TreeWriter {
            leaf_kind: if is_map { 0 } else { 2 },
            entries,
            next,
            nodes: Vec::new(),
        };
        if entries.len() < Self::fewest(height) || at >= entries.len() {
            return None;
        }
        w.path(0..entries.len(), height, at);
        Some(w)
    }

    fn push(&mut self, node: Vec<u8>) -> u64 {
        self.nodes.push(node);
        self.next + self.nodes.len() as u64 - 1
    }

    fn leaf(&mut self, entries: std::ops::Range<usize>) -> u64 {
        let mut node = vec![self.leaf_kind, entries.len() as u8];
        for e in &self.entries[entries] {
            node.extend_from_slice(e);
        }
        self.push(node)
    }

    fn branch(&mut self, children: &[u64]) -> u64 {
        let mut node = vec![self.leaf_kind + 1, children.len() as u8];
        for id in children {
            put_uvar(&mut node, *id);
        }
        self.push(node)
    }

    /// `entries` under `height` levels, in as few nodes as hold them: a
    /// chain of one-child branches down to where they fan out.
    fn packed(&mut self, entries: std::ops::Range<usize>, height: usize) -> u64 {
        if height == 1 {
            return self.leaf(entries);
        }
        let per_child = CHUNK.saturating_pow(height as u32 - 1);
        let children: Vec<u64> = entries
            .clone()
            .step_by(per_child)
            .map(|lo| {
                self.packed(
                    lo..entries.end.min(lo.saturating_add(per_child)),
                    height - 1,
                )
            })
            .collect();
        self.branch(&children)
    }

    /// `entries` under `height` levels with the path to entry `at`
    /// full: at each level the path's child takes the fewest entries
    /// that keep it so, and fifteen siblings share the rest — one each,
    /// below the root.
    fn path(&mut self, entries: std::ops::Range<usize>, height: usize, at: usize) -> u64 {
        if height == 1 {
            return self.leaf(entries);
        }
        let outside = entries.len() - Self::fewest(height - 1);
        // As many of them before the path as lie before `at`.
        let left = outside.min(at - entries.start);
        let right = outside - left;
        let before = left.min(if right > 0 { CHUNK - 2 } else { CHUNK - 1 });
        let (lo, hi) = (entries.start + left, entries.end - right);
        let mut children = Vec::with_capacity(CHUNK);
        self.siblings(entries.start..lo, before, height - 1, &mut children);
        children.push(self.path(lo..hi, height - 1, at));
        self.siblings(
            hi..entries.end,
            CHUNK - 1 - before,
            height - 1,
            &mut children,
        );
        self.branch(&children)
    }

    /// `count` packed subtrees sharing `entries`, the first few an
    /// entry richer.
    fn siblings(
        &mut self,
        entries: std::ops::Range<usize>,
        count: usize,
        height: usize,
        out: &mut Vec<u64>,
    ) {
        let mut lo = entries.start;
        for i in 0..count {
            let hi = lo + entries.len() / count + usize::from(i < entries.len() % count);
            out.push(self.packed(lo..hi, height));
            lo = hi;
        }
    }
}

/// The varint starting at `bytes[0]`, or `None` if it runs off the end
/// or past 64 bits.
fn read_uvar(bytes: &[u8]) -> Option<u64> {
    let len = skip_uvar(bytes)?;
    bytes[..len].iter().rev().try_fold(0u64, |v, b| {
        v.checked_mul(128).map(|v| v | (b & 0x7f) as u64)
    })
}

/// Length of the varint starting at `bytes[0]`, or `None` if it runs
/// off the end.
fn skip_uvar(bytes: &[u8]) -> Option<usize> {
    for (i, b) in bytes.iter().enumerate() {
        if b & 0x80 == 0 {
            return Some(i + 1);
        }
    }
    None
}

/// FNV-1a of a name: decorrelates the per-mutator randomness streams so
/// every mutator sees a different pick sequence from the same seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::{HandlerLogEntry, HandlerOp, TxLogEntry};
    use kem::Value;
    use std::collections::BTreeMap;

    fn sample_advice() -> Advice {
        let hid = HandlerId::root(FunctionId(0));
        let mut a = Advice::default();
        a.tags.insert(RequestId(0), 1);
        a.tags.insert(RequestId(1), 1);
        a.handler_logs.insert(
            RequestId(0),
            vec![
                HandlerLogEntry {
                    hid: hid.clone(),
                    opnum: 1,
                    op: HandlerOp::Emit { event: "e".into() },
                },
                HandlerLogEntry {
                    hid: hid.clone(),
                    opnum: 2,
                    op: HandlerOp::Emit { event: "f".into() },
                },
            ],
        );
        let mut vl = BTreeMap::new();
        vl.insert(
            OpRef::new(RequestId(0), hid.clone(), 1),
            crate::advice::VarLogEntry {
                access: crate::advice::AccessType::Write,
                value: Some(Value::Int(7)),
                prec: None,
            },
        );
        a.var_logs.insert(VarId(0), vl);
        let tx = KTxId {
            rid: RequestId(0),
            hid: hid.clone(),
            opnum: 1,
        };
        a.tx_logs.insert(
            tx.clone(),
            vec![
                TxLogEntry {
                    hid: hid.clone(),
                    opnum: 1,
                    optype: TxOpKind::Start,
                    key: None,
                    contents: TxOpContents::None,
                },
                TxLogEntry {
                    hid: hid.clone(),
                    opnum: 2,
                    optype: TxOpKind::Put,
                    key: Some("k".into()),
                    contents: TxOpContents::Put {
                        value: Value::Int(1),
                    },
                },
                TxLogEntry {
                    hid: hid.clone(),
                    opnum: 3,
                    optype: TxOpKind::Get,
                    key: Some("k".into()),
                    contents: TxOpContents::Get {
                        from: Some(TxPos {
                            tx: tx.clone(),
                            index: 1,
                        }),
                    },
                },
            ],
        );
        a.write_order.push(TxPos {
            tx: tx.clone(),
            index: 1,
        });
        a.write_order.push(TxPos {
            tx: tx.clone(),
            index: 2,
        });
        a.response_emitted_by.insert(RequestId(0), (hid.clone(), 3));
        a.response_emitted_by.insert(RequestId(1), (hid.clone(), 5));
        a.opcounts.insert((RequestId(0), hid.clone()), 3);
        a.nondet
            .insert(OpRef::new(RequestId(0), hid, 2), Value::Int(42));
        a
    }

    #[test]
    fn every_structured_mutator_applies_to_sample() {
        let a = sample_advice();
        for m in Mutator::ALL {
            let mutation = m
                .apply(&a, 1)
                .unwrap_or_else(|| panic!("{} skipped", m.name()));
            assert!(!mutation.bytes.is_empty());
            // The mutation must actually change the encoding, except
            // possibly for reorderings that the BTreeMap round-trip
            // cannot represent — which do not exist: all our mutators
            // target encoded positions.
            assert_ne!(
                mutation.bytes,
                encode_advice(&a),
                "{} was a no-op",
                m.name()
            );
        }
    }

    #[test]
    fn every_wire_mutator_applies_and_changes_bytes() {
        let bytes = encode_advice(&sample_advice());
        for m in WireMutator::ALL {
            let mutation = m
                .apply(&bytes, 1)
                .unwrap_or_else(|| panic!("{} skipped", m.name()));
            assert_ne!(mutation.bytes, bytes, "{} was a no-op", m.name());
        }
    }

    #[test]
    fn every_pool_mutator_applies_and_lands_where_designed() {
        // Two versions of a map holding the same entry: the entry is
        // pooled, so both logged values hold a reference.
        let mut a = sample_advice();
        let shared = Value::map([("msg", Value::str("hello"))]);
        let other = Value::map([("msg", Value::str("bye"))]);
        let versions = [
            Value::map([("mon", shared.clone())]),
            Value::map([("mon", shared.clone()), ("tue", shared)]),
            Value::map([("mon", other.clone()), ("tue", other)]),
        ];
        let hid = HandlerId::root(FunctionId(0));
        for (i, v) in versions.into_iter().enumerate() {
            a.var_logs.entry(VarId(0)).or_default().insert(
                OpRef::new(RequestId(1), hid.clone(), i as u32 + 1),
                crate::advice::VarLogEntry {
                    access: crate::advice::AccessType::Write,
                    value: Some(v),
                    prec: None,
                },
            );
        }
        let bytes = encode_advice(&a);
        for m in PoolMutator::ALL {
            for seed in 0..4 {
                // Nothing this big to re-cut, and every version is one
                // leaf, met once, so written inline: no pooled map
                // version to forge.
                if matches!(
                    m,
                    PoolMutator::RecutTall | PoolMutator::ForgeOffPath | PoolMutator::ForgeAtKey
                ) {
                    assert!(m.apply(&bytes, seed).is_none(), "{}", m.name());
                    continue;
                }
                let mutation = m
                    .apply(&bytes, seed)
                    .unwrap_or_else(|| panic!("{} skipped", m.name()));
                assert_ne!(mutation.bytes, bytes, "{} was a no-op", m.name());
                let decoded = crate::wire::decode_advice(&mutation.bytes);
                match m {
                    PoolMutator::DuplicateNode => assert_eq!(decoded.as_ref(), Ok(&a)),
                    PoolMutator::SwapRef => {
                        assert!(decoded.is_ok_and(|d| d != a), "{}", mutation.description)
                    }
                    PoolMutator::TallTree => match decoded {
                        Ok(d) => assert!(d != a && mutation.description.contains("a 16-level")),
                        Err(e) => assert_eq!(e.what, "pool node tree too deep"),
                    },
                    PoolMutator::RecutTall
                    | PoolMutator::ForgeOffPath
                    | PoolMutator::ForgeAtKey => unreachable!(),
                    _ => {
                        let e = decoded.expect_err(m.name());
                        assert!(e.what.starts_with("pool "), "{}: {e}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn every_table_mutator_is_refused_at_decode() {
        use crate::wire::{decode_advice_view_bounded, BoundedDecodeError};
        let bytes = encode_advice(&sample_advice());
        let limit = crate::Limits::default().decode_max_nodes;
        for m in TableMutator::ALL {
            for seed in 0..4 {
                let mutation = m
                    .apply(&bytes, seed)
                    .unwrap_or_else(|| panic!("{} skipped", m.name()));
                let what = match decode_advice_view_bounded(&mutation.bytes, limit) {
                    Err(BoundedDecodeError::Malformed(e)) => e.what,
                    Err(BoundedDecodeError::NodesExhausted { .. }) => "decode node budget",
                    Ok(_) => panic!("{}: {} decoded", m.name(), mutation.description),
                };
                let expected: &[&str] = match m {
                    TableMutator::DanglingString => &["event", "key", "str", "map key"],
                    TableMutator::DanglingHid => &["hid"],
                    TableMutator::ForwardParent => &["hid parent"],
                    TableMutator::InflateCount => &["strings len", "hids len"],
                    TableMutator::BadUtf8 => &["string"],
                    TableMutator::DeepChain | TableMutator::Flood => &["decode node budget"],
                };
                assert!(expected.contains(&what), "{}: {what}", m.name());
            }
        }
    }

    #[test]
    fn a_recut_container_is_the_same_value_in_the_tallest_shape() {
        // Versions of a growing map, as MOTD logs them; each new key
        // lands somewhere in the middle.
        let mut a = sample_advice();
        let hid = HandlerId::root(FunctionId(0));
        let mut m = kem::PMap::new();
        for i in 0..300u32 {
            let key = format!("{:03}", i.wrapping_mul(7919) % 1000);
            m = m.insert(key.into(), Value::map([("n", Value::int(i as i64))]));
            a.var_logs.entry(VarId(0)).or_default().insert(
                OpRef::new(RequestId(1), hid.clone(), i + 1),
                crate::advice::VarLogEntry {
                    access: crate::advice::AccessType::Write,
                    value: Some(Value::Map(m.clone())),
                    prec: None,
                },
            );
        }
        let bytes = encode_advice(&a);
        let height = |v: &Value| {
            let Value::Map(m) = v else { return 0 };
            let (mut node, mut levels) = (m.root(), 1);
            while let Some(child) = node.children().last() {
                (node, levels) = (child, levels + 1);
            }
            levels
        };
        for seed in 0..8 {
            let mutation = PoolMutator::RecutTall.apply(&bytes, seed).expect("targets");
            assert_ne!(mutation.bytes, bytes);
            assert_eq!(crate::wire::decode_advice(&mutation.bytes).as_ref(), Ok(&a));
            let view = decode_advice_view(&mutation.bytes).expect("decodes");
            assert_eq!(view.pool.last().map(height), Some(MAX_CHECKED_HEIGHT));
            // The path to where the next key lands is full: one insert
            // and the tree is a level taller.
            let recut = view.pool.last().cloned().expect("a root");
            let log = &a.var_logs[&VarId(0)];
            let next = log.values().filter_map(|e| e.value.as_ref()).find(|v| {
                v.as_map()
                    .is_some_and(|n| n.len() == recut.as_map().map_or(0, |m| m.len()) + 1)
            });
            let (Value::Map(recut), Some(Value::Map(next))) = (&recut, next) else {
                panic!("maps");
            };
            let (key, value) = next
                .iter()
                .find(|(k, _)| !recut.contains_key(k))
                .expect("a new key");
            let grown = Value::Map(recut.insert(key.clone(), value.clone()));
            assert_eq!(height(&grown), MAX_CHECKED_HEIGHT + 1);
            assert_eq!(grown.as_map(), Some(next));
        }
    }

    #[test]
    fn a_forged_map_differs_in_one_value_where_designed() {
        // Versions of a growing map, each one key past the one before;
        // from the second leaf on, each version's root is pooled.
        let mut a = sample_advice();
        let hid = HandlerId::root(FunctionId(0));
        let mut m = kem::PMap::new();
        for i in 0..40u32 {
            let key = format!("{:03}", i.wrapping_mul(7919) % 1000);
            m = m.insert(key.into(), Value::map([("n", Value::int(i as i64))]));
            a.var_logs.entry(VarId(0)).or_default().insert(
                OpRef::new(RequestId(1), hid.clone(), i + 1),
                crate::advice::VarLogEntry {
                    access: crate::advice::AccessType::Write,
                    value: Some(Value::Map(m.clone())),
                    prec: None,
                },
            );
        }
        let bytes = encode_advice(&a);
        let honest = decode_advice_view(&bytes).expect("decodes").pool.len();
        for m in [PoolMutator::ForgeOffPath, PoolMutator::ForgeAtKey] {
            for seed in 0..6 {
                let mutation = m.apply(&bytes, seed).expect("targets");
                let view = decode_advice_view(&mutation.bytes).expect("decodes");
                let forged = view.pool.last().and_then(Value::as_map).expect("a map");
                // The one logged value that changed is the forged one.
                let was = view.pool[..honest]
                    .iter()
                    .filter_map(Value::as_map)
                    .find(|h| h.keys().eq(forged.keys()) && *h != forged)
                    .expect("one value changed");
                let changed = was.iter().zip(forged.iter()).filter(|(x, y)| x != y);
                assert_eq!(changed.count(), 1, "{}", mutation.description);
                // Off the path, the root child that changed shares no
                // node with the honest tree; at the key, every node off
                // the path is the honest one.
                let shared = |r: kem::pvalue::MapNodeRef<'_>| {
                    let honest: Vec<usize> = was.root().children().map(|c| c.addr()).collect();
                    r.children().filter(|c| honest.contains(&c.addr())).count()
                };
                let width = forged.root().children().len();
                if width > 0 {
                    assert_eq!(shared(forged.root()), width - 1, "{}", mutation.description);
                }
                assert_ne!(
                    crate::wire::decode_advice(&mutation.bytes).ok(),
                    Some(a.clone())
                );
            }
        }
    }

    #[test]
    fn singleton_tags_give_each_traced_request_its_own_tag() {
        let honest = encode_advice(&sample_advice());
        // Requests 0 and 1 share a tag; request 2 has none.
        let mut trace = Trace::new();
        for rid in [2, 0, 1] {
            trace.push_request(RequestId(rid), Value::Null);
        }
        let bytes = singleton_tags(&honest, &trace).expect("the tags section parses");
        let (want, mut got) = (
            decode_advice_view(&honest).unwrap(),
            decode_advice_view(&bytes).unwrap(),
        );
        let rids: Vec<RequestId> = got.tags.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(rids, [RequestId(0), RequestId(1), RequestId(2)]);
        let mut tags: Vec<u64> = got.tags.iter().map(|(_, tag)| *tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 3, "one tag per traced request: {:?}", got.tags);
        got.tags = want.tags.clone();
        assert_eq!(got, want, "only the tags section changed");
        assert_eq!(singleton_tags(&[0x80], &trace), None);
    }

    #[test]
    fn mutations_are_deterministic_in_the_seed() {
        let a = sample_advice();
        for m in Mutator::ALL {
            let x = m.apply(&a, 99).map(|mu| mu.bytes);
            let y = m.apply(&a, 99).map(|mu| mu.bytes);
            assert_eq!(x, y, "{} not deterministic", m.name());
            let z = m.apply(&a, 100).map(|mu| mu.bytes);
            // Different seeds usually pick different targets; equality
            // is allowed (single candidate) but the call must succeed.
            assert!(z.is_some());
        }
    }

    #[test]
    fn empty_advice_mutators_skip_rather_than_panic() {
        let a = Advice::default();
        for m in Mutator::ALL {
            assert!(
                m.apply(&a, 7).is_none(),
                "{} applied to empty advice",
                m.name()
            );
        }
    }

    #[test]
    fn outcome_contract_checks() {
        let internal = MutationOutcome::Rejected(RejectReason::VerifierInternal {
            what: "boom".into(),
        });
        assert!(internal.violation(MutationClass::Ambiguous).is_some());
        let accepted = MutationOutcome::Accepted;
        assert!(accepted.violation(MutationClass::Semantic).is_some());
        assert!(accepted.violation(MutationClass::Cosmetic).is_none());
        let rejected = MutationOutcome::Rejected(RejectReason::CycleInG);
        assert!(rejected.violation(MutationClass::Semantic).is_none());
        assert!(rejected.violation(MutationClass::Cosmetic).is_some());
    }
}
