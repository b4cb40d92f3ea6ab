//! Typed audit rejections.
//!
//! Every REJECT site in the verifier's algorithms (Figs. 14–21) maps to
//! a variant here, so the adversarial test-suite can assert not just
//! *that* a forged advice/trace is rejected but *which* defense fired.

use kem_lang::{OpRef, RequestId};

use crate::advice::KTxId;

/// Which governed resource a [`RejectReason::ResourceExhausted`]
/// rejection ran out of. Every budget in
/// [`crate::config::Limits`] maps to exactly one variant, so the
/// chaos harness can assert not just *that* an exhaustion vector was
/// contained but *which* budget contained it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// The deterministic per-group replay step budget
    /// (`Limits::replay_fuel`).
    ReplayFuel,
    /// The per-group wall-clock deadline
    /// (`Limits::group_deadline_ms`); `spent`/`limit` are
    /// milliseconds. Unlike fuel this verdict is *not* deterministic —
    /// it depends on the machine — which is why honest deployments set
    /// it far above any plausible group (see DESIGN.md §10).
    GroupDeadline,
    /// The advice wire-size budget (`Limits::decode_max_bytes`).
    DecodeBytes,
    /// The advice decoded-entry budget (`Limits::decode_max_nodes`).
    DecodeNodes,
    /// The total advice dictionary-entry budget
    /// (`Limits::dict_max_entries`).
    DictEntries,
    /// The execution-graph node budget (`Limits::graph_max_nodes`).
    GraphNodes,
    /// The execution-graph edge budget (`Limits::graph_max_edges`).
    GraphEdges,
    /// The replay-group width (multivalue lane) budget
    /// (`Limits::max_group_width`).
    GroupWidth,
}

impl ResourceKind {
    /// Every resource kind, in catalog order.
    pub const ALL: [ResourceKind; 8] = [
        ResourceKind::ReplayFuel,
        ResourceKind::GroupDeadline,
        ResourceKind::DecodeBytes,
        ResourceKind::DecodeNodes,
        ResourceKind::DictEntries,
        ResourceKind::GraphNodes,
        ResourceKind::GraphEdges,
        ResourceKind::GroupWidth,
    ];

    /// Stable snake_case name used in forensics exports.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::ReplayFuel => "replay_fuel",
            ResourceKind::GroupDeadline => "group_deadline_ms",
            ResourceKind::DecodeBytes => "decode_bytes",
            ResourceKind::DecodeNodes => "decode_nodes",
            ResourceKind::DictEntries => "dict_entries",
            ResourceKind::GraphNodes => "graph_nodes",
            ResourceKind::GraphEdges => "graph_edges",
            ResourceKind::GroupWidth => "group_width",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an audit rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The trace is not balanced (Fig. 14 line 19).
    UnbalancedTrace,
    /// Advice mentions a request that is not in the trace (Fig. 14
    /// line 37, Fig. 16 line 6).
    UnknownRequest {
        /// The offending request.
        rid: RequestId,
    },
    /// `responseEmittedBy` is missing or malformed for a request
    /// (Fig. 15 lines 13–16).
    BadResponseEmitter {
        /// The request.
        rid: RequestId,
        /// What was wrong.
        why: &'static str,
    },
    /// A log entry failed `CheckOpIsValid` (Fig. 16 lines 58–61):
    /// unknown handler, out-of-range opnum, or duplicate coordinate.
    InvalidLogOp {
        /// The coordinate.
        at: OpRef,
        /// What was wrong.
        why: &'static str,
    },
    /// An emit allegedly activates a handler the server did not report
    /// in `opcounts` (Fig. 16 line 25).
    MissingActivatedHandler {
        /// The request.
        rid: RequestId,
    },
    /// A reported handler's structural activator is missing or its
    /// activating opnum is out of range.
    BadActivationParent {
        /// The request.
        rid: RequestId,
    },
    /// A transaction log is structurally malformed (no `tx_start`
    /// first, entries after commit/abort, …).
    TxLogMalformed {
        /// The transaction.
        tx: KTxId,
        /// What was wrong.
        why: &'static str,
    },
    /// A `GET`'s alleged dictating write is not a `PUT` of the same key
    /// (Fig. 16 line 48).
    BadDictatingWrite {
        /// The reading operation's coordinate.
        at: OpRef,
    },
    /// A transaction read its own key but not its last modification
    /// (Fig. 16 line 51).
    SelfReadNotLastModification {
        /// The reading operation's coordinate.
        at: OpRef,
    },
    /// The write order is inconsistent with the transaction logs
    /// (Fig. 17 lines 22–28).
    WriteOrderMismatch {
        /// What was wrong.
        why: &'static str,
    },
    /// Isolation-level verification failed (Fig. 17; Adya phenomena).
    Isolation(adya::Violation),
    /// Group initialization failed (Fig. 18 lines 9, 13).
    GroupSetupMismatch {
        /// What was wrong.
        why: &'static str,
    },
    /// Execution within a group diverged (Fig. 18 line 32).
    Divergence {
        /// Where it diverged.
        context: String,
    },
    /// A re-executed state operation does not match the transaction
    /// logs (`CheckStateOp`, Fig. 19).
    StateOpMismatch {
        /// The operation's coordinate.
        at: OpRef,
        /// What was wrong.
        why: &'static str,
    },
    /// A re-executed handler operation does not match the handler log
    /// (`CheckHandlerOp`, Fig. 19).
    HandlerOpMismatch {
        /// The operation's coordinate.
        at: OpRef,
        /// What was wrong.
        why: &'static str,
    },
    /// Requests in a group activate different handlers from
    /// corresponding emits (`ActivateHandlers`, Fig. 19 line 31).
    EmitActivationMismatch {
        /// The emitting coordinate (of the first request).
        at: OpRef,
    },
    /// A handler issued more or fewer operations than `opcounts` claims
    /// (Fig. 18 lines 43, 60).
    OpcountMismatch {
        /// The request.
        rid: RequestId,
    },
    /// The response was not emitted where `responseEmittedBy` claims
    /// (Fig. 18 line 57).
    ResponseEmitterMismatch {
        /// The request.
        rid: RequestId,
    },
    /// Re-executed outputs differ from the trace (Fig. 18 line 62).
    OutputMismatch {
        /// The request.
        rid: RequestId,
    },
    /// A handler reported in `opcounts` was never executed by
    /// re-execution (Fig. 18 line 64).
    HandlerNotExecuted {
        /// The request.
        rid: RequestId,
    },
    /// The advice lacks a recorded nondeterministic value that
    /// re-execution needed (§5).
    MissingNondet {
        /// The operation's coordinate.
        at: OpRef,
    },
    /// The advice lacks a control-flow tag for a request in the trace.
    MissingTag {
        /// The request.
        rid: RequestId,
    },
    /// A variable-log entry is inconsistent with re-execution
    /// (Figs. 20–21: simulate-and-check value mismatch, malformed
    /// dictating-write reference, …).
    VarLogMismatch {
        /// The access's coordinate.
        at: OpRef,
        /// What was wrong.
        why: &'static str,
    },
    /// Two writes claim to overwrite the same write (Fig. 21 line 9),
    /// or the per-variable write chain is broken / does not cover every
    /// re-executed write.
    VarChainBroken {
        /// What was wrong.
        why: &'static str,
    },
    /// The execution graph `G` has a cycle (Fig. 14 line 31): the
    /// alleged execution is not physically realizable.
    CycleInG,
    /// Re-execution itself failed (e.g. advice fed a value of the wrong
    /// type into the program). An honest server never causes this.
    ReexecError {
        /// The interpreter error message.
        message: String,
    },
    /// The advice bytes did not decode.
    MalformedAdvice {
        /// The decode error.
        what: String,
    },
    /// Structured advice is internally inconsistent at a specific
    /// coordinate — e.g. a log index that escapes its log, a dictating
    /// write pointing outside any transaction, or log contents whose
    /// shape contradicts the operation type. These are the re-execution
    /// counterparts of [`RejectReason::MalformedAdvice`]: the bytes
    /// decoded, but what they allege cannot be followed.
    MalformedAdviceAt {
        /// The coordinate at which the inconsistency surfaced.
        at: OpRef,
        /// What was inconsistent.
        what: &'static str,
    },
    /// The verifier itself failed — a caught panic or a broken internal
    /// invariant. An audit ending here is *not* evidence about the
    /// server; the fault-injection harness treats it as a verifier bug.
    VerifierInternal {
        /// The panic message or invariant description.
        what: String,
    },
    /// A recorded nondeterministic value is not type/range-plausible
    /// for its source (§5's basic well-formedness checks).
    ImplausibleNondet {
        /// The operation's coordinate.
        at: OpRef,
    },
    /// A logged handler/state operation was never produced by
    /// re-execution (§4.4's first cross-check).
    UnexecutedLogEntry {
        /// The coordinate of the unconsumed entry.
        at: OpRef,
    },
    /// A resource budget from [`crate::config::Limits`] was exhausted:
    /// the advice asked the verifier to spend more than the configured
    /// ceiling (a denial-of-audit attempt), so the audit terminated
    /// with this typed verdict instead of hanging or ballooning. The
    /// fuel variant is deterministic — the budget is counted
    /// identically at every thread count.
    ResourceExhausted {
        /// Which budget ran out.
        resource: ResourceKind,
        /// The replay group that exhausted the budget, when the budget
        /// is group-scoped (fuel, deadline, width); `None` for
        /// whole-advice budgets (decode, dictionary, graph).
        group: Option<u64>,
        /// How much was consumed when the budget tripped (fuel steps,
        /// bytes, entries, nodes/edges, lanes, or milliseconds —
        /// matching `resource`).
        spent: u64,
        /// The configured ceiling that was exceeded.
        limit: u64,
    },
}

impl RejectReason {
    /// Stable machine-readable variant name, used by the forensics
    /// export (`AuditDiagnostics::to_json`).
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::UnbalancedTrace => "UnbalancedTrace",
            RejectReason::UnknownRequest { .. } => "UnknownRequest",
            RejectReason::BadResponseEmitter { .. } => "BadResponseEmitter",
            RejectReason::InvalidLogOp { .. } => "InvalidLogOp",
            RejectReason::MissingActivatedHandler { .. } => "MissingActivatedHandler",
            RejectReason::BadActivationParent { .. } => "BadActivationParent",
            RejectReason::TxLogMalformed { .. } => "TxLogMalformed",
            RejectReason::BadDictatingWrite { .. } => "BadDictatingWrite",
            RejectReason::SelfReadNotLastModification { .. } => "SelfReadNotLastModification",
            RejectReason::WriteOrderMismatch { .. } => "WriteOrderMismatch",
            RejectReason::Isolation(_) => "Isolation",
            RejectReason::GroupSetupMismatch { .. } => "GroupSetupMismatch",
            RejectReason::Divergence { .. } => "Divergence",
            RejectReason::StateOpMismatch { .. } => "StateOpMismatch",
            RejectReason::HandlerOpMismatch { .. } => "HandlerOpMismatch",
            RejectReason::EmitActivationMismatch { .. } => "EmitActivationMismatch",
            RejectReason::OpcountMismatch { .. } => "OpcountMismatch",
            RejectReason::ResponseEmitterMismatch { .. } => "ResponseEmitterMismatch",
            RejectReason::OutputMismatch { .. } => "OutputMismatch",
            RejectReason::HandlerNotExecuted { .. } => "HandlerNotExecuted",
            RejectReason::MissingNondet { .. } => "MissingNondet",
            RejectReason::MissingTag { .. } => "MissingTag",
            RejectReason::VarLogMismatch { .. } => "VarLogMismatch",
            RejectReason::VarChainBroken { .. } => "VarChainBroken",
            RejectReason::CycleInG => "CycleInG",
            RejectReason::ReexecError { .. } => "ReexecError",
            RejectReason::MalformedAdvice { .. } => "MalformedAdvice",
            RejectReason::MalformedAdviceAt { .. } => "MalformedAdviceAt",
            RejectReason::VerifierInternal { .. } => "VerifierInternal",
            RejectReason::ImplausibleNondet { .. } => "ImplausibleNondet",
            RejectReason::UnexecutedLogEntry { .. } => "UnexecutedLogEntry",
            RejectReason::ResourceExhausted { .. } => "ResourceExhausted",
        }
    }

    /// Whether this rejection *quarantines* rather than refutes: the
    /// verdict says the verifier could not (or would not) finish the
    /// work, not that the advice's semantics were proven wrong.
    /// Quarantining verdicts let the remaining groups keep replaying
    /// (graceful degradation, DESIGN.md §10); semantic rejections keep
    /// the stop-at-first-failure discipline.
    pub fn quarantines(&self) -> bool {
        matches!(
            self,
            RejectReason::ResourceExhausted { .. } | RejectReason::VerifierInternal { .. }
        )
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnbalancedTrace => write!(f, "trace is not balanced"),
            RejectReason::UnknownRequest { rid } => {
                write!(f, "advice references unknown request {rid}")
            }
            RejectReason::BadResponseEmitter { rid, why } => {
                write!(f, "bad responseEmittedBy for {rid}: {why}")
            }
            RejectReason::InvalidLogOp { at, why } => write!(f, "invalid log op at {at}: {why}"),
            RejectReason::MissingActivatedHandler { rid } => {
                write!(f, "activated handler missing from opcounts ({rid})")
            }
            RejectReason::BadActivationParent { rid } => {
                write!(f, "handler with missing/invalid activator ({rid})")
            }
            RejectReason::TxLogMalformed { tx, why } => {
                write!(f, "malformed transaction log {tx}: {why}")
            }
            RejectReason::BadDictatingWrite { at } => {
                write!(f, "bad dictating write for GET at {at}")
            }
            RejectReason::SelfReadNotLastModification { at } => {
                write!(f, "self-read is not last modification at {at}")
            }
            RejectReason::WriteOrderMismatch { why } => write!(f, "write order mismatch: {why}"),
            RejectReason::Isolation(v) => write!(f, "isolation violation: {v}"),
            RejectReason::GroupSetupMismatch { why } => write!(f, "group setup mismatch: {why}"),
            RejectReason::Divergence { context } => write!(f, "group divergence: {context}"),
            RejectReason::StateOpMismatch { at, why } => {
                write!(f, "state op mismatch at {at}: {why}")
            }
            RejectReason::HandlerOpMismatch { at, why } => {
                write!(f, "handler op mismatch at {at}: {why}")
            }
            RejectReason::EmitActivationMismatch { at } => {
                write!(f, "emit activation mismatch at {at}")
            }
            RejectReason::OpcountMismatch { rid } => write!(f, "opcount mismatch for {rid}"),
            RejectReason::ResponseEmitterMismatch { rid } => {
                write!(f, "response emitter mismatch for {rid}")
            }
            RejectReason::OutputMismatch { rid } => write!(f, "output mismatch for {rid}"),
            RejectReason::HandlerNotExecuted { rid } => {
                write!(f, "advice handler never executed ({rid})")
            }
            RejectReason::MissingNondet { at } => write!(f, "missing nondet value at {at}"),
            RejectReason::MissingTag { rid } => write!(f, "missing control-flow tag for {rid}"),
            RejectReason::VarLogMismatch { at, why } => {
                write!(f, "variable log mismatch at {at}: {why}")
            }
            RejectReason::VarChainBroken { why } => write!(f, "variable chain broken: {why}"),
            RejectReason::CycleInG => write!(f, "execution graph has a cycle"),
            RejectReason::ReexecError { message } => write!(f, "re-execution error: {message}"),
            RejectReason::MalformedAdvice { what } => write!(f, "malformed advice: {what}"),
            RejectReason::MalformedAdviceAt { at, what } => {
                write!(f, "malformed advice at {at}: {what}")
            }
            RejectReason::VerifierInternal { what } => {
                write!(f, "verifier internal error: {what}")
            }
            RejectReason::ImplausibleNondet { at } => {
                write!(f, "implausible nondet value at {at}")
            }
            RejectReason::UnexecutedLogEntry { at } => {
                write!(f, "logged operation never produced by re-execution at {at}")
            }
            RejectReason::ResourceExhausted {
                resource,
                group,
                spent,
                limit,
            } => {
                write!(f, "resource budget exhausted: {resource}")?;
                if let Some(g) = group {
                    write!(f, " (group g{g})")?;
                }
                write!(f, ", spent {spent} of limit {limit}")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RejectReason::UnbalancedTrace
            .to_string()
            .contains("balanced"));
        assert!(RejectReason::CycleInG.to_string().contains("cycle"));
        let r = RejectReason::OutputMismatch { rid: RequestId(4) };
        assert!(r.to_string().contains("r4"));
    }
}
