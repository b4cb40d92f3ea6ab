//! Exhaustive round-trip pinning of the [`RejectReason`] catalogue:
//! every variant's `kind()` string and Display form is part of the
//! audit's external contract (forensics exports, CI triage, the paper
//! artifact's result tables), so changes must be deliberate. The
//! `reasons()` fixture below is checked against the variant count —
//! adding a variant without extending this test fails to compile the
//! intent, not just the string.

use karousos::{AuditDiagnostics, KTxId, RejectReason, ResourceKind};
use kem::{FunctionId, HandlerId, OpRef, RequestId};

fn op() -> OpRef {
    OpRef::new(RequestId(7), HandlerId::root(FunctionId(2)), 3)
}

/// One instance of every `RejectReason` variant, in declaration order,
/// paired with its pinned `kind()` name and a pinned Display fragment.
fn reasons() -> Vec<(RejectReason, &'static str, &'static str)> {
    vec![
        (
            RejectReason::UnbalancedTrace,
            "UnbalancedTrace",
            "trace is not balanced",
        ),
        (
            RejectReason::UnknownRequest { rid: RequestId(7) },
            "UnknownRequest",
            "unknown request",
        ),
        (
            RejectReason::BadResponseEmitter {
                rid: RequestId(7),
                why: "absent",
            },
            "BadResponseEmitter",
            "bad responseEmittedBy",
        ),
        (
            RejectReason::InvalidLogOp {
                at: op(),
                why: "opnum out of range",
            },
            "InvalidLogOp",
            "invalid log op",
        ),
        (
            RejectReason::MissingActivatedHandler { rid: RequestId(7) },
            "MissingActivatedHandler",
            "activated handler missing",
        ),
        (
            RejectReason::BadActivationParent { rid: RequestId(7) },
            "BadActivationParent",
            "missing/invalid activator",
        ),
        (
            RejectReason::TxLogMalformed {
                tx: KTxId {
                    rid: RequestId(7),
                    hid: HandlerId::root(FunctionId(2)),
                    opnum: 1,
                },
                why: "entry after commit",
            },
            "TxLogMalformed",
            "malformed transaction log",
        ),
        (
            RejectReason::BadDictatingWrite { at: op() },
            "BadDictatingWrite",
            "bad dictating write",
        ),
        (
            RejectReason::SelfReadNotLastModification { at: op() },
            "SelfReadNotLastModification",
            "not last modification",
        ),
        (
            RejectReason::WriteOrderMismatch { why: "hole" },
            "WriteOrderMismatch",
            "write order mismatch",
        ),
        (
            RejectReason::Isolation(adya::Violation::G0 {
                witness: adya::TxnId(4),
            }),
            "Isolation",
            "isolation violation",
        ),
        (
            RejectReason::GroupSetupMismatch { why: "tag clash" },
            "GroupSetupMismatch",
            "group setup mismatch",
        ),
        (
            RejectReason::Divergence {
                context: "branch arm".to_string(),
            },
            "Divergence",
            "group divergence",
        ),
        (
            RejectReason::StateOpMismatch {
                at: op(),
                why: "key differs",
            },
            "StateOpMismatch",
            "state op mismatch",
        ),
        (
            RejectReason::HandlerOpMismatch {
                at: op(),
                why: "type differs",
            },
            "HandlerOpMismatch",
            "handler op mismatch",
        ),
        (
            RejectReason::EmitActivationMismatch { at: op() },
            "EmitActivationMismatch",
            "emit activation mismatch",
        ),
        (
            RejectReason::OpcountMismatch { rid: RequestId(7) },
            "OpcountMismatch",
            "opcount mismatch",
        ),
        (
            RejectReason::ResponseEmitterMismatch { rid: RequestId(7) },
            "ResponseEmitterMismatch",
            "response emitter mismatch",
        ),
        (
            RejectReason::OutputMismatch { rid: RequestId(7) },
            "OutputMismatch",
            "output mismatch",
        ),
        (
            RejectReason::HandlerNotExecuted { rid: RequestId(7) },
            "HandlerNotExecuted",
            "never executed",
        ),
        (
            RejectReason::MissingNondet { at: op() },
            "MissingNondet",
            "missing nondet",
        ),
        (
            RejectReason::MissingTag { rid: RequestId(7) },
            "MissingTag",
            "missing control-flow tag",
        ),
        (
            RejectReason::VarLogMismatch {
                at: op(),
                why: "value differs",
            },
            "VarLogMismatch",
            "variable log mismatch",
        ),
        (
            RejectReason::VarChainBroken { why: "fork" },
            "VarChainBroken",
            "variable chain broken",
        ),
        (
            RejectReason::CycleInG,
            "CycleInG",
            "execution graph has a cycle",
        ),
        (
            RejectReason::ReexecError {
                message: "type error".to_string(),
            },
            "ReexecError",
            "re-execution error",
        ),
        (
            RejectReason::MalformedAdvice {
                what: "truncated".to_string(),
            },
            "MalformedAdvice",
            "malformed advice",
        ),
        (
            RejectReason::MalformedAdviceAt {
                at: op(),
                what: "index escapes log",
            },
            "MalformedAdviceAt",
            "malformed advice at",
        ),
        (
            RejectReason::VerifierInternal {
                what: "caught panic".to_string(),
            },
            "VerifierInternal",
            "verifier internal error",
        ),
        (
            RejectReason::ImplausibleNondet { at: op() },
            "ImplausibleNondet",
            "implausible nondet",
        ),
        (
            RejectReason::UnexecutedLogEntry { at: op() },
            "UnexecutedLogEntry",
            "never produced by re-execution",
        ),
        (
            RejectReason::ResourceExhausted {
                resource: ResourceKind::ReplayFuel,
                group: Some(3),
                spent: 1001,
                limit: 1000,
            },
            "ResourceExhausted",
            "resource budget exhausted: replay_fuel (group g3), spent 1001 of limit 1000",
        ),
    ]
}

#[test]
fn every_variant_has_a_stable_kind_and_display() {
    let all = reasons();
    // Coverage floor: grep-derived variant count. If RejectReason grows,
    // this number and `reasons()` must both grow with it.
    assert_eq!(all.len(), 32, "RejectReason variant added without a pin");
    let mut kinds = std::collections::BTreeSet::new();
    for (reason, kind, display_fragment) in &all {
        assert_eq!(reason.kind(), *kind);
        let shown = reason.to_string();
        assert!(
            shown.contains(display_fragment),
            "{kind}: Display {shown:?} lost pinned fragment {display_fragment:?}"
        );
        assert!(kinds.insert(*kind), "duplicate kind string {kind}");
    }
}

#[test]
fn every_variant_exports_to_forensics_json() {
    for (reason, kind, _) in reasons() {
        let diag = AuditDiagnostics::from_reason(obs::Layer::Replay, &reason);
        let json = diag.to_json();
        assert!(
            json.contains(&format!("\"kind\": \"{kind}\"")),
            "{kind}: kind missing from forensics JSON {json}"
        );
        assert!(json.contains("\"phase\": \"replay\""), "{kind}: {json}");
        // The Display form rides along as the human-readable reason and
        // must be JSON-escaped into a parseable document.
        bench::json::parse(&json).unwrap_or_else(|e| panic!("{kind}: invalid JSON {json}: {e}"));
    }
}

#[test]
fn resource_kind_names_are_pinned() {
    let expected = [
        ("replay_fuel", ResourceKind::ReplayFuel),
        ("group_deadline_ms", ResourceKind::GroupDeadline),
        ("decode_bytes", ResourceKind::DecodeBytes),
        ("decode_nodes", ResourceKind::DecodeNodes),
        ("dict_entries", ResourceKind::DictEntries),
        ("graph_nodes", ResourceKind::GraphNodes),
        ("graph_edges", ResourceKind::GraphEdges),
        ("group_width", ResourceKind::GroupWidth),
    ];
    assert_eq!(expected.len(), ResourceKind::ALL.len());
    for ((name, kind), listed) in expected.iter().zip(ResourceKind::ALL) {
        assert_eq!(*kind, listed, "ALL order drifted");
        assert_eq!(kind.name(), *name);
        assert_eq!(kind.to_string(), *name);
    }
}
