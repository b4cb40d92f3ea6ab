//! Karousos: efficient auditing of event-driven web applications.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Tzialla et al., EuroSys 2024): a record-replay system in which an
//! untrusted server, running an event-driven application, emits
//! *advice* that lets a computationally weaker verifier re-execute a
//! trusted request/response *trace* in batches and decide whether the
//! responses could have been produced by the real program.
//!
//! The crate has two halves:
//!
//! * **Server side** — [`Collector`] implements the advice-collection
//!   procedure (§C.1.3): handler logs, R-concurrent variable logs
//!   (Fig. 13), transaction logs, the binlog-derived write order,
//!   control-flow tags. [`run_instrumented_server`] wires it into the
//!   `kem` runtime. [`CollectorMode::OrochiJs`] provides the paper's
//!   Orochi-JS baseline on the same codebase.
//! * **Verifier side** — [`audit_encoded`] runs
//!   `Preprocess → ReExec → Postprocess` (Figs. 14–21): graph
//!   construction, Adya isolation verification of the alleged
//!   transactional history, grouped SIMD-on-demand re-execution with
//!   per-variable dictionaries and observer bookkeeping, and the final
//!   acyclicity check. Rejections are typed ([`RejectReason`]).
//!
//! Supporting modules: [`rorder`] (the R-order relation, §4.2),
//! [`multivalue`] (SIMD-on-demand values), [`wire`] (the advice codec
//! whose byte counts are the paper's "advice size").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod advice_ref;
pub mod collector;
pub mod config;
pub mod faultinject;
pub mod multivalue;
pub mod rorder;
// The verifier consumes attacker-controlled advice; a panic there is a
// denial-of-audit. Lint-enforce the panic-freedom invariant (CI runs
// clippy with -D warnings, which promotes these to errors).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
pub mod verifier;
pub mod wire;

pub use advice::{
    AccessType, Advice, HandlerLogEntry, HandlerOp, KTxId, TxLogEntry, TxOpContents, TxOpType,
    TxPos, VarLog, VarLogEntry,
};
pub use advice_ref::{AdviceRef, TxContentsRef, TxEntryRef, VarLogRef, VecMap};
pub use collector::{
    run_instrumented_server, run_instrumented_server_encoded, run_instrumented_server_with_obs,
    Collector, CollectorCounters, CollectorMode,
};
pub use config::Limits;
pub use faultinject::{
    honest_must_accept, ExhaustMutator, Mutation, MutationClass, MutationOutcome, Mutator,
    PoolMutator, TableMutator, WireMutator,
};
pub use multivalue::{MultiValue, MultiValueIter};
pub use rorder::{r_concurrent, r_ordered, r_precedes};
pub use verifier::{
    audit, audit_encoded, audit_encoded_with_obs, audit_forensic, audit_source_with_obs,
    cycle_report, ooo_audit, AuditDiagnostics, AuditFailure, AuditOptions, AuditReport,
    CycleEdgeReport, CycleProbe, CycleReport, EdgeKind, FeedCounters, PhaseTiming, ReexecStats,
    RejectReason, ReplaySchedule, ResourceKind,
};
pub use wire::{
    advice_sizes, decode_advice, decode_advice_view, decode_advice_view_bounded, encode_advice,
    AdviceSizes, AdviceSource, AdviceView, BoundedDecodeError, DecodeStats, RawValue,
};
// What `tests/prop_wire.rs` pins the value path with.
#[doc(hidden)]
pub use wire::{decode_value_bounded, Materializer};
