//! The Karousos verifier: the trusted side of the paper's audit.
//!
//! It decodes the untrusted server's advice ([`wire`]), builds its
//! working form ([`AdviceRef`]) and runs `Preprocess → ReExec →
//! Postprocess` (Figs. 14–21) to ACCEPT or a typed [`RejectReason`]:
//! graph construction, Adya isolation verification of the alleged
//! transactional history, grouped SIMD-on-demand re-execution
//! ([`multivalue`]) on the language's one dispatch loop, per-variable
//! dictionaries and observer bookkeeping, and the final acyclicity
//! check. It links `kem-lang`, `adya`, `obs` and the `rand` shim, and no
//! server code: that is the `karousos` crate, which re-exports this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The verifier consumes attacker-controlled advice; a panic is a
// denial-of-audit (CI runs clippy with -D warnings).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod advice;
pub mod advice_ref;
pub mod config;
pub mod hids;
pub mod multivalue;
pub mod verifier;
pub mod wire;

pub use advice::{
    AccessType, HandlerLogEntry, HandlerOp, KTxId, OpAt, TxLogEntry, TxOpContents, TxPos, VarLog,
    VarLogEntry,
};
pub use advice_ref::{AdviceRef, LogMap, VecMap};
pub use config::Limits;
pub use hids::HidTable;
pub use multivalue::{MultiValue, MultiValueIter};
pub use verifier::{
    cycle_report, AuditDiagnostics, AuditFailure, AuditReport, Auditor, CycleEdgeReport,
    CycleProbe, CycleReport, EdgeKind, FeedCounters, PhaseTiming, ReexecStats, RejectReason,
    ReplaySchedule, ResourceKind,
};
pub use wire::{
    decode_advice_view, decode_advice_view_bounded, AdviceView, BoundedDecodeError, DecodeStats,
    LogSection, RawValue, TxLogEntryView, TxOpContentsView, VarLogEntryView,
};
// What `tests/prop_wire.rs` pins the value path with.
#[doc(hidden)]
pub use wire::decode_value_bounded;
