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
//! * **Server side**, here — [`Collector`] implements the
//!   advice-collection procedure (§C.1.3): handler logs, R-concurrent
//!   variable logs (Fig. 13), transaction logs, the binlog-derived write
//!   order, control-flow tags. [`run_instrumented_server`] wires it into
//!   the `kem` runtime. [`CollectorMode::OrochiJs`] provides the paper's
//!   Orochi-JS baseline on the same codebase. [`rorder`] is the R-order
//!   relation (§4.2), [`wire`] the advice encoder whose byte counts are
//!   the paper's "advice size", [`faultinject`] the mutators.
//! * **Verifier side** — the `karousos-verify` crate, re-exported here
//!   whole: [`Auditor::audit`] runs `Preprocess → ReExec → Postprocess`
//!   (Figs. 14–21) over the advice's wire bytes and rejects with a typed
//!   [`RejectReason`]. It links no code of this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod collector;
mod compat;
pub mod faultinject;
mod idhash;
pub mod rorder;
pub mod wire;

pub use advice::Advice;
pub use collector::{
    run_instrumented_server, run_instrumented_server_encoded, run_instrumented_server_with_obs,
    Collector, CollectorCounters, CollectorMode,
};
#[doc(hidden)]
pub use compat::{audit_encoded_with_obs, audit_source_with_obs, AdviceSource, AuditOptions};
pub use faultinject::{
    honest_must_accept, singleton_tags, ExhaustMutator, Mutation, MutationClass, MutationOutcome,
    Mutator, PoolMutator, TableMutator, WireMutator,
};
pub use karousos_verify::*;
pub use rorder::{r_concurrent, r_ordered, r_precedes};
pub use wire::{advice_sizes, decode_advice, encode_advice, AdviceSizes, AdviceViewExt};
