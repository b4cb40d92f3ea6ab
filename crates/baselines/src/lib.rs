//! Evaluation baselines (paper §6, "Baselines").
//!
//! 1. The **unmodified server** is simply the `kem` runtime with
//!    [`kem::NoopHooks`] — no extra code needed.
//! 2. The **sequential re-executor** ([`sequential_reexecute`]): the
//!    application server replays the trace's requests one at a time, in
//!    arrival order, with no advice and no batching. The paper notes
//!    this is *pessimistic for Karousos*: a real verifier built on
//!    sequential re-execution would additionally need advice, so it
//!    would be at least as slow.
//! 3. **Orochi-JS** ([`orochi`]): Orochi's algorithms implemented on the
//!    Karousos codebase — requests batch only when they induce the
//!    *identical sequence* of handlers, and all loggable-variable
//!    accesses are logged. It is the collector's
//!    `CollectorMode::OrochiJs` audited by the one verifier, so the
//!    module holds no code of its own, only its tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orochi;
pub mod sequential;

pub use sequential::{sequential_reexecute, SequentialReport};
