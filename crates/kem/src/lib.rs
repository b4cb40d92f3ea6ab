//! KEM: the execution-model substrate of the Karousos reproduction.
//!
//! The paper defines *KEM* (§3), an execution model for event-driven web
//! applications: program state is shared variables plus pending events
//! plus event handlers; handlers are activated by a nondeterministic
//! dispatch loop, run to completion, and may read/write shared
//! variables, emit events, (un)register handlers, issue asynchronous
//! transactional operations, and deliver responses. The *activation
//! partial order* `A` (handler trees) and the *R-order* built on it are
//! the foundation of Karousos's record-replay algorithm.
//!
//! This crate is the server half of a faithful, deterministic KEM; the
//! language both halves run is `kem-lang`, re-exported here whole:
//!
//! * [`run_server`] — the dispatch loop with a seeded scheduler, a
//!   closed-loop admission window, and an embedded transactional store
//!   (the `kvstore` crate);
//! * [`ExecHooks`] — the instrumentation surface where the Karousos
//!   advice collector (or nothing, for the unmodified-server baseline)
//!   plugs in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hooks;
mod runtime;

pub use hooks::{ExecHooks, NoopHooks, TxOpRecord};
pub use kem_lang::*;
pub use runtime::{run_server, RunOutput, Runtime, SchedPolicy, ServerConfig};
