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
//! This crate is a faithful, deterministic implementation of KEM:
//!
//! * [`Value`] and the KJS language ([`Expr`], [`Stmt`], [`Program`],
//!   [`dsl`]) — the "core of JavaScript" applications are written in;
//! * [`bytecode`] — each function body compiled once, at
//!   [`ProgramBuilder::build`], straight from the AST to flat ops with
//!   every name resolved: what both the server and the verifier run;
//! * [`vm`] — the one dispatch loop over that bytecode, generic over its
//!   executor: the server's runtime over [`Value`]s, the verifier's
//!   replay over multivalues;
//! * [`HandlerId`] — hash-consed activation paths implementing `A`;
//! * [`run_server`] — the dispatch loop with a seeded scheduler, a
//!   closed-loop admission window, and an embedded transactional store
//!   (the `kvstore` crate);
//! * [`ExecHooks`] — the instrumentation surface where the Karousos
//!   advice collector (or nothing, for the unmodified-server baseline)
//!   plugs in;
//! * [`Trace`] — the trusted request/response record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod bytecode;
mod error;
mod hooks;
mod ids;
mod ops;
pub mod pvalue;
mod runtime;
mod trace;
mod value;
pub mod vm;

pub use ast::{
    dsl, BinOp, BuildError, Expr, Function, NondetKind, Program, ProgramBuilder, Stmt, VarDecl,
};
pub use error::RuntimeError;
pub use hooks::{ExecHooks, NoopHooks, TxOpKind, TxOpRecord};
pub use ids::{FunctionId, HandlerId, Interner, OpRef, RequestId, Sym, VarId};
pub use ops::{
    eval_binop, eval_contains, eval_digest, eval_index, eval_keys, eval_len, eval_list_push,
    eval_map_insert, eval_map_remove, eval_to_str, int_binop,
};
pub use pvalue::{PList, PMap};
pub use runtime::{
    init_handler_id, run_server, tx_payload_keys, RunOutput, Runtime, SchedPolicy, ServerConfig,
    TxPayloadKeys, INIT_FUNCTION,
};
pub use trace::{Exchange, Trace, TraceEvent};
pub use value::{Fnv, Value, ValueInterner};
