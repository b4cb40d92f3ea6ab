//! The language half of KEM: what the server and the verifier both run.
//!
//! * [`Value`] and the KJS language ([`Expr`], [`Stmt`], [`Program`],
//!   [`dsl`]) — the "core of JavaScript" applications are written in;
//! * [`bytecode`] — each function body compiled once, at
//!   [`ProgramBuilder::build`], straight from the AST to flat ops with
//!   every name resolved;
//! * [`vm`] — the one dispatch loop over that bytecode, generic over its
//!   executor: the server's runtime (the `kem` crate) over [`Value`]s,
//!   the verifier's replay over multivalues;
//! * [`HandlerId`] — hash-consed activation paths implementing `A`;
//! * [`Trace`] — the trusted request/response record.
//!
//! It has no dependencies: the server's store and scheduler live in
//! `kem`, which re-exports this crate whole.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Replay runs this code on advice-derived values; a panic is a
// denial-of-audit (CI runs clippy with -D warnings).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod ast;
pub mod bytecode;
mod error;
mod ids;
mod ops;
pub mod pvalue;
mod trace;
mod value;
pub mod vm;

pub use ast::{
    dsl, BinOp, BuildError, Expr, Function, NondetKind, Program, ProgramBuilder, Stmt, VarDecl,
};
pub use error::RuntimeError;
pub use ids::{
    init_handler_id, FunctionId, HandlerId, Interner, OpRef, RequestId, Sym, VarId, INIT_FUNCTION,
};
pub use ops::{
    eval_binop, eval_contains, eval_digest, eval_index, eval_keys, eval_len, eval_list_push,
    eval_map_insert, eval_map_remove, eval_to_str, int_binop,
};
pub use pvalue::{PList, PMap};
pub use trace::{Exchange, Trace, TraceEvent};
pub use value::{tx_payload_keys, Fnv, TxPayloadKeys, Value, ValueInterner};
pub use vm::TxOpKind;
