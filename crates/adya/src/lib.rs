//! Adya-style isolation testing for transactional key-value histories.
//!
//! Karousos's verifier checks the isolation level of the (alleged) store
//! history using Adya's algorithms (EuroSys '24 paper, §4.4): build a
//! *direct serialization graph* whose nodes are committed transactions
//! and whose edges are read-, write-, and anti-dependencies, then test
//! for the phenomena proscribed by the target level:
//!
//! | Level | Proscribed phenomena |
//! |---|---|
//! | read uncommitted | G0 (write-dependency cycles) |
//! | read committed | G0, G1a (aborted reads), G1b (intermediate reads), G1c (dependency cycles) |
//! | serializability | all of the above plus G2 (cycles including anti-dependencies) |
//!
//! This crate implements the history representation ([`History`],
//! [`HistoryBuilder`]), the graph ([`Dsg`]), and the per-level check
//! ([`check_isolation`]). It is used two ways in this repository:
//!
//! 1. By the Karousos verifier, against the *alleged* history decoded
//!    from untrusted advice (the verification is provisional and is
//!    cross-checked against re-execution, per §4.4).
//! 2. By the substrate test-suite, against the *true* history recorded by
//!    the `kvstore` crate, to validate that the store provides the
//!    isolation level it claims.
//!
//! # Examples
//!
//! ```
//! use adya::{check_isolation, HistoryBuilder, IsolationLevel, TxnId};
//!
//! let mut b = HistoryBuilder::new();
//! b.put(TxnId(0), "x");
//! b.commit(TxnId(0));
//! b.get(TxnId(1), "x", Some((TxnId(0), 0)));
//! b.commit(TxnId(1));
//! let history = b.finish();
//! assert!(check_isolation(&history, IsolationLevel::Serializable).is_ok());
//! ```

#![forbid(unsafe_code)]
// The checker runs on histories decoded from untrusted advice; a panic
// here is a denial-of-audit, exactly as in the verifier that calls it.
// Advice-sized references (a dictating write, a version-order entry) are
// read with `.get`; plain indexing is kept for indices the builder
// itself produced. Test modules allow these back.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod check;
mod dsg;
mod history;

pub use check::{check_isolation, Violation};
pub use dsg::{Dsg, EdgeKind};
pub use history::{History, HistoryBuilder, OpRef, TxnId};

/// The isolation level to check a history against.
///
/// Mirrors `kvstore::IsolationLevel`; the two are kept separate so this
/// crate stays dependency-free, with conversions done by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// PL-1: proscribes G0.
    ReadUncommitted,
    /// PL-2: proscribes G0 and G1 (G1a, G1b, G1c).
    ReadCommitted,
    /// PL-3: proscribes G0, G1, and G2.
    Serializable,
}
