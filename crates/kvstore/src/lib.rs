//! Transactional key-value store substrate for the Karousos reproduction.
//!
//! The Karousos paper (EuroSys '24, §4.4 and §5) uses MySQL through a
//! deliberately narrow interface: single-row `PUT`/`GET` operations inside
//! transactions, one of three isolation levels (serializability, read
//! committed, read uncommitted), per-row *last writer* metadata used to
//! capture the dictating `PUT` of each `GET`, and the MySQL binlog
//! repurposed as a global *write order*. This crate implements exactly that
//! interface as an in-memory store so the rest of the system can be built
//! and evaluated without a MySQL deployment:
//!
//! * [`Store`] — the transactional store, generic over the value type.
//! * [`IsolationLevel`] — the three isolation levels the paper supports.
//! * [`Binlog`] — the committed-write order (the paper's `writeOrder`).
//! * [`WriteRef`] — a reference to the dictating `PUT` of a read.
//! * [`History`] — an optional full operation history recorder used by the
//!   substrate invariant tests (checked with the `adya` crate).
//!
//! # Concurrency model
//!
//! The store is driven by a single-threaded simulated scheduler (see the
//! `kem` crate), so it needs no internal locking for memory safety; the
//! "locks" here are *transactional* locks (strict two-phase locking for
//! serializability, write locks for read committed). Lock conflicts do not
//! block: they abort the requesting transaction with
//! [`TxError::Conflict`], which is how the paper's stack-dump application
//! obtains its retry errors. Immediate conflict-abort also makes deadlock
//! impossible, keeping simulated schedules deterministic.
//!
//! # Examples
//!
//! ```
//! use kvstore::{IsolationLevel, Store};
//!
//! let mut store: Store<String> = Store::new(IsolationLevel::Serializable);
//! let tx = store.begin();
//! store.put(tx, "greeting", "hello".to_string(), 1).unwrap();
//! store.commit(tx).unwrap();
//!
//! let tx2 = store.begin();
//! let got = store.get(tx2, "greeting").unwrap();
//! assert_eq!(got.value.as_deref(), Some("hello"));
//! store.commit(tx2).unwrap();
//! ```

#![forbid(unsafe_code)]

mod binlog;
mod error;
mod history;
mod store;
mod types;

pub use binlog::{Binlog, BinlogEntry};
pub use error::TxError;
pub use history::{History, HistoryOp, HistoryRecorder};
pub use store::{GetResult, Store, StoreStats, TxnStatus};
pub use types::{IsolationLevel, TxnId, WriteRef};
