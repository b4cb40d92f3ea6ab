//! Advice: everything the untrusted server sends the verifier (§C.1.3).
//!
//! The advice comprises:
//!
//! * control-flow **tags** per request (the groupings `C`, §4.1);
//! * **handler logs** `HL` — per request, the ordered register / emit /
//!   unregister operations;
//! * **variable logs** `VL` — per loggable variable, the R-concurrent
//!   accesses (Fig. 13);
//! * **transaction logs** `TXL` — per transaction, its operations with
//!   each `GET`'s dictating `PUT` (§4.4);
//! * the **write order** — the alleged global order of committed final
//!   writes (from the store binlog);
//! * `responseEmittedBy` and `opcounts` maps;
//! * the **nondeterminism log** (§5).
//!
//! All of it is *untrusted*: the verifier validates every piece during
//! the audit. This module holds the grammar's entry types; the owned
//! `Advice` that holds them is the server side's (the `karousos`
//! crate), so that adversarial tests and a malicious server can build
//! or mutate arbitrary instances.

use std::collections::BTreeMap;

use kem_lang::{HandlerId, OpRef, RequestId, TxOpKind, Value};

/// An operation coordinate `(rid, hid, opnum)` as the verifier takes
/// the advice in: the handler is its path's rank in the advice's
/// handler-id table ([`crate::HidTable`]), which the decoder reads off
/// each reference once. Ranks ascend in [`HandlerId`] order, so these
/// order as the [`OpRef`]s they stand for do. It also names a
/// transaction, by its `tx_start` ([`KTxId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpAt {
    /// The request.
    pub rid: RequestId,
    /// The handler, by path rank.
    pub path: u32,
    /// The operation number within the handler.
    pub opnum: u32,
}

impl OpAt {
    /// Convenience constructor.
    pub fn new(rid: RequestId, path: u32, opnum: u32) -> Self {
        OpAt { rid, path, opnum }
    }
}

/// Karousos's transaction identifier: the coordinate of the `tx_start`
/// operation (§C.3.1 "both executions compute the same tid as
/// (hid, opnum)"), qualified by the request.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KTxId {
    /// The request that started the transaction.
    pub rid: RequestId,
    /// The handler that issued `tx_start`.
    pub hid: HandlerId,
    /// The opnum of the `tx_start` within that handler.
    pub opnum: u32,
}

impl std::fmt::Display for KTxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx({}, {}, {})", self.rid, self.hid, self.opnum)
    }
}

/// A position within a transaction log: `index`-th entry of `tx`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxPos {
    /// The transaction.
    pub tx: KTxId,
    /// Zero-based index into its log ( = the paper's `txnum`).
    pub index: u32,
}

/// A handler-log operation (§C.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandlerOp {
    /// `register(event, function)`.
    Register {
        /// Event name.
        event: String,
        /// Registered function.
        function: kem_lang::FunctionId,
    },
    /// `unregister(event, function)`.
    Unregister {
        /// Event name.
        event: String,
        /// Unregistered function.
        function: kem_lang::FunctionId,
    },
    /// `emit(event)`.
    Emit {
        /// Event name.
        event: String,
    },
    /// A check operation inspecting the handlers registered for an
    /// event (§C.1.3 "Check operations").
    Check {
        /// Event name inspected.
        event: String,
    },
}

/// One handler-log entry: which operation of which handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerLogEntry {
    /// Issuing handler.
    pub hid: HandlerId,
    /// Operation number within the handler.
    pub opnum: u32,
    /// The operation.
    pub op: HandlerOp,
}

/// Whether a variable-log entry records a read or a write (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// One variable-log entry (Fig. 13) of owned advice. The verifier reads
/// the decoded form, [`crate::wire::VarLogEntryView`].
///
/// `READ` entries reference the write they observed; `WRITE` entries
/// carry the value written and reference the write they overwrote
/// (`None` for backfilled entries, logged lazily when a later
/// R-concurrent access observed them).
#[derive(Debug, Clone, PartialEq)]
pub struct VarLogEntry {
    /// Read or write.
    pub access: AccessType,
    /// `Write`: the value written. `Read`: unused (`None`).
    pub value: Option<Value>,
    /// The preceding operation: dictating write (reads) or overwritten
    /// write (writes).
    pub prec: Option<OpRef>,
}

/// The variable log of one loggable variable: entries keyed by the
/// access's coordinate.
pub type VarLog = BTreeMap<OpRef, VarLogEntry>;

/// Contents of a transaction-log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOpContents {
    /// No contents (`tx_start`, `tx_commit`, `tx_abort`).
    None,
    /// `PUT`: the value written.
    Put {
        /// The written value.
        value: Value,
    },
    /// `GET`: the position of the dictating `PUT` (`None` = the read
    /// observed the initial, never-written state).
    Get {
        /// Dictating write position.
        from: Option<TxPos>,
    },
}

/// One transaction-log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TxLogEntry {
    /// Issuing handler.
    pub hid: HandlerId,
    /// Operation number within the handler.
    pub opnum: u32,
    /// Operation type as logged.
    pub optype: TxOpKind,
    /// Row key (`GET`/`PUT`; also kept on conflict-abort records).
    pub key: Option<String>,
    /// Operation contents.
    pub contents: TxOpContents,
}
