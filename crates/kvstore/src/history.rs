//! Full operation-history recording, for substrate invariant tests.
//!
//! The store can optionally record every operation it executes — the
//! *true* history, in the sense of Adya's theory (§4.4: "Adya's
//! algorithms take as input the true history at the KV store"). The
//! Karousos verifier never sees this (it works from untrusted advice);
//! the history exists so tests can check that the store really provides
//! the isolation level it claims, using the `adya` crate.

use crate::types::{TxnId, WriteRef};
use crate::IsolationLevel;

/// One recorded store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryOp {
    /// Transaction start.
    Start { txn: TxnId },
    /// A `PUT` of `key`, tagged by the caller.
    Put { txn: TxnId, key: String, tag: u32 },
    /// A `GET` of `key` and the write it observed (`None` = initial state).
    Get {
        txn: TxnId,
        key: String,
        from: Option<WriteRef>,
    },
    /// Successful commit.
    Commit { txn: TxnId },
    /// Abort, either requested or conflict-induced.
    Abort { txn: TxnId },
}

impl HistoryOp {
    /// The transaction that issued this operation.
    pub fn txn(&self) -> TxnId {
        match self {
            HistoryOp::Start { txn }
            | HistoryOp::Put { txn, .. }
            | HistoryOp::Get { txn, .. }
            | HistoryOp::Commit { txn }
            | HistoryOp::Abort { txn } => *txn,
        }
    }
}

/// The recorded history: operations in real execution order, plus the
/// isolation level the store ran at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    /// The level the store was configured with.
    pub isolation: IsolationLevel,
    /// Every operation, in the order the store executed them.
    pub ops: Vec<HistoryOp>,
}

impl History {
    /// Returns the ids of transactions that committed.
    pub fn committed(&self) -> Vec<TxnId> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                HistoryOp::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    /// Returns the operations issued by `txn`, in order.
    pub fn ops_of(&self, txn: TxnId) -> Vec<&HistoryOp> {
        self.ops.iter().filter(|op| op.txn() == txn).collect()
    }
}

/// Incremental history recorder owned by the store.
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder {
    enabled: bool,
    ops: Vec<HistoryOp>,
}

impl HistoryRecorder {
    /// Creates a recorder; disabled recorders are free.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ops: Vec::new(),
        }
    }

    /// Records one operation if enabled.
    pub fn record(&mut self, op: HistoryOp) {
        if self.enabled {
            self.ops.push(op);
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Finishes recording, producing the [`History`].
    pub fn finish(self, isolation: IsolationLevel) -> History {
        History {
            isolation,
            ops: self.ops,
        }
    }

    /// Clones out the history so far without consuming the recorder.
    pub fn snapshot(&self, isolation: IsolationLevel) -> History {
        History {
            isolation,
            ops: self.ops.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = HistoryRecorder::new(false);
        r.record(HistoryOp::Start { txn: TxnId(0) });
        assert!(r.finish(IsolationLevel::Serializable).ops.is_empty());
    }

    #[test]
    fn committed_and_ops_of() {
        let mut r = HistoryRecorder::new(true);
        r.record(HistoryOp::Start { txn: TxnId(0) });
        r.record(HistoryOp::Put {
            txn: TxnId(0),
            key: "k".into(),
            tag: 1,
        });
        r.record(HistoryOp::Start { txn: TxnId(1) });
        r.record(HistoryOp::Commit { txn: TxnId(0) });
        r.record(HistoryOp::Abort { txn: TxnId(1) });
        let h = r.finish(IsolationLevel::ReadCommitted);
        assert_eq!(h.committed(), vec![TxnId(0)]);
        assert_eq!(h.ops_of(TxnId(1)).len(), 2);
    }
}
