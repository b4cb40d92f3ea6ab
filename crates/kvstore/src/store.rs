//! The transactional store itself.

use std::collections::HashMap;

use crate::binlog::Binlog;
use crate::error::TxError;
use crate::history::{History, HistoryOp, HistoryRecorder};
use crate::types::{TxnId, WriteRef};
use crate::IsolationLevel;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Started and neither committed nor aborted.
    Active,
    /// Successfully committed; its final writes are in the binlog.
    Committed,
    /// Aborted, either explicitly or by a lock conflict.
    Aborted,
}

/// Result of a [`Store::get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetResult<V> {
    /// The value observed, or `None` if the key has never been written
    /// from this transaction's viewpoint.
    pub value: Option<V>,
    /// The dictating `PUT` (the row's last-writer metadata, §5), or
    /// `None` when the initial state was observed.
    pub writer: Option<WriteRef>,
}

/// A buffered write inside a live transaction.
#[derive(Debug, Clone)]
struct BufferedPut<V> {
    key: String,
    value: V,
    tag: u32,
}

/// Per-transaction bookkeeping.
#[derive(Debug, Clone)]
struct Txn<V> {
    status: TxnStatus,
    /// All `PUT`s in issue order.
    puts: Vec<BufferedPut<V>>,
    /// Keys in first-`PUT` order, for deterministic commit application.
    key_order: Vec<String>,
    /// Keys this transaction holds read locks on (serializable only).
    read_locks: Vec<String>,
    /// Keys this transaction holds write locks on.
    write_locks: Vec<String>,
}

impl<V> Txn<V> {
    fn new() -> Self {
        Txn {
            status: TxnStatus::Active,
            puts: Vec::new(),
            key_order: Vec::new(),
            read_locks: Vec::new(),
            write_locks: Vec::new(),
        }
    }

    /// Index into `puts` of the latest `PUT` to `key`, if any.
    fn last_put_to(&self, key: &str) -> Option<&BufferedPut<V>> {
        self.puts.iter().rev().find(|p| p.key == key)
    }
}

/// Per-key state: the committed version plus lock holders.
#[derive(Debug, Clone)]
struct Row<V> {
    /// Latest committed value and its writer, if any write has committed.
    committed: Option<(V, WriteRef)>,
    /// Transactions holding shared read locks (serializable only).
    read_lockers: Vec<TxnId>,
    /// Transaction holding the exclusive write lock, if any.
    write_locker: Option<TxnId>,
}

impl<V> Row<V> {
    fn new() -> Self {
        Row {
            committed: None,
            read_lockers: Vec::new(),
            write_locker: None,
        }
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (explicitly or by conflict).
    pub aborted: u64,
    /// Lock conflicts encountered (each also aborts a transaction).
    pub conflicts: u64,
    /// `GET` operations executed.
    pub gets: u64,
    /// `PUT` operations executed.
    pub puts: u64,
}

/// An in-memory transactional key-value store (see the crate docs).
///
/// Values are generic; the Karousos layers instantiate `V` with the KJS
/// [`Value`](../kem/enum.Value.html) type, and substrate tests use plain
/// strings or integers.
#[derive(Debug, Clone)]
pub struct Store<V> {
    isolation: IsolationLevel,
    rows: HashMap<String, Row<V>>,
    txns: Vec<Txn<V>>,
    binlog: Binlog,
    recorder: HistoryRecorder,
    stats: StoreStats,
}

impl<V: Clone> Store<V> {
    /// Creates an empty store at the given isolation level.
    pub fn new(isolation: IsolationLevel) -> Self {
        Store {
            isolation,
            rows: HashMap::new(),
            txns: Vec::new(),
            binlog: Binlog::new(),
            recorder: HistoryRecorder::new(false),
            stats: StoreStats::default(),
        }
    }

    /// Creates a store that also records its full operation history, for
    /// invariant testing with the `adya` crate.
    pub fn with_history(isolation: IsolationLevel) -> Self {
        let mut s = Self::new(isolation);
        s.recorder = HistoryRecorder::new(true);
        s
    }

    /// The configured isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// The committed-write order so far.
    pub fn binlog(&self) -> &Binlog {
        &self.binlog
    }

    /// The committed-write order, taken out of a store that is done.
    pub fn into_binlog(self) -> Binlog {
        self.binlog
    }

    /// Operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The recorded history so far (empty unless built with
    /// [`Store::with_history`]).
    pub fn history(&self) -> History {
        self.recorder.snapshot(self.isolation)
    }

    /// Starts a new transaction.
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.txns.len() as u64);
        self.txns.push(Txn::new());
        self.stats.begun += 1;
        self.recorder.record(HistoryOp::Start { txn: id });
        id
    }

    /// Returns the status of `txn`.
    pub fn status(&self, txn: TxnId) -> Result<TxnStatus, TxError> {
        self.txn_ref(txn).map(|t| t.status)
    }

    /// Reads `key` within `txn`.
    ///
    /// Visibility follows the configured [`IsolationLevel`]; a
    /// transaction always observes its own earlier writes first. Under
    /// serializability a conflicting write lock aborts `txn` with
    /// [`TxError::Conflict`].
    pub fn get(&mut self, txn: TxnId, key: &str) -> Result<GetResult<V>, TxError> {
        self.check_active(txn)?;
        self.stats.gets += 1;

        // Own writes win at every isolation level.
        if let Some(put) = self.txn_ref(txn)?.last_put_to(key) {
            let result = GetResult {
                value: Some(put.value.clone()),
                writer: Some(WriteRef { txn, tag: put.tag }),
            };
            self.recorder.record(HistoryOp::Get {
                txn,
                key: key.to_string(),
                from: result.writer,
            });
            return Ok(result);
        }

        if self.isolation == IsolationLevel::Serializable {
            self.acquire_read_lock(txn, key)?;
        }

        let row = self.rows.get(key);
        let result = match self.isolation {
            IsolationLevel::ReadUncommitted => {
                // A dirty read observes the write-lock holder's latest
                // buffered PUT, if there is one.
                let dirty = row.and_then(|r| r.write_locker).and_then(|locker| {
                    self.txns[locker.0 as usize].last_put_to(key).map(|p| {
                        (
                            p.value.clone(),
                            WriteRef {
                                txn: locker,
                                tag: p.tag,
                            },
                        )
                    })
                });
                match dirty {
                    Some((v, w)) => GetResult {
                        value: Some(v),
                        writer: Some(w),
                    },
                    None => Self::committed_view(row),
                }
            }
            IsolationLevel::ReadCommitted | IsolationLevel::Serializable => {
                Self::committed_view(row)
            }
        };
        self.recorder.record(HistoryOp::Get {
            txn,
            key: key.to_string(),
            from: result.writer,
        });
        Ok(result)
    }

    /// Writes `key := value` within `txn`.
    ///
    /// `tag` is an opaque caller cookie stored in the row's last-writer
    /// metadata and in the binlog; Karousos uses it for the writer's
    /// position in its transaction log. Conflicting locks abort `txn`.
    pub fn put(&mut self, txn: TxnId, key: &str, value: V, tag: u32) -> Result<(), TxError> {
        self.check_active(txn)?;
        self.stats.puts += 1;
        self.acquire_write_lock(txn, key)?;
        let t = &mut self.txns[txn.0 as usize];
        if !t.key_order.iter().any(|k| k == key) {
            t.key_order.push(key.to_string());
        }
        t.puts.push(BufferedPut {
            key: key.to_string(),
            value,
            tag,
        });
        self.recorder.record(HistoryOp::Put {
            txn,
            key: key.to_string(),
            tag,
        });
        Ok(())
    }

    /// Commits `txn`, applying its final write per key (in first-`PUT`
    /// order) to the committed state and the binlog, then releasing locks.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), TxError> {
        self.check_active(txn)?;
        let (key_order, finals): (Vec<String>, Vec<(V, u32)>) = {
            let t = &self.txns[txn.0 as usize];
            let keys = t.key_order.clone();
            let finals = keys
                .iter()
                .map(|k| {
                    let p = t
                        .last_put_to(k)
                        .expect("key_order entries always have a PUT");
                    (p.value.clone(), p.tag)
                })
                .collect();
            (keys, finals)
        };
        for (key, (value, tag)) in key_order.iter().zip(finals) {
            let row = self.rows.entry(key.clone()).or_insert_with(Row::new);
            row.committed = Some((value, WriteRef { txn, tag }));
            self.binlog.append(txn, key.clone(), tag);
        }
        self.release_locks(txn);
        self.txns[txn.0 as usize].status = TxnStatus::Committed;
        self.stats.committed += 1;
        self.recorder.record(HistoryOp::Commit { txn });
        Ok(())
    }

    /// Aborts `txn`, discarding its buffered writes and releasing locks.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), TxError> {
        self.check_active(txn)?;
        self.abort_internal(txn);
        Ok(())
    }

    /// Reads the committed value of `key` outside any transaction.
    ///
    /// For tests and harness assertions only; not part of the audited
    /// interface.
    pub fn committed_value(&self, key: &str) -> Option<&V> {
        self.rows
            .get(key)
            .and_then(|r| r.committed.as_ref())
            .map(|(v, _)| v)
    }

    /// Number of keys with a committed value.
    pub fn committed_len(&self) -> usize {
        self.rows.values().filter(|r| r.committed.is_some()).count()
    }

    fn committed_view(row: Option<&Row<V>>) -> GetResult<V> {
        match row.and_then(|r| r.committed.as_ref()) {
            Some((v, w)) => GetResult {
                value: Some(v.clone()),
                writer: Some(*w),
            },
            None => GetResult {
                value: None,
                writer: None,
            },
        }
    }

    fn txn_ref(&self, txn: TxnId) -> Result<&Txn<V>, TxError> {
        self.txns
            .get(txn.0 as usize)
            .ok_or(TxError::UnknownTxn(txn))
    }

    fn check_active(&self, txn: TxnId) -> Result<(), TxError> {
        match self.txn_ref(txn)?.status {
            TxnStatus::Active => Ok(()),
            _ => Err(TxError::NotActive(txn)),
        }
    }

    fn acquire_read_lock(&mut self, txn: TxnId, key: &str) -> Result<(), TxError> {
        let row = self.rows.entry(key.to_string()).or_insert_with(Row::new);
        if let Some(holder) = row.write_locker {
            if holder != txn {
                return Err(self.conflict(txn, key));
            }
        }
        let row = self.rows.get_mut(key).expect("row just ensured");
        if !row.read_lockers.contains(&txn) {
            row.read_lockers.push(txn);
            self.txns[txn.0 as usize].read_locks.push(key.to_string());
        }
        Ok(())
    }

    fn acquire_write_lock(&mut self, txn: TxnId, key: &str) -> Result<(), TxError> {
        let row = self.rows.entry(key.to_string()).or_insert_with(Row::new);
        if let Some(holder) = row.write_locker {
            if holder != txn {
                return Err(self.conflict(txn, key));
            }
            return Ok(());
        }
        if self.isolation == IsolationLevel::Serializable
            && row.read_lockers.iter().any(|&r| r != txn)
        {
            return Err(self.conflict(txn, key));
        }
        let row = self.rows.get_mut(key).expect("row just ensured");
        row.write_locker = Some(txn);
        self.txns[txn.0 as usize].write_locks.push(key.to_string());
        Ok(())
    }

    /// Registers a conflict: bumps counters and aborts the requester.
    fn conflict(&mut self, txn: TxnId, key: &str) -> TxError {
        self.stats.conflicts += 1;
        self.abort_internal(txn);
        TxError::Conflict {
            key: key.to_string(),
            aborted: txn,
        }
    }

    fn abort_internal(&mut self, txn: TxnId) {
        self.release_locks(txn);
        self.txns[txn.0 as usize].status = TxnStatus::Aborted;
        self.txns[txn.0 as usize].puts.clear();
        self.stats.aborted += 1;
        self.recorder.record(HistoryOp::Abort { txn });
    }

    fn release_locks(&mut self, txn: TxnId) {
        let t = &mut self.txns[txn.0 as usize];
        let read_locks = std::mem::take(&mut t.read_locks);
        let write_locks = std::mem::take(&mut t.write_locks);
        for key in read_locks {
            if let Some(row) = self.rows.get_mut(&key) {
                row.read_lockers.retain(|&r| r != txn);
            }
        }
        for key in write_locks {
            if let Some(row) = self.rows.get_mut(&key) {
                if row.write_locker == Some(txn) {
                    row.write_locker = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ser() -> Store<i64> {
        Store::new(IsolationLevel::Serializable)
    }

    #[test]
    fn read_own_write() {
        let mut s = ser();
        let t = s.begin();
        s.put(t, "k", 1, 0).unwrap();
        let g = s.get(t, "k").unwrap();
        assert_eq!(g.value, Some(1));
        assert_eq!(g.writer, Some(WriteRef { txn: t, tag: 0 }));
    }

    #[test]
    fn committed_visible_after_commit() {
        let mut s = ser();
        let t = s.begin();
        s.put(t, "k", 1, 0).unwrap();
        s.commit(t).unwrap();
        let t2 = s.begin();
        assert_eq!(s.get(t2, "k").unwrap().value, Some(1));
    }

    #[test]
    fn uncommitted_invisible_under_serializable() {
        // Under SER, a reader conflicting with a live writer is aborted
        // rather than shown anything.
        let mut s = ser();
        let w = s.begin();
        s.put(w, "k", 1, 0).unwrap();
        let r = s.begin();
        let err = s.get(r, "k").unwrap_err();
        assert!(matches!(err, TxError::Conflict { .. }));
        assert_eq!(s.status(r).unwrap(), TxnStatus::Aborted);
        // The writer is unaffected and can commit.
        s.commit(w).unwrap();
    }

    #[test]
    fn uncommitted_invisible_under_read_committed() {
        let mut s = Store::new(IsolationLevel::ReadCommitted);
        let w = s.begin();
        s.put(w, "k", 1, 0).unwrap();
        let r = s.begin();
        let g = s.get(r, "k").unwrap();
        assert_eq!(g.value, None);
        assert_eq!(g.writer, None);
    }

    #[test]
    fn dirty_read_under_read_uncommitted() {
        let mut s = Store::new(IsolationLevel::ReadUncommitted);
        let w = s.begin();
        s.put(w, "k", 1, 7).unwrap();
        let r = s.begin();
        let g = s.get(r, "k").unwrap();
        assert_eq!(g.value, Some(1));
        assert_eq!(g.writer, Some(WriteRef { txn: w, tag: 7 }));
    }

    #[test]
    fn dirty_read_sees_latest_buffered_put() {
        let mut s = Store::new(IsolationLevel::ReadUncommitted);
        let w = s.begin();
        s.put(w, "k", 1, 1).unwrap();
        s.put(w, "k", 2, 2).unwrap();
        let r = s.begin();
        let g = s.get(r, "k").unwrap();
        assert_eq!(g.value, Some(2));
        assert_eq!(g.writer.unwrap().tag, 2);
    }

    #[test]
    fn dirty_read_of_aborted_writer_falls_back_to_committed() {
        let mut s = Store::new(IsolationLevel::ReadUncommitted);
        let w0 = s.begin();
        s.put(w0, "k", 10, 0).unwrap();
        s.commit(w0).unwrap();
        let w = s.begin();
        s.put(w, "k", 1, 1).unwrap();
        s.abort(w).unwrap();
        let r = s.begin();
        assert_eq!(s.get(r, "k").unwrap().value, Some(10));
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        for iso in IsolationLevel::ALL {
            let mut s: Store<i64> = Store::new(iso);
            let a = s.begin();
            s.put(a, "k", 1, 0).unwrap();
            let b = s.begin();
            let err = s.put(b, "k", 2, 0).unwrap_err();
            assert!(matches!(err, TxError::Conflict { .. }), "under {iso}");
            assert_eq!(s.status(b).unwrap(), TxnStatus::Aborted);
        }
    }

    #[test]
    fn read_lock_blocks_writer_under_serializable() {
        let mut s = ser();
        let init = s.begin();
        s.put(init, "k", 0, 0).unwrap();
        s.commit(init).unwrap();
        let r = s.begin();
        s.get(r, "k").unwrap();
        let w = s.begin();
        assert!(matches!(s.put(w, "k", 1, 0), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn reader_does_not_block_writer_under_read_committed() {
        let mut s = Store::new(IsolationLevel::ReadCommitted);
        let init = s.begin();
        s.put(init, "k", 0, 0).unwrap();
        s.commit(init).unwrap();
        let r = s.begin();
        s.get(r, "k").unwrap();
        let w = s.begin();
        s.put(w, "k", 1, 0).unwrap();
        s.commit(w).unwrap();
        // The still-running reader now sees the new committed value.
        assert_eq!(s.get(r, "k").unwrap().value, Some(1));
    }

    #[test]
    fn upgrade_own_read_lock() {
        let mut s = ser();
        let t = s.begin();
        s.get(t, "k").unwrap();
        s.put(t, "k", 1, 0).unwrap();
        s.commit(t).unwrap();
        assert_eq!(s.committed_value("k"), Some(&1));
    }

    #[test]
    fn write_skew_prevented_under_serializable() {
        // Classic write skew: t1 reads x writes y, t2 reads y writes x.
        let mut s = ser();
        let init = s.begin();
        s.put(init, "x", 0, 0).unwrap();
        s.put(init, "y", 0, 1).unwrap();
        s.commit(init).unwrap();
        let t1 = s.begin();
        let t2 = s.begin();
        s.get(t1, "x").unwrap();
        s.get(t2, "y").unwrap();
        // t1 writing y conflicts with t2's read lock.
        assert!(matches!(
            s.put(t1, "y", 1, 0),
            Err(TxError::Conflict { .. })
        ));
        // t2 can proceed.
        s.put(t2, "x", 1, 0).unwrap();
        s.commit(t2).unwrap();
    }

    #[test]
    fn binlog_records_final_write_per_key_in_commit_order() {
        let mut s = ser();
        let a = s.begin();
        s.put(a, "k1", 1, 1).unwrap();
        s.put(a, "k1", 2, 2).unwrap();
        s.put(a, "k2", 3, 3).unwrap();
        s.commit(a).unwrap();
        let b = s.begin();
        s.put(b, "k1", 4, 1).unwrap();
        s.commit(b).unwrap();
        let entries = s.binlog().entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            (entries[0].txn, entries[0].key.as_str(), entries[0].tag),
            (a, "k1", 2)
        );
        assert_eq!(
            (entries[1].txn, entries[1].key.as_str(), entries[1].tag),
            (a, "k2", 3)
        );
        assert_eq!(
            (entries[2].txn, entries[2].key.as_str(), entries[2].tag),
            (b, "k1", 1)
        );
    }

    #[test]
    fn aborted_txn_leaves_no_trace_in_binlog_or_state() {
        let mut s = ser();
        let t = s.begin();
        s.put(t, "k", 1, 0).unwrap();
        s.abort(t).unwrap();
        assert!(s.binlog().is_empty());
        assert_eq!(s.committed_value("k"), None);
        // The key is unlocked for others.
        let t2 = s.begin();
        s.put(t2, "k", 2, 0).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.committed_value("k"), Some(&2));
    }

    #[test]
    fn operations_on_finished_txn_fail() {
        let mut s = ser();
        let t = s.begin();
        s.commit(t).unwrap();
        assert!(matches!(s.get(t, "k"), Err(TxError::NotActive(_))));
        assert!(matches!(s.put(t, "k", 1, 0), Err(TxError::NotActive(_))));
        assert!(matches!(s.commit(t), Err(TxError::NotActive(_))));
        assert!(matches!(s.abort(t), Err(TxError::NotActive(_))));
    }

    #[test]
    fn unknown_txn_rejected() {
        let mut s = ser();
        assert!(matches!(s.get(TxnId(99), "k"), Err(TxError::UnknownTxn(_))));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut s = ser();
        let a = s.begin();
        s.put(a, "k", 1, 0).unwrap();
        s.commit(a).unwrap();
        let b = s.begin();
        let _ = s.put(b, "k", 2, 0); // fine, lock free now
        s.abort(b).unwrap();
        let st = s.stats();
        assert_eq!(st.begun, 2);
        assert_eq!(st.committed, 1);
        assert_eq!(st.aborted, 1);
        assert_eq!(st.puts, 2);
    }

    #[test]
    fn history_recording() {
        let mut s: Store<i64> = Store::with_history(IsolationLevel::Serializable);
        let t = s.begin();
        s.put(t, "k", 1, 0).unwrap();
        s.get(t, "k").unwrap();
        s.commit(t).unwrap();
        let h = s.history();
        assert_eq!(h.ops.len(), 4);
        assert_eq!(h.committed(), vec![t]);
    }
}
