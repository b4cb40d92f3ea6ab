//! Isolation-level verification (§4.4, Fig. 17).
//!
//! The verifier runs Adya's algorithms against the *alleged* history
//! (transaction logs + write order), thereby provisionally justifying
//! it: (1) the write order must list exactly the last modifications of
//! committed transactions, once each; (2) the translated history must
//! pass the level's phenomena checks (G0 / G1a / G1b / G1c / G2 via the
//! `adya` crate). The remaining cross-checks — that logged operations
//! are actually produced by the program — happen during re-execution.
//!
//! Both read one table: the `adya::History` built from the logs marks
//! each transaction's final `PUT` per key, so "is a committed last
//! modification" is that mark on a committed transaction and the
//! expected length of the write order is their count.

use crate::advice::OpAt;
use crate::advice_ref::AdviceRef;
use crate::verifier::reject::RejectReason;
use crate::wire::TxOpContentsView;
use kem_lang::TxOpKind;

/// How much isolation work an audit had: the size of the alleged
/// history and of the direct serialization graph checked over it. All
/// zero for an audit without transaction logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationStats {
    /// Transactions (committed or not).
    pub txns: usize,
    /// `PUT` and `GET` operations, all transactions together.
    pub state_ops: usize,
    /// Distinct keys those operations touch.
    pub keys: usize,
    /// Entries of the write order.
    pub write_order: usize,
    /// Write-depend (`ww`), read-depend (`wr`) and anti-depend (`rw`)
    /// edges of the DSG.
    pub edges: [usize; 3],
}

/// The mark of a log entry that is no history operation.
const NOT_AN_OP: u32 = u32::MAX;

/// Verifies the write order against the transaction logs and runs the
/// per-level Adya checks. A transaction is named by its rank in
/// `advice.tx_logs` (which is also its `adya::TxnId`, and the index of
/// its flag in `committed`). Keys borrow the advice bytes all the way
/// into the history's key table — this pass copies no string, and
/// allocates a number of tables that does not depend on the advice.
pub fn verify_isolation(
    advice: &AdviceRef<'_>,
    committed: &[bool],
    isolation: adya::IsolationLevel,
) -> Result<IsolationStats, RejectReason> {
    let logs = advice.tx_logs.as_slice();
    let mismatch = |why| RejectReason::WriteOrderMismatch { why };
    if logs.is_empty() && advice.write_order.is_empty() {
        // An audit without transactions builds no table.
        return Ok(IsolationStats::default());
    }

    // Only keyed PUT/GET entries become history operations: `op_of`,
    // over all log entries (transaction `rank`'s start at
    // `log_starts[rank]`), keeps TxPos references aligned.
    let entries: usize = logs.iter().map(|(_, log)| log.len()).sum();
    let mut log_starts = Vec::with_capacity(logs.len());
    let mut op_of: Vec<u32> = Vec::with_capacity(entries);
    for (_, log) in logs {
        log_starts.push(op_of.len());
        let mut next = 0u32;
        op_of.extend(log.iter().map(|entry| {
            if !matches!(entry.optype, TxOpKind::Put | TxOpKind::Get) || entry.key.is_none() {
                return NOT_AN_OP;
            }
            next += 1;
            next - 1
        }));
    }
    // A position's rank, place in `op_of`, and log entry.
    let locate = |(tx, index): &(OpAt, u32)| {
        let rank = advice.tx_logs.position(tx)?;
        let entry = logs.get(rank)?.1.get(*index as usize)?;
        Some((rank, log_starts.get(rank)? + *index as usize, entry))
    };
    let translate = |pos: &(OpAt, u32)| {
        let (rank, at, _) = locate(pos)?;
        let index = *op_of.get(at).filter(|index| **index != NOT_AN_OP)?;
        Some((adya::TxnId(rank as u64), index))
    };

    // Translate the alleged history into the adya crate's
    // representation. A log that does not translate is reported after
    // the write order has been checked, so the first such error is kept
    // and the entry fed without its dictating write or, having no key,
    // skipped.
    let mut untranslatable: Option<RejectReason> = None;
    let mut builder = adya::HistoryBuilder::with_capacity(logs.len(), entries);
    for (rank, (tx, log)) in logs.iter().enumerate() {
        let id = adya::TxnId(rank as u64);
        builder.touch(id);
        let malformed = |why| RejectReason::TxLogMalformed {
            tx: advice.paths.tx_id(tx),
            why,
        };
        for entry in log {
            let from = match (&entry.contents, entry.optype) {
                (_, TxOpKind::Start | TxOpKind::Commit | TxOpKind::Abort) => continue,
                (_, TxOpKind::Put) => None,
                (TxOpContentsView::Get { from }, TxOpKind::Get) => from.as_ref().map(translate),
                (_, TxOpKind::Get) => {
                    untranslatable.get_or_insert_with(|| malformed("GET with non-GET contents"));
                    None
                }
            };
            if from == Some(None) {
                untranslatable
                    .get_or_insert_with(|| mismatch("GET references untranslatable write"));
            }
            match entry.key {
                Some(key) if entry.optype == TxOpKind::Put => builder.put(id, key),
                Some(key) => builder.get(id, key, from.flatten()),
                None => {
                    untranslatable.get_or_insert_with(|| malformed("state operation without key"));
                    continue;
                }
            };
        }
        if committed.get(rank).copied().unwrap_or(false) {
            builder.commit(id);
        }
    }
    // An entry that names no history operation cannot pass the checks
    // below, so it never reaches the Adya check: any id no transaction
    // has stands in for it.
    let nowhere = (adya::TxnId(u64::MAX), 0);
    let version_order = advice.write_order.iter().map(|pos| {
        let (txn, index) = translate(pos).unwrap_or(nowhere);
        adya::OpRef { txn, index }
    });
    builder.set_version_order(version_order.collect());
    let history = builder.finish();

    // ExtractWriteOrderPerKey's validations (Fig. 17 lines 22–28), plus
    // a uniqueness check so length-equality implies bijection.
    if advice.write_order.len() != history.final_write_count() {
        return Err(mismatch("length differs from last-modification count"));
    }
    let mut seen = vec![false; entries];
    for (pos, write) in advice.write_order.iter().zip(history.version_order()) {
        let Some((_, at, entry)) = locate(pos) else {
            return Err(mismatch("entry not in any log"));
        };
        // `at` lies inside its log, so inside `seen`.
        if std::mem::replace(&mut seen[at], true) {
            return Err(mismatch("duplicate entry"));
        }
        if entry.optype != TxOpKind::Put {
            return Err(mismatch("entry is not a PUT"));
        }
        if entry.key.is_none() {
            return Err(mismatch("entry is a PUT without a key"));
        }
        if !(history.is_committed(write.txn) && history.is_final_put(*write)) {
            return Err(mismatch("entry is not a committed last modification"));
        }
    }
    if let Some(reason) = untranslatable {
        return Err(reason);
    }

    let dsg = adya::check_isolation(&history, isolation).map_err(RejectReason::Isolation)?;
    Ok(IsolationStats {
        txns: logs.len(),
        state_ops: history.op_count(),
        keys: history.key_count(),
        write_order: advice.write_order.len(),
        edges: dsg.edge_counts(),
    })
}
