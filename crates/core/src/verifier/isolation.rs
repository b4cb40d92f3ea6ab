//! Isolation-level verification (§4.4, Fig. 17).
//!
//! The verifier runs Adya's algorithms against the *alleged* history
//! (transaction logs + write order), thereby provisionally justifying
//! it: (1) the write order must list exactly the last modifications of
//! committed transactions, once each; (2) the translated history must
//! pass the level's phenomena checks (G0 / G1a / G1b / G1c / G2 via the
//! `adya` crate). The remaining cross-checks — that logged operations
//! are actually produced by the program — happen during re-execution.

use std::collections::{HashMap, HashSet};

use crate::advice::{TxOpType, TxPos};
use crate::advice_ref::{AdviceRef, TxContentsRef};
use crate::verifier::reject::RejectReason;

/// Verifies the write order against the transaction logs and runs the
/// per-level Adya checks. A transaction is named by its rank in
/// `advice.tx_logs` (which is also its `adya::TxnId`): `committed` is
/// indexed by it and `last_modification` is keyed by `(rank, key)`.
/// Keys borrow the advice bytes (`'a`) all the way through — this pass
/// materializes nothing.
pub fn verify_isolation<'a>(
    advice: &AdviceRef<'a>,
    committed: &[bool],
    last_modification: &HashMap<(u32, &'a str), u32>,
    isolation: kvstore::IsolationLevel,
) -> Result<(), RejectReason> {
    let logs = advice.tx_logs.as_slice();
    let rank_of = |pos: &TxPos| -> Option<u32> {
        advice
            .tx_logs
            .position(&pos.tx)
            .and_then(|r| u32::try_from(r).ok())
    };

    // ExtractWriteOrderPerKey's validations (Fig. 17 lines 22–28), plus
    // a uniqueness check so length-equality implies bijection.
    if advice.write_order.len() != last_modification.len() {
        return Err(RejectReason::WriteOrderMismatch {
            why: "length differs from last-modification count",
        });
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(advice.write_order.len());
    for pos in advice.write_order {
        // An entry naming no logged transaction fails the log lookup
        // below on its first occurrence, so it is never also the
        // second half of a duplicate.
        let not_logged = RejectReason::WriteOrderMismatch {
            why: "entry not in any log",
        };
        let Some(rank) = rank_of(pos) else {
            return Err(not_logged);
        };
        if !seen.insert((rank, pos.index)) {
            return Err(RejectReason::WriteOrderMismatch {
                why: "duplicate entry",
            });
        }
        let entry = logs
            .get(rank as usize)
            .and_then(|(_, log)| log.get(pos.index as usize));
        let Some(entry) = entry else {
            return Err(not_logged);
        };
        if entry.optype != TxOpType::Put {
            return Err(RejectReason::WriteOrderMismatch {
                why: "entry is not a PUT",
            });
        }
        let Some(key) = entry.key else {
            return Err(RejectReason::WriteOrderMismatch {
                why: "entry is a PUT without a key",
            });
        };
        if last_modification.get(&(rank, key)) != Some(&pos.index) {
            return Err(RejectReason::WriteOrderMismatch {
                why: "entry is not a committed last modification",
            });
        }
    }

    // Translate the alleged history into the adya crate's representation.
    // Only PUT/GET entries become history operations; an index map per
    // transaction keeps TxPos references aligned.
    let index_maps: Vec<Vec<Option<u32>>> = logs
        .iter()
        .map(|(_, log)| {
            let mut next = 0u32;
            log.iter()
                .map(|entry| {
                    matches!(entry.optype, TxOpType::Put | TxOpType::Get).then(|| {
                        next += 1;
                        next - 1
                    })
                })
                .collect()
        })
        .collect();
    let translate = |pos: &TxPos| -> Option<(adya::TxnId, u32)> {
        let rank = rank_of(pos)?;
        let idx = index_maps
            .get(rank as usize)?
            .get(pos.index as usize)?
            .as_ref()?;
        Some((adya::TxnId(u64::from(rank)), *idx))
    };

    let mut builder = adya::HistoryBuilder::new();
    for (rank, (tx, log)) in logs.iter().enumerate() {
        let id = adya::TxnId(rank as u64);
        builder.touch(id);
        for entry in log {
            let key = || {
                entry.key.ok_or(RejectReason::TxLogMalformed {
                    tx: tx.clone(),
                    why: "state operation without key",
                })
            };
            match entry.optype {
                TxOpType::Put => {
                    builder.put(id, key()?);
                }
                TxOpType::Get => {
                    let TxContentsRef::Get { from } = &entry.contents else {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "GET with non-GET contents",
                        });
                    };
                    let from = match from {
                        Some(pos) => {
                            let Some(t) = translate(pos) else {
                                return Err(RejectReason::WriteOrderMismatch {
                                    why: "GET references untranslatable write",
                                });
                            };
                            Some(t)
                        }
                        None => None,
                    };
                    builder.get(id, key()?, from);
                }
                TxOpType::Start | TxOpType::Commit | TxOpType::Abort => {}
            }
        }
        if committed.get(rank).copied().unwrap_or(false) {
            builder.commit(id);
        }
    }
    let version_order = advice
        .write_order
        .iter()
        .map(|pos| {
            translate(pos)
                .map(|(txn, index)| adya::OpRef { txn, index })
                .ok_or(RejectReason::WriteOrderMismatch {
                    why: "untranslatable entry",
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    builder.set_version_order(version_order);
    let history = builder.finish();

    let level = match isolation {
        kvstore::IsolationLevel::ReadUncommitted => adya::IsolationLevel::ReadUncommitted,
        kvstore::IsolationLevel::ReadCommitted => adya::IsolationLevel::ReadCommitted,
        kvstore::IsolationLevel::Serializable => adya::IsolationLevel::Serializable,
    };
    adya::check_isolation(&history, level).map_err(RejectReason::Isolation)?;
    Ok(())
}
