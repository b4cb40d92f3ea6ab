//! Per-level isolation checking: the phenomena tests.

use crate::dsg::{Dsg, EdgeKind};
use crate::history::{History, Kind, OpRef, TxnId};
use crate::IsolationLevel;

/// A detected isolation violation (an Adya phenomenon), or a malformed
/// history that cannot be meaningfully tested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The version order references an operation that does not exist or
    /// is not a `PUT`, or an uncommitted transaction's write.
    MalformedVersionOrder {
        /// The offending entry.
        entry: OpRef,
    },
    /// The version order entry is not the transaction's final write to
    /// that key (only installed — final — writes belong there).
    NotFinalWrite {
        /// The offending entry.
        entry: OpRef,
    },
    /// G0: a cycle of write-dependency edges. `witness` lies on it.
    G0 {
        /// A transaction on the cycle.
        witness: TxnId,
    },
    /// G1a: a committed transaction read from an aborted transaction.
    G1a {
        /// The offending read.
        reader: OpRef,
    },
    /// G1b: a committed transaction read an intermediate (non-installed)
    /// write of a committed transaction.
    G1b {
        /// The offending read.
        reader: OpRef,
    },
    /// G1c: a cycle of write- and read-dependency edges.
    G1c {
        /// A transaction on the cycle.
        witness: TxnId,
    },
    /// G2: a cycle once anti-dependency edges are included.
    G2 {
        /// A transaction on the cycle.
        witness: TxnId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MalformedVersionOrder { entry } => {
                write!(
                    f,
                    "malformed version order entry ({:?} #{})",
                    entry.txn, entry.index
                )
            }
            Violation::NotFinalWrite { entry } => {
                write!(f, "version order entry is not a final write ({:?})", entry)
            }
            Violation::G0 { witness } => write!(f, "G0 write cycle through {:?}", witness),
            Violation::G1a { reader } => write!(f, "G1a aborted read at {:?}", reader),
            Violation::G1b { reader } => write!(f, "G1b intermediate read at {:?}", reader),
            Violation::G1c { witness } => write!(f, "G1c dependency cycle through {:?}", witness),
            Violation::G2 { witness } => {
                write!(f, "G2 anti-dependency cycle through {:?}", witness)
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Validates the version order itself: every entry must reference an
/// existing `PUT` of a committed transaction, and must be that
/// transaction's final write to the key. Returns, per operation of the
/// flat array, whether the order installs it.
fn check_version_order(history: &History) -> Result<Vec<bool>, Violation> {
    let mut installed = vec![false; history.ops.len()];
    for (entry, rank) in history.version_order().iter().zip(&history.order_ranks) {
        let malformed = Violation::MalformedVersionOrder { entry: *entry };
        let Some(at) = history.at(*rank, entry.index) else {
            return Err(malformed);
        };
        let Kind::Put { last } = history.ops[at].kind else {
            return Err(malformed);
        };
        if !history.committed[*rank as usize] {
            return Err(malformed);
        }
        if !last {
            return Err(Violation::NotFinalWrite { entry: *entry });
        }
        installed[at] = true;
    }
    Ok(installed)
}

/// Detects G1a and G1b aberrant reads by committed transactions.
/// `installed` is [`check_version_order`]'s answer.
fn check_aberrant_reads(history: &History, installed: &[bool]) -> Result<(), Violation> {
    for (rank, i, op) in history.committed_ops() {
        let Kind::Get(Some((writer, index))) = op.kind else {
            continue;
        };
        let reader = OpRef {
            txn: history.ids[rank],
            index: i as u32,
        };
        if writer as usize == rank {
            continue; // reads of own writes are always fine
        }
        let put = history
            .at(writer, index)
            .filter(|at| matches!(history.ops[*at].kind, Kind::Put { .. }));
        let Some(at) = put else {
            return Err(Violation::G1b { reader });
        };
        if !history.committed[writer as usize] {
            return Err(Violation::G1a { reader });
        }
        // Reading a committed transaction's non-installed write is an
        // intermediate read (G1b).
        if !installed[at] {
            return Err(Violation::G1b { reader });
        }
    }
    Ok(())
}

/// Checks `history` against `level`, returning the first phenomenon found.
///
/// Follows the verifier's `IsolationLvlVer` structure (paper Fig. 17):
/// read uncommitted tests only write-dependency cycles; read committed
/// additionally tests aberrant reads and read-dependency cycles;
/// serializability additionally includes anti-dependency edges. The
/// version order itself is validated first at every level.
///
/// On success, returns the constructed [`Dsg`] for further inspection.
pub fn check_isolation(history: &History, level: IsolationLevel) -> Result<Dsg<'_>, Violation> {
    use EdgeKind::{AntiDepend, ReadDepend, WriteDepend};
    let installed = check_version_order(history)?;
    let dsg = Dsg::build(history);
    if level == IsolationLevel::ReadUncommitted {
        return match dsg.find_cycle(&[WriteDepend]) {
            Some(witness) => Err(Violation::G0 { witness }),
            None => Ok(dsg),
        };
    }
    check_aberrant_reads(history, &installed)?;
    if let Some(witness) = dsg.find_cycle(&[WriteDepend, ReadDepend]) {
        return Err(Violation::G1c { witness });
    }
    if level == IsolationLevel::Serializable {
        if let Some(witness) = dsg.find_cycle(&[WriteDepend, ReadDepend, AntiDepend]) {
            return Err(Violation::G2 { witness });
        }
    }
    Ok(dsg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn two_txn_wr() -> History {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.commit(TxnId(1));
        b.finish()
    }

    #[test]
    fn clean_history_passes_all_levels() {
        let h = two_txn_wr();
        for level in [
            IsolationLevel::ReadUncommitted,
            IsolationLevel::ReadCommitted,
            IsolationLevel::Serializable,
        ] {
            assert!(check_isolation(&h, level).is_ok(), "level {level:?}");
        }
    }

    #[test]
    fn g1a_aborted_read_detected_at_rc_not_ru() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x"); // never commits
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.commit(TxnId(1));
        let h = b.finish();
        assert!(check_isolation(&h, IsolationLevel::ReadUncommitted).is_ok());
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadCommitted),
            Err(Violation::G1a { .. })
        ));
        assert!(matches!(
            check_isolation(&h, IsolationLevel::Serializable),
            Err(Violation::G1a { .. })
        ));
    }

    #[test]
    fn g1b_intermediate_read_detected() {
        // T0 writes x twice; a reader observes the first (non-final) one.
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.commit(TxnId(1));
        let h = b.finish();
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadCommitted),
            Err(Violation::G1b { .. })
        ));
        // Read-uncommitted tolerates it.
        assert!(check_isolation(&h, IsolationLevel::ReadUncommitted).is_ok());
    }

    #[test]
    fn g0_write_cycle_detected_at_every_level() {
        // Version order interleaves T1 and T2 on two keys: x: T1,T2 but
        // y: T2,T1 ⇒ ww cycle.
        let mut b = HistoryBuilder::new();
        let w1x = b.put(TxnId(1), "x");
        let w1y = b.put(TxnId(1), "y");
        b.commit(TxnId(1));
        let w2x = b.put(TxnId(2), "x");
        let w2y = b.put(TxnId(2), "y");
        b.commit(TxnId(2));
        b.set_version_order(vec![w1x, w2x, w2y, w1y]);
        let h = b.finish();
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadUncommitted),
            Err(Violation::G0 { .. })
        ));
    }

    #[test]
    fn g1c_wr_cycle_detected() {
        // T1 reads T2's installed write; T2 reads T1's installed write;
        // no ww cycle (different keys).
        let mut b = HistoryBuilder::new();
        let w1 = b.put(TxnId(1), "x");
        b.get(TxnId(1), "y", Some((TxnId(2), 0)));
        b.commit(TxnId(1));
        let w2 = b.put(TxnId(2), "y");
        b.get(TxnId(2), "x", Some((TxnId(1), 0)));
        b.commit(TxnId(2));
        b.set_version_order(vec![w1, w2]);
        let h = b.finish();
        assert!(check_isolation(&h, IsolationLevel::ReadUncommitted).is_ok());
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadCommitted),
            Err(Violation::G1c { .. })
        ));
    }

    #[test]
    fn g2_write_skew_detected_only_at_serializability() {
        let mut b = HistoryBuilder::new();
        b.put(TxnId(0), "x");
        b.put(TxnId(0), "y");
        b.commit(TxnId(0));
        b.get(TxnId(1), "x", Some((TxnId(0), 0)));
        b.put(TxnId(1), "y");
        b.commit(TxnId(1));
        b.get(TxnId(2), "y", Some((TxnId(0), 1)));
        b.put(TxnId(2), "x");
        b.commit(TxnId(2));
        let h = b.finish();
        assert!(check_isolation(&h, IsolationLevel::ReadCommitted).is_ok());
        assert!(matches!(
            check_isolation(&h, IsolationLevel::Serializable),
            Err(Violation::G2 { .. })
        ));
    }

    #[test]
    fn version_order_must_reference_puts() {
        let mut b = HistoryBuilder::new();
        let g = b.get(TxnId(0), "x", None);
        b.commit(TxnId(0));
        b.set_version_order(vec![g]);
        let h = b.finish();
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadUncommitted),
            Err(Violation::MalformedVersionOrder { .. })
        ));
    }

    #[test]
    fn version_order_must_use_final_writes() {
        let mut b = HistoryBuilder::new();
        let first = b.put(TxnId(0), "x");
        b.put(TxnId(0), "x");
        b.commit(TxnId(0));
        b.set_version_order(vec![first]);
        let h = b.finish();
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadUncommitted),
            Err(Violation::NotFinalWrite { .. })
        ));
    }

    #[test]
    fn version_order_must_be_committed() {
        let mut b = HistoryBuilder::new();
        let w = b.put(TxnId(0), "x");
        // not committed
        b.set_version_order(vec![w]);
        let h = b.finish();
        assert!(matches!(
            check_isolation(&h, IsolationLevel::ReadUncommitted),
            Err(Violation::MalformedVersionOrder { .. })
        ));
    }

    #[test]
    fn violation_display() {
        let v = Violation::G0 { witness: TxnId(1) };
        assert!(v.to_string().contains("G0"));
    }
}
