//! Identifier and configuration types shared across the store.

use std::fmt;

/// Store-assigned identifier of a transaction.
///
/// Identifiers are dense, start at zero, and are never reused within one
/// [`Store`](crate::Store). Higher layers (the Karousos advice collector)
/// map these onto their own transaction identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// A reference to the `PUT` operation that produced a value.
///
/// The paper's implementation "captures the dictating PUT of each GET
/// operation by storing each row's last writer in the row itself" (§5).
/// `tag` is a caller-supplied cookie passed to [`Store::put`](crate::Store::put);
/// the Karousos collector uses it to carry the writer's position in its
/// transaction log, which is exactly what the advice must record for the
/// `opcontents` of a `GET` (§C.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteRef {
    /// The transaction that performed the write.
    pub txn: TxnId,
    /// Caller-supplied tag identifying the `PUT` within the writer.
    pub tag: u32,
}

impl fmt::Display for WriteRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.txn, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_display() {
        assert_eq!(TxnId(7).to_string(), "txn7");
    }

    #[test]
    fn write_ref_display() {
        let w = WriteRef {
            txn: TxnId(3),
            tag: 9,
        };
        assert_eq!(w.to_string(), "txn3#9");
    }
}
