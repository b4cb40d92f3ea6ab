//! The owned advice: what the collector emits and the structural
//! mutators edit. The verifier never holds one: it audits the bytes
//! [`crate::encode_advice`] makes of it. Its entry types are the
//! verifier's.

use std::collections::BTreeMap;

pub use karousos_verify::advice::*;
use kem::{HandlerId, OpRef, RequestId, Value, VarId};

/// The complete advice for one audit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Advice {
    /// Control-flow tag per request; equal tags ⇒ same alleged
    /// re-execution group (§4.1).
    pub tags: BTreeMap<RequestId, u64>,
    /// Handler logs per request.
    pub handler_logs: BTreeMap<RequestId, Vec<HandlerLogEntry>>,
    /// Variable logs per loggable variable.
    pub var_logs: BTreeMap<VarId, VarLog>,
    /// Transaction logs.
    pub tx_logs: BTreeMap<KTxId, Vec<TxLogEntry>>,
    /// Alleged global order of committed final writes.
    pub write_order: Vec<TxPos>,
    /// For each request: the handler that sent the response and the
    /// number of operations it had issued beforehand.
    pub response_emitted_by: BTreeMap<RequestId, (HandlerId, u32)>,
    /// Total operations issued by each executed handler (possibly 0).
    pub opcounts: BTreeMap<(RequestId, HandlerId), u32>,
    /// Recorded nondeterministic values.
    pub nondet: BTreeMap<OpRef, Value>,
}

impl Advice {
    /// Groups request ids by tag, preserving first-appearance order of
    /// groups and of requests within a group (the order `trace_order`
    /// provides, normally the trace's arrival order).
    pub fn groups(&self, trace_order: &[RequestId]) -> Vec<Vec<RequestId>> {
        let mut order: Vec<u64> = Vec::new();
        let mut by_tag: BTreeMap<u64, Vec<RequestId>> = BTreeMap::new();
        for rid in trace_order {
            if let Some(tag) = self.tags.get(rid) {
                let bucket = by_tag.entry(*tag).or_default();
                if bucket.is_empty() {
                    order.push(*tag);
                }
                bucket.push(*rid);
            }
        }
        order
            .into_iter()
            .map(|t| by_tag.remove(&t).expect("tag recorded"))
            .collect()
    }

    /// Looks up a transaction-log entry by position.
    pub fn tx_entry(&self, pos: &TxPos) -> Option<&TxLogEntry> {
        self.tx_logs.get(&pos.tx)?.get(pos.index as usize)
    }

    /// Total number of variable-log entries (all variables).
    pub fn var_log_entries(&self) -> usize {
        self.var_logs.values().map(BTreeMap::len).sum()
    }

    /// Total number of handler-log entries (all requests).
    pub fn handler_log_entries(&self) -> usize {
        self.handler_logs.values().map(Vec::len).sum()
    }

    /// Total number of transaction-log entries.
    pub fn tx_log_entries(&self) -> usize {
        self.tx_logs.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kem::{FunctionId, TxOpKind};

    #[test]
    fn groups_preserve_first_appearance_order() {
        let mut a = Advice::default();
        let r = |i| RequestId(i);
        a.tags.insert(r(0), 7);
        a.tags.insert(r(1), 9);
        a.tags.insert(r(2), 7);
        a.tags.insert(r(3), 9);
        let groups = a.groups(&[r(0), r(1), r(2), r(3)]);
        assert_eq!(groups, vec![vec![r(0), r(2)], vec![r(1), r(3)]]);
    }

    #[test]
    fn groups_skip_requests_without_tags() {
        let mut a = Advice::default();
        a.tags.insert(RequestId(0), 1);
        let groups = a.groups(&[RequestId(0), RequestId(1)]);
        assert_eq!(groups, vec![vec![RequestId(0)]]);
    }

    #[test]
    fn tx_entry_lookup() {
        let mut a = Advice::default();
        let hid = HandlerId::root(FunctionId(0));
        let tx = KTxId {
            rid: RequestId(0),
            hid: hid.clone(),
            opnum: 1,
        };
        a.tx_logs.insert(
            tx.clone(),
            vec![TxLogEntry {
                hid,
                opnum: 1,
                optype: TxOpKind::Start,
                key: None,
                contents: TxOpContents::None,
            }],
        );
        assert!(a
            .tx_entry(&TxPos {
                tx: tx.clone(),
                index: 0
            })
            .is_some());
        assert!(a.tx_entry(&TxPos { tx, index: 5 }).is_none());
    }

    #[test]
    fn counters() {
        let a = Advice::default();
        assert_eq!(a.var_log_entries(), 0);
        assert_eq!(a.handler_log_entries(), 0);
        assert_eq!(a.tx_log_entries(), 0);
    }
}
