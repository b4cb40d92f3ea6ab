//! Borrowed, index-backed advice: the verifier's working form.
//!
//! The wire layer decodes advice into a zero-copy [`AdviceView`]: every
//! keyed section in ascending key order, each key once — the decoder
//! applies the duplicate-key rule, later wins, in one place — the
//! handler and transaction logs flat, one entry array per section
//! behind an index of each log's range ([`LogSection`]), strings
//! borrowing the input buffer, and logged values built in the walk that
//! validated them, in one table the entries index
//! ([`crate::RawValue`]). [`AdviceRef`] is that view read as *logical
//! maps*, and [`AdviceRef::from_view`] is the one way to make one: it
//! borrows every section of the view and copies none, so the verifier
//! reads the view's own entries ([`VarLogEntryView`],
//! [`TxLogEntryView`]) and each logged value is held once. Owned advice
//! (the `karousos` crate's `Advice`) gets here the way the server's
//! does: encoded, then decoded.
//!
//! Lookups go through [`VecMap`], a sorted-unique slice with a
//! `BTreeMap`-shaped read API, and [`LogMap`], the same over a flat
//! section, whose values are slices of its entries. Keys name handlers
//! by path rank, as the view does ([`OpAt`]): ranks ascend in
//! [`HandlerId`](kem_lang::HandlerId) order and one path has one rank,
//! so the integers sort and collapse exactly as the paths would.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use kem_lang::{RequestId, Value, ValueInterner, VarId};

use crate::advice::OpAt;
use crate::hids::HidTable;
use crate::wire::VarLogEntryView;
use crate::wire::{self, AdviceView, HandlerLogEntryView, LogSection, RawValue, TxLogEntryView};

/// A sorted-unique slice of `(K, V)` — a section of the decoded view —
/// exposing the read-side `BTreeMap` API the verifier uses (`get`,
/// `contains_key`, ascending iteration). Lookups are binary searches.
#[derive(Debug, PartialEq)]
pub struct VecMap<'a, K, V>(&'a [(K, V)]);

impl<K, V> Clone for VecMap<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for VecMap<'_, K, V> {}

impl<'a, K: Ord, V> VecMap<'a, K, V> {
    /// The entry with `key`, if any.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&'a V> {
        let i = self.position(key)?;
        self.0.get(i).map(|(_, v)| v)
    }

    /// The rank of `key` among the keys, ascending from zero.
    #[inline]
    pub fn position(&self, key: &K) -> Option<usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(key)).ok()
    }

    /// The entries, ascending by key: the entry at index `i` is the one
    /// whose key has [`VecMap::position`] `i`.
    #[inline]
    pub fn as_slice(&self) -> &'a [(K, V)] {
        self.0
    }

    /// Whether the key is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &'a K> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values, in ascending-key order.
    pub fn values(&self) -> impl Iterator<Item = &'a V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&'a K, &'a V)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Entry count.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A flat [`LogSection`] of the decoded view read as a map from key to
/// log: [`VecMap`]'s read API over its sorted-unique index, each value
/// the slice of the section's entries that is the key's log. A log is
/// also named by its rank, the position of its key.
#[derive(Debug, PartialEq)]
pub struct LogMap<'a, K, E> {
    index: &'a [(K, Range<u32>)],
    entries: &'a [E],
}

impl<K, E> Clone for LogMap<'_, K, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, E> Copy for LogMap<'_, K, E> {}

impl<'a, K: Ord, E> LogMap<'a, K, E> {
    fn of(section: &'a LogSection<K, E>) -> Self {
        LogMap {
            index: &section.index,
            entries: &section.entries,
        }
    }

    /// The log keyed `key`, if any.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&'a [E]> {
        self.log(self.position(key)?)
    }

    /// The rank of `key` among the keys, ascending from zero.
    #[inline]
    pub fn position(&self, key: &K) -> Option<usize> {
        self.index.binary_search_by(|(k, _)| k.cmp(key)).ok()
    }

    /// The key of rank `rank`.
    #[inline]
    pub fn key(&self, rank: usize) -> Option<&'a K> {
        self.index.get(rank).map(|(k, _)| k)
    }

    /// The log of rank `rank`.
    #[inline]
    pub fn log(&self, rank: usize) -> Option<&'a [E]> {
        let (_, range) = self.index.get(rank)?;
        Some(wire::span(self.entries, range))
    }

    /// Each log's key and its range of [`LogMap::entries`], ascending:
    /// a log's entry `i` is entry `range.start + i` there.
    #[inline]
    pub fn index(&self) -> &'a [(K, Range<u32>)] {
        self.index
    }

    /// The entries of every log: the decoder leaves them the
    /// concatenation of the logs in ascending key order.
    #[inline]
    pub fn entries(&self) -> &'a [E] {
        self.entries
    }

    /// The logs of the ranks `ranks`, as a map of their own.
    pub fn ranks(&self, ranks: Range<usize>) -> Self {
        LogMap {
            index: self.index.get(ranks).unwrap_or(&[]),
            entries: self.entries,
        }
    }

    /// Whether the key is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &'a K> {
        self.index.iter().map(|(k, _)| k)
    }

    /// Logs, in ascending-key order.
    pub fn values(&self) -> impl Iterator<Item = &'a [E]> {
        let entries = self.entries;
        self.index.iter().map(move |(_, r)| wire::span(entries, r))
    }

    /// `(key, log)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&'a K, &'a [E])> {
        let entries = self.entries;
        self.index
            .iter()
            .map(move |(k, r)| (k, wire::span(entries, r)))
    }

    /// Log count.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// The advice in the verifier's working form: the sections of one
/// decoded [`AdviceView`], borrowed (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceRef<'a> {
    /// Control-flow tag per request (§4.1).
    pub tags: VecMap<'a, RequestId, u64>,
    /// Handler logs per request.
    pub handler_logs: LogMap<'a, RequestId, HandlerLogEntryView<'a>>,
    /// Variable logs per loggable variable, each ascending by key.
    pub var_logs: VecMap<'a, VarId, Vec<(OpAt, VarLogEntryView)>>,
    /// Transaction logs, each keyed by its `tx_start`. A transaction
    /// position names one by key; the audit numbers them by rank here.
    pub tx_logs: LogMap<'a, OpAt, TxLogEntryView<'a>>,
    /// The logged values the variable logs and `PUT`s name by index
    /// ([`AdviceRef::value`]).
    pub values: &'a [RawValue<'a>],
    /// Alleged global order of committed final writes: transaction and
    /// log index.
    pub write_order: &'a [(OpAt, u32)],
    /// For each request: the path rank of the handler that sent the
    /// response and the number of operations it had issued beforehand.
    pub response_emitted_by: VecMap<'a, RequestId, (u32, u32)>,
    /// Total operations issued by each executed handler, keyed by
    /// request and path rank.
    pub opcounts: VecMap<'a, (RequestId, u32), u32>,
    /// Recorded nondeterministic values.
    pub nondet: VecMap<'a, OpAt, RawValue<'a>>,
    /// The distinct handler paths, ranked: every path rank above indexes
    /// it.
    pub paths: Arc<HidTable>,
}

impl<'a> AdviceRef<'a> {
    /// Reads a decoded [`AdviceView`] as the verifier's working form,
    /// borrowing every section: the view's keyed sections are in the
    /// order the decoder leaves them, and a view built by hand keeps
    /// that order. `_interner` is read by nothing; the frozen benchmark
    /// adapter passes one.
    pub fn from_view(view: &'a AdviceView<'a>, _interner: &mut ValueInterner) -> AdviceRef<'a> {
        AdviceRef {
            tags: VecMap(&view.tags),
            handler_logs: LogMap::of(&view.handler_logs),
            var_logs: VecMap(&view.var_logs),
            tx_logs: LogMap::of(&view.tx_logs),
            values: &view.values,
            write_order: &view.write_order,
            response_emitted_by: VecMap(&view.response_emitted_by),
            opcounts: VecMap(&view.opcounts),
            nondet: VecMap(&view.nondet),
            paths: Arc::clone(&view.paths),
        }
    }

    /// Groups request ids by tag, preserving first-appearance order —
    /// the same bucketing the owned `Advice::groups` performs.
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
            .filter_map(|t| by_tag.remove(&t))
            .collect()
    }

    /// The transaction-log entry at a position: its transaction's key
    /// and its index in that log.
    pub fn tx_entry(&self, (tx, index): &(OpAt, u32)) -> Option<&'a TxLogEntryView<'a>> {
        self.tx_logs.get(tx)?.get(*index as usize)
    }

    /// The logged value a variable-log or `PUT` entry names by `id`.
    #[inline]
    pub fn value(&self, id: u32) -> Option<&'a Value> {
        self.values.get(id as usize).map(RawValue::value)
    }

    /// Total number of variable-log entries (all variables).
    pub fn var_log_entries(&self) -> usize {
        self.var_logs.values().map(Vec::len).sum()
    }

    /// Total number of handler-log entries (all requests).
    pub fn handler_log_entries(&self) -> usize {
        self.handler_logs.values().map(<[_]>::len).sum()
    }

    /// Total number of transaction-log entries.
    pub fn tx_log_entries(&self) -> usize {
        self.tx_logs.values().map(<[_]>::len).sum()
    }
}

#[cfg(test)]
pub(crate) use tests::by_hand;

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    /// Views built by hand, for the crate's tests: sections given as owned
    /// advice holds them, keyed by [`OpRef`](kem_lang::OpRef), over a
    /// handler-id table of every path they name.
    pub(crate) mod by_hand {
        use std::collections::BTreeMap;
        use std::sync::Arc;

        use kem_lang::{HandlerId, OpRef, RequestId, Value, ValueInterner, VarId};

        use crate::advice::{OpAt, VarLog};
        use crate::advice_ref::AdviceRef;
        use crate::hids::HidTable;
        use crate::wire::{self, decode_value_bounded, AdviceView, RawValue, VarLogEntryView};

        /// The advice of `opcounts` and `var_logs`, read from a view that
        /// holds both in ascending key order, as the decoder leaves them,
        /// and is leaked for the advice to borrow.
        pub(crate) fn advice(
            opcounts: &BTreeMap<(RequestId, HandlerId), u32>,
            var_logs: &BTreeMap<VarId, VarLog>,
        ) -> AdviceRef<'static> {
            let entries = var_logs.values().flatten();
            let named = entries.flat_map(|(op, e)| std::iter::once(op).chain(&e.prec));
            let hids = opcounts.keys().map(|(_, hid)| hid);
            let paths = HidTable::of(hids.chain(named.map(|op| &op.hid)));
            let rank = |hid: &HandlerId| paths.rank(hid).expect("the table holds every path");
            let at = |op: &OpRef| OpAt::new(op.rid, rank(&op.hid), op.opnum);
            let mut values = Vec::new();
            let mut log = |log: &VarLog| {
                let mut entry = |e: &crate::advice::VarLogEntry| VarLogEntryView {
                    access: e.access,
                    value: e.value.as_ref().map(|v| {
                        values.push(raw(v));
                        values.len() as u32 - 1
                    }),
                    prec: e.prec.as_ref().map(at),
                };
                log.iter().map(|(op, e)| (at(op), entry(e))).collect()
            };
            let var_logs = var_logs.iter().map(|(var, l)| (*var, log(l))).collect();
            let view = AdviceView {
                opcounts: opcounts
                    .iter()
                    .map(|((rid, hid), count)| ((*rid, rank(hid)), *count))
                    .collect(),
                var_logs,
                values,
                paths: Arc::new(paths),
                ..AdviceView::default()
            };
            AdviceRef::from_view(Box::leak(Box::new(view)), &mut ValueInterner::new())
        }

        /// `value` as a logged value: encoded, its bytes leaked for the
        /// view to borrow, and decoded.
        pub(crate) fn raw(value: &Value) -> RawValue<'static> {
            let (mut strings, mut bytes) = (Vec::new(), Vec::new());
            encode(value, &mut strings, &mut bytes);
            let bytes: &'static [u8] = Box::leak(bytes.into_boxed_slice());
            let strings: Vec<&str> = strings.iter().map(|s: &Arc<str>| &**s).collect();
            decode_value_bounded(bytes, &strings, u64::MAX)
                .expect("a value encoded by hand decodes")
        }

        fn uvar(out: &mut Vec<u8>, mut v: u64) {
            while v >= 0x80 {
                out.push(v as u8 | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }

        /// Writes `value` inline, its strings appended to `strings`.
        fn encode(value: &Value, strings: &mut Vec<Arc<str>>, out: &mut Vec<u8>) {
            let string = |s: &Arc<str>, strings: &mut Vec<Arc<str>>, out: &mut Vec<u8>| {
                strings.push(Arc::clone(s));
                uvar(out, strings.len() as u64 - 1);
            };
            match value {
                Value::Null => out.push(wire::NULL),
                Value::Bool(b) => out.extend([wire::BOOL, u8::from(*b)]),
                Value::Int(i) => {
                    out.push(wire::INT);
                    uvar(out, ((i << 1) ^ (i >> 63)) as u64);
                }
                Value::Str(s) => {
                    out.push(wire::STR);
                    string(s, strings, out);
                }
                Value::List(list) => {
                    out.push(wire::LIST);
                    uvar(out, list.len() as u64);
                    for v in list.iter() {
                        encode(v, strings, out);
                    }
                }
                Value::Map(map) => {
                    out.push(wire::MAP);
                    uvar(out, map.len() as u64);
                    for (k, v) in map.iter() {
                        string(k, strings, out);
                        encode(v, strings, out);
                    }
                }
            }
        }
    }
}
