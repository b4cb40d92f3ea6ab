//! Borrowed, index-backed advice: the verifier's working form.
//!
//! The wire layer decodes advice into a zero-copy [`AdviceView`]: every
//! section a `Vec` in wire order, strings borrowing the input buffer,
//! logged values left as the validated bytes they occupy
//! ([`crate::RawValue`]). [`AdviceRef`] is the *logical map* form the
//! verifier audits over, and [`AdviceRef::from_view`] is the one way to
//! make one: strings stay `&str` slices of the wire buffer, handler
//! logs borrow the view's entry vectors outright, and the only owned
//! copies are the [`Value`]s replay
//! actually retains — each built from its span exactly once
//! ([`RawValue::to_value`]), sharing the string copies the view's
//! decode made ([`AdviceView::interned`]) and the containers of the
//! view's value pool, so repeated content (MOTD's whole-map logs) costs
//! an `Arc` bump. Owned advice (the `karousos` crate's `Advice`) gets
//! here the way the server's does: encoded, then decoded.
//!
//! Lookups go through [`VecMap`], a sorted-unique `Vec` with a
//! `BTreeMap`-shaped read API. **Duplicate-key semantics**: the wire
//! sections of hostile advice may repeat keys; the later entry wins
//! ([`VecMap::from_wire`]: stable sort by key, keep the last occurrence
//! of each run), which is what inserting the entries into a `BTreeMap`
//! in wire order does — and the server side's `to_advice` does exactly
//! that, so advice decoded, edited and encoded again means what its
//! bytes meant.

use std::collections::BTreeMap;

use kem_lang::{HandlerId, OpRef, RequestId, TxOpKind, Value, ValueInterner, VarId};

use crate::advice::{KTxId, TxPos, VarLogEntry};
use crate::wire::{AdviceView, HandlerLogEntryView, RawValue, TxOpContentsView, WireError};

/// A sorted-unique `Vec<(K, V)>` exposing the read-side `BTreeMap` API
/// the verifier uses (`get`, `contains_key`, ascending iteration).
///
/// Lookups are binary searches; construction from wire order is
/// [`VecMap::from_wire`] (later duplicate wins, like map insertion).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecMap<K, V>(Vec<(K, V)>);

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        VecMap(Vec::new())
    }

    /// Builds from entries in wire order. Already-ascending input (the
    /// honest encoder always produces it) is taken as-is with no extra
    /// work; otherwise the entries are stable-sorted by key and each
    /// run of equal keys collapses to its **last** occurrence —
    /// `BTreeMap::insert` semantics, which the server side's `to_advice` has.
    pub fn from_wire(mut entries: Vec<(K, V)>) -> Self {
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out: Vec<(K, V)> = Vec::with_capacity(entries.len());
            for e in entries {
                match out.last_mut() {
                    Some(last) if last.0 == e.0 => *last = e,
                    _ => out.push(e),
                }
            }
            entries = out;
        }
        VecMap(entries)
    }

    /// Inserts or replaces, keeping the ascending invariant.
    pub fn insert(&mut self, key: K, value: V) {
        match self.0.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    /// Looks up by key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// The rank of `key` among the keys, ascending from zero.
    #[inline]
    pub fn position(&self, key: &K) -> Option<usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(key)).ok()
    }

    /// The entries, ascending by key: the entry at index `i` is the one
    /// whose key has [`VecMap::position`] `i`.
    #[inline]
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.0
    }

    /// Whether the key is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.binary_search_by(|(k, _)| k.cmp(key)).is_ok()
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values, in ascending-key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
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

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        VecMap::from_wire(iter.into_iter().collect())
    }
}

impl<'m, K: Ord, V> IntoIterator for &'m VecMap<K, V> {
    type Item = (&'m K, &'m V);
    type IntoIter = std::iter::Map<std::slice::Iter<'m, (K, V)>, fn(&'m (K, V)) -> (&'m K, &'m V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// One variable's log in verifier form: sorted by coordinate, entries
/// own the values replay retains (everything else in the entry is `Arc`
/// shared).
pub type VarLogRef = VecMap<OpRef, VarLogEntry>;

/// Contents of a borrowed transaction-log entry: like
/// [`crate::advice::TxOpContents`], but `PUT` values are interned [`Value`]s (a copy
/// replay retains) while everything else stays borrowed/shared.
#[derive(Debug, Clone, PartialEq)]
pub enum TxContentsRef {
    /// No contents (`tx_start`, `tx_commit`, `tx_abort`).
    None,
    /// `PUT`: the value written.
    Put {
        /// The written value.
        value: Value,
    },
    /// `GET`: the position of the dictating `PUT`.
    Get {
        /// Dictating write position.
        from: Option<TxPos>,
    },
}

/// A borrowed transaction-log entry: the key is a slice of the advice
/// bytes, the rest is shared or retained.
#[derive(Debug, Clone, PartialEq)]
pub struct TxEntryRef<'a> {
    /// Issuing handler.
    pub hid: HandlerId,
    /// Operation number within the handler.
    pub opnum: u32,
    /// Operation type as logged.
    pub optype: TxOpKind,
    /// Row key (`GET`/`PUT`), borrowing the advice bytes.
    pub key: Option<&'a str>,
    /// Operation contents.
    pub contents: TxContentsRef,
}

/// The advice in the verifier's working form: logical maps over
/// borrowed or shared storage. See the module docs for the
/// duplicate-key argument.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceRef<'a> {
    /// Control-flow tag per request (§4.1).
    pub tags: VecMap<RequestId, u64>,
    /// Handler logs per request, borrowed straight from the view.
    pub handler_logs: VecMap<RequestId, &'a [HandlerLogEntryView<'a>]>,
    /// Variable logs per loggable variable.
    pub var_logs: VecMap<VarId, VarLogRef>,
    /// Transaction logs.
    pub tx_logs: VecMap<KTxId, Vec<TxEntryRef<'a>>>,
    /// Alleged global order of committed final writes.
    pub write_order: &'a [TxPos],
    /// For each request: the handler that sent the response and the
    /// number of operations it had issued beforehand.
    pub response_emitted_by: VecMap<RequestId, (HandlerId, u32)>,
    /// Total operations issued by each executed handler.
    pub opcounts: VecMap<(RequestId, HandlerId), u32>,
    /// Recorded nondeterministic values.
    pub nondet: VecMap<OpRef, Value>,
    /// The first logged value that did not read back (a view built by
    /// hand): it reads as null above, and the audit root refuses it.
    pub malformed: Option<WireError>,
}

impl<'a> AdviceRef<'a> {
    /// Builds the verifier form from a decoded [`AdviceView`]. Strings
    /// stay borrowed; handler logs are borrowed wholesale; var-log /
    /// tx-log / nondet values are read from their spans (the copies
    /// replay retains, sharing the view's strings and pool). `_interner`
    /// is read by nothing; the frozen benchmark adapter passes one.
    pub fn from_view(view: &'a AdviceView<'a>, _interner: &mut ValueInterner) -> AdviceRef<'a> {
        let mut malformed = None;
        let mut value = |raw: RawValue<'a>| {
            raw.to_value(view).unwrap_or_else(|e| {
                malformed.get_or_insert(e);
                Value::Null
            })
        };
        let tags = VecMap::from_wire(view.tags.clone());
        let handler_logs = VecMap::from_wire(
            view.handler_logs
                .iter()
                .map(|(rid, log)| (*rid, log.as_slice()))
                .collect(),
        );
        let var_logs = VecMap::from_wire(
            view.var_logs
                .iter()
                .map(|(var, log)| {
                    let entries: Vec<(OpRef, VarLogEntry)> = log
                        .iter()
                        .map(|(op, e)| {
                            (
                                op.clone(),
                                VarLogEntry {
                                    access: e.access,
                                    value: e.value.map(&mut value),
                                    prec: e.prec.clone(),
                                },
                            )
                        })
                        .collect();
                    (*var, VecMap::from_wire(entries))
                })
                .collect(),
        );
        let tx_logs = VecMap::from_wire(
            view.tx_logs
                .iter()
                .map(|(tx, log)| {
                    let entries: Vec<TxEntryRef<'a>> = log
                        .iter()
                        .map(|e| TxEntryRef {
                            hid: e.hid.clone(),
                            opnum: e.opnum,
                            optype: e.optype,
                            key: e.key,
                            contents: match &e.contents {
                                TxOpContentsView::None => TxContentsRef::None,
                                TxOpContentsView::Put { value: raw } => {
                                    TxContentsRef::Put { value: value(*raw) }
                                }
                                TxOpContentsView::Get { from } => {
                                    TxContentsRef::Get { from: from.clone() }
                                }
                            },
                        })
                        .collect();
                    (tx.clone(), entries)
                })
                .collect(),
        );
        let nondet = VecMap::from_wire(
            view.nondet
                .iter()
                .map(|(op, v)| (op.clone(), value(*v)))
                .collect(),
        );
        AdviceRef {
            tags,
            handler_logs,
            var_logs,
            tx_logs,
            write_order: &view.write_order,
            response_emitted_by: VecMap::from_wire(view.response_emitted_by.clone()),
            opcounts: VecMap::from_wire(view.opcounts.clone()),
            nondet,
            malformed,
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

    /// Looks up a transaction-log entry by position.
    pub fn tx_entry(&self, pos: &TxPos) -> Option<&TxEntryRef<'a>> {
        self.tx_logs.get(&pos.tx)?.get(pos.index as usize)
    }

    /// Total number of variable-log entries (all variables).
    pub fn var_log_entries(&self) -> usize {
        self.var_logs.values().map(VecMap::len).sum()
    }

    /// Total number of handler-log entries (all requests).
    pub fn handler_log_entries(&self) -> usize {
        self.handler_logs.values().map(|l| l.len()).sum()
    }

    /// Total number of transaction-log entries.
    pub fn tx_log_entries(&self) -> usize {
        self.tx_logs.values().map(Vec::len).sum()
    }
}
