//! Borrowed, index-backed advice: the verifier's working form.
//!
//! The wire layer decodes advice into a zero-copy [`AdviceView`]: every
//! section a `Vec` in wire order, strings borrowing the input buffer,
//! logged values built in the walk that validated them
//! ([`crate::RawValue`]). [`AdviceRef`] is the *logical map* form the
//! verifier audits over, and [`AdviceRef::from_view`] is the one way to
//! make one: strings stay `&str` slices of the wire buffer, handler
//! logs borrow the view's entry vectors outright, and the [`Value`]s
//! replay retains are clones of the view's — a string or container
//! costs an `Arc` bump, so repeated content (MOTD's whole-map logs,
//! shared through the view's value pool) is never copied. Owned advice
//! (the `karousos` crate's `Advice`) gets here the way the server's
//! does: encoded, then decoded.
//!
//! Lookups go through [`VecMap`], a sorted-unique `Vec` with a
//! `BTreeMap`-shaped read API. **Duplicate-key semantics**: the wire
//! sections of hostile advice may repeat keys; the later entry wins
//! ([`VecMap::from_wire`]: stable sort by key, keep the last occurrence
//! of each run), which is what inserting the entries into a `BTreeMap`
//! in wire order does — and the server side's `to_advice` does exactly
//! that, so advice decoded, edited and encoded again means what its
//! bytes meant. Keys name handlers by path rank, as the view does
//! ([`OpAt`]): ranks ascend in [`HandlerId`](kem_lang::HandlerId) order
//! and one path has one rank, so the integers sort and collapse exactly
//! as the paths would.

use std::collections::BTreeMap;
use std::sync::Arc;

use kem_lang::{OpRef, RequestId, TxOpKind, Value, ValueInterner, VarId};

use crate::advice::{OpAt, VarLogEntry};
use crate::hids::HidTable;
use crate::wire::{AdviceView, HandlerLogEntryView, RawValue, TxOpContentsView};

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
/// own the values replay retains. The audit's are keyed by [`OpAt`];
/// a log built by hand for a test may key by [`OpRef`].
pub type VarLogRef<K = OpRef> = VecMap<K, VarLogEntry<K>>;

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
        from: Option<TxAt>,
    },
}

/// A transaction position ([`crate::TxPos`]) resolved once, when the
/// advice is built: its transaction by rank in [`AdviceRef::tx_logs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxAt {
    /// The transaction's rank; `None` when `tx_logs` has no log for it.
    pub tx: Option<u32>,
    /// Zero-based index into its log.
    pub index: u32,
}

/// A borrowed transaction-log entry: the key is a slice of the advice
/// bytes, the rest is shared or retained.
#[derive(Debug, Clone, PartialEq)]
pub struct TxEntryRef<'a> {
    /// Issuing handler, by path rank.
    pub path: u32,
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
    pub var_logs: VecMap<VarId, VarLogRef<OpAt>>,
    /// Transaction logs, each keyed by its `tx_start`.
    pub tx_logs: VecMap<OpAt, Vec<TxEntryRef<'a>>>,
    /// Alleged global order of committed final writes.
    pub write_order: Vec<TxAt>,
    /// For each request: the path rank of the handler that sent the
    /// response and the number of operations it had issued beforehand.
    pub response_emitted_by: VecMap<RequestId, (u32, u32)>,
    /// Total operations issued by each executed handler, keyed by
    /// request and path rank.
    pub opcounts: VecMap<(RequestId, u32), u32>,
    /// Recorded nondeterministic values.
    pub nondet: VecMap<OpAt, Value>,
    /// The distinct handler paths, ranked: every path rank above indexes
    /// it.
    pub paths: Arc<HidTable>,
}

impl<'a> AdviceRef<'a> {
    /// Builds the verifier form from a decoded [`AdviceView`]. Strings
    /// stay borrowed; handler logs are borrowed wholesale; var-log /
    /// tx-log / nondet values are clones of the ones the view's decode
    /// built. `_interner` is read by nothing; the frozen benchmark
    /// adapter passes one.
    pub fn from_view(view: &'a AdviceView<'a>, _interner: &mut ValueInterner) -> AdviceRef<'a> {
        let value = |raw: &RawValue<'_>| raw.value().clone();
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
                    let entries = log
                        .iter()
                        .map(|(op, e)| {
                            (
                                *op,
                                VarLogEntry {
                                    access: e.access,
                                    value: e.value.as_ref().map(value),
                                    prec: e.prec,
                                },
                            )
                        })
                        .collect();
                    (*var, VecMap::from_wire(entries))
                })
                .collect(),
        );
        // A transaction position by rank: `tx_logs` holds each key once.
        let mut keys: Vec<OpAt> = view.tx_logs.iter().map(|(tx, _)| *tx).collect();
        keys.sort_unstable();
        keys.dedup();
        let at = |(tx, index): &(OpAt, u32)| TxAt {
            tx: keys.binary_search(tx).ok().map(|rank| rank as u32),
            index: *index,
        };
        let tx_logs = VecMap::from_wire(
            view.tx_logs
                .iter()
                .map(|(tx, log)| {
                    let entries: Vec<TxEntryRef<'a>> = log
                        .iter()
                        .map(|e| TxEntryRef {
                            path: e.path,
                            opnum: e.opnum,
                            optype: e.optype,
                            key: e.key,
                            contents: match &e.contents {
                                TxOpContentsView::None => TxContentsRef::None,
                                TxOpContentsView::Put { value: raw } => {
                                    TxContentsRef::Put { value: value(raw) }
                                }
                                TxOpContentsView::Get { from } => TxContentsRef::Get {
                                    from: from.as_ref().map(at),
                                },
                            },
                        })
                        .collect();
                    (*tx, entries)
                })
                .collect(),
        );
        let nondet = VecMap::from_wire(view.nondet.iter().map(|(op, v)| (*op, value(v))).collect());
        AdviceRef {
            tags,
            handler_logs,
            var_logs,
            tx_logs,
            write_order: view.write_order.iter().map(at).collect(),
            response_emitted_by: VecMap::from_wire(view.response_emitted_by.clone()),
            opcounts: VecMap::from_wire(view.opcounts.clone()),
            nondet,
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

    /// The transaction-log entry at a position.
    pub fn tx_entry(&self, at: TxAt) -> Option<&TxEntryRef<'a>> {
        let (_, log) = self.tx_logs.as_slice().get(at.tx? as usize)?;
        log.get(at.index as usize)
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
