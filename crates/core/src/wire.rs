//! Binary wire codec for [`Advice`].
//!
//! The evaluation's Figure 8 reports the *size of the advice sent from
//! the server to the verifier*; this module defines the bytes that
//! would cross that wire. It is a small self-contained tag-length-value
//! codec (no external dependencies), round-trip property-tested, with a
//! per-section size breakdown used by the benchmark harness (the paper
//! reports, e.g., that variable logs are ~95% of MOTD advice, §6.3).
//!
//! Two decoders share one primitive layer ([`Decoder`]), so they read
//! the same bytes with the same budgets and fail with the same
//! positioned [`WireError`]:
//!
//! * [`decode_advice`] builds an owned [`Advice`] — the form the
//!   encoder and the structural mutators work on, and the oracle;
//! * [`decode_advice_view_bounded`] builds a borrowed [`AdviceView`] —
//!   what every audit decodes. Strings stay slices of the input, and a
//!   logged value stays the validated bytes it occupies
//!   ([`RawValue`]): the decoder walks a value once to check it and
//!   charge its nodes, and builds nothing.
//!
//! Values have **one** reader, [`Decoder::walk_value`], driven by a
//! [`ValueSink`]: the owned decoder's sink builds a [`Value`], the
//! view decoder's builds nothing, and [`Materializer`] — how
//! [`crate::AdviceRef::from_view`] turns spans into the values replay
//! retains — builds each distinct encoded sub-value once, through
//! [`kem::ValueInterner`]'s string vocabulary and span-keyed memo
//! (DESIGN.md §17).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kem::{FunctionId, HandlerId, OpRef, RequestId, Value, ValueInterner, VarId};

use crate::advice::{
    AccessType, Advice, HandlerLogEntry, HandlerOp, KTxId, TxLogEntry, TxOpContents, TxOpType,
    TxPos, VarLogEntry,
};

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// What was being decoded.
    pub what: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire decode error at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for WireError {}

/// Byte-stream encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128-style varint; most advice integers are small.
    fn uvar(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn i64(&mut self, v: i64) {
        // Zigzag.
        self.uvar(((v << 1) ^ (v >> 63)) as u64);
    }

    fn str(&mut self, s: &str) {
        self.uvar(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::List(l) => {
                self.u8(4);
                self.uvar(l.len() as u64);
                for item in l.iter() {
                    self.value(item);
                }
            }
            Value::Map(m) => {
                self.u8(5);
                self.uvar(m.len() as u64);
                for (k, val) in m.iter() {
                    self.str(k);
                    self.value(val);
                }
            }
        }
    }

    /// An already-encoded value, verbatim.
    fn raw(&mut self, v: RawValue<'_>) {
        self.buf.extend_from_slice(v.0);
    }

    fn rid(&mut self, r: RequestId) {
        self.uvar(r.0);
    }

    fn hid(&mut self, h: &HandlerId) {
        let path = h.path();
        self.uvar(path.len() as u64);
        for (f, op) in path {
            self.uvar(f.0 as u64);
            self.uvar(op as u64);
        }
    }

    fn opref(&mut self, o: &OpRef) {
        self.rid(o.rid);
        self.hid(&o.hid);
        self.uvar(o.opnum as u64);
    }

    fn ktx(&mut self, t: &KTxId) {
        self.rid(t.rid);
        self.hid(&t.hid);
        self.uvar(t.opnum as u64);
    }

    fn txpos(&mut self, p: &TxPos) {
        self.ktx(&p.tx);
        self.uvar(p.index as u64);
    }
}

/// The [`WireError::what`] label reported when a decode exceeds its
/// node budget ([`decode_advice_view_bounded`]). A sentinel so callers
/// can distinguish budget exhaustion (a resource verdict) from
/// structural malformation (a malformed-advice verdict).
pub const NODE_BUDGET_LABEL: &str = "decode node budget";

/// Byte-stream decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Total declared collection elements so far. Every collection
    /// length — sections, per-entry logs, nested value lists/maps,
    /// handler-id paths — funnels through [`Decoder::len`], so this is
    /// a faithful count of allocation-driving nodes.
    nodes: u64,
    /// Cap on `nodes`; `u64::MAX` means unmetered.
    node_budget: u64,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            nodes: 0,
            node_budget: u64::MAX,
        }
    }

    /// Whether all bytes were consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, what: &'static str) -> WireError {
        WireError {
            offset: self.pos,
            what,
        }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads a declared collection length and validates it against the
    /// bytes actually remaining: every encoded element occupies at
    /// least `min_elem_bytes`, so a declared length exceeding
    /// `remaining / min_elem_bytes` cannot possibly be satisfied. This
    /// caps `Vec::with_capacity` preallocation at what the input could
    /// deliver — a 5-byte advice claiming 2^60 entries errors here
    /// instead of reserving gigabytes.
    fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let start = self.pos;
        let n = self.uvar(what)? as usize;
        let budget = self.remaining() / min_elem_bytes.max(1);
        if n > budget {
            // Report at the length's own position, not after it.
            return Err(WireError {
                offset: start,
                what,
            });
        }
        // Cumulative node budget: each declared element is a node the
        // decoder will materialize. Dense advice can pack many small
        // nodes per byte across nesting levels, so the per-collection
        // byte bound above does not by itself cap total work.
        self.nodes = self.nodes.saturating_add(n as u64);
        if self.nodes > self.node_budget {
            return Err(WireError {
                offset: start,
                what: NODE_BUDGET_LABEL,
            });
        }
        Ok(n)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn uvar(&mut self, what: &'static str) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 64 {
                return Err(self.err(what));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn u32v(&mut self, what: &'static str) -> Result<u32, WireError> {
        let v = self.uvar(what)?;
        u32::try_from(v).map_err(|_| self.err(what))
    }

    fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        let z = self.uvar(what)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed string as a borrowed slice of the input
    /// buffer — the zero-copy primitive both decoders are built on.
    fn str_ref(&mut self, what: &'static str) -> Result<&'a str, WireError> {
        let len = self.uvar(what)? as usize;
        let end = self.pos.checked_add(len).ok_or_else(|| self.err(what))?;
        if end > self.buf.len() {
            return Err(self.err(what));
        }
        let s = std::str::from_utf8(&self.buf[self.pos..end]).map_err(|_| self.err(what))?;
        self.pos = end;
        Ok(s)
    }

    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        self.str_ref(what).map(str::to_string)
    }

    /// Decodes one value into an owned [`Value`] (the owned decoder's
    /// value path, and what [`AdviceView::to_advice`] runs over a
    /// validated span).
    fn value(&mut self) -> Result<Value, WireError> {
        self.walk_value(&mut Owned, 0)
    }

    /// Validates one value without building it and returns the bytes it
    /// occupies: the borrowed decoder's value path.
    fn raw_value(&mut self) -> Result<RawValue<'a>, WireError> {
        let start = self.pos;
        self.walk_value(&mut Skip, 0)?;
        Ok(RawValue(&self.buf[start..self.pos]))
    }

    /// The one recursive walk over an encoded value. Every reader of
    /// value bytes — owned decode, validating skip, memoized
    /// materialization — is this function with a different
    /// [`ValueSink`], so they all read the same primitives in the same
    /// order: the same [`Decoder::len`] budget charges, the same UTF-8
    /// checks, and on bad bytes the same positioned [`WireError`]. The
    /// nesting guard keeps crafted bytes like `[[[[…` off the
    /// verifier's stack.
    fn walk_value<S: ValueSink<'a>>(
        &mut self,
        sink: &mut S,
        depth: u32,
    ) -> Result<S::Out, WireError> {
        const MAX_DEPTH: u32 = 64;
        if depth > MAX_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        let start = self.pos;
        let tag = self.u8("value tag")?;
        match tag {
            0 => Ok(sink.leaf(Value::Null)),
            1 => Ok(sink.leaf(Value::Bool(self.u8("bool")? != 0))),
            2 => Ok(sink.leaf(Value::Int(self.i64("int")?))),
            3 => Ok(sink.str(self.str_ref("str")?)),
            4 | 5 => {
                // Only containers *inside* a value are offered to the
                // sink: a whole logged value repeats too rarely to be
                // worth hashing (DESIGN.md §17).
                let mark = if depth == 0 {
                    None
                } else {
                    match sink.enter(self.buf, start) {
                        Enter::Taken(out, end) => {
                            self.pos = end;
                            return Ok(out);
                        }
                        Enter::Walk(mark) => Some(mark),
                    }
                };
                let out = if tag == 4 {
                    // Every element is at least one tag byte.
                    let n = self.len("list len", 1)?;
                    let mut items = Vec::with_capacity(n);
                    for _ in 0..n {
                        items.push(self.walk_value(sink, depth + 1)?);
                    }
                    sink.list(items)
                } else {
                    // Every entry is at least a key-length byte + value
                    // tag. Duplicate wire keys resolve later-wins in
                    // every sink that builds a map, exactly as the old
                    // `BTreeMap::insert` loop did.
                    let n = self.len("map len", 2)?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        let k = sink.key(self.str_ref("map key")?);
                        entries.push((k, self.walk_value(sink, depth + 1)?));
                    }
                    sink.map(entries)
                };
                if let Some(mark) = mark {
                    sink.leave(mark, self.pos, &out);
                }
                Ok(out)
            }
            _ => Err(self.err("value tag")),
        }
    }

    fn rid(&mut self) -> Result<RequestId, WireError> {
        Ok(RequestId(self.uvar("rid")?))
    }

    fn hid(&mut self) -> Result<HandlerId, WireError> {
        // Every path element is two uvars, at least a byte each.
        let n = self.len("hid len", 2)?;
        if n == 0 {
            return Err(self.err("hid len"));
        }
        let mut path = Vec::with_capacity(n);
        for _ in 0..n {
            let f = FunctionId(self.u32v("hid fn")?);
            let op = self.u32v("hid opnum")?;
            path.push((f, op));
        }
        HandlerId::from_path(&path).ok_or_else(|| self.err("hid path"))
    }

    fn opref(&mut self) -> Result<OpRef, WireError> {
        Ok(OpRef::new(self.rid()?, self.hid()?, self.u32v("opnum")?))
    }

    fn ktx(&mut self) -> Result<KTxId, WireError> {
        Ok(KTxId {
            rid: self.rid()?,
            hid: self.hid()?,
            opnum: self.u32v("tx opnum")?,
        })
    }

    fn txpos(&mut self) -> Result<TxPos, WireError> {
        Ok(TxPos {
            tx: self.ktx()?,
            index: self.u32v("tx index")?,
        })
    }

    /// [`Decoder::hid`], memoized on the encoded byte span. Handler ids
    /// repeat massively across advice sections (every log entry, opref,
    /// opcount, and tx id carries one); equal byte spans decode to the
    /// same id, so a hit returns a shared `Arc` clone instead of
    /// rebuilding the node chain. The primitive read sequence is
    /// identical to [`Decoder::hid`], so every error matches it in both
    /// offset and label.
    fn hid_cached(&mut self, cache: &mut HidCache<'a>) -> Result<HandlerId, WireError> {
        let start = self.pos;
        let n = self.len("hid len", 2)?;
        if n == 0 {
            return Err(self.err("hid len"));
        }
        cache.scratch.clear();
        for _ in 0..n {
            let f = FunctionId(self.u32v("hid fn")?);
            let op = self.u32v("hid opnum")?;
            cache.scratch.push((f, op));
        }
        let span = &self.buf[start..self.pos];
        if let Some(h) = cache.map.get(span) {
            cache.hits += 1;
            return Ok(h.clone());
        }
        let h = HandlerId::from_path(&cache.scratch).ok_or_else(|| self.err("hid path"))?;
        cache.misses += 1;
        cache.map.insert(span, h.clone());
        Ok(h)
    }

    fn opref_cached(&mut self, cache: &mut HidCache<'a>) -> Result<OpRef, WireError> {
        Ok(OpRef::new(
            self.rid()?,
            self.hid_cached(cache)?,
            self.u32v("opnum")?,
        ))
    }

    fn ktx_cached(&mut self, cache: &mut HidCache<'a>) -> Result<KTxId, WireError> {
        Ok(KTxId {
            rid: self.rid()?,
            hid: self.hid_cached(cache)?,
            opnum: self.u32v("tx opnum")?,
        })
    }

    fn txpos_cached(&mut self, cache: &mut HidCache<'a>) -> Result<TxPos, WireError> {
        Ok(TxPos {
            tx: self.ktx_cached(cache)?,
            index: self.u32v("tx index")?,
        })
    }
}

/// What [`Decoder::walk_value`] hands the parts of a value to. `Out`
/// is what a value becomes, `Key` what a map key becomes, and `Mark`
/// what a sink carries from entering a nested container to leaving it.
trait ValueSink<'a> {
    type Out;
    type Key;
    type Mark;
    /// A null, boolean or integer.
    fn leaf(&mut self, v: Value) -> Self::Out;
    fn str(&mut self, s: &'a str) -> Self::Out;
    fn key(&mut self, k: &'a str) -> Self::Key;
    fn list(&mut self, items: Vec<Self::Out>) -> Self::Out;
    fn map(&mut self, entries: Vec<(Self::Key, Self::Out)>) -> Self::Out;
    /// A list or map nested inside the value starts at `buf[start]`
    /// (its tag byte, already read).
    fn enter(&mut self, buf: &'a [u8], start: usize) -> Enter<Self::Out, Self::Mark>;
    /// The container entered with `mark` ended at `buf[end]` as `out`.
    fn leave(&mut self, mark: Self::Mark, end: usize, out: &Self::Out);
}

/// A sink's answer to a nested container.
enum Enter<O, M> {
    /// The sink already has the container, which ends at this offset:
    /// the walk resumes there without reading it.
    Taken(O, usize),
    /// Walk it, and hand the mark back on leaving.
    Walk(M),
}

/// Validates and builds nothing: every `Vec` the walk fills is of
/// zero-sized items, so it never allocates.
struct Skip;

impl<'a> ValueSink<'a> for Skip {
    type Out = ();
    type Key = ();
    type Mark = ();
    fn leaf(&mut self, _: Value) {}
    fn str(&mut self, _: &'a str) {}
    fn key(&mut self, _: &'a str) {}
    fn list(&mut self, _: Vec<()>) {}
    fn map(&mut self, _: Vec<((), ())>) {}
    fn enter(&mut self, _: &'a [u8], _: usize) -> Enter<(), ()> {
        Enter::Walk(())
    }
    fn leave(&mut self, (): (), _: usize, (): &()) {}
}

/// Builds an owned [`Value`], every string a fresh copy.
struct Owned;

impl<'a> ValueSink<'a> for Owned {
    type Out = Value;
    type Key = Arc<str>;
    type Mark = ();
    fn leaf(&mut self, v: Value) -> Value {
        v
    }
    fn str(&mut self, s: &'a str) -> Value {
        Value::str(s)
    }
    fn key(&mut self, k: &'a str) -> Arc<str> {
        Arc::from(k)
    }
    fn list(&mut self, items: Vec<Value>) -> Value {
        Value::from_vec(items)
    }
    fn map(&mut self, entries: Vec<(Arc<str>, Value)>) -> Value {
        Value::from_pairs(entries)
    }
    fn enter(&mut self, _: &'a [u8], _: usize) -> Enter<Value, ()> {
        Enter::Walk(())
    }
    fn leave(&mut self, (): (), _: usize, _: &Value) {}
}

/// Skips a nested container and notes, in the order containers open,
/// where it and every container inside it ends.
struct RecordEnds<'e>(&'e mut Vec<usize>);

impl<'a> ValueSink<'a> for RecordEnds<'_> {
    type Out = ();
    type Key = ();
    /// The container's slot in the list of ends.
    type Mark = usize;
    fn leaf(&mut self, _: Value) {}
    fn str(&mut self, _: &'a str) {}
    fn key(&mut self, _: &'a str) {}
    fn list(&mut self, _: Vec<()>) {}
    fn map(&mut self, _: Vec<((), ())>) {}
    fn enter(&mut self, _: &'a [u8], _: usize) -> Enter<(), usize> {
        self.0.push(0);
        Enter::Walk(self.0.len() - 1)
    }
    fn leave(&mut self, slot: usize, end: usize, (): &()) {
        self.0[slot] = end;
    }
}

/// The validated bytes of one encoded value: what the borrowed decoder
/// keeps of a logged value. Only the validating walk makes one, so
/// reading it back ([`RawValue::to_value`], [`Materializer::value`])
/// cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawValue<'a>(&'a [u8]);

const VALIDATED: &str = "a RawValue's bytes passed the validating walk";

impl<'a> RawValue<'a> {
    /// Validates the value encoded at the start of `bytes` — the walk,
    /// budget charges and errors of the owned decoder
    /// ([`decode_value_bounded`]), building nothing — and returns the
    /// bytes it occupies. For tests: the decoder is the only product
    /// code that makes a `RawValue`.
    #[doc(hidden)]
    pub fn validate(bytes: &'a [u8], max_nodes: u64) -> Result<RawValue<'a>, BoundedDecodeError> {
        let mut d = Decoder::new(bytes);
        d.node_budget = max_nodes;
        d.raw_value().map_err(|e| bounded(e, max_nodes))
    }

    /// The encoded bytes.
    #[doc(hidden)]
    pub fn bytes(&self) -> &'a [u8] {
        self.0
    }

    /// Decodes into an owned [`Value`] through the owned decoder's
    /// value path.
    pub fn to_value(&self) -> Value {
        Decoder::new(self.0).value().expect(VALIDATED)
    }
}

/// Decodes the value encoded at the start of `bytes` with the owned
/// decoder's value path under a node budget, returning it and the
/// number of bytes it occupied. The oracle [`RawValue::validate`] and
/// [`Materializer::value`] are tested against.
#[doc(hidden)]
pub fn decode_value_bounded(
    bytes: &[u8],
    max_nodes: u64,
) -> Result<(Value, usize), BoundedDecodeError> {
    let mut d = Decoder::new(bytes);
    d.node_budget = max_nodes;
    match d.value() {
        Ok(v) => Ok((v, d.pos)),
        Err(e) => Err(bounded(e, max_nodes)),
    }
}

/// Builds [`Value`]s from [`RawValue`]s, each distinct encoded
/// sub-value once: strings and map keys go through `interner`'s
/// vocabulary, and every list or map *nested* in a value is first
/// looked up by its exact bytes in `interner`'s memo — a repeat is a
/// clone of the container built the first time (one `Arc` bump), and
/// its bytes are not decoded again.
///
/// To look a container up its end must be known before it is read, so
/// the first container met in unexplored bytes is skipped once by
/// [`RecordEnds`], which leaves the ends of it and of everything inside
/// it in `ends`; the walk then takes them from there in the same
/// order. Every byte is skipped at most once however deep it nests.
pub struct Materializer<'i, 'a> {
    interner: &'i mut ValueInterner<'a>,
    /// Ends of the containers of the subtree being walked, in the
    /// order they open; `ends[next..]` are the ones not yet reached.
    ends: Vec<usize>,
    next: usize,
}

impl<'i, 'a> Materializer<'i, 'a> {
    /// A materializer sharing through `interner`.
    pub fn new(interner: &'i mut ValueInterner<'a>) -> Self {
        Materializer {
            interner,
            ends: Vec::new(),
            next: 0,
        }
    }

    /// The value `raw` encodes: equal to [`RawValue::to_value`], with
    /// repeated content shared.
    pub fn value(&mut self, raw: RawValue<'a>) -> Value {
        Decoder::new(raw.0).walk_value(self, 0).expect(VALIDATED)
    }
}

impl<'a> ValueSink<'a> for Materializer<'_, 'a> {
    type Out = Value;
    type Key = Arc<str>;
    /// The container's memo key, kept for [`ValueInterner::remember`].
    type Mark = kem::SpanKey<'a>;
    fn leaf(&mut self, v: Value) -> Value {
        v
    }
    fn str(&mut self, s: &'a str) -> Value {
        self.interner.intern_value(s)
    }
    fn key(&mut self, k: &'a str) -> Arc<str> {
        self.interner.intern(k)
    }
    fn list(&mut self, items: Vec<Value>) -> Value {
        Value::from_vec(items)
    }
    fn map(&mut self, entries: Vec<(Arc<str>, Value)>) -> Value {
        Value::from_pairs(entries)
    }
    fn enter(&mut self, buf: &'a [u8], start: usize) -> Enter<Value, kem::SpanKey<'a>> {
        if self.next == self.ends.len() {
            self.ends.clear();
            self.next = 0;
            let mut skip = Decoder::new(buf);
            skip.pos = start;
            skip.walk_value(&mut RecordEnds(&mut self.ends), 1)
                .expect(VALIDATED);
        }
        let end = self.ends[self.next];
        self.next += 1;
        let key = self.interner.span_key(&buf[start..end]);
        match self.interner.shared(&key) {
            Some(v) => {
                // Its inner containers all end by `end`; the next one
                // outside it ends later.
                while self.ends.get(self.next).is_some_and(|e| *e <= end) {
                    self.next += 1;
                }
                Enter::Taken(v, end)
            }
            None => Enter::Walk(key),
        }
    }
    fn leave(&mut self, key: kem::SpanKey<'a>, _: usize, out: &Value) {
        self.interner.remember(key, out);
    }
}

/// Span-keyed [`HandlerId`] memo used by the borrowed decoder: equal
/// encoded spans always decode to equal ids, so the `Arc` node chain is
/// built once per distinct handler instead of once per occurrence.
#[derive(Debug, Default)]
struct HidCache<'a> {
    map: HashMap<&'a [u8], HandlerId>,
    scratch: Vec<(FunctionId, u32)>,
    hits: u64,
    misses: u64,
}

/// Per-section advice sizes in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdviceSizes {
    /// Control-flow tags.
    pub tags: usize,
    /// Handler logs.
    pub handler_logs: usize,
    /// Variable logs.
    pub var_logs: usize,
    /// Transaction logs.
    pub tx_logs: usize,
    /// Write order.
    pub write_order: usize,
    /// `responseEmittedBy`.
    pub response_emitted_by: usize,
    /// `opcounts`.
    pub opcounts: usize,
    /// Nondeterminism log.
    pub nondet: usize,
}

impl AdviceSizes {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.tags
            + self.handler_logs
            + self.var_logs
            + self.tx_logs
            + self.write_order
            + self.response_emitted_by
            + self.opcounts
            + self.nondet
    }
}

fn encode_tags(e: &mut Encoder, a: &Advice) {
    e.uvar(a.tags.len() as u64);
    for (rid, tag) in &a.tags {
        e.rid(*rid);
        e.uvar(*tag);
    }
}

fn encode_handler_logs(e: &mut Encoder, a: &Advice) {
    e.uvar(a.handler_logs.len() as u64);
    for (rid, log) in &a.handler_logs {
        e.rid(*rid);
        e.uvar(log.len() as u64);
        for entry in log {
            e.hid(&entry.hid);
            e.uvar(entry.opnum as u64);
            match &entry.op {
                HandlerOp::Register { event, function } => {
                    e.u8(0);
                    e.str(event);
                    e.uvar(function.0 as u64);
                }
                HandlerOp::Unregister { event, function } => {
                    e.u8(1);
                    e.str(event);
                    e.uvar(function.0 as u64);
                }
                HandlerOp::Emit { event } => {
                    e.u8(2);
                    e.str(event);
                }
                HandlerOp::Check { event } => {
                    e.u8(3);
                    e.str(event);
                }
            }
        }
    }
}

fn encode_var_logs(e: &mut Encoder, a: &Advice) {
    e.uvar(a.var_logs.len() as u64);
    for (var, log) in &a.var_logs {
        e.uvar(var.0 as u64);
        e.uvar(log.len() as u64);
        for (op, entry) in log {
            e.opref(op);
            e.u8(match entry.access {
                AccessType::Read => 0,
                AccessType::Write => 1,
            });
            match &entry.value {
                Some(v) => {
                    e.u8(1);
                    e.value(v);
                }
                None => e.u8(0),
            }
            match &entry.prec {
                Some(p) => {
                    e.u8(1);
                    e.opref(p);
                }
                None => e.u8(0),
            }
        }
    }
}

fn encode_tx_logs(e: &mut Encoder, a: &Advice) {
    e.uvar(a.tx_logs.len() as u64);
    for (tx, log) in &a.tx_logs {
        e.ktx(tx);
        e.uvar(log.len() as u64);
        for entry in log {
            e.hid(&entry.hid);
            e.uvar(entry.opnum as u64);
            e.u8(match entry.optype {
                TxOpType::Start => 0,
                TxOpType::Get => 1,
                TxOpType::Put => 2,
                TxOpType::Commit => 3,
                TxOpType::Abort => 4,
            });
            match &entry.key {
                Some(k) => {
                    e.u8(1);
                    e.str(k);
                }
                None => e.u8(0),
            }
            match &entry.contents {
                TxOpContents::None => e.u8(0),
                TxOpContents::Put { value } => {
                    e.u8(1);
                    e.value(value);
                }
                TxOpContents::Get { from } => {
                    e.u8(2);
                    match from {
                        Some(p) => {
                            e.u8(1);
                            e.txpos(p);
                        }
                        None => e.u8(0),
                    }
                }
            }
        }
    }
}

fn encode_write_order(e: &mut Encoder, a: &Advice) {
    e.uvar(a.write_order.len() as u64);
    for p in &a.write_order {
        e.txpos(p);
    }
}

fn encode_response_emitted_by(e: &mut Encoder, a: &Advice) {
    e.uvar(a.response_emitted_by.len() as u64);
    for (rid, (hid, opnum)) in &a.response_emitted_by {
        e.rid(*rid);
        e.hid(hid);
        e.uvar(*opnum as u64);
    }
}

fn encode_opcounts(e: &mut Encoder, a: &Advice) {
    e.uvar(a.opcounts.len() as u64);
    for ((rid, hid), count) in &a.opcounts {
        e.rid(*rid);
        e.hid(hid);
        e.uvar(*count as u64);
    }
}

fn encode_nondet(e: &mut Encoder, a: &Advice) {
    e.uvar(a.nondet.len() as u64);
    for (op, v) in &a.nondet {
        e.opref(op);
        e.value(v);
    }
}

/// Encodes the full advice.
pub fn encode_advice(a: &Advice) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_tags(&mut e, a);
    encode_handler_logs(&mut e, a);
    encode_var_logs(&mut e, a);
    encode_tx_logs(&mut e, a);
    encode_write_order(&mut e, a);
    encode_response_emitted_by(&mut e, a);
    encode_opcounts(&mut e, a);
    encode_nondet(&mut e, a);
    e.finish()
}

/// Measures each section's encoded size.
pub fn advice_sizes(a: &Advice) -> AdviceSizes {
    fn sized(f: impl FnOnce(&mut Encoder)) -> usize {
        let mut e = Encoder::new();
        f(&mut e);
        e.len()
    }
    AdviceSizes {
        tags: sized(|e| encode_tags(e, a)),
        handler_logs: sized(|e| encode_handler_logs(e, a)),
        var_logs: sized(|e| encode_var_logs(e, a)),
        tx_logs: sized(|e| encode_tx_logs(e, a)),
        write_order: sized(|e| encode_write_order(e, a)),
        response_emitted_by: sized(|e| encode_response_emitted_by(e, a)),
        opcounts: sized(|e| encode_opcounts(e, a)),
        nondet: sized(|e| encode_nondet(e, a)),
    }
}

/// Decodes advice previously produced by [`encode_advice`].
pub fn decode_advice(bytes: &[u8]) -> Result<Advice, WireError> {
    let mut d = Decoder::new(bytes);
    let mut a = Advice::default();

    let n = d.len("tags len", 2)?;
    for _ in 0..n {
        let rid = d.rid()?;
        let tag = d.uvar("tag")?;
        a.tags.insert(rid, tag);
    }

    let n = d.len("handler logs len", 2)?;
    for _ in 0..n {
        let rid = d.rid()?;
        // Every entry carries a hid (≥3 bytes), opnum, and op tag.
        let m = d.len("handler log len", 5)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid()?;
            let opnum = d.u32v("hl opnum")?;
            let op = match d.u8("handler op tag")? {
                0 => HandlerOp::Register {
                    event: d.str("event")?,
                    function: FunctionId(d.u32v("function")?),
                },
                1 => HandlerOp::Unregister {
                    event: d.str("event")?,
                    function: FunctionId(d.u32v("function")?),
                },
                2 => HandlerOp::Emit {
                    event: d.str("event")?,
                },
                3 => HandlerOp::Check {
                    event: d.str("event")?,
                },
                _ => return Err(d.err("handler op tag")),
            };
            log.push(HandlerLogEntry { hid, opnum, op });
        }
        a.handler_logs.insert(rid, log);
    }

    let n = d.len("var logs len", 2)?;
    for _ in 0..n {
        let var = VarId(d.u32v("var id")?);
        // Every entry carries an opref (≥5 bytes) and three tag bytes.
        let m = d.len("var log len", 8)?;
        let mut log = BTreeMap::new();
        for _ in 0..m {
            let op = d.opref()?;
            let access = match d.u8("access tag")? {
                0 => AccessType::Read,
                1 => AccessType::Write,
                _ => return Err(d.err("access tag")),
            };
            let value = match d.u8("value opt")? {
                1 => Some(d.value()?),
                _ => None,
            };
            let prec = match d.u8("prec opt")? {
                1 => Some(d.opref()?),
                _ => None,
            };
            log.insert(
                op,
                VarLogEntry {
                    access,
                    value,
                    prec,
                },
            );
        }
        a.var_logs.insert(var, log);
    }

    let n = d.len("tx logs len", 2)?;
    for _ in 0..n {
        let tx = d.ktx()?;
        // Every entry carries a hid (≥3 bytes) and four tag/num bytes.
        let m = d.len("tx log len", 7)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid()?;
            let opnum = d.u32v("txl opnum")?;
            let optype = match d.u8("optype tag")? {
                0 => TxOpType::Start,
                1 => TxOpType::Get,
                2 => TxOpType::Put,
                3 => TxOpType::Commit,
                4 => TxOpType::Abort,
                _ => return Err(d.err("optype tag")),
            };
            let key = match d.u8("key opt")? {
                1 => Some(d.str("key")?),
                _ => None,
            };
            let contents = match d.u8("contents tag")? {
                0 => TxOpContents::None,
                1 => TxOpContents::Put { value: d.value()? },
                2 => TxOpContents::Get {
                    from: match d.u8("from opt")? {
                        1 => Some(d.txpos()?),
                        _ => None,
                    },
                },
                _ => return Err(d.err("contents tag")),
            };
            log.push(TxLogEntry {
                hid,
                opnum,
                optype,
                key,
                contents,
            });
        }
        a.tx_logs.insert(tx, log);
    }

    // Every txpos is a ktx (≥5 bytes) plus an index byte.
    let n = d.len("write order len", 6)?;
    a.write_order.reserve(n);
    for _ in 0..n {
        a.write_order.push(d.txpos()?);
    }

    let n = d.len("reb len", 5)?;
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid()?;
        let opnum = d.u32v("reb opnum")?;
        a.response_emitted_by.insert(rid, (hid, opnum));
    }

    let n = d.len("opcounts len", 5)?;
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid()?;
        let count = d.u32v("opcount")?;
        a.opcounts.insert((rid, hid), count);
    }

    let n = d.len("nondet len", 6)?;
    for _ in 0..n {
        let op = d.opref()?;
        let v = d.value()?;
        a.nondet.insert(op, v);
    }

    if !d.done() {
        return Err(WireError {
            offset: d.pos,
            what: "trailing bytes",
        });
    }
    Ok(a)
}

/// Borrowed mirror of [`crate::advice::HandlerOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerOpView<'a> {
    /// `register(event, function)`.
    Register {
        /// The event name.
        event: &'a str,
        /// The registered function.
        function: FunctionId,
    },
    /// `unregister(event, function)`.
    Unregister {
        /// The event name.
        event: &'a str,
        /// The unregistered function.
        function: FunctionId,
    },
    /// `emit(event)`.
    Emit {
        /// The event name.
        event: &'a str,
    },
    /// `check(event)`.
    Check {
        /// The event name.
        event: &'a str,
    },
}

/// Borrowed mirror of [`crate::advice::HandlerLogEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerLogEntryView<'a> {
    /// The handler that performed the operation.
    pub hid: HandlerId,
    /// Its operation number.
    pub opnum: u32,
    /// The operation.
    pub op: HandlerOpView<'a>,
}

/// Borrowed mirror of [`crate::advice::VarLogEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct VarLogEntryView<'a> {
    /// Read or write.
    pub access: AccessType,
    /// The logged value, if any.
    pub value: Option<RawValue<'a>>,
    /// The alleged preceding write, if any.
    pub prec: Option<OpRef>,
}

/// Borrowed mirror of [`crate::advice::TxOpContents`].
#[derive(Debug, Clone, PartialEq)]
pub enum TxOpContentsView<'a> {
    /// Control entries carry nothing.
    None,
    /// A `PUT`'s written value.
    Put {
        /// The value.
        value: RawValue<'a>,
    },
    /// A `GET`'s dictating write.
    Get {
        /// The alleged source write position.
        from: Option<TxPos>,
    },
}

/// Borrowed mirror of [`crate::advice::TxLogEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct TxLogEntryView<'a> {
    /// The handler that performed the operation.
    pub hid: HandlerId,
    /// Its operation number.
    pub opnum: u32,
    /// The operation type.
    pub optype: TxOpType,
    /// The key, for `GET`/`PUT`.
    pub key: Option<&'a str>,
    /// Type-specific contents.
    pub contents: TxOpContentsView<'a>,
}

/// A zero-copy view of decoded advice: every section is a `Vec` in wire
/// order, strings borrow the input buffer, values are the validated
/// spans they occupy ([`RawValue`]), and handler ids are shared through
/// a span-keyed memo. Produced by [`decode_advice_view`]; convert with
/// [`AdviceView::to_advice`] or re-serialize with
/// [`AdviceView::encode`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdviceView<'a> {
    /// Control-flow tags.
    pub tags: Vec<(RequestId, u64)>,
    /// Handler logs.
    pub handler_logs: Vec<(RequestId, Vec<HandlerLogEntryView<'a>>)>,
    /// Variable logs.
    pub var_logs: Vec<(VarId, Vec<(OpRef, VarLogEntryView<'a>)>)>,
    /// Transaction logs.
    pub tx_logs: Vec<(KTxId, Vec<TxLogEntryView<'a>>)>,
    /// The alleged whole-run write order.
    pub write_order: Vec<TxPos>,
    /// `responseEmittedBy`.
    pub response_emitted_by: Vec<(RequestId, (HandlerId, u32))>,
    /// Per-(request, handler) operation counts.
    pub opcounts: Vec<((RequestId, HandlerId), u32)>,
    /// Nondeterminism log.
    pub nondet: Vec<(OpRef, RawValue<'a>)>,
}

/// What a borrowed decode materialized — the observable half of the
/// zero-copy claim (the `decode_bytes_copied` metric reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// String bytes the view decode copied out of the wire buffer:
    /// always 0 — what gets copied is counted where it happens, by the
    /// interner [`crate::AdviceRef::from_view`] builds values through.
    /// Kept only because `benchmark/src/adapter.rs` reads it and this
    /// PR may not change that file; drop both together.
    pub bytes_copied: u64,
    /// Handler-id decodes served from the span memo (no allocation).
    pub hid_cache_hits: u64,
    /// Handler-id node chains actually built.
    pub hid_cache_misses: u64,
}

/// Decodes advice into a borrowed [`AdviceView`] without copying
/// strings or blobs out of `bytes`.
///
/// The walk — section order, declared-length budgets, and every error's
/// offset and label — is byte-for-byte identical to [`decode_advice`]:
/// the two decoders share the primitive layer and differ only in what
/// they materialize, which the round-trip proptests pin.
pub fn decode_advice_view(bytes: &[u8]) -> Result<AdviceView<'_>, WireError> {
    let mut cache = HidCache::default();
    decode_advice_view_inner(bytes, &mut cache, u64::MAX)
}

fn decode_advice_view_inner<'a>(
    bytes: &'a [u8],
    cache: &mut HidCache<'a>,
    node_budget: u64,
) -> Result<AdviceView<'a>, WireError> {
    let mut d = Decoder::new(bytes);
    d.node_budget = node_budget;
    let mut a = AdviceView::default();

    let n = d.len("tags len", 2)?;
    a.tags.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let tag = d.uvar("tag")?;
        a.tags.push((rid, tag));
    }

    let n = d.len("handler logs len", 2)?;
    a.handler_logs.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        // Every entry carries a hid (≥3 bytes), opnum, and op tag.
        let m = d.len("handler log len", 5)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid_cached(cache)?;
            let opnum = d.u32v("hl opnum")?;
            let op = match d.u8("handler op tag")? {
                0 => HandlerOpView::Register {
                    event: d.str_ref("event")?,
                    function: FunctionId(d.u32v("function")?),
                },
                1 => HandlerOpView::Unregister {
                    event: d.str_ref("event")?,
                    function: FunctionId(d.u32v("function")?),
                },
                2 => HandlerOpView::Emit {
                    event: d.str_ref("event")?,
                },
                3 => HandlerOpView::Check {
                    event: d.str_ref("event")?,
                },
                _ => return Err(d.err("handler op tag")),
            };
            log.push(HandlerLogEntryView { hid, opnum, op });
        }
        a.handler_logs.push((rid, log));
    }

    let n = d.len("var logs len", 2)?;
    a.var_logs.reserve(n);
    for _ in 0..n {
        let var = VarId(d.u32v("var id")?);
        // Every entry carries an opref (≥5 bytes) and three tag bytes.
        let m = d.len("var log len", 8)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let op = d.opref_cached(cache)?;
            let access = match d.u8("access tag")? {
                0 => AccessType::Read,
                1 => AccessType::Write,
                _ => return Err(d.err("access tag")),
            };
            let value = match d.u8("value opt")? {
                1 => Some(d.raw_value()?),
                _ => None,
            };
            let prec = match d.u8("prec opt")? {
                1 => Some(d.opref_cached(cache)?),
                _ => None,
            };
            log.push((
                op,
                VarLogEntryView {
                    access,
                    value,
                    prec,
                },
            ));
        }
        a.var_logs.push((var, log));
    }

    let n = d.len("tx logs len", 2)?;
    a.tx_logs.reserve(n);
    for _ in 0..n {
        let tx = d.ktx_cached(cache)?;
        // Every entry carries a hid (≥3 bytes) and four tag/num bytes.
        let m = d.len("tx log len", 7)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid_cached(cache)?;
            let opnum = d.u32v("txl opnum")?;
            let optype = match d.u8("optype tag")? {
                0 => TxOpType::Start,
                1 => TxOpType::Get,
                2 => TxOpType::Put,
                3 => TxOpType::Commit,
                4 => TxOpType::Abort,
                _ => return Err(d.err("optype tag")),
            };
            let key = match d.u8("key opt")? {
                1 => Some(d.str_ref("key")?),
                _ => None,
            };
            let contents = match d.u8("contents tag")? {
                0 => TxOpContentsView::None,
                1 => TxOpContentsView::Put {
                    value: d.raw_value()?,
                },
                2 => TxOpContentsView::Get {
                    from: match d.u8("from opt")? {
                        1 => Some(d.txpos_cached(cache)?),
                        _ => None,
                    },
                },
                _ => return Err(d.err("contents tag")),
            };
            log.push(TxLogEntryView {
                hid,
                opnum,
                optype,
                key,
                contents,
            });
        }
        a.tx_logs.push((tx, log));
    }

    // Every txpos is a ktx (≥5 bytes) plus an index byte.
    let n = d.len("write order len", 6)?;
    a.write_order.reserve(n);
    for _ in 0..n {
        a.write_order.push(d.txpos_cached(cache)?);
    }

    let n = d.len("reb len", 5)?;
    a.response_emitted_by.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid_cached(cache)?;
        let opnum = d.u32v("reb opnum")?;
        a.response_emitted_by.push((rid, (hid, opnum)));
    }

    let n = d.len("opcounts len", 5)?;
    a.opcounts.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid_cached(cache)?;
        let count = d.u32v("opcount")?;
        a.opcounts.push(((rid, hid), count));
    }

    let n = d.len("nondet len", 6)?;
    a.nondet.reserve(n);
    for _ in 0..n {
        let op = d.opref_cached(cache)?;
        let v = d.raw_value()?;
        a.nondet.push((op, v));
    }

    if !d.done() {
        return Err(WireError {
            offset: d.pos,
            what: "trailing bytes",
        });
    }
    Ok(a)
}

/// How a bounded decode failed: structurally malformed bytes, or
/// well-formed bytes that declared more than the budget allows. The
/// two are different verdicts — malformation is the server lying about
/// the format, exhaustion is the server (or an attacker) trying to make
/// verification itself unaffordable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedDecodeError {
    /// The bytes violate the wire format; positioned as
    /// [`decode_advice`] would report it.
    Malformed(WireError),
    /// The advice declared more collection elements than `max_nodes`.
    NodesExhausted {
        /// Byte offset of the length declaration that crossed the cap.
        offset: usize,
        /// The configured budget.
        limit: u64,
    },
}

impl std::fmt::Display for BoundedDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundedDecodeError::Malformed(e) => e.fmt(f),
            BoundedDecodeError::NodesExhausted { offset, limit } => {
                write!(f, "decode node budget ({limit}) exceeded at byte {offset}")
            }
        }
    }
}

impl std::error::Error for BoundedDecodeError {}

/// Sorts a metered decoder's error into the two bounded-decode verdicts.
fn bounded(e: WireError, max_nodes: u64) -> BoundedDecodeError {
    if e.what == NODE_BUDGET_LABEL {
        BoundedDecodeError::NodesExhausted {
            offset: e.offset,
            limit: max_nodes,
        }
    } else {
        BoundedDecodeError::Malformed(e)
    }
}

/// The budgeted decoder entry point every audit decode goes through:
/// borrowed view out, no owned materialization. The per-collection byte
/// budget in [`Decoder::len`] stops a single huge length claim, and
/// `max_nodes` stops death-by-a-thousand small collections across
/// nesting levels.
pub fn decode_advice_view_bounded(
    bytes: &[u8],
    max_nodes: u64,
) -> Result<(AdviceView<'_>, DecodeStats), BoundedDecodeError> {
    let mut cache = HidCache::default();
    let view = decode_advice_view_inner(bytes, &mut cache, max_nodes)
        .map_err(|e| bounded(e, max_nodes))?;
    let stats = DecodeStats {
        hid_cache_hits: cache.hits,
        hid_cache_misses: cache.misses,
        ..Default::default()
    };
    Ok((view, stats))
}

impl<'a> AdviceView<'a> {
    /// Converts to an owned [`Advice`]. Sections are inserted in wire
    /// order, so duplicate keys resolve exactly as [`decode_advice`]'s
    /// map inserts do (later entry wins), and every value span goes
    /// through the owned decoder's value path ([`RawValue::to_value`]):
    /// nothing here shares code with [`Materializer`], which is what
    /// makes the result an oracle for it.
    pub fn to_advice(&self) -> Advice {
        let mut a = Advice::default();
        for (rid, tag) in &self.tags {
            a.tags.insert(*rid, *tag);
        }
        for (rid, log) in &self.handler_logs {
            let entries = log
                .iter()
                .map(|e| HandlerLogEntry {
                    hid: e.hid.clone(),
                    opnum: e.opnum,
                    op: match e.op {
                        HandlerOpView::Register { event, function } => HandlerOp::Register {
                            event: event.to_string(),
                            function,
                        },
                        HandlerOpView::Unregister { event, function } => HandlerOp::Unregister {
                            event: event.to_string(),
                            function,
                        },
                        HandlerOpView::Emit { event } => HandlerOp::Emit {
                            event: event.to_string(),
                        },
                        HandlerOpView::Check { event } => HandlerOp::Check {
                            event: event.to_string(),
                        },
                    },
                })
                .collect();
            a.handler_logs.insert(*rid, entries);
        }
        for (var, log) in &self.var_logs {
            let mut entries = BTreeMap::new();
            for (op, e) in log {
                entries.insert(
                    op.clone(),
                    VarLogEntry {
                        access: e.access,
                        value: e.value.map(|v| v.to_value()),
                        prec: e.prec.clone(),
                    },
                );
            }
            a.var_logs.insert(*var, entries);
        }
        for (tx, log) in &self.tx_logs {
            let entries = log
                .iter()
                .map(|e| TxLogEntry {
                    hid: e.hid.clone(),
                    opnum: e.opnum,
                    optype: e.optype,
                    key: e.key.map(str::to_string),
                    contents: match &e.contents {
                        TxOpContentsView::None => TxOpContents::None,
                        TxOpContentsView::Put { value } => TxOpContents::Put {
                            value: value.to_value(),
                        },
                        TxOpContentsView::Get { from } => TxOpContents::Get { from: from.clone() },
                    },
                })
                .collect();
            a.tx_logs.insert(tx.clone(), entries);
        }
        a.write_order = self.write_order.clone();
        for (rid, (hid, opnum)) in &self.response_emitted_by {
            a.response_emitted_by.insert(*rid, (hid.clone(), *opnum));
        }
        for ((rid, hid), count) in &self.opcounts {
            a.opcounts.insert((*rid, hid.clone()), *count);
        }
        for (op, v) in &self.nondet {
            a.nondet.insert(op.clone(), v.to_value());
        }
        a
    }

    /// Re-serializes the view. Sections are written in stored (wire)
    /// order, so a view decoded from [`encode_advice`] output re-encodes
    /// byte-identically — the round-trip the proptests pin.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.uvar(self.tags.len() as u64);
        for (rid, tag) in &self.tags {
            e.rid(*rid);
            e.uvar(*tag);
        }
        e.uvar(self.handler_logs.len() as u64);
        for (rid, log) in &self.handler_logs {
            e.rid(*rid);
            e.uvar(log.len() as u64);
            for entry in log {
                e.hid(&entry.hid);
                e.uvar(entry.opnum as u64);
                match entry.op {
                    HandlerOpView::Register { event, function } => {
                        e.u8(0);
                        e.str(event);
                        e.uvar(function.0 as u64);
                    }
                    HandlerOpView::Unregister { event, function } => {
                        e.u8(1);
                        e.str(event);
                        e.uvar(function.0 as u64);
                    }
                    HandlerOpView::Emit { event } => {
                        e.u8(2);
                        e.str(event);
                    }
                    HandlerOpView::Check { event } => {
                        e.u8(3);
                        e.str(event);
                    }
                }
            }
        }
        e.uvar(self.var_logs.len() as u64);
        for (var, log) in &self.var_logs {
            e.uvar(var.0 as u64);
            e.uvar(log.len() as u64);
            for (op, entry) in log {
                e.opref(op);
                e.u8(match entry.access {
                    AccessType::Read => 0,
                    AccessType::Write => 1,
                });
                match &entry.value {
                    Some(v) => {
                        e.u8(1);
                        e.raw(*v);
                    }
                    None => e.u8(0),
                }
                match &entry.prec {
                    Some(p) => {
                        e.u8(1);
                        e.opref(p);
                    }
                    None => e.u8(0),
                }
            }
        }
        e.uvar(self.tx_logs.len() as u64);
        for (tx, log) in &self.tx_logs {
            e.ktx(tx);
            e.uvar(log.len() as u64);
            for entry in log {
                e.hid(&entry.hid);
                e.uvar(entry.opnum as u64);
                e.u8(match entry.optype {
                    TxOpType::Start => 0,
                    TxOpType::Get => 1,
                    TxOpType::Put => 2,
                    TxOpType::Commit => 3,
                    TxOpType::Abort => 4,
                });
                match entry.key {
                    Some(k) => {
                        e.u8(1);
                        e.str(k);
                    }
                    None => e.u8(0),
                }
                match &entry.contents {
                    TxOpContentsView::None => e.u8(0),
                    TxOpContentsView::Put { value } => {
                        e.u8(1);
                        e.raw(*value);
                    }
                    TxOpContentsView::Get { from } => {
                        e.u8(2);
                        match from {
                            Some(p) => {
                                e.u8(1);
                                e.txpos(p);
                            }
                            None => e.u8(0),
                        }
                    }
                }
            }
        }
        e.uvar(self.write_order.len() as u64);
        for p in &self.write_order {
            e.txpos(p);
        }
        e.uvar(self.response_emitted_by.len() as u64);
        for (rid, (hid, opnum)) in &self.response_emitted_by {
            e.rid(*rid);
            e.hid(hid);
            e.uvar(*opnum as u64);
        }
        e.uvar(self.opcounts.len() as u64);
        for ((rid, hid), count) in &self.opcounts {
            e.rid(*rid);
            e.hid(hid);
            e.uvar(*count as u64);
        }
        e.uvar(self.nondet.len() as u64);
        for (op, v) in &self.nondet {
            e.opref(op);
            e.raw(*v);
        }
        e.finish()
    }
}

/// Where the encoded advice bytes live while the audit runs: an
/// in-memory buffer, or a read-only memory-mapped advice file.
///
/// The verifier only ever sees `&[u8]` (via [`AdviceSource::bytes`]);
/// the variants differ in *residency*. `Memory` holds a heap copy of
/// the whole report; `Mmap` keeps the bytes on disk and lets the page
/// cache fault them in as the decode walks, so the audit's resident
/// footprint no longer includes the advice. The bytes-resident gauge
/// ([`AdviceSource::resident_bytes`]) reports exactly this difference.
#[derive(Debug)]
pub enum AdviceSource {
    /// The advice is a heap buffer (the default, and the only option
    /// for advice that never touched disk).
    Memory(Vec<u8>),
    /// The advice is a read-only, page-aligned, private mapping of a
    /// file. Unmapped when the source drops.
    Mmap(kmmap::Mmap),
}

impl AdviceSource {
    /// Wraps an in-memory advice buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> AdviceSource {
        AdviceSource::Memory(bytes)
    }

    /// Opens an advice file. With `use_mmap` the file is memory-mapped
    /// read-only; if the platform or the mapping refuses (non-unix,
    /// exotic filesystems), this **falls back to reading** the file
    /// into memory — the contract is "bytes of the file", and the
    /// caller can check [`AdviceSource::is_mmap`] to see which backing
    /// it got. Without `use_mmap` the file is simply read.
    pub fn open(path: &std::path::Path, use_mmap: bool) -> std::io::Result<AdviceSource> {
        if use_mmap {
            match std::fs::File::open(path).and_then(|f| kmmap::Mmap::map_readonly(&f)) {
                Ok(map) => return Ok(AdviceSource::Mmap(map)),
                Err(_) => {
                    // Explicit fallback-to-read path: any mapping
                    // failure degrades to a plain read of the same
                    // bytes, never to a hard error.
                }
            }
        }
        Ok(AdviceSource::Memory(std::fs::read(path)?))
    }

    /// The encoded advice bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            AdviceSource::Memory(b) => b,
            AdviceSource::Mmap(m) => m.as_slice(),
        }
    }

    /// Whether the backing is a memory mapping.
    pub fn is_mmap(&self) -> bool {
        matches!(self, AdviceSource::Mmap(_))
    }

    /// Length of the advice in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the advice is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Heap-resident bytes attributable to holding the advice: the full
    /// buffer for `Memory`, zero for `Mmap` (pages are clean, file-backed
    /// and evictable). Feeds the `advice_bytes_resident` gauge.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            AdviceSource::Memory(b) => b.len() as u64,
            AdviceSource::Mmap(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_advice_round_trips() {
        let a = Advice::default();
        let bytes = encode_advice(&a);
        assert_eq!(decode_advice(&bytes).unwrap(), a);
    }

    #[test]
    fn populated_advice_round_trips() {
        let mut a = Advice::default();
        let hid = HandlerId::root(FunctionId(3));
        let child = HandlerId::child(&hid, FunctionId(1), 2);
        a.tags.insert(RequestId(0), 12345);
        a.handler_logs.insert(
            RequestId(0),
            vec![
                HandlerLogEntry {
                    hid: hid.clone(),
                    opnum: 1,
                    op: HandlerOp::Register {
                        event: "e".into(),
                        function: FunctionId(1),
                    },
                },
                HandlerLogEntry {
                    hid: hid.clone(),
                    opnum: 2,
                    op: HandlerOp::Emit { event: "e".into() },
                },
            ],
        );
        let mut vl = BTreeMap::new();
        vl.insert(
            OpRef::new(RequestId(0), child.clone(), 1),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::map([("k", Value::int(-7))])),
                prec: Some(OpRef::new(RequestId::INIT, kem::init_handler_id(), 1)),
            },
        );
        a.var_logs.insert(VarId(0), vl);
        let tx = KTxId {
            rid: RequestId(0),
            hid: child.clone(),
            opnum: 1,
        };
        a.tx_logs.insert(
            tx.clone(),
            vec![
                TxLogEntry {
                    hid: child.clone(),
                    opnum: 1,
                    optype: TxOpType::Start,
                    key: None,
                    contents: TxOpContents::None,
                },
                TxLogEntry {
                    hid: child.clone(),
                    opnum: 2,
                    optype: TxOpType::Get,
                    key: Some("row".into()),
                    contents: TxOpContents::Get {
                        from: Some(TxPos {
                            tx: tx.clone(),
                            index: 0,
                        }),
                    },
                },
            ],
        );
        a.write_order.push(TxPos { tx, index: 1 });
        a.response_emitted_by.insert(RequestId(0), (hid.clone(), 4));
        a.opcounts.insert((RequestId(0), hid.clone()), 4);
        a.nondet
            .insert(OpRef::new(RequestId(0), hid, 3), Value::Int(99));

        let bytes = encode_advice(&a);
        let decoded = decode_advice(&bytes).unwrap();
        assert_eq!(decoded, a);
    }

    #[test]
    fn section_sizes_sum_to_total() {
        let mut a = Advice::default();
        a.tags.insert(RequestId(0), 1);
        a.nondet.insert(
            OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1),
            Value::str("abc"),
        );
        let sizes = advice_sizes(&a);
        assert_eq!(sizes.total(), encode_advice(&a).len());
        assert!(sizes.nondet > sizes.tags);
    }

    #[test]
    fn truncated_input_errors() {
        let mut a = Advice::default();
        a.tags.insert(RequestId(0), 1);
        let bytes = encode_advice(&a);
        for cut in 0..bytes.len() {
            assert!(decode_advice(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_advice(&Advice::default());
        bytes.push(0);
        let err = decode_advice(&bytes).unwrap_err();
        assert_eq!(err.what, "trailing bytes");
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // 10k nested single-element lists: tag 4, len 1, repeated.
        let mut bytes = Vec::new();
        for _ in 0..10_000 {
            bytes.push(4);
            bytes.push(1);
        }
        bytes.push(0); // innermost null
        let mut d = Decoder::new(&bytes);
        let err = d.value().unwrap_err();
        assert_eq!(err.what, "value nesting too deep");
    }

    #[test]
    fn huge_declared_length_is_rejected_at_its_own_offset() {
        // A lone varint claiming 2^60 tags: the budget check must fire
        // at the length's position instead of preallocating.
        let mut bytes = Vec::new();
        let mut v: u64 = 1 << 60;
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                bytes.push(b);
                break;
            }
            bytes.push(b | 0x80);
        }
        let err = decode_advice(&bytes).unwrap_err();
        assert_eq!(err.what, "tags len");
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn huge_list_length_inside_value_is_rejected() {
        // Value tag 4 (list) + declared length far beyond the buffer.
        let bytes = [4u8, 0xff, 0xff, 0xff, 0xff, 0x0f];
        let mut d = Decoder::new(&bytes);
        let err = d.value().unwrap_err();
        assert_eq!(err.what, "list len");
        assert_eq!(err.offset, 1);
    }

    #[test]
    fn declared_lengths_are_validated_against_remaining_bytes() {
        // An honest encoding with its handler-log length inflated: one
        // request, empty log, then bump the inner length byte. The
        // decoder must error rather than trust the count.
        let mut a = Advice::default();
        a.handler_logs.insert(RequestId(0), Vec::new());
        let mut bytes = encode_advice(&a);
        // Layout: tags len (0), handler logs len (1), rid (0), log len.
        let idx = 3;
        assert_eq!(bytes[idx], 0);
        bytes[idx] = 0x7f;
        let err = decode_advice(&bytes).unwrap_err();
        assert_eq!(err.what, "handler log len");
        assert_eq!(err.offset, idx);
    }

    #[test]
    fn view_round_trips_and_matches_owned() {
        let mut a = Advice::default();
        let hid = HandlerId::root(FunctionId(3));
        let child = HandlerId::child(&hid, FunctionId(1), 2);
        a.tags.insert(RequestId(0), 7);
        a.handler_logs.insert(
            RequestId(0),
            vec![HandlerLogEntry {
                hid: hid.clone(),
                opnum: 1,
                op: HandlerOp::Emit { event: "e".into() },
            }],
        );
        let mut vl = BTreeMap::new();
        for i in 1..=4 {
            vl.insert(
                OpRef::new(RequestId(0), child.clone(), i),
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(Value::str("repeated-payload")),
                    prec: None,
                },
            );
        }
        a.var_logs.insert(VarId(0), vl);
        a.response_emitted_by.insert(RequestId(0), (hid.clone(), 4));
        a.opcounts.insert((RequestId(0), hid.clone()), 4);
        a.opcounts.insert((RequestId(0), child), 4);

        let bytes = encode_advice(&a);
        let (view, stats) = decode_advice_view_bounded(&bytes, u64::MAX).unwrap();
        assert_eq!(view.encode(), bytes, "view re-encode is byte-identical");
        assert_eq!(view.to_advice(), a, "view conversion equals owned decode");
        assert!(
            stats.hid_cache_hits > 0,
            "repeated handler ids must hit the span memo"
        );
    }

    #[test]
    fn view_decoder_errors_match_owned_on_truncation() {
        let mut a = Advice::default();
        a.tags.insert(RequestId(0), 1);
        a.nondet.insert(
            OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1),
            Value::str("abc"),
        );
        let bytes = encode_advice(&a);
        for cut in 0..bytes.len() {
            let owned = decode_advice(&bytes[..cut]).unwrap_err();
            let view = decode_advice_view(&bytes[..cut]).unwrap_err();
            assert_eq!(owned, view, "cut at {cut}");
        }
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut e = Encoder::new();
        e.value(v);
        e.finish()
    }

    fn raw(bytes: &[u8]) -> RawValue<'_> {
        RawValue::validate(bytes, u64::MAX).expect("test bytes are a valid value")
    }

    /// A map logged three times over, each copy sharing all but one of
    /// its nested entries with the last — MOTD's shape.
    fn overlapping_maps() -> Vec<Value> {
        let entry = |i: i64| {
            Value::map([
                ("msg", Value::str(format!("message {i}"))),
                ("tags", Value::list([Value::int(i), Value::str("pinned")])),
            ])
        };
        (3..6)
            .map(|n| Value::map((0..n).map(|i| (format!("day-{i}"), entry(i)))))
            .collect()
    }

    #[test]
    fn materializer_builds_each_distinct_nested_value_once() {
        let values = overlapping_maps();
        let bytes: Vec<Vec<u8>> = values.iter().map(encoded).collect();
        let mut interner = ValueInterner::new();
        let mut m = Materializer::new(&mut interner);
        let built: Vec<Value> = bytes.iter().map(|b| m.value(raw(b))).collect();
        assert_eq!(built, values);
        // Five distinct entries, each holding one distinct list: ten
        // builds. The 3 + 4 + 5 = 12 entries' other seven occurrences
        // are memo hits, taken whole (their lists are never reached).
        assert_eq!(interner.values_built, 10);
        assert_eq!(interner.values_shared, 7);
        // The logged maps themselves are top-level: never memoized, so
        // an identical repeat is rebuilt, its entries all shared.
        let again = Materializer::new(&mut interner).value(raw(&bytes[2]));
        assert_eq!(again, values[2]);
        assert_eq!(interner.values_built, 10);
        assert_eq!(interner.values_shared, 12);
        let (Value::Map(a), Value::Map(b)) = (&again, &built[2]) else {
            panic!("maps");
        };
        assert!(!a.ptr_eq(b));
        let (Some(Value::Map(ea)), Some(Value::Map(eb))) = (a.get("day-0"), b.get("day-0")) else {
            panic!("nested maps");
        };
        assert!(ea.ptr_eq(eb), "equal encoded entries are one allocation");
    }

    #[test]
    fn memo_hits_are_byte_confirmed_under_a_degenerate_hash() {
        // Every span in one bucket: a table that trusted the hash would
        // hand back the first value stored for every later lookup.
        let values = overlapping_maps();
        let bytes: Vec<Vec<u8>> = values.iter().map(encoded).collect();
        let mut interner = ValueInterner::with_span_hash(|_| 0);
        let mut m = Materializer::new(&mut interner);
        for (b, v) in bytes.iter().zip(&values) {
            assert_eq!(&m.value(raw(b)), v);
        }
        assert_eq!(interner.values_built, 10);
        assert_eq!(interner.values_shared, 7);
    }

    #[test]
    fn different_encodings_of_equal_values_are_separate_memo_entries() {
        // [ {a: 1, b: 2}, {b: 2, a: 1}, {a: 1, b: 2} with a two-byte
        // length ]: equal values, three byte strings. The memo is keyed
        // by bytes, so none is a hit for another.
        let canonical = [5, 2, 1, b'a', 2, 2, 1, b'b', 2, 4];
        let unsorted = [5, 2, 1, b'b', 2, 4, 1, b'a', 2, 2];
        let long_len = [5, 0x82, 0, 1, b'a', 2, 2, 1, b'b', 2, 4];
        let mut bytes = vec![4, 4];
        for span in [&canonical[..], &unsorted, &long_len, &canonical] {
            bytes.extend_from_slice(span);
        }
        let mut interner = ValueInterner::new();
        let v = Materializer::new(&mut interner).value(raw(&bytes));
        let one = Value::map([("a", Value::int(1)), ("b", Value::int(2))]);
        assert_eq!(v, Value::list(vec![one; 4]));
        assert_eq!(v, raw(&bytes).to_value());
        assert_eq!(interner.values_built, 3);
        assert_eq!(interner.values_shared, 1);
    }

    #[test]
    fn deep_repeats_are_skipped_once_not_once_per_level() {
        // 60 levels of [[…[x]…]] twice in a list: the second copy is a
        // hit at its outermost level, and the first is skipped by one
        // recording pass — `ends` holds its 60 levels, not 60 + 59 + ….
        let mut deep = Value::str("x");
        for _ in 0..60 {
            deep = Value::list([deep]);
        }
        let bytes = encoded(&Value::list([deep.clone(), deep.clone()]));
        let mut interner = ValueInterner::new();
        let mut m = Materializer::new(&mut interner);
        assert_eq!(m.value(raw(&bytes)), Value::list([deep.clone(), deep]));
        assert_eq!(m.ends.len(), 60);
        assert_eq!(interner.values_built, 60);
        assert_eq!(interner.values_shared, 1);
    }

    #[test]
    fn zigzag_negative_ints() {
        let mut e = Encoder::new();
        e.value(&Value::Int(i64::MIN));
        e.value(&Value::Int(-1));
        e.value(&Value::Int(i64::MAX));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.value().unwrap(), Value::Int(i64::MIN));
        assert_eq!(d.value().unwrap(), Value::Int(-1));
        assert_eq!(d.value().unwrap(), Value::Int(i64::MAX));
    }
}
