//! Binary wire codec for [`Advice`].
//!
//! The evaluation's Figure 8 reports the *size of the advice sent from
//! the server to the verifier*; this module defines the bytes that
//! would cross that wire. It is a small self-contained tag-length-value
//! codec (no external dependencies), round-trip property-tested, with a
//! per-section size breakdown used by the benchmark harness (the paper
//! reports, e.g., that variable logs are ~95% of MOTD advice, §6.3).
//!
//! **Tables and the value pool** (DESIGN.md §20). Advice names a few
//! hundred distinct strings and a few dozen handler ids tens of
//! thousands of times, and successive versions of a logged value (a
//! [`kem::pvalue`] tree) share all but one root-to-leaf path. Each
//! crosses the wire once: a string table and a handler-id table ahead
//! of the first section that names them, and a *pool* of container
//! nodes ahead of the first value. An entry names only entries before
//! it, and a value is a scalar, a container written out inline (when
//! none of its nodes occurs twice), or a reference to a pool node:
//!
//! ```text
//! advice  := tags strings hids handler_logs pool var_logs tx_logs
//!            write_order response_emitted_by opcounts nondet
//! strings := uvar(n) (uvar(len) utf8){n}
//! hids    := uvar(n) (uvar(parent + 1) uvar(fn) uvar(opnum)){n}   parent < index
//! str     := uvar(index into strings)       event names, row keys, map keys
//! hid     := uvar(index into hids)          in oprefs, tx ids, every log
//! pool    := uvar(count) node*
//! node    := 0 uvar(w) (str value){w}       map leaf, keys ascending
//!          | 1 uvar(w) uvar(id){w}          map branch over earlier map nodes
//!          | 2 uvar(w) value{w}             list leaf
//!          | 3 uvar(w) uvar(id){w}          list branch over earlier list nodes
//! value   := 0 | 1 bool | 2 zigzag | 3 str
//!          | 4 uvar(n) value{n} | 5 uvar(n) (str value){n}
//!          | 6 uvar(id)                     the container rooted at pool node id
//! ```
//!
//! The encoder finds repeats by identity first — the `Arc` behind a
//! string, handler id or node — and by content second, and numbers
//! table entries and pool nodes in the order it first needs them, so
//! [`encode_advice`] stays a pure function of the advice.
//!
//! There is **one** section walk, [`decode_advice_view_bounded`]: it
//! builds a borrowed [`AdviceView`] — what every audit decodes. Each
//! table entry is checked and built once — a string stays a slice of
//! the input, a handler id is one [`HandlerId::child`] of its parent —
//! and a reference is a bounds-checked index. A logged value stays the
//! validated bytes it occupies ([`RawValue`]), and the pool is built
//! once, through the checked constructors of [`kem::pvalue`]. The view
//! converts three ways: to the verifier's working form
//! ([`crate::AdviceRef::from_view`]), to an owned [`Advice`] for the
//! editors and structural mutators ([`AdviceView::to_advice`];
//! [`decode_advice`] is the decode plus that), and back to bytes in
//! stored order for hostile-bytes generators ([`AdviceView::encode`]).
//!
//! Values have **one** reader, [`Decoder::walk_value`], driven by a
//! [`ValueSink`] that checks each string reference: the view decoder's
//! builds only a copy of each table string a value names, once, in the
//! view's [`kem::ValueInterner`]; [`Materializer`] builds the pool; and
//! [`RawValue::to_value`] — how [`crate::AdviceRef::from_view`] turns
//! spans into the values replay retains — shares those copies and the
//! pool's nodes, where a reference is one `Arc` bump. The node budget
//! charges a reference what it would have cost written out in place — a
//! pool reference its container's elements ([`Decoder::charge`]), a
//! handler-id reference its path's steps, a string reference nothing —
//! so it keeps counting *logical* elements; what the tables and the pool
//! section themselves declare is held against the same budget apart from
//! them ([`Decoder::table_len`], [`Decoder::pool_wire`]).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::ops::Range;
use std::sync::Arc;

use kem::pvalue::{ListNodeRef, MapNodeRef, PList, PMap, CHUNK};
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
    /// The pool node being decoded, if the failure is inside the pool.
    /// Four bytes, not eight: every read the decoder makes returns a
    /// `Result` that is this wide, and at 40 bytes decoding pool-less
    /// advice measured 10 % slower than at 32.
    pub node: Option<u32>,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire decode error at byte {}: {}",
            self.offset, self.what
        )?;
        match self.node {
            Some(node) => write!(f, " (pool node {node})"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for WireError {}

/// Pool node kinds. The low bit says branch, the next says list.
const MAP_LEAF: u8 = 0;
const MAP_BRANCH: u8 = 1;
const LIST_LEAF: u8 = 2;
const LIST_BRANCH: u8 = 3;

fn is_branch(kind: u8) -> bool {
    kind & 1 == 1
}

/// The value tag of a reference to a pool node.
const REF: u8 = 6;

/// In an [`Encoder`]'s buffer, stands where a container goes until
/// [`Encoder::finish`] decides how to write it: this byte, then the
/// canonical node's index in eight bytes.
const HOLE: u8 = 7;
const HOLE_LEN: usize = 9;

/// One distinct container node the encoder has met.
#[derive(Debug)]
struct CanonNode {
    /// Its key in [`Canon::arena`]: the node's wire form — kind, width,
    /// entries — with a hole for each child node or container entry.
    key: Range<usize>,
    /// Its holes in [`Canon::holes`].
    holes: Range<usize>,
    kind: u8,
    /// Bytes of `key` before the first entry.
    header: usize,
    /// Entries in the subtree.
    len: usize,
    /// Value positions and canonical nodes that hold it.
    uses: usize,
    /// The next node whose key has the same hash.
    same_hash: Option<usize>,
}

/// The distinct container nodes of everything an [`Encoder`] was given:
/// found by `Arc` identity, merged when their keys are equal. A child
/// is interned before its parent, so a node's holes name lower indices.
#[derive(Debug, Default)]
struct Canon {
    nodes: Vec<CanonNode>,
    arena: Vec<u8>,
    /// `(offset in the key, canonical node)`, node by node.
    holes: Vec<(usize, usize)>,
    by_addr: HashMap<usize, usize>,
    /// The latest node with each key hash; the rest chain through
    /// [`CanonNode::same_hash`].
    by_hash: HashMap<u64, usize>,
}

impl Canon {
    fn holes_of(&self, c: usize) -> &[(usize, usize)] {
        &self.holes[self.nodes[c].holes.clone()]
    }
}

/// Where a string's bytes are.
fn addr(s: &str) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

/// Each distinct string once, numbered in the order first met.
#[derive(Debug, Default)]
struct Strings<'e> {
    /// By where the bytes are: an `Arc<str>` met again.
    by_addr: HashMap<(usize, usize), usize>,
    by_content: HashMap<&'e str, usize>,
    table: Vec<u8>,
    count: usize,
}

impl<'e> Strings<'e> {
    /// The index of `s`: by address, by content, or new. A `shared`
    /// string — an `Arc<str>` — is remembered by address.
    fn index(&mut self, s: &'e str, shared: bool) -> usize {
        if let Some(&i) = self.by_addr.get(&addr(s)) {
            return i;
        }
        let i = match self.by_content.get(s) {
            Some(&i) => i,
            None => self.push(s),
        };
        if shared {
            self.by_addr.insert(addr(s), i);
        }
        i
    }

    /// A new entry, even if an equal one is in the table.
    fn push(&mut self, s: &'e str) -> usize {
        put_uvar(&mut self.table, s.len() as u64);
        self.table.extend_from_slice(s.as_bytes());
        self.by_content.entry(s).or_insert(self.count);
        self.count += 1;
        self.count - 1
    }
}

/// Each distinct handler id once, after its parent. An id hashes and
/// compares by pointer first, so one map finds clones and equals alike.
#[derive(Debug, Default)]
struct Hids<'e> {
    index: HashMap<&'e HandlerId, usize>,
    table: Vec<u8>,
    count: usize,
}

impl<'e> Hids<'e> {
    /// The index of `h`, entering it — and its ancestors not met yet,
    /// from the top — if it is new.
    fn index(&mut self, h: &'e HandlerId) -> usize {
        if let Some(&i) = self.index.get(h) {
            return i;
        }
        let mut missing = Vec::new();
        let mut at = Some(h);
        while let Some(h) = at.filter(|h| !self.index.contains_key(h)) {
            missing.push(h);
            at = h.parent();
        }
        let mut above = at.and_then(|h| self.index.get(h).copied());
        for h in missing.into_iter().rev() {
            above = Some(self.push(h, above));
        }
        above.unwrap_or_default()
    }

    /// A new entry below entry `parent`, even if an equal one is in the
    /// table.
    fn push(&mut self, h: &'e HandlerId, parent: Option<usize>) -> usize {
        put_uvar(&mut self.table, parent.map_or(0, |p| p as u64 + 1));
        put_uvar(&mut self.table, h.function().0 as u64);
        put_uvar(&mut self.table, h.opnum() as u64);
        self.index.entry(h).or_insert(self.count);
        self.count += 1;
        self.count - 1
    }
}

/// Byte-stream encoder.
///
/// Strings and handler ids are written as indices into the tables
/// [`Encoder::finish`] writes at [`Encoder::tables_here`]. Containers
/// are not written where [`Encoder::value`] meets them: the buffer gets
/// a hole naming the container's canonical root, and
/// [`Encoder::finish`] — which by then knows every use of every node —
/// fills it with the container inline or with a reference into the
/// pool it writes at [`Encoder::pool_here`].
#[derive(Debug, Default)]
pub struct Encoder<'e> {
    buf: Vec<u8>,
    /// `(offset in buf, canonical node)` of each hole, ascending.
    holes: Vec<(usize, usize)>,
    /// Where in `buf` the string and handler-id tables go.
    tables_at: Option<usize>,
    /// Where in `buf` the pool section goes. Without one, every
    /// container is written inline.
    pool_at: Option<usize>,
    canon: Canon,
    strings: Strings<'e>,
    hids: Hids<'e>,
}

/// Appends `v` as a LEB128-style varint.
pub(crate) fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

impl<'e> Encoder<'e> {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far, each container counted as a hole.
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
    fn uvar(&mut self, v: u64) {
        put_uvar(&mut self.buf, v);
    }

    fn i64(&mut self, v: i64) {
        // Zigzag.
        self.uvar(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A string: `shared` if it may be one allocation met many times.
    fn str(&mut self, s: &'e str, shared: bool) {
        let i = self.strings.index(s, shared);
        self.uvar(i as u64);
    }

    /// The tables go here: before the first section that names them.
    fn tables_here(&mut self) {
        self.tables_at = Some(self.buf.len());
    }

    /// Starts the tables with the ones `view` was decoded from, entry
    /// for entry, so that what its spans and pool name keeps its index.
    fn tables_of(&mut self, view: &'e AdviceView<'_>) {
        for s in &view.strings {
            let i = self.strings.push(s);
            self.strings.by_addr.insert(addr(s), i);
        }
        for h in &view.hids {
            let parent = h.parent().map(|p| self.hids.index(p));
            self.hids.push(h, parent);
        }
    }

    /// The pool section goes here: before the first value.
    fn pool_here(&mut self) {
        debug_assert!(self.holes.is_empty(), "a reference must follow the pool");
        self.pool_at = Some(self.buf.len());
    }

    /// A value in a log entry.
    fn value(&mut self, v: &'e Value) {
        if let Some(root) = self.put_value(v) {
            self.canon.nodes[root].uses += 1;
        }
    }

    /// Writes a scalar or an empty container, or leaves a hole for a
    /// container and returns its canonical root.
    fn put_value(&mut self, v: &'e Value) -> Option<usize> {
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
                self.str(s, true);
            }
            // All empty containers are one static node; a reference to
            // it would be longer than writing it out.
            Value::List(l) if l.is_empty() => self.buf.extend_from_slice(&[4, 0]),
            Value::Map(m) if m.is_empty() => self.buf.extend_from_slice(&[5, 0]),
            Value::List(l) => {
                let root = self.list_node(l.root());
                return Some(self.hole(root));
            }
            Value::Map(m) => {
                let root = self.map_node(m.root());
                return Some(self.hole(root));
            }
        }
        None
    }

    fn hole(&mut self, c: usize) -> usize {
        self.holes.push((self.buf.len(), c));
        self.u8(HOLE);
        self.buf.extend_from_slice(&(c as u64).to_le_bytes());
        c
    }

    /// The canonical node for the tree node at `addr`, of `kind`, `width`
    /// wide and holding `len` entries. A node met before (the same
    /// `Arc`) is not read again; a new one has its key assembled on top
    /// of `buf` — `entries` writes what follows the width, children
    /// first — and is then looked up by that key.
    fn node(
        &mut self,
        addr: usize,
        kind: u8,
        width: usize,
        len: usize,
        entries: impl FnOnce(&mut Self),
    ) -> usize {
        if let Some(&c) = self.canon.by_addr.get(&addr) {
            return c;
        }
        let (start, holes) = (self.buf.len(), self.holes.len());
        self.u8(kind);
        self.uvar(width as u64);
        let header = self.buf.len() - start;
        entries(self);
        let c = self.intern(start, holes, kind, header, len);
        self.canon.by_addr.insert(addr, c);
        c
    }

    fn map_node(&mut self, n: MapNodeRef<'e>) -> usize {
        match n.entries() {
            Some(entries) => self.node(n.addr(), MAP_LEAF, entries.len(), n.len(), |e| {
                for (k, v) in entries {
                    e.str(k, true);
                    e.put_value(v);
                }
            }),
            None => self.node(n.addr(), MAP_BRANCH, n.children().len(), n.len(), |e| {
                for child in n.children() {
                    let c = e.map_node(child);
                    e.hole(c);
                }
            }),
        }
    }

    fn list_node(&mut self, n: ListNodeRef<'e>) -> usize {
        match n.elements() {
            Some(elements) => self.node(n.addr(), LIST_LEAF, elements.len(), n.len(), |e| {
                for v in elements {
                    e.put_value(v);
                }
            }),
            None => self.node(n.addr(), LIST_BRANCH, n.children().len(), n.len(), |e| {
                for child in n.children() {
                    let c = e.list_node(child);
                    e.hole(c);
                }
            }),
        }
    }

    /// Takes the key assembled at `buf[start..]` (its holes at
    /// `holes[holes_from..]`) off the buffer and returns the canonical
    /// node with that key: an equal one met earlier, or a new one, which
    /// then holds its children.
    fn intern(
        &mut self,
        start: usize,
        holes_from: usize,
        kind: u8,
        header: usize,
        len: usize,
    ) -> usize {
        let canon = &mut self.canon;
        let key = &self.buf[start..];
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        hasher.write(key);
        let hash = hasher.finish();
        let latest = canon.by_hash.get(&hash).copied();
        let mut candidate = latest;
        while let Some(c) = candidate {
            if canon.arena[canon.nodes[c].key.clone()] == *key {
                self.buf.truncate(start);
                self.holes.truncate(holes_from);
                return c;
            }
            candidate = canon.nodes[c].same_hash;
        }
        let c = canon.nodes.len();
        let key_at = canon.arena.len();
        canon.arena.extend_from_slice(key);
        let holes_at = canon.holes.len();
        for (offset, child) in self.holes.drain(holes_from..) {
            canon.holes.push((offset - start, child));
            canon.nodes[child].uses += 1;
        }
        canon.nodes.push(CanonNode {
            key: key_at..canon.arena.len(),
            holes: holes_at..canon.holes.len(),
            kind,
            header,
            len,
            uses: 0,
            same_hash: latest,
        });
        canon.by_hash.insert(hash, c);
        self.buf.truncate(start);
        c
    }

    /// An already-encoded value, verbatim.
    fn raw(&mut self, v: RawValue<'_>) {
        self.buf.extend_from_slice(v.0);
    }

    fn rid(&mut self, r: RequestId) {
        self.uvar(r.0);
    }

    fn hid(&mut self, h: &'e HandlerId) {
        let i = self.hids.index(h);
        self.uvar(i as u64);
    }

    fn opref(&mut self, o: &'e OpRef) {
        self.rid(o.rid);
        self.hid(&o.hid);
        self.uvar(o.opnum as u64);
    }

    fn ktx(&mut self, t: &'e KTxId) {
        self.rid(t.rid);
        self.hid(&t.hid);
        self.uvar(t.opnum as u64);
    }

    fn txpos(&mut self, p: &'e TxPos) {
        self.ktx(&p.tx);
        self.uvar(p.index as u64);
    }

    /// `0`, or `1` and `v` as `put` writes it.
    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
            None => self.u8(0),
        }
    }

    fn handler_entry(&mut self, hid: &'e HandlerId, opnum: u32, op: HandlerOpView<'e>) {
        self.hid(hid);
        self.uvar(opnum as u64);
        let (tag, event, function) = match op {
            HandlerOpView::Register { event, function } => (0, event, Some(function)),
            HandlerOpView::Unregister { event, function } => (1, event, Some(function)),
            HandlerOpView::Emit { event } => (2, event, None),
            HandlerOpView::Check { event } => (3, event, None),
        };
        self.u8(tag);
        self.str(event, false);
        if let Some(f) = function {
            self.uvar(f.0 as u64);
        }
    }

    /// A transaction-log entry up to its contents. Access and operation
    /// types are written as their declaration order.
    fn tx_head(&mut self, hid: &'e HandlerId, opnum: u32, optype: TxOpType, key: Option<&'e str>) {
        self.hid(hid);
        self.uvar(opnum as u64);
        self.u8(optype as u8);
        self.opt(key, |e, k| e.str(k, false));
    }

    /// Finishes, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        let ends = [self.tables_at, self.pool_at, Some(self.buf.len())];
        self.finish_sections(&ends.into_iter().flatten().collect::<Vec<_>>())
            .0
    }

    /// Finishes a buffer whose sections end at the ascending offsets
    /// `ends` (the last one `self.len()`, and the table and pool
    /// positions section boundaries): returns the bytes, the size each
    /// section came to, and the string table's, the handler-id table's
    /// and the pool's.
    fn finish_sections(self, ends: &[usize]) -> (Vec<u8>, Vec<usize>, [usize; 3]) {
        let mut fill = Fill::new(&self.canon, self.pool_at.is_some());
        // References are numbered in the order values first need them,
        // children before parents.
        for &(_, root) in &self.holes {
            fill.prepare(root);
        }
        let inserts = [
            (self.tables_at, self.strings.count, &self.strings.table),
            (self.tables_at, self.hids.count, &self.hids.table),
            (self.pool_at, fill.count, &fill.pool),
        ];
        let mut out = Vec::with_capacity(self.buf.len() + fill.pool.len());
        let mut sizes = Vec::with_capacity(ends.len());
        let mut inserted = [0; 3];
        let (mut at, mut holes) = (0, self.holes.as_slice());
        for &end in ends {
            // Each goes before the section that starts where it goes.
            for (size, (place, count, bytes)) in inserted.iter_mut().zip(inserts) {
                if *size == 0 && place == Some(at) {
                    let before = out.len();
                    put_uvar(&mut out, count as u64);
                    out.extend_from_slice(bytes);
                    *size = out.len() - before;
                }
            }
            let before = out.len();
            let within = holes.partition_point(|(offset, _)| *offset < end);
            fill.splice(&self.buf[at..end], at, &holes[..within], false, &mut out);
            holes = &holes[within..];
            sizes.push(out.len() - before);
            at = end;
        }
        (out, sizes, inserted)
    }
}

/// The second pass of an encode: decides, now that every use of every
/// canonical node is known, which containers go to the pool, and fills
/// the holes.
struct Fill<'c> {
    canon: &'c Canon,
    /// Whether there is a pool to refer to.
    pooling: bool,
    /// Per canonical node: some node of the tree under it is held
    /// twice, so as a value it is a reference and its tree is pooled.
    shared: Vec<bool>,
    /// Per canonical node: something under it — in its tree or inside
    /// its entries — is held twice, so writing it may name pool nodes.
    deep: Vec<bool>,
    /// Pool index of each canonical node already written to the pool.
    index: Vec<Option<usize>>,
    pool: Vec<u8>,
    count: usize,
}

impl<'c> Fill<'c> {
    fn new(canon: &'c Canon, pooling: bool) -> Self {
        let n = canon.nodes.len();
        let (mut shared, mut deep) = (vec![false; n], vec![false; n]);
        for (c, node) in canon.nodes.iter().enumerate() {
            let own = node.uses >= 2;
            let below = canon.holes_of(c);
            shared[c] = own || (is_branch(node.kind) && below.iter().any(|(_, k)| shared[*k]));
            deep[c] = own || below.iter().any(|(_, k)| deep[*k]);
        }
        Fill {
            canon,
            pooling,
            shared,
            deep,
            index: vec![None; n],
            pool: Vec::new(),
            count: 0,
        }
    }

    fn is_ref(&self, c: usize) -> bool {
        self.pooling && self.shared[c]
    }

    /// Where node `c` went in the pool; were it missing, a reference
    /// the decoder refuses, not one to another node.
    fn pool_index(&self, c: usize) -> u64 {
        self.index
            .get(c)
            .copied()
            .flatten()
            .map_or(u64::MAX, |i| i as u64)
    }

    /// Puts in the pool every node that writing the container rooted at
    /// `c` will name.
    fn prepare(&mut self, c: usize) {
        if !self.pooling || !self.deep[c] {
            return;
        }
        if self.shared[c] {
            self.pooled(c);
            return;
        }
        // An inline tree's nodes are not shared; what their entries
        // hold may be.
        let canon = self.canon;
        for &(_, below) in canon.holes_of(c) {
            self.prepare(below);
        }
    }

    /// Writes node `c` to the pool, after everything it names.
    fn pooled(&mut self, c: usize) {
        if self.index[c].is_some() {
            return;
        }
        let canon = self.canon;
        let node = &canon.nodes[c];
        let branch = is_branch(node.kind);
        for &(_, below) in canon.holes_of(c) {
            if branch {
                self.pooled(below);
            } else {
                self.prepare(below);
            }
        }
        let mut pool = std::mem::take(&mut self.pool);
        let key = &canon.arena[node.key.clone()];
        self.splice(key, 0, canon.holes_of(c), branch, &mut pool);
        self.pool = pool;
        self.index[c] = Some(self.count);
        self.count += 1;
    }

    /// Appends `src` to `out` with its holes filled. `holes` hold
    /// offsets from `base` bytes before `src`; in a branch they are
    /// child nodes (bare pool indices), elsewhere values.
    fn splice(
        &self,
        src: &[u8],
        base: usize,
        holes: &[(usize, usize)],
        branch: bool,
        out: &mut Vec<u8>,
    ) {
        let mut at = 0;
        for &(offset, c) in holes {
            let offset = offset - base;
            out.extend_from_slice(&src[at..offset]);
            at = offset + HOLE_LEN;
            if branch {
                put_uvar(out, self.pool_index(c));
            } else {
                self.value(c, out);
            }
        }
        out.extend_from_slice(&src[at..]);
    }

    /// The container rooted at `c`, as a value.
    fn value(&self, c: usize, out: &mut Vec<u8>) {
        let node = &self.canon.nodes[c];
        if self.is_ref(c) {
            out.push(REF);
            put_uvar(out, self.pool_index(c));
        } else {
            out.push(if node.kind < LIST_LEAF { 5 } else { 4 });
            put_uvar(out, node.len as u64);
            self.entries(c, out);
        }
    }

    /// The entries of the tree under `c`, in order.
    fn entries(&self, c: usize, out: &mut Vec<u8>) {
        let node = &self.canon.nodes[c];
        let holes = self.canon.holes_of(c);
        if is_branch(node.kind) {
            for &(_, child) in holes {
                self.entries(child, out);
            }
        } else {
            let key = &self.canon.arena[node.key.clone()];
            self.splice(&key[node.header..], node.header, holes, false, out);
        }
    }
}

/// The [`WireError::what`] label reported when a decode exceeds its
/// node budget ([`decode_advice_view_bounded`]). A sentinel so callers
/// can distinguish budget exhaustion (a resource verdict) from
/// structural malformation (a malformed-advice verdict).
pub const NODE_BUDGET_LABEL: &str = "decode node budget";

/// Deepest a value may nest, through inline containers and pool
/// references alike: keeps crafted bytes like `[[[[…` off the
/// verifier's stack, in the decoder and in every recursive walk of the
/// value after it.
const MAX_VALUE_DEPTH: u32 = 64;

/// What the decoder remembers of a pool node it has read: all that a
/// reference to the node needs checked and charged, in O(1).
#[derive(Debug, Clone, Copy)]
struct PoolMeta {
    /// Elements a reader of the container rooted here walks — what the
    /// node budget would have been charged had it been written inline —
    /// saturating.
    logical: u64,
    /// Levels of value nesting at and below the node's entries.
    depth: u32,
}

/// Byte-stream decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Total declared collection elements so far. Every collection
    /// length — sections, per-entry logs, nested value lists/maps —
    /// funnels through [`Decoder::len`], every pool reference adds what
    /// its container holds ([`Decoder::charge`]) and every handler-id
    /// reference the steps of its path, so this is a faithful count of
    /// the elements anything walking the decoded advice will visit.
    nodes: u64,
    /// Cap on `nodes`; `u64::MAX` means unmetered.
    node_budget: u64,
    /// The pool nodes read so far.
    pool: Vec<PoolMeta>,
    /// The pool node being read: positioned errors name it, and
    /// lengths written inline in it go on the pool's account too.
    node: Option<u32>,
    /// Deepest value nesting reached since last reset.
    deepest: u32,
    /// Rereading a span the validating walk accepted: pool references
    /// were checked and charged then, against a pool this decoder has
    /// not read.
    validated: bool,
    counts: ValueCounts,
}

/// What a decode met in value positions.
#[derive(Debug, Clone, Copy, Default)]
struct ValueCounts {
    refs: u64,
    inline_containers: u64,
    /// The part of `nodes` that references outside the pool charged —
    /// pool and handler-id references: elements described, not
    /// declared.
    referred: u64,
    /// Elements the pool section declares — its node count, every
    /// node's width, every length written inline in a node — each once,
    /// however often the node is referred to.
    pool_wire: u64,
    /// Entries the string and handler-id tables declare.
    tables: u64,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            nodes: 0,
            node_budget: u64::MAX,
            pool: Vec::new(),
            node: None,
            deepest: 0,
            validated: false,
            counts: ValueCounts::default(),
        }
    }

    /// Whether all bytes were consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err_at(&self, offset: usize, what: &'static str) -> WireError {
        WireError {
            offset,
            what,
            node: self.node,
        }
    }

    fn err(&self, what: &'static str) -> WireError {
        self.err_at(self.pos, what)
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
    fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let start = self.pos;
        let n = self.uvar(what)? as usize;
        if n > self.remaining() / min_elem_bytes.max(1) {
            // Report at the length's own position, not after it.
            return Err(self.err_at(start, what));
        }
        Ok(n)
    }

    /// [`Decoder::count`], charged to the node budget: each declared
    /// element is a node the decoder will materialize. Dense advice can
    /// pack many small nodes per byte across nesting levels, so the
    /// per-collection byte bound does not by itself cap total work.
    fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let start = self.pos;
        let n = self.count(what, min_elem_bytes)?;
        self.charge(n as u64, start)?;
        Ok(n)
    }

    /// Holds `n` elements the pool section declares at `offset` against
    /// the budget, in a count of the pool's own. The logical count pays
    /// for a pool node where something refers to it, so a pool of nodes
    /// nothing refers to would be free, and every one of them — leaf or
    /// branch — is built. Outside it and the tables every element on
    /// the wire is a logical one, so the three counts together bound
    /// what a decode allocates by three times the budget.
    fn pool_wire(&mut self, n: u64, offset: usize) -> Result<(), WireError> {
        self.counts.pool_wire = self.counts.pool_wire.saturating_add(n);
        if self.counts.pool_wire > self.node_budget {
            return Err(self.err_at(offset, NODE_BUDGET_LABEL));
        }
        Ok(())
    }

    /// A table's entry count ([`Decoder::count`]), held against the
    /// budget in a count the two tables share before room is made for
    /// them: no reference pays for an entry, so none would be free.
    fn table_len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let start = self.pos;
        let n = self.count(what, min_elem_bytes)?;
        self.counts.tables = self.counts.tables.saturating_add(n as u64);
        if self.counts.tables > self.node_budget {
            return Err(self.err_at(start, NODE_BUDGET_LABEL));
        }
        Ok(n)
    }

    /// Adds `n` elements, declared at `offset`, to the cumulative node
    /// count. A reference to a pool node is charged here with the
    /// node's whole logical size, as if the container had been written
    /// out in its place: honest advice costs what it cost before there
    /// was a pool, and a small pool that *describes* something huge —
    /// node k holding node k−1 twice, forty deep — is the same typed
    /// exhaustion a physically huge advice gets, found in O(1) per
    /// reference and before anything downstream can walk the value.
    fn charge(&mut self, n: u64, offset: usize) -> Result<(), WireError> {
        self.nodes = self.nodes.saturating_add(n);
        if self.nodes > self.node_budget {
            return Err(self.err_at(offset, NODE_BUDGET_LABEL));
        }
        Ok(())
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn uvar(&mut self, what: &'static str) -> Result<u64, WireError> {
        // Nearly every varint is a small length or index: one byte.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            let bits = (b & 0x7f) as u64;
            // The tenth byte carries bit 63 alone: anything it shifts
            // past bit 63 is a value wider than 64 bits, not a wrap.
            if shift >= 64 || bits << shift >> shift != bits {
                return Err(self.err(what));
            }
            v |= bits << shift;
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

    /// Reads the string table: each entry checked once, a borrowed
    /// slice of the input buffer, then named by index.
    fn strings_table(&mut self) -> Result<Vec<&'a str>, WireError> {
        // Every entry is at least its length byte.
        let n = self.table_len("strings len", 1)?;
        let mut strings = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.uvar("string")? as usize;
            let end = self.pos.saturating_add(len);
            let bytes = self
                .buf
                .get(self.pos..end)
                .ok_or_else(|| self.err("string"))?;
            strings.push(std::str::from_utf8(bytes).map_err(|_| self.err("string"))?);
            self.pos = end;
        }
        Ok(strings)
    }

    /// Reads the handler-id table, building each id once, as a child of
    /// the entry it names as its parent.
    fn hids_table(&mut self) -> Result<Vec<HandlerId>, WireError> {
        // Every entry is three varints.
        let n = self.table_len("hids len", 3)?;
        let mut hids: Vec<HandlerId> = Vec::with_capacity(n);
        for _ in 0..n {
            let start = self.pos;
            let parent = self.uvar("hid parent")?;
            let (f, op) = (FunctionId(self.u32v("hid fn")?), self.u32v("hid opnum")?);
            // A parent is an earlier entry: no cycle can be written down.
            let h = match parent.checked_sub(1) {
                None => HandlerId::from_path(&[(f, op)]),
                Some(p) => hids.get(p as usize).map(|p| HandlerId::child(p, f, op)),
            };
            hids.push(h.ok_or_else(|| self.err_at(start, "hid parent"))?);
        }
        Ok(hids)
    }

    /// A section's reference into `table`: a handler id, an event or a
    /// row key. (In a value, the sink checks it: [`ValueSink::str`].)
    fn entry<'t, T>(&mut self, table: &'t [T], what: &'static str) -> Result<&'t T, WireError> {
        let at = self.pos;
        let id = self.uvar(what)? as usize;
        table.get(id).ok_or_else(|| self.err_at(at, what))
    }

    /// A map key, in a value or a pool leaf.
    fn key<S: ValueSink>(&mut self, sink: &mut S) -> Result<S::Key, WireError> {
        let at = self.pos;
        let id = self.uvar("map key")? as usize;
        sink.key(id).ok_or_else(|| self.err_at(at, "map key"))
    }

    /// Validates one value, building only `skip`'s string copies, and
    /// returns the bytes it occupies: the borrowed decoder's value path.
    fn raw_value(&mut self, skip: &mut Skip<'_>) -> Result<RawValue<'a>, WireError> {
        let start = self.pos;
        self.walk_value(skip, 0)?;
        Ok(RawValue(&self.buf[start..self.pos]))
    }

    /// The one recursive walk over an encoded value. Every reader of
    /// value bytes — owned decode, validating skip, materialization —
    /// is this function with a different [`ValueSink`], so they all
    /// read the same primitives in the same order: the same
    /// [`Decoder::len`] budget charges, the same reference checks, and
    /// on bad bytes the same positioned [`WireError`].
    fn walk_value<S: ValueSink>(&mut self, sink: &mut S, depth: u32) -> Result<S::Out, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        self.deepest = self.deepest.max(depth);
        let start = self.pos;
        let tag = self.u8("value tag")?;
        match tag {
            0 => Ok(sink.leaf(Value::Null)),
            1 => Ok(sink.leaf(Value::Bool(self.u8("bool")? != 0))),
            2 => Ok(sink.leaf(Value::Int(self.i64("int")?))),
            3 => {
                let id = self.uvar("str")? as usize;
                sink.str(id).ok_or_else(|| self.err_at(start + 1, "str"))
            }
            4 => {
                // Every element is at least one tag byte.
                let n = self.inline_len("list len", 1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.walk_value(sink, depth + 1)?);
                }
                Ok(sink.list(items))
            }
            5 => {
                // Every entry is at least a key byte + value tag.
                // Duplicate wire keys resolve later-wins in every sink
                // that builds a map, exactly as a `BTreeMap::insert`
                // loop would.
                let n = self.inline_len("map len", 2)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.key(sink)?;
                    entries.push((k, self.walk_value(sink, depth + 1)?));
                }
                Ok(sink.map(entries))
            }
            REF => {
                let id = self.uvar("pool ref")? as usize;
                if !self.validated {
                    // A node may be named only after it was read: no
                    // dangling, forward or self reference, so no cycle.
                    let Some(&meta) = self.pool.get(id) else {
                        return Err(self.err_at(start, "pool ref"));
                    };
                    if depth + meta.depth > MAX_VALUE_DEPTH {
                        return Err(self.err_at(start, "value nesting too deep"));
                    }
                    self.deepest = self.deepest.max(depth + meta.depth);
                    self.charge(meta.logical, start)?;
                    self.counts.refs += 1;
                    if self.node.is_none() {
                        self.counts.referred = self.counts.referred.saturating_add(meta.logical);
                    }
                }
                sink.pooled(id)
                    .ok_or_else(|| self.err_at(start, "pool ref"))
            }
            _ => Err(self.err("value tag")),
        }
    }

    /// The declared length of a container written inline in a value.
    /// Inside a pool node it is on the pool's account as well as the
    /// node's.
    fn inline_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        self.counts.inline_containers += 1;
        let start = self.pos;
        let n = self.len(what, min_elem_bytes)?;
        if self.node.is_some() {
            self.pool_wire(n as u64, start)?;
        }
        Ok(n)
    }

    /// Reads the pool section into `sink`'s pool, building each node
    /// through `sink` and the checked node constructors.
    fn pool_section(&mut self, sink: &mut Materializer<'_>) -> Result<(), WireError> {
        let start = self.pos;
        // Every node is at least a kind, a width and one entry.
        let n = self.count("pool len", 3)?;
        self.pool_wire(n as u64, start)?;
        self.pool.reserve(n);
        sink.pool.reserve(n);
        for id in 0..n {
            self.node = Some(u32::try_from(id).unwrap_or(u32::MAX));
            let (node, meta) = self.pool_node(sink)?;
            self.pool.push(meta);
            sink.pool.push(node);
        }
        self.node = None;
        Ok(())
    }

    /// Reads one pool node. Its logical size is what its entries charge
    /// the node budget while they are read — kept apart from the
    /// advice's own count, which pays per reference instead.
    fn pool_node(&mut self, sink: &mut Materializer<'_>) -> Result<(Value, PoolMeta), WireError> {
        let start = self.pos;
        let kind = self.u8("pool node kind")?;
        if kind > LIST_BRANCH {
            return Err(self.err_at(start, "pool node kind"));
        }
        let width = self.uvar("pool node width")? as usize;
        if !(1..=CHUNK).contains(&width) {
            return Err(self.err_at(start, "pool node width"));
        }
        self.pool_wire(width as u64, start)?;
        let advice_nodes = std::mem::replace(&mut self.nodes, 0);
        self.deepest = 0;
        let node = if !is_branch(kind) {
            self.charge(width as u64, start)?;
            if kind == MAP_LEAF {
                let mut entries = Vec::with_capacity(width);
                for _ in 0..width {
                    let k = self.key(sink)?;
                    entries.push((k, self.walk_value(sink, 1)?));
                }
                PMap::checked_leaf(entries).map(Value::Map)
            } else {
                let mut values = Vec::with_capacity(width);
                for _ in 0..width {
                    values.push(self.walk_value(sink, 1)?);
                }
                PList::checked_leaf(values).map(Value::List)
            }
        } else if kind == MAP_BRANCH {
            let mut children = Vec::with_capacity(width);
            for _ in 0..width {
                children.push(self.pool_child(sink, |c| match c {
                    Value::Map(m) => Some(m),
                    _ => None,
                })?);
            }
            PMap::checked_branch(&children).map(Value::Map)
        } else {
            let mut children = Vec::with_capacity(width);
            for _ in 0..width {
                children.push(self.pool_child(sink, |c| match c {
                    Value::List(l) => Some(l),
                    _ => None,
                })?);
            }
            PList::checked_branch(&children).map(Value::List)
        };
        let node = node.map_err(|e| self.err_at(start, e.what()))?;
        let logical = std::mem::replace(&mut self.nodes, advice_nodes);
        let meta = PoolMeta {
            logical,
            depth: self.deepest,
        };
        Ok((node, meta))
    }

    /// Reads a branch's next child: an earlier pool node of the
    /// branch's own kind, charged like a reference to it.
    fn pool_child<T>(
        &mut self,
        sink: &mut Materializer<'_>,
        of_kind: impl Fn(Value) -> Option<T>,
    ) -> Result<T, WireError> {
        let at = self.pos;
        let id = self.uvar("pool child")? as usize;
        let (Some(&meta), Some(child)) = (self.pool.get(id), sink.pooled(id)) else {
            return Err(self.err_at(at, "pool child"));
        };
        self.deepest = self.deepest.max(meta.depth);
        self.charge(meta.logical, at)?;
        of_kind(child).ok_or_else(|| self.err_at(at, "pool child kind"))
    }

    fn rid(&mut self) -> Result<RequestId, WireError> {
        Ok(RequestId(self.uvar("rid")?))
    }

    /// A reference into the handler-id table `hids`, charged the steps
    /// of the path it names, as the path written out in its place was.
    fn hid(&mut self, hids: &[HandlerId]) -> Result<HandlerId, WireError> {
        let at = self.pos;
        let h = self.entry(hids, "hid")?;
        let steps = u64::from(h.depth()) + 1;
        self.charge(steps, at)?;
        self.counts.referred = self.counts.referred.saturating_add(steps);
        Ok(h.clone())
    }

    fn opref(&mut self, hids: &[HandlerId]) -> Result<OpRef, WireError> {
        Ok(OpRef::new(
            self.rid()?,
            self.hid(hids)?,
            self.u32v("opnum")?,
        ))
    }

    fn ktx(&mut self, hids: &[HandlerId]) -> Result<KTxId, WireError> {
        Ok(KTxId {
            rid: self.rid()?,
            hid: self.hid(hids)?,
            opnum: self.u32v("tx opnum")?,
        })
    }

    fn txpos(&mut self, hids: &[HandlerId]) -> Result<TxPos, WireError> {
        Ok(TxPos {
            tx: self.ktx(hids)?,
            index: self.u32v("tx index")?,
        })
    }
}

/// What [`Decoder::walk_value`] hands the parts of a value to. `Out`
/// is what a value becomes and `Key` what a map key becomes. A sink
/// holds the string table its string references name, and checks them
/// against it; one that builds values holds the pool they refer to.
trait ValueSink {
    type Out;
    type Key;
    /// A null, boolean or integer.
    fn leaf(&mut self, v: Value) -> Self::Out;
    /// String `id` of the table, if this sink's table has one.
    fn str(&mut self, id: usize) -> Option<Self::Out>;
    /// String `id` of the table as a map key, if the table has one.
    fn key(&mut self, id: usize) -> Option<Self::Key>;
    fn list(&mut self, items: Vec<Self::Out>) -> Self::Out;
    fn map(&mut self, entries: Vec<(Self::Key, Self::Out)>) -> Self::Out;
    /// The container rooted at pool node `id`, if this sink's pool has
    /// one.
    fn pooled(&mut self, id: usize) -> Option<Self::Out>;
}

/// Validates, building only a copy of each table string it meets, once,
/// in `interner`. Every `Vec` the walk fills is of zero-sized items; a
/// pool reference is the decoder's to check ([`PoolMeta`]).
struct Skip<'s> {
    strings: &'s [&'s str],
    interner: &'s mut ValueInterner,
}

impl ValueSink for Skip<'_> {
    type Out = ();
    type Key = ();
    fn leaf(&mut self, _: Value) {}
    fn str(&mut self, id: usize) -> Option<()> {
        self.interner.intern(self.strings, id).map(|_| ())
    }
    fn key(&mut self, id: usize) -> Option<()> {
        self.str(id)
    }
    fn list(&mut self, _: Vec<()>) {}
    fn map(&mut self, _: Vec<((), ())>) {}
    fn pooled(&mut self, _: usize) -> Option<()> {
        Some(())
    }
}

/// Reads a span back against the view it came from: a string is the
/// copy the view's decode made of it, a container the pool node it
/// names — one `Arc` bump each.
struct Shared<'v> {
    strings: &'v ValueInterner,
    pool: &'v [Value],
}

impl ValueSink for Shared<'_> {
    type Out = Value;
    type Key = Arc<str>;
    fn leaf(&mut self, v: Value) -> Value {
        v
    }
    fn str(&mut self, id: usize) -> Option<Value> {
        self.key(id).map(Value::Str)
    }
    fn key(&mut self, id: usize) -> Option<Arc<str>> {
        self.strings.get(id).cloned()
    }
    fn list(&mut self, items: Vec<Value>) -> Value {
        Value::from_vec(items)
    }
    fn map(&mut self, entries: Vec<(Arc<str>, Value)>) -> Value {
        Value::from_pairs(entries)
    }
    fn pooled(&mut self, id: usize) -> Option<Value> {
        self.pool.get(id).cloned()
    }
}

/// The validated bytes of one encoded value: what the borrowed decoder
/// keeps of a logged value. Only the validating walk makes one, so
/// reading it back ([`RawValue::to_value`]) against the view it was
/// validated into does not fail; against another view, a string or
/// node it names that is not there is a [`WireError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawValue<'a>(&'a [u8]);

impl<'a> RawValue<'a> {
    /// Validates the value encoded at the start of `bytes`, against the
    /// string table `strings` and an empty pool — the walk, budget
    /// charges and errors of [`decode_value_bounded`], building nothing
    /// — and returns the bytes it occupies. For tests: the decoder is
    /// the only product code that makes a `RawValue`.
    #[doc(hidden)]
    pub fn validate(
        bytes: &'a [u8],
        strings: &[&str],
        max_nodes: u64,
    ) -> Result<RawValue<'a>, BoundedDecodeError> {
        let mut d = Decoder::new(bytes);
        d.node_budget = max_nodes;
        let interner = &mut ValueInterner::new();
        d.raw_value(&mut Skip { strings, interner })
            .map_err(|e| bounded(e, max_nodes))
    }

    /// The encoded bytes.
    #[doc(hidden)]
    pub fn bytes(&self) -> &'a [u8] {
        self.0
    }

    /// Decodes into a [`Value`] against `view`, the view this value came
    /// from: a string is the copy its decode made
    /// ([`AdviceView::interned`]), a reference a clone of the pool node
    /// it names.
    pub fn to_value(&self, view: &AdviceView<'_>) -> Result<Value, WireError> {
        let mut sink = Shared {
            strings: &view.interned,
            pool: &view.pool,
        };
        Decoder::validated(self.0).walk_value(&mut sink, 0)
    }
}

impl<'a> Decoder<'a> {
    /// A decoder for reading a [`RawValue`]'s bytes back.
    fn validated(buf: &'a [u8]) -> Self {
        Decoder {
            validated: true,
            ..Decoder::new(buf)
        }
    }
}

/// Decodes the value encoded at the start of `bytes` in one walk,
/// against the string table `strings` and an empty pool and under a
/// node budget, returning it and the number of bytes it occupied. The
/// oracle [`RawValue::validate`] and [`Materializer::value`] are tested
/// against.
#[doc(hidden)]
pub fn decode_value_bounded(
    bytes: &[u8],
    strings: &[&str],
    max_nodes: u64,
) -> Result<(Value, usize), BoundedDecodeError> {
    let mut d = Decoder::new(bytes);
    d.node_budget = max_nodes;
    match d.walk_value(&mut Materializer::new(strings), 0) {
        Ok(v) => Ok((v, d.pos)),
        Err(e) => Err(bounded(e, max_nodes)),
    }
}

/// Builds [`Value`]s over one string table: a string or map key is the
/// copy of its table entry the materializer's own interner made at its
/// first use, and a reference is a clone of the node its pool holds —
/// one `Arc` bump, whatever the container holds. The view decoder
/// builds the pool with one ([`Decoder::pool_section`]) and keeps its
/// interner for the logged values ([`AdviceView::interned`]).
pub struct Materializer<'i> {
    strings: &'i [&'i str],
    interner: ValueInterner,
    pool: Vec<Value>,
}

impl<'i> Materializer<'i> {
    /// A materializer over the string table `strings`, with an empty
    /// pool.
    pub fn new(strings: &'i [&'i str]) -> Self {
        Materializer {
            strings,
            interner: ValueInterner::new(),
            pool: Vec::new(),
        }
    }

    /// The value `raw` encodes, read against this materializer's table
    /// and pool.
    pub fn value(&mut self, raw: RawValue<'_>) -> Result<Value, WireError> {
        Decoder::validated(raw.0).walk_value(self, 0)
    }
}

impl ValueSink for Materializer<'_> {
    type Out = Value;
    type Key = Arc<str>;
    fn leaf(&mut self, v: Value) -> Value {
        v
    }
    fn str(&mut self, id: usize) -> Option<Value> {
        self.key(id).map(Value::Str)
    }
    fn key(&mut self, id: usize) -> Option<Arc<str>> {
        self.interner.intern(self.strings, id).cloned()
    }
    fn list(&mut self, items: Vec<Value>) -> Value {
        Value::from_vec(items)
    }
    fn map(&mut self, entries: Vec<(Arc<str>, Value)>) -> Value {
        Value::from_pairs(entries)
    }
    fn pooled(&mut self, id: usize) -> Option<Value> {
        self.pool.get(id).cloned()
    }
}

/// Per-section advice sizes in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdviceSizes {
    /// Control-flow tags.
    pub tags: usize,
    /// The string table: each distinct string the advice names.
    pub strings: usize,
    /// The handler-id table: each distinct handler id, and its
    /// ancestors.
    pub hids: usize,
    /// Handler logs.
    pub handler_logs: usize,
    /// The value pool: container nodes the later sections refer to.
    pub pool: usize,
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
            + self.strings
            + self.hids
            + self.handler_logs
            + self.pool
            + self.var_logs
            + self.tx_logs
            + self.write_order
            + self.response_emitted_by
            + self.opcounts
            + self.nondet
    }
}

fn encode_tags<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.tags.len() as u64);
    for (rid, tag) in &a.tags {
        e.rid(*rid);
        e.uvar(*tag);
    }
}

fn encode_handler_logs<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.handler_logs.len() as u64);
    for (rid, log) in &a.handler_logs {
        e.rid(*rid);
        e.uvar(log.len() as u64);
        for entry in log {
            let op = match &entry.op {
                HandlerOp::Register { event, function } => HandlerOpView::Register {
                    event,
                    function: *function,
                },
                HandlerOp::Unregister { event, function } => HandlerOpView::Unregister {
                    event,
                    function: *function,
                },
                HandlerOp::Emit { event } => HandlerOpView::Emit { event },
                HandlerOp::Check { event } => HandlerOpView::Check { event },
            };
            e.handler_entry(&entry.hid, entry.opnum, op);
        }
    }
}

fn encode_var_logs<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.var_logs.len() as u64);
    for (var, log) in &a.var_logs {
        e.uvar(var.0 as u64);
        e.uvar(log.len() as u64);
        for (op, entry) in log {
            e.opref(op);
            e.u8(entry.access as u8);
            e.opt(entry.value.as_ref(), Encoder::value);
            e.opt(entry.prec.as_ref(), Encoder::opref);
        }
    }
}

fn encode_tx_logs<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.tx_logs.len() as u64);
    for (tx, log) in &a.tx_logs {
        e.ktx(tx);
        e.uvar(log.len() as u64);
        for entry in log {
            e.tx_head(&entry.hid, entry.opnum, entry.optype, entry.key.as_deref());
            match &entry.contents {
                TxOpContents::None => e.u8(0),
                TxOpContents::Put { value } => {
                    e.u8(1);
                    e.value(value);
                }
                TxOpContents::Get { from } => {
                    e.u8(2);
                    e.opt(from.as_ref(), Encoder::txpos);
                }
            }
        }
    }
}

fn encode_write_order<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.write_order.len() as u64);
    for p in &a.write_order {
        e.txpos(p);
    }
}

fn encode_response_emitted_by<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.response_emitted_by.len() as u64);
    for (rid, (hid, opnum)) in &a.response_emitted_by {
        e.rid(*rid);
        e.hid(hid);
        e.uvar(*opnum as u64);
    }
}

fn encode_opcounts<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.opcounts.len() as u64);
    for ((rid, hid), count) in &a.opcounts {
        e.rid(*rid);
        e.hid(hid);
        e.uvar(*count as u64);
    }
}

fn encode_nondet<'e>(e: &mut Encoder<'e>, a: &'e Advice) {
    e.uvar(a.nondet.len() as u64);
    for (op, v) in &a.nondet {
        e.opref(op);
        e.value(v);
    }
}

/// Encodes the full advice, and measures each section.
fn encode_sections(a: &Advice) -> (Vec<u8>, AdviceSizes) {
    let mut e = Encoder::new();
    let mut ends = Vec::with_capacity(8);
    for section in [
        encode_tags,
        encode_handler_logs,
        encode_var_logs,
        encode_tx_logs,
        encode_write_order,
        encode_response_emitted_by,
        encode_opcounts,
        encode_nondet,
    ] {
        match ends.len() {
            1 => e.tables_here(),
            2 => e.pool_here(),
            _ => {}
        }
        section(&mut e, a);
        ends.push(e.len());
    }
    let (bytes, sizes, [strings, hids, pool]) = e.finish_sections(&ends);
    let sizes = AdviceSizes {
        tags: sizes[0],
        strings,
        hids,
        handler_logs: sizes[1],
        pool,
        var_logs: sizes[2],
        tx_logs: sizes[3],
        write_order: sizes[4],
        response_emitted_by: sizes[5],
        opcounts: sizes[6],
        nondet: sizes[7],
    };
    (bytes, sizes)
}

/// Encodes the full advice.
pub fn encode_advice(a: &Advice) -> Vec<u8> {
    encode_sections(a).0
}

/// Measures each section's encoded size.
pub fn advice_sizes(a: &Advice) -> AdviceSizes {
    encode_sections(a).1
}

/// Decodes into an owned [`Advice`] — the form the collector emits
/// and the structural mutators edit: the view decode, then
/// [`AdviceView::to_advice`].
pub fn decode_advice(bytes: &[u8]) -> Result<Advice, WireError> {
    decode_advice_view(bytes)?.to_advice()
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
/// spans they occupy ([`RawValue`]), every handler id is a clone of its
/// table entry, and the things built are the handler-id table and the
/// value pool the spans refer to. Produced by [`decode_advice_view`];
/// convert with [`AdviceView::to_advice`] or re-serialize with
/// [`AdviceView::encode`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdviceView<'a> {
    /// Control-flow tags.
    pub tags: Vec<(RequestId, u64)>,
    /// The string table: what a string reference names, by index —
    /// here and in the spans and pool.
    pub strings: Vec<&'a str>,
    /// The handler-id table, built: `hids[i]` is entry `i`, sharing its
    /// ancestors with the entries that name them.
    pub hids: Vec<HandlerId>,
    /// Handler logs.
    pub handler_logs: Vec<(RequestId, Vec<HandlerLogEntryView<'a>>)>,
    /// The value pool, built: `pool[id]` is the container rooted at
    /// pool node `id`, sharing its subtrees with every other node that
    /// names them.
    pub pool: Vec<Value>,
    /// A copy of each table string the pool or a logged value names,
    /// made once: what every value read back shares.
    pub interned: ValueInterner,
    /// The pool section's bytes, for [`AdviceView::encode`].
    pub pool_bytes: &'a [u8],
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

/// What a borrowed decode materialized and met — the observable half
/// of the zero-copy claim (the `decode_bytes_copied` metric reads
/// `bytes_copied`) and of the value pool's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// String bytes the view decode copied out of the wire buffer: each
    /// table string the pool or a logged value names, once
    /// ([`AdviceView::interned`]).
    pub bytes_copied: u64,
    /// Entries in the string table.
    pub strings: u64,
    /// Entries in the handler-id table: each a handler id built once.
    pub hids: u64,
    /// Container nodes in the value pool.
    pub pool_nodes: u64,
    /// Value positions holding a reference to a pool node.
    pub pool_refs: u64,
    /// Containers written out inline, in logs and inside pool nodes.
    pub inline_containers: u64,
    /// Elements charged to the node budget: every declared collection
    /// length, a referenced container's at each pool reference and a
    /// path's steps at each handler-id reference.
    pub logical_nodes: u64,
    /// Declared collection elements on the wire: `logical_nodes` less
    /// what references charged, and the pool's own — its node count,
    /// each node's width, each length written inline in a node — once.
    pub wire_nodes: u64,
    /// The pool's own part of `wire_nodes`, which the node budget holds
    /// besides `logical_nodes`: a decode needs the larger of the two.
    pub pool_wire_nodes: u64,
}

/// Decodes advice into a borrowed [`AdviceView`] without copying
/// strings or blobs out of `bytes`, unmetered:
/// [`decode_advice_view_bounded`] with no node budget.
pub fn decode_advice_view(bytes: &[u8]) -> Result<AdviceView<'_>, WireError> {
    decode_advice_view_inner(bytes, u64::MAX).map(|(view, _)| view)
}

fn decode_advice_view_inner(
    bytes: &[u8],
    node_budget: u64,
) -> Result<(AdviceView<'_>, DecodeStats), WireError> {
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

    a.strings = d.strings_table()?;
    a.hids = d.hids_table()?;
    let (strings, hids) = (&a.strings, &a.hids);

    let n = d.len("handler logs len", 2)?;
    a.handler_logs.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        // Every entry carries a hid, an opnum, an op tag and an event.
        let m = d.len("handler log len", 4)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid(hids)?;
            let opnum = d.u32v("hl opnum")?;
            let tag = d.u8("handler op tag")?;
            if tag > 3 {
                return Err(d.err("handler op tag"));
            }
            let event = *d.entry(strings, "event")?;
            let op = match tag {
                0 => HandlerOpView::Register {
                    event,
                    function: FunctionId(d.u32v("function")?),
                },
                1 => HandlerOpView::Unregister {
                    event,
                    function: FunctionId(d.u32v("function")?),
                },
                2 => HandlerOpView::Emit { event },
                _ => HandlerOpView::Check { event },
            };
            log.push(HandlerLogEntryView { hid, opnum, op });
        }
        a.handler_logs.push((rid, log));
    }

    // One interner copies the strings the pool names, then those the
    // logged values name; the view keeps it for reading them back.
    let pool_start = d.pos;
    let mut pool = Materializer::new(strings);
    d.pool_section(&mut pool)?;
    let Materializer { pool, interner, .. } = pool;
    (a.pool, a.interned) = (pool, interner);
    a.pool_bytes = &bytes[pool_start..d.pos];
    let skip = &mut Skip {
        strings,
        interner: &mut a.interned,
    };

    let n = d.len("var logs len", 2)?;
    a.var_logs.reserve(n);
    for _ in 0..n {
        let var = VarId(d.u32v("var id")?);
        // Every entry carries an opref (≥3 bytes) and three tag bytes.
        let m = d.len("var log len", 6)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let op = d.opref(hids)?;
            let access = match d.u8("access tag")? {
                0 => AccessType::Read,
                1 => AccessType::Write,
                _ => return Err(d.err("access tag")),
            };
            let value = match d.u8("value opt")? {
                1 => Some(d.raw_value(skip)?),
                _ => None,
            };
            let prec = match d.u8("prec opt")? {
                1 => Some(d.opref(hids)?),
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
        let tx = d.ktx(hids)?;
        // Every entry carries a hid, an opnum and three tag bytes.
        let m = d.len("tx log len", 5)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let hid = d.hid(hids)?;
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
                1 => Some(*d.entry(strings, "key")?),
                _ => None,
            };
            let contents = match d.u8("contents tag")? {
                0 => TxOpContentsView::None,
                1 => TxOpContentsView::Put {
                    value: d.raw_value(skip)?,
                },
                2 => TxOpContentsView::Get {
                    from: match d.u8("from opt")? {
                        1 => Some(d.txpos(hids)?),
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

    // Every txpos is a ktx (≥3 bytes) plus an index byte.
    let n = d.len("write order len", 4)?;
    a.write_order.reserve(n);
    for _ in 0..n {
        a.write_order.push(d.txpos(hids)?);
    }

    let n = d.len("reb len", 3)?;
    a.response_emitted_by.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid(hids)?;
        let opnum = d.u32v("reb opnum")?;
        a.response_emitted_by.push((rid, (hid, opnum)));
    }

    let n = d.len("opcounts len", 3)?;
    a.opcounts.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let hid = d.hid(hids)?;
        let count = d.u32v("opcount")?;
        a.opcounts.push(((rid, hid), count));
    }

    // Every record is an opref (≥3 bytes) and a value.
    let n = d.len("nondet len", 4)?;
    a.nondet.reserve(n);
    for _ in 0..n {
        let op = d.opref(hids)?;
        let v = d.raw_value(skip)?;
        a.nondet.push((op, v));
    }

    if !d.done() {
        return Err(d.err("trailing bytes"));
    }
    let stats = DecodeStats {
        bytes_copied: a.interned.bytes_copied,
        strings: a.strings.len() as u64,
        hids: a.hids.len() as u64,
        pool_nodes: a.pool.len() as u64,
        pool_refs: d.counts.refs,
        inline_containers: d.counts.inline_containers,
        logical_nodes: d.nodes,
        wire_nodes: d
            .nodes
            .saturating_sub(d.counts.referred)
            .saturating_add(d.counts.pool_wire),
        pool_wire_nodes: d.counts.pool_wire,
    };
    Ok((a, stats))
}

/// How a bounded decode failed: structurally malformed bytes, or
/// well-formed bytes that declared more than the budget allows. The
/// two are different verdicts — malformation is the server lying about
/// the format, exhaustion is the server (or an attacker) trying to make
/// verification itself unaffordable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedDecodeError {
    /// The bytes violate the wire format.
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
    decode_advice_view_inner(bytes, max_nodes).map_err(|e| bounded(e, max_nodes))
}

impl<'a> AdviceView<'a> {
    /// Converts to an owned [`Advice`]. Sections are inserted in wire
    /// order, so duplicate keys resolve later-wins — as
    /// [`crate::VecMap::from_wire`] resolves them for the audit — and
    /// every value span is read back against this view's tables and
    /// pool ([`RawValue::to_value`]).
    pub fn to_advice(&self) -> Result<Advice, WireError> {
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
                let entry = VarLogEntry {
                    access: e.access,
                    value: e.value.map(|v| v.to_value(self)).transpose()?,
                    prec: e.prec.clone(),
                };
                entries.insert(op.clone(), entry);
            }
            a.var_logs.insert(*var, entries);
        }
        for (tx, log) in &self.tx_logs {
            let mut entries = Vec::with_capacity(log.len());
            for e in log {
                entries.push(TxLogEntry {
                    hid: e.hid.clone(),
                    opnum: e.opnum,
                    optype: e.optype,
                    key: e.key.map(str::to_string),
                    contents: match &e.contents {
                        TxOpContentsView::None => TxOpContents::None,
                        TxOpContentsView::Put { value } => TxOpContents::Put {
                            value: value.to_value(self)?,
                        },
                        TxOpContentsView::Get { from } => TxOpContents::Get { from: from.clone() },
                    },
                });
            }
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
            a.nondet.insert(op.clone(), v.to_value(self)?);
        }
        Ok(a)
    }

    /// Re-serializes the view. Sections are written in stored (wire)
    /// order, and the tables start as the ones the view was decoded
    /// from — what a string or handler id not in them names is appended
    /// — so a view decoded from [`encode_advice`] output re-encodes
    /// byte-identically: the round-trip the proptests pin.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.uvar(self.tags.len() as u64);
        for (rid, tag) in &self.tags {
            e.rid(*rid);
            e.uvar(*tag);
        }
        e.tables_here();
        e.tables_of(self);
        e.uvar(self.handler_logs.len() as u64);
        for (rid, log) in &self.handler_logs {
            e.rid(*rid);
            e.uvar(log.len() as u64);
            for entry in log {
                e.handler_entry(&entry.hid, entry.opnum, entry.op);
            }
        }
        if self.pool_bytes.is_empty() {
            // A view built by hand has no pool: an empty section.
            e.uvar(0);
        } else {
            e.buf.extend_from_slice(self.pool_bytes);
        }
        e.uvar(self.var_logs.len() as u64);
        for (var, log) in &self.var_logs {
            e.uvar(var.0 as u64);
            e.uvar(log.len() as u64);
            for (op, entry) in log {
                e.opref(op);
                e.u8(entry.access as u8);
                e.opt(entry.value, Encoder::raw);
                e.opt(entry.prec.as_ref(), Encoder::opref);
            }
        }
        e.uvar(self.tx_logs.len() as u64);
        for (tx, log) in &self.tx_logs {
            e.ktx(tx);
            e.uvar(log.len() as u64);
            for entry in log {
                e.tx_head(&entry.hid, entry.opnum, entry.optype, entry.key);
                match &entry.contents {
                    TxOpContentsView::None => e.u8(0),
                    TxOpContentsView::Put { value } => {
                        e.u8(1);
                        e.raw(*value);
                    }
                    TxOpContentsView::Get { from } => {
                        e.u8(2);
                        e.opt(from.as_ref(), Encoder::txpos);
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

/// The encoded advice bytes an audit runs over, held in one heap
/// buffer: handed over in memory, or read whole from an advice file.
/// The verifier only ever sees `&[u8]` (via [`AdviceSource::bytes`]).
#[derive(Debug)]
pub struct AdviceSource(Vec<u8>);

impl AdviceSource {
    /// Wraps an in-memory advice buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> AdviceSource {
        AdviceSource(bytes)
    }

    /// Reads an advice file into memory. The `bool` is read by nothing
    /// (a parameter cannot be `#[doc(hidden)]`): kept for
    /// `benchmark/src/adapter.rs`, removed by ROADMAP item 1 step 1.
    pub fn open(path: &std::path::Path, _: bool) -> std::io::Result<AdviceSource> {
        Ok(AdviceSource(std::fs::read(path)?))
    }

    /// The encoded advice bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the advice in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the advice is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
        let err = owned(&mut d).unwrap_err();
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
        let err = owned(&mut d).unwrap_err();
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
        // Layout: tags len (0), empty string and handler-id tables,
        // handler logs len (1), rid (0), log len.
        let idx = 5;
        assert_eq!(bytes[idx], 0);
        bytes[idx] = 0x7f;
        let err = decode_advice(&bytes).unwrap_err();
        assert_eq!(err.what, "handler log len");
        assert_eq!(err.offset, idx);
    }

    #[test]
    fn view_round_trips() {
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
        assert_eq!(
            view.to_advice(),
            Ok(a),
            "view conversion is the advice encoded"
        );
        // Each string and handler id once, however often named.
        assert_eq!((stats.strings, stats.hids), (2, 2));
        assert_eq!(view.strings, ["e", "repeated-payload"]);
    }

    fn owned(d: &mut Decoder<'_>) -> Result<Value, WireError> {
        d.walk_value(&mut Materializer::new(&[]), 0)
    }

    /// Advice holding nothing but `writes`, one variable's log.
    fn writes(values: &[Value]) -> Advice {
        let hid = HandlerId::root(FunctionId(0));
        let mut a = Advice::default();
        let log = a.var_logs.entry(VarId(0)).or_default();
        for (i, v) in values.iter().enumerate() {
            log.insert(
                OpRef::new(RequestId(i as u64), hid.clone(), 1),
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(v.clone()),
                    prec: None,
                },
            );
        }
        a
    }

    /// A map grown one entry at a time, every version kept — MOTD's
    /// `motd_history`: each version shares all but one path with the
    /// last.
    fn grown_maps(n: usize) -> Vec<Value> {
        let entry = |i: usize| {
            Value::map([
                ("msg", Value::str(format!("message {i}"))),
                (
                    "tags",
                    Value::list([Value::int(i as i64), Value::str("pinned")]),
                ),
            ])
        };
        let mut m = PMap::new();
        (0..n)
            .map(|i| {
                m = m.insert(Arc::from(format!("day-{i:03}")), entry(i));
                Value::Map(m.clone())
            })
            .collect()
    }

    #[test]
    fn each_distinct_node_crosses_the_wire_once() {
        let values = grown_maps(40);
        let advice = writes(&values);
        let bytes = encode_advice(&advice);
        let (view, stats) = decode_advice_view_bounded(&bytes, u64::MAX).unwrap();
        assert_eq!(view.to_advice(), Ok(advice));
        assert_eq!(view.encode(), bytes);
        // Written out in full, version k costs its k entries: 820
        // entries of some 40 bytes each. The pool holds each of the 40
        // entries once and one new path of nodes per version.
        let flat: usize = values.iter().map(|v| v.approx_size()).sum();
        assert!(
            bytes.len() * 8 < flat,
            "{} bytes vs {flat} flat",
            bytes.len()
        );
        // One reference per logged version, and per entry of each new
        // leaf — not per entry of each version.
        assert!((80..600).contains(&stats.pool_refs), "{}", stats.pool_refs);
        assert!(stats.pool_nodes < 40 * 4, "{} pool nodes", stats.pool_nodes);
        // What the budget is charged is what the flat form declared:
        // one log, 40 entries and their hid paths, then per version k
        // its k entries, each a 2-entry map holding a 2-element list.
        assert_eq!(stats.logical_nodes, 1 + 40 + 40 + 820 * (1 + 2 + 2));
        assert!(stats.wire_nodes * 4 < stats.logical_nodes);
    }

    #[test]
    fn sharing_survives_the_wire() {
        let bytes = encode_advice(&writes(&grown_maps(80)));
        let view = decode_advice_view(&bytes).unwrap();
        let decoded: Vec<Value> = view.var_logs[0]
            .1
            .iter()
            .filter_map(|(_, e)| e.value.map(|raw| raw.to_value(&view).unwrap()))
            .collect();
        assert_eq!(decoded, grown_maps(80));
        // Successive versions differ in one child of the root at most
        // (two when a leaf splits); every other child is one allocation.
        for pair in decoded.windows(2) {
            let (Value::Map(a), Value::Map(b)) = (&pair[0], &pair[1]) else {
                panic!("maps");
            };
            let before: Vec<usize> = a.root().children().map(|c| c.addr()).collect();
            let kept = b
                .root()
                .children()
                .filter(|c| before.contains(&c.addr()))
                .count();
            assert!(kept + 1 >= before.len(), "{kept} of {}", before.len());
        }
    }

    #[test]
    fn equal_nodes_built_apart_are_one_pool_node() {
        // No `Arc` in common, equal content: the second is a reference
        // to the first, and so is a third nested in a list.
        let one = || Value::map([("a", Value::int(1)), ("b", Value::str("two"))]);
        let advice = writes(&[one(), one(), Value::list([one(), Value::Null])]);
        let bytes = encode_advice(&advice);
        let (view, stats) = decode_advice_view_bounded(&bytes, u64::MAX).unwrap();
        assert_eq!((stats.pool_nodes, stats.pool_refs), (1, 3));
        assert_eq!(view.to_advice(), Ok(advice));
        let value = |i: usize| view.var_logs[0].1[i].1.value.unwrap().to_value(&view);
        let (Ok(Value::Map(first)), Some(Value::Map(nested))) = (
            value(0),
            value(2).unwrap().as_list().and_then(|l| l.get(0).cloned()),
        ) else {
            panic!("maps");
        };
        assert!(first.ptr_eq(&nested));
    }

    #[test]
    fn containers_met_once_stay_inline() {
        // Nothing repeats: the pool is its one-byte header, and the
        // values are written as they always were.
        let values = [
            Value::map([("k", Value::list([Value::int(1), Value::int(2)]))]),
            Value::list((0..40).map(Value::int)),
            Value::empty_map(),
            Value::empty_map(),
        ];
        let bytes = encode_advice(&writes(&values));
        let (_, stats) = decode_advice_view_bounded(&bytes, u64::MAX).unwrap();
        assert_eq!((stats.pool_nodes, stats.pool_refs), (0, 0));
        assert_eq!(stats.inline_containers, 5);
        // All is declared on the wire but the four one-step handler ids.
        assert_eq!(stats.logical_nodes, stats.wire_nodes + 4);
        let mut e = Encoder::new();
        e.value(&values[1]);
        let flat = e.finish();
        assert_eq!(flat[..2], [4, 40]);
        assert!(bytes.windows(flat.len()).any(|w| w == flat));
    }

    #[test]
    fn encoding_is_a_function_of_the_advice() {
        let a = encode_advice(&writes(&grown_maps(50)));
        let b = encode_advice(&writes(&grown_maps(50)));
        assert_eq!(a, b);
        let sizes = advice_sizes(&writes(&grown_maps(50)));
        assert_eq!(sizes.total(), a.len());
        assert!(sizes.pool > sizes.var_logs);
    }

    /// The strings of the table [`pooled`] writes.
    const A: u8 = 0;
    const B: u8 = 1;

    /// Advice that is a pool of `nodes` and one nondet record holding
    /// `value`, over the string table `a`, `b` and the handler-id table
    /// `h0.0`. The pool starts at byte 12.
    fn pooled(nodes: &[&[u8]], value: &[u8]) -> Vec<u8> {
        let mut bytes = vec![0, 2, 1, b'a', 1, b'b', 1, 0, 0, 0, 0, nodes.len() as u8];
        for node in nodes {
            bytes.extend_from_slice(node);
        }
        bytes.extend_from_slice(&[0, 0, 0, 0, 0, 1]);
        // (r0, h0.0, 1)
        bytes.extend_from_slice(&[0, 0, 1]);
        bytes.extend_from_slice(value);
        bytes
    }

    fn decode(bytes: &[u8], max_nodes: u64) -> Result<Advice, BoundedDecodeError> {
        let (view, _) = decode_advice_view_bounded(bytes, max_nodes)?;
        view.to_advice().map_err(BoundedDecodeError::Malformed)
    }

    fn malformed(bytes: &[u8]) -> (usize, &'static str, Option<u32>) {
        match decode(bytes, u64::MAX) {
            Err(BoundedDecodeError::Malformed(e)) => (e.offset, e.what, e.node),
            other => panic!("expected a malformed pool, got {other:?}"),
        }
    }

    #[test]
    fn a_hand_built_pool_decodes() {
        // 0: {a: 1}   1: {b: [0]}   2: branch(0, 1)   3: list [ref 2, ref 2]
        let nodes: [&[u8]; 4] = [
            &[MAP_LEAF, 1, A, 2, 2],
            &[MAP_LEAF, 1, B, 4, 1, 2, 0],
            &[MAP_BRANCH, 2, 0, 1],
            &[LIST_LEAF, 2, REF, 2, REF, 2],
        ];
        let advice = decode(&pooled(&nodes, &[REF, 3]), u64::MAX).unwrap();
        let both = Value::map([("a", Value::int(1)), ("b", Value::list([Value::int(0)]))]);
        assert_eq!(
            advice.nondet.values().next(),
            Some(&Value::list([both.clone(), both]))
        );
        // nondet len + the hid's one step, then the list's 2 + twice the
        // map's (1 + 1 + the inner list's 1). On the wire: the nondet
        // len, the pool's 4 nodes, their widths and the inner list's
        // length.
        let (_, stats) = decode_advice_view_bounded(&pooled(&nodes, &[REF, 3]), 11).unwrap();
        assert_eq!(stats.logical_nodes, 2 + 2 + 2 * 3);
        assert_eq!(stats.wire_nodes, 1 + 4 + (1 + 1 + 2 + 2) + 1);
        // The pool's own elements run out at a node's width, before the
        // node is built.
        for (limit, offset) in [(10, 28), (8, 24)] {
            assert_eq!(
                decode(&pooled(&nodes, &[REF, 3]), limit),
                Err(BoundedDecodeError::NodesExhausted { offset, limit })
            );
        }
    }

    #[test]
    fn pool_nodes_nothing_refers_to_are_not_free() {
        // A value that names no pool node: two logical elements. The
        // pool's own — its 30 nodes and what each declares — are held
        // against the budget apart from them, whatever the node's kind.
        let leaf = [&[LIST_LEAF, 16][..], &[0; 16]].concat();
        let holding_a_list: &[u8] = &[
            LIST_LEAF, 1, 4, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        let mut branches: Vec<&[u8]> = vec![&[MAP_BRANCH, 1, 0]; 30];
        branches[0] = &[MAP_LEAF, 1, A, 0];
        for (nodes, pool) in [
            (vec![&leaf[..]; 30], 30 + 30 * 16),
            (vec![holding_a_list; 30], 30 + 30 * (1 + 15)),
            (branches, 30 + 30),
        ] {
            let bytes = pooled(&nodes, &[0]);
            let (_, stats) = decode_advice_view_bounded(&bytes, pool).unwrap();
            assert_eq!((stats.logical_nodes, stats.wire_nodes), (2, 1 + pool));
            assert!(matches!(
                decode(&bytes, pool - 1),
                Err(BoundedDecodeError::NodesExhausted { .. })
            ));
        }
        // The count is charged before room is made for that many nodes.
        let mut flood = pooled(&[], &[0]);
        flood[11] = 100;
        flood.resize(400, 0);
        assert!(matches!(
            decode(&flood, 99),
            Err(BoundedDecodeError::NodesExhausted {
                offset: 11,
                limit: 99
            })
        ));
    }

    #[test]
    fn table_entries_nothing_names_are_not_free() {
        // Two strings and a handler id against two logical elements:
        // the entries are held against the budget apart from them, at
        // each table's count, before room is made for the entries.
        let bytes = pooled(&[], &[0]);
        assert!(decode(&bytes, 3).is_ok());
        for (limit, offset) in [(2, 6), (1, 1)] {
            assert_eq!(
                decode(&bytes, limit),
                Err(BoundedDecodeError::NodesExhausted { offset, limit })
            );
        }
    }

    #[test]
    fn pool_violations_are_positioned_and_name_the_node() {
        let leaf_a: &[u8] = &[MAP_LEAF, 1, A, 0];
        let leaf_b: &[u8] = &[MAP_LEAF, 1, B, 0];
        let list: &[u8] = &[LIST_LEAF, 1, 0];
        // The pool starts at byte 12; `leaf_a` is 4 bytes.
        for (nodes, value, expect) in [
            // References: dangling, to itself, forward.
            (vec![leaf_a], &[REF, 1][..], (25, "pool ref", None)),
            (
                vec![&[LIST_LEAF, 1, REF, 0][..]],
                &[0][..],
                (14, "pool ref", Some(0)),
            ),
            (
                vec![&[MAP_BRANCH, 1, 1][..], leaf_a],
                &[0],
                (14, "pool child", Some(0)),
            ),
            // Widths.
            (
                vec![&[MAP_LEAF, 0][..]],
                &[0],
                (12, "pool node width", Some(0)),
            ),
            (
                vec![&[LIST_BRANCH, 17][..]],
                &[0],
                (12, "pool node width", Some(0)),
            ),
            (vec![&[4, 1, 0][..]], &[0], (12, "pool node kind", Some(0))),
            // Keys: within a leaf, and across siblings.
            (
                vec![&[MAP_LEAF, 2, B, 0, A, 0][..]],
                &[0],
                (12, "pool node key order", Some(0)),
            ),
            (
                vec![leaf_b, leaf_a, &[MAP_BRANCH, 2, 0, 1][..]],
                &[0],
                (20, "pool node key order", Some(2)),
            ),
            (
                vec![leaf_a, &[MAP_BRANCH, 2, 0, 0][..]],
                &[0],
                (16, "pool node key order", Some(1)),
            ),
            // Kinds and heights.
            (
                vec![leaf_a, list, &[MAP_BRANCH, 2, 0, 1][..]],
                &[0],
                (22, "pool child kind", Some(2)),
            ),
            (
                vec![
                    leaf_a,
                    leaf_b,
                    &[MAP_BRANCH, 1, 1][..],
                    &[MAP_BRANCH, 2, 0, 2][..],
                ],
                &[0],
                (23, "pool node children of unequal height", Some(3)),
            ),
        ] {
            assert_eq!(malformed(&pooled(&nodes, value)), expect, "{nodes:?}");
        }
    }

    #[test]
    fn a_pool_that_describes_more_than_the_budget_is_exhaustion() {
        // Node k is a list holding node k-1 twice: 40 nodes, 160 bytes,
        // 2^41 elements.
        let mut nodes: Vec<Vec<u8>> = vec![vec![LIST_LEAF, 2, 0, 0]];
        for k in 1..40u8 {
            nodes.push(vec![LIST_LEAF, 2, REF, k - 1, REF, k - 1]);
        }
        let nodes: Vec<&[u8]> = nodes.iter().map(Vec::as_slice).collect();
        let bytes = pooled(&nodes, &[REF, 39]);
        let limit = crate::Limits::default().decode_max_nodes;
        let started = std::time::Instant::now();
        assert!(matches!(
            decode(&bytes, limit),
            Err(BoundedDecodeError::NodesExhausted { .. })
        ));
        assert!(started.elapsed() < std::time::Duration::from_millis(10));
        // Unmetered it decodes, in 40 allocations: the value is a DAG
        // (and comparing two copies of it would take 2^41 steps).
        let advice = decode_advice(&bytes).unwrap();
        let mut v = advice.nondet.values().next().unwrap();
        for _ in 0..39 {
            v = v.as_list().unwrap().get(1).unwrap();
        }
        assert_eq!(v, &Value::list([Value::Null, Value::Null]));
        // Nested past the guard through references, it is malformed at
        // the reference that goes too deep.
        let mut nodes: Vec<Vec<u8>> = vec![vec![LIST_LEAF, 1, 0]];
        for k in 1..=64u8 {
            nodes.push(vec![LIST_LEAF, 1, REF, k - 1]);
        }
        let nodes: Vec<&[u8]> = nodes.iter().map(Vec::as_slice).collect();
        assert!(decode(&pooled(&nodes[..64], &[REF, 63]), u64::MAX).is_ok());
        let (_, what, node) = malformed(&pooled(&nodes, &[REF, 63]));
        assert_eq!((what, node), ("value nesting too deep", Some(64)));
    }

    #[test]
    fn table_violations_are_positioned() {
        // `pooled(&[], value)`: tables at 1..10, the nondet record's hid
        // at 19, its value at 21.
        let with = |at: Range<usize>, bytes: &[u8]| {
            let mut advice = pooled(&[], &[0]);
            advice.splice(at, bytes.iter().copied());
            advice
        };
        for (bytes, expect) in [
            // References past the end of a table.
            (pooled(&[], &[3, 2]), (22, "str")),
            (pooled(&[], &[5, 1, 2, 0]), (23, "map key")),
            (with(19..20, &[1]), (19, "hid")),
            // A parent that is the entry itself, or comes after it.
            (with(7..8, &[1]), (7, "hid parent")),
            (with(6..10, &[2, 2, 0, 0, 1, 0, 0]), (7, "hid parent")),
            // Entries that are not there, or not UTF-8.
            (with(1..2, &[0x7f]), (1, "strings len")),
            (with(6..7, &[0x7f]), (6, "hids len")),
            (with(3..4, &[0xff]), (3, "string")),
        ] {
            assert_eq!(malformed(&bytes), (expect.0, expect.1, None), "{bytes:?}");
        }
        assert!(decode(&pooled(&[], &[3, 1]), u64::MAX).is_ok());
    }

    #[test]
    fn a_handler_id_reference_is_charged_its_path() {
        let mut deep = HandlerId::root(FunctionId(0));
        for op in 1..4 {
            deep = HandlerId::child(&deep, FunctionId(op), op);
        }
        let mut a = Advice::default();
        for rid in 0..3 {
            a.opcounts.insert((RequestId(rid), deep.clone()), 1);
        }
        let bytes = encode_advice(&a);
        let (view, stats) = decode_advice_view_bounded(&bytes, u64::MAX).unwrap();
        // The chain crosses once; each of the three references costs
        // the four steps it was written out as.
        assert_eq!(stats.hids, 4);
        assert_eq!(view.hids[3], deep);
        assert!(view.hids[2].is_ancestor_of(&deep));
        assert_eq!(stats.logical_nodes, 3 + 3 * 4);
        assert!(matches!(
            decode(&bytes, 14),
            Err(BoundedDecodeError::NodesExhausted { limit: 14, .. })
        ));
    }

    #[test]
    fn varints_wider_than_64_bits_are_rejected() {
        let max = [[0xff; 9].as_slice(), &[0x01]].concat();
        assert_eq!(Decoder::new(&max).uvar("v"), Ok(u64::MAX));
        // Bits past 63 in the tenth byte, or an eleventh byte.
        for bytes in [
            [[0xff; 9].as_slice(), &[0x7f]].concat(),
            [[0x80; 9].as_slice(), &[0x02]].concat(),
            [[0x80; 10].as_slice(), &[0x00]].concat(),
        ] {
            let err = Decoder::new(&bytes).uvar("v").unwrap_err();
            assert_eq!((err.offset, err.what), (bytes.len(), "v"));
        }
    }

    #[test]
    fn the_error_every_read_returns_stays_small() {
        assert!(std::mem::size_of::<WireError>() <= 32);
    }

    #[test]
    fn zigzag_negative_ints() {
        let mut e = Encoder::new();
        e.value(&Value::Int(i64::MIN));
        e.value(&Value::Int(-1));
        e.value(&Value::Int(i64::MAX));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(owned(&mut d).unwrap(), Value::Int(i64::MIN));
        assert_eq!(owned(&mut d).unwrap(), Value::Int(-1));
        assert_eq!(owned(&mut d).unwrap(), Value::Int(i64::MAX));
    }
}
