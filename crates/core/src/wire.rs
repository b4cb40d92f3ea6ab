//! The advice encoder: the bytes the server sends, in the format the
//! verifier's [`karousos_verify::wire`] defines and decodes.
//!
//! The encoder finds repeats by identity first — the `Arc` behind a
//! string, handler id or node — and by content second, and numbers
//! table entries and pool nodes in the order it first needs them, so
//! [`encode_advice`] stays a pure function of the advice. One set of
//! section writers reads either an owned [`Advice`] or the collector's
//! finished tables (`Collector::finish_encoded`): both are
//! walked in key order, so the same advice makes the same bytes. The
//! identity maps are keyed by what the server made — addresses, and
//! [`HandlerId`]'s precomputed hash, which a request moves only through
//! opnums — and hash cheaply (`crate::idhash`);
//! what a client chooses — string contents and value trees — is hashed
//! with randomly keyed SipHash, so it cannot be steered into collisions
//! that would make an encode quadratic. A decoded
//! [`AdviceView`] converts back to an owned [`Advice`] for the editors
//! and structural mutators ([`AdviceViewExt::to_advice`];
//! [`decode_advice`] is the decode plus that), and back to bytes in
//! stored order for hostile-bytes generators ([`AdviceViewExt::encode`]).

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

pub use karousos_verify::wire::*;
use karousos_verify::{HidTable, OpAt};
use kem::pvalue::{ListNodeRef, MapNodeRef};
use kem::{HandlerId, OpRef, RequestId, TxOpKind, Value, VarId};

use crate::advice::{
    Advice, HandlerLogEntry, HandlerOp, KTxId, TxLogEntry, TxOpContents, TxPos, VarLogEntry,
};
use crate::collector::{AdviceTables, Row};
use crate::idhash::IdMap;

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
    by_addr: IdMap<usize, usize>,
    /// Keys the hash of a node's key: drawn at random for each encoder,
    /// so the content of logged values, which a client chooses, cannot
    /// be steered into equal hashes.
    keys: RandomState,
    /// The latest node with each key hash; the rest chain through
    /// [`CanonNode::same_hash`]. The key hash is keyed, so the map only
    /// spreads it.
    by_hash: IdMap<u64, usize>,
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
    by_addr: IdMap<(usize, usize), usize>,
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
        let next = self.count;
        let i = *self.by_content.entry(s).or_insert(next);
        if i == next {
            self.append(s);
        }
        if shared {
            self.by_addr.insert(addr(s), i);
        }
        i
    }

    /// A new entry, even if an equal one is in the table.
    fn push(&mut self, s: &'e str) -> usize {
        self.by_content.entry(s).or_insert(self.count);
        self.append(s)
    }

    /// Writes `s` into the table as its next entry.
    fn append(&mut self, s: &str) -> usize {
        put_uvar(&mut self.table, s.len() as u64);
        self.table.extend_from_slice(s.as_bytes());
        self.count += 1;
        self.count - 1
    }
}

/// Each distinct handler id once, after its parent. An id hashes and
/// compares by pointer first, so one map finds clones and equals alike.
#[derive(Debug, Default)]
struct Hids<'e> {
    index: IdMap<&'e HandlerId, usize>,
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
/// [`Encoder::finish`] writes at `Encoder::tables_here`. Containers
/// are not written where `Encoder::value` meets them: the buffer gets
/// a hole naming the container's canonical root, and
/// [`Encoder::finish`] — which by then knows every use of every node —
/// fills it with the container inline or with a reference into the
/// pool it writes at `Encoder::pool_here`.
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
pub fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
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

    /// Makes room in the maps for `values` values and `hids` handler ids.
    fn reserve(&mut self, values: usize, hids: usize) {
        self.canon.by_addr.reserve(values);
        self.canon.by_hash.reserve(values);
        self.strings.by_addr.reserve(values);
        self.strings.by_content.reserve(values);
        self.hids.index.reserve(hids);
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
        for h in view.hids.iter().filter_map(|rank| view.paths.id(*rank)) {
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
            Value::Null => self.u8(NULL),
            Value::Bool(b) => {
                self.u8(BOOL);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(INT);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(STR);
                self.str(s, true);
            }
            // All empty containers are one static node; a reference to
            // it would be longer than writing it out.
            Value::List(l) if l.is_empty() => self.buf.extend_from_slice(&[LIST, 0]),
            Value::Map(m) if m.is_empty() => self.buf.extend_from_slice(&[MAP, 0]),
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
        let mut hasher = canon.keys.build_hasher();
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
    fn raw(&mut self, v: &RawValue<'_>) {
        self.buf.extend_from_slice(v.bytes());
    }

    /// A logged value of a view, verbatim; a null for an index the
    /// view's value table lacks, which only a view edited by hand holds.
    fn logged(&mut self, v: Option<&RawValue<'_>>) {
        match v {
            Some(v) => self.raw(v),
            None => self.u8(NULL),
        }
    }

    fn rid(&mut self, r: RequestId) {
        self.uvar(r.0);
    }

    fn hid(&mut self, h: &'e HandlerId) {
        let i = self.hids.index(h);
        self.uvar(i as u64);
    }

    /// A handler by its path rank in `paths`, the table of the view
    /// being re-encoded. A rank past the table, which no decoded view
    /// holds, is written as an index past every table.
    fn path(&mut self, paths: &'e HidTable, rank: u32) {
        match paths.id(rank) {
            Some(h) => self.hid(h),
            None => self.uvar(u64::MAX),
        }
    }

    /// [`Encoder::opref`] of a view's coordinate.
    fn op_at(&mut self, paths: &'e HidTable, at: &OpAt) {
        self.rid(at.rid);
        self.path(paths, at.path);
        self.uvar(at.opnum as u64);
    }

    /// [`Encoder::txpos`] of a view's transaction position.
    fn tx_at(&mut self, paths: &'e HidTable, (tx, index): &(OpAt, u32)) {
        self.op_at(paths, tx);
        self.uvar(*index as u64);
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

    /// A handler-log entry after its handler.
    fn handler_entry(&mut self, opnum: u32, op: HandlerOpView<'e>) {
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

    /// A transaction-log entry after its handler, up to its contents.
    /// Access and operation types are written as their declaration
    /// order.
    fn tx_head(&mut self, opnum: u32, optype: TxOpKind, key: Option<&'e str>) {
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
            out.push(if node.kind < LIST_LEAF { MAP } else { LIST });
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

/// What a section writer walks: entries it counts on a copy first.
trait Items<T>: Iterator<Item = T> + Clone {}

impl<T, I: Iterator<Item = T> + Clone> Items<T> for I {}

/// The advice as the section writers read it: each section's entries
/// in key order, borrowed for the encode. The owned [`Advice`] and the
/// collector's tables are both read this way, so one set of writers
/// makes the bytes of either.
trait Sections<'e>: Copy {
    fn tags(self) -> impl Items<(RequestId, u64)>;
    fn handler_logs(self) -> impl Items<(RequestId, &'e [HandlerLogEntry])>;
    fn var_logs(
        self,
    ) -> impl Iterator<Item = (VarId, impl Items<(&'e OpRef, &'e VarLogEntry)>)> + Clone;
    fn tx_logs(self) -> impl Items<(&'e KTxId, &'e [TxLogEntry])>;
    fn write_order(self) -> &'e [TxPos];
    fn response_emitted_by(self) -> impl Items<(RequestId, &'e HandlerId, u32)>;
    fn opcounts(self) -> impl Items<(RequestId, &'e HandlerId, u32)>;
    fn nondet(self) -> impl Items<(RequestId, &'e HandlerId, u32, &'e Value)>;
}

impl<'e> Sections<'e> for &'e Advice {
    fn tags(self) -> impl Items<(RequestId, u64)> {
        self.tags.iter().map(|(rid, tag)| (*rid, *tag))
    }

    fn handler_logs(self) -> impl Items<(RequestId, &'e [HandlerLogEntry])> {
        (self.handler_logs.iter()).map(|(rid, log)| (*rid, log.as_slice()))
    }

    fn var_logs(
        self,
    ) -> impl Iterator<Item = (VarId, impl Items<(&'e OpRef, &'e VarLogEntry)>)> + Clone {
        self.var_logs.iter().map(|(var, log)| (*var, log.iter()))
    }

    fn tx_logs(self) -> impl Items<(&'e KTxId, &'e [TxLogEntry])> {
        self.tx_logs.iter().map(|(tx, log)| (tx, log.as_slice()))
    }

    fn write_order(self) -> &'e [TxPos] {
        &self.write_order
    }

    fn response_emitted_by(self) -> impl Items<(RequestId, &'e HandlerId, u32)> {
        (self.response_emitted_by.iter()).map(|(rid, (hid, opnum))| (*rid, hid, *opnum))
    }

    fn opcounts(self) -> impl Items<(RequestId, &'e HandlerId, u32)> {
        self.opcounts.iter().map(|((rid, hid), n)| (*rid, hid, *n))
    }

    fn nondet(self) -> impl Items<(RequestId, &'e HandlerId, u32, &'e Value)> {
        self.nondet
            .iter()
            .map(|(op, v)| (op.rid, &op.hid, op.opnum, v))
    }
}

impl<'e> Sections<'e> for &'e AdviceTables {
    fn tags(self) -> impl Items<(RequestId, u64)> {
        rows(self).filter_map(|(rid, row)| row.met.then_some((rid, row.tag)))
    }

    fn handler_logs(self) -> impl Items<(RequestId, &'e [HandlerLogEntry])> {
        rows(self)
            .filter(|(_, row)| !row.handler_log.is_empty())
            .map(|(rid, row)| (rid, row.handler_log.as_slice()))
    }

    fn var_logs(
        self,
    ) -> impl Iterator<Item = (VarId, impl Items<(&'e OpRef, &'e VarLogEntry)>)> + Clone {
        (self.var_logs.iter()).map(|(var, log)| (*var, log.iter().map(|(op, e)| (op, e))))
    }

    fn tx_logs(self) -> impl Items<(&'e KTxId, &'e [TxLogEntry])> {
        self.tx_logs.iter().map(|(tx, log)| (tx, log.as_slice()))
    }

    fn write_order(self) -> &'e [TxPos] {
        &self.write_order
    }

    fn response_emitted_by(self) -> impl Items<(RequestId, &'e HandlerId, u32)> {
        rows(self).filter_map(|(rid, row)| {
            let (hid, opnum) = row.response.as_ref()?;
            Some((rid, hid, *opnum))
        })
    }

    fn opcounts(self) -> impl Items<(RequestId, &'e HandlerId, u32)> {
        rows(self).flat_map(|(rid, row)| row.opcounts.iter().map(move |(hid, n)| (rid, hid, *n)))
    }

    fn nondet(self) -> impl Items<(RequestId, &'e HandlerId, u32, &'e Value)> {
        rows(self).flat_map(|(rid, row)| {
            (row.nondet.iter()).map(move |((hid, opnum), v)| (rid, hid, *opnum, v))
        })
    }
}

/// The tables' rows with their request ids.
fn rows(t: &AdviceTables) -> impl Items<(RequestId, &Row)> {
    (t.rows.iter().enumerate()).map(|(rid, row)| (RequestId(rid as u64), row))
}

impl<'e> Encoder<'e> {
    /// A section or a log: how many items, then each as `put` writes it.
    fn list<T>(&mut self, items: impl Items<T>, mut put: impl FnMut(&mut Self, T)) {
        self.uvar(items.clone().count() as u64);
        for item in items {
            put(self, item);
        }
    }
}

/// What a handler-log operation is on the wire.
fn op_view(op: &HandlerOp) -> HandlerOpView<'_> {
    match op {
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
    }
}

/// Encodes the full advice, and measures each section.
fn encode_sections<'e>(a: impl Sections<'e>) -> (Vec<u8>, AdviceSizes) {
    let mut e = Encoder::new();
    // Size the maps from the entry counts: every logged value may bring
    // a container and a string, every activation its handler id.
    let logged = a.var_logs().map(|(_, log)| log.count()).sum::<usize>();
    let puts = a.tx_logs().map(|(_, log)| log.len()).sum::<usize>();
    e.reserve(logged + puts + a.nondet().count(), a.opcounts().count());
    let mut ends = Vec::with_capacity(8);
    e.list(a.tags(), |e, (rid, tag)| {
        e.rid(rid);
        e.uvar(tag);
    });
    ends.push(e.len());
    e.tables_here();
    e.list(a.handler_logs(), |e, (rid, log)| {
        e.rid(rid);
        e.list(log.iter(), |e, entry| {
            e.hid(&entry.hid);
            e.handler_entry(entry.opnum, op_view(&entry.op));
        });
    });
    ends.push(e.len());
    e.pool_here();
    e.list(a.var_logs(), |e, (var, log)| {
        e.uvar(var.0 as u64);
        e.list(log, |e, (op, entry)| {
            e.opref(op);
            e.u8(entry.access as u8);
            e.opt(entry.value.as_ref(), Encoder::value);
            e.opt(entry.prec.as_ref(), Encoder::opref);
        });
    });
    ends.push(e.len());
    e.list(a.tx_logs(), |e, (tx, log)| {
        e.ktx(tx);
        e.list(log.iter(), |e, entry| {
            e.hid(&entry.hid);
            e.tx_head(entry.opnum, entry.optype, entry.key.as_deref());
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
        });
    });
    ends.push(e.len());
    e.list(a.write_order().iter(), Encoder::txpos);
    ends.push(e.len());
    e.list(a.response_emitted_by(), |e, (rid, hid, opnum)| {
        e.rid(rid);
        e.hid(hid);
        e.uvar(opnum as u64);
    });
    ends.push(e.len());
    e.list(a.opcounts(), |e, (rid, hid, count)| {
        e.rid(rid);
        e.hid(hid);
        e.uvar(count as u64);
    });
    ends.push(e.len());
    e.list(a.nondet(), |e, (rid, hid, opnum, v)| {
        e.rid(rid);
        e.hid(hid);
        e.uvar(opnum as u64);
        e.value(v);
    });
    ends.push(e.len());
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

/// Encodes the collector's finished tables: the bytes
/// [`encode_advice`] makes of the advice they hold.
pub(crate) fn encode_tables(t: &AdviceTables) -> Vec<u8> {
    encode_sections(t).0
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
/// [`AdviceViewExt::to_advice`].
pub fn decode_advice(bytes: &[u8]) -> Result<Advice, WireError> {
    Ok(decode_advice_view(bytes)?.to_advice())
}

/// What the server side does with a decoded [`AdviceView`].
pub trait AdviceViewExt {
    /// Converts to an owned [`Advice`]: the view's sections, each key
    /// once as the decoder left it, with every logged value a clone of
    /// the one the decode built (a null for an index the view's value
    /// table lacks).
    fn to_advice(&self) -> Advice;

    /// Re-serializes the view. Sections are written in stored order —
    /// a view edited to repeat a key or put keys out of order writes
    /// them so — and the tables start as the ones the view was decoded
    /// from — what a string or handler id not in them names is appended
    /// — so a view decoded from [`encode_advice`] output re-encodes
    /// byte-identically: the round-trip the proptests pin.
    fn encode(&self) -> Vec<u8>;
}

impl AdviceViewExt for AdviceView<'_> {
    fn to_advice(&self) -> Advice {
        let (mut a, paths) = (Advice::default(), &self.paths);
        for (rid, tag) in &self.tags {
            a.tags.insert(*rid, *tag);
        }
        for (rid, log) in self.handler_logs.iter() {
            let entries = log
                .iter()
                .map(|e| HandlerLogEntry {
                    hid: paths.hid(e.path),
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
        let txpos = |(tx, index): &(OpAt, u32)| TxPos {
            tx: paths.tx_id(tx),
            index: *index,
        };
        let value = |raw: &RawValue<'_>| raw.value().clone();
        let logged = |id: u32| self.value(id).map_or(Value::Null, value);
        for (var, log) in &self.var_logs {
            let mut entries = BTreeMap::new();
            for (op, e) in log {
                let entry = VarLogEntry {
                    access: e.access,
                    value: e.value.map(logged),
                    prec: e.prec.map(|prec| paths.op_ref(&prec)),
                };
                entries.insert(paths.op_ref(op), entry);
            }
            a.var_logs.insert(*var, entries);
        }
        for (tx, log) in self.tx_logs.iter() {
            let mut entries = Vec::with_capacity(log.len());
            for e in log {
                entries.push(TxLogEntry {
                    hid: paths.hid(e.path),
                    opnum: e.opnum,
                    optype: e.optype,
                    key: e.key.map(str::to_string),
                    contents: match &e.contents {
                        TxOpContentsView::None => TxOpContents::None,
                        TxOpContentsView::Put { value } => TxOpContents::Put {
                            value: logged(*value),
                        },
                        TxOpContentsView::Get { from } => TxOpContents::Get {
                            from: from.as_ref().map(txpos),
                        },
                    },
                });
            }
            a.tx_logs.insert(paths.tx_id(tx), entries);
        }
        a.write_order = self.write_order.iter().map(txpos).collect();
        for (rid, (path, opnum)) in &self.response_emitted_by {
            a.response_emitted_by
                .insert(*rid, (paths.hid(*path), *opnum));
        }
        for ((rid, path), count) in &self.opcounts {
            a.opcounts.insert((*rid, paths.hid(*path)), *count);
        }
        for (op, v) in &self.nondet {
            a.nondet.insert(paths.op_ref(op), value(v));
        }
        a
    }

    fn encode(&self) -> Vec<u8> {
        let (mut e, paths) = (Encoder::new(), &*self.paths);
        e.uvar(self.tags.len() as u64);
        for (rid, tag) in &self.tags {
            e.rid(*rid);
            e.uvar(*tag);
        }
        e.tables_here();
        e.tables_of(self);
        e.uvar(self.handler_logs.index.len() as u64);
        for (rid, log) in self.handler_logs.iter() {
            e.rid(*rid);
            e.uvar(log.len() as u64);
            for entry in log {
                e.path(paths, entry.path);
                e.handler_entry(entry.opnum, entry.op);
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
                e.op_at(paths, op);
                e.u8(entry.access as u8);
                let value = entry.value.map(|id| self.value(id));
                e.opt(value.as_ref(), |e, value| e.logged(*value));
                e.opt(entry.prec.as_ref(), |e, prec| e.op_at(paths, prec));
            }
        }
        e.uvar(self.tx_logs.index.len() as u64);
        for (tx, log) in self.tx_logs.iter() {
            e.op_at(paths, tx);
            e.uvar(log.len() as u64);
            for entry in log {
                e.path(paths, entry.path);
                e.tx_head(entry.opnum, entry.optype, entry.key);
                match &entry.contents {
                    TxOpContentsView::None => e.u8(0),
                    TxOpContentsView::Put { value } => {
                        e.u8(1);
                        e.logged(self.value(*value));
                    }
                    TxOpContentsView::Get { from } => {
                        e.u8(2);
                        e.opt(from.as_ref(), |e, p| e.tx_at(paths, p));
                    }
                }
            }
        }
        e.uvar(self.write_order.len() as u64);
        for p in &self.write_order {
            e.tx_at(paths, p);
        }
        e.uvar(self.response_emitted_by.len() as u64);
        for (rid, (path, opnum)) in &self.response_emitted_by {
            e.rid(*rid);
            e.path(paths, *path);
            e.uvar(*opnum as u64);
        }
        e.uvar(self.opcounts.len() as u64);
        for ((rid, path), count) in &self.opcounts {
            e.rid(*rid);
            e.path(paths, *path);
            e.uvar(*count as u64);
        }
        e.uvar(self.nondet.len() as u64);
        for (op, v) in &self.nondet {
            e.op_at(paths, op);
            e.raw(v);
        }
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::AccessType;
    use kem::{FunctionId, PMap, VarId};
    use std::sync::Arc;

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
                    optype: TxOpKind::Start,
                    key: None,
                    contents: TxOpContents::None,
                },
                TxLogEntry {
                    hid: child.clone(),
                    opnum: 2,
                    optype: TxOpKind::Get,
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
        assert_eq!(view.to_advice(), a, "view conversion is the advice encoded");
        // Each string and handler id once, however often named.
        assert_eq!((stats.strings, stats.hids), (2, 2));
        assert_eq!(view.strings, ["e", "repeated-payload"]);
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
        assert_eq!(view.to_advice(), advice);
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
            .filter_map(|(_, e)| view.value(e.value?).map(|raw| raw.value().clone()))
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
        assert_eq!(view.to_advice(), advice);
        let value = |i: usize| {
            view.value(view.var_logs[0].1[i].1.value?)
                .map(RawValue::value)
        };
        let (Some(Value::Map(first)), Some(Value::Map(nested))) = (
            value(0),
            value(2).and_then(Value::as_list).and_then(|l| l.get(0)),
        ) else {
            panic!("maps");
        };
        assert!(first.ptr_eq(nested));
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
        Ok(view.to_advice())
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
        assert_eq!(view.paths.id(view.hids[3]), Some(&deep));
        assert!(view.paths.id(view.hids[2]).unwrap().is_ancestor_of(&deep));
        assert_eq!(stats.logical_nodes, 3 + 3 * 4);
        assert!(matches!(
            decode(&bytes, 14),
            Err(BoundedDecodeError::NodesExhausted { limit: 14, .. })
        ));
    }

    #[test]
    fn zigzag_negative_ints() {
        let mut e = Encoder::new();
        e.value(&Value::Int(i64::MIN));
        e.value(&Value::Int(-1));
        e.value(&Value::Int(i64::MAX));
        let mut bytes = &e.finish()[..];
        for expect in [i64::MIN, -1, i64::MAX] {
            let raw = decode_value_bounded(bytes, &[], u64::MAX).unwrap();
            assert_eq!(raw.value(), &Value::Int(expect));
            bytes = &bytes[raw.bytes().len()..];
        }
    }
}
