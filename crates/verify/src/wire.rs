//! The advice wire format, and its decoder.
//!
//! The evaluation's Figure 8 reports the *size of the advice sent from
//! the server to the verifier*; this module defines the bytes that
//! would cross that wire: a small self-contained tag-length-value codec,
//! round-trip property-tested. The server side (the `karousos` crate's
//! `wire`) writes these bytes with the tags and node kinds defined here.
//!
//! **Tables and the value pool** (DESIGN.md §20). Advice names a few
//! hundred distinct strings and a few dozen handler ids tens of
//! thousands of times, and successive versions of a logged value (a
//! [`kem_lang::pvalue`] tree) share all but one root-to-leaf path. Each
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
//! There is **one** section walk, [`decode_advice_view_bounded`]: it
//! builds a borrowed [`AdviceView`] — what every audit decodes. Each
//! table entry is checked and built once — a string stays a slice of
//! the input, a handler path is built once in a [`HidTable`], whichever
//! entries write it — and a reference is a bounds-checked index. A
//! handler-id reference is read as its path's rank there, a `u32`, so
//! the view's coordinates are plain integers ([`OpAt`]). The pool is
//! built once, through the checked constructors of [`kem_lang::pvalue`],
//! and each logged value is built in the walk that validates it: the
//! view keeps the [`Value`] beside the bytes it occupies ([`RawValue`]),
//! which a re-encode of the view copies back verbatim. The decode also
//! settles what a keyed section means: it leaves each in ascending key
//! order, a repeated key keeping its last occurrence (`by_key`). The
//! verifier's working form ([`crate::AdviceRef::from_view`]) borrows
//! the view as it is; the server side also converts it to owned advice,
//! and back to bytes, borrowing each handler id from the table.
//!
//! Values have **one** reader, `Decoder::walk_value`, and one builder,
//! the decode's `Materializer`: a string or map key is the copy of its
//! table entry made at its first use, once per decode, in the
//! materializer's [`ValueInterner`]; an inline container is built off
//! one scratch kept for the whole decode; a pool reference is a clone
//! of the node the pool section built — one `Arc` bump. The node budget
//! charges a reference what it would have cost written out in place — a
//! pool reference its container's elements (`Decoder::charge`), a
//! handler-id reference its path's steps, a string reference nothing —
//! so it keeps counting *logical* elements; what the tables and the pool
//! section themselves declare is held against the same budget apart from
//! them (`Decoder::table_len`, `Decoder::pool_wire`).

use std::sync::Arc;

use kem_lang::pvalue::{PList, PMap, CHUNK};
use kem_lang::{FunctionId, RequestId, TxOpKind, Value, ValueInterner, VarId};

use crate::advice::{AccessType, OpAt};
use crate::hids::{HidTable, Interner};

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

/// Pool node kind: a map leaf. The low bit says branch, the next list.
pub const MAP_LEAF: u8 = 0;
/// Pool node kind: a map branch.
pub const MAP_BRANCH: u8 = 1;
/// Pool node kind: a list leaf.
pub const LIST_LEAF: u8 = 2;
/// Pool node kind: a list branch.
pub const LIST_BRANCH: u8 = 3;

/// Whether a pool node of `kind` is a branch.
pub fn is_branch(kind: u8) -> bool {
    kind & 1 == 1
}

/// Value tag: null.
pub const NULL: u8 = 0;
/// Value tag: a boolean byte follows.
pub const BOOL: u8 = 1;
/// Value tag: a zigzag integer follows.
pub const INT: u8 = 2;
/// Value tag: a string reference follows.
pub const STR: u8 = 3;
/// Value tag: a list written out inline.
pub const LIST: u8 = 4;
/// Value tag: a map written out inline.
pub const MAP: u8 = 5;
/// Value tag: a reference to a pool node.
pub const REF: u8 = 6;

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
    /// funnels through `Decoder::len`, every pool reference adds what
    /// its container holds (`Decoder::charge`) and every handler-id
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
    counts: ValueCounts,
    /// The handler-id table read so far: each entry's path rank in
    /// `paths`.
    hids: Vec<u32>,
    paths: HidTable,
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
            counts: ValueCounts::default(),
            hids: Vec::new(),
            paths: HidTable::default(),
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

    /// Reads the handler-id table: each distinct path built once, with
    /// its rank ([`HidTable`]), and each entry as its path's rank — two
    /// entries of one path share it.
    fn hids_table(&mut self) -> Result<(), WireError> {
        // Every entry is three varints.
        let n = self.table_len("hids len", 3)?;
        let mut paths = Interner::with_capacity(n);
        // Entry → its path's interned id.
        let mut interned: Vec<u32> = Vec::with_capacity(n);
        for _ in 0..n {
            let start = self.pos;
            let parent = self.uvar("hid parent")?.checked_sub(1);
            let (f, op) = (FunctionId(self.u32v("hid fn")?), self.u32v("hid opnum")?);
            // A parent is an earlier entry: no cycle can be written down.
            let parent = match parent.map(|p| interned.get(p as usize)) {
                Some(None) => return Err(self.err_at(start, "hid parent")),
                known => known.flatten().copied(),
            };
            interned.push(paths.intern(parent, f, op));
        }
        let (table, ranks) = paths.finish();
        for id in &mut interned {
            *id = ranks[*id as usize];
        }
        (self.hids, self.paths) = (interned, table);
        Ok(())
    }

    /// A section's reference into `table`: a handler id, an event or a
    /// row key. (In a value, the materializer checks it.)
    fn entry<'t, T>(&mut self, table: &'t [T], what: &'static str) -> Result<&'t T, WireError> {
        let at = self.pos;
        let id = self.uvar(what)? as usize;
        table.get(id).ok_or_else(|| self.err_at(at, what))
    }

    /// A map key, in a value or a pool leaf.
    fn key(&mut self, m: &mut Materializer<'_>) -> Result<Arc<str>, WireError> {
        let at = self.pos;
        let id = self.uvar("map key")? as usize;
        m.string(id).ok_or_else(|| self.err_at(at, "map key"))
    }

    /// Reads one logged value: the value built, and the bytes it
    /// occupies.
    fn raw_value(&mut self, m: &mut Materializer<'_>) -> Result<RawValue<'a>, WireError> {
        let start = self.pos;
        let value = self.walk_value(m, 0)?;
        Ok(RawValue {
            bytes: &self.buf[start..self.pos],
            value,
        })
    }

    /// The one recursive walk over an encoded value, building it with
    /// `m` as it validates it: every value on the wire — a pool leaf's
    /// entries, a logged value, the oracle [`decode_value_bounded`] — is
    /// read by this function, with the same `Decoder::len` budget
    /// charges, the same reference checks, and on bad bytes the same
    /// positioned [`WireError`].
    fn walk_value(&mut self, m: &mut Materializer<'_>, depth: u32) -> Result<Value, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        self.deepest = self.deepest.max(depth);
        let start = self.pos;
        let tag = self.u8("value tag")?;
        match tag {
            NULL => Ok(Value::Null),
            BOOL => Ok(Value::Bool(self.u8("bool")? != 0)),
            INT => Ok(Value::Int(self.i64("int")?)),
            STR => {
                let id = self.uvar("str")? as usize;
                m.string(id)
                    .map(Value::Str)
                    .ok_or_else(|| self.err_at(start + 1, "str"))
            }
            LIST => {
                // Every element is at least one tag byte.
                let n = self.inline_len("list len", 1)?;
                for _ in 0..n {
                    let item = self.walk_value(m, depth + 1)?;
                    m.items.push(item);
                }
                let from = m.items.len().saturating_sub(n);
                Ok(Value::List(PList::from_exact(m.items.drain(from..))))
            }
            MAP => {
                // Every entry is at least a key byte + value tag.
                // Duplicate wire keys resolve later-wins, exactly as a
                // `BTreeMap::insert` loop would.
                let n = self.inline_len("map len", 2)?;
                for _ in 0..n {
                    let k = self.key(m)?;
                    let v = self.walk_value(m, depth + 1)?;
                    m.entries.push((k, v));
                }
                let from = m.entries.len().saturating_sub(n);
                Ok(Value::Map(PMap::take_pairs(&mut m.entries, from)))
            }
            REF => {
                let id = self.uvar("pool ref")? as usize;
                // A node may be named only after it was read: no
                // dangling, forward or self reference, so no cycle.
                let (Some(&meta), Some(node)) = (self.pool.get(id), m.pool.get(id)) else {
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
                Ok(node.clone())
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

    /// Reads the pool section into `m`'s pool, building each node
    /// through `m` and the checked node constructors.
    fn pool_section(&mut self, m: &mut Materializer<'_>) -> Result<(), WireError> {
        let start = self.pos;
        // Every node is at least a kind, a width and one entry.
        let n = self.count("pool len", 3)?;
        self.pool_wire(n as u64, start)?;
        self.pool.reserve(n);
        m.pool.reserve(n);
        for id in 0..n {
            self.node = Some(u32::try_from(id).unwrap_or(u32::MAX));
            let (node, meta) = self.pool_node(m)?;
            self.pool.push(meta);
            m.pool.push(node);
        }
        self.node = None;
        Ok(())
    }

    /// Reads one pool node. Its logical size is what its entries charge
    /// the node budget while they are read — kept apart from the
    /// advice's own count, which pays per reference instead.
    fn pool_node(&mut self, m: &mut Materializer<'_>) -> Result<(Value, PoolMeta), WireError> {
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
            // The leaf's entries go on the scratch, and come off it
            // straight into the node.
            if kind == MAP_LEAF {
                for _ in 0..width {
                    let k = self.key(m)?;
                    let v = self.walk_value(m, 1)?;
                    m.entries.push((k, v));
                }
                let entries = &mut m.entries;
                let from = entries.len().saturating_sub(width);
                PMap::checked_leaf(entries.drain(from..)).map(Value::Map)
            } else {
                for _ in 0..width {
                    let item = self.walk_value(m, 1)?;
                    m.items.push(item);
                }
                let items = &mut m.items;
                let from = items.len().saturating_sub(width);
                PList::checked_leaf(items.drain(from..)).map(Value::List)
            }
        } else if kind == MAP_BRANCH {
            m.maps.clear();
            for _ in 0..width {
                let child = self.pool_child(&m.pool, |c| match c {
                    Value::Map(map) => Some(map.clone()),
                    _ => None,
                })?;
                m.maps.push(child);
            }
            PMap::checked_branch(&m.maps).map(Value::Map)
        } else {
            m.lists.clear();
            for _ in 0..width {
                let child = self.pool_child(&m.pool, |c| match c {
                    Value::List(list) => Some(list.clone()),
                    _ => None,
                })?;
                m.lists.push(child);
            }
            PList::checked_branch(&m.lists).map(Value::List)
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
        pool: &[Value],
        of_kind: impl Fn(&Value) -> Option<T>,
    ) -> Result<T, WireError> {
        let at = self.pos;
        let id = self.uvar("pool child")? as usize;
        let (Some(&meta), Some(child)) = (self.pool.get(id), pool.get(id)) else {
            return Err(self.err_at(at, "pool child"));
        };
        self.deepest = self.deepest.max(meta.depth);
        self.charge(meta.logical, at)?;
        of_kind(child).ok_or_else(|| self.err_at(at, "pool child kind"))
    }

    fn rid(&mut self) -> Result<RequestId, WireError> {
        Ok(RequestId(self.uvar("rid")?))
    }

    /// A reference into the handler-id table, as its path's rank,
    /// charged the steps of the path, as the path written out in its
    /// place was.
    fn hid(&mut self) -> Result<u32, WireError> {
        let at = self.pos;
        let id = self.uvar("hid")? as usize;
        let Some(&rank) = self.hids.get(id) else {
            return Err(self.err_at(at, "hid"));
        };
        let steps = self.paths.id(rank).map_or(1, |h| u64::from(h.depth()) + 1);
        self.charge(steps, at)?;
        self.counts.referred = self.counts.referred.saturating_add(steps);
        Ok(rank)
    }

    /// An operation coordinate, its opnum read as `what`.
    fn op_at(&mut self, what: &'static str) -> Result<OpAt, WireError> {
        Ok(OpAt::new(self.rid()?, self.hid()?, self.u32v(what)?))
    }

    /// A transaction position: the transaction's id and an index into
    /// its log.
    fn txpos(&mut self) -> Result<(OpAt, u32), WireError> {
        Ok((self.op_at("tx opnum")?, self.u32v("tx index")?))
    }
}

/// One logged value as the decoder read it: the [`Value`] it builds,
/// and the bytes it occupies, which a re-encode of the view copies back
/// verbatim. Only the decoder makes one ([`decode_value_bounded`]
/// outside a whole decode), so the two always agree.
#[derive(Debug, Clone, PartialEq)]
pub struct RawValue<'a> {
    bytes: &'a [u8],
    value: Value,
}

impl<'a> RawValue<'a> {
    /// The encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The value the bytes build.
    pub fn value(&self) -> &Value {
        &self.value
    }
}

/// Decodes the value encoded at the start of `bytes` in one walk,
/// against the string table `strings` and an empty pool and under a
/// node budget: the value and the bytes it occupied. The oracle a
/// view's logged values are tested against, and the one way to make a
/// logged value outside a whole decode.
#[doc(hidden)]
pub fn decode_value_bounded<'a>(
    bytes: &'a [u8],
    strings: &[&str],
    max_nodes: u64,
) -> Result<RawValue<'a>, BoundedDecodeError> {
    let mut d = Decoder::new(bytes);
    d.node_budget = max_nodes;
    d.raw_value(&mut Materializer::new(strings))
        .map_err(|e| bounded(e, max_nodes))
}

/// Builds the [`Value`]s of one decode over one string table: a string
/// or map key is the copy of its table entry made at its first use, and
/// a reference is a clone of the node its pool holds — one `Arc` bump,
/// whatever the container holds. A container under construction keeps
/// its elements on `items` or `entries`, innermost last, and takes its
/// own off the top when it is done, collected straight into its nodes
/// (one allocation per leaf); the buffers keep their capacity for the
/// next container, so a decode has one scratch, not a `Vec` per
/// container.
struct Materializer<'i> {
    strings: &'i [&'i str],
    interner: ValueInterner,
    pool: Vec<Value>,
    items: Vec<Value>,
    entries: Vec<(Arc<str>, Value)>,
    /// A pool branch's children, while it is read.
    maps: Vec<PMap>,
    lists: Vec<PList>,
}

impl<'i> Materializer<'i> {
    /// A materializer over the string table `strings`, with an empty
    /// pool.
    fn new(strings: &'i [&'i str]) -> Self {
        Materializer {
            strings,
            interner: ValueInterner::new(),
            pool: Vec::new(),
            items: Vec::new(),
            entries: Vec::new(),
            maps: Vec::new(),
            lists: Vec::new(),
        }
    }

    /// The copy of string `id` of the table, if the table has one.
    fn string(&mut self, id: usize) -> Option<Arc<str>> {
        self.interner.intern(self.strings, id).cloned()
    }
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
    /// The handler that performed the operation, by path rank.
    pub path: u32,
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
    pub prec: Option<OpAt>,
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
        /// The alleged source write position: its transaction and its
        /// index in that log.
        from: Option<(OpAt, u32)>,
    },
}

/// Borrowed mirror of [`crate::advice::TxLogEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct TxLogEntryView<'a> {
    /// The handler that performed the operation, by path rank.
    pub path: u32,
    /// Its operation number.
    pub opnum: u32,
    /// The operation type.
    pub optype: TxOpKind,
    /// The key, for `GET`/`PUT`.
    pub key: Option<&'a str>,
    /// Type-specific contents.
    pub contents: TxOpContentsView<'a>,
}

/// A zero-copy view of decoded advice: every keyed section is a `Vec`
/// in ascending key order, each key once (`by_key`), the entries of a
/// handler or transaction log and the write order stay in wire order,
/// strings borrow the input buffer, every handler-id reference
/// is its path's rank in `paths`, read once by the decoder, and the
/// things built are the handler paths, the value pool and the logged
/// values, each beside the span it was read from ([`RawValue`]).
/// A [`HandlerId`](kem_lang::HandlerId) is borrowed from `paths` only
/// to render one, or to re-encode the view. Produced by
/// [`decode_advice_view`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdviceView<'a> {
    /// Control-flow tags.
    pub tags: Vec<(RequestId, u64)>,
    /// The string table: what a string reference names, by index —
    /// here and in the spans and pool.
    pub strings: Vec<&'a str>,
    /// The handler-id table: `hids[i]` is entry `i`'s path rank in
    /// `paths`.
    pub hids: Vec<u32>,
    /// The distinct paths of the handler-id table, ranked: every rank
    /// in the view indexes it.
    pub paths: Arc<HidTable>,
    /// Handler logs.
    pub handler_logs: Vec<(RequestId, Vec<HandlerLogEntryView<'a>>)>,
    /// The value pool, built: `pool[id]` is the container rooted at
    /// pool node `id`, sharing its subtrees with every other node that
    /// names them — and with every logged value that refers to it.
    pub pool: Vec<Value>,
    /// The pool section's bytes, for a re-encode of the view.
    pub pool_bytes: &'a [u8],
    /// Variable logs, each in ascending key order too.
    pub var_logs: Vec<(VarId, Vec<(OpAt, VarLogEntryView<'a>)>)>,
    /// Transaction logs, each keyed by its `tx_start`.
    pub tx_logs: Vec<(OpAt, Vec<TxLogEntryView<'a>>)>,
    /// The alleged whole-run write order: transaction and log index.
    pub write_order: Vec<(OpAt, u32)>,
    /// `responseEmittedBy`: the emitter's path rank, and its opnum.
    pub response_emitted_by: Vec<(RequestId, (u32, u32))>,
    /// Per-(request, handler path rank) operation counts.
    pub opcounts: Vec<((RequestId, u32), u32)>,
    /// Nondeterminism log.
    pub nondet: Vec<(OpAt, RawValue<'a>)>,
}

/// What a borrowed decode materialized and met — the observable half
/// of the zero-copy claim (the `decode_bytes_copied` metric reads
/// `bytes_copied`) and of the value pool's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// String bytes the view decode copied out of the wire buffer: each
    /// table string the pool or a logged value names, once.
    pub bytes_copied: u64,
    /// Entries in the string table.
    pub strings: u64,
    /// Entries in the handler-id table.
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
    by_key(&mut a.tags);

    a.strings = d.strings_table()?;
    d.hids_table()?;
    let strings = &a.strings;

    let n = d.len("handler logs len", 2)?;
    a.handler_logs.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        // Every entry carries a hid, an opnum, an op tag and an event.
        let m = d.len("handler log len", 4)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let path = d.hid()?;
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
            log.push(HandlerLogEntryView { path, opnum, op });
        }
        a.handler_logs.push((rid, log));
    }
    by_key(&mut a.handler_logs);

    // One materializer builds the pool, then every logged value, which
    // shares the pool's nodes and the string copies made for it.
    let pool_start = d.pos;
    let values = &mut Materializer::new(strings);
    d.pool_section(values)?;
    a.pool_bytes = &bytes[pool_start..d.pos];

    let n = d.len("var logs len", 2)?;
    a.var_logs.reserve(n);
    for _ in 0..n {
        let var = VarId(d.u32v("var id")?);
        // Every entry carries an opref (≥3 bytes) and three tag bytes.
        let m = d.len("var log len", 6)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let op = d.op_at("opnum")?;
            let access = match d.u8("access tag")? {
                0 => AccessType::Read,
                1 => AccessType::Write,
                _ => return Err(d.err("access tag")),
            };
            let value = match d.u8("value opt")? {
                1 => Some(d.raw_value(values)?),
                _ => None,
            };
            let prec = match d.u8("prec opt")? {
                1 => Some(d.op_at("opnum")?),
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
        by_key(&mut log);
        a.var_logs.push((var, log));
    }
    by_key(&mut a.var_logs);

    let n = d.len("tx logs len", 2)?;
    a.tx_logs.reserve(n);
    for _ in 0..n {
        let tx = d.op_at("tx opnum")?;
        // Every entry carries a hid, an opnum and three tag bytes.
        let m = d.len("tx log len", 5)?;
        let mut log = Vec::with_capacity(m);
        for _ in 0..m {
            let path = d.hid()?;
            let opnum = d.u32v("txl opnum")?;
            let optype = match d.u8("optype tag")? {
                0 => TxOpKind::Start,
                1 => TxOpKind::Get,
                2 => TxOpKind::Put,
                3 => TxOpKind::Commit,
                4 => TxOpKind::Abort,
                _ => return Err(d.err("optype tag")),
            };
            let key = match d.u8("key opt")? {
                1 => Some(*d.entry(strings, "key")?),
                _ => None,
            };
            let contents = match d.u8("contents tag")? {
                0 => TxOpContentsView::None,
                1 => TxOpContentsView::Put {
                    value: d.raw_value(values)?,
                },
                2 => TxOpContentsView::Get {
                    from: match d.u8("from opt")? {
                        1 => Some(d.txpos()?),
                        _ => None,
                    },
                },
                _ => return Err(d.err("contents tag")),
            };
            log.push(TxLogEntryView {
                path,
                opnum,
                optype,
                key,
                contents,
            });
        }
        a.tx_logs.push((tx, log));
    }
    by_key(&mut a.tx_logs);

    // Every txpos is a ktx (≥3 bytes) plus an index byte.
    let n = d.len("write order len", 4)?;
    a.write_order.reserve(n);
    for _ in 0..n {
        a.write_order.push(d.txpos()?);
    }

    let n = d.len("reb len", 3)?;
    a.response_emitted_by.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let path = d.hid()?;
        let opnum = d.u32v("reb opnum")?;
        a.response_emitted_by.push((rid, (path, opnum)));
    }
    by_key(&mut a.response_emitted_by);

    let n = d.len("opcounts len", 3)?;
    a.opcounts.reserve(n);
    for _ in 0..n {
        let rid = d.rid()?;
        let path = d.hid()?;
        let count = d.u32v("opcount")?;
        a.opcounts.push(((rid, path), count));
    }
    by_key(&mut a.opcounts);

    // Every record is an opref (≥3 bytes) and a value.
    let n = d.len("nondet len", 4)?;
    a.nondet.reserve(n);
    for _ in 0..n {
        let op = d.op_at("opnum")?;
        let v = d.raw_value(values)?;
        a.nondet.push((op, v));
    }
    by_key(&mut a.nondet);

    if !d.done() {
        return Err(d.err("trailing bytes"));
    }
    (a.hids, a.paths) = (d.hids, Arc::new(d.paths));
    a.pool = std::mem::take(&mut values.pool);
    let stats = DecodeStats {
        bytes_copied: values.interner.bytes_copied,
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

/// Leaves a keyed section in ascending key order, each key once: a
/// repeated key keeps its last occurrence, as inserting the entries
/// into a map in wire order does — the one place the advice's
/// duplicate-key rule is applied. Honest advice is already ascending,
/// which costs one comparison per entry.
fn by_key<K: Ord, V>(section: &mut Vec<(K, V)>) {
    if section.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    section.sort_by(|a, b| a.0.cmp(&b.0));
    section.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
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
/// budget in `Decoder::len` stops a single huge length claim, and
/// `max_nodes` stops death-by-a-thousand small collections across
/// nesting levels.
pub fn decode_advice_view_bounded(
    bytes: &[u8],
    max_nodes: u64,
) -> Result<(AdviceView<'_>, DecodeStats), BoundedDecodeError> {
    decode_advice_view_inner(bytes, max_nodes).map_err(|e| bounded(e, max_nodes))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn owned(d: &mut Decoder<'_>) -> Result<Value, WireError> {
        d.walk_value(&mut Materializer::new(&[]), 0)
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
    fn huge_list_length_inside_value_is_rejected() {
        // Value tag 4 (list) + declared length far beyond the buffer.
        let bytes = [4u8, 0xff, 0xff, 0xff, 0xff, 0x0f];
        let mut d = Decoder::new(&bytes);
        let err = owned(&mut d).unwrap_err();
        assert_eq!(err.what, "list len");
        assert_eq!(err.offset, 1);
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
}
