//! The KJS value type.
//!
//! KJS (the application language interpreted by this crate) models "a
//! core of JavaScript" (paper §5): null, booleans, 64-bit integers,
//! strings, lists, and string-keyed maps. Values are immutable; updates
//! produce new values (the interpreter exposes functional update
//! expressions such as `MapInsert`). Maps are ordered so that equality,
//! display, and iteration are deterministic — a requirement for
//! deterministic replay. Since PR 8 the containers are persistent
//! ([`PMap`]/[`PList`], DESIGN.md §12): a functional update path-copies
//! O(log n) chunked nodes and structurally shares the rest, instead of
//! cloning the whole container.

use crate::pvalue::{PList, PMap};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A KJS runtime value.
// The manual `PartialEq` below is semantically identical to a derived
// one (the container `ptr_eq` checks are pure shortcuts), so the
// derived `Hash` stays consistent with equality.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The absent value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (KJS has no floats; the evaluation
    /// applications never need them).
    Int(i64),
    /// An immutable string.
    Str(Arc<str>),
    /// A list of values. Persistent and chunked: cloning is O(1); the
    /// functional-update operators path-copy O(log n) nodes.
    List(PList),
    /// A string-keyed ordered map. Persistent like lists: a counted
    /// B-tree over `Arc`-shared nodes with `Arc<str>` keys.
    Map(PMap),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    #[inline]
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Builds a map value from `(key, value)` pairs; on duplicate keys
    /// the later pair wins.
    pub fn map<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(PMap::from_pairs(
            pairs
                .into_iter()
                .map(|(k, v)| (Arc::<str>::from(k.into().as_str()), v)),
        ))
    }

    /// Builds a map value from pairs with already-shared keys: the
    /// allocation-free counterpart of [`Value::map`].
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Arc<str>, Value)>) -> Value {
        Value::Map(PMap::from_pairs(pairs))
    }

    /// Builds a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Builds a map value from an ordered map (keys are re-shared as
    /// `Arc<str>`).
    pub fn from_map(m: BTreeMap<String, Value>) -> Value {
        Value::Map(PMap::from_sorted_pairs(
            m.into_iter()
                .map(|(k, v)| (Arc::<str>::from(k.as_str()), v)),
        ))
    }

    /// Builds a list value from a vector.
    pub fn from_vec(v: Vec<Value>) -> Value {
        Value::List(PList::from_exact(v))
    }

    /// Empty map. Allocation-free: every empty map shares one static
    /// root node.
    pub fn empty_map() -> Value {
        Value::Map(PMap::new())
    }

    /// Empty list. Allocation-free, like [`Value::empty_map`].
    pub fn empty_list() -> Value {
        Value::List(PList::new())
    }

    /// Truthiness, JavaScript-flavoured: `null`, `false`, `0`, `""`, and
    /// empty containers are falsy.
    #[inline]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Returns the integer if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map if this is a `Map`.
    #[inline]
    pub fn as_map(&self) -> Option<&PMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the list if this is a `List`.
    #[inline]
    pub fn as_list(&self) -> Option<&PList> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Whether a string/list/map is empty; `None` for scalars.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Map/list/string length; `None` for scalars.
    #[inline]
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::Str(s) => Some(s.len()),
            Value::List(l) => Some(l.len()),
            Value::Map(m) => Some(m.len()),
            _ => None,
        }
    }

    /// Looks up a map field.
    #[inline]
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(name))
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Approximate serialized size in bytes, used for advice-size
    /// accounting before wire encoding.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::List(l) => 5 + l.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| 5 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }

    /// A stable 64-bit digest of the value (FNV-1a over a canonical
    /// encoding). Used by the KJS `Digest` expression and by the
    /// Karousos tag computations.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.feed(&mut h);
        h.finish()
    }

    fn feed(&self, h: &mut Fnv) {
        match self {
            Value::Null => h.write(&[0]),
            Value::Bool(b) => h.write(&[1, *b as u8]),
            Value::Int(i) => {
                h.write(&[2]);
                h.write(&i.to_le_bytes());
            }
            Value::Str(s) => {
                h.write(&[3]);
                h.write(&(s.len() as u64).to_le_bytes());
                h.write(s.as_bytes());
            }
            Value::List(l) => {
                h.write(&[4]);
                h.write(&(l.len() as u64).to_le_bytes());
                for v in l.iter() {
                    v.feed(h);
                }
            }
            Value::Map(m) => {
                h.write(&[5]);
                h.write(&(m.len() as u64).to_le_bytes());
                for (k, v) in m.iter() {
                    h.write(&(k.len() as u64).to_le_bytes());
                    h.write(k.as_bytes());
                    v.feed(h);
                }
            }
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Map(a), Value::Map(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(l) => {
                f.write_str("[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => write!(f, "{m}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

/// Owned copies of the strings of one string table, indexed as the
/// table is.
///
/// Advice (and other wire payloads) name each distinct string once, in
/// a table, and refer to it by index everywhere else, so
/// [`ValueInterner::intern`] copies entry `id` at its first use and
/// hands every later use the same `Arc<str>` for an atomic bump — no
/// hashing. (Repeated *containers* are not this type's business: the
/// wire format ships each shared node once, DESIGN.md §20.) One
/// interner serves one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueInterner {
    strings: Vec<Option<Arc<str>>>,
    /// String bytes copied out of the source into owned storage
    /// (first uses only).
    pub bytes_copied: u64,
}

impl ValueInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The copy of entry `id` of `table`, made at its first use; `None`
    /// if there is no such entry. The first use sizes the interner to
    /// the table, in one allocation.
    pub fn intern(&mut self, table: &[&str], id: usize) -> Option<&Arc<str>> {
        let s = *table.get(id)?;
        if self.strings.len() < table.len() {
            self.strings.resize(table.len(), None);
        }
        let slot = self.strings.get_mut(id)?;
        if slot.is_none() {
            self.bytes_copied += s.len() as u64;
        }
        Some(slot.get_or_insert_with(|| Arc::from(s)))
    }

    /// The copy of entry `id` made so far, if one was.
    pub fn get(&self, id: usize) -> Option<&Arc<str>> {
        self.strings.get(id)?.as_ref()
    }
}

/// A small FNV-1a hasher; stable across runs and platforms, unlike
/// `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Feeds bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// The keys of a transactional continuation's payload: what the store
/// hands an `on_done` handler, and so what applications read. The
/// runtime builds the payload under these keys and the verifier's replay
/// rebuilds it under the same ones, key for key. Interned: cloning an
/// `Arc<str>` is a refcount bump, not an allocation, so every payload
/// shares these five strings.
#[derive(Debug)]
pub struct TxPayloadKeys {
    /// `ctx`: the issuing statement's context value, forwarded.
    pub ctx: Arc<str>,
    /// `tx`: the transaction token.
    pub tx: Arc<str>,
    /// `ok`: `false` when the operation conflicted and aborted.
    pub ok: Arc<str>,
    /// `found`: whether a `GET`'s key existed.
    pub found: Arc<str>,
    /// `value`: what a `GET` read (`null` when not found).
    pub value: Arc<str>,
}

impl TxPayloadKeys {
    /// A continuation payload: `ctx`, `ok` and `tx`, and a `GET`'s
    /// `found` and `value` when `read` holds them — one leaf, collected
    /// with its keys already in order.
    pub fn payload(&self, ctx: Value, tx: Value, ok: bool, read: Option<(bool, Value)>) -> Value {
        let ctx = (Arc::clone(&self.ctx), ctx);
        let (ok, tx) = (
            (Arc::clone(&self.ok), Value::Bool(ok)),
            (Arc::clone(&self.tx), tx),
        );
        Value::Map(match read {
            None => PMap::from_sorted_pairs([ctx, ok, tx]),
            Some((found, value)) => PMap::from_sorted_pairs([
                ctx,
                (Arc::clone(&self.found), Value::Bool(found)),
                ok,
                tx,
                (Arc::clone(&self.value), value),
            ]),
        })
    }
}

/// The one [`TxPayloadKeys`].
pub fn tx_payload_keys() -> &'static TxPayloadKeys {
    static KEYS: OnceLock<TxPayloadKeys> = OnceLock::new();
    KEYS.get_or_init(|| TxPayloadKeys {
        ctx: Arc::from("ctx"),
        tx: Arc::from("tx"),
        ok: Arc::from("ok"),
        found: Arc::from("found"),
        value: Arc::from("value"),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[allow(clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list([]).truthy());
        assert!(!Value::empty_map().truthy());
        assert!(!Value::empty_list().truthy());
    }

    #[test]
    fn accessors() {
        let v = Value::map([("a", Value::int(1)), ("b", Value::str("two"))]);
        assert_eq!(v.field("a").and_then(Value::as_int), Some(1));
        assert_eq!(v.field("b").and_then(|x| x.as_str()), Some("two"));
        assert_eq!(v.field("missing"), None);
        assert_eq!(v.len(), Some(2));
        assert_eq!(Value::Null.len(), None);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = Value::map([("k", Value::int(1))]);
        let b = Value::map([("k", Value::int(2))]);
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
        // List vs map of same content differ.
        assert_ne!(
            Value::list([Value::int(1)]).digest(),
            Value::int(1).digest()
        );
    }

    #[test]
    fn display_round_trips_visually() {
        let v = Value::map([("x", Value::list([Value::int(1), Value::str("s")]))]);
        assert_eq!(v.to_string(), "{x: [1, \"s\"]}");
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::str("a");
        let big = Value::str("aaaaaaaaaa");
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from("s".to_string()), Value::str("s"));
    }
}
// (Appended by tests below; keep `is_empty` covered.)
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[allow(clippy::unreachable)]
mod more_tests {
    use super::*;

    #[test]
    fn interner_shares_and_counts() {
        let table = ["x", "y", "z", "abc"];
        let mut i = ValueInterner::new();
        assert_eq!(i.get(3), None);
        let a = i.intern(&table, 3).unwrap().clone();
        let b = i.intern(&table, 3).unwrap();
        assert!(Arc::ptr_eq(&a, b));
        assert_eq!(i.bytes_copied, 3);
        assert_eq!(i.intern(&table, 0).map(|s| &**s), Some("x"));
        assert!(Arc::ptr_eq(i.get(3).unwrap(), &a));
        assert_eq!(i.bytes_copied, 4);
        assert_eq!(i.intern(&table, 4), None);
        assert_eq!(i.get(1), None);
    }

    #[test]
    fn is_empty_semantics() {
        assert_eq!(Value::str("").is_empty(), Some(true));
        assert_eq!(Value::list([Value::Null]).is_empty(), Some(false));
        assert_eq!(Value::empty_map().is_empty(), Some(true));
        assert_eq!(Value::empty_list().is_empty(), Some(true));
        assert_eq!(Value::Int(0).is_empty(), None);
    }

    #[test]
    fn structural_sharing_makes_clones_cheap_and_equal() {
        let big = Value::map((0..100).map(|i| (format!("k{i}"), Value::int(i))));
        let copy = big.clone();
        // Pointer-equal clones compare equal via the fast path.
        assert_eq!(big, copy);
        // Structurally-equal but separately-built values also compare equal.
        let rebuilt = Value::map((0..100).map(|i| (format!("k{i}"), Value::int(i))));
        assert_eq!(big, rebuilt);
    }

    #[test]
    fn empty_singletons_do_not_allocate_fresh_roots() {
        let (a, b) = (Value::empty_map(), Value::empty_map());
        match (&a, &b) {
            (Value::Map(x), Value::Map(y)) => assert!(x.ptr_eq(y)),
            _ => unreachable!(),
        }
        let (a, b) = (Value::empty_list(), Value::empty_list());
        match (&a, &b) {
            (Value::List(x), Value::List(y)) => assert!(x.ptr_eq(y)),
            _ => unreachable!(),
        }
    }
}
