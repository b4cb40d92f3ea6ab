//! Identifiers: requests, functions, variables, handlers, operations.
//!
//! The scheme follows §C.1.2 of the paper. Each request has a globally
//! unique [`RequestId`]. Each handler activation has a [`HandlerId`]
//! that is structurally the tuple `(functionID, parent_hid, opnum)`:
//! unique within a request and *corresponding* across requests, which is
//! what lets the verifier batch requests with the same handler tree.
//! Handler ids are hash-consed paths, so the `A` (activation) partial
//! order is a prefix test and `activator()` is a parent-pointer hop —
//! the role of the paper's handler *labels* (§5).

use std::fmt;
use std::sync::Arc;

use crate::value::Fnv;

/// Globally unique id of a request within one run/audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The pseudo-request of the initialization activation `I` (§3): the
    /// activator of all request handlers. Variable initialisations are
    /// attributed to it.
    pub const INIT: RequestId = RequestId(u64::MAX);

    /// Whether this is the initialization pseudo-request.
    pub fn is_init(self) -> bool {
        self == RequestId::INIT
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_init() {
            f.write_str("rI")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// Index of a function (piece of handler code) within a program.
///
/// Function ids are "globally unique identifiers of the handler function"
/// (§C.1.2) — here, dense indices into
/// [`Program::functions`](crate::Program::functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Index of a declared shared variable within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A handler id: the hash-consed path `(functionID, opnum)*` from the
/// request-handler root.
///
/// * Structural equality / hashing give cross-request correspondence.
/// * [`HandlerId::is_ancestor_of`] implements the `A` relation test.
/// * [`HandlerId::parent`] implements `activator()`.
///
/// The root of a request's tree is a request handler: a path of length
/// one whose `opnum` is 0 and whose parent is `None`.
#[derive(Clone)]
pub struct HandlerId(Arc<HidNode>);

struct HidNode {
    function: FunctionId,
    opnum: u32,
    parent: Option<HandlerId>,
    depth: u32,
    hash: u64,
}

impl HandlerId {
    /// Creates a request-handler root id for `function`.
    pub fn root(function: FunctionId) -> Self {
        Self::make(function, 0, None)
    }

    /// Creates the id of a handler running `function`, activated by the
    /// `opnum`-th operation of `parent`.
    pub fn child(parent: &HandlerId, function: FunctionId, opnum: u32) -> Self {
        Self::make(function, opnum, Some(parent.clone()))
    }

    /// Creates the id of the path `parent` then `(function, opnum)`: a
    /// root for no parent, whatever its `opnum` — the handler-id table
    /// of hostile advice may write one.
    pub fn new(parent: Option<&HandlerId>, function: FunctionId, opnum: u32) -> Self {
        Self::make(function, opnum, parent.cloned())
    }

    fn make(function: FunctionId, opnum: u32, parent: Option<HandlerId>) -> Self {
        let mut h = Fnv::new();
        h.write_u64(function.0 as u64);
        h.write_u64(opnum as u64);
        let (depth, parent_hash) = match &parent {
            Some(p) => (p.0.depth + 1, p.0.hash),
            None => (0, 0),
        };
        h.write_u64(parent_hash);
        HandlerId(Arc::new(HidNode {
            function,
            opnum,
            parent,
            depth,
            hash: h.finish(),
        }))
    }

    /// The function this handler runs.
    pub fn function(&self) -> FunctionId {
        self.0.function
    }

    /// The index of the activating operation within the parent.
    pub fn opnum(&self) -> u32 {
        self.0.opnum
    }

    /// The activator's id (`None` for request handlers).
    pub fn parent(&self) -> Option<&HandlerId> {
        self.0.parent.as_ref()
    }

    /// Path length minus one (roots have depth 0).
    pub fn depth(&self) -> u32 {
        self.0.depth
    }

    /// Whether `self` is a strict ancestor of `other` in the handler
    /// tree (i.e. `(self, other) ∈ A` within one request).
    pub fn is_ancestor_of(&self, other: &HandlerId) -> bool {
        if other.0.depth <= self.0.depth {
            return false;
        }
        let mut cur = other;
        while cur.0.depth > self.0.depth {
            match cur.parent() {
                Some(p) => cur = p,
                None => return false,
            }
        }
        cur == self
    }

    /// The path from root to this handler, as `(function, opnum)` pairs.
    pub fn path(&self) -> Vec<(FunctionId, u32)> {
        let mut out = Vec::with_capacity(self.0.depth as usize + 1);
        let mut cur = Some(self);
        while let Some(h) = cur {
            out.push((h.0.function, h.0.opnum));
            cur = h.parent();
        }
        out.reverse();
        out
    }

    /// Rebuilds an id from a path produced by [`HandlerId::path`].
    ///
    /// Returns `None` for an empty path.
    pub fn from_path(path: &[(FunctionId, u32)]) -> Option<Self> {
        let mut iter = path.iter();
        let &(f, op) = iter.next()?;
        let mut hid = Self::make(f, op, None);
        for &(f, op) in iter {
            hid = Self::child(&hid, f, op);
        }
        Some(hid)
    }
}

impl PartialEq for HandlerId {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.0.hash != other.0.hash
            || self.0.depth != other.0.depth
            || self.0.function != other.0.function
            || self.0.opnum != other.0.opnum
        {
            return false;
        }
        self.0.parent == other.0.parent
    }
}

impl Eq for HandlerId {}

impl std::hash::Hash for HandlerId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for HandlerId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HandlerId {
    /// Lexicographic order over the root-to-leaf path, computed without
    /// materializing the paths (these comparisons are hot: the advice
    /// maps are keyed by handler-id-bearing coordinates).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;

        fn ancestor_at(mut h: &HandlerId, depth: u32) -> &HandlerId {
            while h.0.depth > depth {
                let Some(parent) = h.parent() else { break };
                h = parent;
            }
            h
        }

        /// Compares two ids of equal depth by their full paths.
        fn cmp_same_depth(a: &HandlerId, b: &HandlerId) -> Ordering {
            if Arc::ptr_eq(&a.0, &b.0) {
                return Ordering::Equal;
            }
            let parents = match (a.parent(), b.parent()) {
                (Some(pa), Some(pb)) => cmp_same_depth(pa, pb),
                _ => Ordering::Equal, // both roots
            };
            parents
                .then(a.0.function.cmp(&b.0.function))
                .then(a.0.opnum.cmp(&b.0.opnum))
        }

        let (da, db) = (self.0.depth, other.0.depth);
        if da == db {
            cmp_same_depth(self, other)
        } else if da < db {
            // Compare against the ancestor prefix; a proper prefix sorts
            // first.
            cmp_same_depth(self, ancestor_at(other, da)).then(Ordering::Less)
        } else {
            cmp_same_depth(ancestor_at(self, db), other).then(Ordering::Greater)
        }
    }
}

impl fmt::Debug for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h")?;
        for (i, (func, op)) in self.path().into_iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{}.{}", func.0, op)?;
        }
        Ok(())
    }
}

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An interned identifier: a dense index into an [`Interner`].
///
/// Lowering (see [`crate::bytecode`]) interns every identifier a
/// program mentions — event names, function names, local and shared
/// variable names — so the hot loops of both the runtime and the
/// verifier compare/hash a `u32` instead of a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A string interner: maps identifier strings to dense [`Sym`] ids and
/// back. Built once per program by lowering; lookups after that
/// are array indexing ([`Interner::resolve`]) or one hash of the string
/// ([`Interner::get`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interner {
    names: Vec<String>,
    by_name: std::collections::HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its existing [`Sym`] if already known.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&id) = self.by_name.get(name) {
            return Sym(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Sym(id)
    }

    /// Looks up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).map(|&id| Sym(id))
    }

    /// The string a [`Sym`] stands for. Total: an unknown sym (which a
    /// correct lowering never produces) resolves to `""` rather
    /// than panicking.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.names.get(sym.0 as usize).map_or("", String::as_str)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A fully qualified operation coordinate: the `opnum`-th operation of
/// handler `hid` of request `rid` (§C.1.3 log keys).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpRef {
    /// The request.
    pub rid: RequestId,
    /// The handler activation.
    pub hid: HandlerId,
    /// One-based operation number within the handler.
    pub opnum: u32,
}

impl OpRef {
    /// Convenience constructor.
    pub fn new(rid: RequestId, hid: HandlerId, opnum: u32) -> Self {
        OpRef { rid, hid, opnum }
    }
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.rid, self.hid, self.opnum)
    }
}

/// The function id reserved for the initialization activation `I` (§3).
pub const INIT_FUNCTION: FunctionId = FunctionId(u32::MAX);

/// The handler id of the initialization activation `I`.
pub fn init_handler_id() -> HandlerId {
    HandlerId::root(INIT_FUNCTION)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId(i)
    }

    #[test]
    fn roots_correspond_across_requests() {
        let a = HandlerId::root(f(1));
        let b = HandlerId::root(f(1));
        assert_eq!(a, b);
        assert_ne!(a, HandlerId::root(f(2)));
    }

    #[test]
    fn children_distinguish_opnum_and_function() {
        let root = HandlerId::root(f(0));
        let c1 = HandlerId::child(&root, f(1), 1);
        let c2 = HandlerId::child(&root, f(1), 2);
        let c3 = HandlerId::child(&root, f(2), 1);
        assert_ne!(c1, c2);
        assert_ne!(c1, c3);
        assert_eq!(c1, HandlerId::child(&root, f(1), 1));
    }

    #[test]
    fn ancestor_relation() {
        let root = HandlerId::root(f(0));
        let mid = HandlerId::child(&root, f(1), 3);
        let leaf = HandlerId::child(&mid, f(2), 1);
        assert!(root.is_ancestor_of(&mid));
        assert!(root.is_ancestor_of(&leaf));
        assert!(mid.is_ancestor_of(&leaf));
        assert!(!leaf.is_ancestor_of(&root));
        assert!(!mid.is_ancestor_of(&mid), "ancestor is strict");
        // Sibling subtrees are unrelated.
        let other = HandlerId::child(&root, f(1), 4);
        assert!(!other.is_ancestor_of(&leaf));
        assert!(!leaf.is_ancestor_of(&other));
    }

    #[test]
    fn path_round_trip() {
        let root = HandlerId::root(f(0));
        let mid = HandlerId::child(&root, f(1), 3);
        let leaf = HandlerId::child(&mid, f(2), 1);
        let path = leaf.path();
        assert_eq!(path, vec![(f(0), 0), (f(1), 3), (f(2), 1)]);
        assert_eq!(HandlerId::from_path(&path).unwrap(), leaf);
        assert!(HandlerId::from_path(&[]).is_none());
    }

    #[test]
    fn parent_is_activator() {
        let root = HandlerId::root(f(0));
        let child = HandlerId::child(&root, f(1), 2);
        assert_eq!(child.parent(), Some(&root));
        assert_eq!(root.parent(), None);
        assert_eq!(child.opnum(), 2);
        assert_eq!(child.function(), f(1));
    }

    #[test]
    fn display_formats() {
        let root = HandlerId::root(f(0));
        let child = HandlerId::child(&root, f(1), 2);
        assert_eq!(child.to_string(), "h0.0/1.2");
        assert_eq!(RequestId(3).to_string(), "r3");
        assert_eq!(RequestId::INIT.to_string(), "rI");
        let op = OpRef::new(RequestId(1), child, 4);
        assert!(op.to_string().contains("h0.0/1.2"));
    }

    #[test]
    fn hash_consistency_with_equality() {
        use std::collections::HashSet;
        let root = HandlerId::root(f(0));
        let a = HandlerId::child(&root, f(1), 1);
        let b = HandlerId::child(&HandlerId::root(f(0)), f(1), 1);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn interner_round_trip_and_dedup() {
        let mut i = Interner::new();
        let a = i.intern("payload");
        let b = i.intern("boom");
        assert_ne!(a, b);
        assert_eq!(i.intern("payload"), a, "re-interning is idempotent");
        assert_eq!(i.resolve(a), "payload");
        assert_eq!(i.resolve(b), "boom");
        assert_eq!(i.get("boom"), Some(b));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(Sym(99)), "", "unknown syms resolve to empty");
    }

    #[test]
    fn ord_is_total_and_path_based() {
        let root = HandlerId::root(f(0));
        let a = HandlerId::child(&root, f(1), 1);
        let b = HandlerId::child(&root, f(1), 2);
        assert!(a < b);
        assert!(root < a);
    }
}
