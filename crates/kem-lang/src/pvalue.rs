//! Persistent, structurally-shared containers backing [`Value`].
//!
//! PR 7's backtrace-sampled profiling showed ~72% of real-app replay
//! allocations were *semantic* whole-map `BTreeMap` clones in
//! `eval_map_insert`: the functional-update operators copied the entire
//! map (one `String` allocation per key plus the tree nodes) to change
//! a single entry, and the source `Arc` is retained by variable state
//! and the event log, so copy-on-write via `Arc::make_mut` can never
//! help. [`PMap`] and [`PList`] replace that O(n) clone with
//! *path-copying* over `Arc`-shared chunked nodes: an update reallocates
//! only the O(log n) nodes on the root-to-leaf path (each at most
//! [`CHUNK`] entries wide) and shares every untouched subtree with the
//! source value by reference.
//!
//! Every node is one heap block, built in place (DESIGN.md §12): a leaf
//! is an `Arc<[_]>` of its entries, collected from an exact-size
//! iterator (an indexed range over the old node, an array, a `Drain`) so that the
//! block is allocated once at its final size; a branch is a thin `Arc`
//! of its length and one boxed slice of children, which keeps a tree
//! handle — and so [`Value`] — small.
//!
//! Observable semantics are bit-for-bit those of the previous
//! `Arc<BTreeMap<String, Value>>` / `Arc<Vec<Value>>` representation:
//!
//! * [`PMap`] iterates in strict ascending key order (the digest,
//!   `Display`, `Ord`, and wire encodings are byte-identical);
//! * duplicate keys resolve later-wins, exactly like `BTreeMap::insert`;
//! * [`PList`] preserves insertion order; and
//! * `Eq`/`Ord`/`Hash` are content-based with a pointer-equality fast
//!   path at the root (a pure shortcut, as before).
//!
//! Keys are `Arc<str>`, so inserting a key that the program already
//! holds as a `Value::Str` is allocation-free.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Maximum entries per leaf and children per branch. 16 keeps a path
/// copy to one small block per level while bounding tree depth at
/// log₁₆ n (3 levels cover 4096 entries).
pub const CHUNK: usize = 16;

/// Maximum tree height. Built trees shrink each level by up to
/// `CHUNK`x, so height `h` requires on the order of `CHUNK^(h-1)`
/// entries; 32 levels is unreachable for any container the resource
/// governor admits (and far beyond addressable memory). The iterators'
/// inline descent stacks hold this many frames.
pub const MAX_DEPTH: usize = 32;

/// Tallest tree the checked constructors accept. A tree assembled from
/// nodes can be any shape the invariants allow — every node on one
/// path full, say, so that a single `insert` or `push` splits them all
/// and the tree is a level taller — and must never outgrow
/// [`MAX_DEPTH`] afterwards, whatever is done to it. Half of it leaves
/// room no run can use up: a tree grows only by splitting its root, a
/// node made by a split (8 or 9 wide) or as a new root (2 wide) must
/// gain 8 children — 8 splits one level down — before it splits again,
/// and above the accepted root every node is one of those. One update
/// splits at most one node per level, so the first level costs one
/// update and reaching `g + 1` levels above the accepted height costs
/// at least `15 * 8^(g-1)`: for the 17th, 5·10¹⁴. Honest trees are
/// nowhere near the cap — splits leave nodes at least half full, so 16
/// levels take 8¹⁵ entries.
pub const MAX_CHECKED_HEIGHT: usize = MAX_DEPTH / 2;

/// Why a checked node constructor ([`PMap::checked_leaf`],
/// [`PMap::checked_branch`] and their [`PList`] twins) refused its
/// parts. Each variant is an invariant the tree code relies on without
/// re-checking (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeError {
    /// A node has no entries or children, or more than [`CHUNK`].
    Width,
    /// Map keys are not strictly ascending across the whole subtree.
    KeyOrder,
    /// A branch's children are not all of one height.
    Height,
    /// The tree would be taller than [`MAX_CHECKED_HEIGHT`].
    Depth,
    /// The subtree's entry count overflows `usize`.
    Len,
}

impl NodeError {
    /// A short label, for positioned decode errors.
    pub fn what(self) -> &'static str {
        match self {
            NodeError::Width => "pool node width",
            NodeError::KeyOrder => "pool node key order",
            NodeError::Height => "pool node children of unequal height",
            NodeError::Depth => "pool node tree too deep",
            NodeError::Len => "pool node length overflow",
        }
    }
}

fn check_width(n: usize) -> Result<(), NodeError> {
    if (1..=CHUNK).contains(&n) {
        Ok(())
    } else {
        Err(NodeError::Width)
    }
}

// ---------------------------------------------------------------------------
// Building nodes in place
// ---------------------------------------------------------------------------
//
// `Arc<[T]>` and `Box<[T]>` collect an iterator the standard library
// trusts to report its exact length (slice clones, arrays, `Drain`,
// `vec::IntoIter`, and `chain` / `zip` / `map` / `take` over those) into
// one allocation of the final size; any other iterator goes through a
// `Vec` first, which is a second block and a copy. Every builder below
// hands its nodes such an iterator.

/// `s` with `s[cut]` replaced by `put`: one node when the result fits in
/// [`CHUNK`], else two halves, the left one `len / 2` wide (the split
/// point path copies have always used).
fn spliced<T: Clone, C: FromIterator<T>, const N: usize>(
    s: &[T],
    cut: Range<usize>,
    put: [T; N],
) -> (C, Option<C>) {
    let len = s.len() - cut.len() + N;
    let (head, tail) = (&s[..cut.start], &s[cut.end..]);
    let mut put = put.into_iter();
    // Indexed, not chained: a `Chain` of slice clones dispatches per
    // item, and path copies measured slower through it.
    let mut items = (0..len).map(move |j| match j.checked_sub(head.len()) {
        None => head[j].clone(),
        Some(k) => match put.next() {
            Some(v) => v,
            None => tail[k - N].clone(),
        },
    });
    if len <= CHUNK {
        return (items.collect(), None);
    }
    let left = items.by_ref().take(len / 2).collect();
    (left, Some(items.collect()))
}

/// `n` items cut into `n.div_ceil(CHUNK)` nodes of near-equal width —
/// no one-entry straggler — each collected from `items` in turn.
fn spread<I: Iterator, C: FromIterator<I::Item>>(
    mut items: I,
    n: usize,
) -> impl Iterator<Item = C> {
    let nodes = n.div_ceil(CHUNK);
    (0..nodes).map(move |i| items.by_ref().take((n + nodes - 1 - i) / nodes).collect())
}

// ---------------------------------------------------------------------------
// PMap: a counted B-tree keyed by Arc<str>
// ---------------------------------------------------------------------------

/// A map subtree: 16 bytes, one heap block per node.
#[derive(Clone)]
enum MapTree {
    /// Sorted `(key, value)` entries; non-empty except for the shared
    /// empty-map root.
    Leaf(Arc<[(Arc<str>, Value)]>),
    /// Behind a thin pointer: were both variants fat, a tree handle
    /// would take 24 bytes and a `Value` 32.
    Branch(Arc<MapBranch>),
}

struct MapBranch {
    /// Entries in the whole subtree.
    len: usize,
    /// Each child with its minimum key, in key order.
    children: Box<[Keyed]>,
}

/// A subtree with its minimum key.
type Keyed = (Arc<str>, MapTree);

impl MapTree {
    /// The empty map's root: the standard library's one static empty
    /// slice, so no allocation, and every empty container shares it.
    fn empty() -> MapTree {
        MapTree::Leaf(Arc::default())
    }

    fn len(&self) -> usize {
        match self {
            MapTree::Leaf(es) => es.len(),
            MapTree::Branch(b) => b.len,
        }
    }

    /// The node's identity: the address of its one block.
    fn addr(&self) -> usize {
        match self {
            MapTree::Leaf(es) => Arc::as_ptr(es).cast::<u8>() as usize,
            MapTree::Branch(b) => Arc::as_ptr(b) as usize,
        }
    }

    /// Minimum key of the subtree; `None` only for the empty root.
    fn min_key(&self) -> Option<&Arc<str>> {
        match self {
            MapTree::Leaf(es) => es.first().map(|(k, _)| k),
            MapTree::Branch(b) => b.children.first().map(|(k, _)| k),
        }
    }

    /// Maximum key of the subtree; `None` only for the empty root.
    fn max_key(&self) -> Option<&Arc<str>> {
        let mut node = self;
        loop {
            match node {
                MapTree::Leaf(es) => return es.last().map(|(k, _)| k),
                MapTree::Branch(b) => node = &b.children.last()?.1,
            }
        }
    }

    /// Levels from this node down to its leftmost leaf, which is every
    /// leaf: all leaves of a tree sit at one depth (updates split and
    /// collapse whole levels, and [`PMap::checked_branch`] refuses
    /// children of unequal height).
    fn height(&self) -> usize {
        let (mut node, mut levels) = (self, 1);
        while let MapTree::Branch(b) = node {
            match b.children.first() {
                Some((_, child)) => node = child,
                None => break,
            }
            levels += 1;
        }
        levels
    }

    /// This non-empty node with its minimum key, as its parent holds it.
    fn keyed(self) -> Keyed {
        let min = match &self {
            MapTree::Leaf(es) => Arc::clone(&es[0].0),
            MapTree::Branch(b) => Arc::clone(&b.children[0].0),
        };
        (min, self)
    }
}

/// `Leaf([..])` or `Branch { len, keys, children }`: what the layout
/// before one block per node derived, and what pinned digests of
/// decoded advice (`tests/bytecode_equivalence.rs`) still read.
impl fmt::Debug for MapTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapTree::Leaf(es) => f.debug_tuple("Leaf").field(es).finish(),
            MapTree::Branch(b) => {
                let list = |pick: fn(&Keyed) -> &dyn fmt::Debug| {
                    fmt::from_fn(move |f| {
                        f.debug_list().entries(b.children.iter().map(pick)).finish()
                    })
                };
                f.debug_struct("Branch")
                    .field("len", &b.len)
                    .field("keys", &list(|(k, _)| k))
                    .field("children", &list(|(_, c)| c))
                    .finish()
            }
        }
    }
}

/// A branch over `children`, counting their entries.
fn map_branch(children: Box<[Keyed]>) -> MapTree {
    let len = children.iter().map(|(_, c)| c.len()).sum();
    MapTree::Branch(Arc::new(MapBranch { len, children }))
}

/// A persistent string-keyed ordered map with O(log n) path-copying
/// updates. Cloning is O(1) (one `Arc` bump); [`PMap::insert`] and
/// [`PMap::remove`] return a new map sharing all untouched nodes with
/// `self`.
#[derive(Debug, Clone)]
pub struct PMap {
    root: MapTree,
}

/// Result of a path-copying insert one level down.
enum Ins {
    /// The child was replaced.
    One(MapTree),
    /// The child split; the second node's min key is strictly greater.
    Split(Keyed, Keyed),
}

impl Ins {
    /// A spliced node, made a tree by `node`: one, or two halves.
    fn of<C>((a, b): (C, Option<C>), node: impl Fn(C) -> MapTree) -> Ins {
        match b {
            None => Ins::One(node(a)),
            Some(b) => Ins::Split(node(a).keyed(), node(b).keyed()),
        }
    }
}

impl PMap {
    /// The empty map. Allocation-free: all empty maps share one static
    /// root.
    pub fn new() -> PMap {
        PMap {
            root: MapTree::empty(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// Whether the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root pointer equality: the `Eq` fast path (a pure shortcut, like
    /// the old `Arc::ptr_eq` on the map `Arc`).
    #[inline]
    pub fn ptr_eq(&self, other: &PMap) -> bool {
        self.root.addr() == other.root.addr()
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        tree_get(&self.root, key)
    }

    /// Whether the key is present.
    #[inline]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Functional insert: returns a map with `key` bound to `value`,
    /// path-copying O(log n) nodes and sharing the rest with `self`.
    /// Later inserts win, exactly like `BTreeMap::insert`.
    pub fn insert(&self, key: Arc<str>, value: Value) -> PMap {
        let root = match insert_node(&self.root, key, value) {
            Ins::One(n) => n,
            Ins::Split(a, b) => map_branch(Box::new([a, b])),
        };
        PMap { root }
    }

    /// Functional remove: returns a map without `key`. Removing an
    /// absent key returns a clone of `self` (same root, no copying).
    pub fn remove(&self, key: &str) -> PMap {
        let Some(mut root) = remove_node(&self.root, key) else {
            return self.clone();
        };
        // Collapse single-child root chains so depth tracks the
        // surviving entry count.
        loop {
            let next = match &root {
                MapTree::Branch(b) if b.children.len() == 1 => b.children[0].1.clone(),
                _ => break,
            };
            root = next;
        }
        PMap { root }
    }

    /// Whether this map equals `base.insert(key, value)`: exactly that
    /// `==`, decided without building the insert, so allocation-free.
    /// Where this map's node boundaries line up with the insert's, a
    /// subtree `base` shares is equal without being read, so a version
    /// made by that insert is checked in one root-to-leaf walk
    /// ("Checking an edit in place" below).
    pub fn eq_inserted(&self, base: &PMap, key: &str, value: &Value) -> bool {
        edited_eq(&self.root, &base.root, key, Some(value))
    }

    /// Whether this map equals `base.remove(key)`: [`PMap::eq_inserted`]
    /// for a remove.
    pub fn eq_removed(&self, base: &PMap, key: &str) -> bool {
        edited_eq(&self.root, &base.root, key, None)
    }

    /// Iterates entries in ascending key order. Allocation-free: the
    /// descent stack lives inline in the iterator (depth is bounded by
    /// [`MAX_DEPTH`]), so digest/Display/Eq/Ord/Hash walks cost zero
    /// allocator events, matching the old `BTreeMap` iteration.
    pub fn iter(&self) -> MapIter<'_> {
        MapIter::over(&self.root)
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Bulk-builds from arbitrary `(key, value)` pairs; on duplicate
    /// keys the later pair wins (`BTreeMap::insert` semantics).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Arc<str>, Value)>) -> PMap {
        let mut entries: Vec<(Arc<str>, Value)> = pairs.into_iter().collect();
        PMap::take_pairs(&mut entries, 0)
    }

    /// [`PMap::from_pairs`] over `buf[from..]`, which it moves into the
    /// leaves — sorted and deduplicated in place first when they are not
    /// strictly ascending already — leaving `buf` cut back to `from`
    /// with its capacity: how a reader that builds many maps (the advice
    /// decoder) builds each from one reused scratch buffer, one
    /// allocation per leaf.
    pub fn take_pairs(buf: &mut Vec<(Arc<str>, Value)>, from: usize) -> PMap {
        let entries = &mut buf[from..];
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable sort keeps duplicate keys in input order; dedup
            // keeps the *last* of each run.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut write = 0;
            for read in 1..entries.len() {
                if entries[read].0 != entries[write].0 {
                    write += 1;
                }
                entries.swap(write, read);
            }
            buf.truncate(from + write + 1);
        }
        PMap {
            root: build_map_tree(buf.drain(from..)),
        }
    }

    /// Bulk-builds from entries already in strictly ascending key order
    /// (out of a `BTreeMap`, or constant keys ordered once), skipping
    /// the sort-and-dedup pass: each leaf is collected straight from
    /// `pairs`.
    pub fn from_sorted_pairs<I>(pairs: I) -> PMap
    where
        I: IntoIterator<Item = (Arc<str>, Value)>,
        I::IntoIter: ExactSizeIterator,
    {
        let map = PMap {
            root: build_map_tree(pairs.into_iter()),
        };
        debug_assert!(map.keys().zip(map.keys().skip(1)).all(|(a, b)| a < b));
        map
    }

    /// A one-node map with exactly these leaf entries, or why they are
    /// not a leaf: the width must be `1..=CHUNK` and the keys strictly
    /// ascending (`get` and `insert` binary-search them). With
    /// [`PMap::checked_branch`], the only way to assemble a map from
    /// nodes rather than entries — what the advice decoder does with a
    /// pool of shared nodes, draining each node's entries off its
    /// scratch buffer. The leaf is collected before it is checked, so
    /// an exact-size source costs one allocation.
    pub fn checked_leaf<I>(entries: I) -> Result<PMap, NodeError>
    where
        I: IntoIterator<Item = (Arc<str>, Value)>,
        I::IntoIter: ExactSizeIterator,
    {
        let leaf: Arc<[(Arc<str>, Value)]> = entries.into_iter().collect();
        check_width(leaf.len())?;
        if !leaf.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(NodeError::KeyOrder);
        }
        Ok(PMap {
            root: MapTree::Leaf(leaf),
        })
    }

    /// A map whose root is a branch over the roots of `children`,
    /// shared by reference, or why they cannot be siblings: `1..=CHUNK`
    /// non-empty children of one height (so every leaf stays at one
    /// depth, at most [`MAX_CHECKED_HEIGHT`] — updates may deepen the
    /// tree, and the iterators' stack holds [`MAX_DEPTH`]), each one's
    /// keys wholly above the one before (`child_for` routes a key by the
    /// children's minimum keys). Minimum keys and the entry count are
    /// derived here, never taken from the caller.
    pub fn checked_branch(children: &[PMap]) -> Result<PMap, NodeError> {
        check_width(children.len())?;
        let height = children[0].root.height();
        if height >= MAX_CHECKED_HEIGHT {
            return Err(NodeError::Depth);
        }
        let mut len = 0usize;
        let mut below: Option<&Arc<str>> = None;
        for child in children {
            // Only the empty map has no minimum key.
            let min = child.root.min_key().ok_or(NodeError::Width)?;
            if child.root.height() != height {
                return Err(NodeError::Height);
            }
            if below.is_some_and(|max| max >= min) {
                return Err(NodeError::KeyOrder);
            }
            below = child.root.max_key();
            len = len.checked_add(child.len()).ok_or(NodeError::Len)?;
        }
        let children = children.iter().map(|c| c.root.clone().keyed()).collect();
        Ok(PMap {
            root: MapTree::Branch(Arc::new(MapBranch { len, children })),
        })
    }

    /// The root node, for walking the tree node by node.
    pub fn root(&self) -> MapNodeRef<'_> {
        MapNodeRef(&self.root)
    }
}

/// One node of a [`PMap`]'s tree, borrowed: what a reader that cares
/// where the node boundaries are — the advice encoder, which ships each
/// shared node once — walks instead of the entries.
#[derive(Debug, Clone, Copy)]
pub struct MapNodeRef<'a>(&'a MapTree);

impl<'a> MapNodeRef<'a> {
    /// The node's identity: equal for two references exactly when they
    /// are one allocation, for as long as either is borrowed.
    pub fn addr(self) -> usize {
        self.0.addr()
    }

    /// Entries in the subtree.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the subtree is empty (only the empty map's root is).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// A leaf's entries, ascending; `None` for a branch.
    pub fn entries(self) -> Option<&'a [(Arc<str>, Value)]> {
        match self.0 {
            MapTree::Leaf(es) => Some(es),
            MapTree::Branch(_) => None,
        }
    }

    /// A branch's children, in key order; none for a leaf.
    pub fn children(self) -> impl ExactSizeIterator<Item = MapNodeRef<'a>> {
        let children: &'a [Keyed] = match self.0 {
            MapTree::Leaf(_) => &[],
            MapTree::Branch(b) => &b.children,
        };
        children.iter().map(|(_, child)| MapNodeRef(child))
    }
}

/// The value under `key` in the subtree `node`.
fn tree_get<'t>(mut node: &'t MapTree, key: &str) -> Option<&'t Value> {
    loop {
        match node {
            MapTree::Leaf(es) => {
                return es
                    .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                    .ok()
                    .map(|i| &es[i].1);
            }
            MapTree::Branch(b) => node = &b.children[child_for(&b.children, key)].1,
        }
    }
}

/// Child index covering `key` in a branch: the last child whose min key
/// is `<= key`, or the first child when `key` sorts before everything.
#[inline]
fn child_for(children: &[Keyed], key: &str) -> usize {
    children
        .partition_point(|(min, _)| min.as_ref() <= key)
        .max(1)
        - 1
}

fn insert_node(node: &MapTree, key: Arc<str>, value: Value) -> Ins {
    match node {
        MapTree::Leaf(es) => {
            let cut = match es.binary_search_by(|(k, _)| k.as_ref().cmp(&key)) {
                Ok(i) => i..i + 1,
                Err(i) => i..i,
            };
            Ins::of(spliced(es, cut, [(key, value)]), MapTree::Leaf)
        }
        MapTree::Branch(b) => {
            let i = child_for(&b.children, &key);
            // A replaced child is keyed by its own minimum: only the
            // first child can receive a key below the one it had.
            let halves = match insert_node(&b.children[i].1, key, value) {
                Ins::One(n) => spliced(&b.children, i..i + 1, [n.keyed()]),
                Ins::Split(l, r) => spliced(&b.children, i..i + 1, [l, r]),
            };
            Ins::of(halves, map_branch)
        }
    }
}

/// `None` means the key was absent (nothing to copy). An empty
/// returned node means the subtree emptied out.
fn remove_node(node: &MapTree, key: &str) -> Option<MapTree> {
    match node {
        MapTree::Leaf(es) => {
            let i = es.binary_search_by(|(k, _)| k.as_ref().cmp(key)).ok()?;
            if es.len() == 1 {
                return Some(MapTree::empty());
            }
            Some(MapTree::Leaf(spliced(es, i..i + 1, []).0))
        }
        MapTree::Branch(b) => {
            let i = child_for(&b.children, key);
            let children: Box<[Keyed]> = match remove_node(&b.children[i].1, key)? {
                emptied if emptied.len() == 0 => spliced(&b.children, i..i + 1, []).0,
                child => spliced(&b.children, i..i + 1, [child.keyed()]).0,
            };
            if children.is_empty() {
                return Some(MapTree::empty());
            }
            Some(map_branch(children))
        }
    }
}

/// Builds a balanced tree over entries in strictly ascending key order:
/// leaves of up to [`CHUNK`] entries spread evenly, then branch levels
/// of up to [`CHUNK`] children until one root remains. A single-leaf map
/// (the overwhelmingly common case: handler payloads, request contexts,
/// small literals) is one allocation, the leaf itself.
fn build_map_tree(entries: impl ExactSizeIterator<Item = (Arc<str>, Value)>) -> MapTree {
    let n = entries.len();
    if n == 0 {
        return MapTree::empty();
    }
    if n <= CHUNK {
        return MapTree::Leaf(entries.collect());
    }
    let mut level: Vec<Keyed> = spread(entries, n)
        .map(|leaf| MapTree::Leaf(leaf).keyed())
        .collect();
    while level.len() > 1 {
        let n = level.len();
        level = spread(level.into_iter(), n)
            .map(|children| map_branch(children).keyed())
            .collect();
    }
    level.pop().map_or_else(MapTree::empty, |(_, root)| root)
}

/// In-order borrowing iterator over a [`PMap`]. The descent stack is a
/// fixed inline array so constructing and driving the iterator never
/// touches the allocator.
#[derive(Debug)]
pub struct MapIter<'a> {
    /// `(node, next child / entry index)` frames root-to-current; those
    /// from `depth` up are unused.
    stack: [(&'a MapTree, usize); MAX_DEPTH],
    depth: usize,
}

impl<'a> MapIter<'a> {
    /// The entries of the subtree under `node`.
    fn over(node: &'a MapTree) -> Self {
        MapIter {
            stack: [(node, 0); MAX_DEPTH],
            depth: usize::from(node.len() != 0),
        }
    }
}

impl<'a> Iterator for MapIter<'a> {
    type Item = (&'a Arc<str>, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.depth == 0 {
                return None;
            }
            let (node, idx) = &mut self.stack[self.depth - 1];
            match *node {
                MapTree::Leaf(es) => {
                    if let Some((k, v)) = es.get(*idx) {
                        *idx += 1;
                        return Some((k, v));
                    }
                    self.depth -= 1;
                }
                MapTree::Branch(b) => {
                    if let Some((_, child)) = b.children.get(*idx) {
                        *idx += 1;
                        let d = self.depth;
                        assert!(d < MAX_DEPTH, "persistent map deeper than MAX_DEPTH");
                        self.stack[d] = (child, 0);
                        self.depth = d + 1;
                    } else {
                        self.depth -= 1;
                    }
                }
            }
        }
    }
}

impl Default for PMap {
    fn default() -> Self {
        PMap::new()
    }
}

impl PartialEq for PMap {
    fn eq(&self, other: &Self) -> bool {
        map_nodes_eq(&self.root, &other.root)
    }
}

#[cfg(test)]
thread_local! {
    /// Map entries and list elements this thread's `==` compared: what
    /// skipping shared subtrees saves.
    static ENTRY_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_compare() {
    #[cfg(test)]
    ENTRY_COMPARES.with(|c| c.set(c.get() + 1));
}

/// Content equality of two subtrees that compares what changed, not
/// what is there: a version and its functional update share all but
/// one root-to-leaf path, so where the two sides' node boundaries line
/// up, a shared child is equal without being read. Where they do not
/// line up (equal maps built in different ways), the entries are
/// zipped as ever.
fn map_nodes_eq(a: &MapTree, b: &MapTree) -> bool {
    if a.addr() == b.addr() {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    match (a, b) {
        (MapTree::Branch(x), MapTree::Branch(y))
            if x.children.len() == y.children.len()
                && (x.children.iter().zip(&y.children)).all(|(c, d)| c.1.len() == d.1.len()) =>
        {
            (x.children.iter().zip(&y.children)).all(|(c, d)| map_nodes_eq(&c.1, &d.1))
        }
        _ => MapIter::over(a)
            .zip(MapIter::over(b))
            .all(|((ka, va), (kb, vb))| {
                count_compare();
                ka == kb && va == vb
            }),
    }
}

// ---------------------------------------------------------------------------
// Checking an edit in place
// ---------------------------------------------------------------------------
//
// Simulate-and-check compares a logged map with what replay's insert or
// remove makes of the map it read. The logged version was made by that
// same edit of an equal map, and the advice pool shares every node off
// the edited key's path with the base, so building the edit only to
// compare it and drop it reads one path and copies it twice.
// `edited_eq` follows the key's path instead. Where the two trees' node
// boundaries line up around it — each child's count equal, the edited
// child's off by what the edit adds or takes — the other children are
// compared as `==` compares them (one pointer test when shared), the
// edited child is descended into, and at the leaf the two entry slices
// are compared around the key's slot. Where they do not line up (a
// split, a merge, a re-cut or forged tree), `walk` compares the two
// entry sequences, the logged tree's and the base's with the edit
// spliced in, a subtree at a time: two subtrees of one count at one
// offset are skipped when they are one node and the edit is not
// inside, else opened together; of two counts the longer is opened
// alone, down to entries. A leaf or root split keeps that walk on the
// edited path too; any other shape is compared entry by entry, and the
// answer is the same.

/// A functional update of one key, not applied.
#[derive(Clone, Copy)]
struct Edit<'a> {
    key: &'a str,
    /// The value bound to `key`; `None` removes it.
    value: Option<&'a Value>,
    /// Entries the edit adds to, and takes from, the subtree holding
    /// `key`: an insert of a new key adds one, a remove of a present
    /// key takes one, a replace does neither.
    added: usize,
    removed: usize,
}

impl Edit<'_> {
    /// Entries of a subtree of `len` that holds the key, once edited.
    fn len(&self, len: usize) -> usize {
        (len + self.added).saturating_sub(self.removed)
    }
}

/// What a [`Side`] of [`walk`] holds next.
#[derive(Clone, Copy)]
enum Item<'a> {
    /// A subtree, its entry count (the edit applied, if inside it), and
    /// whether the edit is inside it.
    Tree(&'a MapTree, usize, bool),
    Entry(&'a str, &'a Value),
}

/// One side of [`walk`]: its frames root to current, like
/// [`MapIter`]'s, and the edit until it is passed.
struct Side<'a> {
    stack: [(&'a MapTree, usize); MAX_DEPTH],
    depth: usize,
    edit: Option<Edit<'a>>,
    /// The frames below this depth lie on the edited key's path.
    path: usize,
    /// Where the key lies in the deepest of them: the child it routes
    /// to, or the entry it sorts before.
    at: usize,
    /// Whether the item last peeked is the edit's inserted entry.
    inserted: bool,
}

impl<'a> Side<'a> {
    fn new(root: &'a MapTree, edit: Option<Edit<'a>>) -> Self {
        let mut side = Side {
            stack: [(root, 0); MAX_DEPTH],
            depth: 1,
            edit,
            path: 1,
            at: 0,
            inserted: false,
        };
        side.locate();
        side
    }

    /// Finds the key in the frame on top, which is on its path.
    fn locate(&mut self) {
        let Some(edit) = self.edit else {
            return;
        };
        self.at = match self.stack[self.depth - 1].0 {
            MapTree::Branch(b) => child_for(&b.children, edit.key),
            MapTree::Leaf(es) => es.partition_point(|(k, _)| k.as_ref() < edit.key),
        };
    }

    /// The next item, or `None` past the last.
    fn peek(&mut self) -> Option<Item<'a>> {
        loop {
            let top = self.depth.checked_sub(1)?;
            let (node, idx) = self.stack[top];
            let edit = self
                .edit
                .filter(|_| self.path == self.depth && idx == self.at);
            self.inserted = false;
            match (node, edit) {
                (MapTree::Branch(b), edit) => {
                    let Some((_, child)) = b.children.get(idx) else {
                        self.depth = top;
                        continue;
                    };
                    let Some(edit) = edit else {
                        return Some(Item::Tree(child, child.len(), false));
                    };
                    let len = edit.len(child.len());
                    if len == 0 {
                        // The remove empties the child: pass both.
                        self.stack[top].1 += 1;
                        self.edit = None;
                        continue;
                    }
                    return Some(Item::Tree(child, len, true));
                }
                (
                    MapTree::Leaf(_),
                    Some(Edit {
                        key,
                        value: Some(v),
                        ..
                    }),
                ) => {
                    self.inserted = true;
                    return Some(Item::Entry(key, v));
                }
                (MapTree::Leaf(_), Some(_)) => {
                    // The removed entry: pass it.
                    self.stack[top].1 += 1;
                    self.edit = None;
                }
                (MapTree::Leaf(es), None) => match es.get(idx) {
                    Some((k, v)) => return Some(Item::Entry(k, v)),
                    None => self.depth = top,
                },
            }
        }
    }

    /// Passes the item last peeked.
    fn skip(&mut self) {
        let Some(top) = self.depth.checked_sub(1) else {
            return;
        };
        let (node, idx) = &mut self.stack[top];
        if std::mem::take(&mut self.inserted) {
            // The inserted entry; a replace passes the one it replaces.
            let key = self.edit.take().map(|e| e.key);
            let replaced = match node {
                MapTree::Leaf(es) => es.get(*idx).is_some_and(|(k, _)| Some(k.as_ref()) == key),
                MapTree::Branch(_) => false,
            };
            *idx += usize::from(replaced);
            return;
        }
        *idx += 1;
    }

    /// Opens the subtree last peeked, `tree`, which holds the edit when
    /// `edited`.
    fn open(&mut self, tree: &'a MapTree, edited: bool) {
        self.skip();
        let d = self.depth;
        assert!(d < MAX_DEPTH, "persistent map deeper than MAX_DEPTH");
        self.stack[d] = (tree, 0);
        self.depth = d + 1;
        if edited {
            self.path = self.depth;
            self.locate();
        }
    }
}

/// Whether `a` holds exactly the entries of `b` with `key` bound to
/// `value`, or with `key` removed where `value` is `None`.
fn edited_eq(a: &MapTree, b: &MapTree, key: &str, value: Option<&Value>) -> bool {
    // An insert adds at most one entry, a remove takes at most one.
    let (more, fewer) = match value {
        Some(_) => (a, b),
        None => (b, a),
    };
    if !(more.len() == fewer.len() || more.len() == fewer.len() + 1) {
        return false;
    }
    match (a, b) {
        (MapTree::Branch(x), MapTree::Branch(y)) if x.children.len() == y.children.len() => {
            let at = child_for(&y.children, key);
            let pairs = || x.children.iter().zip(&y.children).enumerate();
            let lined_up = pairs().all(|(i, ((_, c), (_, d)))| match i == at {
                true => c.len() + b.len() == d.len() + a.len(),
                false => c.len() == d.len(),
            });
            if lined_up {
                return pairs().all(|(i, ((_, c), (_, d)))| match i == at {
                    true => edited_eq(c, d, key, value),
                    false => map_nodes_eq(c, d),
                });
            }
        }
        (MapTree::Leaf(x), MapTree::Leaf(y)) => return leaf_edited_eq(x, y, key, value),
        _ => {}
    }
    let present = tree_get(b, key).is_some();
    if value.is_none() && !present {
        return map_nodes_eq(a, b);
    }
    walk(
        a,
        b,
        Edit {
            key,
            value,
            added: usize::from(value.is_some() && !present),
            removed: usize::from(value.is_none()),
        },
    )
}

/// [`edited_eq`] of two leaves: `x` must be `y`'s entries before the
/// key's slot, the key bound to `value` (none for a remove), then
/// `y`'s entries after the slot.
fn leaf_edited_eq(x: &Entries, y: &Entries, key: &str, value: Option<&Value>) -> bool {
    let at = y.partition_point(|(k, _)| k.as_ref() < key);
    let present = y.get(at).is_some_and(|(k, _)| k.as_ref() == key);
    let after = at + usize::from(present);
    let from = at + usize::from(value.is_some());
    let slot = match value {
        Some(v) => x.get(at).is_some_and(|(k, w)| k.as_ref() == key && w == v),
        None => true,
    };
    slot && entries_eq(x.get(..at), y.get(..at)) && entries_eq(x.get(from..), y.get(after..))
}

/// A leaf's entries.
type Entries = [(Arc<str>, Value)];

/// Two runs of entries, equal one for one; `None` is a run that does not
/// exist.
fn entries_eq(x: Option<&Entries>, y: Option<&Entries>) -> bool {
    let (Some(x), Some(y)) = (x, y) else {
        return false;
    };
    x.len() == y.len()
        && x.iter().zip(y).all(|((k, v), (l, w))| {
            count_compare();
            // Keys are mostly one interned string: pointers first.
            (Arc::ptr_eq(k, l) || k == l) && v == w
        })
}

/// Whether `a` holds exactly the entries of `b` with `edit` applied,
/// whatever the two shapes: one entry sequence against the other, a
/// subtree at a time.
fn walk(a: &MapTree, b: &MapTree, edit: Edit<'_>) -> bool {
    if a.len() != edit.len(b.len()) {
        return false;
    }
    let (mut x, mut y) = (Side::new(a, None), Side::new(b, Some(edit)));
    loop {
        let (p, q) = match (x.peek(), y.peek()) {
            (None, None) => return true,
            (Some(p), Some(q)) => (p, q),
            _ => return false,
        };
        match (p, q) {
            (Item::Entry(k, v), Item::Entry(l, w)) => {
                count_compare();
                // Keys are mostly one interned string: pointers first.
                if (!std::ptr::eq(k, l) && k != l) || v != w {
                    return false;
                }
                x.skip();
                y.skip();
            }
            (Item::Tree(s, m, _), Item::Tree(t, n, edited)) if m == n => {
                if !edited && s.addr() == t.addr() {
                    x.skip();
                    y.skip();
                } else {
                    x.open(s, false);
                    y.open(t, edited);
                }
            }
            // Of two counts, the longer is opened.
            (Item::Tree(s, m, _), Item::Tree(t, n, edited)) => match m > n {
                true => x.open(s, false),
                false => y.open(t, edited),
            },
            (Item::Tree(s, ..), Item::Entry(..)) => x.open(s, false),
            (Item::Entry(..), Item::Tree(t, _, edited)) => y.open(t, edited),
        }
    }
}

impl Eq for PMap {}

impl Ord for PMap {
    /// Lexicographic over `(key, value)` pairs in ascending key order —
    /// identical to `BTreeMap<String, Value>`'s derived order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter()
            .map(|(k, v)| (k.as_ref(), v))
            .cmp(other.iter().map(|(k, v)| (k.as_ref(), v)))
    }
}

impl PartialOrd for PMap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for PMap {
    /// Content hash (length then entries), consistent with `Eq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl fmt::Display for PMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        f.write_str("}")
    }
}

// ---------------------------------------------------------------------------
// PList: a chunked persistent vector
// ---------------------------------------------------------------------------

/// A list subtree: 16 bytes, one heap block per node; see [`MapTree`].
#[derive(Clone)]
enum ListTree {
    /// Up to [`CHUNK`] values; empty only as the shared empty-list
    /// root. Interior leaves may be under-full (the concat fast path
    /// adopts both operands' leaves by reference), so indexing counts
    /// through per-child lengths rather than assuming fixed-radix
    /// positions.
    Leaf(Arc<[Value]>),
    Branch(Arc<ListBranch>),
}

struct ListBranch {
    len: usize,
    children: Box<[ListTree]>,
}

impl ListTree {
    /// The empty list's root; see [`MapTree::empty`].
    fn empty() -> ListTree {
        ListTree::Leaf(Arc::default())
    }

    fn len(&self) -> usize {
        match self {
            ListTree::Leaf(vs) => vs.len(),
            ListTree::Branch(b) => b.len,
        }
    }

    /// See [`MapTree::addr`].
    fn addr(&self) -> usize {
        match self {
            ListTree::Leaf(vs) => Arc::as_ptr(vs).cast::<u8>() as usize,
            ListTree::Branch(b) => Arc::as_ptr(b) as usize,
        }
    }

    /// Levels down to the leaves; see [`MapTree::height`].
    fn height(&self) -> usize {
        let (mut node, mut levels) = (self, 1);
        while let ListTree::Branch(b) = node {
            match b.children.first() {
                Some(child) => node = child,
                None => break,
            }
            levels += 1;
        }
        levels
    }
}

/// `Leaf([..])` or `Branch { len, children }`; see [`MapTree`]'s.
impl fmt::Debug for ListTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListTree::Leaf(vs) => f.debug_tuple("Leaf").field(vs).finish(),
            ListTree::Branch(b) => (f.debug_struct("Branch"))
                .field("len", &b.len)
                .field("children", &b.children)
                .finish(),
        }
    }
}

/// A branch over `children`, counting their elements.
fn list_branch(children: Box<[ListTree]>) -> ListTree {
    let len = children.iter().map(ListTree::len).sum();
    ListTree::Branch(Arc::new(ListBranch { len, children }))
}

/// A persistent list with O(log n) shared-tail push: pushing copies the
/// rightmost root-to-leaf spine and shares every other node with the
/// source list.
#[derive(Debug, Clone)]
pub struct PList {
    root: ListTree,
}

enum LIns {
    One(ListTree),
    Split(ListTree, ListTree),
}

impl PList {
    /// The empty list. Allocation-free: all empty lists share one
    /// static root.
    pub fn new() -> PList {
        PList {
            root: ListTree::empty(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// Whether the list has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root pointer equality: the `Eq` fast path.
    #[inline]
    pub fn ptr_eq(&self, other: &PList) -> bool {
        self.root.addr() == other.root.addr()
    }

    /// Element at `index`.
    pub fn get(&self, index: usize) -> Option<&Value> {
        if index >= self.len() {
            return None;
        }
        let mut node = &self.root;
        let mut i = index;
        loop {
            match node {
                ListTree::Leaf(vs) => return vs.get(i),
                ListTree::Branch(b) => {
                    for child in b.children.iter() {
                        let n = child.len();
                        if i < n {
                            node = child;
                            break;
                        }
                        i -= n;
                    }
                }
            }
        }
    }

    /// Functional push: returns a list with `value` appended, copying
    /// only the rightmost spine.
    pub fn push(&self, value: Value) -> PList {
        let root = match push_node(&self.root, value) {
            LIns::One(n) => n,
            LIns::Split(a, b) => list_branch(Box::new([a, b])),
        };
        PList { root }
    }

    /// Functional concatenation. Adopts both operands' leaves by
    /// reference (no element is copied or cloned) and rebuilds only the
    /// branch spine above them; short results collapse to a single
    /// leaf, matching the old `Vec` representation's cost there.
    pub fn concat(&self, other: &PList) -> PList {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        if self.len() + other.len() <= CHUNK {
            let leaf = match (&self.root, &other.root) {
                (ListTree::Leaf(a), ListTree::Leaf(b)) => {
                    a.iter().chain(b.iter()).cloned().collect()
                }
                _ => self.iter().chain(other).cloned().collect(),
            };
            return PList {
                root: ListTree::Leaf(leaf),
            };
        }
        let mut leaves = Vec::new();
        collect_leaves(&self.root, &mut leaves);
        collect_leaves(&other.root, &mut leaves);
        PList {
            root: build_list_levels(leaves),
        }
    }

    /// Whether any element equals `value` (`Vec::contains` semantics).
    pub fn contains(&self, value: &Value) -> bool {
        self.iter().any(|v| v == value)
    }

    /// First element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.get(0)
    }

    /// Last element, if any.
    pub fn last(&self) -> Option<&Value> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterates elements in order. Allocation-free, like [`PMap::iter`]:
    /// the descent stack is inline.
    pub fn iter(&self) -> ListIter<'_> {
        ListIter::over(&self.root)
    }

    /// Bulk-builds from an exact-size source, each leaf collected
    /// straight from it: a list of at most [`CHUNK`] elements out of a
    /// slice, an array or a `Drain` is one allocation.
    pub fn from_exact<I>(values: I) -> PList
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let n = values.len();
        let root = match n {
            0 => ListTree::empty(),
            1..=CHUNK => ListTree::Leaf(values.collect()),
            _ => build_list_levels(spread(values, n).map(ListTree::Leaf).collect()),
        };
        PList { root }
    }

    /// A one-node list of exactly these `1..=CHUNK` elements; see
    /// [`PMap::checked_leaf`].
    pub fn checked_leaf<I>(values: I) -> Result<PList, NodeError>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let leaf: Arc<[Value]> = values.into_iter().collect();
        check_width(leaf.len())?;
        Ok(PList {
            root: ListTree::Leaf(leaf),
        })
    }

    /// A list whose root is a branch over the roots of `children`, in
    /// order and shared by reference: `1..=CHUNK` non-empty children of
    /// one height; see [`PMap::checked_branch`].
    pub fn checked_branch(children: &[PList]) -> Result<PList, NodeError> {
        check_width(children.len())?;
        let height = children[0].root.height();
        if height >= MAX_CHECKED_HEIGHT {
            return Err(NodeError::Depth);
        }
        let mut len = 0usize;
        for child in children {
            if child.is_empty() {
                return Err(NodeError::Width);
            }
            if child.root.height() != height {
                return Err(NodeError::Height);
            }
            len = len.checked_add(child.len()).ok_or(NodeError::Len)?;
        }
        let children = children.iter().map(|c| c.root.clone()).collect();
        Ok(PList {
            root: ListTree::Branch(Arc::new(ListBranch { len, children })),
        })
    }

    /// The root node, for walking the tree node by node.
    pub fn root(&self) -> ListNodeRef<'_> {
        ListNodeRef(&self.root)
    }
}

/// One node of a [`PList`]'s tree, borrowed; see [`MapNodeRef`].
#[derive(Debug, Clone, Copy)]
pub struct ListNodeRef<'a>(&'a ListTree);

impl<'a> ListNodeRef<'a> {
    /// The node's identity; see [`MapNodeRef::addr`].
    pub fn addr(self) -> usize {
        self.0.addr()
    }

    /// Elements in the subtree.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the subtree is empty (only the empty list's root is).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// A leaf's elements; `None` for a branch.
    pub fn elements(self) -> Option<&'a [Value]> {
        match self.0 {
            ListTree::Leaf(vs) => Some(vs),
            ListTree::Branch(_) => None,
        }
    }

    /// A branch's children, in order; none for a leaf.
    pub fn children(self) -> impl ExactSizeIterator<Item = ListNodeRef<'a>> {
        let children: &'a [ListTree] = match self.0 {
            ListTree::Leaf(_) => &[],
            ListTree::Branch(b) => &b.children,
        };
        children.iter().map(ListNodeRef)
    }
}

fn push_node(node: &ListTree, value: Value) -> LIns {
    match node {
        ListTree::Leaf(vs) if vs.len() < CHUNK => {
            LIns::One(ListTree::Leaf(spliced(vs, vs.len()..vs.len(), [value]).0))
        }
        // A full leaf stays as it is, shared; the value starts the next.
        ListTree::Leaf(_) => LIns::Split(node.clone(), ListTree::Leaf(Arc::new([value]))),
        ListTree::Branch(b) => {
            let last = b.children.len() - 1;
            let halves = match push_node(&b.children[last], value) {
                LIns::One(n) => spliced(&b.children, last..last + 1, [n]),
                LIns::Split(l, r) => spliced(&b.children, last..last + 1, [l, r]),
            };
            match halves {
                (a, None) => LIns::One(list_branch(a)),
                (a, Some(b)) => LIns::Split(list_branch(a), list_branch(b)),
            }
        }
    }
}

/// Collects a tree's leaf nodes, left to right, by reference.
fn collect_leaves(node: &ListTree, out: &mut Vec<ListTree>) {
    match node {
        ListTree::Leaf(_) => out.push(node.clone()),
        ListTree::Branch(b) => {
            for c in b.children.iter() {
                collect_leaves(c, out);
            }
        }
    }
}

/// Builds branch levels over a non-empty node sequence.
fn build_list_levels(mut level: Vec<ListTree>) -> ListTree {
    while level.len() > 1 {
        let n = level.len();
        level = spread(level.into_iter(), n).map(list_branch).collect();
    }
    level.pop().unwrap_or_else(ListTree::empty)
}

/// In-order borrowing iterator over a [`PList`]. Inline descent stack;
/// never allocates (see [`MapIter`]).
#[derive(Debug)]
pub struct ListIter<'a> {
    /// Frames from `depth` up are unused.
    stack: [(&'a ListTree, usize); MAX_DEPTH],
    depth: usize,
    remaining: usize,
}

impl<'a> ListIter<'a> {
    /// The elements of the subtree under `node`.
    fn over(node: &'a ListTree) -> Self {
        ListIter {
            stack: [(node, 0); MAX_DEPTH],
            depth: usize::from(node.len() != 0),
            remaining: node.len(),
        }
    }
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.depth == 0 {
                return None;
            }
            let (node, idx) = &mut self.stack[self.depth - 1];
            match *node {
                ListTree::Leaf(vs) => {
                    if let Some(v) = vs.get(*idx) {
                        *idx += 1;
                        self.remaining -= 1;
                        return Some(v);
                    }
                    self.depth -= 1;
                }
                ListTree::Branch(b) => {
                    if let Some(child) = b.children.get(*idx) {
                        *idx += 1;
                        let d = self.depth;
                        assert!(d < MAX_DEPTH, "persistent list deeper than MAX_DEPTH");
                        self.stack[d] = (child, 0);
                        self.depth = d + 1;
                    } else {
                        self.depth -= 1;
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ListIter<'_> {}

impl Default for PList {
    fn default() -> Self {
        PList::new()
    }
}

impl PartialEq for PList {
    fn eq(&self, other: &Self) -> bool {
        list_nodes_eq(&self.root, &other.root)
    }
}

/// [`map_nodes_eq`] for lists: a list and its `push` share every node
/// off the rightmost spine.
fn list_nodes_eq(a: &ListTree, b: &ListTree) -> bool {
    if a.addr() == b.addr() {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    match (a, b) {
        (ListTree::Branch(x), ListTree::Branch(y))
            if x.children.len() == y.children.len()
                && (x.children.iter().zip(&y.children)).all(|(c, d)| c.len() == d.len()) =>
        {
            (x.children.iter().zip(&y.children)).all(|(c, d)| list_nodes_eq(c, d))
        }
        _ => ListIter::over(a).zip(ListIter::over(b)).all(|(x, y)| {
            count_compare();
            x == y
        }),
    }
}

impl Eq for PList {}

impl Ord for PList {
    /// Lexicographic over elements — identical to `Vec<Value>`'s order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for PList {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for PList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for v in self.iter() {
            v.hash(state);
        }
    }
}

impl FromIterator<Value> for PList {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        PList::from_exact(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a PList {
    type Item = &'a Value;
    type IntoIter = ListIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a PMap {
    type Item = (&'a Arc<str>, &'a Value);
    type IntoIter = MapIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn k(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn pmap_insert_get_iter_sorted() {
        let mut m = PMap::new();
        for i in (0..100).rev() {
            m = m.insert(k(&format!("k{i:03}")), Value::int(i));
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get("k042").and_then(Value::as_int), Some(42));
        assert_eq!(m.get("missing"), None);
        let keys: Vec<String> = m.keys().map(|s| s.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration is key-ordered");
    }

    #[test]
    fn pmap_insert_overwrites_and_shares() {
        let base = PMap::from_pairs((0..50).map(|i| (k(&format!("k{i:02}")), Value::int(i))));
        let upd = base.insert(k("k07"), Value::int(999));
        assert_eq!(base.get("k07").and_then(Value::as_int), Some(7));
        assert_eq!(upd.get("k07").and_then(Value::as_int), Some(999));
        assert_eq!(upd.len(), 50);
        // Untouched values are shared by pointer, not copied.
        let (a, b) = (base.get("k40").unwrap(), upd.get("k40").unwrap());
        if let (Value::Str(x), Value::Str(y)) = (a, b) {
            assert!(Arc::ptr_eq(x, y));
        }
    }

    #[test]
    fn pmap_remove_variants() {
        let m = PMap::from_pairs((0..40).map(|i| (k(&format!("k{i:02}")), Value::int(i))));
        let gone = m.remove("k13");
        assert_eq!(gone.len(), 39);
        assert_eq!(gone.get("k13"), None);
        assert_eq!(m.len(), 40, "source map untouched");
        let same = m.remove("absent");
        assert!(same.ptr_eq(&m), "removing an absent key shares the root");
        // Remove everything.
        let mut left = m.clone();
        for i in 0..40 {
            left = left.remove(&format!("k{i:02}"));
        }
        assert!(left.is_empty());
        assert!(left.ptr_eq(&PMap::new()), "empty maps share the singleton");
    }

    #[test]
    fn pmap_duplicate_pairs_later_wins() {
        let m = PMap::from_pairs([
            (k("a"), Value::int(1)),
            (k("b"), Value::int(2)),
            (k("a"), Value::int(3)),
        ]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").and_then(Value::as_int), Some(3));
    }

    #[test]
    fn pmap_eq_ord_follow_content() {
        let a = PMap::from_pairs([(k("x"), Value::int(1))]);
        let b = PMap::new().insert(k("x"), Value::int(1));
        assert_eq!(a, b);
        let c = b.insert(k("y"), Value::int(2));
        assert!(a < c);
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn plist_push_get_iter() {
        let mut l = PList::new();
        for i in 0..100 {
            l = l.push(Value::int(i));
        }
        assert_eq!(l.len(), 100);
        assert_eq!(l.get(63).and_then(Value::as_int), Some(63));
        assert_eq!(l.get(100), None);
        let collected: Vec<i64> = l.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
        assert_eq!(l.iter().len(), 100);
    }

    #[test]
    fn plist_push_shares_prefix() {
        let base = PList::from_exact((0..64).map(Value::int).collect::<Vec<_>>());
        let ext = base.push(Value::int(64));
        assert_eq!(base.len(), 64);
        assert_eq!(ext.len(), 65);
        assert_eq!(ext.get(64).and_then(Value::as_int), Some(64));
        assert_eq!(base.get(10), ext.get(10));
    }

    #[test]
    fn plist_concat_matches_vec() {
        for (n, m) in [(0, 5), (5, 0), (3, 4), (20, 30), (100, 1)] {
            let a = PList::from_exact((0..n).map(Value::int).collect::<Vec<_>>());
            let b = PList::from_exact((0..m).map(|i| Value::int(100 + i)).collect::<Vec<_>>());
            let c = a.concat(&b);
            let expect: Vec<Value> = (0..n)
                .map(Value::int)
                .chain((0..m).map(|i| Value::int(100 + i)))
                .collect();
            assert_eq!(c.len(), expect.len());
            assert!(c.iter().eq(expect.iter()), "concat {n}+{m}");
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(c.get(i), Some(e), "get({i}) after concat {n}+{m}");
            }
        }
    }

    fn compares(f: impl FnOnce() -> bool) -> (bool, u64) {
        let before = ENTRY_COMPARES.with(|c| c.get());
        let equal = f();
        (equal, ENTRY_COMPARES.with(|c| c.get()) - before)
    }

    #[test]
    fn eq_reads_what_changed_not_what_is_there() {
        // MOTD's shape: a 360-entry map, and what replay makes of it.
        let mut base = PMap::new();
        for i in 0..360 {
            base = base.insert(k(&format!("day-{i:03}")), Value::int(i));
        }
        let depth = base.root.height() as u64;
        assert_eq!(depth, 3);
        let budget = 2 * CHUNK as u64 * depth;
        // The same update made twice: equal, different path, every
        // other node shared.
        let (a, b) = (
            base.insert(k("day-200"), Value::int(-1)),
            base.insert(k("day-200"), Value::int(-1)),
        );
        assert!(!a.ptr_eq(&b));
        let (equal, n) = compares(|| a == b);
        assert!(equal);
        assert!((1..=budget).contains(&n), "{n} entry comparisons");
        // One value apart: unequal, found as cheaply.
        let (equal, n) = compares(|| a == base);
        assert!(!equal);
        assert!((1..=budget).contains(&n), "{n} entry comparisons");
        // Equal maps whose trees are cut differently line up nowhere:
        // every entry is compared, and the answer is still right.
        let bulk = PMap::from_pairs(a.iter().map(|(k, v)| (Arc::clone(k), v.clone())));
        let (equal, n) = compares(|| a == bulk);
        assert!(equal);
        assert_eq!(n, 360);
        // Lists: a push shares everything off the rightmost spine.
        let list = PList::from_exact((0..360).map(Value::int).collect::<Vec<_>>());
        let (a, b) = (list.push(Value::Null), list.push(Value::Null));
        let (equal, n) = compares(|| a == b);
        assert!(equal);
        assert!((1..=budget).contains(&n), "{n} element comparisons");
    }

    #[test]
    fn an_edit_check_reads_the_edited_path() {
        // MOTD's shape again, grown one insert at a time: each version
        // checked against the insert that made it reads the edited
        // leaf, a split's two leaves included, and no more.
        let mut base = PMap::new();
        for i in 0..600 {
            let key = k(&format!("day-{:03}", (i * 7919) % 1000));
            let next = base.insert(Arc::clone(&key), Value::int(i));
            let (equal, n) = compares(|| next.eq_inserted(&base, &key, &Value::int(i)));
            assert!(equal);
            assert!(n <= CHUNK as u64 + 1, "insert {i}: {n} entry comparisons");
            let (equal, n) = compares(|| base.eq_removed(&next, &key));
            assert!(equal);
            assert!(n <= CHUNK as u64 + 1, "remove {i}: {n} entry comparisons");
            // A forged value off the path is found, wherever it is.
            let far = next.keys().next().cloned().expect("an entry");
            if far != key {
                let forged = next.insert(far, Value::Null);
                assert!(!forged.eq_inserted(&base, &key, &Value::int(i)));
            }
            base = next;
        }
    }

    #[test]
    fn checked_constructors_refuse_what_the_tree_code_relies_on() {
        let leaf = |keys: &[&str]| PMap::checked_leaf(keys.iter().map(|s| (k(s), Value::Null)));
        assert_eq!(leaf(&[]).unwrap_err(), NodeError::Width);
        assert_eq!(leaf(&["b", "a"]).unwrap_err(), NodeError::KeyOrder);
        assert_eq!(leaf(&["a", "a"]).unwrap_err(), NodeError::KeyOrder);
        let wide: Vec<String> = (0..=CHUNK).map(|i| format!("k{i:02}")).collect();
        let wide: Vec<&str> = wide.iter().map(String::as_str).collect();
        assert_eq!(leaf(&wide).unwrap_err(), NodeError::Width);
        let (ab, cd, bc) = (
            leaf(&["a", "b"]).unwrap(),
            leaf(&["c", "d"]).unwrap(),
            leaf(&["b", "c"]).unwrap(),
        );
        let branch = PMap::checked_branch(&[ab.clone(), cd.clone()]).unwrap();
        assert_eq!(branch.len(), 4);
        assert_eq!(branch, leaf(&["a", "b", "c", "d"]).unwrap());
        assert!(branch.insert(k("bb"), Value::Null).get("bb").is_some());
        for (children, why) in [
            (vec![], NodeError::Width),
            (vec![cd.clone(), ab.clone()], NodeError::KeyOrder),
            (vec![ab.clone(), bc], NodeError::KeyOrder),
            (vec![ab.clone(), ab.clone()], NodeError::KeyOrder),
            (vec![ab.clone(), PMap::new()], NodeError::Width),
            (
                vec![branch.clone(), leaf(&["x"]).unwrap()],
                NodeError::Height,
            ),
            (vec![ab; CHUNK + 1], NodeError::Width),
        ] {
            assert_eq!(PMap::checked_branch(&children).unwrap_err(), why);
        }
        // A chain of one-child branches is a tree until it is as tall as
        // an assembled tree may be.
        let mut tall = cd;
        for _ in 1..MAX_CHECKED_HEIGHT {
            tall = PMap::checked_branch(&[tall]).unwrap();
        }
        assert_eq!(tall.iter().count(), 2);
        assert_eq!(PMap::checked_branch(&[tall]).unwrap_err(), NodeError::Depth);

        assert_eq!(PList::checked_leaf(vec![]).unwrap_err(), NodeError::Width);
        let one = PList::checked_leaf(vec![Value::int(1)]).unwrap();
        let two = PList::checked_branch(&[one.clone(), one.clone()]).unwrap();
        assert_eq!(two, PList::from_exact(vec![Value::int(1); 2]));
        assert_eq!(
            PList::checked_branch(&[two.clone(), one.clone()]).unwrap_err(),
            NodeError::Height
        );
        assert_eq!(
            PList::checked_branch(&[one, PList::new()]).unwrap_err(),
            NodeError::Width
        );
        let mut tall = two;
        for _ in 2..MAX_CHECKED_HEIGHT {
            tall = PList::checked_branch(&[tall]).unwrap();
        }
        assert_eq!(tall.iter().count(), 2);
        assert_eq!(
            PList::checked_branch(&[tall]).unwrap_err(),
            NodeError::Depth
        );
    }

    #[test]
    fn the_tallest_accepted_tree_has_room_to_grow() {
        // The worst shape the checked constructors let through: as tall
        // as they allow, every node on the rightmost path full, every
        // other node as thin as a node can be. One update past the end
        // splits the whole path and the root.
        let mut thin = PList::checked_leaf(vec![Value::Null]).unwrap();
        let mut list = PList::checked_leaf(vec![Value::Null; CHUNK]).unwrap();
        for _ in 1..MAX_CHECKED_HEIGHT {
            let mut children = vec![thin.clone(); CHUNK - 1];
            children.push(list);
            list = PList::checked_branch(&children).unwrap();
            thin = PList::checked_branch(&[thin]).unwrap();
        }
        assert_eq!(list.root.height(), MAX_CHECKED_HEIGHT);
        let n = list.len();
        let mut grown = list.clone();
        for i in 0..200 {
            grown = grown.push(Value::int(i));
        }
        assert_eq!(grown.root.height(), MAX_CHECKED_HEIGHT + 1);
        assert_eq!(grown.iter().count(), n + 200);
        assert_eq!(grown.get(n + 199), Some(&Value::int(199)));
        assert_ne!(grown, list);
        assert_eq!(grown.concat(&list).len(), 2 * n + 200);

        let leaf = |level: usize, i: usize| {
            PMap::checked_leaf(vec![(k(&format!("{level:02}.{i:02}")), Value::Null)]).unwrap()
        };
        let mut map =
            PMap::checked_leaf((0..CHUNK).map(|i| (k(&format!("00.{i:02}")), Value::Null)))
                .unwrap();
        for level in 1..MAX_CHECKED_HEIGHT {
            // Thin siblings of the path's height, all keyed above it.
            let mut children = vec![map];
            for i in 1..CHUNK {
                let mut thin = leaf(level, i);
                for _ in 1..level {
                    thin = PMap::checked_branch(&[thin]).unwrap();
                }
                children.push(thin);
            }
            map = PMap::checked_branch(&children).unwrap();
        }
        assert_eq!(map.root.height(), MAX_CHECKED_HEIGHT);
        let n = map.len();
        // `00.00a` sorts into the full leaf at the bottom of the path.
        let grown = map.insert(k("00.00a"), Value::int(1));
        assert_eq!(grown.root.height(), MAX_CHECKED_HEIGHT + 1);
        assert_eq!(grown.iter().count(), n + 1);
        assert!(grown.keys().zip(grown.keys().skip(1)).all(|(a, b)| a < b));
        assert_eq!(grown.get("00.00a"), Some(&Value::int(1)));
        assert_ne!(grown, map);
        assert_eq!(grown.remove("00.00a"), map);
    }

    #[test]
    fn a_tree_is_two_words_and_a_value_three() {
        // A leaf's slice pointer is fat and a branch's thin, so the
        // handle packs into 16 bytes and `Value` keeps its 24.
        assert_eq!(std::mem::size_of::<PMap>(), 16);
        assert_eq!(std::mem::size_of::<PList>(), 16);
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn empty_singletons_are_shared() {
        assert!(PMap::new().ptr_eq(&PMap::new()));
        assert!(PList::new().ptr_eq(&PList::new()));
        assert_eq!(PMap::new().iter().next(), None);
        assert_eq!(PList::new().iter().next(), None);
    }
}
