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
//! Observable semantics are bit-for-bit those of the previous
//! `Arc<BTreeMap<String, Value>>` / `Arc<Vec<Value>>` representation:
//!
//! * [`PMap`] iterates in strict ascending key order (the digest,
//!   `Display`, `Ord`, and wire encodings are byte-identical);
//! * duplicate keys resolve later-wins, exactly like `BTreeMap::insert`;
//! * [`PList`] preserves insertion order; and
//! * `Eq`/`Ord`/`Hash` are content-based with an `Arc::ptr_eq` fast
//!   path at the root (a pure shortcut, as before).
//!
//! Keys are `Arc<str>`, so inserting a key that the program already
//! holds as a `Value::Str` is allocation-free.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum entries per leaf and children per branch. 16 keeps a path
/// copy to a pair of small `Vec`s per level while bounding tree depth
/// at log₁₆ n (3 levels cover 4096 entries).
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
// PMap: a counted B-tree keyed by Arc<str>
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum MapNode {
    /// Sorted `(key, value)` entries; non-empty except for the shared
    /// empty-map root.
    Leaf(Vec<(Arc<str>, Value)>),
    /// `keys[i]` is the minimum key of `children[i]`; `len` counts the
    /// entries of the whole subtree.
    Branch {
        len: usize,
        keys: Vec<Arc<str>>,
        children: Vec<Arc<MapNode>>,
    },
}

impl MapNode {
    fn len(&self) -> usize {
        match self {
            MapNode::Leaf(es) => es.len(),
            MapNode::Branch { len, .. } => *len,
        }
    }

    /// Minimum key of the subtree; `None` only for the empty root.
    fn min_key(&self) -> Option<&Arc<str>> {
        match self {
            MapNode::Leaf(es) => es.first().map(|(k, _)| k),
            MapNode::Branch { keys, .. } => keys.first(),
        }
    }

    /// Maximum key of the subtree; `None` only for the empty root.
    fn max_key(&self) -> Option<&Arc<str>> {
        let mut node = self;
        loop {
            match node {
                MapNode::Leaf(es) => return es.last().map(|(k, _)| k),
                MapNode::Branch { children, .. } => node = children.last()?,
            }
        }
    }

    /// Levels from this node down to its leftmost leaf, which is every
    /// leaf: all leaves of a tree sit at one depth (updates split and
    /// collapse whole levels, and [`PMap::checked_branch`] refuses
    /// children of unequal height).
    fn height(&self) -> usize {
        let (mut node, mut levels) = (self, 1);
        while let MapNode::Branch { children, .. } = node {
            match children.first() {
                Some(child) => node = child,
                None => break,
            }
            levels += 1;
        }
        levels
    }
}

/// A persistent string-keyed ordered map with O(log n) path-copying
/// updates. Cloning is O(1) (one `Arc` bump); [`PMap::insert`] and
/// [`PMap::remove`] return a new map sharing all untouched nodes with
/// `self`.
#[derive(Debug, Clone)]
pub struct PMap {
    root: Arc<MapNode>,
}

/// The shared empty-map root: [`PMap::new`] (and thus
/// `Value::empty_map()`) is allocation-free after first use.
fn empty_map_root() -> &'static Arc<MapNode> {
    static EMPTY: OnceLock<Arc<MapNode>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(MapNode::Leaf(Vec::new())))
}

/// A node with its minimum key, which its parent's `keys` holds.
type Keyed = (Arc<str>, Arc<MapNode>);

/// Result of a path-copying insert one level down.
enum Ins {
    /// The child was replaced. Its minimum key is the old one or the
    /// inserted key, whichever is smaller.
    One(Arc<MapNode>),
    /// The child split; the second node's min key is strictly greater.
    Split(Keyed, Keyed),
}

impl PMap {
    /// The empty map. Allocation-free: all empty maps share one static
    /// root node.
    pub fn new() -> PMap {
        PMap {
            root: Arc::clone(empty_map_root()),
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
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let mut node = &*self.root;
        loop {
            match node {
                MapNode::Leaf(es) => {
                    return es
                        .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                        .ok()
                        .map(|i| &es[i].1);
                }
                MapNode::Branch { keys, children, .. } => {
                    node = &*children[child_for(keys, key)];
                }
            }
        }
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
            Ins::Split((ka, a), (kb, b)) => Arc::new(MapNode::Branch {
                len: a.len() + b.len(),
                keys: vec![ka, kb],
                children: vec![a, b],
            }),
        };
        PMap { root }
    }

    /// Functional remove: returns a map without `key`. Removing an
    /// absent key returns a clone of `self` (same root, no copying).
    pub fn remove(&self, key: &str) -> PMap {
        match remove_node(&self.root, key) {
            None => self.clone(),
            Some(mut root) => {
                // Collapse single-child root chains so depth tracks the
                // surviving entry count.
                loop {
                    let next = match &*root {
                        MapNode::Branch { children, .. } if children.len() == 1 => {
                            Arc::clone(&children[0])
                        }
                        _ => break,
                    };
                    root = next;
                }
                if root.len() == 0 {
                    PMap::new()
                } else {
                    PMap { root }
                }
            }
        }
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
        if entries.is_empty() {
            return PMap::new();
        }
        // Stable sort keeps duplicate keys in input order; dedup keeps
        // the *last* of each run.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut write = 0;
        for read in 1..entries.len() {
            if entries[read].0 == entries[write].0 {
                entries.swap(write, read);
            } else {
                write += 1;
                entries.swap(write, read);
            }
        }
        entries.truncate(write + 1);
        PMap {
            root: build_map_tree(entries),
        }
    }

    /// Bulk-builds from entries already in strictly ascending key order
    /// (e.g. out of a `BTreeMap`). Skips the sort-and-dedup pass.
    pub fn from_sorted_pairs(pairs: impl IntoIterator<Item = (Arc<str>, Value)>) -> PMap {
        let entries: Vec<(Arc<str>, Value)> = pairs.into_iter().collect();
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        if entries.is_empty() {
            return PMap::new();
        }
        PMap {
            root: build_map_tree(entries),
        }
    }

    /// A one-node map with exactly these leaf entries, or why they are
    /// not a leaf: the width must be `1..=CHUNK` and the keys strictly
    /// ascending (`get` and `insert` binary-search them). With
    /// [`PMap::checked_branch`], the only way to assemble a map from
    /// nodes rather than entries — what the advice decoder does with a
    /// pool of shared nodes.
    pub fn checked_leaf(entries: Vec<(Arc<str>, Value)>) -> Result<PMap, NodeError> {
        check_width(entries.len())?;
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(NodeError::KeyOrder);
        }
        Ok(PMap {
            root: Arc::new(MapNode::Leaf(entries)),
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
        let mut keys = Vec::with_capacity(children.len());
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
            keys.push(Arc::clone(min));
        }
        Ok(PMap {
            root: Arc::new(MapNode::Branch {
                len,
                keys,
                children: children.iter().map(|c| Arc::clone(&c.root)).collect(),
            }),
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
pub struct MapNodeRef<'a>(&'a Arc<MapNode>);

impl<'a> MapNodeRef<'a> {
    /// The node's identity: equal for two references exactly when they
    /// are one allocation, for as long as either is borrowed.
    pub fn addr(self) -> usize {
        Arc::as_ptr(self.0) as usize
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
        match &**self.0 {
            MapNode::Leaf(es) => Some(es),
            MapNode::Branch { .. } => None,
        }
    }

    /// A branch's children, in key order; none for a leaf.
    pub fn children(self) -> impl ExactSizeIterator<Item = MapNodeRef<'a>> {
        let children: &'a [Arc<MapNode>] = match &**self.0 {
            MapNode::Leaf(_) => &[],
            MapNode::Branch { children, .. } => children,
        };
        children.iter().map(MapNodeRef)
    }
}

/// Child index covering `key` in a branch: the last child whose min key
/// is `<= key`, or the first child when `key` sorts before everything.
#[inline]
fn child_for(keys: &[Arc<str>], key: &str) -> usize {
    keys.partition_point(|min| min.as_ref() <= key).max(1) - 1
}

fn insert_node(node: &MapNode, key: Arc<str>, value: Value) -> Ins {
    match node {
        MapNode::Leaf(es) => match es.binary_search_by(|(k, _)| k.as_ref().cmp(&key)) {
            Ok(i) => {
                let mut next = es.clone();
                next[i] = (key, value);
                Ins::One(Arc::new(MapNode::Leaf(next)))
            }
            Err(i) => {
                let mut next = Vec::with_capacity(es.len() + 1);
                next.extend_from_slice(&es[..i]);
                next.push((key, value));
                next.extend_from_slice(&es[i..]);
                split_leaf(next)
            }
        },
        MapNode::Branch { keys, children, .. } => {
            let i = child_for(keys, &key);
            let mut keys = keys.clone();
            let mut children = children.clone();
            // Only the first child can receive a key below its minimum.
            if i == 0 && key < keys[0] {
                keys[0] = Arc::clone(&key);
            }
            match insert_node(&children[i], key, value) {
                Ins::One(n) => children[i] = n,
                Ins::Split((ka, a), (kb, b)) => {
                    (keys[i], children[i]) = (ka, a);
                    keys.insert(i + 1, kb);
                    children.insert(i + 1, b);
                }
            }
            let len: usize = children.iter().map(|c| c.len()).sum();
            split_branch(len, keys, children)
        }
    }
}

/// Wraps an over-full leaf into one or two nodes.
fn split_leaf(entries: Vec<(Arc<str>, Value)>) -> Ins {
    if entries.len() <= CHUNK {
        return Ins::One(Arc::new(MapNode::Leaf(entries)));
    }
    let leaf = |es: Vec<(Arc<str>, Value)>| (Arc::clone(&es[0].0), Arc::new(MapNode::Leaf(es)));
    let mut left = entries;
    let right = left.split_off(left.len() / 2);
    Ins::Split(leaf(left), leaf(right))
}

/// Wraps an over-full branch into one or two nodes.
fn split_branch(len: usize, keys: Vec<Arc<str>>, children: Vec<Arc<MapNode>>) -> Ins {
    if children.len() <= CHUNK {
        return Ins::One(Arc::new(MapNode::Branch {
            len,
            keys,
            children,
        }));
    }
    let branch = |len, keys: Vec<Arc<str>>, children| {
        let min = Arc::clone(&keys[0]);
        (
            min,
            Arc::new(MapNode::Branch {
                len,
                keys,
                children,
            }),
        )
    };
    let mut lk = keys;
    let mut lc = children;
    let rk = lk.split_off(lk.len() / 2);
    let rc = lc.split_off(lc.len() / 2);
    let llen: usize = lc.iter().map(|c| c.len()).sum();
    Ins::Split(branch(llen, lk, lc), branch(len - llen, rk, rc))
}

/// `None` means the key was absent (nothing to copy). An empty
/// returned node means the subtree emptied out.
fn remove_node(node: &MapNode, key: &str) -> Option<Arc<MapNode>> {
    match node {
        MapNode::Leaf(es) => {
            let i = es.binary_search_by(|(k, _)| k.as_ref().cmp(key)).ok()?;
            let mut next = es.clone();
            next.remove(i);
            Some(Arc::new(MapNode::Leaf(next)))
        }
        MapNode::Branch { keys, children, .. } => {
            let i = child_for(keys, key);
            let replaced = remove_node(&children[i], key)?;
            let mut keys = keys.clone();
            let mut children = children.clone();
            match replaced.min_key().cloned() {
                Some(min) => (keys[i], children[i]) = (min, replaced),
                // The subtree emptied out.
                None => {
                    keys.remove(i);
                    children.remove(i);
                }
            }
            let len: usize = children.iter().map(|c| c.len()).sum();
            Some(Arc::new(MapNode::Branch {
                len,
                keys,
                children,
            }))
        }
    }
}

/// Builds a balanced tree over sorted, deduplicated entries: leaves of
/// up to [`CHUNK`] entries, then branch levels of up to [`CHUNK`]
/// children until one root remains.
fn build_map_tree(entries: Vec<(Arc<str>, Value)>) -> Arc<MapNode> {
    let n = entries.len();
    // Single-leaf maps (the overwhelmingly common case: handler
    // payloads, request contexts, small literals) move the caller's
    // buffer straight into the leaf — one `Arc` allocation total.
    if n <= CHUNK {
        return Arc::new(MapNode::Leaf(entries));
    }
    // Spread entries evenly instead of filling leaves and leaving a
    // 1-entry straggler: ceil(n / CHUNK) leaves of near-equal size.
    let leaves = n.div_ceil(CHUNK);
    let mut level: Vec<Keyed> = Vec::with_capacity(leaves);
    let mut it = entries.into_iter();
    for li in 0..leaves {
        let take = (n + leaves - 1 - li) / leaves;
        let leaf: Vec<_> = it.by_ref().take(take).collect();
        level.push((Arc::clone(&leaf[0].0), Arc::new(MapNode::Leaf(leaf))));
    }
    while level.len() > 1 {
        let groups = level.len().div_ceil(CHUNK);
        let mut next = Vec::with_capacity(groups);
        let total = level.len();
        let mut it = level.into_iter();
        for gi in 0..groups {
            let take = (total + groups - 1 - gi) / groups;
            let (keys, children): (Vec<_>, Vec<Arc<MapNode>>) = it.by_ref().take(take).unzip();
            let len = children.iter().map(|c| c.len()).sum();
            let min = Arc::clone(&keys[0]);
            next.push((
                min,
                Arc::new(MapNode::Branch {
                    len,
                    keys,
                    children,
                }),
            ));
        }
        level = next;
    }
    level
        .pop()
        .map_or_else(|| PMap::new().root, |(_, root)| root)
}

/// In-order borrowing iterator over a [`PMap`]. The descent stack is a
/// fixed inline array so constructing and driving the iterator never
/// touches the allocator.
#[derive(Debug)]
pub struct MapIter<'a> {
    /// `(node, next child / entry index)` frames root-to-current; those
    /// from `depth` up are unused.
    stack: [(&'a MapNode, usize); MAX_DEPTH],
    depth: usize,
}

impl<'a> MapIter<'a> {
    /// The entries of the subtree under `node`.
    fn over(node: &'a MapNode) -> Self {
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
                MapNode::Leaf(es) => {
                    if let Some((k, v)) = es.get(*idx) {
                        *idx += 1;
                        return Some((k, v));
                    }
                    self.depth -= 1;
                }
                MapNode::Branch { children, .. } => {
                    if let Some(child) = children.get(*idx) {
                        *idx += 1;
                        let child: &'a MapNode = child;
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
fn map_nodes_eq(a: &Arc<MapNode>, b: &Arc<MapNode>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    match (&**a, &**b) {
        (MapNode::Branch { children: ca, .. }, MapNode::Branch { children: cb, .. })
            if ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| x.len() == y.len()) =>
        {
            ca.iter().zip(cb).all(|(x, y)| map_nodes_eq(x, y))
        }
        _ => MapIter::over(a)
            .zip(MapIter::over(b))
            .all(|((ka, va), (kb, vb))| {
                count_compare();
                ka == kb && va == vb
            }),
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

#[derive(Debug)]
enum ListNode {
    /// Up to [`CHUNK`] values. Interior leaves may be under-full (the
    /// concat fast path adopts both operands' leaves by reference), so
    /// indexing counts through per-child lengths rather than assuming
    /// fixed-radix positions.
    Leaf(Vec<Value>),
    Branch {
        len: usize,
        children: Vec<Arc<ListNode>>,
    },
}

impl ListNode {
    fn len(&self) -> usize {
        match self {
            ListNode::Leaf(vs) => vs.len(),
            ListNode::Branch { len, .. } => *len,
        }
    }

    /// Levels down to the leaves; see [`MapNode::height`].
    fn height(&self) -> usize {
        let (mut node, mut levels) = (self, 1);
        while let ListNode::Branch { children, .. } = node {
            match children.first() {
                Some(child) => node = child,
                None => break,
            }
            levels += 1;
        }
        levels
    }
}

/// A persistent list with O(log n) shared-tail push: pushing copies the
/// rightmost root-to-leaf spine and shares every other node with the
/// source list.
#[derive(Debug, Clone)]
pub struct PList {
    root: Arc<ListNode>,
}

/// The shared empty-list root backing `Value::empty_list()`.
fn empty_list_root() -> &'static Arc<ListNode> {
    static EMPTY: OnceLock<Arc<ListNode>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(ListNode::Leaf(Vec::new())))
}

enum LIns {
    One(Arc<ListNode>),
    Split(Arc<ListNode>, Arc<ListNode>),
}

impl PList {
    /// The empty list. Allocation-free: all empty lists share one
    /// static root node.
    pub fn new() -> PList {
        PList {
            root: Arc::clone(empty_list_root()),
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
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Element at `index`.
    pub fn get(&self, index: usize) -> Option<&Value> {
        if index >= self.len() {
            return None;
        }
        let mut node = &*self.root;
        let mut i = index;
        loop {
            match node {
                ListNode::Leaf(vs) => return vs.get(i),
                ListNode::Branch { children, .. } => {
                    for child in children {
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
            LIns::Split(a, b) => Arc::new(ListNode::Branch {
                len: a.len() + b.len(),
                children: vec![a, b],
            }),
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
        let total = self.len() + other.len();
        if total <= CHUNK {
            let mut vs = Vec::with_capacity(total);
            vs.extend(self.iter().cloned());
            vs.extend(other.iter().cloned());
            return PList {
                root: Arc::new(ListNode::Leaf(vs)),
            };
        }
        let mut leaves = Vec::new();
        collect_leaves(&self.root, &mut leaves);
        collect_leaves(&other.root, &mut leaves);
        PList {
            root: build_list_tree(leaves),
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

    /// Bulk-builds from a vector of values.
    pub fn from_vec(values: Vec<Value>) -> PList {
        if values.is_empty() {
            return PList::new();
        }
        if values.len() <= CHUNK {
            return PList {
                root: Arc::new(ListNode::Leaf(values)),
            };
        }
        let n = values.len();
        let leaves = n.div_ceil(CHUNK);
        let mut level: Vec<Arc<ListNode>> = Vec::with_capacity(leaves);
        let mut it = values.into_iter();
        for li in 0..leaves {
            let take = (n + leaves - 1 - li) / leaves;
            level.push(Arc::new(ListNode::Leaf(it.by_ref().take(take).collect())));
        }
        PList {
            root: build_list_tree(level),
        }
    }
}

impl PList {
    /// A one-node list of exactly these `1..=CHUNK` elements; see
    /// [`PMap::checked_leaf`].
    pub fn checked_leaf(values: Vec<Value>) -> Result<PList, NodeError> {
        check_width(values.len())?;
        Ok(PList {
            root: Arc::new(ListNode::Leaf(values)),
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
        Ok(PList {
            root: Arc::new(ListNode::Branch {
                len,
                children: children.iter().map(|c| Arc::clone(&c.root)).collect(),
            }),
        })
    }

    /// The root node, for walking the tree node by node.
    pub fn root(&self) -> ListNodeRef<'_> {
        ListNodeRef(&self.root)
    }
}

/// One node of a [`PList`]'s tree, borrowed; see [`MapNodeRef`].
#[derive(Debug, Clone, Copy)]
pub struct ListNodeRef<'a>(&'a Arc<ListNode>);

impl<'a> ListNodeRef<'a> {
    /// The node's identity; see [`MapNodeRef::addr`].
    pub fn addr(self) -> usize {
        Arc::as_ptr(self.0) as usize
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
        match &**self.0 {
            ListNode::Leaf(vs) => Some(vs),
            ListNode::Branch { .. } => None,
        }
    }

    /// A branch's children, in order; none for a leaf.
    pub fn children(self) -> impl ExactSizeIterator<Item = ListNodeRef<'a>> {
        let children: &'a [Arc<ListNode>] = match &**self.0 {
            ListNode::Leaf(_) => &[],
            ListNode::Branch { children, .. } => children,
        };
        children.iter().map(ListNodeRef)
    }
}

fn push_node(node: &ListNode, value: Value) -> LIns {
    match node {
        ListNode::Leaf(vs) => {
            if vs.len() < CHUNK {
                let mut next = Vec::with_capacity(vs.len() + 1);
                next.extend_from_slice(vs);
                next.push(value);
                LIns::One(Arc::new(ListNode::Leaf(next)))
            } else {
                LIns::Split(
                    Arc::new(ListNode::Leaf(vs.clone())),
                    Arc::new(ListNode::Leaf(vec![value])),
                )
            }
        }
        ListNode::Branch { len, children } => {
            let mut children = children.clone();
            let last = children.len() - 1;
            match push_node(&children[last], value) {
                LIns::One(n) => children[last] = n,
                LIns::Split(a, b) => {
                    children[last] = a;
                    children.push(b);
                }
            }
            if children.len() <= CHUNK {
                LIns::One(Arc::new(ListNode::Branch {
                    len: len + 1,
                    children,
                }))
            } else {
                let rc = children.split_off(children.len() / 2);
                let llen: usize = children.iter().map(|c| c.len()).sum();
                LIns::Split(
                    Arc::new(ListNode::Branch {
                        len: llen,
                        children,
                    }),
                    Arc::new(ListNode::Branch {
                        len: len + 1 - llen,
                        children: rc,
                    }),
                )
            }
        }
    }
}

/// Collects a tree's leaf nodes, left to right, by reference.
fn collect_leaves(node: &Arc<ListNode>, out: &mut Vec<Arc<ListNode>>) {
    match &**node {
        ListNode::Leaf(_) => out.push(Arc::clone(node)),
        ListNode::Branch { children, .. } => {
            for c in children {
                collect_leaves(c, out);
            }
        }
    }
}

/// Builds branch levels over a non-empty node sequence.
fn build_list_tree(mut level: Vec<Arc<ListNode>>) -> Arc<ListNode> {
    while level.len() > 1 {
        let groups = level.len().div_ceil(CHUNK);
        let total = level.len();
        let mut next = Vec::with_capacity(groups);
        let mut it = level.into_iter();
        for gi in 0..groups {
            let take = (total + groups - 1 - gi) / groups;
            let children: Vec<Arc<ListNode>> = it.by_ref().take(take).collect();
            let len = children.iter().map(|c| c.len()).sum();
            next.push(Arc::new(ListNode::Branch { len, children }));
        }
        level = next;
    }
    level.pop().unwrap_or_else(|| PList::new().root)
}

/// In-order borrowing iterator over a [`PList`]. Inline descent stack;
/// never allocates (see [`MapIter`]).
#[derive(Debug)]
pub struct ListIter<'a> {
    /// Frames from `depth` up are unused.
    stack: [(&'a ListNode, usize); MAX_DEPTH],
    depth: usize,
    remaining: usize,
}

impl<'a> ListIter<'a> {
    /// The elements of the subtree under `node`.
    fn over(node: &'a ListNode) -> Self {
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
                ListNode::Leaf(vs) => {
                    if let Some(v) = vs.get(*idx) {
                        *idx += 1;
                        self.remaining -= 1;
                        return Some(v);
                    }
                    self.depth -= 1;
                }
                ListNode::Branch { children, .. } => {
                    if let Some(child) = children.get(*idx) {
                        *idx += 1;
                        let child: &'a ListNode = child;
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
fn list_nodes_eq(a: &Arc<ListNode>, b: &Arc<ListNode>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    match (&**a, &**b) {
        (ListNode::Branch { children: ca, .. }, ListNode::Branch { children: cb, .. })
            if ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| x.len() == y.len()) =>
        {
            ca.iter().zip(cb).all(|(x, y)| list_nodes_eq(x, y))
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
        PList::from_vec(iter.into_iter().collect())
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
        let base = PList::from_vec((0..64).map(Value::int).collect());
        let ext = base.push(Value::int(64));
        assert_eq!(base.len(), 64);
        assert_eq!(ext.len(), 65);
        assert_eq!(ext.get(64).and_then(Value::as_int), Some(64));
        assert_eq!(base.get(10), ext.get(10));
    }

    #[test]
    fn plist_concat_matches_vec() {
        for (n, m) in [(0, 5), (5, 0), (3, 4), (20, 30), (100, 1)] {
            let a = PList::from_vec((0..n).map(Value::int).collect());
            let b = PList::from_vec((0..m).map(|i| Value::int(100 + i)).collect());
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
        let list = PList::from_vec((0..360).map(Value::int).collect());
        let (a, b) = (list.push(Value::Null), list.push(Value::Null));
        let (equal, n) = compares(|| a == b);
        assert!(equal);
        assert!((1..=budget).contains(&n), "{n} element comparisons");
    }

    #[test]
    fn checked_constructors_refuse_what_the_tree_code_relies_on() {
        let leaf =
            |keys: &[&str]| PMap::checked_leaf(keys.iter().map(|s| (k(s), Value::Null)).collect());
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
        assert_eq!(two, PList::from_vec(vec![Value::int(1); 2]));
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
        let mut map = PMap::checked_leaf(
            (0..CHUNK)
                .map(|i| (k(&format!("00.{i:02}")), Value::Null))
                .collect(),
        )
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
    fn empty_singletons_are_shared() {
        assert!(PMap::new().ptr_eq(&PMap::new()));
        assert!(PList::new().ptr_eq(&PList::new()));
        assert_eq!(PMap::new().iter().next(), None);
        assert_eq!(PList::new().iter().next(), None);
    }
}
