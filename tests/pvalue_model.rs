//! Model-based equivalence suite for the persistent containers
//! (`kem::pvalue`, DESIGN.md §12).
//!
//! `PMap` is driven against a `BTreeMap<String, Value>` oracle and
//! `PList` against a `Vec<Value>` oracle through random operation
//! sequences; after every step the observable API (insert / remove /
//! get / iter / len) must agree, and at the end the *semantic layer*
//! must agree bit-for-bit: `digest()` and `Display` are checked against
//! independent re-implementations of the documented canonical encoding
//! (not against the container under test), and `Ord`/`Hash`/`Eq` must
//! match the oracle's ordering. Structural-sharing tests pin the whole
//! point of the representation: an update leaves every untouched value
//! `Arc::ptr_eq` with the source container's.

use kem::{Fnv, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Independent oracles for the canonical encodings
// ---------------------------------------------------------------------------

/// Re-implements `Value::digest` for a map of scalar values from the
/// oracle's `BTreeMap`, independent of `PMap` iteration.
fn oracle_map_digest(m: &BTreeMap<String, Value>) -> u64 {
    let mut h = Fnv::new();
    h.write(&[5]);
    h.write(&(m.len() as u64).to_le_bytes());
    for (k, v) in m {
        h.write(&(k.len() as u64).to_le_bytes());
        h.write(k.as_bytes());
        feed_scalar(v, &mut h);
    }
    h.finish()
}

/// Re-implements `Value::digest` for a list of scalar values.
fn oracle_list_digest(l: &[Value]) -> u64 {
    let mut h = Fnv::new();
    h.write(&[4]);
    h.write(&(l.len() as u64).to_le_bytes());
    for v in l {
        feed_scalar(v, &mut h);
    }
    h.finish()
}

fn feed_scalar(v: &Value, h: &mut Fnv) {
    match v {
        Value::Null => h.write(&[0]),
        Value::Int(i) => {
            h.write(&[2]);
            h.write(&i.to_le_bytes());
        }
        Value::Str(s) => {
            h.write(&[3]);
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
        other => unreachable!("model uses scalar values only, got {other:?}"),
    }
}

/// Re-implements map `Display` from the oracle.
fn oracle_map_display(m: &BTreeMap<String, Value>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn oracle_list_display(l: &[Value]) -> String {
    let body: Vec<String> = l.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", body.join(", "))
}

fn std_hash<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Operation sequences
// ---------------------------------------------------------------------------

/// A map operation over a deliberately small key universe, so long
/// sequences revisit keys (overwrites, removes of present keys).
#[derive(Clone, Debug)]
enum MapOp {
    Insert(usize, i64),
    Remove(usize),
}

/// Key universe: 40 keys of varying length, unsorted construction
/// order so bulk builds and incremental builds see different orders.
fn key(i: usize) -> String {
    format!("k{:02}{}", (i * 17) % 40, "x".repeat(i % 3))
}

fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..40, -100i64..100).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0usize..40).prop_map(MapOp::Remove),
        ],
        0..120,
    )
}

#[derive(Clone, Debug)]
enum ListOp {
    Push(i64),
    Concat(Vec<i64>),
}

fn arb_list_ops() -> impl Strategy<Value = Vec<ListOp>> {
    prop::collection::vec(
        prop_oneof![
            (-100i64..100).prop_map(ListOp::Push),
            prop::collection::vec(-100i64..100, 0..40).prop_map(ListOp::Concat),
        ],
        0..60,
    )
}

proptest! {
    /// Random insert/remove sequences agree with the `BTreeMap` oracle
    /// at every step, and the final value's digest/Display match the
    /// independent canonical-encoding oracles.
    #[test]
    fn pmap_tracks_btreemap_oracle(ops in arb_map_ops()) {
        let mut subject = Value::empty_map();
        let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
        for op in &ops {
            match op {
                MapOp::Insert(ki, v) => {
                    let (k, v) = (key(*ki), Value::int(*v));
                    subject =
                        kem::eval_map_insert(&subject, &Value::str(&k), &v).expect("map insert");
                    oracle.insert(k, v);
                }
                MapOp::Remove(ki) => {
                    let k = key(*ki);
                    subject = kem::eval_map_remove(&subject, &Value::str(&k)).expect("map remove");
                    oracle.remove(&k);
                }
            }
            let m = subject.as_map().expect("subject stays a map");
            prop_assert_eq!(m.len(), oracle.len());
            // Spot-check membership across the whole key universe.
            for ki in 0..40 {
                let k = key(ki);
                prop_assert_eq!(m.get(&k), oracle.get(&k));
                prop_assert_eq!(m.contains_key(&k), oracle.contains_key(&k));
            }
        }
        // Ordered iteration agrees entry-for-entry.
        let m = subject.as_map().expect("map");
        let got: Vec<(String, Value)> =
            m.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        let want: Vec<(String, Value)> =
            oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            m.keys().map(|k| k.to_string()).collect::<Vec<_>>(),
            oracle.keys().cloned().collect::<Vec<_>>()
        );
        // Canonical encodings are bit-identical to the oracle's.
        prop_assert_eq!(subject.digest(), oracle_map_digest(&oracle));
        prop_assert_eq!(subject.to_string(), oracle_map_display(&oracle));
        // A bulk rebuild from the oracle is Eq/Ord/Hash-identical to the
        // incrementally built subject.
        let rebuilt = Value::from_map(oracle.clone());
        prop_assert_eq!(&subject, &rebuilt);
        prop_assert_eq!(subject.cmp(&rebuilt), std::cmp::Ordering::Equal);
        prop_assert_eq!(std_hash(&subject), std_hash(&rebuilt));
    }

    /// Push/concat sequences agree with the `Vec` oracle: len, every
    /// index, iteration, containment, digest, and Display.
    #[test]
    fn plist_tracks_vec_oracle(ops in arb_list_ops()) {
        let mut subject = Value::empty_list();
        let mut oracle: Vec<Value> = Vec::new();
        for op in &ops {
            match op {
                ListOp::Push(v) => {
                    let v = Value::int(*v);
                    subject = kem::eval_list_push(&subject, &v).expect("list push");
                    oracle.push(v);
                }
                ListOp::Concat(vs) => {
                    let rhs: Vec<Value> = vs.iter().map(|v| Value::int(*v)).collect();
                    subject = kem::eval_binop(
                        kem::BinOp::Add,
                        &subject,
                        &Value::from_vec(rhs.clone()),
                    )
                    .expect("list concat");
                    oracle.extend(rhs);
                }
            }
            let l = subject.as_list().expect("subject stays a list");
            prop_assert_eq!(l.len(), oracle.len());
        }
        let l = subject.as_list().expect("list");
        for (i, want) in oracle.iter().enumerate() {
            prop_assert_eq!(l.get(i), Some(want));
        }
        prop_assert_eq!(l.get(oracle.len()), None);
        prop_assert!(l.iter().eq(oracle.iter()));
        prop_assert!(l.contains(&Value::int(0)) == oracle.contains(&Value::int(0)));
        prop_assert_eq!(subject.digest(), oracle_list_digest(&oracle));
        prop_assert_eq!(subject.to_string(), oracle_list_display(&oracle));
        let rebuilt = Value::from_vec(oracle.clone());
        prop_assert_eq!(&subject, &rebuilt);
        prop_assert_eq!(subject.cmp(&rebuilt), std::cmp::Ordering::Equal);
        prop_assert_eq!(std_hash(&subject), std_hash(&rebuilt));
    }

    /// `Ord` over persistent maps equals the old `BTreeMap` order
    /// (lexicographic over `(key, value)` pairs), and `Ord` over lists
    /// equals `Vec`'s element-lexicographic order.
    #[test]
    fn ord_matches_oracle(a in arb_map_ops(), b in arb_map_ops()) {
        let build = |ops: &[MapOp]| {
            let mut oracle = BTreeMap::new();
            for op in ops {
                match op {
                    MapOp::Insert(ki, v) => {
                        oracle.insert(key(*ki), Value::int(*v));
                    }
                    MapOp::Remove(ki) => {
                        oracle.remove(&key(*ki));
                    }
                }
            }
            (Value::from_map(oracle.clone()), oracle)
        };
        let ((va, oa), (vb, ob)) = (build(&a), build(&b));
        prop_assert_eq!(va.cmp(&vb), oa.cmp(&ob));
        // List order: element-lexicographic.
        let la = Value::from_vec(oa.values().cloned().collect::<Vec<_>>());
        let lb = Value::from_vec(ob.values().cloned().collect::<Vec<_>>());
        let wa: Vec<Value> = oa.values().cloned().collect();
        let wb: Vec<Value> = ob.values().cloned().collect();
        prop_assert_eq!(la.cmp(&lb), wa.cmp(&wb));
    }
}

// ---------------------------------------------------------------------------
// Structural sharing: the representation's raison d'être
// ---------------------------------------------------------------------------

/// Inner `Arc<str>` of a string value, for pointer-identity checks.
fn str_arc(v: &Value) -> &Arc<str> {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string value, got {other:?}"),
    }
}

#[test]
fn pmap_update_shares_untouched_values() {
    let base =
        Value::map((0..200).map(|i| (key(i % 40) + &format!("{i}"), Value::str(format!("v{i}")))));
    let m = base.as_map().unwrap();
    let updated = m.insert(Arc::from("k00x42-new"), Value::str("fresh"));
    assert_eq!(updated.len(), m.len() + 1);
    // Every pre-existing value is the same allocation, not a copy.
    for (k, v) in m.iter() {
        let shared = updated.get(k).expect("old keys survive the insert");
        assert!(
            Arc::ptr_eq(str_arc(v), str_arc(shared)),
            "value for {k} was copied instead of shared"
        );
    }
    // And the overwhelming majority of *nodes* are shared too: an
    // overwrite of one key keeps every other value ptr-identical.
    let overwritten = m.insert(Arc::from(key(7).as_str()), Value::str("new"));
    for (k, v) in m.iter() {
        if k.as_ref() != key(7).as_str() {
            assert!(Arc::ptr_eq(
                str_arc(v),
                str_arc(overwritten.get(k).unwrap())
            ));
        }
    }
}

#[test]
fn pmap_remove_shares_untouched_values() {
    let base = Value::map((0..100).map(|i| (format!("key{i:03}"), Value::str(format!("v{i}")))));
    let m = base.as_map().unwrap();
    let removed = m.remove("key050");
    assert_eq!(removed.len(), 99);
    for (k, v) in m.iter() {
        if k.as_ref() != "key050" {
            assert!(Arc::ptr_eq(str_arc(v), str_arc(removed.get(k).unwrap())));
        }
    }
}

#[test]
fn plist_push_shares_prefix_values() {
    let base = Value::list((0..150).map(|i| Value::str(format!("v{i}"))));
    let l = base.as_list().unwrap();
    let pushed = l.push(Value::str("tail"));
    assert_eq!(pushed.len(), 151);
    for (i, v) in l.iter().enumerate() {
        assert!(
            Arc::ptr_eq(str_arc(v), str_arc(pushed.get(i).unwrap())),
            "element {i} was copied instead of shared"
        );
    }
}

#[test]
fn plist_concat_shares_both_sides() {
    let a = Value::list((0..60).map(|i| Value::str(format!("a{i}"))));
    let b = Value::list((0..60).map(|i| Value::str(format!("b{i}"))));
    let (la, lb) = (a.as_list().unwrap(), b.as_list().unwrap());
    let cat = la.concat(lb);
    assert_eq!(cat.len(), 120);
    for (i, v) in la.iter().enumerate() {
        assert!(Arc::ptr_eq(str_arc(v), str_arc(cat.get(i).unwrap())));
    }
    for (i, v) in lb.iter().enumerate() {
        assert!(Arc::ptr_eq(str_arc(v), str_arc(cat.get(60 + i).unwrap())));
    }
}

#[test]
fn functional_updates_leave_source_untouched() {
    let m = Value::map([("a", Value::int(1))]);
    let m2 = kem::eval_map_insert(&m, &Value::str("b"), &Value::int(2)).unwrap();
    assert_eq!(m.len(), Some(1));
    assert_eq!(m2.len(), Some(2));
    let l = Value::list([Value::int(1)]);
    let l2 = kem::eval_list_push(&l, &Value::int(2)).unwrap();
    assert_eq!(l.len(), Some(1));
    assert_eq!(l2.len(), Some(2));
}

// ---------------------------------------------------------------------------
// Trees assembled node by node (the advice decoder's way in)
// ---------------------------------------------------------------------------

use kem::pvalue::{NodeError, PList, PMap, CHUNK};

/// How to cut `n` entries into a tree: leaf widths and branch fan-outs
/// (each cycled; mostly legal, sometimes 0 or past `CHUNK`), and two
/// edits to the leaf sequence that break a map's key order and merely
/// reorder or repeat a list's elements.
#[derive(Clone, Debug)]
struct Cut {
    n: usize,
    widths: Vec<usize>,
    fanouts: Vec<usize>,
    swap_leaves: Option<usize>,
    repeat_leaf: Option<usize>,
}

fn arb_cut() -> impl Strategy<Value = Cut> {
    let size = || prop_oneof![12 => 1usize..CHUNK + 1, 1 => Just(0usize), 1 => Just(CHUNK + 1)];
    (
        1usize..200,
        prop::collection::vec(size(), 1..6),
        prop::collection::vec(size(), 1..4),
        prop_oneof![5 => Just(None), 1 => (0usize..12).prop_map(Some)],
        prop_oneof![5 => Just(None), 1 => (0usize..12).prop_map(Some)],
    )
        .prop_map(|(n, widths, fanouts, swap_leaves, repeat_leaf)| Cut {
            n,
            widths,
            fanouts,
            swap_leaves,
            repeat_leaf,
        })
}

/// Cuts `items` into runs of the cycled `sizes`. A size of 0 yields an
/// empty run and moves on; sizes that are all 0 yield one and stop.
fn runs<T: Clone>(items: &[T], sizes: &[usize]) -> Vec<Vec<T>> {
    let (mut out, mut at) = (Vec::new(), 0);
    for size in sizes.iter().cycle() {
        if at >= items.len() {
            break;
        }
        let end = (at + size).min(items.len());
        out.push(items[at..end].to_vec());
        at = end;
        if sizes.iter().all(|s| *s == 0) {
            break;
        }
    }
    out
}

/// Builds the tree `cut` describes through `leaf` and `branch`, with
/// the entries each node ends up holding. Fan-outs of 0 or 1 would
/// never converge, so after six levels whatever is left goes under one
/// root.
fn assemble<T: Clone, E: Clone>(
    cut: &Cut,
    entries: &[E],
    leaf: impl Fn(Vec<E>) -> Result<T, NodeError>,
    branch: impl Fn(&[T]) -> Result<T, NodeError>,
) -> Result<(T, Vec<E>), NodeError> {
    let mut leaves = runs(entries, &cut.widths);
    if let Some(i) = cut.swap_leaves.filter(|i| i + 1 < leaves.len()) {
        leaves.swap(i, i + 1);
    }
    if let Some(i) = cut.repeat_leaf.filter(|i| *i < leaves.len()) {
        leaves.insert(i, leaves[i].clone());
    }
    let mut level = Vec::new();
    for entries in leaves {
        level.push((leaf(entries.clone())?, entries));
    }
    for depth in 0.. {
        if level.len() == 1 && depth > 0 {
            break;
        }
        let groups = if depth < 6 {
            runs(&level, &cut.fanouts)
        } else {
            vec![level.clone()]
        };
        level = Vec::new();
        for group in groups {
            let nodes: Vec<T> = group.iter().map(|(node, _)| node.clone()).collect();
            let held = group.into_iter().flat_map(|(_, held)| held).collect();
            level.push((branch(&nodes)?, held));
        }
    }
    Ok(level.pop().expect("one root"))
}

proptest! {
    /// Whatever tree the checked map constructors accept is a map: it
    /// reads, updates, iterates, digests and compares as the `BTreeMap`
    /// of its entries does. And they accept exactly the trees whose
    /// nodes are 1..=CHUNK wide and whose keys ascend.
    #[test]
    fn checked_map_trees_track_btreemap_oracle(cut in arb_cut(), probe in 0usize..400) {
        let entries: Vec<(Arc<str>, Value)> = (0..cut.n)
            .map(|i| (Arc::from(format!("k{:03}", 2 * i)), Value::int(i as i64)))
            .collect();
        let built = assemble(&cut, &entries, PMap::checked_leaf, PMap::checked_branch);
        let legal = |sizes: &[usize]| sizes.iter().all(|s| (1..=CHUNK).contains(s));
        let leaves = runs(&entries, &cut.widths).len();
        let reordered = cut.swap_leaves.is_some_and(|i| i + 1 < leaves)
            || cut.repeat_leaf.is_some_and(|i| i < leaves);
        match built {
            Err(NodeError::KeyOrder) => prop_assert!(reordered),
            Err(NodeError::Width) => prop_assert!(!legal(&cut.widths) || !legal(&cut.fanouts)),
            Err(other) => prop_assert!(false, "{other:?}"),
            Ok((map, held)) => {
                prop_assert!(!reordered);
                let oracle: BTreeMap<String, Value> =
                    held.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
                prop_assert_eq!(map.len(), oracle.len());
                prop_assert!(map.iter().map(|(k, v)| (k.to_string(), v.clone())).eq(oracle.clone()));
                let subject = Value::Map(map.clone());
                prop_assert_eq!(subject.digest(), oracle_map_digest(&oracle));
                prop_assert_eq!(subject.to_string(), oracle_map_display(&oracle));
                prop_assert_eq!(&subject, &Value::from_map(oracle.clone()));
                // Present keys are even, so odd probes are absent.
                let k = format!("k{probe:03}");
                prop_assert_eq!(map.get(&k), oracle.get(&k));
                let (inserted, mut with) = (map.insert(Arc::from(k.as_str()), Value::Null), oracle.clone());
                with.insert(k.clone(), Value::Null);
                prop_assert_eq!(&Value::Map(inserted.clone()), &Value::from_map(with.clone()));
                with.remove(&k);
                prop_assert_eq!(&Value::Map(inserted.remove(&k)), &Value::from_map(with));
                let (first, mut without) = (held[0].0.to_string(), oracle);
                without.remove(&first);
                prop_assert_eq!(&Value::Map(map.remove(&first)), &Value::from_map(without));
            }
        }
    }

    /// The same for lists, where a repeated or reordered leaf is just
    /// another list — one whose nodes form a DAG.
    #[test]
    fn checked_list_trees_track_vec_oracle(cut in arb_cut()) {
        let elements: Vec<Value> = (0..cut.n as i64).map(Value::int).collect();
        let built = assemble(&cut, &elements, PList::checked_leaf, PList::checked_branch);
        let legal = |sizes: &[usize]| sizes.iter().all(|s| (1..=CHUNK).contains(s));
        match built {
            Err(NodeError::Width) => prop_assert!(!legal(&cut.widths) || !legal(&cut.fanouts)),
            Err(other) => prop_assert!(false, "{other:?}"),
            Ok((list, mut oracle)) => {
                prop_assert_eq!(list.len(), oracle.len());
                prop_assert!(list.iter().eq(oracle.iter()));
                for (i, want) in oracle.iter().enumerate() {
                    prop_assert_eq!(list.get(i), Some(want));
                }
                prop_assert_eq!(list.get(oracle.len()), None);
                let subject = Value::List(list.clone());
                prop_assert_eq!(subject.digest(), oracle_list_digest(&oracle));
                prop_assert_eq!(subject.to_string(), oracle_list_display(&oracle));
                prop_assert_eq!(&subject, &Value::from_vec(oracle.clone()));
                oracle.push(Value::Null);
                let pushed = list.push(Value::Null);
                prop_assert_eq!(&Value::List(pushed.clone()), &Value::from_vec(oracle.clone()));
                oracle.extend(oracle.clone());
                prop_assert_eq!(
                    &Value::List(pushed.concat(&pushed)),
                    &Value::from_vec(oracle)
                );
            }
        }
    }
}
