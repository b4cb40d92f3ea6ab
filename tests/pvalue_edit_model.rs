//! The edit checks of the persistent map (`kem::pvalue`, DESIGN.md §12)
//! against their definition: `logged.eq_inserted(base, key, value)` is
//! `*logged == base.insert(key, value)` and `logged.eq_removed(base,
//! key)` is `*logged == base.remove(key)`, on every input. Replay's
//! simulate-and-check of a map write (`MapEdit::eq_built`) rests on
//! them, so a check that accepted what the build would not is a
//! soundness hole, and one that refused what it would accept rejects an
//! honest audit.
//!
//! Bases of 0 to 600 entries are grown by inserts and removes, built in
//! bulk, or re-cut: the same entries under other node boundaries. Each
//! is edited by an insert of a new key, a replace (with an equal value
//! too) or a remove (of an absent key too), and checked against logged
//! candidates: the true result, the true result re-cut, one value
//! changed on the edited key's path and one off it, an entry dropped,
//! an entry added, the base itself, the true result and the base
//! reshaped near the key (sharing most nodes with the base) and a value
//! that is not a map.

use std::sync::Arc;

use kem::pvalue::CHUNK;
use kem::{MapEdit, PMap, Value};
use proptest::prelude::*;

/// A splitmix64 stream: every case is one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Keys from a space twice the largest map, so edits meet present and
/// absent keys alike.
fn key(i: usize) -> Arc<str> {
    Arc::from(format!("k{i:04}"))
}

fn value(rng: &mut Rng) -> Value {
    match rng.below(4) {
        0 => Value::int(rng.below(5) as i64),
        1 => Value::str(format!("v{}", rng.below(5))),
        2 => Value::Null,
        _ => Value::map([("n", Value::int(rng.below(3) as i64))]),
    }
}

/// The same entries under other node boundaries: leaves of random
/// widths, then levels of random fan-outs, through the checked
/// constructors.
fn recut(map: &PMap, rng: &mut Rng) -> PMap {
    let entries: Vec<(Arc<str>, Value)> = map
        .iter()
        .map(|(k, v)| (Arc::clone(k), v.clone()))
        .collect();
    if entries.is_empty() {
        return PMap::new();
    }
    let mut level = Vec::new();
    let mut rest = &entries[..];
    while !rest.is_empty() {
        let width = (1 + rng.below(CHUNK)).min(rest.len());
        let leaf = PMap::checked_leaf(rest[..width].iter().cloned()).expect("a leaf");
        level.push(leaf);
        rest = &rest[width..];
    }
    while level.len() > 1 {
        let mut next = Vec::new();
        let mut rest = &level[..];
        while !rest.is_empty() {
            let fanout = (2 + rng.below(CHUNK - 1)).min(rest.len());
            next.push(PMap::checked_branch(&rest[..fanout]).expect("a branch"));
            rest = &rest[fanout..];
        }
        level = next;
    }
    level.pop().expect("a root")
}

/// A base map of up to 600 entries, grown one of three ways.
fn base(rng: &mut Rng) -> PMap {
    let n = match rng.below(4) {
        0 => rng.below(CHUNK + 2),
        _ => rng.below(601),
    };
    let keys = 2 * n.max(8);
    match rng.below(3) {
        0 => {
            let mut m = PMap::new();
            while m.len() < n {
                m = m.insert(key(rng.below(keys)), value(rng));
                if rng.below(5) == 0 {
                    m = m.remove(&key(rng.below(keys)));
                }
            }
            m
        }
        1 => PMap::from_pairs((0..n).map(|_| (key(rng.below(keys)), value(rng)))),
        _ => {
            let grown = PMap::from_pairs((0..n).map(|_| (key(rng.below(keys)), value(rng))));
            recut(&grown, rng)
        }
    }
}

/// A value other than `v`.
fn other(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::int(i.wrapping_add(1)),
        _ => Value::int(-1),
    }
}

/// `map` with the value at `k`, which it holds, changed.
fn changed_at(map: &PMap, k: &Arc<str>) -> PMap {
    let v = map.get(k).map(other).unwrap_or(Value::Null);
    map.insert(Arc::clone(k), v)
}

/// The logged maps to check against `truth`, the edit's true result:
/// itself and a re-cut copy, itself and `base` reshaped near `k`, one
/// value changed at `k` (on the edited key's path, or beside it when `k`
/// is gone) and at the entry farthest from it (off the path), an entry
/// dropped, one added, and `base`.
fn candidates(truth: &PMap, base: &PMap, k: &str, rng: &mut Rng) -> Vec<PMap> {
    let mut out = vec![truth.clone(), recut(truth, rng), base.clone()];
    let keys: Vec<Arc<str>> = truth.keys().cloned().collect();
    if !keys.is_empty() {
        let at = keys.partition_point(|x| x.as_ref() < k).min(keys.len() - 1);
        // The truth and the base reshaped near the key, sharing the
        // node that holds it with the base where the split missed it.
        for d in [-20, -3, 3, 20] {
            let near = &keys[at.saturating_add_signed(d).min(keys.len() - 1)];
            out.push(reshaped(truth, near));
            out.push(reshaped(base, near));
        }
        let far = if at < keys.len() / 2 {
            keys.len() - 1
        } else {
            0
        };
        out.push(changed_at(truth, &keys[at]));
        out.push(changed_at(truth, &keys[far]));
        out.push(truth.remove(&keys[rng.below(keys.len())]));
    }
    let mut added = key(rng.below(1300));
    while truth.contains_key(&added) {
        added = Arc::from(format!("{added}+"));
    }
    out.push(truth.insert(added, Value::Null));
    out
}

/// `map`'s entries in another shape that keeps most of its nodes: a
/// run of keys inserted right after `after` and removed again splits
/// the leaf there, removes merge nothing, and every node off that path
/// is still `map`'s.
fn reshaped(map: &PMap, after: &str) -> PMap {
    let run: Vec<Arc<str>> = (0..CHUNK)
        .map(|i| Arc::from(format!("{after}~{i:02}")))
        .collect();
    let mut m = map.clone();
    for k in &run {
        m = m.insert(Arc::clone(k), Value::Null);
    }
    for k in &run {
        m = m.remove(k);
    }
    m
}

/// `a == b` by entries alone, shapes aside: the oracle's oracle.
fn same_entries(a: &PMap, b: &PMap) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn an_edit_check_is_the_build_then_eq(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let base = base(&mut rng);
        let present: Vec<Arc<str>> = base.keys().cloned().collect();
        let k = match (rng.below(2), present.is_empty()) {
            (0, false) => Arc::clone(&present[rng.below(present.len())]),
            _ => key(rng.below(1300)),
        };
        // A replace with an equal value, or any value.
        let v = match base.get(&k) {
            Some(v) if rng.below(3) == 0 => v.clone(),
            _ => value(&mut rng),
        };
        let (inserted, removed) = (base.insert(Arc::clone(&k), v.clone()), base.remove(&k));
        let (mv, kv, vv) = (Value::Map(base.clone()), Value::Str(Arc::clone(&k)), v.clone());
        for (truth, is_insert) in [(&inserted, true), (&removed, false)] {
            let edit = match is_insert {
                true => MapEdit::insert(&mv, &kv, &vv).expect("typed"),
                false => MapEdit::remove(&mv, &kv).expect("typed"),
            };
            prop_assert!(!edit.eq_built(&Value::int(0)), "a non-map matched");
            for logged in candidates(truth, &base, &k, &mut rng) {
                let built = match is_insert {
                    true => logged == base.insert(Arc::clone(&k), v.clone()),
                    false => logged == base.remove(&k),
                };
                prop_assert_eq!(built, same_entries(&logged, truth));
                let checked = match is_insert {
                    true => logged.eq_inserted(&base, &k, &v),
                    false => logged.eq_removed(&base, &k),
                };
                prop_assert_eq!(
                    checked, built,
                    "{} of {:?} on {} entries, logged {} entries",
                    if is_insert { "insert" } else { "remove" }, k, base.len(), logged.len()
                );
                prop_assert_eq!(edit.eq_built(&Value::Map(logged)), built);
            }
        }
    }
}

/// The check reads what the edit changed: on a map grown by inserts,
/// against the version the same insert made, it is equal-and-cheap
/// whether the insert replaced, added or split a leaf, the root
/// included; and it is exact where every node is a copy.
#[test]
fn an_honest_check_walks_one_path() {
    let mut rng = Rng(7);
    let mut map = PMap::new();
    for i in 0..600 {
        let k = key(rng.below(1300));
        let v = Value::int(i);
        let next = map.insert(Arc::clone(&k), v.clone());
        assert!(next.eq_inserted(&map, &k, &v), "insert {i}");
        assert!(!next.eq_inserted(&map, &k, &Value::int(-1)), "insert {i}");
        let gone = next.remove(&k);
        assert!(gone.eq_removed(&next, &k), "remove {i}");
        assert_eq!(map.eq_removed(&next, &k), map == gone, "remove {i}");
        map = next;
    }
}
