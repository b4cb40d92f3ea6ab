//! Properties of handler-id paths, the `A`-relation encoding the wire
//! format and the verifier rely on, over random activation forests.

use kem::{FunctionId, HandlerId};
use proptest::prelude::*;

/// A random forest: node i attaches to an earlier node or is a root.
fn arb_forest(n: usize) -> impl Strategy<Value = Vec<Option<usize>>> {
    prop::collection::vec(any::<prop::sample::Index>(), 1..n).prop_map(|raw| {
        let mut parents: Vec<Option<usize>> = Vec::with_capacity(raw.len());
        for (i, pick) in raw.into_iter().enumerate() {
            // index into 0..=i: i means "root".
            let p = pick.index(i + 1);
            parents.push(if p == i { None } else { Some(p) });
        }
        parents
    })
}

fn materialize(parents: &[Option<usize>]) -> Vec<HandlerId> {
    let mut hids: Vec<HandlerId> = Vec::with_capacity(parents.len());
    // Track per-parent child counts for handler-id opnums, mirroring
    // the runtime's emit opnums.
    let mut child_count: Vec<u32> = vec![0; parents.len()];
    for (i, parent) in parents.iter().enumerate() {
        match parent {
            None => hids.push(HandlerId::root(FunctionId(i as u32))),
            Some(p) => {
                child_count[*p] += 1;
                hids.push(HandlerId::child(
                    &hids[*p],
                    FunctionId(i as u32),
                    child_count[*p],
                ));
            }
        }
    }
    hids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parent` is the forest's edge and `is_ancestor_of` (the `A`
    /// test) its strict transitive closure.
    #[test]
    fn hid_ancestry_is_the_forest(parents in arb_forest(12)) {
        let hids = materialize(&parents);
        for i in 0..hids.len() {
            prop_assert_eq!(hids[i].parent(), parents[i].map(|p| &hids[p]));
            for j in 0..hids.len() {
                let mut up = parents[j];
                while up.is_some_and(|u| u != i) {
                    up = up.and_then(|u| parents[u]);
                }
                prop_assert_eq!(
                    hids[i].is_ancestor_of(&hids[j]),
                    up == Some(i),
                    "nodes {} and {}", i, j
                );
            }
        }
    }

    /// Handler-id path round-trips survive arbitrary forests.
    #[test]
    fn hid_path_round_trip(parents in arb_forest(12)) {
        for hid in &materialize(&parents) {
            prop_assert_eq!(&HandlerId::from_path(&hid.path()).unwrap(), hid);
        }
    }

    /// The total order on handler ids is consistent with the ancestor
    /// relation: ancestors sort before descendants.
    #[test]
    fn hid_order_extends_ancestry(parents in arb_forest(12)) {
        let hids = materialize(&parents);
        for i in 0..hids.len() {
            for j in 0..hids.len() {
                if hids[i].is_ancestor_of(&hids[j]) {
                    prop_assert!(hids[i] < hids[j]);
                }
            }
        }
    }
}
