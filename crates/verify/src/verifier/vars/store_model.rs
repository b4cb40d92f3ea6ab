//! The resolve store ([`Written`]) against an ordered-map model: per
//! variable a `BTreeMap<u32, Value>` of the writes that ran, searched
//! the way `FindNearestRPrecedingWrite` reads in Figs. 20–21, and a
//! `BTreeSet` of the ids the unit's writes overwrote.
//!
//! Writes arrive in any order — out of order within a handler and
//! repeated, as advice that runs a handler twice makes them — over a
//! handler tree with ancestor chains and an activation whose parent is
//! not reported. After every step, every operation's `value_of` and
//! nearest preceding write agree with the model, and so does whether a
//! write or an overwrite went in. A clear between steps stands for the
//! next group on the same store.

use std::collections::{BTreeMap, BTreeSet};

use kem_lang::{FunctionId, HandlerId, RequestId, Value, VarId};
use proptest::prelude::*;

use super::{Init, Inits, Ran, RejectReason, Written};
use crate::advice_ref::by_hand;
use crate::verifier::coords::{Activation, Coords};
use crate::verifier::var_index::act_of;

const COUNT: u32 = 6;
const VARS: u32 = 2;

/// Two requests with the same handler tree: a root, two children, a
/// grandchild below the first and a great-grandchild below that, and a
/// handler whose parent the advice does not report.
fn coords() -> Result<Coords, RejectReason> {
    let root = HandlerId::root(FunctionId(0));
    let a = HandlerId::child(&root, FunctionId(1), 2);
    let b = HandlerId::child(&root, FunctionId(2), 4);
    let c = HandlerId::child(&a, FunctionId(3), 1);
    let d = HandlerId::child(&c, FunctionId(4), 5);
    let ghost = HandlerId::child(&b, FunctionId(5), 3);
    let orphan = HandlerId::child(&ghost, FunctionId(6), 1);
    let opcounts = [0, 1]
        .into_iter()
        .flat_map(|rid| {
            let hids = [&root, &a, &b, &c, &d, &orphan];
            hids.map(|hid| ((RequestId(rid), hid.clone()), COUNT))
        })
        .collect();
    let advice = by_hand::advice(&opcounts, &BTreeMap::new());
    Coords::build(&[RequestId(0), RequestId(1)], &advice)
}

/// The model's `FindNearestRPrecedingWrite`: the last write of the
/// operation's handler below it, then of each ancestor, then the
/// initialization.
fn model_nearest<'m>(
    model: &'m BTreeMap<u32, Value>,
    acts: &[Activation],
    mut act: usize,
    mut below: u32,
    init: &'m Init,
) -> (u32, &'m Value) {
    loop {
        let activation = &acts[act];
        let range = activation.start + 1..below.max(activation.start + 1);
        if let Some((id, value)) = model.range(range).next_back() {
            return (*id, value);
        }
        match activation.parent() {
            Some(parent) => {
                act = parent as usize;
                below = acts[act].end();
            }
            None => return (init.id, &init.value),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_store_answers_as_an_ordered_map(
        steps in prop::collection::vec(
            (any::<prop::sample::Index>(), 1u32..COUNT + 1, 0u32..VARS, 0u8..40, 0i64..100),
            1..48,
        ),
    ) {
        let coords = coords().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let acts = coords.activations();
        // The initialization: an id past the nodes, as a log names it.
        let init_id = coords.node_count() as u32;
        let act = act_of(&coords, init_id);
        let init: Vec<Init> = (0..VARS)
            .map(|v| Init { id: init_id, act, value: Value::int(-1 - i64::from(v)) })
            .collect();
        let inits: Inits = init.iter().cloned().map(Some).collect();
        let mut store = Written::default();
        let mut values: Vec<BTreeMap<u32, Value>> = vec![BTreeMap::new(); VARS as usize];
        let mut overwritten: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (pick, opnum, var, kind, value) in steps {
            let act = pick.index(acts.len());
            let node = acts[act].start + opnum;
            let model = &mut values[var as usize];
            match kind {
                // The next group: the store forgets, and so does the model.
                39 => {
                    store.clear();
                    values.iter_mut().for_each(BTreeMap::clear);
                    overwritten.clear();
                }
                // A write's chain step, on a node or the initialization.
                26.. => {
                    let id = if kind < 30 { init_id } else { node };
                    let act = act_of(&coords, id);
                    let went_in = store.overwrite(VarId(var), act, id);
                    prop_assert_eq!(went_in, overwritten.insert((var, id)));
                }
                // A write; one of a node that ran keeps the first value.
                _ => {
                    model.entry(node).or_insert_with(|| Value::int(value));
                    store.write(VarId(var), act as u32, node, || Value::int(value));
                }
            }
            for (var, model) in (0..VARS).zip(&values) {
                let ran = Ran::of(&store, &inits, VarId(var));
                let init = &init[var as usize];
                prop_assert_eq!(ran.value_of(init_id, init.act), Some(&init.value));
                for (act, activation) in acts.iter().enumerate() {
                    for opnum in 1..=COUNT {
                        let node = activation.start + opnum;
                        prop_assert_eq!(ran.value_of(node, act as u32), model.get(&node));
                        let (id, value) = model_nearest(model, acts, act, node, init);
                        let found = ran.nearest_preceding(node, act as u32, acts);
                        prop_assert_eq!(found, Some((id, act_of(&coords, id), value)));
                    }
                }
            }
        }
    }
}
