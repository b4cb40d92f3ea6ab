//! Property tests for the R-order relation and the §4.2 dictionary
//! lemma.
//!
//! The lemma (paper §4.2, proved in §C.3.1): if a read is *not* logged
//! — i.e. it is R-ordered with its dictating write — then interrogating
//! the variable dictionary for the nearest R-preceding write, after a
//! replay that respects activation order and program order, returns
//! exactly the dictating write.

use std::sync::Arc;

use karousos::verifier::{Coords, VarIndex, VarStates};
use karousos::{decode_advice_view, encode_advice, Advice, AdviceRef};
use karousos::{r_concurrent, r_ordered, r_precedes};
use kem::{init_handler_id, FunctionId, HandlerId, OpRef, RequestId, Value, VarId};
use proptest::prelude::*;

/// A random handler inside a random tree of `n` handlers across up to
/// three requests. Built as parent pointers: handler `i`'s parent is
/// some earlier handler of the same request (or none — a root).
#[derive(Debug, Clone)]
struct TreeSpec {
    /// (request, parent index into the same vector or usize::MAX).
    nodes: Vec<(u64, usize)>,
}

fn arb_tree(n: usize) -> impl Strategy<Value = TreeSpec> {
    prop::collection::vec((0u64..3, any::<prop::sample::Index>()), 1..n).prop_map(|raw| {
        let mut nodes: Vec<(u64, usize)> = Vec::with_capacity(raw.len());
        for (i, (rid, pick)) in raw.into_iter().enumerate() {
            // Choose a parent among earlier nodes of the same request,
            // or be a root.
            let candidates: Vec<usize> = (0..i).filter(|&j| nodes[j].0 == rid).collect();
            let parent = if candidates.is_empty() || pick.index(candidates.len() + 1) == 0 {
                usize::MAX
            } else {
                candidates[pick.index(candidates.len())]
            };
            nodes.push((rid, parent));
        }
        TreeSpec { nodes }
    })
}

/// Materializes handler ids for a tree spec.
fn build_hids(spec: &TreeSpec) -> Vec<(RequestId, HandlerId)> {
    let mut out: Vec<(RequestId, HandlerId)> = Vec::with_capacity(spec.nodes.len());
    for (i, (rid, parent)) in spec.nodes.iter().enumerate() {
        let hid = if *parent == usize::MAX {
            HandlerId::root(FunctionId(i as u32))
        } else {
            HandlerId::child(&out[*parent].1, FunctionId(i as u32), 1)
        };
        out.push((RequestId(*rid), hid));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `<_R` is irreflexive and antisymmetric.
    #[test]
    fn r_precedes_is_a_strict_order(spec in arb_tree(8), a_pick in any::<prop::sample::Index>(), b_pick in any::<prop::sample::Index>(), oa in 1u32..5, ob in 1u32..5) {
        let hids = build_hids(&spec);
        let (rid_a, hid_a) = &hids[a_pick.index(hids.len())];
        let (rid_b, hid_b) = &hids[b_pick.index(hids.len())];
        let a = OpRef::new(*rid_a, hid_a.clone(), oa);
        let b = OpRef::new(*rid_b, hid_b.clone(), ob);
        prop_assert!(!r_precedes(&a, &a), "irreflexive");
        if r_precedes(&a, &b) {
            prop_assert!(!r_precedes(&b, &a), "antisymmetric");
            prop_assert!(r_ordered(&a, &b));
            prop_assert!(!r_concurrent(&a, &b));
        }
    }

    /// `<_R` is transitive.
    #[test]
    fn r_precedes_is_transitive(spec in arb_tree(8), picks in prop::array::uniform3(any::<prop::sample::Index>()), ops in prop::array::uniform3(1u32..5)) {
        let hids = build_hids(&spec);
        let mk = |pick: &prop::sample::Index, op: u32| {
            let (rid, hid) = &hids[pick.index(hids.len())];
            OpRef::new(*rid, hid.clone(), op)
        };
        let a = mk(&picks[0], ops[0]);
        let b = mk(&picks[1], ops[1]);
        let c = mk(&picks[2], ops[2]);
        if r_precedes(&a, &b) && r_precedes(&b, &c) {
            prop_assert!(r_precedes(&a, &c));
        }
    }

    /// Cross-request operations are never R-ordered.
    #[test]
    fn cross_request_never_ordered(spec in arb_tree(8), a_pick in any::<prop::sample::Index>(), b_pick in any::<prop::sample::Index>()) {
        let hids = build_hids(&spec);
        let (rid_a, hid_a) = &hids[a_pick.index(hids.len())];
        let (rid_b, hid_b) = &hids[b_pick.index(hids.len())];
        if rid_a != rid_b {
            let a = OpRef::new(*rid_a, hid_a.clone(), 1);
            let b = OpRef::new(*rid_b, hid_b.clone(), 1);
            prop_assert!(!r_ordered(&a, &b));
        }
    }

    /// The dictionary lemma: replay writes in any order that respects
    /// `<_R`; an unlogged read at a random handler then receives the
    /// value of the *last R-preceding write* — never a write from a
    /// sibling subtree or another request.
    #[test]
    fn dictionary_interrogation_finds_dictating_write(
        spec in arb_tree(10),
        write_picks in prop::collection::vec((any::<prop::sample::Index>(), 1u32..4), 1..6),
        read_pick in any::<prop::sample::Index>(),
    ) {
        let hids = build_hids(&spec);
        let var = VarId(0);
        // The variable state names operations by the audit's
        // coordinates: every generated handler is reported with room
        // for the write opnums (1..4) and the read (9), and nothing is
        // logged.
        let owned = Advice {
            opcounts: hids.iter().map(|(rid, hid)| ((*rid, hid.clone()), 9)).collect(),
            ..Advice::default()
        };
        let bytes = encode_advice(&owned);
        let view = decode_advice_view(&bytes).unwrap();
        let advice = AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let mut trace: Vec<RequestId> = hids.iter().map(|(rid, _)| *rid).collect();
        trace.sort();
        trace.dedup();
        let coords = Arc::new(Coords::build(&trace, &advice).unwrap());
        let index = VarIndex::build(coords.clone(), &advice.var_logs).unwrap();
        let log = index.log(&advice.var_logs, var);
        let node = |op: &OpRef| coords.op_node(op).expect("every handler is reported");
        let mut vs = VarStates::new();
        let init = OpRef::new(RequestId::INIT, init_handler_id(), 1);
        vs.on_initialize(var, init.clone(), Value::int(-1));
        vs.bind(&index);

        // Apply writes (unlogged) in the given order, dropping any that
        // would be R-concurrent with the chain head — the lemma only
        // covers honest, R-ordered unlogged writes, so we keep only
        // writes forming an R-chain (like a single request tree would).
        let mut applied: Vec<(OpRef, i64)> = vec![(init, -1)];
        for (i, (pick, opnum)) in write_picks.iter().enumerate() {
            let (rid, hid) = &hids[pick.index(hids.len())];
            let op = OpRef::new(*rid, hid.clone(), *opnum);
            let head = &applied.last().expect("init applied").0;
            if r_precedes(head, &op) {
                vs.on_write(var, node(&op), Value::int(i as i64), &log).unwrap();
                applied.push((op, i as i64));
            }
        }

        // An unlogged read anywhere: its fed value must be the value of
        // the maximal applied write that R-precedes it.
        let (rid, hid) = &hids[read_pick.index(hids.len())];
        let read = OpRef::new(*rid, hid.clone(), 9);
        let expected = applied
            .iter()
            .rev()
            .find(|(w, _)| r_precedes(w, &read))
            .map(|(_, v)| *v);
        match expected {
            Some(v) => {
                let got = vs.on_read(var, node(&read), &log).unwrap();
                prop_assert_eq!(got, Value::int(v));
            }
            None => {
                // No write R-precedes the read — impossible here since
                // the initialization write precedes everything.
                prop_assert!(false, "init precedes all reads");
            }
        }
    }
}
