//! One very wide transaction: `k` `PUT`s to `k` distinct keys, every
//! one of them in the version order. Finding a transaction's final
//! `PUT` to a key by scanning its operations made validating that order
//! — and deriving it — cost `k²` string compares, on a history decoded
//! from untrusted advice; the dense history marks final `PUT`s in one
//! backward pass. The test pins work, not wall-clock: the widths below
//! finish inside any test timeout only if the check is linear (the
//! quadratic one needed about half a second at 16 000 in release and
//! far longer unoptimised), and the model — the quadratic checker,
//! run only at the small width — agrees.

mod model;

use adya::{check_isolation, HistoryBuilder, IsolationLevel, TxnId};

fn keys(width: usize) -> Vec<String> {
    (0..width).map(|k| format!("key-{k}")).collect()
}

#[test]
fn a_wide_transaction_is_checked_in_one_pass() {
    for width in [2_000, 16_000] {
        let keys = keys(width);
        // Derived order (the builder finds each key's final PUT) and
        // explicit order (the check validates each entry) alike.
        let mut b = HistoryBuilder::with_capacity(1, width);
        let order: Vec<_> = keys.iter().map(|key| b.put(TxnId(0), key)).collect();
        b.commit(TxnId(0));
        let derived = b.clone().finish();
        assert_eq!(derived.version_order(), order);
        assert_eq!(derived.final_write_count(), width);
        b.set_version_order(order.clone());
        let explicit = b.finish();
        for history in [&derived, &explicit] {
            let dsg = check_isolation(history, IsolationLevel::Serializable).unwrap();
            assert_eq!((dsg.nodes().count(), dsg.edge_count()), (1, 0));
        }

        if width == 2_000 {
            let mut m = model::HistoryBuilder::new();
            for key in &keys {
                m.put(TxnId(0), key);
            }
            m.commit(TxnId(0));
            let model = m.finish();
            assert_eq!(model.version_order, order);
            assert!(model::check_isolation(&model, IsolationLevel::Serializable).is_ok());
        }
    }
}

/// Every key written twice: the first `PUT` of each is not final, and
/// naming one in the version order is still reported at that entry.
#[test]
fn a_wide_transaction_keeps_its_not_final_report() {
    let keys = keys(4_000);
    let mut b = HistoryBuilder::new();
    let first: Vec<_> = keys.iter().map(|key| b.put(TxnId(3), key)).collect();
    let last: Vec<_> = keys.iter().map(|key| b.put(TxnId(3), key)).collect();
    b.commit(TxnId(3));
    assert_eq!(b.clone().finish().version_order(), last);
    let mut order = last;
    order[2_500] = first[2_500];
    b.set_version_order(order);
    assert_eq!(
        check_isolation(&b.finish(), IsolationLevel::ReadUncommitted).map(|_| ()),
        Err(adya::Violation::NotFinalWrite {
            entry: first[2_500]
        })
    );
}
