//! `AdviceRef`, the verifier's working form, built from advice the
//! encoder wrote: `VecMap`'s wire semantics, `from_view`'s logical maps,
//! and duplicate sections resolving like their canonical re-encoding.

use karousos::advice::{AccessType, HandlerLogEntry, TxLogEntry, VarLog, VarLogEntry};
use karousos::{decode_advice, decode_advice_view, encode_advice, AdviceViewExt};
use karousos::{Advice, AdviceRef, HandlerOp, KTxId, TxOpContents, TxPos, VecMap};
use kem::{FunctionId, HandlerId, OpRef, RequestId, TxOpKind, Value, ValueInterner, VarId};

#[test]
fn vecmap_from_wire_keeps_last_duplicate() {
    let m = VecMap::from_wire(vec![(2, "b"), (1, "a"), (2, "c"), (1, "d")]);
    assert_eq!(m.get(&1), Some(&"d"));
    assert_eq!(m.get(&2), Some(&"c"));
    assert_eq!(m.len(), 2);
    let keys: Vec<_> = m.keys().copied().collect();
    assert_eq!(keys, vec![1, 2]);
}

#[test]
fn vecmap_ascending_input_is_preserved() {
    let m = VecMap::from_wire(vec![(1, "a"), (2, "b"), (3, "c")]);
    assert_eq!(m.len(), 3);
    assert!(m.contains_key(&2));
    assert!(!m.contains_key(&4));
    let pairs: Vec<_> = (&m).into_iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(pairs, vec![(1, "a"), (2, "b"), (3, "c")]);
}

#[test]
fn vecmap_insert_replaces_and_orders() {
    let mut m = VecMap::new();
    m.insert(5, "e");
    m.insert(1, "a");
    m.insert(5, "E");
    assert_eq!(m.get(&5), Some(&"E"));
    assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 5]);
}

fn sample_advice() -> Advice {
    let mut a = Advice::default();
    let hid = HandlerId::root(FunctionId(0));
    a.tags.insert(RequestId(0), 7);
    a.tags.insert(RequestId(1), 7);
    a.handler_logs.insert(
        RequestId(0),
        vec![HandlerLogEntry {
            hid: hid.clone(),
            opnum: 1,
            op: HandlerOp::Emit {
                event: "boot".into(),
            },
        }],
    );
    let mut vl = VarLog::new();
    vl.insert(
        OpRef::new(RequestId(0), hid.clone(), 2),
        VarLogEntry {
            access: AccessType::Write,
            value: Some(Value::str("payload")),
            prec: None,
        },
    );
    a.var_logs.insert(VarId(3), vl);
    let tx = KTxId {
        rid: RequestId(0),
        hid: hid.clone(),
        opnum: 3,
    };
    a.tx_logs.insert(
        tx.clone(),
        vec![
            TxLogEntry {
                hid: hid.clone(),
                opnum: 3,
                optype: TxOpKind::Start,
                key: None,
                contents: TxOpContents::None,
            },
            TxLogEntry {
                hid: hid.clone(),
                opnum: 4,
                optype: TxOpKind::Put,
                key: Some("row".into()),
                contents: TxOpContents::Put {
                    value: Value::int(9),
                },
            },
        ],
    );
    a.write_order.push(TxPos { tx, index: 1 });
    a.response_emitted_by.insert(RequestId(0), (hid.clone(), 1));
    a.opcounts.insert((RequestId(0), hid.clone()), 4);
    a.nondet
        .insert(OpRef::new(RequestId(0), hid, 1), Value::str("rand"));
    a
}

/// What `from_view` builds is the advice that was encoded.
#[test]
fn from_view_builds_the_logical_maps() {
    let a = sample_advice();
    let bytes = encode_advice(&a);
    let view = decode_advice_view(&bytes).unwrap();
    let mut interner = ValueInterner::new();
    let r = AdviceRef::from_view(&view, &mut interner);
    assert_eq!(r.tags.get(&RequestId(1)), Some(&7));
    assert_eq!(r.var_log_entries(), 1);
    assert_eq!(r.handler_log_entries(), 1);
    assert_eq!(r.tx_log_entries(), 2);
    assert!(r
        .tx_entry(&a.write_order[0])
        .is_some_and(|e| e.optype == TxOpKind::Put && e.key == Some("row")));
    assert_eq!(r.nondet.values().next(), Some(&Value::str("rand")));
    let order = [RequestId(1), RequestId(0), RequestId(9)];
    assert_eq!(r.groups(&order), a.groups(&order));
}

/// A span that does not read back against its view — only a view
/// built by hand holds one — reads as null and is recorded, for the
/// audit root to refuse.
#[test]
fn a_span_that_does_not_read_back_is_recorded() {
    let bytes = encode_advice(&sample_advice());
    let mut view = decode_advice_view(&bytes).unwrap();
    let honest = AdviceRef::from_view(&view, &mut ValueInterner::new());
    assert_eq!(honest.malformed, None);
    view.interned = ValueInterner::new();
    let r = AdviceRef::from_view(&view, &mut ValueInterner::new());
    assert_eq!(r.malformed.map(|e| e.what), Some("str"));
    assert_eq!(r.nondet.values().next(), Some(&Value::Null));
}

/// Duplicate outer keys in the wire sections resolve later-wins, and
/// to the same working form as the canonical re-encoding of the
/// decoded advice (`to_advice`'s `BTreeMap::insert`, then
/// `encode_advice`), which holds each key once.
#[test]
fn duplicate_sections_resolve_like_their_canonical_reencoding() {
    let bytes = encode_advice(&sample_advice());
    let mut view = decode_advice_view(&bytes).unwrap();
    // Forge a duplicate tag (later wins) and a duplicate opcount.
    view.tags.push((RequestId(0), 99));
    let dup_opcount = view.opcounts[0].clone();
    view.opcounts.insert(0, ((dup_opcount.0.clone()), 1234));
    let hostile = view.encode();
    let canonical = encode_advice(&decode_advice(&hostile).unwrap());
    assert_ne!(hostile, canonical);
    let (hostile, canonical) = (
        decode_advice_view(&hostile).unwrap(),
        decode_advice_view(&canonical).unwrap(),
    );
    let (mut i1, mut i2) = (ValueInterner::new(), ValueInterner::new());
    let from_wire = AdviceRef::from_view(&hostile, &mut i1);
    assert_eq!(from_wire, AdviceRef::from_view(&canonical, &mut i2));
    assert_eq!(from_wire.tags.get(&RequestId(0)), Some(&99));
    assert_eq!(from_wire.opcounts.get(&dup_opcount.0), Some(&dup_opcount.1));
}
