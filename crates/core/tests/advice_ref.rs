//! `AdviceRef`, the verifier's working form, built from advice the
//! encoder wrote: `from_view`'s logical maps, and duplicate or
//! out-of-order keys, which the decoder resolves, reading like their
//! canonical re-encoding; and built from a handler-id table no encoder
//! writes, whose path ranks still order and collapse every section as
//! the paths do.

use karousos::advice::{AccessType, HandlerLogEntry, TxLogEntry, VarLog, VarLogEntry};
use karousos::wire::put_uvar;
use karousos::{decode_advice, decode_advice_view, encode_advice, AdviceViewExt};
use karousos::{Advice, AdviceRef, AdviceView, HandlerOp, KTxId, OpAt, TxOpContents, TxPos};
use karousos::{RawValue, TxOpContentsView, VarLogEntryView};
use kem::{FunctionId, HandlerId, OpRef, RequestId, TxOpKind, Value, ValueInterner, VarId};
use proptest::prelude::*;

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
        .tx_entry(&r.write_order[0])
        .is_some_and(|e| e.optype == TxOpKind::Put && e.key == Some("row")));
    let nondet = r.nondet.values().next().map(RawValue::value);
    assert_eq!(nondet, Some(&Value::str("rand")));
    let order = [RequestId(1), RequestId(0), RequestId(9)];
    assert_eq!(r.groups(&order), a.groups(&order));
}

/// Whether every keyed section of `view`, and every variable log, is
/// strictly ascending by key.
fn keyed_sections_ascend(view: &AdviceView<'_>) -> bool {
    fn ascend<K: Ord, V>(section: &[(K, V)]) -> bool {
        section.windows(2).all(|w| w[0].0 < w[1].0)
    }
    ascend(&view.tags)
        && ascend(&view.handler_logs)
        && ascend(&view.var_logs)
        && view.var_logs.iter().all(|(_, log)| ascend(log))
        && ascend(&view.tx_logs)
        && ascend(&view.response_emitted_by)
        && ascend(&view.opcounts)
        && ascend(&view.nondet)
}

/// Repeated and out-of-order keys in the wire sections: the decoder
/// leaves every keyed section ascending, each key with its last value
/// on the wire — the sections the canonical re-encoding of the decoded
/// advice (`to_advice`, then `encode_advice`), which holds each key
/// once, decodes to.
#[test]
fn duplicate_sections_resolve_like_their_canonical_reencoding() {
    let bytes = encode_advice(&sample_advice());
    let mut view = decode_advice_view(&bytes).unwrap();
    // A repeated tag (later wins) and a repeated opcount.
    view.tags.push((RequestId(0), 99));
    let dup_opcount = view.opcounts[0];
    view.opcounts.insert(0, (dup_opcount.0, 1234));
    // A variable log whose write is keyed twice, a read of it first,
    // behind a key out of order; a decoy log of the same variable
    // before it.
    let (var, log) = view.var_logs[0].clone();
    let (at, write) = log[0].clone();
    let later = OpAt::new(at.rid, at.path, at.opnum + 5);
    let read = VarLogEntryView {
        access: AccessType::Read,
        value: None,
        prec: Some(at),
    };
    let forged = vec![(later, write.clone()), (at, read), (at, write.clone())];
    view.var_logs = vec![(var, log), (var, forged)];
    // A repeated transaction log, the empty one first, and a repeated
    // nondet record, the variable's value first.
    let (tx, _) = view.tx_logs[0].clone();
    view.tx_logs.insert(0, (tx, Vec::new()));
    let (op, _) = view.nondet[0].clone();
    view.nondet.insert(0, (op, write.value.clone().unwrap()));
    let hostile = view.encode();
    let canonical = encode_advice(&decode_advice(&hostile).unwrap());
    assert_ne!(hostile, canonical);
    let (hostile, canonical) = (
        decode_advice_view(&hostile).unwrap(),
        decode_advice_view(&canonical).unwrap(),
    );
    assert!(keyed_sections_ascend(&hostile));
    assert_eq!(hostile.tags, canonical.tags);
    assert_eq!(hostile.handler_logs, canonical.handler_logs);
    assert_eq!(hostile.var_logs, canonical.var_logs);
    assert_eq!(hostile.tx_logs, canonical.tx_logs);
    assert_eq!(hostile.response_emitted_by, canonical.response_emitted_by);
    assert_eq!(hostile.opcounts, canonical.opcounts);
    assert_eq!(hostile.nondet, canonical.nondet);
    let (mut i1, mut i2) = (ValueInterner::new(), ValueInterner::new());
    let from_wire = AdviceRef::from_view(&hostile, &mut i1);
    assert_eq!(from_wire, AdviceRef::from_view(&canonical, &mut i2));
    assert_eq!(from_wire.tags.get(&RequestId(0)), Some(&99));
    assert_eq!(from_wire.opcounts.get(&dup_opcount.0), Some(&dup_opcount.1));
    assert_eq!(
        from_wire.var_logs.get(&var),
        Some(&vec![(at, write.clone()), (later, write)])
    );
    assert_eq!(from_wire.tx_log_entries(), 2);
    let nondet = from_wire.nondet.values().map(RawValue::value);
    assert!(nondet.eq([&Value::str("rand")]));
}

/// A coordinate as generated: request, handler-id table entry (picked
/// among all of them, copies included), opnum.
type GenAt = (u64, prop::sample::Index, u32);

/// A variable-log entry: key, written value (none for a read), `prec`.
type GenVarEntry = (GenAt, Option<i64>, Option<GenAt>);

/// A transaction-log entry, a `GET`: handler entry, opnum, dictating
/// write's transaction and index.
type GenTxEntry = (prop::sample::Index, u32, Option<(GenAt, u32)>);

/// Advice bytes with a handler-id table no encoder writes: entries in
/// generation order, not `HandlerId` order, each a root or a step below
/// any earlier entry — so the same path is written more than once, under
/// any copy of its parent — and sections whose coordinates name any
/// entry.
#[derive(Debug, Clone)]
struct Scrambled {
    /// `(parent pick, function, opnum)`; no pick for a root.
    table: Vec<(Option<prop::sample::Index>, u32, u32)>,
    handler_logs: Vec<(u64, Vec<(prop::sample::Index, u32)>)>,
    var_logs: Vec<(u32, Vec<GenVarEntry>)>,
    tx_logs: Vec<(GenAt, Vec<GenTxEntry>)>,
    write_order: Vec<(GenAt, u32)>,
    response_emitted_by: Vec<(u64, prop::sample::Index, u32)>,
    opcounts: Vec<(u64, prop::sample::Index, u32)>,
    nondet: Vec<(GenAt, i64)>,
}

fn arb_at() -> impl Strategy<Value = GenAt> {
    (0u64..3, any::<prop::sample::Index>(), 0u32..3)
}

fn arb_scrambled() -> impl Strategy<Value = Scrambled> {
    let step = (
        prop::option::of(any::<prop::sample::Index>()),
        0u32..3,
        0u32..2,
    );
    let entry = any::<prop::sample::Index>;
    (
        prop::collection::vec(step, 1..12),
        prop::collection::vec(
            (0u64..3, prop::collection::vec((entry(), 0u32..3), 0..4)),
            0..4,
        ),
        prop::collection::vec(
            (
                0u32..2,
                prop::collection::vec(
                    (
                        arb_at(),
                        prop::option::of(-3i64..3),
                        prop::option::of(arb_at()),
                    ),
                    0..6,
                ),
            ),
            0..3,
        ),
        prop::collection::vec(
            (
                arb_at(),
                prop::collection::vec(
                    (entry(), 0u32..3, prop::option::of((arb_at(), 0u32..3))),
                    0..4,
                ),
            ),
            0..4,
        ),
        prop::collection::vec((arb_at(), 0u32..3), 0..4),
        prop::collection::vec((0u64..3, entry(), 0u32..3), 0..6),
        prop::collection::vec((0u64..3, entry(), 0u32..4), 0..12),
        prop::collection::vec((arb_at(), -3i64..3), 0..6),
    )
        .prop_map(
            |(table, handler_logs, var_logs, tx_logs, write_order, reb, opcounts, nondet)| {
                Scrambled {
                    table,
                    handler_logs,
                    var_logs,
                    tx_logs,
                    write_order,
                    response_emitted_by: reb,
                    opcounts,
                    nondet,
                }
            },
        )
}

impl Scrambled {
    /// The advice's bytes: one string (`"e"`), no tags, no pool; every
    /// handler-log entry a check of `"e"`, every transaction-log entry a
    /// keyless `GET`, every logged value an integer.
    fn bytes(&self) -> Vec<u8> {
        let n = self.table.len();
        let mut out = vec![0, 1, 1, b'e'];
        let put = |out: &mut Vec<u8>, v: u64| put_uvar(out, v);
        put(&mut out, n as u64);
        for (i, (parent, function, opnum)) in self.table.iter().enumerate() {
            let parent = parent
                .filter(|_| i > 0)
                .map_or(0, |p| p.index(i) as u64 + 1);
            for v in [parent, *function as u64, *opnum as u64] {
                put(&mut out, v);
            }
        }
        let at = |out: &mut Vec<u8>, (rid, entry, opnum): &GenAt| {
            for v in [*rid, entry.index(n) as u64, *opnum as u64] {
                put_uvar(out, v);
            }
        };
        let int = |out: &mut Vec<u8>, v: i64| {
            out.push(2);
            put_uvar(out, ((v << 1) ^ (v >> 63)) as u64);
        };
        let opt = |out: &mut Vec<u8>, some: bool| out.push(u8::from(some));
        put(&mut out, self.handler_logs.len() as u64);
        for (rid, log) in &self.handler_logs {
            put(&mut out, *rid);
            put(&mut out, log.len() as u64);
            for (entry, opnum) in log {
                put(&mut out, entry.index(n) as u64);
                put(&mut out, *opnum as u64);
                out.extend([3, 0]);
            }
        }
        out.push(0);
        put(&mut out, self.var_logs.len() as u64);
        for (var, log) in &self.var_logs {
            put(&mut out, *var as u64);
            put(&mut out, log.len() as u64);
            for (key, value, prec) in log {
                at(&mut out, key);
                out.push(u8::from(value.is_some()));
                opt(&mut out, value.is_some());
                if let Some(v) = value {
                    int(&mut out, *v);
                }
                opt(&mut out, prec.is_some());
                if let Some(prec) = prec {
                    at(&mut out, prec);
                }
            }
        }
        let txpos = |out: &mut Vec<u8>, (tx, index): &(GenAt, u32)| {
            at(out, tx);
            put_uvar(out, *index as u64);
        };
        put(&mut out, self.tx_logs.len() as u64);
        for (tx, log) in &self.tx_logs {
            at(&mut out, tx);
            put(&mut out, log.len() as u64);
            for (entry, opnum, from) in log {
                put(&mut out, entry.index(n) as u64);
                put(&mut out, *opnum as u64);
                out.extend([1, 0, 2]);
                opt(&mut out, from.is_some());
                if let Some(from) = from {
                    txpos(&mut out, from);
                }
            }
        }
        put(&mut out, self.write_order.len() as u64);
        for pos in &self.write_order {
            txpos(&mut out, pos);
        }
        for section in [&self.response_emitted_by, &self.opcounts] {
            put(&mut out, section.len() as u64);
            for (rid, entry, v) in section {
                for v in [*rid, entry.index(n) as u64, *v as u64] {
                    put(&mut out, v);
                }
            }
        }
        put(&mut out, self.nondet.len() as u64);
        for (op, v) in &self.nondet {
            at(&mut out, op);
            int(&mut out, *v);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However the handler-id table orders and repeats its paths, every
    /// section of `AdviceRef`, its path ranks rendered back to handler
    /// ids, is the owned decoder's `BTreeMap` of that section: the same
    /// keys in the same order, each with its last value on the wire.
    /// Ranks belong to their own table, so only rendered paths are
    /// compared.
    #[test]
    fn path_ranks_order_and_collapse_as_paths_do(s in arb_scrambled()) {
        let bytes = s.bytes();
        let view = decode_advice_view(&bytes).expect("scrambled advice decodes");
        let owned = view.to_advice();
        let r = AdviceRef::from_view(&view, &mut ValueInterner::new());
        let paths = &r.paths;
        let op = |at: &OpAt| paths.op_ref(at);
        let tx_at = |(tx, index): &(OpAt, u32)| {
            let tx = r.tx_logs.contains_key(tx).then(|| paths.tx_id(tx));
            (tx, *index)
        };
        let owned_at = |pos: &TxPos| {
            let tx = owned.tx_logs.contains_key(&pos.tx).then(|| pos.tx.clone());
            (tx, pos.index)
        };

        let rendered: Vec<_> = r.opcounts.iter().map(|((rid, p), c)| ((*rid, paths.hid(*p)), *c)).collect();
        prop_assert_eq!(rendered, owned.opcounts.clone().into_iter().collect::<Vec<_>>());
        let rendered: Vec<_> = r
            .response_emitted_by
            .iter()
            .map(|(rid, (p, opnum))| (*rid, (paths.hid(*p), *opnum)))
            .collect();
        prop_assert_eq!(rendered, owned.response_emitted_by.clone().into_iter().collect::<Vec<_>>());
        let rendered: Vec<_> = r.nondet.iter().map(|(at, v)| (op(at), v.value().clone())).collect();
        prop_assert_eq!(rendered, owned.nondet.clone().into_iter().collect::<Vec<_>>());
        let rendered: Vec<_> = r
            .handler_logs
            .iter()
            .map(|(rid, log)| (*rid, log.iter().map(|e| (paths.hid(e.path), e.opnum)).collect()))
            .collect();
        let expected: Vec<(RequestId, Vec<_>)> = owned
            .handler_logs
            .iter()
            .map(|(rid, log)| (*rid, log.iter().map(|e| (e.hid.clone(), e.opnum)).collect()))
            .collect();
        prop_assert_eq!(rendered, expected);
        for ((var, log), (owned_var, owned_log)) in r.var_logs.iter().zip(&owned.var_logs) {
            prop_assert_eq!(var, owned_var);
            let rendered: Vec<_> = log
                .iter()
                .map(|(at, e)| {
                    let value = e.value.as_ref().map(|v| v.value().clone());
                    (op(at), e.access, value, e.prec.as_ref().map(op))
                })
                .collect();
            let expected: Vec<_> = owned_log
                .iter()
                .map(|(at, e)| (at.clone(), e.access, e.value.clone(), e.prec.clone()))
                .collect();
            prop_assert_eq!(rendered, expected);
        }
        prop_assert_eq!(r.var_logs.len(), owned.var_logs.len());
        let rendered: Vec<_> = r
            .tx_logs
            .iter()
            .map(|(tx, log)| {
                let entries: Vec<_> = log
                    .iter()
                    .map(|e| {
                        let from = match &e.contents {
                            TxOpContentsView::Get { from } => from.as_ref().map(tx_at),
                            _ => None,
                        };
                        (paths.hid(e.path), e.opnum, from)
                    })
                    .collect();
                (paths.tx_id(tx), entries)
            })
            .collect();
        let expected: Vec<_> = owned
            .tx_logs
            .iter()
            .map(|(tx, log)| {
                let entries: Vec<_> = log
                    .iter()
                    .map(|e| {
                        let from = match &e.contents {
                            TxOpContents::Get { from } => from.as_ref().map(owned_at),
                            _ => None,
                        };
                        (e.hid.clone(), e.opnum, from)
                    })
                    .collect();
                (tx.clone(), entries)
            })
            .collect();
        prop_assert_eq!(rendered, expected);
        let rendered: Vec<_> = r.write_order.iter().map(tx_at).collect();
        let expected: Vec<_> = owned.write_order.iter().map(owned_at).collect();
        prop_assert_eq!(rendered, expected);
    }
}
