//! `AdviceRef`, the verifier's working form, built from advice the
//! encoder wrote: `from_view`'s logical maps, and duplicate or
//! out-of-order keys, which the decoder resolves, reading like their
//! canonical re-encoding; and built from a handler-id table no encoder
//! writes, whose path ranks still order and collapse every section as
//! the paths do.

use karousos::advice::{AccessType, HandlerLogEntry, TxLogEntry, VarLog, VarLogEntry};
use karousos::wire::put_uvar;
use karousos::{decode_advice, decode_advice_view, encode_advice, AdviceViewExt};
use karousos::{run_instrumented_server, CollectorMode};
use karousos::{Advice, AdviceRef, AdviceView, HandlerOp, KTxId, OpAt, TxOpContents, TxPos};
use karousos::{Auditor, LogSection, RawValue, TxOpContentsView, VarLogEntryView};
use kem::dsl::*;
use kem::{FunctionId, HandlerId, OpRef, ProgramBuilder, RequestId, ServerConfig, TxOpKind};
use kem::{Value, ValueInterner, VarId};
use kvstore::IsolationLevel;
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
/// strictly ascending by key, and each flat section's entries exactly
/// the concatenation of its logs in that order.
fn keyed_sections_ascend(view: &AdviceView<'_>) -> bool {
    fn ascend<K: Ord, V>(section: &[(K, V)]) -> bool {
        section.windows(2).all(|w| w[0].0 < w[1].0)
    }
    ascend(&view.tags)
        && ascend(&view.handler_logs.index)
        && flat(&view.handler_logs)
        && ascend(&view.var_logs)
        && view.var_logs.iter().all(|(_, log)| ascend(log))
        && ascend(&view.tx_logs.index)
        && flat(&view.tx_logs)
        && ascend(&view.response_emitted_by)
        && ascend(&view.opcounts)
        && ascend(&view.nondet)
}

/// Whether `section`'s entries are exactly its logs, one after another
/// in index order: no entry outside a log, none in two.
fn flat<K, E>(section: &LogSection<K, E>) -> bool {
    let mut end = 0;
    for (_, range) in &section.index {
        if range.start != end || range.end < range.start {
            return false;
        }
        end = range.end;
    }
    end as usize == section.entries.len()
}

/// A variable log with each logged value read out of the value table.
fn rendered_var_log(r: &AdviceRef<'_>, var: VarId) -> Option<Vec<(OpAt, VarEntry)>> {
    let log = r.var_logs.get(&var)?;
    let entry = |e: &VarLogEntryView| {
        let value = e.value.map(|id| r.value(id).cloned());
        (e.access, value, e.prec)
    };
    Some(log.iter().map(|(at, e)| (*at, entry(e))).collect())
}

/// A variable-log entry as [`rendered_var_log`] reads it.
type VarEntry = (AccessType, Option<Option<Value>>, Option<OpAt>);

/// Repeated and out-of-order keys in the wire sections: the decoder
/// leaves every keyed section ascending, each key with its last value
/// on the wire — the sections the canonical re-encoding of the decoded
/// advice (`to_advice`, then `encode_advice`), which holds each key
/// once, decodes to. A flat section is rebuilt so that its entries are
/// its logs and nothing else, and the value table holds the values of
/// the entries kept, in the order they name them.
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
    let (at, write) = log[0];
    let later = OpAt::new(at.rid, at.path, at.opnum + 5);
    let read = VarLogEntryView {
        access: AccessType::Read,
        value: None,
        prec: Some(at),
    };
    let forged = vec![(later, write), (at, read), (at, write)];
    view.var_logs = vec![(var, log), (var, forged)];
    // A repeated handler log, the earlier copy a different non-empty
    // log, behind the log of a later request.
    let (rid, range) = view.handler_logs.index[0].clone();
    let honest_handler =
        view.handler_logs.entries[range.start as usize..range.end as usize].to_vec();
    let mut decoy = honest_handler.clone();
    decoy[0].opnum += 1;
    decoy.push(honest_handler[0].clone());
    let mut handler_logs = LogSection::default();
    handler_logs.push(RequestId(1), honest_handler.clone());
    handler_logs.push(rid, decoy);
    handler_logs.push(rid, honest_handler.clone());
    view.handler_logs = handler_logs;
    // A repeated transaction log, the earlier copy a different
    // non-empty log whose `PUT` logs a value of its own, and a repeated
    // nondet record, the variable's value first.
    let (tx, range) = view.tx_logs.index[0].clone();
    let honest_tx = view.tx_logs.entries[range.start as usize..range.end as usize].to_vec();
    let mut decoy = honest_tx.clone();
    view.values.push(view.nondet[0].1.clone());
    decoy[1].opnum += 1;
    decoy[1].contents = TxOpContentsView::Put {
        value: view.values.len() as u32 - 1,
    };
    let mut tx_logs = LogSection::default();
    tx_logs.push(tx, decoy);
    tx_logs.push(tx, honest_tx);
    view.tx_logs = tx_logs;
    let (op, _) = view.nondet[0].clone();
    let written = view.value(write.value.unwrap()).unwrap().clone();
    view.nondet.insert(0, (op, written));
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
    assert_eq!(hostile.values, canonical.values);
    assert_eq!(hostile.response_emitted_by, canonical.response_emitted_by);
    assert_eq!(hostile.opcounts, canonical.opcounts);
    assert_eq!(hostile.nondet, canonical.nondet);
    // The arrays that grow as the decode reads end it exact-sized.
    let handler_entries = &hostile.handler_logs.entries;
    assert_eq!(handler_entries.capacity(), handler_entries.len());
    assert_eq!(
        hostile.tx_logs.entries.capacity(),
        hostile.tx_logs.entries.len()
    );
    assert_eq!(hostile.values.capacity(), hostile.values.len());
    let (mut i1, mut i2) = (ValueInterner::new(), ValueInterner::new());
    let from_wire = AdviceRef::from_view(&hostile, &mut i1);
    assert_eq!(from_wire, AdviceRef::from_view(&canonical, &mut i2));
    assert_eq!(from_wire.tags.get(&RequestId(0)), Some(&99));
    assert_eq!(from_wire.opcounts.get(&dup_opcount.0), Some(&dup_opcount.1));
    let payload = (AccessType::Write, Some(Some(Value::str("payload"))), None);
    assert_eq!(
        rendered_var_log(&from_wire, var),
        Some(vec![(at, payload.clone()), (later, payload)])
    );
    assert_eq!(from_wire.handler_logs.get(&rid), Some(&honest_handler[..]));
    assert_eq!(from_wire.handler_logs.len(), 2);
    assert_eq!(from_wire.handler_log_entries(), 2);
    assert_eq!(from_wire.tx_log_entries(), 2);
    let put = from_wire.tx_entry(&(tx, 1)).map(|e| (e.opnum, e.contents));
    let Some((4, TxOpContentsView::Put { value })) = put else {
        panic!("the later transaction log's PUT: {put:?}");
    };
    assert_eq!(from_wire.value(value), Some(&Value::int(9)));
    // The decoy's value went with its log: the table holds the
    // variable log's two writes and the PUT's value.
    assert_eq!(from_wire.values.len(), 3);
    let nondet = from_wire.nondet.values().map(RawValue::value);
    assert!(nondet.eq([&Value::str("rand")]));
}

/// A program whose every request logs handler operations and runs one
/// transaction, `[start, GET k, PUT k, commit]`: handler logs and
/// transaction logs in every request, and a write order.
fn logging_program() -> kem::Program {
    let mut b = ProgramBuilder::new();
    let next = |op: fn(kem::Expr, kem::Expr, &str) -> kem::Stmt, then: &str| {
        vec![op(field(payload(), "tx"), field(payload(), "ctx"), then)]
    };
    b.function(
        "handle",
        vec![
            register("ping", "pong"),
            emit("ping", null()),
            tx_start(lit(0i64), "started"),
        ],
    );
    b.function("pong", vec![]);
    b.function(
        "started",
        next(|tx, ctx, then| tx_get(tx, lit("k"), ctx, then), "got"),
    );
    b.function(
        "got",
        next(
            |tx, ctx, then| tx_put(tx, lit("k"), lit(1i64), ctx, then),
            "put",
        ),
    );
    b.function("put", next(tx_commit, "done"));
    b.function("done", vec![respond(lit("ok"))]);
    b.request_handler("handle");
    b.build().unwrap()
}

/// `view` with its handler and transaction logs rewritten so their keys
/// are on the wire in descending order, and the first log of each
/// repeated by a decoy that differs from it — ahead of every log, or
/// (`forged_last`) after them all so that it wins.
fn hostile_layout(view: &mut AdviceView<'_>, forged_last: bool) {
    fn rewrite<K: Clone, E: Clone>(
        section: &mut LogSection<K, E>,
        forge: impl Fn(&mut Vec<E>),
        forged_last: bool,
    ) {
        let logs: Vec<(K, Vec<E>)> = section
            .iter()
            .map(|(k, log)| (k.clone(), log.to_vec()))
            .collect();
        let (key, mut decoy) = logs[0].clone();
        forge(&mut decoy);
        let mut out = LogSection::default();
        if !forged_last {
            out.push(key.clone(), decoy.clone());
        }
        for (k, log) in logs.into_iter().rev() {
            out.push(k, log);
        }
        if forged_last {
            out.push(key, decoy);
        }
        *section = out;
    }
    rewrite(&mut view.handler_logs, |log| log[0].opnum += 1, forged_last);
    // The decoy's `PUT` is a `GET`: a walk that reads the decoy for the
    // log finds no last modification where the write order names one.
    let put = |log: &mut Vec<karousos::TxLogEntryView<'_>>| {
        let put = log.iter_mut().find(|e| e.optype == TxOpKind::Put).unwrap();
        put.optype = TxOpKind::Get;
        put.contents = TxOpContentsView::Get { from: None };
    };
    rewrite(&mut view.tx_logs, put, forged_last);
}

/// An audit reads hostile log layouts — keys repeated and out of order,
/// a decoy log ahead of the one that wins — exactly as it reads their
/// canonical re-encoding: the same verdict, `RejectReason` and
/// statistics, at one thread and at four. The decoder rebuilds such a
/// section so that no walk over its entries can meet the decoy.
#[test]
fn hostile_log_layouts_audit_like_their_canonical_reencoding() {
    let program = logging_program();
    let config = ServerConfig {
        concurrency: 1,
        ..ServerConfig::default()
    };
    let payloads = vec![Value::Null; 6];
    let (out, advice) =
        run_instrumented_server(&program, &payloads, &config, CollectorMode::Karousos).unwrap();
    assert!(!advice.handler_logs.is_empty() && !advice.write_order.is_empty());
    let honest = encode_advice(&advice);
    let outcome = |bytes: &[u8], threads: usize| {
        let auditor = Auditor {
            threads,
            ..Auditor::default()
        };
        let audited = auditor.audit(&program, &out.trace, bytes, IsolationLevel::Serializable);
        audited
            .map(|r| (r.reexec, r.graph_nodes, r.graph_edges))
            .map_err(|failure| failure.reason)
    };
    for forged_last in [false, true] {
        let mut view = decode_advice_view(&honest).unwrap();
        hostile_layout(&mut view, forged_last);
        let hostile = view.encode();
        let canonical = encode_advice(&decode_advice(&hostile).unwrap());
        assert_ne!(hostile, canonical);
        assert!(keyed_sections_ascend(
            &decode_advice_view(&hostile).unwrap()
        ));
        for threads in [1, 4] {
            let (wire, canon) = (outcome(&hostile, threads), outcome(&canonical, threads));
            assert_eq!(wire, canon, "forged_last={forged_last}, threads={threads}");
            assert_eq!(
                wire.is_ok(),
                !forged_last,
                "forged_last={forged_last}: {wire:?}"
            );
            if !forged_last {
                assert_eq!(wire, outcome(&honest, threads));
            }
        }
    }
}

/// A coordinate as generated: request, handler-id table entry (picked
/// among all of them, copies included), opnum.
type GenAt = (u64, prop::sample::Index, u32);

/// A variable-log entry: key, written value (none for a read), `prec`.
type GenVarEntry = (GenAt, Option<i64>, Option<GenAt>);

/// A transaction-log entry, a `GET`: handler entry, opnum, dictating
/// write's transaction and index.
type GenTxEntry = (prop::sample::Index, u32, Option<(GenAt, u32)>);

/// A handler log: each entry's handler entry and opnum.
type GenHandlerLog = Vec<(prop::sample::Index, u32)>;

/// Advice bytes with a handler-id table no encoder writes: entries in
/// generation order, not `HandlerId` order, each a root or a step below
/// any earlier entry — so the same path is written more than once, under
/// any copy of its parent — and sections whose coordinates name any
/// entry.
#[derive(Debug, Clone)]
struct Scrambled {
    /// `(parent pick, function, opnum)`; no pick for a root.
    table: Vec<(Option<prop::sample::Index>, u32, u32)>,
    handler_logs: Vec<(u64, GenHandlerLog)>,
    /// Logs written after `handler_logs`, each keyed like the log of
    /// theirs picked: a key repeated, after keys above it.
    handler_repeats: Vec<(prop::sample::Index, GenHandlerLog)>,
    var_logs: Vec<(u32, Vec<GenVarEntry>)>,
    tx_logs: Vec<(GenAt, Vec<GenTxEntry>)>,
    /// The same for transaction logs.
    tx_repeats: Vec<(prop::sample::Index, Vec<GenTxEntry>)>,
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
        prop::collection::vec(
            (entry(), prop::collection::vec((entry(), 0u32..3), 0..4)),
            0..3,
        ),
        prop::collection::vec(
            (
                entry(),
                prop::collection::vec(
                    (entry(), 0u32..3, prop::option::of((arb_at(), 0u32..3))),
                    0..4,
                ),
            ),
            0..3,
        ),
    )
        .prop_map(
            |(
                table,
                handler_logs,
                var_logs,
                tx_logs,
                write_order,
                reb,
                opcounts,
                nondet,
                handler_repeats,
                tx_repeats,
            )| {
                Scrambled {
                    table,
                    handler_logs,
                    handler_repeats,
                    var_logs,
                    tx_logs,
                    tx_repeats,
                    write_order,
                    response_emitted_by: reb,
                    opcounts,
                    nondet,
                }
            },
        )
}

/// `logs`, then each of `repeats` keyed like the log of `logs` it
/// picks: the order a section's logs are written in.
fn with_repeats<'s, K: Clone, L>(
    logs: &'s [(K, L)],
    repeats: &'s [(prop::sample::Index, L)],
) -> Vec<(K, &'s L)> {
    let mut wire: Vec<(K, &L)> = logs.iter().map(|(k, log)| (k.clone(), log)).collect();
    if !logs.is_empty() {
        for (pick, log) in repeats {
            wire.push((logs[pick.index(logs.len())].0.clone(), log));
        }
    }
    wire
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
        let handler_logs = with_repeats(&self.handler_logs, &self.handler_repeats);
        put(&mut out, handler_logs.len() as u64);
        for (rid, log) in handler_logs {
            put(&mut out, rid);
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
        let tx_logs = with_repeats(&self.tx_logs, &self.tx_repeats);
        put(&mut out, tx_logs.len() as u64);
        for (tx, log) in tx_logs {
            at(&mut out, &tx);
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
                    let value = e.value.and_then(|id| r.value(id)).cloned();
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

        // The flat sections against a model of the rule read off the
        // generated logs themselves: inserted into a map in wire order,
        // later wins. Their entries are the kept logs and nothing else.
        prop_assert!(keyed_sections_ascend(&view));
        let n = s.table.len();
        let path = |entry: &prop::sample::Index| view.hids[entry.index(n)];
        let mut expected = std::collections::BTreeMap::new();
        for (rid, log) in with_repeats(&s.handler_logs, &s.handler_repeats) {
            let log: Vec<_> = log.iter().map(|(entry, opnum)| (path(entry), *opnum)).collect();
            expected.insert(RequestId(rid), log);
        }
        let rendered: std::collections::BTreeMap<_, _> = r
            .handler_logs
            .iter()
            .map(|(rid, log)| (*rid, log.iter().map(|e| (e.path, e.opnum)).collect::<Vec<_>>()))
            .collect();
        prop_assert_eq!(rendered, expected);
        let mut expected = std::collections::BTreeMap::new();
        for ((rid, entry, opnum), log) in with_repeats(&s.tx_logs, &s.tx_repeats) {
            let log: Vec<_> = log.iter().map(|(entry, opnum, _)| (path(entry), *opnum)).collect();
            expected.insert(OpAt::new(RequestId(rid), path(&entry), opnum), log);
        }
        let rendered: Vec<_> = r
            .tx_logs
            .iter()
            .map(|(tx, log)| (*tx, log.iter().map(|e| (e.path, e.opnum)).collect::<Vec<_>>()))
            .collect();
        prop_assert_eq!(rendered, expected.into_iter().collect::<Vec<_>>());
        for entries in [view.handler_logs.entries.capacity() - view.handler_logs.entries.len(),
                        view.tx_logs.entries.capacity() - view.tx_logs.entries.len(),
                        view.values.capacity() - view.values.len()] {
            prop_assert_eq!(entries, 0);
        }
    }
}
