//! Property tests for the advice wire codec: arbitrary advice must
//! round-trip exactly, and corrupted bytes must never panic.

use std::collections::{BTreeMap, BTreeSet};

use karousos::advice::{
    AccessType, Advice, HandlerLogEntry, HandlerOp, KTxId, TxLogEntry, TxOpContents, TxPos,
    VarLogEntry,
};
use karousos::{decode_advice, decode_advice_view, encode_advice, AdviceViewExt};
use kem::{FunctionId, HandlerId, OpRef, RequestId, TxOpKind, Value, VarId};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9 ]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::list),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Value::from_map),
        ]
    })
}

fn arb_hid() -> impl Strategy<Value = HandlerId> {
    prop::collection::vec((0u32..50, 0u32..20), 1..4).prop_map(|path| {
        let path: Vec<(FunctionId, u32)> =
            path.into_iter().map(|(f, o)| (FunctionId(f), o)).collect();
        HandlerId::from_path(&path).expect("non-empty path")
    })
}

fn arb_opref() -> impl Strategy<Value = OpRef> {
    (0u64..100, arb_hid(), 0u32..50)
        .prop_map(|(rid, hid, opnum)| OpRef::new(RequestId(rid), hid, opnum))
}

fn arb_ktx() -> impl Strategy<Value = KTxId> {
    (0u64..100, arb_hid(), 1u32..50).prop_map(|(rid, hid, opnum)| KTxId {
        rid: RequestId(rid),
        hid,
        opnum,
    })
}

fn arb_handler_op() -> impl Strategy<Value = HandlerOp> {
    prop_oneof![
        ("[a-z]{1,8}", 0u32..40).prop_map(|(event, f)| HandlerOp::Register {
            event,
            function: FunctionId(f)
        }),
        ("[a-z]{1,8}", 0u32..40).prop_map(|(event, f)| HandlerOp::Unregister {
            event,
            function: FunctionId(f)
        }),
        "[a-z]{1,8}".prop_map(|event| HandlerOp::Emit { event }),
        "[a-z]{1,8}".prop_map(|event| HandlerOp::Check { event }),
    ]
}

fn arb_tx_entry() -> impl Strategy<Value = TxLogEntry> {
    (
        arb_hid(),
        1u32..50,
        prop_oneof![
            Just((TxOpKind::Start, TxOpContents::None)),
            Just((TxOpKind::Commit, TxOpContents::None)),
            Just((TxOpKind::Abort, TxOpContents::None)),
            arb_value().prop_map(|v| (TxOpKind::Put, TxOpContents::Put { value: v })),
            prop::option::of((arb_ktx(), 0u32..10)).prop_map(|from| {
                (
                    TxOpKind::Get,
                    TxOpContents::Get {
                        from: from.map(|(tx, index)| TxPos { tx, index }),
                    },
                )
            }),
        ],
        prop::option::of("[a-z]{1,8}"),
    )
        .prop_map(|(hid, opnum, (optype, contents), key)| TxLogEntry {
            hid,
            opnum,
            optype,
            key,
            contents,
        })
}

prop_compose! {
    fn arb_advice()(
        tags in prop::collection::btree_map(0u64..50, any::<u64>(), 0..6),
        hl in prop::collection::vec((0u64..50, prop::collection::vec((arb_hid(), 1u32..30, arb_handler_op()), 0..4)), 0..3),
        vl in prop::collection::vec(
            (0u32..5, prop::collection::vec((arb_opref(), any::<bool>(), prop::option::of(arb_value()), prop::option::of(arb_opref())), 0..4)),
            0..3
        ),
        txl in prop::collection::vec((arb_ktx(), prop::collection::vec(arb_tx_entry(), 0..4)), 0..3),
        wo in prop::collection::vec((arb_ktx(), 0u32..8), 0..4),
        reb in prop::collection::vec((0u64..50, arb_hid(), 0u32..20), 0..4),
        oc in prop::collection::vec((0u64..50, arb_hid(), 0u32..20), 0..6),
        nondet in prop::collection::vec((arb_opref(), arb_value()), 0..4),
    ) -> Advice {
        let mut a = Advice {
            tags: tags.into_iter().map(|(r, t)| (RequestId(r), t)).collect(),
            ..Advice::default()
        };
        for (rid, entries) in hl {
            a.handler_logs.insert(
                RequestId(rid),
                entries.into_iter().map(|(hid, opnum, op)| HandlerLogEntry { hid, opnum, op }).collect(),
            );
        }
        for (var, entries) in vl {
            let mut log = BTreeMap::new();
            for (op, is_write, value, prec) in entries {
                log.insert(op, VarLogEntry {
                    access: if is_write { AccessType::Write } else { AccessType::Read },
                    value,
                    prec,
                });
            }
            a.var_logs.insert(VarId(var), log);
        }
        for (tx, log) in txl {
            a.tx_logs.insert(tx, log);
        }
        a.write_order = wo.into_iter().map(|(tx, index)| TxPos { tx, index }).collect();
        for (rid, hid, opnum) in reb {
            a.response_emitted_by.insert(RequestId(rid), (hid, opnum));
        }
        for (rid, hid, count) in oc {
            a.opcounts.insert((RequestId(rid), hid), count);
        }
        for (op, v) in nondet {
            a.nondet.insert(op, v);
        }
        a
    }
}

/// Every string `a` names — event names, row keys, map keys and string
/// values — and every handler id it names, with their ancestors: what
/// its tables must hold, each once.
fn named(a: &Advice) -> (BTreeSet<String>, BTreeSet<HandlerId>) {
    fn walk(v: &Value, out: &mut BTreeSet<String>) {
        match v {
            Value::Str(s) => {
                out.insert(s.to_string());
            }
            Value::List(l) => l.iter().for_each(|v| walk(v, out)),
            Value::Map(m) => m.iter().for_each(|(k, v)| {
                out.insert(k.to_string());
                walk(v, out);
            }),
            _ => {}
        }
    }
    let (mut strings, mut hids) = (BTreeSet::new(), Vec::new());
    for e in a.handler_logs.values().flatten() {
        let (HandlerOp::Register { event, .. }
        | HandlerOp::Unregister { event, .. }
        | HandlerOp::Emit { event }
        | HandlerOp::Check { event }) = &e.op;
        strings.insert(event.clone());
        hids.push(&e.hid);
    }
    for (op, e) in a.var_logs.values().flatten() {
        hids.extend(
            [Some(op), e.prec.as_ref()]
                .into_iter()
                .flatten()
                .map(|o| &o.hid),
        );
        e.value.iter().for_each(|v| walk(v, &mut strings));
    }
    for (tx, log) in &a.tx_logs {
        hids.push(&tx.hid);
        for e in log {
            hids.push(&e.hid);
            strings.extend(e.key.clone());
            match &e.contents {
                TxOpContents::Put { value } => walk(value, &mut strings),
                TxOpContents::Get { from: Some(p) } => hids.push(&p.tx.hid),
                _ => {}
            }
        }
    }
    hids.extend(a.write_order.iter().map(|p| &p.tx.hid));
    hids.extend(a.response_emitted_by.values().map(|(h, _)| h));
    hids.extend(a.opcounts.keys().map(|(_, h)| h));
    for (op, v) in &a.nondet {
        hids.push(&op.hid);
        walk(v, &mut strings);
    }
    let mut all = BTreeSet::new();
    for h in hids {
        let mut at = Some(h);
        while let Some(h) = at {
            all.insert(h.clone());
            at = h.parent();
        }
    }
    (strings, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn advice_round_trips(a in arb_advice()) {
        let bytes = encode_advice(&a);
        let decoded = decode_advice(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, a);
    }

    #[test]
    fn every_truncation_errors_where_the_bytes_ran_out(a in arb_advice()) {
        let bytes = encode_advice(&a);
        for cut in 0..bytes.len() {
            let err = decode_advice(&bytes[..cut]).expect_err("truncation accepted");
            prop_assert!(err.offset <= cut, "{} at {} of {cut}", err.what, err.offset);
        }
    }

    #[test]
    fn bit_flips_never_panic(a in arb_advice(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode_advice(&a);
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Either decodes to something (possibly different) or errors
        // where the bytes are; must not panic or loop.
        if let Err(e) = decode_advice(&bytes) {
            prop_assert!(e.offset <= bytes.len());
        }
    }

    #[test]
    fn each_string_and_handler_id_crosses_the_wire_once(a in arb_advice()) {
        let bytes = encode_advice(&a);
        let view = decode_advice_view(&bytes).expect("own encoding decodes as view");
        let (strings, hids) = named(&a);
        let table: BTreeSet<&str> = view.strings.iter().copied().collect();
        prop_assert_eq!(table.len(), view.strings.len());
        prop_assert_eq!(table, strings.iter().map(String::as_str).collect::<BTreeSet<_>>());
        let table: BTreeSet<&HandlerId> =
            view.hids.iter().filter_map(|rank| view.paths.id(*rank)).collect();
        prop_assert_eq!(table.len(), view.hids.len());
        prop_assert_eq!(table, hids.iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_errors_carry_positions(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // The decoder is the first thing attacker bytes touch: on any
        // input it must return Ok or a WireError positioned inside (or
        // just past) the buffer — never panic, hang, or over-allocate.
        match decode_advice(&bytes) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(
                    e.offset <= bytes.len(),
                    "error offset {} beyond buffer of {} bytes ({})",
                    e.offset, bytes.len(), e.what
                );
                prop_assert!(!e.what.is_empty());
            }
        }
    }

    #[test]
    fn appended_bytes_trip_the_trailing_check(
        a in arb_advice(),
        extra in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // A valid encoding plus garbage must fail with the
        // trailing-bytes check at exactly the original length.
        let bytes = encode_advice(&a);
        let mut padded = bytes.clone();
        padded.extend_from_slice(&extra);
        let err = decode_advice(&padded).expect_err("trailing bytes accepted");
        prop_assert_eq!(err.what, "trailing bytes");
        prop_assert_eq!(err.offset, bytes.len());
    }

    #[test]
    fn values_round_trip(v in arb_value()) {
        // Values embedded in a nondet entry survive the wire.
        let mut a = Advice::default();
        a.nondet.insert(
            OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1),
            v.clone(),
        );
        let decoded = decode_advice(&encode_advice(&a)).unwrap();
        prop_assert_eq!(decoded.nondet.values().next().unwrap(), &v);
    }
}

// ---------------------------------------------------------------------
// The view's conversions: back to the bytes it was decoded from, and to
// the advice that was encoded.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn view_reencodes_byte_identically(a in arb_advice()) {
        let bytes = encode_advice(&a);
        let view = decode_advice_view(&bytes).expect("own encoding decodes as view");
        prop_assert_eq!(view.encode(), bytes.clone());
        prop_assert_eq!(view.to_advice(), a);
    }
}

// ---------------------------------------------------------------------
// The value path. The view decoder builds each logged value in the walk
// that validates it, and keeps it beside the bytes it occupies
// (`RawValue`). Logged in a view, a value must be what the one-walk
// oracle over the lone value (`decode_value_bounded`) makes of the same
// bytes: the same acceptance, the same `Value`, and the same positioned
// error or budget exhaustion.
// (These read values against a fixed string table and an empty pool;
// the tables and the pool have their own section below.)

use karousos::wire::NODE_BUDGET_LABEL;
use karousos::{decode_value_bounded, BoundedDecodeError, RawValue};

/// The string table the values of this section name entries of.
const TABLE: [&str; 4] = ["a", "b", "ab", "c"];

/// A value as the wire sees it, so hostile shapes the `Value` type
/// cannot hold — duplicate and unsorted map keys, strings and pool nodes
/// that are not in their table — can be generated and encoded.
#[derive(Debug, Clone)]
enum WireValue {
    Null,
    Bool(u8),
    Int(i64),
    /// A string table index, whether or not there is such an entry.
    Str(u64),
    List(Vec<WireValue>),
    Map(Vec<(u64, WireValue)>),
    /// A reference to a pool node, whether or not there is one.
    Ref(u64),
}

fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

impl WireValue {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireValue::Null => out.push(0),
            WireValue::Bool(b) => out.extend_from_slice(&[1, *b]),
            WireValue::Int(i) => {
                out.push(2);
                put_uvar(out, ((i << 1) ^ (i >> 63)) as u64);
            }
            WireValue::Str(s) => {
                out.push(3);
                put_uvar(out, *s);
            }
            WireValue::List(items) => {
                out.push(4);
                put_uvar(out, items.len() as u64);
                for item in items {
                    item.encode(out);
                }
            }
            WireValue::Map(entries) => {
                out.push(5);
                put_uvar(out, entries.len() as u64);
                for (k, v) in entries {
                    put_uvar(out, *k);
                    v.encode(out);
                }
            }
            WireValue::Ref(id) => {
                out.push(6);
                put_uvar(out, *id);
            }
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Mostly an entry of a four-string table (so keys collide and
/// sub-values repeat), now and then one past it.
fn arb_string_ref() -> impl Strategy<Value = u64> {
    prop_oneof![8 => 0u64..4, 1 => 4u64..6, 1 => Just(200u64)]
}

fn arb_wire_value() -> impl Strategy<Value = WireValue> {
    let leaf = prop_oneof![
        Just(WireValue::Null),
        (0u8..3).prop_map(WireValue::Bool),
        any::<i64>().prop_map(WireValue::Int),
        (-2i64..3).prop_map(WireValue::Int),
        arb_string_ref().prop_map(WireValue::Str),
        (0u64..8).prop_map(WireValue::Ref),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(WireValue::List),
            // Keys in generation order: unsorted, often duplicated.
            prop::collection::vec((arb_string_ref(), inner), 0..4).prop_map(WireValue::Map),
        ]
    })
}

/// Advice whose one record is the value `bytes` encode — the
/// nondeterminism log's, at `(0, h0, 1)` — over [`TABLE`], and where
/// the value starts in it. Every other section is empty.
fn logging(bytes: &[u8]) -> (Vec<u8>, usize) {
    let mut advice = vec![0, TABLE.len() as u8];
    for s in TABLE {
        advice.push(s.len() as u8);
        advice.extend_from_slice(s.as_bytes());
    }
    // The handler-id table `h0`, seven empty sections, one record.
    advice.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]);
    let start = advice.len();
    advice.extend_from_slice(bytes);
    (advice, start)
}

/// Where a bounded decode stopped, and why.
fn stop(e: BoundedDecodeError) -> (usize, &'static str) {
    match e {
        BoundedDecodeError::Malformed(e) => (e.offset, e.what),
        BoundedDecodeError::NodesExhausted { offset, .. } => (offset, NODE_BUDGET_LABEL),
    }
}

/// The view decode of `bytes` logged ([`logging`]) against the oracle
/// on `bytes` alone, under `max_nodes`: the same value and span, or a
/// stop at the same offset for the same reason. The record's count and
/// handler id cost the view two nodes ahead of the value, and what the
/// oracle leaves after the value is the view's trailing bytes. A view's
/// tables are five entries (four strings and `h0`), held against the
/// same budget apart from the nodes, so `max_nodes` must be at least
/// three; and an empty value is the record count's error, not the
/// value's.
fn check_value_path(bytes: &[u8], max_nodes: u64) -> Result<(), TestCaseError> {
    let (advice, start) = logging(bytes);
    let view = decode_advice_view_bounded(&advice, max_nodes.saturating_add(2))
        .map(|(view, _)| view.nondet[0].1.clone())
        .map_err(stop);
    let oracle = match decode_value_bounded(bytes, &TABLE, max_nodes) {
        Ok(raw) if raw.bytes().len() == bytes.len() => Ok(raw),
        Ok(raw) => Err((raw.bytes().len(), "trailing bytes")),
        Err(e) => Err(stop(e)),
    };
    match (view, oracle) {
        (Ok(raw), Ok(oracle)) => prop_assert_eq!(raw, oracle),
        (Err((at, what)), Err((offset, expected))) => {
            prop_assert_eq!((at.checked_sub(start), what), (Some(offset), expected));
        }
        (view, oracle) => prop_assert!(
            false,
            "view {:?} vs oracle {:?} disagree on acceptance",
            view.map(|raw| raw.bytes().len()),
            oracle
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn view_values_match_the_oracle_on_canonical_values(
        values in prop::collection::vec(arb_value(), 1..5),
    ) {
        // Canonical bytes: what the encoder writes for a nondet value.
        for v in &values {
            let mut a = Advice::default();
            let op = OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1);
            a.nondet.insert(op, v.clone());
            let bytes = encode_advice(&a);
            let view = decode_advice_view(&bytes).expect("own encoding decodes as view");
            let raw = &view.nondet[0].1;
            prop_assert_eq!(raw.value(), v);
            // A container that occurs twice in the value goes to the
            // pool, which the oracle does not read; the rest is inline.
            if view.pool.is_empty() {
                let oracle = decode_value_bounded(raw.bytes(), &view.strings, u64::MAX);
                prop_assert_eq!(oracle.as_ref(), Ok(raw));
            }
        }
    }

    #[test]
    fn view_values_match_the_oracle_on_hostile_values(
        values in prop::collection::vec(arb_wire_value(), 1..4),
        max_nodes in prop_oneof![Just(u64::MAX), 3u64..15],
    ) {
        // Duplicate and unsorted keys, strings past the table,
        // non-boolean booleans, references into a pool that is not
        // there, under a node budget that may trip mid-value, and
        // truncated at every cut.
        for bytes in values.iter().map(WireValue::bytes) {
            for cut in 1..=bytes.len() {
                check_value_path(&bytes[..cut], max_nodes)?;
            }
        }
    }

    #[test]
    fn view_values_match_the_oracle_on_arbitrary_bytes(
        bytes in prop::collection::vec(prop_oneof![3 => 0u8..8, 1 => any::<u8>()], 1..64),
        max_nodes in prop_oneof![Just(u64::MAX), 3u64..9],
    ) {
        // Low bytes are tags and small lengths, so random input nests.
        check_value_path(&bytes, max_nodes)?;
    }
}

/// The nesting guard: 65 levels are one too many, 64 are fine, in a
/// view as for the oracle.
#[test]
fn nesting_guard_trips_identically() {
    let nest = |depth: usize| {
        let mut v = WireValue::Null;
        for _ in 0..depth {
            v = WireValue::List(vec![v]);
        }
        v.bytes()
    };
    let ok = nest(64);
    decode_value_bounded(&ok, &TABLE, u64::MAX).expect("64 levels are allowed");
    check_value_path(&ok, u64::MAX).expect("the view reads 64 levels as the oracle does");

    let too_deep = nest(65);
    let Err(BoundedDecodeError::Malformed(e)) = decode_value_bounded(&too_deep, &TABLE, u64::MAX)
    else {
        panic!("a nesting error is malformation, not exhaustion");
    };
    assert_eq!(e.what, "value nesting too deep");
    check_value_path(&too_deep, u64::MAX).expect("the view stops at 65 levels as the oracle does");
    // The budget tripping before the guard is exhaustion on both.
    assert_eq!(
        decode_value_bounded(&too_deep, &TABLE, 10),
        Err(BoundedDecodeError::NodesExhausted {
            offset: 21,
            limit: 10
        })
    );
    check_value_path(&too_deep, 10).expect("the view runs out where the oracle does");
}

// ---------------------------------------------------------------------
// The value pool. What the encoder writes must read back as what it was
// given, byte-stably and with the sharing intact; and on *any* pool —
// nodes of any kind and width, references anywhere — the two decoders
// must agree on the advice, on the positioned error, and on what the
// node budget is charged, which must be what the flat form of the same
// values would have declared.

use karousos::{decode_advice_view_bounded, AdviceView, DecodeStats};
use kem::pvalue::PMap;
use std::sync::Arc;

/// How a logged variable changes from one write to the next.
#[derive(Debug, Clone)]
enum Step {
    Insert(u8, Value),
    Remove(u8),
    /// Log the current version again.
    Again,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..60, arb_value()).prop_map(|(k, v)| Step::Insert(k, v)),
            1 => (0u8..60).prop_map(Step::Remove),
            1 => Just(Step::Again),
        ],
        1..80,
    )
}

/// The versions `steps` take a map through, and advice logging each as
/// one variable's write: successive values share all but a path.
fn versions(steps: &[Step]) -> (Vec<Value>, Advice) {
    let mut m = PMap::new();
    let values: Vec<Value> = steps
        .iter()
        .map(|step| {
            match step {
                Step::Insert(k, v) => m = m.insert(Arc::from(format!("key-{k:02}")), v.clone()),
                Step::Remove(k) => m = m.remove(&format!("key-{k:02}")),
                Step::Again => {}
            }
            Value::Map(m.clone())
        })
        .collect();
    let hid = HandlerId::root(FunctionId(0));
    let mut a = Advice::default();
    let log = a.var_logs.entry(VarId(0)).or_default();
    for (i, v) in values.iter().enumerate() {
        log.insert(
            OpRef::new(RequestId(i as u64), hid.clone(), 1),
            VarLogEntry {
                access: AccessType::Write,
                value: Some(v.clone()),
                prec: None,
            },
        );
    }
    (values, a)
}

/// What the flat wire form of `v` declares: every container's length.
fn flat_nodes(v: &Value) -> u64 {
    match v {
        Value::List(l) => l.len() as u64 + l.iter().map(flat_nodes).sum::<u64>(),
        Value::Map(m) => m.len() as u64 + m.iter().map(|(_, v)| flat_nodes(v)).sum::<u64>(),
        _ => 0,
    }
}

fn view_of(bytes: &[u8]) -> (AdviceView<'_>, DecodeStats) {
    decode_advice_view_bounded(bytes, u64::MAX).expect("own encoding decodes as view")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_versions_round_trip_byte_stably(steps in arb_steps()) {
        let (values, a) = versions(&steps);
        let bytes = encode_advice(&a);
        let decoded = decode_advice(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &a);
        // Decoding rebuilds the sharing, so encoding again finds it.
        prop_assert_eq!(encode_advice(&decoded), bytes.clone());
        let (view, stats) = view_of(&bytes);
        prop_assert_eq!(view.encode(), bytes.clone());
        // Charged as the flat form would be: the log, its entries and
        // their one-element hid paths, and every version in full.
        let flat = 1 + 2 * values.len() as u64 + values.iter().map(flat_nodes).sum::<u64>();
        prop_assert_eq!(stats.logical_nodes, flat);
        prop_assert!(stats.wire_nodes <= flat);
        prop_assert!(decode_advice_view_bounded(&bytes, flat).is_ok());
        let one_short = decode_advice_view_bounded(&bytes, flat - 1);
        let exhausted = matches!(one_short, Err(BoundedDecodeError::NodesExhausted { .. }));
        prop_assert!(exhausted);
    }

    #[test]
    fn sharing_survives_the_wire(steps in arb_steps()) {
        let (values, a) = versions(&steps);
        let bytes = encode_advice(&a);
        let (view, _) = view_of(&bytes);
        let mut interner = kem::ValueInterner::new();
        let advice = karousos::AdviceRef::from_view(&view, &mut interner);
        let log = advice.var_logs.get(&VarId(0)).expect("the log");
        let decoded: Vec<&Value> = log
            .iter()
            .filter_map(|(_, e)| e.value.as_ref().map(RawValue::value))
            .collect();
        prop_assert_eq!(decoded.len(), values.len());
        for (before, after) in values.windows(2).zip(decoded.windows(2)) {
            let (Value::Map(b0), Value::Map(b1)) = (&before[0], &before[1]) else { unreachable!() };
            let (Value::Map(a0), Value::Map(a1)) = (after[0], after[1]) else { unreachable!() };
            // An unchanged version is the same allocation again ...
            prop_assert!(!b0.ptr_eq(b1) || a0.ptr_eq(a1));
            // ... and every child two successive versions shared at the
            // server, they share at the verifier (which may share more:
            // equal nodes built apart are one node on the wire).
            let shared = |x: &PMap, y: &PMap| {
                let xs: Vec<usize> = x.root().children().map(|c| c.addr()).collect();
                y.root().children().filter(|c| xs.contains(&c.addr())).count()
            };
            prop_assert!(shared(b0, b1) <= shared(a0, a1));
        }
    }
}

/// A pool node as the wire sees it: any kind byte, any declared width,
/// children and entries that may name anything.
#[derive(Debug, Clone)]
enum WireNode {
    MapLeaf(Vec<(u64, WireValue)>),
    ListLeaf(Vec<WireValue>),
    Branch {
        list: bool,
        children: Vec<u64>,
    },
    /// A kind byte no node has, or a width that is not the count of
    /// what follows.
    Raw(Vec<u8>),
}

impl WireNode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireNode::MapLeaf(entries) => {
                out.push(0);
                put_uvar(out, entries.len() as u64);
                for (k, v) in entries {
                    put_uvar(out, *k);
                    v.encode(out);
                }
            }
            WireNode::ListLeaf(values) => {
                out.push(2);
                put_uvar(out, values.len() as u64);
                for v in values {
                    v.encode(out);
                }
            }
            WireNode::Branch { list, children } => {
                out.push(if *list { 3 } else { 1 });
                put_uvar(out, children.len() as u64);
                for c in children {
                    put_uvar(out, *c);
                }
            }
            WireNode::Raw(bytes) => out.extend_from_slice(bytes),
        }
    }
}

/// Values for pool entries: shallow, and referring to low node indices
/// so references usually resolve.
fn arb_entry_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        3 => (0u64..6).prop_map(WireValue::Ref),
        2 => (-2i64..3).prop_map(WireValue::Int),
        1 => arb_string_ref().prop_map(WireValue::Str),
        1 => prop::collection::vec((0u64..6).prop_map(WireValue::Ref), 0..3).prop_map(WireValue::List),
        1 => arb_wire_value(),
    ]
}

fn arb_wire_node() -> impl Strategy<Value = WireNode> {
    prop_oneof![
        // Keys in generation order: sorted only by luck.
        4 => prop::collection::vec((arb_string_ref(), arb_entry_value()), 0..4).prop_map(WireNode::MapLeaf),
        // Sorted, distinct keys (the table's first entries ascend): a
        // leaf the constructor takes.
        4 => prop::collection::btree_map(0u64..4, arb_entry_value(), 1..4)
            .prop_map(|m| WireNode::MapLeaf(m.into_iter().collect())),
        4 => prop::collection::vec(arb_entry_value(), 0..4).prop_map(WireNode::ListLeaf),
        4 => (any::<bool>(), prop::collection::vec(0u64..6, 0..4))
            .prop_map(|(list, children)| WireNode::Branch { list, children }),
        1 => prop::collection::vec(prop_oneof![3 => 0u8..8, 1 => any::<u8>()], 1..6).prop_map(WireNode::Raw),
        1 => (0u8..4, 17u8..40).prop_map(|(kind, width)| WireNode::Raw(vec![kind, width])),
    ]
}

/// Strings from a tiny alphabet, now and then with a byte that breaks
/// UTF-8.
fn arb_table_str() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            8 => b'a'..b'd',
            1 => Just(0xffu8),
            1 => Just(0xc3u8),
        ],
        0..4,
    )
}

/// Advice bytes that are a string table — `a`, `b`, `c`, `d` and then
/// `extra` — the handler-id table `h0.0`, the pool `nodes` and one
/// nondet record holding `value`.
fn pooled_bytes(extra: &[Vec<u8>], nodes: &[WireNode], value: &WireValue) -> Vec<u8> {
    let mut out = vec![0];
    put_uvar(&mut out, 4 + extra.len() as u64);
    for s in [&b"a"[..], b"b", b"c", b"d"]
        .into_iter()
        .chain(extra.iter().map(Vec::as_slice))
    {
        put_uvar(&mut out, s.len() as u64);
        out.extend_from_slice(s);
    }
    out.extend_from_slice(&[1, 0, 0, 0, 0]);
    put_uvar(&mut out, nodes.len() as u64);
    for node in nodes {
        node.encode(&mut out);
    }
    out.extend_from_slice(&[0, 0, 0, 0, 0, 1]);
    out.extend_from_slice(&[0, 0, 1]);
    value.encode(&mut out);
    out
}

/// The decoder on `bytes`: an advice whose two value paths agree, or a
/// positioned error; and under a budget, exhaustion exactly where the
/// counts say.
fn check_pooled(bytes: &[u8]) -> Result<(), TestCaseError> {
    match decode_advice_view_bounded(bytes, u64::MAX) {
        Ok((view, stats)) => {
            // Small pools: comparing the values out in full is cheap.
            let owned = view.to_advice();
            let mut interner = kem::ValueInterner::new();
            let working = karousos::AdviceRef::from_view(&view, &mut interner);
            let values = working.nondet.values().map(RawValue::value);
            prop_assert!(values.eq(owned.nondet.values()));
            prop_assert_eq!(view.encode(), bytes);
            // The charge is the flat form's: the nondet section and its
            // hid path, then every element a walk of the value visits
            // — entries duplicate keys dropped from a map included, as
            // they were declared. The budget must cover it, what the
            // pool itself declares (more, where nodes go unreferenced)
            // and the tables' entries; a decode one short of that pins
            // all three counts.
            let charged = stats.logical_nodes;
            prop_assert!(charged >= 2 + owned.nondet.values().map(flat_nodes).sum::<u64>());
            let tables = stats.strings + stats.hids;
            let need = charged.max(stats.pool_wire_nodes).max(tables);
            prop_assert!(decode_advice_view_bounded(bytes, need).is_ok());
            let one_short = decode_advice_view_bounded(bytes, need - 1);
            let exhausted = matches!(one_short, Err(BoundedDecodeError::NodesExhausted { .. }));
            prop_assert!(exhausted);
        }
        Err(BoundedDecodeError::Malformed(e)) => prop_assert!(e.offset <= bytes.len()),
        Err(e) => prop_assert!(false, "unmetered decode exhausted: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_pools_decode_consistently(
        extra in prop::collection::vec(arb_table_str(), 0..2),
        nodes in prop::collection::vec(arb_wire_node(), 0..7),
        value in arb_entry_value(),
    ) {
        check_pooled(&pooled_bytes(&extra, &nodes, &value))?;
    }

    #[test]
    fn truncated_and_flipped_pools_decode_consistently(
        extra in prop::collection::vec(arb_table_str(), 0..2),
        nodes in prop::collection::vec(arb_wire_node(), 1..7),
        value in arb_entry_value(),
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = pooled_bytes(&extra, &nodes, &value);
        let pos = ((bytes.len() as f64) * at) as usize % bytes.len();
        check_pooled(&bytes[..pos])?;
        bytes[pos] ^= 1 << bit;
        check_pooled(&bytes)?;
    }
}

// ---------------------------------------------------------------------
// Honest collector output: a program with MOTD's habits (a map that
// grows by one entry a request, a list that grows by one element, both
// logged whole every time) and a transactional PUT of the same values.

use karousos::{run_instrumented_server_encoded, CollectorMode};
use kem::dsl::*;
use kem::{ProgramBuilder, SchedPolicy, ServerConfig};

fn history_program() -> kem::Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("history", Value::empty_map(), true);
    b.shared_var("order", Value::empty_list(), true);
    b.function(
        "handle",
        vec![
            let_(
                "entry",
                mapv(vec![
                    ("msg", field(payload(), "msg")),
                    ("n", field(payload(), "n")),
                ]),
            ),
            swrite(
                "history",
                map_insert(sread("history"), field(payload(), "key"), local("entry")),
            ),
            swrite("order", list_push(sread("order"), field(payload(), "key"))),
            respond(len(sread("history"))),
        ],
    );
    b.request_handler("handle");
    b.build().expect("the program is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn honest_collector_output_is_byte_stable(
        seed in 0u64..1000,
        requests in 1usize..120,
        concurrency in 1usize..6,
    ) {
        let program = history_program();
        let inputs: Vec<Value> = (0..requests)
            .map(|i| {
                Value::map([
                    ("key", Value::str(format!("day-{:03}", (i * 7) % 90))),
                    ("msg", Value::str(format!("message {}", i % 5))),
                    ("n", Value::int(i as i64)),
                ])
            })
            .collect();
        let cfg = ServerConfig {
            concurrency,
            policy: SchedPolicy::Random { seed },
            ..ServerConfig::default()
        };
        let run = || {
            run_instrumented_server_encoded(&program, &inputs, &cfg, CollectorMode::Karousos)
                .expect("the program runs")
        };
        let ((out, bytes), (_, again)) = (run(), run());
        // One seeded server, one byte string.
        prop_assert_eq!(&bytes, &again);
        // encode(decode(b)) == b, through the owned form and the view.
        let decoded = decode_advice(&bytes).expect("honest advice decodes");
        prop_assert_eq!(encode_advice(&decoded), bytes.clone());
        let (view, stats) = view_of(&bytes);
        prop_assert_eq!(view.encode(), bytes.clone());
        if requests > 40 {
            prop_assert!(stats.pool_nodes > 0 && stats.wire_nodes * 2 < stats.logical_nodes);
        }
        karousos::Auditor::default()
            .audit(&program, &out.trace, &bytes, cfg.isolation)
            .expect("honest advice is accepted");
    }
}
