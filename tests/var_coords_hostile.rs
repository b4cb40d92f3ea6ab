//! Hostile variable-log *coordinates*, pinned across commits.
//!
//! `faultinject` forges var-log values (`ForgeVarWriteValue`,
//! `DropVarLogEntry`) but never the coordinates a var log is keyed by or
//! points at — the `(rid, hid, opnum)` of an entry's key and of its
//! `prec`. This suite takes honest wiki / MOTD / stacks advice and
//! hand-edits one logged entry at a time:
//!
//! * the key moved to a handler `opcounts` does not report, to opnum `0`
//!   and to opnum `count + 1`;
//! * `prec` pointed at the trusted initialization write (with and
//!   without a forged entry keyed there), at the entry itself, at a
//!   later operation of the same handler, at a read entry, at a
//!   coordinate outside `opcounts` that has a forged write entry and at
//!   one that has none;
//! * the same coordinate keyed in two variables' logs;
//! * a duplicated key on the wire (the later entry wins: the decoder
//!   keeps each key's last occurrence).
//!
//! Rows appended later edit the other coordinates a log can name:
//!
//! * a var-log key or `prec` at a handler another request reports but
//!   the entry's own request does not — in the handler-id table, not
//!   among the request's activations;
//! * a handler-id table holding one path twice, each copy named by a
//!   different handler-log entry;
//! * a `GET`'s dictating write and the first write-order entry pointed
//!   at a transaction `tx_logs` does not hold, and past the end of the
//!   log they name.
//!
//! Every verdict — [`RejectReason::kind`] and message, or the ACCEPT
//! fingerprint — is compared, at `threads ∈ {1, 4}` and under
//! `Auditor::ooo_audit`, with `tests/var_coords_hostile.tsv`. The table
//! is data: it was produced by the `OpRef`-keyed variable state, and the
//! coordinate-indexed one has to reproduce it. To regenerate after a
//! change that is *meant* to move a verdict, replace it with the
//! `var_coords_hostile.actual.tsv` the failing run writes to
//! `CARGO_TARGET_TMPDIR`. `VerifierInternal` is never a verdict to pin.

mod common;

use apps::App;
use karousos::{
    decode_advice_view, encode_advice, run_instrumented_server, AccessType, Advice, AdviceViewExt,
    AuditFailure, AuditReport, Auditor, CollectorMode, KTxId, TxOpContents, TxPos, VarLogEntry,
};
use kem::{init_handler_id, FunctionId, HandlerId, OpRef, RequestId, Value, VarId};
use workload::{Experiment, Mix};

const WORKLOAD_SEED: u64 = 5;
const REQUESTS: usize = 12;

fn render(result: Result<AuditReport, Box<AuditFailure>>) -> String {
    match result {
        Ok(report) => format!(
            "ACCEPT groups={} fuel={} nodes={} edges={}",
            report.reexec.groups, report.reexec.fuel_spent, report.graph_nodes, report.graph_edges
        ),
        Err(failure) => format!(
            "{} {}",
            failure.reason.kind(),
            failure.reason.to_string().replace(['\n', '\t'], " ")
        ),
    }
}

struct Fixture {
    app: App,
    program: kem::Program,
    trace: kem::Trace,
    isolation: kvstore::IsolationLevel,
    honest: Advice,
}

impl Fixture {
    fn new(app: App) -> Self {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::RW_MIXES[1]
        };
        let mut exp = Experiment::paper_default(app, mix, 4, WORKLOAD_SEED);
        exp.requests = REQUESTS;
        let program = app.program();
        let (run, honest) = run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            CollectorMode::Karousos,
        )
        .expect("apps run cleanly");
        Fixture {
            app,
            program,
            trace: run.trace,
            isolation: exp.isolation,
            honest,
        }
    }

    /// The three verdicts of one advice: grouped on one and on four
    /// threads, and ungrouped.
    fn verdicts(&self, bytes: &[u8]) -> [(&'static str, String); 3] {
        let (program, trace, isolation) = (&self.program, &self.trace, self.isolation);
        let grouped = |threads| {
            let auditor = Auditor {
                threads,
                ..Auditor::default()
            };
            render(auditor.audit(program, trace, bytes, isolation))
        };
        let ooo = render(Auditor::default().ooo_audit(program, trace, bytes, isolation));
        [("t1", grouped(1)), ("t4", grouped(4)), ("ooo", ooo)]
    }

    /// The trusted initialization write of `var`, numbered as
    /// `init_vars` numbers it: loggable variables from 1, in
    /// declaration order.
    fn init_op(&self, var: VarId) -> OpRef {
        let loggable_before = self.program.vars[..=var.0 as usize]
            .iter()
            .filter(|decl| decl.loggable)
            .count();
        OpRef::new(RequestId::INIT, init_handler_id(), loggable_before as u32)
    }
}

/// One entry to edit: the first logged read, or the first logged write
/// that names what it overwrote, of one variable's log.
#[derive(Clone)]
struct Target {
    var: VarId,
    what: &'static str,
    key: OpRef,
    entry: VarLogEntry,
}

fn targets(honest: &Advice) -> Vec<Target> {
    let mut out = Vec::new();
    for (var, log) in &honest.var_logs {
        for (what, access) in [("read", AccessType::Read), ("write", AccessType::Write)] {
            let found = log
                .iter()
                .find(|(_, e)| e.access == access && e.prec.is_some());
            if let Some((key, entry)) = found {
                out.push(Target {
                    var: *var,
                    what,
                    key: key.clone(),
                    entry: entry.clone(),
                });
            }
        }
    }
    out
}

/// A handler no honest run reports: a child of the target's handler
/// under a function id no app declares.
fn absent_handler(of: &HandlerId) -> HandlerId {
    HandlerId::child(of, FunctionId(4_000), 77)
}

/// The edits that stay inside owned [`Advice`]. Each returns `None`
/// when the target offers nothing to edit that way.
fn owned_cases(fx: &Fixture, t: &Target) -> Vec<(&'static str, Option<Advice>)> {
    let rekey = |key: OpRef| {
        let mut a = fx.honest.clone();
        let log = a.var_logs.get_mut(&t.var)?;
        let entry = log.remove(&t.key)?;
        log.insert(key, entry);
        Some(a)
    };
    let reprec = |prec: OpRef, forged: Option<(OpRef, VarLogEntry)>| {
        let mut a = fx.honest.clone();
        let log = a.var_logs.get_mut(&t.var)?;
        log.get_mut(&t.key)?.prec = Some(prec);
        if let Some((key, entry)) = forged {
            log.insert(key, entry);
        }
        Some(a)
    };
    let count = fx
        .honest
        .opcounts
        .get(&(t.key.rid, t.key.hid.clone()))
        .copied()
        .unwrap_or(0);
    let log = &fx.honest.var_logs[&t.var];
    // The value the target was honestly fed from / overwrote, so that a
    // forged stand-in write does not also change what replay computes.
    let dictated = t
        .entry
        .prec
        .as_ref()
        .and_then(|p| log.get(p))
        .and_then(|w| w.value.clone())
        .unwrap_or(Value::Null);
    let write_entry = |value: Value| VarLogEntry {
        access: AccessType::Write,
        value: Some(value),
        prec: None,
    };
    let outside = OpRef::new(t.key.rid, absent_handler(&t.key.hid), 1);
    let later = OpRef::new(
        t.key.rid,
        t.key.hid.clone(),
        if count > t.key.opnum {
            count
        } else {
            t.key.opnum + 1
        },
    );
    let a_read = log
        .iter()
        .find(|(k, e)| e.access == AccessType::Read && **k != t.key)
        .map(|(k, _)| k.clone());
    let init = fx.init_op(t.var);
    // Another variable's log to key the same coordinate in: the next
    // one that has a log, else a log of its own for the next variable.
    let other_var = fx
        .honest
        .var_logs
        .keys()
        .copied()
        .find(|v| *v != t.var)
        .unwrap_or(VarId(t.var.0 + 1));
    let also_keyed_in_other = |entry: VarLogEntry| {
        let mut a = fx.honest.clone();
        a.var_logs
            .entry(other_var)
            .or_default()
            .insert(t.key.clone(), entry);
        Some(a)
    };
    vec![
        (
            "key-absent-handler",
            rekey(OpRef::new(
                t.key.rid,
                absent_handler(&t.key.hid),
                t.key.opnum,
            )),
        ),
        (
            "key-opnum-0",
            rekey(OpRef::new(t.key.rid, t.key.hid.clone(), 0)),
        ),
        (
            "key-opnum-count+1",
            rekey(OpRef::new(t.key.rid, t.key.hid.clone(), count + 1)),
        ),
        ("prec-init", reprec(init.clone(), None)),
        (
            "prec-init-forged-entry",
            reprec(init.clone(), Some((init, write_entry(Value::Int(424_242))))),
        ),
        ("prec-self", reprec(t.key.clone(), None)),
        ("prec-later-same-handler", reprec(later, None)),
        ("prec-read-entry", a_read.and_then(|r| reprec(r, None))),
        (
            "prec-outside-forged-write",
            reprec(
                outside.clone(),
                Some((outside.clone(), write_entry(dictated))),
            ),
        ),
        ("prec-outside-no-entry", reprec(outside, None)),
        (
            "key-in-two-logs-same-entry",
            also_keyed_in_other(t.entry.clone()),
        ),
        (
            "key-in-two-logs-other-entry",
            also_keyed_in_other(VarLogEntry {
                access: match t.entry.access {
                    AccessType::Read => AccessType::Write,
                    AccessType::Write => AccessType::Read,
                },
                value: Some(Value::Null),
                prec: None,
            }),
        ),
    ]
}

/// The target's key twice in its log's wire section — which owned
/// advice cannot hold. `forged_last` appends an entry whose `prec` is
/// its own key behind the honest one; otherwise the honest entry is the
/// later of the two.
fn duplicate_key_on_the_wire(fx: &Fixture, t: &Target, forged_last: bool) -> Vec<u8> {
    let honest = encode_advice(&fx.honest);
    let mut view = decode_advice_view(&honest).expect("honest advice decodes");
    let paths = std::sync::Arc::clone(&view.paths);
    let (_, log) = view
        .var_logs
        .iter_mut()
        .find(|(var, _)| *var == t.var)
        .expect("the target's log is on the wire");
    let at = log
        .iter()
        .position(|(key, _)| paths.op_ref(key) == t.key)
        .expect("the target is in its log");
    let (key, honest_entry) = log[at].clone();
    let mut forged = honest_entry.clone();
    forged.prec = Some(key);
    if forged_last {
        log.push((key, forged));
    } else {
        log[at].1 = forged;
        log.push((key, honest_entry));
    }
    view.encode()
}

/// A handler another request reports and `t`'s request does not.
fn other_requests_handler(fx: &Fixture, t: &Target) -> Option<HandlerId> {
    let opcounts = &fx.honest.opcounts;
    opcounts
        .keys()
        .find(|(rid, hid)| *rid != t.key.rid && !opcounts.contains_key(&(t.key.rid, hid.clone())))
        .map(|(_, hid)| hid.clone())
}

/// The rows appended after the first table: var-log coordinates at a
/// handler of another request.
fn other_request_cases(fx: &Fixture, t: &Target) -> Vec<(&'static str, Option<Advice>)> {
    let Some(other) = other_requests_handler(fx, t) else {
        return Vec::new();
    };
    let edited = |edit: &dyn Fn(&mut Advice) -> Option<()>| {
        let mut a = fx.honest.clone();
        edit(&mut a).map(|()| a)
    };
    let key = OpRef::new(t.key.rid, other.clone(), t.key.opnum);
    let prec = OpRef::new(t.key.rid, other, 1);
    vec![
        (
            "key-other-request-handler",
            edited(&|a| {
                let log = a.var_logs.get_mut(&t.var)?;
                let entry = log.remove(&t.key)?;
                log.insert(key.clone(), entry);
                Some(())
            }),
        ),
        (
            "prec-other-request-handler",
            edited(&|a| {
                a.var_logs.get_mut(&t.var)?.get_mut(&t.key)?.prec = Some(prec.clone());
                Some(())
            }),
        ),
    ]
}

/// Transaction positions that name nothing: the first `GET`'s dictating
/// write and the first write-order entry, each pointed at a transaction
/// `tx_logs` does not hold and past the end of its own log.
fn tx_position_cases(fx: &Fixture) -> Vec<(&'static str, Option<Advice>)> {
    let absent = |p: &TxPos| TxPos {
        tx: KTxId {
            opnum: p.tx.opnum + 1_000,
            ..p.tx.clone()
        },
        index: p.index,
    };
    let past_end = |p: &TxPos| TxPos {
        tx: p.tx.clone(),
        index: fx.honest.tx_logs.get(&p.tx).map_or(0, Vec::len) as u32,
    };
    let get_from = |edit: &dyn Fn(&TxPos) -> TxPos| {
        let mut a = fx.honest.clone();
        let from = a
            .tx_logs
            .values_mut()
            .flatten()
            .find_map(|e| match &mut e.contents {
                TxOpContents::Get { from: Some(from) } => Some(from),
                _ => None,
            })?;
        *from = edit(from);
        Some(a)
    };
    let write_order = |edit: &dyn Fn(&TxPos) -> TxPos| {
        let mut a = fx.honest.clone();
        let first = a.write_order.first_mut()?;
        *first = edit(first);
        Some(a)
    };
    vec![
        ("get-from-absent-tx", get_from(&absent)),
        ("get-from-past-end", get_from(&past_end)),
        ("write-order-absent-tx", write_order(&absent)),
        ("write-order-past-end", write_order(&past_end)),
    ]
}

/// Reads the varint at `bytes[*at..]` and moves `at` past it.
fn uvar(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn put_uvar(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Honest advice whose handler-id table ends with a copy of an entry —
/// the same path twice — and whose handler logs name that entry
/// through the original first and through the copy the second time. The
/// encoder writes each path once, so this is made on the bytes:
/// `tags strings hids handler_logs …` (see the decoder's grammar).
fn duplicate_table_path(fx: &Fixture) -> Option<Vec<u8>> {
    let bytes = encode_advice(&fx.honest);
    let mut at = 0;
    for _ in 0..2 * uvar(&bytes, &mut at) {
        uvar(&bytes, &mut at);
    }
    for _ in 0..uvar(&bytes, &mut at) {
        let len = uvar(&bytes, &mut at) as usize;
        at += len;
    }
    let count = at;
    let n = uvar(&bytes, &mut at);
    let mut entries = Vec::new();
    for _ in 0..n {
        let start = at;
        for _ in 0..3 {
            uvar(&bytes, &mut at);
        }
        entries.push(start..at);
    }
    let table_end = at;
    // The second reference, in the handler logs, to an entry.
    let (mut renamed, mut named) = (None, Vec::new());
    for _ in 0..uvar(&bytes, &mut at) {
        uvar(&bytes, &mut at);
        for _ in 0..uvar(&bytes, &mut at) {
            let reference = at;
            let hid = uvar(&bytes, &mut at);
            uvar(&bytes, &mut at);
            let tag = bytes[at];
            at += 1;
            uvar(&bytes, &mut at);
            if tag <= 1 {
                uvar(&bytes, &mut at);
            }
            if renamed.is_none() && named.contains(&hid) {
                renamed = Some((reference, hid));
            }
            named.push(hid);
        }
    }
    let (reference, hid) = renamed?;
    let mut out = bytes[..count].to_vec();
    put_uvar(&mut out, n + 1);
    out.extend_from_slice(&bytes[entries.first().map_or(table_end, |e| e.start)..table_end]);
    out.extend_from_slice(&bytes[entries.get(hid as usize)?.clone()]);
    out.extend_from_slice(&bytes[table_end..reference]);
    put_uvar(&mut out, n);
    let mut rest = reference;
    uvar(&bytes, &mut rest);
    out.extend_from_slice(&bytes[rest..]);
    Some(out)
}

fn actual_table() -> String {
    let mut out = String::new();
    let fixtures: Vec<Fixture> = App::ALL.into_iter().map(Fixture::new).collect();
    let rows = |out: &mut String, fx: &Fixture, var: &str, what: &str, case: &str, bytes: &[u8]| {
        for (mode, verdict) in fx.verdicts(bytes) {
            assert!(
                !verdict.starts_with("VerifierInternal"),
                "{} {var} {what} {case} ({mode}): the verifier blamed itself: {verdict}",
                fx.app.name()
            );
            out.push_str(&format!(
                "{}\t{var}\t{what}\t{case}\t{mode}\t{verdict}\n",
                fx.app.name()
            ));
        }
    };
    for fx in &fixtures {
        rows(&mut out, fx, "-", "-", "honest", &encode_advice(&fx.honest));
        let targets = targets(&fx.honest);
        assert!(
            !targets.is_empty(),
            "{} logs no variable access to edit",
            fx.app.name()
        );
        for t in &targets {
            let var = t.var.to_string();
            for (case, edited) in owned_cases(fx, t) {
                if let Some(advice) = edited {
                    rows(&mut out, fx, &var, t.what, case, &encode_advice(&advice));
                }
            }
            for (case, forged_last) in [
                ("duplicate-key-forged-last", true),
                ("duplicate-key-honest-last", false),
            ] {
                let bytes = duplicate_key_on_the_wire(fx, t, forged_last);
                rows(&mut out, fx, &var, t.what, case, &bytes);
            }
        }
    }
    for fx in &fixtures {
        for t in &targets(&fx.honest) {
            let var = t.var.to_string();
            for (case, edited) in other_request_cases(fx, t) {
                if let Some(advice) = edited {
                    rows(&mut out, fx, &var, t.what, case, &encode_advice(&advice));
                }
            }
        }
        if let Some(bytes) = duplicate_table_path(fx) {
            rows(&mut out, fx, "-", "hl", "hid-table-duplicate-path", &bytes);
        }
        for (case, edited) in tx_position_cases(fx) {
            if let Some(advice) = edited {
                rows(&mut out, fx, "-", "tx", case, &encode_advice(&advice));
            }
        }
    }
    out
}

#[test]
fn hostile_var_coordinates_keep_their_verdicts() {
    common::assert_pinned(
        "var_coords_hostile",
        include_str!("var_coords_hostile.tsv"),
        &actual_table(),
    );
}
