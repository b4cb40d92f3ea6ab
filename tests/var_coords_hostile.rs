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
//! * a duplicated key on the wire (the later entry wins,
//!   `VecMap::from_wire`).
//!
//! Every verdict — [`RejectReason::kind`] and message, or the ACCEPT
//! fingerprint — is compared, at `threads ∈ {1, 4}` and under
//! `ooo_audit`, with `tests/var_coords_hostile.tsv`. The table is data:
//! it was produced by the `OpRef`-keyed variable state, and the
//! coordinate-indexed one has to reproduce it. To regenerate after a
//! change that is *meant* to move a verdict, replace it with the
//! `var_coords_hostile.actual.tsv` the failing run writes to
//! `CARGO_TARGET_TMPDIR`. `VerifierInternal` is never a verdict to pin.

mod common;

use apps::App;
use karousos::{
    audit_encoded_with_obs, decode_advice_view, encode_advice, ooo_audit, run_instrumented_server,
    AccessType, Advice, AdviceViewExt, AuditOptions, AuditReport, CollectorMode, RejectReason,
    VarLogEntry,
};
use kem::{init_handler_id, FunctionId, HandlerId, OpRef, RequestId, Value, VarId};
use workload::{Experiment, Mix};

const WORKLOAD_SEED: u64 = 5;
const REQUESTS: usize = 12;

fn render(result: Result<AuditReport, RejectReason>) -> String {
    match result {
        Ok(report) => format!(
            "ACCEPT groups={} fuel={} nodes={} edges={}",
            report.reexec.groups, report.reexec.fuel_spent, report.graph_nodes, report.graph_edges
        ),
        Err(reason) => format!(
            "{} {}",
            reason.kind(),
            reason.to_string().replace(['\n', '\t'], " ")
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
        let grouped = |threads| {
            let opts = AuditOptions {
                threads,
                ..AuditOptions::default()
            };
            render(audit_encoded_with_obs(
                &self.program,
                &self.trace,
                bytes,
                self.isolation,
                opts,
                &obs::Obs::noop(),
            ))
        };
        let ooo = render(ooo_audit(
            &self.program,
            &self.trace,
            bytes,
            self.isolation,
            AuditOptions::default(),
        ));
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
    let (_, log) = view
        .var_logs
        .iter_mut()
        .find(|(var, _)| *var == t.var)
        .expect("the target's log is on the wire");
    let at = log
        .iter()
        .position(|(key, _)| *key == t.key)
        .expect("the target is in its log");
    let (key, honest_entry) = log[at].clone();
    let mut forged = honest_entry.clone();
    forged.prec = Some(key.clone());
    if forged_last {
        log.push((key, forged));
    } else {
        log[at].1 = forged;
        log.push((key, honest_entry));
    }
    view.encode()
}

fn actual_table() -> String {
    let mut out = String::new();
    for app in App::ALL {
        let fx = Fixture::new(app);
        let mut rows = |var: &str, what: &str, case: &str, bytes: &[u8]| {
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
        rows("-", "-", "honest", &encode_advice(&fx.honest));
        let targets = targets(&fx.honest);
        assert!(
            !targets.is_empty(),
            "{} logs no variable access to edit",
            app.name()
        );
        for t in &targets {
            let var = t.var.to_string();
            for (case, edited) in owned_cases(&fx, t) {
                if let Some(advice) = edited {
                    rows(&var, t.what, case, &encode_advice(&advice));
                }
            }
            for (case, forged_last) in [
                ("duplicate-key-forged-last", true),
                ("duplicate-key-honest-last", false),
            ] {
                let bytes = duplicate_key_on_the_wire(&fx, t, forged_last);
                rows(&var, t.what, case, &bytes);
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
