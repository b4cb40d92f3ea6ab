//! Advice means the same thing however it reaches the one audit.
//!
//! Every audit is an audit of wire bytes, but advice gets to be bytes
//! two ways: it arrives as them, or an editor — a mutator, a test, the
//! tampered corpus of `benchmark/` — decodes them to an owned `Advice`
//! and encodes that again. The two are different byte strings whenever
//! the original was not canonical (a duplicated key, sections out of
//! order): the decoder keeps the later entry of the wire bytes and
//! sorts each keyed section, and `encode_advice` of what
//! `AdviceView::to_advice` makes of that writes each key once. For every
//! point of the shared
//! matrix (`tests/common`), on honest advice, across the hostile wire
//! mutation corpus and on a duplicated key in each keyed section, both
//! must produce the same verdict, statistics, and fuel bill. And the
//! forwarders the benchmark still calls the audit through must be that
//! one audit.

mod common;

use apps::App;
use common::{audit_points, comparable, matrix, Outcome, Point};
use karousos::{
    decode_advice, decode_advice_view, encode_advice, Advice, AdviceSource, AdviceView,
    AdviceViewExt, AuditOptions, Auditor, Limits, Mutator, RawValue, RejectReason, WireMutator,
};
use kem::{FunctionId, HandlerId, OpRef, Program, RequestId, Trace, Value};
use kvstore::IsolationLevel;
use obs::Obs;
use workload::{Experiment, Mix};

/// Audits `bytes` at every one of `points` twice — as they are, and as
/// the canonical re-encoding of what they decode to (a decode failure
/// maps to the rejection the audit of the bytes produces). Each must
/// agree with itself at every point and the two with each other.
/// Returns the agreed outcome.
fn assert_equivalent(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    points: &[Point],
    label: &str,
) -> Outcome {
    let wire = audit_points(program, trace, bytes, isolation, points, label);
    let canonical = match decode_advice(bytes) {
        Ok(advice) => audit_points(program, trace, &advice, isolation, points, label),
        Err(e) => Err(RejectReason::MalformedAdvice {
            what: e.to_string(),
        }),
    };
    assert_eq!(
        wire, canonical,
        "{label}: the wire bytes and their canonical re-encoding diverge"
    );
    wire
}

fn prepare(app: App, mix: Mix, requests: usize) -> (Program, Trace, Vec<u8>, IsolationLevel) {
    let mut exp = Experiment::paper_default(app, mix, 8, 11);
    exp.requests = requests;
    let program = app.program();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("instrumented run succeeds");
    (program, out.trace, encode_advice(&advice), exp.isolation)
}

/// Honest advice from every paper app: both encodings must ACCEPT with
/// identical statistics and fuel at every matrix point.
#[test]
fn honest_apps_accept_identically() {
    for (app, mix, n) in [
        (App::Motd, Mix::RW_MIXES[1], 24),
        (App::Stacks, Mix::RW_MIXES[1], 24),
        (App::Wiki, Mix::Wiki, 16),
    ] {
        let (program, trace, bytes, isolation) = prepare(app, mix, n);
        let outcome = assert_equivalent(&program, &trace, &bytes, isolation, &matrix(), app.name());
        assert!(
            outcome.is_ok(),
            "{}: honest advice rejected: {outcome:?}",
            app.name()
        );
    }
}

/// The hostile corpus: every wire mutator at many seeds. Whatever each
/// mutation does — decode error, verifier rejection, or (for benign
/// mutations) acceptance — both encodings must agree exactly, including
/// the positioned decode error text and the typed `RejectReason`.
#[test]
fn hostile_mutations_verdict_identically() {
    let (program, trace, honest, isolation) = prepare(App::Motd, Mix::RW_MIXES[1], 12);

    let mut compared = 0usize;
    let mut rejected = 0usize;
    for m in WireMutator::ALL {
        for seed in 0..32 {
            let Some(mutation) = m.apply(&honest, seed) else {
                continue;
            };
            let label = format!("{} seed {seed}", mutation.mutator);
            let bytes = &mutation.bytes;
            let outcome = assert_equivalent(&program, &trace, bytes, isolation, &matrix(), &label);
            if outcome.is_err() {
                rejected += 1;
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 100,
        "only {compared} hostile mutations compared"
    );
    assert!(
        rejected >= 25,
        "only {rejected} mutations rejected; REJECT-side coverage too small"
    );
}

/// Appends a copy of `section`'s first entry, so its key is on the wire
/// twice, and applies `forge` to the later copy (`forged_last`) or to
/// the earlier one. `false` if the section is empty.
fn duplicate_first<T: Clone>(section: &mut Vec<T>, forge: fn(&mut T), forged_last: bool) -> bool {
    let Some(honest) = section.first().cloned() else {
        return false;
    };
    let mut forged = honest.clone();
    forge(&mut forged);
    if forged_last {
        section.push(forged);
    } else {
        section[0] = forged;
        section.push(honest);
    }
    true
}

/// A null as the decoder reads one: the record of advice that logs one
/// nondeterministic null and nothing else.
fn decoded_null() -> RawValue<'static> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let bytes = BYTES.get_or_init(|| {
        let mut advice = Advice::default();
        let op = OpRef::new(RequestId(0), HandlerId::root(FunctionId(0)), 1);
        advice.nondet.insert(op, Value::Null);
        encode_advice(&advice)
    });
    let view = decode_advice_view(bytes).expect("a null decodes");
    view.nondet[0].1.clone()
}

/// What `WireMutator` rarely produces and owned advice cannot hold: a
/// key twice in one section. The later entry wins, in the wire bytes
/// and in their canonical re-encoding alike — so the advice is honest
/// when the honest copy is the later one, in every keyed section.
#[test]
fn duplicated_keys_verdict_identically() {
    type Case = (&'static str, fn(&mut AdviceView<'_>, bool) -> bool);
    let cases: [Case; 7] = [
        ("tags", |v, last| {
            duplicate_first(&mut v.tags, |e| e.1 += 1, last)
        }),
        ("handler_logs", |v, last| {
            duplicate_first(&mut v.handler_logs.index, |e| e.1 = 0..0, last)
        }),
        ("var_logs", |v, last| {
            duplicate_first(&mut v.var_logs, |e| e.1.clear(), last)
        }),
        ("tx_logs", |v, last| {
            duplicate_first(&mut v.tx_logs.index, |e| e.1 = 0..0, last)
        }),
        ("response_emitted_by", |v, last| {
            duplicate_first(&mut v.response_emitted_by, |e| e.1 .1 += 1, last)
        }),
        ("opcounts", |v, last| {
            duplicate_first(&mut v.opcounts, |e| e.1 += 1, last)
        }),
        ("nondet", |v, last| {
            let null = |e: &mut (_, RawValue<'_>)| e.1 = decoded_null();
            duplicate_first(&mut v.nondet, null, last)
        }),
    ];
    let (program, trace, honest, isolation) = prepare(App::Wiki, Mix::Wiki, 16);
    // How an audit is run is the other tests' axis; this one's is which
    // copy of a key the advice means.
    let defaults = &[Point {
        threads: 1,
        limits: Limits::default(),
        obs: false,
    }];
    for (section, duplicate) in cases {
        for forged_last in [false, true] {
            let mut view = decode_advice_view(&honest).expect("honest advice decodes");
            assert!(duplicate(&mut view, forged_last), "{section} is empty");
            let label = format!("duplicated {section} key, forged_last={forged_last}");
            let bytes = view.encode();
            let outcome = assert_equivalent(&program, &trace, &bytes, isolation, defaults, &label);
            assert!(forged_last || outcome.is_ok(), "{label}: {outcome:?}");
        }
    }
}

/// The frozen benchmark adapter reaches the audit through two
/// forwarders in `karousos`'s compatibility shim: its file audits,
/// tampered corpus and RSS child through `audit_source_with_obs` over
/// `AdviceSource::open`, its Orochi baseline through
/// `audit_encoded_with_obs`. On honest advice, a `Semantic` wire
/// mutation and a structured one, each must give what `Auditor::audit`
/// gives on the same bytes: verdict, `RejectReason` and statistics.
#[test]
fn entry_points_agree() {
    let (program, trace, honest, isolation) = prepare(App::Wiki, Mix::Wiki, 16);
    let advice = decode_advice(&honest).expect("honest advice decodes");
    let truncated = WireMutator::Truncate.apply(&honest, 1).expect("applies");
    let corrupt = Mutator::CorruptOpcount.apply(&advice, 1).expect("applies");
    let noop = Obs::noop();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("entry_points.advice");
    for (label, bytes) in [
        ("honest", &honest),
        ("truncated", &truncated.bytes),
        ("corrupt opcount", &corrupt.bytes),
    ] {
        let (p, t) = (&program, &trace);
        let expected = comparable(Auditor::default().audit(p, t, bytes, isolation));
        assert_eq!(expected.is_ok(), label == "honest", "{label}: {expected:?}");
        std::fs::write(&path, bytes).expect("scratch advice file is writable");
        let opts = AuditOptions::default();
        let mut outcomes = vec![(
            "audit_encoded_with_obs".to_string(),
            karousos::audit_encoded_with_obs(p, t, bytes, isolation, opts, &noop),
        )];
        // `open`'s `bool` and `advice_mmap` are read by nothing.
        for mmap in [false, true] {
            let file = AdviceSource::open(&path, mmap).expect("scratch advice file is readable");
            let opts = AuditOptions {
                advice_mmap: mmap,
                ..opts
            };
            outcomes.push((
                format!("audit_source_with_obs over open(_, {mmap})"),
                karousos::audit_source_with_obs(p, t, &file, isolation, opts, &noop),
            ));
        }
        for (entry_point, outcome) in outcomes {
            let outcome = comparable(outcome.map_err(Into::into));
            assert_eq!(outcome, expected, "{label}: {entry_point}");
        }
    }
}
