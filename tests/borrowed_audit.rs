//! Differential equivalence of the borrowed audit path.
//!
//! The deployed verifier now audits straight from the wire view — an
//! [`karousos::AdviceRef`] borrowing the advice bytes — and never
//! materializes an owned `Advice` on the accept path. The owned
//! conversion (`AdviceView::to_advice`) stays alive purely as the
//! oracle these tests compare against: for every point of the shared
//! matrix (`tests/common`), on honest advice and across the hostile
//! wire mutation corpus, the two paths must produce byte-identical
//! verdicts, statistics, and fuel bills.

mod common;

use apps::App;
use common::{audit_points, matrix, Outcome};
use karousos::{decode_advice_view, encode_advice, RejectReason, WireMutator};
use kem::{Program, Trace};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// Audits `bytes` over the shared matrix twice — borrowed, straight
/// from the wire, and through the owned oracle: decode to an owned
/// `Advice` exactly as the old accept path did, then audit that (a
/// decode failure maps to the rejection the encoded entry point
/// produces). Each path must agree with itself at every point and the
/// two with each other. Returns the agreed outcome.
fn assert_equivalent(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    label: &str,
) -> Outcome {
    let points = &matrix();
    let borrowed = audit_points(program, trace, bytes, isolation, points, label);
    let oracle = match decode_advice_view(bytes).map(|view| view.to_advice()) {
        Ok(advice) => audit_points(program, trace, &advice, isolation, points, label),
        Err(e) => Err(RejectReason::MalformedAdvice {
            what: e.to_string(),
        }),
    };
    assert_eq!(
        borrowed, oracle,
        "{label}: borrowed path diverges from owned oracle"
    );
    borrowed
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

/// Honest advice from every paper app: both paths must ACCEPT with
/// identical statistics and fuel at every matrix point.
#[test]
fn honest_apps_accept_identically() {
    for (app, mix, n) in [
        (App::Motd, Mix::RW_MIXES[1], 24),
        (App::Stacks, Mix::RW_MIXES[1], 24),
        (App::Wiki, Mix::Wiki, 16),
    ] {
        let (program, trace, bytes, isolation) = prepare(app, mix, n);
        let outcome = assert_equivalent(&program, &trace, &bytes, isolation, app.name());
        assert!(
            outcome.is_ok(),
            "{}: honest advice rejected: {outcome:?}",
            app.name()
        );
    }
}

/// The hostile corpus: every wire mutator at many seeds. Whatever each
/// mutation does — decode error, verifier rejection, or (for benign
/// mutations) acceptance — both paths must agree exactly, including the
/// positioned decode error text and the typed `RejectReason`.
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
            let outcome = assert_equivalent(&program, &trace, &mutation.bytes, isolation, &label);
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
