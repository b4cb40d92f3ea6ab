//! Differential equivalence of the borrowed audit path.
//!
//! The deployed verifier now audits straight from the wire view — an
//! [`karousos::AdviceRef`] borrowing the advice bytes — and never
//! materializes an owned `Advice` on the accept path. The owned
//! conversion (`AdviceView::to_advice`) stays alive purely as the
//! oracle these tests compare against: for every point of the threads ×
//! bytecode matrix, on honest advice and across the hostile wire
//! mutation corpus, the two paths must produce byte-identical verdicts,
//! statistics, and fuel bills.

use apps::App;
use karousos::verifier::{AuditOptions, RejectReason};
use karousos::{
    audit_encoded_with_options, audit_with_options, decode_advice_view, encode_advice, AuditReport,
    WireMutator,
};
use kem::{Program, Trace};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// The full knob matrix the equivalence must hold over.
fn matrix() -> Vec<AuditOptions> {
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        for bytecode in [false, true] {
            out.push(AuditOptions {
                threads,
                bytecode,
                ..Default::default()
            });
        }
    }
    out
}

/// The comparable slice of a verdict: everything except wall-clock.
#[derive(Debug, PartialEq)]
enum Outcome {
    Accept {
        reexec: karousos::ReexecStats,
        graph_nodes: usize,
        graph_edges: usize,
    },
    Reject(RejectReason),
}

impl Outcome {
    fn of(r: Result<AuditReport, RejectReason>) -> Outcome {
        match r {
            Ok(rep) => Outcome::Accept {
                reexec: rep.reexec,
                graph_nodes: rep.graph_nodes,
                graph_edges: rep.graph_edges,
            },
            Err(reason) => Outcome::Reject(reason),
        }
    }
}

/// Runs the owned oracle: decode to owned `Advice` exactly as the old
/// accept path did, then audit it. Decode failures map to the same
/// rejection the encoded entry point produces.
fn owned_oracle(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    opts: AuditOptions,
) -> Outcome {
    match decode_advice_view(bytes).map(|view| view.to_advice()) {
        Ok(advice) => Outcome::of(audit_with_options(program, trace, &advice, isolation, opts)),
        Err(e) => Outcome::Reject(RejectReason::MalformedAdvice {
            what: e.to_string(),
        }),
    }
}

/// Asserts borrowed == oracle at every matrix point, and that every
/// matrix point agrees with the first (knobs cannot change verdicts).
/// Returns the agreed outcome.
fn assert_equivalent(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    label: &str,
) -> Outcome {
    let mut first: Option<Outcome> = None;
    for opts in matrix() {
        let borrowed = Outcome::of(audit_encoded_with_options(
            program, trace, bytes, isolation, opts,
        ));
        let oracle = owned_oracle(program, trace, bytes, isolation, opts);
        assert_eq!(
            borrowed, oracle,
            "{label}: borrowed path diverges from owned oracle at \
             threads={} bytecode={}",
            opts.threads, opts.bytecode
        );
        match &first {
            None => first = Some(borrowed),
            Some(f) => assert_eq!(
                f, &borrowed,
                "{label}: verdict changed across the matrix at \
                 threads={} bytecode={}",
                opts.threads, opts.bytecode
            ),
        }
    }
    first.expect("matrix is non-empty")
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
            matches!(outcome, Outcome::Accept { .. }),
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

    // Hostile sweep on the two extreme matrix points only (serial
    // tree-walk and parallel bytecode): the honest test
    // already pins the full matrix, and each mutation is audited twice.
    let configs = [
        AuditOptions {
            threads: 1,
            bytecode: false,
            ..Default::default()
        },
        AuditOptions {
            threads: 4,
            bytecode: true,
            ..Default::default()
        },
    ];

    let mut compared = 0usize;
    let mut rejected = 0usize;
    for m in WireMutator::ALL {
        for seed in 0..32 {
            let Some(mutation) = m.apply(&honest, seed) else {
                continue;
            };
            let mut per_config: Vec<Outcome> = Vec::new();
            for opts in configs {
                let borrowed = Outcome::of(audit_encoded_with_options(
                    &program,
                    &trace,
                    &mutation.bytes,
                    isolation,
                    opts,
                ));
                let oracle = owned_oracle(&program, &trace, &mutation.bytes, isolation, opts);
                assert_eq!(
                    borrowed, oracle,
                    "{} seed {seed}: borrowed path diverges from owned oracle \
                     (threads={} bytecode={})",
                    mutation.mutator, opts.threads, opts.bytecode
                );
                per_config.push(borrowed);
            }
            assert_eq!(
                per_config[0], per_config[1],
                "{} seed {seed}: verdict changed across the matrix",
                mutation.mutator
            );
            if matches!(per_config[0], Outcome::Reject(_)) {
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
