//! Determinism keystone for the parallel verifier: an audit's outcome
//! — verdict, statistics, and on rejection the exact [`RejectReason`]
//! — must be independent of the worker-thread count. Workers replay
//! whole groups with local state and the merge re-applies their
//! variable-access streams in ascending group order as they land,
//! while the range-sharded preprocess and deferred edge merge
//! reproduce the serial section order exactly; so every thread count
//! runs the same logical event sequence. This test pins that
//! equivalence across every app, every isolation level, and a broad
//! sample of hostile-advice mutations.
//!
//! Preprocess cuts the requests into about four ranges per thread, so
//! the traces hold 16 requests (even ranges: several requests each at
//! one and two threads, one each from four up) and 17 (uneven ranges
//! at every thread count; one or two requests each at three threads).

mod common;

use apps::App;
use common::{audit_at, audit_points, matrix_with, Point};
use karousos::{
    encode_advice, run_instrumented_server, Auditor, CollectorMode, Limits, Mutator, WireMutator,
};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// The shared matrix over a wider thread list than the standard one.
/// Its first point — `threads: 1`, no workers, each group replayed and
/// merged on the calling thread — is the serial audit every other point
/// must match.
fn points() -> Vec<Point> {
    matrix_with(&[1, 2, 3, 4, 8], Limits::default())
}

/// Requests per trace (see the module docs).
const REQUESTS: [usize; 2] = [16, 17];

fn honest_run(
    app: App,
    isolation: IsolationLevel,
    seed: u64,
    requests: usize,
) -> (kem::Program, kem::Trace, karousos::Advice) {
    let mix = if app == App::Wiki {
        Mix::Wiki
    } else {
        Mix::RW_MIXES[1]
    };
    let mut exp = Experiment::paper_default(app, mix, 4, seed);
    exp.requests = requests;
    exp.isolation = isolation;
    let program = app.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("apps run cleanly");
    (program, out.trace, advice)
}

#[test]
fn honest_audits_agree_across_thread_counts() {
    let points = points();
    for app in App::ALL {
        for isolation in IsolationLevel::ALL {
            for requests in REQUESTS {
                let (program, trace, advice) = honest_run(app, isolation, 42, requests);
                let label = format!("{} at {isolation}, {requests} requests", app.name());
                let outcome = audit_points(&program, &trace, &advice, isolation, &points, &label);
                assert!(outcome.is_ok(), "honest {label} run rejected: {outcome:?}");
            }
        }
    }
}

#[test]
fn hostile_audits_agree_across_thread_counts() {
    // Every structured and wire mutator, several seeds, all apps: the
    // parallel audit must REJECT exactly when the sequential one does,
    // for exactly the same reason. (Seed count is bounded to keep this
    // test's mutation sample a few hundred strong but quick; the full
    // 1000+ sweep runs in hostile_advice.rs on the default options.)
    // The thread axis, and one telemetry-on point.
    const SEEDS: u64 = 6;
    let mut points = points();
    points.retain(|p| !p.obs || p.threads == 4);
    let mut checked = 0usize;
    let mut rejected = 0usize;
    let runs = App::ALL.iter().zip(IsolationLevel::ALL).enumerate();
    for ((i, (app, isolation)), requests) in runs.flat_map(|run| REQUESTS.map(|n| (run, n))) {
        let (program, trace, advice) = honest_run(*app, isolation, 500 + i as u64, requests);
        let honest_bytes = encode_advice(&advice);

        let mut check = |bytes: &[u8], mutator: &str| {
            let label = format!(
                "{mutator} on {} at {isolation}, {requests} requests",
                app.name()
            );
            if audit_points(&program, &trace, bytes, isolation, &points, &label).is_err() {
                rejected += 1;
            }
            checked += 1;
        };

        for m in Mutator::ALL {
            for seed in 0..SEEDS {
                if let Some(mutation) = m.apply(&advice, seed) {
                    check(&mutation.bytes, mutation.mutator);
                }
            }
        }
        for m in WireMutator::ALL {
            for seed in 0..SEEDS {
                if let Some(mutation) = m.apply(&honest_bytes, seed) {
                    check(&mutation.bytes, mutation.mutator);
                }
            }
        }
    }
    assert!(
        checked >= 200,
        "only {checked} mutations compared; sample too small"
    );
    assert!(
        rejected >= 100,
        "only {rejected} rejections compared; REJECT-side coverage too small"
    );
}

#[test]
fn auto_thread_count_resolves_and_agrees() {
    // `threads = 0` (one worker per core) is the deployment setting;
    // it must agree with the sequential path too.
    let (program, trace, advice) = honest_run(App::Stacks, IsolationLevel::Serializable, 7, 16);
    let at = |threads| {
        let point = Point {
            threads,
            limits: Limits::default(),
            obs: false,
        };
        audit_at(
            &program,
            &trace,
            &advice,
            IsolationLevel::Serializable,
            point,
        )
    };
    assert_eq!(at(1), at(0), "auto threads");
}

#[test]
fn phase_timings_never_exceed_the_audit() {
    // The layers are disjoint stretches of the calling thread's time
    // (the state merge is its time inside the merge, never its waits
    // for workers), so they cannot sum past the wall clock around the
    // call — at one thread or at four — and, teardown included, they
    // cover it: what is left over is the call's prologue and epilogue.
    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 1);
    exp.requests = 120;
    let program = App::Wiki.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("wiki runs cleanly");
    let bytes = encode_advice(&advice);
    for threads in [1, 4] {
        let auditor = Auditor {
            threads,
            obs: obs::Obs::enabled(),
            ..Auditor::default()
        };
        let start = std::time::Instant::now();
        let report = auditor.audit(&program, &out.trace, &bytes, exp.isolation);
        let wall = start.elapsed();
        let timing = report.expect("honest wiki advice is accepted").timing;
        assert!(
            timing.total() <= wall && timing.total() * 2 >= wall,
            "threads={threads}: layers sum to {:?} in a {wall:?} audit ({timing})",
            timing.total()
        );
        // One list of layers: what the report times, the snapshot
        // holds, the Chrome trace names and the heartbeat ends on are
        // the same `Layer`s under the same names.
        let snap = auditor.obs.snapshot();
        assert_eq!(snap.layers, timing);
        assert_eq!(snap.progress.phase, obs::Layer::Done);
        let (trace, json) = (snap.to_chrome_trace(), timing.to_json());
        for (layer, spent) in timing.layers() {
            let name = layer.name();
            assert!(!spent.is_zero(), "threads={threads}: no time in {name}");
            assert!(trace.contains(&format!("\"name\":\"{name}\"")), "{name}");
            assert!(json.contains(&format!("\"{name}_us\"")), "{name}: {json}");
        }
    }
}
