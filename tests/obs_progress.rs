//! Live progress heartbeats: an audit observed mid-flight from another
//! thread reports monotone progress through the layer sequence, a
//! REJECT carries the cost attribution of the work done up to the
//! failure and leaves the heartbeat on `rejected` whichever way the
//! audit ended, and a snapshot reads counters and ledger at one instant.

use apps::App;
use karousos::{
    audit_encoded_with_obs, audit_forensic, run_instrumented_server,
    run_instrumented_server_encoded, AuditOptions, CollectorMode, Limits, Mutator,
};
use obs::{CounterId, GroupCost, Layer, Obs};
use workload::{Experiment, Mix};

/// The panic-injection hook is a one-shot process-wide latch that any
/// audit in this binary could consume: the test that arms it holds this
/// exclusively, every other test that audits holds it shared.
static PANIC_LATCH: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn wiki_run(
    requests: usize,
) -> (
    kem::Program,
    kem::RunOutput,
    Vec<u8>,
    kvstore::IsolationLevel,
) {
    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 7);
    exp.requests = requests;
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    let (out, advice) = run_instrumented_server_encoded(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("wiki app runs");
    (program, out, advice, exp.isolation)
}

#[test]
fn progress_is_monotone_and_reaches_done() {
    let _shared = PANIC_LATCH.read().expect("latch lock");
    let (program, out, advice, iso) = wiki_run(200);
    let obs = Obs::enabled();
    let watcher_obs = obs.clone();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done_flag = done.clone();

    // Poll live snapshots from a second thread while the audit runs —
    // the heartbeat is atomics-only, so mid-flight reads are safe and
    // never block a worker.
    let watcher = std::thread::spawn(move || {
        let mut snaps = Vec::new();
        while !done_flag.load(std::sync::atomic::Ordering::Relaxed) {
            snaps.push(watcher_obs.progress_snapshot());
            std::thread::yield_now();
        }
        snaps.push(watcher_obs.progress_snapshot());
        snaps
    });

    audit_encoded_with_obs(
        &program,
        &out.trace,
        &advice,
        iso,
        AuditOptions::with_threads(2),
        &obs,
    )
    .expect("honest advice must be accepted");
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let snaps = watcher.join().expect("watcher thread joins");

    // Monotonicity: phase ordinal, groups_done, and fuel only move
    // forward; groups_done never exceeds groups_total once set.
    for w in snaps.windows(2) {
        assert!(
            w[1].phase as u8 >= w[0].phase as u8,
            "phase went backwards: {:?} -> {:?}",
            w[0].phase,
            w[1].phase
        );
        assert!(
            w[1].groups_done >= w[0].groups_done,
            "groups_done regressed"
        );
        assert!(w[1].fuel_spent >= w[0].fuel_spent, "fuel_spent regressed");
        if w[1].groups_total > 0 {
            assert!(w[1].groups_done <= w[1].groups_total);
        }
    }

    // Final heartbeat: the run completed.
    let last = snaps.last().expect("at least one snapshot");
    assert_eq!(last.phase, Layer::Done);
    assert!(last.groups_total > 0);
    assert_eq!(last.groups_done, last.groups_total);
    assert!(last.fuel_spent > 0);
    assert_eq!(last.failed_floor, None);
}

/// A program whose handler logs have reorderable same-handler entries
/// (the `eventful` scenario of tests/reject_forensics.rs): reordering
/// them creates a cycle caught in the postprocess check, *after*
/// group replay.
fn eventful() -> (
    kem::Program,
    kem::RunOutput,
    karousos::Advice,
    kvstore::IsolationLevel,
) {
    use kem::dsl;
    use kem::Value;
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("cfg", Value::int(1), true);
    b.function(
        "handle",
        vec![
            dsl::register("ping", "on_ping"),
            dsl::emit("ping", dsl::lit(1)),
            dsl::listener_count("n", "ping"),
            dsl::unregister("ping", "on_ping"),
            dsl::respond(dsl::sread("cfg")),
        ],
    );
    b.function("on_ping", vec![dsl::let_("z", dsl::payload())]);
    b.request_handler("handle");
    let program = b.build().expect("eventful program builds");
    let cfg = kem::ServerConfig::default();
    let inputs = vec![Value::Null; 4];
    let (out, advice) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
        .expect("eventful program runs");
    (program, out, advice, cfg.isolation)
}

#[test]
fn rejected_audit_attaches_cost_attribution() {
    let _shared = PANIC_LATCH.read().expect("latch lock");
    let (program, out, advice, iso) = eventful();
    // Reordering a handler log creates a cycle: the failure lands in
    // the postprocess cycle check, *after* group replay, so the ledger
    // holds every replayed group and the REJECT can say where the fuel
    // went.
    let m = (0..200)
        .find_map(|seed| {
            let m = Mutator::ReorderHandlerLog.apply(&advice, seed)?;
            // Only keep a swap the cycle check (not an earlier replay
            // check) rejects, so replay completes first.
            match audit_encoded_with_obs(
                &program,
                &out.trace,
                &m.bytes,
                iso,
                AuditOptions::default(),
                &Obs::noop(),
            ) {
                Err(karousos::RejectReason::CycleInG) => Some(m),
                _ => None,
            }
        })
        .expect("some reorder seed must induce a cycle");
    let obs = Obs::enabled();
    let failure = audit_forensic(
        &program,
        &out.trace,
        &m.bytes,
        iso,
        AuditOptions::default(),
        &obs,
    )
    .expect_err("reordered handler log must be rejected");
    assert_eq!(obs.progress_snapshot().phase, Layer::Rejected);
    assert_eq!(failure.diagnostics.phase, Layer::CycleCheck);
    let attribution = failure
        .diagnostics
        .attribution
        .as_ref()
        .expect("post-replay REJECT must carry cost attribution");
    assert!(attribution.fuel_spent > 0);
    assert!(attribution.groups_recorded > 0);
    assert!(!attribution.top_groups.is_empty());
    // The top group is the most fuel-expensive recorded row.
    let ledger = obs.snapshot().ledger;
    let max_fuel = ledger.groups.iter().map(|g| g.fuel).max().unwrap_or(0);
    assert_eq!(attribution.top_groups[0].fuel, max_fuel);
    // And the serialized diagnostics carry the section.
    let json = failure.diagnostics.to_json();
    assert!(json.contains("\"attribution\""), "{json}");
    assert!(json.contains("\"top_groups\""), "{json}");
}

#[test]
fn heartbeat_ends_on_rejected_for_every_exit() {
    let _exclusive = PANIC_LATCH.write().expect("latch lock");
    let (program, out, bytes, iso) = wiki_run(60);
    let rejects = |what: &str, advice_bytes: &[u8], limits: Limits, panic_in: i64, kind: &str| {
        karousos::verifier::inject_group_panic_for_tests(panic_in);
        let obs = Obs::enabled();
        let opts = AuditOptions {
            limits,
            ..AuditOptions::default()
        };
        let verdict = audit_encoded_with_obs(&program, &out.trace, advice_bytes, iso, opts, &obs);
        let reason = verdict.expect_err(what);
        assert_eq!(reason.kind(), kind, "{what}: {reason}");
        assert_eq!(obs.progress_snapshot().phase, Layer::Rejected, "{what}");
    };
    let roomy = Limits::default();
    let (few_bytes, few_nodes) = (
        Limits {
            decode_max_bytes: 16,
            ..roomy
        },
        Limits {
            decode_max_nodes: 8,
            ..roomy
        },
    );
    let half = &bytes[..bytes.len() / 2];
    rejects("truncated advice", half, roomy, -1, "MalformedAdvice");
    rejects("byte budget", &bytes, few_bytes, -1, "ResourceExhausted");
    rejects("node budget", &bytes, few_nodes, -1, "ResourceExhausted");
    rejects("worker panic", &bytes, roomy, 0, "VerifierInternal");
    // And the honest bytes end on `done`.
    let obs = Obs::enabled();
    audit_encoded_with_obs(
        &program,
        &out.trace,
        &bytes,
        iso,
        AuditOptions::default(),
        &obs,
    )
    .expect("honest advice must be accepted");
    assert_eq!(obs.progress_snapshot().phase, Layer::Done);
}

#[test]
fn snapshot_reads_counter_and_ledger_at_one_instant() {
    // What the merge does per group, against a reader taking snapshots:
    // a shard's fuel counter and its ledger row land under one
    // acquisition of the state lock, and a snapshot is one acquisition,
    // so no snapshot sees one without the other.
    // The writer goes on until the reader has looked often enough, and
    // not for ever if the reader's assertion has fired.
    const ENOUGH: u64 = 300;
    const GIVE_UP: u64 = 50_000;
    let obs = Obs::enabled();
    let taken = std::sync::atomic::AtomicU64::new(0);
    let absorbed = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut n = 0u64;
            let looked = || taken.load(std::sync::atomic::Ordering::Relaxed);
            while n < ENOUGH || (looked() < ENOUGH && n < GIVE_UP) {
                n += 1;
                let mut shard = obs.shard(1);
                shard.count(CounterId::ReplayFuelSpent, n);
                shard.record_group_cost(GroupCost {
                    group: n,
                    fuel: n,
                    ..Default::default()
                });
                obs.absorb(shard);
            }
            n
        });
        while !writer.is_finished() {
            let snap = obs.snapshot();
            let (counter, ledger) = (
                snap.metrics.counter(CounterId::ReplayFuelSpent),
                snap.ledger.totals().fuel,
            );
            assert_eq!(counter, ledger, "after {} groups", snap.ledger.groups.len());
            taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        writer.join().expect("writer thread joins")
    });
    let snap = obs.snapshot();
    assert_eq!(snap.ledger.totals().fuel, absorbed * (absorbed + 1) / 2);
    assert_eq!(
        snap.metrics.counter(CounterId::ReplayFuelSpent),
        snap.ledger.totals().fuel
    );
}
