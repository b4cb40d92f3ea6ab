//! The paper's qualitative evaluation claims, as regression tests.
//!
//! These encode the *shapes* from §6 (who batches better, who logs
//! less) so that refactors cannot silently regress the properties the
//! figures depend on. Timing claims live in the bench harness, not
//! here.

use apps::App;
use karousos::{audit, encode_advice, run_instrumented_server, CollectorMode};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

fn collect(
    app: App,
    mix: Mix,
    n: usize,
    concurrency: usize,
    seed: u64,
    mode: CollectorMode,
) -> (kem::Program, kem::Trace, karousos::Advice) {
    let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
    exp.requests = n;
    let program = app.program();
    let (out, advice) =
        run_instrumented_server(&program, &exp.inputs(), &exp.server_config(), mode).unwrap();
    (program, out.trace, advice)
}

/// §6.2: "Because there is only one handler … Batching is also the
/// same because, with no tree of handlers, Karousos and Orochi-JS
/// group identically" (MOTD).
#[test]
fn motd_groups_identical_across_modes() {
    let (_, t_k, a_k) = collect(App::Motd, Mix::Mixed, 60, 8, 3, CollectorMode::Karousos);
    let (_, t_o, a_o) = collect(App::Motd, Mix::Mixed, 60, 8, 3, CollectorMode::OrochiJs);
    assert_eq!(
        a_k.groups(&t_k.request_ids()).len(),
        a_o.groups(&t_o.request_ids()).len()
    );
}

/// §6.2: more concurrently-activated handlers ⇒ Orochi-JS's
/// sequence-sensitive grouping fragments while Karousos's tree-shaped
/// grouping does not (stacks, wiki).
#[test]
fn tree_grouping_batches_better_under_concurrency() {
    for app in [App::Stacks, App::Wiki] {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::Mixed
        };
        let mut fragmented_somewhere = false;
        for seed in 0..5u64 {
            let (_, t_k, a_k) = collect(app, mix, 50, 8, seed, CollectorMode::Karousos);
            let (_, t_o, a_o) = collect(app, mix, 50, 8, seed, CollectorMode::OrochiJs);
            let gk = a_k.groups(&t_k.request_ids()).len();
            let go = a_o.groups(&t_o.request_ids()).len();
            assert!(gk <= go, "{}: karousos {gk} > orochi {go}", app.name());
            if go > gk {
                fragmented_somewhere = true;
            }
        }
        assert!(
            fragmented_somewhere,
            "{}: expected Orochi-JS to fragment on some schedule",
            app.name()
        );
    }
}

/// §4.2/§6.3: Karousos logs only R-concurrent accesses, so its
/// variable logs are never larger than Orochi-JS's log-everything.
#[test]
fn karousos_never_logs_more() {
    for app in App::ALL {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::Mixed
        };
        let (_, _, a_k) = collect(app, mix, 50, 6, 1, CollectorMode::Karousos);
        let (_, _, a_o) = collect(app, mix, 50, 6, 1, CollectorMode::OrochiJs);
        assert!(
            a_k.var_log_entries() <= a_o.var_log_entries(),
            "{}: {} > {}",
            app.name(),
            a_k.var_log_entries(),
            a_o.var_log_entries()
        );
        assert!(
            encode_advice(&a_k).len() <= encode_advice(&a_o).len(),
            "{}: advice bytes",
            app.name()
        );
    }
}

/// §6.3: wiki advice is strictly smaller under Karousos (the
/// R-ordered pool/context accesses Orochi-JS must log).
#[test]
fn wiki_advice_strictly_smaller_at_low_concurrency() {
    let (_, _, a_k) = collect(App::Wiki, Mix::Wiki, 60, 1, 2, CollectorMode::Karousos);
    let (_, _, a_o) = collect(App::Wiki, Mix::Wiki, 60, 1, 2, CollectorMode::OrochiJs);
    let k = encode_advice(&a_k).len();
    let o = encode_advice(&a_o).len();
    assert!(
        (k as f64) < (o as f64) * 0.9,
        "expected ≥10% saving, got {k} vs {o}"
    );
}

/// §6.3: wiki advice grows with the number of concurrent requests.
#[test]
fn wiki_advice_grows_with_concurrency() {
    let (_, _, low) = collect(App::Wiki, Mix::Wiki, 60, 1, 2, CollectorMode::Karousos);
    let (_, _, high) = collect(App::Wiki, Mix::Wiki, 60, 12, 2, CollectorMode::Karousos);
    assert!(
        encode_advice(&high).len() > encode_advice(&low).len(),
        "advice should grow with concurrency"
    );
}

/// §2.3/§6.2: batched re-execution interprets each group's handler
/// bodies once — substantial deduplication on group-friendly apps.
#[test]
fn batching_deduplicates_handler_executions() {
    let (p, t, a) = collect(
        App::Stacks,
        Mix::ReadHeavy,
        60,
        1,
        4,
        CollectorMode::Karousos,
    );
    let report = audit(&p, &t, &a, IsolationLevel::Serializable).unwrap();
    let dedup =
        report.reexec.activations_covered as f64 / report.reexec.handlers_executed.max(1) as f64;
    assert!(dedup > 3.0, "dedup factor only {dedup:.1}");
}

/// §6.3: MOTD advice is dominated by variable logs (paper: ~95%).
#[test]
fn motd_advice_is_mostly_variable_logs() {
    let (_, _, a) = collect(
        App::Motd,
        Mix::WriteHeavy,
        60,
        4,
        5,
        CollectorMode::Karousos,
    );
    let sizes = karousos::advice_sizes(&a);
    // The logged values themselves sit in the value pool the variable
    // logs refer to, and their strings in the string table (MOTD logs
    // values nowhere else: it has no transactions, and its nondet
    // records are integers).
    let logged = sizes.var_logs + sizes.pool + sizes.strings;
    assert!(
        logged * 100 / sizes.total().max(1) >= 80,
        "var logs are only {}% of advice",
        logged * 100 / sizes.total().max(1)
    );
}
