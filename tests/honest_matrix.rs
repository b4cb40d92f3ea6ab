//! Completeness matrix: every honest execution must be ACCEPTed.
//!
//! Sweeps the three evaluation applications across request mixes,
//! concurrency levels, scheduler seeds, isolation levels, and both
//! collection modes (Karousos and Orochi-JS), running the full
//! pipeline: instrumented server → (trace, advice) → audit, at every
//! point of the shared matrix (`tests/common`).

mod common;

use apps::App;
use common::audit_matrix;
use karousos::{run_instrumented_server, CollectorMode};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

fn check(app: App, mix: Mix, n: usize, concurrency: usize, seed: u64, iso: IsolationLevel) {
    let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
    exp.requests = n;
    exp.isolation = iso;
    let program = app.program();
    let inputs = exp.inputs();
    for mode in [CollectorMode::Karousos, CollectorMode::OrochiJs] {
        let (out, advice) = run_instrumented_server(&program, &inputs, &exp.server_config(), mode)
            .unwrap_or_else(|e| {
                panic!(
                    "{} {} c={concurrency} seed={seed}: server error {e}",
                    app.name(),
                    mix.name()
                )
            });
        audit_matrix(&program, &out.trace, &advice, iso).unwrap_or_else(|e| {
            panic!(
                "{} {} c={concurrency} seed={seed} iso={iso} {mode:?}: rejected honest run: {e}",
                app.name(),
                mix.name()
            )
        });
    }
}

#[test]
fn motd_all_mixes_sequentialish() {
    for mix in Mix::RW_MIXES {
        check(App::Motd, mix, 40, 1, 0, IsolationLevel::Serializable);
    }
}

#[test]
fn motd_concurrent_seeds() {
    for seed in 0..6 {
        check(
            App::Motd,
            Mix::Mixed,
            40,
            8,
            seed,
            IsolationLevel::Serializable,
        );
    }
}

#[test]
fn stacks_all_mixes_sequentialish() {
    for mix in Mix::RW_MIXES {
        check(App::Stacks, mix, 30, 1, 0, IsolationLevel::Serializable);
    }
}

#[test]
fn stacks_concurrent_seeds() {
    for seed in 0..6 {
        check(
            App::Stacks,
            Mix::Mixed,
            30,
            6,
            seed,
            IsolationLevel::Serializable,
        );
    }
}

#[test]
fn stacks_all_isolation_levels() {
    for iso in IsolationLevel::ALL {
        for seed in 0..3 {
            check(App::Stacks, Mix::WriteHeavy, 30, 5, seed, iso);
        }
    }
}

#[test]
fn wiki_sequentialish() {
    check(App::Wiki, Mix::Wiki, 30, 1, 0, IsolationLevel::Serializable);
}

#[test]
fn wiki_concurrent_seeds() {
    for seed in 0..6 {
        check(
            App::Wiki,
            Mix::Wiki,
            30,
            6,
            seed,
            IsolationLevel::Serializable,
        );
    }
}

#[test]
fn wiki_all_isolation_levels() {
    for iso in IsolationLevel::ALL {
        check(App::Wiki, Mix::Wiki, 30, 5, 1, iso);
    }
}

#[test]
fn high_concurrency_smoke() {
    for app in App::ALL {
        let mix = if app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::Mixed
        };
        check(app, mix, 60, 30, 42, IsolationLevel::Serializable);
    }
}

#[test]
fn wiki_extended_workload_accepts() {
    // The extended mix (page edits) across seeds and isolation levels.
    let program = App::Wiki.program();
    for iso in IsolationLevel::ALL {
        for seed in 0..4u64 {
            let inputs = workload::wiki_extended_workload(30, seed);
            let cfg = kem::ServerConfig {
                concurrency: 5,
                isolation: iso,
                policy: kem::SchedPolicy::Random { seed },
                ..Default::default()
            };
            for mode in [CollectorMode::Karousos, CollectorMode::OrochiJs] {
                let (out, advice) = run_instrumented_server(&program, &inputs, &cfg, mode).unwrap();
                audit_matrix(&program, &out.trace, &advice, iso).unwrap_or_else(|e| {
                    panic!("extended wiki rejected (seed {seed}, {iso}, {mode:?}): {e}")
                });
            }
        }
    }
}
