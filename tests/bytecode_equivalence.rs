//! Differential equivalence of the two interpreters, on both sides.
//!
//! Verifier side: the bytecode VM (DESIGN.md §11) is a drop-in
//! replacement for the tree-walk — same verdicts, same statistics
//! (including the bit-identical fuel bill), same `RejectReason`
//! payloads, at every point of the shared matrix (`tests/common`). This
//! harness pins that equivalence three ways: over randomly generated
//! programs (a seeded grammar covering every non-transactional opcode),
//! over honest runs of the paper applications at every isolation level
//! (transactions included), and over a hostile corpus of several
//! hundred structured and wire-level advice mutations.
//!
//! Server side: `kem::runtime` has the same pair of interpreters behind
//! `ServerConfig.bytecode`; the instrumented server must produce the
//! same trace, the same advice bytes and the same step count under
//! either ([`server_run`]), for the same programs.

mod common;

use apps::App;
use common::{audit_points, matrix};
use karousos::{
    decode_advice, run_instrumented_server_encoded, CollectorMode, Mutator, WireMutator,
};
use kem::dsl::*;
use kem::{Expr, Program, ProgramBuilder, RunOutput, SchedPolicy, ServerConfig, Stmt, Value};
use kvstore::IsolationLevel;
use proptest::prelude::*;
use workload::{Experiment, Mix};

/// Runs the instrumented server under both of `kem::runtime`'s
/// interpreters, asserts that what they produce is byte-identical —
/// trace, encoded advice, scheduler steps, activations — and returns
/// the run.
fn server_run(
    program: &Program,
    inputs: &[Value],
    cfg: &ServerConfig,
    label: &str,
) -> (RunOutput, Vec<u8>) {
    let run = |bytecode| {
        let cfg = ServerConfig { bytecode, ..*cfg };
        run_instrumented_server_encoded(program, inputs, &cfg, CollectorMode::Karousos)
            .unwrap_or_else(|e| panic!("{label}: server error at bytecode={bytecode}: {e}"))
    };
    let (tree_walk, tree_walk_bytes) = run(false);
    let (vm, vm_bytes) = run(true);
    assert_eq!(
        tree_walk.trace, vm.trace,
        "{label}: server interpreters disagree on the trace"
    );
    assert!(
        tree_walk_bytes == vm_bytes,
        "{label}: server interpreters disagree on the advice bytes"
    );
    assert_eq!(
        (tree_walk.steps, tree_walk.activations),
        (vm.steps, vm.activations),
        "{label}: server interpreters disagree on steps / activations"
    );
    (vm, vm_bytes)
}

// ---------------------------------------------------------------------
// Generated programs: a seeded grammar over the non-transactional
// surface (arithmetic, collections, control flow, shared state, emit,
// listener counts, nondet). Programs are correct by construction —
// ints where arithmetic happens, in-range literal indexing — so every
// honest run completes and the audit must ACCEPT identically under
// both interpreters.
// ---------------------------------------------------------------------

/// Deterministic splitmix64 so each proptest seed names one program.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A small int-valued expression (safe operands for arithmetic).
fn gen_int_expr(r: &mut Rng) -> Expr {
    match r.below(6) {
        0 => lit(r.below(10) as i64),
        1 => sread("acc"),
        2 => field(payload(), "k"),
        3 => add(sread("acc"), lit(r.below(5) as i64)),
        4 => mul(field(payload(), "k"), lit(1 + r.below(3) as i64)),
        _ => sub(lit(r.below(20) as i64), field(payload(), "k")),
    }
}

fn gen_stmt(r: &mut Rng, depth: u32) -> Vec<Stmt> {
    match r.below(if depth == 0 { 6 } else { 9 }) {
        0 => vec![swrite("acc", add(sread("acc"), gen_int_expr(r)))],
        1 => vec![swrite(
            "dict",
            map_insert(
                sread("dict"),
                to_str(field(payload(), "k")),
                gen_int_expr(r),
            ),
        )],
        2 => vec![swrite("log", list_push(sread("log"), gen_int_expr(r)))],
        3 => vec![
            let_("t", listv(vec![lit(1i64), gen_int_expr(r), lit(3i64)])),
            swrite("acc", add(sread("acc"), index(local("t"), lit(1i64)))),
        ],
        4 => vec![
            let_("m", mapv(vec![("a", gen_int_expr(r)), ("b", lit(2i64))])),
            swrite(
                "acc",
                add(sread("acc"), add(len(keys(local("m"))), len(local("m")))),
            ),
        ],
        5 => vec![
            nondet_random("n", 4),
            swrite("log", list_push(sread("log"), local("n"))),
        ],
        6 => {
            // Bounded counting loop; the body recurses one level down.
            let bound = 1 + r.below(3) as i64;
            let mut body = gen_stmt(r, depth - 1);
            body.push(let_("i", add(local("i"), lit(1i64))));
            vec![
                let_("i", lit(0i64)),
                while_(lt(local("i"), lit(bound)), body),
            ]
        }
        7 => {
            let cond = match r.below(3) {
                0 => lt(field(payload(), "k"), lit(r.below(4) as i64)),
                1 => eq(modulo(sread("acc"), lit(2i64)), lit(0i64)),
                _ => contains(sread("dict"), to_str(field(payload(), "k"))),
            };
            vec![iff(cond, gen_stmt(r, depth - 1), gen_stmt(r, depth - 1))]
        }
        _ => {
            let mut body = gen_stmt(r, depth - 1);
            body.push(swrite("acc", add(sread("acc"), local("x"))));
            vec![for_each(
                "x",
                listv(vec![lit(1i64), lit(2i64), gen_int_expr(r)]),
                body,
            )]
        }
    }
}

fn gen_program(seed: u64) -> Program {
    let mut r = Rng(seed);
    let mut b = ProgramBuilder::new();
    b.shared_var("acc", Value::Int(0), true);
    b.shared_var("dict", Value::map(Vec::<(String, Value)>::new()), true);
    b.shared_var("log", Value::list(Vec::new()), true);
    let mut body = Vec::new();
    for _ in 0..2 + r.below(4) {
        body.extend(gen_stmt(&mut r, 2));
    }
    if r.below(2) == 0 {
        body.push(emit("tick", gen_int_expr(&mut r)));
    }
    if r.below(2) == 0 {
        body.push(listener_count("lc", "tick"));
        body.push(swrite("acc", add(sread("acc"), local("lc"))));
    }
    body.push(respond(digest(sread("dict"))));
    b.function("handle", body);
    b.function(
        "on_tick",
        vec![swrite("log", list_push(sread("log"), payload()))],
    );
    b.request_handler("handle");
    b.global_registration("tick", "on_tick");
    b.build().expect("generated program builds")
}

proptest! {
    // Each case runs two servers plus the audit matrix; keep the
    // count moderate (the grammar reaches every opcode within a few
    // dozen draws).
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_replay_identically(
        seed in 0u64..10_000,
        sched_seed in 0u64..1_000,
        requests in 4usize..16,
    ) {
        let program = gen_program(seed);
        let inputs: Vec<Value> = (0..requests)
            .map(|i| Value::map([("k", Value::int(i as i64 % 5))]))
            .collect();
        let cfg = ServerConfig {
            concurrency: 3,
            policy: SchedPolicy::Random { seed: sched_seed },
            ..Default::default()
        };
        let label = format!("generated program seed={seed}");
        let (out, bytes) = server_run(&program, &inputs, &cfg, &label);
        let verdict = audit_points(
            &program,
            &out.trace,
            &bytes,
            IsolationLevel::Serializable,
            &matrix(),
            &label,
        );
        prop_assert!(
            verdict.is_ok(),
            "honest generated run rejected (seed={seed}): {:?}",
            verdict
        );
    }
}

// ---------------------------------------------------------------------
// Container-heavy programs: the persistent map/list representation
// (DESIGN.md §12) must be invisible to the audit. These programs are
// built to stress its structural-sharing machinery specifically —
// shared maps grown well past the 16-entry B-tree leaf width, a hot
// key rewritten repeatedly (path-copying over a multi-level tree),
// lists pushed across chunk boundaries, removals that thin interior
// nodes, and deeply nested literals read back out through field/index
// chains. Both interpreters must agree bit-for-bit on honest runs and
// on every structured and wire-level mutant.
// ---------------------------------------------------------------------

fn gen_container_program(seed: u64) -> Program {
    let mut r = Rng(seed);
    // Enough inserts to force the shared map past a single leaf and,
    // per request, keep reshaping a tree that other requests also grew.
    let grow = 20 + r.below(13) as i64;
    let mut b = ProgramBuilder::new();
    b.shared_var("big", Value::map(Vec::<(String, Value)>::new()), true);
    b.shared_var("log", Value::list(Vec::new()), true);
    b.shared_var("acc", Value::Int(0), true);
    let body = vec![
        // Grow the shared map one insert at a time; keys are disjoint
        // per payload class so concurrent requests interleave inserts
        // into distinct regions of the same tree.
        let_("i", lit(0i64)),
        while_(
            lt(local("i"), lit(grow)),
            vec![
                swrite(
                    "big",
                    map_insert(
                        sread("big"),
                        to_str(add(local("i"), mul(field(payload(), "k"), lit(100i64)))),
                        local("i"),
                    ),
                ),
                swrite("log", list_push(sread("log"), local("i"))),
                let_("i", add(local("i"), lit(1i64))),
            ],
        ),
        // Hammer a single key: every iteration path-copies the same
        // root-to-leaf spine of a now multi-level map.
        let_("hot", to_str(field(payload(), "k"))),
        let_("j", lit(0i64)),
        while_(
            lt(local("j"), lit(8i64)),
            vec![
                swrite(
                    "big",
                    map_insert(sread("big"), local("hot"), mul(local("j"), lit(7i64))),
                ),
                let_("j", add(local("j"), lit(1i64))),
            ],
        ),
        // Deep literal nesting, read back through a field/index chain.
        let_(
            "nest",
            mapv(vec![(
                "a",
                mapv(vec![(
                    "b",
                    mapv(vec![(
                        "c",
                        listv(vec![lit(1i64), mapv(vec![("d", gen_int_expr(&mut r))])]),
                    )]),
                )]),
            )]),
        ),
        swrite(
            "acc",
            add(
                sread("acc"),
                field(
                    index(field(field(field(local("nest"), "a"), "b"), "c"), lit(1i64)),
                    "d",
                ),
            ),
        ),
        // Thin the tree back out; roughly half the removals hit keys
        // that exist, the rest are no-ops — both must replay the same.
        let_("rm", lit(0i64)),
        while_(
            lt(local("rm"), lit(grow / 2)),
            vec![
                swrite(
                    "big",
                    map_remove(sread("big"), to_str(mul(local("rm"), lit(2i64)))),
                ),
                let_("rm", add(local("rm"), lit(1i64))),
            ],
        ),
        respond(digest(listv(vec![
            digest(sread("big")),
            digest(sread("log")),
            sread("acc"),
            len(keys(sread("big"))),
        ]))),
    ];
    b.function("handle", body);
    b.request_handler("handle");
    b.build().expect("container-heavy program builds")
}

#[test]
fn container_heavy_programs_replay_identically() {
    for seed in [3u64, 29] {
        let program = gen_container_program(seed);
        let inputs: Vec<Value> = (0..8)
            .map(|i| Value::map([("k", Value::int(i as i64 % 4))]))
            .collect();
        let cfg = ServerConfig {
            concurrency: 3,
            policy: SchedPolicy::Random { seed: 61 + seed },
            ..Default::default()
        };
        let label = format!("container-heavy seed={seed}");
        let (out, honest_bytes) = server_run(&program, &inputs, &cfg, &label);
        let advice = decode_advice(&honest_bytes).expect("honest advice decodes");
        let verdict = audit_points(
            &program,
            &out.trace,
            &honest_bytes,
            IsolationLevel::Serializable,
            &matrix(),
            &label,
        );
        assert!(
            verdict.is_ok(),
            "honest container-heavy run rejected (seed={seed}): {verdict:?}"
        );
        // Hostile leg: every mutator over this advice — whose values
        // are dominated by multi-level maps and chunked lists — must
        // be judged identically by the two interpreters at every cell.
        for m in Mutator::ALL {
            for s in 0..2 {
                if let Some(mutation) = m.apply(&advice, s) {
                    let _ = audit_points(
                        &program,
                        &out.trace,
                        &mutation.bytes,
                        IsolationLevel::Serializable,
                        &matrix(),
                        &format!("{} on container-heavy seed={seed}", mutation.mutator),
                    );
                }
            }
        }
        for m in WireMutator::ALL {
            for s in 0..2 {
                if let Some(mutation) = m.apply(&honest_bytes, s) {
                    let _ = audit_points(
                        &program,
                        &out.trace,
                        &mutation.bytes,
                        IsolationLevel::Serializable,
                        &matrix(),
                        &format!("{} on container-heavy seed={seed}", mutation.mutator),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Paper applications: honest runs at every isolation level (the wiki
// workload is transaction-heavy, so the tx opcodes replay here).
// ---------------------------------------------------------------------

#[test]
fn honest_apps_replay_identically_across_the_matrix() {
    for app in App::ALL {
        for isolation in IsolationLevel::ALL {
            let mix = if app == App::Wiki {
                Mix::Wiki
            } else {
                Mix::RW_MIXES[1]
            };
            let mut exp = Experiment::paper_default(app, mix, 4, 61);
            exp.requests = 16;
            exp.isolation = isolation;
            let program = app.program();
            let label = format!("{} at {isolation}", app.name());
            let (out, bytes) = server_run(&program, &exp.inputs(), &exp.server_config(), &label);
            let verdict = audit_points(&program, &out.trace, &bytes, isolation, &matrix(), &label);
            assert!(
                verdict.is_ok(),
                "honest {} run rejected at {isolation}: {:?}",
                app.name(),
                verdict
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hostile corpus: the two interpreters must reject the same mutants
// for the same reason with the same payload.
// ---------------------------------------------------------------------

#[test]
fn hostile_corpus_replays_identically() {
    const SEEDS: u64 = 5;
    let mut checked = 0usize;
    let mut rejected = 0usize;
    for (i, (app, isolation)) in App::ALL.iter().zip(IsolationLevel::ALL).enumerate() {
        let mix = if *app == App::Wiki {
            Mix::Wiki
        } else {
            Mix::RW_MIXES[1]
        };
        let mut exp = Experiment::paper_default(*app, mix, 4, 700 + i as u64);
        exp.requests = 12;
        exp.isolation = isolation;
        let program = app.program();
        let (out, honest_bytes) =
            server_run(&program, &exp.inputs(), &exp.server_config(), app.name());
        let advice = decode_advice(&honest_bytes).expect("honest advice decodes");

        let mut check = |bytes: &[u8], label: &str| {
            let verdict = audit_points(
                &program,
                &out.trace,
                bytes,
                isolation,
                &matrix(),
                &format!("{label} on {}", app.name()),
            );
            if verdict.is_err() {
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
        "only {checked} mutations compared; corpus too small"
    );
    assert!(
        rejected >= 100,
        "only {rejected} rejections compared; REJECT-side coverage too small"
    );
}
