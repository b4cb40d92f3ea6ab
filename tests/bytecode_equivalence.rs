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
use karousos::RejectReason;
use karousos::{
    decode_advice, run_instrumented_server_encoded, CollectorMode, Mutator, WireMutator,
};
use kem::dsl::*;
use kem::{
    BinOp, Expr, Program, ProgramBuilder, RunOutput, SchedPolicy, ServerConfig, Stmt, Trace,
    TraceEvent, Value,
};
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
// Fused windows (`kem::bytecode`, "Operand fusion"): every shape the
// pass rewrites, under every operator, with hostile operands at every
// position. The verifier's VM runs a window in place only on collapsed
// integers the operator is defined on; everything else must fall
// through to the plain ops and so to exactly what the tree-walk does —
// per-member values, type errors, `/ 0`, unbound locals, divergence.
// Where the hostile input makes the *server* fail, both of its
// interpreters must fail alike, and the audit side is reached by
// replaying an honest run's advice against a trace carrying the hostile
// inputs (what a lying server would have to get past).
// ---------------------------------------------------------------------

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

const ALL_BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

/// `x op k` in every window shape: stored (`Local; Const; Bin;
/// StoreLocal` into a slot that holds a payload field), chained onto a
/// stack operand (`Const; Bin; StoreLocal`), bare in a list literal, and
/// — never fused — with a (positive) local on the right. All behind
/// `payload.go`, so an operator that cannot succeed still has an honest
/// run.
fn window_program(op: BinOp, k: i64) -> Program {
    let w = |e: Expr| bin(op, e, lit(k));
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            let_("x", field(payload(), "a")),
            let_("y", field(payload(), "b")),
            let_("d", add(field(payload(), "b"), lit(1i64))),
            let_("t", lit(0i64)),
            iff(
                field(payload(), "go"),
                vec![
                    let_("y", w(local("x"))),
                    let_("z", w(add(local("x"), lit(3i64)))),
                    let_(
                        "t",
                        listv(vec![
                            w(local("x")),
                            w(mul(local("x"), lit(i64::MAX))),
                            bin(op, local("x"), local("d")),
                        ]),
                    ),
                ],
                vec![],
            ),
            respond(listv(vec![local("y"), local("t")])),
        ],
    );
    b.request_handler("handle");
    b.build().expect("window program builds")
}

fn window_input(a: Value, b: i64, go: bool) -> Value {
    Value::map([("a", a), ("b", Value::int(b)), ("go", Value::Bool(go))])
}

/// The trace a run would have had if request `i` had carried
/// `inputs[i]`.
fn with_inputs(trace: &Trace, inputs: &[Value]) -> Trace {
    let mut swapped = trace.clone();
    for ev in swapped.events_mut() {
        if let TraceEvent::Request { rid, input } = ev {
            *input = inputs[rid.0 as usize].clone();
        }
    }
    swapped
}

/// Both server interpreters on inputs that may make the program fail:
/// the same trace, or the same error.
fn server_outcome(program: &Program, inputs: &[Value], label: &str) -> Result<Trace, String> {
    let run = |bytecode| {
        let cfg = ServerConfig {
            bytecode,
            ..ServerConfig::default()
        };
        run_instrumented_server_encoded(program, inputs, &cfg, CollectorMode::Karousos)
            .map(|(out, bytes)| (out.trace, bytes))
            .map_err(|e| e.message)
    };
    let (tree_walk, vm) = (run(false), run(true));
    assert!(tree_walk == vm, "{label}: server interpreters disagree");
    vm.map(|(trace, _)| trace)
}

/// The default audit's cost ledger, summed over its groups: `(fuel,
/// bytecode_ops, fused_fuel, fused_ops)`.
fn replay_costs(program: &Program, trace: &Trace, bytes: &[u8]) -> (u64, u64, u64, u64) {
    let obs = obs::Obs::enabled();
    karousos::audit_encoded_with_obs(
        program,
        trace,
        bytes,
        IsolationLevel::Serializable,
        karousos::AuditOptions::default(),
        &obs,
    )
    .expect("honest run accepted");
    let rows = obs.snapshot().ledger.groups;
    let sum = |col: fn(&obs::GroupCost) -> u64| rows.iter().map(col).sum::<u64>();
    (
        sum(|g| g.fuel),
        sum(|g| g.bytecode_ops),
        sum(|g| g.fused_fuel),
        sum(|g| g.fused_ops),
    )
}

#[test]
fn fused_windows_with_hostile_operands_replay_identically() {
    let extremes = [i64::MIN, 7, 0, -1, i64::MAX, 7];
    for op in ALL_BINOPS {
        for k in [0, -1, 3, i64::MAX] {
            let program = window_program(op, k);
            let label = format!("x {op:?} {k}");
            let undefined = matches!(op, BinOp::Div | BinOp::Mod) && k == 0;
            let audit = |trace: &Trace, bytes: &[u8], what: &str| {
                audit_points(
                    &program,
                    trace,
                    bytes,
                    IsolationLevel::Serializable,
                    &matrix(),
                    &format!("{label}, {what}"),
                )
            };

            // Per-member operands, first position and destination: one
            // group (same control flow), every `x` and old `y` distinct.
            let mixed: Vec<Value> = extremes
                .iter()
                .enumerate()
                .map(|(i, a)| window_input(Value::int(*a), i as i64, !undefined))
                .collect();
            let (out, bytes) = server_run(&program, &mixed, &ServerConfig::default(), &label);
            let verdict = audit(&out.trace, &bytes, "per-member operands");
            assert!(verdict.is_ok(), "{label}: honest run rejected: {verdict:?}");

            // Collapsed operands at the overflow corner (`i64::MIN / -1`,
            // wrapping `*`): the windows run in place.
            let uniform = vec![window_input(Value::int(i64::MIN), 5, !undefined); 3];
            let (out, bytes) = server_run(&program, &uniform, &ServerConfig::default(), &label);
            let verdict = audit(&out.trace, &bytes, "collapsed operands");
            assert!(verdict.is_ok(), "{label}: honest run rejected: {verdict:?}");
            if !undefined {
                let (_, _, fused_fuel, _) = replay_costs(&program, &out.trace, &bytes);
                assert!(fused_fuel > 0, "{label}: no window ran in place");
            }

            // The operator undefined on its operands: both servers stop
            // with the typed error, and so does every replay.
            if undefined {
                let forced = vec![window_input(Value::int(i64::MIN), 5, true); 3];
                let message = if op == BinOp::Div {
                    "division by zero"
                } else {
                    "remainder by zero"
                };
                assert_eq!(
                    server_outcome(&program, &forced, &label),
                    Err(message.to_string())
                );
                assert_eq!(
                    audit(&with_inputs(&out.trace, &forced), &bytes, "x op 0"),
                    Err(RejectReason::ReexecError {
                        message: message.into()
                    })
                );
            }

            // A string where the window wants its integer, in every
            // member (collapsed) and in one (per-member).
            for strings in [3, 1] {
                let mut hostile = vec![window_input(Value::int(i64::MIN), 5, true); 3];
                for input in hostile.iter_mut().take(strings) {
                    *input = window_input(Value::str("s"), 5, true);
                }
                let served = server_outcome(&program, &hostile, &label);
                let replayed = audit(
                    &with_inputs(&out.trace, &hostile),
                    &bytes,
                    &format!("{strings} string operands"),
                );
                // `Str + Int`, `Str < Int`, …: a type error on both
                // sides. (`==`, `!=`, `&&`, `||` take any operands; the
                // replay then answers differently from the trace.)
                assert!(replayed.is_err(), "{label}: {replayed:?}");
                if let Err(message) = served {
                    assert!(message.starts_with("type error"), "{label}: {message}");
                    assert_eq!(replayed, Err(RejectReason::ReexecError { message }));
                }
            }
        }
    }
}

/// A loop of fused windows — `Local; Const; Bin; LoopBranch` at its
/// head — whose trip count comes from the payload.
fn counting_loop_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            let_("i", field(payload(), "a")),
            let_("n", lit(0i64)),
            while_(
                lt(local("i"), lit(3i64)),
                vec![
                    let_(
                        "n",
                        modulo(add(mul(local("n"), lit(3i64)), lit(1i64)), lit(7i64)),
                    ),
                    let_("i", add(local("i"), lit(1i64))),
                ],
            ),
            respond(listv(vec![local("n"), local("i")])),
        ],
    );
    b.request_handler("handle");
    b.build().expect("loop program builds")
}

#[test]
fn a_fused_loop_condition_that_diverges_is_a_divergence() {
    let program = counting_loop_program();
    let input = |a: i64| Value::map([("a", Value::int(a))]);
    // Two groups: four requests looping three times, two looping twice.
    let honest: Vec<Value> = [0, 0, 1, 0, 1, 0].map(input).to_vec();
    let (out, bytes) = server_run(&program, &honest, &ServerConfig::default(), "counting loop");
    let audit = |trace: &Trace, what: &str| {
        audit_points(
            &program,
            trace,
            &bytes,
            IsolationLevel::Serializable,
            &matrix(),
            what,
        )
    };
    let verdict = audit(&out.trace, "counting loop");
    assert_eq!(verdict.as_ref().map(|a| a.reexec.groups), Ok(2));
    // Counted as the plain ops would be: a trip is 17 ops and 15 units,
    // all but its `Jump` inside windows; the exit test 4 ops and 3
    // units; 11 ops and 10 units outside the loop. Three trips in one
    // group, two in the other.
    assert_eq!(
        replay_costs(&program, &out.trace, &bytes),
        (58 + 43, 66 + 49, 48 + 33, 52 + 36)
    );
    // One member of the first group starts further along: the condition
    // is per-member, the window declines, and the plain `LoopBranch`
    // finds the members disagreeing after two trips.
    let mut split = honest.clone();
    split[3] = input(1);
    assert_eq!(
        audit(&with_inputs(&out.trace, &split), "loop condition diverges"),
        Err(RejectReason::Divergence {
            context: "while condition".into()
        })
    );
    // The whole group loops once less than the server claimed: still
    // collapsed, still fused, and no longer the traced response.
    let short: Vec<Value> = [1, 1, 1, 1, 1, 1].map(input).to_vec();
    assert!(audit(&with_inputs(&out.trace, &short), "loop runs short").is_err());
}

#[test]
fn a_fused_loop_still_counts_against_the_iteration_limit() {
    // The trip counter lives in `LoopBranch`, the tail of the window
    // that decides this loop; with fuel unmetered it is what stops it.
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            let_("i", lit(1i64)),
            iff(field(payload(), "spin"), vec![let_("i", lit(0i64))], vec![]),
            while_(eq(local("i"), lit(0i64)), vec![]),
            respond(local("i")),
        ],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let input = |spin: bool| Value::map([("spin", Value::Bool(spin))]);
    let label = "iteration limit";
    let (out, bytes) = server_run(&program, &[input(false)], &ServerConfig::default(), label);
    let unmetered = karousos::Limits {
        replay_fuel: u64::MAX,
        ..karousos::Limits::default()
    };
    assert_eq!(
        audit_points(
            &program,
            &with_inputs(&out.trace, &[input(true)]),
            &bytes,
            IsolationLevel::Serializable,
            &common::matrix_with(&[1], unmetered),
            label,
        ),
        Err(RejectReason::ReexecError {
            message: "while loop exceeded iteration limit".into()
        })
    );
}

#[test]
fn an_unbound_local_at_the_head_of_a_window_is_the_plain_error() {
    // `z` is bound on one branch only; `z + 1` is a fused window whose
    // head is the failing read.
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![
            iff(field(payload(), "bind"), vec![let_("z", lit(5i64))], vec![]),
            let_("y", add(local("z"), lit(1i64))),
            respond(local("y")),
        ],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let input = |bind: bool| Value::map([("bind", Value::Bool(bind))]);
    let label = "unbound window head";
    let (out, bytes) = server_run(
        &program,
        &[input(true), input(true)],
        &ServerConfig::default(),
        label,
    );
    let unbound = [input(false), input(false)];
    let message = server_outcome(&program, &unbound, label).expect_err("z is unbound");
    assert!(message.starts_with("unknown local"), "{message}");
    let replayed = audit_points(
        &program,
        &with_inputs(&out.trace, &unbound),
        &bytes,
        IsolationLevel::Serializable,
        &matrix(),
        label,
    );
    assert_eq!(
        replayed,
        Err(RejectReason::ReexecError {
            message: "unknown local z".into()
        })
    );
}

#[test]
fn dividing_payload_fields_never_panics() {
    // `a / b` and `a % b` straight from the request: the quotient of
    // `i64::MIN / -1` does not fit, and a bare `/` panics on it in
    // release builds too — the server, the sequential baseline and
    // (behind `catch_unwind`) the audit all went down with it.
    let mut b = ProgramBuilder::new();
    b.function(
        "handle",
        vec![respond(listv(vec![
            bin(BinOp::Div, field(payload(), "a"), field(payload(), "b")),
            bin(BinOp::Mod, field(payload(), "a"), field(payload(), "b")),
        ]))],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let input = |a: i64, b: i64| Value::map([("a", Value::int(a)), ("b", Value::int(b))]);
    let label = "payload division";
    let honest = [input(i64::MIN, -1), input(7, 2), input(i64::MIN, -1)];
    let (out, bytes) = server_run(&program, &honest, &ServerConfig::default(), label);
    assert_eq!(
        out.trace.output_of(kem::RequestId(0)),
        Some(&Value::list([Value::int(i64::MIN), Value::int(0)]))
    );
    assert_eq!(
        out.trace.output_of(kem::RequestId(1)),
        Some(&Value::list([Value::int(3), Value::int(1)]))
    );
    let audit = |trace: &Trace| {
        audit_points(
            &program,
            trace,
            &bytes,
            IsolationLevel::Serializable,
            &matrix(),
            label,
        )
    };
    let verdict = audit(&out.trace);
    assert!(verdict.is_ok(), "honest division rejected: {verdict:?}");
    // `7 / 0` is the typed error on the server and in every replay.
    let by_zero = [input(i64::MIN, -1), input(7, 0), input(i64::MIN, -1)];
    assert_eq!(
        server_outcome(&program, &by_zero, label),
        Err("division by zero".to_string())
    );
    assert_eq!(
        audit(&with_inputs(&out.trace, &by_zero)),
        Err(RejectReason::ReexecError {
            message: "division by zero".into()
        })
    );
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
