//! The interpreter's outcomes, pinned across commits.
//!
//! Handlers run on one interpreter, the bytecode VM (DESIGN.md §11): over
//! single values in the server, over multivalues in the verifier. What
//! the pair does on a corpus — generated programs (a seeded grammar over
//! every non-transactional opcode), container-heavy ones, every fused
//! window shape under every operator with hostile operands at every
//! position, the paper applications at every isolation level
//! (transactions included) — is recorded in `tests/interp_pins.tsv`: per
//! case what the server produced or the error it stopped with, and what
//! the audit decided and spent. The table was recorded while the
//! tree-walking interpreters the VM replaced still existed and this suite
//! asserted, case by case, that all three agreed; each test re-derives
//! its section and must reproduce it byte for byte. Every audit also runs
//! at every point of the shared matrix (`tests/common`). Programs nobody
//! recorded are `tests/reference_eval.rs`'s.
//!
//! The table is data, not expectation: when a change is *meant* to move
//! a row, replace the section's rows with the
//! `interp_pins.<section>.actual.tsv` the failing test writes.

mod common;

use apps::App;
use common::{audit_points, bin, matrix, matrix_with, Outcome, Point, Rng};
use karousos::{
    decode_advice, run_instrumented_server_encoded, Auditor, CollectorMode, Limits, Mutator,
    RejectReason, WireMutator,
};
use kem::dsl::*;
use kem::{
    BinOp, Expr, Fnv, Program, ProgramBuilder, RunOutput, SchedPolicy, ServerConfig, Stmt, Trace,
    TraceEvent, Value,
};
use kvstore::IsolationLevel::{self, Serializable};
use workload::{Experiment, Mix};

/// The rows one test contributes to `tests/interp_pins.tsv`.
struct Pins {
    section: &'static str,
    rows: String,
}

impl Pins {
    fn new(section: &'static str) -> Self {
        let rows = String::new();
        Pins { section, rows }
    }

    fn row(&mut self, case: &str, columns: std::fmt::Arguments<'_>) {
        self.rows
            .push_str(&format!("{}\t{case}\t{columns}\n", self.section));
    }

    /// Runs the instrumented server and pins what it did — scheduler
    /// steps, activations, an FNV of the trace (requests and responses,
    /// in the order they happened) and of the advice it decodes to (its
    /// `Debug` rendering: the advice, not its wire encoding) — or the
    /// error it stopped with.
    fn serve(
        &mut self,
        case: &str,
        program: &Program,
        inputs: &[Value],
        cfg: &ServerConfig,
    ) -> Result<(RunOutput, Vec<u8>), String> {
        let served = run_instrumented_server_encoded(program, inputs, cfg, CollectorMode::Karousos)
            .map_err(|e| e.message);
        match &served {
            Ok((out, bytes)) => {
                let (mut trace, mut advice) = (Fnv::new(), Fnv::new());
                for ev in out.trace.events() {
                    let (kind, value) = match ev {
                        TraceEvent::Request { input, .. } => (0, input),
                        TraceEvent::Response { output, .. } => (1, output),
                    };
                    for word in [kind, ev.rid().0, value.digest()] {
                        trace.write_u64(word);
                    }
                }
                let decoded = decode_advice(bytes).expect("honest advice decodes");
                advice.write(format!("{decoded:?}").as_bytes());
                let (steps, acts) = (out.steps, out.activations);
                let (trace, advice) = (trace.finish(), advice.finish());
                self.row(
                    case,
                    format_args!(
                        "serve\tok\tsteps={steps} activations={acts} trace={trace:016x} \
                         advice={advice:016x}"
                    ),
                );
            }
            Err(message) => self.row(case, format_args!("serve\terror\t{message}")),
        }
        served
    }

    /// Audits at every one of `points`, which must agree, and pins the
    /// outcome followed by the cost ledger of the first point's audit,
    /// summed over its groups.
    fn audit_at(
        &mut self,
        case: &str,
        program: &Program,
        trace: &Trace,
        bytes: &[u8],
        isolation: IsolationLevel,
        points: &[Point],
    ) -> Outcome {
        let outcome = audit_points(program, trace, bytes, isolation, points, case);
        let auditor = Auditor {
            obs: obs::Obs::enabled(),
            ..points[0].auditor()
        };
        let _ = auditor.audit(program, trace, bytes, isolation);
        let groups = auditor.obs.snapshot().ledger.groups;
        let sum = |col: fn(&obs::GroupCost) -> u64| groups.iter().map(col).sum::<u64>();
        self.row(
            case,
            format_args!(
                "audit\t{}\tfuel={} uniform_ops={} expanded_ops={} bytecode_ops={} \
                 fused_ops={} fused_fuel={}",
                common::verdict_columns(&outcome),
                sum(|g| g.fuel),
                sum(|g| g.uniform_ops),
                sum(|g| g.expanded_ops),
                sum(|g| g.bytecode_ops),
                sum(|g| g.fused_ops),
                sum(|g| g.fused_fuel)
            ),
        );
        outcome
    }

    /// [`Pins::audit_at`] over the standard matrix, serializable.
    fn audit(&mut self, case: &str, program: &Program, trace: &Trace, bytes: &[u8]) -> Outcome {
        self.audit_at(case, program, trace, bytes, Serializable, &matrix())
    }

    /// [`Pins::serve`] and [`Pins::audit`] of a run that must complete
    /// and be accepted.
    fn honest(
        &mut self,
        case: &str,
        program: &Program,
        inputs: &[Value],
        cfg: &ServerConfig,
    ) -> (RunOutput, Vec<u8>) {
        let (out, bytes) = self.serve(case, program, inputs, cfg).expect(case);
        let verdict = self.audit(case, program, &out.trace, &bytes);
        assert!(verdict.is_ok(), "{case}: honest run rejected: {verdict:?}");
        (out, bytes)
    }

    /// Holds the rows against this section of the committed table.
    #[track_caller]
    fn check(self) {
        let mine = |row: &&str| row.split('\t').next() == Some(self.section);
        let table = include_str!("interp_pins.tsv").lines().filter(mine);
        let pinned: String = table.flat_map(|row| [row, "\n"]).collect();
        common::assert_pinned(
            &format!("interp_pins.{}", self.section),
            &pinned,
            &self.rows,
        );
    }
}

// ---------------------------------------------------------------------
// Generated programs: a seeded grammar over the non-transactional
// surface (arithmetic, collections, control flow, shared state, emit,
// listener counts, nondet). Programs are correct by construction —
// ints where arithmetic happens, in-range literal indexing — so every
// honest run completes and the audit must ACCEPT.
// ---------------------------------------------------------------------

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

#[test]
fn generated_programs_replay_identically() {
    // The grammar reaches every opcode within a few dozen draws.
    let mut pins = Pins::new("generated");
    for case in 0..24u64 {
        let (seed, requests) = (case * 397 + 11, 4 + case as usize % 12);
        let inputs: Vec<Value> = (0..requests)
            .map(|i| Value::map([("k", Value::int(i as i64 % 5))]))
            .collect();
        let cfg = ServerConfig {
            concurrency: 3,
            policy: SchedPolicy::Random { seed: case * 41 },
            ..Default::default()
        };
        let label = format!("seed={seed} requests={requests}");
        pins.honest(&label, &gen_program(seed), &inputs, &cfg);
    }
    pins.check();
}

// ---------------------------------------------------------------------
// Fused windows (`kem::bytecode`, "Operand fusion"): every shape the
// pass rewrites, under every operator, with hostile operands at every
// position. The verifier's VM runs a window in place only on collapsed
// integers the operator is defined on; everything else must fall
// through to the plain ops — per-member values, type errors, `/ 0`,
// unbound locals, divergence. Where the hostile input makes the server
// fail, the audit side is reached by replaying an honest run's advice
// against a trace carrying the hostile inputs (what a lying server would
// have to get past).
// ---------------------------------------------------------------------

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

#[test]
fn fused_windows_with_hostile_operands_replay_identically() {
    use BinOp::*;
    let mut pins = Pins::new("windows");
    let extremes = [i64::MIN, 7, 0, -1, i64::MAX, 7];
    let cfg = ServerConfig::default();
    for op in [Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
        for k in [0, -1, 3, i64::MAX] {
            let program = window_program(op, k);
            let label = |what: &str| format!("x {op:?} {k}, {what}");
            let undefined = matches!(op, Div | Mod) && k == 0;

            // Per-member operands, first position and destination: one
            // group (same control flow), every `x` and old `y` distinct.
            let mixed: Vec<Value> = extremes
                .iter()
                .enumerate()
                .map(|(i, a)| window_input(Value::int(*a), i as i64, !undefined))
                .collect();
            pins.honest(&label("per-member operands"), &program, &mixed, &cfg);

            // Collapsed operands at the overflow corner (`i64::MIN / -1`,
            // wrapping `*`): the windows run in place.
            let min = |go| window_input(Value::int(i64::MIN), 5, go);
            let case = label("collapsed operands");
            let (out, bytes) = pins.honest(&case, &program, &vec![min(!undefined); 3], &cfg);
            let in_place = !pins.rows.ends_with("fused_fuel=0\n");
            assert!(undefined || in_place, "{case}: no window ran in place");

            // Hostile operands: the operator undefined on them (`x / 0`),
            // then a string where the window wants its integer, in every
            // member (collapsed) and in one (per-member).
            let strings = |n| {
                let mut inputs = vec![min(true); 3];
                inputs[..n].fill(window_input(Value::str("s"), 5, true));
                inputs
            };
            let hostile = [
                ("x op 0", vec![min(true); 3]),
                ("3 string operands", strings(3)),
                ("1 string operands", strings(1)),
            ];
            for (what, inputs) in &hostile[usize::from(!undefined)..] {
                let case = label(what);
                let served = pins.serve(&case, &program, inputs, &cfg);
                let replayed =
                    pins.audit(&case, &program, &with_inputs(&out.trace, inputs), &bytes);
                // `x / 0`, `Str + Int`, `Str < Int`, …: the server stops
                // with the typed error and so does every replay. (`==`,
                // `!=`, `&&`, `||` take any operands; the replay then
                // answers differently from the trace.)
                assert!(replayed.is_err(), "{case}: {replayed:?}");
                assert!(served.is_err() || *what != "x op 0", "{case}: served");
                if let Err(message) = served {
                    assert_eq!(replayed, Err(RejectReason::ReexecError { message }));
                }
            }
        }
    }
    pins.check();
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
    let mut pins = Pins::new("loop-diverges");
    let program = counting_loop_program();
    let input = |a: i64| Value::map([("a", Value::int(a))]);
    // Two groups: four requests looping three times, two looping twice.
    let honest: Vec<Value> = [0, 0, 1, 0, 1, 0].map(input).to_vec();
    let (out, bytes) = pins.honest("honest", &program, &honest, &ServerConfig::default());
    // Counted as the plain ops would be: a trip is 17 ops and 15 units,
    // all but its `Jump` inside windows; the exit test 4 ops and 3
    // units; 11 ops and 10 units outside the loop. Three trips in one
    // group, two in the other.
    let (fuel, ops, fused_ops, fused_fuel) = (58 + 43, 66 + 49, 52 + 36, 48 + 33);
    assert!(pins.rows.ends_with(&format!(
        "groups=2 fuel={fuel} nodes=24 edges=35\tfuel={fuel} uniform_ops=0 expanded_ops=0 \
         bytecode_ops={ops} fused_ops={fused_ops} fused_fuel={fused_fuel}\n"
    )));
    // One member of the first group starts further along: the condition
    // is per-member, the window declines, and the plain `LoopBranch`
    // finds the members disagreeing after two trips.
    let mut split = honest.clone();
    split[3] = input(1);
    let trace = with_inputs(&out.trace, &split);
    assert_eq!(
        pins.audit("loop condition diverges", &program, &trace, &bytes),
        Err(RejectReason::Divergence {
            context: "while condition".into()
        })
    );
    // The whole group loops once less than the server claimed: still
    // collapsed, still fused, and no longer the traced response.
    let trace = with_inputs(&out.trace, &[1; 6].map(input));
    let short = pins.audit("loop runs short", &program, &trace, &bytes);
    assert!(short.is_err(), "{short:?}");
    pins.check();
}

/// A one-function program.
fn handler(body: Vec<Stmt>) -> Program {
    let mut b = ProgramBuilder::new();
    b.function("handle", body);
    b.request_handler("handle");
    b.build().expect("program builds")
}

#[test]
fn a_fused_loop_still_counts_against_the_iteration_limit() {
    // The trip counter lives in `LoopBranch`, the tail of the window
    // that decides this loop; with fuel unmetered it is what stops it.
    let mut pins = Pins::new("loop-limit");
    let program = handler(vec![
        let_("i", lit(1i64)),
        iff(field(payload(), "spin"), vec![let_("i", lit(0i64))], vec![]),
        while_(eq(local("i"), lit(0i64)), vec![]),
        respond(local("i")),
    ]);
    let input = |spin: bool| Value::map([("spin", Value::Bool(spin))]);
    let (out, bytes) = pins
        .serve(
            "honest",
            &program,
            &[input(false)],
            &ServerConfig::default(),
        )
        .expect("nothing spins");
    let unmetered = Limits {
        replay_fuel: u64::MAX,
        ..Limits::default()
    };
    let trace = with_inputs(&out.trace, &[input(true)]);
    let points = matrix_with(&[1], unmetered);
    assert_eq!(
        pins.audit_at("spins", &program, &trace, &bytes, Serializable, &points),
        Err(RejectReason::ReexecError {
            message: "while loop exceeded iteration limit".into()
        })
    );
    pins.check();
}

#[test]
fn an_unbound_local_at_the_head_of_a_window_is_the_plain_error() {
    // `z` is bound on one branch only; `z + 1` is a fused window whose
    // head is the failing read.
    let mut pins = Pins::new("unbound-head");
    let program = handler(vec![
        iff(field(payload(), "bind"), vec![let_("z", lit(5i64))], vec![]),
        let_("y", add(local("z"), lit(1i64))),
        respond(local("y")),
    ]);
    let input = |bind: bool| Value::map([("bind", Value::Bool(bind))]);
    let cfg = ServerConfig::default();
    let (out, bytes) = pins
        .serve("bound", &program, &[input(true), input(true)], &cfg)
        .expect("z is bound");
    let unbound = [input(false), input(false)];
    let message = pins
        .serve("unbound", &program, &unbound, &cfg)
        .expect_err("z is unbound");
    assert!(message.starts_with("unknown local"), "{message}");
    let trace = with_inputs(&out.trace, &unbound);
    assert_eq!(
        pins.audit("unbound", &program, &trace, &bytes),
        Err(RejectReason::ReexecError {
            message: "unknown local z".into()
        })
    );
    pins.check();
}

#[test]
fn dividing_payload_fields_never_panics() {
    // `a / b` and `a % b` straight from the request: the quotient of
    // `i64::MIN / -1` does not fit, and a bare `/` panics on it in
    // release builds too — the server, the sequential baseline and
    // (behind `catch_unwind`) the audit all went down with it.
    let mut pins = Pins::new("division");
    let program = handler(vec![respond(listv(vec![
        bin(BinOp::Div, field(payload(), "a"), field(payload(), "b")),
        bin(BinOp::Mod, field(payload(), "a"), field(payload(), "b")),
    ]))]);
    let input = |a: i64, b: i64| Value::map([("a", Value::int(a)), ("b", Value::int(b))]);
    let cfg = ServerConfig::default();
    let honest = [input(i64::MIN, -1), input(7, 2), input(i64::MIN, -1)];
    let (out, bytes) = pins.honest("honest", &program, &honest, &cfg);
    let answers = [[i64::MIN, 0], [3, 1]].map(|pair| Value::list(pair.map(Value::int)));
    assert_eq!(out.trace.output_of(kem::RequestId(0)), Some(&answers[0]));
    assert_eq!(out.trace.output_of(kem::RequestId(1)), Some(&answers[1]));
    // `7 / 0` is the typed error on the server and in every replay.
    let by_zero = [input(i64::MIN, -1), input(7, 0), input(i64::MIN, -1)];
    let served = pins.serve("7 / 0", &program, &by_zero, &cfg);
    assert_eq!(served.err().as_deref(), Some("division by zero"));
    let trace = with_inputs(&out.trace, &by_zero);
    assert_eq!(
        pins.audit("7 / 0", &program, &trace, &bytes),
        Err(RejectReason::ReexecError {
            message: "division by zero".into()
        })
    );
    pins.check();
}

// ---------------------------------------------------------------------
// Integer runs (`kem::bytecode`, "Operand fusion"): fused windows
// chained through stores, jumps and loop back-edges. A run may stop at
// any window — an operand that is not one integer, `/ 0`, a bool where
// the integer goes, fuel that does not cover the window — and the plain
// ops take over there, so every way of stopping is exercised here, on
// the server and in replay, with the counts and the fuel unit at which
// a budget runs out pinned.
// ---------------------------------------------------------------------

/// Nested loops of windows, a comparison stored and read back as a
/// window's operand, a local computed from a payload field entering a
/// chain, and branches whose jumps land on the window after a store.
fn nested_runs_program() -> Program {
    handler(vec![
        // A stack operand at the head, then its local read by the next
        // window: per-member when `a` differs between members.
        let_("q", mul(field(payload(), "a"), lit(2i64))),
        let_("r", add(local("q"), lit(1i64))),
        let_("acc", field(payload(), "c")),
        let_("i", field(payload(), "i0")),
        let_("big", lit(false)),
        let_("both", lit(false)),
        while_(
            lt(local("i"), lit(3i64)),
            vec![
                let_("j", lit(0i64)),
                while_(
                    lt(local("j"), lit(2i64)),
                    vec![
                        let_(
                            "acc",
                            modulo(add(mul(local("acc"), lit(7i64)), lit(5i64)), lit(1009i64)),
                        ),
                        let_("j", add(local("j"), lit(1i64))),
                    ],
                ),
                let_("big", bin(BinOp::Gt, local("acc"), lit(500i64))),
                // A bool where the window wants its integer.
                let_("both", and(local("big"), lit(1i64))),
                // Both arms jump to, or fall into, the window after them.
                iff(
                    local("big"),
                    vec![let_("r", add(local("r"), lit(3i64)))],
                    vec![let_("r", sub(local("r"), lit(1i64)))],
                ),
                let_("r", mul(local("r"), lit(5i64))),
                let_("r", modulo(local("r"), lit(10007i64))),
                iff(local("both"), vec![], vec![]),
                let_("i", add(local("i"), lit(1i64))),
            ],
        ),
        respond(listv(vec![
            local("acc"),
            local("i"),
            local("big"),
            local("both"),
            local("q"),
            local("r"),
        ])),
    ])
}

/// A loop whose fourth window divides by zero on the trip `payload.d`
/// names and whose fifth takes a remainder by zero on trip `payload.m`.
fn zero_divisor_program() -> Program {
    handler(vec![
        let_("i", lit(0i64)),
        let_("acc", field(payload(), "a")),
        while_(
            lt(local("i"), lit(4i64)),
            vec![
                let_("i", add(local("i"), lit(1i64))),
                iff(
                    eq(local("i"), field(payload(), "d")),
                    vec![
                        let_("t", mul(local("i"), lit(2i64))),
                        let_(
                            "acc",
                            bin(BinOp::Div, mul(local("acc"), lit(3i64)), lit(0i64)),
                        ),
                    ],
                    vec![],
                ),
                iff(
                    eq(local("i"), field(payload(), "m")),
                    vec![
                        let_("t", mul(local("i"), lit(2i64))),
                        let_("acc", modulo(mul(local("acc"), lit(3i64)), lit(0i64))),
                    ],
                    vec![],
                ),
                let_("acc", add(mul(local("acc"), lit(3i64)), lit(1i64))),
            ],
        ),
        respond(local("acc")),
    ])
}

#[test]
fn integer_runs_stop_where_the_plain_ops_would_differ() {
    let mut pins = Pins::new("int-runs");
    let cfg = ServerConfig::default();
    let program = nested_runs_program();
    let input = |a: i64, i0: i64| {
        let c = Value::int(16);
        Value::map([("a", Value::int(a)), ("c", c), ("i0", Value::int(i0))])
    };
    // Collapsed operands in each group, the groups looping 3, 2 and 0
    // times; then the same trip counts with `a`, and so `q` and `r`,
    // per member.
    let collapsed = [0, 1, 0, 3, 1, 0].map(|i0| input(11, i0)).to_vec();
    pins.honest("nested, collapsed", &program, &collapsed, &cfg);
    let per_member: Vec<Value> = [0, 1, 0, 3, 1, 0]
        .iter()
        .enumerate()
        .map(|(n, &i0)| input(11 + n as i64, i0))
        .collect();
    pins.honest("nested, per-member a", &program, &per_member, &cfg);
    // A string where the inner loop's chain wants its integer, on the
    // server and against the honest advice.
    let (out, bytes) = pins.honest("nested, twins", &program, &[input(4, 0), input(4, 0)], &cfg);
    let string = |i0: i64| {
        let a = Value::int(4);
        Value::map([("a", a), ("c", Value::str("s")), ("i0", Value::int(i0))])
    };
    let strings = [string(0), string(0)];
    let served = pins.serve("nested, string c", &program, &strings, &cfg);
    let message = served.expect_err("a string times 7 fails");
    let trace = with_inputs(&out.trace, &strings);
    let replayed = pins.audit("nested, string c", &program, &trace, &bytes);
    assert_eq!(replayed, Err(RejectReason::ReexecError { message }));

    // `/ 0` and `% 0` met on the second and third trips, partway along
    // the chain of the branch they sit in.
    let program = zero_divisor_program();
    let input = |d: i64, m: i64| {
        Value::map([
            ("a", Value::int(2)),
            ("d", Value::int(d)),
            ("m", Value::int(m)),
        ])
    };
    let (out, bytes) = pins.honest("zero divisor, never", &program, &vec![input(9, 9); 3], &cfg);
    for (case, d, m, message) in [
        ("/ 0 on trip 2", 2, 9, "division by zero"),
        ("% 0 on trip 3", 9, 3, "remainder by zero"),
    ] {
        let hostile = [input(9, 9), input(d, m), input(9, 9)];
        let served = pins.serve(case, &program, &hostile, &cfg);
        assert_eq!(served.err().as_deref(), Some(message), "{case}");
        let hostile = vec![input(d, m); 3];
        let trace = with_inputs(&out.trace, &hostile);
        assert_eq!(
            pins.audit(case, &program, &trace, &bytes),
            Err(RejectReason::ReexecError {
                message: message.into()
            }),
            "{case}"
        );
    }
    pins.check();
}

#[test]
fn integer_runs_run_out_of_fuel_at_the_plain_ops_unit() {
    let program = handler(apps::middleware::with_middleware(
        2,
        vec![respond(local("mw_acc"))],
    ));
    let inputs = [Value::map([("op", Value::str("get"))])];
    fuel_sweep(Pins::new("int-runs-fuel"), &program, &inputs);
}

#[test]
fn nested_integer_runs_run_out_of_fuel_at_the_plain_ops_unit() {
    // Two cyclic runs, one inside the other, with stores between them
    // and a bool register: every trip boundary and every store is a
    // place a budget can run out.
    let inputs = [Value::map([
        ("a", Value::int(11)),
        ("c", Value::int(16)),
        ("i0", Value::int(0)),
    ])];
    fuel_sweep(
        Pins::new("int-runs-fuel-nested"),
        &nested_runs_program(),
        &inputs,
    );
}

/// Every budget from nothing to past the whole bill, on the server
/// (`fuel_limit`, the one request `inputs` holds) and in replay
/// (`replay_fuel`, one group of two of it): the verdict, the spend and
/// the op counts at each.
fn fuel_sweep(mut pins: Pins, program: &Program, inputs: &[Value; 1]) {
    let (out, bytes) = pins
        .serve("unmetered", program, inputs, &ServerConfig::default())
        .expect("the program completes");
    let bill = match pins.audit("unmetered", program, &out.trace, &bytes) {
        Ok(accepted) => accepted.reexec.fuel_spent,
        Err(reason) => panic!("honest run rejected: {reason:?}"),
    };
    for fuel_limit in 0..=bill + 1 {
        let cfg = ServerConfig {
            fuel_limit,
            ..ServerConfig::default()
        };
        let _ = pins.serve(&format!("fuel_limit={fuel_limit}"), program, inputs, &cfg);
    }
    let twins = [inputs[0].clone(), inputs[0].clone()];
    let (out, bytes) = pins
        .serve("twins", program, &twins, &ServerConfig::default())
        .expect("the program completes");
    for replay_fuel in 0..=bill + 1 {
        let limits = Limits {
            replay_fuel,
            ..Limits::default()
        };
        let case = format!("replay_fuel={replay_fuel}");
        let points = matrix_with(&[1], limits);
        let _ = pins.audit_at(&case, program, &out.trace, &bytes, Serializable, &points);
    }
    pins.check();
}

// ---------------------------------------------------------------------
// Container-heavy programs: the persistent map/list representation
// (DESIGN.md §12) must be invisible to the audit. These programs are
// built to stress its structural-sharing machinery specifically —
// shared maps grown well past the 16-entry B-tree leaf width, a hot
// key rewritten repeatedly (path-copying over a multi-level tree),
// lists pushed across chunk boundaries, removals that thin interior
// nodes, and deeply nested literals read back out through field/index
// chains.
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
    let mut pins = Pins::new("containers");
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
        let label = format!("seed={seed}");
        let (out, honest_bytes) = pins.honest(&label, &program, &inputs, &cfg);
        // Hostile leg: every mutator over this advice — whose values are
        // dominated by multi-level maps and chunked lists — is judged
        // alike at every point of the matrix.
        let advice = decode_advice(&honest_bytes).expect("honest advice decodes");
        let structured = Mutator::ALL
            .iter()
            .flat_map(|m| (0..2).map(|s| m.apply(&advice, s)));
        let wire = WireMutator::ALL
            .iter()
            .flat_map(|m| (0..2).map(|s| m.apply(&honest_bytes, s)));
        for mutation in structured.chain(wire).flatten() {
            let label = format!("{} on container-heavy seed={seed}", mutation.mutator);
            let points = matrix();
            let _ = audit_points(
                &program,
                &out.trace,
                &mutation.bytes,
                Serializable,
                &points,
                &label,
            );
        }
    }
    pins.check();
}

// ---------------------------------------------------------------------
// Paper applications: honest runs at every isolation level (the wiki
// workload is transaction-heavy, so the tx opcodes replay here).
// ---------------------------------------------------------------------

#[test]
fn honest_apps_replay_identically_across_the_matrix() {
    let mut pins = Pins::new("apps");
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
            let label = format!("{} at {isolation} seed=61", app.name());
            let (out, bytes) = pins
                .serve(&label, &program, &exp.inputs(), &exp.server_config())
                .expect(&label);
            let verdict = pins.audit_at(&label, &program, &out.trace, &bytes, isolation, &matrix());
            assert!(verdict.is_ok(), "{label}: honest run rejected: {verdict:?}");
        }
    }
    pins.check();
}
