//! The interpreter against a reference evaluator, on programs nobody
//! recorded.
//!
//! `tests/interp_pins.tsv` pins what the bytecode VM does on a fixed
//! corpus. This suite draws fresh programs — one `proptest` strategy per
//! class of `kem::bytecode::Op`: arithmetic, compare, container, control,
//! shared-state, event (the transactional ops are the paper apps', in the
//! pinned corpus) — and checks the server's VM against [`Reference`], a
//! single-value evaluator of the public `kem::{Expr, Stmt}` that shares
//! nothing with `lower`, `fuse` or either dispatch loop: its own
//! evaluation order, locals, loops, operation numbering and step count.
//! Only the scalar operator semantics (`kem::eval_*`) are common. Server
//! and reference must agree on every response, or on the error the run
//! stopped with, and on scheduler steps, activations and fuel. A run that
//! completes is then audited: the grouped audit (multivalue VM) must
//! ACCEPT, and so must `Auditor::ooo_audit` (Lemma 3; singleton groups,
//! so the same VM on single values), at the reference's step count.

mod common;

use std::collections::{BTreeMap, HashMap, VecDeque};

use common::{bin, Rng};

use karousos::{encode_advice, run_instrumented_server, Auditor, CollectorMode};
use kem::dsl::*;
use kem::{
    BinOp, ExecHooks, Expr, FunctionId, HandlerId, OpRef, Program, ProgramBuilder, RequestId,
    RuntimeError, SchedPolicy, ServerConfig, Stmt, Value,
};
use kvstore::IsolationLevel::Serializable;
use proptest::prelude::*;

/// What a completed run produced: each request's response, scheduler
/// steps (one per admission, one per event dispatched), activations, and
/// fuel (one unit per statement executed and per expression node
/// evaluated).
#[derive(Debug, Default, PartialEq)]
struct Ran {
    responses: Vec<Value>,
    steps: u64,
    activations: u64,
    fuel: u64,
}

/// The reference evaluator: a `SchedPolicy::Fifo`, one-request-at-a-time
/// server over the source program.
struct Reference<'p> {
    program: &'p Program,
    /// The values the run's nondeterministic operations drew.
    nondet: &'p BTreeMap<OpRef, Value>,
    cfg: &'p ServerConfig,
    shared: Vec<Value>,
    /// The running request's registrations, oldest first.
    regs: Vec<(String, u32)>,
    /// Emitted events not yet dispatched, each as the activations
    /// (handler, function, payload) it runs.
    pending: VecDeque<Vec<(HandlerId, u32, Value)>>,
    response: Option<Value>,
    ran: Ran,
}

/// One activation: whose it is, the operations it has issued, its locals
/// (function-scoped, by name).
struct Act {
    rid: RequestId,
    hid: HandlerId,
    opnum: u32,
    locals: HashMap<String, Value>,
}

impl Act {
    fn bind(&mut self, name: &str, v: Value) {
        self.locals.insert(name.to_string(), v);
    }
}

impl<'p> Reference<'p> {
    fn run(
        program: &'p Program,
        inputs: &[Value],
        nondet: &'p BTreeMap<OpRef, Value>,
        cfg: &'p ServerConfig,
    ) -> Result<Ran, String> {
        let mut m = Reference {
            program,
            nondet,
            cfg,
            shared: program.vars.iter().map(|v| v.init.clone()).collect(),
            regs: Vec::new(),
            pending: VecDeque::new(),
            response: None,
            ran: Ran::default(),
        };
        for (i, input) in inputs.iter().enumerate() {
            let rid = RequestId(i as u64);
            m.regs.clear();
            m.ran.steps += 1;
            let roots = program.request_handlers.iter();
            let roots = roots.map(|&f| (HandlerId::root(FunctionId(f)), f, input.clone()));
            m.pending.push_back(roots.collect());
            while let Some(event) = m.pending.pop_front() {
                m.ran.steps += 1;
                for (hid, f, payload) in event {
                    m.ran.activations += 1;
                    let locals = HashMap::from([("payload".to_string(), payload)]);
                    let opnum = 0;
                    let mut act = Act {
                        rid,
                        hid,
                        opnum,
                        locals,
                    };
                    m.block(&mut act, &program.functions[f as usize].body)?;
                }
            }
            let Some(response) = m.response.take() else {
                return Err("1 request(s) never respond and no work is pending".into());
            };
            m.ran.responses.push(response);
        }
        Ok(m.ran)
    }

    fn tick(&mut self) -> Result<(), String> {
        self.ran.fuel += 1;
        if self.ran.fuel > self.cfg.fuel_limit {
            return Err("interpreter fuel budget exhausted".into());
        }
        Ok(())
    }

    /// The slot of shared variable `name`; touching a loggable one is an
    /// operation.
    fn var(&self, act: &mut Act, name: &str) -> usize {
        let id = self.program.var_id(name).expect("the builder checked");
        act.opnum += u32::from(self.program.var(id).loggable);
        id.0 as usize
    }

    fn function(&self, name: &str) -> u32 {
        let id = self.program.function_id(name);
        id.expect("the builder checked").0
    }

    /// Who an `emit(event)` activates: global registrations, then the
    /// request's own, each in registration order.
    fn listeners(&self, event: &str) -> Vec<u32> {
        let all = self.program.global_registrations.iter().chain(&self.regs);
        all.filter(|(e, _)| e == event).map(|(_, f)| *f).collect()
    }

    fn block(&mut self, act: &mut Act, stmts: &[Stmt]) -> Result<(), String> {
        stmts.iter().try_for_each(|s| self.stmt(act, s))
    }

    fn stmt(&mut self, act: &mut Act, s: &Stmt) -> Result<(), String> {
        self.tick()?;
        match s {
            Stmt::Let(name, e) => {
                let v = self.eval(act, e)?;
                act.bind(name, v);
            }
            Stmt::SharedWrite(name, e) => {
                let v = self.eval(act, e)?;
                let slot = self.var(act, name);
                self.shared[slot] = v;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = self.eval(act, cond)?.truthy();
                self.block(act, if taken { then_branch } else { else_branch })?;
            }
            Stmt::While { cond, body } => {
                let mut trips = 0;
                while self.eval(act, cond)?.truthy() {
                    trips += 1;
                    if trips > self.cfg.loop_limit {
                        return Err("while loop exceeded iteration limit".into());
                    }
                    self.block(act, body)?;
                }
            }
            Stmt::ForEach { var, list, body } => {
                let list = self.eval(act, list)?;
                let Some(items) = list.as_list() else {
                    return Err(RuntimeError::type_error("for-each", &list).message);
                };
                for item in items.iter() {
                    act.bind(var, item.clone());
                    self.block(act, body)?;
                }
            }
            Stmt::Emit { event, payload } => {
                let v = self.eval(act, payload)?;
                act.opnum += 1;
                let child = |f| HandlerId::child(&act.hid, FunctionId(f), act.opnum);
                let listeners = self.listeners(event).into_iter();
                let activated: Vec<_> = listeners.map(|f| (child(f), f, v.clone())).collect();
                if !activated.is_empty() {
                    self.pending.push_back(activated);
                }
            }
            Stmt::Register { event, function } => {
                act.opnum += 1;
                let f = self.function(function);
                if self.listeners(event).contains(&f) {
                    let what = format!("function {function:?} already registered");
                    return Err(format!("{what} for event {event:?}"));
                }
                self.regs.push((event.clone(), f));
            }
            Stmt::Unregister { event, function } => {
                act.opnum += 1;
                let f = self.function(function);
                self.regs.retain(|(e, g)| !(e == event && *g == f));
            }
            Stmt::Respond(e) => {
                let v = self.eval(act, e)?;
                if self.response.replace(v).is_some() {
                    return Err(format!("request {} responded twice", act.rid));
                }
            }
            Stmt::ListenerCount { var, event } => {
                act.opnum += 1;
                act.bind(var, Value::Int(self.listeners(event).len() as i64));
            }
            Stmt::Nondet { var, .. } => {
                act.opnum += 1;
                let at = OpRef::new(act.rid, act.hid.clone(), act.opnum);
                let drawn = self.nondet.get(&at).ok_or("no value drawn here")?;
                act.bind(var, drawn.clone());
            }
            tx => return Err(format!("transactions are the apps' to cover: {tx:?}")),
        }
        Ok(())
    }

    /// Two operands, always both, left first: `And` / `Or` do not
    /// short-circuit (the right one may be an operation).
    fn both(&mut self, act: &mut Act, a: &Expr, b: &Expr) -> Result<(Value, Value), String> {
        Ok((self.eval(act, a)?, self.eval(act, b)?))
    }

    fn eval(&mut self, act: &mut Act, e: &Expr) -> Result<Value, String> {
        self.tick()?;
        let r = match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Local(name) => match act.locals.get(name) {
                Some(v) => Ok(v.clone()),
                None => return Err(format!("unknown local {name:?}")),
            },
            Expr::SharedRead(name) => Ok(self.shared[self.var(act, name)].clone()),
            Expr::Bin(op, a, b) => {
                let (a, b) = self.both(act, a, b)?;
                kem::eval_binop(*op, &a, &b)
            }
            Expr::Not(a) => Ok(Value::Bool(!self.eval(act, a)?.truthy())),
            Expr::Field(a, name) => {
                let a = self.eval(act, a)?;
                Ok(a.field(name).cloned().unwrap_or(Value::Null))
            }
            Expr::Index(a, i) => {
                let (a, i) = self.both(act, a, i)?;
                kem::eval_index(&a, &i)
            }
            Expr::Len(a) => kem::eval_len(&self.eval(act, a)?),
            Expr::Contains(a, b) => {
                let (a, b) = self.both(act, a, b)?;
                kem::eval_contains(&a, &b)
            }
            Expr::ListLit(items) => {
                let items: Result<Vec<_>, _> = items.iter().map(|e| self.eval(act, e)).collect();
                Ok(Value::list(items?))
            }
            Expr::MapLit(pairs) => {
                let mut entries = Vec::new();
                for (k, e) in pairs {
                    entries.push((k.as_str(), self.eval(act, e)?));
                }
                Ok(Value::map(entries))
            }
            Expr::MapInsert(m, k, v) => {
                let (m, k) = self.both(act, m, k)?;
                kem::eval_map_insert(&m, &k, &self.eval(act, v)?)
            }
            Expr::MapRemove(m, k) => {
                let (m, k) = self.both(act, m, k)?;
                kem::eval_map_remove(&m, &k)
            }
            Expr::ListPush(l, v) => {
                let (l, v) = self.both(act, l, v)?;
                kem::eval_list_push(&l, &v)
            }
            Expr::Keys(m) => kem::eval_keys(&self.eval(act, m)?),
            Expr::Digest(e) => Ok(kem::eval_digest(&self.eval(act, e)?)),
            Expr::ToStr(e) => Ok(kem::eval_to_str(&self.eval(act, e)?)),
        };
        r.map_err(|e| e.message)
    }
}

/// Records what only the running server knows: the values its
/// nondeterministic operations drew, and the fuel its activations burned.
#[derive(Default)]
struct Probe {
    nondet: BTreeMap<OpRef, Value>,
    fuel: u64,
}

impl ExecHooks for Probe {
    fn on_handler_fuel(&mut self, _: RequestId, _: &HandlerId, fuel: u64) {
        self.fuel += fuel;
    }

    fn on_nondet(&mut self, r: RequestId, h: &HandlerId, opnum: u32, v: &Value) -> Option<Value> {
        let at = OpRef::new(r, h.clone(), opnum);
        self.nondet.insert(at, v.clone());
        None
    }
}

/// A program around `body`: the request handler binds the payload's
/// fields and a result `r`, runs `body`, and answers with `r` and the
/// shared state — itself, or through an event when `reply_by_event`.
fn program(body: Vec<Stmt>, reply_by_event: bool) -> Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("acc", Value::Int(0), true);
    b.shared_var("dict", Value::empty_map(), true);
    b.shared_var("log", Value::empty_list(), true);
    // Not loggable, so request-local by assumption: a constant, and a
    // scratch cell every request writes before it reads.
    b.shared_var("konst", Value::Int(7), false);
    b.shared_var("tmp", Value::Null, false);
    let mut handle = vec![
        swrite("tmp", field(payload(), "k")),
        let_("x", field(payload(), "k")),
        let_("s", field(payload(), "s")),
        let_("l", field(payload(), "l")),
        let_("r", lit(0i64)),
    ];
    handle.extend(body);
    let dict = digest(sread("dict"));
    let answer = listv(vec![local("r"), sread("acc"), dict, sread("log")]);
    handle.push(match reply_by_event {
        true => emit("reply", answer),
        false => respond(answer),
    });
    let logged = list_push(sread("log"), payload());
    let scaled = add(mul(sread("acc"), lit(3i64)), payload());
    b.function("handle", handle);
    b.function("on_reply", vec![respond(payload())]);
    b.function("on_tick", vec![swrite("log", logged)]);
    b.function("on_extra", vec![swrite("acc", scaled)]);
    b.request_handler("handle");
    b.global_registration("reply", "on_reply");
    b.global_registration("tick", "on_tick");
    b.build().expect("generated program builds")
}

/// The strategy that draws `gen`'s output from a seed.
fn seeded<T: std::fmt::Debug>(gen: fn(&mut Rng) -> T) -> impl Strategy<Value = T> {
    any::<u64>().prop_map(move |seed| gen(&mut Rng(seed)))
}

/// A run's inputs: requests of a few payload shapes, so that groups form
/// and their members still differ in `k`; and the server's fuel budget
/// (one run in four has one).
fn run(r: &mut Rng) -> (Vec<Value>, u64) {
    let input = |r: &mut Rng| {
        let (k, n) = (r.below(5) as i64, r.below(4) as i64);
        vec![Value::map([
            ("k", Value::int(k)),
            ("s", Value::str(r.pick(&["a", "bc"]))),
            ("l", Value::list((0..n).map(|i| Value::int(i * 2 + k)))),
            ("go", Value::Bool(r.below(2) == 0)),
        ])]
    };
    let inputs = r.several(2, 8, input);
    let metered = r.below(4) == 0;
    (inputs, if metered { r.below(600) } else { u64::MAX })
}

/// An integer-valued leaf: a constant (the overflow corners included),
/// the payload's `k` directly or through a local, the result so far.
fn int(r: &mut Rng) -> Expr {
    match r.below(8) {
        0 => lit(r.pick(&[i64::MAX, i64::MIN])),
        1 => local("x"),
        2 => local("r"),
        3 => field(payload(), "k"),
        _ => lit(r.below(11) as i64 - 2),
    }
}

/// A tree of `ops`, at most `depth` operators deep, over `leaf`s.
fn tree(r: &mut Rng, depth: u32, ops: &[BinOp], leaf: fn(&mut Rng) -> Expr) -> Expr {
    if depth == 0 || r.below(3) == 0 {
        return leaf(r);
    }
    let (a, b) = (tree(r, depth - 1, ops, leaf), tree(r, depth - 1, ops, leaf));
    bin(r.pick(ops), a, b)
}

use BinOp::*;

/// `Bin` over the arithmetic operators — windows of every fused shape
/// among them — `/ 0` and `% 0` included.
fn arithmetic(r: &mut Rng) -> Vec<Stmt> {
    let mut e = || tree(r, 3, &[Add, Sub, Mul, Add, Sub, Mul, Div, Mod], int);
    vec![
        let_("r", e()),
        let_("x", e()),
        let_("r", add(local("r"), e())),
    ]
}

/// Comparisons of integers with integers and, now and then, a string (a
/// mixed `<` is a type error), under the eager connectives and `Not`, as
/// values and as conditions.
fn compare(r: &mut Rng) -> Vec<Stmt> {
    let leaf = |r: &mut Rng| {
        let stringy = r.below(8) == 0;
        let rhs = [int(r), r.pick(&[local("s"), lit("b")])];
        bin(
            r.pick(&[Eq, Ne, Lt, Le, Gt, Ge]),
            int(r),
            rhs[usize::from(stringy)].clone(),
        )
    };
    let mut e = || {
        let t = tree(r, 2, &[And, Or, Eq, Ne], leaf);
        r.pick(&[t.clone(), not(t)])
    };
    let result = listv(vec![local("r"), local("c")]);
    let (c, cond) = (e(), e());
    vec![
        let_("c", c),
        iff(cond, vec![let_("r", lit(1i64))], vec![]),
        let_("r", result),
    ]
}

/// A list (`want_list`) or a map, at most `depth` constructors deep.
fn container_of(r: &mut Rng, want_list: bool, depth: u32) -> Expr {
    let grown = depth > 0 && r.below(3) > 0;
    let key = |r: &mut Rng| to_str(int(r));
    match (want_list, grown, r.below(2) == 0) {
        (true, false, true) => local("l"),
        (true, false, false) => listv(r.several(0, 2, |r| vec![int(r)])),
        (true, true, true) => keys(container_of(r, false, depth - 1)),
        (true, true, false) => list_push(container_of(r, true, depth - 1), int(r)),
        (false, false, true) => sread("dict"),
        (false, false, false) => {
            let b = listv(r.several(0, 1, |r| vec![int(r)]));
            mapv(vec![("a", lit(1i64)), ("b", b)])
        }
        (false, true, true) => map_remove(container_of(r, false, depth - 1), key(r)),
        (false, true, false) => {
            let m = container_of(r, false, depth - 1);
            map_insert(m, key(r), container_of(r, true, depth - 1))
        }
    }
}

/// Lists, maps and their readers; one reader in four is handed the wrong
/// kind of container.
fn container(r: &mut Rng) -> Vec<Stmt> {
    let reader = |r: &mut Rng| {
        let confused = r.below(4) == 0;
        let list = container_of(r, !confused, 2);
        let map = container_of(r, confused, 2);
        vec![match r.below(7) {
            0 => len(list),
            1 => digest(map),
            2 => to_str(list),
            3 => index(list, int(r)),
            4 => contains(list, int(r)),
            5 => field(map, r.pick(&["a", "b", "zz"])),
            _ => contains(map, to_str(int(r))),
        }]
    };
    vec![let_("r", listv(r.several(1, 3, reader)))]
}

/// `If`, counting `While`s (the server's `loop_limit` is 4), `ForEach`
/// folding its items in an order-sensitive way, nested `depth` deep; a
/// local bound on one branch only and read after it.
fn control_at(r: &mut Rng, depth: u32) -> Vec<Stmt> {
    let fold = |item: Expr| let_("r", add(mul(local("r"), lit(3i64)), item));
    let inner = |r: &mut Rng| control_at(r, depth - 1);
    match if depth == 0 { r.below(4) } else { r.below(8) } {
        0 | 1 => vec![fold(int(r))],
        2 => vec![let_("z", lit(5i64))],
        3 => vec![fold(local("z"))],
        4 => {
            let cond = [field(payload(), "go"), lt(int(r), int(r))];
            vec![iff(r.pick(&cond), inner(r), inner(r))]
        }
        5 => {
            let bound = lit(r.below(8) as i64);
            let step = let_("i", add(local("i"), lit(1i64)));
            let body = [inner(r), vec![step]].concat();
            vec![let_("i", local("x")), while_(lt(local("i"), bound), body)]
        }
        6 => {
            let body = [inner(r), vec![fold(local("it"))]].concat();
            vec![for_each("it", r.pick(&[local("l"), local("s")]), body)]
        }
        _ => [inner(r), inner(r)].concat(),
    }
}

fn control(r: &mut Rng) -> Vec<Stmt> {
    control_at(r, 2)
}

/// Reads and writes of loggable and non-loggable shared variables.
fn shared_state(r: &mut Rng) -> Vec<Stmt> {
    let dict = |r: &mut Rng| map_insert(sread("dict"), to_str(local("x")), int(r));
    let state = || vec![sread("tmp"), sread("konst"), sread("acc"), local("r")];
    r.several(1, 5, |r| {
        vec![match r.below(6) {
            0 => swrite("acc", add(sread("acc"), int(r))),
            1 => swrite("dict", dict(r)),
            2 => swrite("log", list_push(sread("log"), int(r))),
            3 => swrite("tmp", add(sread("tmp"), int(r))),
            4 => let_("r", listv(state())),
            _ => {
                let reset = vec![swrite("acc", lit(0i64))];
                iff(contains(sread("dict"), lit("2")), reset, vec![])
            }
        }]
    })
}

/// Emits with and without listeners, registrations (a second one is an
/// error, and so is a second response), listener counts, both kinds of
/// nondeterminism; the answer itself goes through an event half the time.
fn event(r: &mut Rng) -> (Vec<Stmt>, bool) {
    let body = r.several(1, 6, |r| match r.below(15) {
        0 | 1 => vec![emit("tick", int(r))],
        2 | 3 => vec![emit("extra", int(r))],
        4 | 5 => vec![register("extra", "on_extra")],
        6 | 7 => vec![unregister("extra", "on_extra")],
        8 | 9 => {
            let counted = listener_count("n", r.pick(&["extra", "tick"]));
            vec![counted, let_("r", add(local("r"), local("n")))]
        }
        10 | 11 => vec![nondet_counter("n"), let_("r", sub(local("n"), local("r")))],
        12 | 13 => {
            let logged = list_push(sread("log"), local("n"));
            vec![nondet_random("n", 5), swrite("log", logged)]
        }
        _ => vec![emit("reply", local("r"))],
    });
    (body, r.below(2) == 0)
}

/// Serves a run's `inputs` under its `budget` on the VM and on the
/// reference, compares, and audits a run that completed.
fn check(
    (body, by_event): (Vec<Stmt>, bool),
    (inputs, budget): (Vec<Value>, u64),
) -> Result<(), TestCaseError> {
    let program = program(body, by_event);
    let cfg = ServerConfig {
        policy: SchedPolicy::Fifo,
        loop_limit: 4,
        fuel_limit: budget,
        ..ServerConfig::default()
    };
    let mut probe = Probe::default();
    let served = kem::run_server(&program, &inputs, &cfg, &mut probe);
    let expected = Reference::run(&program, &inputs, &probe.nondet, &cfg);
    let out = match (served, expected) {
        (Ok(out), Ok(ran)) => {
            let got = Ran {
                responses: out.trace.responses().into_values().collect(),
                steps: out.steps,
                activations: out.activations,
                fuel: probe.fuel,
            };
            prop_assert_eq!(got, ran);
            out
        }
        (Err(e), Err(message)) => {
            prop_assert_eq!(e.message, message);
            return Ok(());
        }
        (served, expected) => {
            let served = served.map(|out| out.trace.responses());
            let disagree = format!("server {served:?}, reference {expected:?}");
            return Err(TestCaseError::fail(disagree));
        }
    };
    // The same run with the collector listening.
    let (run, advice) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
        .expect("the run completed without the collector");
    prop_assert_eq!(&run.trace, &out.trace);
    prop_assert_eq!(&advice.nondet, &probe.nondet);
    let (auditor, bytes) = (Auditor::default(), encode_advice(&advice));
    let grouped = auditor.audit(&program, &run.trace, &bytes, Serializable);
    prop_assert!(grouped.is_ok(), "honest run rejected: {:?}", grouped.err());
    let ooo = auditor.ooo_audit(&program, &run.trace, &bytes, Serializable);
    let fuel = ooo
        .map(|report| report.reexec.fuel_spent)
        .map_err(|f| f.reason);
    prop_assert_eq!(fuel, Ok(probe.fuel), "OOOAudit on an honest run");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arithmetic_ops_match_the_reference(body in seeded(arithmetic), run in seeded(run)) {
        check((body, false), run)?;
    }

    #[test]
    fn compare_ops_match_the_reference(body in seeded(compare), run in seeded(run)) {
        check((body, false), run)?;
    }

    #[test]
    fn container_ops_match_the_reference(body in seeded(container), run in seeded(run)) {
        check((body, false), run)?;
    }

    #[test]
    fn control_ops_match_the_reference(body in seeded(control), run in seeded(run)) {
        check((body, false), run)?;
    }

    #[test]
    fn shared_state_ops_match_the_reference(body in seeded(shared_state), run in seeded(run)) {
        check((body, false), run)?;
    }

    #[test]
    fn event_ops_match_the_reference(body in seeded(event), run in seeded(run)) {
        check(body, run)?;
    }
}
