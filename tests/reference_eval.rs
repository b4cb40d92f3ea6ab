//! The interpreter against a reference evaluator, on programs nobody
//! recorded.
//!
//! `tests/interp_pins.tsv` pins what the bytecode VM does on a fixed
//! corpus. This suite draws fresh programs — one `proptest` strategy per
//! class of `kem::bytecode::Op`: arithmetic, compare, container, control,
//! shared-state, event (the transactional ops are the paper apps', in the
//! pinned corpus) — and checks the server's VM against [`reference`], a
//! single-value evaluator of the public `kem::{Expr, Stmt}` that shares
//! nothing with `lower`, `fuse` or either dispatch loop: its own
//! evaluation order, locals, loops, operation numbering and step count.
//! Only the scalar operator semantics (`kem::eval_*`) are common. Server
//! and reference must agree on every response, or on the error the run
//! stopped with, and on scheduler steps, activations and fuel. A run that
//! completes is then audited: the grouped audit (multivalue VM) must
//! ACCEPT, and so must `ooo_audit` (Lemma 3; singleton groups, so the
//! same VM on single values), at the reference's step count.

use std::collections::{BTreeMap, HashMap, VecDeque};

use karousos::{
    audit, encode_advice, ooo_audit, run_instrumented_server, AuditOptions, CollectorMode,
};
use kem::dsl::*;
use kem::{
    BinOp, ExecHooks, Expr, FunctionId, HandlerId, OpRef, Program, ProgramBuilder, RequestId,
    RuntimeError, SchedPolicy, ServerConfig, Stmt, Value,
};
use kvstore::IsolationLevel::Serializable;
use proptest::prelude::*;

/// The reference evaluator: a `SchedPolicy::Fifo`, one-request-at-a-time
/// server over the source program.
mod reference {
    use super::*;

    /// What a completed run produced.
    #[derive(Debug, Default, PartialEq)]
    pub struct Ran {
        /// Each request's response, by request.
        pub responses: Vec<Value>,
        /// Scheduler steps: one per admission, one per event dispatched.
        pub steps: u64,
        pub activations: u64,
        /// One unit per statement executed and per expression node
        /// evaluated.
        pub fuel: u64,
    }

    struct Machine<'p> {
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
        fuel: u64,
    }

    /// One activation: whose it is, the operations it has issued, its
    /// locals (function-scoped, by name).
    struct Act {
        rid: RequestId,
        hid: HandlerId,
        opnum: u32,
        locals: HashMap<String, Value>,
    }

    pub fn run(
        program: &Program,
        inputs: &[Value],
        nondet: &BTreeMap<OpRef, Value>,
        cfg: &ServerConfig,
    ) -> Result<Ran, String> {
        let mut m = Machine {
            program,
            nondet,
            cfg,
            shared: program.vars.iter().map(|v| v.init.clone()).collect(),
            regs: Vec::new(),
            pending: VecDeque::new(),
            response: None,
            fuel: 0,
        };
        let mut ran = Ran::default();
        for (i, input) in inputs.iter().enumerate() {
            let rid = RequestId(i as u64);
            m.regs.clear();
            ran.steps += 1;
            let roots = program.request_handlers.iter();
            m.pending.push_back(
                roots
                    .map(|&f| (HandlerId::root(FunctionId(f)), f, input.clone()))
                    .collect(),
            );
            while let Some(event) = m.pending.pop_front() {
                ran.steps += 1;
                for (hid, f, payload) in event {
                    ran.activations += 1;
                    let locals = HashMap::from([("payload".to_string(), payload)]);
                    let mut act = Act {
                        rid,
                        hid,
                        opnum: 0,
                        locals,
                    };
                    m.block(&mut act, &program.functions[f as usize].body)?;
                }
            }
            match m.response.take() {
                Some(v) => ran.responses.push(v),
                None => return Err("1 request(s) never respond and no work is pending".into()),
            }
        }
        ran.fuel = m.fuel;
        Ok(ran)
    }

    impl Machine<'_> {
        fn tick(&mut self) -> Result<(), String> {
            self.fuel += 1;
            if self.fuel > self.cfg.fuel_limit {
                return Err("interpreter fuel budget exhausted".into());
            }
            Ok(())
        }

        /// The slot of shared variable `name`; touching a loggable one is
        /// an operation.
        fn var(&self, act: &mut Act, name: &str) -> usize {
            let id = self.program.var_id(name).expect("the builder checked");
            act.opnum += u32::from(self.program.var(id).loggable);
            id.0 as usize
        }

        fn function(&self, name: &str) -> u32 {
            self.program
                .function_id(name)
                .expect("the builder checked")
                .0
        }

        /// Who an `emit(event)` activates: global registrations, then the
        /// request's own, each in registration order.
        fn listeners(&self, event: &str) -> Vec<u32> {
            let global = self.program.global_registrations.iter();
            let all = global.chain(&self.regs);
            all.filter(|(e, _)| e == event).map(|(_, f)| *f).collect()
        }

        fn block(&mut self, act: &mut Act, stmts: &[Stmt]) -> Result<(), String> {
            stmts.iter().try_for_each(|s| self.stmt(act, s))
        }

        fn stmt(&mut self, act: &mut Act, s: &Stmt) -> Result<(), String> {
            self.tick()?;
            let bind = |act: &mut Act, name: &str, v| act.locals.insert(name.to_string(), v);
            match s {
                Stmt::Let(name, e) => {
                    let v = self.eval(act, e)?;
                    bind(act, name, v);
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
                        bind(act, var, item.clone());
                        self.block(act, body)?;
                    }
                }
                Stmt::Emit { event, payload } => {
                    let v = self.eval(act, payload)?;
                    act.opnum += 1;
                    let child = |f| HandlerId::child(&act.hid, FunctionId(f), act.opnum);
                    let activated: Vec<_> = self
                        .listeners(event)
                        .into_iter()
                        .map(|f| (child(f), f, v.clone()))
                        .collect();
                    if !activated.is_empty() {
                        self.pending.push_back(activated);
                    }
                }
                Stmt::Register { event, function } => {
                    act.opnum += 1;
                    let f = self.function(function);
                    if self.listeners(event).contains(&f) {
                        return Err(format!(
                            "function {function:?} already registered for event {event:?}"
                        ));
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
                    let n = self.listeners(event).len() as i64;
                    bind(act, var, Value::Int(n));
                }
                Stmt::Nondet { var, .. } => {
                    act.opnum += 1;
                    let at = OpRef::new(act.rid, act.hid.clone(), act.opnum);
                    let drawn = self.nondet.get(&at).ok_or("no value drawn here")?;
                    bind(act, var, drawn.clone());
                }
                tx => return Err(format!("transactions are the apps' to cover: {tx:?}")),
            }
            Ok(())
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
                // Both operands, always, left first: `And` / `Or` do not
                // short-circuit (the right one may be an operation).
                Expr::Bin(op, a, b) => {
                    let (a, b) = (self.eval(act, a)?, self.eval(act, b)?);
                    kem::eval_binop(*op, &a, &b)
                }
                Expr::Not(a) => Ok(Value::Bool(!self.eval(act, a)?.truthy())),
                Expr::Field(a, name) => {
                    let a = self.eval(act, a)?;
                    Ok(a.field(name).cloned().unwrap_or(Value::Null))
                }
                Expr::Index(a, i) => {
                    let (a, i) = (self.eval(act, a)?, self.eval(act, i)?);
                    kem::eval_index(&a, &i)
                }
                Expr::Len(a) => kem::eval_len(&self.eval(act, a)?),
                Expr::Contains(a, b) => {
                    let (a, b) = (self.eval(act, a)?, self.eval(act, b)?);
                    kem::eval_contains(&a, &b)
                }
                Expr::ListLit(items) => {
                    let items: Result<Vec<_>, _> =
                        items.iter().map(|e| self.eval(act, e)).collect();
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
                    let (m, k) = (self.eval(act, m)?, self.eval(act, k)?);
                    kem::eval_map_insert(&m, &k, &self.eval(act, v)?)
                }
                Expr::MapRemove(m, k) => {
                    let (m, k) = (self.eval(act, m)?, self.eval(act, k)?);
                    kem::eval_map_remove(&m, &k)
                }
                Expr::ListPush(l, v) => {
                    let (l, v) = (self.eval(act, l)?, self.eval(act, v)?);
                    kem::eval_list_push(&l, &v)
                }
                Expr::Keys(m) => kem::eval_keys(&self.eval(act, m)?),
                Expr::Digest(e) => Ok(kem::eval_digest(&self.eval(act, e)?)),
                Expr::ToStr(e) => Ok(kem::eval_to_str(&self.eval(act, e)?)),
            };
            r.map_err(|e| e.message)
        }
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

    fn on_nondet(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        v: &Value,
    ) -> Option<Value> {
        self.nondet
            .insert(OpRef::new(rid, hid.clone(), opnum), v.clone());
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
    let answer = listv(vec![
        local("r"),
        sread("acc"),
        digest(sread("dict")),
        sread("log"),
    ]);
    handle.push(if reply_by_event {
        emit("reply", answer)
    } else {
        respond(answer)
    });
    b.function("handle", handle);
    b.function("on_reply", vec![respond(payload())]);
    b.function(
        "on_tick",
        vec![swrite("log", list_push(sread("log"), payload()))],
    );
    b.function(
        "on_extra",
        vec![swrite("acc", add(mul(sread("acc"), lit(3i64)), payload()))],
    );
    b.request_handler("handle");
    b.global_registration("reply", "on_reply");
    b.global_registration("tick", "on_tick");
    b.build().expect("generated program builds")
}

/// Requests drawn from a few payload shapes, so that groups form and
/// their members still differ in `k`.
fn inputs() -> impl Strategy<Value = Vec<Value>> {
    let input = (0i64..5, 0usize..2, 0usize..4, any::<bool>()).prop_map(|(k, s, n, go)| {
        Value::map([
            ("k", Value::int(k)),
            ("s", Value::str(["a", "bc"][s])),
            (
                "l",
                Value::list((0..n as i64).map(|i| Value::int(i * 2 + k))),
            ),
            ("go", Value::Bool(go)),
        ])
    });
    prop::collection::vec(input, 2..9)
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

fn one_of<T: Clone + 'static>(options: &[T]) -> BoxedStrategy<T> {
    let options = options.to_vec();
    (0..options.len())
        .prop_map(move |i| options[i].clone())
        .boxed()
}

/// Integer-valued leaves: constants (the overflow corners included), the
/// payload's `k` directly and through a local.
fn ints() -> BoxedStrategy<Expr> {
    let konst = prop_oneof![-2i64..9, one_of(&[i64::MAX, i64::MIN])];
    prop_oneof![
        konst.prop_map(lit),
        one_of(&[local("x"), local("r"), field(payload(), "k")])
    ]
    .boxed()
}

/// Expression trees of `ops` over `leaves`.
fn trees(leaves: BoxedStrategy<Expr>, ops: &'static [BinOp]) -> BoxedStrategy<Expr> {
    leaves.prop_recursive(3, 16, 2, move |inner| {
        (one_of(ops), inner.clone(), inner).prop_map(|(op, a, b)| bin(op, a, b))
    })
}

use BinOp::*;

/// `Bin` over the arithmetic operators — windows of every fused shape
/// among them — `/ 0` and `% 0` included.
fn arithmetic() -> BoxedStrategy<Vec<Stmt>> {
    let e = || trees(ints(), &[Add, Sub, Mul, Div, Mod]);
    (e(), e(), e())
        .prop_map(|(a, b, c)| vec![let_("r", a), let_("x", b), let_("r", add(local("r"), c))])
        .boxed()
}

/// Comparisons, the eager connectives and `Not`, over integers and
/// strings (a mixed `<` is a type error), as values and as conditions.
fn compare() -> BoxedStrategy<Vec<Stmt>> {
    let leaves = prop_oneof![ints(), ints(), one_of(&[local("s"), lit("b")])].boxed();
    let e = move || {
        let t = trees(leaves.clone(), &[Eq, Ne, Lt, Le, Gt, Ge, And, Or]);
        prop_oneof![t.clone(), t.prop_map(not)]
    };
    (e(), e())
        .prop_map(|(a, b)| {
            let then = vec![let_("r", listv(vec![local("r"), lit(1i64)]))];
            vec![let_("r", a), iff(b, then, vec![])]
        })
        .boxed()
}

/// Lists, maps and their readers, two levels of construction deep; one
/// reader in four is handed the wrong kind of container.
fn container() -> BoxedStrategy<Vec<Stmt>> {
    let small = |n| prop::collection::vec(ints(), 0..n);
    let mut lists = prop_oneof![Just(local("l")), small(3).prop_map(listv)].boxed();
    let mut maps = prop_oneof![
        Just(sread("dict")),
        small(2).prop_map(|v| mapv(vec![("a", lit(1i64)), ("b", listv(v))]))
    ]
    .boxed();
    for _ in 0..2 {
        let (l, m, key) = (lists.clone(), maps.clone(), || ints().prop_map(to_str));
        lists = prop_oneof![
            l.clone(),
            (l.clone(), ints()).prop_map(|(l, v)| list_push(l, v)),
            m.clone().prop_map(keys)
        ]
        .boxed();
        maps = prop_oneof![
            m.clone(),
            (m.clone(), key(), l).prop_map(|(m, k, v)| map_insert(m, k, v)),
            (m, key()).prop_map(|(m, k)| map_remove(m, k))
        ]
        .boxed();
    }
    let (l, m) = (|| lists.clone(), || maps.clone());
    let any = prop_oneof![l(), m()].boxed();
    let (of_list, of_map) = (
        prop_oneof![l(), l(), l(), m()].boxed(),
        prop_oneof![m(), m(), m(), l()].boxed(),
    );
    let readers = prop_oneof![
        any.clone().prop_map(len),
        any.clone().prop_map(digest),
        any.prop_map(to_str),
        (of_list.clone(), ints()).prop_map(|(l, i)| index(l, i)),
        (of_list, ints()).prop_map(|(l, v)| contains(l, v)),
        (of_map.clone(), one_of(&["a", "b", "zz"])).prop_map(|(m, f)| field(m, f)),
        (of_map, ints()).prop_map(|(m, k)| contains(m, to_str(k)))
    ];
    prop::collection::vec(readers, 1..4)
        .prop_map(|rs| vec![let_("r", listv(rs))])
        .boxed()
}

/// `If`, counting `While`s (the server's `loop_limit` is 4), `ForEach`
/// folding its items in an order-sensitive way, nested; a local bound
/// on one branch only and read after it.
fn control() -> BoxedStrategy<Vec<Stmt>> {
    let fold = |item: Expr| let_("r", add(mul(local("r"), lit(3i64)), item));
    let leaf = prop_oneof![
        ints().prop_map(fold),
        ints().prop_map(fold),
        Just(let_("z", lit(5i64))),
        Just(fold(local("z")))
    ]
    .prop_map(|s| vec![s])
    .boxed();
    leaf.prop_recursive(2, 8, 2, move |inner| {
        let cond = prop_oneof![
            Just(field(payload(), "go")),
            (ints(), ints()).prop_map(|(a, b)| lt(a, b))
        ];
        prop_oneof![
            (cond, inner.clone(), inner.clone()).prop_map(|(c, t, e)| vec![iff(c, t, e)]),
            (0i64..8, inner.clone()).prop_map(|(bound, mut body)| {
                body.push(let_("i", add(local("i"), lit(1i64))));
                vec![
                    let_("i", local("x")),
                    while_(lt(local("i"), lit(bound)), body),
                ]
            }),
            (one_of(&[local("l"), local("s")]), inner.clone()).prop_map(move |(l, mut body)| {
                body.push(fold(local("it")));
                vec![for_each("it", l, body)]
            }),
            (inner.clone(), inner).prop_map(|(a, b)| [a, b].concat())
        ]
    })
}

/// Reads and writes of loggable and non-loggable shared variables.
fn shared_state() -> BoxedStrategy<Vec<Stmt>> {
    let stmt = prop_oneof![
        ints().prop_map(|e| swrite("acc", add(sread("acc"), e))),
        ints().prop_map(|e| swrite("dict", map_insert(sread("dict"), to_str(local("x")), e))),
        ints().prop_map(|e| swrite("log", list_push(sread("log"), e))),
        ints().prop_map(|e| swrite("tmp", add(sread("tmp"), e))),
        Just(let_(
            "r",
            listv(vec![sread("tmp"), sread("konst"), sread("acc"), local("r")])
        )),
        Just(iff(
            contains(sread("dict"), lit("2")),
            vec![swrite("acc", lit(0i64))],
            vec![]
        ))
    ];
    prop::collection::vec(stmt, 1..6).boxed()
}

/// Emits with and without listeners, registrations (a second one is an
/// error, and so is a second response), listener counts, both kinds of
/// nondeterminism.
fn event() -> BoxedStrategy<Vec<Stmt>> {
    let count = |event| {
        vec![
            listener_count("n", event),
            let_("r", add(local("r"), local("n"))),
        ]
    };
    let stmt = prop_oneof![
        ints().prop_map(|e| vec![emit("tick", e)]),
        ints().prop_map(|e| vec![emit("extra", e)]),
        Just(vec![register("extra", "on_extra")]),
        Just(vec![unregister("extra", "on_extra")]),
        Just(vec![emit("reply", local("r"))]),
        one_of(&["extra", "tick"]).prop_map(count),
        Just(vec![
            nondet_counter("n"),
            let_("r", sub(local("n"), local("r")))
        ]),
        Just(vec![
            nondet_random("n", 5),
            swrite("log", list_push(sread("log"), local("n")))
        ])
    ];
    prop::collection::vec(stmt, 1..7)
        .prop_map(|groups| groups.concat())
        .boxed()
}

/// Serves `inputs` under a fuel budget (`>= 600` means none) on the VM
/// and on the reference, compares, and audits a run that completed.
fn check(
    body: Vec<Stmt>,
    reply_by_event: bool,
    inputs: Vec<Value>,
    budget: u64,
) -> Result<(), TestCaseError> {
    let program = program(body, reply_by_event);
    let cfg = ServerConfig {
        policy: SchedPolicy::Fifo,
        loop_limit: 4,
        fuel_limit: if budget < 600 { budget } else { u64::MAX },
        ..ServerConfig::default()
    };
    for bytecode in [false, true] {
        let cfg = ServerConfig { bytecode, ..cfg };
        let mut probe = Probe::default();
        let served = kem::run_server(&program, &inputs, &cfg, &mut probe);
        let expected = reference::run(&program, &inputs, &probe.nondet, &cfg);
        let out = match (served, expected) {
            (Ok(out), Ok(ran)) => {
                let responses: Vec<Value> = out.trace.responses().into_values().collect();
                let got = reference::Ran {
                    responses,
                    steps: out.steps,
                    activations: out.activations,
                    fuel: probe.fuel,
                };
                prop_assert_eq!(got, ran);
                out
            }
            (Err(e), Err(message)) => {
                prop_assert_eq!(e.message, message);
                continue;
            }
            (served, expected) => {
                let served = served.map(|out| out.trace.responses());
                return Err(TestCaseError::fail(format!(
                    "server {served:?}, reference {expected:?}"
                )));
            }
        };
        // The same run with the collector listening.
        let (run, advice) =
            run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
                .expect("the run completed without the collector");
        prop_assert_eq!(&run.trace, &out.trace);
        prop_assert_eq!(&advice.nondet, &probe.nondet);
        let grouped = audit(&program, &run.trace, &advice, Serializable);
        prop_assert!(grouped.is_ok(), "honest run rejected: {:?}", grouped.err());
        let bytes = encode_advice(&advice);
        let ooo = ooo_audit(
            &program,
            &run.trace,
            &bytes,
            Serializable,
            AuditOptions::default(),
        );
        let fuel = ooo.map(|report| report.reexec.fuel_spent);
        prop_assert_eq!(fuel, Ok(probe.fuel), "OOOAudit on an honest run");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arithmetic_ops_match_the_reference(body in arithmetic(), inputs in inputs(), budget in 0u64..2400) {
        check(body, false, inputs, budget)?;
    }

    #[test]
    fn compare_ops_match_the_reference(body in compare(), inputs in inputs(), budget in 0u64..2400) {
        check(body, false, inputs, budget)?;
    }

    #[test]
    fn container_ops_match_the_reference(body in container(), inputs in inputs(), budget in 0u64..2400) {
        check(body, false, inputs, budget)?;
    }

    #[test]
    fn control_ops_match_the_reference(body in control(), inputs in inputs(), budget in 0u64..2400) {
        check(body, false, inputs, budget)?;
    }

    #[test]
    fn shared_state_ops_match_the_reference(body in shared_state(), inputs in inputs(), budget in 0u64..2400) {
        check(body, false, inputs, budget)?;
    }

    #[test]
    fn event_ops_match_the_reference(body in event(), by_event in any::<bool>(), inputs in inputs(), budget in 0u64..2400) {
        check(body, by_event, inputs, budget)?;
    }
}
