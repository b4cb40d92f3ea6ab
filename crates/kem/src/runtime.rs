//! The event-driven server runtime: KEM's dispatch loop, made concrete.
//!
//! This module simulates the server of the paper's setting. It owns the
//! program's shared state, a pending-event set, a pending-database-
//! operation queue, and a transactional store; a seeded scheduler picks
//! nondeterministically among enabled actions (dispatch an event,
//! complete a database operation, admit a request), which is exactly
//! KEM's nondeterministic dispatch loop (§3) plus the asynchronous I/O
//! completions of a Node.js-style runtime.
//!
//! * Handlers run to completion (KEM assumption); the only
//!   interleaving points are event dispatch and I/O completion.
//! * A *closed loop* admission policy keeps at most
//!   [`ServerConfig::concurrency`] requests in flight — the evaluation's
//!   "number of concurrent requests" knob (§6).
//! * Handler bodies run on the one dispatch loop, [`crate::vm`], with
//!   the runtime as its [`Machine`] over single values: this module
//!   holds only the effectful ops, the fuel meter and the branch bits.
//! * Every instrumentation point calls out through
//!   [`ExecHooks`](crate::ExecHooks); running with
//!   [`NoopHooks`](crate::NoopHooks) is the *unmodified server* baseline.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use kvstore::{IsolationLevel, Store, StoreStats, TxError, TxnId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bytecode::CodeSet;
use crate::hooks::{ExecHooks, TxOpRecord};
use crate::vm::{Machine, Vm, LOOP_LIMIT};
use crate::{
    init_handler_id, tx_payload_keys, FunctionId, HandlerId, NondetKind, Program, RequestId,
    RuntimeError, Sym, Trace, TxOpKind, Value, VarId,
};

/// How the scheduler picks the next action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniformly random among enabled actions, seeded — the live server.
    Random {
        /// RNG seed; different seeds explore different interleavings.
        seed: u64,
    },
    /// Strict FIFO, admitting a request only when idle — the sequential
    /// re-execution baseline's schedule.
    Fifo,
}

/// Configuration of a server run.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Closed-loop window: maximum requests in flight.
    pub concurrency: usize,
    /// Isolation level of the transactional store.
    pub isolation: IsolationLevel,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Guard against runaway `While` loops (iterations per loop).
    pub loop_limit: u32,
    /// Total interpreter fuel the run may burn before erroring out: one
    /// unit per statement executed and per expression node evaluated
    /// ([`crate::bytecode`], "Fuel"). `u64::MAX` means unmetered — the
    /// live server trusts its own program; harnesses that execute
    /// adversarial or generated programs set a budget so a loop bomb
    /// terminates deterministically instead of spinning.
    pub fuel_limit: u64,
    /// Read by nothing: handlers always run on the bytecode VM. Kept for
    /// `benchmark/src/adapter.rs`; removed by ROADMAP item 1 step 1.
    #[doc(hidden)]
    pub bytecode: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            concurrency: 1,
            isolation: IsolationLevel::Serializable,
            policy: SchedPolicy::Random { seed: 0 },
            loop_limit: LOOP_LIMIT,
            fuel_limit: u64::MAX,
            bytecode: true,
        }
    }
}

/// The outcome of a server run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The collector's ground-truth trace.
    pub trace: Trace,
    /// Store operation counters (commits, aborts, conflicts, …).
    pub store_stats: StoreStats,
    /// The store's binlog: committed writes in commit order. The paper
    /// repurposes MySQL's binlog as the write-order advice (§5); the
    /// Karousos collector post-processes this the same way.
    pub binlog: kvstore::Binlog,
    /// Scheduler steps taken.
    pub steps: u64,
    /// Handler activations executed.
    pub activations: u64,
}

/// A queued handler activation.
#[derive(Debug, Clone)]
struct Activation {
    rid: RequestId,
    hid: HandlerId,
    function: FunctionId,
    payload: Value,
}

/// A pending event: the activations its dispatch will run, resolved at
/// emit time (registrations are captured when the event is emitted).
#[derive(Debug, Clone)]
struct PendingEvent {
    activations: Vec<Activation>,
}

/// A pending asynchronous database operation.
#[derive(Debug, Clone)]
struct PendingDb {
    rid: RequestId,
    parent: HandlerId,
    opnum: u32,
    kind: TxOpKind,
    txn: Option<TxnId>,
    key: Option<String>,
    value: Option<Value>,
    ctx: Value,
    on_done: FunctionId,
}

/// The server as the [`Machine`] of one handler activation: the
/// runtime, the hooks it reports through, and the activation's
/// coordinates and operation count.
struct ServerMachine<'r, 'p, H> {
    rt: &'r mut Runtime<'p>,
    hooks: &'r mut H,
    rid: RequestId,
    hid: HandlerId,
    opnum: u32,
}

/// The simulated server.
pub struct Runtime<'p> {
    program: &'p Program,
    code: &'p CodeSet,
    cfg: ServerConfig,
    vars: Vec<Value>,
    request_regs: HashMap<RequestId, Vec<(Sym, FunctionId)>>,
    pending_events: VecDeque<PendingEvent>,
    pending_db: VecDeque<PendingDb>,
    store: Store<Value>,
    txnums: HashMap<TxnId, u32>,
    responded: HashMap<RequestId, bool>,
    in_flight: usize,
    trace: Trace,
    nondet_counter: i64,
    nondet_rng: SmallRng,
    sched_rng: SmallRng,
    steps: u64,
    activations: u64,
    fuel: u64,
    vm: Vm<Value>,
}

/// Runs `program` against `inputs` under `cfg`, reporting through
/// `hooks`. Returns the trace and run statistics.
///
/// This is the main entry point for simulating a server (modified or
/// not). Errors indicate application bugs (see [`RuntimeError`]), never
/// audit failures.
pub fn run_server<H: ExecHooks>(
    program: &Program,
    inputs: &[Value],
    cfg: &ServerConfig,
    hooks: &mut H,
) -> Result<RunOutput, RuntimeError> {
    let mut rt = Runtime::new(program, *cfg);
    rt.init_shared_state(hooks);
    rt.run(inputs, hooks)?;
    Ok(RunOutput {
        trace: rt.trace,
        store_stats: rt.store.stats(),
        binlog: rt.store.binlog().clone(),
        steps: rt.steps,
        activations: rt.activations,
    })
}

impl<'p> Runtime<'p> {
    /// Creates a runtime with empty state.
    pub fn new(program: &'p Program, cfg: ServerConfig) -> Self {
        let seed = match cfg.policy {
            SchedPolicy::Random { seed } => seed,
            SchedPolicy::Fifo => 0,
        };
        Runtime {
            program,
            code: program.code(),
            cfg,
            vars: Vec::new(),
            request_regs: HashMap::new(),
            pending_events: VecDeque::new(),
            pending_db: VecDeque::new(),
            store: Store::new(cfg.isolation),
            txnums: HashMap::new(),
            responded: HashMap::new(),
            in_flight: 0,
            trace: Trace::new(),
            nondet_counter: 0,
            nondet_rng: SmallRng::seed_from_u64(seed ^ 0x6e6f_6e64_6574),
            sched_rng: SmallRng::seed_from_u64(seed),
            steps: 0,
            activations: 0,
            fuel: 0,
            vm: Vm::default(),
        }
    }

    /// Runs the initialization activation `I`: installs every declared
    /// shared variable (reporting loggable ones through the hooks, with
    /// opnums counted over loggable variables in declaration order).
    pub fn init_shared_state<H: ExecHooks>(&mut self, hooks: &mut H) {
        let init_hid = init_handler_id();
        let mut opnum = 0u32;
        for (i, decl) in self.program.vars.iter().enumerate() {
            self.vars.push(decl.init.clone());
            if decl.loggable {
                opnum += 1;
                hooks.on_var_init(
                    VarId(i as u32),
                    RequestId::INIT,
                    &init_hid,
                    opnum,
                    &decl.init,
                );
            }
        }
    }

    fn run<H: ExecHooks>(&mut self, inputs: &[Value], hooks: &mut H) -> Result<(), RuntimeError> {
        let concurrency = self.cfg.concurrency.max(1);
        let mut next_input = 0usize;
        loop {
            let ne = self.pending_events.len();
            let nd = self.pending_db.len();
            let can_inject = next_input < inputs.len() && self.in_flight < concurrency;
            let total = ne + nd + usize::from(can_inject);
            if total == 0 {
                if self.in_flight > 0 {
                    return Err(RuntimeError::new(format!(
                        "{} request(s) never respond and no work is pending",
                        self.in_flight
                    )));
                }
                if next_input >= inputs.len() {
                    return Ok(());
                }
                // in_flight == concurrency handled by can_inject above;
                // here in_flight == 0 and inputs remain, so inject.
            }
            self.steps += 1;
            let choice = match self.cfg.policy {
                SchedPolicy::Fifo => {
                    // Drain events, then db ops, then admit.
                    if ne > 0 {
                        0
                    } else if nd > 0 {
                        ne
                    } else {
                        ne + nd
                    }
                }
                SchedPolicy::Random { .. } => self.sched_rng.gen_range(0..total.max(1)),
            };
            if choice < ne {
                let ev = self.pending_events.remove(choice).expect("index in range");
                for act in ev.activations {
                    self.run_activation(act, hooks)?;
                }
            } else if choice < ne + nd {
                let db = self.pending_db.remove(choice - ne).expect("index in range");
                self.process_db(db, hooks)?;
            } else {
                // Inject the next request.
                let rid = RequestId(next_input as u64);
                let input = inputs[next_input].clone();
                next_input += 1;
                self.in_flight += 1;
                self.responded.insert(rid, false);
                self.trace.push_request(rid, input.clone());
                hooks.on_request(rid, &input);
                let activations = self
                    .program
                    .request_handlers
                    .iter()
                    .map(|&f| Activation {
                        rid,
                        hid: HandlerId::root(FunctionId(f)),
                        function: FunctionId(f),
                        payload: input.clone(),
                    })
                    .collect();
                self.pending_events.push_back(PendingEvent { activations });
            }
        }
    }

    fn run_activation<H: ExecHooks>(
        &mut self,
        act: Activation,
        hooks: &mut H,
    ) -> Result<(), RuntimeError> {
        self.activations += 1;
        hooks.on_handler_start(act.rid, &act.hid);
        let fuel_before = self.fuel;
        let code = self.code;
        let func = &code.funcs[act.function.0 as usize];
        // The scratch is taken out so the machine can borrow `self`.
        let mut vm = std::mem::take(&mut self.vm);
        let mut m = ServerMachine {
            rt: self,
            hooks,
            rid: act.rid,
            hid: act.hid,
            opnum: 0,
        };
        let result = vm.run(&mut m, func, act.payload);
        let ServerMachine {
            rid, hid, opnum, ..
        } = m;
        self.vm = vm;
        result?;
        hooks.on_handler_end(rid, &hid, opnum);
        // `self.fuel` is cumulative across the interleaved run, so the
        // delta is exactly this activation's burn (activations run to
        // completion; they are not reentrant).
        hooks.on_handler_fuel(rid, &hid, self.fuel - fuel_before);
        Ok(())
    }

    fn process_db<H: ExecHooks>(
        &mut self,
        db: PendingDb,
        hooks: &mut H,
    ) -> Result<(), RuntimeError> {
        let mut record = TxOpRecord {
            kind: db.kind,
            effective_abort: false,
            txn: TxnId(0),
            txnum: 0,
            key: db.key.clone(),
            value: None,
            found: false,
            writer: None,
        };
        let keys = tx_payload_keys();
        let mut payload: Vec<(Arc<str>, Value)> = Vec::with_capacity(5);
        payload.push((Arc::clone(&keys.ctx), db.ctx.clone()));
        match db.kind {
            TxOpKind::Start => {
                let txn = self.store.begin();
                self.txnums.insert(txn, 0);
                record.txn = txn;
                payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                payload.push((Arc::clone(&keys.tx), Value::Int(txn.0 as i64)));
            }
            _ => {
                let txn = db.txn.expect("non-start ops carry a token");
                let txnum = match self.txnums.get_mut(&txn) {
                    Some(n) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        return Err(RuntimeError::new(format!(
                            "operation on unknown transaction {txn}"
                        )))
                    }
                };
                record.txn = txn;
                record.txnum = txnum;
                payload.push((Arc::clone(&keys.tx), Value::Int(txn.0 as i64)));
                let outcome: Result<(), TxError> = match db.kind {
                    TxOpKind::Get => {
                        let key = db.key.as_deref().expect("GET carries a key");
                        match self.store.get(txn, key) {
                            Ok(r) => {
                                record.found = r.value.is_some();
                                record.value = r.value.clone();
                                record.writer = r.writer;
                                payload.push((Arc::clone(&keys.found), Value::Bool(record.found)));
                                payload.push((
                                    Arc::clone(&keys.value),
                                    r.value.unwrap_or(Value::Null),
                                ));
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    }
                    TxOpKind::Put => {
                        let key = db.key.as_deref().expect("PUT carries a key");
                        let value = db.value.clone().expect("PUT carries a value");
                        record.value = Some(value.clone());
                        self.store.put(txn, key, value, txnum)
                    }
                    TxOpKind::Commit => self.store.commit(txn),
                    TxOpKind::Abort => self.store.abort(txn),
                    TxOpKind::Start => unreachable!("handled above"),
                };
                match outcome {
                    Ok(()) => {
                        payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                    }
                    Err(TxError::Conflict { .. }) => {
                        record.effective_abort = true;
                        record.value = None;
                        record.found = false;
                        record.writer = None;
                        payload.push((Arc::clone(&keys.ok), Value::Bool(false)));
                    }
                    Err(e) => {
                        return Err(RuntimeError::new(format!(
                            "transactional operation failed: {e}"
                        )))
                    }
                }
            }
        }
        let child = HandlerId::child(&db.parent, db.on_done, db.opnum);
        hooks.on_tx_op(db.rid, &db.parent, db.opnum, &record, &child);
        self.pending_events.push_back(PendingEvent {
            activations: vec![Activation {
                rid: db.rid,
                hid: child,
                function: db.on_done,
                payload: Value::from_pairs(payload),
            }],
        });
        Ok(())
    }

    fn registered_for(&self, rid: RequestId, event: Sym) -> Vec<FunctionId> {
        let mut out: Vec<FunctionId> = self
            .code
            .global_regs
            .iter()
            .filter(|(e, _)| *e == event)
            .map(|(_, f)| *f)
            .collect();
        if let Some(regs) = self.request_regs.get(&rid) {
            out.extend(regs.iter().filter(|(e, _)| *e == event).map(|(_, f)| *f));
        }
        out
    }
}

impl<H: ExecHooks> ServerMachine<'_, '_, H> {
    /// Numbers the activation's next operation.
    fn next_op(&mut self) -> u32 {
        self.opnum += 1;
        self.opnum
    }

    /// Queues a transactional operation, numbered as the next one.
    fn queue_db(
        &mut self,
        kind: TxOpKind,
        txn: Option<TxnId>,
        key: Option<String>,
        value: Option<Value>,
        ctx: Value,
        on_done: FunctionId,
    ) {
        let opnum = self.next_op();
        self.rt.pending_db.push_back(PendingDb {
            rid: self.rid,
            parent: self.hid.clone(),
            opnum,
            kind,
            txn,
            key,
            value,
            ctx,
            on_done,
        });
    }
}

impl<H: ExecHooks> Machine for ServerMachine<'_, '_, H> {
    type Operand = Value;
    type Error = RuntimeError;

    fn width(&self) -> usize {
        1
    }

    fn loop_limit(&self) -> u32 {
        self.rt.cfg.loop_limit
    }

    /// Errors once the configured budget is exhausted, leaving the
    /// meter at `limit + 1`: where the first over-budget unit stops it.
    #[inline]
    fn charge(&mut self, units: u32) -> Result<(), RuntimeError> {
        let (fuel, limit) = (&mut self.rt.fuel, self.rt.cfg.fuel_limit);
        let new = fuel.saturating_add(u64::from(units));
        if new > limit {
            *fuel = limit.saturating_add(1);
            return Err(RuntimeError::new("interpreter fuel budget exhausted"));
        }
        *fuel = new;
        Ok(())
    }

    fn on_branch(&mut self, taken: bool) {
        self.hooks.on_branch(taken);
    }

    fn shared_read(&mut self, var: VarId, loggable: bool) -> Result<Value, RuntimeError> {
        let v = self.rt.vars[var.0 as usize].clone();
        if loggable {
            let op = self.next_op();
            self.hooks.on_var_read(var, self.rid, &self.hid, op, &v);
        }
        Ok(v)
    }

    fn shared_write(&mut self, var: VarId, loggable: bool, v: Value) -> Result<(), RuntimeError> {
        if loggable {
            let op = self.next_op();
            self.hooks.on_var_write(var, self.rid, &self.hid, op, &v);
        }
        self.rt.vars[var.0 as usize] = v;
        Ok(())
    }

    fn emit(&mut self, event: Sym, payload: Value) -> Result<(), RuntimeError> {
        let op = self.next_op();
        let activations: Vec<Activation> = (self.rt.registered_for(self.rid, event).iter())
            .map(|&f| Activation {
                rid: self.rid,
                hid: HandlerId::child(&self.hid, f, op),
                function: f,
                payload: payload.clone(),
            })
            .collect();
        let hids: Vec<HandlerId> = activations.iter().map(|a| a.hid.clone()).collect();
        let name = self.rt.code.interner.resolve(event);
        self.hooks.on_emit(self.rid, &self.hid, op, name, &hids);
        if !activations.is_empty() {
            let pending = &mut self.rt.pending_events;
            pending.push_back(PendingEvent { activations });
        }
        Ok(())
    }

    fn register(&mut self, event: Sym, function: FunctionId) -> Result<(), RuntimeError> {
        let op = self.next_op();
        let compiled = self.rt.code;
        let regs = self.rt.request_regs.entry(self.rid).or_default();
        let this = |&(e, g): &(Sym, FunctionId)| e == event && g == function;
        if regs.iter().any(this) || compiled.global_regs.iter().any(this) {
            let functions = &self.rt.program.functions;
            let fname = functions.get(function.0 as usize).map_or("?", |f| &f.name);
            let ename = compiled.interner.resolve(event);
            return Err(RuntimeError::new(format!(
                "function {fname:?} already registered for event {ename:?}"
            )));
        }
        regs.push((event, function));
        let name = compiled.interner.resolve(event);
        self.hooks
            .on_register(self.rid, &self.hid, op, name, function);
        Ok(())
    }

    fn unregister(&mut self, event: Sym, function: FunctionId) -> Result<(), RuntimeError> {
        let op = self.next_op();
        if let Some(regs) = self.rt.request_regs.get_mut(&self.rid) {
            regs.retain(|(e, g)| !(*e == event && *g == function));
        }
        let name = self.rt.code.interner.resolve(event);
        self.hooks
            .on_unregister(self.rid, &self.hid, op, name, function);
        Ok(())
    }

    fn respond(&mut self, v: Value) -> Result<(), RuntimeError> {
        let rid = self.rid;
        match self.rt.responded.get_mut(&rid) {
            Some(done) if !*done => *done = true,
            Some(_) => return Err(RuntimeError::new(format!("request {rid} responded twice"))),
            None => {
                return Err(RuntimeError::new(format!(
                    "response for unknown request {rid}"
                )))
            }
        }
        self.hooks.on_respond(rid, &self.hid, self.opnum, &v);
        self.rt.trace.push_response(rid, v);
        self.rt.in_flight -= 1;
        Ok(())
    }

    // The token and the key are validated between operand evaluations:
    // a bad one fails before the next operand is evaluated.
    fn screen_token(&mut self, tx: &Value) -> Result<(), RuntimeError> {
        let ok = tx.as_int().is_some();
        ok.then_some(())
            .ok_or_else(|| RuntimeError::type_error("transaction token", tx))
    }

    fn screen_key(&mut self, key: &Value) -> Result<(), RuntimeError> {
        let ok = key.as_str().is_some();
        ok.then_some(())
            .ok_or_else(|| RuntimeError::type_error("row key", key))
    }

    fn tx_start(&mut self, ctx: Value, on_done: FunctionId) -> Result<(), RuntimeError> {
        self.queue_db(TxOpKind::Start, None, None, None, ctx, on_done);
        Ok(())
    }

    // The conversions cannot fail here: `screen_token` / `screen_key`
    // screened the token and the key on the way.
    fn tx_op(
        &mut self,
        kind: TxOpKind,
        tx: Value,
        key: Option<Value>,
        value: Option<Value>,
        ctx: Value,
        on_done: FunctionId,
    ) -> Result<(), RuntimeError> {
        let txn = tx
            .as_int()
            .map(|i| TxnId(i as u64))
            .ok_or_else(|| RuntimeError::type_error("transaction token", &tx))?;
        let key = match key {
            Some(kv) => Some(
                kv.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| RuntimeError::type_error("row key", &kv))?,
            ),
            None => None,
        };
        self.queue_db(kind, Some(txn), key, value, ctx, on_done);
        Ok(())
    }

    fn listener_count(&mut self, event: Sym) -> Result<Value, RuntimeError> {
        let op = self.next_op();
        let count = self.rt.registered_for(self.rid, event).len() as i64;
        let name = self.rt.code.interner.resolve(event);
        self.hooks.on_check_op(self.rid, &self.hid, op, name, count);
        Ok(Value::Int(count))
    }

    fn nondet(&mut self, kind: NondetKind) -> Result<Value, RuntimeError> {
        let op = self.next_op();
        let rt = &mut *self.rt;
        let generated = Value::Int(match kind {
            NondetKind::Counter => {
                rt.nondet_counter += 1;
                rt.nondet_counter
            }
            NondetKind::Random { bound } => rt.nondet_rng.gen_range(0..bound.max(1)),
        });
        let fed = self.hooks.on_nondet(self.rid, &self.hid, op, &generated);
        Ok(fed.unwrap_or(generated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::hooks::NoopHooks;
    use crate::ProgramBuilder;

    /// An echo program: responds with `{echo: payload.x}`.
    fn echo_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![respond(mapv(vec![("echo", field(payload(), "x"))]))],
        );
        b.request_handler("handle");
        b.build().unwrap()
    }

    fn run_simple(program: &Program, inputs: &[Value]) -> RunOutput {
        run_server(program, inputs, &ServerConfig::default(), &mut NoopHooks).unwrap()
    }

    #[test]
    fn tx_payload_keys_are_the_names_applications_read() {
        let k = tx_payload_keys();
        let names = [&k.ctx, &k.tx, &k.ok, &k.found, &k.value].map(|key| &**key);
        assert_eq!(names, ["ctx", "tx", "ok", "found", "value"]);
    }

    #[test]
    fn echo_round_trip() {
        let p = echo_program();
        let out = run_simple(&p, &[Value::map([("x", Value::int(7))])]);
        assert!(out.trace.is_balanced());
        assert_eq!(
            out.trace.output_of(RequestId(0)),
            Some(&Value::map([("echo", Value::int(7))]))
        );
    }

    #[test]
    fn shared_state_persists_across_requests() {
        let mut b = ProgramBuilder::new();
        b.shared_var("count", Value::Int(0), true);
        b.function(
            "handle",
            vec![
                swrite("count", add(sread("count"), lit(1i64))),
                respond(sread("count")),
            ],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![Value::Null; 3];
        let out = run_simple(&p, &inputs);
        // FIFO-ish with concurrency 1 under Random policy still runs
        // requests one at a time at window 1, so counts are 1,2,3.
        let outs: Vec<_> = (0..3)
            .map(|i| out.trace.output_of(RequestId(i)).unwrap().clone())
            .collect();
        assert_eq!(outs, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn emit_activates_registered_handler() {
        let mut b = ProgramBuilder::new();
        b.shared_var("log", Value::list([]), false);
        b.function(
            "handle",
            vec![register("boom", "on_boom"), emit("boom", lit("hi"))],
        );
        b.function("on_boom", vec![respond(payload())]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let out = run_simple(&p, &[Value::Null]);
        assert_eq!(out.trace.output_of(RequestId(0)), Some(&Value::str("hi")));
        assert_eq!(out.activations, 2);
    }

    #[test]
    fn unregister_prevents_activation() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![
                register("boom", "on_boom"),
                unregister("boom", "on_boom"),
                emit("boom", lit("hi")),
                respond(lit("done")),
            ],
        );
        b.function("on_boom", vec![]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let out = run_simple(&p, &[Value::Null]);
        assert_eq!(out.activations, 1, "on_boom must not run");
    }

    #[test]
    fn global_registration_fires_for_every_request() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![emit("tick", field(payload(), "n"))]);
        b.function("on_tick", vec![respond(payload())]);
        b.request_handler("handle");
        b.global_registration("tick", "on_tick");
        let p = b.build().unwrap();
        let out = run_simple(
            &p,
            &[
                Value::map([("n", Value::int(1))]),
                Value::map([("n", Value::int(2))]),
            ],
        );
        assert_eq!(out.trace.output_of(RequestId(0)), Some(&Value::int(1)));
        assert_eq!(out.trace.output_of(RequestId(1)), Some(&Value::int(2)));
    }

    #[test]
    fn double_register_is_an_app_error() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![register("e", "f"), register("e", "f"), respond(lit(1i64))],
        );
        b.function("f", vec![]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let err =
            run_server(&p, &[Value::Null], &ServerConfig::default(), &mut NoopHooks).unwrap_err();
        assert!(err.message.contains("already registered"));
    }

    #[test]
    fn double_respond_is_an_app_error() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![respond(lit(1i64)), respond(lit(2i64))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let err =
            run_server(&p, &[Value::Null], &ServerConfig::default(), &mut NoopHooks).unwrap_err();
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn missing_response_detected() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let err =
            run_server(&p, &[Value::Null], &ServerConfig::default(), &mut NoopHooks).unwrap_err();
        assert!(err.message.contains("never respond"));
    }

    #[test]
    fn transaction_round_trip() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![tx_start(payload(), "do_put")]);
        b.function(
            "do_put",
            vec![tx_put(
                field(payload(), "tx"),
                lit("k"),
                field(field(payload(), "ctx"), "v"),
                field(payload(), "tx"),
                "do_commit",
            )],
        );
        b.function(
            "do_commit",
            vec![tx_commit(field(payload(), "ctx"), null(), "done")],
        );
        b.function("done", vec![respond(field(payload(), "ok"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let out = run_simple(&p, &[Value::map([("v", Value::int(42))])]);
        assert_eq!(out.trace.output_of(RequestId(0)), Some(&Value::Bool(true)));
        assert_eq!(out.store_stats.committed, 1);
    }

    #[test]
    fn get_sees_prior_committed_put() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![iff(
                eq(field(payload(), "op"), lit("put")),
                vec![tx_start(payload(), "w1")],
                vec![tx_start(payload(), "r1")],
            )],
        );
        b.function(
            "w1",
            vec![tx_put(
                field(payload(), "tx"),
                lit("k"),
                field(field(payload(), "ctx"), "v"),
                null(),
                "w2",
            )],
        );
        b.function(
            "w2",
            vec![tx_commit(field(payload(), "tx"), null(), "done_put")],
        );
        b.function("done_put", vec![respond(lit("ok"))]);
        b.function(
            "r1",
            vec![tx_get(field(payload(), "tx"), lit("k"), null(), "r2")],
        );
        b.function(
            "r2",
            vec![
                let_("v", field(payload(), "value")),
                tx_commit(field(payload(), "tx"), local("v"), "done_get"),
            ],
        );
        b.function("done_get", vec![respond(field(payload(), "ctx"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![
            Value::map([("op", Value::str("put")), ("v", Value::int(9))]),
            Value::map([("op", Value::str("get"))]),
        ];
        let out = run_simple(&p, &inputs);
        assert_eq!(out.trace.output_of(RequestId(1)), Some(&Value::int(9)));
    }

    #[test]
    fn nondet_counter_is_monotonic() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![nondet_counter("t"), respond(local("t"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let out = run_simple(&p, &[Value::Null, Value::Null]);
        let a = out.trace.output_of(RequestId(0)).unwrap().as_int().unwrap();
        let b_ = out.trace.output_of(RequestId(1)).unwrap().as_int().unwrap();
        assert!(b_ > a);
    }

    #[test]
    fn random_seeds_are_reproducible() {
        let p = echo_program();
        let cfg = ServerConfig {
            concurrency: 4,
            policy: SchedPolicy::Random { seed: 42 },
            ..Default::default()
        };
        let inputs: Vec<Value> = (0..20)
            .map(|i| Value::map([("x", Value::int(i))]))
            .collect();
        let a = run_server(&p, &inputs, &cfg, &mut NoopHooks).unwrap();
        let b = run_server(&p, &inputs, &cfg, &mut NoopHooks).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn different_seeds_can_reorder_responses() {
        // With concurrency, arrival interleaving differs across seeds.
        let mut b = ProgramBuilder::new();
        b.shared_var("n", Value::Int(0), false);
        b.function(
            "handle",
            vec![swrite("n", add(sread("n"), lit(1i64))), respond(sread("n"))],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![Value::Null; 10];
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10u64 {
            let cfg = ServerConfig {
                concurrency: 5,
                policy: SchedPolicy::Random { seed },
                ..Default::default()
            };
            let out = run_server(&p, &inputs, &cfg, &mut NoopHooks).unwrap();
            let order: Vec<u64> = out
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    crate::TraceEvent::Response { rid, .. } => Some(rid.0),
                    _ => None,
                })
                .collect();
            seen.insert(order);
        }
        assert!(seen.len() > 1, "expected schedule diversity across seeds");
    }

    #[test]
    fn foreach_iterates_in_order() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![
                let_("acc", lit(0i64)),
                for_each(
                    "x",
                    payload(),
                    vec![let_("acc", add(local("acc"), local("x")))],
                ),
                respond(local("acc")),
            ],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let out = run_simple(
            &p,
            &[Value::list([Value::int(1), Value::int(2), Value::int(3)])],
        );
        assert_eq!(out.trace.output_of(RequestId(0)), Some(&Value::int(6)));
    }

    #[test]
    fn while_loop_limit_guards() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![while_(lit(true), vec![]), respond(lit(1i64))],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let cfg = ServerConfig {
            loop_limit: 10,
            ..Default::default()
        };
        let err = run_server(&p, &[Value::Null], &cfg, &mut NoopHooks).unwrap_err();
        assert!(err.message.contains("iteration limit"));
    }

    #[test]
    fn fuel_budget_guards() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![while_(lit(true), vec![]), respond(lit(1i64))],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        // The fuel budget trips before the (much larger) loop limit.
        let cfg = ServerConfig {
            fuel_limit: 100,
            ..Default::default()
        };
        let err = run_server(&p, &[Value::Null], &cfg, &mut NoopHooks).unwrap_err();
        assert!(err.message.contains("fuel budget"));
    }

    #[test]
    fn binop_semantics() {
        use crate::eval_binop;
        use crate::BinOp::{self, *};
        let _ = BinOp::Add;
        assert_eq!(
            eval_binop(Add, &Value::int(2), &Value::int(3)).unwrap(),
            Value::int(5)
        );
        assert_eq!(
            eval_binop(Add, &Value::str("a"), &Value::str("b")).unwrap(),
            Value::str("ab")
        );
        assert_eq!(
            eval_binop(
                Add,
                &Value::list([Value::int(1)]),
                &Value::list([Value::int(2)])
            )
            .unwrap(),
            Value::list([Value::int(1), Value::int(2)])
        );
        assert!(eval_binop(Div, &Value::int(1), &Value::int(0)).is_err());
        assert_eq!(
            eval_binop(Lt, &Value::str("a"), &Value::str("b")).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(Eq, &Value::Null, &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_binop(Lt, &Value::Null, &Value::int(1)).is_err());
    }

    #[test]
    fn conflict_yields_ok_false() {
        // Two concurrent requests put the same key: the second PUT to be
        // processed conflicts and its continuation sees ok:false.
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![tx_start(null(), "w")]);
        b.function(
            "w",
            vec![tx_put(
                field(payload(), "tx"),
                lit("k"),
                lit(1i64),
                null(),
                "after_put",
            )],
        );
        b.function(
            "after_put",
            vec![iff(
                field(payload(), "ok"),
                vec![tx_commit(field(payload(), "tx"), null(), "done")],
                vec![respond(lit("retry"))],
            )],
        );
        b.function("done", vec![respond(lit("ok"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![Value::Null, Value::Null];
        // Find a seed where both transactions are live at once.
        let mut saw_retry = false;
        for seed in 0..50u64 {
            let cfg = ServerConfig {
                concurrency: 2,
                policy: SchedPolicy::Random { seed },
                ..Default::default()
            };
            let out = run_server(&p, &inputs, &cfg, &mut NoopHooks).unwrap();
            let outs: Vec<_> = (0..2)
                .map(|i| out.trace.output_of(RequestId(i)).unwrap().clone())
                .collect();
            if outs.contains(&Value::str("retry")) {
                saw_retry = true;
                break;
            }
        }
        assert!(saw_retry, "expected at least one conflicting schedule");
    }
}
