//! The one dispatch loop over compiled bytecode ([`crate::bytecode`]).
//!
//! The server runs it over single [`Value`]s and the verifier's grouped
//! re-executor over multivalues, one per group member. This is Orochi's
//! SIMD-on-demand shape: the verifier is the application's own
//! interpreter with its values widened. [`Vm::run`] is generic over
//! the executor, a [`Machine`], and so over its operand type, an
//! [`Operand`]. It owns everything the two executors share: the fuel
//! charge due before each op and the op count, locals, every pure
//! operator, control flow with the loop limit, the integer runs of
//! "Operand fusion", and its pooled scratch. The fifteen effectful
//! ops — shared-variable reads and writes, emit, register, unregister,
//! respond, token and key screening, the five transactional ops,
//! listener counts and nondeterminism — are the machine's.
//!
//! Replay runs this loop on advice-derived values, so it fails closed:
//! an operand, loop counter or iterator missing from the scratch is a
//! [`VmError::Underflow`], never a panic.

use crate::ast::NondetKind;
use crate::bytecode::{FuncCode, Left, Op, Tail, RUN_REGS};
use crate::error::RuntimeError;
use crate::ids::{FunctionId, Sym, VarId};
use crate::ops::{
    eval_binop, eval_contains, eval_digest, eval_index, eval_keys, eval_len, eval_list_push,
    eval_map_insert, eval_map_remove, eval_to_str, int_binop, MapEdit, Scalar,
};
use crate::pvalue::{PList, PMap};
use crate::value::Value;
use std::sync::Arc;

/// Iterations one `While` loop may take: [`Machine::loop_limit`]'s
/// default and `ServerConfig::default().loop_limit`. Per loop, so
/// nested loops multiply; the fuel meter, a budget on total steps, is
/// the real bound on a handler, and this stays a coarse backstop.
pub const LOOP_LIMIT: u32 = 1_000_000;

/// What the loop computes on: one value per member of the group being
/// run, held as cheaply as the executor can. The provided methods are
/// the pure semantics of one value lifted to all members, computed once
/// when the members share their value (SIMD-on-demand).
pub trait Operand: Clone {
    /// The same `v` for every member.
    fn from_value(v: Value) -> Self;

    /// The one value every member shares, if they do.
    fn uniform(&self) -> Option<&Value>;

    /// Member `i`'s value.
    fn member(&self, i: usize) -> &Value;

    /// The operand whose member `i` is `f(i)`, for `n` members, stopping
    /// at the first error.
    fn from_members<E>(n: usize, f: impl FnMut(usize) -> Result<Value, E>) -> Result<Self, E>;

    /// `f` applied to every member's value.
    fn map(
        &self,
        f: impl FnMut(&Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError>;

    /// `f` applied to every member's pair of values.
    fn zip(
        &self,
        other: &Self,
        n: usize,
        f: impl FnMut(&Value, &Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError>;

    /// The one integer every member holds, if it is one: what a fused
    /// window may compute on in place.
    fn collapsed_int(&self) -> Option<i64> {
        match self.uniform() {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The operand whose member `i` is `build(i)`, `build` reading the
    /// operands `items`: built once when each item is uniform.
    fn gather(
        items: &[Self],
        n: usize,
        mut build: impl FnMut(usize) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError> {
        if items.iter().all(|o| o.uniform().is_some()) {
            return Ok(Self::from_value(build(0)?));
        }
        Self::from_members(n, build)
    }

    /// The branch every member takes, or `None` when they disagree.
    fn truthiness(&self, n: usize) -> Option<bool> {
        if let Some(v) = self.uniform() {
            return Some(v.truthy());
        }
        let mut bits = (0..n).map(|i| self.member(i).truthy());
        let first = bits.next()?;
        bits.all(|b| b == first).then_some(first)
    }

    /// How many times a `ForEach` over this operand iterates: the same
    /// for every member, and a non-list member fails before a length
    /// that differs.
    fn for_len(&self, n: usize) -> Result<usize, VmError> {
        let len = |v: &Value| match v.as_list() {
            Some(items) => Ok(items.len()),
            None => Err(VmError::NotList(Box::new(v.clone()))),
        };
        if let Some(v) = self.uniform() {
            return len(v);
        }
        let first = len(self.member(0))?;
        let mut same = true;
        for i in 1..n {
            same &= len(self.member(i))? == first;
        }
        match same {
            true => Ok(first),
            false => Err(VmError::Divergence("for-each length")),
        }
    }

    /// Every member's item `i` of the list a `ForEach` iterates.
    fn nth(&self, i: usize, n: usize) -> Result<Self, VmError> {
        let item = |v: &Value| {
            v.as_list()
                .and_then(|items| items.get(i).cloned())
                .ok_or(VmError::ItemOutOfRange)
        };
        match self.uniform() {
            Some(v) => Ok(Self::from_value(item(v)?)),
            None => Self::from_members(n, |m| item(self.member(m))),
        }
    }
}

impl Operand for Value {
    fn from_value(v: Value) -> Self {
        v
    }

    fn uniform(&self) -> Option<&Value> {
        Some(self)
    }

    fn member(&self, _: usize) -> &Value {
        self
    }

    fn from_members<E>(_: usize, mut f: impl FnMut(usize) -> Result<Value, E>) -> Result<Self, E> {
        f(0)
    }

    fn map(
        &self,
        mut f: impl FnMut(&Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError> {
        f(self)
    }

    fn zip(
        &self,
        other: &Self,
        _: usize,
        mut f: impl FnMut(&Value, &Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError> {
        f(self, other)
    }
}

/// What a `SharedWrite` hands the machine: the operand written, or, for
/// a `MapInsert` / `MapRemove` directly before it, the map edit that
/// makes it, not yet applied. The loop hands over an edit only when
/// every member's operands have the edit's types, so
/// [`Write::build`] is what the plain ops would have pushed and
/// [`Write::edit`] is every member's [`MapEdit`]. A machine that keeps
/// the written value builds it; one that only checks it against a
/// logged value need not.
#[derive(Debug, Clone)]
pub enum Write<O> {
    /// The operand written.
    Value(O),
    /// `map_insert(map, key, value)`.
    Insert {
        /// The map edited.
        map: O,
        /// The key bound.
        key: O,
        /// The value bound to it.
        value: O,
    },
    /// `map_remove(map, key)`.
    Remove {
        /// The map edited.
        map: O,
        /// The key removed.
        key: O,
    },
}

impl<O: Operand> Write<O> {
    /// The operand written, for `n` members: an edit is built as the
    /// `MapInsert` / `MapRemove` op builds it, once when every operand
    /// is uniform.
    pub fn build(self, n: usize) -> Result<O, RuntimeError> {
        match self {
            Write::Value(v) => Ok(v),
            Write::Insert { map, key, value } => {
                let items = [map, key, value];
                let [map, key, value] = &items;
                O::gather(&items, n, |i| {
                    eval_map_insert(map.member(i), key.member(i), value.member(i))
                })
            }
            Write::Remove { map, key } => {
                let items = [map, key];
                let [map, key] = &items;
                O::gather(&items, n, |i| eval_map_remove(map.member(i), key.member(i)))
            }
        }
    }

    /// Member `i`'s edit, or the type error the op would have raised;
    /// `None` for a plain value.
    pub fn edit(&self, i: usize) -> Option<Result<MapEdit<'_>, RuntimeError>> {
        Some(match self {
            Write::Value(_) => return None,
            Write::Insert { map, key, value } => {
                MapEdit::insert(map.member(i), key.member(i), value.member(i))
            }
            Write::Remove { map, key } => MapEdit::remove(map.member(i), key.member(i)),
        })
    }

    /// Whether every operand is one value for all members, so that the
    /// value written is too.
    pub fn uniform(&self) -> bool {
        let one = |o: &O| o.uniform().is_some();
        match self {
            Write::Value(v) => one(v),
            Write::Insert { map, key, value } => one(map) && one(key) && one(value),
            Write::Remove { map, key } => one(map) && one(key),
        }
    }

    /// Whether every one of `n` members' operands has the edit's types.
    fn typed(&self, n: usize) -> bool {
        let members = if self.uniform() { n.min(1) } else { n };
        (0..members).all(|i| self.edit(i).is_none_or(|e| e.is_ok()))
    }
}

/// A failure of the loop itself. Each executor maps it to its own
/// error type, with its own wording ([`Machine::Error`]). A read of an
/// unbound local is the one failure the executor words from the running
/// function's slot name ([`Machine::unknown_local`]); nothing builds that
/// name unless the read fails.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A pure operator failed: a type error, a division by zero.
    Op(RuntimeError),
    /// The group's members disagree where the group must act as one;
    /// the construct (`if condition`, `while condition`,
    /// `for-each length`).
    Divergence(&'static str),
    /// A `ForEach` over a value that is not a list.
    NotList(Box<Value>),
    /// A `ForEach` item past the list's end.
    ItemOutOfRange,
    /// A `While` loop ran past the loop limit.
    LoopLimit,
    /// An operand, loop counter or iterator an op needs is not there.
    /// The compiler balances all three, so this is an interpreter bug.
    Underflow(&'static str),
}

/// The server's wording.
impl From<VmError> for RuntimeError {
    fn from(e: VmError) -> Self {
        match e {
            VmError::Op(e) => e,
            VmError::Divergence(context) => RuntimeError::new(format!("divergent {context}")),
            VmError::NotList(v) => RuntimeError::type_error("for-each", &v),
            VmError::ItemOutOfRange => RuntimeError::new("for-each item out of range"),
            VmError::LoopLimit => RuntimeError::new("while loop exceeded iteration limit"),
            VmError::Underflow(what) => RuntimeError::new(what),
        }
    }
}

/// The five transactional operation types of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxOpKind {
    /// `tx_start`.
    Start,
    /// `GET`.
    Get,
    /// `PUT`.
    Put,
    /// `tx_commit`.
    Commit,
    /// `tx_abort` (explicit, or the record of a conflict-aborted op).
    Abort,
}

impl TxOpKind {
    /// Short name used in logs and error messages.
    pub fn name(self) -> &'static str {
        match self {
            TxOpKind::Start => "tx_start",
            TxOpKind::Get => "GET",
            TxOpKind::Put => "PUT",
            TxOpKind::Commit => "tx_commit",
            TxOpKind::Abort => "tx_abort",
        }
    }
}

/// An executor of the loop: the fuel meter, the branch-bit sink and
/// the fifteen effectful ops.
pub trait Machine {
    /// The values the loop computes on.
    type Operand: Operand;
    /// The executor's error; the loop's own failures convert into it.
    type Error: From<VmError>;

    /// Members each operand holds: 1 on the server.
    fn width(&self) -> usize;
    /// Iterations one `While` loop may take.
    fn loop_limit(&self) -> u32 {
        LOOP_LIMIT
    }
    /// Burns `units` of fuel, due before the op at hand acts; an integer
    /// run pays each loop trip's windows at once (`Vm::run_ints`).
    fn charge(&mut self, units: u64) -> Result<(), Self::Error>;
    /// The fuel [`Machine::charge`] may still burn without failing: an
    /// integer run reads it on entry and runs a fused window only when
    /// what is left of it covers the window.
    fn fuel_left(&self) -> u64;
    /// The error for a read of the unbound local `name`.
    fn unknown_local(name: &str) -> Self::Error;
    /// A branch, loop-condition or for-each decision was taken.
    fn on_branch(&mut self, _taken: bool) {}

    /// `SharedRead`.
    fn shared_read(&mut self, var: VarId, loggable: bool) -> Result<Self::Operand, Self::Error>;
    /// `SharedWrite`, or a map edit and the `SharedWrite` after it
    /// ([`Write`]).
    fn shared_write(
        &mut self,
        var: VarId,
        loggable: bool,
        w: Write<Self::Operand>,
    ) -> Result<(), Self::Error>;
    /// `Emit`.
    fn emit(&mut self, event: Sym, payload: Self::Operand) -> Result<(), Self::Error>;
    /// `Register`.
    fn register(&mut self, event: Sym, function: FunctionId) -> Result<(), Self::Error>;
    /// `Unregister`.
    fn unregister(&mut self, event: Sym, function: FunctionId) -> Result<(), Self::Error>;
    /// `Respond`.
    fn respond(&mut self, v: Self::Operand) -> Result<(), Self::Error>;
    /// `TxToken`: screens the token between operand evaluations.
    fn screen_token(&mut self, _tx: &Self::Operand) -> Result<(), Self::Error> {
        Ok(())
    }
    /// `RowKey`: screens the key between operand evaluations.
    fn screen_key(&mut self, _key: &Self::Operand) -> Result<(), Self::Error> {
        Ok(())
    }
    /// `TxStart`.
    fn tx_start(&mut self, ctx: Self::Operand, on_done: FunctionId) -> Result<(), Self::Error>;
    /// `TxGet`, `TxPut`, `TxCommit` and `TxAbort`.
    fn tx_op(
        &mut self,
        kind: TxOpKind,
        tx: Self::Operand,
        key: Option<Self::Operand>,
        value: Option<Self::Operand>,
        ctx: Self::Operand,
        on_done: FunctionId,
    ) -> Result<(), Self::Error>;
    /// `ListenerCount`: the count to bind.
    fn listener_count(&mut self, event: Sym) -> Result<Self::Operand, Self::Error>;
    /// `Nondet`: the value to bind.
    fn nondet(&mut self, kind: NondetKind) -> Result<Self::Operand, Self::Error>;
}

/// The loop's pooled scratch and its counters. Handlers run to
/// completion, never reentrantly, so one operand stack, loop-counter
/// stack, iterator stack and frame serve every activation an executor
/// runs.
pub struct Vm<O> {
    stack: Vec<O>,
    loops: Vec<u32>,
    /// Per `ForEach`: the list, the next item, the length.
    iters: Vec<(O, usize, usize)>,
    /// The running handler's locals by slot; `None` until bound, so a
    /// read before binding errors with the source-level name.
    locals: Vec<Option<O>>,
    /// Ops dispatched.
    pub ops: u64,
    /// Of `ops`, the ops inside windows that ran fused.
    pub fused_ops: u64,
    /// The fuel those windows were charged.
    pub fused_fuel: u64,
}

impl<O> Default for Vm<O> {
    fn default() -> Self {
        Vm {
            stack: Vec::new(),
            loops: Vec::new(),
            iters: Vec::new(),
            locals: Vec::new(),
            ops: 0,
            fused_ops: 0,
            fused_fuel: 0,
        }
    }
}

const STACK_UNDERFLOW: VmError = VmError::Underflow("bytecode operand stack underflow");

/// A bound local (the `Local` op, and the head of a fused `BinLC`
/// window), or the executor's error naming it.
#[inline]
fn local<'l, M: Machine>(
    locals: &'l [Option<M::Operand>],
    code: &FuncCode,
    slot: u32,
) -> Result<&'l M::Operand, M::Error> {
    match locals.get(slot as usize).and_then(Option::as_ref) {
        Some(v) => Ok(v),
        None => Err(M::unknown_local(code.slot_name(slot))),
    }
}

/// A register index of a run, in range of its register array whatever
/// the bytecode says: `fuse` never names a register past `RUN_REGS`.
#[inline]
fn reg(r: u32) -> usize {
    const _: () = assert!(RUN_REGS.is_power_of_two());
    r as usize & (RUN_REGS - 1)
}

impl<O: Operand> Vm<O> {
    /// Runs one handler body on `m`, with `payload` bound to slot 0.
    pub fn run<M: Machine<Operand = O>>(
        &mut self,
        m: &mut M,
        code: &FuncCode,
        payload: O,
    ) -> Result<(), M::Error> {
        self.locals.clear();
        self.locals.resize(code.n_slots as usize, None);
        if let Some(s0) = self.locals.get_mut(0) {
            *s0 = Some(payload);
        }
        self.stack.reserve(code.max_stack as usize);
        let result = self.dispatch(m, code);
        // Errors may leave operands behind.
        self.stack.clear();
        self.loops.clear();
        self.iters.clear();
        self.locals.clear();
        result
    }

    fn pop(&mut self) -> Result<O, VmError> {
        // Here and in the loop's tests: the error is built (and dropped)
        // only on failure, which `ok_or` does not promise.
        match self.stack.pop() {
            Some(v) => Ok(v),
            None => Err(STACK_UNDERFLOW),
        }
    }

    fn top(&self) -> Result<&O, VmError> {
        self.stack.last().ok_or(STACK_UNDERFLOW)
    }

    /// Replaces the top `count` operands with what `f` makes of them
    /// (a slice of the stack, in push order).
    fn fold_n(
        &mut self,
        count: u32,
        f: impl FnOnce(&[O]) -> Result<O, RuntimeError>,
    ) -> Result<(), VmError> {
        let at = self.stack.len().checked_sub(count as usize);
        let at = at.ok_or(STACK_UNDERFLOW)?;
        let made = f(self.stack.get(at..).unwrap_or(&[]));
        self.stack.truncate(at);
        self.push(made)
    }

    fn push(&mut self, v: Result<O, RuntimeError>) -> Result<(), VmError> {
        self.stack.push(v.map_err(VmError::Op)?);
        Ok(())
    }

    /// Pops `a`; pushes `f(a)`.
    fn unary(
        &mut self,
        f: impl FnMut(&Value) -> Result<Value, RuntimeError>,
    ) -> Result<(), VmError> {
        let a = self.pop()?;
        self.push(a.map(f))
    }

    /// Pops `b`, `a`; pushes `f(a, b)`.
    fn binary(
        &mut self,
        n: usize,
        f: impl FnMut(&Value, &Value) -> Result<Value, RuntimeError>,
    ) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        self.push(a.zip(&b, n, f))
    }

    fn store(&mut self, slot: u32, v: O) {
        if let Some(s) = self.locals.get_mut(slot as usize) {
            *s = Some(v);
        }
    }

    /// A `LoopBranch` once the condition is known: reports the bit, then
    /// a taken branch counts the iteration against `limit` and an
    /// untaken one retires the loop's counter.
    #[inline]
    fn loop_branch<M: Machine>(
        &mut self,
        m: &mut M,
        taken: bool,
        limit: u32,
    ) -> Result<(), VmError> {
        m.on_branch(taken);
        if !taken {
            self.loops.pop();
            return Ok(());
        }
        let Some(count) = self.loops.last_mut() else {
            return Err(VmError::Underflow("bytecode loop-counter underflow"));
        };
        *count = count.saturating_add(1);
        match *count > limit {
            true => Err(VmError::LoopLimit),
            false => Ok(()),
        }
    }

    fn dispatch<M: Machine<Operand = O>>(
        &mut self,
        m: &mut M,
        code: &FuncCode,
    ) -> Result<(), M::Error> {
        let n = m.width();
        let limit = m.loop_limit();
        let mut pc = 0usize;
        // The window head at which a run last stopped: it runs plain once.
        let mut plain = usize::MAX;
        loop {
            // Fused windows (`crate::bytecode`, "Operand fusion") run as
            // an integer run, which charges them itself.
            if let Op::BinLC { window, .. } | Op::BinC { window, .. } = code.ops[pc] {
                if pc != plain {
                    (pc, plain) = self.run_ints(m, code, window, limit)?;
                    continue;
                }
            }
            // The fuel of every source node whose subtree begins at this
            // op, due before the op acts.
            let units = code.charges[pc];
            if units > 0 {
                m.charge(u64::from(units))?;
            }
            self.ops += 1;
            match code.ops[pc] {
                Op::Const(i) => self
                    .stack
                    .push(O::from_value(code.consts[i as usize].clone())),
                // A fused window's head where its run stopped
                // (`Vm::run_ints`): the plain op, the tail following.
                Op::Local(slot) | Op::BinLC { slot, .. } => {
                    plain = usize::MAX;
                    let v = local::<M>(&self.locals, code, slot)?.clone();
                    self.stack.push(v);
                }
                Op::BinC { k, .. } => {
                    plain = usize::MAX;
                    self.stack
                        .push(O::from_value(code.consts[k as usize].clone()));
                }
                Op::SharedRead { var, loggable } => {
                    let v = m.shared_read(var, loggable)?;
                    self.stack.push(v);
                }
                Op::Bin(op) => self.binary(n, |x, y| eval_binop(op, x, y))?,
                Op::Not => self.unary(|v| Ok(Value::Bool(!v.truthy())))?,
                Op::Field(i) => {
                    let name = code.strings[i as usize].as_ref();
                    self.unary(|v| Ok(v.field(name).cloned().unwrap_or(Value::Null)))?;
                }
                Op::Index => self.binary(n, eval_index)?,
                Op::Len => self.unary(eval_len)?,
                Op::Contains => self.binary(n, eval_contains)?,
                // Each member's container is collected straight into its
                // nodes (`pvalue`, "Building nodes in place").
                Op::MakeList(count) => self.fold_n(count, |items| {
                    O::gather(items, n, |i| {
                        let items = items.iter().map(|o| o.member(i).clone());
                        Ok(Value::List(PList::from_exact(items)))
                    })
                })?,
                Op::MakeMap {
                    keys,
                    n: count,
                    order,
                } => {
                    let keys = &code.strings[keys as usize..(keys + count) as usize];
                    let order = &code.map_orders[order as usize];
                    self.fold_n(count, |vals| {
                        O::gather(vals, n, |i| {
                            let pairs = order.iter().map(|&j| {
                                let j = j as usize;
                                (Arc::clone(&keys[j]), vals[j].member(i).clone())
                            });
                            Ok(Value::Map(PMap::from_sorted_pairs(pairs)))
                        })
                    })?;
                }
                Op::MapInsert => {
                    let (value, key, map) = (self.pop()?, self.pop()?, self.pop()?);
                    if self.map_edit(m, code, pc, Write::Insert { map, key, value })? {
                        pc += 2;
                        continue;
                    }
                }
                Op::MapRemove => {
                    let (key, map) = (self.pop()?, self.pop()?);
                    if self.map_edit(m, code, pc, Write::Remove { map, key })? {
                        pc += 2;
                        continue;
                    }
                }
                Op::ListPush => self.binary(n, eval_list_push)?,
                Op::Keys => self.unary(eval_keys)?,
                Op::Digest => self.unary(|v| Ok(eval_digest(v)))?,
                Op::ToStr => self.unary(|v| Ok(eval_to_str(v)))?,
                Op::StoreLocal(slot) => {
                    let v = self.pop()?;
                    self.store(slot, v);
                }
                Op::SharedWrite { var, loggable } => {
                    let v = self.pop()?;
                    m.shared_write(var, loggable, Write::Value(v))?;
                }
                Op::Branch { else_target } => {
                    let c = self.pop()?;
                    let Some(taken) = c.truthiness(n) else {
                        return Err(VmError::Divergence("if condition").into());
                    };
                    m.on_branch(taken);
                    if !taken {
                        pc = else_target as usize;
                        continue;
                    }
                }
                Op::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::LoopEnter => self.loops.push(0),
                Op::LoopBranch { end } => {
                    let c = self.pop()?;
                    let Some(taken) = c.truthiness(n) else {
                        return Err(VmError::Divergence("while condition").into());
                    };
                    self.loop_branch(m, taken, limit)?;
                    if !taken {
                        pc = end as usize;
                        continue;
                    }
                }
                Op::ForEnter => {
                    let l = self.pop()?;
                    let len = l.for_len(n)?;
                    self.iters.push((l, 0, len));
                }
                Op::ForNext { slot, end } => {
                    let Some((l, idx, len)) = self.iters.last_mut() else {
                        return Err(VmError::Underflow("bytecode iterator underflow").into());
                    };
                    if *idx < *len {
                        let item = l.nth(*idx, n)?;
                        *idx += 1;
                        m.on_branch(true);
                        self.store(slot, item);
                    } else {
                        m.on_branch(false);
                        self.iters.pop();
                        pc = end as usize;
                        continue;
                    }
                }
                Op::Emit { event } => {
                    let payload = self.pop()?;
                    m.emit(event, payload)?;
                }
                Op::Register { event, function } => m.register(event, function)?,
                Op::Unregister { event, function } => m.unregister(event, function)?,
                Op::Respond => {
                    let v = self.pop()?;
                    m.respond(v)?;
                }
                // Peeks: the terminal tx op still needs the operand.
                Op::TxToken => m.screen_token(self.top()?)?,
                Op::RowKey => m.screen_key(self.top()?)?,
                Op::TxStart { on_done } => {
                    let ctx = self.pop()?;
                    m.tx_start(ctx, on_done)?;
                }
                Op::TxGet { on_done } => {
                    let (ctx, key, tx) = (self.pop()?, self.pop()?, self.pop()?);
                    m.tx_op(TxOpKind::Get, tx, Some(key), None, ctx, on_done)?;
                }
                Op::TxPut { on_done } => {
                    let (ctx, value, key) = (self.pop()?, self.pop()?, self.pop()?);
                    let tx = self.pop()?;
                    m.tx_op(TxOpKind::Put, tx, Some(key), Some(value), ctx, on_done)?;
                }
                Op::TxCommit { on_done } => {
                    let (ctx, tx) = (self.pop()?, self.pop()?);
                    m.tx_op(TxOpKind::Commit, tx, None, None, ctx, on_done)?;
                }
                Op::TxAbort { on_done } => {
                    let (ctx, tx) = (self.pop()?, self.pop()?);
                    m.tx_op(TxOpKind::Abort, tx, None, None, ctx, on_done)?;
                }
                Op::ListenerCount { slot, event } => {
                    let count = m.listener_count(event)?;
                    self.store(slot, count);
                }
                Op::Nondet { slot, kind } => {
                    let v = m.nondet(kind)?;
                    self.store(slot, v);
                }
                Op::Ret => return Ok(()),
            }
            pc += 1;
        }
    }

    /// The `MapInsert` or `MapRemove` at `pc`, its operands popped into
    /// `edit`. When the next op is a `SharedWrite` and every member's
    /// operands have the edit's types, the two ops run as one: the
    /// `SharedWrite`'s charge and count are made as the loop would have
    /// made them, the machine gets the edit unbuilt, and this returns
    /// `true`. Otherwise the plain op builds the map, or fails, and
    /// pushes it. Kept out of line: the dispatch loop stays the size it
    /// was for the ops that run far more often.
    #[inline(never)]
    fn map_edit<M: Machine<Operand = O>>(
        &mut self,
        m: &mut M,
        code: &FuncCode,
        pc: usize,
        edit: Write<O>,
    ) -> Result<bool, M::Error> {
        let n = m.width();
        if let Some(&Op::SharedWrite { var, loggable }) = code.ops.get(pc + 1) {
            if edit.typed(n) {
                let units = code.charges[pc + 1];
                if units > 0 {
                    m.charge(u64::from(units))?;
                }
                self.ops += 1;
                m.shared_write(var, loggable, edit)?;
                return Ok(true);
            }
        }
        self.push(edit.build(n))?;
        Ok(false)
    }

    /// Runs the integer run that holds `window`, from that window on, and
    /// returns where the plain ops go on: the pc after the run, and that
    /// pc again when it is a window head that must run plain once.
    ///
    /// Each window runs here exactly when it would run fused on its own:
    /// its left operand — a register loaded at entry, or the previous
    /// window's result — is one integer, the operator is defined on it
    /// and the fuel left covers the window's fuel. Otherwise the run stops
    /// before the window: it writes back the registers it changed, pushes
    /// a pending result and hands the window to the plain ops, which
    /// charge, count and fail exactly as they would have without the run.
    ///
    /// The run computes on registers alone and settles with the machine
    /// per loop trip: it reads [`Machine::fuel_left`] once, on entry,
    /// keeps the remainder and its op counters in locals, charges the
    /// trip's fuel before each loop test's `loop_branch` and the rest on
    /// leaving, and adds its counts to the `Vm`'s once.
    fn run_ints<M: Machine<Operand = O>>(
        &mut self,
        m: &mut M,
        code: &FuncCode,
        window: u32,
        limit: u32,
    ) -> Result<(usize, usize), M::Error> {
        let head = &code.windows[window as usize];
        let run = &code.runs[head.run as usize];
        let windows = &code.windows[run.start as usize..run.end as usize];
        // The previous window's result, not yet on the stack.
        let mut pending = None;
        if head.left == Left::Prev {
            match self.stack.last().and_then(O::collapsed_int) {
                Some(x) => {
                    self.stack.pop();
                    pending = Some(Scalar::Int(x));
                }
                None => return Ok((head.pc as usize, head.pc as usize)),
            }
        }
        // `None` where the local is not one integer: a window reading it
        // stops the run.
        let mut regs = [None; RUN_REGS];
        for (reg, &slot) in regs.iter_mut().zip(&run.slots) {
            let v = self.locals.get(slot as usize).and_then(Option::as_ref);
            *reg = v.and_then(O::collapsed_int).map(Scalar::Int);
        }
        // `owed`: the fuel of the windows run since the last charge;
        // `left`: what the machine could still burn once that is paid.
        let entry = m.fuel_left();
        let (mut left, mut owed) = (entry, 0u64);
        let (mut fused, mut jumps, mut dirty) = (0u64, 0u64, 0u32);
        // Each pass is the run's windows from `from` on: a trip of a
        // cyclic run after the first.
        let mut from = (window - run.start) as usize;
        let stop = 'run: loop {
            for w in windows.get(from..).unwrap_or_default() {
                let x = match w.left {
                    Left::Reg(r) => regs[reg(r)],
                    Left::Prev => pending,
                };
                let v = match x {
                    Some(Scalar::Int(x)) => int_binop(w.op, x, w.k),
                    _ => None,
                };
                let Some(v) = v.filter(|_| left >= u64::from(w.fuel)) else {
                    break 'run Ok((w.pc as usize, w.pc as usize));
                };
                pending = None;
                left -= u64::from(w.fuel);
                owed += u64::from(w.fuel);
                fused += u64::from(w.len);
                match w.tail {
                    Tail::Store(r) => {
                        regs[reg(r)] = Some(v);
                        dirty |= 1 << reg(r);
                    }
                    Tail::Loop { exit } => {
                        // The trip's fuel, due before the loop test's bit.
                        if let Err(e) = m.charge(std::mem::take(&mut owed)) {
                            break 'run Err(e);
                        }
                        let taken = v.truthy();
                        if let Err(e) = self.loop_branch(m, taken, limit) {
                            break 'run Err(e.into());
                        }
                        if !taken {
                            break 'run Ok((exit as usize, usize::MAX));
                        }
                    }
                    Tail::Bare => pending = Some(v),
                }
                jumps += u64::from(w.jump);
            }
            match windows.last() {
                Some(_) if run.cyclic => from = 0,
                Some(w) => break Ok((w.next as usize, usize::MAX)),
                None => break Ok((head.pc as usize, head.pc as usize)),
            }
        };
        // An error leaves nothing owed: it settled the trip it broke off.
        let settled = match owed {
            0 => Ok(()),
            _ => m.charge(owed),
        };
        self.ops += fused + jumps;
        self.fused_ops += fused;
        self.fused_fuel += entry - left;
        for (r, (v, &slot)) in regs.into_iter().zip(&run.slots).enumerate() {
            if let Some(v) = v.filter(|_| dirty & 1 << r != 0) {
                self.store(slot, O::from_value(v.into()));
            }
        }
        if let Some(v) = pending {
            self.stack.push(O::from_value(v.into()));
        }
        settled.and(stop)
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::bytecode::Block;
    use crate::ids::Sym;

    /// A machine with no effects: every effectful op is an error.
    struct Pure;

    impl Machine for Pure {
        type Operand = Value;
        type Error = RuntimeError;
        fn width(&self) -> usize {
            1
        }
        fn charge(&mut self, _: u64) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn fuel_left(&self) -> u64 {
            u64::MAX
        }
        fn unknown_local(name: &str) -> RuntimeError {
            RuntimeError::new(name)
        }
        fn shared_read(&mut self, _: VarId, _: bool) -> Result<Value, RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn shared_write(&mut self, _: VarId, _: bool, _: Write<Value>) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn emit(&mut self, _: Sym, _: Value) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn register(&mut self, _: Sym, _: FunctionId) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn unregister(&mut self, _: Sym, _: FunctionId) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn respond(&mut self, _: Value) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn tx_start(&mut self, _: Value, _: FunctionId) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn tx_op(
            &mut self,
            _: TxOpKind,
            _: Value,
            _: Option<Value>,
            _: Option<Value>,
            _: Value,
            _: FunctionId,
        ) -> Result<(), RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn listener_count(&mut self, _: Sym) -> Result<Value, RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn nondet(&mut self, _: NondetKind) -> Result<Value, RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
    }

    fn body(ops: Vec<Op>) -> FuncCode {
        let n = ops.len();
        FuncCode {
            charges: vec![0; n],
            ops,
            consts: vec![Value::Int(1)],
            strings: Vec::new(),
            blocks: vec![Block {
                start: 0,
                end: n as u32,
            }],
            max_stack: 0,
            name: Sym(0),
            n_slots: 1,
            slot_names: vec!["payload".into()],
            windows: Vec::new(),
            runs: Vec::new(),
            map_orders: Vec::new(),
        }
    }

    #[test]
    fn an_unbalanced_body_is_a_typed_error_not_a_panic() {
        let cases = [
            (vec![Op::Bin(BinOp::Add), Op::Ret], "operand stack"),
            (vec![Op::MakeList(2), Op::Ret], "operand stack"),
            (vec![Op::TxToken, Op::Ret], "operand stack"),
            (
                vec![Op::Const(0), Op::LoopBranch { end: 1 }, Op::Ret],
                "loop-counter",
            ),
            (vec![Op::ForNext { slot: 0, end: 1 }, Op::Ret], "iterator"),
        ];
        for (ops, what) in cases {
            let err = Vm::default()
                .run(&mut Pure, &body(ops.clone()), Value::Null)
                .expect_err("underflow");
            assert!(err.message.contains(what), "{ops:?}: {err}");
        }
    }
}
