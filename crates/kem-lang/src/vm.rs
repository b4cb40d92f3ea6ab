//! The one dispatch loop over compiled bytecode ([`crate::bytecode`]).
//!
//! The server runs it over single [`Value`]s and the verifier's grouped
//! re-executor over multivalues, one per group member. This is Orochi's
//! SIMD-on-demand shape: the verifier is the application's own
//! interpreter with its values widened. [`Vm::run`] is generic over
//! the executor, a [`Machine`], and so over its operand type, an
//! [`Operand`]. It owns everything the two executors share: the fuel
//! charge due before each op and the op count, locals, every pure
//! operator, control flow with the loop limit, the fused windows of
//! "Operand fusion", and its pooled scratch. The fifteen effectful
//! ops — shared-variable reads and writes, emit, register, unregister,
//! respond, token and key screening, the five transactional ops,
//! listener counts and nondeterminism — are the machine's.
//!
//! Replay runs this loop on advice-derived values, so it fails closed:
//! an operand, loop counter or iterator missing from the scratch is a
//! [`VmError::Underflow`], never a panic.

use crate::ast::{BinOp, NondetKind};
use crate::bytecode::{FuncCode, Op};
use crate::error::RuntimeError;
use crate::ids::{FunctionId, Sym, VarId};
use crate::ops::{
    eval_binop, eval_contains, eval_digest, eval_index, eval_keys, eval_len, eval_list_push,
    eval_map_insert, eval_map_remove, eval_to_str, int_binop,
};
use crate::value::Value;

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
            None => Err(VmError::NotList(v.clone())),
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

/// A failure of the loop itself. Each executor maps it to its own
/// error type, with its own wording ([`Machine::Error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A pure operator failed: a type error, a division by zero.
    Op(RuntimeError),
    /// A local was read before it was bound; its source-level name.
    UnknownLocal(String),
    /// The group's members disagree where the group must act as one;
    /// the construct (`if condition`, `while condition`,
    /// `for-each length`).
    Divergence(&'static str),
    /// A `ForEach` over a value that is not a list.
    NotList(Value),
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
            VmError::UnknownLocal(name) => RuntimeError::new(format!("unknown local {name:?}")),
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
    /// Burns `units` of fuel, due before the op at hand acts.
    fn charge(&mut self, units: u32) -> Result<(), Self::Error>;
    /// A branch, loop-condition or for-each decision was taken.
    fn on_branch(&mut self, _taken: bool) {}

    /// `SharedRead`.
    fn shared_read(&mut self, var: VarId, loggable: bool) -> Result<Self::Operand, Self::Error>;
    /// `SharedWrite`.
    fn shared_write(
        &mut self,
        var: VarId,
        loggable: bool,
        v: Self::Operand,
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
/// window).
#[inline]
fn local<'l, O>(locals: &'l [Option<O>], code: &FuncCode, slot: u32) -> Result<&'l O, VmError> {
    match locals.get(slot as usize).and_then(Option::as_ref) {
        Some(v) => Ok(v),
        None => Err(VmError::UnknownLocal(code.slot_name(slot).to_string())),
    }
}

/// `x op y` when a fused window may run in place: `x` one integer for
/// every member and the operator defined on it (`/ 0` and `% 0` are
/// not). `None` sends the window down its plain ops, which produce the
/// per-member values, the type error or the division error.
#[inline]
fn fused<O: Operand>(op: BinOp, x: &O, y: &Value) -> Option<Value> {
    match (x.collapsed_int(), y) {
        (Some(x), Value::Int(y)) => int_binop(op, x, *y),
        _ => None,
    }
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
        self.stack.pop().ok_or(STACK_UNDERFLOW)
    }

    fn top(&self) -> Result<&O, VmError> {
        self.stack.last().ok_or(STACK_UNDERFLOW)
    }

    /// The top `count` operands, in push order.
    fn pop_n(&mut self, count: u32) -> Result<Vec<O>, VmError> {
        let at = self.stack.len().checked_sub(count as usize);
        Ok(self.stack.split_off(at.ok_or(STACK_UNDERFLOW)?))
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
        let count = self
            .loops
            .last_mut()
            .ok_or(VmError::Underflow("bytecode loop-counter underflow"))?;
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
        loop {
            // The fuel of every source node whose subtree begins at this
            // op, due before the op acts.
            let units = code.charges[pc];
            if units > 0 {
                m.charge(units)?;
            }
            self.ops += 1;
            match code.ops[pc] {
                Op::Const(i) => self
                    .stack
                    .push(O::from_value(code.consts[i as usize].clone())),
                Op::Local(slot) => {
                    let v = local(&self.locals, code, slot)?.clone();
                    self.stack.push(v);
                }
                // Fused windows (`crate::bytecode`, "Operand fusion"):
                // run in place on collapsed integers, else act as the
                // head op and let the window's plain tail follow.
                Op::BinLC { slot, k, op, len } => {
                    let x = local(&self.locals, code, slot)?;
                    match fused(op, x, &code.consts[k as usize]) {
                        Some(v) => {
                            pc = self.run_fused(m, code, pc, len, units, v, limit)?;
                            continue;
                        }
                        None => {
                            let x = x.clone();
                            self.stack.push(x);
                        }
                    }
                }
                Op::BinC { k, op, len } => {
                    let y = &code.consts[k as usize];
                    match self.stack.last().and_then(|x| fused(op, x, y)) {
                        Some(v) => {
                            self.stack.pop();
                            pc = self.run_fused(m, code, pc, len, units, v, limit)?;
                            continue;
                        }
                        None => self.stack.push(O::from_value(y.clone())),
                    }
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
                Op::MakeList(count) => {
                    let items = self.pop_n(count)?;
                    self.push(O::gather(&items, n, |i| {
                        Ok(Value::from_vec(
                            items.iter().map(|o| o.member(i).clone()).collect(),
                        ))
                    }))?;
                }
                Op::MakeMap { keys, n: count } => {
                    let vals = self.pop_n(count)?;
                    let keys = &code.strings[keys as usize..(keys + count) as usize];
                    self.push(O::gather(&vals, n, |i| {
                        let vals = vals.iter().map(|o| o.member(i).clone());
                        Ok(Value::from_pairs(keys.iter().cloned().zip(vals)))
                    }))?;
                }
                Op::MapInsert => {
                    let (v, k, map) = (self.pop()?, self.pop()?, self.pop()?);
                    let items = [map, k, v];
                    let [map, k, v] = &items;
                    self.push(O::gather(&items, n, |i| {
                        eval_map_insert(map.member(i), k.member(i), v.member(i))
                    }))?;
                }
                Op::MapRemove => self.binary(n, eval_map_remove)?,
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
                    m.shared_write(var, loggable, v)?;
                }
                Op::Branch { else_target } => {
                    let c = self.pop()?;
                    let taken = c.truthiness(n).ok_or(VmError::Divergence("if condition"))?;
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
                    let taken = c
                        .truthiness(n)
                        .ok_or(VmError::Divergence("while condition"))?;
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
                    let iter = self.iters.last_mut();
                    let (l, idx, len) =
                        iter.ok_or(VmError::Underflow("bytecode iterator underflow"))?;
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

    /// Finishes the fused window of `len` ops at `pc` whose operator
    /// gave `v`, and returns the pc to continue at. The head's `units`
    /// are spent and its local read has succeeded; what the plain ops
    /// would still do is charge and count the rest of the window, op by
    /// op — nothing fallible lies between those charges on this path,
    /// so exhaustion strikes at the same unit with the same counts —
    /// and then hand `v` to the window's last op: a `StoreLocal`, a
    /// `LoopBranch`, bit and all, or the `Bin` itself, whose result
    /// stays on the stack.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn run_fused<M: Machine<Operand = O>>(
        &mut self,
        m: &mut M,
        code: &FuncCode,
        pc: usize,
        len: u8,
        units: u32,
        v: Value,
        limit: u32,
    ) -> Result<usize, M::Error> {
        let end = pc + usize::from(len);
        let mut fuel = u64::from(units);
        for &units in &code.charges[pc + 1..end] {
            if units > 0 {
                m.charge(units)?;
                fuel += u64::from(units);
            }
            self.ops += 1;
        }
        self.fused_ops += u64::from(len);
        self.fused_fuel += fuel;
        match code.ops[end - 1] {
            Op::StoreLocal(dst) => self.store(dst, O::from_value(v)),
            Op::LoopBranch { end: exit } => {
                let taken = v.truthy();
                self.loop_branch(m, taken, limit)?;
                if !taken {
                    return Ok(exit as usize);
                }
            }
            _ => self.stack.push(O::from_value(v)),
        }
        Ok(end)
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
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
        fn charge(&mut self, _: u32) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn shared_read(&mut self, _: VarId, _: bool) -> Result<Value, RuntimeError> {
            Err(RuntimeError::new("effect"))
        }
        fn shared_write(&mut self, _: VarId, _: bool, _: Value) -> Result<(), RuntimeError> {
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
