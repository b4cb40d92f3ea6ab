//! Flat bytecode for KJS bodies: what handlers run on.
//!
//! Every function body is lowered once, at program build time, straight
//! from the AST ([`Stmt`], [`Expr`]) to a dense stream of fixed-width
//! [`Op`]s organized into basic blocks. The same walk resolves every
//! name (DESIGN.md §7): locals become frame slots, shared variables
//! their [`VarId`] and loggability, functions their [`FunctionId`], and
//! events a [`Sym`] of the program's [`Interner`] — so an unknown name
//! is a [`BuildError`] here, and no handler looks a name up at run
//! time. The ops are the representation
//! Miden-VM's MAST calls a `BasicBlockNode`, and the shape Orochi's
//! argument for cheap re-execution assumes: the auditor replays orders
//! of magnitude more operations than the server executes live, so each
//! replayed operation must cost a few array indexes, not a recursive
//! `match` over boxed AST nodes.
//!
//! There is one interpreter, one dispatch loop over the stream
//! ([`crate::vm`]): `kem`'s `Runtime` (server-side trace collection)
//! runs the ops over single [`Value`]s, and the verifier's grouped
//! re-executor runs the identical ops over multivalues. `lower` is the
//! only reader of a body's AST, and what it emits defines the language's
//! observable semantics:
//!
//! * **Operand order.** Children compile left-to-right and ops execute
//!   post-order, so a node's actions (hooks, opnum bumps, advice
//!   checks) happen after its operands', left operand first. `And` and
//!   `Or` are ordinary [`Op::Bin`]s: both operands are always
//!   evaluated. Opnums, digests and error precedence follow.
//! * **Control-flow digests.** The collector digests the sequence of
//!   `on_branch` bits per activation. [`Op::Branch`], [`Op::LoopBranch`]
//!   and [`Op::ForNext`] fire one hook per decision, in order, so the
//!   branch bit-string is precisely a canonical encoding of the
//!   basic-block path the handler takes; every control-flow digest and
//!   Karousos tag is a function of it.
//! * **Fuel.** Fuel is defined on the *source program*: one unit per
//!   statement executed and one per expression node evaluated, a
//!   `While`'s condition counted once per test, its statement once. It
//!   is due at node entry, before any of the node's operands act.
//!   `lower` emits a parallel *charge table* that attaches each node's
//!   unit to the first op of that node's subtree, so `charges[pc]` is
//!   the fuel of every node entered between the previous op's action
//!   and this one's, and the dispatch loop charges it, whole, before the
//!   op acts. Nothing fallible lies between those entries, so an
//!   exhausted budget stops the handler before the op whose entry
//!   overran it and reports `spent = limit + 1` — where the first
//!   over-budget unit stops the meter. `fuse` moves no charge.
//!
//! # Operand fusion
//!
//! After lowering, `fuse` rewrites the *head* op of every window
//! `Local; Const; Bin` and `Const; Bin` — each optionally ending in
//! `StoreLocal` or `LoopBranch` — that has an integer constant and lies
//! inside one basic block into [`Op::BinLC`] / [`Op::BinC`], which name
//! the window's operands and its length. Nothing else moves: the
//! window's other ops stay where they are, so `ops.len()`, `charges`,
//! `blocks` and every jump target are those of the unfused lowering. A
//! fused op is therefore a *guard*, never an obligation. An executor
//! that sees collapsed integer operands on which the operator cannot
//! fail may charge the window's units in the plain ops' order (the
//! head's, then — after the fallible local read — each remaining op's:
//! nothing fallible lies between them on that path), compute on the
//! `i64`s, put the result where the window's last op would and continue
//! after the window.
//! Otherwise it does what the head op alone does — push the local, push
//! the constant — and the untouched tail executes as it always did. The
//! dispatch loop takes the first path whenever it may: for the verifier
//! a collapsed instruction at a single value's cost (the paper's §4.1),
//! for the server the same trace, advice and fuel as the plain ops.
//! Which windows exist was read off the dynamic window histogram
//! of the four benchmark workloads (EXPERIMENTS.md, PR 21).

use crate::ast::{BinOp, BuildError, Expr, Function, NondetKind, Stmt, VarDecl};
use crate::ids::{FunctionId, Interner, Sym, VarId};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One fixed-width opcode. Value-producing ops push onto the operand
/// stack; statement ops pop their operands (pushed left-to-right, so
/// popped in reverse). Strings and constants live in per-function
/// pools referenced by index, keeping every variant `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push local slot `i` (error if unbound).
    Local(u32),
    /// Push a shared variable's value (loggable reads bump the opnum
    /// and hit the hooks/advice).
    SharedRead {
        /// The variable read.
        var: VarId,
        /// Whether the access is visible to auditing.
        loggable: bool,
    },
    /// Pop `b`, `a`; push `a op b` (`And` / `Or` included: no
    /// short-circuit).
    Bin(BinOp),
    /// Pop `a`; push `!truthy(a)`.
    Not,
    /// Pop `a`; push `a.strings[i]` (missing fields read as null).
    Field(u32),
    /// Pop `i`, `a`; push `a[i]`.
    Index,
    /// Pop `a`; push its length.
    Len,
    /// Pop `b`, `a`; push `b in a`.
    Contains,
    /// Pop `n` values; push the list of them in push order.
    MakeList(u32),
    /// Pop `n` values; push the map pairing them with
    /// `strings[keys..keys + n]` in push order.
    MakeMap {
        /// Start of the key run in the string pool.
        keys: u32,
        /// Number of pairs.
        n: u32,
    },
    /// Pop `v`, `k`, `m`; push `m` with `k ↦ v`.
    MapInsert,
    /// Pop `k`, `m`; push `m` without `k`.
    MapRemove,
    /// Pop `v`, `l`; push `l ++ [v]`.
    ListPush,
    /// Pop `m`; push its key list.
    Keys,
    /// Pop `v`; push its digest.
    Digest,
    /// Pop `v`; push its string rendering.
    ToStr,
    /// Pop a value into local slot `i`.
    StoreLocal(u32),
    /// Pop a value into a shared variable (loggable writes bump the
    /// opnum and hit the hooks/advice).
    SharedWrite {
        /// The variable written.
        var: VarId,
        /// Whether the access is visible to auditing.
        loggable: bool,
    },
    /// Block terminator for `If`: pop the condition, report the branch
    /// bit, fall through when taken, jump to `else_target` otherwise.
    Branch {
        /// First op of the else block.
        else_target: u32,
    },
    /// Unconditional block terminator.
    Jump(u32),
    /// Loop prologue for `While`: push a fresh iteration counter. This
    /// op exists so the statement's single entry charge has a home
    /// outside the loop body (the condition re-charges per iteration,
    /// the statement must not).
    LoopEnter,
    /// Block terminator for `While`: pop the condition, report the
    /// branch bit; when taken count the iteration against the loop
    /// limit and fall through, otherwise pop the counter and jump.
    LoopBranch {
        /// First op after the loop.
        end: u32,
    },
    /// `ForEach` prologue: pop the list, validate it (a non-list
    /// member, then members of different lengths), push an iterator.
    ForEnter,
    /// Block terminator heading a `ForEach` body: bind the next item
    /// to `slot` and fall through, or pop the iterator and jump.
    ForNext {
        /// Loop-variable slot.
        slot: u32,
        /// First op after the loop.
        end: u32,
    },
    /// Pop the payload and emit `event` with it.
    Emit {
        /// Emitted event.
        event: Sym,
    },
    /// Register `function` for `event`.
    Register {
        /// Subscribed event.
        event: Sym,
        /// Registered handler.
        function: FunctionId,
    },
    /// Unregister `function` from `event`.
    Unregister {
        /// Unsubscribed event.
        event: Sym,
        /// Unregistered handler.
        function: FunctionId,
    },
    /// Pop the response value and respond.
    Respond,
    /// Validate the transaction token on top of the stack (peek, no
    /// pop). The live runtime checks the token *between* operand
    /// evaluations; the verifier validates per group member at the
    /// terminal op instead, so its machine treats this as a no-op.
    TxToken,
    /// Validate the row key on top of the stack (peek, no pop);
    /// verifier no-op like [`Op::TxToken`].
    RowKey,
    /// Pop `ctx`; begin a transaction.
    TxStart {
        /// Continuation handler.
        on_done: FunctionId,
    },
    /// Pop `ctx`, `key`, `tx`; issue a transactional GET.
    TxGet {
        /// Continuation handler.
        on_done: FunctionId,
    },
    /// Pop `ctx`, `value`, `key`, `tx`; issue a transactional PUT.
    TxPut {
        /// Continuation handler.
        on_done: FunctionId,
    },
    /// Pop `ctx`, `tx`; commit.
    TxCommit {
        /// Continuation handler.
        on_done: FunctionId,
    },
    /// Pop `ctx`, `tx`; abort.
    TxAbort {
        /// Continuation handler.
        on_done: FunctionId,
    },
    /// Store the listener count for `event` into `slot`.
    ListenerCount {
        /// Destination slot.
        slot: u32,
        /// Queried event.
        event: Sym,
    },
    /// Store a nondeterministic value into `slot`.
    Nondet {
        /// Destination slot.
        slot: u32,
        /// The nondeterminism source.
        kind: NondetKind,
    },
    /// Head of a fused `Local(slot); Const(k); Bin(op)` window of `len`
    /// ops (module docs, "Operand fusion"): an executor may run the
    /// whole window on the two integers, or act as `Local(slot)`.
    BinLC {
        /// The window's `Local`.
        slot: u32,
        /// The window's `Const`, an [`Value::Int`].
        k: u32,
        /// The window's `Bin`.
        op: BinOp,
        /// Ops in the window: 3, or 4 when a `StoreLocal` / `LoopBranch`
        /// takes the result.
        len: u8,
    },
    /// Head of a fused `Const(k); Bin(op)` window of `len` ops, the left
    /// operand being the stack top: run it whole, or act as `Const(k)`.
    BinC {
        /// The window's `Const`, an [`Value::Int`].
        k: u32,
        /// The window's `Bin`.
        op: BinOp,
        /// Ops in the window: 2, or 3 with a `StoreLocal` / `LoopBranch`.
        len: u8,
    },
    /// End of the handler body.
    Ret,
}

/// A basic block: a maximal straight-line run of ops. `end` is
/// exclusive. Purely descriptive — the dispatch loop runs over the
/// flat op array; blocks feed the disassembler and the block-path
/// digest argument in DESIGN.md §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First op of the block.
    pub start: u32,
    /// One past the last op.
    pub end: u32,
}

/// One function's compiled body.
#[derive(Debug, Clone)]
pub struct FuncCode {
    /// The opcode stream; always terminated by [`Op::Ret`].
    pub ops: Vec<Op>,
    /// Parallel fuel-charge table: `charges[pc]` units are charged
    /// before `ops[pc]` acts (module docs, "Fuel").
    pub charges: Vec<u32>,
    /// Constant pool ([`Op::Const`]).
    pub consts: Vec<Value>,
    /// String pool ([`Op::Field`] names, [`Op::MakeMap`] key runs).
    /// `Arc<str>` so `MakeMap` builds persistent-map keys without
    /// copying.
    pub strings: Vec<std::sync::Arc<str>>,
    /// Basic-block table, ascending by `start`.
    pub blocks: Vec<Block>,
    /// Maximum operand-stack depth any path reaches; executors reserve
    /// this up front so dispatch never reallocates the stack.
    pub max_stack: u32,
    /// Interned function name.
    pub name: Sym,
    /// Frame size: number of distinct locals (slot 0 is `payload`).
    pub n_slots: u32,
    /// Slot index → source-level local name, for error messages.
    pub slot_names: Vec<String>,
}

impl FuncCode {
    /// The source-level name of `slot`, for error messages. Total:
    /// out-of-range slots (which `lower` never emits) render as `"?"`.
    pub fn slot_name(&self, slot: u32) -> &str {
        self.slot_names
            .get(slot as usize)
            .map_or("?", String::as_str)
    }
}

/// A whole program, compiled.
#[derive(Debug, Clone, Default)]
pub struct CodeSet {
    /// Per-function code, indexed like `Program::functions`.
    pub funcs: Vec<FuncCode>,
    /// Every identifier the program mentions.
    pub interner: Interner,
    /// Global `(event, function)` registrations, interned.
    pub global_regs: Vec<(Sym, FunctionId)>,
}

/// Compiles every function of a program whose declarations are
/// indexed by `fn_by_name` / `var_by_name`. Function names are interned
/// first, then variable names, then each body's names as `lower` meets
/// them, and the global registrations' events last, so symbol ids are
/// stable under body edits. The first unknown name, in that order, is
/// the error.
pub(crate) fn compile(
    functions: &[Function],
    vars: &[VarDecl],
    global_registrations: &[(String, u32)],
    fn_by_name: &BTreeMap<String, u32>,
    var_by_name: &BTreeMap<String, u32>,
) -> Result<CodeSet, BuildError> {
    let mut interner = Interner::new();
    for name in functions
        .iter()
        .map(|f| &f.name)
        .chain(vars.iter().map(|v| &v.name))
    {
        interner.intern(name);
    }
    let mut funcs = Vec::with_capacity(functions.len());
    for f in functions {
        let mut code = lower(f, &mut interner, fn_by_name, var_by_name, vars)?;
        fuse(&mut code);
        funcs.push(code);
    }
    let global_regs = global_registrations
        .iter()
        .map(|(event, f)| (interner.intern(event), FunctionId(*f)))
        .collect();
    Ok(CodeSet {
        funcs,
        interner,
        global_regs,
    })
}

/// Lowers a body to plain ops, resolving its names, and finds its
/// blocks; [`fuse`] runs next.
fn lower(
    f: &Function,
    interner: &mut Interner,
    fn_by_name: &BTreeMap<String, u32>,
    var_by_name: &BTreeMap<String, u32>,
    vars: &[VarDecl],
) -> Result<FuncCode, BuildError> {
    let name = interner.intern(&f.name);
    let mut c = Compiler {
        interner,
        fn_by_name,
        var_by_name,
        vars,
        slots: HashMap::new(),
        code: FuncCode {
            ops: Vec::new(),
            charges: Vec::new(),
            consts: Vec::new(),
            strings: Vec::new(),
            blocks: Vec::new(),
            max_stack: 0,
            name,
            n_slots: 0,
            slot_names: Vec::new(),
        },
        depth: 0,
    };
    // `payload` is pre-bound by every activation: always slot 0.
    c.slot("payload");
    c.block(&f.body)?;
    c.emit(Op::Ret, 0);
    let mut code = c.code;
    code.n_slots = code.slot_names.len() as u32;
    code.blocks = find_blocks(&code.ops);
    Ok(code)
}

/// The operand-fusion pass (module docs): rewrites window heads in
/// place, block by block, left to right, windows never overlapping.
fn fuse(code: &mut FuncCode) {
    let is_int = |k: u32| matches!(code.consts[k as usize], Value::Int(_));
    // A `StoreLocal` / `LoopBranch` right after the `Bin` joins the window.
    let with_tail = |rest: &[Op], n: u8| match rest.get(usize::from(n)) {
        Some(Op::StoreLocal(_) | Op::LoopBranch { .. }) => n + 1,
        _ => n,
    };
    for b in &code.blocks {
        let mut pc = b.start as usize;
        while pc < b.end as usize {
            let rest = &code.ops[pc..b.end as usize];
            let (head, len) = match *rest {
                [Op::Local(slot), Op::Const(k), Op::Bin(op), ..] if is_int(k) => {
                    let len = with_tail(rest, 3);
                    (Op::BinLC { slot, k, op, len }, len)
                }
                [Op::Const(k), Op::Bin(op), ..] if is_int(k) => {
                    let len = with_tail(rest, 2);
                    (Op::BinC { k, op, len }, len)
                }
                [head, ..] => (head, 1),
                [] => break,
            };
            code.ops[pc] = head;
            pc += usize::from(len);
        }
    }
}

/// One body's lowering: its scope (the slot map; the slot names are
/// `code.slot_names`) and the program-wide names it resolves against.
struct Compiler<'a> {
    interner: &'a mut Interner,
    fn_by_name: &'a BTreeMap<String, u32>,
    var_by_name: &'a BTreeMap<String, u32>,
    vars: &'a [VarDecl],
    slots: HashMap<String, u32>,
    code: FuncCode,
    depth: i32,
}

impl Compiler<'_> {
    /// The slot for local `name`, allocating one at first mention.
    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.code.slot_names.len() as u32;
        self.slots.insert(name.to_string(), s);
        self.code.slot_names.push(name.to_string());
        self.interner.intern(name);
        s
    }

    fn var(&mut self, name: &str) -> Result<(VarId, bool), BuildError> {
        let id = self
            .var_by_name
            .get(name)
            .copied()
            .ok_or_else(|| BuildError::UnknownVar(name.to_string()))?;
        self.interner.intern(name);
        Ok((VarId(id), self.vars[id as usize].loggable))
    }

    fn function(&mut self, name: &str) -> Result<FunctionId, BuildError> {
        let id = self
            .fn_by_name
            .get(name)
            .copied()
            .ok_or_else(|| BuildError::UnknownFunction(name.to_string()))?;
        self.interner.intern(name);
        Ok(FunctionId(id))
    }

    fn here(&self) -> u32 {
        self.code.ops.len() as u32
    }

    /// Emits `op`, tracking operand-stack depth via its net effect.
    fn emit(&mut self, op: Op, effect: i32) -> usize {
        self.code.ops.push(op);
        self.code.charges.push(0);
        self.depth += effect;
        if self.depth > self.code.max_stack as i32 {
            self.code.max_stack = self.depth as u32;
        }
        self.code.ops.len() - 1
    }

    /// Adds one fuel unit to the op at `at` — the first op of the
    /// charged node's subtree.
    fn charge_at(&mut self, at: usize) {
        self.code.charges[at] += 1;
    }

    fn patch_branch(&mut self, at: usize, target: u32) {
        match &mut self.code.ops[at] {
            Op::Branch { else_target } => *else_target = target,
            Op::Jump(t) => *t = target,
            Op::LoopBranch { end } | Op::ForNext { end, .. } => *end = target,
            _ => {}
        }
    }

    fn const_idx(&mut self, v: &Value) -> u32 {
        self.code.consts.push(v.clone());
        (self.code.consts.len() - 1) as u32
    }

    fn str_idx(&mut self, s: &str) -> u32 {
        self.code.strings.push(std::sync::Arc::from(s));
        (self.code.strings.len() - 1) as u32
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), BuildError> {
        stmts.iter().try_for_each(|stmt| self.stmt(stmt))
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), BuildError> {
        // The statement's one unit lands on the first op the statement
        // emits — the deepest-leftmost leaf of its first expression, or
        // the statement op itself when it has none: it is due before
        // anything of the statement acts.
        let start = self.here() as usize;
        match stmt {
            Stmt::Let(name, e) => {
                self.expr(e)?;
                let slot = self.slot(name);
                self.emit(Op::StoreLocal(slot), -1);
            }
            Stmt::SharedWrite(name, value) => {
                let (var, loggable) = self.var(name)?;
                self.expr(value)?;
                self.emit(Op::SharedWrite { var, loggable }, -1);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                let br = self.emit(Op::Branch { else_target: 0 }, -1);
                self.block(then_branch)?;
                let j = self.emit(Op::Jump(0), 0);
                let else_at = self.here();
                self.patch_branch(br, else_at);
                self.block(else_branch)?;
                let end = self.here();
                self.patch_branch(j, end);
            }
            Stmt::While { cond, body } => {
                self.emit(Op::LoopEnter, 0);
                let head = self.here();
                self.expr(cond)?;
                let lb = self.emit(Op::LoopBranch { end: 0 }, -1);
                self.block(body)?;
                self.emit(Op::Jump(head), 0);
                let end = self.here();
                self.patch_branch(lb, end);
            }
            Stmt::ForEach { var, list, body } => {
                self.expr(list)?;
                let slot = self.slot(var);
                self.emit(Op::ForEnter, -1);
                let head = self.here();
                let fnx = self.emit(Op::ForNext { slot, end: 0 }, 0);
                self.block(body)?;
                self.emit(Op::Jump(head), 0);
                let end = self.here();
                self.patch_branch(fnx, end);
            }
            Stmt::Emit { event, payload } => {
                let event = self.interner.intern(event);
                self.expr(payload)?;
                self.emit(Op::Emit { event }, -1);
            }
            Stmt::Register { event, function } => {
                let event = self.interner.intern(event);
                let function = self.function(function)?;
                self.emit(Op::Register { event, function }, 0);
            }
            Stmt::Unregister { event, function } => {
                let event = self.interner.intern(event);
                let function = self.function(function)?;
                self.emit(Op::Unregister { event, function }, 0);
            }
            Stmt::Respond(e) => {
                self.expr(e)?;
                self.emit(Op::Respond, -1);
            }
            Stmt::TxStart { ctx, on_done } => {
                self.expr(ctx)?;
                let on_done = self.function(on_done)?;
                self.emit(Op::TxStart { on_done }, -1);
            }
            Stmt::TxGet {
                tx,
                key,
                ctx,
                on_done,
            } => {
                self.expr(tx)?;
                self.emit(Op::TxToken, 0);
                self.expr(key)?;
                self.emit(Op::RowKey, 0);
                self.expr(ctx)?;
                let on_done = self.function(on_done)?;
                self.emit(Op::TxGet { on_done }, -3);
            }
            Stmt::TxPut {
                tx,
                key,
                value,
                ctx,
                on_done,
            } => {
                self.expr(tx)?;
                self.emit(Op::TxToken, 0);
                self.expr(key)?;
                self.emit(Op::RowKey, 0);
                self.expr(value)?;
                self.expr(ctx)?;
                let on_done = self.function(on_done)?;
                self.emit(Op::TxPut { on_done }, -4);
            }
            Stmt::TxCommit { tx, ctx, on_done } => {
                self.expr(tx)?;
                self.emit(Op::TxToken, 0);
                self.expr(ctx)?;
                let on_done = self.function(on_done)?;
                self.emit(Op::TxCommit { on_done }, -2);
            }
            Stmt::TxAbort { tx, ctx, on_done } => {
                self.expr(tx)?;
                self.emit(Op::TxToken, 0);
                self.expr(ctx)?;
                let on_done = self.function(on_done)?;
                self.emit(Op::TxAbort { on_done }, -2);
            }
            Stmt::ListenerCount { var, event } => {
                let slot = self.slot(var);
                let event = self.interner.intern(event);
                self.emit(Op::ListenerCount { slot, event }, 0);
            }
            Stmt::Nondet { var, kind } => {
                let slot = self.slot(var);
                self.emit(Op::Nondet { slot, kind: *kind }, 0);
            }
        }
        self.charge_at(start);
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), BuildError> {
        // Like statements: the node's unit attaches to the first op of
        // its subtree, so a descent's worth of entries accumulates on
        // the next acting op.
        let start = self.here() as usize;
        match e {
            Expr::Const(v) => {
                let i = self.const_idx(v);
                self.emit(Op::Const(i), 1);
            }
            Expr::Local(name) => {
                let slot = self.slot(name);
                self.emit(Op::Local(slot), 1);
            }
            Expr::SharedRead(name) => {
                let (var, loggable) = self.var(name)?;
                self.emit(Op::SharedRead { var, loggable }, 1);
            }
            Expr::Bin(op, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.emit(Op::Bin(*op), -1);
            }
            Expr::Not(a) => {
                self.expr(a)?;
                self.emit(Op::Not, 0);
            }
            Expr::Field(a, name) => {
                self.expr(a)?;
                let i = self.str_idx(name);
                self.emit(Op::Field(i), 0);
            }
            Expr::Index(a, i) => {
                self.expr(a)?;
                self.expr(i)?;
                self.emit(Op::Index, -1);
            }
            Expr::Len(a) => {
                self.expr(a)?;
                self.emit(Op::Len, 0);
            }
            Expr::Contains(a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.emit(Op::Contains, -1);
            }
            Expr::ListLit(items) => {
                for item in items {
                    self.expr(item)?;
                }
                self.emit(Op::MakeList(items.len() as u32), 1 - items.len() as i32);
            }
            Expr::MapLit(pairs) => {
                let keys = self.code.strings.len() as u32;
                for (k, _) in pairs {
                    self.str_idx(k);
                }
                for (_, v) in pairs {
                    self.expr(v)?;
                }
                self.emit(
                    Op::MakeMap {
                        keys,
                        n: pairs.len() as u32,
                    },
                    1 - pairs.len() as i32,
                );
            }
            Expr::MapInsert(m, k, v) => {
                self.expr(m)?;
                self.expr(k)?;
                self.expr(v)?;
                self.emit(Op::MapInsert, -2);
            }
            Expr::MapRemove(m, k) => {
                self.expr(m)?;
                self.expr(k)?;
                self.emit(Op::MapRemove, -1);
            }
            Expr::ListPush(l, v) => {
                self.expr(l)?;
                self.expr(v)?;
                self.emit(Op::ListPush, -1);
            }
            Expr::Keys(m) => {
                self.expr(m)?;
                self.emit(Op::Keys, 0);
            }
            Expr::Digest(e) => {
                self.expr(e)?;
                self.emit(Op::Digest, 0);
            }
            Expr::ToStr(e) => {
                self.expr(e)?;
                self.emit(Op::ToStr, 0);
            }
        }
        self.charge_at(start);
        Ok(())
    }
}

/// Computes the basic-block table: leaders are op 0, every jump
/// target, and every op after a terminator.
fn find_blocks(ops: &[Op]) -> Vec<Block> {
    let n = ops.len() as u32;
    let mut leader = vec![false; ops.len()];
    if !ops.is_empty() {
        leader[0] = true;
    }
    for (i, op) in ops.iter().enumerate() {
        let target = match op {
            Op::Branch { else_target } => Some(*else_target),
            Op::Jump(t) => Some(*t),
            Op::LoopBranch { end } | Op::ForNext { end, .. } => Some(*end),
            _ => None,
        };
        let terminator = target.is_some() || matches!(op, Op::Ret);
        if let Some(t) = target {
            if (t as usize) < ops.len() {
                leader[t as usize] = true;
            }
        }
        if terminator && i + 1 < ops.len() {
            leader[i + 1] = true;
        }
    }
    let mut blocks = Vec::new();
    let mut start: Option<u32> = None;
    for (i, &l) in leader.iter().enumerate() {
        if l {
            if let Some(s) = start {
                blocks.push(Block {
                    start: s,
                    end: i as u32,
                });
            }
            start = Some(i as u32);
        }
    }
    if let Some(s) = start {
        blocks.push(Block { start: s, end: n });
    }
    blocks
}

/// Renders one function's bytecode: blocks, pc, charge, op, and
/// pool-resolved operands.
pub fn disassemble(code: &FuncCode, interner: &Interner) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fn {}: {} ops, {} blocks, max stack {}",
        interner.resolve(code.name),
        code.ops.len(),
        code.blocks.len(),
        code.max_stack
    );
    for (bi, b) in code.blocks.iter().enumerate() {
        let _ = writeln!(out, "  b{bi}:");
        for pc in b.start..b.end {
            let op = code.ops[pc as usize];
            let charge = code.charges[pc as usize];
            let _ = write!(out, "    {pc:04}  [{charge}]  ");
            let _ = writeln!(out, "{}", render_op(op, code, interner));
        }
    }
    out
}

fn render_op(op: Op, code: &FuncCode, interner: &Interner) -> String {
    let slot = |s: u32| code.slot_name(s).to_string();
    let sym = |s: Sym| interner.resolve(s).to_string();
    match op {
        Op::Const(i) => format!("const {:?}", code.consts[i as usize]),
        Op::Local(s) => format!("local {}", slot(s)),
        Op::SharedRead { var, loggable } => format!(
            "sread v{}{}",
            var.0,
            if loggable { " (loggable)" } else { "" }
        ),
        Op::Bin(b) => format!("bin {b:?}"),
        Op::Not => "not".into(),
        Op::Field(i) => format!("field {:?}", code.strings[i as usize]),
        Op::Index => "index".into(),
        Op::Len => "len".into(),
        Op::Contains => "contains".into(),
        Op::MakeList(n) => format!("makelist {n}"),
        Op::MakeMap { keys, n } => {
            let ks: Vec<&str> = (keys..keys + n)
                .map(|i| code.strings[i as usize].as_ref())
                .collect();
            format!("makemap {ks:?}")
        }
        Op::MapInsert => "mapinsert".into(),
        Op::MapRemove => "mapremove".into(),
        Op::ListPush => "listpush".into(),
        Op::Keys => "keys".into(),
        Op::Digest => "digest".into(),
        Op::ToStr => "tostr".into(),
        Op::StoreLocal(s) => format!("store {}", slot(s)),
        Op::SharedWrite { var, loggable } => format!(
            "swrite v{}{}",
            var.0,
            if loggable { " (loggable)" } else { "" }
        ),
        Op::Branch { else_target } => format!("branch else→{else_target}"),
        Op::Jump(t) => format!("jump {t}"),
        Op::LoopEnter => "loopenter".into(),
        Op::LoopBranch { end } => format!("loopbranch end→{end}"),
        Op::ForEnter => "forenter".into(),
        Op::ForNext { slot: s, end } => format!("fornext {} end→{end}", slot(s)),
        Op::Emit { event } => format!("emit {}", sym(event)),
        Op::Register { event, function } => format!("register {} f{}", sym(event), function.0),
        Op::Unregister { event, function } => {
            format!("unregister {} f{}", sym(event), function.0)
        }
        Op::Respond => "respond".into(),
        Op::TxToken => "txtoken".into(),
        Op::RowKey => "rowkey".into(),
        Op::TxStart { on_done } => format!("txstart f{}", on_done.0),
        Op::TxGet { on_done } => format!("txget f{}", on_done.0),
        Op::TxPut { on_done } => format!("txput f{}", on_done.0),
        Op::TxCommit { on_done } => format!("txcommit f{}", on_done.0),
        Op::TxAbort { on_done } => format!("txabort f{}", on_done.0),
        Op::ListenerCount { slot: s, event } => {
            format!("listeners {} {}", slot(s), sym(event))
        }
        Op::Nondet { slot: s, kind } => format!("nondet {} {kind:?}", slot(s)),
        Op::BinLC {
            slot: s,
            k,
            op: b,
            len,
        } => format!(
            "fused×{len} local {} const {:?} bin {b:?}",
            slot(s),
            code.consts[k as usize]
        ),
        Op::BinC { k, op: b, len } => {
            format!("fused×{len} const {:?} bin {b:?}", code.consts[k as usize])
        }
        Op::Ret => "ret".into(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[allow(clippy::unreachable)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::ast::ProgramBuilder;

    fn compile_one(body: Vec<crate::ast::Stmt>) -> (crate::Program, FuncCode) {
        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Int(0), true);
        b.function("handle", body);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let code = p.code().funcs[0].clone();
        (p, code)
    }

    /// `p`'s first function lowered again, without fusion.
    fn lower_first(p: &crate::Program) -> FuncCode {
        let index = |names: Vec<&String>| -> BTreeMap<String, u32> {
            names.into_iter().cloned().zip(0..).collect()
        };
        let fns = index(p.functions.iter().map(|f| &f.name).collect());
        let vars = index(p.vars.iter().map(|v| &v.name).collect());
        let mut interner = Interner::new();
        lower(&p.functions[0], &mut interner, &fns, &vars, &p.vars).unwrap()
    }

    fn sample() -> crate::Program {
        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Int(0), true);
        b.shared_var("cfg", Value::Int(1), false);
        b.function(
            "handle",
            vec![
                let_("a", field(payload(), "k")),
                let_("b", add(local("a"), sread("x"))),
                swrite("cfg", local("b")),
                register("ev", "on_ev"),
                emit("ev", local("b")),
                listener_count("n", "ev"),
                respond(local("n")),
            ],
        );
        b.function("on_ev", vec![let_("z", payload())]);
        b.request_handler("handle");
        b.global_registration("boot", "on_ev");
        b.build().unwrap()
    }

    #[test]
    fn slots_are_dense_and_payload_is_zero() {
        let p = sample();
        let f = &p.code().funcs[0];
        assert_eq!(
            f.slot_names,
            vec!["payload", "a", "b", "n"],
            "slots allocated in first-mention order"
        );
        assert_eq!(f.n_slots, 4);
        assert_eq!(f.slot_name(4), "?");
        // `on_ev` mentions only payload and z.
        assert_eq!(p.code().funcs[1].slot_names, vec!["payload", "z"]);
    }

    #[test]
    fn shared_and_function_refs_are_prebaked() {
        let p = sample();
        let ops = &p.code().funcs[0].ops;
        let var_ops: Vec<Op> = ops
            .iter()
            .copied()
            .filter(|o| matches!(o, Op::SharedRead { .. } | Op::SharedWrite { .. }))
            .collect();
        assert_eq!(
            var_ops,
            [
                Op::SharedRead {
                    var: VarId(0),
                    loggable: true
                },
                Op::SharedWrite {
                    var: VarId(1),
                    loggable: false
                },
            ]
        );
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Register { function, .. } if *function == FunctionId(1))));
    }

    #[test]
    fn interner_round_trips_events_and_names() {
        let p = sample();
        let code = p.code();
        let emitted: Vec<&str> = code.funcs[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Emit { event } => Some(code.interner.resolve(*event)),
                _ => None,
            })
            .collect();
        assert_eq!(emitted, ["ev"]);
        assert_eq!(code.interner.resolve(code.funcs[1].name), "on_ev");
        assert_eq!(code.global_regs.len(), 1);
        assert_eq!(code.interner.resolve(code.global_regs[0].0), "boot");
        assert_eq!(code.global_regs[0].1, FunctionId(1));
    }

    #[test]
    fn straight_line_compiles_post_order_with_preorder_charges() {
        // respond(1 + 2): the stmt, the Bin and Const(1) are entered
        // before anything acts, then Const(2) — so the first Const
        // carries 3 units.
        let (_p, code) = compile_one(vec![respond(add(lit(1i64), lit(2i64)))]);
        assert!(matches!(code.ops[0], Op::Const(_)));
        // `Const; Bin` on an int: the head names the window.
        assert!(matches!(
            code.ops[1],
            Op::BinC {
                op: BinOp::Add,
                len: 2,
                ..
            }
        ));
        assert!(matches!(code.ops[2], Op::Bin(BinOp::Add)));
        assert!(matches!(code.ops[3], Op::Respond));
        assert!(matches!(code.ops[4], Op::Ret));
        assert_eq!(code.charges, vec![3, 1, 0, 0, 0]);
        // Total charge is the source's bill: 1 stmt + 3 nodes.
        assert_eq!(code.charges.iter().sum::<u32>(), 4);
        assert_eq!(code.max_stack, 2);
        assert_eq!(code.blocks.len(), 1);
    }

    #[test]
    fn while_isolates_statement_charge_from_per_iteration_cond() {
        let (_p, code) = compile_one(vec![
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), lit(3i64)),
                vec![let_("i", add(local("i"), lit(1i64)))],
            ),
            respond(local("i")),
        ]);
        // The While's entry charge sits on LoopEnter, outside the loop.
        let le = code
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopEnter))
            .unwrap();
        assert_eq!(code.charges[le], 1);
        // The condition head (first op after LoopEnter) carries the
        // cond subtree's entry run, re-charged every iteration.
        assert!(code.charges[le + 1] >= 1);
        let lb = code
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopBranch { .. }))
            .unwrap();
        assert_eq!(code.charges[lb], 0);
        // The loop body jumps back to the condition head.
        let Op::LoopBranch { end } = code.ops[lb] else {
            unreachable!()
        };
        assert!(matches!(code.ops[end as usize - 1], Op::Jump(t) if t == le as u32 + 1));
        // Blocks: entry, cond head, body, exit tail.
        assert!(code.blocks.len() >= 4);
    }

    #[test]
    fn if_branches_and_foreach_produce_block_terminators() {
        let (_p, code) = compile_one(vec![
            iff(
                field(payload(), "b"),
                vec![swrite("x", lit(1i64))],
                vec![swrite("x", lit(2i64))],
            ),
            for_each("it", listv(vec![lit(1i64), lit(2i64)]), vec![]),
            respond(sread("x")),
        ]);
        assert!(code.ops.iter().any(|o| matches!(o, Op::Branch { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::ForEnter)));
        assert!(code.ops.iter().any(|o| matches!(o, Op::ForNext { .. })));
        // Every branch target is in range and a block leader.
        for op in &code.ops {
            let t = match op {
                Op::Branch { else_target } => Some(*else_target),
                Op::Jump(t) => Some(*t),
                Op::LoopBranch { end } | Op::ForNext { end, .. } => Some(*end),
                _ => None,
            };
            if let Some(t) = t {
                assert!((t as usize) <= code.ops.len());
                assert!(code.blocks.iter().any(|b| b.start == t));
            }
        }
    }

    #[test]
    fn total_charges_match_source_node_count() {
        // A body mixing most statement kinds: the summed charge table
        // must equal statements + expression nodes on the path — here
        // verified statically for the straight-line subset.
        let (_p, code) = compile_one(vec![
            let_("m", mapv(vec![("a", lit(1i64)), ("b", lit(2i64))])),
            let_("l", listv(vec![lit(1i64)])),
            swrite("x", len(local("l"))),
            respond(field(local("m"), "a")),
        ]);
        // stmts: 4; nodes: MapLit(1)+2 consts, ListLit(1)+1 const,
        // Len(1)+Local(1), Field(1)+Local(1) = 9 → 13 units.
        assert_eq!(code.charges.iter().sum::<u32>(), 13);
    }

    /// A body with every window shape the pass knows, and the shapes
    /// next to them that it must leave alone.
    fn fusable_body() -> Vec<crate::ast::Stmt> {
        vec![
            let_("acc", len(field(payload(), "s"))),
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), lit(3i64)),
                vec![
                    let_(
                        "acc",
                        modulo(add(mul(local("acc"), lit(7i64)), lit(5i64)), lit(11i64)),
                    ),
                    let_("i", add(local("i"), lit(1i64))),
                ],
            ),
            iff(
                eq(local("acc"), lit(4i64)),
                vec![swrite("x", sub(local("i"), lit(1i64)))],
                vec![swrite("x", add(local("i"), local("acc")))],
            ),
            // Not windows: a string constant, a computed right operand.
            let_("s", add(field(payload(), "s"), lit("!"))),
            respond(add(local("acc"), len(local("s")))),
        ]
    }

    #[test]
    fn fusion_rewrites_window_heads_and_nothing_else() {
        let (p, fused) = compile_one(fusable_body());
        let plain = lower_first(&p);
        assert_eq!(fused.ops.len(), plain.ops.len());
        assert_eq!(fused.charges, plain.charges);
        assert_eq!(fused.blocks, plain.blocks);
        assert_eq!(fused.max_stack, plain.max_stack);
        let mut shapes = std::collections::BTreeSet::new();
        let mut pc = 0;
        while pc < plain.ops.len() {
            let window = match fused.ops[pc] {
                Op::BinLC { slot, k, op, len } => {
                    assert_eq!(
                        plain.ops[pc..pc + 3],
                        [Op::Local(slot), Op::Const(k), Op::Bin(op)]
                    );
                    shapes.insert(("LC", len));
                    len
                }
                Op::BinC { k, op, len } => {
                    assert_eq!(plain.ops[pc..pc + 2], [Op::Const(k), Op::Bin(op)]);
                    shapes.insert(("C", len));
                    len
                }
                // Everything else, jump targets included, is untouched.
                op => {
                    assert_eq!(op, plain.ops[pc]);
                    1
                }
            } as usize;
            // The tail stays in place, plain, inside the head's block.
            assert_eq!(
                fused.ops[pc + 1..pc + window],
                plain.ops[pc + 1..pc + window]
            );
            assert!(fused
                .blocks
                .iter()
                .all(|b| b.start as usize <= pc || b.start as usize >= pc + window));
            if let Op::BinLC { len: 4, .. } | Op::BinC { len: 3, .. } = fused.ops[pc] {
                assert!(matches!(
                    plain.ops[pc + window - 1],
                    Op::StoreLocal(_) | Op::LoopBranch { .. }
                ));
            }
            pc += window;
        }
        // Every shape occurs: bare, stored, and as a loop condition.
        let want = [("C", 2), ("C", 3), ("LC", 3), ("LC", 4)];
        assert_eq!(shapes.into_iter().collect::<Vec<_>>(), want);
        let loop_cond = fused
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopEnter))
            .unwrap()
            + 1;
        assert!(matches!(fused.ops[loop_cond], Op::BinLC { len: 4, .. }));
        assert!(matches!(plain.ops[loop_cond + 3], Op::LoopBranch { .. }));
    }

    #[test]
    fn a_window_never_crosses_a_block_leader() {
        // `Local; Const; Bin; StoreLocal; Ret` under every way of
        // cutting it into two blocks (the compiler never cuts inside an
        // expression; the pass must not rely on that).
        let ops = vec![
            Op::Local(0),
            Op::Const(0),
            Op::Bin(BinOp::Add),
            Op::StoreLocal(1),
            Op::Ret,
        ];
        let fused_at = |leader: u32| {
            let mut code = FuncCode {
                ops: ops.clone(),
                charges: vec![0; 5],
                consts: vec![Value::Int(1)],
                blocks: vec![
                    Block {
                        start: 0,
                        end: leader,
                    },
                    Block {
                        start: leader,
                        end: 5,
                    },
                ],
                strings: Vec::new(),
                max_stack: 0,
                name: Sym(0),
                n_slots: 2,
                slot_names: Vec::new(),
            };
            fuse(&mut code);
            code.ops
        };
        let head = |len| Op::BinLC {
            slot: 0,
            k: 0,
            op: BinOp::Add,
            len,
        };
        // Leader at the Const: `Local` alone, then `Const; Bin; Store`.
        let mut want = ops.clone();
        want[1] = Op::BinC {
            k: 0,
            op: BinOp::Add,
            len: 3,
        };
        assert_eq!(fused_at(1), want);
        // Leader at the Bin: no window holds together.
        assert_eq!(fused_at(2), ops);
        // Leader at the StoreLocal: the window stops short of it.
        let mut want = ops.clone();
        want[0] = head(3);
        assert_eq!(fused_at(3), want);
        // Leader past the window: the whole of it.
        let mut want = ops.clone();
        want[0] = head(4);
        assert_eq!(fused_at(4), want);
    }

    #[test]
    fn a_non_integer_constant_is_not_fused() {
        let (_p, code) = compile_one(vec![respond(add(field(payload(), "s"), lit("!")))]);
        assert!(code
            .ops
            .iter()
            .all(|o| !matches!(o, Op::BinLC { .. } | Op::BinC { .. })));
    }

    #[test]
    fn fused_variants_fit_in_the_op_they_replace() {
        // `Nondet` (a slot and an `i64` bound) sets the width, as it
        // did before the fused variants existed.
        assert_eq!(std::mem::size_of::<Op>(), 24);
    }

    #[test]
    fn disassembly_renders_pools_and_blocks() {
        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Int(0), true);
        b.function(
            "handle",
            vec![
                let_("i", lit(0i64)),
                while_(lt(local("i"), lit(2i64)), vec![let_("i", lit(9i64))]),
                respond(sread("x")),
            ],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let code = p.code();
        let text = disassemble(&code.funcs[0], &code.interner);
        assert!(text.contains("fn handle:"));
        assert!(text.contains("loopenter"));
        assert!(text.contains("loopbranch"));
        assert!(text.contains("fused×4 local i const Int(2) bin Lt"));
        assert!(text.contains("sread v0 (loggable)"));
        assert!(text.contains("b0:"));
    }
}
