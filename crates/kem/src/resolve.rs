//! The resolve pass: from name-based KJS ASTs to slot-compiled bodies.
//!
//! Karousos's verifier wins only if replaying a re-execution group is
//! much cheaper than natively executing its requests (§4.1, §5). With
//! the raw AST, every local access walks a `BTreeMap<String, _>` and
//! every event/function/variable mention hashes and clones a `String`,
//! so the hot loop is dominated by string traffic rather than
//! evaluation. This pass runs **once per program**, at
//! [`crate::ProgramBuilder::build`] time, after name validation:
//!
//! * every identifier — locals, shared variables, event names,
//!   function names — is interned into a dense [`Sym`] via a shared
//!   [`Interner`];
//! * every local mention is compiled to a pre-computed frame **slot
//!   index**, so both the KEM runtime and the verifier's group replay
//!   execute locals as array indexing over a `Vec` frame;
//! * shared-variable mentions carry their [`VarId`] and loggability,
//!   and function mentions their [`FunctionId`], eliminating the
//!   per-execution name lookups;
//! * each function body gets a structural [`RFunction::body_digest`],
//!   memoized here so downstream consumers (e.g. the verifier's
//!   preprocess phase) hash a body once per program instead of once
//!   per request.
//!
//! The resolved form is a parallel IR: the original string AST stays
//! the source of truth for digests of *programs*, while [`Resolved`]
//! is what [`crate::bytecode`] compiles and nothing else reads.

use std::collections::{BTreeMap, HashMap};

use crate::ast::{BinOp, BuildError, Expr, Function, NondetKind, Stmt, VarDecl};
use crate::ids::{FunctionId, Interner, Sym, VarId};
use crate::value::{Fnv, Value};

/// A resolved expression: identifiers replaced by slots/ids.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A literal.
    Const(Value),
    /// A local, as a frame slot index.
    Local(u32),
    /// A shared-variable read, with loggability pre-baked.
    SharedRead {
        /// The variable.
        var: VarId,
        /// Whether reads of it are logged operations.
        loggable: bool,
    },
    /// Binary operation.
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    /// Logical negation.
    Not(Box<RExpr>),
    /// Map field access (field names are data, not identifiers).
    Field(Box<RExpr>, String),
    /// Dynamic index.
    Index(Box<RExpr>, Box<RExpr>),
    /// Length.
    Len(Box<RExpr>),
    /// Membership.
    Contains(Box<RExpr>, Box<RExpr>),
    /// List literal.
    ListLit(Vec<RExpr>),
    /// Map literal. Keys are `Arc<str>` so evaluation builds the
    /// persistent map without copying key strings.
    MapLit(Vec<(std::sync::Arc<str>, RExpr)>),
    /// Functional map insert.
    MapInsert(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// Functional map remove.
    MapRemove(Box<RExpr>, Box<RExpr>),
    /// Functional list push.
    ListPush(Box<RExpr>, Box<RExpr>),
    /// Sorted map keys.
    Keys(Box<RExpr>),
    /// Stable digest.
    Digest(Box<RExpr>),
    /// Stringify.
    ToStr(Box<RExpr>),
}

/// A resolved statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Bind or rebind the local at `slot`.
    Let(u32, RExpr),
    /// Write a shared variable.
    SharedWrite {
        /// The variable.
        var: VarId,
        /// Whether the write is a logged operation.
        loggable: bool,
        /// Value to write.
        value: RExpr,
    },
    /// Conditional.
    If {
        /// Condition (truthiness).
        cond: RExpr,
        /// Statements when truthy.
        then_branch: Vec<RStmt>,
        /// Statements when falsy.
        else_branch: Vec<RStmt>,
    },
    /// While loop.
    While {
        /// Condition (truthiness).
        cond: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// For-each over a list.
    ForEach {
        /// Slot the loop variable is bound to.
        slot: u32,
        /// The list to iterate.
        list: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// Emit an event.
    Emit {
        /// Interned event name.
        event: Sym,
        /// Payload.
        payload: RExpr,
    },
    /// Register `function` for `event` in this request's scope.
    Register {
        /// Interned event name.
        event: Sym,
        /// The registered function.
        function: FunctionId,
    },
    /// Remove a registration made by this request.
    Unregister {
        /// Interned event name.
        event: Sym,
        /// The unregistered function.
        function: FunctionId,
    },
    /// Deliver the response.
    Respond(RExpr),
    /// Begin a transaction.
    TxStart {
        /// Context forwarded to the continuation.
        ctx: RExpr,
        /// Continuation function.
        on_done: FunctionId,
    },
    /// Transactional read.
    TxGet {
        /// Transaction token.
        tx: RExpr,
        /// Row key.
        key: RExpr,
        /// Context forwarded to the continuation.
        ctx: RExpr,
        /// Continuation function.
        on_done: FunctionId,
    },
    /// Transactional write.
    TxPut {
        /// Transaction token.
        tx: RExpr,
        /// Row key.
        key: RExpr,
        /// Value to write.
        value: RExpr,
        /// Context forwarded to the continuation.
        ctx: RExpr,
        /// Continuation function.
        on_done: FunctionId,
    },
    /// Commit.
    TxCommit {
        /// Transaction token.
        tx: RExpr,
        /// Context forwarded to the continuation.
        ctx: RExpr,
        /// Continuation function.
        on_done: FunctionId,
    },
    /// Abort.
    TxAbort {
        /// Transaction token.
        tx: RExpr,
        /// Context forwarded to the continuation.
        ctx: RExpr,
        /// Continuation function.
        on_done: FunctionId,
    },
    /// Bind the listener count of `event` to a local.
    ListenerCount {
        /// Slot to bind.
        slot: u32,
        /// Interned event name.
        event: Sym,
    },
    /// Bind a recorded nondeterministic value to a local.
    Nondet {
        /// Slot to bind.
        slot: u32,
        /// Source of nondeterminism.
        kind: NondetKind,
    },
}

/// A slot-compiled function body.
#[derive(Debug, Clone, PartialEq)]
pub struct RFunction {
    /// Interned function name.
    pub name: Sym,
    /// Resolved body.
    pub body: Vec<RStmt>,
    /// Frame size: number of distinct locals (slot 0 is `payload`).
    pub n_slots: u32,
    /// Slot index → source-level local name, for error messages.
    pub slot_names: Vec<String>,
    /// Structural digest of the resolved body. Identical bodies hash
    /// identically; computed once here so consumers never re-hash
    /// per request.
    pub body_digest: u64,
}

impl RFunction {
    /// The source-level name of `slot`, for error messages. Total:
    /// out-of-range slots (which a correct resolve pass never emits)
    /// render as `"?"`.
    pub fn slot_name(&self, slot: u32) -> &str {
        self.slot_names
            .get(slot as usize)
            .map_or("?", String::as_str)
    }
}

/// Output of the resolve pass: the whole program in executable form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Resolved {
    /// Slot-compiled functions, parallel to `Program::functions`.
    pub functions: Vec<RFunction>,
    /// The shared interner for every identifier the program mentions.
    pub interner: Interner,
    /// Global `(event, function)` registrations, interned.
    pub global_regs: Vec<(Sym, FunctionId)>,
}

/// Per-function resolution state: the slot map for locals plus the
/// shared program-wide context.
struct FnResolver<'a> {
    interner: &'a mut Interner,
    fn_by_name: &'a BTreeMap<String, u32>,
    var_by_name: &'a BTreeMap<String, u32>,
    vars: &'a [VarDecl],
    slots: HashMap<String, u32>,
    slot_names: Vec<String>,
}

impl<'a> FnResolver<'a> {
    fn new(
        interner: &'a mut Interner,
        fn_by_name: &'a BTreeMap<String, u32>,
        var_by_name: &'a BTreeMap<String, u32>,
        vars: &'a [VarDecl],
    ) -> Self {
        let mut r = FnResolver {
            interner,
            fn_by_name,
            var_by_name,
            vars,
            slots: HashMap::new(),
            slot_names: Vec::new(),
        };
        // `payload` is pre-bound by every activation: always slot 0.
        r.slot("payload");
        r
    }

    /// The slot for local `name`, allocating one at first mention.
    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slots.insert(name.to_string(), s);
        self.slot_names.push(name.to_string());
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

    fn event(&mut self, name: &str) -> Sym {
        self.interner.intern(name)
    }

    fn expr(&mut self, e: &Expr) -> Result<RExpr, BuildError> {
        Ok(match e {
            Expr::Const(v) => RExpr::Const(v.clone()),
            Expr::Local(name) => RExpr::Local(self.slot(name)),
            Expr::SharedRead(name) => {
                let (var, loggable) = self.var(name)?;
                RExpr::SharedRead { var, loggable }
            }
            Expr::Bin(op, a, b) => RExpr::Bin(*op, self.bx(a)?, self.bx(b)?),
            Expr::Not(a) => RExpr::Not(self.bx(a)?),
            Expr::Field(a, f) => RExpr::Field(self.bx(a)?, f.clone()),
            Expr::Index(a, b) => RExpr::Index(self.bx(a)?, self.bx(b)?),
            Expr::Len(a) => RExpr::Len(self.bx(a)?),
            Expr::Contains(a, b) => RExpr::Contains(self.bx(a)?, self.bx(b)?),
            Expr::ListLit(items) => RExpr::ListLit(
                items
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::MapLit(pairs) => RExpr::MapLit(
                pairs
                    .iter()
                    .map(|(k, v)| Ok((std::sync::Arc::from(k.as_str()), self.expr(v)?)))
                    .collect::<Result<_, BuildError>>()?,
            ),
            Expr::MapInsert(m, k, v) => RExpr::MapInsert(self.bx(m)?, self.bx(k)?, self.bx(v)?),
            Expr::MapRemove(m, k) => RExpr::MapRemove(self.bx(m)?, self.bx(k)?),
            Expr::ListPush(l, v) => RExpr::ListPush(self.bx(l)?, self.bx(v)?),
            Expr::Keys(m) => RExpr::Keys(self.bx(m)?),
            Expr::Digest(v) => RExpr::Digest(self.bx(v)?),
            Expr::ToStr(v) => RExpr::ToStr(self.bx(v)?),
        })
    }

    fn bx(&mut self, e: &Expr) -> Result<Box<RExpr>, BuildError> {
        Ok(Box::new(self.expr(e)?))
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, BuildError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Result<RStmt, BuildError> {
        Ok(match s {
            Stmt::Let(name, e) => {
                let value = self.expr(e)?;
                RStmt::Let(self.slot(name), value)
            }
            Stmt::SharedWrite(name, e) => {
                let (var, loggable) = self.var(name)?;
                RStmt::SharedWrite {
                    var,
                    loggable,
                    value: self.expr(e)?,
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => RStmt::If {
                cond: self.expr(cond)?,
                then_branch: self.stmts(then_branch)?,
                else_branch: self.stmts(else_branch)?,
            },
            Stmt::While { cond, body } => RStmt::While {
                cond: self.expr(cond)?,
                body: self.stmts(body)?,
            },
            Stmt::ForEach { var, list, body } => {
                let list = self.expr(list)?;
                let slot = self.slot(var);
                RStmt::ForEach {
                    slot,
                    list,
                    body: self.stmts(body)?,
                }
            }
            Stmt::Emit { event, payload } => RStmt::Emit {
                event: self.event(event),
                payload: self.expr(payload)?,
            },
            Stmt::Register { event, function } => RStmt::Register {
                event: self.event(event),
                function: self.function(function)?,
            },
            Stmt::Unregister { event, function } => RStmt::Unregister {
                event: self.event(event),
                function: self.function(function)?,
            },
            Stmt::Respond(e) => RStmt::Respond(self.expr(e)?),
            Stmt::TxStart { ctx, on_done } => RStmt::TxStart {
                ctx: self.expr(ctx)?,
                on_done: self.function(on_done)?,
            },
            Stmt::TxGet {
                tx,
                key,
                ctx,
                on_done,
            } => RStmt::TxGet {
                tx: self.expr(tx)?,
                key: self.expr(key)?,
                ctx: self.expr(ctx)?,
                on_done: self.function(on_done)?,
            },
            Stmt::TxPut {
                tx,
                key,
                value,
                ctx,
                on_done,
            } => RStmt::TxPut {
                tx: self.expr(tx)?,
                key: self.expr(key)?,
                value: self.expr(value)?,
                ctx: self.expr(ctx)?,
                on_done: self.function(on_done)?,
            },
            Stmt::TxCommit { tx, ctx, on_done } => RStmt::TxCommit {
                tx: self.expr(tx)?,
                ctx: self.expr(ctx)?,
                on_done: self.function(on_done)?,
            },
            Stmt::TxAbort { tx, ctx, on_done } => RStmt::TxAbort {
                tx: self.expr(tx)?,
                ctx: self.expr(ctx)?,
                on_done: self.function(on_done)?,
            },
            Stmt::ListenerCount { var, event } => RStmt::ListenerCount {
                slot: self.slot(var),
                event: self.event(event),
            },
            Stmt::Nondet { var, kind } => RStmt::Nondet {
                slot: self.slot(var),
                kind: *kind,
            },
        })
    }
}

/// Resolves every function of a validated program. Called from
/// [`crate::ProgramBuilder::build`] after name validation, so the only
/// errors it can surface are the same unknown-name errors validation
/// already catches.
pub(crate) fn resolve_program(
    functions: &[Function],
    vars: &[VarDecl],
    global_registrations: &[(String, u32)],
    fn_by_name: &BTreeMap<String, u32>,
    var_by_name: &BTreeMap<String, u32>,
) -> Result<Resolved, BuildError> {
    let mut interner = Interner::new();
    // Intern declaration-order names first so symbol ids are stable
    // under body edits (useful when diffing resolved dumps).
    for f in functions {
        interner.intern(&f.name);
    }
    for v in vars {
        interner.intern(&v.name);
    }
    let mut rfunctions = Vec::with_capacity(functions.len());
    for f in functions {
        let mut r = FnResolver::new(&mut interner, fn_by_name, var_by_name, vars);
        let body = r.stmts(&f.body)?;
        let n_slots = r.slot_names.len() as u32;
        let slot_names = std::mem::take(&mut r.slot_names);
        let mut h = Fnv::new();
        digest_stmts(&body, &mut h);
        rfunctions.push(RFunction {
            name: interner.intern(&f.name),
            body,
            n_slots,
            slot_names,
            body_digest: h.finish(),
        });
    }
    let global_regs = global_registrations
        .iter()
        .map(|(event, f)| (interner.intern(event), FunctionId(*f)))
        .collect();
    Ok(Resolved {
        functions: rfunctions,
        interner,
        global_regs,
    })
}

/// Structural digest helpers: a tag byte per node plus its scalar
/// payloads, recursing into children. Two bodies digest equally iff
/// they are structurally identical post-resolution.
fn digest_stmts(stmts: &[RStmt], h: &mut Fnv) {
    h.write_u64(stmts.len() as u64);
    for s in stmts {
        digest_stmt(s, h);
    }
}

fn digest_stmt(s: &RStmt, h: &mut Fnv) {
    match s {
        RStmt::Let(slot, e) => {
            h.write(&[0]);
            h.write_u64(*slot as u64);
            digest_expr(e, h);
        }
        RStmt::SharedWrite {
            var,
            loggable,
            value,
        } => {
            h.write(&[1, *loggable as u8]);
            h.write_u64(var.0 as u64);
            digest_expr(value, h);
        }
        RStmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            h.write(&[2]);
            digest_expr(cond, h);
            digest_stmts(then_branch, h);
            digest_stmts(else_branch, h);
        }
        RStmt::While { cond, body } => {
            h.write(&[3]);
            digest_expr(cond, h);
            digest_stmts(body, h);
        }
        RStmt::ForEach { slot, list, body } => {
            h.write(&[4]);
            h.write_u64(*slot as u64);
            digest_expr(list, h);
            digest_stmts(body, h);
        }
        RStmt::Emit { event, payload } => {
            h.write(&[5]);
            h.write_u64(event.0 as u64);
            digest_expr(payload, h);
        }
        RStmt::Register { event, function } => {
            h.write(&[6]);
            h.write_u64(event.0 as u64);
            h.write_u64(function.0 as u64);
        }
        RStmt::Unregister { event, function } => {
            h.write(&[7]);
            h.write_u64(event.0 as u64);
            h.write_u64(function.0 as u64);
        }
        RStmt::Respond(e) => {
            h.write(&[8]);
            digest_expr(e, h);
        }
        RStmt::TxStart { ctx, on_done } => {
            h.write(&[9]);
            digest_expr(ctx, h);
            h.write_u64(on_done.0 as u64);
        }
        RStmt::TxGet {
            tx,
            key,
            ctx,
            on_done,
        } => {
            h.write(&[10]);
            digest_expr(tx, h);
            digest_expr(key, h);
            digest_expr(ctx, h);
            h.write_u64(on_done.0 as u64);
        }
        RStmt::TxPut {
            tx,
            key,
            value,
            ctx,
            on_done,
        } => {
            h.write(&[11]);
            digest_expr(tx, h);
            digest_expr(key, h);
            digest_expr(value, h);
            digest_expr(ctx, h);
            h.write_u64(on_done.0 as u64);
        }
        RStmt::TxCommit { tx, ctx, on_done } => {
            h.write(&[12]);
            digest_expr(tx, h);
            digest_expr(ctx, h);
            h.write_u64(on_done.0 as u64);
        }
        RStmt::TxAbort { tx, ctx, on_done } => {
            h.write(&[13]);
            digest_expr(tx, h);
            digest_expr(ctx, h);
            h.write_u64(on_done.0 as u64);
        }
        RStmt::ListenerCount { slot, event } => {
            h.write(&[14]);
            h.write_u64(*slot as u64);
            h.write_u64(event.0 as u64);
        }
        RStmt::Nondet { slot, kind } => {
            h.write(&[15]);
            h.write_u64(*slot as u64);
            match kind {
                NondetKind::Counter => h.write(&[0]),
                NondetKind::Random { bound } => {
                    h.write(&[1]);
                    h.write_u64(*bound as u64);
                }
            }
        }
    }
}

fn digest_expr(e: &RExpr, h: &mut Fnv) {
    match e {
        RExpr::Const(v) => {
            h.write(&[0]);
            h.write_u64(v.digest());
        }
        RExpr::Local(slot) => {
            h.write(&[1]);
            h.write_u64(*slot as u64);
        }
        RExpr::SharedRead { var, loggable } => {
            h.write(&[2, *loggable as u8]);
            h.write_u64(var.0 as u64);
        }
        RExpr::Bin(op, a, b) => {
            h.write(&[3, *op as u8]);
            digest_expr(a, h);
            digest_expr(b, h);
        }
        RExpr::Not(a) => {
            h.write(&[4]);
            digest_expr(a, h);
        }
        RExpr::Field(a, f) => {
            h.write(&[5]);
            h.write(f.as_bytes());
            digest_expr(a, h);
        }
        RExpr::Index(a, b) => {
            h.write(&[6]);
            digest_expr(a, h);
            digest_expr(b, h);
        }
        RExpr::Len(a) => {
            h.write(&[7]);
            digest_expr(a, h);
        }
        RExpr::Contains(a, b) => {
            h.write(&[8]);
            digest_expr(a, h);
            digest_expr(b, h);
        }
        RExpr::ListLit(items) => {
            h.write(&[9]);
            h.write_u64(items.len() as u64);
            for i in items {
                digest_expr(i, h);
            }
        }
        RExpr::MapLit(pairs) => {
            h.write(&[10]);
            h.write_u64(pairs.len() as u64);
            for (k, v) in pairs {
                h.write(k.as_bytes());
                digest_expr(v, h);
            }
        }
        RExpr::MapInsert(m, k, v) => {
            h.write(&[11]);
            digest_expr(m, h);
            digest_expr(k, h);
            digest_expr(v, h);
        }
        RExpr::MapRemove(m, k) => {
            h.write(&[12]);
            digest_expr(m, h);
            digest_expr(k, h);
        }
        RExpr::ListPush(l, v) => {
            h.write(&[13]);
            digest_expr(l, h);
            digest_expr(v, h);
        }
        RExpr::Keys(m) => {
            h.write(&[14]);
            digest_expr(m, h);
        }
        RExpr::Digest(v) => {
            h.write(&[15]);
            digest_expr(v, h);
        }
        RExpr::ToStr(v) => {
            h.write(&[16]);
            digest_expr(v, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::ast::ProgramBuilder;

    fn sample() -> crate::ast::Program {
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
        let r = p.resolved();
        let f = &r.functions[0];
        assert_eq!(f.slot_names[0], "payload");
        assert_eq!(
            f.slot_names,
            vec!["payload", "a", "b", "n"],
            "slots allocated in first-mention order"
        );
        assert_eq!(f.n_slots, 4);
        // `on_ev` mentions only payload and z.
        assert_eq!(r.functions[1].slot_names, vec!["payload", "z"]);
    }

    #[test]
    fn shared_and_function_refs_are_prebaked() {
        let p = sample();
        let f = &p.resolved().functions[0];
        match &f.body[1] {
            RStmt::Let(2, RExpr::Bin(_, a, b)) => {
                assert_eq!(**a, RExpr::Local(1));
                assert_eq!(
                    **b,
                    RExpr::SharedRead {
                        var: VarId(0),
                        loggable: true
                    }
                );
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        match &f.body[2] {
            RStmt::SharedWrite { var, loggable, .. } => {
                assert_eq!(*var, VarId(1));
                assert!(!*loggable);
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        match &f.body[3] {
            RStmt::Register { function, .. } => assert_eq!(*function, FunctionId(1)),
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn interner_round_trips_events_and_names() {
        let p = sample();
        let r = p.resolved();
        match &r.functions[0].body[4] {
            RStmt::Emit { event, .. } => assert_eq!(r.interner.resolve(*event), "ev"),
            other => panic!("unexpected shape: {other:?}"),
        }
        assert_eq!(r.global_regs.len(), 1);
        assert_eq!(r.interner.resolve(r.global_regs[0].0), "boot");
        assert_eq!(r.global_regs[0].1, FunctionId(1));
    }

    #[test]
    fn identical_bodies_share_digests() {
        let mut b = ProgramBuilder::new();
        b.function("f", vec![let_("a", lit(1)), respond(local("a"))]);
        b.function("g", vec![let_("a", lit(1)), respond(local("a"))]);
        b.function("h", vec![let_("a", lit(2)), respond(local("a"))]);
        b.request_handler("f");
        let p = b.build().unwrap();
        let r = p.resolved();
        assert_eq!(r.functions[0].body_digest, r.functions[1].body_digest);
        assert_ne!(r.functions[0].body_digest, r.functions[2].body_digest);
    }
}
