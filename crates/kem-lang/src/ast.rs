//! The KJS abstract syntax: expressions, statements, functions, programs.
//!
//! KJS is the application language of this reproduction. The paper's
//! implementation transpiles JavaScript with Babel to inject advice
//! hooks (§5); here the equivalent hooks are native to the interpreter,
//! so applications are written directly as KJS ASTs (see the `apps`
//! crate and the [`dsl`] helpers).
//!
//! Key event-driven constructs mirror KEM (§3):
//!
//! * [`Stmt::Emit`] / [`Stmt::Register`] / [`Stmt::Unregister`] — events;
//! * transactional statements ([`Stmt::TxStart`], [`Stmt::TxGet`], …) are
//!   *asynchronous*: the issuing handler runs to completion and the
//!   store's completion activates the named continuation function with
//!   the operation's result, exactly KEM's "I/O request whose completion
//!   resulted in h₁'s activation";
//! * [`Stmt::Respond`] delivers the request's response (from any handler
//!   of the request's tree).

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Integer addition, string concatenation, or list concatenation.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (division by zero is a runtime error).
    Div,
    /// Integer remainder.
    Mod,
    /// Structural equality.
    Eq,
    /// Structural inequality.
    Ne,
    /// Less-than over integers or strings.
    Lt,
    /// Less-or-equal over integers or strings.
    Le,
    /// Greater-than over integers or strings.
    Gt,
    /// Greater-or-equal over integers or strings.
    Ge,
    /// Logical and (eager, truthiness-based).
    And,
    /// Logical or (eager, truthiness-based).
    Or,
}

/// A KJS expression. Expressions are side-effect free except for
/// [`Expr::SharedRead`], which is an *operation* when the variable is
/// loggable (it consumes an opnum and reaches the advice hooks).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// A local variable (handler-scoped; `payload` is pre-bound).
    Local(String),
    /// A read of a shared (program) variable, by name.
    SharedRead(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation (truthiness-based).
    Not(Box<Expr>),
    /// Map field access; `null` if absent or not a map.
    Field(Box<Expr>, String),
    /// Dynamic index: list by integer, map by string key.
    Index(Box<Expr>, Box<Expr>),
    /// Length of a string/list/map.
    Len(Box<Expr>),
    /// Membership: key in map, element in list, substring in string.
    Contains(Box<Expr>, Box<Expr>),
    /// List literal.
    ListLit(Vec<Expr>),
    /// Map literal.
    MapLit(Vec<(String, Expr)>),
    /// Functional map update: a new map with `key := value`.
    MapInsert(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Functional map update: a new map without `key`.
    MapRemove(Box<Expr>, Box<Expr>),
    /// Functional list update: a new list with `value` appended.
    ListPush(Box<Expr>, Box<Expr>),
    /// Sorted list of a map's keys.
    Keys(Box<Expr>),
    /// Stable hex digest of a value (the apps' stand-in for SHA).
    Digest(Box<Expr>),
    /// String rendering of any value.
    ToStr(Box<Expr>),
}

/// Sources of recorded nondeterminism (§5 "Non-determinism").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetKind {
    /// A monotonic counter — models wall-clock timestamps.
    Counter,
    /// A pseudo-random integer in `[0, bound)`.
    Random {
        /// Exclusive upper bound.
        bound: i64,
    },
}

/// A KJS statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Bind or rebind a local.
    Let(String, Expr),
    /// Write a shared (program) variable. An operation when loggable.
    SharedWrite(String, Expr),
    /// Conditional; the taken branch is folded into the control-flow
    /// digest (§5 "Identifying batches").
    If {
        /// Condition (truthiness).
        cond: Expr,
        /// Statements when truthy.
        then_branch: Vec<Stmt>,
        /// Statements when falsy.
        else_branch: Vec<Stmt>,
    },
    /// While loop; every iteration decision is a recorded branch.
    While {
        /// Condition (truthiness).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Iterate over a list value; the iteration count is recorded in the
    /// control-flow digest.
    ForEach {
        /// Loop variable bound to each element.
        var: String,
        /// The list to iterate.
        list: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Emit an event; all functions currently registered for it (global
    /// registrations plus this request's) are activated by the dispatch
    /// loop.
    Emit {
        /// Event name.
        event: String,
        /// Payload delivered to the activated handlers.
        payload: Expr,
    },
    /// Register `function` for `event` within this request's scope.
    Register {
        /// Event name.
        event: String,
        /// Function name.
        function: String,
    },
    /// Remove a registration made by this request.
    Unregister {
        /// Event name.
        event: String,
        /// Function name.
        function: String,
    },
    /// Deliver this request's response. At most one per request.
    Respond(Expr),
    /// Begin a transaction; `on_done` is activated with
    /// `{ctx, ok, tx}`.
    ///
    /// The `tx` token is **opaque**: its concrete value differs between
    /// the live server (store-assigned) and the verifier's replay
    /// (table index). Programs must only pass it to transactional
    /// statements — a token flowing into a response, a loggable-variable
    /// write, or a row key would make honest executions unverifiable
    /// (the replayed value cannot match the recorded one).
    TxStart {
        /// Opaque context forwarded to the continuation.
        ctx: Expr,
        /// Continuation function name.
        on_done: String,
    },
    /// Transactional read; `on_done` is activated with
    /// `{ctx, ok, found, value}`.
    TxGet {
        /// The transaction token (from `TxStart`).
        tx: Expr,
        /// Row key.
        key: Expr,
        /// Context forwarded to the continuation.
        ctx: Expr,
        /// Continuation function name.
        on_done: String,
    },
    /// Transactional write; `on_done` is activated with `{ctx, ok}`.
    TxPut {
        /// The transaction token.
        tx: Expr,
        /// Row key.
        key: Expr,
        /// Value to write.
        value: Expr,
        /// Context forwarded to the continuation.
        ctx: Expr,
        /// Continuation function name.
        on_done: String,
    },
    /// Commit; `on_done` is activated with `{ctx, ok}` (`ok:false` means
    /// the transaction had been conflict-aborted).
    TxCommit {
        /// The transaction token.
        tx: Expr,
        /// Context forwarded to the continuation.
        ctx: Expr,
        /// Continuation function name.
        on_done: String,
    },
    /// Abort; `on_done` is activated with `{ctx, ok}`.
    TxAbort {
        /// The transaction token.
        tx: Expr,
        /// Context forwarded to the continuation.
        ctx: Expr,
        /// Continuation function name.
        on_done: String,
    },
    /// Bind the number of handlers currently registered for `event`
    /// (globally or by this request) to a local — one of the paper's
    /// "check operations … that inspect the handlers and the events"
    /// (§C.1.3).
    ListenerCount {
        /// Local to bind.
        var: String,
        /// Event name inspected.
        event: String,
    },
    /// Bind a recorded nondeterministic value to a local (§5).
    Nondet {
        /// Local to bind.
        var: String,
        /// Source of nondeterminism.
        kind: NondetKind,
    },
}

/// A named KJS function (handler code).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Unique name.
    pub name: String,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// Declaration of a shared (program) variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Unique name.
    pub name: String,
    /// Whether the principal annotated it loggable (§5): accesses become
    /// operations visible to the advice collector. Non-loggable
    /// variables are assumed R-ordered and invisible to auditing.
    pub loggable: bool,
    /// Initial value, installed by the initialization activation `I`.
    pub init: Value,
}

/// A complete KJS program.
///
/// Built with [`ProgramBuilder`], which validates name references.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions; [`FunctionId`](crate::FunctionId) indexes here.
    pub functions: Vec<Function>,
    /// All shared variables; [`VarId`](crate::VarId) indexes here.
    pub vars: Vec<VarDecl>,
    /// Functions activated for every incoming request, in order.
    pub request_handlers: Vec<u32>,
    /// Global `(event, function)` registrations made at initialization.
    pub global_registrations: Vec<(String, u32)>,
    fn_by_name: BTreeMap<String, u32>,
    var_by_name: BTreeMap<String, u32>,
    /// The program compiled once at build time (DESIGN.md §11): every
    /// body as bytecode with its names resolved, the interner and the
    /// interned global registrations. Both executors dispatch over
    /// this; shared so `Program` clones stay cheap.
    code: std::sync::Arc<crate::bytecode::CodeSet>,
}

impl Program {
    /// The compiled program ([`crate::bytecode::CodeSet`]); its
    /// functions are indexed like [`Program::functions`].
    pub fn code(&self) -> &crate::bytecode::CodeSet {
        &self.code
    }

    /// Resolves a function name.
    pub fn function_id(&self, name: &str) -> Option<crate::FunctionId> {
        self.fn_by_name.get(name).map(|&i| crate::FunctionId(i))
    }

    /// Resolves a variable name.
    pub fn var_id(&self, name: &str) -> Option<crate::VarId> {
        self.var_by_name.get(name).map(|&i| crate::VarId(i))
    }

    /// The function with id `id`.
    pub fn function(&self, id: crate::FunctionId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// The variable declaration with id `id`.
    pub fn var(&self, id: crate::VarId) -> &VarDecl {
        &self.vars[id.0 as usize]
    }

    /// Number of loggable variables.
    pub fn loggable_count(&self) -> usize {
        self.vars.iter().filter(|v| v.loggable).count()
    }
}

/// Errors detected while building a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A function name was declared twice.
    DuplicateFunction(String),
    /// A variable name was declared twice.
    DuplicateVar(String),
    /// A statement references an unknown function.
    UnknownFunction(String),
    /// An expression references an unknown shared variable.
    UnknownVar(String),
    /// No request handler was declared.
    NoRequestHandlers,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateFunction(n) => write!(f, "duplicate function {n:?}"),
            BuildError::DuplicateVar(n) => write!(f, "duplicate variable {n:?}"),
            BuildError::UnknownFunction(n) => write!(f, "unknown function {n:?}"),
            BuildError::UnknownVar(n) => write!(f, "unknown shared variable {n:?}"),
            BuildError::NoRequestHandlers => f.write_str("no request handlers declared"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Program`]s; validates every name reference at
/// [`ProgramBuilder::build`] time.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    functions: Vec<Function>,
    vars: Vec<VarDecl>,
    request_handlers: Vec<String>,
    global_registrations: Vec<(String, String)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a shared variable.
    pub fn shared_var(&mut self, name: &str, init: Value, loggable: bool) -> &mut Self {
        self.vars.push(VarDecl {
            name: name.to_string(),
            loggable,
            init,
        });
        self
    }

    /// Declares a function.
    pub fn function(&mut self, name: &str, body: Vec<Stmt>) -> &mut Self {
        self.functions.push(Function {
            name: name.to_string(),
            body,
        });
        self
    }

    /// Marks `name` as a request handler (activated for every request).
    pub fn request_handler(&mut self, name: &str) -> &mut Self {
        self.request_handlers.push(name.to_string());
        self
    }

    /// Registers `function` for `event` globally at initialization.
    pub fn global_registration(&mut self, event: &str, function: &str) -> &mut Self {
        self.global_registrations
            .push((event.to_string(), function.to_string()));
        self
    }

    /// Validates and produces the program.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut fn_by_name = BTreeMap::new();
        for (i, f) in self.functions.iter().enumerate() {
            if fn_by_name.insert(f.name.clone(), i as u32).is_some() {
                return Err(BuildError::DuplicateFunction(f.name.clone()));
            }
        }
        let mut var_by_name = BTreeMap::new();
        for (i, v) in self.vars.iter().enumerate() {
            if var_by_name.insert(v.name.clone(), i as u32).is_some() {
                return Err(BuildError::DuplicateVar(v.name.clone()));
            }
        }
        if self.request_handlers.is_empty() {
            return Err(BuildError::NoRequestHandlers);
        }
        let resolve_fn = |n: &str| -> Result<u32, BuildError> {
            fn_by_name
                .get(n)
                .copied()
                .ok_or_else(|| BuildError::UnknownFunction(n.to_string()))
        };
        let request_handlers = self
            .request_handlers
            .iter()
            .map(|n| resolve_fn(n))
            .collect::<Result<Vec<_>, _>>()?;
        let global_registrations = self
            .global_registrations
            .iter()
            .map(|(e, n)| Ok((e.clone(), resolve_fn(n)?)))
            .collect::<Result<Vec<_>, BuildError>>()?;
        // One walk per body checks every reference in it and compiles it.
        let code = crate::bytecode::compile(
            &self.functions,
            &self.vars,
            &global_registrations,
            &fn_by_name,
            &var_by_name,
        )?;
        Ok(Program {
            functions: self.functions,
            vars: self.vars,
            request_handlers,
            global_registrations,
            fn_by_name,
            var_by_name,
            code: std::sync::Arc::new(code),
        })
    }
}

/// Terse constructors for building KJS ASTs by hand.
///
/// # Examples
///
/// ```
/// use kem_lang::dsl::*;
/// let stmt = iff(
///     eq(field(local("payload"), "op"), lit("get")),
///     vec![respond(sread("motd"))],
///     vec![],
/// );
/// ```
pub mod dsl {
    use super::*;

    /// Literal from anything convertible to [`Value`].
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Null literal.
    pub fn null() -> Expr {
        Expr::Const(Value::Null)
    }

    /// Local variable reference.
    pub fn local(name: &str) -> Expr {
        Expr::Local(name.to_string())
    }

    /// The handler payload (pre-bound local `payload`).
    pub fn payload() -> Expr {
        local("payload")
    }

    /// Shared-variable read.
    pub fn sread(name: &str) -> Expr {
        Expr::SharedRead(name.to_string())
    }

    /// Map field access.
    pub fn field(e: Expr, name: &str) -> Expr {
        Expr::Field(Box::new(e), name.to_string())
    }

    /// Dynamic index.
    pub fn index(e: Expr, i: Expr) -> Expr {
        Expr::Index(Box::new(e), Box::new(i))
    }

    /// Equality.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// Inequality.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Ne, Box::new(a), Box::new(b))
    }

    /// Less-than.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(a), Box::new(b))
    }

    /// Greater-or-equal.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Ge, Box::new(a), Box::new(b))
    }

    /// Addition / concatenation.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// Subtraction.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// Multiplication.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// Remainder.
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mod, Box::new(a), Box::new(b))
    }

    /// Logical and.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    /// Logical or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(a), Box::new(b))
    }

    /// Logical not.
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    /// Length.
    pub fn len(a: Expr) -> Expr {
        Expr::Len(Box::new(a))
    }

    /// Membership test.
    pub fn contains(a: Expr, b: Expr) -> Expr {
        Expr::Contains(Box::new(a), Box::new(b))
    }

    /// Map literal.
    pub fn mapv(pairs: Vec<(&str, Expr)>) -> Expr {
        Expr::MapLit(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// List literal.
    pub fn listv(items: Vec<Expr>) -> Expr {
        Expr::ListLit(items)
    }

    /// Functional map insert.
    pub fn map_insert(m: Expr, k: Expr, v: Expr) -> Expr {
        Expr::MapInsert(Box::new(m), Box::new(k), Box::new(v))
    }

    /// Functional map remove.
    pub fn map_remove(m: Expr, k: Expr) -> Expr {
        Expr::MapRemove(Box::new(m), Box::new(k))
    }

    /// Functional list push.
    pub fn list_push(l: Expr, v: Expr) -> Expr {
        Expr::ListPush(Box::new(l), Box::new(v))
    }

    /// Sorted keys of a map.
    pub fn keys(m: Expr) -> Expr {
        Expr::Keys(Box::new(m))
    }

    /// Stable digest.
    pub fn digest(e: Expr) -> Expr {
        Expr::Digest(Box::new(e))
    }

    /// Stringify.
    pub fn to_str(e: Expr) -> Expr {
        Expr::ToStr(Box::new(e))
    }

    /// Local binding statement.
    pub fn let_(name: &str, e: Expr) -> Stmt {
        Stmt::Let(name.to_string(), e)
    }

    /// Shared-variable write statement.
    pub fn swrite(name: &str, e: Expr) -> Stmt {
        Stmt::SharedWrite(name.to_string(), e)
    }

    /// If statement.
    pub fn iff(cond: Expr, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    /// While statement.
    pub fn while_(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }

    /// For-each statement.
    pub fn for_each(var: &str, list: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::ForEach {
            var: var.to_string(),
            list,
            body,
        }
    }

    /// Emit statement.
    pub fn emit(event: &str, payload: Expr) -> Stmt {
        Stmt::Emit {
            event: event.to_string(),
            payload,
        }
    }

    /// Register statement.
    pub fn register(event: &str, function: &str) -> Stmt {
        Stmt::Register {
            event: event.to_string(),
            function: function.to_string(),
        }
    }

    /// Unregister statement.
    pub fn unregister(event: &str, function: &str) -> Stmt {
        Stmt::Unregister {
            event: event.to_string(),
            function: function.to_string(),
        }
    }

    /// Respond statement.
    pub fn respond(e: Expr) -> Stmt {
        Stmt::Respond(e)
    }

    /// Transaction start.
    pub fn tx_start(ctx: Expr, on_done: &str) -> Stmt {
        Stmt::TxStart {
            ctx,
            on_done: on_done.to_string(),
        }
    }

    /// Transactional get.
    pub fn tx_get(tx: Expr, key: Expr, ctx: Expr, on_done: &str) -> Stmt {
        Stmt::TxGet {
            tx,
            key,
            ctx,
            on_done: on_done.to_string(),
        }
    }

    /// Transactional put.
    pub fn tx_put(tx: Expr, key: Expr, value: Expr, ctx: Expr, on_done: &str) -> Stmt {
        Stmt::TxPut {
            tx,
            key,
            value,
            ctx,
            on_done: on_done.to_string(),
        }
    }

    /// Commit.
    pub fn tx_commit(tx: Expr, ctx: Expr, on_done: &str) -> Stmt {
        Stmt::TxCommit {
            tx,
            ctx,
            on_done: on_done.to_string(),
        }
    }

    /// Abort.
    pub fn tx_abort(tx: Expr, ctx: Expr, on_done: &str) -> Stmt {
        Stmt::TxAbort {
            tx,
            ctx,
            on_done: on_done.to_string(),
        }
    }

    /// Listener-count check operation.
    pub fn listener_count(var: &str, event: &str) -> Stmt {
        Stmt::ListenerCount {
            var: var.to_string(),
            event: event.to_string(),
        }
    }

    /// Recorded nondeterministic counter ("timestamp").
    pub fn nondet_counter(var: &str) -> Stmt {
        Stmt::Nondet {
            var: var.to_string(),
            kind: NondetKind::Counter,
        }
    }

    /// Recorded nondeterministic integer in `[0, bound)`.
    pub fn nondet_random(var: &str, bound: i64) -> Stmt {
        Stmt::Nondet {
            var: var.to_string(),
            kind: NondetKind::Random { bound },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn builder_resolves_names() {
        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Int(0), true);
        b.function("handle", vec![respond(sread("x"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        assert_eq!(p.function_id("handle"), Some(crate::FunctionId(0)));
        assert_eq!(p.var_id("x"), Some(crate::VarId(0)));
        assert!(p.var(crate::VarId(0)).loggable);
        assert_eq!(p.loggable_count(), 1);
    }

    #[test]
    fn unknown_var_rejected() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![respond(sread("nope"))]);
        b.request_handler("handle");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownVar("nope".into())
        );
    }

    #[test]
    fn unknown_function_rejected() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![tx_start(null(), "missing")]);
        b.request_handler("handle");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownFunction("missing".into())
        );
    }

    #[test]
    fn unknown_register_target_rejected() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![register("ev", "ghost")]);
        b.request_handler("handle");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownFunction("ghost".into())
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = ProgramBuilder::new();
        b.function("f", vec![]);
        b.function("f", vec![]);
        b.request_handler("f");
        assert!(matches!(b.build(), Err(BuildError::DuplicateFunction(_))));

        let mut b = ProgramBuilder::new();
        b.shared_var("x", Value::Null, false);
        b.shared_var("x", Value::Null, false);
        b.function("f", vec![]);
        b.request_handler("f");
        assert!(matches!(b.build(), Err(BuildError::DuplicateVar(_))));
    }

    #[test]
    fn request_handler_required() {
        let mut b = ProgramBuilder::new();
        b.function("f", vec![]);
        assert_eq!(b.build().unwrap_err(), BuildError::NoRequestHandlers);
    }

    #[test]
    fn nested_validation_reaches_branches() {
        let mut b = ProgramBuilder::new();
        b.function(
            "f",
            vec![iff(
                lit(true),
                vec![],
                vec![while_(lit(false), vec![respond(sread("ghost"))])],
            )],
        );
        b.request_handler("f");
        assert!(matches!(b.build(), Err(BuildError::UnknownVar(_))));
    }

    #[test]
    fn first_unknown_name_in_body_order_wins() {
        // The else-branch of the first function is met before any later
        // function, so its unknown variable is the error, not the
        // unknown continuation after it.
        let mut b = ProgramBuilder::new();
        b.function(
            "f",
            vec![
                iff(lit(true), vec![], vec![swrite("ghost", lit(1))]),
                tx_start(null(), "nowhere"),
            ],
        );
        b.function("g", vec![register("ev", "missing")]);
        b.request_handler("f");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownVar("ghost".into())
        );
    }

    #[test]
    fn global_registration_resolution() {
        let mut b = ProgramBuilder::new();
        b.function("f", vec![]);
        b.function("g", vec![]);
        b.request_handler("f");
        b.global_registration("custom", "g");
        let p = b.build().unwrap();
        assert_eq!(p.global_registrations, vec![("custom".to_string(), 1u32)]);
    }
}
