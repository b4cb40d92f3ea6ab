//! Instrumentation hooks: where the advice collector plugs in.
//!
//! The paper's transpiler rewrites the application so that the deployed
//! server reports advice while executing (§5). In this reproduction, the
//! KJS interpreter natively calls out through [`ExecHooks`] at every
//! point the transpiled code would: loggable-variable accesses
//! (`OnInitialize`/`OnRead`/`OnWrite`, Fig. 13), handler operations,
//! branches (for control-flow digests), transactional operations,
//! responses, and nondeterministic operations.
//!
//! * The **unmodified server** of the evaluation is the runtime with
//!   [`NoopHooks`] — the baseline of Figure 6.
//! * The **Karousos server** is the runtime with the collector hooks from
//!   the `karousos` crate.
//! * The **Orochi-JS server** uses the same hooks in a log-everything
//!   mode (`baselines` crate).

use kvstore::{TxnId, WriteRef};

use crate::{HandlerId, RequestId, TxOpKind, Value, VarId};

/// Everything the collector needs to know about one executed
/// transactional operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TxOpRecord {
    /// What the program requested.
    pub kind: TxOpKind,
    /// `true` when the operation conflicted and thereby aborted the
    /// transaction (the paper's retry-error path); the advice records
    /// such an operation as `tx_abort`.
    pub effective_abort: bool,
    /// Store-assigned transaction id.
    pub txn: TxnId,
    /// Position of this operation within its transaction (0 = start).
    pub txnum: u32,
    /// Row key, for `GET`/`PUT`.
    pub key: Option<String>,
    /// `PUT`: value written; `GET`: value observed.
    pub value: Option<Value>,
    /// `GET`: whether the key existed.
    pub found: bool,
    /// `GET`: the dictating `PUT` (`None` = initial state).
    pub writer: Option<WriteRef>,
}

/// Callbacks invoked by the interpreter/runtime during execution.
///
/// All methods have no-op defaults; implementors override what they
/// need. The `opnum` arguments follow §C.1.2/§C.1.3: operations are
/// numbered 1.. within each handler activation, and only *operations*
/// (loggable variable accesses, handler ops, transactional ops,
/// nondeterministic ops) consume numbers.
#[allow(unused_variables)]
pub trait ExecHooks {
    /// A request was injected (appears in the trace).
    fn on_request(&mut self, rid: RequestId, input: &Value) {}

    /// A handler activation began.
    fn on_handler_start(&mut self, rid: RequestId, hid: &HandlerId) {}

    /// A handler activation finished having issued `opcount` operations.
    fn on_handler_end(&mut self, rid: RequestId, hid: &HandlerId, opcount: u32) {}

    /// A handler activation finished having burned `fuel` units
    /// (reported right after [`ExecHooks::on_handler_end`]; the
    /// default ignores it, so only cost-attributing collectors pay
    /// for per-request fuel accounting).
    fn on_handler_fuel(&mut self, rid: RequestId, hid: &HandlerId, fuel: u64) {}

    /// A loggable variable was initialized (during the initialization
    /// activation `I`).
    fn on_var_init(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) {
    }

    /// A loggable variable was read; `value` is the current content.
    fn on_var_read(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) {
    }

    /// A loggable variable was written with `value`.
    fn on_var_write(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) {
    }

    /// A branch decision was taken (folded into control-flow digests).
    /// The bit belongs to the activation between the last
    /// [`ExecHooks::on_handler_start`] and its
    /// [`ExecHooks::on_handler_end`]: handlers run to completion, and
    /// `init_shared_state` runs no bytecode.
    fn on_branch(&mut self, taken: bool) {}

    /// An `emit` executed; `activated` lists the handler ids it spawns.
    fn on_emit(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        activated: &[HandlerId],
    ) {
    }

    /// A `register` executed.
    fn on_register(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: crate::FunctionId,
    ) {
    }

    /// An `unregister` executed.
    fn on_unregister(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: crate::FunctionId,
    ) {
    }

    /// The response for `rid` was delivered by `hid` after having issued
    /// `ops_before` operations.
    fn on_respond(&mut self, rid: RequestId, hid: &HandlerId, ops_before: u32, output: &Value) {}

    /// A transactional operation completed at the store. The coordinates
    /// are those of the *issuing* statement; `activates` is the
    /// continuation handler.
    fn on_tx_op(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        record: &TxOpRecord,
        activates: &HandlerId,
    ) {
    }

    /// A check operation (§C.1.3) inspected the handlers registered for
    /// `event`, observing `count`.
    fn on_check_op(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        count: i64,
    ) {
    }

    /// A nondeterministic operation produced `value`. Returning
    /// `Some(v)` overrides the result (used by replaying executors);
    /// recorders return `None`.
    fn on_nondet(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) -> Option<Value> {
        None
    }
}

/// Hooks that do nothing: the unmodified server.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHooks;

impl ExecHooks for NoopHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_op_kind_names() {
        assert_eq!(TxOpKind::Start.name(), "tx_start");
        assert_eq!(TxOpKind::Get.name(), "GET");
        assert_eq!(TxOpKind::Put.name(), "PUT");
        assert_eq!(TxOpKind::Commit.name(), "tx_commit");
        assert_eq!(TxOpKind::Abort.name(), "tx_abort");
    }

    #[test]
    fn noop_hooks_compile_and_default() {
        let mut h = NoopHooks;
        let hid = crate::HandlerId::root(crate::FunctionId(0));
        assert_eq!(h.on_nondet(RequestId(0), &hid, 1, &Value::Null), None);
    }
}
