//! The advice collector: the instrumented (Karousos) server.
//!
//! Implements [`kem::ExecHooks`] to record, during live execution,
//! everything §C.1.3 requires: handler logs, variable logs (the Fig. 13
//! `OnInitialize`/`OnRead`/`OnWrite` logic, logging only R-concurrent
//! accesses), transaction logs, `responseEmittedBy`, `opcounts`, the
//! nondeterminism log, and the per-request control-flow tags used for
//! grouping (§4.1, §5 "Identifying batches").
//!
//! The collector also supports **Orochi-JS mode** (§6 "Baselines"): the
//! same codebase, but (a) requests are grouped only when they induce the
//! *identical sequence* of handlers (order-sensitive tag, vs Karousos's
//! order-invariant handler-tree tag), and (b) *all* loggable-variable
//! accesses are logged rather than only R-concurrent ones.

use std::collections::HashMap;

use kem::{ExecHooks, Fnv, HandlerId, OpRef, RequestId, TxOpKind, TxOpRecord, Value, VarId};
use kvstore::{Binlog, TxnId};

use crate::advice::{
    AccessType, Advice, HandlerLogEntry, HandlerOp, KTxId, TxLogEntry, TxOpContents, TxPos,
    VarLogEntry,
};
use crate::rorder::r_concurrent;

/// Which advice-collection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorMode {
    /// The paper's system: tree-shaped order-invariant tags, R-concurrent
    /// logging only.
    Karousos,
    /// The Orochi-JS baseline: sequence tags, log-everything.
    OrochiJs,
}

/// Per-variable bookkeeping (the `v.value`/`v.rid`/`v.hid`/`v.opnum`
/// fields of Fig. 13).
#[derive(Debug, Clone)]
struct VarRec {
    last_write: OpRef,
    last_value: Value,
}

/// Stable digest of a handler id's path.
fn hid_digest(hid: &HandlerId) -> u64 {
    let mut h = Fnv::new();
    for (f, op) in hid.path() {
        h.write_u64(f.0 as u64);
        h.write_u64(op as u64);
    }
    h.finish()
}

/// Plain-`u64` tallies of what the collector observed and logged.
///
/// The R-concurrency *skip* rate — the paper's central server-side
/// saving — is not derivable from the finished [`Advice`] (a skipped
/// access leaves no log entry), so the collector counts accesses at
/// the hook sites. Bare additions on inline fields: no branch, no
/// allocation, no measurable cost on the collection path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorCounters {
    /// Shared-variable accesses observed (reads and writes).
    pub var_accesses: u64,
    /// Accesses actually logged: R-concurrent with their dictating
    /// write in Karousos mode, or every access in Orochi-JS mode.
    pub r_concurrent_logged: u64,
    /// Handler-log entries recorded (emit/register/unregister/check).
    pub handler_ops_logged: u64,
    /// Transaction-log entries recorded.
    pub tx_ops_logged: u64,
    /// Nondeterministic values recorded.
    pub nondet_logged: u64,
}

/// The advice collector; plug into [`kem::run_server`] as the hooks.
#[derive(Debug)]
pub struct Collector {
    mode: CollectorMode,
    advice: Advice,
    vars: HashMap<VarId, VarRec>,
    tx_of: HashMap<TxnId, KTxId>,
    /// Control-flow digest of the running activation (the only one
    /// open: handlers run to completion), reset when one starts.
    cf: Fnv,
    /// Completed handlers per request with their control-flow digests,
    /// in completion order.
    per_request: HashMap<RequestId, Vec<(HandlerId, u64)>>,
    counters: CollectorCounters,
    /// Per-request cost rows (activations / ops / fuel), accumulated
    /// only when cost attribution is enabled — the default collection
    /// path pays nothing.
    req_costs: Option<std::collections::BTreeMap<u64, obs::RequestCost>>,
}

impl Collector {
    /// Creates a collector in the given mode.
    pub fn new(mode: CollectorMode) -> Self {
        Collector {
            mode,
            advice: Advice::default(),
            vars: HashMap::new(),
            tx_of: HashMap::new(),
            cf: Fnv::new(),
            per_request: HashMap::new(),
            counters: CollectorCounters::default(),
            req_costs: None,
        }
    }

    /// Enables per-request cost attribution: each served request gets
    /// an [`obs::RequestCost`] row (activations, ops, fuel).
    pub fn with_request_costs(mut self) -> Self {
        self.req_costs = Some(std::collections::BTreeMap::new());
        self
    }

    /// The accumulated per-request cost rows in ascending request
    /// order (empty unless [`Collector::with_request_costs`]).
    pub fn request_costs(&self) -> Vec<obs::RequestCost> {
        match &self.req_costs {
            Some(m) => m.values().copied().collect(),
            None => Vec::new(),
        }
    }

    /// The collection mode.
    pub fn mode(&self) -> CollectorMode {
        self.mode
    }

    /// Tallies of what this collector has observed and logged so far.
    /// Read before [`Collector::finish`] (which consumes the
    /// collector).
    pub fn counters(&self) -> CollectorCounters {
        self.counters
    }

    /// Finalizes collection: computes tags and converts the store binlog
    /// into the write-order advice (the paper's binlog processor, §5).
    pub fn finish(mut self, binlog: &Binlog) -> Advice {
        for entry in binlog.entries() {
            let tx = self
                .tx_of
                .get(&entry.txn)
                .expect("every committed transaction was started through the collector")
                .clone();
            self.advice.write_order.push(TxPos {
                tx,
                index: entry.tag,
            });
        }
        for (rid, mut handlers) in std::mem::take(&mut self.per_request) {
            // Karousos's tag is order-invariant: a digest of the sorted
            // multiset of (handler id, control-flow digest) pairs, so
            // requests with the same handler *tree* and branches batch
            // together regardless of activation order (§4.1). Orochi-JS's
            // is order-sensitive: the pairs in completion order (§2.3).
            if self.mode == CollectorMode::Karousos {
                handlers.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            let mut h = Fnv::new();
            for (hid, cf) in &handlers {
                h.write_u64(hid_digest(hid));
                h.write_u64(*cf);
            }
            self.advice.tags.insert(rid, h.finish());
        }
        self.advice
    }

    /// Ensures the dictating/preceding write has a (possibly backfilled)
    /// log entry, per Fig. 13 lines 14–15 / 21–22.
    fn backfill_write(&mut self, var: VarId, rec: &VarRec) {
        let log = self.advice.var_logs.entry(var).or_default();
        log.entry(rec.last_write.clone())
            .or_insert_with(|| VarLogEntry {
                access: AccessType::Write,
                value: Some(rec.last_value.clone()),
                prec: None,
            });
    }
}

impl ExecHooks for Collector {
    fn on_request(&mut self, rid: RequestId, _input: &Value) {
        self.per_request.entry(rid).or_default();
    }

    fn on_handler_start(&mut self, _rid: RequestId, _hid: &HandlerId) {
        self.cf = Fnv::new();
    }

    fn on_handler_end(&mut self, rid: RequestId, hid: &HandlerId, opcount: u32) {
        self.advice.opcounts.insert((rid, hid.clone()), opcount);
        let digest = std::mem::take(&mut self.cf).finish();
        self.per_request
            .entry(rid)
            .or_default()
            .push((hid.clone(), digest));
        if let Some(costs) = &mut self.req_costs {
            let row = costs.entry(rid.0).or_insert(obs::RequestCost {
                rid: rid.0,
                ..Default::default()
            });
            row.activations += 1;
            row.ops += opcount as u64;
        }
    }

    fn on_handler_fuel(&mut self, rid: RequestId, _hid: &HandlerId, fuel: u64) {
        if let Some(costs) = &mut self.req_costs {
            let row = costs.entry(rid.0).or_insert(obs::RequestCost {
                rid: rid.0,
                ..Default::default()
            });
            row.fuel += fuel;
        }
    }

    fn on_var_init(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) {
        self.vars.insert(
            var,
            VarRec {
                last_write: OpRef::new(rid, hid.clone(), opnum),
                last_value: value.clone(),
            },
        );
    }

    fn on_var_read(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        _value: &Value,
    ) {
        let op = OpRef::new(rid, hid.clone(), opnum);
        let rec = self
            .vars
            .get(&var)
            .expect("reads follow initialization")
            .clone();
        let log_it = match self.mode {
            CollectorMode::Karousos => r_concurrent(&op, &rec.last_write),
            CollectorMode::OrochiJs => true,
        };
        self.counters.var_accesses += 1;
        if log_it {
            self.counters.r_concurrent_logged += 1;
            self.backfill_write(var, &rec);
            self.advice.var_logs.entry(var).or_default().insert(
                op,
                VarLogEntry {
                    access: AccessType::Read,
                    value: None,
                    prec: Some(rec.last_write.clone()),
                },
            );
        }
    }

    fn on_var_write(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) {
        let op = OpRef::new(rid, hid.clone(), opnum);
        let rec = self
            .vars
            .get(&var)
            .expect("writes follow initialization")
            .clone();
        let log_it = match self.mode {
            CollectorMode::Karousos => r_concurrent(&op, &rec.last_write),
            CollectorMode::OrochiJs => true,
        };
        self.counters.var_accesses += 1;
        if log_it {
            self.counters.r_concurrent_logged += 1;
            self.backfill_write(var, &rec);
            self.advice.var_logs.entry(var).or_default().insert(
                op.clone(),
                VarLogEntry {
                    access: AccessType::Write,
                    value: Some(value.clone()),
                    prec: Some(rec.last_write.clone()),
                },
            );
        }
        self.vars.insert(
            var,
            VarRec {
                last_write: op,
                last_value: value.clone(),
            },
        );
    }

    fn on_branch(&mut self, taken: bool) {
        self.cf.write(&[taken as u8]);
    }

    fn on_emit(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        _activated: &[HandlerId],
    ) {
        self.counters.handler_ops_logged += 1;
        self.advice
            .handler_logs
            .entry(rid)
            .or_default()
            .push(HandlerLogEntry {
                hid: hid.clone(),
                opnum,
                op: HandlerOp::Emit {
                    event: event.to_string(),
                },
            });
    }

    fn on_register(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: kem::FunctionId,
    ) {
        self.counters.handler_ops_logged += 1;
        self.advice
            .handler_logs
            .entry(rid)
            .or_default()
            .push(HandlerLogEntry {
                hid: hid.clone(),
                opnum,
                op: HandlerOp::Register {
                    event: event.to_string(),
                    function,
                },
            });
    }

    fn on_unregister(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: kem::FunctionId,
    ) {
        self.counters.handler_ops_logged += 1;
        self.advice
            .handler_logs
            .entry(rid)
            .or_default()
            .push(HandlerLogEntry {
                hid: hid.clone(),
                opnum,
                op: HandlerOp::Unregister {
                    event: event.to_string(),
                    function,
                },
            });
    }

    fn on_check_op(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        _count: i64,
    ) {
        // Only the operation and its arguments are logged (§C.1.3);
        // the verifier recomputes the observed count from the handler
        // log's registration history.
        self.counters.handler_ops_logged += 1;
        self.advice
            .handler_logs
            .entry(rid)
            .or_default()
            .push(HandlerLogEntry {
                hid: hid.clone(),
                opnum,
                op: HandlerOp::Check {
                    event: event.to_string(),
                },
            });
    }

    fn on_respond(&mut self, rid: RequestId, hid: &HandlerId, ops_before: u32, _output: &Value) {
        self.advice
            .response_emitted_by
            .insert(rid, (hid.clone(), ops_before));
    }

    fn on_tx_op(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        record: &TxOpRecord,
        _activates: &HandlerId,
    ) {
        self.counters.tx_ops_logged += 1;
        if record.kind == TxOpKind::Start {
            let ktx = KTxId {
                rid,
                hid: hid.clone(),
                opnum,
            };
            self.tx_of.insert(record.txn, ktx.clone());
            self.advice.tx_logs.insert(
                ktx,
                vec![TxLogEntry {
                    hid: hid.clone(),
                    opnum,
                    optype: TxOpKind::Start,
                    key: None,
                    contents: TxOpContents::None,
                }],
            );
            return;
        }
        let ktx = self
            .tx_of
            .get(&record.txn)
            .expect("ops follow tx_start")
            .clone();
        let entry = if record.effective_abort {
            TxLogEntry {
                hid: hid.clone(),
                opnum,
                optype: TxOpKind::Abort,
                key: record.key.clone(),
                contents: TxOpContents::None,
            }
        } else {
            match record.kind {
                TxOpKind::Get => TxLogEntry {
                    hid: hid.clone(),
                    opnum,
                    optype: TxOpKind::Get,
                    key: record.key.clone(),
                    contents: TxOpContents::Get {
                        from: record.writer.map(|w| TxPos {
                            tx: self
                                .tx_of
                                .get(&w.txn)
                                .expect("dictating writers were started through the collector")
                                .clone(),
                            index: w.tag,
                        }),
                    },
                },
                TxOpKind::Put => TxLogEntry {
                    hid: hid.clone(),
                    opnum,
                    optype: TxOpKind::Put,
                    key: record.key.clone(),
                    contents: TxOpContents::Put {
                        value: record.value.clone().expect("PUT records carry a value"),
                    },
                },
                TxOpKind::Commit => TxLogEntry {
                    hid: hid.clone(),
                    opnum,
                    optype: TxOpKind::Commit,
                    key: None,
                    contents: TxOpContents::None,
                },
                TxOpKind::Abort => TxLogEntry {
                    hid: hid.clone(),
                    opnum,
                    optype: TxOpKind::Abort,
                    key: None,
                    contents: TxOpContents::None,
                },
                TxOpKind::Start => unreachable!("handled above"),
            }
        };
        self.advice
            .tx_logs
            .get_mut(&ktx)
            .expect("log created at start")
            .push(entry);
    }

    fn on_nondet(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) -> Option<Value> {
        self.counters.nondet_logged += 1;
        self.advice
            .nondet
            .insert(OpRef::new(rid, hid.clone(), opnum), value.clone());
        None
    }
}

/// Runs the instrumented server end-to-end: executes `program` on
/// `inputs` with a [`Collector`] attached and returns the run output
/// (including the trusted trace) together with the finished advice.
pub fn run_instrumented_server(
    program: &kem::Program,
    inputs: &[Value],
    cfg: &kem::ServerConfig,
    mode: CollectorMode,
) -> Result<(kem::RunOutput, Advice), kem::RuntimeError> {
    run_instrumented_server_with_obs(program, inputs, cfg, mode, &obs::Obs::noop())
}

/// [`run_instrumented_server`] with telemetry: records a `server-run`
/// span whose args carry the collector's [`CollectorCounters`] skip
/// rate — accesses observed vs actually logged, the saving that is
/// *not* derivable from the finished advice. (Advice-volume
/// *counters* are fed by the verifier, the side that also sees
/// wire-delivered advice; feeding them here too would double-count
/// when one handle observes both halves of a run.) With a noop handle
/// this is exactly `run_instrumented_server`.
pub fn run_instrumented_server_with_obs(
    program: &kem::Program,
    inputs: &[Value],
    cfg: &kem::ServerConfig,
    mode: CollectorMode,
    obs: &obs::Obs,
) -> Result<(kem::RunOutput, Advice), kem::RuntimeError> {
    let t_run = obs.span_start();
    let mut collector = Collector::new(mode);
    if obs.is_enabled() {
        collector = collector.with_request_costs();
    }
    let out = kem::run_server(program, inputs, cfg, &mut collector)?;
    let c = collector.counters();
    // Per-request ledger rows, in ascending request order (the
    // BTreeMap iteration order) so the export is deterministic.
    for row in collector.request_costs() {
        obs.record_request_cost(row);
    }
    let advice = collector.finish(&out.binlog);
    obs.record_span(
        "server-run",
        0,
        t_run,
        &[
            ("requests", inputs.len() as u64),
            ("var_accesses", c.var_accesses),
            ("logged", c.r_concurrent_logged),
        ],
    );
    Ok((out, advice))
}

/// Like [`run_instrumented_server`], but additionally *serializes* the
/// advice — the form the server actually ships to the verifier. Use
/// this variant when measuring server overhead: serialization is part
/// of the server's advice-collection cost (the paper's server writes
/// its logs out, §5).
pub fn run_instrumented_server_encoded(
    program: &kem::Program,
    inputs: &[Value],
    cfg: &kem::ServerConfig,
    mode: CollectorMode,
) -> Result<(kem::RunOutput, Vec<u8>), kem::RuntimeError> {
    let (out, advice) = run_instrumented_server(program, inputs, cfg, mode)?;
    Ok((out, crate::wire::encode_advice(&advice)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kem::dsl::*;
    use kem::{ProgramBuilder, ServerConfig};

    fn counter_program() -> kem::Program {
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
        b.build().unwrap()
    }

    #[test]
    fn collects_opcounts_and_responses() {
        let p = counter_program();
        let (out, advice) = run_instrumented_server(
            &p,
            &[Value::Null, Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        assert!(out.trace.is_balanced());
        assert_eq!(advice.opcounts.len(), 2);
        assert_eq!(advice.response_emitted_by.len(), 2);
        // Each handler: read, write, read = 3 ops.
        for count in advice.opcounts.values() {
            assert_eq!(*count, 3);
        }
    }

    #[test]
    fn cross_request_accesses_are_logged() {
        // Request handlers are children of I, hence R-concurrent with
        // each other: accesses dictated by *another request's* write
        // must be logged — the paper's MOTD observation (§6.2).
        let p = counter_program();
        let (_, advice) = run_instrumented_server(
            &p,
            &[Value::Null, Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        // Request 0's accesses are R-ordered after init (ancestor), so
        // unlogged. Request 1's first read and its write observe
        // request 0's write (cross-request ⇒ R-concurrent): 1 read +
        // 1 write + the backfilled request-0 write = 3 entries.
        // Request 1's second read observes its own handler's write
        // (R-ordered), so it is not logged.
        assert_eq!(advice.var_log_entries(), 3);
    }

    #[test]
    fn more_requests_log_proportionally() {
        let p = counter_program();
        let (_, advice) = run_instrumented_server(
            &p,
            &vec![Value::Null; 10],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        // Each request after the first logs its cross-request read and
        // write; the dictating writes are the previous requests' writes
        // (already logged). 9 × 2 + 1 backfill = 19.
        assert_eq!(advice.var_log_entries(), 19);
    }

    #[test]
    fn r_ordered_accesses_not_logged() {
        // A single request reading a variable written only at init: the
        // read is R-ordered after init, so Karousos logs nothing.
        let mut b = ProgramBuilder::new();
        b.shared_var("cfgv", Value::Int(5), true);
        b.function("handle", vec![respond(sread("cfgv"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let (_, advice) = run_instrumented_server(
            &p,
            &[Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        assert_eq!(advice.var_log_entries(), 0);
    }

    #[test]
    fn orochi_mode_logs_everything() {
        let mut b = ProgramBuilder::new();
        b.shared_var("cfgv", Value::Int(5), true);
        b.function("handle", vec![respond(sread("cfgv"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let (_, advice) = run_instrumented_server(
            &p,
            &[Value::Null],
            &ServerConfig::default(),
            CollectorMode::OrochiJs,
        )
        .unwrap();
        // The read plus the backfilled init write.
        assert_eq!(advice.var_log_entries(), 2);
    }

    #[test]
    fn tags_group_identical_requests() {
        let p = counter_program();
        let (out, advice) = run_instrumented_server(
            &p,
            &[Value::Null, Value::Null, Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        let groups = advice.groups(&out.trace.request_ids());
        assert_eq!(groups.len(), 1, "identical requests share one group");
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn tags_separate_different_control_flow() {
        let mut b = ProgramBuilder::new();
        b.function(
            "handle",
            vec![iff(
                eq(field(payload(), "op"), lit("a")),
                vec![respond(lit("A"))],
                vec![respond(lit("B"))],
            )],
        );
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![
            Value::map([("op", Value::str("a"))]),
            Value::map([("op", Value::str("b"))]),
            Value::map([("op", Value::str("a"))]),
        ];
        let (out, advice) = run_instrumented_server(
            &p,
            &inputs,
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        let groups = advice.groups(&out.trace.request_ids());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![RequestId(0), RequestId(2)]);
        assert_eq!(groups[1], vec![RequestId(1)]);
    }

    #[test]
    fn transaction_logging_records_dictating_puts() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![tx_start(payload(), "s1")]);
        b.function(
            "s1",
            vec![iff(
                eq(field(field(payload(), "ctx"), "op"), lit("put")),
                vec![tx_put(
                    field(payload(), "tx"),
                    lit("k"),
                    lit(1i64),
                    null(),
                    "c1",
                )],
                vec![tx_get(field(payload(), "tx"), lit("k"), null(), "c1")],
            )],
        );
        b.function(
            "c1",
            vec![tx_commit(field(payload(), "tx"), null(), "done")],
        );
        b.function("done", vec![respond(lit("ok"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let inputs = vec![
            Value::map([("op", Value::str("put"))]),
            Value::map([("op", Value::str("get"))]),
        ];
        let (_, advice) = run_instrumented_server(
            &p,
            &inputs,
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        assert_eq!(advice.tx_logs.len(), 2);
        assert_eq!(advice.write_order.len(), 1);
        // Find the GET entry and check its dictating PUT points at the
        // writer transaction's PUT position.
        let get_entry = advice
            .tx_logs
            .values()
            .flatten()
            .find(|e| e.optype == TxOpKind::Get)
            .expect("a GET was logged");
        match &get_entry.contents {
            TxOpContents::Get { from: Some(pos) } => {
                let w = advice.tx_entry(pos).unwrap();
                assert_eq!(w.optype, TxOpKind::Put);
                assert_eq!(w.key.as_deref(), Some("k"));
            }
            other => panic!("unexpected GET contents: {other:?}"),
        }
    }

    #[test]
    fn nondet_values_recorded() {
        let mut b = ProgramBuilder::new();
        b.function("handle", vec![nondet_counter("t"), respond(local("t"))]);
        b.request_handler("handle");
        let p = b.build().unwrap();
        let (out, advice) = run_instrumented_server(
            &p,
            &[Value::Null],
            &ServerConfig::default(),
            CollectorMode::Karousos,
        )
        .unwrap();
        assert_eq!(advice.nondet.len(), 1);
        let recorded = advice.nondet.values().next().unwrap();
        assert_eq!(Some(recorded), out.trace.output_of(RequestId(0)));
    }
}
