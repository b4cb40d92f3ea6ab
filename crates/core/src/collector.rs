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
//!
//! **Tables.** The server numbers requests, variables and transactions
//! densely from 0, so the collector records into `Vec`s indexed by
//! those ids: per variable its last write, that write's value, whether
//! the write is in the log yet, and the log; per request its handler
//! log, opcounts, response, nondeterministic values and completed
//! activations; the transaction logs in start order. Entries are
//! appended as hooks fire, and [`Collector::finish`] /
//! `Collector::finish_encoded` sort each table once into the key
//! order an owned [`Advice`]'s maps iterate in. The encoder reads the
//! sorted tables directly (`crate::wire`), so the shipped bytes are
//! those of [`crate::encode_advice`] on the owned advice, with no owned
//! advice built in between.

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

impl CollectorMode {
    /// Whether an access at `op` that observes or overwrites `write` is
    /// logged.
    fn logs(self, op: &OpRef, write: &OpRef) -> bool {
        match self {
            CollectorMode::Karousos => r_concurrent(op, write),
            CollectorMode::OrochiJs => true,
        }
    }
}

/// Per-variable bookkeeping (the `v.value`/`v.rid`/`v.hid`/`v.opnum`
/// fields of Fig. 13) and the variable's log.
#[derive(Debug)]
struct VarRec {
    last_write: OpRef,
    last_value: Value,
    /// Whether `last_write` has an entry in `log`: it was logged when
    /// it ran, or an access since backfilled it.
    logged: bool,
    /// Entries in the order they were made.
    log: Vec<(OpRef, VarLogEntry)>,
}

impl VarRec {
    /// Logs an access at `op` that observes or overwrites `last_write`,
    /// after backfilling `last_write` if it is not in the log yet
    /// (Fig. 13 lines 14–15 / 21–22).
    fn log(&mut self, op: OpRef, access: AccessType, value: Option<Value>) {
        if !self.logged {
            let backfill = VarLogEntry {
                access: AccessType::Write,
                value: Some(self.last_value.clone()),
                prec: None,
            };
            self.log.push((self.last_write.clone(), backfill));
            self.logged = true;
        }
        let prec = Some(self.last_write.clone());
        let entry = VarLogEntry {
            access,
            value,
            prec,
        };
        self.log.push((op, entry));
    }
}

/// What the collector records of one request.
#[derive(Debug, Default)]
pub(crate) struct Row {
    /// Whether the request was met: only a met request has a tag.
    pub(crate) met: bool,
    /// Its control-flow tag, from [`Collector::finish`] on.
    pub(crate) tag: u64,
    /// Completed activations and their control-flow digests, in
    /// completion order.
    done: Vec<(HandlerId, u64)>,
    pub(crate) handler_log: Vec<HandlerLogEntry>,
    pub(crate) opcounts: Vec<(HandlerId, u32)>,
    pub(crate) response: Option<(HandlerId, u32)>,
    /// Keyed by `(handler, opnum)`.
    pub(crate) nondet: Vec<((HandlerId, u32), Value)>,
}

/// The finished advice as the collector holds it, every table in the
/// key order of the owned [`Advice`]'s maps: what the encoder writes
/// and what the owned advice is built from.
#[derive(Debug)]
pub(crate) struct AdviceTables {
    /// Indexed by [`RequestId`].
    pub(crate) rows: Vec<Row>,
    /// The variables with a log, ascending.
    pub(crate) var_logs: Vec<(VarId, Vec<(OpRef, VarLogEntry)>)>,
    pub(crate) tx_logs: Vec<(KTxId, Vec<TxLogEntry>)>,
    pub(crate) write_order: Vec<TxPos>,
}

impl AdviceTables {
    /// The owned advice holding the same entries.
    fn into_advice(self) -> Advice {
        let mut a = Advice {
            var_logs: (self.var_logs.into_iter())
                .map(|(var, log)| (var, log.into_iter().collect()))
                .collect(),
            tx_logs: self.tx_logs.into_iter().collect(),
            write_order: self.write_order,
            ..Advice::default()
        };
        for (rid, row) in self.rows.into_iter().enumerate() {
            let rid = RequestId(rid as u64);
            if row.met {
                a.tags.insert(rid, row.tag);
            }
            if !row.handler_log.is_empty() {
                a.handler_logs.insert(rid, row.handler_log);
            }
            if let Some(response) = row.response {
                a.response_emitted_by.insert(rid, response);
            }
            let opcounts = row.opcounts.into_iter();
            a.opcounts.extend(opcounts.map(|(hid, n)| ((rid, hid), n)));
            let nondet = row.nondet.into_iter();
            a.nondet
                .extend(nondet.map(|((hid, op), v)| (OpRef::new(rid, hid, op), v)));
        }
        a
    }
}

/// Sorts `(key, value)` pairs by key. No two entries of a table share
/// a key: an activation numbers its operations apart, and
/// `ProgramBuilder::build` rejects a program that would run two
/// activations of one request under one handler id.
fn sort_by_key<K: Ord, V>(entries: &mut [(K, V)]) {
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
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
///
/// It indexes its tables by the ids the server hands its hooks, which
/// `kem`'s server numbers densely from 0.
#[derive(Debug)]
pub struct Collector {
    mode: CollectorMode,
    /// Indexed by [`VarId`]; `None` for a variable not initialized
    /// through the hooks (not loggable).
    vars: Vec<Option<VarRec>>,
    /// Indexed by [`RequestId`].
    rows: Vec<Row>,
    /// Transaction logs in start order.
    txs: Vec<(KTxId, Vec<TxLogEntry>)>,
    /// Indexed by [`TxnId`]: the transaction's place in `txs`.
    tx_of: Vec<Option<usize>>,
    /// Control-flow digest of the running activation (the only one
    /// open: handlers run to completion), reset when one starts.
    cf: Fnv,
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
            vars: Vec::new(),
            rows: Vec::new(),
            txs: Vec::new(),
            tx_of: Vec::new(),
            cf: Fnv::new(),
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
    pub fn finish(self, binlog: &Binlog) -> Advice {
        self.tables(binlog).into_advice()
    }

    /// [`Collector::finish`], encoded: the bytes
    /// [`crate::encode_advice`] makes of that advice, written from the
    /// collector's tables.
    pub(crate) fn finish_encoded(self, binlog: &Binlog) -> Vec<u8> {
        crate::wire::encode_tables(&self.tables(binlog))
    }

    /// Sorts every table into key order, computes the tags and converts
    /// the binlog into the write order.
    fn tables(mut self, binlog: &Binlog) -> AdviceTables {
        let write_order = (binlog.entries().iter())
            .map(|entry| TxPos {
                tx: self.txs[self.tx(entry.txn)].0.clone(),
                index: entry.tag,
            })
            .collect();
        for row in &mut self.rows {
            // Karousos's tag is order-invariant: a digest of the sorted
            // multiset of (handler id, control-flow digest) pairs, so
            // requests with the same handler *tree* and branches batch
            // together regardless of activation order (§4.1). Orochi-JS's
            // is order-sensitive: the pairs in completion order (§2.3).
            let mut done = std::mem::take(&mut row.done);
            if self.mode == CollectorMode::Karousos {
                done.sort_unstable();
            }
            let mut h = Fnv::new();
            for (hid, cf) in &done {
                h.write_u64(hid_digest(hid));
                h.write_u64(*cf);
            }
            row.tag = h.finish();
            sort_by_key(&mut row.opcounts);
            sort_by_key(&mut row.nondet);
        }
        let var_logs = (self.vars.into_iter().enumerate())
            .filter_map(|(var, rec)| {
                let mut log = rec?.log;
                sort_by_key(&mut log);
                (!log.is_empty()).then_some((VarId(var as u32), log))
            })
            .collect();
        sort_by_key(&mut self.txs);
        AdviceTables {
            rows: self.rows,
            var_logs,
            tx_logs: self.txs,
            write_order,
        }
    }

    /// The row of request `rid`, made if it is new.
    fn row(&mut self, rid: RequestId) -> &mut Row {
        let i = rid.0 as usize;
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, Row::default);
        }
        &mut self.rows[i]
    }

    /// The place in `txs` of transaction `txn`.
    fn tx(&self, txn: TxnId) -> usize {
        let at = self.tx_of.get(txn.0 as usize).copied().flatten();
        at.expect("every transaction was started through the collector")
    }

    /// The bookkeeping of an initialized variable.
    fn var(&mut self, var: VarId) -> &mut VarRec {
        let rec = self.vars.get_mut(var.0 as usize).and_then(Option::as_mut);
        rec.expect("accesses follow initialization")
    }

    fn handler_op(&mut self, rid: RequestId, hid: &HandlerId, opnum: u32, op: HandlerOp) {
        self.counters.handler_ops_logged += 1;
        self.row(rid).handler_log.push(HandlerLogEntry {
            hid: hid.clone(),
            opnum,
            op,
        });
    }

    fn cost_row(&mut self, rid: RequestId) -> Option<&mut obs::RequestCost> {
        let costs = self.req_costs.as_mut()?;
        Some(costs.entry(rid.0).or_insert(obs::RequestCost {
            rid: rid.0,
            ..Default::default()
        }))
    }
}

impl ExecHooks for Collector {
    fn on_request(&mut self, rid: RequestId, _input: &Value) {
        self.row(rid).met = true;
    }

    fn on_handler_start(&mut self, _rid: RequestId, _hid: &HandlerId) {
        self.cf = Fnv::new();
    }

    fn on_handler_end(&mut self, rid: RequestId, hid: &HandlerId, opcount: u32) {
        let digest = std::mem::take(&mut self.cf).finish();
        let row = self.row(rid);
        row.met = true;
        row.opcounts.push((hid.clone(), opcount));
        row.done.push((hid.clone(), digest));
        if let Some(row) = self.cost_row(rid) {
            row.activations += 1;
            row.ops += opcount as u64;
        }
    }

    fn on_handler_fuel(&mut self, rid: RequestId, _hid: &HandlerId, fuel: u64) {
        if let Some(row) = self.cost_row(rid) {
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
        let i = var.0 as usize;
        if i >= self.vars.len() {
            self.vars.resize_with(i + 1, || None);
        }
        self.vars[i] = Some(VarRec {
            last_write: OpRef::new(rid, hid.clone(), opnum),
            last_value: value.clone(),
            logged: false,
            log: Vec::new(),
        });
    }

    fn on_var_read(
        &mut self,
        var: VarId,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        _value: &Value,
    ) {
        let mode = self.mode;
        self.counters.var_accesses += 1;
        let rec = self.var(var);
        let op = OpRef::new(rid, hid.clone(), opnum);
        if mode.logs(&op, &rec.last_write) {
            rec.log(op, AccessType::Read, None);
            self.counters.r_concurrent_logged += 1;
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
        let mode = self.mode;
        self.counters.var_accesses += 1;
        let rec = self.var(var);
        let op = OpRef::new(rid, hid.clone(), opnum);
        let logged = mode.logs(&op, &rec.last_write);
        if logged {
            rec.log(op.clone(), AccessType::Write, Some(value.clone()));
        }
        rec.last_write = op;
        rec.last_value = value.clone();
        rec.logged = logged;
        self.counters.r_concurrent_logged += u64::from(logged);
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
        let event = event.to_string();
        self.handler_op(rid, hid, opnum, HandlerOp::Emit { event });
    }

    fn on_register(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: kem::FunctionId,
    ) {
        let event = event.to_string();
        self.handler_op(rid, hid, opnum, HandlerOp::Register { event, function });
    }

    fn on_unregister(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        event: &str,
        function: kem::FunctionId,
    ) {
        let event = event.to_string();
        self.handler_op(rid, hid, opnum, HandlerOp::Unregister { event, function });
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
        let event = event.to_string();
        self.handler_op(rid, hid, opnum, HandlerOp::Check { event });
    }

    fn on_respond(&mut self, rid: RequestId, hid: &HandlerId, ops_before: u32, _output: &Value) {
        self.row(rid).response = Some((hid.clone(), ops_before));
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
        let entry = |optype, key, contents| TxLogEntry {
            hid: hid.clone(),
            opnum,
            optype,
            key,
            contents,
        };
        if record.kind == TxOpKind::Start {
            let i = record.txn.0 as usize;
            if i >= self.tx_of.len() {
                self.tx_of.resize(i + 1, None);
            }
            self.tx_of[i] = Some(self.txs.len());
            let ktx = KTxId {
                rid,
                hid: hid.clone(),
                opnum,
            };
            let start = entry(TxOpKind::Start, None, TxOpContents::None);
            self.txs.push((ktx, vec![start]));
            return;
        }
        let entry = if record.effective_abort {
            entry(TxOpKind::Abort, record.key.clone(), TxOpContents::None)
        } else {
            let contents = match record.kind {
                TxOpKind::Get => TxOpContents::Get {
                    from: record.writer.map(|w| TxPos {
                        tx: self.txs[self.tx(w.txn)].0.clone(),
                        index: w.tag,
                    }),
                },
                TxOpKind::Put => TxOpContents::Put {
                    value: record.value.clone().expect("PUT records carry a value"),
                },
                TxOpKind::Commit | TxOpKind::Abort => TxOpContents::None,
                TxOpKind::Start => unreachable!("handled above"),
            };
            let key = match record.kind {
                TxOpKind::Get | TxOpKind::Put => record.key.clone(),
                _ => None,
            };
            entry(record.kind, key, contents)
        };
        let tx = self.tx(record.txn);
        self.txs[tx].1.push(entry);
    }

    fn on_nondet(
        &mut self,
        rid: RequestId,
        hid: &HandlerId,
        opnum: u32,
        value: &Value,
    ) -> Option<Value> {
        self.counters.nondet_logged += 1;
        let key = (hid.clone(), opnum);
        self.row(rid).nondet.push((key, value.clone()));
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
    serve(program, inputs, cfg, mode, obs, Collector::finish)
}

/// Like [`run_instrumented_server`], but additionally *serializes* the
/// advice — the form the server actually ships to the verifier. Use
/// this variant when measuring server overhead: serialization is part
/// of the server's advice-collection cost (the paper's server writes
/// its logs out, §5). The bytes are written from the collector's
/// tables (`Collector::finish_encoded`); no owned [`Advice`] is built.
pub fn run_instrumented_server_encoded(
    program: &kem::Program,
    inputs: &[Value],
    cfg: &kem::ServerConfig,
    mode: CollectorMode,
) -> Result<(kem::RunOutput, Vec<u8>), kem::RuntimeError> {
    let obs = obs::Obs::noop();
    serve(program, inputs, cfg, mode, &obs, Collector::finish_encoded)
}

/// Runs the server with a collector attached and finishes the
/// collector with `finish`.
fn serve<T>(
    program: &kem::Program,
    inputs: &[Value],
    cfg: &kem::ServerConfig,
    mode: CollectorMode,
    obs: &obs::Obs,
    finish: impl FnOnce(Collector, &Binlog) -> T,
) -> Result<(kem::RunOutput, T), kem::RuntimeError> {
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
    let advice = finish(collector, &out.binlog);
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

    /// One variable-log entry as the bytes carry it.
    type WireEntry = (OpRef, AccessType, Option<Value>, Option<OpRef>);

    /// Every variable-log entry `c` ships, in wire order, duplicates
    /// included.
    fn shipped_var_log(c: Collector) -> Vec<WireEntry> {
        let bytes = c.finish_encoded(&Binlog::new());
        let view = crate::wire::decode_advice_view(&bytes).unwrap();
        let entries = view.var_logs.iter().flat_map(|(_, log)| log.iter());
        entries
            .map(|(op, e)| {
                let value = e
                    .value
                    .and_then(|id| view.value(id))
                    .map(|v| v.value().clone());
                let prec = e.prec.map(|prec| view.paths.op_ref(&prec));
                (view.paths.op_ref(op), e.access, value, prec)
            })
            .collect()
    }

    #[test]
    fn a_write_enters_its_log_once() {
        let (var, h) = (VarId(0), HandlerId::root(kem::FunctionId(0)));
        let init = OpRef::new(RequestId::INIT, kem::init_handler_id(), 1);
        let op = |rid: u64, n: u32| OpRef::new(RequestId(rid), h.clone(), n);
        let access = |c: &mut Collector, rid: u64, n: u32, write: Option<i64>| match write {
            Some(v) => c.on_var_write(var, RequestId(rid), &h, n, &Value::Int(v)),
            None => c.on_var_read(var, RequestId(rid), &h, n, &Value::Null),
        };
        let read = |rid, n, prec: &OpRef| (op(rid, n), AccessType::Read, None, Some(prec.clone()));
        let write = |at: OpRef, v, prec: Option<&OpRef>| {
            (at, AccessType::Write, Some(Value::Int(v)), prec.cloned())
        };
        let shipped = |mode| {
            let mut c = Collector::new(mode);
            c.on_var_init(var, RequestId::INIT, &init.hid, init.opnum, &Value::Int(0));
            // Orochi-JS logs both reads of the initial value; the first
            // backfills it.
            access(&mut c, 0, 1, None);
            access(&mut c, 1, 1, None);
            // Karousos does not log r0's write (init R-precedes it); the
            // two cross-request reads that observe it backfill it once.
            access(&mut c, 0, 2, Some(1));
            access(&mut c, 1, 2, None);
            access(&mut c, 2, 1, None);
            // r3's write is logged when it runs, and the reads that
            // observe it do not enter it again.
            access(&mut c, 3, 1, Some(3));
            access(&mut c, 4, 1, None);
            access(&mut c, 5, 1, None);
            shipped_var_log(c)
        };
        let (w0, w3) = (op(0, 2), op(3, 1));
        assert_eq!(
            shipped(CollectorMode::Karousos),
            [
                write(w0.clone(), 1, None),
                read(1, 2, &w0),
                read(2, 1, &w0),
                write(w3.clone(), 3, Some(&w0)),
                read(4, 1, &w3),
                read(5, 1, &w3),
            ]
        );
        assert_eq!(
            shipped(CollectorMode::OrochiJs),
            [
                read(0, 1, &init),
                write(w0.clone(), 1, Some(&init)),
                read(1, 1, &init),
                read(1, 2, &w0),
                read(2, 1, &w0),
                write(w3.clone(), 3, Some(&w0)),
                read(4, 1, &w3),
                read(5, 1, &w3),
                write(init.clone(), 0, None),
            ]
        );
    }
}
