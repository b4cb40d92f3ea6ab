//! Every call into the program under test lives here, and only here:
//! no other file of the benchmark names a `karousos::`, `kem::`,
//! `apps::`, `workload::`, `baselines::`, `kvstore::` or `obs::` item.
//! When the program's entry points change, this is the file to follow
//! up in; the measurement code sees only the opaque types below.
//!
//! Options are always explicit (`AuditOptions::default()` plus the
//! field a measurement varies); nothing here reads `KAROUSOS_*`.

use std::path::Path;

use karousos::verifier::{init_vars, preprocess_staged, PreStaged, ReExecutor, VarStates};
use karousos::{
    AdviceRef, AdviceSource, AuditOptions, AuditReport, BoundedDecodeError, CollectorMode,
    MutationClass, Mutator, RejectReason, ReplaySchedule, WireMutator,
};
use obs::Obs;

use crate::spans::Recorder;
use crate::workloads::{AppKind, Op, Workload, CONCURRENCY};

/// A workload instance: the program and the requests generated from a
/// seed. The program under test sees nothing else.
pub struct Inputs {
    program: kem::Program,
    requests: Vec<kem::Value>,
    cfg: kem::ServerConfig,
    isolation: kvstore::IsolationLevel,
}

impl Inputs {
    pub fn requests(&self) -> usize {
        self.requests.len()
    }
}

/// The trusted trace of one server run.
pub struct Trace(kem::Trace);

pub fn generate(w: &Workload, requests: usize, seed: u64) -> Inputs {
    let program = match w.app {
        AppKind::Wiki => apps::App::Wiki,
        AppKind::Motd => apps::App::Motd,
        AppKind::Stacks => apps::App::Stacks,
    }
    .program();
    let requests = w
        .ops(requests, seed)
        .iter()
        .map(|op| match op {
            Op::MotdGet { day } => apps::motd::get(day),
            Op::MotdSet { day, msg, user } => apps::motd::set(day, msg, user),
            Op::StacksReport { dump } => apps::stacks::report(dump),
            Op::StacksCount { dump } => apps::stacks::count(dump),
            Op::StacksList => apps::stacks::list(),
            Op::WikiCreate { id, title, body } => apps::wiki::create_page(id, title, body),
            Op::WikiComment { page, text } => apps::wiki::comment(page, text),
            Op::WikiRender { page } => apps::wiki::render(page),
        })
        .collect();
    let isolation = kvstore::IsolationLevel::Serializable;
    Inputs {
        program,
        requests,
        cfg: kem::ServerConfig {
            concurrency: CONCURRENCY,
            isolation,
            policy: kem::SchedPolicy::Random { seed },
            // `ServerConfig::default()` takes this field from the
            // environment.
            bytecode: true,
            ..kem::ServerConfig::default()
        },
        isolation,
    }
}

/// The instrumented (Karousos) server: run, collect, encode. This is
/// the operation `collect_ms_p50` times.
pub fn serve(inputs: &Inputs) -> (Trace, Vec<u8>) {
    let (out, bytes) = karousos::run_instrumented_server_encoded(
        &inputs.program,
        &inputs.requests,
        &inputs.cfg,
        CollectorMode::Karousos,
    )
    .expect("the workload's requests run on the instrumented server");
    (Trace(out.trace), bytes)
}

/// The unmodified server (no collection): Fig. 6's denominator.
pub fn serve_unmodified(inputs: &Inputs) {
    kem::run_server(
        &inputs.program,
        &inputs.requests,
        &inputs.cfg,
        &mut kem::NoopHooks,
    )
    .expect("the workload's requests run on the unmodified server");
}

/// Advice in its decoded, owned form: what the encoder consumes and
/// what the structural mutators edit.
pub struct OwnedAdvice(karousos::Advice);

/// The instrumented server without the encode step, in Karousos or
/// Orochi-JS collection mode.
pub fn serve_unencoded(inputs: &Inputs, orochi: bool) -> OwnedAdvice {
    let mode = if orochi {
        CollectorMode::OrochiJs
    } else {
        CollectorMode::Karousos
    };
    let (_, advice) =
        karousos::run_instrumented_server(&inputs.program, &inputs.requests, &inputs.cfg, mode)
            .expect("the workload's requests run on the instrumented server");
    OwnedAdvice(advice)
}

pub fn encode(advice: &OwnedAdvice) -> Vec<u8> {
    karousos::encode_advice(&advice.0)
}

pub fn decode_owned(bytes: &[u8]) -> OwnedAdvice {
    OwnedAdvice(karousos::decode_advice(bytes).expect("honest advice decodes"))
}

/// What an ACCEPT is identified by: equal across thread counts, mmap,
/// and the traced and untraced compositions, or the audit is wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub groups: u64,
    pub fuel: u64,
    pub nodes: u64,
    pub edges: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Accept(Fingerprint),
    /// `kind` is the program's stable name for the reject reason.
    Reject {
        kind: &'static str,
    },
}

impl Verdict {
    /// A REJECT that is the verifier's own fault is never a known
    /// answer.
    pub fn is_internal_fault(&self) -> bool {
        matches!(self, Verdict::Reject { kind } if *kind == "VerifierInternal")
    }

    fn of(result: Result<AuditReport, RejectReason>) -> Verdict {
        match result {
            Ok(report) => Verdict::Accept(Fingerprint {
                groups: report.reexec.groups as u64,
                fuel: report.reexec.fuel_spent,
                nodes: report.graph_nodes as u64,
                edges: report.graph_edges as u64,
            }),
            Err(reason) => Verdict::Reject {
                kind: reason.kind(),
            },
        }
    }
}

/// How one audit is run. Everything else is `AuditOptions::default()`.
#[derive(Debug, Clone, Copy)]
pub struct AuditMode {
    pub threads: usize,
    pub mmap: bool,
    /// Record into an enabled observability handle instead of a noop.
    pub obs: bool,
}

impl AuditMode {
    pub const fn threads(threads: usize) -> Self {
        AuditMode {
            threads,
            mmap: false,
            obs: false,
        }
    }
}

fn options(mode: AuditMode) -> AuditOptions {
    AuditOptions {
        threads: mode.threads,
        advice_mmap: mode.mmap,
        ..AuditOptions::default()
    }
}

fn handle(enabled: bool) -> Obs {
    if enabled {
        Obs::enabled()
    } else {
        Obs::noop()
    }
}

/// The deployed path: advice file on disk to verdict. An unreadable
/// file is a REJECT, as in the program's own file entry point.
pub fn audit_file(inputs: &Inputs, trace: &Trace, path: &Path, mode: AuditMode) -> Verdict {
    let opts = options(mode);
    let Ok(source) = AdviceSource::open(path, opts.advice_mmap) else {
        return Verdict::Reject {
            kind: "MalformedAdvice",
        };
    };
    Verdict::of(karousos::audit_source_with_obs(
        &inputs.program,
        &trace.0,
        &source,
        inputs.isolation,
        opts,
        &handle(mode.obs),
    ))
}

/// The same audit from bytes in memory (baselines only).
pub fn audit_bytes(inputs: &Inputs, trace: &Trace, bytes: &[u8]) -> Verdict {
    Verdict::of(karousos::audit_encoded_with_obs(
        &inputs.program,
        &trace.0,
        bytes,
        inputs.isolation,
        options(AuditMode::threads(1)),
        &Obs::noop(),
    ))
}

/// Sequential re-execution baseline (Fig. 7). Returns whether every
/// replayed request ran.
pub fn sequential_reexecute(inputs: &Inputs, trace: &Trace) -> bool {
    baselines::sequential_reexecute(&inputs.program, &trace.0, inputs.isolation)
        .map(|r| r.replayed == inputs.requests.len())
        .unwrap_or(false)
}

/// The tampered corpus: a fixed ordered list of semantic mutations, so
/// every one must REJECT. Chosen to apply to all three apps and to
/// reject at different depths of the audit (README, "Tampered corpus").
#[derive(Debug, Clone, Copy)]
enum Tamper {
    Wire(WireMutator),
    Advice(Mutator),
}

const CORPUS: [Tamper; 8] = [
    Tamper::Wire(WireMutator::InflateLength),
    Tamper::Wire(WireMutator::Truncate),
    Tamper::Wire(WireMutator::AppendGarbage),
    Tamper::Advice(Mutator::SwapResponseEmitters),
    Tamper::Advice(Mutator::ForgeDictatingWrite),
    Tamper::Advice(Mutator::DropTag),
    Tamper::Advice(Mutator::ForgeVarWriteValue),
    Tamper::Advice(Mutator::CorruptOpcount),
];

pub const CORPUS_LEN: usize = CORPUS.len();

/// Variant `i`'s name with `-` as `_`, as used in metric names.
pub fn tamper_name(i: usize) -> String {
    match CORPUS[i] {
        Tamper::Wire(m) => m.name(),
        Tamper::Advice(m) => m.name(),
    }
    .replace('-', "_")
}

/// Tampered advice bytes for variant `i`, or `None` when the advice has
/// nothing the mutator targets.
pub fn tamper(i: usize, honest: &OwnedAdvice, honest_bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    let mutation = match CORPUS[i] {
        Tamper::Wire(m) => {
            assert_eq!(m.class(), MutationClass::Semantic);
            m.apply(honest_bytes, seed)
        }
        Tamper::Advice(m) => {
            assert_eq!(m.class(), MutationClass::Semantic);
            m.apply(&honest.0, seed)
        }
    }?;
    Some(mutation.bytes)
}

/// Where the traced composition stopped with a REJECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Decode = 0,
    Preprocess = 1,
    /// Group replay and the streaming state merge (one call from
    /// outside).
    Reexec = 2,
    EdgeEmbed = 3,
    CycleCheck = 4,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Preprocess => "preprocess",
            Phase::Reexec => "reexec",
            Phase::EdgeEmbed => "edge_embed",
            Phase::CycleCheck => "cycle_check",
        }
    }
}

/// Work counts read at the layer boundaries of one traced audit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    pub bytes_in: u64,
    pub decode_bytes_copied: u64,
    pub interner_bytes_copied: u64,
    pub op_map_entries: u64,
    pub deferred_edges: u64,
    pub uniform_ops: u64,
    pub expanded_ops: u64,
    pub dict_feeds: u64,
    pub logged_reads: u64,
    pub cycle_check_visits: u64,
    /// Program-reported wall of the group-replay section (includes the
    /// overlapped edge merge).
    pub group_replay_ms: f64,
}

pub struct TracedAudit {
    pub verdict: Verdict,
    /// The phase that rejected; `None` on ACCEPT.
    pub rejected_in: Option<Phase>,
    pub counts: LayerCounts,
    /// Recorder index of the operation's root span.
    pub root: usize,
}

/// The default-option audit composed call by call from the program's
/// public functions, exactly as `audit_encoded_with_obs` and
/// `audit_core_inner` compose it, with one span around each call:
/// file read → bounded view decode → `AdviceRef::from_view` →
/// `preprocess_staged` → `run_pipelined` (deferred-edge merge timed
/// inside the overlap closure) → `add_internal_state_edges_sharded` →
/// `probe_cycle` → drops.
pub fn audit_file_traced(
    inputs: &Inputs,
    trace: &Trace,
    path: &Path,
    threads: usize,
    rec: &mut Recorder,
) -> TracedAudit {
    let mut counts = LayerCounts::default();
    rec.next_op();
    let root = rec.open("verifier.audit", None);
    let outcome = traced_layers(inputs, trace, path, threads, root, rec, &mut counts);
    rec.close(root);
    let (verdict, rejected_in) = match outcome {
        Ok(fingerprint) => (Verdict::Accept(fingerprint), None),
        Err((kind, phase)) => (Verdict::Reject { kind }, Some(phase)),
    };
    TracedAudit {
        verdict,
        rejected_in,
        counts,
        root,
    }
}

/// The layers of one traced audit, as children of span `root`. A REJECT
/// returns from the layer that found it; what was built until then
/// drops on the way out, inside the root span, as it does in the
/// program.
fn traced_layers(
    inputs: &Inputs,
    trace: &Trace,
    path: &Path,
    threads: usize,
    root: usize,
    rec: &mut Recorder,
    counts: &mut LayerCounts,
) -> Result<Fingerprint, (&'static str, Phase)> {
    let opts = options(AuditMode::threads(threads));
    let limits = opts.limits;

    let span = rec.open("wire.read", Some(root));
    let source = AdviceSource::open(path, false);
    rec.close(span);
    let source = source.map_err(|_| ("MalformedAdvice", Phase::Decode))?;
    let bytes = source.bytes();
    counts.bytes_in = bytes.len() as u64;
    if bytes.len() as u64 > limits.decode_max_bytes {
        return Err(("ResourceExhausted", Phase::Decode));
    }

    let span = rec.open("wire.decode", Some(root));
    let decoded = karousos::decode_advice_view_bounded(bytes, limits.decode_max_nodes);
    rec.close(span);
    let (view, decode_stats) = decoded.map_err(|e| {
        let kind = match e {
            BoundedDecodeError::NodesExhausted { .. } => "ResourceExhausted",
            BoundedDecodeError::Malformed(_) => "MalformedAdvice",
        };
        (kind, Phase::Decode)
    })?;
    counts.decode_bytes_copied = decode_stats.bytes_copied;

    let span = rec.open("advice_ref.build", Some(root));
    let mut interner = kem::ValueInterner::new();
    let advice = AdviceRef::from_view(&view, &mut interner);
    rec.close(span);
    counts.interner_bytes_copied = interner.bytes_copied;

    // The program's pre-replay volume budgets (a private function
    // there): the same two walks, so their cost is in the operation and
    // shows as the root span's self time.
    let dict_entries: u64 = advice.var_logs.values().map(|l| l.len() as u64).sum();
    let implied_nodes = advice
        .opcounts
        .values()
        .fold(0u64, |n, c| n.saturating_add(*c as u64 + 2));
    if dict_entries > limits.dict_max_entries || implied_nodes > limits.graph_max_nodes {
        return Err(("ResourceExhausted", Phase::Preprocess));
    }

    let span = rec.open("preprocess.staged", Some(root));
    let staged = preprocess_staged(
        &inputs.program,
        &trace.0,
        &advice,
        inputs.isolation,
        threads,
    );
    rec.close(span);
    let PreStaged {
        mut pre,
        mut deferred,
    } = staged.map_err(|reason| (reason.kind(), Phase::Preprocess))?;
    counts.op_map_entries = pre.op_map.len() as u64;
    counts.deferred_edges = deferred.edge_count() as u64;

    let mut vars = VarStates::new();
    init_vars(&inputs.program, &mut vars);
    let mut graph = std::mem::take(&mut pre.graph);

    let reexec_span = rec.open("reexec.run_pipelined", Some(root));
    let executor = ReExecutor::new(&inputs.program, &trace.0, &advice, &pre, &mut vars)
        .with_schedule(ReplaySchedule::Fifo)
        .with_limits(limits)
        .with_bytecode(opts.bytecode)
        .with_obs(Obs::noop());
    let replayed = {
        let (graph, deferred, rec) = (&mut graph, &mut deferred, &mut *rec);
        executor.run_pipelined(threads, move || {
            let span = rec.open("graph.edge_merge", Some(reexec_span));
            deferred.merge_into(graph);
            rec.close(span);
        })
    };
    rec.close(reexec_span);
    let (reexec, timing) = replayed.map_err(|reason| (reason.kind(), Phase::Reexec))?;
    rec.reported(
        "vars.state_merge",
        reexec_span,
        timing.state_merge.as_secs_f64() * 1e3,
    );
    counts.group_replay_ms = timing.group_replay.as_secs_f64() * 1e3;
    counts.uniform_ops = reexec.uniform_ops;
    counts.expanded_ops = reexec.expanded_ops;
    let feeds = vars.feeds();
    counts.dict_feeds = feeds.dict_feeds;
    counts.logged_reads = feeds.logged_reads;

    let span = rec.open("vars.edge_embed", Some(root));
    let embedded = vars.add_internal_state_edges_sharded(&mut graph, threads);
    rec.close(span);
    embedded.map_err(|reason| (reason.kind(), Phase::EdgeEmbed))?;
    let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
    if nodes > limits.graph_max_nodes || edges > limits.graph_max_edges {
        return Err(("ResourceExhausted", Phase::EdgeEmbed));
    }

    let span = rec.open("graph.cycle_check", Some(root));
    let probe = graph.probe_cycle();
    rec.close(span);
    counts.cycle_check_visits = probe.visits;

    // Everything the audit built is still alive here, as it is in the
    // program when its audit function is about to return.
    let span = rec.open("teardown.drop", Some(root));
    drop(graph);
    drop(vars);
    drop(deferred);
    drop(pre);
    drop(advice);
    drop(interner);
    drop(view);
    drop(source);
    rec.close(span);

    if probe.back_edge.is_some() {
        return Err(("CycleInG", Phase::CycleCheck));
    }
    Ok(Fingerprint {
        groups: reexec.groups as u64,
        fuel: reexec.fuel_spent,
        nodes,
        edges,
    })
}
