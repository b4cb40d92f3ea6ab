//! The traced run: per-layer metrics.
//!
//! The default-option audit is composed call by call
//! (`adapter::audit_file_traced`) with a span around every call into a
//! layer, interleaved with the untraced deployed-path audit so the two
//! can be reconciled: the traced layers must sum to the untraced audit
//! within `RECONCILE_PCT`, or the run is invalid. Everything is measured
//! at full and at quarter size; `scale_exp` is the exponent that takes
//! one to the other.
//!
//! One input instance (the run's first) is traced: layer shares are a
//! property of the program on an input, not of the input draw.

use std::path::Path;

use crate::adapter::{self, AuditMode, LayerCounts, Phase, Verdict};
use crate::alloc;
use crate::calib::{self, calibrate, Sample};
use crate::measure::{self, cal_median, instance_seed, par_threads, repeat_for, Instance, Tally};
use crate::spans::{Recorder, Span};
use crate::stats::{median, percentile, scale_exp};
use crate::workloads::Workload;

/// Allowed distance between the traced layer sum and the untraced audit.
pub const RECONCILE_PCT: f64 = 5.0;

/// Iterations of the traced/untraced pairs at each size.
const ITERATIONS: usize = 20;

/// The direct children of the root span, in call order.
const LAYERS: [&str; 8] = [
    "wire.read",
    "wire.decode",
    "advice_ref.build",
    "preprocess.staged",
    "reexec.run_pipelined",
    "vars.edge_embed",
    "graph.cycle_check",
    "teardown.drop",
];

/// The two spans inside `reexec.run_pipelined`.
const INNER: [&str; 2] = ["graph.edge_merge", "vars.state_merge"];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct PerLayer {
    pub metrics: Vec<Metric>,
    /// `Some(reason)` when the layers do not reconcile.
    pub invalid: Option<String>,
    /// The traced honest audit's fingerprint.
    pub fingerprint: Option<adapter::Fingerprint>,
    /// Per corpus variant: the REJECT's kind and phase, `None` if the
    /// workload has nothing the variant targets.
    pub rejects: Vec<Option<(&'static str, Phase)>>,
}

/// The traced iterations at one size. Times are calibrated ms, one
/// value per iteration, unless they say raw.
struct Traced {
    /// Per span name (`LAYERS` then `INNER`).
    spans: Vec<(&'static str, Vec<f64>)>,
    /// `reexec.run_pipelined`'s self time.
    reexec_self: Vec<f64>,
    /// Program-reported group replay net of the edge merge.
    group_replay: Vec<f64>,
    /// Sum of the root's children, and the rest of the root.
    layers_sum: Vec<f64>,
    unspanned: Vec<f64>,
    /// Raw ms of the children's sum and of the whole traced audit, for
    /// the pairwise reconciliation.
    layers_sum_raw: Vec<f64>,
    total_raw: Vec<f64>,
    /// Time between the end of the previous layer and the start of each.
    gaps: Vec<(&'static str, Vec<f64>)>,
    untraced: Vec<Sample>,
    counts: LayerCounts,
    bytes: u64,
}

impl Traced {
    fn span(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    }

    fn untraced_ms(&self) -> f64 {
        cal_median(&self.untraced)
    }
}

/// Interleaved untraced/traced pairs on one instance.
fn trace_size(inst: &Instance, budget_s: f64, rec: &mut Recorder, tally: &mut Tally) -> Traced {
    let per_name = |names: &[&'static str]| names.iter().map(|n| (*n, Vec::new())).collect();
    let mut t = Traced {
        spans: per_name(&[&LAYERS[..], &INNER[..]].concat()),
        reexec_self: Vec::new(),
        group_replay: Vec::new(),
        layers_sum: Vec::new(),
        unspanned: Vec::new(),
        layers_sum_raw: Vec::new(),
        total_raw: Vec::new(),
        gaps: per_name(&LAYERS),
        untraced: Vec::new(),
        counts: LayerCounts::default(),
        bytes: inst.advice_bytes,
    };
    let mut iteration = 0;
    repeat_for(budget_s, 3, ITERATIONS, || {
        // Untraced and traced alternate which goes first, so neither
        // always inherits the other's heap and cache state.
        let traced_first = iteration % 2 == 1;
        iteration += 1;
        for traced in [traced_first, !traced_first] {
            if !traced {
                let (v, s) = calib::timed(|| inst.audit(AuditMode::threads(1)));
                tally.honest(&v, inst.fingerprint, "untraced audit");
                t.untraced.push(s);
                continue;
            }
            let (op, s) = calib::timed(|| {
                adapter::audit_file_traced(&inst.inputs, &inst.trace, &inst.advice_path, 1, rec)
            });
            tally.honest(&op.verdict, inst.fingerprint, "traced audit");
            t.counts = op.counts;
            let cal = |ms: f64| calibrate(ms, s.cal_ms);
            let root = &rec.spans()[op.root];
            let of_op: Vec<(usize, &Span)> = rec.of_op(root.op).collect();
            let find = |name: &str| of_op.iter().find(|(_, s)| s.name == name);
            let ms = |name: &str| find(name).map_or(0.0, |(_, s)| s.ms());
            for (name, values) in &mut t.spans {
                values.push(cal(ms(name)));
            }
            let reexec_self = find("reexec.run_pipelined").map_or(0.0, |(id, _)| rec.self_ms(*id));
            t.reexec_self.push(cal(reexec_self));
            t.group_replay.push(cal(
                (op.counts.group_replay_ms - ms("graph.edge_merge")).max(0.0)
            ));
            let unspanned = rec.self_ms(op.root);
            t.layers_sum.push(cal(root.ms() - unspanned));
            t.unspanned.push(cal(unspanned));
            t.layers_sum_raw.push(root.ms() - unspanned);
            t.total_raw.push(root.ms());
            let mut cursor = root.start_ns;
            for (layer, gaps) in &mut t.gaps {
                if let Some((_, s)) = find(layer) {
                    gaps.push(cal(s.start_ns.saturating_sub(cursor) as f64 / 1e6));
                    cursor = s.end_ns;
                }
            }
        }
    });
    t
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }
}

const MB: f64 = 1e6;

pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    workdir: &Path,
    spans_out: &Path,
    tally: &mut Tally,
) -> PerLayer {
    let sub_seed = instance_seed(seed, 0);
    let requests = w.requests_at(scale);
    let full = measure::set_up(w, requests, sub_seed, workdir, tally);
    // A quarter of the requests of the same stream, its own server run.
    let quarter = measure::set_up(w, (requests / 4).max(1), sub_seed, workdir, tally);

    let mut rec = Recorder::new();
    let t_full = trace_size(&full, seconds * 0.30, &mut rec, tally);
    let t_quarter = trace_size(&quarter, seconds * 0.06, &mut rec, tally);

    // One more traced audit with the counting allocator on: per-layer
    // allocation counts and the heap left live after each layer.
    let (counted_op, _) = alloc::counted(|| {
        adapter::audit_file_traced(&full.inputs, &full.trace, &full.advice_path, 1, &mut rec)
    });
    tally.honest(
        &counted_op.verdict,
        full.fingerprint,
        "counted traced audit",
    );
    let counted_op_id = rec.spans()[counted_op.root].op;
    let counted: Vec<Span> = rec.of_op(counted_op_id).map(|(_, s)| s.clone()).collect();
    let counted_span = |name: &str| counted.iter().find(|s| s.name == name);
    let events = |name: &str| counted_span(name).map_or(0.0, |s| s.alloc_events() as f64);
    let alloc_mb = |name: &str| counted_span(name).map_or(0.0, |s| s.alloc_bytes() as f64 / MB);
    let live_after = |name: &str| counted_span(name).map_or(0.0, |s| s.alloc_end.live as f64 / MB);

    // The parallel audit, untraced and traced.
    let threads = par_threads();
    let (mut par_untraced, mut par_group_replay) = (Vec::new(), Vec::new());
    repeat_for(seconds * 0.06, 2, 5, || {
        let (v, s) = calib::timed(|| full.audit(AuditMode::threads(threads)));
        tally.honest(&v, full.fingerprint, "untraced parallel audit");
        par_untraced.push(s);
        let (op, s) = calib::timed(|| {
            adapter::audit_file_traced(
                &full.inputs,
                &full.trace,
                &full.advice_path,
                threads,
                &mut rec,
            )
        });
        tally.honest(&op.verdict, full.fingerprint, "traced parallel audit");
        par_group_replay.push(calibrate(op.counts.group_replay_ms, s.cal_ms));
    });

    let mut out = Out(Vec::new());
    let fp = full.fingerprint.unwrap_or_default();
    let c = t_full.counts;
    let exp = |name: &str| scale_exp(t_full.span(name), t_quarter.span(name));

    // wire
    let decode_ms = t_full.span("wire.decode");
    out.put("wire.read_ms", "ms", t_full.span("wire.read"));
    out.put("wire.decode_ms", "ms", decode_ms);
    out.put("wire.decode_alloc_events", "count", events("wire.decode"));
    out.put("wire.decode_alloc_mb", "MB", alloc_mb("wire.decode"));
    out.put("wire.bytes_in", "B", c.bytes_in as f64);
    out.put("wire.bytes_copied", "B", c.decode_bytes_copied as f64);
    out.put(
        "wire.mb_per_s",
        "MB/s",
        if decode_ms > 0.0 {
            c.bytes_in as f64 / MB / (decode_ms / 1e3)
        } else {
            0.0
        },
    );
    out.put("wire.live_mb_after", "MB", live_after("wire.decode"));
    // Encoder cost and the Orochi-JS advice size (Fig. 8's ratio).
    let owned = adapter::serve_unencoded(&full.inputs, false);
    let mut encode = Vec::new();
    repeat_for(seconds * 0.03, 2, 5, || {
        let (bytes, s) = calib::timed(|| adapter::encode(&owned));
        tally.check(bytes.len() as u64 == full.advice_bytes, || {
            format!(
                "encoder: {} bytes, {} at set-up",
                bytes.len(),
                full.advice_bytes
            )
        });
        encode.push(s);
    });
    drop(owned);
    out.put("wire.encode_ms", "ms", cal_median(&encode));
    out.put(
        "wire.scale_exp",
        "exp",
        scale_exp(t_full.bytes as f64, t_quarter.bytes as f64),
    );
    let orochi_bytes = adapter::encode(&adapter::serve_unencoded(&full.inputs, true));
    out.put(
        "wire.orochi_bytes_x",
        "x",
        orochi_bytes.len() as f64 / full.advice_bytes.max(1) as f64,
    );

    // advice_ref
    out.put("advice_ref.build_ms", "ms", t_full.span("advice_ref.build"));
    out.put(
        "advice_ref.alloc_events",
        "count",
        events("advice_ref.build"),
    );
    out.put("advice_ref.alloc_mb", "MB", alloc_mb("advice_ref.build"));
    out.put(
        "advice_ref.interner_bytes_copied",
        "B",
        c.interner_bytes_copied as f64,
    );
    out.put(
        "advice_ref.live_mb_after",
        "MB",
        live_after("advice_ref.build"),
    );
    out.put("advice_ref.scale_exp", "exp", exp("advice_ref.build"));

    // preprocess
    out.put("preprocess.ms", "ms", t_full.span("preprocess.staged"));
    out.put(
        "preprocess.alloc_events",
        "count",
        events("preprocess.staged"),
    );
    out.put("preprocess.alloc_mb", "MB", alloc_mb("preprocess.staged"));
    out.put(
        "preprocess.op_map_entries",
        "count",
        c.op_map_entries as f64,
    );
    out.put(
        "preprocess.deferred_edges",
        "count",
        c.deferred_edges as f64,
    );
    out.put(
        "preprocess.live_mb_after",
        "MB",
        live_after("preprocess.staged"),
    );
    out.put("preprocess.scale_exp", "exp", exp("preprocess.staged"));

    // reexec: self time is the call's span minus the edge merge that ran
    // inside it and the state merge the program reported.
    let group_replay_ms = median(&t_full.group_replay);
    out.put("reexec.self_ms", "ms", median(&t_full.reexec_self));
    out.put("reexec.group_replay_ms", "ms", group_replay_ms);
    out.put(
        "reexec.alloc_events",
        "count",
        events("reexec.run_pipelined") - events("graph.edge_merge"),
    );
    out.put(
        "reexec.alloc_mb",
        "MB",
        alloc_mb("reexec.run_pipelined") - alloc_mb("graph.edge_merge"),
    );
    out.put("reexec.groups", "count", fp.groups as f64);
    out.put("reexec.fuel", "count", fp.fuel as f64);
    out.put(
        "reexec.ns_per_fuel",
        "ns",
        group_replay_ms * 1e6 / (fp.fuel.max(1) as f64),
    );
    out.put("reexec.uniform_ops", "count", c.uniform_ops as f64);
    out.put("reexec.expanded_ops", "count", c.expanded_ops as f64);
    out.put(
        "reexec.uniform_ratio",
        "ratio",
        c.uniform_ops as f64 / ((c.uniform_ops + c.expanded_ops).max(1) as f64),
    );
    out.put(
        "reexec.par_group_replay_ms",
        "ms",
        median(&par_group_replay),
    );
    out.put(
        "reexec.live_mb_after",
        "MB",
        live_after("reexec.run_pipelined"),
    );
    out.put(
        "reexec.scale_exp",
        "exp",
        scale_exp(median(&t_full.reexec_self), median(&t_quarter.reexec_self)),
    );

    // vars
    let vars_ms = |t: &Traced| t.span("vars.state_merge") + t.span("vars.edge_embed");
    out.put("vars.state_merge_ms", "ms", t_full.span("vars.state_merge"));
    out.put("vars.edge_embed_ms", "ms", t_full.span("vars.edge_embed"));
    out.put("vars.alloc_events", "count", events("vars.edge_embed"));
    out.put("vars.dict_feeds", "count", c.dict_feeds as f64);
    out.put("vars.logged_reads", "count", c.logged_reads as f64);
    out.put("vars.live_mb_after", "MB", live_after("vars.edge_embed"));
    out.put(
        "vars.scale_exp",
        "exp",
        scale_exp(vars_ms(&t_full), vars_ms(&t_quarter)),
    );

    // graph
    let graph_ms = |t: &Traced| t.span("graph.edge_merge") + t.span("graph.cycle_check");
    out.put("graph.edge_merge_ms", "ms", t_full.span("graph.edge_merge"));
    out.put(
        "graph.edge_merge_alloc_events",
        "count",
        events("graph.edge_merge"),
    );
    out.put("graph.nodes", "count", fp.nodes as f64);
    out.put("graph.edges", "count", fp.edges as f64);
    out.put(
        "graph.cycle_check_ms",
        "ms",
        t_full.span("graph.cycle_check"),
    );
    out.put(
        "graph.cycle_check_visits",
        "count",
        c.cycle_check_visits as f64,
    );
    out.put(
        "graph.scale_exp",
        "exp",
        scale_exp(graph_ms(&t_full), graph_ms(&t_quarter)),
    );

    // teardown
    out.put("teardown.ms", "ms", t_full.span("teardown.drop"));
    out.put("teardown.scale_exp", "exp", exp("teardown.drop"));

    // collector / kem: the instrumented against the unmodified server
    // (Fig. 6), interleaved.
    let (mut instrumented, mut unmodified) = (Vec::new(), Vec::new());
    repeat_for(seconds * 0.12, 2, 7, || {
        let ((_, bytes), s) = calib::timed(|| adapter::serve(&full.inputs));
        tally.check(bytes.len() as u64 == full.advice_bytes, || {
            "instrumented server produced different advice".to_string()
        });
        instrumented.push(s);
        let ((), s) = calib::timed(|| adapter::serve_unmodified(&full.inputs));
        unmodified.push(s);
    });
    let (server_ms, unmodified_ms) = (cal_median(&instrumented), cal_median(&unmodified));
    out.put("collector.server_ms", "ms", server_ms);
    out.put("kem.unmodified_server_ms", "ms", unmodified_ms);
    out.put("collector.overhead_x", "x", server_ms / unmodified_ms);

    // mmap: the same audit with `advice_mmap = true`.
    let mapped = AuditMode {
        mmap: true,
        ..AuditMode::threads(1)
    };
    let mut mmap = Vec::new();
    repeat_for(seconds * 0.04, 2, 5, || {
        let (v, s) = calib::timed(|| full.audit(mapped));
        tally.honest(&v, full.fingerprint, "mmap audit");
        mmap.push(s);
    });
    out.put("mmap.audit_ms", "ms", cal_median(&mmap));
    out.put(
        "mmap.peak_rss_mb",
        "MB",
        full.child_peak_rss_kb(w, true, tally)
            .map_or(0.0, |kb| kb as f64 * 1024.0 / MB),
    );

    // obs: interleaved noop/enabled pairs; the overhead is the median of
    // the pairs' own ratios, so drift between pairs cancels.
    let observed = AuditMode {
        obs: true,
        ..AuditMode::threads(1)
    };
    let mut ratios = Vec::new();
    repeat_for(seconds * 0.12, 3, 10, || {
        let (v, noop) = calib::timed(|| full.audit(AuditMode::threads(1)));
        tally.honest(&v, full.fingerprint, "audit, noop obs");
        let (v, enabled) = calib::timed(|| full.audit(observed));
        tally.honest(&v, full.fingerprint, "audit, enabled obs");
        ratios.push(enabled.raw_ms / noop.raw_ms);
    });
    out.put(
        "obs.enabled_overhead_pct",
        "%",
        (median(&ratios) - 1.0) * 100.0,
    );

    // baselines (Fig. 7): sequential re-execution and the Orochi-JS
    // audit of the same trace.
    let (mut sequential, mut orochi) = (Vec::new(), Vec::new());
    repeat_for(seconds * 0.10, 2, 5, || {
        let (ran, s) = calib::timed(|| adapter::sequential_reexecute(&full.inputs, &full.trace));
        tally.check(ran, || "sequential re-execution failed".to_string());
        sequential.push(s);
        let (v, s) =
            calib::timed(|| adapter::audit_bytes(&full.inputs, &full.trace, &orochi_bytes));
        tally.check(matches!(v, Verdict::Accept(_)), || {
            format!("Orochi-JS audit of honest advice: {v:?}")
        });
        orochi.push(s);
    });
    drop(orochi_bytes);
    let audit_ms = t_full.untraced_ms();
    out.put("baselines.sequential_ms", "ms", cal_median(&sequential));
    out.put("baselines.orochi_audit_ms", "ms", cal_median(&orochi));
    out.put(
        "verifier.vs_sequential_x",
        "x",
        audit_ms / cal_median(&sequential),
    );

    // reject: each corpus variant's time to REJECT on the deployed path
    // and, from the traced composition, the phase that rejected.
    let tampered = full.write_tampered(workdir);
    let mut rejects = Vec::new();
    for (i, path) in tampered.iter().enumerate() {
        let name = adapter::tamper_name(i);
        let Some(path) = path else {
            out.put(&format!("reject.{name}_ms"), "ms", 0.0);
            out.put(&format!("reject.{name}_phase"), "phase", -1.0);
            rejects.push(None);
            continue;
        };
        let mut samples = Vec::new();
        let mut kind = "";
        for _ in 0..3 {
            let (v, s) = calib::timed(|| {
                adapter::audit_file(&full.inputs, &full.trace, path, AuditMode::threads(1))
            });
            tally.tampered(&v, &name);
            if let Verdict::Reject { kind: k } = v {
                kind = k;
            }
            samples.push(s);
        }
        let op = adapter::audit_file_traced(&full.inputs, &full.trace, path, 1, &mut rec);
        tally.check(op.verdict == Verdict::Reject { kind }, || {
            format!("{name}: traced {:?}, untraced REJECT {kind}", op.verdict)
        });
        let phase = op.rejected_in.unwrap_or(Phase::Decode);
        out.put(&format!("reject.{name}_ms"), "ms", cal_median(&samples));
        out.put(
            &format!("reject.{name}_phase"),
            "phase",
            op.rejected_in.map_or(-1.0, |p| p as i32 as f64),
        );
        rejects.push(Some((kind, phase)));
        let _ = std::fs::remove_file(path);
    }

    // verifier / harness: the whole, and whether the parts sum to it.
    // Reconciled pair by pair, in raw time: a traced and an untraced
    // audit run back to back see the same machine, so the median of the
    // pairs' own ratios needs no calibration and is far steadier than
    // the ratio of two calibrated medians (README, "Reconciliation").
    let paired = |traced_raw: &[f64]| {
        let ratios: Vec<f64> = traced_raw
            .iter()
            .zip(&t_full.untraced)
            .map(|(t, u)| t / u.raw_ms)
            .collect();
        (median(&ratios) - 1.0) * 100.0
    };
    let layers_sum = median(&t_full.layers_sum);
    let reconcile_pct = paired(&t_full.layers_sum_raw);
    out.put("verifier.layers_sum_ms", "ms", layers_sum);
    out.put("verifier.untraced_ms", "ms", median(&t_full.unspanned));
    out.put("verifier.reconcile_pct", "%", reconcile_pct);
    out.put(
        "verifier.trace_overhead_pct",
        "%",
        paired(&t_full.total_raw),
    );
    out.put(
        "verifier.par_speedup_x",
        "x",
        audit_ms / cal_median(&par_untraced),
    );
    out.put(
        "verifier.scale_exp",
        "exp",
        scale_exp(audit_ms, t_quarter.untraced_ms()),
    );
    let raw: Vec<f64> = t_full.untraced.iter().map(|s| s.raw_ms).collect();
    let cal: Vec<f64> = t_full.untraced.iter().map(Sample::calibrated_ms).collect();
    let kernel: Vec<f64> = t_full.untraced.iter().map(|s| s.cal_ms).collect();
    out.put("harness.audit_raw_ms_p50", "ms", median(&raw));
    out.put("harness.audit_ms_p90", "ms", percentile(&cal, 0.9));
    out.put("harness.cal_ms_p50", "ms", median(&kernel));
    out.put("harness.samples", "count", t_full.untraced.len() as f64);

    let invalid = (reconcile_pct.abs() > RECONCILE_PCT).then(|| {
        let (layer, gap) = t_full
            .gaps
            .iter()
            .filter(|(_, gaps)| !gaps.is_empty())
            .map(|(layer, gaps)| (*layer, median(gaps)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("verifier.audit", 0.0));
        format!(
            "the traced layers sum to {reconcile_pct:+.1} % of the untraced audit, pair by pair \
             (allowed ±{RECONCILE_PCT} %; medians {layers_sum:.2} ms against {audit_ms:.2} ms); \
             the largest unaccounted boundary is {gap:.3} ms before {layer}"
        )
    });

    std::fs::write(spans_out, rec.to_json()).expect("the spans file is writable");
    let _ = std::fs::remove_file(&full.advice_path);
    let _ = std::fs::remove_file(&quarter.advice_path);

    PerLayer {
        metrics: out.0,
        invalid,
        fingerprint: full.fingerprint,
        rejects,
    }
}
