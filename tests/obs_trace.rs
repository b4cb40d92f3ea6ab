//! Telemetry integration: the Chrome `trace_event` exporter emits
//! valid JSON with the expected span set and per-lane monotone
//! timestamps, and the metrics registry is deterministic across
//! worker-thread counts (worker shards are absorbed in ascending group
//! order, the same discipline as the verifier's edge fragments).

use apps::App;
use karousos::{
    audit_encoded_with_obs, run_instrumented_server_encoded, AuditOptions, CollectorMode,
};
use obs::{CounterId, GaugeId, HistogramId, Layer, Obs};
use workload::{Experiment, Mix};

fn wiki_run() -> (
    kem::Program,
    kem::RunOutput,
    Vec<u8>,
    kvstore::IsolationLevel,
) {
    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 3);
    exp.requests = 60;
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    let (out, advice) = run_instrumented_server_encoded(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("wiki app runs");
    (program, out, advice, exp.isolation)
}

#[test]
fn chrome_trace_is_valid_json_with_expected_spans() {
    let (program, out, advice, iso) = wiki_run();
    let obs = Obs::enabled();
    audit_encoded_with_obs(
        &program,
        &out.trace,
        &advice,
        iso,
        AuditOptions::with_threads(4),
        &obs,
    )
    .expect("honest advice must be accepted");

    let snap = obs.snapshot();
    let trace = snap.to_chrome_trace();
    bench::json::parse(&trace).expect("trace export must be valid JSON");
    let layers = [
        Layer::Preprocess,
        Layer::Replay,
        Layer::StateMerge,
        Layer::EdgeEmbed,
        Layer::CycleCheck,
        Layer::Teardown,
    ];
    let spans = layers.iter().map(|l| format!("\"name\":\"{}\"", l.name()));
    let fixed = [
        "\"traceEvents\"",
        "\"displayTimeUnit\"",
        "\"group-replay\"",
        "\"ph\":\"X\"",
    ];
    for needle in spans.chain(fixed.map(String::from)) {
        assert!(trace.contains(&needle), "trace export missing {needle}");
    }

    let metrics = snap.to_json();
    let parsed = bench::json::parse(&metrics).expect("metrics export must be valid JSON");
    assert!(metrics.contains("\"groups_formed\""));
    // After the registry's sections: the final progress heartbeat, the
    // cost ledger and the layer timing.
    let phase = parsed.at("progress/phase").and_then(|v| v.as_str());
    assert_eq!(phase, Some("done"), "{metrics}");
    let progress = |key: &str| parsed.at(&format!("progress/{key}"));
    let total = progress("groups_total").and_then(|v| v.as_f64());
    assert!(total > Some(0.0), "{metrics}");
    assert_eq!(progress("groups_done").and_then(|v| v.as_f64()), total);
    assert_eq!(progress("failed_floor"), Some(&bench::json::Value::Null));
    assert!(metrics.contains("\"first_rid\""), "{metrics}");
    for layer in layers {
        let key = format!("layers/{}_us", layer.name());
        assert!(parsed.at(&key).is_some(), "{key} missing: {metrics}");
    }
}

#[test]
fn overflowing_span_ring_counts_drops_in_metrics() {
    let (program, out, advice, iso) = wiki_run();
    // Two span slots cannot hold the audit's span set; the overflow
    // must be counted, not silently discarded.
    let obs = Obs::with_capacity(2);
    audit_encoded_with_obs(
        &program,
        &out.trace,
        &advice,
        iso,
        AuditOptions::with_threads(4),
        &obs,
    )
    .expect("honest advice must be accepted");
    let snap = obs.snapshot();
    assert!(snap.spans.len() <= 2);
    let dropped = snap.metrics.counter(CounterId::SpansDropped);
    assert!(dropped > 0, "span overflow must surface in SpansDropped");
    // And the exported JSON carries the same number.
    let metrics = snap.to_json();
    assert!(
        metrics.contains(&format!("\"spans_dropped\": {dropped}")),
        "{metrics}"
    );
}

#[test]
fn span_timestamps_are_monotone_per_lane() {
    let (program, out, advice, iso) = wiki_run();
    let obs = Obs::enabled();
    audit_encoded_with_obs(
        &program,
        &out.trace,
        &advice,
        iso,
        AuditOptions::with_threads(4),
        &obs,
    )
    .expect("honest advice must be accepted");

    let snap = obs.snapshot();
    let spans = &snap.spans;
    assert!(!spans.is_empty());
    let mut replay_spans = 0usize;
    let mut last_ts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in spans {
        let prev = last_ts.entry(s.lane).or_insert(0);
        assert!(
            s.ts_us >= *prev,
            "lane {} span {:?} went backwards: {} < {prev}",
            s.lane,
            s.name,
            s.ts_us
        );
        *prev = s.ts_us;
        if s.name == "group-replay" {
            replay_spans += 1;
            assert!(s.args.iter().flatten().any(|(k, _)| *k == "group"));
            assert!(s.args.iter().flatten().any(|(k, _)| *k == "size"));
        }
    }
    let groups = snap.metrics.counter(CounterId::GroupsFormed);
    assert!(groups > 1, "wiki workload should form several groups");
    assert_eq!(replay_spans as u64, groups, "one replay span per group");
}

#[test]
fn metrics_are_deterministic_across_thread_counts() {
    let (program, out, advice, iso) = wiki_run();
    let snapshot = |threads: usize| {
        let obs = Obs::enabled();
        audit_encoded_with_obs(
            &program,
            &out.trace,
            &advice,
            iso,
            AuditOptions::with_threads(threads),
            &obs,
        )
        .expect("honest advice must be accepted");
        obs.snapshot().metrics
    };
    let seq = snapshot(1);
    let par = snapshot(4);
    for c in CounterId::ALL {
        assert_eq!(
            seq.counter(c),
            par.counter(c),
            "counter {} must not depend on the worker count",
            c.name()
        );
    }
    // Timing histograms legitimately differ; the structural ones must
    // not.
    for h in [HistogramId::GroupSize, HistogramId::VarLogLen] {
        assert_eq!(seq.histogram(h), par.histogram(h), "histogram {}", h.name());
    }
    // WorkerThreads is *expected* to differ; the graph-shape gauges
    // must not.
    assert_eq!(
        seq.gauge_value(GaugeId::GraphNodes),
        par.gauge_value(GaugeId::GraphNodes)
    );
    assert_eq!(
        seq.gauge_value(GaugeId::GraphEdges),
        par.gauge_value(GaugeId::GraphEdges)
    );
    assert_eq!(seq.gauge_value(GaugeId::WorkerThreads), Some(1));
    assert_eq!(par.gauge_value(GaugeId::WorkerThreads), Some(4));

    // The per-kind edge counters decompose the edge gauge exactly.
    let edge_sum: u64 = [
        CounterId::EdgesTime,
        CounterId::EdgesProgram,
        CounterId::EdgesBoundary,
        CounterId::EdgesActivation,
        CounterId::EdgesHandlerLog,
        CounterId::EdgesExternalWr,
        CounterId::EdgesVarWr,
        CounterId::EdgesVarWw,
        CounterId::EdgesVarRw,
    ]
    .iter()
    .map(|&c| seq.counter(c))
    .sum();
    assert_eq!(Some(edge_sum), seq.gauge_value(GaugeId::GraphEdges));
}
