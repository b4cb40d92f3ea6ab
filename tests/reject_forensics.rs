//! REJECT forensics: a seeded fault-injection mutation that induces a
//! cycle in the execution graph must produce an [`AuditDiagnostics`]
//! whose minimal cycle names the mutated operations, with every edge
//! carrying its kind and a rendered provenance line.

use apps::App;
use karousos::{
    audit_encoded, audit_forensic, decode_advice, encode_advice, run_instrumented_server,
    AuditOptions, CollectorMode, EdgeKind, Limits, Mutator, RejectReason,
};
use obs::Obs;
use workload::{Experiment, Mix};

fn honest() -> (
    kem::Program,
    kem::RunOutput,
    karousos::Advice,
    kvstore::IsolationLevel,
) {
    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 6, 11);
    exp.requests = 40;
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    let (out, advice) = run_instrumented_server(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("wiki app runs");
    (program, out, advice, exp.isolation)
}

/// A handler with several event operations (register / emit / check /
/// unregister), so its handler log has adjacent same-handler entries —
/// the coordinates [`Mutator::ReorderHandlerLog`] targets. The
/// evaluation apps route their event ops through distinct handlers, so
/// their logs give the mutator nothing to swap.
fn eventful() -> (
    kem::Program,
    kem::RunOutput,
    karousos::Advice,
    kvstore::IsolationLevel,
) {
    use kem::dsl;
    use kem::Value;
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("cfg", Value::int(1), true);
    b.function(
        "handle",
        vec![
            dsl::register("ping", "on_ping"),
            dsl::emit("ping", dsl::lit(1)),
            dsl::listener_count("n", "ping"),
            dsl::unregister("ping", "on_ping"),
            dsl::respond(dsl::sread("cfg")),
        ],
    );
    b.function("on_ping", vec![dsl::let_("z", dsl::payload())]);
    b.request_handler("handle");
    let program = b.build().expect("eventful program builds");
    let cfg = kem::ServerConfig::default();
    let inputs = vec![Value::Null; 4];
    let (out, advice) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
        .expect("eventful program runs");
    (program, out, advice, cfg.isolation)
}

/// The two handler-log entries the reorder mutation swapped, found by
/// diffing the mutated logs against the honest ones.
fn swapped_entries(
    honest: &karousos::Advice,
    mutated: &karousos::Advice,
) -> (
    kem::RequestId,
    karousos::HandlerLogEntry,
    karousos::HandlerLogEntry,
) {
    for (rid, log) in &mutated.handler_logs {
        let base = &honest.handler_logs[rid];
        if let Some(i) = (0..log.len()).find(|&i| log[i] != base[i]) {
            assert_eq!(log[i], base[i + 1], "mutation must be an adjacent swap");
            assert_eq!(log[i + 1], base[i]);
            return (*rid, log[i].clone(), log[i + 1].clone());
        }
    }
    panic!("mutated advice does not differ from honest advice");
}

#[test]
fn cycle_forensics_name_the_mutated_operations() {
    let (program, out, advice, iso) = eventful();
    // Deterministic scan: the first seed whose reorder yields CycleInG.
    // (Other seeds may pick swaps that a different check rejects first,
    // or no eligible swap at all.)
    let (seed, mutation) = (0..200u64)
        .find_map(|seed| {
            let m = Mutator::ReorderHandlerLog.apply(&advice, seed)?;
            match audit_encoded(&program, &out.trace, &m.bytes, iso) {
                Err(RejectReason::CycleInG) => Some((seed, m)),
                _ => None,
            }
        })
        .expect("some reorder seed must induce a cycle");
    let failure = audit_forensic(
        &program,
        &out.trace,
        &mutation.bytes,
        iso,
        AuditOptions::default(),
        &Obs::noop(),
    )
    .expect_err("the cyclic advice must be rejected");

    // The forensic entry point agrees with the plain one.
    assert_eq!(failure.reason, RejectReason::CycleInG);
    let d = &failure.diagnostics;
    assert_eq!(d.kind, "CycleInG");
    assert_eq!(d.phase, obs::Layer::CycleCheck);

    let cycle = d
        .cycle
        .as_ref()
        .expect("CycleInG must carry a cycle report");
    assert!(cycle.nodes.len() >= 2, "a cycle has at least two nodes");
    assert_eq!(cycle.edges.len(), cycle.nodes.len(), "one edge per hop");
    for e in &cycle.edges {
        assert!(
            !e.provenance.is_empty(),
            "edge {:?} lacks provenance",
            e.kind
        );
        assert!(
            e.provenance.contains(&e.from) || e.provenance.contains(&e.to),
            "provenance must name the inducing operations: {:?}",
            e.provenance
        );
    }
    assert!(
        cycle.edges.iter().any(|e| e.kind == EdgeKind::HandlerLog),
        "the reordered handler log must appear as a log-precedence edge"
    );

    // The report names the swapped operations (seed {seed} for
    // reproducibility in failure output).
    let mutated = decode_advice(&mutation.bytes).expect("mutated advice re-decodes");
    let (rid, e1, e2) = swapped_entries(&advice, &mutated);
    for entry in [&e1, &e2] {
        let label = format!("{rid} {} op{}", entry.hid, entry.opnum);
        assert!(
            cycle.nodes.contains(&label),
            "seed {seed}: minimal cycle {:?} must pass through mutated op {label:?} \
             ({})",
            cycle.nodes,
            mutation.description
        );
    }

    // The serialized form round-trips the same structure.
    let json = d.to_json();
    assert!(json.contains("\"kind\": \"CycleInG\""));
    assert!(json.contains("\"cycle\": {"));
    assert!(json.contains("handler-log"));

    // Determinism: the same mutation yields the same minimal cycle.
    let again = audit_forensic(
        &program,
        &out.trace,
        &mutation.bytes,
        iso,
        AuditOptions::default(),
        &Obs::noop(),
    )
    .expect_err("still rejected");
    assert_eq!(again.diagnostics, failure.diagnostics);
}

#[test]
fn non_cycle_rejections_carry_diagnostics_without_a_cycle() {
    let (program, out, advice, iso) = honest();
    let m = Mutator::CorruptOpcount
        .apply(&advice, 1)
        .expect("wiki advice has opcounts to corrupt");
    let failure = audit_forensic(
        &program,
        &out.trace,
        &m.bytes,
        iso,
        AuditOptions::default(),
        &Obs::noop(),
    )
    .expect_err("corrupted opcounts must be rejected");
    assert!(failure.diagnostics.cycle.is_none());
    assert_eq!(failure.diagnostics.kind, failure.reason.kind());
    assert!(failure.to_string().contains("audit rejected"));
}

/// Forensics start at the bytes, so a REJECT the decoder issues — a
/// truncated buffer, one past `decode_max_bytes` — carries diagnostics
/// too: found in the decode layer, and no cycle.
#[test]
fn decode_rejections_carry_diagnostics() {
    let (program, out, advice, iso) = honest();
    let bytes = encode_advice(&advice);
    let few_bytes = Limits {
        decode_max_bytes: 16,
        ..Limits::default()
    };
    for (bytes, limits, kind) in [
        (
            &bytes[..bytes.len() / 2],
            Limits::default(),
            "MalformedAdvice",
        ),
        (&bytes[..], few_bytes, "ResourceExhausted"),
    ] {
        let opts = AuditOptions {
            limits,
            ..AuditOptions::default()
        };
        let failure = audit_forensic(&program, &out.trace, bytes, iso, opts, &Obs::noop())
            .expect_err("the decoder must reject");
        assert_eq!(failure.diagnostics.kind, kind);
        assert_eq!(failure.diagnostics.phase, obs::Layer::Decode);
        assert!(failure.diagnostics.cycle.is_none());
    }
}
