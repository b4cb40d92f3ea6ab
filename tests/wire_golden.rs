//! Golden bytes for the advice wire format.
//!
//! `tests/fixtures/motd_write_heavy_12.advice` is what this tree's
//! collector and encoder produce for a 12-request MOTD write-heavy run
//! (seed 5, concurrency 4): tags, handler logs, the value pool, the
//! variable logs that refer into it, and the rest. The encoder is a
//! pure function of the advice and the collector of its seed, so the
//! bytes are reproduced exactly — and a change to the wire format
//! cannot be an accident: this test fails until the fixture is
//! replaced, by hand, with the `motd_write_heavy_12.actual.advice` it
//! writes to `CARGO_TARGET_TMPDIR` (the `verdict_pins` flow).
//!
//! The node budget's charge is pinned beside it: a reference into the
//! pool is charged what the container it names would have declared
//! inline, so honest advice costs what it cost before there was a pool.

use apps::App;
use karousos::{
    audit_encoded, decode_advice, decode_advice_view_bounded, encode_advice,
    run_instrumented_server, Advice, BoundedDecodeError, CollectorMode,
};
use workload::{Experiment, Mix};

fn honest(app: App, mix: Mix, requests: usize) -> (kem::Program, Experiment, kem::Trace, Advice) {
    let mut exp = Experiment::paper_default(app, mix, 4, 5);
    exp.requests = requests;
    let program = app.program();
    let (run, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .expect("apps run cleanly");
    (program, exp, run.trace, advice)
}

#[test]
fn motd_advice_encodes_to_the_committed_bytes() {
    let golden: &[u8] = include_bytes!("fixtures/motd_write_heavy_12.advice");
    let (program, exp, trace, advice) = honest(App::Motd, Mix::WriteHeavy, 12);
    let bytes = encode_advice(&advice);
    if bytes != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("motd_write_heavy_12.actual.advice");
        std::fs::write(&path, &bytes).expect("the actual bytes are writable");
        let at = bytes
            .iter()
            .zip(golden)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(golden.len()));
        panic!(
            "the wire format moved: {} bytes encoded, {} committed, first difference at byte \
             {at}; actual bytes written to {}",
            bytes.len(),
            golden.len(),
            path.display()
        );
    }
    // The committed bytes are advice: they decode to what was encoded,
    // re-encode to themselves, and the audit accepts them.
    assert_eq!(decode_advice(golden).expect("the fixture decodes"), advice);
    let (view, stats) = decode_advice_view_bounded(golden, u64::MAX).expect("the fixture decodes");
    assert_eq!(view.encode(), golden);
    assert!(stats.pool_nodes > 0 && stats.pool_refs > stats.pool_nodes);
    audit_encoded(&program, &trace, golden, exp.isolation).expect("the fixture is accepted");
}

/// `decode_max_nodes` means what it meant before the pool. The numbers
/// are the smallest budgets under which the parent commit (PR 17, flat
/// values) decoded its own encoding of these same runs, found there by
/// bisection.
#[test]
fn honest_advice_is_charged_what_its_flat_form_was() {
    for (app, mix, requests, charge) in [
        (App::Motd, Mix::Mixed, 12, 214),
        (App::Motd, Mix::Mixed, 100, 6599),
        (App::Wiki, Mix::Wiki, 12, 2195),
        (App::Wiki, Mix::Wiki, 100, 20497),
        (App::Stacks, Mix::Mixed, 12, 593),
        (App::Stacks, Mix::Mixed, 100, 5392),
    ] {
        let (_, _, _, advice) = honest(app, mix, requests);
        let bytes = encode_advice(&advice);
        let (_, stats) = decode_advice_view_bounded(&bytes, charge).expect("within budget");
        assert_eq!(stats.logical_nodes, charge, "{} x {requests}", app.name());
        assert!(stats.wire_nodes <= charge);
        assert!(matches!(
            decode_advice_view_bounded(&bytes, charge - 1),
            Err(BoundedDecodeError::NodesExhausted { .. })
        ));
    }
}
