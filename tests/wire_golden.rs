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
//!
//! Stacks and wiki have many handlers per request, so their tags are
//! where attribution of branch bits to activations shows; their
//! encodings are pinned as 64-bit digests in both collector modes, and
//! so is MOTD's, whose variable logs are most of its advice.
//!
//! The server has two entry points, the owned advice and the bytes it
//! ships; they must be the same advice, byte for byte.

use apps::App;
use karousos::{
    decode_advice, decode_advice_view_bounded, encode_advice, run_instrumented_server,
    run_instrumented_server_encoded, Advice, AdviceViewExt, Auditor, BoundedDecodeError,
    CollectorMode,
};
use workload::{Experiment, Mix};

fn honest(
    app: App,
    mix: Mix,
    requests: usize,
    mode: CollectorMode,
) -> (kem::Program, Experiment, kem::Trace, Advice) {
    let mut exp = Experiment::paper_default(app, mix, 4, 5);
    exp.requests = requests;
    let program = app.program();
    let (run, advice) =
        run_instrumented_server(&program, &exp.inputs(), &exp.server_config(), mode)
            .expect("apps run cleanly");
    (program, exp, run.trace, advice)
}

#[test]
fn motd_advice_encodes_to_the_committed_bytes() {
    let golden: &[u8] = include_bytes!("fixtures/motd_write_heavy_12.advice");
    let (program, exp, trace, advice) =
        honest(App::Motd, Mix::WriteHeavy, 12, CollectorMode::Karousos);
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
    let audited = Auditor::default().audit(&program, &trace, golden, exp.isolation);
    audited.expect("the fixture is accepted");
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
        let (_, _, _, advice) = honest(app, mix, requests, CollectorMode::Karousos);
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

/// The encoded advice of 40-request stacks, wiki and MOTD write-heavy
/// runs, as FNV-1a digests, under both collectors. Orochi-JS's sequence
/// tags take the other branch of `Collector::finish`, so both tag
/// schemes are pinned; its log-everything variable logs are MOTD's
/// largest section.
#[test]
fn stacks_and_wiki_advice_bytes_are_pinned() {
    let pins = [
        (
            App::Stacks,
            Mix::Mixed,
            CollectorMode::Karousos,
            0x6a73_d1a3_8d56_2fb7,
        ),
        (
            App::Stacks,
            Mix::Mixed,
            CollectorMode::OrochiJs,
            0xfaa2_c8ff_c93d_f32b,
        ),
        (
            App::Wiki,
            Mix::Wiki,
            CollectorMode::Karousos,
            0x146c_554e_6566_ec09,
        ),
        (
            App::Wiki,
            Mix::Wiki,
            CollectorMode::OrochiJs,
            0x6960_510d_6a8c_7178,
        ),
        (
            App::Motd,
            Mix::WriteHeavy,
            CollectorMode::Karousos,
            0xd9d1_c589_40ff_adca,
        ),
        (
            App::Motd,
            Mix::WriteHeavy,
            CollectorMode::OrochiJs,
            0x0dd5_4c18_0da8_0162,
        ),
    ];
    let actual: Vec<u64> = pins
        .iter()
        .map(|&(app, mix, mode, _)| {
            let (_, _, _, advice) = honest(app, mix, 40, mode);
            let mut h = kem::Fnv::new();
            h.write(&encode_advice(&advice));
            h.finish()
        })
        .collect();
    if pins.iter().zip(&actual).any(|(pin, &got)| pin.3 != got) {
        let table: String = pins
            .iter()
            .zip(&actual)
            .map(|(&(app, mix, mode, want), got)| {
                format!(
                    "\n  {} {mix:?} {mode:?}: pinned {want:#018x}, actual {got:#018x}",
                    app.name()
                )
            })
            .collect();
        panic!("the advice bytes moved:{table}");
    }
}

/// `run_instrumented_server_encoded` ships exactly the encoding of the
/// advice `run_instrumented_server` returns, and those bytes decode back
/// to it, on every app under both collectors.
#[test]
fn the_server_entry_points_agree() {
    for (app, mix) in [
        (App::Motd, Mix::WriteHeavy),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        for mode in [CollectorMode::Karousos, CollectorMode::OrochiJs] {
            let mut exp = Experiment::paper_default(app, mix, 4, 5);
            exp.requests = 40;
            let program = app.program();
            let (inputs, cfg) = (exp.inputs(), exp.server_config());
            let (run, advice) =
                run_instrumented_server(&program, &inputs, &cfg, mode).expect("apps run cleanly");
            let (run_encoded, bytes) =
                run_instrumented_server_encoded(&program, &inputs, &cfg, mode)
                    .expect("apps run cleanly");
            let what = format!("{} {mix:?} {mode:?}", app.name());
            assert_eq!(run_encoded.trace, run.trace, "{what}: the same run");
            assert!(bytes == encode_advice(&advice), "{what}: the same bytes");
            assert_eq!(
                decode_advice(&bytes).expect("honest advice decodes"),
                advice,
                "{what}: the bytes are the advice"
            );
        }
    }
}
