//! Known answers for seed 1 at full size, committed under `expected/`:
//! the honest audit's fingerprint on every instance of the run, and for
//! the traced instance each tampered variant's REJECT kind and phase.
//! Every run checks honest → ACCEPT and tampered → REJECT at any seed;
//! at seed 1 the verdicts must also be *these*, so a change that keeps
//! accepting but replays different groups, burns different fuel or
//! builds a different graph is caught as a failed operation.
//!
//! Regenerate after changing a workload's size or the corpus:
//! `karousos-benchmark expected <workload> > benchmark/expected/<workload>.seed1.json`.

use std::path::Path;

use crate::adapter::{self, Fingerprint};
use crate::json::{self, quote, Value};
use crate::measure::{self, EndToEnd, Tally};
use crate::traced::{self, PerLayer};
use crate::workloads::Workload;

const SEED: u64 = 1;

fn committed(w: &Workload) -> &'static str {
    match w.name {
        "wiki-mix" => include_str!("../expected/wiki-mix.seed1.json"),
        "motd-write-heavy" => include_str!("../expected/motd-write-heavy.seed1.json"),
        "stacks-read-heavy" => include_str!("../expected/stacks-read-heavy.seed1.json"),
        "stacks-write-heavy" => include_str!("../expected/stacks-write-heavy.seed1.json"),
        _ => "{}",
    }
}

/// The committed answers, if this run is the one they were taken on.
fn answers(w: &Workload, seed: u64, scale: f64) -> Option<Value> {
    if seed != SEED || scale != 1.0 {
        return None;
    }
    Some(json::parse(committed(w)).unwrap_or(Value::Null))
}

fn fingerprint(v: &Value) -> Option<Fingerprint> {
    Some(Fingerprint {
        groups: v.get("groups")?.as_u64()?,
        fuel: v.get("fuel")?.as_u64()?,
        nodes: v.get("nodes")?.as_u64()?,
        edges: v.get("edges")?.as_u64()?,
    })
}

fn committed_fingerprint(answers: &Value, instance: usize) -> Option<Fingerprint> {
    fingerprint(answers.get("fingerprints")?.as_arr().get(instance)?)
}

pub fn check_end_to_end(w: &Workload, seed: u64, scale: f64, e2e: &EndToEnd, tally: &mut Tally) {
    let Some(answers) = answers(w, seed, scale) else {
        return;
    };
    for (i, got) in e2e.fingerprints.iter().enumerate() {
        let want = committed_fingerprint(&answers, i);
        tally.check(want.is_some() && *got == want, || {
            format!("instance {i}: fingerprint {got:?}, committed {want:?}")
        });
    }
}

pub fn check_traced(w: &Workload, seed: u64, scale: f64, layers: &PerLayer, tally: &mut Tally) {
    let Some(answers) = answers(w, seed, scale) else {
        return;
    };
    let want = committed_fingerprint(&answers, 0);
    tally.check(want.is_some() && layers.fingerprint == want, || {
        format!(
            "traced instance: fingerprint {:?}, committed {want:?}",
            layers.fingerprint
        )
    });
    let tampered = answers.get("tampered").map_or(&[][..], Value::as_arr);
    for (i, got) in layers.rejects.iter().enumerate() {
        let name = adapter::tamper_name(i);
        let entry = tampered
            .iter()
            .find(|t| t.get("variant").and_then(Value::as_str) == Some(&name));
        let text = |key: &str| entry.and_then(|e| e.get(key)).and_then(Value::as_str);
        let ok = match got {
            None => text("verdict") == Some("inapplicable"),
            Some((kind, phase)) => {
                text("verdict") == Some("REJECT")
                    && text("kind") == Some(kind)
                    && text("phase") == Some(phase.name())
            }
        };
        tally.check(ok, || {
            format!(
                "{name}: got {got:?}, committed {:?} {:?} in {:?}",
                text("verdict"),
                text("kind"),
                text("phase")
            )
        });
    }
}

/// The known-answers file for `w`, from a minimal run at seed 1.
pub fn generate(w: &Workload, workdir: &Path) -> String {
    let mut tally = Tally::default();
    let e2e = measure::end_to_end(w, SEED, 0.001, 1.0, workdir, &mut tally);
    let spans = workdir.join("spans.json");
    let layers = traced::per_layer(w, SEED, 0.001, 1.0, workdir, &spans, &mut tally);
    assert_eq!(
        tally.failed, 0,
        "known answers from a failing run: {:?}",
        tally.failures
    );
    let fingerprints: Vec<String> = e2e
        .fingerprints
        .iter()
        .map(|fp| {
            let fp = fp.expect("a run with no failure accepted every instance");
            format!(
                "    {{\"groups\": {}, \"fuel\": {}, \"nodes\": {}, \"edges\": {}}}",
                fp.groups, fp.fuel, fp.nodes, fp.edges
            )
        })
        .collect();
    let tampered: Vec<String> = layers
        .rejects
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let variant = quote(&adapter::tamper_name(i));
            match r {
                None => format!("    {{\"variant\": {variant}, \"verdict\": \"inapplicable\"}}"),
                Some((kind, phase)) => format!(
                    "    {{\"variant\": {variant}, \"verdict\": \"REJECT\", \"kind\": {}, \
                     \"phase\": {}}}",
                    quote(kind),
                    quote(phase.name())
                ),
            }
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {SEED},\n  \"requests\": {},\n  \
         \"instances\": {},\n  \"fingerprints\": [\n{}\n  ],\n  \"tampered\": [\n{}\n  ]\n}}\n",
        quote(w.name),
        w.requests,
        measure::INSTANCES,
        fingerprints.join(",\n"),
        tampered.join(",\n"),
    )
}
