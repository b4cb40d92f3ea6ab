//! The end-to-end run: tracing and allocation counting off, the
//! deployed path (advice file on disk → verdict) timed from outside.
//!
//! Closed loop, one client: the benchmark process issues one audit at a
//! time and waits for its verdict before the next.
//!
//! A run measures `INSTANCES` independent input instances drawn from
//! the seed, one after another, and reports the mean over instances of
//! each per-instance statistic. One instance is one draw of the
//! scheduler's interleaving; how requests fall into re-execution groups
//! — and so replay fuel — differs by 10–15 % between draws, so a
//! single-instance run would measure the draw, not the program (README,
//! "Inputs").

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::adapter::{self, AuditMode, Fingerprint, Inputs, Trace, Verdict};
use crate::alloc::{self, Counted};
use crate::calib::{self, Sample};
use crate::stats::{mean, median};
use crate::workloads::Workload;

pub const INSTANCES: usize = 6;
pub const WARM_UPS: usize = 3;

/// Shares of one instance's time budget. The remainder is the counted
/// audit and the child process, which run once each.
const SHARE_SEQ: f64 = 0.34;
const SHARE_PAR: f64 = 0.22;
const SHARE_REJECT: f64 = 0.18;
const SHARE_COLLECT: f64 = 0.16;

/// The sub-seed of instance `i` of a run: no two (seed, instance) pairs
/// share one.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INSTANCES as u64).wrapping_add(i as u64)
}

/// Worker threads of the parallel audit.
pub fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

/// Operations attempted and failed. An operation fails when its verdict
/// differs from the known answer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// An honest audit must ACCEPT with the instance's fingerprint.
    pub fn honest(&mut self, verdict: &Verdict, expected: Option<Fingerprint>, what: &str) {
        let ok = matches!((verdict, expected), (Verdict::Accept(fp), Some(want)) if *fp == want);
        self.check(ok, || {
            format!("{what}: {verdict:?}, expected ACCEPT {expected:?}")
        });
    }

    /// A tampered audit must REJECT, and not by the verifier's own fault.
    pub fn tampered(&mut self, verdict: &Verdict, what: &str) {
        let ok = matches!(verdict, Verdict::Reject { .. }) && !verdict.is_internal_fault();
        self.check(ok, || format!("{what}: {verdict:?}, expected REJECT"));
    }
}

/// Runs `op` until `budget_s` has passed, at least `min` and at most
/// `max` times.
pub fn repeat_for(budget_s: f64, min: usize, max: usize, mut op: impl FnMut()) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < max && (n < min || started.elapsed().as_secs_f64() < budget_s) {
        op();
        n += 1;
    }
    n
}

/// One input instance, set up: inputs generated, instrumented server
/// run, advice encoded and on disk, audit warmed up.
pub struct Instance {
    pub seed: u64,
    pub inputs: Inputs,
    pub trace: Trace,
    pub advice_path: PathBuf,
    pub advice_bytes: u64,
    /// The honest audit's known answer; `None` if a warm-up rejected.
    pub fingerprint: Option<Fingerprint>,
    /// The whole set-up, timed as one operation.
    pub setup: Sample,
}

pub fn set_up(
    w: &Workload,
    requests: usize,
    seed: u64,
    workdir: &Path,
    tally: &mut Tally,
) -> Instance {
    let advice_path = workdir.join(format!("{}.{seed}.{requests}.advice", w.name));
    let ((inputs, trace, advice_bytes, verdicts), setup) = calib::timed(|| {
        let inputs = adapter::generate(w, requests, seed);
        let (trace, bytes) = adapter::serve(&inputs);
        std::fs::write(&advice_path, &bytes).expect("the work directory is writable");
        let verdicts: Vec<Verdict> = (0..WARM_UPS)
            .map(|_| adapter::audit_file(&inputs, &trace, &advice_path, AuditMode::threads(1)))
            .collect();
        (inputs, trace, bytes.len() as u64, verdicts)
    });
    let fingerprint = match &verdicts[0] {
        Verdict::Accept(fp) => Some(*fp),
        Verdict::Reject { .. } => None,
    };
    for v in &verdicts {
        tally.honest(v, fingerprint, "warm-up audit");
    }
    Instance {
        seed,
        inputs,
        trace,
        advice_path,
        advice_bytes,
        fingerprint,
        setup,
    }
}

impl Instance {
    pub fn audit(&self, mode: AuditMode) -> Verdict {
        adapter::audit_file(&self.inputs, &self.trace, &self.advice_path, mode)
    }

    /// Writes each applicable variant of the tampered corpus next to the
    /// honest advice, one at a time. `None` marks an inapplicable one.
    pub fn write_tampered(&self, workdir: &Path) -> Vec<Option<PathBuf>> {
        let bytes = std::fs::read(&self.advice_path).expect("the advice file was just written");
        let owned = adapter::decode_owned(&bytes);
        (0..adapter::CORPUS_LEN)
            .map(|i| {
                let tampered = adapter::tamper(i, &owned, &bytes, self.seed)?;
                let path = workdir.join(format!("tampered.{}.{i}.advice", self.seed));
                std::fs::write(&path, tampered).expect("the work directory is writable");
                Some(path)
            })
            .collect()
    }

    /// Peak resident set of one honest audit in a fresh process.
    pub fn child_peak_rss_kb(&self, w: &Workload, mmap: bool, tally: &mut Tally) -> Option<u64> {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let out = Command::new(exe)
            .arg("rss-child")
            .args(["--workload", w.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--requests", &self.inputs.requests().to_string()])
            .args(["--mmap", if mmap { "1" } else { "0" }])
            .arg("--advice")
            .arg(&self.advice_path)
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let field = |key: &str| -> Option<u64> {
            stdout
                .split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        };
        let verdict = match (
            field("groups"),
            field("fuel"),
            field("nodes"),
            field("edges"),
        ) {
            (Some(groups), Some(fuel), Some(nodes), Some(edges)) if out.status.success() => {
                Verdict::Accept(Fingerprint {
                    groups,
                    fuel,
                    nodes,
                    edges,
                })
            }
            _ => Verdict::Reject {
                kind: "ChildFailed",
            },
        };
        tally.honest(&verdict, self.fingerprint, "child-process audit");
        field("hwm_kb")
    }
}

/// The child half of the peak-RSS measurement: rebuild the trace, drop
/// everything but what an audit needs, reset the kernel's watermark,
/// audit the file, report `VmHWM`.
pub fn rss_child(w: &Workload, seed: u64, requests: usize, advice: &Path, mmap: bool) -> i32 {
    let inputs = adapter::generate(w, requests, seed);
    let (trace, bytes) = adapter::serve(&inputs);
    drop(bytes);
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let mode = AuditMode {
        mmap,
        ..AuditMode::threads(1)
    };
    let verdict = adapter::audit_file(&inputs, &trace, advice, mode);
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
        })
        .unwrap_or(0);
    match verdict {
        Verdict::Accept(fp) => {
            println!(
                "hwm_kb={hwm_kb} reset={reset} groups={} fuel={} nodes={} edges={}",
                fp.groups, fp.fuel, fp.nodes, fp.edges
            );
            0
        }
        Verdict::Reject { kind } => {
            eprintln!("rss-child: honest advice rejected: {kind}");
            1
        }
    }
}

/// What one instance contributed.
struct InstanceResult {
    setup: Sample,
    seq: Vec<Sample>,
    par: Vec<Sample>,
    /// Calibrated ms per corpus variant.
    reject: Vec<Vec<f64>>,
    collect: Vec<Sample>,
    counted: Counted,
    rss_kb: Option<u64>,
    advice_bytes: u64,
    requests: u64,
    fingerprint: Option<Fingerprint>,
}

fn measure_instance(
    w: &Workload,
    requests: usize,
    seed: u64,
    budget_s: f64,
    workdir: &Path,
    tally: &mut Tally,
) -> InstanceResult {
    let inst = set_up(w, requests, seed, workdir, tally);

    let mut seq = Vec::new();
    repeat_for(budget_s * SHARE_SEQ, 3, usize::MAX, || {
        let (v, s) = calib::timed(|| inst.audit(AuditMode::threads(1)));
        tally.honest(&v, inst.fingerprint, "honest audit, threads=1");
        seq.push(s);
    });

    let threads = par_threads();
    let mut par = Vec::new();
    repeat_for(budget_s * SHARE_PAR, 3, usize::MAX, || {
        let (v, s) = calib::timed(|| inst.audit(AuditMode::threads(threads)));
        tally.honest(&v, inst.fingerprint, "honest audit, parallel");
        par.push(s);
    });

    let tampered = inst.write_tampered(workdir);
    let mut reject = vec![Vec::new(); tampered.len()];
    repeat_for(budget_s * SHARE_REJECT, 1, usize::MAX, || {
        for (i, path) in tampered.iter().enumerate() {
            let Some(path) = path else { continue };
            let (v, s) = calib::timed(|| {
                adapter::audit_file(&inst.inputs, &inst.trace, path, AuditMode::threads(1))
            });
            tally.tampered(&v, &adapter::tamper_name(i));
            reject[i].push(s.calibrated_ms());
        }
    });
    for path in tampered.into_iter().flatten() {
        let _ = std::fs::remove_file(path);
    }

    let mut collect = Vec::new();
    repeat_for(budget_s * SHARE_COLLECT, 1, usize::MAX, || {
        let ((_, bytes), s) = calib::timed(|| adapter::serve(&inst.inputs));
        tally.check(bytes.len() as u64 == inst.advice_bytes, || {
            format!(
                "instrumented server: {} advice bytes, {} at set-up",
                bytes.len(),
                inst.advice_bytes
            )
        });
        collect.push(s);
    });

    let (v, counted) = alloc::counted(|| inst.audit(AuditMode::threads(1)));
    tally.honest(&v, inst.fingerprint, "counted audit");

    let rss_kb = inst.child_peak_rss_kb(w, false, tally);
    let _ = std::fs::remove_file(&inst.advice_path);

    InstanceResult {
        setup: inst.setup,
        seq,
        par,
        reject,
        collect,
        counted,
        rss_kb,
        advice_bytes: inst.advice_bytes,
        requests: inst.inputs.requests() as u64,
        fingerprint: inst.fingerprint,
    }
}

/// The nine end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("audit_ms_p50", "ms"),
    ("audit_par_ms_p50", "ms"),
    ("reject_ms_mean", "ms"),
    ("collect_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("audit_peak_heap_mb", "MB"),
    ("audit_alloc_events", "count"),
    ("advice_bytes_per_req", "B"),
];

pub struct EndToEnd {
    /// Values in `END_TO_END` order.
    pub values: [f64; 9],
    /// The honest audit's fingerprint per instance.
    pub fingerprints: Vec<Option<Fingerprint>>,
    pub seq_samples: usize,
    pub par_samples: usize,
    pub reject_samples: usize,
    pub collect_samples: usize,
}

/// The median of `samples` in calibrated ms.
pub fn cal_median(samples: &[Sample]) -> f64 {
    median(
        &samples
            .iter()
            .map(Sample::calibrated_ms)
            .collect::<Vec<_>>(),
    )
}

pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    workdir: &Path,
    tally: &mut Tally,
) -> EndToEnd {
    let requests = w.requests_at(scale);
    let budget_s = seconds / INSTANCES as f64;
    let results: Vec<InstanceResult> = (0..INSTANCES)
        .map(|i| {
            measure_instance(
                w,
                requests,
                instance_seed(seed, i),
                budget_s,
                workdir,
                tally,
            )
        })
        .collect();

    let over = |f: &dyn Fn(&InstanceResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
    // Per variant, like every other timing: the per-instance median,
    // then the mean over the instances that have the variant (where a
    // mutation lands differs by instance, and a mean uses every draw);
    // then the mean over the variants the workload has.
    let per_variant: Vec<f64> = (0..adapter::CORPUS_LEN)
        .filter_map(|i| {
            let medians: Vec<f64> = results
                .iter()
                .filter(|r| !r.reject[i].is_empty())
                .map(|r| median(&r.reject[i]))
                .collect();
            (!medians.is_empty()).then(|| mean(&medians))
        })
        .collect();
    let rss: Vec<f64> = results
        .iter()
        .filter_map(|r| r.rss_kb)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .collect();
    let total_bytes: u64 = results.iter().map(|r| r.advice_bytes).sum();
    let total_requests: u64 = results.iter().map(|r| r.requests).sum();

    EndToEnd {
        values: [
            median(&over(&|r| r.setup.calibrated_ms())) / 1e3,
            mean(&over(&|r| cal_median(&r.seq))),
            mean(&over(&|r| cal_median(&r.par))),
            if per_variant.is_empty() {
                0.0
            } else {
                mean(&per_variant)
            },
            mean(&over(&|r| cal_median(&r.collect))),
            if rss.is_empty() { 0.0 } else { mean(&rss) },
            mean(&over(&|r| r.counted.peak_live as f64 / 1e6)),
            mean(&over(&|r| r.counted.events as f64)),
            total_bytes as f64 / total_requests as f64,
        ],
        fingerprints: results.iter().map(|r| r.fingerprint).collect(),
        seq_samples: results.iter().map(|r| r.seq.len()).sum(),
        par_samples: results.iter().map(|r| r.par.len()).sum(),
        reject_samples: results
            .iter()
            .map(|r| r.reject.iter().map(Vec::len).sum::<usize>())
            .sum(),
        collect_samples: results.iter().map(|r| r.collect.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_honours_min_and_max() {
        let mut n = 0;
        assert_eq!(repeat_for(0.0, 3, 10, || n += 1), 3);
        assert_eq!(repeat_for(60.0, 0, 5, || n += 1), 5);
        assert_eq!(n, 8);
    }

    #[test]
    fn instance_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            for i in 0..INSTANCES {
                assert!(seen.insert(instance_seed(seed, i)));
            }
        }
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let fp = Fingerprint {
            groups: 1,
            fuel: 2,
            nodes: 3,
            edges: 4,
        };
        let mut t = Tally::default();
        t.honest(&Verdict::Accept(fp), Some(fp), "same");
        t.honest(&Verdict::Accept(fp), None, "no reference");
        t.honest(&Verdict::Reject { kind: "CycleInG" }, Some(fp), "rejected");
        t.tampered(&Verdict::Reject { kind: "CycleInG" }, "rejects");
        t.tampered(
            &Verdict::Reject {
                kind: "VerifierInternal",
            },
            "internal",
        );
        t.tampered(&Verdict::Accept(fp), "accepted");
        assert_eq!((t.attempted, t.failed), (6, 4));
        assert_eq!(t.failures.len(), 4);
    }
}
