//! What a run prints: the header, every metric by name with its unit,
//! the driver's one-line result, and the result file `compare` reads.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::quote;
use crate::measure::{self, EndToEnd, Tally, END_TO_END};
use crate::stats;
use crate::traced::{Metric, PerLayer};
use crate::workloads::Workload;

/// Where and how the numbers were taken.
pub struct Header {
    commit: String,
    rustc: String,
    kernel: String,
    nproc: usize,
    par_threads: usize,
    seconds: f64,
    scale: f64,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn collect(seconds: f64, scale: f64) -> Header {
        Header {
            commit: first_line("git", &["rev-parse", "HEAD"]),
            rustc: first_line("rustc", &["--version"]),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            par_threads: measure::par_threads(),
            seconds,
            scale,
        }
    }

    pub fn text(&self) -> String {
        format!(
            "karousos-benchmark: advice file on disk -> verdict\n\
             commit {}\nrustc {}\nkernel {}\nnproc {}  parallel audit threads {}\n\
             run length {} s  scale {}  instances per run {}\n",
            self.commit,
            self.rustc,
            self.kernel,
            self.nproc,
            self.par_threads,
            self.seconds,
            self.scale,
            measure::INSTANCES,
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"rustc\": {}, \"kernel\": {}, \"nproc\": {}, \
             \"par_threads\": {}, \"seconds\": {}, \"scale\": {}, \"instances\": {}}}",
            quote(&self.commit),
            quote(&self.rustc),
            quote(&self.kernel),
            self.nproc,
            self.par_threads,
            self.seconds,
            self.scale,
            measure::INSTANCES,
        )
    }
}

/// One run of one workload at one seed: either or both halves.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub invalid: Option<String>,
    samples: String,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A JSON number with every digit measured (never `NaN`, which JSON
/// cannot carry).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Run {
    pub fn new(w: &Workload, seed: u64) -> Run {
        Run {
            workload: w.name,
            seed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            invalid: None,
            samples: String::new(),
        }
    }

    pub fn add_end_to_end(&mut self, e2e: EndToEnd) {
        self.end_to_end = END_TO_END
            .iter()
            .zip(e2e.values)
            .map(|((name, unit), value)| Metric {
                name: name.to_string(),
                unit,
                value,
            })
            .collect();
        self.samples = format!(
            "samples: {} audits threads=1, {} parallel, {} tampered, {} server runs, {} instances",
            e2e.seq_samples,
            e2e.par_samples,
            e2e.reject_samples,
            e2e.collect_samples,
            e2e.fingerprints.len(),
        );
    }

    pub fn add_per_layer(&mut self, layers: PerLayer) {
        self.per_layer = layers.metrics;
        self.invalid = layers.invalid;
    }

    pub fn finish(&mut self, tally: Tally) {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.failures = tally.failures;
    }

    /// The driver's result: the last line of standard output.
    pub fn driver_line(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_json(if traced {
                &self.per_layer
            } else {
                &self.end_to_end
            }),
        )
    }

    pub fn text(&self) -> String {
        let mut out = format!("\n== {} (seed {}) ==\n", self.workload, self.seed);
        let _ = writeln!(out, "end to end  ({})", self.samples);
        for m in &self.end_to_end {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "per layer");
        for m in &self.per_layer {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        if let Some(reason) = &self.invalid {
            let _ = writeln!(out, "  INVALID: {reason}");
        }
        out
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"attempted\": {}, \"failed\": {}, \
             \"valid\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            quote(self.workload),
            self.seed,
            self.attempted,
            self.failed,
            self.invalid.is_none(),
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
        )
    }
}

/// With several runs per workload: each end-to-end metric's median and
/// its spread (interquartile distance over the median), the driver's
/// steadiness measure.
pub fn spreads(runs: &[Run]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for run in runs {
        if seen.contains(&run.workload) {
            continue;
        }
        seen.push(run.workload);
        let same: Vec<&Run> = runs.iter().filter(|r| r.workload == run.workload).collect();
        if same.len() < 2 {
            continue;
        }
        let _ = writeln!(out, "\n== {}: {} runs ==", run.workload, same.len());
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = same.iter().map(|r| r.end_to_end[i].value).collect();
            let _ = writeln!(
                out,
                "  {:<24} median {:>14.4} {:<6} spread {:>6.2} %",
                name,
                stats::median(&values),
                unit,
                stats::spread(&values) * 100.0
            );
        }
    }
    out
}

/// The result file: every run, and the claim this benchmark makes about
/// the program — none.
pub fn to_json(header: &Header, runs: &[Run]) -> String {
    let runs: Vec<String> = runs.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"header\": {},\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        header.json(),
        runs.join(",\n")
    )
}
