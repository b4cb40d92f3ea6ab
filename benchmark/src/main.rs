//! The repo's standing benchmark: advice file on disk → verdict, end to
//! end and layer by layer. See README.md.
//!
//! ```text
//! karousos-benchmark [workload|all] [--seed N] [--runs R] [--seconds S] [--out FILE]
//!                    [--spans FILE] [--scale X]
//! karousos-benchmark --workload W --seed N --seconds S --trace 0|1     (driver)
//! karousos-benchmark compare <a.json> <b.json>
//! karousos-benchmark expected <workload>
//! ```

mod adapter;
mod alloc;
mod calib;
mod compare;
mod expected;
mod json;
mod measure;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;

use measure::Tally;
use report::Run;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `BENCHMARK.json`, read when the benchmark is built: the metric lists
/// the runs must emit and the bounds `compare` judges by.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    runs: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: f64,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    allow_debug: bool,
    // rss-child only
    requests: usize,
    advice: Option<PathBuf>,
    mmap: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("karousos-benchmark: {problem}");
    eprintln!(
        "usage: karousos-benchmark [workload|all] [--seed N] [--runs R] [--seconds S] \
         [--out FILE] [--spans FILE] [--scale X]\n       \
         karousos-benchmark --workload W --seed N --seconds S --trace 0|1\n       \
         karousos-benchmark compare <a.json> <b.json>\n       \
         karousos-benchmark expected <workload>\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        runs: 1,
        seconds: None,
        trace: None,
        scale: 1.0,
        out: None,
        spans: None,
        allow_debug: false,
        requests: 0,
        advice: None,
        mmap: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> T {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{name}: cannot read {v:?}")))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = num("--seed", value("--seed")),
            "--runs" => args.runs = num("--runs", value("--runs")),
            "--seconds" => args.seconds = Some(num("--seconds", value("--seconds"))),
            "--trace" => args.trace = Some(num::<u8>("--trace", value("--trace")) != 0),
            "--scale" => args.scale = num("--scale", value("--scale")),
            "--out" => args.out = Some(value("--out").into()),
            "--spans" => args.spans = Some(value("--spans").into()),
            "--requests" => args.requests = num("--requests", value("--requests")),
            "--advice" => args.advice = Some(value("--advice").into()),
            "--mmap" => args.mmap = num::<u8>("--mmap", value("--mmap")) != 0,
            "--allow-debug" => args.allow_debug = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    if !(args.scale > 0.0 && args.scale.is_finite()) {
        usage("--scale must be positive");
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s.is_finite())) {
        usage("--seconds must be positive");
    }
    args
}

fn find_workload(name: &str) -> &'static Workload {
    workloads::find(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")))
}

/// A scratch directory beside the executable — inside the checkout,
/// inside the build directory `.gitignore` already names — removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let dir = exe
            .parent()
            .expect("an executable lives in a directory")
            .join(format!("kbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the build directory is writable");
        WorkDir(dir)
    }
}

impl WorkDir {
    /// Where a traced run writes its spans unless `--spans` says
    /// otherwise: beside the executable, one file per workload.
    fn default_spans(&self, w: &Workload) -> PathBuf {
        self.0
            .parent()
            .expect("the work directory lives in the build directory")
            .join(format!("spans.{}.json", w.name))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run length `BENCHMARK.json` fixes, used when `--seconds` is not
/// given.
fn default_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|b| b.get("run_seconds")?.as_f64())
        .expect("BENCHMARK.json has run_seconds")
}

fn main() {
    // The program's plain entry points read their options from
    // `KAROUSOS_*`; the benchmark passes every option explicitly, and
    // removes the variables so nothing underneath can pick one up.
    // Single-threaded here, so removing is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KAROUSOS_") {
            std::env::remove_var(key);
        }
    }
    let args = parse_args();
    let command = args.positional.first().map(String::as_str);

    if command == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            usage("compare takes two result files");
        };
        std::process::exit(compare::run(a.as_ref(), b.as_ref()));
    }
    if command == Some("rss-child") {
        let (Some(w), Some(advice)) = (args.workload.as_deref(), args.advice.as_deref()) else {
            usage("rss-child needs --workload and --advice");
        };
        let code = measure::rss_child(
            find_workload(w),
            args.seed,
            args.requests,
            advice,
            args.mmap,
        );
        std::process::exit(code);
    }
    if cfg!(debug_assertions) && !args.allow_debug {
        eprintln!("karousos-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        std::process::exit(2);
    }
    if command == Some("expected") {
        let [_, w] = args.positional.as_slice() else {
            usage("expected takes one workload");
        };
        let workdir = WorkDir::create();
        print!("{}", expected::generate(find_workload(w), &workdir.0));
        return;
    }

    let seconds = args.seconds.unwrap_or_else(default_seconds);
    let workdir = WorkDir::create();

    // One run of one workload at one seed: either half, or both.
    let measure_run = |w: &'static Workload, seed: u64, end_to_end: bool, traced: bool| {
        let mut tally = Tally::default();
        let mut run = Run::new(w, seed);
        if end_to_end {
            let e2e = measure::end_to_end(w, seed, seconds, args.scale, &workdir.0, &mut tally);
            expected::check_end_to_end(w, seed, args.scale, &e2e, &mut tally);
            run.add_end_to_end(e2e);
        }
        if traced {
            let spans = args
                .spans
                .clone()
                .unwrap_or_else(|| workdir.default_spans(w));
            let layers =
                traced::per_layer(w, seed, seconds, args.scale, &workdir.0, &spans, &mut tally);
            expected::check_traced(w, seed, args.scale, &layers, &mut tally);
            run.add_per_layer(layers);
        }
        run.finish(tally);
        run
    };

    // Driver mode: one workload, one half (end-to-end or per-layer), one
    // JSON object as the last line.
    if let Some(trace) = args.trace {
        let Some(w) = args.workload.as_deref().or(command) else {
            usage("--trace needs --workload");
        };
        let run = measure_run(find_workload(w), args.seed, !trace, trace);
        for failure in &run.failures {
            eprintln!("FAILED: {failure}");
        }
        if let Some(reason) = &run.invalid {
            eprintln!("INVALID: {reason}");
        }
        println!("{}", run.driver_line(trace));
        drop(workdir);
        std::process::exit(0);
    }

    // Full mode: both halves of every chosen workload, every metric by
    // name with its unit, non-zero exit on any failed operation.
    let chosen: Vec<&'static Workload> = match args.workload.as_deref().or(command) {
        None | Some("all") => WORKLOADS.iter().collect(),
        Some(name) => vec![find_workload(name)],
    };
    let header = report::Header::collect(seconds, args.scale);
    print!("{}", header.text());
    let mut runs = Vec::new();
    for w in chosen {
        for seed in args.seed..args.seed + args.runs {
            let run = measure_run(w, seed, true, true);
            print!("{}", run.text());
            runs.push(run);
        }
    }
    print!("{}", report::spreads(&runs));
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let invalid = runs.iter().filter(|r| r.invalid.is_some()).count();
    println!(
        "summary: {} runs, {} operations attempted, {failed} failed, {invalid} runs invalid, \
         \"claim\": null",
        runs.len(),
        runs.iter().map(|r| r.attempted).sum::<u64>(),
    );
    if let Some(path) = &args.out {
        std::fs::write(path, report::to_json(&header, &runs)).expect("--out is writable");
    }
    drop(workdir);
    std::process::exit(if failed > 0 {
        1
    } else if invalid > 0 {
        3
    } else {
        0
    });
}
