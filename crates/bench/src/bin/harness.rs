//! The evaluation harness: regenerates every figure of the paper.
//!
//! ```text
//! harness [subcommand] [--requests N] [--iters K] [--seed S] [--seeds E]
//!         [--verify-threads T]
//!         [--obs-out trace.json] [--metrics-out metrics.json]
//!         [--dump-bytecode app]
//! harness diff <a.json> <b.json> [--threshold-pct X]
//! harness validate-metrics <schema.json> <metrics.json>
//! harness validate-json <file.json>
//! harness profile --app <motd|stacks|wiki> [--server] [--seconds S] [--requests N] [--seed S]
//!         [--under SYMBOL] [--top N]
//! ```
//!
//! The subcommands, what each does and the paper figure it regenerates
//! are the rows of [`SUBCOMMANDS`]: its documentation, the dispatch in
//! `main` and the message an unknown name gets are all built from that
//! one table. With no subcommand the harness runs `all`.
//!
//! `--obs-out` / `--metrics-out` capture one fully-instrumented wiki
//! run and write the Chrome `trace_event` / metrics-registry JSON
//! exports (open the trace in Perfetto or `chrome://tracing`). With no
//! explicit subcommand, the capture is the whole job.
//!
//! `--dump-bytecode <motd|stacks|wiki>` prints the compiled replay
//! bytecode of every function in the app's program and its integer runs
//! (DESIGN.md §11) and exits — the artifact both the runtime and the
//! verifier dispatch.
//!
//! `--verify-threads T` (default 4, `0` = one per core) sets the thread
//! count of the parallel Karousos audit, the calling thread included
//! (`T − 1` workers are spawned); every verification table
//! reports the single-threaded time, the parallel time, the speedup,
//! and the per-layer breakdown (`obs::Layer`, decode to teardown) of
//! both.
//!
//! `profile` samples a loop of one-thread audits of the app's
//! standing-benchmark mix, or with `--server` of instrumented server
//! runs, and prints the hottest functions, `--top N` rows a table
//! (default 25; `harness/profile.rs`); `--under SYMBOL` narrows it to
//! the samples with a function whose name contains `SYMBOL` on the
//! stack, and prints what that function calls and what calls it.
//!
//! Wall-clock and memory claims are not made here: the standing
//! benchmark (`benchmark/`, `BENCHMARK.json`) measures the deployed
//! path, and `tests/alloc_regression.rs` pins the allocation budgets.

use apps::App;
use bench::{
    advice_size, ms, server_overhead, server_overhead_with_seeds, verification,
    verification_with_seeds, AdviceSizeRow, Percentiles, ServerOverheadRow, VerificationRow,
    CONCURRENCY_SWEEP,
};
use workload::Mix;

use std::alloc::{GlobalAlloc, Layout, System};

#[path = "harness/profile.rs"]
mod profile;

/// Wraps the system allocator to feed the thread-local allocation
/// probe, which lets the verifier's cost ledger attribute allocation
/// events to the group each worker is replaying (an advisory column of
/// `report`). The probe is behind its own gate: unless a capture
/// enables it, it costs one relaxed atomic load per allocation.
struct ProbedAlloc;

unsafe impl GlobalAlloc for ProbedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        obs::allocprobe::note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        obs::allocprobe::note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: ProbedAlloc = ProbedAlloc;

struct Opts {
    figure: String,
    /// Whether a subcommand was named on the command line (as opposed
    /// to the `all` default): `--obs-out`/`--metrics-out` without an
    /// explicit subcommand runs only the telemetry capture.
    figure_explicit: bool,
    requests: usize,
    iters: usize,
    seed: u64,
    seeds: u64,
    verify_threads: usize,
    /// Chrome `trace_event` JSON destination (`--obs-out`); enables
    /// telemetry capture for the run.
    obs_out: Option<String>,
    /// Metrics JSON destination (`--metrics-out`); enables telemetry
    /// capture for the run.
    metrics_out: Option<String>,
    /// `diff`: fail when any relative delta exceeds this percentage.
    threshold_pct: Option<f64>,
    /// Positional arguments after the subcommand name (file paths for
    /// `diff` / `validate-*`).
    positional: Vec<String>,
    /// `--dump-bytecode <app>`: print the compiled replay bytecode of
    /// every function in the named app's program and exit.
    dump_bytecode: Option<String>,
    /// `profile`: the app to sample (`--app`).
    app: Option<String>,
    /// `profile`: sample the instrumented server, not the audit.
    server: bool,
    /// `profile`: seconds to sample for.
    seconds: u64,
    /// `profile`: the function whose samples to break down (`--under`).
    under: Option<String>,
    /// `profile`: rows of each table (`--top`).
    top: usize,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        figure: "all".to_string(),
        figure_explicit: false,
        requests: 600,
        iters: 3,
        seed: 1,
        seeds: 10,
        verify_threads: 4,
        obs_out: None,
        metrics_out: None,
        threshold_pct: None,
        positional: Vec::new(),
        dump_bytecode: None,
        app: None,
        server: false,
        seconds: 10,
        under: None,
        top: 25,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let numeric = |flag: &str, raw: Option<&String>| -> u64 {
        match raw.map(|r| r.parse::<u64>()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("{flag} requires a positive integer value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--requests" => {
                opts.requests = numeric("--requests", args.get(i + 1)) as usize;
                i += 2;
            }
            "--iters" => {
                opts.iters = numeric("--iters", args.get(i + 1)).max(1) as usize;
                i += 2;
            }
            "--seed" => {
                opts.seed = numeric("--seed", args.get(i + 1));
                i += 2;
            }
            "--seeds" => {
                opts.seeds = numeric("--seeds", args.get(i + 1)).max(1);
                i += 2;
            }
            "--verify-threads" => {
                opts.verify_threads = numeric("--verify-threads", args.get(i + 1)) as usize;
                i += 2;
            }
            "--obs-out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--obs-out requires a file path");
                    std::process::exit(2);
                };
                opts.obs_out = Some(path.clone());
                i += 2;
            }
            "--metrics-out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--metrics-out requires a file path");
                    std::process::exit(2);
                };
                opts.metrics_out = Some(path.clone());
                i += 2;
            }
            "--threshold-pct" => {
                match args.get(i + 1).map(|r| r.parse::<f64>()) {
                    Some(Ok(v)) if v >= 0.0 => opts.threshold_pct = Some(v),
                    _ => {
                        eprintln!("--threshold-pct requires a nonnegative number");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--dump-bytecode" => {
                let Some(app) = args.get(i + 1) else {
                    eprintln!("--dump-bytecode requires an app name (motd, stacks, wiki)");
                    std::process::exit(2);
                };
                opts.dump_bytecode = Some(app.clone());
                i += 2;
            }
            "--app" => {
                let Some(app) = args.get(i + 1) else {
                    eprintln!("--app requires an app name (motd, stacks, wiki)");
                    std::process::exit(2);
                };
                opts.app = Some(app.clone());
                i += 2;
            }
            "--server" => {
                opts.server = true;
                i += 1;
            }
            "--under" => {
                let Some(symbol) = args.get(i + 1) else {
                    eprintln!("--under requires a symbol name");
                    std::process::exit(2);
                };
                opts.under = Some(symbol.clone());
                i += 2;
            }
            "--seconds" => {
                opts.seconds = numeric("--seconds", args.get(i + 1)).max(1);
                i += 2;
            }
            "--top" => {
                opts.top = numeric("--top", args.get(i + 1)).max(1) as usize;
                i += 2;
            }
            other => {
                if opts.figure_explicit {
                    opts.positional.push(other.to_string());
                } else {
                    opts.figure = other.to_string();
                    opts.figure_explicit = true;
                }
                i += 1;
            }
        }
    }
    opts
}

fn print_server_rows(label: &str, rows: &[ServerOverheadRow]) {
    println!("\n  {label}");
    println!(
        "    {:>11} {:>14} {:>12} {:>9}",
        "concurrency", "unmodified ms", "karousos ms", "overhead"
    );
    for r in rows {
        println!(
            "    {:>11} {:>14} {:>12} {:>8.2}x",
            r.concurrency,
            ms(r.unmodified),
            ms(r.karousos),
            r.overhead()
        );
    }
}

fn print_verif_rows(label: &str, rows: &[VerificationRow]) {
    let threads = rows.first().map_or(0, |r| r.verify_threads);
    // On a single-core runner the par(N) column measures thread-pool
    // overhead, not speedup — a "0.9x speedup" there reads as a
    // regression when it is really the expected cost of parallelism
    // without parallel hardware. Relabel (and invert) so regenerated
    // results stay honest.
    let single_core =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) <= 1;
    println!("\n  {label}");
    println!(
        "    {:>11} {:>11} {:>11} {:>8} {:>10} {:>6} {:>13} {:>8} {:>8}",
        "concurrency",
        "karousos ms",
        format!("par({threads}) ms"),
        if single_core { "overhead" } else { "speedup" },
        "orochi ms",
        "o/k",
        "sequential ms",
        "k-groups",
        "o-groups"
    );
    for r in rows {
        let ratio = if single_core {
            1.0 / r.parallel_speedup()
        } else {
            r.parallel_speedup()
        };
        println!(
            "    {:>11} {:>11} {:>11} {:>7.2}x {:>10} {:>5.2}x {:>13} {:>8} {:>8}",
            r.concurrency,
            ms(r.karousos),
            ms(r.karousos_parallel),
            ratio,
            ms(r.orochi),
            r.orochi_ratio(),
            ms(r.sequential),
            r.karousos_groups,
            r.orochi_groups
        );
        println!("                phases seq: {}", r.phases);
        println!("                phases par: {}", r.phases_parallel);
    }
}

fn print_size_rows(label: &str, rows: &[AdviceSizeRow]) {
    println!("\n  {label}");
    println!(
        "    {:>11} {:>12} {:>11} {:>10} {:>10} {:>7} | {:>10} {:>7} {:>7} {:>13} {:>10}",
        "concurrency",
        "karousos KB",
        "orochi KB",
        "k/o ratio",
        "var-log %",
        "pool %",
        "pool nodes",
        "refs",
        "inline",
        "logical nodes",
        "wire nodes",
    );
    for r in rows {
        println!(
            "    {:>11} {:>12} {:>11} {:>9.2}x {:>9}% {:>6}% | {:>10} {:>7} {:>7} {:>13} {:>10}",
            r.concurrency,
            r.karousos / 1024,
            r.orochi / 1024,
            r.karousos as f64 / r.orochi.max(1) as f64,
            r.var_log_share,
            r.pool_share,
            r.decode.pool_nodes,
            r.decode.pool_refs,
            r.decode.inline_containers,
            r.decode.logical_nodes,
            r.decode.wire_nodes,
        );
    }
}

fn sweep_server(app: App, mix: Mix, o: &Opts) -> Vec<ServerOverheadRow> {
    CONCURRENCY_SWEEP
        .iter()
        .map(|&c| server_overhead(app, mix, o.requests, c, o.seed, o.iters))
        .collect()
}

fn sweep_verif(app: App, mix: Mix, o: &Opts) -> Vec<VerificationRow> {
    CONCURRENCY_SWEEP
        .iter()
        .map(|&c| verification(app, mix, o.requests, c, o.seed, o.iters, o.verify_threads))
        .collect()
}

fn sweep_size(app: App, mix: Mix, o: &Opts) -> Vec<AdviceSizeRow> {
    CONCURRENCY_SWEEP
        .iter()
        .map(|&c| advice_size(app, mix, o.requests, c, o.seed))
        .collect()
}

fn fig6(o: &Opts) {
    println!(
        "== Figure 6: server processing time, Karousos vs unmodified ({} requests) ==",
        o.requests
    );
    print_server_rows(
        "motd, 90% writes",
        &sweep_server(App::Motd, Mix::WriteHeavy, o),
    );
    print_server_rows(
        "stacks, 90% reads",
        &sweep_server(App::Stacks, Mix::ReadHeavy, o),
    );
    print_server_rows(
        "wiki, mixed workload",
        &sweep_server(App::Wiki, Mix::Wiki, o),
    );
}

fn fig7(o: &Opts) {
    println!(
        "== Figure 7: verification time vs baselines ({} requests) ==",
        o.requests
    );
    print_verif_rows(
        "motd, 90% writes",
        &sweep_verif(App::Motd, Mix::WriteHeavy, o),
    );
    print_verif_rows(
        "stacks, 90% reads",
        &sweep_verif(App::Stacks, Mix::ReadHeavy, o),
    );
    print_verif_rows(
        "wiki, mixed workload",
        &sweep_verif(App::Wiki, Mix::Wiki, o),
    );
}

fn fig8(o: &Opts) {
    println!("== Figure 8: advice size ({} requests) ==", o.requests);
    print_size_rows(
        "motd, 90% writes",
        &sweep_size(App::Motd, Mix::WriteHeavy, o),
    );
    print_size_rows("wiki, mixed workload", &sweep_size(App::Wiki, Mix::Wiki, o));
}

fn fig_triple(n: u32, app: App, mix: Mix, o: &Opts) {
    println!("== Figure {n}: {} ({}) ==", app.name(), mix.name());
    print_server_rows("(a) server overhead", &sweep_server(app, mix, o));
    print_verif_rows("(b) verification time", &sweep_verif(app, mix, o));
    print_size_rows("(c) advice size", &sweep_size(app, mix, o));
}

fn ratios(o: &Opts) {
    println!("== §6.1–§6.3 headline ratios ({} requests) ==", o.requests);
    println!("\n  server overhead bands (min–max over concurrency sweep):");
    for (app, mixes) in [
        (App::Motd, &Mix::RW_MIXES[..]),
        (App::Stacks, &Mix::RW_MIXES[..]),
        (App::Wiki, &[Mix::Wiki][..]),
    ] {
        for &mix in mixes {
            let rows = sweep_server(app, mix, o);
            let (lo, hi) = rows.iter().fold((f64::MAX, 0f64), |(lo, hi), r| {
                (lo.min(r.overhead()), hi.max(r.overhead()))
            });
            println!(
                "    {:<7} {:<11} {lo:.2}x – {hi:.2}x",
                app.name(),
                mix.name()
            );
        }
    }
    println!("\n  wiki verifier speedup over Orochi-JS (grows with concurrency):");
    for row in sweep_verif(App::Wiki, Mix::Wiki, o) {
        let speedup = (row.orochi_ratio() - 1.0) * 100.0;
        println!("    concurrency {:>2}: {speedup:+.1}%", row.concurrency);
    }
    println!("\n  advice size, Karousos vs Orochi-JS at max concurrency:");
    for (app, mix) in [(App::Motd, Mix::WriteHeavy), (App::Wiki, Mix::Wiki)] {
        let row = advice_size(app, mix, o.requests, 60, o.seed);
        println!(
            "    {:<7} karousos {:>6} KB vs orochi {:>6} KB ({:.0}%)",
            app.name(),
            row.karousos / 1024,
            row.orochi / 1024,
            row.karousos as f64 * 100.0 / row.orochi.max(1) as f64
        );
    }
}

fn pct(p: Percentiles) -> String {
    format!("{} [{}, {}]", ms(p.median), ms(p.p5), ms(p.p95))
}

/// The paper's statistical presentation: medians over independent
/// experiments with 5th/95th-percentile error bars (§6 "graphs show the
/// median from 10 experiments").
fn errorbars(o: &Opts) {
    println!(
        "== medians over {} experiments with [p5, p95] error bars ({} requests) ==",
        o.seeds, o.requests
    );
    for (app, mix) in [
        (App::Motd, Mix::WriteHeavy),
        (App::Stacks, Mix::ReadHeavy),
        (App::Wiki, Mix::Wiki),
    ] {
        println!(
            "
  {} ({})",
            app.name(),
            mix.name()
        );
        println!("    server processing (unmodified vs karousos):");
        for &c in &[1usize, 15, 60] {
            let (unmod, kar) = server_overhead_with_seeds(app, mix, o.requests, c, o.seeds);
            println!("      c={c:>2}: {} vs {}", pct(unmod), pct(kar));
        }
        println!(
            "    verification (karousos / karousos par({}) / orochi-js / sequential):",
            o.verify_threads
        );
        for &c in &[1usize, 15, 60] {
            let (k, kp, or, seq) =
                verification_with_seeds(app, mix, o.requests, c, o.seeds, o.verify_threads);
            println!(
                "      c={c:>2}: {} / {} / {} / {}",
                pct(k),
                pct(kp),
                pct(or),
                pct(seq)
            );
        }
    }
}

/// Ablations of Karousos's individual techniques (DESIGN.md §6):
/// R-concurrent-only logging, tree-shaped tags, and SIMD-on-demand,
/// each quantified against the log-everything / sequence-tag / expanded
/// alternative.
fn ablations(o: &Opts) {
    use karousos::{advice_sizes, singleton_tags, Auditor};
    println!("== ablations ({} requests, concurrency 8) ==", o.requests);
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);
        let auditor = Auditor::default();
        let audit = |bytes| {
            auditor
                .audit(&p.program, &p.trace, bytes, p.exp.isolation)
                .unwrap()
        };
        let (report_k, report_o) = (audit(&p.karousos_bytes), audit(&p.orochi_bytes));
        let sk = advice_sizes(&p.karousos);
        let so = advice_sizes(&p.orochi);
        println!("\n  {} ({})", app.name(), mix.name());
        println!(
            "    logging   : {} var-log entries (R-concurrent only) vs {} (log everything); \
             {} vs {} KB variable logs",
            p.karousos.var_log_entries(),
            p.orochi.var_log_entries(),
            sk.var_logs / 1024,
            so.var_logs / 1024
        );
        println!(
            "    grouping  : {} groups (handler trees) vs {} (handler sequences)",
            report_k.reexec.groups, report_o.reexec.groups
        );
        println!(
            "    dedup     : {} handler bodies interpreted for {} activations \
             ({:.1}x deduplication)",
            report_k.reexec.handlers_executed,
            report_k.reexec.activations_covered,
            report_k.reexec.activations_covered as f64
                / report_k.reexec.handlers_executed.max(1) as f64
        );
        println!(
            "    multivalue: {} collapsed vs {} expanded operand sets",
            report_k.reexec.uniform_ops, report_k.reexec.expanded_ops
        );
        println!(
            "    graph     : {} nodes, {} edges, acyclic",
            report_k.graph_nodes, report_k.graph_edges
        );
        // What batching buys: the same audit of the same bytes with
        // every request tagged on its own, so every group is a singleton
        // (the paper's OOOExec, Fig. 22).
        let singletons = singleton_tags(&p.karousos_bytes, &p.trace).expect("honest tags parse");
        let [batched, singles] = bench::time_interleaved(
            o.iters,
            [
                &mut || {
                    audit(&p.karousos_bytes);
                },
                &mut || {
                    audit(&singletons);
                },
            ],
        );
        let speedup = bench::median_ratio(&singles, &batched);
        println!(
            "    batching  : {} ms batched vs {} ms singleton groups — {:.2}x",
            ms(bench::median(batched)),
            ms(bench::median(singles)),
            speedup
        );
    }
}

/// One fully-instrumented run of a paper shape — advice collection plus
/// the audit of the encoded advice, as deployed — into `obs`. Returns
/// the audit's statistics and its wall clock measured around the call.
fn instrumented_run(
    app: App,
    mix: Mix,
    o: &Opts,
    obs: &obs::Obs,
) -> (
    karousos::AuditReport,
    std::time::Duration,
    Vec<u8>,
    karousos::verifier::IsolationStats,
) {
    use karousos::{run_instrumented_server_with_obs, Auditor, CollectorMode};
    let mut exp = workload::Experiment::paper_default(app, mix, 8, o.seed);
    exp.requests = o.requests;
    let program = app.program();
    let cfg = exp.server_config();
    let (out, advice) = run_instrumented_server_with_obs(
        &program,
        &exp.inputs(),
        &cfg,
        CollectorMode::Karousos,
        obs,
    )
    .expect("app runs");
    let bytes = karousos::encode_advice(&advice);
    let auditor = Auditor {
        threads: o.verify_threads,
        obs: obs.clone(),
        ..Auditor::default()
    };
    let start = std::time::Instant::now();
    let report = auditor.audit(&program, &out.trace, &bytes, exp.isolation);
    let wall = start.elapsed();
    let isolation = bench::isolation_stats(&program, &out.trace, &bytes, exp.isolation);
    let report = report.expect("honest advice must be accepted");
    (report, wall, bytes, isolation)
}

/// Captures one instrumented wiki run and writes its snapshot's exports:
/// `--obs-out` (Chrome `trace_event` JSON, loadable in Perfetto /
/// `chrome://tracing`) and `--metrics-out` (the schema'd metrics JSON).
/// Returns the snapshot so `report` can print the attribution from the
/// same run.
fn obs_capture(o: &Opts) -> obs::Snapshot {
    let obs = obs::Obs::enabled();
    // Attribute allocation events to ledger rows (the advisory column;
    // the global allocator feeds the thread-local probe only while
    // this is on).
    obs::allocprobe::set_enabled(true);
    let (report, ..) = instrumented_run(App::Wiki, Mix::Wiki, o, &obs);
    obs::allocprobe::set_enabled(false);
    let snap = obs.snapshot();
    println!(
        "== telemetry capture: wiki mixed, {} requests, {} groups, {} spans, phase {} \
         ({}/{} groups replayed) ==",
        o.requests,
        report.reexec.groups,
        snap.spans.len(),
        snap.progress.phase.name(),
        snap.progress.groups_done,
        snap.progress.groups_total,
    );
    for (path, export, what) in [
        (
            &o.obs_out,
            snap.to_chrome_trace(),
            " (chrome://tracing / Perfetto)",
        ),
        (&o.metrics_out, snap.to_json(), ""),
    ] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(path, export) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("  wrote {path}{what}");
    }
    snap
}

/// The layer table of the benchmark's four shapes, from each audit's
/// snapshot: wall clock per layer and its share of the audit measured
/// from outside, which the last row reconciles, the share of the
/// replay's fuel spent in fused windows (collapsed integer arithmetic:
/// the part of the app the bytecode's operand fusion can help), and how
/// much isolation work the advice carries (none without transaction
/// logs: the part preprocess spends in the Adya check). Each
/// shape is audited `--iters` times; the table is the run with the
/// median wall clock.
fn layer_tables(o: &Opts) {
    println!(
        "\n== audit layers ({} requests, {} verify threads, median of {}) ==",
        o.requests, o.verify_threads, o.iters
    );
    for (app, mix) in [
        (App::Wiki, Mix::Wiki),
        (App::Motd, Mix::WriteHeavy),
        (App::Stacks, Mix::ReadHeavy),
        (App::Stacks, Mix::WriteHeavy),
    ] {
        let mut runs: Vec<_> = (0..o.iters)
            .map(|_| {
                let obs = obs::Obs::enabled();
                let (_, wall, bytes, isolation) = instrumented_run(app, mix, o, &obs);
                let snap = obs.snapshot();
                (wall, snap.layers, snap.ledger.totals(), bytes, isolation)
            })
            .collect();
        runs.sort_by_key(|(wall, ..)| *wall);
        let (wall, layers, replay, bytes, iso) = runs.swap_remove(runs.len() / 2);
        let share = |d: std::time::Duration| d.as_secs_f64() * 100.0 / wall.as_secs_f64();
        println!("\n  {} ({}): audit {} ms", app.name(), mix.name(), ms(wall));
        let d = bench::decode_stats(&bytes);
        println!(
            "    advice {} B: {} strings, {} handler ids; {} pool nodes, {} refs, {} inline \
             containers; {} logical / {} wire nodes",
            bytes.len(),
            d.strings,
            d.hids,
            d.pool_nodes,
            d.pool_refs,
            d.inline_containers,
            d.logical_nodes,
            d.wire_nodes
        );
        println!(
            "    replay {} fuel in {} bytecode ops: {} fuel ({:.1} %) in fused windows",
            replay.fuel,
            replay.bytecode_ops,
            replay.fused_fuel,
            replay.fused_fuel as f64 * 100.0 / replay.fuel.max(1) as f64
        );
        println!(
            "    isolation {} transactions, {} state ops on {} keys, {} write-order entries: \
             DSG edges {} ww / {} wr / {} rw",
            iso.txns,
            iso.state_ops,
            iso.keys,
            iso.write_order,
            iso.edges[0],
            iso.edges[1],
            iso.edges[2]
        );
        let rows = layers.layers().map(|(layer, d)| (layer.name(), d));
        for (name, d) in rows.chain([("all layers", layers.total())]) {
            println!("    {name:<12} {:>9} ms {:>5.1} %", ms(d), share(d));
        }
    }
}

/// `report`: where an audit's wall clock goes, layer by layer, for the
/// paper's three shapes; then one instrumented wiki run's cost
/// attribution — where its fuel, operations, and wall-clock went, by
/// re-execution group, by handler tree (control-flow digest), and by
/// served request.
fn report(o: &Opts) {
    layer_tables(o);
    let ledger = obs_capture(o).ledger;
    let t = ledger.totals();
    println!(
        "\n== cost attribution: wiki mixed, {} requests ==",
        o.requests
    );
    println!(
        "\n  totals: {} groups / {} requests replayed; {} fuel, {} ops \
         ({} bytecode), {} dict feeds, {} var accesses, {} us wall, {} alloc events",
        t.groups,
        t.requests,
        t.fuel,
        t.ops,
        t.bytecode_ops,
        t.dict_feeds,
        t.var_accesses,
        t.wall_us,
        t.alloc_events,
    );

    println!("\n  top groups by fuel:");
    println!(
        "    {:>6} {:>8} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8} {:>18}",
        "group", "requests", "fuel", "fuel/req", "ops", "dictfeeds", "wall us", "allocs", "digest"
    );
    for g in ledger.top_groups_by_fuel(10) {
        println!(
            "    {:>6} {:>8} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8} {:>18x}",
            g.group,
            g.requests,
            g.fuel,
            g.fuel / g.requests.max(1),
            g.uniform_ops + g.expanded_ops,
            g.dict_feeds,
            g.wall_us,
            g.alloc_events,
            g.digest,
        );
    }

    println!("\n  by handler tree (control-flow digest):");
    println!(
        "    {:>18} {:>8} {:>10} {:>12} {:>10}",
        "digest", "groups", "requests", "fuel", "ops"
    );
    for (digest, groups, requests, fuel, ops) in ledger.by_digest() {
        println!("    {digest:>18x} {groups:>8} {requests:>10} {fuel:>12} {ops:>10}");
    }

    if !ledger.requests.is_empty() {
        let mut rows = ledger.requests.clone();
        rows.sort_by(|a, b| b.fuel.cmp(&a.fuel).then(a.rid.cmp(&b.rid)));
        rows.truncate(10);
        println!("\n  top served requests by fuel (server-side, advisory):");
        println!(
            "    {:>6} {:>12} {:>8} {:>10}",
            "rid", "activations", "ops", "fuel"
        );
        for r in rows {
            println!(
                "    {:>6} {:>12} {:>8} {:>10}",
                r.rid, r.activations, r.ops, r.fuel
            );
        }
    }
}

fn read_or_die(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_or_die(path: &str) -> bench::json::Value {
    match bench::json::parse(&read_or_die(path)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

/// `diff <a.json> <b.json> [--threshold-pct X]`: per-counter deltas
/// between two machine-readable exports. Every numeric leaf is
/// flattened to a dotted path; leaves present in only one file count
/// as differences. Exits nonzero when a threshold is set and any
/// relative delta exceeds it.
fn diff(o: &Opts) {
    let [a_path, b_path] = o.positional.as_slice() else {
        eprintln!("usage: harness diff <a.json> <b.json> [--threshold-pct X]");
        std::process::exit(2);
    };
    let a = bench::json::flatten_numbers(&parse_or_die(a_path));
    let b = bench::json::flatten_numbers(&parse_or_die(b_path));
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut changed = 0usize;
    let mut breached = 0usize;
    println!("== diff: {a_path} vs {b_path} ({} leaves) ==", keys.len());
    for key in keys {
        match (a.get(key), b.get(key)) {
            (Some(&va), Some(&vb)) => {
                if va == vb {
                    continue;
                }
                changed += 1;
                let delta = vb - va;
                let pct = if va != 0.0 {
                    delta / va.abs() * 100.0
                } else {
                    f64::INFINITY
                };
                let over = o.threshold_pct.map(|t| pct.abs() > t).unwrap_or(false);
                if over {
                    breached += 1;
                }
                println!(
                    "  {key}: {va} -> {vb} ({delta:+} = {pct:+.2}%){}",
                    if over { "  OVER THRESHOLD" } else { "" }
                );
            }
            (Some(&va), None) => {
                changed += 1;
                breached += usize::from(o.threshold_pct.is_some());
                println!("  {key}: {va} -> (absent in {b_path})");
            }
            (None, Some(&vb)) => {
                changed += 1;
                breached += usize::from(o.threshold_pct.is_some());
                println!("  {key}: (absent in {a_path}) -> {vb}");
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    match o.threshold_pct {
        Some(t) if breached > 0 => {
            eprintln!("{changed} leaves differ; {breached} exceed the {t}% threshold");
            std::process::exit(1);
        }
        Some(t) => println!("  {changed} leaves differ; none exceed the {t}% threshold"),
        None => println!("  {changed} leaves differ"),
    }
}

/// `validate-metrics <schema.json> <metrics.json>`: the Rust
/// replacement for the retired `tools/validate_metrics.py`.
fn validate_metrics_cmd(o: &Opts) {
    let [schema_path, json_path] = o.positional.as_slice() else {
        eprintln!("usage: harness validate-metrics <schema.json> <metrics.json>");
        std::process::exit(2);
    };
    let schema = parse_or_die(schema_path);
    let value = parse_or_die(json_path);
    let errors = bench::json::validate_schema(&value, &schema);
    if errors.is_empty() {
        println!("{json_path}: conforms to {schema_path}");
    } else {
        for e in &errors {
            eprintln!("schema violation: {e}");
        }
        std::process::exit(1);
    }
}

/// `validate-json <file.json>`: the file parses as one JSON document.
fn validate_json_cmd(o: &Opts) {
    let [path] = o.positional.as_slice() else {
        eprintln!("usage: harness validate-json <file.json>");
        std::process::exit(2);
    };
    let _ = parse_or_die(path);
    println!("{path}: valid JSON");
}

/// `file-smoke`: the large-trace disk round-trip. Writes the wiki
/// advice (`--requests`, default 600; CI runs 10000) to a scratch
/// file, reads it back with [`std::fs::read`], audits it, and requires the verdict to match the in-memory audit bit for
/// bit. Exits nonzero on any divergence.
fn file_smoke(o: &Opts) {
    println!(
        "== file-smoke: wiki {} requests, seed {} ==",
        o.requests, o.seed
    );
    let p = bench::prepare(App::Wiki, Mix::Wiki, o.requests, 8, o.seed);
    let auditor = karousos::Auditor {
        threads: o.verify_threads.max(1),
        ..karousos::Auditor::default()
    };
    let baseline = auditor
        .audit(&p.program, &p.trace, &p.karousos_bytes, p.exp.isolation)
        .expect("honest wiki advice must be accepted");
    println!(
        "  in-memory baseline: {} groups, fuel {}, {} nodes / {} edges, {} wire bytes",
        baseline.reexec.groups,
        baseline.reexec.fuel_spent,
        baseline.graph_nodes,
        baseline.graph_edges,
        p.karousos_bytes.len()
    );

    let path = std::env::temp_dir().join(format!(
        "karousos-harness-file-smoke-{}.advice",
        std::process::id()
    ));
    let read_back = std::fs::write(&path, &p.karousos_bytes).and_then(|()| std::fs::read(&path));
    let _ = std::fs::remove_file(&path);
    let bytes = read_back.unwrap_or_else(|e| {
        eprintln!(
            "cannot round-trip the advice through {}: {e}",
            path.display()
        );
        std::process::exit(1);
    });
    let report = auditor
        .audit(&p.program, &p.trace, &bytes, p.exp.isolation)
        .expect("the advice file must be accepted");
    if report.reexec != baseline.reexec
        || report.graph_nodes != baseline.graph_nodes
        || report.graph_edges != baseline.graph_edges
    {
        eprintln!("DIVERGENCE: the audit of the advice file disagrees with the in-memory one");
        std::process::exit(1);
    }
    println!("  advice file: verdict identical to in-memory baseline");
    println!("  file-smoke PASS");
}

/// `--dump-bytecode <app>`: disassembles the compiled replay bytecode
/// of every function in the app's program (DESIGN.md §11) — blocks,
/// pc, fuel charge, and pool-resolved operands — and lists its integer
/// runs: each run's head, windows and registers, and whether it loops
/// or where it leaves.
fn dump_bytecode(app_name: &str) {
    let program = app_named("--dump-bytecode", app_name).program();
    let code = program.code();
    for fc in &code.funcs {
        print!("{}", kem::bytecode::disassemble(fc, &code.interner));
    }
}

/// `profile --app <motd|stacks|wiki>`: samples the app's loop of
/// audits (or, with `--server`, of instrumented server runs).
fn profile(o: &Opts) {
    profile::run(app_named("--app", o.app.as_deref().unwrap_or("")), o);
}

/// The app called `name`; exits 2 naming `flag` when there is none.
fn app_named(flag: &str, name: &str) -> App {
    let Some(app) = App::ALL.iter().copied().find(|a| a.name() == name) else {
        eprintln!("{flag}: unknown app {name:?}; try motd, stacks, wiki");
        std::process::exit(2);
    };
    app
}

/// `all`: every figure and the ratios — the table's rows above its own.
fn all(o: &Opts) {
    for (_, _, run, _) in SUBCOMMANDS.iter().take_while(|row| row.0 != "all") {
        run(o);
    }
}

/// When a subcommand runs relative to the `--obs-out` / `--metrics-out`
/// telemetry capture.
#[derive(Clone, Copy, PartialEq)]
enum Capture {
    /// Runs workloads: a requested capture happens first.
    First,
    /// Runs workloads and does its own capture.
    Own,
    /// Reads the files named on the command line, or samples its own
    /// loop: never captures, even when an export flag is set.
    Never,
}

/// Declares [`SUBCOMMANDS`] and documents it from the same rows, so
/// the rendered list, `main`'s dispatch and the message an unknown name
/// gets cannot disagree.
macro_rules! subcommands {
    ($($name:literal, $capture:ident, $run:expr, $about:literal;)*) => {
        /// Every subcommand: name, capture behaviour, entry point,
        /// what it does.
        ///
        $(#[doc = concat!("* `", $name, "` — ", $about)])*
        const SUBCOMMANDS: &[(&str, Capture, fn(&Opts), &str)] =
            &[$(($name, Capture::$capture, $run, $about)),*];
    };
}

subcommands! {
    "fig6", First, fig6,
        "server advice-collection overhead (MOTD 90% writes, stacks 90% reads, wiki mix), \
         Karousos vs unmodified server";
    "fig7", First, fig7, "verifier time vs sequential re-execution and Orochi-JS";
    "fig8", First, fig8, "advice size (MOTD, wiki), Karousos vs Orochi-JS";
    "fig9", First, |o| fig_triple(9, App::Motd, Mix::Mixed, o),
        "MOTD mixed: (a) server, (b) verifier, (c) advice size";
    "fig10", First, |o| fig_triple(10, App::Motd, Mix::ReadHeavy, o),
        "MOTD 90% reads: (a)(b)(c)";
    "fig11", First, |o| fig_triple(11, App::Stacks, Mix::Mixed, o),
        "stacks mixed: (a)(b)(c)";
    "fig12", First, |o| fig_triple(12, App::Stacks, Mix::WriteHeavy, o),
        "stacks 90% writes: (a)(b)(c)";
    "ratios", First, ratios, "the headline ratio bands quoted in §6.1–§6.3";
    "all", First, all, "fig6 … fig12 and ratios (the default)";
    "errorbars", First, errorbars,
        "medians over `--seeds` experiments with p5/p95 error bars (§6)";
    "ablations", First, ablations,
        "R-concurrent-only logging, tree-shaped tags, SIMD-on-demand and batching, each \
         against its alternative (DESIGN.md §6)";
    "file-smoke", First, file_smoke,
        "write the wiki advice to disk, read it back and require its audit to match the \
         in-memory one";
    "report", Own, report,
        "the audit's layer table (wall, share, reconciliation against the measured audit) for \
         MOTD, stacks and wiki, then one instrumented wiki run's cost attribution: ledger totals, \
         the most fuel-expensive groups, per-handler-tree totals, the most expensive served \
         requests";
    "diff", Never, diff,
        "`<a.json> <b.json> [--threshold-pct X]`: per-leaf deltas of two JSON exports; with a \
         threshold, exits nonzero when a relative delta exceeds it";
    "validate-metrics", Never, validate_metrics_cmd,
        "`<schema.json> <metrics.json>`: the export conforms to the checked-in schema";
    "validate-json", Never, validate_json_cmd, "`<file.json>`: the file parses as JSON";
    "profile", Never, profile,
        "`--app <motd|stacks|wiki> [--server] [--seconds S] [--under SYMBOL] [--top N]`: \
         sample a loop of one-thread audits (or instrumented server runs) with SIGPROF and \
         print the hottest functions, inclusive and self, N rows a table (default 25); \
         `--under` adds the self frames, direct callees and direct callers of the samples \
         SYMBOL is on the stack of";
}

fn main() {
    let o = parse_args();
    if let Some(app) = &o.dump_bytecode {
        dump_bytecode(app);
        return;
    }
    let Some(&(_, capture, run, _)) = SUBCOMMANDS.iter().find(|row| row.0 == o.figure) else {
        eprintln!("unknown subcommand {:?}; one of:", o.figure);
        for (name, _, _, about) in SUBCOMMANDS {
            eprintln!("  {name:<17}{about}");
        }
        std::process::exit(2);
    };
    if capture == Capture::Never {
        return run(&o);
    }
    if o.verify_threads > 1
        && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1
    {
        eprintln!(
            "warning: --verify-threads {} spawns {} worker(s) beside the calling thread \
             but only one core is available; they add thread overhead without speedup",
            o.verify_threads,
            o.verify_threads - 1
        );
    }
    if capture == Capture::First && (o.obs_out.is_some() || o.metrics_out.is_some()) {
        obs_capture(&o);
        // Without an explicit subcommand, the capture is the whole job.
        if !o.figure_explicit {
            return;
        }
    }
    run(&o);
}
