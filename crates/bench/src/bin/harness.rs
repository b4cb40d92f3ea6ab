//! The evaluation harness: regenerates every figure of the paper.
//!
//! ```text
//! harness [figure] [--requests N] [--iters K] [--seed S] [--verify-threads T]
//!         [--obs-out trace.json] [--metrics-out metrics.json]
//!         [--prom-out prom.txt] [--prom-addr 127.0.0.1:9464]
//!         [--dump-bytecode app]
//!
//!   figure ∈ { fig6, fig7, fig8, fig9, fig10, fig11, fig12, ratios,
//!              errorbars, ablations, bench-pr3, bench-pr4, bench-pr5,
//!              bench-pr6, bench-pr7, bench-pr8, report, all }
//!
//! harness diff <a.json> <b.json> [--threshold-pct X]
//! harness validate-metrics <schema.json> <metrics.json>
//! harness validate-json <file.json>
//! harness validate-prom <prom.txt>
//! harness trend
//! ```
//!
//! `--obs-out` / `--metrics-out` capture one fully-instrumented wiki
//! run and write the Chrome `trace_event` / metrics-registry JSON
//! exports (open the trace in Perfetto or `chrome://tracing`). With no
//! explicit figure, the capture is the whole job. `--prom-out` /
//! `--prom-addr` (or `KAROUSOS_PROM_ADDR`) additionally run a live
//! Prometheus text-format exporter for the duration of the capture —
//! the file is atomically re-rendered every scrape interval and the
//! address serves it over HTTP, so an external scraper watches the
//! audit progress mid-flight.
//!
//! `report` captures one instrumented wiki run and prints the cost
//! attribution: ledger totals, the most fuel-expensive re-execution
//! groups, the per-handler-tree (digest) aggregation, and the most
//! expensive served requests.
//!
//! `diff` flattens every numeric leaf of two machine-readable exports
//! (metrics or BENCH_PR*.json) to dotted paths and prints per-counter
//! deltas; with `--threshold-pct X` it exits nonzero when any relative
//! delta exceeds X% (so `diff a.json a.json --threshold-pct 0` is a
//! zero-delta smoke check).
//!
//! `validate-metrics` checks a metrics export against the checked-in
//! schema (the draft-07 subset previously enforced by the retired
//! `tools/validate_metrics.py`); `validate-json` checks any file
//! parses as JSON; `validate-prom` checks a Prometheus exposition via
//! `obs::check_exposition`. `trend` aggregates the committed
//! `BENCH_PR*.json` evidence files into one trajectory table.
//!
//! `--dump-bytecode <motd|stacks|wiki>` prints the compiled replay
//! bytecode of every function in the app's program (DESIGN.md §11) and
//! exits — the artifact both the runtime and the verifier dispatch.
//!
//! `--verify-threads T` (default 4, `0` = one per core) sets the worker
//! count for the parallel Karousos audit; every verification table
//! reports the single-threaded time, the parallel time, the speedup,
//! and the per-phase breakdown (preprocess / group replay / graph merge
//! / cycle check) of both.
//!
//! Figure ↔ paper mapping:
//!
//! * `fig6`  — server advice-collection overhead (MOTD 90% writes,
//!   stacks 90% reads, wiki mix), Karousos vs unmodified server.
//! * `fig7`  — verifier time vs sequential re-execution and Orochi-JS.
//! * `fig8`  — advice size (MOTD, wiki), Karousos vs Orochi-JS.
//! * `fig9`  — MOTD mixed: (a) server, (b) verifier, (c) advice size.
//! * `fig10` — MOTD 90% reads: (a)(b)(c).
//! * `fig11` — stacks mixed: (a)(b)(c).
//! * `fig12` — stacks 90% writes: (a)(b)(c).
//! * `ratios` — the headline ratio bands quoted in §6.1–§6.3.

use apps::App;
use bench::{
    advice_size, ms, server_overhead, server_overhead_with_seeds, verification,
    verification_with_seeds, AdviceSizeRow, Percentiles, ServerOverheadRow, VerificationRow,
    CONCURRENCY_SWEEP,
};
use workload::Mix;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting allocation events (calls to
/// `alloc`/`realloc`, not bytes) while `COUNTING` is enabled. Used by
/// the `bench-pr3` subcommand to report the verifier's replay-phase
/// allocation counts; when disabled it costs one relaxed atomic load
/// per allocation, which is noise for every other figure.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        // Thread-local probe behind its own gate: lets the verifier's
        // cost ledger attribute allocation events to the group each
        // worker is replaying (advisory column; off unless a capture
        // enables it).
        obs::allocprobe::note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        obs::allocprobe::note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts allocation events during `f`. Not reentrant; `bench-pr3` is
/// single-threaded while measuring.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOC_EVENTS.load(Ordering::SeqCst))
}

struct Opts {
    figure: String,
    /// Whether a figure was named on the command line (as opposed to
    /// the `all` default): `--obs-out`/`--metrics-out` without an
    /// explicit figure runs only the telemetry capture.
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
    /// Prometheus text-format destination (`--prom-out`); enables
    /// telemetry capture and a live background exporter for the run.
    prom_out: Option<String>,
    /// Prometheus HTTP listen address (`--prom-addr`, falling back to
    /// `KAROUSOS_PROM_ADDR`); enables telemetry capture and a live
    /// background exporter for the run.
    prom_addr: Option<String>,
    /// `diff`: fail when any relative delta exceeds this percentage.
    threshold_pct: Option<f64>,
    /// Positional arguments after the figure/subcommand name (file
    /// paths for `diff` / `validate-*`).
    positional: Vec<String>,
    /// `--dump-bytecode <app>`: print the compiled replay bytecode of
    /// every function in the named app's program and exit.
    dump_bytecode: Option<String>,
    /// `--advice-mmap` (or `KAROUSOS_ADVICE_MMAP=1`): file-based audit
    /// paths map the advice file instead of reading it onto the heap.
    advice_mmap: bool,
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
        prom_out: None,
        prom_addr: karousos::config::prom_addr_from_env(),
        threshold_pct: None,
        positional: Vec::new(),
        dump_bytecode: None,
        advice_mmap: karousos::config::advice_mmap_from_env(),
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
            "--prom-out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--prom-out requires a file path");
                    std::process::exit(2);
                };
                opts.prom_out = Some(path.clone());
                i += 2;
            }
            "--prom-addr" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("--prom-addr requires a listen address, e.g. 127.0.0.1:9464");
                    std::process::exit(2);
                };
                opts.prom_addr = Some(addr.clone());
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
            "--advice-mmap" => {
                opts.advice_mmap = true;
                i += 1;
            }
            "--dump-bytecode" => {
                let Some(app) = args.get(i + 1) else {
                    eprintln!("--dump-bytecode requires an app name (motd, stacks, wiki)");
                    std::process::exit(2);
                };
                opts.dump_bytecode = Some(app.clone());
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
        "    {:>11} {:>11} {:>11} {:>8} {:>10} {:>13} {:>8} {:>8}",
        "concurrency",
        "karousos ms",
        format!("par({threads}) ms"),
        if single_core { "overhead" } else { "speedup" },
        "orochi ms",
        "sequential ms",
        "k-groups",
        "o-groups"
    );
    for r in rows {
        let ratio = if single_core {
            r.karousos_parallel.as_secs_f64() / r.karousos.as_secs_f64().max(1e-9)
        } else {
            r.parallel_speedup()
        };
        println!(
            "    {:>11} {:>11} {:>11} {:>7.2}x {:>10} {:>13} {:>8} {:>8}",
            r.concurrency,
            ms(r.karousos),
            ms(r.karousos_parallel),
            ratio,
            ms(r.orochi),
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
        "    {:>11} {:>12} {:>11} {:>10} {:>12}",
        "concurrency", "karousos KB", "orochi KB", "k/o ratio", "var-log %"
    );
    for r in rows {
        println!(
            "    {:>11} {:>12} {:>11} {:>9.2}x {:>11}%",
            r.concurrency,
            r.karousos / 1024,
            r.orochi / 1024,
            r.karousos as f64 / r.orochi.max(1) as f64,
            r.var_log_share
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
        let speedup = (row.orochi.as_secs_f64() / row.karousos.as_secs_f64() - 1.0) * 100.0;
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
    use karousos::{advice_sizes, audit, ooo_audit, ReplaySchedule};
    println!("== ablations ({} requests, concurrency 8) ==", o.requests);
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);
        let report_k = audit(&p.program, &p.trace, &p.karousos, p.exp.isolation).unwrap();
        let report_o = audit(&p.program, &p.trace, &p.orochi, p.exp.isolation).unwrap();
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
        // What batching buys: the same verifier with grouping disabled
        // (the paper's OOOExec, Fig. 22).
        let (t_batched, _) = bench::time_median(o.iters, || {
            audit(&p.program, &p.trace, &p.karousos, p.exp.isolation).unwrap()
        });
        let (t_ooo, _) = bench::time_median(o.iters, || {
            ooo_audit(
                &p.program,
                &p.trace,
                &p.karousos,
                p.exp.isolation,
                ReplaySchedule::Fifo,
            )
            .unwrap()
        });
        println!(
            "    batching  : {} ms batched vs {} ms ungrouped (OOOExec) — {:.2}x",
            ms(t_batched),
            ms(t_ooo),
            t_ooo.as_secs_f64() / t_batched.as_secs_f64().max(1e-9)
        );
    }
}

/// The handler-op-heavy uniform-group scenario shared with
/// `tests/alloc_regression.rs`: every request takes the same path with
/// the same payload, so all `n` land in one group and every multivalue
/// stays collapsed. The replay-phase allocation count on this scenario
/// is the headline number of the slot-compiled-frames refactor.
fn uniform_program() -> kem::Program {
    use kem::dsl;
    use kem::Value;
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("cfg", Value::int(7), false);
    b.function(
        "handle",
        vec![
            dsl::let_("x", dsl::field(dsl::payload(), "k")),
            dsl::let_("s", dsl::sread("cfg")),
            dsl::swrite("cfg", dsl::add(dsl::sread("cfg"), dsl::lit(0))),
            dsl::let_("y", dsl::add(dsl::local("x"), dsl::local("s"))),
            dsl::let_("i", dsl::lit(0)),
            dsl::while_(
                dsl::lt(dsl::local("i"), dsl::lit(8)),
                vec![
                    dsl::let_("acc", dsl::add(dsl::local("y"), dsl::local("i"))),
                    dsl::let_("i", dsl::add(dsl::local("i"), dsl::lit(1))),
                ],
            ),
            dsl::register("boom", "on_boom"),
            dsl::emit("boom", dsl::local("y")),
            dsl::listener_count("n", "boom"),
            dsl::unregister("boom", "on_boom"),
            dsl::respond(dsl::local("y")),
        ],
    );
    b.function(
        "on_boom",
        vec![dsl::let_("z", dsl::add(dsl::payload(), dsl::lit(1)))],
    );
    b.request_handler("handle");
    b.build().expect("uniform program builds")
}

/// Replays a uniform group of `n` identical requests and returns
/// (allocation events during the replay phase, total replayed ops).
fn uniform_replay_allocs(n: usize) -> (u64, u64) {
    use kem::Value;
    let program = uniform_program();
    let cfg = kem::ServerConfig::default();
    let inputs: Vec<Value> = (0..n)
        .map(|_| Value::from_map([("k".to_string(), Value::int(5))].into()))
        .collect();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &inputs,
        &cfg,
        karousos::CollectorMode::Karousos,
    )
    .expect("server run succeeds");
    let ops: u64 = advice.opcounts.values().map(|&c| c as u64).sum();
    let advice = karousos::AdviceRef::from_advice(&advice);
    let pre = karousos::verifier::preprocess(&program, &out.trace, &advice, cfg.isolation)
        .expect("preprocess accepts honest advice");
    let mut vars = karousos::verifier::VarStates::new();
    karousos::verifier::init_vars(&program, &mut vars);
    let (stats, allocs) = count_allocs(|| {
        karousos::verifier::ReExecutor::new(&program, &out.trace, &advice, &pre, &mut vars).run()
    });
    stats.expect("replay accepts honest advice");
    (allocs, ops)
}

/// `bench-pr3`: machine-readable evidence for the allocation-free
/// replay hot path. Writes `BENCH_PR3.json` (per-app phase wall-clocks
/// and replay-phase allocation counts, plus the uniform-group
/// microbenchmark vs the pre-refactor baseline) and exits nonzero if
/// the pinned allocation budget is exceeded, so CI can run it as a
/// smoke test.
fn bench_pr3(o: &Opts) {
    use karousos::audit;

    // Uniform-group microbenchmark (same scenario and budget as
    // tests/alloc_regression.rs). Warm-up run first so one-time lazy
    // allocations land outside the measured window.
    let _ = uniform_replay_allocs(8);
    let (allocs_8, ops_8) = uniform_replay_allocs(8);
    let (allocs_64, ops_64) = uniform_replay_allocs(64);
    // Pre-refactor baseline, measured at commit 14c4229 (name-based
    // interpreter) with this same harness scenario.
    let (base_allocs_8, base_ops_8) = (99u64, 32u64);
    let (base_allocs_64, base_ops_64) = (397u64, 256u64);
    let per_op = allocs_64 as f64 / ops_64.max(1) as f64;
    let base_per_op = base_allocs_64 as f64 / base_ops_64 as f64;
    let reduction = base_per_op / per_op.max(1e-9);
    let within_budget = allocs_64 <= 64 && allocs_64.saturating_sub(allocs_8) <= 16;

    let mut apps_json = String::new();
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);
        let report = audit(&p.program, &p.trace, &p.karousos, p.exp.isolation)
            .expect("honest advice must be accepted");
        let advice = karousos::AdviceRef::from_advice(&p.karousos);
        let pre = karousos::verifier::preprocess(&p.program, &p.trace, &advice, p.exp.isolation)
            .expect("preprocess accepts honest advice");
        let mut vars = karousos::verifier::VarStates::new();
        karousos::verifier::init_vars(&p.program, &mut vars);
        let (stats, allocs) = count_allocs(|| {
            karousos::verifier::ReExecutor::new(&p.program, &p.trace, &advice, &pre, &mut vars)
                .run()
        });
        stats.expect("replay accepts honest advice");
        let ops: u64 = p.karousos.opcounts.values().map(|&c| c as u64).sum();
        let t = report.timing;
        if !apps_json.is_empty() {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\"app\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \"concurrency\": 8,\n     \
             \"phases_us\": {{\"preprocess\": {}, \"group_replay\": {}, \"graph_merge\": {}, \
             \"cycle_check\": {}}},\n     \
             \"replay_allocs\": {}, \"replayed_ops\": {}, \"allocs_per_op\": {:.3}}}",
            app.name(),
            mix.name(),
            o.requests,
            t.preprocess.as_micros(),
            t.group_replay.as_micros(),
            t.graph_merge.as_micros(),
            t.cycle_check.as_micros(),
            allocs,
            ops,
            allocs as f64 / ops.max(1) as f64
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr3-allocation-free-replay\",\n  \"baseline_commit\": \"14c4229\",\n  \
         \"uniform_microbench\": {{\n    \
         \"n8\": {{\"allocs\": {allocs_8}, \"ops\": {ops_8}}},\n    \
         \"n64\": {{\"allocs\": {allocs_64}, \"ops\": {ops_64}}},\n    \
         \"baseline_n8\": {{\"allocs\": {base_allocs_8}, \"ops\": {base_ops_8}}},\n    \
         \"baseline_n64\": {{\"allocs\": {base_allocs_64}, \"ops\": {base_ops_64}}},\n    \
         \"allocs_per_op\": {per_op:.3},\n    \
         \"baseline_allocs_per_op\": {base_per_op:.3},\n    \
         \"reduction_factor\": {reduction:.1}\n  }},\n  \
         \"budget\": {{\"uniform_n64_max_allocs\": 64, \"uniform_marginal_max_allocs\": 16, \
         \"within_budget\": {within_budget}}},\n  \
         \"apps\": [\n{apps_json}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write("BENCH_PR3.json", &json) {
        eprintln!("failed to write BENCH_PR3.json: {e}");
        std::process::exit(1);
    }
    println!("== bench-pr3: allocation-free replay hot path ==");
    println!(
        "  uniform group n=64: {allocs_64} allocs / {ops_64} ops = {per_op:.3} allocs/op \
         (baseline {base_per_op:.3}; {reduction:.1}x fewer)"
    );
    println!("  wrote BENCH_PR3.json");
    if !within_budget {
        eprintln!(
            "ALLOCATION BUDGET EXCEEDED: n=8 -> {allocs_8}, n=64 -> {allocs_64} \
             (budget: n64 <= 64, marginal <= 16)"
        );
        std::process::exit(1);
    }
}

/// Captures one fully-instrumented run — advice collection plus the
/// parallel audit of the encoded advice, as deployed — of the wiki
/// workload and writes the exports named
/// by `--obs-out` (Chrome `trace_event` JSON, loadable in Perfetto /
/// `chrome://tracing`) and `--metrics-out` (metrics registry JSON with
/// the final progress heartbeat and the per-group/per-request cost
/// ledger). With `--prom-out` / `--prom-addr` a background exporter
/// additionally publishes live Prometheus snapshots for the duration
/// of the run. Returns the populated handle so `report` can print the
/// attribution from the same run.
fn obs_capture(o: &Opts) -> obs::Obs {
    use karousos::{audit_encoded_with_obs, run_instrumented_server_with_obs, CollectorMode};
    let mut exp = workload::Experiment::paper_default(App::Wiki, Mix::Wiki, 8, o.seed);
    exp.requests = o.requests;
    let program = App::Wiki.program();
    let inputs = exp.inputs();
    let obs = obs::Obs::enabled();
    let exporter = if o.prom_out.is_some() || o.prom_addr.is_some() {
        match obs::PromExporter::start(
            obs.clone(),
            o.prom_out.as_ref().map(std::path::PathBuf::from),
            o.prom_addr.as_deref(),
            obs::DEFAULT_SCRAPE_INTERVAL,
        ) {
            Ok(ex) => {
                if let Some(addr) = ex.local_addr() {
                    println!("  serving live Prometheus metrics on http://{addr}/metrics");
                }
                Some(ex)
            }
            Err(e) => {
                eprintln!("failed to start Prometheus exporter: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    // Attribute allocation events to ledger rows (the advisory column;
    // the global allocator feeds the thread-local probe only while
    // this is on).
    obs::allocprobe::set_enabled(true);
    let (out, advice) = run_instrumented_server_with_obs(
        &program,
        &inputs,
        &exp.server_config(),
        CollectorMode::Karousos,
        &obs,
    )
    .expect("wiki app runs");
    let report = audit_encoded_with_obs(
        &program,
        &out.trace,
        &karousos::encode_advice(&advice),
        exp.isolation,
        karousos::AuditOptions::with_threads(o.verify_threads),
        &obs,
    )
    .expect("honest advice must be accepted");
    obs::allocprobe::set_enabled(false);
    let progress = obs.progress_snapshot();
    println!(
        "== telemetry capture: wiki mixed, {} requests, {} groups, {} spans, phase {} \
         ({}/{} groups replayed) ==",
        o.requests,
        report.reexec.groups,
        obs.spans_snapshot().len(),
        progress.phase.name(),
        progress.groups_done,
        progress.groups_total,
    );
    if let Some(ex) = exporter {
        // Final render happens on stop, so the file always ends on the
        // completed run.
        ex.stop();
    }
    if let Some(path) = &o.prom_out {
        println!("  wrote {path} (Prometheus text format 0.0.4)");
    }
    if let Some(path) = &o.obs_out {
        if let Err(e) = std::fs::write(path, obs.trace_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("  wrote {path} (chrome://tracing / Perfetto)");
    }
    if let Some(path) = &o.metrics_out {
        if let Err(e) = std::fs::write(path, obs.metrics_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("  wrote {path}");
    }
    obs
}

/// `report`: one instrumented wiki run, then the cost attribution —
/// where the audit's fuel, operations, and wall-clock actually went,
/// by re-execution group, by handler tree (control-flow digest), and
/// by served request.
fn report(o: &Opts) {
    let obs = obs_capture(o);
    let ledger = obs.ledger_snapshot();
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
    // Where the advice bytes went before any group ran: the
    // `decode-advice` span (view decode + `AdviceRef` build).
    if let Some(decode) = obs
        .spans_snapshot()
        .iter()
        .find(|s| s.name == "decode-advice")
    {
        let arg = |key: &str| {
            decode
                .args
                .iter()
                .flatten()
                .find(|(k, _)| *k == key)
                .map_or(0, |(_, v)| *v)
        };
        println!(
            "  decode: {} advice bytes in {} us; {} string bytes copied; \
             {} nested values shared, {} built",
            arg("bytes"),
            decode.dur_us,
            arg("copied"),
            arg("values_shared"),
            arg("values_built"),
        );
    }

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

/// `validate-prom <prom.txt>`: the file is a well-formed Prometheus
/// text-format 0.0.4 exposition (TYPE lines, cumulative `le` buckets,
/// counter/gauge sign conventions).
fn validate_prom_cmd(o: &Opts) {
    let [path] = o.positional.as_slice() else {
        eprintln!("usage: harness validate-prom <prom.txt>");
        std::process::exit(2);
    };
    let text = read_or_die(path);
    match obs::check_exposition(&text) {
        Ok(()) => println!("{path}: well-formed Prometheus exposition"),
        Err(e) => {
            eprintln!("{path}: bad exposition: {e}");
            std::process::exit(1);
        }
    }
}

/// Curated `trend` rows: which leaves of a known evidence file to
/// surface, and under what label. Files themselves are *discovered*
/// by globbing `BENCH_PR<digits>.json` (see [`trend`]); this table
/// only decorates the ones with hand-picked headline metrics.
/// Discovered files without curated rows fall back to their top-level
/// scalar leaves, so future evidence files show up without a harness
/// change.
const TREND_ROWS: &[(&str, &str, &str)] = &[
    (
        "BENCH_PR3.json",
        "replay allocs/op (uniform n=64)",
        "uniform_microbench/allocs_per_op",
    ),
    (
        "BENCH_PR3.json",
        "alloc reduction vs name-based interpreter",
        "uniform_microbench/reduction_factor",
    ),
    (
        "BENCH_PR4.json",
        "wiki obs-enabled audit overhead %",
        "apps/2/obs_overhead_pct",
    ),
    (
        "BENCH_PR5.json",
        "decode alloc reduction (zero-copy view)",
        "decode/view_reduction_factor",
    ),
    (
        "BENCH_PR5.json",
        "decode alloc reduction (view + AdviceRef)",
        "decode/borrowed_reduction_factor",
    ),
    (
        "BENCH_PR5.json",
        "configs bit-identical",
        "configs_bit_identical",
    ),
    (
        "BENCH_PR6.json",
        "fuel metering overhead %",
        "metering_overhead_pct",
    ),
    (
        "BENCH_PR6.json",
        "honest wiki fuel bill",
        "honest_fuel_spent",
    ),
    (
        "BENCH_PR7.json",
        "bytecode VM best replay speedup",
        "target/best_speedup",
    ),
    (
        "BENCH_PR7.json",
        "bytecode VM best alloc reduction",
        "target/best_alloc_reduction",
    ),
    (
        "BENCH_PR7.json",
        "configs bit-identical",
        "configs_bit_identical",
    ),
    ("BENCH_PR8.json", "persistent-value gates met", "target/met"),
    (
        "BENCH_PR8.json",
        "configs bit-identical",
        "configs_bit_identical",
    ),
    (
        "BENCH_PR10.json",
        "borrowed decode alloc reduction (10k req)",
        "sizes/1/decode_allocs/borrowed_reduction_factor",
    ),
    (
        "BENCH_PR10.json",
        "mmap peak-RSS reduction KB (10k req)",
        "rss_at_large/mmap_reduction_kb",
    ),
    ("BENCH_PR10.json", "borrowed-advice gates met", "gates/met"),
    (
        "BENCH_PR10.json",
        "configs bit-identical",
        "configs_bit_identical",
    ),
];

/// The PR number of a `BENCH_PR<digits>.json` file name, or `None` if
/// the name is not an evidence file.
fn bench_pr_number(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("BENCH_PR")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Renders one trend leaf: booleans verbatim, integers plain, floats
/// to two places, anything else as `?`.
fn render_trend_leaf(v: Option<&bench::json::Value>) -> String {
    match v {
        Some(bench::json::Value::Bool(b)) => b.to_string(),
        Some(v) => match v.as_f64() {
            Some(n) if n.fract() == 0.0 => format!("{n}"),
            Some(n) => format!("{n:.2}"),
            None => "?".to_string(),
        },
        None => "?".to_string(),
    }
}

/// `trend`: aggregates the committed `BENCH_PR*.json` evidence files
/// into one markdown trajectory table (the copy committed to
/// EXPERIMENTS.md §"Performance trajectory"). Evidence files are
/// discovered by glob — `BENCH_PR<digits>.json` in the working
/// directory, ascending by PR number, tolerating gaps in the sequence
/// (not every PR ships a benchmark). Files with curated
/// [`TREND_ROWS`] show those; others show their top-level scalar
/// leaves.
fn trend() {
    println!("| evidence file | metric | value |");
    println!("|---|---|---|");
    let mut found: Vec<(u64, String)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir(".") {
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(n) = bench_pr_number(&name) {
                found.push((n, name));
            }
        }
    }
    found.sort();
    if found.is_empty() {
        eprintln!("note: no BENCH_PR*.json evidence files in the working directory");
        return;
    }
    for (_, file) in &found {
        let doc = std::fs::read_to_string(file)
            .ok()
            .and_then(|s| bench::json::parse(&s).ok());
        let Some(doc) = doc else {
            eprintln!("note: {file} is unreadable or not JSON; rows skipped");
            continue;
        };
        let curated: Vec<&(&str, &str, &str)> =
            TREND_ROWS.iter().filter(|(f, _, _)| *f == file).collect();
        if curated.is_empty() {
            // No curated rows for this file (a future PR's evidence):
            // surface its top-level scalar leaves so it still shows up.
            if let bench::json::Value::Obj(members) = &doc {
                for (key, value) in members {
                    if matches!(
                        value,
                        bench::json::Value::Bool(_)
                            | bench::json::Value::Int(_)
                            | bench::json::Value::Float(_)
                    ) {
                        println!("| {file} | {key} | {} |", render_trend_leaf(Some(value)));
                    }
                }
            }
        } else {
            for &&(_, label, path) in &curated {
                println!("| {file} | {label} | {} |", render_trend_leaf(doc.at(path)));
            }
        }
    }
}

/// `bench-pr4`: machine-readable evidence for the telemetry layer.
/// Writes `BENCH_PR4.json`: per-app audit wall-clock with observability
/// off vs on (the overhead the noop default avoids paying), the
/// per-phase breakdown, and the headline instruments (multivalue
/// collapse ratio, dictionary-fed reads, edge counts by kind,
/// cycle-check visits) from the instrumented run.
fn bench_pr4(o: &Opts) {
    use karousos::audit_with_obs;
    use obs::{CounterId, GaugeId, Obs};

    println!(
        "== bench-pr4: audit telemetry ({} requests, {} iters) ==",
        o.requests, o.iters
    );
    let mut apps_json = String::new();
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);
        let opts = karousos::AuditOptions::with_threads(o.verify_threads);
        let (t_off, report) = bench::time_median(o.iters, || {
            audit_with_obs(
                &p.program,
                &p.trace,
                &p.karousos,
                p.exp.isolation,
                opts,
                &Obs::noop(),
            )
            .expect("honest advice must be accepted")
        });
        let obs = Obs::enabled();
        let (t_on, _) = bench::time_median(o.iters, || {
            audit_with_obs(
                &p.program,
                &p.trace,
                &p.karousos,
                p.exp.isolation,
                opts,
                &obs,
            )
            .expect("honest advice must be accepted")
        });
        let overhead_pct = (t_on.as_secs_f64() / t_off.as_secs_f64().max(1e-9) - 1.0) * 100.0;
        let m = obs.metrics_snapshot();
        // The enabled handle accumulated over `iters` runs; instruments
        // below are per-run.
        let iters = o.iters as u64;
        let c = |id: CounterId| m.counter(id) / iters.max(1);
        let uniform = c(CounterId::UniformOps);
        let expanded = c(CounterId::ExpandedOps);
        let collapse = uniform as f64 / (uniform + expanded).max(1) as f64;
        let edge_kinds = [
            CounterId::EdgesTime,
            CounterId::EdgesProgram,
            CounterId::EdgesBoundary,
            CounterId::EdgesActivation,
            CounterId::EdgesHandlerLog,
            CounterId::EdgesExternalWr,
            CounterId::EdgesVarWr,
            CounterId::EdgesVarWw,
            CounterId::EdgesVarRw,
        ];
        let edges_json = edge_kinds
            .iter()
            .map(|&k| format!("\"{}\": {}", k.name(), c(k)))
            .collect::<Vec<_>>()
            .join(", ");
        if !apps_json.is_empty() {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\"app\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \"concurrency\": 8,\n     \
             \"audit_us_obs_off\": {}, \"audit_us_obs_on\": {}, \"obs_overhead_pct\": {:.1},\n     \
             \"phases\": {},\n     \
             \"metrics\": {{\"groups_formed\": {}, \"uniform_ops\": {uniform}, \
             \"expanded_ops\": {expanded}, \"collapse_ratio\": {collapse:.3}, \
             \"dict_feeds\": {}, \"logged_reads\": {}, \"cycle_check_visits\": {}, \
             \"graph_nodes\": {}, \"graph_edges\": {},\n       \
             \"edges\": {{{edges_json}}}}}}}",
            app.name(),
            mix.name(),
            o.requests,
            t_off.as_micros(),
            t_on.as_micros(),
            overhead_pct,
            report.timing.to_json(),
            c(CounterId::GroupsFormed),
            c(CounterId::DictFeeds),
            c(CounterId::LoggedReads),
            c(CounterId::CycleCheckVisits),
            m.gauge_value(GaugeId::GraphNodes).unwrap_or(0),
            m.gauge_value(GaugeId::GraphEdges).unwrap_or(0),
        ));
        println!(
            "  {:<7} obs off {} ms / on {} ms ({overhead_pct:+.1}%), collapse {collapse:.3}, \
             {} groups",
            app.name(),
            ms(t_off),
            ms(t_on),
            c(CounterId::GroupsFormed)
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"pr4-observability\",\n  \"verify_threads\": {},\n  \
         \"iters\": {},\n  \"apps\": [\n{apps_json}\n  ]\n}}\n",
        o.verify_threads, o.iters
    );
    if let Err(e) = std::fs::write("BENCH_PR4.json", &json) {
        eprintln!("failed to write BENCH_PR4.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR4.json");
}

/// The accept path's decode phase — view decode + `AdviceRef` build —
/// run and dropped. Returns the string bytes its interner copied.
fn borrowed_decode_phase(bytes: &[u8]) -> u64 {
    let view = karousos::decode_advice_view(bytes).expect("advice decodes");
    let mut interner = kem::ValueInterner::new();
    let advice = karousos::AdviceRef::from_view(&view, &mut interner);
    std::hint::black_box(advice.var_log_entries());
    interner.bytes_copied
}

/// `bench-pr5`: machine-readable evidence for the pipelined audit.
/// Writes `BENCH_PR5.json` with (a) decode-phase allocation counts for
/// the owned decoder vs the zero-copy view vs the accept path's whole
/// decode phase (view + `AdviceRef::from_view`, plus the string bytes
/// its interner actually copied), and (b) per-phase audit wall-clocks
/// for every app across the {threads 1, 4} x {pipeline off, on}
/// matrix, asserting verdicts and structural metrics are bit-identical
/// across all four configurations. Exits nonzero if the decode
/// allocation budget is exceeded or any configuration diverges, so CI
/// can run it as a smoke test.
fn bench_pr5(o: &Opts) {
    use karousos::{audit_with_obs, AuditOptions};
    use obs::Obs;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== bench-pr5: pipelined audit ({} requests, {} iters, {cores} cores) ==",
        o.requests, o.iters
    );
    if cores <= 1 {
        // Same caveat EXPERIMENTS.md records for the PR 2 numbers: on a
        // single-core container the parallel/pipelined configurations
        // measure coordination overhead, not speedup.
        println!("  note: single-core runner; parallel configs measure overhead, not speedup");
    }

    // Decode-phase allocation microbenchmark (the layers
    // tests/alloc_regression.rs pins, on the full-size wiki advice).
    // The view keeps a value as its validated span and builds nothing
    // for it; the AdviceRef build materializes each span once.
    const VIEW_MIN_REDUCTION: u64 = 20;
    const BORROWED_MIN_REDUCTION: u64 = 3;
    let pw = bench::prepare(App::Wiki, Mix::Wiki, o.requests, 8, o.seed);
    let bytes = karousos::encode_advice(&pw.karousos);
    let _ = karousos::decode_advice(&bytes).expect("wiki advice decodes");
    let _ = borrowed_decode_phase(&bytes);
    let (owned, owned_allocs) = count_allocs(|| karousos::decode_advice(&bytes));
    let owned = owned.expect("owned decode accepts");
    let (_, view_allocs) = count_allocs(|| karousos::decode_advice_view(&bytes).map(|_| ()));
    let (copied, borrowed_allocs) = count_allocs(|| borrowed_decode_phase(&bytes));
    let (fast, _) = karousos::decode_advice_fast(&bytes).expect("wiki advice decodes");
    assert_eq!(fast, owned, "decoders disagree on honest wiki advice");
    let owned_copied = karousos::owned_decode_copy_bytes(&owned);
    let view_reduction = owned_allocs as f64 / view_allocs.max(1) as f64;
    let borrowed_reduction = owned_allocs as f64 / borrowed_allocs.max(1) as f64;
    let decode_within_budget = view_allocs.saturating_mul(VIEW_MIN_REDUCTION) <= owned_allocs
        && borrowed_allocs.saturating_mul(BORROWED_MIN_REDUCTION) <= owned_allocs
        && copied < owned_copied;
    println!(
        "  decode allocs: owned {owned_allocs}, view {view_allocs} ({view_reduction:.1}x fewer), \
         view + AdviceRef {borrowed_allocs} ({borrowed_reduction:.1}x fewer); copied {copied} of \
         {owned_copied} owned-path bytes"
    );

    // Phase matrix: {threads 1, 4} x {pipeline off, on}, per app.
    // Pipeline off at 1 thread is the PR 4 barrier audit — the
    // comparison baseline for the end-to-end improvement claim.
    let configs = [(1usize, false), (1, true), (4, false), (4, true)];
    let mut diverged = false;
    let mut apps_json = String::new();
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);
        let mut baseline: Option<karousos::AuditReport> = None;
        let mut cfg_json = String::new();
        let mut totals = [std::time::Duration::ZERO; 4];
        let mut amdahl = String::new();
        for (slot, &(threads, pipeline)) in configs.iter().enumerate() {
            let mut opts = AuditOptions::with_threads(threads);
            opts.pipeline = pipeline;
            let (t, report) = bench::time_median(o.iters, || {
                audit_with_obs(
                    &p.program,
                    &p.trace,
                    &p.karousos,
                    p.exp.isolation,
                    opts,
                    &Obs::noop(),
                )
                .expect("honest advice must be accepted")
            });
            totals[slot] = t;
            match &baseline {
                None => baseline = Some(report),
                Some(b) => {
                    if b.reexec != report.reexec
                        || b.graph_nodes != report.graph_nodes
                        || b.graph_edges != report.graph_edges
                    {
                        eprintln!(
                            "DIVERGENCE: {} threads={threads} pipeline={pipeline} \
                             disagrees with serial barrier baseline",
                            app.name()
                        );
                        diverged = true;
                    }
                }
            }
            let ph = report.timing;
            // The Amdahl target from the issue: preprocess + graph
            // merge no longer exceeding group replay at 4 threads with
            // the pipeline on (meaningful on multi-core only).
            if app == App::Wiki && threads == 4 && pipeline {
                let serial_side = ph.preprocess + ph.graph_merge;
                amdahl = format!(
                    "  wiki amdahl check (4 threads, pipeline on): preprocess+graph_merge {} ms \
                     vs group_replay {} ms{}",
                    ms(serial_side),
                    ms(ph.group_replay),
                    if cores <= 1 {
                        " [single-core: not expected to hold]"
                    } else {
                        ""
                    }
                );
            }
            if !cfg_json.is_empty() {
                cfg_json.push_str(",\n");
            }
            cfg_json.push_str(&format!(
                "      {{\"threads\": {threads}, \"pipeline\": {pipeline}, \
                 \"audit_us\": {}, \"phases_us\": {}}}",
                t.as_micros(),
                ph.to_json()
            ));
        }
        // Improvement of the pipelined 4-thread audit over the PR 4
        // barrier audit at the same thread count.
        let improvement_pct =
            (1.0 - totals[3].as_secs_f64() / totals[2].as_secs_f64().max(1e-9)) * 100.0;
        if !apps_json.is_empty() {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\"app\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \"concurrency\": 8,\n     \
             \"configs\": [\n{cfg_json}\n     ],\n     \
             \"pipeline_improvement_pct_at_4_threads\": {improvement_pct:.1}}}",
            app.name(),
            mix.name(),
            o.requests,
        ));
        println!(
            "  {:<7} t1 off {} / on {} ms, t4 off {} / on {} ms ({improvement_pct:+.1}% pipelined)",
            app.name(),
            ms(totals[0]),
            ms(totals[1]),
            ms(totals[2]),
            ms(totals[3]),
        );
        if !amdahl.is_empty() {
            println!("{amdahl}");
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"pr5-pipelined-audit\",\n  \"iters\": {},\n  \
         \"available_cores\": {cores},\n  \
         \"single_core_caveat\": {},\n  \
         \"decode\": {{\n    \"wire_bytes\": {},\n    \"owned_allocs\": {owned_allocs},\n    \
         \"view_allocs\": {view_allocs},\n    \"borrowed_allocs\": {borrowed_allocs},\n    \
         \"view_reduction_factor\": {view_reduction:.1},\n    \
         \"borrowed_reduction_factor\": {borrowed_reduction:.1},\n    \
         \"bytes_copied\": {copied},\n    \"owned_path_bytes_copied\": {owned_copied},\n    \
         \"budget\": {{\"view_min_reduction\": {VIEW_MIN_REDUCTION}, \
         \"borrowed_min_reduction\": {BORROWED_MIN_REDUCTION}, \
         \"within_budget\": {decode_within_budget}}}\n  }},\n  \
         \"configs_bit_identical\": {},\n  \"apps\": [\n{apps_json}\n  ]\n}}\n",
        o.iters,
        cores <= 1,
        bytes.len(),
        !diverged,
    );
    if let Err(e) = std::fs::write("BENCH_PR5.json", &json) {
        eprintln!("failed to write BENCH_PR5.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR5.json");
    if !decode_within_budget {
        eprintln!(
            "DECODE ALLOCATION BUDGET EXCEEDED: owned {owned_allocs}, view {view_allocs} \
             (need >= {VIEW_MIN_REDUCTION}x fewer), view + AdviceRef {borrowed_allocs} \
             (need >= {BORROWED_MIN_REDUCTION}x fewer), copied {copied} vs {owned_copied}"
        );
        std::process::exit(1);
    }
    if diverged {
        std::process::exit(1);
    }
}

/// `bench-pr6`: machine-readable evidence for resource governance.
/// Writes `BENCH_PR6.json` pinning (a) the fuel-metering overhead on an
/// honest wiki run — audit wall-clock under the default `Limits`
/// (metered) vs `Limits::unlimited()` (all budgets off), which must
/// stay within 5% — and (b) the metered audit's allocation count,
/// which must not exceed the unmetered one (the meter is two integer
/// fields, not a data structure). Also reports the honest run's fuel
/// bill and the headroom it leaves under the default budget. Exits
/// nonzero on any breach, so CI can run it as a smoke test.
fn bench_pr6(o: &Opts) {
    use karousos::{audit_with_obs, AuditOptions, Limits};
    use obs::Obs;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== bench-pr6: resource-governed audit ({} requests, {} iters, {cores} cores) ==",
        o.requests, o.iters
    );

    let p = bench::prepare(App::Wiki, Mix::Wiki, o.requests, 8, o.seed);
    let audit = |limits: Limits| {
        let mut opts = AuditOptions::with_threads(o.verify_threads.max(1));
        opts.limits = limits;
        audit_with_obs(
            &p.program,
            &p.trace,
            &p.karousos,
            p.exp.isolation,
            opts,
            &Obs::noop(),
        )
        .expect("honest advice must be accepted")
    };

    // Warm both paths once. The overhead is measured on interleaved
    // metered/unmetered pairs — the median of per-pair ratios — so
    // slow drift on a shared runner cancels instead of landing on one
    // side of a back-to-back comparison.
    let report = audit(Limits::default());
    let _ = audit(Limits::unlimited());
    let mut pairs: Vec<(std::time::Duration, std::time::Duration)> = (0..o.iters.max(3))
        .map(|_| {
            let t0 = std::time::Instant::now();
            let _ = audit(Limits::default());
            let tm = t0.elapsed();
            let t1 = std::time::Instant::now();
            let _ = audit(Limits::unlimited());
            (tm, t1.elapsed())
        })
        .collect();
    pairs.sort_by(|a, b| {
        let ra = a.0.as_secs_f64() / a.1.as_secs_f64().max(1e-9);
        let rb = b.0.as_secs_f64() / b.1.as_secs_f64().max(1e-9);
        ra.total_cmp(&rb)
    });
    let (t_metered, t_unmetered) = pairs[pairs.len() / 2];
    let overhead_pct =
        (t_metered.as_secs_f64() / t_unmetered.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    let within_time_budget = overhead_pct <= 5.0;

    // Single-threaded audits for the allocation comparison: worker
    // scheduling perturbs counts by a handful of allocations, the
    // sequential path is deterministic.
    let seq_audit = |limits: Limits| {
        let mut opts = AuditOptions::with_threads(1);
        opts.limits = limits;
        audit_with_obs(
            &p.program,
            &p.trace,
            &p.karousos,
            p.exp.isolation,
            opts,
            &Obs::noop(),
        )
        .expect("honest advice must be accepted")
    };
    let (_, metered_allocs) = count_allocs(|| seq_audit(Limits::default()));
    let (_, unmetered_allocs) = count_allocs(|| seq_audit(Limits::unlimited()));
    // The fuel/deadline meter must be allocation-free: two counters and
    // an Instant, charged inline on the replay hot path.
    let within_alloc_budget = metered_allocs <= unmetered_allocs;

    let fuel = report.reexec.fuel_spent;
    let headroom = Limits::default()
        .replay_fuel
        .saturating_sub(report.reexec.max_group_fuel);
    println!(
        "  wiki audit: metered {} ms vs unmetered {} ms ({overhead_pct:+.1}% metering overhead)",
        ms(t_metered),
        ms(t_unmetered),
    );
    println!(
        "  allocs: metered {metered_allocs} vs unmetered {unmetered_allocs}; \
         fuel bill {fuel} steps, max group {} of {} budget",
        report.reexec.max_group_fuel,
        Limits::default().replay_fuel,
    );

    let json = format!(
        "{{\n  \"bench\": \"pr6-resource-governance\",\n  \"iters\": {},\n  \
         \"requests\": {},\n  \"available_cores\": {cores},\n  \
         \"metered_audit_us\": {},\n  \"unmetered_audit_us\": {},\n  \
         \"metering_overhead_pct\": {overhead_pct:.2},\n  \
         \"metered_allocs\": {metered_allocs},\n  \"unmetered_allocs\": {unmetered_allocs},\n  \
         \"honest_fuel_spent\": {fuel},\n  \"honest_max_group_fuel\": {},\n  \
         \"default_replay_fuel\": {},\n  \"fuel_headroom\": {headroom},\n  \
         \"budget\": {{\"max_overhead_pct\": 5.0, \"within_time_budget\": {within_time_budget}, \
         \"within_alloc_budget\": {within_alloc_budget}}}\n}}\n",
        o.iters,
        o.requests,
        t_metered.as_micros(),
        t_unmetered.as_micros(),
        report.reexec.max_group_fuel,
        Limits::default().replay_fuel,
    );
    if let Err(e) = std::fs::write("BENCH_PR6.json", &json) {
        eprintln!("failed to write BENCH_PR6.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR6.json");
    if !within_time_budget {
        eprintln!(
            "FUEL METERING OVERHEAD BUDGET EXCEEDED: {overhead_pct:+.1}% > 5% \
             (metered {} ms vs unmetered {} ms)",
            ms(t_metered),
            ms(t_unmetered)
        );
        std::process::exit(1);
    }
    if !within_alloc_budget {
        eprintln!(
            "METERING ALLOCATION REGRESSION: metered {metered_allocs} > unmetered {unmetered_allocs}"
        );
        std::process::exit(1);
    }
}

/// `bench-pr7`: machine-readable evidence for the bytecode VM.
/// Writes `BENCH_PR7.json` comparing tree-walk vs bytecode replay on
/// the real apps (motd, stacks, wiki): replay-phase wall-clock measured
/// on interleaved pairs (median of per-pair ratios, so runner drift
/// cancels), replay-phase allocation events, and fuel bills — which
/// must be bit-identical between the two interpreters. Also audits
/// every app across the full threads{1,4} × pipeline{off,on} ×
/// bytecode{off,on} matrix and asserts verdicts and structural metrics
/// never diverge. Exits nonzero on divergence, on a fuel-bill
/// mismatch, or if the VM is slower than the tree-walk anywhere, so CI
/// can run it as a smoke test.
fn bench_pr7(o: &Opts) {
    use karousos::{audit_with_obs, AuditOptions};
    use obs::Obs;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== bench-pr7: bytecode-VM replay ({} requests, {} iters, {cores} cores) ==",
        o.requests, o.iters
    );

    let mut diverged = false;
    let mut regressed = false;
    let mut best_speedup = 0f64;
    let mut best_alloc_reduction = 0f64;
    let mut apps_json = String::new();
    for (app, mix) in [
        (App::Motd, Mix::Mixed),
        (App::Stacks, Mix::Mixed),
        (App::Wiki, Mix::Wiki),
    ] {
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);

        // Full-matrix bit-identity: the serial tree-walk barrier audit
        // is the baseline every other configuration must reproduce
        // exactly (stats, fuel bill, graph shape).
        let mut baseline: Option<karousos::AuditReport> = None;
        for threads in [1usize, 4] {
            for pipeline in [false, true] {
                for bytecode in [false, true] {
                    let mut opts = AuditOptions::with_threads(threads);
                    opts.pipeline = pipeline;
                    opts.bytecode = bytecode;
                    let report = audit_with_obs(
                        &p.program,
                        &p.trace,
                        &p.karousos,
                        p.exp.isolation,
                        opts,
                        &Obs::noop(),
                    )
                    .expect("honest advice must be accepted");
                    match &baseline {
                        None => baseline = Some(report),
                        Some(b) => {
                            if b.reexec != report.reexec
                                || b.graph_nodes != report.graph_nodes
                                || b.graph_edges != report.graph_edges
                            {
                                eprintln!(
                                    "DIVERGENCE: {} threads={threads} pipeline={pipeline} \
                                     bytecode={bytecode} disagrees with tree-walk baseline",
                                    app.name()
                                );
                                diverged = true;
                            }
                        }
                    }
                }
            }
        }

        // Replay-phase comparison: preprocess once, then run the group
        // replay alone with each interpreter. Interleaved pairs so slow
        // drift on a shared runner lands on both sides.
        let advice = karousos::AdviceRef::from_advice(&p.karousos);
        let pre = karousos::verifier::preprocess(&p.program, &p.trace, &advice, p.exp.isolation)
            .expect("preprocess accepts honest advice");
        let replay = |bytecode: bool| {
            let mut vars = karousos::verifier::VarStates::new();
            karousos::verifier::init_vars(&p.program, &mut vars);
            karousos::verifier::ReExecutor::new(&p.program, &p.trace, &advice, &pre, &mut vars)
                .with_bytecode(bytecode)
                .run()
                .expect("replay accepts honest advice")
        };
        let stats_tw = replay(false);
        let stats_bc = replay(true);
        if stats_tw.fuel_spent != stats_bc.fuel_spent
            || stats_tw.max_group_fuel != stats_bc.max_group_fuel
        {
            eprintln!(
                "FUEL MISMATCH: {} tree-walk {} vs bytecode {} \
                 (max group {} vs {})",
                app.name(),
                stats_tw.fuel_spent,
                stats_bc.fuel_spent,
                stats_tw.max_group_fuel,
                stats_bc.max_group_fuel
            );
            diverged = true;
        }
        let (_, allocs_tw) = count_allocs(|| replay(false));
        let (_, allocs_bc) = count_allocs(|| replay(true));
        let mut pairs: Vec<(std::time::Duration, std::time::Duration)> = (0..o.iters.max(3))
            .map(|_| {
                let t0 = std::time::Instant::now();
                let _ = replay(false);
                let tw = t0.elapsed();
                let t1 = std::time::Instant::now();
                let _ = replay(true);
                (tw, t1.elapsed())
            })
            .collect();
        pairs.sort_by(|a, b| {
            let ra = a.0.as_secs_f64() / a.1.as_secs_f64().max(1e-9);
            let rb = b.0.as_secs_f64() / b.1.as_secs_f64().max(1e-9);
            ra.total_cmp(&rb)
        });
        let (t_tw, t_bc) = pairs[pairs.len() / 2];
        let speedup = t_tw.as_secs_f64() / t_bc.as_secs_f64().max(1e-9);
        let alloc_reduction = allocs_tw as f64 / allocs_bc.max(1) as f64;
        // Guard against real regressions only: motd replay is
        // advice-check-dominated (fuel bill ~4k vs stacks' ~250k), so
        // its ratio sits within measurement noise of 1.0 either way.
        if speedup < 0.9 {
            eprintln!(
                "REPLAY REGRESSION: {} bytecode {} ms slower than tree-walk {} ms",
                app.name(),
                ms(t_bc),
                ms(t_tw)
            );
            regressed = true;
        }
        if app == App::Stacks || app == App::Wiki {
            best_speedup = best_speedup.max(speedup);
            best_alloc_reduction = best_alloc_reduction.max(alloc_reduction);
        }
        let ops: u64 = p.karousos.opcounts.values().map(|&c| c as u64).sum();
        if !apps_json.is_empty() {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\"app\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \"concurrency\": 8,\n     \
             \"replay_us_tree_walk\": {}, \"replay_us_bytecode\": {}, \
             \"replay_speedup\": {speedup:.2},\n     \
             \"replay_allocs_tree_walk\": {allocs_tw}, \"replay_allocs_bytecode\": {allocs_bc}, \
             \"alloc_reduction\": {alloc_reduction:.2},\n     \
             \"replayed_ops\": {ops}, \
             \"allocs_per_op_tree_walk\": {:.3}, \"allocs_per_op_bytecode\": {:.3},\n     \
             \"fuel_spent\": {}, \"max_group_fuel\": {}, \"fuel_bit_identical\": {}}}",
            app.name(),
            mix.name(),
            o.requests,
            t_tw.as_micros(),
            t_bc.as_micros(),
            allocs_tw as f64 / ops.max(1) as f64,
            allocs_bc as f64 / ops.max(1) as f64,
            stats_bc.fuel_spent,
            stats_bc.max_group_fuel,
            stats_tw.fuel_spent == stats_bc.fuel_spent,
        ));
        println!(
            "  {:<7} replay: tree-walk {} ms / {allocs_tw} allocs vs \
             bytecode {} ms / {allocs_bc} allocs ({speedup:.2}x wall, \
             {alloc_reduction:.2}x fewer allocs); fuel {}",
            app.name(),
            ms(t_tw),
            ms(t_bc),
            stats_bc.fuel_spent,
        );
    }

    let target_met = best_speedup >= 1.5 && best_alloc_reduction >= 3.0;
    let json = format!(
        "{{\n  \"bench\": \"pr7-bytecode-vm\",\n  \"iters\": {},\n  \
         \"requests\": {},\n  \"available_cores\": {cores},\n  \
         \"matrix\": \"threads{{1,4}} x pipeline{{off,on}} x bytecode{{off,on}}\",\n  \
         \"configs_bit_identical\": {},\n  \
         \"target\": {{\"min_speedup\": 1.5, \"min_alloc_reduction\": 3.0, \
         \"scope\": \"stacks|wiki\", \"best_speedup\": {best_speedup:.2}, \
         \"best_alloc_reduction\": {best_alloc_reduction:.2}, \"met\": {target_met}}},\n  \
         \"apps\": [\n{apps_json}\n  ]\n}}\n",
        o.iters, o.requests, !diverged,
    );
    if let Err(e) = std::fs::write("BENCH_PR7.json", &json) {
        eprintln!("failed to write BENCH_PR7.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR7.json");
    if diverged || regressed {
        std::process::exit(1);
    }
}

/// Frozen PR 7 replay baselines (BENCH_PR7.json, 600 requests, seed
/// default): per-op allocation events and fuel bills under the old
/// `Arc<BTreeMap>`/`Arc<Vec>` value representation. Allocs are compared
/// per op so a different `--requests` stays roughly comparable; fuel is
/// asserted bit-identical only at the baseline's request count.
struct Pr7Baseline {
    app: App,
    allocs_per_op_tree_walk: f64,
    allocs_per_op_bytecode: f64,
    fuel_spent_at_600: u64,
}

const PR7_BASELINES: [Pr7Baseline; 3] = [
    Pr7Baseline {
        app: App::Motd,
        allocs_per_op_tree_walk: 23.561,
        allocs_per_op_bytecode: 23.557,
        fuel_spent_at_600: 3800,
    },
    Pr7Baseline {
        app: App::Stacks,
        allocs_per_op_tree_walk: 8.320,
        allocs_per_op_bytecode: 7.895,
        fuel_spent_at_600: 389_404,
    },
    Pr7Baseline {
        app: App::Wiki,
        allocs_per_op_tree_walk: 7.423,
        allocs_per_op_bytecode: 7.409,
        fuel_spent_at_600: 110_173,
    },
];

/// `bench-pr8`: machine-readable evidence for the persistent value
/// representation (DESIGN.md §12). Writes `BENCH_PR8.json` comparing
/// replay-phase allocation events per op against the frozen PR 7
/// baselines above (the old representation cannot be re-measured in
/// this tree, so the comparison is against the committed numbers).
///
/// Gates, mirroring the PR's acceptance criteria:
/// * full threads{1,4} x pipeline{off,on} x bytecode{off,on} matrix
///   must stay bit-identical (verdicts, stats, graph shape);
/// * fuel bills must be bit-identical between interpreters, and — at
///   the baseline request count — bit-identical to PR 7's (fuel is
///   charged per AST node, so the representation change must not move
///   it);
/// * the map-update-dominated apps (wiki, motd) must replay with
///   fewer allocation events per op than PR 7 on both interpreters:
///   at least 3x on motd, whose replay was dominated by whole-map
///   clones, and at least 2x on wiki. Wiki's measured census caps it
///   below 3x: of its remaining ~3.5 allocs/op, roughly 45% is string
///   concatenation content and dependency-graph bookkeeping
///   (read-observer lists, write chains, group merge) that no value
///   representation can remove — container-attributable events alone
///   dropped ~4.5x. stacks is list-push-dominated: a push now copies
///   one chunk plus a short spine (more small *events*, O(CHUNK)
///   instead of O(n) copied bytes), so it gets the wall-clock guard
///   only — the bytecode VM must stay within 0.9x of the tree-walk.
///
/// Exits nonzero on any divergence or missed gate, so CI runs it as a
/// smoke leg.
fn bench_pr8(o: &Opts) {
    use karousos::{audit_with_obs, AuditOptions};
    use obs::Obs;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== bench-pr8: persistent value representation ({} requests, {} iters, {cores} cores) ==",
        o.requests, o.iters
    );

    let mut diverged = false;
    let mut regressed = false;
    let mut gate_met = true;
    let mut apps_json = String::new();
    for baseline in &PR7_BASELINES {
        let (app, mix) = (
            baseline.app,
            if baseline.app == App::Wiki {
                Mix::Wiki
            } else {
                Mix::Mixed
            },
        );
        let p = bench::prepare(app, mix, o.requests, 8, o.seed);

        // Full-matrix bit-identity: serial tree-walk is the reference.
        let mut reference: Option<karousos::AuditReport> = None;
        for threads in [1usize, 4] {
            for pipeline in [false, true] {
                for bytecode in [false, true] {
                    let mut opts = AuditOptions::with_threads(threads);
                    opts.pipeline = pipeline;
                    opts.bytecode = bytecode;
                    let report = audit_with_obs(
                        &p.program,
                        &p.trace,
                        &p.karousos,
                        p.exp.isolation,
                        opts,
                        &Obs::noop(),
                    )
                    .expect("honest advice must be accepted");
                    match &reference {
                        None => reference = Some(report),
                        Some(b) => {
                            if b.reexec != report.reexec
                                || b.graph_nodes != report.graph_nodes
                                || b.graph_edges != report.graph_edges
                            {
                                eprintln!(
                                    "DIVERGENCE: {} threads={threads} pipeline={pipeline} \
                                     bytecode={bytecode} disagrees with tree-walk baseline",
                                    app.name()
                                );
                                diverged = true;
                            }
                        }
                    }
                }
            }
        }

        // Replay-phase measurement: preprocess once, replay per
        // interpreter, count allocation events, then interleaved
        // wall-clock pairs (median ratio cancels runner drift).
        let advice = karousos::AdviceRef::from_advice(&p.karousos);
        let pre = karousos::verifier::preprocess(&p.program, &p.trace, &advice, p.exp.isolation)
            .expect("preprocess accepts honest advice");
        let replay = |bytecode: bool| {
            let mut vars = karousos::verifier::VarStates::new();
            karousos::verifier::init_vars(&p.program, &mut vars);
            karousos::verifier::ReExecutor::new(&p.program, &p.trace, &advice, &pre, &mut vars)
                .with_bytecode(bytecode)
                .run()
                .expect("replay accepts honest advice")
        };
        let stats_tw = replay(false);
        let stats_bc = replay(true);
        if stats_tw.fuel_spent != stats_bc.fuel_spent
            || stats_tw.max_group_fuel != stats_bc.max_group_fuel
        {
            eprintln!(
                "FUEL MISMATCH: {} tree-walk {} vs bytecode {}",
                app.name(),
                stats_tw.fuel_spent,
                stats_bc.fuel_spent,
            );
            diverged = true;
        }
        let fuel_matches_pr7 =
            o.requests != 600 || stats_tw.fuel_spent == baseline.fuel_spent_at_600;
        if !fuel_matches_pr7 {
            eprintln!(
                "FUEL DRIFT vs PR 7: {} spends {} fuel, baseline recorded {}",
                app.name(),
                stats_tw.fuel_spent,
                baseline.fuel_spent_at_600
            );
            diverged = true;
        }
        let (_, allocs_tw) = count_allocs(|| replay(false));
        let (_, allocs_bc) = count_allocs(|| replay(true));
        let mut pairs: Vec<(std::time::Duration, std::time::Duration)> = (0..o.iters.max(3))
            .map(|_| {
                let t0 = std::time::Instant::now();
                let _ = replay(false);
                let tw = t0.elapsed();
                let t1 = std::time::Instant::now();
                let _ = replay(true);
                (tw, t1.elapsed())
            })
            .collect();
        pairs.sort_by(|a, b| {
            let ra = a.0.as_secs_f64() / a.1.as_secs_f64().max(1e-9);
            let rb = b.0.as_secs_f64() / b.1.as_secs_f64().max(1e-9);
            ra.total_cmp(&rb)
        });
        let (t_tw, t_bc) = pairs[pairs.len() / 2];
        let vm_speedup = t_tw.as_secs_f64() / t_bc.as_secs_f64().max(1e-9);
        if vm_speedup < 0.9 {
            eprintln!(
                "REPLAY REGRESSION: {} bytecode {} ms slower than tree-walk {} ms",
                app.name(),
                ms(t_bc),
                ms(t_tw)
            );
            regressed = true;
        }

        let ops: u64 = p.karousos.opcounts.values().map(|&c| c as u64).sum();
        let per_op_tw = allocs_tw as f64 / ops.max(1) as f64;
        let per_op_bc = allocs_bc as f64 / ops.max(1) as f64;
        let reduction_tw = baseline.allocs_per_op_tree_walk / per_op_tw.max(1e-9);
        let reduction_bc = baseline.allocs_per_op_bytecode / per_op_bc.max(1e-9);
        // Per-app floors (see the fn doc comment): motd's replay was
        // clone-dominated, so 3x is demanded; wiki's alloc census is
        // ~45% strings + graph bookkeeping, capping any representation
        // change at ~2.2x total, so its gate sits at the 2x it can
        // honestly clear. stacks trades copied bytes for more (small)
        // events and is wall-clock-guarded instead.
        let min_reduction = match app {
            App::Motd => Some(3.0),
            App::Wiki => Some(2.0),
            _ => None,
        };
        let gated = min_reduction.is_some();
        if let Some(floor) = min_reduction {
            if reduction_tw < floor || reduction_bc < floor {
                eprintln!(
                    "ALLOC GATE MISSED: {} replays at {per_op_tw:.3}/{per_op_bc:.3} allocs/op \
                     (tree-walk/bytecode) vs PR 7 {:.3}/{:.3} — \
                     {reduction_tw:.2}x/{reduction_bc:.2}x, need >= {floor}x",
                    app.name(),
                    baseline.allocs_per_op_tree_walk,
                    baseline.allocs_per_op_bytecode,
                );
                gate_met = false;
            }
        }

        if !apps_json.is_empty() {
            apps_json.push_str(",\n");
        }
        apps_json.push_str(&format!(
            "    {{\"app\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \"concurrency\": 8,\n     \
             \"replay_us_tree_walk\": {}, \"replay_us_bytecode\": {}, \
             \"vm_speedup\": {vm_speedup:.2},\n     \
             \"replay_allocs_tree_walk\": {allocs_tw}, \"replay_allocs_bytecode\": {allocs_bc}, \
             \"replayed_ops\": {ops},\n     \
             \"allocs_per_op_tree_walk\": {per_op_tw:.3}, \
             \"allocs_per_op_bytecode\": {per_op_bc:.3},\n     \
             \"pr7_allocs_per_op_tree_walk\": {:.3}, \"pr7_allocs_per_op_bytecode\": {:.3},\n     \
             \"alloc_reduction_tree_walk\": {reduction_tw:.2}, \
             \"alloc_reduction_bytecode\": {reduction_bc:.2}, \"alloc_gated\": {gated},\n     \
             \"fuel_spent\": {}, \"max_group_fuel\": {}, \
             \"fuel_bit_identical\": {}, \"fuel_matches_pr7\": {fuel_matches_pr7}}}",
            app.name(),
            mix.name(),
            o.requests,
            t_tw.as_micros(),
            t_bc.as_micros(),
            baseline.allocs_per_op_tree_walk,
            baseline.allocs_per_op_bytecode,
            stats_bc.fuel_spent,
            stats_bc.max_group_fuel,
            stats_tw.fuel_spent == stats_bc.fuel_spent,
        ));
        println!(
            "  {:<7} replay: {allocs_tw}/{allocs_bc} allocs (tree-walk/VM), \
             {per_op_tw:.3}/{per_op_bc:.3} per op vs PR 7 {:.3}/{:.3} \
             ({reduction_tw:.2}x/{reduction_bc:.2}x fewer); \
             {} ms / {} ms wall; fuel {}",
            app.name(),
            baseline.allocs_per_op_tree_walk,
            baseline.allocs_per_op_bytecode,
            ms(t_tw),
            ms(t_bc),
            stats_bc.fuel_spent,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"pr8-persistent-values\",\n  \"iters\": {},\n  \
         \"requests\": {},\n  \"available_cores\": {cores},\n  \
         \"matrix\": \"threads{{1,4}} x pipeline{{off,on}} x bytecode{{off,on}}\",\n  \
         \"configs_bit_identical\": {},\n  \
         \"target\": {{\"min_alloc_reduction\": {{\"motd\": 3.0, \"wiki\": 2.0}}, \
         \"wiki_floor_note\": \"~45% of wiki replay allocs are string content + \
         dependency-graph bookkeeping outside the value representation; \
         container-attributable events dropped ~4.5x\", \
         \"met\": {gate_met}}},\n  \
         \"apps\": [\n{apps_json}\n  ]\n}}\n",
        o.iters, o.requests, !diverged,
    );
    if let Err(e) = std::fs::write("BENCH_PR8.json", &json) {
        eprintln!("failed to write BENCH_PR8.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR8.json");
    if diverged || regressed || !gate_met {
        std::process::exit(1);
    }
}

/// Peak resident set size (VmHWM) of this process in kilobytes, from
/// `/proc/self/status`. `None` off Linux or when `/proc` is
/// unreadable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Resets the kernel's peak-RSS watermark to the current RSS (writes
/// `5` to `/proc/self/clear_refs`), so a later [`peak_rss_kb`] covers
/// only work after the reset. Returns `false` where unsupported
/// (non-Linux, locked-down `/proc`).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The audit options shared by the mmap smoke test and bench-pr10.
fn file_audit_opts(o: &Opts) -> karousos::AuditOptions {
    let mut opts = karousos::AuditOptions::with_threads(o.verify_threads.max(1));
    opts.advice_mmap = o.advice_mmap;
    opts
}

/// A scratch advice file that cleans up after itself.
struct ScratchAdvice(std::path::PathBuf);

impl ScratchAdvice {
    fn write(tag: &str, bytes: &[u8]) -> ScratchAdvice {
        let path = std::env::temp_dir().join(format!(
            "karousos-harness-{tag}-{}.advice",
            std::process::id()
        ));
        if let Err(e) = std::fs::write(&path, bytes) {
            eprintln!("cannot write scratch advice file {}: {e}", path.display());
            std::process::exit(1);
        }
        ScratchAdvice(path)
    }
}

impl Drop for ScratchAdvice {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `mmap-smoke`: the large-trace disk round-trip. Writes the wiki
/// advice (`--requests`, default 600; CI runs 10000) to a scratch
/// file, audits it through the read-backed source, the mapped source,
/// and the `--advice-mmap`-honoring file entry point, and requires
/// every verdict to match the in-memory baseline bit for bit. Exits
/// nonzero on any divergence.
fn mmap_smoke(o: &Opts) {
    use obs::Obs;

    println!(
        "== mmap-smoke: wiki {} requests, seed {}, advice_mmap flag {} ==",
        o.requests, o.seed, o.advice_mmap
    );
    let p = bench::prepare(App::Wiki, Mix::Wiki, o.requests, 8, o.seed);
    let opts = file_audit_opts(o);
    let baseline = karousos::audit_encoded_with_options(
        &p.program,
        &p.trace,
        &p.karousos_bytes,
        p.exp.isolation,
        opts,
    )
    .expect("honest wiki advice must be accepted");
    println!(
        "  in-memory baseline: {} groups, fuel {}, {} nodes / {} edges, {} wire bytes",
        baseline.reexec.groups,
        baseline.reexec.fuel_spent,
        baseline.graph_nodes,
        baseline.graph_edges,
        p.karousos_bytes.len()
    );

    let scratch = ScratchAdvice::write("mmap-smoke", &p.karousos_bytes);
    let mut diverged = false;
    let mut check = |label: &str, report: karousos::AuditReport| {
        let same = report.reexec == baseline.reexec
            && report.graph_nodes == baseline.graph_nodes
            && report.graph_edges == baseline.graph_edges;
        if same {
            println!("  {label}: verdict identical to in-memory baseline");
        } else {
            eprintln!("DIVERGENCE: {label} disagrees with the in-memory baseline");
            diverged = true;
        }
    };
    for use_mmap in [false, true] {
        let source = karousos::AdviceSource::open(&scratch.0, use_mmap).unwrap_or_else(|e| {
            eprintln!("cannot open advice source (mmap={use_mmap}): {e}");
            std::process::exit(1);
        });
        let label = if source.is_mmap() {
            "mapped source"
        } else {
            "read source"
        };
        let report = karousos::audit_source_with_obs(
            &p.program,
            &p.trace,
            &source,
            p.exp.isolation,
            opts,
            &Obs::noop(),
        )
        .expect("file-backed audit must accept honest advice");
        check(label, report);
    }
    let report =
        karousos::audit_file_with_options(&p.program, &p.trace, &scratch.0, p.exp.isolation, opts)
            .expect("file entry point must accept honest advice");
    check("audit_file_with_options", report);
    if diverged {
        std::process::exit(1);
    }
    println!("  mmap-smoke PASS");
}

/// `rss-probe <owned|memory|mmap>`: child-process half of the
/// bench-pr10 peak-RSS measurement. Prepares the wiki workload, parks
/// the advice in a scratch file, drops every in-memory copy, resets
/// the peak-RSS watermark, audits through the named path, and prints
/// one parseable line. One child per mode keeps the three paths'
/// allocator high-water marks from contaminating each other.
fn rss_probe(o: &Opts) {
    use obs::Obs;

    let mode = o
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_default()
        .to_string();
    if !matches!(mode.as_str(), "owned" | "memory" | "mmap") {
        eprintln!("rss-probe requires a mode: owned, memory, or mmap");
        std::process::exit(2);
    }
    let p = bench::prepare(App::Wiki, Mix::Wiki, o.requests, 8, o.seed);
    let scratch = ScratchAdvice::write(&format!("rss-{mode}"), &p.karousos_bytes);
    let bench::Prepared {
        program,
        trace,
        exp,
        ..
    } = p; // advice + in-memory wire copies drop here
    let opts = file_audit_opts(o);
    let reset_ok = reset_peak_rss();
    let report = match mode.as_str() {
        "owned" => {
            let bytes = std::fs::read(&scratch.0).expect("scratch advice file reads");
            let (advice, _) = karousos::decode_advice_fast(&bytes).expect("advice decodes");
            karousos::audit_with_options(&program, &trace, &advice, exp.isolation, opts)
        }
        _ => {
            let source = karousos::AdviceSource::open(&scratch.0, mode == "mmap")
                .expect("advice source opens");
            karousos::audit_source_with_obs(
                &program,
                &trace,
                &source,
                exp.isolation,
                opts,
                &Obs::noop(),
            )
        }
    };
    let hwm = peak_rss_kb().unwrap_or(0);
    match report {
        Ok(r) => println!(
            "rss-probe mode={mode} hwm_kb={hwm} reset={reset_ok} groups={} fuel={} \
             nodes={} edges={}",
            r.reexec.groups, r.reexec.fuel_spent, r.graph_nodes, r.graph_edges
        ),
        Err(e) => {
            eprintln!("rss-probe mode={mode}: audit rejected honest advice: {e}");
            std::process::exit(1);
        }
    }
}

/// One parsed `rss-probe` line.
struct RssProbe {
    hwm_kb: u64,
    reset: bool,
    fingerprint: String,
}

/// Spawns `rss-probe <mode>` as a child process and parses its report
/// line. `None` when the child cannot run or its output is malformed
/// (the RSS gate is then skipped, not failed).
fn spawn_rss_probe(mode: &str, requests: usize, seed: u64, threads: usize) -> Option<RssProbe> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args([
            "rss-probe",
            mode,
            "--requests",
            &requests.to_string(),
            "--seed",
            &seed.to_string(),
            "--verify-threads",
            &threads.to_string(),
        ])
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "rss-probe {mode} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        );
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("rss-probe "))?;
    let mut hwm_kb = None;
    let mut reset = false;
    let mut fingerprint = Vec::new();
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("hwm_kb=") {
            hwm_kb = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("reset=") {
            reset = v == "true";
        } else if token.starts_with("groups=")
            || token.starts_with("fuel=")
            || token.starts_with("nodes=")
            || token.starts_with("edges=")
        {
            fingerprint.push(token.to_string());
        }
    }
    Some(RssProbe {
        hwm_kb: hwm_kb?,
        reset,
        fingerprint: fingerprint.join(" "),
    })
}

/// bench-pr10's decode gate: the borrowed decode phase must allocate
/// at least this many times fewer events than materializing `Advice`.
const PR10_DECODE_MIN_REDUCTION: u64 = 6;

/// Decode-phase and wall-clock numbers for one trace size, plus the
/// JSON fragment they render to.
struct Pr10Row {
    json: String,
    decode_gate_met: bool,
    diverged: bool,
}

/// Measures one bench-pr10 size: decode-phase allocation events for
/// the owned and borrowed decoders, end-to-end audit wall-clock
/// for the owned, borrowed, and mapped paths, and verdict equality
/// across all three.
fn bench_pr10_size(o: &Opts, requests: usize, iters: usize) -> Pr10Row {
    use obs::Obs;

    let p = bench::prepare(App::Wiki, Mix::Wiki, requests, 8, o.seed);
    let bytes = &p.karousos_bytes;
    let opts = file_audit_opts(o);

    // Decode phase: materializing an owned `Advice` vs the borrowed
    // view + `AdviceRef` the accept path uses (a value stays its
    // validated span in the view and is built once, memoized, by
    // `from_view`).
    let _ = karousos::decode_advice(bytes).expect("advice decodes");
    let (_, owned_allocs) = count_allocs(|| karousos::decode_advice(bytes).map(|_| ()));
    let (_, borrowed_allocs) = count_allocs(|| borrowed_decode_phase(bytes));
    let borrowed_reduction = owned_allocs as f64 / borrowed_allocs.max(1) as f64;
    let decode_gate_met = borrowed_allocs.saturating_mul(PR10_DECODE_MIN_REDUCTION) <= owned_allocs;

    // Wall-clock: the old accept path (fast decode into owned advice,
    // then audit) vs the borrowed accept path vs the mapped file.
    let scratch = ScratchAdvice::write(&format!("pr10-{requests}"), bytes);
    let (t_owned, r_owned) = bench::time_median(iters, || {
        let (advice, _) = karousos::decode_advice_fast(bytes).expect("advice decodes");
        karousos::audit_with_options(&p.program, &p.trace, &advice, p.exp.isolation, opts)
            .expect("honest advice must be accepted")
    });
    let (t_borrowed, r_borrowed) = bench::time_median(iters, || {
        karousos::audit_encoded_with_options(&p.program, &p.trace, bytes, p.exp.isolation, opts)
            .expect("honest advice must be accepted")
    });
    let (t_mmap, r_mmap) = bench::time_median(iters, || {
        let source =
            karousos::AdviceSource::open(&scratch.0, true).expect("mapped advice source opens");
        karousos::audit_source_with_obs(
            &p.program,
            &p.trace,
            &source,
            p.exp.isolation,
            opts,
            &Obs::noop(),
        )
        .expect("honest advice must be accepted")
    });
    let same = |r: &karousos::AuditReport| {
        r.reexec == r_owned.reexec
            && r.graph_nodes == r_owned.graph_nodes
            && r.graph_edges == r_owned.graph_edges
    };
    let diverged = !same(&r_borrowed) || !same(&r_mmap);
    if diverged {
        eprintln!("DIVERGENCE: owned / borrowed / mmap audits disagree at {requests} requests");
    }

    println!(
        "  {requests:>6} req: decode allocs owned {owned_allocs} / \
         borrowed {borrowed_allocs} ({borrowed_reduction:.1}x fewer); audit owned {} / \
         borrowed {} / mmap {} ms",
        ms(t_owned),
        ms(t_borrowed),
        ms(t_mmap),
    );

    let json = format!(
        "{{\n      \"requests\": {requests},\n      \"wire_bytes\": {},\n      \
         \"decode_allocs\": {{\"owned\": {owned_allocs}, \
         \"borrowed\": {borrowed_allocs}, \
         \"borrowed_reduction_factor\": {borrowed_reduction:.1}}},\n      \
         \"audit_us\": {{\"owned\": {}, \"borrowed\": {}, \"mmap\": {}}},\n      \
         \"verdicts_identical\": {}\n    }}",
        bytes.len(),
        t_owned.as_micros(),
        t_borrowed.as_micros(),
        t_mmap.as_micros(),
        !diverged,
    );
    Pr10Row {
        json,
        decode_gate_met,
        diverged,
    }
}

/// `bench-pr10`: machine-readable evidence for the borrowed advice
/// path. Writes `BENCH_PR10.json` with, at `--requests` (default 600)
/// and 10k requests: decode-phase allocation events (owned vs
/// borrowed view + `AdviceRef`), end-to-end audit wall-clock (owned vs borrowed vs
/// mapped file), verdict equality across the three paths, and — via
/// per-mode child processes at the large size — peak RSS for the
/// owned, read-backed, and mapped audits. Gates: the borrowed decode
/// phase must allocate >= 6x fewer events than materializing `Advice`
/// at both sizes, and the mapped audit must peak below the read-backed
/// one (skipped where `/proc/self/clear_refs` is unavailable). Exits
/// nonzero when a gate fails or any verdict diverges.
fn bench_pr10(o: &Opts) {
    let small = o.requests;
    let large = o.requests.max(10_000);
    println!(
        "== bench-pr10: borrowed advice end-to-end (wiki {small} and {large} requests, \
         {} iters) ==",
        o.iters
    );
    let row_small = bench_pr10_size(o, small, o.iters);
    let row_large = bench_pr10_size(o, large, 1);

    // Peak RSS, one child process per path so the watermarks are
    // independent. The mapped run's advice stays on disk: its peak
    // must come in under the read-backed run's.
    let mut rss_json = "null".to_string();
    let mut rss_gate: Option<bool> = None;
    let probes: Vec<Option<RssProbe>> = ["owned", "memory", "mmap"]
        .iter()
        .map(|mode| spawn_rss_probe(mode, large, o.seed, o.verify_threads))
        .collect();
    if let [Some(owned), Some(memory), Some(mmap)] = &probes[..] {
        if owned.fingerprint != memory.fingerprint || owned.fingerprint != mmap.fingerprint {
            eprintln!("DIVERGENCE: rss-probe children disagree on the verdict");
            rss_gate = Some(false);
        }
        let supported = owned.reset && memory.reset && mmap.reset;
        if supported {
            rss_gate = Some(rss_gate.unwrap_or(true) && mmap.hwm_kb < memory.hwm_kb);
        } else {
            println!("  note: peak-RSS watermark reset unsupported here; RSS gate skipped");
        }
        println!(
            "  {large:>6} req: peak RSS owned {} KB / memory {} KB / mmap {} KB{}",
            owned.hwm_kb,
            memory.hwm_kb,
            mmap.hwm_kb,
            if supported { "" } else { " [no reset]" }
        );
        rss_json = format!(
            "{{\"owned_kb\": {}, \"memory_kb\": {}, \"mmap_kb\": {}, \
             \"mmap_reduction_kb\": {}, \"watermark_reset_supported\": {supported}}}",
            owned.hwm_kb,
            memory.hwm_kb,
            mmap.hwm_kb,
            memory.hwm_kb as i64 - mmap.hwm_kb as i64,
        );
    } else {
        println!("  note: rss-probe children unavailable; RSS comparison skipped");
    }

    let decode_met = row_small.decode_gate_met && row_large.decode_gate_met;
    let diverged = row_small.diverged || row_large.diverged;
    let met = decode_met && !diverged && rss_gate != Some(false);
    let json = format!(
        "{{\n  \"bench\": \"pr10-borrowed-advice\",\n  \"iters\": {},\n  \
         \"sizes\": [\n    {},\n    {}\n  ],\n  \
         \"rss_at_large\": {rss_json},\n  \
         \"configs_bit_identical\": {},\n  \
         \"gates\": {{\"decode_alloc_min_reduction\": {PR10_DECODE_MIN_REDUCTION}, \
         \"decode_alloc_met\": {decode_met}, \
         \"mmap_rss_reduced\": {}, \"met\": {met}}}\n}}\n",
        o.iters,
        row_small.json,
        row_large.json,
        !diverged,
        match rss_gate {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        },
    );
    if let Err(e) = std::fs::write("BENCH_PR10.json", &json) {
        eprintln!("failed to write BENCH_PR10.json: {e}");
        std::process::exit(1);
    }
    println!("  wrote BENCH_PR10.json");
    if !met {
        eprintln!(
            "BENCH-PR10 GATES FAILED: decode_alloc_met={decode_met}, diverged={diverged}, \
             rss_gate={rss_gate:?}"
        );
        std::process::exit(1);
    }
}

/// `--dump-bytecode <app>`: disassembles the compiled replay bytecode
/// of every function in the app's program (DESIGN.md §11) — blocks,
/// pc, fuel charge, and pool-resolved operands.
fn dump_bytecode(app_name: &str) {
    let Some(app) = App::ALL.iter().copied().find(|a| a.name() == app_name) else {
        eprintln!("--dump-bytecode: unknown app {app_name:?}; try motd, stacks, wiki");
        std::process::exit(2);
    };
    let program = app.program();
    let resolved = program.resolved();
    let code = program.code();
    for (func, fc) in resolved.functions.iter().zip(code.funcs.iter()) {
        print!(
            "{}",
            kem::bytecode::disassemble(fc, func, &resolved.interner)
        );
    }
}

fn main() {
    let o = parse_args();
    if let Some(app) = &o.dump_bytecode {
        dump_bytecode(app);
        return;
    }
    // File-driven subcommands first: they must not trigger a capture
    // even when --prom-out/--metrics-out/KAROUSOS_PROM_ADDR are set.
    match o.figure.as_str() {
        "diff" => return diff(&o),
        "validate-metrics" => return validate_metrics_cmd(&o),
        "validate-json" => return validate_json_cmd(&o),
        "validate-prom" => return validate_prom_cmd(&o),
        "trend" => return trend(),
        "rss-probe" => return rss_probe(&o),
        _ => {}
    }
    if o.verify_threads != 1
        && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1
    {
        eprintln!(
            "warning: --verify-threads {} requested but only one core is available; \
             parallel verification will add thread overhead without speedup",
            o.verify_threads
        );
    }
    if o.figure == "report" {
        report(&o);
        return;
    }
    if o.obs_out.is_some() || o.metrics_out.is_some() || o.prom_out.is_some() {
        obs_capture(&o);
        // Without an explicit figure, the capture is the whole job.
        if !o.figure_explicit {
            return;
        }
    }
    match o.figure.as_str() {
        "fig6" => fig6(&o),
        "fig7" => fig7(&o),
        "fig8" => fig8(&o),
        "fig9" => fig_triple(9, App::Motd, Mix::Mixed, &o),
        "fig10" => fig_triple(10, App::Motd, Mix::ReadHeavy, &o),
        "fig11" => fig_triple(11, App::Stacks, Mix::Mixed, &o),
        "fig12" => fig_triple(12, App::Stacks, Mix::WriteHeavy, &o),
        "ratios" => ratios(&o),
        "errorbars" => errorbars(&o),
        "ablations" => ablations(&o),
        "bench-pr3" => bench_pr3(&o),
        "bench-pr4" => bench_pr4(&o),
        "bench-pr5" => bench_pr5(&o),
        "bench-pr6" => bench_pr6(&o),
        "bench-pr7" => bench_pr7(&o),
        "bench-pr8" => bench_pr8(&o),
        "bench-pr10" => bench_pr10(&o),
        "mmap-smoke" => mmap_smoke(&o),
        "all" => {
            fig6(&o);
            fig7(&o);
            fig8(&o);
            fig_triple(9, App::Motd, Mix::Mixed, &o);
            fig_triple(10, App::Motd, Mix::ReadHeavy, &o);
            fig_triple(11, App::Stacks, Mix::Mixed, &o);
            fig_triple(12, App::Stacks, Mix::WriteHeavy, &o);
            ratios(&o);
        }
        other => {
            eprintln!(
                "unknown figure {other:?}; try fig6..fig12, ratios, errorbars, ablations, \
                 bench-pr3, bench-pr4, bench-pr5, bench-pr6, bench-pr7, bench-pr8, bench-pr10, \
                 mmap-smoke, report, diff, validate-metrics, validate-json, validate-prom, \
                 trend, all"
            );
            std::process::exit(2);
        }
    }
}
