//! Measurement library behind the benchmark harness.
//!
//! Every table and figure in the paper's evaluation (§6, Figs. 6–12) is
//! regenerated by a function here; the `harness` binary prints them.
//! Results are *relative* (ratios, crossovers): the substrate is a
//! simulator, so absolute times differ from the paper's testbed, but who
//! wins and by roughly what factor should hold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::time::{Duration, Instant};

use apps::App;
use baselines::sequential_reexecute;
use karousos::{
    advice_sizes, encode_advice, run_instrumented_server, run_instrumented_server_encoded, Advice,
    Auditor, CollectorMode, PhaseTiming,
};
use kem::{NoopHooks, Program, Trace};
use workload::{Experiment, Mix};

/// Concurrency levels swept by the figures (the paper sweeps 1–60).
pub const CONCURRENCY_SWEEP: [usize; 5] = [1, 4, 15, 30, 60];

/// Times every one of `sides` once per iteration, `iters` times, each
/// iteration starting one side further along, so that a drift in the
/// host's speed lands on every side alike. Returns each side's samples
/// in iteration order.
pub fn time_interleaved<const N: usize>(
    iters: usize,
    sides: [&mut dyn FnMut(); N],
) -> [Vec<Duration>; N] {
    let mut samples: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::with_capacity(iters));
    for i in 0..iters.max(1) {
        for k in (0..N).map(|k| (i + k) % N) {
            let t0 = Instant::now();
            sides[k]();
            samples[k].push(t0.elapsed());
        }
    }
    samples
}

/// The median of `samples` (the upper one of an even count).
pub fn median<T: Copy + PartialOrd>(mut samples: Vec<T>) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    samples[samples.len() / 2]
}

/// The median over iterations of `num[i] / den[i]`: a ratio of two
/// sides timed in the same iteration ([`time_interleaved`]), so the
/// host's drift cancels.
pub fn median_ratio(num: &[Duration], den: &[Duration]) -> f64 {
    let ratios = num.iter().zip(den);
    let ratios = ratios.map(|(n, d)| n.as_secs_f64() / d.as_secs_f64().max(1e-12));
    median(ratios.collect())
}

/// One point of a server-overhead curve (Fig. 6 / 9a / 10a / 11a / 12a).
#[derive(Debug, Clone, Copy)]
pub struct ServerOverheadRow {
    /// Concurrency level.
    pub concurrency: usize,
    /// Unmodified-server processing time.
    pub unmodified: Duration,
    /// Karousos-server processing time.
    pub karousos: Duration,
    /// Karousos / unmodified, per iteration.
    overhead: f64,
}

impl ServerOverheadRow {
    /// Karousos / unmodified: the median of the per-iteration ratios.
    pub fn overhead(&self) -> f64 {
        self.overhead
    }
}

/// Measures server overhead at one concurrency level: both servers in
/// every iteration, interleaved ([`time_interleaved`]).
pub fn server_overhead(
    app: App,
    mix: Mix,
    requests: usize,
    concurrency: usize,
    seed: u64,
    iters: usize,
) -> ServerOverheadRow {
    let exp = paper_exp(app, mix, requests, concurrency, seed);
    let program = app.program();
    let inputs = exp.inputs();
    let cfg = exp.server_config();
    let [unmodified, karousos] = time_interleaved(
        iters,
        [
            &mut || {
                kem::run_server(&program, &inputs, &cfg, &mut NoopHooks).expect("app runs");
            },
            // The instrumented server's cost includes serializing the
            // advice it ships to the verifier.
            &mut || {
                run_instrumented_server_encoded(&program, &inputs, &cfg, CollectorMode::Karousos)
                    .expect("app runs");
            },
        ],
    );
    ServerOverheadRow {
        concurrency,
        overhead: median_ratio(&karousos, &unmodified),
        unmodified: median(unmodified),
        karousos: median(karousos),
    }
}

/// One point of a verification-time curve (Fig. 7 / 9b / 10b / 11b / 12b).
#[derive(Debug, Clone, Copy)]
pub struct VerificationRow {
    /// Concurrency level (of the audited execution).
    pub concurrency: usize,
    /// Karousos verifier time, single-threaded.
    pub karousos: Duration,
    /// Karousos verifier time on `verify_threads` threads.
    pub karousos_parallel: Duration,
    /// Threads of the parallel measurement, the calling one included.
    pub verify_threads: usize,
    /// Phase breakdown of the single-threaded audit.
    pub phases: PhaseTiming,
    /// Phase breakdown of the parallel audit.
    pub phases_parallel: PhaseTiming,
    /// Orochi-JS verifier time.
    pub orochi: Duration,
    /// Sequential re-execution time.
    pub sequential: Duration,
    /// Karousos re-execution groups.
    pub karousos_groups: usize,
    /// Orochi-JS re-execution groups.
    pub orochi_groups: usize,
    /// Single-threaded / parallel Karousos, per iteration.
    speedup: f64,
    /// Orochi-JS / single-threaded Karousos, per iteration.
    orochi_x: f64,
}

impl VerificationRow {
    /// Single-threaded / parallel Karousos verification time: the
    /// median of the per-iteration ratios.
    pub fn parallel_speedup(&self) -> f64 {
        self.speedup
    }

    /// Orochi-JS / single-threaded Karousos verification time: the
    /// median of the per-iteration ratios.
    pub fn orochi_ratio(&self) -> f64 {
        self.orochi_x
    }
}

/// Prepared audit inputs: one server execution, advice in both modes.
pub struct Prepared {
    /// The program.
    pub program: Program,
    /// The trusted trace (identical across modes: collection does not
    /// perturb the schedule).
    pub trace: Trace,
    /// Karousos advice.
    pub karousos: Advice,
    /// Orochi-JS advice.
    pub orochi: Advice,
    /// Karousos advice in wire form (what the verifier receives).
    pub karousos_bytes: Vec<u8>,
    /// Orochi-JS advice in wire form.
    pub orochi_bytes: Vec<u8>,
    /// The experiment.
    pub exp: Experiment,
}

/// Runs the server once per mode and returns both advice sets.
pub fn prepare(app: App, mix: Mix, requests: usize, concurrency: usize, seed: u64) -> Prepared {
    let exp = paper_exp(app, mix, requests, concurrency, seed);
    let program = app.program();
    let inputs = exp.inputs();
    let cfg = exp.server_config();
    let (out_k, karousos) =
        run_instrumented_server(&program, &inputs, &cfg, CollectorMode::Karousos)
            .expect("app runs");
    let (out_o, orochi) = run_instrumented_server(&program, &inputs, &cfg, CollectorMode::OrochiJs)
        .expect("app runs");
    assert_eq!(
        out_k.trace, out_o.trace,
        "collection must not perturb the schedule"
    );
    let karousos_bytes = encode_advice(&karousos);
    let orochi_bytes = encode_advice(&orochi);
    Prepared {
        program,
        trace: out_k.trace,
        karousos,
        orochi,
        karousos_bytes,
        orochi_bytes,
        exp,
    }
}

/// Measures verification time against both baselines.
///
/// The Karousos verifier is measured twice: single-threaded, and with
/// `verify_threads` threads, the calling one included (preprocess,
/// group replay and graph assembly). All four verifiers run in every
/// iteration, interleaved ([`time_interleaved`]).
/// Both audits are checked to produce identical statistics — the
/// parallel path is an execution strategy, never a semantic one.
pub fn verification(
    app: App,
    mix: Mix,
    requests: usize,
    concurrency: usize,
    seed: u64,
    iters: usize,
    verify_threads: usize,
) -> VerificationRow {
    let p = prepare(app, mix, requests, concurrency, seed);
    // Verification starts from the wire form: decoding the advice the
    // server sent is part of the verifier's work.
    let audit = |bytes: &[u8], threads| {
        let auditor = Auditor {
            threads,
            ..Auditor::default()
        };
        auditor
            .audit(&p.program, &p.trace, bytes, p.exp.isolation)
            .expect("honest run accepts")
    };
    let (mut report_k, mut report_par, mut report_o) = (None, None, None);
    let [karousos, karousos_parallel, orochi, sequential] = time_interleaved(
        iters,
        [
            &mut || report_k = Some(audit(&p.karousos_bytes, 1)),
            &mut || report_par = Some(audit(&p.karousos_bytes, verify_threads)),
            &mut || report_o = Some(audit(&p.orochi_bytes, 1)),
            &mut || {
                sequential_reexecute(&p.program, &p.trace, p.exp.isolation).expect("app replays");
            },
        ],
    );
    let [report_k, report_par, report_o] =
        [report_k, report_par, report_o].map(|r| r.expect("every side ran"));
    assert_eq!(
        report_k.reexec, report_par.reexec,
        "parallel audit diverged from sequential"
    );
    assert_eq!(
        (report_k.graph_nodes, report_k.graph_edges),
        (report_par.graph_nodes, report_par.graph_edges),
        "parallel audit built a different graph"
    );
    VerificationRow {
        concurrency,
        speedup: median_ratio(&karousos, &karousos_parallel),
        orochi_x: median_ratio(&orochi, &karousos),
        karousos: median(karousos),
        karousos_parallel: median(karousos_parallel),
        verify_threads,
        phases: report_k.timing,
        phases_parallel: report_par.timing,
        orochi: median(orochi),
        sequential: median(sequential),
        karousos_groups: report_k.reexec.groups,
        orochi_groups: report_o.reexec.groups,
    }
}

/// One point of an advice-size curve (Fig. 8 / 9c / 10c / 11c / 12c).
#[derive(Debug, Clone, Copy)]
pub struct AdviceSizeRow {
    /// Concurrency level.
    pub concurrency: usize,
    /// Karousos advice bytes.
    pub karousos: usize,
    /// Orochi-JS advice bytes.
    pub orochi: usize,
    /// Variable logs' share of the Karousos advice (per cent), the
    /// value pool they refer into not counted.
    pub var_log_share: usize,
    /// The value pool's share of the Karousos advice (per cent).
    pub pool_share: usize,
    /// What decoding the Karousos advice met: pool nodes, references,
    /// inline containers, logical and wire node counts.
    pub decode: karousos::DecodeStats,
}

/// Measures advice size at one concurrency level.
pub fn advice_size(
    app: App,
    mix: Mix,
    requests: usize,
    concurrency: usize,
    seed: u64,
) -> AdviceSizeRow {
    let p = prepare(app, mix, requests, concurrency, seed);
    let sizes_k = advice_sizes(&p.karousos);
    let sizes_o = advice_sizes(&p.orochi);
    AdviceSizeRow {
        concurrency,
        karousos: sizes_k.total(),
        orochi: sizes_o.total(),
        var_log_share: sizes_k.var_logs * 100 / sizes_k.total().max(1),
        pool_share: sizes_k.pool * 100 / sizes_k.total().max(1),
        decode: decode_stats(&p.karousos_bytes),
    }
}

/// What the audit's decoder meets in honest advice `bytes`.
pub fn decode_stats(bytes: &[u8]) -> karousos::DecodeStats {
    karousos::decode_advice_view_bounded(bytes, u64::MAX)
        .expect("honest advice decodes")
        .1
}

/// How much isolation work (§4.4) the audit of honest advice `bytes`
/// has: the size of the alleged history and of its serialization graph.
pub fn isolation_stats(
    program: &kem::Program,
    trace: &kem::Trace,
    bytes: &[u8],
    isolation: kvstore::IsolationLevel,
) -> karousos::verifier::IsolationStats {
    let (view, _) =
        karousos::decode_advice_view_bounded(bytes, u64::MAX).expect("honest advice decodes");
    let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
    karousos::verifier::preprocess_staged(program, trace, &advice, isolation, 1)
        .expect("honest advice preprocesses")
        .pre
        .isolation
}

fn paper_exp(app: App, mix: Mix, requests: usize, concurrency: usize, seed: u64) -> Experiment {
    let mut exp = Experiment::paper_default(app, mix, concurrency, seed);
    exp.requests = requests;
    exp
}

/// Formats a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_rotates_the_first_side() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let [a, b] = time_interleaved(3, [&mut a, &mut b]);
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!((a.len(), b.len()), (3, 3));
        assert!(median(a) < Duration::from_secs(1));
    }

    #[test]
    fn ratio_is_the_median_of_per_iteration_ratios() {
        let ms = Duration::from_millis;
        let r = median_ratio(&[ms(2), ms(30), ms(9)], &[ms(1), ms(10), ms(1)]);
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rows_compute() {
        let row = server_overhead(App::Motd, Mix::Mixed, 20, 2, 0, 1);
        assert!(row.overhead() > 0.0);
        let v = verification(App::Motd, Mix::Mixed, 20, 2, 0, 1, 2);
        assert!(v.karousos_groups <= v.orochi_groups);
        assert_eq!(v.verify_threads, 2);
        assert!(v.phases.total() > Duration::ZERO);
        assert!(v.phases_parallel.total() > Duration::ZERO);
        let s = advice_size(App::Motd, Mix::Mixed, 20, 2, 0);
        assert!(s.karousos > 0 && s.orochi >= s.karousos);
    }
}

/// Median and 5th/95th percentiles over per-seed measurements — the
/// paper's statistical presentation ("median from 10 experiments,
/// error bars show 5th and 95th percentile values", §6).
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    /// 5th percentile.
    pub p5: Duration,
    /// Median.
    pub median: Duration,
    /// 95th percentile.
    pub p95: Duration,
}

impl Percentiles {
    /// Computes percentiles from raw samples.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        assert!(!samples.is_empty());
        samples.sort();
        let idx = |q: f64| (((samples.len() - 1) as f64) * q).round() as usize;
        Percentiles {
            p5: samples[idx(0.05)],
            median: samples[idx(0.5)],
            p95: samples[idx(0.95)],
        }
    }
}

/// Verification-time percentiles across `seeds` independent experiments
/// (each with its own workload and schedule): single-threaded Karousos,
/// parallel Karousos, Orochi-JS, sequential re-execution.
pub fn verification_with_seeds(
    app: App,
    mix: Mix,
    requests: usize,
    concurrency: usize,
    seeds: u64,
    verify_threads: usize,
) -> (Percentiles, Percentiles, Percentiles, Percentiles) {
    let mut karousos = Vec::new();
    let mut karousos_parallel = Vec::new();
    let mut orochi = Vec::new();
    let mut sequential = Vec::new();
    for seed in 0..seeds.max(1) {
        let row = verification(app, mix, requests, concurrency, seed, 1, verify_threads);
        karousos.push(row.karousos);
        karousos_parallel.push(row.karousos_parallel);
        orochi.push(row.orochi);
        sequential.push(row.sequential);
    }
    (
        Percentiles::from_samples(karousos),
        Percentiles::from_samples(karousos_parallel),
        Percentiles::from_samples(orochi),
        Percentiles::from_samples(sequential),
    )
}

/// Server-overhead percentiles across `seeds` independent experiments.
pub fn server_overhead_with_seeds(
    app: App,
    mix: Mix,
    requests: usize,
    concurrency: usize,
    seeds: u64,
) -> (Percentiles, Percentiles) {
    let mut unmodified = Vec::new();
    let mut karousos = Vec::new();
    for seed in 0..seeds.max(1) {
        let row = server_overhead(app, mix, requests, concurrency, seed, 1);
        unmodified.push(row.unmodified);
        karousos.push(row.karousos);
    }
    (
        Percentiles::from_samples(unmodified),
        Percentiles::from_samples(karousos),
    )
}
