//! The in-process audit matrix, defined once.
//!
//! An audit's outcome — verdict, statistics, fuel bill and, on
//! rejection, the exact [`RejectReason`] — must not depend on how it
//! was run: worker threads {1, 4} × telemetry {noop, enabled}.
//! [`audit_matrix`] runs every point, asserts they agree and returns the
//! outcome they share, so a test written against it checks its
//! expectation at all four points instead of at whichever one the
//! defaults pick. `Auditor::default()` — one thread, a noop handle — is
//! one of the points.

// Every test binary compiles this module and uses part of it.
#![allow(dead_code)]

use karousos::{
    encode_advice, Advice, AuditFailure, AuditReport, Auditor, Limits, ReexecStats, RejectReason,
};
use kem::{BinOp, Expr, Program, Trace};
use kvstore::IsolationLevel;
use obs::Obs;

/// What an ACCEPT reports, timing excluded: the one part of an
/// [`AuditReport`] that legitimately varies run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    pub reexec: ReexecStats,
    pub graph_nodes: usize,
    pub graph_edges: usize,
}

/// The comparable portion of an audit outcome.
pub type Outcome = Result<Accepted, RejectReason>;

pub fn comparable(r: Result<AuditReport, Box<AuditFailure>>) -> Outcome {
    r.map(|rep| Accepted {
        reexec: rep.reexec,
        graph_nodes: rep.graph_nodes,
        graph_edges: rep.graph_edges,
    })
    .map_err(|failure| failure.reason)
}

/// One way of running an audit.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub threads: usize,
    pub limits: Limits,
    /// Record into an enabled [`Obs`] handle instead of a noop one.
    pub obs: bool,
}

impl Point {
    /// The auditor for this point, with a handle of its own.
    pub fn auditor(self) -> Auditor {
        let obs = if self.obs {
            Obs::enabled()
        } else {
            Obs::noop()
        };
        Auditor {
            threads: self.threads,
            limits: self.limits,
            obs,
            ..Auditor::default()
        }
    }
}

/// The thread counts of the standard matrix.
pub const THREADS: [usize; 2] = [1, 4];

/// `threads` × obs {noop, enabled}, every point under `limits`.
pub fn matrix_with(threads: &[usize], limits: Limits) -> Vec<Point> {
    let mut points = Vec::new();
    for &threads in threads {
        for obs in [false, true] {
            points.push(Point {
                threads,
                limits,
                obs,
            });
        }
    }
    points
}

/// The standard matrix: [`THREADS`] under the default limits.
pub fn matrix() -> Vec<Point> {
    matrix_with(&THREADS, Limits::default())
}

/// The advice as a test holds it: decoded, or in its wire form.
/// Decoded advice is encoded first; the audit takes bytes.
#[derive(Clone, Copy)]
pub enum AdviceIn<'a> {
    Decoded(&'a Advice),
    Encoded(&'a [u8]),
}

impl<'a> AdviceIn<'a> {
    fn bytes(self) -> std::borrow::Cow<'a, [u8]> {
        match self {
            AdviceIn::Decoded(advice) => encode_advice(advice).into(),
            AdviceIn::Encoded(bytes) => bytes.into(),
        }
    }
}

impl<'a> From<&'a Advice> for AdviceIn<'a> {
    fn from(advice: &'a Advice) -> Self {
        AdviceIn::Decoded(advice)
    }
}

impl<'a> From<&'a [u8]> for AdviceIn<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        AdviceIn::Encoded(bytes)
    }
}

impl<'a> From<&'a Vec<u8>> for AdviceIn<'a> {
    fn from(bytes: &'a Vec<u8>) -> Self {
        AdviceIn::Encoded(bytes)
    }
}

/// Audits at one point.
pub fn audit_at<'a>(
    program: &Program,
    trace: &Trace,
    advice: impl Into<AdviceIn<'a>>,
    isolation: IsolationLevel,
    point: Point,
) -> Outcome {
    let bytes = advice.into().bytes();
    comparable(point.auditor().audit(program, trace, &bytes, isolation))
}

/// Audits at every one of `points`, asserts that they agree and returns
/// the common outcome. `label` names the input in the failure message.
#[track_caller]
pub fn audit_points<'a>(
    program: &Program,
    trace: &Trace,
    advice: impl Into<AdviceIn<'a>>,
    isolation: IsolationLevel,
    points: &[Point],
    label: &str,
) -> Outcome {
    // Encoded once, not once a point.
    let bytes = advice.into().bytes();
    let advice = &bytes[..];
    let (first, rest) = points.split_first().expect("at least one point");
    let common = audit_at(program, trace, advice, isolation, *first);
    for point in rest {
        let outcome = audit_at(program, trace, advice, isolation, *point);
        assert_eq!(
            common, outcome,
            "{label}: outcome at {first:?} differs from outcome at {point:?}"
        );
    }
    common
}

/// [`audit_points`] over the standard [`matrix`]: the drop-in for a
/// plain `Auditor::default().audit` call in a test.
#[track_caller]
pub fn audit_matrix<'a>(
    program: &Program,
    trace: &Trace,
    advice: impl Into<AdviceIn<'a>>,
    isolation: IsolationLevel,
) -> Outcome {
    audit_points(program, trace, advice, isolation, &matrix(), "audit matrix")
}

/// An outcome in the columns the pinned tables under `tests/` use:
/// `ACCEPT` and its fingerprint, or the reject kind and full message —
/// the message names the coordinate a rejection reports.
pub fn verdict_columns(outcome: &Outcome) -> String {
    match outcome {
        Ok(a) => format!(
            "ACCEPT\tgroups={} fuel={} nodes={} edges={}",
            a.reexec.groups, a.reexec.fuel_spent, a.graph_nodes, a.graph_edges
        ),
        Err(reason) => format!(
            "{}\t{}",
            reason.kind(),
            reason.to_string().replace(['\n', '\t'], " ")
        ),
    }
}

/// Holds the rows a test produced against the `pinned` rows of
/// `tests/<table>.tsv`. On a difference, writes `<table>.actual.tsv`
/// (`table` may carry a `.section` suffix) to `CARGO_TARGET_TMPDIR` and
/// panics with the rows that moved.
#[track_caller]
pub fn assert_pinned(table: &str, pinned: &str, actual: &str) {
    if pinned == actual {
        return;
    }
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{table}.actual.tsv"));
    std::fs::write(&path, actual).expect("the actual rows are writable");
    let (pinned, actual): (Vec<&str>, Vec<&str>) =
        (pinned.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    for i in 0..pinned.len().max(actual.len()) {
        let (p, a) = (pinned.get(i), actual.get(i));
        if p != a {
            let (p, a) = (p.unwrap_or(&"<missing>"), a.unwrap_or(&"<missing>"));
            diff.push_str(&format!("row {}:\n  pinned: {p}\n  actual: {a}\n", i + 1));
        }
    }
    panic!(
        "rows moved against tests/{table} ({} pinned, {} produced; actual rows written to {}):\n{diff}",
        pinned.len(),
        actual.len(),
        path.display()
    );
}

/// Deterministic splitmix64 for program generators: each seed names one
/// program.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize].clone()
    }

    /// Between `lo` and `hi` draws of `one`, concatenated.
    pub fn several<T>(&mut self, lo: u64, hi: u64, one: impl Fn(&mut Rng) -> Vec<T>) -> Vec<T> {
        let n = lo + self.below(hi - lo + 1);
        (0..n).flat_map(|_| one(self)).collect()
    }
}

/// `a op b`, for the operators `kem::dsl` has no helper for.
pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}
