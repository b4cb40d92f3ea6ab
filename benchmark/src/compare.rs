//! `compare <a.json> <b.json>`: for every workload and end-to-end
//! metric, how much worse `b`'s median is than `a`'s, judged against the
//! bound `BENCHMARK.json` fixes for the metric.
//!
//! * `ok` — not worse by more than the bound;
//! * `worse` — worse by more than the bound;
//! * `unresolved` — either side's runs spread (interquartile distance
//!   over the median) wider than the bound, so the difference cannot be
//!   told from noise. Needs at least two runs a side (`--runs`).
//!
//! One row per workload. Exits 1 if anything is `worse`.

use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Worse,
    Unresolved,
}

pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Vec<Bound> {
    let spec = json::parse(benchmark_json).expect("BENCHMARK.json is JSON");
    spec.get("end_to_end")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`'s median: positive
/// is worse in the metric's own direction.
pub fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Status) {
    let change = worsening(a, b, bound.lower_is_better);
    let noisy = |xs: &[f64]| xs.len() >= 2 && spread(xs) > bound.bound;
    let status = if noisy(a) || noisy(b) {
        Status::Unresolved
    } else if change > bound.bound {
        Status::Worse
    } else {
        Status::Ok
    };
    (change, status)
}

/// Every run's value of `metric` on `workload`.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Value::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn workloads(file: &Value) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in file.get("runs").map_or(&[][..], Value::as_arr) {
        if let Some(name) = run.get("workload").and_then(Value::as_str) {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let bounds = bounds(crate::BENCHMARK_JSON);
    let mut any_worse = false;
    for workload in workloads(&a) {
        let mut row = format!("{workload:<20}");
        for bound in &bounds {
            let (va, vb) = (
                values(&a, &workload, &bound.name),
                values(&b, &workload, &bound.name),
            );
            if va.is_empty() || vb.is_empty() {
                row.push_str(&format!("  {}: missing", bound.name));
                continue;
            }
            let (change, status) = judge(&va, &vb, bound);
            any_worse |= status == Status::Worse;
            row.push_str(&format!(
                "  {} {:+.1}% (bound {:.1}%) {}",
                bound.name,
                change * 100.0,
                bound.bound * 100.0,
                match status {
                    Status::Ok => "ok",
                    Status::Worse => "worse",
                    Status::Unresolved => "unresolved",
                }
            ));
        }
        println!("{row}");
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(&[100.0], &[110.0], true) - 0.1).abs() < 1e-12);
        assert!((worsening(&[100.0], &[110.0], false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let steady_a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&steady_a, &[104.0, 105.0, 103.0], &bound(true, 0.1)).1,
            Status::Ok
        );
        assert_eq!(
            judge(&steady_a, &[120.0, 121.0, 119.0], &bound(true, 0.1)).1,
            Status::Worse
        );
        assert_eq!(
            judge(&steady_a, &[80.0, 81.0, 79.0], &bound(true, 0.1)).1,
            Status::Ok
        );
        assert_eq!(
            judge(
                &[80.0, 100.0, 120.0, 140.0],
                &[100.0, 101.0],
                &bound(true, 0.1)
            )
            .1,
            Status::Unresolved
        );
        // One run a side: no spread to judge, only the change.
        assert_eq!(judge(&[100.0], &[100.0], &bound(true, 0.0)).1, Status::Ok);
    }

    #[test]
    fn reads_the_bounds_benchmark_json_fixes() {
        let bounds = bounds(crate::BENCHMARK_JSON);
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && b.lower_is_better));
        assert!(bounds.iter().all(|b| b.bound <= 0.25));
    }
}
