//! Prometheus text-format exposition for a live audit.
//!
//! Three pieces, all std-only:
//!
//! * [`Snapshot::to_prometheus`] renders metrics + progress heartbeat +
//!   ledger totals + layer timing as Prometheus exposition format 0.0.4
//!   (counters as `*_total`, histograms with cumulative `le` buckets).
//! * [`check_exposition`] validates a rendered page (well-formed
//!   families, numeric non-negative samples, cumulative buckets) —
//!   CI's "is the scrape surface sane" gate, shared with the harness's
//!   `validate-prom` subcommand.
//! * [`PromExporter`] is the background thread: it periodically
//!   re-renders an `Obs` handle to a file (write-temp + atomic rename,
//!   so a textfile collector never reads a torn page), making a long
//!   audit scrapable mid-flight.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::layer::Layer;
use crate::metrics::{bucket_bound, CounterId, GaugeId, HistogramId};
use crate::{Obs, Snapshot};

/// Metric-name prefix for every exported family.
pub const PREFIX: &str = "karousos";

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders one scrape page: metrics, progress heartbeat, ledger totals
/// and layer timing.
pub(crate) fn prometheus_text(snap: &Snapshot) -> String {
    let (metrics, progress) = (&snap.metrics, &snap.progress);
    let mut out = String::with_capacity(8192);
    for c in CounterId::ALL {
        let name = format!("{PREFIX}_{}_total", c.name());
        family(&mut out, &name, "counter", "audit counter");
        out.push_str(&format!("{name} {}\n", metrics.counter(c)));
    }
    for g in GaugeId::ALL {
        let name = format!("{PREFIX}_{}", g.name());
        family(&mut out, &name, "gauge", "audit gauge");
        out.push_str(&format!("{name} {}\n", metrics.gauge_value(g).unwrap_or(0)));
    }
    for h in HistogramId::ALL {
        let name = format!("{PREFIX}_{}", h.name());
        family(&mut out, &name, "histogram", "audit histogram");
        let counts = metrics.histogram(h);
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            cumulative += n;
            match bucket_bound(i) {
                Some(b) => out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cumulative}\n")),
                None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
            }
        }
        out.push_str(&format!("{name}_sum {}\n", metrics.histogram_sum(h)));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
    // Progress heartbeat: gauges (they reset per audit run, but are
    // monotone within one run — the mid-flight liveness signal).
    let phase = format!("{PREFIX}_progress_phase");
    let ordinals: Vec<String> = Layer::ALL
        .iter()
        .map(|l| format!("{} {}", *l as u8, l.name()))
        .collect();
    let help = format!("audit phase ({})", ordinals.join(", "));
    family(&mut out, &phase, "gauge", &help);
    out.push_str(&format!("{phase} {}\n", progress.phase as u8));
    for (suffix, v) in [
        ("progress_groups_total", progress.groups_total),
        ("progress_groups_done", progress.groups_done),
        ("progress_fuel_spent", progress.fuel_spent),
    ] {
        let name = format!("{PREFIX}_{suffix}");
        family(&mut out, &name, "gauge", "audit progress");
        out.push_str(&format!("{name} {v}\n"));
    }
    let floor = format!("{PREFIX}_progress_failed_floor");
    family(
        &mut out,
        &floor,
        "gauge",
        "smallest hard-failed group (-1 when none)",
    );
    match progress.failed_floor {
        Some(g) => out.push_str(&format!("{floor} {g}\n")),
        None => out.push_str(&format!("{floor} -1\n")),
    }
    let t = snap.ledger.totals();
    for (suffix, v) in [
        ("ledger_groups", t.groups),
        ("ledger_requests", t.requests),
        ("ledger_fuel", t.fuel),
        ("ledger_ops", t.ops),
        ("ledger_dict_feeds", t.dict_feeds),
        ("ledger_var_accesses", t.var_accesses),
        ("ledger_alloc_events", t.alloc_events),
    ] {
        let name = format!("{PREFIX}_{suffix}");
        family(&mut out, &name, "gauge", "cost-ledger column sum");
        out.push_str(&format!("{name} {v}\n"));
    }
    let name = format!("{PREFIX}_layer_wall_us");
    family(&mut out, &name, "gauge", "wall clock per audit layer");
    for (layer, wall) in snap.layers.layers() {
        let (layer, us) = (layer.name(), wall.as_micros());
        out.push_str(&format!("{name}{{layer=\"{layer}\"}} {us}\n"));
    }
    out
}

/// Validates one exposition page: every sample belongs to a declared
/// `# TYPE` family, every value is a finite non-negative number
/// (except the `-1` floor sentinel, which is gauge-typed), counter
/// samples end in `_total`, and histogram buckets are cumulative with
/// ascending `le` bounds ending in `+Inf` and a matching `_count`.
pub fn check_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // Per-histogram running state: (last le bound, last cumulative
    // count, saw +Inf, final cumulative).
    let mut hist: HashMap<String, (f64, u64, bool, u64)> = HashMap::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return Err(format!("line {lineno}: malformed TYPE line"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown metric type {kind}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.split_once(' ') {
            Some(p) => p,
            None => return Err(format!("line {lineno}: sample has no value")),
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, l)) => {
                let Some(l) = l.strip_suffix('}') else {
                    return Err(format!("line {lineno}: unterminated label set"));
                };
                (n, Some(l))
            }
            None => (name_part, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        let value: f64 = value_part
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: non-numeric value {value_part:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite value"));
        }
        // The family is the name minus histogram sample suffixes.
        let fam = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                let base = name.strip_suffix(s)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name);
        let Some(kind) = types.get(fam) else {
            return Err(format!("line {lineno}: sample {name} has no TYPE family"));
        };
        samples += 1;
        match kind.as_str() {
            "counter" => {
                if !name.ends_with("_total") {
                    return Err(format!("line {lineno}: counter {name} must end in _total"));
                }
                if value < 0.0 {
                    return Err(format!("line {lineno}: negative counter {name}"));
                }
            }
            // Gauges may be negative only for the documented floor
            // sentinel.
            "gauge" if value < 0.0 && !(name.ends_with("failed_floor") && value == -1.0) => {
                return Err(format!("line {lineno}: unexpected negative gauge {name}"));
            }
            "gauge" => {}
            "histogram" => {
                if value < 0.0 {
                    return Err(format!("line {lineno}: negative histogram sample {name}"));
                }
                let entry =
                    hist.entry(fam.to_string())
                        .or_insert((f64::NEG_INFINITY, 0, false, u64::MAX));
                if name.ends_with("_bucket") {
                    let le = labels
                        .and_then(|l| l.strip_prefix("le=\""))
                        .and_then(|l| l.strip_suffix('"'))
                        .ok_or_else(|| format!("line {lineno}: bucket without le label"))?;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse()
                            .map_err(|_| format!("line {lineno}: bad le bound {le:?}"))?
                    };
                    if bound <= entry.0 {
                        return Err(format!("line {lineno}: le bounds not ascending in {fam}"));
                    }
                    if (value as u64) < entry.1 {
                        return Err(format!(
                            "line {lineno}: bucket counts not cumulative in {fam}"
                        ));
                    }
                    entry.0 = bound;
                    entry.1 = value as u64;
                    if bound.is_infinite() {
                        entry.2 = true;
                    }
                } else if name.ends_with("_count") {
                    entry.3 = value as u64;
                }
            }
            _ => {}
        }
    }
    for (fam, (_, last_cumulative, saw_inf, count)) in &hist {
        if !saw_inf {
            return Err(format!("histogram {fam} has no +Inf bucket"));
        }
        if *count != u64::MAX && count != last_cumulative {
            return Err(format!(
                "histogram {fam}: _count {count} != +Inf bucket {last_cumulative}"
            ));
        }
    }
    if samples == 0 {
        return Err("page contains no samples".to_string());
    }
    Ok(())
}

/// Writes `text` to `path` via a sibling temp file and an atomic
/// rename, so a concurrent reader always sees a complete page.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// How often the exporter re-renders when the caller passes no
/// interval.
pub const DEFAULT_SCRAPE_INTERVAL: Duration = Duration::from_millis(250);

/// Background exposition: one thread re-rendering an [`Obs`] handle to
/// a file until dropped or [`PromExporter::stop`] is called (both write
/// one final page, so the file always ends on the run's last state).
#[derive(Debug)]
pub struct PromExporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PromExporter {
    /// Starts the exporter: `file` is re-rendered every `interval` with
    /// an atomic rename.
    pub fn start(obs: Obs, file: PathBuf, interval: Duration) -> std::io::Result<PromExporter> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("prom-exporter".to_string())
            .spawn(move || loop {
                // Read before rendering, so the page written after a
                // stop request is the last one.
                let stopping = stop_flag.load(Ordering::SeqCst);
                let _ = write_atomic(&file, &obs.snapshot().to_prometheus());
                if stopping {
                    break;
                }
                std::thread::park_timeout(interval);
            })?;
        Ok(PromExporter {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the exporter after one final render, joining the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for PromExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsShard;
    use crate::progress::ProgressSnapshot;

    fn page() -> String {
        let mut m = MetricsShard::new(true);
        m.count(CounterId::GroupsFormed, 5);
        m.observe(HistogramId::GroupSize, 3);
        m.observe(HistogramId::GroupSize, 900);
        let progress = ProgressSnapshot {
            phase: Layer::Replay,
            groups_total: 5,
            groups_done: 2,
            fuel_spent: 77,
            failed_floor: None,
        };
        let snap = Snapshot {
            metrics: m,
            progress,
            ..Obs::noop().snapshot()
        };
        snap.to_prometheus()
    }

    #[test]
    fn rendered_page_validates() {
        let text = page();
        assert!(text.contains("karousos_groups_formed_total 5"));
        assert!(text.contains("karousos_progress_groups_done 2"));
        assert!(text.contains("karousos_ledger_fuel 0"));
        assert!(text.contains("karousos_progress_phase 4\n"));
        assert!(text.contains("karousos_layer_wall_us{layer=\"teardown\"} 0"));
        check_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = page();
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("karousos_group_size_bucket"))
            .unwrap_or("");
        assert!(last_bucket.contains("le=\"+Inf\""));
        assert!(last_bucket.ends_with(" 2"), "got {last_bucket:?}");
        assert!(text.contains("karousos_group_size_count 2"));
    }

    #[test]
    fn validator_rejects_breakage() {
        assert!(check_exposition("").is_err());
        assert!(check_exposition("orphan_sample 3\n").is_err());
        assert!(
            check_exposition("# TYPE x counter\nx 1\n").is_err(),
            "counter without _total must fail"
        );
        assert!(check_exposition("# TYPE x_total counter\nx_total nan\n").is_err());
        assert!(check_exposition("# TYPE x_total counter\nx_total -2\n").is_err());
        let noncumulative = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 0\nh_count 3\n";
        assert!(check_exposition(noncumulative).is_err());
        let ok = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        check_exposition(ok).unwrap_or_else(|e| panic!("{e}"));
    }
}
