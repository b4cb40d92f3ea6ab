//! `karousos-obs`: zero-dependency observability for the Karousos
//! audit pipeline.
//!
//! Four pieces:
//!
//! 1. **Metrics registry** ([`metrics`]) — catalog-addressed
//!    counters, gauges, and fixed-bucket histograms stored in inline
//!    arrays, recorded into per-thread [`ObsShard`]s and merged
//!    deterministically (the same discipline as the verifier's
//!    per-variable edge fragments).
//! 2. **Span tracing** ([`span`]) — a heap-free [`Span`] record, a
//!    ring-buffer recorder, and a Chrome `trace_event` exporter.
//! 3. **Layers** ([`layer`]) — the one list of audit stages and the
//!    [`LayerClock`] the audit moves through them with.
//! 4. **The [`Obs`] handle** — `Obs::noop()` is the default
//!    everywhere: it holds no allocation, and every record call is an
//!    inlined early return, so the instrumented hot path costs
//!    nothing when observability is off (the PR 3 alloc-regression
//!    budget is enforced against this path). `Obs::enabled()` turns
//!    on recording behind one `Arc<Mutex<_>>`; worker threads never
//!    touch the lock — they record into private [`ObsShard`]s that
//!    the coordinator absorbs in ascending group order. Everything
//!    recorded leaves through one [`Snapshot`], rendered two ways: the
//!    metrics JSON and the Chrome trace. The crate renders strings; it
//!    starts no thread and touches no file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocprobe;
pub mod layer;
pub mod ledger;
pub mod metrics;
pub mod progress;
pub mod span;

pub use layer::{Layer, LayerClock, PhaseTiming};
pub use ledger::{CostLedger, GroupCost, LedgerTotals, RequestCost};
pub use metrics::{
    bucket_bound, bucket_index, CounterId, GaugeId, HistogramId, MetricsShard, NUM_BUCKETS,
};
pub use progress::{Progress, ProgressSnapshot};
pub use span::{Span, SpanRing, MAX_SPAN_ARGS};

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default ring-buffer capacity (spans retained) for
/// [`Obs::enabled`].
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

struct Recorded {
    layers: PhaseTiming,
    metrics: MetricsShard,
    spans: SpanRing,
    ledger: CostLedger,
}

struct Inner {
    epoch: Instant,
    state: Mutex<Recorded>,
    progress: Progress,
}

/// Cloneable observability handle. The noop handle is a `None` and
/// costs one branch per record call; the enabled handle records
/// through a mutex (coordinator-only — workers use [`ObsShard`]s).
#[derive(Clone)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl Obs {
    /// The disabled handle: no allocation, all record calls are
    /// early-return no-ops.
    #[inline]
    pub fn noop() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle with the default span-ring capacity.
    pub fn enabled() -> Self {
        Obs::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled handle retaining at most `span_capacity` spans.
    pub fn with_capacity(span_capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(Recorded {
                    layers: PhaseTiming::default(),
                    metrics: MetricsShard::new(true),
                    spans: SpanRing::new(span_capacity),
                    ledger: CostLedger::default(),
                }),
                progress: Progress::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mints a private shard for lane `lane` (worker index). Shard
    /// creation is allocation-free; record into it without locks and
    /// hand it back via [`Obs::absorb`].
    pub fn shard(&self, lane: u32) -> ObsShard {
        match &self.inner {
            Some(inner) => ObsShard {
                lane,
                epoch: inner.epoch,
                metrics: MetricsShard::new(true),
                spans: Vec::new(),
                group_costs: Vec::new(),
            },
            None => ObsShard::disabled(),
        }
    }

    /// Folds a shard's metrics and spans into the handle. Call in a
    /// deterministic order (the verifier absorbs group shards in
    /// ascending group order).
    pub fn absorb(&self, shard: ObsShard) {
        let Some(inner) = &self.inner else { return };
        if !shard.metrics.is_enabled() {
            return;
        }
        if let Ok(mut st) = inner.state.lock() {
            st.metrics.merge(&shard.metrics);
            for s in shard.spans {
                st.spans.push(s);
            }
            st.ledger.groups.extend(shard.group_costs);
        }
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub fn count(&self, c: CounterId, n: u64) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut st) = inner.state.lock() {
            st.metrics.count(c, n);
        }
    }

    /// Set gauge `g` to `v`.
    #[inline]
    pub fn gauge(&self, g: GaugeId, v: u64) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut st) = inner.state.lock() {
            st.metrics.gauge(g, v);
        }
    }

    /// Record one observation of `v` in histogram `h`.
    #[inline]
    pub fn observe(&self, h: HistogramId, v: u64) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut st) = inner.state.lock() {
            st.metrics.observe(h, v);
        }
    }

    /// Start-of-span timestamp; `None` when disabled, so the matching
    /// [`Obs::record_span`] is free.
    #[inline]
    pub fn span_start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Completes a span opened with [`Obs::span_start`] on `lane` and
    /// records it. Returns the span duration in microseconds (0 when
    /// disabled).
    pub fn record_span(
        &self,
        name: &'static str,
        lane: u32,
        start: Option<Instant>,
        args: &[(&'static str, u64)],
    ) -> u64 {
        let (Some(inner), Some(start)) = (&self.inner, start) else {
            return 0;
        };
        let ts_us = start.duration_since(inner.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        if let Ok(mut st) = inner.state.lock() {
            st.spans.push(Span {
                name,
                cat: "audit",
                lane,
                ts_us,
                dur_us,
                args: Span::pack_args(args),
            });
        }
        dur_us
    }

    /// Everything recorded so far, read under one acquisition of the
    /// state lock: the layer timing, the counters and the ledger of a
    /// mid-flight snapshot are of the same instant. Empty (and the
    /// metrics a disabled shard) when the handle is noop.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            layers: PhaseTiming::default(),
            metrics: MetricsShard::new(false),
            progress: ProgressSnapshot::default(),
            ledger: CostLedger::default(),
            spans: Vec::new(),
        };
        if let Some(inner) = &self.inner {
            if let Ok(st) = inner.state.lock() {
                snap.layers = st.layers;
                snap.metrics = st.metrics;
                // A saturated ring is visible in every export.
                snap.metrics
                    .count(CounterId::SpansDropped, st.spans.dropped());
                snap.progress = inner.progress.snapshot();
                snap.ledger = st.ledger.clone();
                snap.spans = st.spans.snapshot();
            }
        }
        // The ring holds spans in completion order, a layer after the
        // spans nested in it; exports list them by start.
        snap.spans.sort_by_key(|s| s.ts_us);
        snap
    }

    /// Appends one served-request row to the ledger. The collector
    /// calls this once per request, in ascending request order, after
    /// the server run completes.
    pub fn record_request_cost(&self, cost: RequestCost) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut st) = inner.state.lock() {
            st.ledger.requests.push(cost);
        }
    }

    /// A point-in-time progress reading (all-zero idle when noop).
    pub fn progress_snapshot(&self) -> ProgressSnapshot {
        match &self.inner {
            Some(inner) => inner.progress.snapshot(),
            None => ProgressSnapshot::default(),
        }
    }

    /// [`LayerClock`]'s heartbeat move.
    #[inline]
    pub(crate) fn progress_layer(&self, layer: Layer) {
        if let Some(inner) = &self.inner {
            inner.progress.set_phase(layer);
        }
    }

    /// [`LayerClock`]'s sink: `own` more wall time in `layer` and, when
    /// the layer ends here, its lane-0 span (start, extent, `args`).
    pub(crate) fn layer_time(
        &self,
        layer: Layer,
        own: Duration,
        span: Option<(Instant, Duration)>,
        args: &[(&'static str, u64)],
    ) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut st) = inner.state.lock() {
            st.layers.add(layer, own);
            if let Some((start, extent)) = span {
                st.spans.push(Span {
                    name: layer.name(),
                    cat: "audit",
                    lane: 0,
                    ts_us: start.duration_since(inner.epoch).as_micros() as u64,
                    dur_us: extent.as_micros() as u64,
                    args: Span::pack_args(args),
                });
            }
        }
    }

    /// Announce the replay's total group count.
    #[inline]
    pub fn progress_replay_total(&self, total: u64) {
        if let Some(inner) = &self.inner {
            inner.progress.set_replay_total(total);
        }
    }

    /// One group finished replaying, spending `fuel`.
    #[inline]
    pub fn progress_group_replayed(&self, fuel: u64) {
        if let Some(inner) = &self.inner {
            inner.progress.group_replayed(fuel);
        }
    }

    /// A group hard-failed; lower the early-abort floor.
    #[inline]
    pub fn progress_floor(&self, group: u64) {
        if let Some(inner) = &self.inner {
            inner.progress.note_floor(group);
        }
    }
}

/// One reading of everything an [`Obs`] handle holds ([`Obs::snapshot`]),
/// and the two exports rendered from it: [`Snapshot::to_json`] (the
/// shape `schema/metrics.schema.json` pins) and
/// [`Snapshot::to_chrome_trace`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall clock per audit layer.
    pub layers: PhaseTiming,
    /// The merged metrics, with the span ring's drop count folded into
    /// `spans_dropped`.
    pub metrics: MetricsShard,
    /// The progress heartbeat.
    pub progress: ProgressSnapshot,
    /// The per-group / per-request cost ledger.
    pub ledger: CostLedger,
    /// The retained spans, by start time.
    pub spans: Vec<Span>,
}

impl Snapshot {
    /// The metrics JSON export: the registry's sections, then
    /// `"progress"`, `"ledger"` and `"layers"`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048 + self.ledger.groups.len() * 160);
        out.push_str("{\n");
        self.metrics.write_json_sections(&mut out);
        for (key, section) in [
            ("progress", self.progress.to_json()),
            ("ledger", self.ledger.to_json()),
            ("layers", self.layers.to_json()),
        ] {
            out.push_str(&format!(",\n  \"{key}\": {section}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Chrome `trace_event` JSON of the retained spans.
    pub fn to_chrome_trace(&self) -> String {
        span::chrome_trace_json(&self.spans)
    }
}

/// A lock-free, allocation-free-at-rest recording surface for one
/// lane (worker). Created via [`Obs::shard`] (or
/// [`ObsShard::disabled`] for the default noop), filled locally, and
/// handed back to the handle with [`Obs::absorb`].
#[derive(Debug, Clone)]
pub struct ObsShard {
    lane: u32,
    epoch: Instant,
    /// The shard's metrics (public so absorbers can inspect/merge).
    pub metrics: MetricsShard,
    spans: Vec<Span>,
    group_costs: Vec<GroupCost>,
}

impl Default for ObsShard {
    fn default() -> Self {
        ObsShard::disabled()
    }
}

impl ObsShard {
    /// A disabled shard: every record call is a no-op and no heap is
    /// touched.
    pub fn disabled() -> Self {
        ObsShard {
            lane: 0,
            epoch: Instant::now(),
            metrics: MetricsShard::new(false),
            spans: Vec::new(),
            group_costs: Vec::new(),
        }
    }

    /// Whether record calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub fn count(&mut self, c: CounterId, n: u64) {
        self.metrics.count(c, n);
    }

    /// Record one observation of `v` in histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: HistogramId, v: u64) {
        self.metrics.observe(h, v);
    }

    /// Start-of-span timestamp; `None` when disabled.
    #[inline]
    pub fn span_start(&self) -> Option<Instant> {
        if self.metrics.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a span opened with [`ObsShard::span_start`] and
    /// records it locally. Returns the duration in microseconds (0
    /// when disabled).
    pub fn record_span(
        &mut self,
        name: &'static str,
        start: Option<Instant>,
        args: &[(&'static str, u64)],
    ) -> u64 {
        let Some(start) = start else { return 0 };
        let ts_us = start.duration_since(self.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            cat: "audit",
            lane: self.lane,
            ts_us,
            dur_us,
            args: Span::pack_args(args),
        });
        dur_us
    }

    /// Records one group's cost-ledger row (no-op when disabled). The
    /// rows land in the assembled [`CostLedger`] in absorb order — the
    /// verifier absorbs shards in ascending group order, which is what
    /// keeps the ledger bit-identical across replay configurations.
    pub fn record_group_cost(&mut self, cost: GroupCost) {
        if self.metrics.is_enabled() {
            self.group_costs.push(cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_and_shards_are_disabled() {
        let obs = Obs::noop();
        obs.count(CounterId::GroupsFormed, 3);
        let t = obs.span_start();
        assert!(t.is_none());
        assert_eq!(obs.record_span("x", 0, t, &[]), 0);
        let mut shard = obs.shard(5);
        assert!(!shard.is_enabled());
        shard.count(CounterId::GroupsFormed, 3);
        let st = shard.span_start();
        assert!(st.is_none());
        obs.absorb(shard);
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.counter(CounterId::GroupsFormed), 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn enabled_handle_merges_shards_and_orders_spans() {
        let obs = Obs::with_capacity(8);
        let t = obs.span_start();
        obs.record_span("preprocess", 0, t, &[]);
        let mut a = obs.shard(1);
        a.count(CounterId::DictFeeds, 2);
        let ta = a.span_start();
        a.record_span("group-replay", ta, &[("group", 0)]);
        let mut b = obs.shard(2);
        b.count(CounterId::DictFeeds, 5);
        obs.absorb(a);
        obs.absorb(b);
        let Snapshot { metrics, spans, .. } = obs.snapshot();
        assert_eq!(metrics.counter(CounterId::DictFeeds), 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "preprocess");
        assert_eq!(spans[1].lane, 1);
        assert_eq!(spans[1].args[0], Some(("group", 0)));
    }
}
