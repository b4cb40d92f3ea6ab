//! Named-instrument metrics registry: counters, gauges, and
//! fixed-bucket histograms.
//!
//! The registry is *catalog-based*: every instrument is a variant of
//! [`CounterId`], [`GaugeId`], or [`HistogramId`], so a shard's
//! storage is a handful of fixed-size inline arrays — creating a
//! shard performs **no heap allocation**, and recording into one is a
//! branch plus an array store. Shards are merged deterministically
//! (counters and histogram buckets add; the absorbing side's gauge
//! wins only when the absorbed shard never set it), mirroring the
//! ascending-group-order merge the verifier already uses for edge
//! fragments.

/// Number of histogram buckets: powers of two `2^0 .. 2^14` plus one
/// overflow bucket.
pub const NUM_BUCKETS: usize = 16;

/// Monotone counters tracked by the audit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Request groups formed from the advice tags.
    GroupsFormed,
    /// Replay operations executed once per group (multivalue collapse
    /// numerator; see also [`CounterId::ExpandedOps`]).
    UniformOps,
    /// Replay operations after per-request expansion (multivalue
    /// collapse denominator).
    ExpandedOps,
    /// Reads fed from the advice dictionary (nearest R-preceding
    /// write) instead of a logged entry.
    DictFeeds,
    /// Reads satisfied by a logged var-log entry.
    LoggedReads,
    /// Var-log entries shipped in the advice: R-concurrent accesses
    /// the collector logged, plus their backfilled dictating writes.
    RConcurrentOpsLogged,
    /// Handler-log entries recorded by the collector / consumed by
    /// the verifier.
    HandlerOpsLogged,
    /// Transaction-log entries recorded / consumed.
    TxOpsLogged,
    /// Nondeterministic values recorded / consumed.
    NondetLogged,
    /// Time-precedence edges added to the execution graph.
    EdgesTime,
    /// Program-order edges added.
    EdgesProgram,
    /// Request/response boundary edges added.
    EdgesBoundary,
    /// Activation edges added.
    EdgesActivation,
    /// Handler-log precedence edges added.
    EdgesHandlerLog,
    /// External-state (kv PUT→GET) write-read edges added.
    EdgesExternalWr,
    /// Internal-state write-read edges added.
    EdgesVarWr,
    /// Internal-state write-write edges added.
    EdgesVarWw,
    /// Internal-state read-write (anti-dependency) edges added.
    EdgesVarRw,
    /// Nodes visited by the cycle check's DFS.
    CycleCheckVisits,
    /// Advice bytes decoded from the wire format.
    BytesDecoded,
    /// String bytes the decode phase copied out of the wire buffer
    /// into owned storage (the zero-copy decoder's residual copies).
    DecodeBytesCopied,
    /// Spans dropped because the ring-buffer recorder wrapped.
    SpansDropped,
    /// Replay fuel spent across all groups (one unit per statement
    /// executed and expression node evaluated; deterministic at every
    /// thread count).
    ReplayFuelSpent,
    /// Bytecode instructions dispatched by the replay loop across all
    /// groups.
    BytecodeOps,
}

impl CounterId {
    /// Every counter, in catalog order.
    pub const ALL: [CounterId; 24] = [
        CounterId::GroupsFormed,
        CounterId::UniformOps,
        CounterId::ExpandedOps,
        CounterId::DictFeeds,
        CounterId::LoggedReads,
        CounterId::RConcurrentOpsLogged,
        CounterId::HandlerOpsLogged,
        CounterId::TxOpsLogged,
        CounterId::NondetLogged,
        CounterId::EdgesTime,
        CounterId::EdgesProgram,
        CounterId::EdgesBoundary,
        CounterId::EdgesActivation,
        CounterId::EdgesHandlerLog,
        CounterId::EdgesExternalWr,
        CounterId::EdgesVarWr,
        CounterId::EdgesVarWw,
        CounterId::EdgesVarRw,
        CounterId::CycleCheckVisits,
        CounterId::BytesDecoded,
        CounterId::DecodeBytesCopied,
        CounterId::SpansDropped,
        CounterId::ReplayFuelSpent,
        CounterId::BytecodeOps,
    ];

    /// Number of counters in the catalog.
    pub const COUNT: usize = CounterId::ALL.len();

    /// Stable snake_case instrument name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::GroupsFormed => "groups_formed",
            CounterId::UniformOps => "uniform_ops",
            CounterId::ExpandedOps => "expanded_ops",
            CounterId::DictFeeds => "dict_feeds",
            CounterId::LoggedReads => "logged_reads",
            CounterId::RConcurrentOpsLogged => "r_concurrent_ops_logged",
            CounterId::HandlerOpsLogged => "handler_ops_logged",
            CounterId::TxOpsLogged => "tx_ops_logged",
            CounterId::NondetLogged => "nondet_logged",
            CounterId::EdgesTime => "edges_time",
            CounterId::EdgesProgram => "edges_program",
            CounterId::EdgesBoundary => "edges_boundary",
            CounterId::EdgesActivation => "edges_activation",
            CounterId::EdgesHandlerLog => "edges_handler_log",
            CounterId::EdgesExternalWr => "edges_external_wr",
            CounterId::EdgesVarWr => "edges_wr",
            CounterId::EdgesVarWw => "edges_ww",
            CounterId::EdgesVarRw => "edges_rw",
            CounterId::CycleCheckVisits => "cycle_check_visits",
            CounterId::BytesDecoded => "bytes_decoded",
            CounterId::DecodeBytesCopied => "decode_bytes_copied",
            CounterId::SpansDropped => "spans_dropped",
            CounterId::ReplayFuelSpent => "replay_fuel_spent",
            CounterId::BytecodeOps => "bytecode_ops",
        }
    }
}

/// Point-in-time gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Execution-graph node count after preprocessing + merge.
    GraphNodes,
    /// Execution-graph edge count after preprocessing + merge.
    GraphEdges,
    /// Worker threads used by the parallel verifier.
    WorkerThreads,
    /// Replay-fuel budget remaining after the hungriest group
    /// (`limits.replay_fuel - max(per-group fuel spent)`) — how close
    /// the audit came to a `ResourceExhausted` verdict.
    FuelHeadroom,
}

impl GaugeId {
    /// Every gauge, in catalog order.
    pub const ALL: [GaugeId; 4] = [
        GaugeId::GraphNodes,
        GaugeId::GraphEdges,
        GaugeId::WorkerThreads,
        GaugeId::FuelHeadroom,
    ];

    /// Number of gauges in the catalog.
    pub const COUNT: usize = GaugeId::ALL.len();

    /// Stable snake_case instrument name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::GraphNodes => "graph_nodes",
            GaugeId::GraphEdges => "graph_edges",
            GaugeId::WorkerThreads => "worker_threads",
            GaugeId::FuelHeadroom => "fuel_headroom",
        }
    }
}

/// Fixed-bucket (power-of-two bounds) histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Requests per replay group.
    GroupSize,
    /// Wall-clock microseconds spent replaying one group.
    GroupReplayUs,
    /// Entries per variable log in the advice.
    VarLogLen,
    /// Replay fuel spent per group.
    GroupFuelSpent,
}

impl HistogramId {
    /// Every histogram, in catalog order.
    pub const ALL: [HistogramId; 4] = [
        HistogramId::GroupSize,
        HistogramId::GroupReplayUs,
        HistogramId::VarLogLen,
        HistogramId::GroupFuelSpent,
    ];

    /// Number of histograms in the catalog.
    pub const COUNT: usize = HistogramId::ALL.len();

    /// Stable snake_case instrument name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::GroupSize => "group_size",
            HistogramId::GroupReplayUs => "group_replay_us",
            HistogramId::VarLogLen => "var_log_len",
            HistogramId::GroupFuelSpent => "group_fuel_spent",
        }
    }
}

/// Upper bound (inclusive) of bucket `i`, or `None` for the overflow
/// bucket.
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < NUM_BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// Index of the bucket a value falls into: bucket `i` holds values
/// `v <= 2^i`; values above the last finite bound land in the
/// overflow bucket.
pub fn bucket_index(v: u64) -> usize {
    for i in 0..NUM_BUCKETS - 1 {
        if v <= (1u64 << i) {
            return i;
        }
    }
    NUM_BUCKETS - 1
}

/// One thread's (or one group's) worth of metrics: fixed inline
/// arrays, no heap storage. Disabled shards take the early-return
/// branch on every record call.
#[derive(Debug, Clone, Copy)]
pub struct MetricsShard {
    enabled: bool,
    counters: [u64; CounterId::COUNT],
    gauges: [Option<u64>; GaugeId::COUNT],
    buckets: [[u64; NUM_BUCKETS]; HistogramId::COUNT],
    sums: [u64; HistogramId::COUNT],
}

impl MetricsShard {
    /// A new shard; `enabled: false` makes every record call a no-op.
    pub fn new(enabled: bool) -> Self {
        MetricsShard {
            enabled,
            counters: [0; CounterId::COUNT],
            gauges: [None; GaugeId::COUNT],
            buckets: [[0; NUM_BUCKETS]; HistogramId::COUNT],
            sums: [0; HistogramId::COUNT],
        }
    }

    /// Whether record calls do anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub fn count(&mut self, c: CounterId, n: u64) {
        if self.enabled {
            self.counters[c as usize] = self.counters[c as usize].wrapping_add(n);
        }
    }

    /// Set gauge `g` to `v`.
    #[inline]
    pub fn gauge(&mut self, g: GaugeId, v: u64) {
        if self.enabled {
            self.gauges[g as usize] = Some(v);
        }
    }

    /// Record one observation of `v` in histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: HistogramId, v: u64) {
        if self.enabled {
            self.buckets[h as usize][bucket_index(v)] += 1;
            self.sums[h as usize] = self.sums[h as usize].wrapping_add(v);
        }
    }

    /// Fold `other` into `self`: counters and buckets add; a gauge set
    /// in `other` overwrites `self`'s (last-merged-wins, which is
    /// deterministic because shards are absorbed in ascending group
    /// order).
    pub fn merge(&mut self, other: &MetricsShard) {
        for i in 0..CounterId::COUNT {
            self.counters[i] = self.counters[i].wrapping_add(other.counters[i]);
        }
        for i in 0..GaugeId::COUNT {
            if let Some(v) = other.gauges[i] {
                self.gauges[i] = Some(v);
            }
        }
        for h in 0..HistogramId::COUNT {
            for b in 0..NUM_BUCKETS {
                self.buckets[h][b] += other.buckets[h][b];
            }
            self.sums[h] = self.sums[h].wrapping_add(other.sums[h]);
        }
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: CounterId) -> u64 {
        self.counters[c as usize]
    }

    /// Current value of gauge `g`, if it was ever set.
    pub fn gauge_value(&self, g: GaugeId) -> Option<u64> {
        self.gauges[g as usize]
    }

    /// Bucket counts of histogram `h`.
    pub fn histogram(&self, h: HistogramId) -> [u64; NUM_BUCKETS] {
        self.buckets[h as usize]
    }

    /// Total observations recorded in histogram `h`.
    pub fn histogram_count(&self, h: HistogramId) -> u64 {
        self.buckets[h as usize].iter().sum()
    }

    /// Sum of all values observed in histogram `h`.
    pub fn histogram_sum(&self, h: HistogramId) -> u64 {
        self.sums[h as usize]
    }

    /// Appends the shard's four sections of the metrics JSON export,
    /// without the enclosing braces:
    /// `"counters": {...}, "gauges": {...}, "histogram_bounds": [...],
    ///  "histograms": {"name": {"counts": [...], "total": n, "sum": n}}`.
    pub(crate) fn write_json_sections(&self, out: &mut String) {
        out.push_str("  \"counters\": {");
        for (i, c) in CounterId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match self.gauge_value(*g) {
                Some(v) => out.push_str(&format!("\n    \"{}\": {}", g.name(), v)),
                None => out.push_str(&format!("\n    \"{}\": null", g.name())),
            }
        }
        out.push_str("\n  },\n  \"histogram_bounds\": [");
        for i in 0..NUM_BUCKETS {
            if i > 0 {
                out.push(',');
            }
            match bucket_bound(i) {
                Some(b) => out.push_str(&b.to_string()),
                None => out.push_str("null"),
            }
        }
        out.push_str("],\n  \"histograms\": {");
        for (i, h) in HistogramId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{\"counts\": [", h.name()));
            let counts = self.histogram(*h);
            for (b, n) in counts.iter().enumerate() {
                if b > 0 {
                    out.push(',');
                }
                out.push_str(&n.to_string());
            }
            out.push_str(&format!(
                "], \"total\": {}, \"sum\": {}}}",
                self.histogram_count(*h),
                self.histogram_sum(*h)
            ));
        }
        out.push_str("\n  }");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_power_of_two_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 14), NUM_BUCKETS - 2);
        assert_eq!(bucket_index((1 << 14) + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_match_index() {
        for i in 0..NUM_BUCKETS {
            if let Some(b) = bucket_bound(i) {
                assert_eq!(bucket_index(b), i, "bound of bucket {i} maps back");
                if b > 1 {
                    assert_eq!(
                        bucket_index(b + 1),
                        i + 1,
                        "bound of bucket {i} is inclusive"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_shard_records_nothing() {
        let mut s = MetricsShard::new(false);
        s.count(CounterId::GroupsFormed, 7);
        s.gauge(GaugeId::GraphNodes, 9);
        s.observe(HistogramId::GroupSize, 3);
        assert_eq!(s.counter(CounterId::GroupsFormed), 0);
        assert_eq!(s.gauge_value(GaugeId::GraphNodes), None);
        assert_eq!(s.histogram_count(HistogramId::GroupSize), 0);
    }

    #[test]
    fn merge_is_deterministic_and_order_invariant_for_counters() {
        // Counters and histograms commute; merging shards in any order
        // yields the same totals (the verifier still merges in
        // ascending group order so that gauges are deterministic too).
        let mut shards = Vec::new();
        for k in 0..5u64 {
            let mut s = MetricsShard::new(true);
            s.count(CounterId::DictFeeds, k + 1);
            s.observe(HistogramId::GroupSize, k + 1);
            s.observe(HistogramId::GroupSize, 100 * (k + 1));
            shards.push(s);
        }
        let mut fwd = MetricsShard::new(true);
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = MetricsShard::new(true);
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.counter(CounterId::DictFeeds), 15);
        assert_eq!(rev.counter(CounterId::DictFeeds), 15);
        assert_eq!(
            fwd.histogram(HistogramId::GroupSize),
            rev.histogram(HistogramId::GroupSize)
        );
        assert_eq!(fwd.histogram_count(HistogramId::GroupSize), 10);
        assert_eq!(
            fwd.histogram_sum(HistogramId::GroupSize),
            (1..=5).map(|k| k + 100 * k).sum::<u64>()
        );
    }

    #[test]
    fn merge_gauge_last_wins() {
        let mut a = MetricsShard::new(true);
        a.gauge(GaugeId::WorkerThreads, 1);
        let mut b = MetricsShard::new(true);
        b.gauge(GaugeId::WorkerThreads, 4);
        let unset = MetricsShard::new(true);
        let mut m = MetricsShard::new(true);
        m.merge(&a);
        m.merge(&b);
        m.merge(&unset);
        assert_eq!(m.gauge_value(GaugeId::WorkerThreads), Some(4));
    }

    #[test]
    fn json_sections_mention_every_instrument() {
        let mut s = MetricsShard::new(true);
        s.count(CounterId::EdgesTime, 3);
        let mut json = String::new();
        s.write_json_sections(&mut json);
        for c in CounterId::ALL {
            assert!(
                json.contains(&format!("\"{}\"", c.name())),
                "missing {}",
                c.name()
            );
        }
        for g in GaugeId::ALL {
            assert!(json.contains(&format!("\"{}\"", g.name())));
        }
        for h in HistogramId::ALL {
            assert!(json.contains(&format!("\"{}\"", h.name())));
        }
        assert!(json.contains("\"edges_time\": 3"));
    }
}
