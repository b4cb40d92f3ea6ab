//! Structured span tracing with a fixed-capacity ring-buffer
//! recorder and a Chrome `trace_event` JSON exporter.
//!
//! Spans are *complete events*: name, lane (rendered as a Chrome
//! `tid`, one lane per verifier worker), start timestamp relative to
//! the recorder's epoch, and duration, plus up to
//! [`MAX_SPAN_ARGS`] small integer arguments (group id, group size,
//! handler-tree digest, ...). The export loads directly into
//! `chrome://tracing` or <https://ui.perfetto.dev>.

/// Maximum number of `(key, value)` arguments a span carries inline.
pub const MAX_SPAN_ARGS: usize = 4;

/// One completed span. `Copy` and heap-free: names and argument keys
/// are `'static`, values are integers.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Human-readable span name (Chrome `name`).
    pub name: &'static str,
    /// Category tag (Chrome `cat`).
    pub cat: &'static str,
    /// Lane the span ran on: worker index for group replay, 0 for the
    /// coordinator phases. Rendered as the Chrome `tid`.
    pub lane: u32,
    /// Start time in microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Inline arguments; `None` slots are unused.
    pub args: [Option<(&'static str, u64)>; MAX_SPAN_ARGS],
}

impl Span {
    /// Builds the inline argument array from a slice (extra entries
    /// beyond [`MAX_SPAN_ARGS`] are dropped).
    pub fn pack_args(args: &[(&'static str, u64)]) -> [Option<(&'static str, u64)>; MAX_SPAN_ARGS] {
        let mut packed = [None; MAX_SPAN_ARGS];
        for (slot, kv) in packed.iter_mut().zip(args.iter()) {
            *slot = Some(*kv);
        }
        packed
    }
}

/// Fixed-capacity ring buffer of spans. Once full, the oldest span is
/// overwritten and the drop is counted (surfaced as the
/// `spans_dropped` counter by the registry).
#[derive(Debug, Clone)]
pub struct SpanRing {
    cap: usize,
    buf: Vec<Span>,
    head: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding at most `cap` spans (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        SpanRing {
            cap: cap.max(1),
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Record one span, overwriting the oldest if the ring is full.
    pub fn push(&mut self, s: Span) {
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of spans overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans in insertion order (oldest first).
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Renders spans as Chrome `trace_event` JSON (the "JSON array
/// format" wrapped in a `traceEvents` object), loadable in
/// `chrome://tracing` and Perfetto. Each span becomes a complete
/// (`"ph": "X"`) event; the lane becomes the `tid`.
pub(crate) fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{",
            s.name, s.cat, s.lane, s.ts_us, s.dur_us
        ));
        let mut first = true;
        for kv in s.args.iter().flatten() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", kv.0, kv.1));
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: u32, ts: u64) -> Span {
        Span {
            name,
            cat: "test",
            lane,
            ts_us: ts,
            dur_us: 5,
            args: Span::pack_args(&[("k", 1)]),
        }
    }

    #[test]
    fn ring_keeps_insertion_order_before_wrap() {
        let mut r = SpanRing::new(4);
        for i in 0..3 {
            r.push(span("a", 0, i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|s| s.ts_us).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut r = SpanRing::new(3);
        for i in 0..5 {
            r.push(span("a", 0, i));
        }
        let snap = r.snapshot();
        assert_eq!(
            snap.iter().map(|s| s.ts_us).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn chrome_export_shape() {
        let spans = [span("replay", 2, 10)];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"replay\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"args\":{\"k\":1}"));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn pack_args_drops_extras() {
        let packed = Span::pack_args(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        assert_eq!(
            packed,
            [
                Some(("a", 1)),
                Some(("b", 2)),
                Some(("c", 3)),
                Some(("d", 4))
            ]
        );
    }
}
