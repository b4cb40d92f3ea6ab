//! In-memory span recorder for the traced run.
//!
//! One span per call into a layer: name, start, end, the span that
//! caused it, and the id of the operation (one traced audit) it belongs
//! to. Spans are kept in memory and written to `spans.json` when the
//! run ends. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::time::Instant;

use crate::alloc::{self, Snapshot};

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, the layer being the program module's name.
    pub name: &'static str,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The traced operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator readings at both ends (zero unless counting is on).
    pub alloc_start: Snapshot,
    pub alloc_end: Snapshot,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    pub fn alloc_events(&self) -> u64 {
        self.alloc_end.events - self.alloc_start.events
    }

    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_end.bytes - self.alloc_start.bytes
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        let snap = alloc::snapshot();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns: now,
            end_ns: now,
            alloc_start: snap,
            alloc_end: snap,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].alloc_end = alloc::snapshot();
    }

    /// Records a span the program timed itself and reported as a
    /// duration: placed so it ends where `parent` ends.
    pub fn reported(&mut self, name: &'static str, parent: usize, duration_ms: f64) {
        let end_ns = self.spans[parent].end_ns;
        let snap = self.spans[parent].alloc_end;
        let dur_ns = (duration_ms * 1e6) as u64;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            op: self.spans[parent].op,
            start_ns: end_ns
                .saturating_sub(dur_ns)
                .max(self.spans[parent].start_ns),
            end_ns,
            alloc_start: snap,
            alloc_end: snap,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of operation `op`, with their recorder indices.
    pub fn of_op(&self, op: u64) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.op == op)
    }

    /// Span `id`'s duration minus its direct children's.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        (self.spans[id].ms() - children).max(0.0)
    }

    /// The whole recording as a JSON array, one object per span:
    /// `id`, `name`, `parent` (id or null), `op`, `start_us`, `end_us`,
    /// `self_us`, `alloc_events`, `alloc_bytes`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \
                 \"alloc_events\": {}, \"alloc_bytes\": {}}}{}\n",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.self_ms(id) * 1e3,
                s.alloc_events(),
                s.alloc_bytes(),
                if id + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start_ns,
            end_ns,
            alloc_start: Snapshot::default(),
            alloc_end: Snapshot::default(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("op", None, 0, 10_000_000),
            span("a", Some(0), 1_000_000, 4_000_000),
            span("b", Some(0), 4_000_000, 9_000_000),
            span("b.inner", Some(2), 5_000_000, 6_000_000),
        ];
        assert!((r.self_ms(0) - 2.0).abs() < 1e-9, "10 - 3 - 5");
        assert!((r.self_ms(2) - 4.0).abs() < 1e-9, "5 - 1");
        assert!(
            (r.self_ms(3) - 1.0).abs() < 1e-9,
            "leaf keeps its whole span"
        );
    }

    #[test]
    fn reported_span_ends_with_its_parent_and_stays_inside_it() {
        let mut r = Recorder::new();
        r.spans = vec![span("reexec.run", None, 2_000_000, 8_000_000)];
        r.reported("vars.state_merge", 0, 1.5);
        let s = &r.spans()[1];
        assert_eq!((s.start_ns, s.end_ns), (6_500_000, 8_000_000));
        r.reported("vars.too_long", 0, 100.0);
        assert_eq!(r.spans()[2].start_ns, 2_000_000);
    }

    #[test]
    fn json_lists_every_span() {
        let mut r = Recorder::new();
        r.next_op();
        let a = r.open("wire.decode", None);
        let b = r.open("wire.inner", Some(a));
        r.close(b);
        r.close(a);
        let json = r.to_json();
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }
}
