//! The request/response trace — the collector's ground truth.
//!
//! Per Definition 1 of the paper, a trace is an ordered list of request
//! events `(REQ, rid, x)` and response events `(RESP, rid, y)` in
//! chronological order. The trace is *trusted*: in deployment it comes
//! from the collector sitting in front of the server; in this
//! reproduction the simulated runtime produces it at the server
//! boundary, which is the same observation point.

use std::collections::{BTreeMap, HashMap};

use crate::ids::RequestId;
use crate::value::Value;

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request arrived with the given input.
    Request {
        /// Request id.
        rid: RequestId,
        /// Input data.
        input: Value,
    },
    /// A response was delivered.
    Response {
        /// Request id.
        rid: RequestId,
        /// Output data.
        output: Value,
    },
}

impl TraceEvent {
    /// The request id of this event.
    pub fn rid(&self) -> RequestId {
        match self {
            TraceEvent::Request { rid, .. } | TraceEvent::Response { rid, .. } => *rid,
        }
    }
}

/// One request's side of the trace: what arrived and what was
/// delivered for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exchange<'t> {
    /// Request id.
    pub rid: RequestId,
    /// Input data.
    pub input: &'t Value,
    /// Output data (`None` if no response follows the request).
    pub output: Option<&'t Value>,
}

/// A chronological request/response trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a request event.
    pub fn push_request(&mut self, rid: RequestId, input: Value) {
        self.events.push(TraceEvent::Request { rid, input });
    }

    /// Appends a response event.
    pub fn push_response(&mut self, rid: RequestId, output: Value) {
        self.events.push(TraceEvent::Response { rid, output });
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable access, for adversarial tests that tamper with traces.
    pub fn events_mut(&mut self) -> &mut Vec<TraceEvent> {
        &mut self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Request ids in arrival order.
    pub fn request_ids(&self) -> Vec<RequestId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Request { rid, .. } => Some(*rid),
                _ => None,
            })
            .collect()
    }

    /// Every request with its input and response, in arrival order —
    /// entry `i` belongs to `request_ids()[i]`. One pass over the
    /// events; [`Trace::input_of`] and [`Trace::output_of`] scan them
    /// once per call. On a balanced trace the two views agree.
    pub fn exchanges(&self) -> Vec<Exchange<'_>> {
        let requests = self.events.len() / 2;
        let mut out: Vec<Exchange<'_>> = Vec::with_capacity(requests);
        let mut rank: HashMap<RequestId, usize> = HashMap::with_capacity(requests);
        for e in &self.events {
            match e {
                TraceEvent::Request { rid, input } => {
                    rank.entry(*rid).or_insert(out.len());
                    out.push(Exchange {
                        rid: *rid,
                        input,
                        output: None,
                    });
                }
                TraceEvent::Response { rid, output } => {
                    if let Some(x) = rank.get(rid).and_then(|r| out.get_mut(*r)) {
                        x.output.get_or_insert(output);
                    }
                }
            }
        }
        out
    }

    /// The input of `rid`, if present.
    pub fn input_of(&self, rid: RequestId) -> Option<&Value> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Request { rid: r, input } if *r == rid => Some(input),
            _ => None,
        })
    }

    /// The output of `rid`, if present.
    pub fn output_of(&self, rid: RequestId) -> Option<&Value> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Response { rid: r, output } if *r == rid => Some(output),
            _ => None,
        })
    }

    /// All responses, keyed by request id.
    pub fn responses(&self) -> BTreeMap<RequestId, Value> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Response { rid, output } => Some((*rid, output.clone())),
                _ => None,
            })
            .collect()
    }

    /// Whether the trace is *balanced*: every request has exactly one
    /// response, appearing after it, and no stray responses exist
    /// (checked by the verifier's `Preprocess`, Fig. 14 line 19). That
    /// is: sorted by request id, then by position, the events are
    /// request–response pairs.
    pub fn is_balanced(&self) -> bool {
        let mut by_rid: Vec<(RequestId, usize)> = self
            .events
            .iter()
            .enumerate()
            .map(|(at, e)| (e.rid(), at))
            .collect();
        by_rid.sort_unstable();
        let is_request =
            |at: usize| matches!(self.events.get(at), Some(TraceEvent::Request { .. }));
        by_rid
            .chunk_by(|a, b| a.0 == b.0)
            .all(|events| match events {
                [(_, request), (_, response)] => is_request(*request) && !is_request(*response),
                _ => false,
            })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rid(i: u64) -> RequestId {
        RequestId(i)
    }

    #[test]
    fn balanced_trace() {
        let mut t = Trace::new();
        t.push_request(rid(0), Value::int(1));
        t.push_request(rid(1), Value::int(2));
        t.push_response(rid(1), Value::int(20));
        t.push_response(rid(0), Value::int(10));
        assert!(t.is_balanced());
        assert_eq!(t.request_ids(), vec![rid(0), rid(1)]);
        assert_eq!(t.input_of(rid(1)), Some(&Value::int(2)));
        assert_eq!(t.output_of(rid(0)), Some(&Value::int(10)));
        assert_eq!(t.responses().len(), 2);
        let exchanges = t.exchanges();
        assert_eq!(exchanges.len(), 2);
        for (x, rid) in exchanges.iter().zip(t.request_ids()) {
            assert_eq!(x.rid, rid);
            assert_eq!(Some(x.input), t.input_of(rid));
            assert_eq!(x.output, t.output_of(rid));
        }
    }

    #[test]
    fn unbalanced_missing_response() {
        let mut t = Trace::new();
        t.push_request(rid(0), Value::Null);
        assert!(!t.is_balanced());
    }

    #[test]
    fn unbalanced_stray_response() {
        let mut t = Trace::new();
        t.push_response(rid(0), Value::Null);
        assert!(!t.is_balanced());
    }

    #[test]
    fn unbalanced_double_response() {
        let mut t = Trace::new();
        t.push_request(rid(0), Value::Null);
        t.push_response(rid(0), Value::Null);
        t.push_response(rid(0), Value::Null);
        assert!(!t.is_balanced());
    }

    #[test]
    fn unbalanced_duplicate_request() {
        let mut t = Trace::new();
        t.push_request(rid(0), Value::Null);
        t.push_request(rid(0), Value::Null);
        t.push_response(rid(0), Value::Null);
        assert!(!t.is_balanced());
    }

    #[test]
    fn response_before_request_is_unbalanced() {
        let mut t = Trace::new();
        t.push_response(rid(0), Value::Null);
        t.push_request(rid(0), Value::Null);
        assert!(!t.is_balanced());
    }

    /// The check as a map of open requests, one event at a time.
    fn balanced_by_map(t: &Trace) -> bool {
        let mut open: BTreeMap<RequestId, u32> = BTreeMap::new();
        for e in t.events() {
            match e {
                TraceEvent::Request { rid, .. } => {
                    if open.insert(*rid, 0).is_some() {
                        return false;
                    }
                }
                TraceEvent::Response { rid, .. } => match open.get_mut(rid) {
                    Some(c) if *c == 0 => *c = 1,
                    _ => return false,
                },
            }
        }
        open.values().all(|&c| c == 1)
    }

    /// A shuffled 10 000-request trace, and one copy of it per way of
    /// unbalancing it: the sort-based check answers as the map does.
    #[test]
    fn sorted_check_matches_the_map_on_a_shuffled_trace() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as usize) % n
        };
        // Ids in shuffled order, each answered after it arrives, with
        // up to 64 requests open at a time.
        let mut ids: Vec<u64> = (0..10_000).map(|i| i * 3 + 7).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, below(i + 1));
        }
        let mut t = Trace::new();
        let (mut next, mut open) = (ids.iter(), Vec::new());
        loop {
            match next.next() {
                Some(id) if open.len() < 64 && below(3) > 0 => {
                    t.push_request(rid(*id), Value::Null);
                    open.push(*id);
                    continue;
                }
                Some(id) => {
                    t.push_request(rid(*id), Value::Null);
                    open.push(*id);
                }
                None if open.is_empty() => break,
                None => {}
            }
            let id = open.swap_remove(below(open.len()));
            t.push_response(rid(id), Value::Null);
        }
        assert_eq!(t.len(), 20_000);
        let at = |kind: fn(&TraceEvent) -> bool, n: usize| {
            let found = t.events().iter().enumerate().filter(|(_, e)| kind(e));
            found.map(|(i, _)| i).nth(n).unwrap()
        };
        let request = |e: &TraceEvent| matches!(e, TraceEvent::Request { .. });
        let response = |e: &TraceEvent| matches!(e, TraceEvent::Response { .. });
        let planted = |edit: &dyn Fn(&mut Vec<TraceEvent>)| {
            let mut t = t.clone();
            edit(t.events_mut());
            t
        };
        let (req, resp) = (at(request, 4_321), at(response, 1_234));
        let cases = [
            ("balanced", t.clone()),
            ("missing response", planted(&|e| _ = e.remove(resp))),
            (
                "stray response",
                planted(&|e| {
                    e.insert(
                        resp,
                        TraceEvent::Response {
                            rid: rid(1),
                            output: Value::Null,
                        },
                    )
                }),
            ),
            (
                "double response",
                planted(&|e| e.insert(resp, e[resp].clone())),
            ),
            ("duplicate request", planted(&|e| e.push(e[req].clone()))),
            (
                "response before request",
                planted(&|e| {
                    let id = e[req].rid();
                    let answer = e.iter().position(|x| response(x) && x.rid() == id).unwrap();
                    let moved = e.remove(answer);
                    e.insert(req, moved);
                }),
            ),
        ];
        for (name, trace) in &cases {
            let expected = *name == "balanced";
            assert_eq!(balanced_by_map(trace), expected, "{name}");
            assert_eq!(trace.is_balanced(), expected, "{name}");
        }
    }
}
