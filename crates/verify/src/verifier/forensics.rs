//! REJECT forensics: structured diagnostics for failed audits.
//!
//! The paper's verifier answers ACCEPT/REJECT; operating an audit at
//! scale additionally needs *why*. [`AuditDiagnostics`] captures the
//! rejection's phase, the typed [`RejectReason`], and — for
//! [`RejectReason::CycleInG`] — a [`CycleReport`]: a minimal simple
//! cycle of the execution graph in which every edge carries its
//! [`EdgeKind`] and a rendered provenance line naming the operations
//! (and, for internal-state edges, the variable) that induced it.
//! Every REJECT of [`crate::Auditor::audit`] carries one.

use kem_lang::VarId;
use obs::Layer;

use crate::verifier::graph::{CycleEdge, EdgeKind, Graph};
use crate::verifier::reject::RejectReason;

/// An audit failure carrying its diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFailure {
    /// The typed rejection.
    pub reason: RejectReason,
    /// Structured forensics for the rejection.
    pub diagnostics: AuditDiagnostics,
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.diagnostics.summary())
    }
}

impl std::error::Error for AuditFailure {}

/// A rejection on its way out of the audit, so the core can raise one
/// with `?`. It is not yet placed in a layer (`phase` reads `idle`): the
/// audit's outermost function places it when the failure reaches it.
/// Boxed because an `AuditFailure` is ~150 bytes of diagnostics that
/// every ACCEPTing call would otherwise reserve return-slot space for
/// (clippy::result_large_err).
impl From<RejectReason> for Box<AuditFailure> {
    fn from(reason: RejectReason) -> Self {
        let diagnostics = AuditDiagnostics::from_reason(Layer::Idle, &reason);
        Box::new(AuditFailure {
            reason,
            diagnostics,
        })
    }
}

/// Serializable post-mortem of a rejected audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditDiagnostics {
    /// The layer the audit was in when it rejected.
    pub phase: Layer,
    /// [`RejectReason::kind`] of the rejection.
    pub kind: &'static str,
    /// The rejection's human-readable message.
    pub reason: String,
    /// Minimal-cycle forensics, present iff the rejection is
    /// [`RejectReason::CycleInG`] and a cycle was extracted.
    pub cycle: Option<CycleReport>,
    /// What the audit spent getting to this rejection (present iff
    /// the audit ran with an enabled obs handle): totals plus the
    /// top-cost groups from the cost ledger.
    pub attribution: Option<CostAttribution>,
}

/// Cost context attached to a rejection: a REJECT names not just the
/// reason but what the audit spent getting there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostAttribution {
    /// Fuel spent by the groups that replayed before the rejection.
    pub fuel_spent: u64,
    /// Groups whose costs were recorded before the rejection.
    pub groups_recorded: u64,
    /// The most expensive recorded groups, descending by fuel.
    pub top_groups: Vec<TopGroupCost>,
}

/// One top-cost group in a [`CostAttribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopGroupCost {
    /// Group index in replay order.
    pub group: u64,
    /// The group's handler-tree digest (control-flow tag).
    pub digest: u64,
    /// Requests in the group.
    pub requests: u64,
    /// Fuel the group's replay spent.
    pub fuel: u64,
}

impl CostAttribution {
    /// How many top groups a rejection names.
    pub const TOP_K: usize = 3;

    /// Builds attribution from an assembled cost ledger (`None` when
    /// the ledger recorded nothing — e.g. the rejection predates
    /// replay).
    pub fn from_ledger(ledger: &obs::CostLedger) -> Option<Self> {
        if ledger.groups.is_empty() {
            return None;
        }
        let totals = ledger.totals();
        Some(CostAttribution {
            fuel_spent: totals.fuel,
            groups_recorded: totals.groups,
            top_groups: ledger
                .top_groups_by_fuel(Self::TOP_K)
                .into_iter()
                .map(|g| TopGroupCost {
                    group: g.group,
                    digest: g.digest,
                    requests: g.requests,
                    fuel: g.fuel,
                })
                .collect(),
        })
    }
}

/// A minimal simple cycle of the execution graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// Node labels along the cycle, in order.
    pub nodes: Vec<String>,
    /// The cycle's edges (one per hop, the last closing onto the
    /// first node), each with kind and provenance.
    pub edges: Vec<CycleEdgeReport>,
}

/// One edge of a reported cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleEdgeReport {
    /// Source node label.
    pub from: String,
    /// Target node label.
    pub to: String,
    /// Why the edge exists.
    pub kind: EdgeKind,
    /// The inducing shared variable, for internal-state kinds.
    pub var: Option<VarId>,
    /// Rendered provenance: which operations/variables induced the
    /// edge and under which rule.
    pub provenance: String,
}

impl AuditDiagnostics {
    /// Diagnostics for a rejection with no cycle forensics.
    pub fn from_reason(phase: Layer, reason: &RejectReason) -> Self {
        AuditDiagnostics {
            phase,
            kind: reason.kind(),
            reason: reason.to_string(),
            cycle: None,
            attribution: None,
        }
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        match &self.cycle {
            Some(c) => format!(
                "audit rejected in {}: {} (minimal cycle: {} edges)",
                self.phase.name(),
                self.reason,
                c.edges.len()
            ),
            None => format!("audit rejected in {}: {}", self.phase.name(), self.reason),
        }
    }

    /// Serializes the diagnostics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"phase\": \"{}\",\n", self.phase.name()));
        out.push_str(&format!("  \"kind\": \"{}\",\n", esc(self.kind)));
        out.push_str(&format!("  \"reason\": \"{}\",\n", esc(&self.reason)));
        match &self.cycle {
            None => out.push_str("  \"cycle\": null,\n"),
            Some(c) => {
                out.push_str("  \"cycle\": {\n    \"nodes\": [");
                for (i, n) in c.nodes.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\"", esc(n)));
                }
                out.push_str("],\n    \"edges\": [");
                for (i, e) in c.edges.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n      {{\"from\": \"{}\", \"to\": \"{}\", \"kind\": \"{}\", \"var\": {}, \"provenance\": \"{}\"}}",
                        esc(&e.from),
                        esc(&e.to),
                        e.kind.name(),
                        match e.var {
                            Some(v) => format!("\"{v}\""),
                            None => "null".to_string(),
                        },
                        esc(&e.provenance)
                    ));
                }
                out.push_str("\n    ]\n  },\n");
            }
        }
        match &self.attribution {
            None => out.push_str("  \"attribution\": null\n"),
            Some(a) => {
                out.push_str(&format!(
                    "  \"attribution\": {{\"fuel_spent\": {}, \"groups_recorded\": {}, \"top_groups\": [",
                    a.fuel_spent, a.groups_recorded
                ));
                for (i, g) in a.top_groups.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"group\": {}, \"digest\": {}, \"requests\": {}, \"fuel\": {}}}",
                        g.group, g.digest, g.requests, g.fuel
                    ));
                }
                out.push_str("]}\n");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping (labels contain no exotic characters,
/// but advice-derived messages could).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts minimal-cycle forensics from a cyclic execution graph
/// (`None` if the graph is acyclic).
pub fn cycle_report(graph: &Graph) -> Option<CycleReport> {
    let nodes = graph.find_min_cycle()?;
    let edges = graph
        .describe_cycle(&nodes)
        .into_iter()
        .map(|e| {
            let provenance = render_provenance(&e);
            CycleEdgeReport {
                from: e.from_label,
                to: e.to_label,
                kind: e.kind,
                var: e.var,
                provenance,
            }
        })
        .collect();
    Some(CycleReport {
        nodes: nodes.iter().map(|&n| graph.node_label(n)).collect(),
        edges,
    })
}

/// Renders why one edge exists, naming the inducing operations and
/// variable.
fn render_provenance(e: &CycleEdge) -> String {
    let from = &e.from_label;
    let to = &e.to_label;
    match e.kind {
        EdgeKind::Time => format!("trace time precedence: {from} completed before {to} began"),
        EdgeKind::Program => format!("program order: {from} precedes {to} within its handler"),
        EdgeKind::Boundary => {
            format!("request/response boundary: {from} precedes {to} around the response")
        }
        EdgeKind::Activation => format!("activation: the emit at {from} activated handler {to}"),
        EdgeKind::HandlerLog => {
            format!("handler-log precedence: the advice orders {from} before {to}")
        }
        EdgeKind::ExternalWr => {
            format!("external-state write-read: the GET at {to} reads the PUT at {from}")
        }
        EdgeKind::VarWr => format!(
            "internal-state write-read on {}: the read at {to} observes the write at {from}",
            var_name(e.var)
        ),
        EdgeKind::VarWw => format!(
            "internal-state write-write on {}: the write at {to} overwrites the write at {from}",
            var_name(e.var)
        ),
        EdgeKind::VarRw => format!(
            "internal-state read-write on {}: the read at {from} precedes the overwrite at {to}",
            var_name(e.var)
        ),
    }
}

fn var_name(var: Option<VarId>) -> String {
    match var {
        Some(v) => v.to_string(),
        None => "an unknown variable".to_string(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice_ref::by_hand;
    use crate::verifier::coords::Coords;
    use kem_lang::{FunctionId, HandlerId, OpRef, RequestId};

    /// A graph over two requests with one single-op handler each, and
    /// the node ids of those two operations.
    fn two_ops() -> (Graph, u32, u32) {
        let hid = HandlerId::root(FunctionId(0));
        let trace = [RequestId(0), RequestId(1)];
        let opcounts = trace.iter().map(|r| ((*r, hid.clone()), 1)).collect();
        let advice = by_hand::advice(&opcounts, &Default::default());
        let coords = std::sync::Arc::new(Coords::build(&trace, &advice).unwrap());
        let op = |r: &RequestId| coords.op_node(&OpRef::new(*r, hid.clone(), 1)).unwrap();
        let (a, b) = (op(&trace[0]), op(&trace[1]));
        (Graph::new(coords), a, b)
    }

    #[test]
    fn cycle_report_names_kinds_and_vars() {
        let (mut g, a, b) = two_ops();
        g.add_var_edge(a, b, EdgeKind::VarWr, VarId(3));
        g.add_edge(b, a, EdgeKind::HandlerLog);
        let report = cycle_report(&g).unwrap();
        assert_eq!(report.edges.len(), 2);
        let wr = report
            .edges
            .iter()
            .find(|e| e.kind == EdgeKind::VarWr)
            .unwrap();
        assert!(wr.provenance.contains("v3"));
        assert!(wr.provenance.contains("write-read"));
        let hl = report
            .edges
            .iter()
            .find(|e| e.kind == EdgeKind::HandlerLog)
            .unwrap();
        assert!(hl.provenance.contains("handler-log"));
    }

    #[test]
    fn acyclic_graph_has_no_report() {
        let (mut g, a, b) = two_ops();
        g.add_edge(a, b, EdgeKind::Time);
        assert!(cycle_report(&g).is_none());
    }

    #[test]
    fn diagnostics_json_escapes_and_round_trips_shape() {
        let d = AuditDiagnostics {
            phase: Layer::CycleCheck,
            kind: "CycleInG",
            reason: "execution graph has a \"cycle\"".to_string(),
            cycle: Some(CycleReport {
                nodes: vec!["r0 f0 op1".into(), "r1 f0 op1".into()],
                edges: vec![CycleEdgeReport {
                    from: "r0 f0 op1".into(),
                    to: "r1 f0 op1".into(),
                    kind: EdgeKind::VarWr,
                    var: Some(VarId(3)),
                    provenance: "internal-state write-read on v3".into(),
                }],
            }),
            attribution: Some(CostAttribution {
                fuel_spent: 42,
                groups_recorded: 2,
                top_groups: vec![TopGroupCost {
                    group: 1,
                    digest: 9,
                    requests: 3,
                    fuel: 40,
                }],
            }),
        };
        let json = d.to_json();
        assert!(json.contains("\"phase\": \"cycle_check\""));
        assert!(json.contains("\\\"cycle\\\""));
        assert!(json.contains("\"kind\": \"wr\""));
        assert!(json.contains("\"var\": \"v3\""));
        assert!(json.contains("\"attribution\": {\"fuel_spent\": 42"));
        assert!(json.contains("\"top_groups\": [{\"group\": 1, \"digest\": 9"));
        assert!(d.summary().contains("1 edges"));
    }

    #[test]
    fn attribution_from_ledger_ranks_groups() {
        let ledger = obs::CostLedger {
            groups: vec![
                obs::GroupCost {
                    group: 0,
                    fuel: 5,
                    digest: 1,
                    requests: 1,
                    ..Default::default()
                },
                obs::GroupCost {
                    group: 1,
                    fuel: 50,
                    digest: 2,
                    requests: 2,
                    ..Default::default()
                },
            ],
            requests: Vec::new(),
        };
        let a = CostAttribution::from_ledger(&ledger).unwrap();
        assert_eq!(a.fuel_spent, 55);
        assert_eq!(a.groups_recorded, 2);
        assert_eq!(a.top_groups[0].group, 1);
        assert!(CostAttribution::from_ledger(&obs::CostLedger::default()).is_none());
    }

    #[test]
    fn from_reason_has_no_cycle() {
        let d = AuditDiagnostics::from_reason(Layer::Preprocess, &RejectReason::UnbalancedTrace);
        assert_eq!(d.kind, "UnbalancedTrace");
        assert!(d.cycle.is_none());
        assert!(d.to_json().contains("\"cycle\": null"));
    }
}
