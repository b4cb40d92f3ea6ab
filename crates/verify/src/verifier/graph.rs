//! The execution graph `G` (§4.3, Fig. 14).
//!
//! Nodes are request boundaries (`(rid, 0)`, `(rid, ∞)`), handler
//! boundaries, and individual operations `(rid, hid, opnum)`, named by
//! the dense ids of the audit's [`Coords`] — the graph stores edges
//! only; which nodes exist, and what each id means, is arithmetic over
//! the coordinates. Edges encode the alleged ordering: time precedence from the trace, program
//! order, boundary edges around the response, activation edges,
//! handler-log precedence, external-state write-read edges, and the
//! internal-state WR/WW/RW edges added during postprocessing. The audit
//! accepts only if `G` is acyclic — i.e. the whole execution is
//! well-ordered and physically possible.
//!
//! Every edge is stored with its [`EdgeKind`] (and, for internal-state
//! edges, the inducing variable), so a rejected audit can report *why*
//! each edge of the offending cycle exists instead of a bare
//! ACCEPT/REJECT bit — see [`Graph::find_min_cycle`] and
//! [`Graph::describe_cycle`].

use std::collections::HashMap;
use std::sync::Arc;

use kem_lang::VarId;

use crate::verifier::coords::Coords;

/// Why an edge of `G` exists — one variant per edge source in the
/// paper's construction (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Trace time precedence: the source event completed before the
    /// target event began, per the trusted trace.
    Time,
    /// Program order within one handler execution.
    Program,
    /// Request/response boundary edges around arrival and delivery.
    Boundary,
    /// Event activation: the emitting operation precedes the activated
    /// handler's start.
    Activation,
    /// Handler-log precedence claimed by the advice.
    HandlerLog,
    /// External-state write→read: a kv GET reads a specific PUT.
    ExternalWr,
    /// Internal-state write→read on a shared variable.
    VarWr,
    /// Internal-state write→write on a shared variable.
    VarWw,
    /// Internal-state read→overwrite (anti-dependency) on a shared
    /// variable.
    VarRw,
}

impl EdgeKind {
    /// Every kind, in catalog order.
    pub const ALL: [EdgeKind; 9] = [
        EdgeKind::Time,
        EdgeKind::Program,
        EdgeKind::Boundary,
        EdgeKind::Activation,
        EdgeKind::HandlerLog,
        EdgeKind::ExternalWr,
        EdgeKind::VarWr,
        EdgeKind::VarWw,
        EdgeKind::VarRw,
    ];

    /// Stable snake_case name used in exports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Time => "time",
            EdgeKind::Program => "program",
            EdgeKind::Boundary => "boundary",
            EdgeKind::Activation => "activation",
            EdgeKind::HandlerLog => "handler_log",
            EdgeKind::ExternalWr => "external_wr",
            EdgeKind::VarWr => "wr",
            EdgeKind::VarWw => "ww",
            EdgeKind::VarRw => "rw",
        }
    }
}

/// Sentinel for "no inducing variable" in the packed edge record.
const NO_VAR: u32 = u32::MAX;

/// One stored edge: endpoints are node ids of the graph's [`Coords`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    from: u32,
    to: u32,
    kind: EdgeKind,
    var: u32,
}

impl Edge {
    /// An edge with no inducing variable.
    pub(crate) fn new(from: u32, to: u32, kind: EdgeKind) -> Self {
        Edge {
            from,
            to,
            kind,
            var: NO_VAR,
        }
    }
}

/// Outcome of the cycle-check DFS: the first back edge found (if any)
/// and the number of node visits performed (the `cycle_check_visits`
/// metric).
#[derive(Debug, Clone, Copy)]
pub struct CycleProbe {
    /// `Some((from, to))` where `from → to` is a back edge closing a
    /// cycle; `None` if the graph is acyclic.
    pub back_edge: Option<(u32, u32)>,
    /// Nodes pushed onto the DFS stack.
    pub visits: u64,
}

/// One edge of a reported cycle, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleEdge {
    /// Source node id.
    pub from: u32,
    /// Target node id.
    pub to: u32,
    /// Rendered source node label.
    pub from_label: String,
    /// Rendered target node label.
    pub to_label: String,
    /// Why the edge exists.
    pub kind: EdgeKind,
    /// The shared variable that induced the edge, for internal-state
    /// kinds.
    pub var: Option<VarId>,
}

/// A directed graph over the node ids of one [`Coords`], with cycle
/// detection. Endpoints handed to [`Graph::add_edge`] and
/// [`Graph::add_var_edge`] must be ids of those coordinates (what
/// [`Coords::op_node`], [`Coords::request_start`] and friends return);
/// the traversals index their per-node arrays with them.
#[derive(Debug, Default)]
pub struct Graph {
    coords: Arc<Coords>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates an edgeless graph over `coords`.
    pub fn new(coords: Arc<Coords>) -> Self {
        Graph {
            coords,
            edges: Vec::new(),
        }
    }

    /// The coordinates that give this graph's node ids their meaning.
    pub fn coords(&self) -> &Arc<Coords> {
        &self.coords
    }

    /// Adds a directed edge of the given kind.
    pub fn add_edge(&mut self, from: u32, to: u32, kind: EdgeKind) {
        self.edges.push(Edge::new(from, to, kind));
    }

    /// Adds an internal-state edge induced by accesses to `var`.
    pub fn add_var_edge(&mut self, from: u32, to: u32, kind: EdgeKind, var: VarId) {
        self.edges.push(Edge {
            from,
            to,
            kind,
            var: var.0,
        });
    }

    /// Appends a batch of edges in order.
    pub(crate) fn append(&mut self, batch: &[Edge]) {
        self.edges.extend_from_slice(batch);
    }

    /// Reserves capacity for at least `edges` more edges.
    pub fn reserve(&mut self, edges: usize) {
        self.edges.reserve(edges);
    }

    /// Number of nodes: every node of the coordinates, whether or not
    /// an edge touches it.
    pub fn node_count(&self) -> usize {
        self.coords.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Rendered label of node `id` (empty if out of range). Labels are
    /// decoded from the id on demand — only rejection diagnostics and
    /// `dot` exports pay for them, never the accept path.
    pub fn node_label(&self, id: u32) -> String {
        self.coords.label(id)
    }

    /// Number of edges of each kind, indexed like [`EdgeKind::ALL`].
    /// Computed from the stored edge list, so recording kinds costs
    /// the hot path nothing beyond the tag byte per edge.
    pub fn edge_kind_counts(&self) -> [u64; EdgeKind::ALL.len()] {
        let mut counts = [0u64; EdgeKind::ALL.len()];
        for e in &self.edges {
            counts[e.kind as usize] += 1;
        }
        counts
    }

    /// Renders the graph in Graphviz `dot` format, for debugging
    /// rejected audits (`dot -Tsvg` the output to see the alleged
    /// ordering and hunt the cycle). Edges are labelled with their
    /// kind.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph G {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n");
        for id in 0..self.node_count() as u32 {
            let _ = writeln!(out, "  n{id} [label=\"{}\"];", self.node_label(id));
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}\"];",
                e.from,
                e.to,
                e.kind.name()
            );
        }
        out.push_str("}\n");
        out
    }

    /// CSR adjacency: `(offsets, targets)` built once per traversal
    /// (two exactly-sized allocations instead of one `Vec` per node).
    fn csr(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.node_count();
        let mut offsets: Vec<u32> = vec![0; n + 1];
        for e in &self.edges {
            offsets[e.from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets: Vec<u32> = vec![0; self.edges.len()];
        let mut cursor = offsets.clone();
        for e in &self.edges {
            targets[cursor[e.from as usize] as usize] = e.to;
            cursor[e.from as usize] += 1;
        }
        (offsets, targets)
    }

    /// Runs the cycle-check DFS (iterative: once per audit, over the
    /// fully merged graph, the postprocessing phase's dominant cost on
    /// large workloads), returning the first back edge found
    /// (deterministic: DFS roots are visited in node-id order, CSR
    /// children in edge insertion order) together with the visit count.
    pub fn probe_cycle(&self) -> CycleProbe {
        let n = self.node_count();
        let (offsets, targets) = self.csr();
        let children = |node: u32| -> &[u32] {
            &targets[offsets[node as usize] as usize..offsets[node as usize + 1] as usize]
        };
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut visits: u64 = 0;
        let mut colour = vec![Colour::White; n];
        for root in 0..n {
            if colour[root] != Colour::White {
                continue;
            }
            let mut stack: Vec<(u32, u32)> = vec![(root as u32, 0)];
            colour[root] = Colour::Grey;
            visits += 1;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let kids = children(node);
                if (*idx as usize) < kids.len() {
                    let child = kids[*idx as usize];
                    *idx += 1;
                    match colour[child as usize] {
                        Colour::Grey => {
                            return CycleProbe {
                                back_edge: Some((node, child)),
                                visits,
                            }
                        }
                        Colour::White => {
                            colour[child as usize] = Colour::Grey;
                            visits += 1;
                            stack.push((child, 0));
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node as usize] = Colour::Black;
                    stack.pop();
                }
            }
        }
        CycleProbe {
            back_edge: None,
            visits,
        }
    }

    /// Extracts a minimal simple cycle, as the node sequence
    /// `[v0, v1, ..., vk]` meaning `v0 → v1 → ... → vk → v0`, or
    /// `None` if the graph is acyclic.
    ///
    /// The cycle-check DFS finds a back edge `u → v`; the shortest
    /// path `v ⇝ u` (BFS over the CSR adjacency, deterministic by
    /// insertion order) closed by that back edge is a minimal cycle
    /// *through that edge* — small enough to read in a forensics
    /// report. Iterative throughout, so deep graphs (100k-node
    /// chains) cannot overflow the stack.
    pub fn find_min_cycle(&self) -> Option<Vec<u32>> {
        let (u, v) = self.probe_cycle().back_edge?;
        if u == v {
            return Some(vec![u]);
        }
        let n = self.node_count();
        let (offsets, targets) = self.csr();
        // BFS shortest path v ⇝ u.
        let mut parent: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        parent[v as usize] = v;
        queue.push_back(v);
        'bfs: while let Some(node) = queue.pop_front() {
            let lo = offsets[node as usize] as usize;
            let hi = offsets[node as usize + 1] as usize;
            for &child in &targets[lo..hi] {
                if parent[child as usize] == u32::MAX {
                    parent[child as usize] = node;
                    if child == u {
                        break 'bfs;
                    }
                    queue.push_back(child);
                }
            }
        }
        if parent[u as usize] == u32::MAX {
            // The DFS guarantees v ⇝ u exists (u was Grey, i.e. on the
            // stack above v); treat an unreachable u defensively as
            // "no cycle extracted".
            return None;
        }
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = parent[cur as usize];
            path.push(cur);
        }
        path.reverse(); // v, ..., u — and u → v closes the cycle.
        Some(path)
    }

    /// Describes the cycle given as a node sequence (the
    /// [`Graph::find_min_cycle`] format): one [`CycleEdge`] per hop,
    /// carrying the edge's kind and inducing variable. When parallel
    /// edges connect a pair, the first inserted wins (deterministic).
    pub fn describe_cycle(&self, nodes: &[u32]) -> Vec<CycleEdge> {
        let mut first_edge: HashMap<(u32, u32), &Edge> = HashMap::with_capacity(self.edges.len());
        for e in &self.edges {
            first_edge.entry((e.from, e.to)).or_insert(e);
        }
        let mut out = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let from = nodes[i];
            let to = nodes[(i + 1) % nodes.len()];
            let (kind, var) = match first_edge.get(&(from, to)) {
                Some(e) => (
                    e.kind,
                    if e.var == NO_VAR {
                        None
                    } else {
                        Some(VarId(e.var))
                    },
                ),
                // Defensive: a hop not backed by a stored edge renders
                // as a time edge with no variable.
                None => (EdgeKind::Time, None),
            };
            out.push(CycleEdge {
                from,
                to,
                from_label: self.node_label(from),
                to_label: self.node_label(to),
                kind,
                var,
            });
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::advice_ref::by_hand;
    use kem_lang::{FunctionId, HandlerId, OpRef, RequestId};

    fn hid() -> HandlerId {
        HandlerId::root(FunctionId(0))
    }

    /// Coordinates of `requests` requests, each with one root handler
    /// of `count` operations.
    fn coords(requests: u64, count: u32) -> Arc<Coords> {
        let trace: Vec<RequestId> = (0..requests).map(RequestId).collect();
        let opcounts = trace.iter().map(|r| ((*r, hid()), count)).collect();
        let advice = by_hand::advice(&opcounts, &Default::default());
        Arc::new(Coords::build(&trace, &advice).unwrap())
    }

    /// Node id of the `opnum`-th operation of request `rid`.
    fn op(c: &Coords, rid: u64, opnum: u32) -> u32 {
        c.op_node(&OpRef::new(RequestId(rid), hid(), opnum))
            .unwrap()
    }

    #[test]
    fn acyclic_graph() {
        let c = coords(1, 1);
        let handler = &c.activations()[0];
        let mut g = Graph::new(c.clone());
        g.add_edge(
            c.request_start(RequestId(0)).unwrap(),
            handler.start,
            EdgeKind::Boundary,
        );
        g.add_edge(handler.start, op(&c, 0, 1), EdgeKind::Program);
        g.add_edge(
            op(&c, 0, 1),
            c.request_end(RequestId(0)).unwrap(),
            EdgeKind::Boundary,
        );
        assert!(g.probe_cycle().back_edge.is_none());
        assert!(g.find_min_cycle().is_none());
        // Both request boundaries plus the handler's start, op and end
        // — the end node exists although no edge touches it.
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        let counts = g.edge_kind_counts();
        assert_eq!(counts[EdgeKind::Boundary as usize], 2);
        assert_eq!(counts[EdgeKind::Program as usize], 1);
    }

    #[test]
    fn detects_cycle() {
        let c = coords(3, 1);
        let mut g = Graph::new(c.clone());
        let (a, b, d) = (op(&c, 0, 1), op(&c, 1, 1), op(&c, 2, 1));
        g.add_edge(a, b, EdgeKind::Time);
        g.add_edge(b, d, EdgeKind::Time);
        g.add_edge(d, a, EdgeKind::HandlerLog);
        let probe = g.probe_cycle();
        assert!(probe.back_edge.is_some());
        assert!(probe.visits >= 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let c = coords(1, 0);
        let mut g = Graph::new(c.clone());
        let a = c.request_start(RequestId(0)).unwrap();
        g.add_edge(a, a, EdgeKind::Time);
        assert!(g.probe_cycle().back_edge.is_some());
        let cycle = g.find_min_cycle().unwrap();
        assert_eq!(cycle.len(), 1);
        let edges = g.describe_cycle(&cycle);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, edges[0].to);
    }

    #[test]
    fn dot_export_names_nodes_and_edges() {
        let c = coords(1, 1);
        let mut g = Graph::new(c.clone());
        g.add_edge(
            c.request_start(RequestId(0)).unwrap(),
            op(&c, 0, 1),
            EdgeKind::Boundary,
        );
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph G {"));
        assert!(dot.contains("r0:REQ"));
        assert!(dot.contains("n0 -> n3 [label=\"boundary\"];"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn large_chain_no_stack_overflow() {
        // Iterative DFS must handle deep graphs.
        let c = coords(1, 100_000);
        let start = c.activations()[0].start;
        let mut g = Graph::new(c);
        for i in 0..100_000u32 {
            g.add_edge(start + i, start + i + 1, EdgeKind::Program);
        }
        assert!(g.probe_cycle().back_edge.is_none());
        // Acyclic: every node is visited exactly once.
        assert_eq!(g.probe_cycle().visits, g.node_count() as u64);
    }

    #[test]
    fn min_cycle_is_shortest_through_back_edge() {
        // A long cycle 0→1→2→3→0 with a shortcut 1→3 (and the DFS
        // back edge closing at 3→0): the reported cycle must use the
        // shortcut, not the long way round.
        let c = coords(4, 1);
        let mut g = Graph::new(c.clone());
        let node = |i: u64| op(&c, i, 1);
        g.add_edge(node(0), node(1), EdgeKind::Time);
        g.add_edge(node(1), node(2), EdgeKind::Time);
        g.add_edge(node(2), node(3), EdgeKind::Time);
        g.add_edge(node(3), node(0), EdgeKind::HandlerLog);
        g.add_edge(node(1), node(3), EdgeKind::Activation);
        let cycle = g.find_min_cycle().unwrap();
        assert_eq!(cycle.len(), 3, "0→1→(shortcut)→3→0, not the 4-hop loop");
        let edges = g.describe_cycle(&cycle);
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().any(|e| e.kind == EdgeKind::Activation));
        assert!(edges.iter().any(|e| e.kind == EdgeKind::HandlerLog));
        // Consecutive edges chain: each edge's target is the next
        // edge's source, and the last closes onto the first.
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(e.to, edges[(i + 1) % edges.len()].from);
        }
    }

    #[test]
    fn var_edges_carry_their_variable() {
        let c = coords(2, 1);
        let mut g = Graph::new(c.clone());
        let (a, b) = (op(&c, 0, 1), op(&c, 1, 1));
        g.add_var_edge(a, b, EdgeKind::VarWr, VarId(7));
        g.add_edge(b, a, EdgeKind::Time);
        let cycle = g.find_min_cycle().unwrap();
        let edges = g.describe_cycle(&cycle);
        let wr = edges.iter().find(|e| e.kind == EdgeKind::VarWr).unwrap();
        assert_eq!(wr.var, Some(VarId(7)));
        assert!(edges.iter().all(|e| !e.from_label.is_empty()));
    }
}
