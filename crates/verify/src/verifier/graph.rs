//! The execution graph `G` (§4.3, Fig. 14).
//!
//! Nodes are request boundaries (`(rid, 0)`, `(rid, ∞)`), handler
//! boundaries, and individual operations `(rid, hid, opnum)`, named by
//! the dense ids of the audit's [`Coords`]: which nodes exist, and what
//! each id means, is arithmetic over the coordinates. So are two of the
//! edge kinds, which the graph computes wherever it is walked and never
//! stores: program order, and activation (through the parent link and
//! the handler id's opnum). It stores the trace's time precedence and
//! what the advice asserts — the boundary edges around the response,
//! handler-log precedence, external-state write-read edges and the
//! internal-state WR/WW/RW edges — each with its [`EdgeKind`] and, for
//! the internal-state kinds, the inducing variable. A walk takes a
//! node's program successor first, then the handlers it activates in
//! activation order, then its stored edges in insertion order. The
//! audit accepts only if `G` is acyclic; a rejected audit reports *why*
//! each edge of the offending cycle exists, implicit or stored — see
//! [`Graph::find_min_cycle`] and [`Graph::describe_cycle`].

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
    /// Program order within one handler execution. Implicit.
    Program,
    /// Request/response boundary edges around arrival and delivery.
    Boundary,
    /// Event activation: the emitting operation precedes the activated
    /// handler's start. Implicit.
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
    /// An edge with no inducing variable: never a program or activation
    /// edge, which `G` has already, so a stored copy would count twice.
    pub(crate) fn new(from: u32, to: u32, kind: EdgeKind) -> Self {
        let implicit = matches!(kind, EdgeKind::Program | EdgeKind::Activation);
        debug_assert!(!implicit, "{} edges are implicit", kind.name());
        Edge {
            from,
            to,
            kind,
            var: NO_VAR,
        }
    }

    /// The inducing variable, for the internal-state kinds.
    fn var(&self) -> Option<VarId> {
        (self.var != NO_VAR).then_some(VarId(self.var))
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

/// What a walk reads besides the node ids: the activation and stored
/// edges in CSR form, each node's activation edges first, then its
/// stored ones in insertion order; and a state byte per node.
struct Walk {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    state: Vec<u8>,
}

/// A node's walk state: `LAST` on a node without a program successor
/// (a request boundary, an activation's last node) — the one fact about
/// a node its id does not give in O(1) — and the cycle check's `GREY`
/// once discovered, `BLACK` once finished.
const LAST: u8 = 1;
const GREY: u8 = 2;
const BLACK: u8 = 4;

impl Graph {
    /// Creates a graph over `coords` with no stored edge: only the
    /// program and activation edges the coordinates imply.
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

    /// Stores a directed edge of the given kind: never a program or
    /// activation edge, which the graph has already.
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

    /// Number of edges, implicit ones included.
    pub fn edge_count(&self) -> usize {
        self.edge_kind_counts().iter().sum::<u64>() as usize
    }

    /// The stored edges, `(from, to, kind, var)`, in insertion order.
    pub fn stored_edges(
        &self,
    ) -> impl ExactSizeIterator<Item = (u32, u32, EdgeKind, Option<VarId>)> + '_ {
        self.edges.iter().map(|e| (e.from, e.to, e.kind, e.var()))
    }

    /// Rendered label of node `id` (empty if out of range). Labels are
    /// decoded from the id on demand — only rejection diagnostics and
    /// `dot` exports pay for them, never the accept path.
    pub fn node_label(&self, id: u32) -> String {
        self.coords.label(id)
    }

    /// Number of edges of each kind, indexed like [`EdgeKind::ALL`]:
    /// program and activation edges counted off the coordinates, the
    /// stored kinds off the edge list.
    pub fn edge_kind_counts(&self) -> [u64; EdgeKind::ALL.len()] {
        let mut counts = [0u64; EdgeKind::ALL.len()];
        let acts = self.coords.activations();
        counts[EdgeKind::Program as usize] = acts.iter().map(|a| u64::from(a.count) + 1).sum();
        counts[EdgeKind::Activation as usize] = self.activation_edges().count() as u64;
        for e in &self.edges {
            counts[e.kind as usize] += 1;
        }
        counts
    }

    /// The activation edges, `(activating operation, activated start)`,
    /// in activation order.
    fn activation_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let coords = &*self.coords;
        let acts = coords.activations().iter();
        acts.filter_map(move |act| Some((coords.activator(act)?, act.start)))
    }

    /// The kind of the implicit edge `from → to`, if `G` has one.
    fn implicit_kind(&self, from: u32, to: u32) -> Option<EdgeKind> {
        let coords = &*self.coords;
        if to == from + 1 && coords.activation_of(from).is_some_and(|a| a.end() != from) {
            return Some(EdgeKind::Program);
        }
        let act = coords.activation_of(to).filter(|a| a.start == to)?;
        (coords.activator(act) == Some(from)).then_some(EdgeKind::Activation)
    }

    /// Renders the graph in Graphviz `dot` format, for debugging
    /// rejected audits (`dot -Tsvg` the output to see the alleged
    /// ordering and hunt the cycle). Edges are labelled with their kind
    /// and listed kind by kind: program order and activations in
    /// activation order, then the stored edges in insertion order.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph G {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n");
        for id in 0..self.node_count() as u32 {
            let _ = writeln!(out, "  n{id} [label=\"{}\"];", self.node_label(id));
        }
        let acts = self.coords.activations().iter();
        let program = acts.flat_map(|a| (a.start..a.end()).map(|n| (n, n + 1, EdgeKind::Program)));
        let activation = self
            .activation_edges()
            .map(|(f, t)| (f, t, EdgeKind::Activation));
        let stored = self.edges.iter().map(|e| (e.from, e.to, e.kind));
        for (from, to, kind) in program.chain(activation).chain(stored) {
            let _ = writeln!(out, "  n{from} -> n{to} [label=\"{}\"];", kind.name());
        }
        out.push_str("}\n");
        out
    }

    /// The walk's CSR adjacency (two exactly-sized allocations instead
    /// of one `Vec` per node) and its `LAST` marks.
    fn walk(&self) -> Walk {
        let n = self.node_count();
        let edges = || {
            let stored = self.edges.iter().map(|e| (e.from, e.to));
            self.activation_edges().chain(stored)
        };
        let mut offsets: Vec<u32> = vec![0; n + 1];
        for (from, _) in edges() {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets: Vec<u32> = vec![0; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (from, to) in edges() {
            targets[cursor[from as usize] as usize] = to;
            cursor[from as usize] += 1;
        }
        let mut state = vec![0u8; n];
        let boundaries = 2 * self.coords.traced().len();
        state.iter_mut().take(boundaries).for_each(|s| *s = LAST);
        for act in self.coords.activations() {
            if let Some(s) = state.get_mut(act.end() as usize) {
                *s = LAST;
            }
        }
        Walk {
            offsets,
            targets,
            state,
        }
    }

    /// `node`'s successors in walk order: its program successor, the
    /// starts of the activations it activates, its stored edges'
    /// targets.
    fn successors<'w>(&'w self, walk: &'w Walk, node: u32) -> impl Iterator<Item = u32> + 'w {
        let program = (walk.state[node as usize] & LAST == 0).then_some(node + 1);
        let run = walk.offsets[node as usize] as usize..walk.offsets[node as usize + 1] as usize;
        program.into_iter().chain(walk.targets[run].iter().copied())
    }

    /// Runs the cycle-check DFS (iterative: once per audit, over the
    /// fully merged graph, the postprocessing phase's dominant cost on
    /// large workloads), returning the first back edge found
    /// (deterministic: DFS roots are visited in node-id order, each
    /// node's successors in walk order) together with the visit count.
    pub fn probe_cycle(&self) -> CycleProbe {
        let n = self.node_count();
        let mut walk = self.walk();
        let mut visits: u64 = 0;
        for root in 0..n {
            if walk.state[root] & GREY != 0 {
                continue;
            }
            let mut stack: Vec<(u32, u32)> = vec![(root as u32, 0)];
            walk.state[root] |= GREY;
            visits += 1;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let next = self.successors(&walk, node).nth(*idx as usize);
                let Some(child) = next else {
                    walk.state[node as usize] |= BLACK;
                    stack.pop();
                    continue;
                };
                *idx += 1;
                let state = &mut walk.state[child as usize];
                if *state & BLACK != 0 {
                    continue;
                }
                if *state & GREY != 0 {
                    return CycleProbe {
                        back_edge: Some((node, child)),
                        visits,
                    };
                }
                *state |= GREY;
                visits += 1;
                stack.push((child, 0));
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
    /// path `v ⇝ u` (BFS, deterministic by walk order) closed by that
    /// back edge is a minimal cycle *through that edge* — small enough
    /// to read in a forensics report. Iterative throughout, so deep
    /// graphs (100k-node chains) cannot overflow the stack.
    pub fn find_min_cycle(&self) -> Option<Vec<u32>> {
        let (u, v) = self.probe_cycle().back_edge?;
        if u == v {
            return Some(vec![u]);
        }
        let n = self.node_count();
        let walk = self.walk();
        // BFS shortest path v ⇝ u.
        let mut parent: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        parent[v as usize] = v;
        queue.push_back(v);
        'bfs: while let Some(node) = queue.pop_front() {
            for child in self.successors(&walk, node) {
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
    /// carrying the kind and inducing variable of the hop's first edge
    /// in walk order — its implicit edge if it has one, else its first
    /// stored edge. `None` if some hop is no edge of `G`.
    pub fn describe_cycle(&self, nodes: &[u32]) -> Option<Vec<CycleEdge>> {
        let mut first_edge: HashMap<(u32, u32), &Edge> = HashMap::with_capacity(self.edges.len());
        for e in &self.edges {
            first_edge.entry((e.from, e.to)).or_insert(e);
        }
        let mut out = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let from = nodes[i];
            let to = nodes[(i + 1) % nodes.len()];
            let (kind, var) = match self.implicit_kind(from, to) {
                Some(kind) => (kind, None),
                None => first_edge.get(&(from, to)).map(|e| (e.kind, e.var()))?,
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
        Some(out)
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
        let (arrival, delivery) = (0, 1);
        let mut g = Graph::new(c.clone());
        g.add_edge(arrival, delivery, EdgeKind::Time);
        g.add_edge(arrival, handler.start, EdgeKind::Boundary);
        g.add_edge(op(&c, 0, 1), delivery, EdgeKind::Boundary);
        g.add_edge(delivery, handler.end(), EdgeKind::Boundary);
        assert!(g.probe_cycle().back_edge.is_none());
        assert!(g.find_min_cycle().is_none());
        // Both request boundaries plus the handler's start, op and end.
        assert_eq!(g.node_count(), 5);
        // Four stored, plus start → op → end.
        assert_eq!(g.stored_edges().len(), 4);
        assert_eq!(g.edge_count(), 6);
        let counts = g.edge_kind_counts();
        assert_eq!(counts[EdgeKind::Boundary as usize], 3);
        assert_eq!(counts[EdgeKind::Program as usize], 2);
        assert_eq!(counts[EdgeKind::Time as usize], 1);
        assert_eq!(g.probe_cycle().visits, 5);
    }

    #[test]
    fn detects_cycle() {
        let c = coords(3, 1);
        let mut g = Graph::new(c.clone());
        let (a, b, d) = (op(&c, 0, 1), op(&c, 1, 1), op(&c, 2, 1));
        g.add_edge(a, b, EdgeKind::HandlerLog);
        g.add_edge(b, d, EdgeKind::HandlerLog);
        g.add_edge(d, a, EdgeKind::ExternalWr);
        let probe = g.probe_cycle();
        assert!(probe.back_edge.is_some());
        assert!(probe.visits >= 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let c = coords(1, 0);
        let mut g = Graph::new(c.clone());
        let a = c.request_start(RequestId(0)).unwrap();
        g.add_edge(a, a, EdgeKind::Boundary);
        assert!(g.probe_cycle().back_edge.is_some());
        let cycle = g.find_min_cycle().unwrap();
        assert_eq!(cycle.len(), 1);
        let edges = g.describe_cycle(&cycle).unwrap();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, edges[0].to);
    }

    #[test]
    fn dot_export_names_nodes_and_edges() {
        let c = coords(1, 1);
        let mut g = Graph::new(c.clone());
        g.add_edge(0, 1, EdgeKind::Time);
        g.add_edge(0, op(&c, 0, 1), EdgeKind::Boundary);
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph G {"));
        assert!(dot.contains("r0:REQ"));
        // The implicit edges first, then the stored ones as inserted.
        let edges: Vec<&str> = dot.lines().filter(|l| l.contains("->")).collect();
        let expected = [
            "  n2 -> n3 [label=\"program\"];",
            "  n3 -> n4 [label=\"program\"];",
            "  n0 -> n1 [label=\"time\"];",
            "  n0 -> n3 [label=\"boundary\"];",
        ];
        assert_eq!(edges, expected);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn large_chain_no_stack_overflow() {
        // Iterative DFS must handle deep graphs: one handler's program
        // order is a 100 001-edge chain.
        let g = Graph::new(coords(1, 100_000));
        assert_eq!(g.edge_count(), 100_001);
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
        g.add_edge(node(0), node(1), EdgeKind::HandlerLog);
        g.add_edge(node(1), node(2), EdgeKind::HandlerLog);
        g.add_edge(node(2), node(3), EdgeKind::HandlerLog);
        g.add_edge(node(3), node(0), EdgeKind::ExternalWr);
        g.add_edge(node(1), node(3), EdgeKind::Boundary);
        let cycle = g.find_min_cycle().unwrap();
        assert_eq!(cycle.len(), 3, "0→1→(shortcut)→3→0, not the 4-hop loop");
        let edges = g.describe_cycle(&cycle).unwrap();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().any(|e| e.kind == EdgeKind::Boundary));
        assert!(edges.iter().any(|e| e.kind == EdgeKind::ExternalWr));
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
        g.add_edge(b, a, EdgeKind::HandlerLog);
        let cycle = g.find_min_cycle().unwrap();
        let edges = g.describe_cycle(&cycle).unwrap();
        let wr = edges.iter().find(|e| e.kind == EdgeKind::VarWr).unwrap();
        assert_eq!(wr.var, Some(VarId(7)));
        assert!(edges.iter().all(|e| !e.from_label.is_empty()));
    }

    /// A hop that is no edge of `G` is not described at all — least of
    /// all as time precedence.
    #[test]
    fn a_hop_off_the_graph_is_not_described() {
        let c = coords(2, 1);
        let mut g = Graph::new(c.clone());
        g.add_edge(1, 2, EdgeKind::Time);
        let (a, b) = (op(&c, 0, 1), op(&c, 1, 1));
        assert!(g.describe_cycle(&[a, b]).is_none());
        // r0's delivery → r1's arrival is stored; back is nothing.
        assert!(g.describe_cycle(&[1, 2]).is_none());
    }
}
