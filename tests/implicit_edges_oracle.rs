//! An explicit-edge oracle for `G`'s implicit edges.
//!
//! The verifier's execution graph stores the trace's time precedence and
//! the edges the advice asserts; program order and activation are
//! functions of the coordinates, computed as the graph is walked. This
//! suite rebuilds the explicit graph — those two kinds stored as edges,
//! derived here from the public coordinate decoding (`Coords::node`,
//! `Coords::op_node`), and the time chain from the trace — beside the
//! verifier's other stored edges, walks it with a plain DFS, and
//! requires the two graphs to agree on:
//!
//! * ACCEPT/REJECT (acyclic or not);
//! * `edge_count` and every per-kind count;
//! * the DFS visit count on every acyclic graph;
//! * the `dot` export, which lists every edge;
//! * every hop of the verifier's reported minimal cycle being an edge of
//!   the explicit graph, of the same kind and variable.
//!
//! The inputs are the honest runs of all three paper apps at 1 and 4
//! threads, every `Ambiguous` mutation of them that reaches the cycle
//! check, and honest graphs with one forged stored edge closing a cycle
//! through each implicit kind.

use std::sync::Arc;

use apps::App;
use karousos::verifier::{
    init_vars, preprocess_staged, Coords, GNode, Graph, HPos, PreStaged, ReExecutor, VarStates,
};
use karousos::{
    decode_advice_view, encode_advice, run_instrumented_server, AdviceRef, Auditor, CollectorMode,
    EdgeKind, Limits, Mutation, MutationClass, Mutator, PoolMutator, RejectReason, TableMutator,
    WireMutator,
};
use kem::{OpRef, Program, Trace, TraceEvent, VarId};
use kvstore::IsolationLevel;
use workload::{Experiment, Mix};

/// One edge of the explicit graph: `(from, to, kind, var)`.
type Edge = (u32, u32, EdgeKind, Option<VarId>);

/// `G` with every edge stored, kind by kind: program edges, activation
/// edges in activation order, the time chain, then the other stored
/// edges in insertion order.
struct Explicit {
    coords: Arc<Coords>,
    edges: Vec<Edge>,
}

impl Explicit {
    /// The explicit graph of `g`: its two implicit kinds derived from its
    /// coordinates, its time chain from `trace`, and its other stored
    /// edges copied.
    fn of(g: &Graph, trace: &Trace) -> Explicit {
        let coords = g.coords().clone();
        let mut edges = Vec::new();
        // Program order: every handler node but an end precedes the next.
        let n = coords.node_count() as u32;
        for id in 0..n {
            if let Some(GNode::Handler { pos, .. }) = coords.node(id) {
                if pos != HPos::End {
                    edges.push((id, id + 1, EdgeKind::Program, None));
                }
            }
        }
        // Activation: the parent's `opnum`-th operation precedes the
        // start of each handler it activated.
        for id in 0..n {
            let Some(GNode::Handler {
                rid,
                hid,
                pos: HPos::Start,
            }) = coords.node(id)
            else {
                continue;
            };
            let Some(parent) = hid.parent() else { continue };
            if let Some(activator) = coords.op_node(&OpRef::new(rid, parent.clone(), hid.opnum())) {
                edges.push((activator, id, EdgeKind::Activation, None));
            }
        }
        // Time precedence: the trace's boundary events, chained.
        let boundaries = trace.events().iter().filter_map(|ev| match ev {
            TraceEvent::Request { rid, .. } => coords.request_start(*rid),
            TraceEvent::Response { rid, .. } => coords.request_end(*rid),
        });
        let boundaries: Vec<u32> = boundaries.collect();
        for pair in boundaries.windows(2) {
            edges.push((pair[0], pair[1], EdgeKind::Time, None));
        }
        edges.extend(g.stored_edges().filter(|e| e.2 != EdgeKind::Time));
        Explicit { coords, edges }
    }

    fn kind_counts(&self) -> [u64; EdgeKind::ALL.len()] {
        let mut counts = [0u64; EdgeKind::ALL.len()];
        for e in &self.edges {
            counts[e.2 as usize] += 1;
        }
        counts
    }

    /// The first back edge of a DFS from every root in id order, each
    /// node's edges in the order above, and the visit count.
    fn probe(&self) -> (Option<(u32, u32)>, u64) {
        let n = self.coords.node_count();
        let mut by_source = self.edges.clone();
        by_source.sort_by_key(|e| e.0);
        let run = |node: u32| {
            let lo = by_source.partition_point(|e| e.0 < node);
            let hi = by_source.partition_point(|e| e.0 <= node);
            &by_source[lo..hi]
        };
        let mut colour = vec![0u8; n];
        let mut visits = 0;
        for root in 0..n as u32 {
            if colour[root as usize] != 0 {
                continue;
            }
            colour[root as usize] = 1;
            visits += 1;
            let mut stack = vec![(root, 0usize)];
            while let Some(&mut (node, ref mut i)) = stack.last_mut() {
                let Some(&(_, child, _, _)) = run(node).get(*i) else {
                    colour[node as usize] = 2;
                    stack.pop();
                    continue;
                };
                *i += 1;
                match colour[child as usize] {
                    0 => {
                        colour[child as usize] = 1;
                        visits += 1;
                        stack.push((child, 0));
                    }
                    1 => return (Some((node, child)), visits),
                    _ => {}
                }
            }
        }
        (None, visits)
    }

    fn to_dot(&self) -> String {
        let mut out = String::from("digraph G {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n");
        for id in 0..self.coords.node_count() as u32 {
            out.push_str(&format!("  n{id} [label=\"{}\"];\n", self.coords.label(id)));
        }
        for (from, to, kind, _) in &self.edges {
            out.push_str(&format!(
                "  n{from} -> n{to} [label=\"{}\"];\n",
                kind.name()
            ));
        }
        out + "}\n"
    }
}

/// The verifier's `G` for an audit that reaches the cycle check, built
/// as the audit builds it: preprocess, the deferred-edge merge beside
/// replay, the internal-state edges.
fn verifier_graph(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    threads: usize,
) -> Graph {
    let view = decode_advice_view(bytes).expect("the audit decoded this advice");
    let advice = AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
    let staged = preprocess_staged(program, trace, &advice, isolation, threads);
    let PreStaged {
        mut pre,
        mut deferred,
    } = staged.expect("the audit preprocessed this advice");
    let mut vars = VarStates::new();
    init_vars(program, &mut vars);
    let mut graph = std::mem::take(&mut pre.graph);
    ReExecutor::new(program, trace, &advice, &pre, &mut vars)
        .with_limits(Limits::default())
        .run_pipelined(threads, || deferred.merge_into(&mut graph))
        .expect("the audit replayed this advice");
    vars.add_internal_state_edges_sharded(&mut graph, threads)
        .expect("the audit embedded this advice's edges");
    graph
}

/// Checks `g` against its explicit twin; whether it is acyclic.
fn agree(g: &Graph, trace: &Trace, what: &str) -> bool {
    let oracle = Explicit::of(g, trace);
    let counts = g.edge_kind_counts();
    assert_eq!(counts, oracle.kind_counts(), "{what}: per-kind counts");
    assert_eq!(g.edge_count(), oracle.edges.len(), "{what}: edge count");
    let (dot, expected) = (g.to_dot(), oracle.to_dot());
    let lines = dot.lines().zip(expected.lines());
    let diff = lines.enumerate().find(|(_, (a, b))| a != b);
    assert_eq!(diff, None, "{what}: dot export, first differing line");
    assert_eq!(dot.len(), expected.len(), "{what}: dot export length");
    let probe = g.probe_cycle();
    let (back_edge, visits) = oracle.probe();
    assert_eq!(
        probe.back_edge.is_some(),
        back_edge.is_some(),
        "{what}: verdict"
    );
    if back_edge.is_none() {
        assert_eq!(probe.visits, visits, "{what}: visits");
        return true;
    }
    let cycle = g.find_min_cycle().expect("a cyclic graph has a cycle");
    let hops = g.describe_cycle(&cycle).expect("every hop is an edge");
    assert_eq!(hops.len(), cycle.len(), "{what}: one hop per node");
    for hop in &hops {
        let edge = (hop.from, hop.to, hop.kind, hop.var);
        assert!(
            oracle.edges.contains(&edge),
            "{what}: hop {} -> {} ({}) is no edge of the explicit G",
            hop.from_label,
            hop.to_label,
            hop.kind.name()
        );
    }
    false
}

/// A small honest run of `app`: its program, trace, advice and the
/// store's isolation level.
fn honest(app: App, requests: usize) -> (Program, Trace, karousos::Advice, IsolationLevel) {
    let mix = if app == App::Wiki {
        Mix::Wiki
    } else {
        Mix::RW_MIXES[1]
    };
    let mut exp = Experiment::paper_default(app, mix, 4, 5);
    exp.requests = requests;
    let program = app.program();
    let config = exp.server_config();
    let (run, advice) =
        run_instrumented_server(&program, &exp.inputs(), &config, CollectorMode::Karousos)
            .expect("apps run cleanly");
    (program, run.trace, advice, exp.isolation)
}

#[test]
fn honest_graphs_agree_at_one_and_four_threads() {
    for app in App::ALL {
        for requests in [12, 40] {
            let (program, trace, advice, isolation) = honest(app, requests);
            let bytes = encode_advice(&advice);
            for threads in [1, 4] {
                let g = verifier_graph(&program, &trace, &bytes, isolation, threads);
                let what = format!("{} honest/{requests} t{threads}", app.name());
                assert!(agree(&g, &trace, &what), "{what}: honest G is acyclic");
            }
        }
    }
}

#[test]
fn ambiguous_mutations_agree() {
    let (mut cyclic, mut compared) = (0, 0);
    for app in App::ALL {
        let (program, trace, advice, isolation) = honest(app, 12);
        let bytes = encode_advice(&advice);
        let mut mutations: Vec<Mutation> = Vec::new();
        for seed in 0..6 {
            mutations.extend(Mutator::ALL.iter().filter_map(|m| m.apply(&advice, seed)));
            mutations.extend(
                WireMutator::ALL
                    .iter()
                    .filter_map(|m| m.apply(&bytes, seed)),
            );
            mutations.extend(
                PoolMutator::ALL
                    .iter()
                    .filter_map(|m| m.apply(&bytes, seed)),
            );
            mutations.extend(
                TableMutator::ALL
                    .iter()
                    .filter_map(|m| m.apply(&bytes, seed)),
            );
        }
        for m in mutations
            .iter()
            .filter(|m| m.class == MutationClass::Ambiguous)
        {
            let verdict = Auditor::default().audit(&program, &trace, &m.bytes, isolation);
            let reached = match &verdict {
                Ok(_) => true,
                Err(failure) => matches!(failure.reason, RejectReason::CycleInG),
            };
            if !reached {
                continue;
            }
            let what = format!("{} {}: {}", app.name(), m.mutator, m.description);
            let g = verifier_graph(&program, &trace, &m.bytes, isolation, 1);
            assert_eq!(
                agree(&g, &trace, &what),
                verdict.is_ok(),
                "{what}: audit verdict"
            );
            compared += 1;
            cyclic += usize::from(verdict.is_err());
        }
    }
    assert!(
        compared > 0,
        "some ambiguous mutation reaches the cycle check"
    );
    assert!(cyclic > 0, "some ambiguous mutation leaves a cycle in G");
}

/// One stored edge closing a cycle through each implicit kind: the
/// verifier's graph and the explicit one both reject, and the reported
/// cycle runs through that kind.
#[test]
fn forged_cycles_through_each_implicit_kind() {
    let (program, trace, advice, isolation) = honest(App::Stacks, 12);
    let bytes = encode_advice(&advice);
    let honest = || verifier_graph(&program, &trace, &bytes, isolation, 1);
    let g = honest();
    let oracle = Explicit::of(&g, &trace);
    let first = |kind: EdgeKind| {
        let edge = oracle.edges.iter().find(|e| e.2 == kind);
        let &(from, to, _, _) = edge.expect("the honest stacks G has every implicit kind");
        (from, to)
    };
    // Reversing one implicit edge closes a two-hop cycle through it.
    for kind in [EdgeKind::Program, EdgeKind::Activation] {
        let (from, to) = first(kind);
        let mut g = honest();
        g.add_edge(to, from, EdgeKind::HandlerLog);
        let what = format!("forged {} cycle", kind.name());
        assert!(!agree(&g, &trace, &what), "{what}: REJECT");
        let cycle = g.find_min_cycle().expect("cyclic");
        let hops = g.describe_cycle(&cycle).expect("every hop is an edge");
        assert!(hops.iter().any(|h| h.kind == kind), "{what}: {hops:?}");
    }
    // A longer one: the last response back to the first arrival runs
    // the whole trace's time chain.
    let last = trace.events().last().map(|ev| ev.rid()).expect("a trace");
    let mut g = honest();
    let last_response = g.coords().request_end(last).expect("traced");
    g.add_edge(last_response, 0, EdgeKind::Boundary);
    assert!(!agree(&g, &trace, "forged trace-long cycle"));
}

/// Besides the trace's time chain, `G` stores only what the advice
/// asserts: on honest stacks advice those edges are a minority of `G`'s
/// edges, so a section that stores a derivable edge again — one program
/// edge per operation — fails here at once. Measured: 2 788 of 9 686
/// edges (28.8 %) at 400 read-heavy requests, besides the 799 time
/// edges; 4 481 of them are program edges, and storing those alone
/// again puts it past half.
#[test]
fn honest_stacks_graph_stores_under_thirty_percent() {
    let mut exp = Experiment::paper_default(App::Stacks, Mix::ReadHeavy, 8, 11);
    exp.requests = 400;
    let program = App::Stacks.program();
    let config = exp.server_config();
    let (run, advice) =
        run_instrumented_server(&program, &exp.inputs(), &config, CollectorMode::Karousos)
            .expect("stacks runs cleanly");
    let bytes = encode_advice(&advice);
    let g = verifier_graph(&program, &run.trace, &bytes, exp.isolation, 1);
    let asserted = g.stored_edges().filter(|e| e.2 != EdgeKind::Time);
    let (stored, all) = (asserted.count(), g.edge_count());
    let counts = g.edge_kind_counts();
    eprintln!("honest stacks G: {stored} of {all} edges stored besides time; by kind {counts:?}");
    assert!(
        10 * stored <= 3 * all,
        "G stores {stored} of its {all} edges besides the time chain: more than 30 %"
    );
}
