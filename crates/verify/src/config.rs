//! Runtime configuration: the resource-governance [`Limits`].
//!
//! An audit is configured by the fields of the [`crate::Auditor`] that
//! runs it and by nothing else: `Auditor::default()` is the deployed
//! configuration, and no code in this crate reads the process
//! environment. A budget is changed by setting its [`Limits`] field.

/// Resource budgets for one audit (DESIGN.md §10 "Resource
/// governance"). The advice is attacker-controlled, so every structure
/// whose size the advice dictates — and every loop whose trip count it
/// dictates — is metered against one of these ceilings; exceeding one
/// terminates the audit with a typed
/// [`RejectReason::ResourceExhausted`](crate::verifier::RejectReason)
/// instead of a hang or an OOM.
///
/// `u64::MAX` in any field disables that budget. Defaults are sized
/// orders of magnitude above any honest paper workload, so honest
/// audits under default limits are verdict- and stats-identical to an
/// unlimited audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Deterministic per-group replay fuel budget: one unit per
    /// statement executed and per expression node evaluated of the
    /// source program (`kem_lang::bytecode`, "Fuel"). Counted inside the
    /// single-threaded per-group dispatch loop, so the spend — and the
    /// verdict — is bit-identical at every thread count.
    pub replay_fuel: u64,
    /// Per-group wall-clock deadline in milliseconds. The only
    /// machine-dependent budget (documented in DESIGN.md §10): it
    /// backstops cost the fuel meter cannot see (e.g. allocator
    /// pressure), and honest deployments keep it far above any
    /// plausible group.
    pub group_deadline_ms: u64,
    /// Maximum advice wire size in bytes, checked before decoding.
    pub decode_max_bytes: u64,
    /// Maximum total decoded advice elements — tags, log entries, write
    /// order, emitters, opcounts, nondet records, handler-id path
    /// steps, and the entries of every logged list and map — charged
    /// from the declared lengths *before* any allocation is reserved.
    /// The count is *logical*: a reference into the advice's value pool
    /// (DESIGN.md §20) is charged what the container it names would
    /// have declared written out in its place, at every reference, so
    /// honest advice costs what its flat form did and a small pool
    /// describing an enormous value exhausts the budget like an
    /// enormous advice. What the pool section itself declares — its
    /// node count, each node's width, lengths written inline in a node
    /// — is held against the same number in a count of its own, and so
    /// are the entries of the string and handler-id tables, so nodes
    /// and entries nothing refers to are not free.
    pub decode_max_nodes: u64,
    /// Maximum total advice log entries admitted into the verifier's
    /// dictionaries (handler + variable + transaction logs + nondet).
    pub dict_max_entries: u64,
    /// Maximum execution-graph nodes (bound-checked up front from the
    /// advice's opcounts, and again after the final merge).
    pub graph_max_nodes: u64,
    /// Maximum execution-graph edges (same two checkpoints as
    /// [`Limits::graph_max_nodes`]).
    pub graph_max_edges: u64,
    /// Maximum replay-group width (multivalue lanes per group).
    pub max_group_width: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            replay_fuel: 1 << 26,
            group_deadline_ms: 60_000,
            decode_max_bytes: 1 << 31,
            decode_max_nodes: 1 << 26,
            dict_max_entries: 1 << 24,
            graph_max_nodes: 1 << 26,
            graph_max_edges: 1 << 27,
            max_group_width: 1 << 20,
        }
    }
}

impl Limits {
    /// Every budget disabled — the pre-governance verifier behaviour.
    /// `tests/alloc_regression.rs` audits against this to show that
    /// metering allocates nothing.
    pub fn unlimited() -> Self {
        Limits {
            replay_fuel: u64::MAX,
            group_deadline_ms: u64::MAX,
            decode_max_bytes: u64::MAX,
            decode_max_nodes: u64::MAX,
            dict_max_entries: u64::MAX,
            graph_max_nodes: u64::MAX,
            graph_max_edges: u64::MAX,
            max_group_width: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_finite_and_unlimited_is_not() {
        for (dv, uv) in [
            (
                Limits::default().replay_fuel,
                Limits::unlimited().replay_fuel,
            ),
            (
                Limits::default().group_deadline_ms,
                Limits::unlimited().group_deadline_ms,
            ),
            (
                Limits::default().decode_max_bytes,
                Limits::unlimited().decode_max_bytes,
            ),
            (
                Limits::default().decode_max_nodes,
                Limits::unlimited().decode_max_nodes,
            ),
            (
                Limits::default().dict_max_entries,
                Limits::unlimited().dict_max_entries,
            ),
            (
                Limits::default().graph_max_nodes,
                Limits::unlimited().graph_max_nodes,
            ),
            (
                Limits::default().graph_max_edges,
                Limits::unlimited().graph_max_edges,
            ),
            (
                Limits::default().max_group_width,
                Limits::unlimited().max_group_width,
            ),
        ] {
            assert!(dv < u64::MAX);
            assert_eq!(uv, u64::MAX);
        }
    }
}
