//! Cost-attribution ledger: per-group and per-request audit spend.
//!
//! Every replay worker fills one [`GroupCost`] row into its private
//! `ObsShard`; the coordinator absorbs shards in ascending group order
//! (the same merge discipline as the metrics and the per-variable edge
//! fragments), so the assembled [`CostLedger`] is bit-identical at any
//! thread count — for its *deterministic* columns. Two columns are
//! machine-dependent by nature and excluded from that contract:
//! `wall_us` (wall clock) and `alloc_events` (depends on which worker's scratch pools a group
//! happened to reuse). [`GroupCost::deterministic_key`] names the
//! pinned columns; `tests/ledger_determinism.rs` enforces the matrix.

/// What one replay group cost the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCost {
    /// Group index in replay order.
    pub group: u64,
    /// Requests in the group.
    pub requests: u64,
    /// First request id of the group (groups batch same-tag requests,
    /// so this names a representative request).
    pub first_rid: u64,
    /// The group's handler-tree digest (its control-flow tag; equal
    /// across members by construction). Groups sharing a digest ran
    /// the same handler tree — the "handler" axis of attribution.
    pub digest: u64,
    /// Fuel the group's replay spent.
    pub fuel: u64,
    /// Operations replayed once for the whole group.
    pub uniform_ops: u64,
    /// Operations expanded per member.
    pub expanded_ops: u64,
    /// Bytecode instructions dispatched.
    pub bytecode_ops: u64,
    /// Of `bytecode_ops`, those inside fused windows that ran in place
    /// on collapsed integers (`kem::bytecode`, "Operand fusion").
    pub fused_ops: u64,
    /// Of `fuel`, the units charged inside those windows.
    pub fused_fuel: u64,
    /// Reads satisfied from the advice dictionary.
    pub dict_feeds: u64,
    /// Reads satisfied by a logged var-log entry.
    pub logged_reads: u64,
    /// Shared-variable reads the group recorded (each becomes a
    /// potential WR/RW edge source during the graph merge).
    pub var_reads: u64,
    /// Shared-variable writes the group recorded (each becomes a
    /// potential WR/WW edge source during the graph merge).
    pub var_writes: u64,
    /// Wall-clock microseconds the replay took (advisory: machine- and
    /// schedule-dependent).
    pub wall_us: u64,
    /// Allocations observed by the thread-local [`crate::allocprobe`]
    /// during the replay (advisory: 0 unless a counting allocator feeds
    /// the probe; depends on scratch-pool reuse across groups).
    pub alloc_events: u64,
}

impl GroupCost {
    /// The columns pinned bit-identical across thread counts: all but
    /// the advisory `wall_us` and `alloc_events`.
    pub fn deterministic_key(&self) -> [u64; 13] {
        [
            self.group,
            self.requests,
            self.first_rid,
            self.digest,
            self.fuel,
            self.uniform_ops,
            self.expanded_ops,
            self.bytecode_ops,
            self.fused_ops,
            self.fused_fuel,
            self.dict_feeds,
            self.logged_reads,
            self.var_reads + self.var_writes,
        ]
    }

    /// One ledger row as a JSON object (single line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"group\": {}, \"requests\": {}, \"first_rid\": {}, \"digest\": {}, \"fuel\": {}, \
             \"uniform_ops\": {}, \"expanded_ops\": {}, \"bytecode_ops\": {}, \"fused_ops\": {}, \
             \"fused_fuel\": {}, \"dict_feeds\": {}, \"logged_reads\": {}, \"var_reads\": {}, \
             \"var_writes\": {}, \"wall_us\": {}, \"alloc_events\": {}}}",
            self.group,
            self.requests,
            self.first_rid,
            self.digest,
            self.fuel,
            self.uniform_ops,
            self.expanded_ops,
            self.bytecode_ops,
            self.fused_ops,
            self.fused_fuel,
            self.dict_feeds,
            self.logged_reads,
            self.var_reads,
            self.var_writes,
            self.wall_us,
            self.alloc_events
        )
    }
}

/// What serving one request cost the runtime (recorded by the
/// collector behind the same obs gate; advisory — server-side costs
/// depend on the live schedule, unlike the replay ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestCost {
    /// The request id.
    pub rid: u64,
    /// Handler activations the request triggered.
    pub activations: u64,
    /// Operations those activations logged.
    pub ops: u64,
    /// Fuel those activations burned.
    pub fuel: u64,
}

impl RequestCost {
    /// One ledger row as a JSON object (single line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rid\": {}, \"activations\": {}, \"ops\": {}, \"fuel\": {}}}",
            self.rid, self.activations, self.ops, self.fuel
        )
    }
}

/// Column sums over a [`CostLedger`]'s group rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerTotals {
    /// Group rows summed.
    pub groups: u64,
    /// Requests covered by those groups.
    pub requests: u64,
    /// Total replay fuel.
    pub fuel: u64,
    /// Total uniform + expanded operations.
    pub ops: u64,
    /// Total bytecode instructions.
    pub bytecode_ops: u64,
    /// Total fuel charged inside fused windows.
    pub fused_fuel: u64,
    /// Total dictionary feeds.
    pub dict_feeds: u64,
    /// Total recorded shared-variable accesses (reads + writes).
    pub var_accesses: u64,
    /// Total advisory wall-clock microseconds.
    pub wall_us: u64,
    /// Total advisory allocation events.
    pub alloc_events: u64,
}

/// The assembled per-group / per-request cost ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostLedger {
    /// One row per replayed group, in ascending group order.
    pub groups: Vec<GroupCost>,
    /// One row per served request (present only when the collector ran
    /// with costs enabled), in ascending request order.
    pub requests: Vec<RequestCost>,
}

impl CostLedger {
    /// Column sums over the group rows.
    pub fn totals(&self) -> LedgerTotals {
        let mut t = LedgerTotals::default();
        for g in &self.groups {
            t.groups += 1;
            t.requests += g.requests;
            t.fuel += g.fuel;
            t.ops += g.uniform_ops + g.expanded_ops;
            t.bytecode_ops += g.bytecode_ops;
            t.fused_fuel += g.fused_fuel;
            t.dict_feeds += g.dict_feeds;
            t.var_accesses += g.var_reads + g.var_writes;
            t.wall_us += g.wall_us;
            t.alloc_events += g.alloc_events;
        }
        t
    }

    /// The `k` most expensive groups by fuel (ties broken by ascending
    /// group index, so the ranking is deterministic).
    pub fn top_groups_by_fuel(&self, k: usize) -> Vec<GroupCost> {
        let mut rows = self.groups.clone();
        rows.sort_by(|a, b| b.fuel.cmp(&a.fuel).then(a.group.cmp(&b.group)));
        rows.truncate(k);
        rows
    }

    /// Per-digest ("handler tree") aggregation: groups sharing a
    /// control-flow tag summed, descending by fuel (ties by digest).
    /// Returns `(digest, groups, requests, fuel, ops)`.
    pub fn by_digest(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        let mut agg: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for g in &self.groups {
            let e = agg.entry(g.digest).or_default();
            e.0 += 1;
            e.1 += g.requests;
            e.2 += g.fuel;
            e.3 += g.uniform_ops + g.expanded_ops;
        }
        let mut rows: Vec<(u64, u64, u64, u64, u64)> = agg
            .into_iter()
            .map(|(d, (groups, requests, fuel, ops))| (d, groups, requests, fuel, ops))
            .collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
        rows
    }

    /// The ledger as a JSON object: `{"groups": [...], "requests":
    /// [...]}` (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.groups.len() * 160);
        out.push_str("{\"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&g.to_json());
        }
        if !self.groups.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("], \"requests\": [");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&r.to_json());
        }
        if !self.requests.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(group: u64, fuel: u64, digest: u64) -> GroupCost {
        GroupCost {
            group,
            requests: 2,
            fuel,
            digest,
            uniform_ops: 3,
            expanded_ops: 1,
            ..Default::default()
        }
    }

    #[test]
    fn totals_sum_columns() {
        let l = CostLedger {
            groups: vec![row(0, 10, 7), row(1, 32, 7), row(2, 5, 9)],
            requests: Vec::new(),
        };
        let t = l.totals();
        assert_eq!(t.groups, 3);
        assert_eq!(t.requests, 6);
        assert_eq!(t.fuel, 47);
        assert_eq!(t.ops, 12);
    }

    #[test]
    fn top_groups_rank_by_fuel_then_index() {
        let l = CostLedger {
            groups: vec![row(0, 10, 7), row(1, 32, 7), row(2, 10, 9)],
            requests: Vec::new(),
        };
        let top = l.top_groups_by_fuel(2);
        assert_eq!(top[0].group, 1);
        assert_eq!(top[1].group, 0); // tie with group 2 broken by index
    }

    #[test]
    fn digest_aggregation_merges_groups() {
        let l = CostLedger {
            groups: vec![row(0, 10, 7), row(1, 32, 7), row(2, 5, 9)],
            requests: Vec::new(),
        };
        let by = l.by_digest();
        assert_eq!(by[0], (7, 2, 4, 42, 8));
        assert_eq!(by[1], (9, 1, 2, 5, 4));
    }

    #[test]
    fn json_shape() {
        let l = CostLedger {
            groups: vec![row(0, 10, 7)],
            requests: vec![RequestCost {
                rid: 4,
                activations: 1,
                ops: 6,
                fuel: 10,
            }],
        };
        let j = l.to_json();
        assert!(j.contains("\"groups\": ["));
        assert!(j.contains("\"digest\": 7"));
        assert!(j.contains("\"rid\": 4"));
    }
}
