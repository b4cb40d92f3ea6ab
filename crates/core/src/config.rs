//! Runtime configuration: the resource-governance [`Limits`] and the
//! one place every `KAROUSOS_*` environment gate is parsed.
//!
//! Precedence is always **explicit `AuditOptions` > environment >
//! default**: the plain entry points ([`crate::audit`],
//! [`crate::audit_encoded`]) build their options through
//! [`crate::AuditOptions::from_env`], which reads the variables below,
//! while the `*_with_options` entry points take whatever the caller
//! constructed and never consult the environment.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `KAROUSOS_VERIFY_THREADS` | replay/graph worker count (`0` = one per core) | `1` |
//! | `KAROUSOS_BYTECODE` | bytecode-VM replay (`0`/`off`/`false`/empty fall back to the tree-walk) | on |
//! | `KAROUSOS_OBS` | instrumented path for plain entry points (empty/`0` off) | off |
//! | `KAROUSOS_ADVICE_MMAP` | file-backed audits memory-map the advice file (empty/`0` off) | off |
//! | `KAROUSOS_PROM_ADDR` | serve live Prometheus metrics on this address (e.g. `127.0.0.1:9464`; empty off) | off |
//! | `KAROUSOS_LIMITS_REPLAY_FUEL` | per-group replay step budget | `1<<26` |
//! | `KAROUSOS_LIMITS_GROUP_DEADLINE_MS` | per-group wall-clock deadline (ms) | `60000` |
//! | `KAROUSOS_LIMITS_DECODE_BYTES` | max advice wire size (bytes) | `1<<31` |
//! | `KAROUSOS_LIMITS_DECODE_NODES` | max decoded advice entries | `1<<26` |
//! | `KAROUSOS_LIMITS_DICT_ENTRIES` | max total advice log entries | `1<<24` |
//! | `KAROUSOS_LIMITS_GRAPH_NODES` | max execution-graph nodes | `1<<26` |
//! | `KAROUSOS_LIMITS_GRAPH_EDGES` | max execution-graph edges | `1<<27` |
//! | `KAROUSOS_LIMITS_GROUP_WIDTH` | max replay-group lanes | `1<<20` |
//!
//! Every `KAROUSOS_LIMITS_*` variable accepts a decimal integer; `0`,
//! `unlimited`, or `none` disable that budget (it becomes `u64::MAX`,
//! and for the deadline: no deadline is armed at all).

/// `KAROUSOS_VERIFY_THREADS`: worker count for group replay and
/// sharded graph assembly.
pub const ENV_VERIFY_THREADS: &str = "KAROUSOS_VERIFY_THREADS";
/// `KAROUSOS_BYTECODE`: toggles bytecode-VM replay in both the live
/// runtime and the verifier (default on; `0`/`off`/`false`/empty fall
/// back to the tree-walking interpreters).
/// Defined in `kem::bytecode` because the gate also governs the live
/// server, which cannot depend on this crate; re-exported here so the
/// verifier side reads it from the same module as every other gate.
pub const ENV_BYTECODE: &str = kem::bytecode::ENV_BYTECODE;
/// `KAROUSOS_OBS`: plain entry points record into an enabled
/// observability handle (default off).
pub const ENV_OBS: &str = "KAROUSOS_OBS";
/// `KAROUSOS_ADVICE_MMAP`: file-backed audit entry points memory-map
/// the advice file instead of reading it into a heap buffer (default
/// off; mapping failures fall back to a plain read). Cannot change
/// verdicts — both paths hand the decoder the same bytes.
pub const ENV_ADVICE_MMAP: &str = "KAROUSOS_ADVICE_MMAP";
/// `KAROUSOS_PROM_ADDR`: address a capture/report run's background
/// exporter serves live Prometheus text-format metrics on (default
/// off; consumed by the bench harness, which owns the exporter
/// thread — the verifier core never spawns one).
pub const ENV_PROM_ADDR: &str = "KAROUSOS_PROM_ADDR";
/// `KAROUSOS_LIMITS_REPLAY_FUEL`: [`Limits::replay_fuel`] override.
pub const ENV_LIMITS_REPLAY_FUEL: &str = "KAROUSOS_LIMITS_REPLAY_FUEL";
/// `KAROUSOS_LIMITS_GROUP_DEADLINE_MS`: [`Limits::group_deadline_ms`]
/// override.
pub const ENV_LIMITS_GROUP_DEADLINE_MS: &str = "KAROUSOS_LIMITS_GROUP_DEADLINE_MS";
/// `KAROUSOS_LIMITS_DECODE_BYTES`: [`Limits::decode_max_bytes`]
/// override.
pub const ENV_LIMITS_DECODE_BYTES: &str = "KAROUSOS_LIMITS_DECODE_BYTES";
/// `KAROUSOS_LIMITS_DECODE_NODES`: [`Limits::decode_max_nodes`]
/// override.
pub const ENV_LIMITS_DECODE_NODES: &str = "KAROUSOS_LIMITS_DECODE_NODES";
/// `KAROUSOS_LIMITS_DICT_ENTRIES`: [`Limits::dict_max_entries`]
/// override.
pub const ENV_LIMITS_DICT_ENTRIES: &str = "KAROUSOS_LIMITS_DICT_ENTRIES";
/// `KAROUSOS_LIMITS_GRAPH_NODES`: [`Limits::graph_max_nodes`]
/// override.
pub const ENV_LIMITS_GRAPH_NODES: &str = "KAROUSOS_LIMITS_GRAPH_NODES";
/// `KAROUSOS_LIMITS_GRAPH_EDGES`: [`Limits::graph_max_edges`]
/// override.
pub const ENV_LIMITS_GRAPH_EDGES: &str = "KAROUSOS_LIMITS_GRAPH_EDGES";
/// `KAROUSOS_LIMITS_GROUP_WIDTH`: [`Limits::max_group_width`]
/// override.
pub const ENV_LIMITS_GROUP_WIDTH: &str = "KAROUSOS_LIMITS_GROUP_WIDTH";

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
    /// Deterministic per-group replay step budget: one unit per
    /// statement executed and per expression node evaluated. Counted
    /// inside the single-threaded per-group interpreter, so the spend
    /// — and the verdict — is bit-identical at every thread count.
    pub replay_fuel: u64,
    /// Per-group wall-clock deadline in milliseconds. The only
    /// machine-dependent budget (documented in DESIGN.md §10): it
    /// backstops cost the fuel meter cannot see (e.g. allocator
    /// pressure), and honest deployments keep it far above any
    /// plausible group.
    pub group_deadline_ms: u64,
    /// Maximum advice wire size in bytes, checked before decoding.
    pub decode_max_bytes: u64,
    /// Maximum total decoded advice entries (tags, log entries, write
    /// order, emitters, opcounts, nondet records), charged from the
    /// declared section lengths *before* any allocation is reserved.
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

    /// Limits from the environment: each `KAROUSOS_LIMITS_*` variable
    /// overrides its field (see the module table); anything unset or
    /// unparseable keeps the default.
    pub fn from_env() -> Self {
        let defaults = Limits::default();
        let var = |name: &str, default: u64| parse_limit(env_var(name).as_deref(), default);
        Limits {
            replay_fuel: var(ENV_LIMITS_REPLAY_FUEL, defaults.replay_fuel),
            group_deadline_ms: var(ENV_LIMITS_GROUP_DEADLINE_MS, defaults.group_deadline_ms),
            decode_max_bytes: var(ENV_LIMITS_DECODE_BYTES, defaults.decode_max_bytes),
            decode_max_nodes: var(ENV_LIMITS_DECODE_NODES, defaults.decode_max_nodes),
            dict_max_entries: var(ENV_LIMITS_DICT_ENTRIES, defaults.dict_max_entries),
            graph_max_nodes: var(ENV_LIMITS_GRAPH_NODES, defaults.graph_max_nodes),
            graph_max_edges: var(ENV_LIMITS_GRAPH_EDGES, defaults.graph_max_edges),
            max_group_width: var(ENV_LIMITS_GROUP_WIDTH, defaults.max_group_width),
        }
    }
}

fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parses a worker-thread count (`None`/unparseable → `1`; `0` is
/// passed through and later resolved to one worker per core).
pub fn parse_threads(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(1)
}

/// Parses an off-by-default switch (the `KAROUSOS_OBS` contract):
/// missing, empty, or `0` → off; anything else → on.
pub fn parse_switch_default_off(raw: Option<&str>) -> bool {
    match raw {
        None => false,
        Some(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
    }
}

/// Parses one `KAROUSOS_LIMITS_*` value: a decimal integer sets the
/// budget, `0`/`unlimited`/`none` disable it (→ `u64::MAX`), and
/// anything missing or unparseable keeps `default`.
pub fn parse_limit(raw: Option<&str>, default: u64) -> u64 {
    let Some(raw) = raw else { return default };
    let v = raw.trim().to_ascii_lowercase();
    if v == "0" || v == "unlimited" || v == "none" {
        return u64::MAX;
    }
    v.parse::<u64>().unwrap_or(default)
}

/// Reads `KAROUSOS_VERIFY_THREADS` (see [`parse_threads`]).
pub fn verify_threads_from_env() -> usize {
    parse_threads(env_var(ENV_VERIFY_THREADS).as_deref())
}

/// Reads `KAROUSOS_OBS` (see [`parse_switch_default_off`]).
pub fn obs_from_env() -> bool {
    parse_switch_default_off(env_var(ENV_OBS).as_deref())
}

/// Reads `KAROUSOS_ADVICE_MMAP` (see [`parse_switch_default_off`]).
pub fn advice_mmap_from_env() -> bool {
    parse_switch_default_off(env_var(ENV_ADVICE_MMAP).as_deref())
}

/// Reads `KAROUSOS_BYTECODE` (see
/// [`kem::bytecode::parse_bytecode_switch`]).
pub fn bytecode_from_env() -> bool {
    kem::bytecode::bytecode_from_env()
}

/// Parses one `KAROUSOS_PROM_ADDR` value: a non-empty trimmed address
/// enables the live exporter, anything else (missing, empty,
/// whitespace) leaves it off.
pub fn parse_prom_addr(raw: Option<&str>) -> Option<String> {
    let v = raw?.trim();
    if v.is_empty() {
        None
    } else {
        Some(v.to_string())
    }
}

/// Reads `KAROUSOS_PROM_ADDR` (see [`parse_prom_addr`]).
pub fn prom_addr_from_env() -> Option<String> {
    parse_prom_addr(env_var(ENV_PROM_ADDR).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    // One unit test per environment variable's parse contract. The
    // parsers are pure (they take `Option<&str>`), so the tests never
    // mutate process-global environment state — safe under the
    // parallel test runner.

    #[test]
    fn karousos_verify_threads_parse() {
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("4")), 4);
        assert_eq!(parse_threads(Some(" 8 ")), 8);
        assert_eq!(parse_threads(Some("0")), 0); // = one per core
        assert_eq!(parse_threads(Some("bogus")), 1);
    }

    #[test]
    fn karousos_bytecode_parse() {
        use kem::bytecode::parse_bytecode_switch;
        assert!(parse_bytecode_switch(None));
        assert!(!parse_bytecode_switch(Some("")));
        assert!(!parse_bytecode_switch(Some("0")));
        assert!(!parse_bytecode_switch(Some("OFF")));
        assert!(!parse_bytecode_switch(Some("false")));
        assert!(parse_bytecode_switch(Some("1")));
        assert!(parse_bytecode_switch(Some("on")));
    }

    #[test]
    fn karousos_obs_parse() {
        assert!(!parse_switch_default_off(None));
        assert!(!parse_switch_default_off(Some("")));
        assert!(!parse_switch_default_off(Some("0")));
        assert!(parse_switch_default_off(Some("1")));
        assert!(parse_switch_default_off(Some("json")));
    }

    #[test]
    fn karousos_advice_mmap_parse() {
        // Same default-off switch contract as `KAROUSOS_OBS`: unset,
        // empty, and "0" are off; any other non-empty value is on.
        assert!(!parse_switch_default_off(None));
        assert!(!parse_switch_default_off(Some("0")));
        assert!(!parse_switch_default_off(Some("  ")));
        assert!(parse_switch_default_off(Some("1")));
        assert!(parse_switch_default_off(Some("mmap")));
    }

    #[test]
    fn karousos_prom_addr_parse() {
        assert_eq!(parse_prom_addr(None), None);
        assert_eq!(parse_prom_addr(Some("")), None);
        assert_eq!(parse_prom_addr(Some("   ")), None);
        assert_eq!(
            parse_prom_addr(Some(" 127.0.0.1:9464 ")),
            Some("127.0.0.1:9464".to_string())
        );
    }

    #[test]
    fn karousos_limits_replay_fuel_parse() {
        let d = Limits::default().replay_fuel;
        assert_eq!(parse_limit(None, d), d);
        assert_eq!(parse_limit(Some("5000"), d), 5000);
        assert_eq!(parse_limit(Some("0"), d), u64::MAX);
    }

    #[test]
    fn karousos_limits_group_deadline_ms_parse() {
        let d = Limits::default().group_deadline_ms;
        assert_eq!(parse_limit(Some("250"), d), 250);
        assert_eq!(parse_limit(Some("unlimited"), d), u64::MAX);
        assert_eq!(parse_limit(Some("garbage"), d), d);
    }

    #[test]
    fn karousos_limits_decode_bytes_parse() {
        let d = Limits::default().decode_max_bytes;
        assert_eq!(parse_limit(Some("1048576"), d), 1 << 20);
        assert_eq!(parse_limit(Some("none"), d), u64::MAX);
    }

    #[test]
    fn karousos_limits_decode_nodes_parse() {
        let d = Limits::default().decode_max_nodes;
        assert_eq!(parse_limit(Some("123"), d), 123);
        assert_eq!(parse_limit(Some(""), d), d);
    }

    #[test]
    fn karousos_limits_dict_entries_parse() {
        let d = Limits::default().dict_max_entries;
        assert_eq!(parse_limit(Some(" 42 "), d), 42);
        assert_eq!(parse_limit(Some("UNLIMITED"), d), u64::MAX);
    }

    #[test]
    fn karousos_limits_graph_nodes_parse() {
        let d = Limits::default().graph_max_nodes;
        assert_eq!(parse_limit(Some("777"), d), 777);
        assert_eq!(parse_limit(Some("-3"), d), d);
    }

    #[test]
    fn karousos_limits_graph_edges_parse() {
        let d = Limits::default().graph_max_edges;
        assert_eq!(parse_limit(Some("888"), d), 888);
        assert_eq!(parse_limit(None, d), d);
    }

    #[test]
    fn karousos_limits_group_width_parse() {
        let d = Limits::default().max_group_width;
        assert_eq!(parse_limit(Some("16"), d), 16);
        assert_eq!(parse_limit(Some("0"), d), u64::MAX);
    }

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
