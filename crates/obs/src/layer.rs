//! The audit's layers: the one list of "where in the audit are we".
//!
//! The heartbeat's phase, the coordinator spans of the Chrome trace, the
//! keys of [`PhaseTiming`] and the phase a REJECT reports are all a
//! [`Layer`] rendered by [`Layer::name`], and the audit moves through
//! them with one primitive, [`LayerClock`]. Consecutive layers share the
//! boundary's one clock reading, so the layers cover the audit.

use std::time::{Duration, Instant};

use crate::Obs;

/// Declares [`Layer`], [`Layer::ALL`] and [`Layer::name`] from one
/// table, so an ordinal, its place in `ALL` and its name cannot disagree.
macro_rules! layers {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One stretch of an audit, in the order an audit passes through
        /// them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Layer {
            $($(#[$doc])* $variant,)*
        }

        impl Layer {
            /// Every layer, in ordinal order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            /// Stable lower-snake name: the span name, the heartbeat's
            /// phase, the `<name>_us` key of [`PhaseTiming::to_json`].
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }
        }
    };
}

layers! {
    /// No audit has started on this handle.
    Idle => "idle",
    /// The byte budget and the bounded view decode of the wire-form
    /// advice.
    Decode => "decode",
    /// The `AdviceRef` build over the view: each distinct logged value
    /// built once.
    AdviceRef => "advice_ref",
    /// Volume budgets, advice checks, OpMap and base-graph
    /// construction, isolation verification, trusted initialization.
    Preprocess => "preprocess",
    /// Group replay and what overlaps it: the deferred-edge merge and,
    /// with several threads, the calling thread's waits for workers.
    Replay => "replay",
    /// The calling thread's time applying each group's variable accesses
    /// to the global state and running the whole-audit final checks. It
    /// is interleaved with replay, so the heartbeat reads `replay`
    /// throughout and this layer's time is carved out of that one's.
    StateMerge => "state_merge",
    /// Embedding the per-variable WR/WW/RW edges into `G`, then the
    /// graph budgets.
    EdgeEmbed => "edge_embed",
    /// The single post-merge acyclicity traversal of `G`.
    CycleCheck => "cycle_check",
    /// Dropping what the audit built: graph, variable states,
    /// preprocess tables, advice, interner, view.
    Teardown => "teardown",
    /// The audit ACCEPTed.
    Done => "done",
    /// The audit REJECTed.
    Rejected => "rejected",
}

impl Layer {
    /// Whether an audit spends time here (everything but `idle` and the
    /// two terminal states).
    pub fn is_timed(self) -> bool {
        !matches!(self, Layer::Idle | Layer::Done | Layer::Rejected)
    }

    pub(crate) fn from_u8(v: u8) -> Layer {
        Layer::ALL.get(v as usize).copied().unwrap_or(Layer::Idle)
    }
}

/// Wall clock per [`Layer`]. The layers are disjoint stretches of the
/// calling thread's time, so their sum never exceeds the audit's wall
/// clock at any thread count — and, teardown included, falls short of
/// it only by the call's own prologue and epilogue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTiming([Duration; Layer::ALL.len()]);

impl std::ops::Index<Layer> for PhaseTiming {
    type Output = Duration;

    fn index(&self, layer: Layer) -> &Duration {
        &self.0[layer as usize]
    }
}

impl PhaseTiming {
    pub(crate) fn add(&mut self, layer: Layer, wall: Duration) {
        self.0[layer as usize] += wall;
    }

    /// The timed layers with their wall clock, in audit order.
    pub fn layers(&self) -> impl Iterator<Item = (Layer, Duration)> + '_ {
        let timed = Layer::ALL.iter().filter(|l| l.is_timed());
        timed.map(|l| (*l, self[*l]))
    }

    /// Sum of all layers.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }

    /// The breakdown as a JSON object: `<layer>_us` per timed layer and
    /// `total_us` (microsecond integers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (layer, wall) in self.layers() {
            out.push_str(&format!("\"{}_us\": {}, ", layer.name(), wall.as_micros()));
        }
        out.push_str(&format!("\"total_us\": {}}}", self.total().as_micros()));
        out
    }
}

impl std::fmt::Display for PhaseTiming {
    /// One-line human-readable breakdown in milliseconds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (layer, wall) in self.layers() {
            write!(f, "{} {:.2} | ", layer.name(), wall.as_secs_f64() * 1e3)?;
        }
        write!(f, "total {:.2} ms", self.total().as_secs_f64() * 1e3)
    }
}

/// The boundary primitive: which layer the audit is in and since when.
///
/// Works the same on a noop handle — the timing is part of every
/// report — where a boundary costs one clock reading and no allocation.
#[derive(Debug)]
pub struct LayerClock<'a> {
    obs: &'a Obs,
    layer: Layer,
    since: Instant,
    carved: Duration,
    timing: PhaseTiming,
}

impl<'a> LayerClock<'a> {
    /// Starts an audit in `layer`.
    pub fn start(obs: &'a Obs, layer: Layer) -> Self {
        obs.progress_layer(layer);
        LayerClock {
            obs,
            layer,
            since: Instant::now(),
            carved: Duration::ZERO,
            timing: PhaseTiming::default(),
        }
    }

    /// The layer the audit is in: where a REJECT raised now happened.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// The handle this clock reports to.
    pub fn obs(&self) -> &'a Obs {
        self.obs
    }

    /// The one call at a layer boundary: records the span of the layer
    /// that ends here with `args`, adds its wall time to the timing, and
    /// moves the heartbeat to `next`.
    pub fn enter(&mut self, next: Layer, args: &[(&'static str, u64)]) {
        let now = Instant::now();
        let wall = now.duration_since(self.since);
        let own = wall.saturating_sub(self.carved);
        self.timing.add(self.layer, own);
        self.obs
            .layer_time(self.layer, own, Some((self.since, wall)), args);
        self.obs.progress_layer(next);
        (self.layer, self.since, self.carved) = (next, now, Duration::ZERO);
    }

    /// Bills `wall` of the current layer's time to `layer` instead: work
    /// interleaved with the current layer that has no extent of its own
    /// (the streaming state merge inside replay).
    pub fn carve(&mut self, layer: Layer, wall: Duration) {
        self.carved += wall;
        self.timing.add(layer, wall);
        self.obs.layer_time(layer, wall, None, &[]);
    }

    /// The audit's one terminal transition: ends the current layer and
    /// leaves the heartbeat on `terminal` ([`Layer::Done`] or
    /// [`Layer::Rejected`]).
    pub fn finish(mut self, terminal: Layer) -> PhaseTiming {
        self.enter(terminal, &[]);
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_ordinals_round_trip() {
        let names: std::collections::BTreeSet<_> = Layer::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), Layer::ALL.len());
        assert_eq!(Layer::from_u8(Layer::Teardown as u8), Layer::Teardown);
        assert_eq!(Layer::from_u8(200), Layer::Idle);
    }

    #[test]
    fn clock_covers_its_extent_and_its_snapshot_renders_every_export() {
        let obs = Obs::enabled();
        let begun = Instant::now();
        let mut clock = LayerClock::start(&obs, Layer::Preprocess);
        clock.enter(Layer::Replay, &[]);
        std::thread::sleep(Duration::from_millis(2));
        clock.carve(Layer::StateMerge, Duration::from_millis(1));
        assert_eq!(clock.layer(), Layer::Replay);
        let timing = clock.finish(Layer::Rejected);
        let wall = begun.elapsed();
        assert!(timing.total() <= wall, "{timing} inside {wall:?}");
        assert_eq!(timing[Layer::StateMerge], Duration::from_millis(1));
        assert!(timing[Layer::Replay] >= Duration::from_millis(1));
        let snap = obs.snapshot();
        assert_eq!(snap.layers, timing);
        assert_eq!(snap.progress.phase, Layer::Rejected);
        let names: Vec<_> = snap.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["preprocess", "replay"]);
        assert!(timing.to_json().contains("\"state_merge_us\": 1000"));
        // And the one snapshot renders every export.
        assert!(snap.to_chrome_trace().contains("\"name\":\"replay\""));
        let metrics = snap.to_json();
        assert!(metrics.contains("\"phase\": \"rejected\""), "{metrics}");
        assert!(
            metrics.contains("\"layers\": {\"decode_us\": 0"),
            "{metrics}"
        );
    }
}
