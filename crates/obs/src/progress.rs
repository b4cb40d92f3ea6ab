//! Live audit progress: an atomics-only heartbeat that worker threads
//! update as groups replay and that any thread can snapshot without
//! taking the obs mutex.
//!
//! The [`Progress`] struct is what a poller reads of a long-running
//! audit: phase (a [`Layer`]), groups replayed / total, fuel spent, and the
//! early-abort floor. Every field is a relaxed atomic — the counters
//! are monotone within one audit (each worker only ever adds), so a
//! mid-flight [`ProgressSnapshot`] is always consistent enough to
//! answer "is it moving?" even while workers race, and the snapshot
//! itself never blocks replay.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::layer::Layer;

/// Sentinel for "no early-abort floor": no group has hard-failed.
const NO_FLOOR: u64 = u64::MAX;

/// The atomics-only heartbeat. Lives inside the enabled `Obs` handle;
/// the noop handle has none and every update is an early return.
#[derive(Debug)]
pub struct Progress {
    phase: AtomicU8,
    groups_total: AtomicU64,
    groups_done: AtomicU64,
    fuel_spent: AtomicU64,
    floor: AtomicU64,
}

impl Default for Progress {
    fn default() -> Self {
        Progress::new()
    }
}

impl Progress {
    /// A fresh heartbeat: idle, nothing replayed, no floor.
    pub fn new() -> Self {
        Progress {
            phase: AtomicU8::new(Layer::Idle as u8),
            groups_total: AtomicU64::new(0),
            groups_done: AtomicU64::new(0),
            fuel_spent: AtomicU64::new(0),
            floor: AtomicU64::new(NO_FLOOR),
        }
    }

    /// Enter `phase`.
    pub fn set_phase(&self, phase: Layer) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Announce the replay's group count (called once, before any
    /// group replays).
    pub fn set_replay_total(&self, total: u64) {
        self.groups_total.store(total, Ordering::Relaxed);
    }

    /// One group finished replaying, spending `fuel` units.
    pub fn group_replayed(&self, fuel: u64) {
        self.groups_done.fetch_add(1, Ordering::Relaxed);
        self.fuel_spent.fetch_add(fuel, Ordering::Relaxed);
    }

    /// A group hard-failed: lower the early-abort floor to `group`
    /// (keeps the minimum across racing workers).
    pub fn note_floor(&self, group: u64) {
        self.floor.fetch_min(group, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time reading.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            phase: Layer::from_u8(self.phase.load(Ordering::Relaxed)),
            groups_total: self.groups_total.load(Ordering::Relaxed),
            groups_done: self.groups_done.load(Ordering::Relaxed),
            fuel_spent: self.fuel_spent.load(Ordering::Relaxed),
            failed_floor: match self.floor.load(Ordering::Relaxed) {
                NO_FLOOR => None,
                g => Some(g),
            },
        }
    }
}

/// A point-in-time reading of a [`Progress`] heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// The layer the audit is in.
    pub phase: Layer,
    /// Total replay groups (0 until replay starts).
    pub groups_total: u64,
    /// Groups that have finished replaying.
    pub groups_done: u64,
    /// Fuel spent by finished groups.
    pub fuel_spent: u64,
    /// Smallest hard-failed group index, if any group hard-failed.
    pub failed_floor: Option<u64>,
}

impl Default for ProgressSnapshot {
    fn default() -> Self {
        ProgressSnapshot {
            phase: Layer::Idle,
            groups_total: 0,
            groups_done: 0,
            fuel_spent: 0,
            failed_floor: None,
        }
    }
}

impl ProgressSnapshot {
    /// The snapshot as a JSON object (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"phase\": \"{}\", \"groups_total\": {}, \"groups_done\": {}, \"fuel_spent\": {}, \"failed_floor\": {}}}",
            self.phase.name(),
            self.groups_total,
            self.groups_done,
            self.fuel_spent,
            match self.failed_floor {
                Some(g) => g.to_string(),
                None => "null".to_string(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_accumulate_and_snapshot() {
        let p = Progress::new();
        assert_eq!(p.snapshot(), ProgressSnapshot::default());
        p.set_phase(Layer::Replay);
        p.set_replay_total(4);
        p.group_replayed(10);
        p.group_replayed(32);
        let s = p.snapshot();
        assert_eq!(s.phase, Layer::Replay);
        assert_eq!(s.groups_total, 4);
        assert_eq!(s.groups_done, 2);
        assert_eq!(s.fuel_spent, 42);
        assert_eq!(s.failed_floor, None);
    }

    #[test]
    fn floor_keeps_minimum() {
        let p = Progress::new();
        p.note_floor(7);
        p.note_floor(3);
        p.note_floor(9);
        assert_eq!(p.snapshot().failed_floor, Some(3));
    }

    #[test]
    fn snapshot_json_shape() {
        let p = Progress::new();
        p.set_phase(Layer::Done);
        let j = p.snapshot().to_json();
        assert!(j.contains("\"phase\": \"done\""));
        assert!(j.contains("\"failed_floor\": null"));
    }
}
