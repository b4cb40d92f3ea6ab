//! The benchmark's counting allocator.
//!
//! Wraps the system allocator. While counting is off (every timed
//! sample) it costs one relaxed load per call; while on it counts
//! alloc+realloc calls, bytes requested, and the live-heap watermark.
//! The end-to-end run turns it on for exactly one honest `threads=1`
//! audit, the traced run for its counting iterations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: usize) {
    EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    // Memory allocated before counting started may be freed while it is
    // on: saturate instead of wrapping below zero.
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only this module's atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Counter readings at one instant. Differences between two snapshots
/// taken while counting is on give a layer's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// alloc + alloc_zeroed + realloc calls.
    pub events: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes allocated since counting started and not yet freed.
    pub live: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        events: EVENTS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// Totals of one counted region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    pub events: u64,
    pub bytes: u64,
    pub peak_live: u64,
}

/// Runs `f` with counting on, from zeroed counters. Not reentrant: the
/// benchmark counts one operation at a time.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    for c in [&EVENTS, &BYTES, &LIVE, &PEAK] {
        c.store(0, Ordering::SeqCst);
    }
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let counted = Counted {
        events: EVENTS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
        peak_live: PEAK.load(Ordering::SeqCst),
    };
    (out, counted)
}
