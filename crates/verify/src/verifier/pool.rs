//! The verifier's one worker pool (DESIGN.md §6): preprocess shards,
//! replay groups and edge-embed fragments are each `n` independent
//! items, run on `threads` threads the calling one included, whose
//! results are consumed in ascending index order.
//!
//! It is also the one place a panicking item is caught: a panic in
//! `work(i, _)` becomes [`RejectReason::VerifierInternal`] at index `i`,
//! like any other error there, so the first error in index order wins
//! at every thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc;

use crate::verifier::reject::RejectReason;

/// Runs items `0..n` of `work(index, lane)` on `threads` threads, the
/// calling one (lane 0) included, and hands `consume` a [`Pool`] whose
/// [`Pool::take`] yields the results in ascending order. Spawned
/// workers (lanes `1..`) claim indices from one counter and send back
/// what they produce; at `threads <= 1` nothing is spawned.
///
/// An index past `floor` when claimed is skipped, and once `consume`
/// returns no worker starts another item. An item that panics is
/// caught, lowers `floor` to its index and is taken as
/// [`RejectReason::VerifierInternal`] with the panic's text.
pub(crate) fn ordered<T: Send, R>(
    threads: usize,
    n: usize,
    floor: &AtomicUsize,
    work: &(dyn Fn(usize, u32) -> T + Sync),
    consume: impl FnOnce(&mut Pool<'_, T>) -> R,
) -> R {
    let next = AtomicUsize::new(0);
    // Claims publish no data (results travel by channel): `Relaxed`.
    let claim = &|| {
        let mut i = next.fetch_add(1, Relaxed);
        while i < n && i > floor.load(Relaxed) {
            i = next.fetch_add(1, Relaxed);
        }
        (i < n).then_some(i)
    };
    let work = &|i: usize, lane: u32| {
        catch_unwind(AssertUnwindSafe(|| work(i, lane))).map_err(|payload| {
            floor.fetch_min(i, Relaxed);
            let what = format!("pool item {i} panicked: {}", panic_message(&*payload));
            RejectReason::VerifierInternal { what }
        })
    };
    let spawned = threads.min(n).saturating_sub(1);
    if spawned == 0 {
        return consume(&mut Pool {
            claim,
            work,
            slots: Vec::new(),
            arrivals: None,
        });
    }
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for lane in (1u32..).take(spawned) {
            let tx = tx.clone();
            // A failed send means `consume` has returned: stop.
            s.spawn(move || {
                std::iter::from_fn(claim).try_for_each(|i| tx.send((i, work(i, lane))))
            });
        }
        drop(tx);
        consume(&mut Pool {
            claim,
            work,
            slots: (0..n).map(|_| None).collect(),
            arrivals: Some(rx),
        })
    })
}

/// [`ordered`], collecting the results in order up to the first error.
pub(crate) fn collect<T: Send>(
    threads: usize,
    n: usize,
    work: &(dyn Fn(usize) -> Result<T, RejectReason> + Sync),
) -> Result<Vec<T>, RejectReason> {
    let never = AtomicUsize::new(usize::MAX);
    ordered(threads, n, &never, &|i, _| work(i), |pool| {
        let mut all = Vec::with_capacity(n);
        for i in 0..n {
            all.push(pool.take(i)??);
        }
        Ok(all)
    })
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What [`ordered`] hands its `consume`.
pub(crate) struct Pool<'p, T> {
    /// The next unclaimed index at or below the floor.
    claim: &'p (dyn Fn() -> Option<usize> + Sync),
    /// `work`, with its panics caught.
    work: &'p (dyn Fn(usize, u32) -> Result<T, RejectReason> + Sync),
    /// Results ahead of their turn; never allocated at one thread.
    slots: Vec<Option<Result<T, RejectReason>>>,
    /// What the workers send. It disconnects once they have all exited.
    arrivals: Option<mpsc::Receiver<(usize, Result<T, RejectReason>)>>,
}

impl<T> Pool<'_, T> {
    /// Item `i`'s result: one that has arrived, else the next unclaimed
    /// item run here (item `i` itself, inline, at one thread), else a
    /// wait for the workers. Indices must ascend from call to call.
    /// Fails with [`RejectReason::VerifierInternal`] when item `i`
    /// panicked, and closed with it when nobody is left to produce
    /// item `i` because it was skipped past the floor.
    pub(crate) fn take(&mut self, i: usize) -> Result<T, RejectReason> {
        loop {
            if let Some(rx) = &self.arrivals {
                for (j, done) in rx.try_iter() {
                    self.slots[j] = Some(done);
                }
            }
            if let Some(done) = self.slots.get_mut(i).and_then(Option::take) {
                return done;
            }
            let (j, done) = match (self.claim)() {
                Some(j) if j < i => continue,
                Some(j) => (j, (self.work)(j, 0)),
                None => match self.arrivals.as_ref().map(mpsc::Receiver::recv) {
                    Some(Ok(arrived)) => arrived,
                    _ => {
                        let what = format!("pool item {i} has no producer left");
                        return Err(RejectReason::VerifierInternal { what });
                    }
                },
            };
            if j == i {
                return done;
            }
            self.slots[j] = Some(done);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    const THREADS: [usize; 5] = [0, 1, 2, 3, 8];
    const SIZES: [usize; 4] = [0, 1, 2, 17];

    fn never() -> AtomicUsize {
        AtomicUsize::new(usize::MAX)
    }

    #[test]
    fn results_arrive_in_ascending_order() {
        for threads in THREADS {
            for n in SIZES {
                let got = ordered(threads, n, &never(), &|i, _| i * 10, |pool| {
                    (0..n).map(|i| pool.take(i).unwrap()).collect::<Vec<_>>()
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(got, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn one_thread_runs_everything_on_the_caller() {
        let caller = thread::current().id();
        for threads in [0, 1] {
            for n in SIZES {
                let work = |_: usize, lane: u32| (thread::current().id(), lane);
                ordered(threads, n, &never(), &work, |pool| {
                    // Nothing spawned, nothing to wait for, no board.
                    assert!(pool.arrivals.is_none() && pool.slots.capacity() == 0);
                    for i in 0..n {
                        assert_eq!(pool.take(i).unwrap(), (caller, 0), "threads {threads}");
                    }
                });
            }
        }
    }

    #[test]
    fn nothing_past_a_lowered_floor_runs() {
        const FLOOR: usize = 5;
        for threads in THREADS {
            let floor = AtomicUsize::new(FLOOR);
            let ran: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            let work = |i: usize, _: u32| ran[i].fetch_add(1, Relaxed);
            let past = ordered(threads, ran.len(), &floor, &work, |pool| {
                for i in 0..=FLOOR {
                    pool.take(i).unwrap();
                }
                pool.take(FLOOR + 1)
            });
            for (i, count) in ran.iter().enumerate() {
                let want = usize::from(i <= FLOOR);
                let count = count.load(Relaxed);
                assert_eq!(count, want, "threads {threads}, item {i}");
            }
            // Nobody will produce it: taking it fails closed.
            assert!(
                matches!(past, Err(RejectReason::VerifierInternal { .. })),
                "threads {threads}: {past:?}"
            );
        }
    }

    #[test]
    fn a_panicking_item_is_an_error_at_its_index_and_never_hangs() {
        for threads in THREADS {
            for bad in [0, 8, 16] {
                let (tx, rx) = mpsc::channel();
                let helper = thread::spawn(move || {
                    let work = |i: usize, _: u32| {
                        if i == bad {
                            panic!("item {i}");
                        }
                        i
                    };
                    let taken = ordered(threads, 17, &never(), &work, |pool| {
                        (0..=bad).map(|i| pool.take(i)).collect::<Vec<_>>()
                    });
                    tx.send(taken).unwrap();
                });
                let taken = rx
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("threads {threads}, item {bad}: hung"));
                helper.join().unwrap();
                let (last, before) = taken.split_last().unwrap();
                for (i, got) in before.iter().enumerate() {
                    assert_eq!(got.as_ref().ok(), Some(&i), "threads {threads}, item {bad}");
                }
                match last {
                    Err(RejectReason::VerifierInternal { what }) => {
                        assert!(what.contains(&format!("item {bad}")), "{what}");
                    }
                    other => panic!("threads {threads}, item {bad}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn an_earlier_error_beats_a_later_panic_at_every_thread_count() {
        for threads in THREADS {
            let work = |i: usize| match i {
                2 => {
                    thread::sleep(Duration::from_millis(50));
                    Err(RejectReason::CycleInG)
                }
                9 => panic!("item {i}"),
                _ => Ok(i),
            };
            let got = collect(threads, 17, &work);
            assert!(
                matches!(got, Err(RejectReason::CycleInG)),
                "threads {threads}: {got:?}"
            );
        }
    }
}
