//! The event queue and run loop.
//!
//! The [`Scheduler`] is a binary min-heap on `(time, insertion seq)`:
//! O(log n) insert and extract-min, and a total order with no ties. Its
//! callers are the Figure 2 churn fleet and the Figure 3 UDP-echo
//! sweep; the pod advances its own per-actor clocks and never uses it.
//! See `docs/PERFORMANCE.md` §2 for why a plain heap is the design.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// A simulation world: owns all mutable state and dispatches events.
///
/// Implementors define a domain-specific `Event` enum; the run loop pops
/// events in `(time, insertion order)` order and hands them to
/// [`World::handle`], which may schedule further events.
pub trait World {
    /// The domain-specific event type dispatched by this world.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: Nanos, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// One queued event: fire time, insertion sequence, payload. The pair
/// `(at, seq)` is the queue's total order; `seq` is unique, so the
/// order has no ties.
struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic future-event queue.
///
/// Events with equal timestamps are delivered in the order they were
/// scheduled (FIFO tie-break), which keeps simulations reproducible.
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Nanos,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time:
    /// scheduling into the past would violate causality.
    pub fn schedule(&mut self, at: Nanos, ev: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// The current simulation time (the timestamp of the event being
    /// dispatched, or of the last dispatched event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse(Entry { at, ev, .. }) = self.heap.pop()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        Some((at, ev))
    }

    /// Timestamp of the next pending event, if any.
    fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Runs the world until the event queue drains or the next event would
/// fire after `until`. Returns the final simulation time (the timestamp
/// of the last dispatched event).
///
/// Events scheduled exactly at `until` are still dispatched.
pub fn run<W: World>(world: &mut W, sched: &mut Scheduler<W::Event>, until: Nanos) -> Nanos {
    let mut last = sched.now();
    while let Some(next) = sched.peek_time() {
        if next > until {
            break;
        }
        let (now, ev) = sched.pop().expect("peeked event must pop");
        world.handle(now, ev, sched);
        last = now;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    struct Recorder {
        seen: Vec<u32>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, _now: Nanos, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push(ev);
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.schedule(Nanos(30), 3);
        s.schedule(Nanos(10), 1);
        s.schedule(Nanos(20), 2);
        run(&mut w, &mut s, Nanos::MAX);
        assert_eq!(w.seen, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(Nanos(5), i);
        }
        run(&mut w, &mut s, Nanos::MAX);
        assert_eq!(w.seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_respects_horizon() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.schedule(Nanos(10), 1);
        s.schedule(Nanos(20), 2);
        s.schedule(Nanos(21), 3);
        let end = run(&mut w, &mut s, Nanos(20));
        assert_eq!(w.seen, vec![1, 2]);
        assert_eq!(end, Nanos(20));
        assert_eq!(s.pop(), Some((Nanos(21), 3)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: Nanos, _: (), s: &mut Scheduler<()>) {
                s.schedule(now - Nanos(1), ());
            }
        }
        let mut s = Scheduler::new();
        s.schedule(Nanos(10), ());
        run(&mut Bad, &mut s, Nanos::MAX);
    }

    /// Every push gets the next push index as its payload; every pop
    /// is logged as `(time, push index)`.
    struct Log {
        rng: Rng,
        pushed: Vec<(Nanos, u64)>,
        popped: Vec<(Nanos, u64)>,
    }

    impl Log {
        fn push(&mut self, s: &mut Scheduler<u64>, at: Nanos) {
            let idx = self.pushed.len() as u64;
            s.schedule(at, idx);
            self.pushed.push((at, idx));
        }

        /// A gap whose magnitude spans 1 ns to 1 s.
        fn gap(&mut self) -> Nanos {
            let mag = 10u64.pow(self.rng.below(10) as u32);
            Nanos(self.rng.below(mag))
        }

        /// One to eight events at a single time at or after `now`.
        fn burst(&mut self, s: &mut Scheduler<u64>) {
            let at = s.now() + self.gap();
            for _ in 0..self.rng.range(1, 9) {
                self.push(s, at);
            }
        }
    }

    /// A self-scheduling world: each dispatched event may schedule a
    /// child, sometimes two at the same time, until the log is full.
    impl World for Log {
        type Event = u64;
        fn handle(&mut self, now: Nanos, idx: u64, s: &mut Scheduler<u64>) {
            self.popped.push((now, idx));
            if self.pushed.len() < 20_000 && self.rng.chance(0.7) {
                let at = now + self.gap();
                self.push(s, at);
                if self.rng.chance(0.3) {
                    self.push(s, at);
                }
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_follow_time_then_push_order() {
        let mut log = Log {
            rng: Rng::new(18),
            pushed: vec![],
            popped: vec![],
        };
        let mut s = Scheduler::new();
        for round in 0..40 {
            // Direct schedule/pop interleaving through the public API.
            for _ in 0..100 {
                if log.rng.chance(0.55) {
                    log.burst(&mut s);
                } else if let Some((at, idx)) = s.pop() {
                    log.popped.push((at, idx));
                }
            }
            // Then the run loop, with the world adding its own events,
            // up to a horizon that usually leaves some pending.
            let horizon = s.now() + Nanos(10u64.pow(round % 10));
            let end = run(&mut log, &mut s, horizon);
            assert!(end <= horizon);
            assert_eq!(end, log.popped.last().map_or(Nanos::ZERO, |&(at, _)| at));
        }
        run(&mut log, &mut s, Nanos::MAX);
        assert_eq!(s.pop(), None);

        // Every push was at or after the clock, so the whole dispatch
        // sequence is the pushes stably sorted by time.
        let mut expect = log.pushed.clone();
        expect.sort_by_key(|&(at, _)| at);
        assert!(expect.len() > 5_000);
        assert_eq!(log.popped, expect);
    }
}
