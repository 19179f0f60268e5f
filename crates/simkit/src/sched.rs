//! The event queue and run loop.
//!
//! The [`Scheduler`] is backed by a calendar queue — a bucketed timing
//! wheel with amortized O(1) insert/extract — that realizes the exact
//! `(time, insertion seq)` total order. The test suite drives it against
//! a reference binary heap on randomized schedules; see
//! `docs/PERFORMANCE.md` for the design notes.

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

/// Smallest bucket count a [`CalendarQueue`] shrinks back to.
const CAL_MIN_BUCKETS: usize = 16;
/// Initial bucket width before the first content-driven resize (ns).
const CAL_INITIAL_WIDTH: u64 = 1024;

/// A calendar queue (Brown-style bucketed timing wheel): the
/// [`Scheduler`]'s event queue, with amortized O(1) insert and
/// extract-min.
///
/// Time is divided into `width`-ns *days*, mapped round-robin onto
/// `buckets.len()` unsorted buckets; one lap of the calendar is a
/// *year*. Extract-min scans at most one year of buckets starting at
/// the current cursor day and picks the smallest `(time, seq)` entry
/// of the first populated in-window bucket; if a whole year is empty
/// (entries far in the future), it falls back to a global minimum scan
/// and jumps the cursor there. The queue resizes (doubling/halving the
/// bucket count, re-deriving the width from the live entries' time
/// span) when the load factor leaves `[0.5, 2]`, keeping buckets O(1)
/// in the steady state.
///
/// Determinism: bucket placement and scan order depend only on queue
/// content, and the in-bucket minimum is taken over the total
/// `(time, seq)` key, so `pop_min` always returns the pending event
/// with the smallest `(at, seq)` pair.
struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in nanoseconds (a "day").
    width: u64,
    count: usize,
    /// Lower bound on every pending entry's time: the last popped
    /// time (or zero). The extract scan starts at this day.
    cursor: Nanos,
    /// Cached location of the current minimum entry:
    /// `(bucket, slot, key)`. Valid until the next structural change;
    /// pushes keep it fresh (appends never move existing slots).
    min_pos: Option<(usize, usize, (Nanos, u64))>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..CAL_MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: CAL_INITIAL_WIDTH,
            count: 0,
            cursor: Nanos::ZERO,
            min_pos: None,
        }
    }
}

impl<E> CalendarQueue<E> {
    fn bucket_of(&self, at: Nanos) -> usize {
        // Bucket count is a power of two, so the modulo is a mask.
        ((at.0 / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Locates the minimum-`(time, seq)` entry, caching its position.
    fn find_min(&mut self) -> Option<(usize, usize, (Nanos, u64))> {
        if self.min_pos.is_some() {
            return self.min_pos;
        }
        if self.count == 0 {
            return None;
        }
        let n = self.buckets.len();
        // One calendar year starting at the cursor's day: bucket k of
        // the lap covers times [day_floor + k*width, day_floor +
        // (k+1)*width). The first populated in-window bucket holds the
        // global minimum (later buckets' windows start later; earlier
        // buckets recur a whole year on).
        let day_floor = self.cursor.0 - (self.cursor.0 % self.width);
        let start = self.bucket_of(Nanos(day_floor));
        for k in 0..n {
            let idx = (start + k) & (n - 1);
            let window_end = day_floor.saturating_add((k as u64 + 1).saturating_mul(self.width));
            let best = self.buckets[idx]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.at.0 < window_end)
                .min_by_key(|(_, e)| e.key());
            if let Some((slot, e)) = best {
                self.min_pos = Some((idx, slot, e.key()));
                return self.min_pos;
            }
        }
        // Sparse tail: every entry lies a year or more past the
        // cursor. Global scan, then jump the cursor to the minimum.
        let mut best: Option<(usize, usize, (Nanos, u64))> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            for (slot, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, key)| e.key() < key) {
                    best = Some((idx, slot, e.key()));
                }
            }
        }
        self.min_pos = best;
        self.min_pos
    }

    /// Doubles/halves the calendar when the load factor leaves
    /// `[0.5, 2]`, re-deriving the bucket width from the live entries'
    /// span so one day holds O(1) events in the steady state.
    fn maybe_resize(&mut self) {
        let n = self.buckets.len();
        let new_n = if self.count > 2 * n {
            n * 2
        } else if self.count < n / 2 && n > CAL_MIN_BUCKETS {
            n / 2
        } else {
            return;
        };
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for b in &self.buckets {
            for e in b {
                lo = lo.min(e.at.0);
                hi = hi.max(e.at.0);
            }
        }
        // Average inter-event gap, clamped to a power of two so the
        // day index stays a shift+mask. A collapsed span (all events
        // in one instant) keeps the current width.
        if hi > lo {
            let gap = ((hi - lo) / self.count as u64).max(1);
            self.width = gap.next_power_of_two();
        }
        let old = std::mem::replace(&mut self.buckets, (0..new_n).map(|_| Vec::new()).collect());
        for e in old.into_iter().flatten() {
            let idx = self.bucket_of(e.at);
            self.buckets[idx].push(e);
        }
        self.min_pos = None;
    }

    /// Inserts an event firing at `at` with insertion sequence `seq`.
    fn push(&mut self, at: Nanos, seq: u64, ev: E) {
        // Keep the cursor a true lower bound even if a caller pushes
        // behind it (the Scheduler never does; this keeps the queue
        // correct as a standalone structure).
        if self.count == 0 || at < self.cursor {
            self.cursor = at;
            self.min_pos = None;
        }
        let idx = self.bucket_of(at);
        self.buckets[idx].push(Entry { at, seq, ev });
        self.count += 1;
        // Appends never move existing entries, so a cached minimum
        // stays valid unless the new entry beats it.
        match self.min_pos {
            Some((_, _, key)) if (at, seq) < key => {
                self.min_pos = Some((idx, self.buckets[idx].len() - 1, (at, seq)));
            }
            _ => {}
        }
        self.maybe_resize();
    }

    /// Removes and returns the minimum-`(at, seq)` event.
    fn pop_min(&mut self) -> Option<(Nanos, u64, E)> {
        let (idx, slot, key) = self.find_min()?;
        let e = self.buckets[idx].swap_remove(slot);
        debug_assert_eq!(e.key(), key, "cached minimum went stale");
        self.count -= 1;
        self.cursor = e.at;
        self.min_pos = None;
        self.maybe_resize();
        Some((e.at, e.seq, e.ev))
    }

    /// The `(at, seq)` key of the minimum pending event, if any.
    fn peek_min(&mut self) -> Option<(Nanos, u64)> {
        self.find_min().map(|(_, _, key)| key)
    }

    /// Discards all pending events.
    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.count = 0;
        self.min_pos = None;
    }
}

/// A deterministic future-event queue.
///
/// Events with equal timestamps are delivered in the order they were
/// scheduled (FIFO tie-break), which keeps simulations reproducible.
pub struct Scheduler<E> {
    queue: CalendarQueue<E>,
    seq: u64,
    now: Nanos,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            queue: CalendarQueue::default(),
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
        self.queue.push(at, seq, ev);
    }

    /// Schedules `ev` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, ev: E) {
        let at = self.now + delay;
        self.schedule(at, ev);
    }

    /// The current simulation time (the timestamp of the event being
    /// dispatched, or of the last dispatched event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.count
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.queue.count == 0
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let (at, _seq, ev) = self.queue.pop_min()?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        Some((at, ev))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.queue.peek_min().map(|(at, _)| at)
    }

    /// Discards all pending events without dispatching them.
    pub fn clear(&mut self) {
        self.queue.clear();
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

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
        assert_eq!(s.pending(), 1);
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

    #[test]
    fn schedule_in_is_relative_to_now() {
        struct Chain {
            times: Vec<Nanos>,
        }
        impl World for Chain {
            type Event = ();
            fn handle(&mut self, now: Nanos, _: (), s: &mut Scheduler<()>) {
                self.times.push(now);
                if self.times.len() < 3 {
                    s.schedule_in(Nanos(7), ());
                }
            }
        }
        let mut w = Chain { times: vec![] };
        let mut s = Scheduler::new();
        s.schedule(Nanos(1), ());
        run(&mut w, &mut s, Nanos::MAX);
        assert_eq!(w.times, vec![Nanos(1), Nanos(8), Nanos(15)]);
    }

    #[test]
    fn clear_discards_pending() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(Nanos(1), 1);
        s.schedule(Nanos(2), 2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop().map(|(_, e)| e), None);
    }

    // -------------------------------------------------------------
    // Calendar queue vs reference heap: differential tests
    // -------------------------------------------------------------

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key().cmp(&other.key())
        }
    }

    /// The test oracle: a `BinaryHeap` event queue with O(log n)
    /// push/pop and trivially correct `(time, seq)` ordering via the
    /// entry's `Ord`.
    struct ReferenceHeap<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
    }

    impl<E> ReferenceHeap<E> {
        fn new() -> Self {
            ReferenceHeap {
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, at: Nanos, seq: u64, ev: E) {
            self.heap.push(Reverse(Entry { at, seq, ev }));
        }

        fn pop_min(&mut self) -> Option<(Nanos, u64, E)> {
            let Reverse(e) = self.heap.pop()?;
            Some((e.at, e.seq, e.ev))
        }

        fn peek_min(&self) -> Option<(Nanos, u64)> {
            self.heap.peek().map(|Reverse(e)| e.key())
        }
    }

    /// The calendar queue and the reference heap, fed identical pushes
    /// with scheduler-style sequence numbers; every pop and peek must
    /// agree.
    struct Pair<E> {
        cal: CalendarQueue<E>,
        heap: ReferenceHeap<E>,
        seq: u64,
        /// Time of the last pop: pushes never go behind it.
        now: Nanos,
    }

    impl<E: Clone + PartialEq + std::fmt::Debug> Pair<E> {
        fn new() -> Self {
            Pair {
                cal: CalendarQueue::default(),
                heap: ReferenceHeap::new(),
                seq: 0,
                now: Nanos::ZERO,
            }
        }

        fn push(&mut self, at: Nanos, ev: E) {
            self.cal.push(at, self.seq, ev.clone());
            self.heap.push(at, self.seq, ev);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Nanos, E)> {
            let a = self.cal.pop_min();
            let b = self.heap.pop_min();
            assert_eq!(a, b, "divergent pop");
            let (at, _, ev) = a?;
            self.now = at;
            Some((at, ev))
        }

        fn check(&mut self) {
            assert_eq!(self.cal.count, self.heap.heap.len());
            assert_eq!(self.cal.peek_min(), self.heap.peek_min());
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.heap.heap.is_empty());
        }
    }

    /// Drives both queues through the same deterministic workload of
    /// interleaved pushes and pops, asserting bit-identical dispatch
    /// sequences.
    fn differential(seed: u64, ops: usize, max_gap: u64, burst: u64) {
        let mut rng = crate::rng::Rng::new(seed);
        let mut q: Pair<u64> = Pair::new();
        let mut payload = 0u64;
        for _ in 0..ops {
            let r = rng.next_u64();
            if r % 100 < 60 || q.cal.count == 0 {
                // Push 1..=burst events at (possibly equal) times at
                // or after the last popped time.
                let n = 1 + r % burst;
                for _ in 0..n {
                    let gap = rng.next_u64() % max_gap;
                    q.push(Nanos(q.now.0 + gap), payload);
                    payload += 1;
                }
            } else {
                q.pop();
            }
            q.check();
        }
        q.drain();
    }

    #[test]
    fn calendar_matches_heap_dense_ns_grain() {
        // Dense ns-scale gaps with heavy same-time bursts: exercises
        // FIFO tie-break inside single buckets and resizing upward.
        differential(1, 4_000, 50, 8);
    }

    #[test]
    fn calendar_matches_heap_sparse_ms_grain() {
        // Sparse ms-scale gaps: entries land whole years past the
        // cursor, exercising the global-scan fallback.
        differential(2, 2_000, 5_000_000, 2);
    }

    #[test]
    fn calendar_matches_heap_mixed_scales() {
        // Mixed ns..s gaps in one run: forces repeated width
        // re-derivation as the time span stretches.
        let mut rng = crate::rng::Rng::new(7);
        let mut q: Pair<u32> = Pair::new();
        let mut i = 0u32;
        for _ in 0..3_000 {
            let r = rng.next_u64();
            if r % 10 < 6 || q.cal.count == 0 {
                // Gap magnitude spans 9 decades.
                let mag = 10u64.pow((rng.next_u64() % 9) as u32);
                q.push(Nanos(q.now.0 + rng.next_u64() % mag), i);
                i += 1;
            } else {
                q.pop();
            }
        }
        q.drain();
    }

    #[test]
    fn calendar_matches_heap_self_scheduling_world() {
        // A self-scheduling world: each dispatched event schedules its
        // children into both queues, so the population both grows and
        // drains under the calendar's resizes.
        let mut rng = crate::rng::Rng::new(99);
        let mut q: Pair<u32> = Pair::new();
        q.push(Nanos(0), 0);
        let mut dispatched = 0;
        while let Some((now, ev)) = q.pop() {
            dispatched += 1;
            // Bound the run by dispatch count; fan out unevenly
            // (sometimes two children, with same-time collisions),
            // pruned back to one past the halfway mark.
            if dispatched < 4_000 {
                let gap = rng.next_u64() % 64;
                q.push(now + Nanos(gap), ev + 1);
                if ev.is_multiple_of(3) && dispatched < 2_000 {
                    q.push(now + Nanos(gap), ev + 2);
                }
            }
            q.check();
        }
        assert!(dispatched >= 4_000);
    }

    #[test]
    fn calendar_clear_then_reuse() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule(Nanos(i), i as u32);
        }
        s.clear();
        assert!(s.is_empty());
        s.schedule(Nanos(1_000_000), 7);
        assert_eq!(s.pop(), Some((Nanos(1_000_000), 7)));
    }
}
