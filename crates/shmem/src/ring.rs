//! The SPSC cache-line ring: the paper's shared-memory channel (§4.1).
//!
//! Layout in shared CXL memory (`capacity` slots + one credit line):
//!
//! ```text
//! base + 0*64 .. base + cap*64   message slots, 64 B each
//! base + cap*64                  credit line (receiver → sender)
//! ```
//!
//! Each slot is one cache line: `[seq: u64][len: u16][payload: 54 B]`.
//! The sender stamps message *m* into slot `m % cap` with `seq = m + 1`
//! using a single 64 B non-temporal store — one line, so the store is
//! atomic on the fabric and no separate "valid" flag or ordering
//! barrier is needed. The receiver knows which `seq` to expect in which
//! slot, so stale lines (from `cap` messages ago) can never be confused
//! with fresh ones.
//!
//! Flow control is credit-based: the receiver periodically publishes its
//! consumed count on the credit line (also one non-temporal store); the
//! sender refreshes its cached view only when the ring *looks* full,
//! keeping the common-case send to exactly one CXL write.

use cxl_fabric::{Fabric, FabricError, HostId, Segment};
use simkit::trace::Track;
use simkit::Nanos;

/// Bytes of payload carried by one slot.
pub const SLOT_PAYLOAD: usize = 54;
/// Slot size: one cache line.
pub const SLOT: u64 = 64;

/// CPU cost of assembling/stamping a message before the NT store.
const SEND_CPU_NS: u64 = 15;
/// CPU cost of one poll iteration (branch, compare, loop).
const POLL_CPU_NS: u64 = 20;

/// Timing of one empty poll when every pipe on its path is idle: what
/// [`RingReceiver::poll`] charges when it finds nothing and nothing
/// else is in flight. A poll loop that knows when the next message
/// lands (see [`RingReceiver::next_wake`]) can skip such polls and
/// still advance its clock exactly as the poll would have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdlePoll {
    /// Offset from the poll's start at which its load begins and so
    /// applies every write visible by then: a message visible at `v`
    /// is seen by a poll starting at `t` iff `v <= t + applies`.
    pub applies: Nanos,
    /// Total cost of the empty poll.
    pub cost: Nanos,
}

/// A shared ring allocated in pool memory, not yet split into endpoints.
pub struct RingBuf {
    seg: Segment,
    capacity: u64,
    sender: HostId,
    receiver: HostId,
}

/// Result of a send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message written; visible to the receiver at this time.
    Sent(Nanos),
    /// Ring full even after refreshing credits; retry after this time
    /// (the time the credit check completed).
    Full(Nanos),
}

/// Result of a poll attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// No new message; the poll completed at this time.
    Empty(Nanos),
    /// A message arrived.
    Msg {
        /// Payload bytes (at most [`SLOT_PAYLOAD`]).
        data: Vec<u8>,
        /// Time the receiver had the payload in hand.
        at: Nanos,
    },
}

impl RingBuf {
    /// Allocates a ring of `capacity` slots in memory shared by the two
    /// endpoint hosts, interleaved at the pod's default width.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is zero.
    pub fn allocate(
        fabric: &mut Fabric,
        sender: HostId,
        receiver: HostId,
        capacity: u64,
    ) -> Result<RingBuf, FabricError> {
        RingBuf::place(fabric, sender, receiver, capacity, None)
    }

    /// Like [`RingBuf::allocate`] but backed by a *single* MHD
    /// (`ways = 1`): an interleaved ring dies with any of its MHDs,
    /// while isolated rings fail independently — the control plane
    /// allocates this way so λ-redundant pods can rebuild after a pool
    /// device failure (§5, "highly-available CXL pods").
    pub fn allocate_isolated(
        fabric: &mut Fabric,
        sender: HostId,
        receiver: HostId,
        capacity: u64,
    ) -> Result<RingBuf, FabricError> {
        RingBuf::place(fabric, sender, receiver, capacity, Some(1))
    }

    /// Allocates the ring over `ways` MHDs (`None`: the pod's default
    /// width) and registers it as synchronization state.
    fn place(
        fabric: &mut Fabric,
        sender: HostId,
        receiver: HostId,
        capacity: u64,
        ways: Option<usize>,
    ) -> Result<RingBuf, FabricError> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two, got {capacity}"
        );
        let (hosts, len) = ([sender, receiver], (capacity + 1) * SLOT);
        let seg = match ways {
            Some(ways) => fabric.alloc_interleaved(&hosts, len, ways)?,
            None => fabric.alloc_shared(&hosts, len)?,
        };
        // Slot sequence numbers and the credit line transfer ordering:
        // a receiver observing a slot's seq acquires everything the
        // sender did before publishing it (and vice versa for
        // credits). Registering the ring keeps the vector-clock
        // auditor's happens-before graph in step with the protocol.
        fabric.mark_sync_range(seg.base(), len);
        Ok(RingBuf {
            seg,
            capacity,
            sender,
            receiver,
        })
    }

    /// Splits into the two endpoints.
    pub fn split(self) -> (RingSender, RingReceiver) {
        let credit_every = (self.capacity / 4).max(1);
        (
            RingSender {
                base: self.seg.base(),
                capacity: self.capacity,
                host: self.sender,
                next: 0,
                credits_seen: 0,
            },
            RingReceiver {
                base: self.seg.base(),
                capacity: self.capacity,
                host: self.receiver,
                next: 0,
                published: 0,
                credit_every,
                polls_empty: 0,
                polls_hit: 0,
            },
        )
    }

    /// The backing segment (for freeing later).
    pub fn segment(&self) -> &Segment {
        &self.seg
    }
}

/// The producing endpoint of a ring.
pub struct RingSender {
    base: u64,
    capacity: u64,
    host: HostId,
    /// Index of the next message to send.
    next: u64,
    /// Receiver's consumed count as last observed.
    credits_seen: u64,
}

impl RingSender {
    fn slot_addr(&self, m: u64) -> u64 {
        self.base + (m % self.capacity) * SLOT
    }

    fn credit_addr(&self) -> u64 {
        self.base + self.capacity * SLOT
    }

    /// Number of in-flight (unacknowledged) messages under the current
    /// credit view.
    pub fn in_flight(&self) -> u64 {
        self.next - self.credits_seen
    }

    /// Base address of the ring in pool memory. Stable for the ring's
    /// lifetime, so it doubles as the channel-track identity in trace
    /// exports (see [`simkit::trace::Track::Channel`]).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sends one message of at most [`SLOT_PAYLOAD`] bytes.
    ///
    /// Fast path: one non-temporal 64 B store. If the ring looks full,
    /// the sender refreshes the credit line (one invalidate + load) and
    /// either proceeds or reports [`SendOutcome::Full`]. A sent message
    /// also posts its visibility time as the slot's wake (see
    /// [`Fabric::post_wake`]).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`SLOT_PAYLOAD`] bytes.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        payload: &[u8],
    ) -> Result<SendOutcome, FabricError> {
        assert!(
            payload.len() <= SLOT_PAYLOAD,
            "payload {} exceeds slot capacity {SLOT_PAYLOAD}",
            payload.len()
        );
        let mut now = now;
        if self.in_flight() >= self.capacity {
            // Slow path: refresh credits from the pool.
            let t = fabric.invalidate(now, self.host, self.credit_addr(), SLOT);
            let mut line = [0u8; 8];
            now = fabric.load(t, self.host, self.credit_addr(), &mut line)?;
            self.credits_seen = u64::from_le_bytes(line);
            if self.in_flight() >= self.capacity {
                return Ok(SendOutcome::Full(now));
            }
        }
        let m = self.next;
        let mut slot = [0u8; SLOT as usize];
        slot[0..8].copy_from_slice(&(m + 1).to_le_bytes());
        slot[8..10].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        // simlint: allow(unwrap-in-datapath) -- payload.len() <= SLOT_PAYLOAD asserted at send entry; header + payload fits SLOT
        slot[10..10 + payload.len()].copy_from_slice(payload);
        let addr = self.slot_addr(m);
        let done = fabric.nt_store(now + Nanos(SEND_CPU_NS), self.host, addr, &slot)?;
        fabric.post_wake(addr, done);
        self.next = m + 1;
        Ok(SendOutcome::Sent(done))
    }
}

/// The consuming endpoint of a ring.
pub struct RingReceiver {
    base: u64,
    capacity: u64,
    host: HostId,
    /// Index of the next message to receive.
    next: u64,
    /// Consumed count last published on the credit line.
    published: u64,
    /// Publish credits every this many messages.
    credit_every: u64,
    /// Polls that found no new message.
    polls_empty: u64,
    /// Polls that consumed a message.
    polls_hit: u64,
}

impl RingReceiver {
    fn slot_addr(&self, m: u64) -> u64 {
        self.base + (m % self.capacity) * SLOT
    }

    fn credit_addr(&self) -> u64 {
        self.base + self.capacity * SLOT
    }

    /// Polls for the next message: invalidate + load of the expected
    /// slot line. Publishes credits as a side effect when due, and
    /// clears the slot's wake when it consumes a message. A consumed
    /// message leaves a `chan/recv` instant on the ring's channel
    /// track at its receipt time.
    pub fn poll(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<PollOutcome, FabricError> {
        let m = self.next;
        let addr = self.slot_addr(m);
        // Freshness: drop any locally cached copy before loading.
        let t = fabric.invalidate(now + Nanos(POLL_CPU_NS), self.host, addr, SLOT);
        let mut slot = [0u8; SLOT as usize];
        let t = fabric.load(t, self.host, addr, &mut slot)?;
        let seq = u64::from_le_bytes(slot[0..8].try_into().expect("8 bytes"));
        if seq != m + 1 {
            self.polls_empty += 1;
            return Ok(PollOutcome::Empty(t));
        }
        self.polls_hit += 1;
        fabric.clear_wake(addr);
        let len = u16::from_le_bytes(slot[8..10].try_into().expect("2 bytes")) as usize;
        // simlint: allow(unwrap-in-datapath) -- len is min-clamped to SLOT_PAYLOAD; 10 + SLOT_PAYLOAD == SLOT
        let data = slot[10..10 + len.min(SLOT_PAYLOAD)].to_vec();
        self.next = m + 1;
        let mut at = t;
        if self.next - self.published >= self.credit_every {
            // Publish consumed count; the send completes asynchronously
            // but we charge the issue cost to the receiver's timeline.
            let line = self.next.to_le_bytes();
            fabric.nt_store(at, self.host, self.credit_addr(), &line)?;
            at += Nanos(SEND_CPU_NS);
            self.published = self.next;
        }
        if let Some(tr) = fabric.trace_mut() {
            tr.instant(Track::Channel(self.base), "chan/recv", at);
        }
        Ok(PollOutcome::Msg { data, at })
    }

    /// `(empty, hit)` poll counts so far.
    pub fn poll_counts(&self) -> (u64, u64) {
        (self.polls_empty, self.polls_hit)
    }

    /// When the next expected message becomes visible, if its sender
    /// has posted it (see [`Fabric::wake_at`]).
    pub fn next_wake(&self, fabric: &Fabric) -> Option<Nanos> {
        fabric.wake_at(self.slot_addr(self.next))
    }

    /// Timing of an empty poll of the next slot on idle pipes, or
    /// `None` when the poll would fail (its line has no up path).
    pub fn idle_poll(&self, fabric: &Fabric) -> Option<IdlePoll> {
        let addr = self.slot_addr(self.next);
        let applies = Nanos(POLL_CPU_NS) + Fabric::invalidate_cost(addr, SLOT);
        let load = fabric.idle_line_load(self.host, addr)?;
        Some(IdlePoll {
            applies,
            cost: applies + load,
        })
    }

    /// Base address of the ring in pool memory (see
    /// [`RingSender::base`]).
    pub fn base(&self) -> u64 {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn setup(cap: u64) -> (Fabric, RingSender, RingReceiver) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ring = RingBuf::allocate(&mut f, HostId(0), HostId(1), cap).expect("alloc");
        let (tx, rx) = ring.split();
        (f, tx, rx)
    }

    fn send_ok(f: &mut Fabric, tx: &mut RingSender, now: Nanos, data: &[u8]) -> Nanos {
        match tx.send(f, now, data).expect("send") {
            SendOutcome::Sent(t) => t,
            SendOutcome::Full(t) => panic!("unexpected full at {t:?}"),
        }
    }

    #[test]
    fn message_roundtrip() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"ping");
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Msg { data, at } => {
                assert_eq!(data, b"ping");
                assert!(at > t);
            }
            PollOutcome::Empty(_) => panic!("message should be visible"),
        }
    }

    #[test]
    fn poll_before_visibility_sees_nothing() {
        let (mut f, mut tx, mut rx) = setup(8);
        let vis = send_ok(&mut f, &mut tx, Nanos(0), b"x");
        // Poll at t=0: the NT store has not landed yet.
        match rx.poll(&mut f, Nanos(0)).expect("poll") {
            PollOutcome::Empty(_) => {}
            PollOutcome::Msg { .. } => panic!("saw message before visibility"),
        }
        // Poll after visibility sees it.
        match rx.poll(&mut f, vis).expect("poll") {
            PollOutcome::Msg { data, .. } => assert_eq!(data, b"x"),
            PollOutcome::Empty(_) => panic!("should see message at {vis:?}"),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut f, mut tx, mut rx) = setup(8);
        let mut t = Nanos(0);
        for i in 0..6u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        for i in 0..6u8 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    assert_eq!(data, &[i]);
                    t = at;
                }
                PollOutcome::Empty(_) => panic!("expected message {i}"),
            }
        }
    }

    #[test]
    fn ring_reports_full_and_recovers_via_credits() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        for i in 0..4u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        // Fifth send: ring is full, credit refresh finds no progress.
        match tx.send(&mut f, t, b"v").expect("send") {
            SendOutcome::Full(ft) => assert!(ft > t),
            SendOutcome::Sent(_) => panic!("ring should be full"),
        }
        // Receiver drains all four; with credit_every = 1 (cap/4), it
        // publishes credits as it goes.
        for _ in 0..4 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { at, .. } => t = at,
                PollOutcome::Empty(_) => panic!("expected message"),
            }
        }
        // Give the credit store time to land, then send succeeds.
        let t = t + Nanos(1000);
        match tx.send(&mut f, t, b"v").expect("send") {
            SendOutcome::Sent(_) => {}
            SendOutcome::Full(_) => panic!("credits should have arrived"),
        }
    }

    #[test]
    fn wraparound_many_laps() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        for i in 0..64u32 {
            // Send then immediately receive: never more than one in
            // flight, so credits stay fresh enough.
            t = send_ok(&mut f, &mut tx, t, &i.to_le_bytes());
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    assert_eq!(data, i.to_le_bytes());
                    t = at;
                }
                PollOutcome::Empty(_) => panic!("expected message {i}"),
            }
        }
        assert_eq!(rx.poll_counts(), (0, 64));
    }

    #[test]
    fn stale_slot_from_previous_lap_is_not_replayed() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        // One full lap.
        for i in 0..4u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        for _ in 0..4 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { at, .. } => t = at,
                PollOutcome::Empty(_) => panic!("expected message"),
            }
        }
        // Slot 0 still holds seq=1 from lap 0; the receiver now expects
        // seq=5 there and must report Empty.
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Empty(_) => {}
            PollOutcome::Msg { .. } => panic!("replayed stale slot"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_payload_panics() {
        let (mut f, mut tx, _rx) = setup(4);
        let _ = tx.send(&mut f, Nanos(0), &[0u8; 60]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let _ = RingBuf::allocate(&mut f, HostId(0), HostId(1), 6);
    }

    #[test]
    fn empty_payload_is_legal() {
        let (mut f, mut tx, mut rx) = setup(4);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"");
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Msg { data, .. } => assert!(data.is_empty()),
            PollOutcome::Empty(_) => panic!("expected empty message"),
        }
    }

    #[test]
    fn wake_tracks_the_expected_slot_and_idle_poll_is_exact() {
        let (mut f, mut tx, mut rx) = setup(8);
        assert_eq!(rx.next_wake(&f), None);
        let idle = rx.idle_poll(&f).expect("ring is reachable");
        // An empty poll on idle pipes costs exactly the idle estimate.
        match rx.poll(&mut f, Nanos(1_000)).expect("poll") {
            PollOutcome::Empty(t) => assert_eq!(t, Nanos(1_000) + idle.cost),
            PollOutcome::Msg { .. } => panic!("nothing was sent"),
        }
        let vis = send_ok(&mut f, &mut tx, Nanos(2_000), b"w");
        assert_eq!(rx.next_wake(&f), Some(vis));
        // A poll whose load starts just before visibility misses it; one
        // whose load starts at visibility sees it.
        let early = vis - idle.applies - Nanos(1);
        assert!(matches!(
            rx.poll(&mut f, early).expect("poll"),
            PollOutcome::Empty(_)
        ));
        assert!(matches!(
            rx.poll(&mut f, vis - idle.applies).expect("poll"),
            PollOutcome::Msg { .. }
        ));
        // The hit cleared the wake; the next slot has none.
        assert_eq!(rx.next_wake(&f), None);
        assert_eq!(rx.poll_counts(), (2, 1));
    }

    #[test]
    fn send_latency_is_one_nt_store() {
        let (mut f, mut tx, _rx) = setup(8);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"m");
        // One 64 B NT store: ~117 ns idle + 15 ns CPU. Allow slack.
        let ns = t.as_nanos();
        assert!((100..250).contains(&ns), "send visibility {ns} ns");
    }
}
