//! Message framing over the slot ring: arbitrary-size messages.
//!
//! Control-plane messages (MMIO forwards, orchestrator RPCs) can exceed
//! one slot's 54 B payload. The channel layer splits a message into
//! fragments, each tagged with a 2-byte header `[more: u8][frag_len:
//! u8]`, leaving 52 B of message payload per slot. The ring's FIFO
//! guarantee makes reassembly trivial, and the sender's queue keeps a
//! message the full ring cannot take whole and in order, so fragments
//! of two messages never interleave.

use std::collections::VecDeque;

use cxl_fabric::{Fabric, FabricError, HostId};
use simkit::trace::Track;
use simkit::Nanos;

use crate::ring::{
    IdlePoll, PollOutcome, RingBuf, RingReceiver, RingSender, SendOutcome, SLOT_PAYLOAD,
};

/// Per-fragment header bytes.
const FRAG_HDR: usize = 2;
/// Message payload bytes per fragment.
pub const FRAG_PAYLOAD: usize = SLOT_PAYLOAD - FRAG_HDR;

/// A bidirectional pair of rings between two hosts.
pub struct Channel {
    /// a → b direction.
    pub ab: (ChannelSender, ChannelReceiver),
    /// b → a direction.
    pub ba: (ChannelSender, ChannelReceiver),
    /// Backing segments `(a→b, b→a)`, for failure tracking.
    pub segments: (cxl_fabric::SegmentId, cxl_fabric::SegmentId),
}

impl Channel {
    /// Allocates both directions with `capacity` slots each.
    pub fn allocate(
        fabric: &mut Fabric,
        a: HostId,
        b: HostId,
        capacity: u64,
    ) -> Result<Channel, FabricError> {
        let fwd = RingBuf::allocate(fabric, a, b, capacity)?;
        let rev = RingBuf::allocate(fabric, b, a, capacity)?;
        let segments = (fwd.segment().id(), rev.segment().id());
        let (ftx, frx) = fwd.split();
        let (rtx, rrx) = rev.split();
        Ok(Channel {
            ab: (ChannelSender::new(ftx), ChannelReceiver::new(frx)),
            ba: (ChannelSender::new(rtx), ChannelReceiver::new(rrx)),
            segments,
        })
    }

    /// Allocates both directions on single MHDs (failure-isolated; see
    /// [`RingBuf::allocate_isolated`]).
    pub fn allocate_isolated(
        fabric: &mut Fabric,
        a: HostId,
        b: HostId,
        capacity: u64,
    ) -> Result<Channel, FabricError> {
        let fwd = RingBuf::allocate_isolated(fabric, a, b, capacity)?;
        let rev = RingBuf::allocate_isolated(fabric, b, a, capacity)?;
        let segments = (fwd.segment().id(), rev.segment().id());
        let (ftx, frx) = fwd.split();
        let (rtx, rrx) = rev.split();
        Ok(Channel {
            ab: (ChannelSender::new(ftx), ChannelReceiver::new(frx)),
            ba: (ChannelSender::new(rtx), ChannelReceiver::new(rrx)),
            segments,
        })
    }
}

/// Result of a channel send or flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelSend {
    /// Every queued message is in the ring; the last fragment is
    /// visible at this time.
    Sent(Nanos),
    /// The ring is full: what it could not take waits in the sender's
    /// queue for [`ChannelSender::flush`]. The failed credit check
    /// completed at this time.
    Queued(Nanos),
}

/// Counters kept by a channel endpoint. A [`ChannelSender`] fills the
/// send-side fields, so backpressure shows up in statistics and not
/// only in latency. A [`ChannelReceiver`] fills the poll counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages fully sent (all fragments written).
    pub sends: u64,
    /// Times a send or flush found the ring full and left messages
    /// queued.
    pub blocked_events: u64,
    /// Cumulative nanoseconds messages spent stalled between the first
    /// full-ring attempt and the start of the flush that completed
    /// them.
    pub stall_ns: u64,
    /// Ring polls that found no new fragment.
    pub polls_empty: u64,
    /// Ring polls that consumed a fragment.
    pub polls_hit: u64,
}

impl std::ops::AddAssign for ChannelStats {
    fn add_assign(&mut self, rhs: ChannelStats) {
        self.sends += rhs.sends;
        self.blocked_events += rhs.blocked_events;
        self.stall_ns += rhs.stall_ns;
        self.polls_empty += rhs.polls_empty;
        self.polls_hit += rhs.polls_hit;
    }
}

/// Sending half: fragments and writes messages, queueing whatever a
/// full ring cannot take until [`ChannelSender::flush`].
pub struct ChannelSender {
    ring: RingSender,
    /// Messages the ring could not take yet, oldest first.
    queue: VecDeque<Vec<u8>>,
    /// Fragments of the head message already in the ring.
    head_sent: usize,
    /// When the head message first found the ring full (cleared when
    /// it completes).
    blocked_since: Option<Nanos>,
    stats: ChannelStats,
}

impl ChannelSender {
    fn new(ring: RingSender) -> ChannelSender {
        ChannelSender {
            ring,
            queue: VecDeque::new(),
            head_sent: 0,
            blocked_since: None,
            stats: ChannelStats::default(),
        }
    }

    /// Backpressure and throughput counters for this direction.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Messages waiting for ring credits.
    #[inline]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sends `msg`, fragmenting as needed, behind any queued messages.
    /// Whatever the ring cannot take stays queued for
    /// [`ChannelSender::flush`].
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: &[u8],
    ) -> Result<ChannelSend, FabricError> {
        self.queue.push_back(msg.to_vec());
        self.flush(fabric, now)
    }

    /// Writes queued messages into the ring, oldest first, until the
    /// queue is empty or the ring is full. A message blocked mid-way
    /// keeps its remaining fragments at the head. `Sent(now)` when
    /// nothing is queued. A fabric error (the ring's pool memory is
    /// unreachable) drops every queued message.
    pub fn flush(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<ChannelSend, FabricError> {
        let track = Track::Channel(self.ring.base());
        let mut t = now;
        while let Some(msg) = self.queue.front() {
            let start = t;
            let frags = msg.len().div_ceil(FRAG_PAYLOAD).max(1);
            for i in self.head_sent..frags {
                let frag = &msg[i * FRAG_PAYLOAD..msg.len().min((i + 1) * FRAG_PAYLOAD)];
                let mut slot = [0u8; SLOT_PAYLOAD];
                slot[0] = u8::from(i + 1 < frags);
                slot[1] = frag.len() as u8;
                slot[FRAG_HDR..FRAG_HDR + frag.len()].copy_from_slice(frag);
                match self.ring.send(fabric, t, &slot[..FRAG_HDR + frag.len()]) {
                    Ok(SendOutcome::Sent(at)) => {
                        t = at;
                        self.head_sent = i + 1;
                    }
                    Ok(SendOutcome::Full(at)) => {
                        self.stats.blocked_events += 1;
                        self.blocked_since.get_or_insert(at);
                        if let Some(tr) = fabric.trace_mut() {
                            tr.instant(track, "chan/blocked", at);
                        }
                        return Ok(ChannelSend::Queued(at));
                    }
                    Err(e) => {
                        self.queue.clear();
                        self.head_sent = 0;
                        self.blocked_since = None;
                        return Err(e);
                    }
                }
            }
            self.queue.pop_front();
            self.head_sent = 0;
            if let Some(blocked_at) = self.blocked_since.take() {
                self.stats.stall_ns += start.saturating_sub(blocked_at).as_nanos();
                if let Some(tr) = fabric.trace_mut() {
                    tr.span(track, "chan/stall", blocked_at, start);
                }
            }
            self.stats.sends += 1;
            if let Some(tr) = fabric.trace_mut() {
                tr.span(track, "chan/send", start, t);
            }
        }
        Ok(ChannelSend::Sent(t))
    }
}

/// Receiving half: polls fragments and reassembles messages.
pub struct ChannelReceiver {
    ring: RingReceiver,
    partial: Vec<u8>,
}

impl ChannelReceiver {
    fn new(ring: RingReceiver) -> ChannelReceiver {
        ChannelReceiver {
            ring,
            partial: Vec::new(),
        }
    }

    /// Polls once. Returns a complete message if this poll finished one;
    /// `Empty` covers both "no fragment" and "got a non-final fragment".
    pub fn poll(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<PollOutcome, FabricError> {
        match self.ring.poll(fabric, now)? {
            PollOutcome::Empty(t) => Ok(PollOutcome::Empty(t)),
            PollOutcome::Msg { data, at } => {
                assert!(data.len() >= FRAG_HDR, "malformed fragment");
                let more = data[0];
                let len = data[1] as usize;
                self.partial
                    .extend_from_slice(&data[FRAG_HDR..FRAG_HDR + len]);
                if more == 1 {
                    Ok(PollOutcome::Empty(at))
                } else {
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::Channel(self.ring.base()), "chan/recv", at);
                    }
                    Ok(PollOutcome::Msg {
                        data: std::mem::take(&mut self.partial),
                        at,
                    })
                }
            }
        }
    }

    /// Poll counters for this direction (the send-side fields stay 0).
    pub fn stats(&self) -> ChannelStats {
        let (polls_empty, polls_hit) = self.ring.poll_counts();
        ChannelStats {
            polls_empty,
            polls_hit,
            ..ChannelStats::default()
        }
    }

    /// When the next fragment becomes visible, if it has been sent
    /// (see [`RingReceiver::next_wake`]).
    pub fn next_wake(&self, fabric: &Fabric) -> Option<Nanos> {
        self.ring.next_wake(fabric)
    }

    /// Timing of an empty poll on idle pipes (see
    /// [`RingReceiver::idle_poll`]).
    pub fn idle_poll(&self, fabric: &Fabric) -> Option<IdlePoll> {
        self.ring.idle_poll(fabric)
    }

    /// Polls repeatedly (each poll advances time) until a message
    /// completes or `deadline` passes. Returns the message and receipt
    /// time, or `None` at the deadline.
    pub fn poll_until(
        &mut self,
        fabric: &mut Fabric,
        mut now: Nanos,
        deadline: Nanos,
    ) -> Result<Option<(Vec<u8>, Nanos)>, FabricError> {
        loop {
            match self.poll(fabric, now)? {
                PollOutcome::Msg { data, at } => return Ok(Some((data, at))),
                PollOutcome::Empty(t) => {
                    if t > deadline {
                        return Ok(None);
                    }
                    now = t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn setup(cap: u64) -> (Fabric, ChannelSender, ChannelReceiver) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), cap).expect("alloc");
        (f, ch.ab.0, ch.ab.1)
    }

    /// Sends `msg` on a ring with room for it; returns its visibility.
    fn send_now(f: &mut Fabric, tx: &mut ChannelSender, msg: &[u8]) -> Nanos {
        match tx.send(f, Nanos(0), msg).expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Queued(_) => panic!("queued"),
        }
    }

    #[test]
    fn small_message_single_fragment() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_now(&mut f, &mut tx, b"hello");
        let (msg, _) = rx
            .poll_until(&mut f, t, t + Nanos(10_000))
            .expect("poll")
            .expect("message");
        assert_eq!(msg, b"hello");
    }

    #[test]
    fn large_message_reassembles() {
        let (mut f, mut tx, mut rx) = setup(64);
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let t = send_now(&mut f, &mut tx, &msg);
        let (got, _) = rx
            .poll_until(&mut f, t, t + Nanos(1_000_000))
            .expect("poll")
            .expect("message");
        assert_eq!(got, msg);
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_now(&mut f, &mut tx, b"");
        let (msg, _) = rx
            .poll_until(&mut f, t, t + Nanos(10_000))
            .expect("poll")
            .expect("message");
        assert!(msg.is_empty());
    }

    /// Polls `rx` and flushes `tx` in turn until `want` messages
    /// arrive; returns them in arrival order.
    fn drain(
        f: &mut Fabric,
        tx: &mut ChannelSender,
        rx: &mut ChannelReceiver,
        mut t: Nanos,
        want: usize,
    ) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while got.len() < want {
            assert!(t < Nanos::from_millis(1), "{} of {want} arrived", got.len());
            t = match rx.poll(f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    got.push(data);
                    at
                }
                PollOutcome::Empty(at) => at,
            };
            t = match tx.flush(f, t).expect("flush") {
                ChannelSend::Sent(at) | ChannelSend::Queued(at) => at,
            };
        }
        got
    }

    #[test]
    fn blocked_send_flushes_from_the_queue() {
        // Capacity 4 slots, message needs 8 fragments -> must queue.
        let (mut f, mut tx, mut rx) = setup(4);
        let msg: Vec<u8> = (0..8 * FRAG_PAYLOAD).map(|i| i as u8).collect();
        let mut t = match tx.send(&mut f, Nanos(0), &msg).expect("send") {
            ChannelSend::Queued(at) => at,
            ChannelSend::Sent(_) => panic!("should block on a tiny ring"),
        };
        assert_eq!(tx.queued(), 1);
        // The ring took four fragments before the rest queued.
        for _ in 0..100 {
            t = match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Empty(at) => at,
                PollOutcome::Msg { .. } => panic!("message completed early"),
            };
        }
        assert_eq!(rx.stats().polls_hit, 4);
        assert_eq!(drain(&mut f, &mut tx, &mut rx, t, 1), vec![msg]);
        assert_eq!(tx.queued(), 0);
        assert_eq!(tx.flush(&mut f, t).expect("flush"), ChannelSend::Sent(t));
    }

    #[test]
    fn send_behind_a_queued_message_waits_its_turn() {
        let (mut f, mut tx, mut rx) = setup(4);
        let big = vec![1u8; 8 * FRAG_PAYLOAD];
        assert!(matches!(
            tx.send(&mut f, Nanos(0), &big).expect("send"),
            ChannelSend::Queued(_)
        ));
        // The ring stays full, so the short message queues behind the
        // big one's remaining fragments instead of interleaving.
        let t = match tx.send(&mut f, Nanos(1_000), b"new").expect("send") {
            ChannelSend::Queued(at) => at,
            ChannelSend::Sent(_) => panic!("should queue behind the big message"),
        };
        assert_eq!(tx.queued(), 2);
        let got = drain(&mut f, &mut tx, &mut rx, t, 2);
        assert_eq!(got, vec![big, b"new".to_vec()]);
        assert_eq!(tx.stats().sends, 2);
    }

    #[test]
    fn fabric_error_drops_the_queue() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate_isolated(&mut f, HostId(0), HostId(1), 4).expect("alloc");
        let mhd = f.segment(ch.segments.0).expect("live").ways()[0];
        let mut tx = ch.ab.0;
        assert!(matches!(
            tx.send(&mut f, Nanos(0), &[7u8; 8 * FRAG_PAYLOAD])
                .expect("send"),
            ChannelSend::Queued(_)
        ));
        f.topology_mut().fail_mhd(mhd);
        assert!(tx.flush(&mut f, Nanos(10_000)).is_err());
        assert_eq!(tx.queued(), 0);
    }

    #[test]
    fn bidirectional_channels_are_independent() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 8).expect("alloc");
        let (mut atx, mut arx) = (ch.ab.0, ch.ab.1);
        let (mut btx, mut brx) = (ch.ba.0, ch.ba.1);
        let t1 = send_now(&mut f, &mut atx, b"fwd");
        let t2 = send_now(&mut f, &mut btx, b"rev");
        let (m1, _) = arx
            .poll_until(&mut f, t1, t1 + Nanos(10_000))
            .expect("poll")
            .expect("fwd");
        let (m2, _) = brx
            .poll_until(&mut f, t2, t2 + Nanos(10_000))
            .expect("poll")
            .expect("rev");
        assert_eq!(m1, b"fwd");
        assert_eq!(m2, b"rev");
    }
}
