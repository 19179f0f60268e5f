//! The queued sender over the slot ring: backpressure for whole
//! messages.
//!
//! Every control-plane message (MMIO forwards, completions, orchestrator
//! RPCs) fits one slot's [`SLOT_PAYLOAD`] bytes, so a message is one
//! 64 B non-temporal store to send and one invalidate-plus-load to
//! receive. The receive side is the plain [`RingReceiver`]. What the
//! channel adds is the send side's backpressure: a message the full
//! ring cannot take waits, in order, in the sender's FIFO queue until
//! credits return and [`ChannelSender::flush`] writes it out.
//!
//! A [`Channel`] is a pair of such rings between two hosts, and
//! [`Channel::allocate`] places each ring on a single MHD, the way a
//! highly available pod places its control plane (§5): a failed pool
//! device breaks the channels it backs and leaves every other one
//! working. It follows that a channel ring's slots all sit behind one
//! MHD, so an empty poll costs the same whichever slot it reads, which
//! lets poll loops plan idle polls per ring rather than per slot (see
//! `cxl_pool_core::poll`).

use std::collections::VecDeque;

use cxl_fabric::{Fabric, FabricError, HostId};
use simkit::trace::Track;
use simkit::Nanos;

use crate::ring::{RingBuf, RingReceiver, RingSender, SendOutcome, SLOT_PAYLOAD};

/// A bidirectional pair of rings between two hosts.
pub struct Channel {
    /// a → b direction.
    pub ab: (ChannelSender, RingReceiver),
    /// b → a direction.
    pub ba: (ChannelSender, RingReceiver),
    /// Backing segments `(a→b, b→a)`, for failure tracking.
    pub segments: (cxl_fabric::SegmentId, cxl_fabric::SegmentId),
}

impl Channel {
    /// Allocates both directions with `capacity` slots each, each ring
    /// on a single MHD ([`RingBuf::allocate_isolated`]): losing one
    /// pool device breaks the channels it backs and no others.
    pub fn allocate(
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
            ab: (ChannelSender::new(ftx), frx),
            ba: (ChannelSender::new(rtx), rrx),
            segments,
        })
    }
}

/// Result of a channel send or flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelSend {
    /// Every queued message is in the ring; the last one is visible at
    /// this time.
    Sent(Nanos),
    /// The ring is full: what it could not take waits in the sender's
    /// queue for [`ChannelSender::flush`]. The failed credit check
    /// completed at this time.
    Queued(Nanos),
}

/// Counters kept for one channel direction. A [`ChannelSender`] fills
/// the send-side fields, so backpressure shows up in statistics and not
/// only in latency; the poll counts come from the direction's
/// [`RingReceiver::poll_counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages written into the ring.
    pub sends: u64,
    /// Times a send or flush found the ring full and left messages
    /// queued.
    pub blocked_events: u64,
    /// Cumulative nanoseconds messages spent stalled between the first
    /// full-ring attempt and the start of the flush that wrote them.
    pub stall_ns: u64,
    /// Ring polls that found no new message.
    pub polls_empty: u64,
    /// Ring polls that consumed a message.
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

/// Sending half: writes each message into one ring slot, queueing
/// whatever a full ring cannot take until [`ChannelSender::flush`].
pub struct ChannelSender {
    ring: RingSender,
    /// Messages the ring could not take yet, oldest first.
    queue: VecDeque<Vec<u8>>,
    /// When the head message first found the ring full (cleared when
    /// it is written).
    blocked_since: Option<Nanos>,
    stats: ChannelStats,
}

impl ChannelSender {
    fn new(ring: RingSender) -> ChannelSender {
        ChannelSender {
            ring,
            queue: VecDeque::new(),
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

    /// Sends `msg` behind any queued messages. Whatever the ring cannot
    /// take stays queued for [`ChannelSender::flush`].
    ///
    /// # Panics
    ///
    /// Panics if `msg` exceeds [`SLOT_PAYLOAD`] bytes, here rather than
    /// in a later flush.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: Vec<u8>,
    ) -> Result<ChannelSend, FabricError> {
        assert!(
            msg.len() <= SLOT_PAYLOAD,
            "message {} exceeds slot capacity {SLOT_PAYLOAD}",
            msg.len()
        );
        self.queue.push_back(msg);
        self.flush(fabric, now)
    }

    /// Writes queued messages into the ring, oldest first, until the
    /// queue is empty or the ring is full. `Sent(now)` when nothing is
    /// queued. A fabric error (the ring's pool memory is unreachable)
    /// drops every queued message.
    pub fn flush(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<ChannelSend, FabricError> {
        let track = Track::Channel(self.ring.base());
        let mut t = now;
        while let Some(msg) = self.queue.front() {
            let start = t;
            match self.ring.send(fabric, t, msg) {
                Ok(SendOutcome::Sent(at)) => t = at,
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
                    self.blocked_since = None;
                    return Err(e);
                }
            }
            self.queue.pop_front();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::PollOutcome;
    use cxl_fabric::PodConfig;

    fn setup(cap: u64) -> (Fabric, ChannelSender, RingReceiver) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), cap).expect("alloc");
        (f, ch.ab.0, ch.ab.1)
    }

    /// Sends `msg` on a ring with room for it; returns its visibility.
    fn send_now(f: &mut Fabric, tx: &mut ChannelSender, msg: &[u8]) -> Nanos {
        match tx.send(f, Nanos(0), msg.to_vec()).expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Queued(_) => panic!("queued"),
        }
    }

    /// Polls `rx` from `t` until a message arrives; returns it.
    fn recv(f: &mut Fabric, rx: &mut RingReceiver, mut t: Nanos) -> Vec<u8> {
        loop {
            assert!(t < Nanos::from_millis(1), "no message arrived");
            t = match rx.poll(f, t).expect("poll") {
                PollOutcome::Msg { data, .. } => return data,
                PollOutcome::Empty(at) => at,
            };
        }
    }

    /// Sends `msgs` at time 0 on a 4-slot ring: the first four fill it
    /// and the rest queue. Returns the last send's outcome.
    fn overfill(f: &mut Fabric, tx: &mut ChannelSender, msgs: &[Vec<u8>]) -> ChannelSend {
        assert!(msgs.len() > 4);
        let mut last = ChannelSend::Sent(Nanos(0));
        for (i, m) in msgs.iter().enumerate() {
            last = tx.send(f, Nanos(0), m.clone()).expect("send");
            assert_eq!(matches!(last, ChannelSend::Sent(_)), i < 4, "send {i}");
        }
        last
    }

    #[test]
    fn message_roundtrips() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_now(&mut f, &mut tx, b"hello");
        assert_eq!(recv(&mut f, &mut rx, t), b"hello");
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_now(&mut f, &mut tx, b"");
        assert!(recv(&mut f, &mut rx, t).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_message_panics_at_send() {
        // The ring is full, so the message would only have queued: the
        // size check must not wait for the flush that writes it.
        let (mut f, mut tx, _rx) = setup(4);
        for _ in 0..4 {
            send_now(&mut f, &mut tx, b"x");
        }
        let _ = tx.send(&mut f, Nanos(0), vec![0u8; SLOT_PAYLOAD + 1]);
    }

    /// Polls `rx` and flushes `tx` in turn until `want` messages
    /// arrive; returns them in arrival order.
    fn drain(
        f: &mut Fabric,
        tx: &mut ChannelSender,
        rx: &mut RingReceiver,
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
        // Capacity 4 slots, eight messages -> the last four must queue.
        let (mut f, mut tx, mut rx) = setup(4);
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; SLOT_PAYLOAD]).collect();
        let mut t = match overfill(&mut f, &mut tx, &msgs) {
            ChannelSend::Queued(at) => at,
            ChannelSend::Sent(_) => panic!("should block on a tiny ring"),
        };
        assert_eq!(tx.queued(), 4);
        // The ring took four messages before the rest queued; without a
        // flush, polling finds no more.
        let mut got = Vec::new();
        for _ in 0..100 {
            t = match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Empty(at) => at,
                PollOutcome::Msg { data, at } => {
                    got.push(data);
                    at
                }
            };
        }
        assert_eq!(rx.poll_counts().1, 4);
        got.extend(drain(&mut f, &mut tx, &mut rx, t, 4));
        assert_eq!(got, msgs);
        assert_eq!(tx.queued(), 0);
        assert_eq!(tx.flush(&mut f, t).expect("flush"), ChannelSend::Sent(t));
    }

    #[test]
    fn send_behind_a_queued_message_waits_its_turn() {
        let (mut f, mut tx, mut rx) = setup(4);
        let first: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
        assert!(matches!(
            overfill(&mut f, &mut tx, &first),
            ChannelSend::Queued(_)
        ));
        // The ring stays full, so the new message queues behind the one
        // already waiting instead of overtaking it.
        let t = match tx
            .send(&mut f, Nanos(1_000), b"new".to_vec())
            .expect("send")
        {
            ChannelSend::Queued(at) => at,
            ChannelSend::Sent(_) => panic!("should queue behind the waiting message"),
        };
        assert_eq!(tx.queued(), 2);
        let got = drain(&mut f, &mut tx, &mut rx, t, 6);
        let mut want = first;
        want.push(b"new".to_vec());
        assert_eq!(got, want);
        assert_eq!(tx.stats().sends, 6);
    }

    #[test]
    fn fabric_error_drops_the_queue() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 4).expect("alloc");
        let mhd = f.segment(ch.segments.0).expect("live").ways()[0];
        let mut tx = ch.ab.0;
        let msgs = vec![vec![7u8; SLOT_PAYLOAD]; 6];
        assert!(matches!(
            overfill(&mut f, &mut tx, &msgs),
            ChannelSend::Queued(_)
        ));
        assert_eq!(tx.queued(), 2);
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
        assert_eq!(recv(&mut f, &mut arx, t1), b"fwd");
        assert_eq!(recv(&mut f, &mut brx, t2), b"rev");
    }
}
