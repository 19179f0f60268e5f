//! Message framing over the slot ring: arbitrary-size messages.
//!
//! Control-plane messages (MMIO forwards, orchestrator RPCs) can exceed
//! one slot's 54 B payload. The channel layer splits a message into
//! fragments, each tagged with a 2-byte header `[more: u8][frag_len:
//! u8]`, leaving 52 B of message payload per slot. The ring's FIFO
//! guarantee makes reassembly trivial.

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

/// Result of a channel send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelSend {
    /// All fragments written; last is visible at this time.
    Sent(Nanos),
    /// Ring filled up mid-message after this many fragments; retry the
    /// remainder later. (The receiver will reassemble correctly because
    /// fragments of one message are never interleaved with another's on
    /// an SPSC ring.)
    Blocked {
        /// Fragments successfully written.
        sent_frags: usize,
        /// When the failed credit check completed.
        at: Nanos,
    },
}

/// Counters kept by a channel endpoint. A [`ChannelSender`] fills the
/// send-side fields: backpressure used to be invisible (a `Blocked` →
/// `resume` cycle left no trace in any statistic), and these make
/// stalls first-class. A [`ChannelReceiver`] fills the poll counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages fully sent (all fragments written).
    pub sends: u64,
    /// Times a send or resume returned [`ChannelSend::Blocked`].
    pub blocked_events: u64,
    /// Cumulative nanoseconds messages spent stalled between the first
    /// `Blocked` and the start of the resume that completed them.
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

/// Sending half: fragments and writes messages.
pub struct ChannelSender {
    ring: RingSender,
    /// Resume state for a blocked multi-fragment send.
    pending: Option<(Vec<u8>, usize)>,
    /// When the pending message first blocked (cleared on completion).
    blocked_since: Option<Nanos>,
    stats: ChannelStats,
}

impl ChannelSender {
    fn new(ring: RingSender) -> ChannelSender {
        ChannelSender {
            ring,
            pending: None,
            blocked_since: None,
            stats: ChannelStats::default(),
        }
    }

    /// Backpressure and throughput counters for this direction.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Sends `msg`, fragmenting as needed. If a previous send blocked,
    /// call [`ChannelSender::resume`] first; starting a new message
    /// while one is pending panics.
    ///
    /// # Panics
    ///
    /// Panics if a blocked message is pending.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: &[u8],
    ) -> Result<ChannelSend, FabricError> {
        assert!(
            self.pending.is_none(),
            "resume() the blocked message before sending a new one"
        );
        self.send_from(fabric, now, msg.to_vec(), 0)
    }

    /// Resumes a blocked send. No-op returning `Sent(now)` if nothing is
    /// pending.
    pub fn resume(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<ChannelSend, FabricError> {
        match self.pending.take() {
            Some((msg, done)) => self.send_from(fabric, now, msg, done),
            None => Ok(ChannelSend::Sent(now)),
        }
    }

    /// True if a blocked message awaits [`ChannelSender::resume`].
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    fn send_from(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: Vec<u8>,
        first_frag: usize,
    ) -> Result<ChannelSend, FabricError> {
        let frags: Vec<&[u8]> = if msg.is_empty() {
            vec![&[][..]]
        } else {
            msg.chunks(FRAG_PAYLOAD).collect()
        };
        let mut t = now;
        for (i, frag) in frags.iter().enumerate().skip(first_frag) {
            let more = if i + 1 < frags.len() { 1u8 } else { 0u8 };
            let mut slot = Vec::with_capacity(FRAG_HDR + frag.len());
            slot.push(more);
            slot.push(frag.len() as u8);
            slot.extend_from_slice(frag);
            match self.ring.send(fabric, t, &slot)? {
                SendOutcome::Sent(at) => t = at,
                SendOutcome::Full(at) => {
                    self.pending = Some((msg.clone(), i));
                    self.stats.blocked_events += 1;
                    if self.blocked_since.is_none() {
                        self.blocked_since = Some(at);
                    }
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::Channel(self.ring.base()), "chan/blocked", at);
                    }
                    return Ok(ChannelSend::Blocked { sent_frags: i, at });
                }
            }
        }
        if let Some(blocked_at) = self.blocked_since.take() {
            self.stats.stall_ns += now.saturating_sub(blocked_at).as_nanos();
            if let Some(tr) = fabric.trace_mut() {
                tr.span(
                    Track::Channel(self.ring.base()),
                    "chan/stall",
                    blocked_at,
                    now,
                );
            }
        }
        self.stats.sends += 1;
        if let Some(tr) = fabric.trace_mut() {
            tr.span(Track::Channel(self.ring.base()), "chan/send", now, t);
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

    #[test]
    fn small_message_single_fragment() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = match tx.send(&mut f, Nanos(0), b"hello").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
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
        let t = match tx.send(&mut f, Nanos(0), &msg).expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        let (got, _) = rx
            .poll_until(&mut f, t, t + Nanos(1_000_000))
            .expect("poll")
            .expect("message");
        assert_eq!(got, msg);
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = match tx.send(&mut f, Nanos(0), b"").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        let (msg, _) = rx
            .poll_until(&mut f, t, t + Nanos(10_000))
            .expect("poll")
            .expect("message");
        assert!(msg.is_empty());
    }

    #[test]
    fn blocked_send_resumes_cleanly() {
        // Capacity 4 slots, message needs 8 fragments -> must block.
        let (mut f, mut tx, mut rx) = setup(4);
        let msg: Vec<u8> = (0..8 * FRAG_PAYLOAD).map(|i| i as u8).collect();
        let r = tx.send(&mut f, Nanos(0), &msg).expect("send");
        let (sent, mut t) = match r {
            ChannelSend::Blocked { sent_frags, at } => (sent_frags, at),
            ChannelSend::Sent(_) => panic!("should block on a tiny ring"),
        };
        assert!(sent >= 3, "should have written some fragments");
        assert!(tx.has_pending());
        // Drain + resume until the whole message lands.
        let mut got = None;
        for _ in 0..100 {
            if let Some((m, _at)) = rx.poll_until(&mut f, t, t + Nanos(50_000)).expect("poll") {
                got = Some(m);
                break;
            }
            t += Nanos(1_000);
            match tx.resume(&mut f, t).expect("resume") {
                ChannelSend::Sent(at) => t = at,
                ChannelSend::Blocked { at, .. } => t = at + Nanos(1_000),
            }
        }
        assert_eq!(got.expect("message completes"), msg);
        assert!(!tx.has_pending());
    }

    #[test]
    fn bidirectional_channels_are_independent() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 8).expect("alloc");
        let (mut atx, mut arx) = (ch.ab.0, ch.ab.1);
        let (mut btx, mut brx) = (ch.ba.0, ch.ba.1);
        let t1 = match atx.send(&mut f, Nanos(0), b"fwd").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!(),
        };
        let t2 = match btx.send(&mut f, Nanos(0), b"rev").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!(),
        };
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

    #[test]
    #[should_panic(expected = "resume")]
    fn new_send_while_pending_panics() {
        let (mut f, mut tx, _rx) = setup(4);
        let msg = vec![1u8; 8 * FRAG_PAYLOAD];
        match tx.send(&mut f, Nanos(0), &msg).expect("send") {
            ChannelSend::Blocked { .. } => {}
            ChannelSend::Sent(_) => panic!("should block"),
        }
        let _ = tx.send(&mut f, Nanos(1_000_000), b"new");
    }
}
