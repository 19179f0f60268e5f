//! Backpressure accounting on the shared-memory channel: a send that
//! finds the ring full queues in the sender, and must surface as counted
//! blocked events and cumulative stall nanoseconds (from the first
//! full-ring attempt to the flush that completes it), and leave
//! blocked/stall marks in the flight recorder.

use cxl_fabric::{Fabric, HostId, PodConfig};
use shmem::channel::{Channel, ChannelSend};
use shmem::ring::PollOutcome;
use simkit::trace::TraceConfig;
use simkit::Nanos;

#[test]
fn blocked_send_counts_events_and_stall_nanos() {
    let mut f = Fabric::new(PodConfig::new(2, 2, 2));
    f.enable_trace(TraceConfig {
        capacity: 4096,
        fabric_ops: false,
    });
    // 4 slots and five 32-byte messages: guaranteed backpressure.
    let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 4).expect("chan");
    let (mut tx, mut rx) = ch.ab;
    let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 32]).collect();

    for (i, msg) in msgs.iter().enumerate() {
        let r = tx.send(&mut f, Nanos(0), msg.clone()).expect("send");
        assert_eq!(
            matches!(r, ChannelSend::Queued(_)),
            i == 4,
            "send {i}: {r:?}"
        );
    }
    assert_eq!(tx.queued(), 1);
    let s = tx.stats();
    assert_eq!(s.blocked_events, 1);
    assert_eq!(s.sends, 4, "the fifth message is not in the ring yet");
    assert_eq!(s.stall_ns, 0, "stall accrues when the flush completes");

    // Drain and flush until the queued message is written.
    let mut got = Vec::new();
    let mut now = Nanos(10_000);
    let mut rounds = 0;
    while tx.queued() > 0 {
        for _ in 0..8 {
            if let PollOutcome::Msg { data, .. } = rx.poll(&mut f, now).expect("poll") {
                got.push(data);
            }
            now += Nanos(100);
        }
        tx.flush(&mut f, now).expect("flush");
        now += Nanos(100);
        rounds += 1;
        assert!(rounds < 100, "flush loop did not converge");
    }
    let s = tx.stats();
    assert_eq!(s.sends, 5, "every message was written");
    assert!(s.blocked_events >= 1);
    assert!(
        s.stall_ns >= 10_000 - 1,
        "stall must cover the blocked->flush gap, got {}",
        s.stall_ns
    );

    // The receiver still gets every message intact and in order.
    while got.len() < msgs.len() {
        assert!(
            now < Nanos::from_millis(1),
            "the last message never arrived"
        );
        now = match rx.poll(&mut f, now).expect("poll") {
            PollOutcome::Msg { data, at } => {
                got.push(data);
                at
            }
            PollOutcome::Empty(at) => at,
        };
    }
    assert_eq!(got, msgs);

    // The stall is visible in the trace: a blocked instant and a stall
    // span on the channel's track.
    let tr = f.trace().expect("tracing enabled");
    assert!(tr.events().any(|e| e.name == "chan/blocked"));
    let stall = tr
        .events()
        .find(|e| e.name == "chan/stall")
        .expect("stall span recorded");
    assert!(stall.dur.expect("stall is a span") > Nanos(0));
}

#[test]
fn unblocked_sends_accrue_no_stall() {
    let mut f = Fabric::new(PodConfig::new(2, 2, 2));
    let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 64).expect("chan");
    let (mut tx, _rx) = ch.ab;
    for i in 0..4u64 {
        let r = tx
            .send(&mut f, Nanos(i * 1000), vec![i as u8; 32])
            .expect("send");
        assert!(matches!(r, ChannelSend::Sent(_)));
    }
    let s = tx.stats();
    assert_eq!(s.sends, 4);
    assert_eq!(s.blocked_events, 0);
    assert_eq!(s.stall_ns, 0);
}
