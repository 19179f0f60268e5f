//! Property-based tests over the core data structures and protocols.

// The settle-driver uses peek_settled to force visibility between
// steps (clippy.toml forbids it outside test code).
#![allow(clippy::disallowed_methods)]

use cxl_fabric::sparse::SparseMem;
use cxl_fabric::{AuditConfig, AuditMode, Fabric, HostId, PodConfig};
use proptest::prelude::*;
use shmem::real::RealRing;
use shmem::ring::{PollOutcome, RingBuf, SendOutcome};
use simkit::stats::Histogram;
use simkit::Nanos;

/// A two-host fabric auditing every access in `mode`. The audited
/// properties run under both analyses.
fn audited_fabric(mode: AuditMode) -> Fabric {
    let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
    fabric.enable_audit(AuditConfig {
        mode,
        ..AuditConfig::default()
    });
    fabric
}

proptest! {
    /// SparseMem behaves exactly like a flat byte array for arbitrary
    /// write/read sequences.
    #[test]
    fn sparse_mem_matches_flat_model(
        ops in proptest::collection::vec(
            (0u64..8192, proptest::collection::vec(any::<u8>(), 1..128)),
            1..40,
        )
    ) {
        let mut sparse = SparseMem::new();
        let mut model = vec![0u8; 8192 + 128];
        for (addr, data) in &ops {
            sparse.write(*addr, data);
            model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        let mut buf = vec![0u8; model.len()];
        sparse.read(0, &mut buf);
        prop_assert_eq!(buf, model);
    }

    /// The simulated ring delivers any message sequence in order and
    /// intact, regardless of payload sizes and capacities.
    #[test]
    fn sim_ring_fifo_integrity(
        cap_pow in 2u32..6,
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..54), 1..30),
    ) {
        for mode in AuditMode::ALL {
            let cap = 1u64 << cap_pow;
            let mut fabric = audited_fabric(mode);
            let ring = RingBuf::allocate(&mut fabric, HostId(0), HostId(1), cap).expect("alloc");
            let (mut tx, mut rx) = ring.split();
            let mut t = Nanos(0);
            let mut sent = 0usize;
            let mut received = 0usize;
            while received < msgs.len() {
                // Send while there is room and data left.
                if sent < msgs.len() {
                    match tx.send(&mut fabric, t, &msgs[sent]).expect("send") {
                        SendOutcome::Sent(at) => { t = at; sent += 1; }
                        SendOutcome::Full(at) => t = at,
                    }
                }
                match rx.poll(&mut fabric, t).expect("poll") {
                    PollOutcome::Msg { data, at } => {
                        prop_assert_eq!(&data, &msgs[received], "{:?}", mode);
                        received += 1;
                        t = at;
                    }
                    PollOutcome::Empty(at) => t = at,
                }
            }
            // The ring's nt-store/invalidate discipline must be audit-clean.
            let report = fabric.audit_finalize(t).expect("audit on");
            prop_assert!(report.is_clean(), "{:?} ring protocol violations:\n{}", mode, report.render());
        }
    }

    /// The real-memory ring preserves the same invariant single-threaded
    /// for arbitrary interleavings of sends and receives.
    #[test]
    fn real_ring_fifo_integrity(
        cap_pow in 1u32..6,
        script in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let ring = RealRing::with_capacity(1usize << cap_pow);
        let (mut tx, mut rx) = ring.split();
        let mut next_send = 0u32;
        let mut next_recv = 0u32;
        for &do_send in &script {
            if do_send {
                if tx.try_send(&next_send.to_le_bytes()).is_ok() {
                    next_send += 1;
                }
            } else if let Some(msg) = rx.try_recv() {
                let v = u32::from_le_bytes(msg[..4].try_into().expect("4 bytes"));
                prop_assert_eq!(v, next_recv);
                next_recv += 1;
            }
        }
        prop_assert!(next_recv <= next_send);
    }

    /// The queued channel delivers arbitrary message sequences — any
    /// size up to one slot, over any power-of-two ring — in order and
    /// byte-exact, with sends issued in bursts that queue behind a full
    /// ring and flushed as credits return.
    #[test]
    fn channel_delivers_arbitrary_messages(
        cap_pow in 2u32..5,
        burst in 1usize..8,
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..shmem::ring::SLOT_PAYLOAD + 1),
            1..12,
        ),
    ) {
        for mode in AuditMode::ALL {
            use shmem::channel::{Channel, ChannelSend};
            let cap = 1u64 << cap_pow;
            let mut fabric = audited_fabric(mode);
            let ch = Channel::allocate(&mut fabric, HostId(0), HostId(1), cap).expect("alloc");
            let (mut tx, mut rx) = (ch.ab.0, ch.ab.1);
            let mut t = Nanos(0);
            let mut received = 0usize;
            let mut sent = 0usize;
            let mut guard = 0u32;
            while received < msgs.len() {
                guard += 1;
                prop_assert!(guard < 100_000, "{mode:?} livelock: {received}/{} received", msgs.len());
                let outcome = if sent < msgs.len() {
                    // Up to `burst` sends per poll: later ones queue
                    // behind whatever the ring could not take.
                    let mut last = ChannelSend::Sent(t);
                    for msg in msgs.iter().skip(sent).take(burst) {
                        last = tx.send(&mut fabric, t, msg.clone()).expect("send");
                        sent += 1;
                    }
                    last
                } else {
                    tx.flush(&mut fabric, t).expect("flush")
                };
                t = match outcome {
                    ChannelSend::Sent(at) | ChannelSend::Queued(at) => at,
                };
                match rx.poll(&mut fabric, t).expect("poll") {
                    shmem::ring::PollOutcome::Msg { data, at } => {
                        prop_assert_eq!(&data, &msgs[received], "{:?} message {} corrupted", mode, received);
                        received += 1;
                        t = at;
                    }
                    shmem::ring::PollOutcome::Empty(at) => t = at,
                }
            }
            // The sender's queue rides the same discipline; it must be
            // audit-clean.
            let report = fabric.audit_finalize(t).expect("audit on");
            prop_assert!(report.is_clean(), "{:?} channel protocol violations:\n{}", mode, report.render());
        }
    }

    /// Fabric writes are exactly-once and last-writer-wins: any
    /// sequence of nt_stores settles to the last write per byte.
    #[test]
    fn fabric_nt_store_last_writer_wins(
        writes in proptest::collection::vec(
            (0u64..1024, proptest::collection::vec(any::<u8>(), 1..64)),
            1..20,
        )
    ) {
        for mode in AuditMode::ALL {
            let mut fabric = audited_fabric(mode);
            let seg = fabric.alloc_shared(&[HostId(0)], 2048).expect("alloc");
            let mut model = vec![0u8; 2048];
            let mut t = Nanos(0);
            for (off, data) in &writes {
                t = fabric.nt_store(t, HostId(0), seg.base() + off, data).expect("store");
                model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
            }
            let mut buf = vec![0u8; 2048];
            fabric.peek_settled(seg.base(), &mut buf);
            prop_assert_eq!(buf, model, "{:?}", mode);
            // Single-writer nt-stores never violate the discipline.
            let report = fabric.audit_finalize(t).expect("audit on");
            prop_assert!(report.is_clean(), "{:?} nt-store violations:\n{}", mode, report.render());
        }
    }

    /// Histogram quantiles are monotone in q and bounded by min/max for
    /// arbitrary samples.
    #[test]
    fn histogram_quantiles_monotone(samples in proptest::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = 0;
        for &q in &qs {
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prop_assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
    }

    /// Allocator: segments never overlap and respect per-MHD capacity.
    #[test]
    fn allocator_segments_never_overlap(sizes in proptest::collection::vec(1u64..100_000, 1..25)) {
        let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
        let mut segs: Vec<(u64, u64)> = Vec::new();
        for len in sizes {
            if let Ok(seg) = fabric.alloc_shared(&[HostId(0), HostId(1)], len) {
                for &(b, e) in &segs {
                    prop_assert!(seg.end() <= b || seg.base() >= e, "overlap");
                }
                segs.push((seg.base(), seg.end()));
            }
        }
    }
}
