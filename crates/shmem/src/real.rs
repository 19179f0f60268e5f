//! The same ring protocol on real memory with real threads.
//!
//! The simulated ring in [`crate::ring`] proves the *timing* story; this
//! module proves the *ordering* story. It is a byte-compatible
//! implementation of the identical protocol — sequence-stamped 64 B
//! slots, single-writer / single-reader, credit-based flow control —
//! using atomics with the memory orderings that non-temporal stores and
//! invalidating loads provide on the real hardware (release on publish,
//! acquire on observe). Stress tests drive it across OS threads.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload bytes per slot (matching [`crate::ring::SLOT_PAYLOAD`]).
pub const SLOT_PAYLOAD: usize = 54;

struct Slot {
    /// Sequence stamp; slot `m % cap` holds `m + 1` when message `m` is
    /// ready. Padded by the payload to roughly a cache line.
    seq: AtomicU64,
    /// `[len: u16 LE][payload: 54 B]` — written only by the producer
    /// while it owns the slot, read only by the consumer after
    /// observing `seq`.
    data: UnsafeCell<[u8; 2 + SLOT_PAYLOAD]>,
}

// SAFETY: `Slot.data` is accessed under the per-slot `seq` protocol: the
// producer writes it only while `seq < m + 1` (consumer will not read),
// and publishes with a release store to `seq`; the consumer reads only
// after an acquire load observes `seq == m + 1`, and the producer will
// not touch the slot again until the consumer advances the shared
// `consumed` counter past `m + 1 - capacity`. Therefore no data race on
// `data` is possible.
unsafe impl Sync for Slot {}

/// Shared state of a real-memory SPSC ring.
pub struct RealRing {
    slots: Box<[Slot]>,
    consumed: AtomicU64,
    mask: u64,
}

impl RealRing {
    /// Creates a ring with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two.
    pub fn with_capacity(capacity: usize) -> Arc<RealRing> {
        assert!(
            capacity.is_power_of_two() && capacity > 0,
            "capacity must be a nonzero power of two"
        );
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new([0u8; 2 + SLOT_PAYLOAD]),
            })
            .collect();
        Arc::new(RealRing {
            slots,
            consumed: AtomicU64::new(0),
            mask: capacity as u64 - 1,
        })
    }

    /// Splits into producer and consumer handles.
    ///
    /// Each handle owns its cursor; creating several producers for one
    /// ring would break the single-writer protocol, so handles are the
    /// only way in.
    pub fn split(self: &Arc<RealRing>) -> (RealSender, RealReceiver) {
        (
            RealSender {
                ring: Arc::clone(self),
                next: 0,
                credits_seen: 0,
            },
            RealReceiver {
                ring: Arc::clone(self),
                next: 0,
            },
        )
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }
}

/// Error returned when the ring is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingFull;

/// Producer handle.
pub struct RealSender {
    ring: Arc<RealRing>,
    next: u64,
    credits_seen: u64,
}

impl RealSender {
    /// Attempts to enqueue `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`SLOT_PAYLOAD`] bytes.
    pub fn try_send(&mut self, payload: &[u8]) -> Result<(), RingFull> {
        assert!(payload.len() <= SLOT_PAYLOAD, "payload too large");
        if self.next - self.credits_seen >= self.ring.capacity() {
            self.credits_seen = self.ring.consumed.load(Ordering::Acquire);
            if self.next - self.credits_seen >= self.ring.capacity() {
                return Err(RingFull);
            }
        }
        let m = self.next;
        let slot = &self.ring.slots[(m & self.ring.mask) as usize];
        // SAFETY: Per the slot protocol (see `Slot`'s Sync impl), the
        // consumer has advanced `consumed` past `m + 1 - capacity`, so
        // it is not reading this slot; we are the only producer.
        unsafe {
            let data = &mut *slot.data.get();
            data[0..2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
            // simlint: allow(unwrap-in-datapath) -- payload.len() <= SLOT_PAYLOAD asserted at try_send entry
            data[2..2 + payload.len()].copy_from_slice(payload);
        }
        // Publish: release pairs with the consumer's acquire.
        slot.seq.store(m + 1, Ordering::Release);
        self.next = m + 1;
        Ok(())
    }

    /// Messages enqueued so far.
    pub fn sent(&self) -> u64 {
        self.next
    }
}

/// Consumer handle.
pub struct RealReceiver {
    ring: Arc<RealRing>,
    next: u64,
}

impl RealReceiver {
    /// Attempts to dequeue the next message.
    pub fn try_recv(&mut self) -> Option<Vec<u8>> {
        let m = self.next;
        let slot = &self.ring.slots[(m & self.ring.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != m + 1 {
            return None;
        }
        // SAFETY: The acquire load above observed the producer's release
        // store of `m + 1`, so the payload write happens-before this
        // read, and the producer will not rewrite the slot until we
        // advance `consumed` below.
        let out = unsafe {
            let data = &*slot.data.get();
            let len = u16::from_le_bytes([data[0], data[1]]) as usize;
            // simlint: allow(unwrap-in-datapath) -- len is min-clamped to SLOT_PAYLOAD; 2 + SLOT_PAYLOAD == slot size
            data[2..2 + len.min(SLOT_PAYLOAD)].to_vec()
        };
        self.next = m + 1;
        // Return credit: release pairs with the producer's acquire.
        self.ring.consumed.store(self.next, Ordering::Release);
        Some(out)
    }

    /// Messages consumed so far.
    pub fn consumed(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_thread_roundtrip() {
        let ring = RealRing::with_capacity(8);
        let (mut tx, mut rx) = ring.split();
        assert!(rx.try_recv().is_none());
        tx.try_send(b"abc").expect("send");
        assert_eq!(rx.try_recv().expect("recv"), b"abc");
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn fills_and_recovers() {
        let ring = RealRing::with_capacity(4);
        let (mut tx, mut rx) = ring.split();
        for i in 0..4u8 {
            tx.try_send(&[i]).expect("send");
        }
        assert_eq!(tx.try_send(b"x"), Err(RingFull));
        assert_eq!(rx.try_recv().expect("recv"), &[0]);
        tx.try_send(b"x").expect("credit returned");
    }

    #[test]
    fn cross_thread_integrity_and_order() {
        let ring = RealRing::with_capacity(64);
        let (mut tx, mut rx) = ring.split();
        const N: u64 = 20_000;
        thread::scope(|s| {
            s.spawn(move || {
                let mut i = 0u64;
                while i < N {
                    // Payload: counter + simple checksum byte.
                    let mut p = [0u8; 9];
                    p[0..8].copy_from_slice(&i.to_le_bytes());
                    p[8] = i.to_le_bytes().iter().fold(0u8, |a, b| a.wrapping_add(*b));
                    if tx.try_send(&p).is_ok() {
                        i += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                match rx.try_recv() {
                    Some(p) => {
                        assert_eq!(p.len(), 9);
                        let v = u64::from_le_bytes(p[0..8].try_into().expect("8 bytes"));
                        let ck = p[0..8].iter().fold(0u8, |a, b| a.wrapping_add(*b));
                        assert_eq!(v, expect, "out-of-order delivery");
                        assert_eq!(p[8], ck, "corrupt payload");
                        expect += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    }

    #[test]
    fn wraparound_preserves_data_across_many_laps() {
        let ring = RealRing::with_capacity(2);
        let (mut tx, mut rx) = ring.split();
        for lap in 0..1000u32 {
            tx.try_send(&lap.to_le_bytes()).expect("send");
            assert_eq!(rx.try_recv().expect("recv"), lap.to_le_bytes());
        }
    }

    #[test]
    fn varying_payload_sizes() {
        let ring = RealRing::with_capacity(8);
        let (mut tx, mut rx) = ring.split();
        for len in [0usize, 1, 7, 32, SLOT_PAYLOAD] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            tx.try_send(&payload).expect("send");
            assert_eq!(rx.try_recv().expect("recv"), payload);
        }
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn oversize_payload_panics() {
        let ring = RealRing::with_capacity(8);
        let (mut tx, _rx) = ring.split();
        let _ = tx.try_send(&[0u8; SLOT_PAYLOAD + 1]);
    }

    #[test]
    fn bidirectional_pair_across_threads() {
        // Ping-pong over two rings, as the Figure 4 setup does.
        let fwd = RealRing::with_capacity(8);
        let rev = RealRing::with_capacity(8);
        let (mut ftx, mut frx) = fwd.split();
        let (mut rtx, mut rrx) = rev.split();
        const ROUNDS: u32 = 2_000;
        thread::scope(|s| {
            s.spawn(move || {
                for i in 0..ROUNDS {
                    while ftx.try_send(&i.to_le_bytes()).is_err() {
                        std::thread::yield_now();
                    }
                    loop {
                        if let Some(p) = rrx.try_recv() {
                            assert_eq!(p, i.to_le_bytes());
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
            for _ in 0..ROUNDS {
                let p = loop {
                    if let Some(p) = frx.try_recv() {
                        break p;
                    }
                    std::thread::yield_now();
                };
                while rtx.try_send(&p).is_err() {
                    std::thread::yield_now();
                }
            }
        });
    }
}
