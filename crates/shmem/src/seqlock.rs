//! A seqlock for multi-line records on non-coherent shared memory.
//!
//! The fabric writes one 64 B cache line atomically, so a value that
//! fits in a line needs no protocol. Larger records span several
//! lines, and a reader can observe a *torn* mix of old and new lines.
//! The classic cure is a sequence lock: the writer bumps a version to
//! an odd value, writes the payload, then bumps it to the next even
//! value (all with non-temporal stores, in order); the reader re-reads
//! until it sees the same even version on both sides of the payload.
//!
//! Layout: `[version: 8 B pad to 64][payload: N lines][version mirror:
//! 8 B pad to 64]`.

use cxl_fabric::{Fabric, FabricError, HostId, Segment};
use simkit::Nanos;

/// A shared record protected by a sequence lock.
pub struct SeqLock {
    seg: Segment,
    payload_len: u64,
    writer: HostId,
    version: u64,
}

/// Result of a read attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A consistent snapshot at this version.
    Snapshot {
        /// Version observed (even).
        version: u64,
        /// Payload bytes.
        data: Vec<u8>,
        /// Completion time.
        at: Nanos,
    },
    /// The record was mid-update (or the two version reads differed);
    /// retry after this time.
    Torn(Nanos),
}

impl SeqLock {
    /// Allocates a seqlock-protected record of `payload_len` bytes
    /// shared by `members`, written by `writer`.
    pub fn allocate(
        fabric: &mut Fabric,
        members: &[HostId],
        writer: HostId,
        payload_len: u64,
    ) -> Result<SeqLock, FabricError> {
        assert!(payload_len > 0, "payload must be nonempty");
        let total = 64 + payload_len.next_multiple_of(64) + 64;
        let seg = fabric.alloc_shared(members, total)?;
        // The version protocol detects and retries torn payload reads,
        // so the coherence auditor must not report them as hazards.
        fabric.mark_tear_tolerant(seg.base(), total);
        // A reader that sees matching head/tail versions acquires the
        // writer's publish ordering (vector-clock audit mode).
        fabric.mark_sync_range(seg.base(), total);
        Ok(SeqLock {
            seg,
            payload_len,
            writer,
            version: 0,
        })
    }

    fn head(&self) -> u64 {
        self.seg.base()
    }

    fn body(&self) -> u64 {
        self.seg.base() + 64
    }

    fn tail(&self) -> u64 {
        self.seg.base() + 64 + self.payload_len.next_multiple_of(64)
    }

    /// Publishes a new payload; returns the time the final version
    /// store is visible.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the configured payload
    /// length.
    pub fn publish(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        assert_eq!(
            data.len() as u64,
            self.payload_len,
            "payload length mismatch"
        );
        // Mark busy (odd) — readers that see this retry.
        let odd = self.version + 1;
        let t = fabric.nt_store(now, self.writer, self.head(), &odd.to_le_bytes())?;
        // Body, ordered after the odd marker.
        let t = fabric.nt_store(t, self.writer, self.body(), data)?;
        // Release: both version words move to the next even value.
        let even = self.version + 2;
        let t = fabric.nt_store(t, self.writer, self.tail(), &even.to_le_bytes())?;
        let t = fabric.nt_store(t, self.writer, self.head(), &even.to_le_bytes())?;
        self.version = even;
        Ok(t)
    }

    /// Attempts one consistent read from `reader`'s perspective.
    pub fn read(
        &self,
        fabric: &mut Fabric,
        now: Nanos,
        reader: HostId,
    ) -> Result<ReadOutcome, FabricError> {
        // Head version first (fresh).
        let t = fabric.invalidate(now, reader, self.head(), 64);
        let mut v1 = [0u8; 8];
        let t = fabric.load(t, reader, self.head(), &mut v1)?;
        let v1 = u64::from_le_bytes(v1);
        if v1 % 2 == 1 {
            return Ok(ReadOutcome::Torn(t));
        }
        // Body.
        let t = fabric.invalidate(t, reader, self.body(), self.payload_len);
        let mut data = vec![0u8; self.payload_len as usize];
        let t = fabric.load(t, reader, self.body(), &mut data)?;
        // Tail version second: must match the head.
        let t = fabric.invalidate(t, reader, self.tail(), 64);
        let mut v2 = [0u8; 8];
        let t = fabric.load(t, reader, self.tail(), &mut v2)?;
        let v2 = u64::from_le_bytes(v2);
        if v1 != v2 {
            return Ok(ReadOutcome::Torn(t));
        }
        Ok(ReadOutcome::Snapshot {
            version: v1,
            data,
            at: t,
        })
    }

    /// Reads with retry until a snapshot lands or `deadline` passes.
    pub fn read_consistent(
        &self,
        fabric: &mut Fabric,
        mut now: Nanos,
        reader: HostId,
        deadline: Nanos,
    ) -> Result<Option<(u64, Vec<u8>, Nanos)>, FabricError> {
        loop {
            match self.read(fabric, now, reader)? {
                ReadOutcome::Snapshot { version, data, at } => {
                    return Ok(Some((version, data, at)))
                }
                ReadOutcome::Torn(t) => {
                    if t > deadline {
                        return Ok(None);
                    }
                    now = t;
                }
            }
        }
    }

    /// Versions published so far (even).
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn setup(len: u64) -> (Fabric, SeqLock) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let lock =
            SeqLock::allocate(&mut f, &[HostId(0), HostId(1)], HostId(0), len).expect("alloc");
        (f, lock)
    }

    #[test]
    fn publish_read_roundtrip_multi_line() {
        let (mut f, mut lock) = setup(500);
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let t = lock.publish(&mut f, Nanos(0), &data).expect("publish");
        match lock.read(&mut f, t, HostId(1)).expect("read") {
            ReadOutcome::Snapshot {
                version, data: got, ..
            } => {
                assert_eq!(version, 2);
                assert_eq!(got, data);
            }
            ReadOutcome::Torn(_) => panic!("should be settled at {t:?}"),
        }
    }

    #[test]
    fn unwritten_lock_reads_version_zero() {
        let (mut f, lock) = setup(128);
        match lock.read(&mut f, Nanos(0), HostId(1)).expect("read") {
            ReadOutcome::Snapshot { version, .. } => assert_eq!(version, 0),
            ReadOutcome::Torn(_) => panic!("empty record is consistent"),
        }
    }

    #[test]
    fn mid_update_read_is_torn_not_corrupt() {
        let (mut f, mut lock) = setup(256);
        let old: Vec<u8> = vec![1u8; 256];
        let t = lock.publish(&mut f, Nanos(0), &old).expect("publish v2");
        // Start a second publish but read between the odd marker's
        // visibility and the final even store.
        let new: Vec<u8> = vec![2u8; 256];
        let done = lock.publish(&mut f, t, &new).expect("publish v4");
        // The odd marker (version 3) became visible well before `done`.
        // A read in that window must report Torn, never mixed bytes.
        let mid = t + (done - t) / 2;
        match lock.read(&mut f, mid, HostId(1)).expect("read") {
            ReadOutcome::Torn(_) => {}
            ReadOutcome::Snapshot { data, version, .. } => {
                // If the timing let a snapshot through it must be fully
                // old or fully new.
                assert!(
                    data == old || data == new,
                    "torn payload escaped at version {version}"
                );
            }
        }
        // After completion the new value reads cleanly.
        match lock.read(&mut f, done, HostId(1)).expect("read") {
            ReadOutcome::Snapshot { data, version, .. } => {
                assert_eq!(version, 4);
                assert_eq!(data, new);
            }
            ReadOutcome::Torn(_) => panic!("settled read should succeed"),
        }
    }

    #[test]
    fn read_consistent_retries_through_updates() {
        let (mut f, mut lock) = setup(192);
        let data = vec![9u8; 192];
        let t = lock.publish(&mut f, Nanos(0), &data).expect("publish");
        let got = lock
            .read_consistent(&mut f, Nanos(0), HostId(1), t + Nanos::from_micros(100))
            .expect("read")
            .expect("snapshot before deadline");
        assert_eq!(got.1, data);
    }

    #[test]
    fn versions_advance_by_two() {
        let (mut f, mut lock) = setup(64);
        assert_eq!(lock.version(), 0);
        let t = lock.publish(&mut f, Nanos(0), &[1u8; 64]).expect("p1");
        assert_eq!(lock.version(), 2);
        lock.publish(&mut f, t, &[2u8; 64]).expect("p2");
        assert_eq!(lock.version(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_payload_length_panics() {
        let (mut f, mut lock) = setup(64);
        let _ = lock.publish(&mut f, Nanos(0), &[0u8; 32]);
    }
}
