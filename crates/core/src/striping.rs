//! Adaptive storage striping across pooled SSDs (§5).
//!
//! "A storage server in an object storage service like S3 could shift
//! load across a large number of SSDs if it is writing a large amount
//! of data requiring high storage bandwidth. This may behave like
//! adaptive storage striping or RAID configurations."
//!
//! [`StripedVolume`] is a RAID-0-style volume over k pooled SSDs: a
//! logical block range is split into stripe units distributed
//! round-robin. Because submissions are forwarded over the
//! sub-microsecond channel, a host can keep k remote SSDs busy in
//! parallel; the volume's completion time is the max over the devices,
//! so sequential bandwidth scales with k until another resource
//! saturates.
//!
//! [`ReplicaSet`] applies the same policy to pool *memory* across
//! failure domains: one full copy of a byte region pinned to each of
//! several distinct multi-MHD failure domains (RAID-1 across chassis,
//! striped across the MHDs inside each chassis), so a whole-domain
//! outage leaves intact copies and [`ReplicaSet::rebuild`]
//! re-materializes the lost one from a survivor.

use cxl_fabric::{DomainId, DomainPlacement, Fabric, FabricError, HostId, SegmentId};
use pcie_sim::ssd::BLOCK;
use pcie_sim::DeviceId;
use simkit::Nanos;

use crate::pod::PodSim;
use crate::proto::Cmd;
use crate::vdev::PoolError;

/// A RAID-0 volume over pooled SSDs.
#[derive(Clone, Debug)]
pub struct StripedVolume {
    devs: Vec<DeviceId>,
    /// Stripe unit in blocks.
    pub stripe_blocks: u32,
}

/// Result of a volume-level operation.
#[derive(Clone, Copy, Debug)]
pub struct VolumeOp {
    /// When the whole operation (max over devices) completed.
    pub done: Nanos,
    /// When it was issued.
    pub issued: Nanos,
    /// Bytes moved.
    pub bytes: u64,
}

impl VolumeOp {
    /// Achieved bandwidth in GB/s.
    pub fn gbps(&self) -> f64 {
        let dt = (self.done - self.issued).as_nanos().max(1);
        self.bytes as f64 / dt as f64
    }
}

impl StripedVolume {
    /// Creates a volume striped over `devs` with the given stripe unit.
    ///
    /// # Panics
    ///
    /// Panics if `devs` is empty or the stripe unit is zero.
    pub fn new(devs: Vec<DeviceId>, stripe_blocks: u32) -> StripedVolume {
        assert!(!devs.is_empty(), "a volume needs at least one SSD");
        assert!(stripe_blocks > 0, "stripe unit must be nonzero");
        StripedVolume {
            devs,
            stripe_blocks,
        }
    }

    /// Number of member devices.
    pub fn width(&self) -> usize {
        self.devs.len()
    }

    /// Maps a logical block to `(device, device_lba)`.
    pub fn map(&self, logical_block: u64) -> (DeviceId, u64) {
        let unit = logical_block / self.stripe_blocks as u64;
        let within = logical_block % self.stripe_blocks as u64;
        let dev = self.devs[(unit % self.devs.len() as u64) as usize];
        let dev_unit = unit / self.devs.len() as u64;
        (dev, dev_unit * self.stripe_blocks as u64 + within)
    }

    /// Writes `data` (a whole number of blocks) at `logical_block` on
    /// behalf of `owner`. Stages each stripe unit in pool memory, fans
    /// submissions out to the member SSDs, and returns when the slowest
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not block-aligned.
    pub fn write(
        &self,
        pod: &mut PodSim,
        owner: HostId,
        logical_block: u64,
        data: &[u8],
        deadline: Nanos,
    ) -> Result<VolumeOp, PoolError> {
        assert!(
            (data.len() as u64).is_multiple_of(BLOCK),
            "data must be block-aligned ({} B)",
            data.len()
        );
        let blocks = data.len() as u64 / BLOCK;
        let issued = pod.time();
        let mut done = issued;
        let mut bytes = 0u64;
        let mut cur = 0u64;
        // Phase 1: stage and submit every stripe unit so all devices
        // work in parallel.
        let mut inflight = Vec::new();
        while cur < blocks {
            let lb = logical_block + cur;
            let (dev, dev_lba) = self.map(lb);
            // One stripe-unit-or-less contiguous run on this device.
            let unit_left = self.stripe_blocks as u64 - (lb % self.stripe_blocks as u64);
            let n = unit_left.min(blocks - cur);
            let off = (cur * BLOCK) as usize;
            // In bounds: cur + n <= blocks and data.len() == blocks * BLOCK
            // (validated at entry).
            let chunk = &data[off..off + (n * BLOCK) as usize];
            let buf = pod.stage(owner, chunk)?;
            let cmd = Cmd::SsdWrite {
                lba: dev_lba,
                blocks: n as u32,
                buf,
            };
            inflight.push(pod.submit(owner, dev, cmd)?.with_deadline(deadline));
            bytes += n * BLOCK;
            cur += n;
        }
        // Phase 2: collect completions.
        for f in inflight {
            done = done.max(pod.finish(f)?.at);
        }
        Ok(VolumeOp {
            done,
            issued,
            bytes,
        })
    }

    /// Reads `blocks` blocks at `logical_block`; returns the
    /// reassembled data and the volume completion.
    pub fn read(
        &self,
        pod: &mut PodSim,
        owner: HostId,
        logical_block: u64,
        blocks: u64,
        deadline: Nanos,
    ) -> Result<(Vec<u8>, VolumeOp), PoolError> {
        let issued = pod.time();
        let mut done = issued;
        let mut out = vec![0u8; (blocks * BLOCK) as usize];
        let mut cur = 0u64;
        // (output offset, pool buffer, byte length) per stripe run,
        // submitted in parallel.
        let mut pieces: Vec<(usize, u64, u64)> = Vec::new();
        let mut inflight = Vec::new();
        while cur < blocks {
            let lb = logical_block + cur;
            let (dev, dev_lba) = self.map(lb);
            let unit_left = self.stripe_blocks as u64 - (lb % self.stripe_blocks as u64);
            let n = unit_left.min(blocks - cur);
            let buf = pod.io_buf(owner);
            let cmd = Cmd::SsdRead {
                lba: dev_lba,
                blocks: n as u32,
                buf,
            };
            inflight.push(pod.submit(owner, dev, cmd)?.with_deadline(deadline));
            pieces.push(((cur * BLOCK) as usize, buf, n * BLOCK));
            cur += n;
        }
        for f in inflight {
            done = done.max(pod.finish(f)?.at);
        }
        for (off, buf, len) in pieces {
            let (data, _) = pod.read_rx_payload(owner, buf, len as usize, done)?;
            out[off..off + len as usize].copy_from_slice(&data);
        }
        Ok((
            out,
            VolumeOp {
                done,
                issued,
                bytes: blocks * BLOCK,
            },
        ))
    }
}

/// Copy granularity used by [`ReplicaSet::rebuild`].
const COPY_CHUNK: usize = 4096;

/// One full copy of a [`ReplicaSet`], pinned to a failure domain.
#[derive(Clone, Copy, Debug)]
pub struct Replica {
    /// The failure domain holding this copy.
    pub domain: DomainId,
    /// Backing pool segment (striped across the domain's MHDs).
    pub seg: SegmentId,
    /// Base pool address of the copy.
    pub base: u64,
}

/// A domain-replicated byte region in pool memory.
///
/// Each replica is a segment pinned to one failure domain (and striped
/// across that domain's MHDs for bandwidth); replicas never share a
/// domain, so losing an entire chassis leaves the data readable from
/// the survivors.
#[derive(Clone, Debug)]
pub struct ReplicaSet {
    owners: Vec<HostId>,
    len: u64,
    replicas: Vec<Replica>,
}

impl ReplicaSet {
    /// Allocates one pinned copy in each of `domains` (which must be
    /// distinct). Already-placed copies are released if a later one
    /// fails, so creation is all-or-nothing.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty, repeats a domain, or `len` is 0.
    pub fn create(
        fabric: &mut Fabric,
        owners: &[HostId],
        len: u64,
        domains: &[DomainId],
    ) -> Result<ReplicaSet, FabricError> {
        assert!(len > 0, "a replica set needs a nonzero length");
        assert!(
            !domains.is_empty(),
            "a replica set needs at least one domain"
        );
        let mut distinct = domains.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            domains.len(),
            "replica domains must be distinct"
        );
        let mut replicas: Vec<Replica> = Vec::with_capacity(domains.len());
        for &d in domains {
            let ways = fabric.topology().mhds_in_domain(d).len().max(1);
            match fabric.alloc_placed(owners, len, ways, DomainPlacement::Pinned(d)) {
                Ok(seg) => replicas.push(Replica {
                    domain: d,
                    seg: seg.id(),
                    base: seg.base(),
                }),
                Err(e) => {
                    for r in replicas {
                        let _ = fabric.free_segment(r.seg);
                    }
                    return Err(e);
                }
            }
        }
        Ok(ReplicaSet {
            owners: owners.to_vec(),
            len,
            replicas,
        })
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the region is zero-length (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live replicas, in placement order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The domains currently holding a copy, in placement order.
    pub fn domains(&self) -> Vec<DomainId> {
        self.replicas.iter().map(|r| r.domain).collect()
    }

    /// Writes `data` at `off` into every copy whose domain is up
    /// (non-temporal, so the write is pod-visible on return). Returns
    /// the completion time of the slowest copy.
    pub fn write(
        &self,
        fabric: &mut Fabric,
        now: Nanos,
        host: HostId,
        off: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        let mut done = now;
        for r in &self.replicas {
            if !fabric.topology().domain_is_up(r.domain) {
                continue;
            }
            let t = fabric.nt_store(now, host, r.base + off, data)?;
            done = done.max(t);
        }
        Ok(done)
    }

    /// Reads `buf.len()` bytes at `off` from the first copy whose
    /// domain is up.
    pub fn read(
        &self,
        fabric: &mut Fabric,
        now: Nanos,
        host: HostId,
        off: u64,
        buf: &mut [u8],
    ) -> Result<Nanos, FabricError> {
        for r in &self.replicas {
            if fabric.topology().domain_is_up(r.domain) {
                return fabric.load(now, host, r.base + off, buf);
            }
        }
        Err(FabricError::InsufficientDomains {
            wanted: 1,
            available: 0,
        })
    }

    /// Re-materializes the copy lost to the `failed` domain: the dead
    /// segment is released, a fresh pinned copy is allocated in the
    /// most-free up domain that does not already hold one, and the data
    /// is copied over from a surviving replica. Returns the new
    /// domain, or `Ok(None)` when no spare domain exists (the set
    /// continues degraded with the survivors).
    pub fn rebuild(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        host: HostId,
        failed: DomainId,
    ) -> Result<Option<DomainId>, FabricError> {
        let Some(idx) = self.replicas.iter().position(|r| r.domain == failed) else {
            return Ok(None); // No copy was there; nothing lost.
        };
        let src = self
            .replicas
            .iter()
            .find(|r| r.domain != failed && fabric.topology().domain_is_up(r.domain))
            .copied()
            .ok_or(FabricError::DomainDown(failed))?;
        let dead = self.replicas.remove(idx);
        let _ = fabric.free_segment(dead.seg);
        let used = self.domains();
        let mut cands: Vec<DomainId> = (0..fabric.topology().domains())
            .map(DomainId)
            .filter(|&d| d != failed && !used.contains(&d) && fabric.topology().domain_is_up(d))
            .collect();
        cands.sort_by_key(|&d| (std::cmp::Reverse(fabric.domain_free(d)), d));
        let Some(&target) = cands.first() else {
            return Ok(None);
        };
        let ways = fabric.topology().mhds_in_domain(target).len().max(1);
        let seg = fabric.alloc_placed(
            &self.owners,
            self.len,
            ways,
            DomainPlacement::Pinned(target),
        )?;
        let mut t = now;
        let mut off = 0u64;
        let mut buf = vec![0u8; COPY_CHUNK];
        while off < self.len {
            let n = ((self.len - off) as usize).min(COPY_CHUNK);
            // simlint: allow(unwrap-in-datapath) -- n is min-clamped to COPY_CHUNK == buf.len()
            t = fabric.load(t, host, src.base + off, &mut buf[..n])?;
            // simlint: allow(unwrap-in-datapath) -- n is min-clamped to COPY_CHUNK == buf.len()
            t = fabric.nt_store(t, host, seg.base() + off, &buf[..n])?;
            off += n as u64;
        }
        self.replicas.push(Replica {
            domain: target,
            seg: seg.id(),
            base: seg.base(),
        });
        Ok(Some(target))
    }

    /// Releases every copy back to the pool (tenant departure).
    /// `Fabric::free_segment` clears the coherence auditor's per-line
    /// shadow state for each replica across *all* domains, so a later
    /// tenant reusing these addresses can never alias the old copies'
    /// history.
    pub fn free(self, fabric: &mut Fabric) {
        for r in self.replicas {
            let _ = fabric.free_segment(r.seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodParams;
    use crate::vdev::DeviceKind;

    fn pod_with_ssds(n: u16) -> (PodSim, Vec<DeviceId>) {
        let mut params = PodParams::new(4, 1);
        params.ssd_hosts = (0..n).map(|i| i % 4).collect();
        // Wider buffers for stripe staging.
        params.io_slots = 32;
        let pod = PodSim::new(params);
        let devs = pod.orch.devices_of(DeviceKind::Ssd);
        (pod, devs)
    }

    fn deadline() -> Nanos {
        Nanos::from_millis(100)
    }

    #[test]
    fn map_round_robins_units() {
        let v = StripedVolume::new(vec![DeviceId(1), DeviceId(2), DeviceId(3)], 4);
        let (d0, l0) = v.map(0);
        let (d1, _) = v.map(4);
        let (d2, _) = v.map(8);
        let (d3, l3) = v.map(12);
        assert_eq!(d0, DeviceId(1));
        assert_eq!(d1, DeviceId(2));
        assert_eq!(d2, DeviceId(3));
        assert_eq!(d3, DeviceId(1), "wraps to first device");
        assert_eq!(l0, 0);
        assert_eq!(l3, 4, "second unit on first device");
    }

    #[test]
    fn map_within_unit_is_contiguous() {
        let v = StripedVolume::new(vec![DeviceId(1), DeviceId(2)], 4);
        for i in 0..4 {
            let (d, l) = v.map(i);
            assert_eq!(d, DeviceId(1));
            assert_eq!(l, i);
        }
    }

    #[test]
    fn write_read_roundtrip_over_three_ssds() {
        let (mut pod, devs) = pod_with_ssds(3);
        let v = StripedVolume::new(devs, 2);
        let data: Vec<u8> = (0..(12 * BLOCK) as usize)
            .map(|i| (i % 241) as u8)
            .collect();
        v.write(&mut pod, HostId(3), 100, &data, deadline())
            .expect("write");
        let (back, _) = v
            .read(&mut pod, HostId(3), 100, 12, deadline())
            .expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn striping_scales_bandwidth() {
        // The same 32-block write over 1 vs 4 SSDs: more devices, more
        // parallel flash channels, faster completion.
        let (mut pod1, devs1) = pod_with_ssds(1);
        let v1 = StripedVolume::new(devs1, 2);
        let data: Vec<u8> = vec![7u8; (32 * BLOCK) as usize];
        let w1 = v1
            .write(&mut pod1, HostId(3), 0, &data, deadline())
            .expect("w1");

        let (mut pod4, devs4) = pod_with_ssds(4);
        let v4 = StripedVolume::new(devs4, 2);
        let w4 = v4
            .write(&mut pod4, HostId(3), 0, &data, deadline())
            .expect("w4");

        assert!(
            w4.gbps() > w1.gbps() * 1.5,
            "4-way {} GB/s vs 1-way {} GB/s",
            w4.gbps(),
            w1.gbps()
        );
    }

    fn multi_domain_fabric(domains: u16, mhds_per_domain: u16) -> Fabric {
        let mhds = domains * mhds_per_domain;
        Fabric::new(cxl_fabric::PodConfig::new(2, mhds, mhds).with_domains(domains))
    }

    #[test]
    fn replica_set_places_one_copy_per_domain() {
        let mut f = multi_domain_fabric(3, 2);
        let rs = ReplicaSet::create(
            &mut f,
            &[HostId(0), HostId(1)],
            8192,
            &[DomainId(0), DomainId(2)],
        )
        .expect("create");
        assert_eq!(rs.domains(), vec![DomainId(0), DomainId(2)]);
        for r in rs.replicas() {
            let seg = f.segment(r.seg).expect("live segment");
            for w in seg.ways() {
                assert_eq!(f.topology().domain_of(*w), r.domain, "copy leaked out");
            }
        }
    }

    #[test]
    fn replica_set_survives_domain_loss() {
        let mut f = multi_domain_fabric(2, 2);
        let rs = ReplicaSet::create(&mut f, &[HostId(0)], 4096, &[DomainId(0), DomainId(1)])
            .expect("create");
        let data = [0xabu8; 256];
        let t = rs
            .write(&mut f, Nanos(0), HostId(0), 128, &data)
            .expect("write");
        f.topology_mut().fail_domain(DomainId(0));
        let mut back = [0u8; 256];
        rs.read(&mut f, t, HostId(0), 128, &mut back)
            .expect("read from survivor");
        assert_eq!(back, data);
    }

    #[test]
    fn replica_set_rebuild_rematerializes_into_spare_domain() {
        let mut f = multi_domain_fabric(3, 1);
        let mut rs = ReplicaSet::create(&mut f, &[HostId(0)], 8192, &[DomainId(0), DomainId(1)])
            .expect("create");
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let t = rs
            .write(&mut f, Nanos(0), HostId(0), 0, &data)
            .expect("write");
        f.topology_mut().fail_domain(DomainId(0));
        let new = rs
            .rebuild(&mut f, t, HostId(0), DomainId(0))
            .expect("rebuild");
        assert_eq!(new, Some(DomainId(2)), "spare domain takes the copy");
        assert_eq!(rs.domains(), vec![DomainId(1), DomainId(2)]);
        // The re-materialized copy holds the data: fail the source too
        // and read from the new one.
        f.topology_mut().fail_domain(DomainId(1));
        let mut back = vec![0u8; 8192];
        let now = Nanos::from_millis(1);
        rs.read(&mut f, now, HostId(0), 0, &mut back)
            .expect("read rebuilt copy");
        assert_eq!(back, data);
    }

    #[test]
    fn replica_set_rebuild_without_spare_stays_degraded() {
        let mut f = multi_domain_fabric(2, 1);
        let mut rs = ReplicaSet::create(&mut f, &[HostId(0)], 4096, &[DomainId(0), DomainId(1)])
            .expect("create");
        f.topology_mut().fail_domain(DomainId(1));
        let new = rs
            .rebuild(&mut f, Nanos(0), HostId(0), DomainId(1))
            .expect("rebuild");
        assert_eq!(new, None, "no spare domain in a 2-domain pod");
        assert_eq!(rs.domains(), vec![DomainId(0)]);
    }

    #[test]
    fn different_widths_preserve_integrity() {
        for width in [1u16, 2, 4] {
            let (mut pod, devs) = pod_with_ssds(width);
            let v = StripedVolume::new(devs, 1);
            let data: Vec<u8> = (0..(8 * BLOCK) as usize).map(|i| (i / 7) as u8).collect();
            v.write(&mut pod, HostId(2), 0, &data, deadline())
                .expect("write");
            let (back, _) = v.read(&mut pod, HostId(2), 0, 8, deadline()).expect("read");
            assert_eq!(back, data, "width {width} corrupted data");
        }
    }
}
