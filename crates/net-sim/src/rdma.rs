//! RDMA-based storage disaggregation: the baseline the paper argues
//! against for latency-sensitive I/O (§1).
//!
//! "One might think to use RDMA, since cloud providers already utilize
//! RDMA to disaggregate SSDs. However, in practice, RDMA latency is too
//! high; all cloud providers still offer host-local SSDs in addition to
//! remote SSDs."
//!
//! The model is NVMe-over-Fabrics shaped: the client posts a request
//! over the network, the storage node's CPU handles it, the drive does
//! its I/O into the storage node's local memory, and the payload rides
//! an RDMA write back to the client. Each leg is accounted against the
//! same wire and device models the rest of the workspace uses, so the
//! comparison with CXL pooling is apples-to-apples.

use cxl_fabric::{Fabric, HostId};
use pcie_sim::ssd::BLOCK;
use pcie_sim::{BufRef, DeviceError, Ssd};
use serde::Serialize;
use simkit::Nanos;

use crate::wire::{Wire, WireParams};

/// RDMA fabric parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RdmaParams {
    /// One-sided verb base latency (NIC processing both ends), per
    /// direction, on top of wire time.
    pub verb_overhead: Nanos,
    /// Storage-node software cost per request (NVMe-oF target stack).
    pub target_cpu: Nanos,
}

impl Default for RdmaParams {
    fn default() -> Self {
        RdmaParams {
            verb_overhead: Nanos(900),
            target_cpu: Nanos(1_500),
        }
    }
}

/// A remote SSD reached over RDMA (NVMe-oF style).
pub struct RdmaSsd {
    params: RdmaParams,
    /// Client → target direction.
    to_target: Wire,
    /// Target → client direction.
    to_client: Wire,
    /// The drive, attached to the storage node.
    pub ssd: Ssd,
    /// The storage node's identity (for its local staging buffers).
    pub target_host: HostId,
    staging: u64,
}

impl RdmaSsd {
    /// Wraps `ssd` (attached to `target_host`) behind an RDMA fabric.
    /// `staging` is an address in the target's local DRAM used as the
    /// bounce buffer.
    pub fn new(ssd: Ssd, target_host: HostId, wire: WireParams, params: RdmaParams) -> RdmaSsd {
        RdmaSsd {
            params,
            to_target: Wire::new(wire),
            to_client: Wire::new(wire),
            target_host,
            ssd,
            staging: 0x4000_0000,
        }
    }

    /// Reads `blocks` blocks at `lba`; the payload lands back at the
    /// client at the returned time. `out` receives the bytes.
    pub fn read(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        lba: u64,
        blocks: u64,
        out: &mut [u8],
    ) -> Result<Nanos, DeviceError> {
        assert_eq!(out.len() as u64, blocks * BLOCK, "buffer size mismatch");
        // Request: ~64 B capsule to the target.
        let arrived = self.to_target.carry(now, 64) + self.params.verb_overhead;
        let handled = arrived + self.params.target_cpu;
        // Drive I/O into the target's local DRAM bounce buffer.
        let flash_done =
            self.ssd
                .read(fabric, handled, lba, blocks, BufRef::Local(self.staging))?;
        fabric.local_load(flash_done, self.target_host, self.staging, out);
        // RDMA write of the payload back to the client.
        let landed = self.to_client.carry(flash_done, blocks * BLOCK) + self.params.verb_overhead;
        Ok(landed)
    }

    /// Writes `blocks` blocks at `lba` from `data`; returns the time
    /// the client sees the completion.
    pub fn write(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        lba: u64,
        blocks: u64,
        data: &[u8],
    ) -> Result<Nanos, DeviceError> {
        assert_eq!(data.len() as u64, blocks * BLOCK, "buffer size mismatch");
        // Payload travels with the request.
        let arrived = self.to_target.carry(now, 64 + blocks * BLOCK) + self.params.verb_overhead;
        let handled = arrived + self.params.target_cpu;
        fabric.local_store(handled, self.target_host, self.staging, data);
        let flash_done =
            self.ssd
                .write(fabric, handled, lba, blocks, BufRef::Local(self.staging))?;
        // Completion capsule back.
        let landed = self.to_client.carry(flash_done, 64) + self.params.verb_overhead;
        Ok(landed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;
    use pcie_sim::{DeviceId, SsdConfig};

    fn setup() -> (Fabric, RdmaSsd) {
        let f = Fabric::new(PodConfig::new(2, 2, 2));
        let ssd = Ssd::new(DeviceId(0), HostId(1), SsdConfig::default());
        let r = RdmaSsd::new(ssd, HostId(1), WireParams::default(), RdmaParams::default());
        (f, r)
    }

    #[test]
    fn write_read_roundtrip_preserves_data() {
        let (mut f, mut r) = setup();
        let data: Vec<u8> = (0..BLOCK as usize).map(|i| (i % 249) as u8).collect();
        let t = r.write(&mut f, Nanos(0), 5, 1, &data).expect("write");
        let mut out = vec![0u8; BLOCK as usize];
        r.read(&mut f, t, 5, 1, &mut out).expect("read");
        assert_eq!(out, data);
    }

    #[test]
    fn rdma_adds_network_overhead_to_flash_latency() {
        let (mut f, mut r) = setup();
        let mut out = vec![0u8; BLOCK as usize];
        let t = r.read(&mut f, Nanos(0), 0, 1, &mut out).expect("read");
        let us = t.as_nanos() as f64 / 1e3;
        // Flash ~80 us + two wire legs + verbs + target CPU: 84-95 us.
        assert!((84.0..95.0).contains(&us), "RDMA read {us} us");
        // The overhead over raw flash is microseconds, not noise.
        assert!(us > 83.0);
    }

    #[test]
    fn large_reads_pay_serialization_back() {
        let (mut f, mut r) = setup();
        let mut small = vec![0u8; BLOCK as usize];
        let t1 = r.read(&mut f, Nanos(0), 0, 1, &mut small).expect("read");
        let (mut f2, mut r2) = setup();
        let mut big = vec![0u8; (16 * BLOCK) as usize];
        let t2 = r2.read(&mut f2, Nanos(0), 0, 16, &mut big).expect("read");
        assert!(t2 > t1, "64 KiB must take longer than 4 KiB");
    }
}
