//! Calibrated timing and sizing parameters for the fabric model.
//!
//! Every number here is traceable to the paper or its cited
//! measurements:
//!
//! - Local DDR5 idle load-to-use ≈ 90 ns, CXL ≈ 2.15× that (§3, citing
//!   Sun et al. MICRO '23 and the Leo controller measurement in the CXL
//!   survey).
//! - A CXL-2.0/PCIe-5.0 ×8 link sustains ≈ 30 GB/s — the bandwidth of a
//!   DDR5-4800 channel at a 2:1 read:write ratio (§3).
//! - CPUs interleave at 256 B granularity across CXL links; 64 lanes per
//!   socket gives ≈ 240 GB/s (§3).

use serde::Serialize;
use simkit::Nanos;

/// Cache-line size in bytes; also the message-slot size used by the
/// paper's shared-memory channel (§4.1).
pub const CACHELINE: u64 = 64;

/// Hardware interleave granularity across CXL links (§3).
pub const INTERLEAVE_GRANULE: u64 = 256;

/// PCIe generation of a CXL link; fixes the per-lane usable bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PcieGen {
    /// PCIe 4.0: 16 GT/s, ≈ 1.875 GB/s usable per lane.
    Gen4,
    /// PCIe 5.0: 32 GT/s, ≈ 3.75 GB/s usable per lane.
    Gen5,
}

impl PcieGen {
    /// Usable bandwidth per lane in GB/s (after encoding and protocol
    /// overhead, calibrated so a Gen5 ×8 link lands on the paper's
    /// 30 GB/s figure).
    pub fn lane_gbps(self) -> f64 {
        match self {
            PcieGen::Gen4 => 1.875,
            PcieGen::Gen5 => 3.75,
        }
    }
}

/// A CXL link width (lane count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LinkWidth(pub u8);

impl LinkWidth {
    /// ×4 link.
    pub const X4: LinkWidth = LinkWidth(4);
    /// ×8 link — the paper's per-socket pod link in the Figure 3 setup.
    pub const X8: LinkWidth = LinkWidth(8);
    /// ×16 link — the paper's Figure 4 ping-pong setup.
    pub const X16: LinkWidth = LinkWidth(16);
}

/// All tunable timing/sizing parameters of the fabric model.
#[derive(Clone, Debug, Serialize)]
pub struct FabricParams {
    /// Idle load-to-use latency of local DDR5 (ns).
    pub local_load_ns: u64,
    /// Idle latency of a local DDR5 store becoming globally visible when
    /// flushed/non-temporal (ns). Posted writes retire faster than loads.
    pub local_store_ns: u64,
    /// CPU-side overhead of issuing a CXL request: core → CHA → CXL root
    /// port (ns). Part of the CXL idle latency budget.
    pub cxl_host_overhead_ns: u64,
    /// Propagation + retimer latency of the CXL cable/PHY, one way (ns).
    pub cxl_wire_ns: u64,
    /// MHD controller + pool-DRAM access latency (ns); the device-side
    /// share of the CXL idle latency budget.
    pub cxl_device_ns: u64,
    /// Link generation used for serialization timing.
    pub gen: PcieGen,
    /// Per-host-link width.
    pub width: LinkWidth,
    /// Per-MHD aggregate DRAM bandwidth (GB/s). A pool device has its own
    /// DRAM channels behind the controller.
    pub mhd_dram_gbps: f64,
    /// Host cache-model capacity in lines (per host). Small by design:
    /// only pool-mapped lines are tracked.
    pub host_cache_lines: usize,
}

impl Default for FabricParams {
    fn default() -> Self {
        // Calibration: CXL idle load-to-use should come out at ≈ 2.15×
        // the local 90 ns, i.e. ≈ 194 ns:
        //   host 40 + wire 2×10 + serialization (64 B hdr+data over ×8
        //   Gen5 ≈ 3 ns each way) + device 128 ≈ 194 ns.
        FabricParams {
            local_load_ns: 90,
            local_store_ns: 60,
            cxl_host_overhead_ns: 40,
            cxl_wire_ns: 10,
            cxl_device_ns: 128,
            gen: PcieGen::Gen5,
            width: LinkWidth::X8,
            mhd_dram_gbps: 120.0,
            host_cache_lines: 32_768,
        }
    }
}

impl FabricParams {
    /// Usable bandwidth of one host link in GB/s, per direction.
    pub fn link_gbps(&self) -> f64 {
        self.gen.lane_gbps() * self.width.0 as f64
    }

    /// The analytic idle (unloaded) CXL load-to-use latency implied by
    /// the component budget, for a 64 B line.
    pub fn idle_cxl_load(&self) -> Nanos {
        let ser = simkit::time::transfer_time(CACHELINE, self.link_gbps());
        Nanos(self.cxl_host_overhead_ns)
            + Nanos(self.cxl_wire_ns) * 2
            + ser * 2
            + Nanos(self.cxl_device_ns)
    }

    /// The analytic idle latency for a non-temporal 64 B store to become
    /// visible in pool DRAM (one-way trip; posted, but visibility needs
    /// the data to land in the device).
    pub fn idle_cxl_store(&self) -> Nanos {
        let ser = simkit::time::transfer_time(CACHELINE, self.link_gbps());
        Nanos(self.cxl_host_overhead_ns)
            + Nanos(self.cxl_wire_ns)
            + ser
            + Nanos(self.cxl_device_ns / 2)
    }

    /// Ratio of CXL idle load latency to local DDR5 load latency; the
    /// paper quotes ≈ 2.15× for a Leo-class controller.
    pub fn idle_latency_ratio(&self) -> f64 {
        self.idle_cxl_load().as_nanos() as f64 / self.local_load_ns as f64
    }

    /// Parameters matching the paper's Figure 4 setup: hosts on ×16
    /// links.
    pub fn x16() -> FabricParams {
        FabricParams {
            width: LinkWidth::X16,
            ..FabricParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen5_x8_link_is_30_gbps() {
        let p = FabricParams::default();
        assert!((p.link_gbps() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gen5_x16_link_is_60_gbps() {
        let p = FabricParams::x16();
        assert!((p.link_gbps() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn idle_ratio_matches_paper() {
        // The paper cites 2.15x idle latency on a Leo controller; our
        // component budget should land within 5% of that.
        let p = FabricParams::default();
        let ratio = p.idle_latency_ratio();
        assert!(
            (ratio - 2.15).abs() / 2.15 < 0.05,
            "idle ratio {ratio} too far from 2.15"
        );
    }

    #[test]
    fn store_is_cheaper_than_load() {
        let p = FabricParams::default();
        assert!(p.idle_cxl_store() < p.idle_cxl_load());
    }

    #[test]
    fn interleave_granule_is_256() {
        assert_eq!(INTERLEAVE_GRANULE, 256);
        assert_eq!(CACHELINE, 64);
    }
}
