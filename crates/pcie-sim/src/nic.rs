//! A 100 Gbps-class NIC model (ConnectX-5-like).
//!
//! The model covers what the pooling datapath exercises: TX/RX
//! descriptor queues, doorbell MMIO, DMA of frame payloads from/to
//! buffers in local DRAM or the CXL pool, line-rate serialization, and
//! failure injection. Frames carry real bytes end to end.

use std::collections::VecDeque;

use cxl_fabric::{Fabric, HostId};
use simkit::server::BandwidthPipe;
use simkit::trace::Track;
use simkit::Nanos;

use crate::device::{BufRef, DeviceError, DeviceId, MmioCost};
use crate::dma::DmaEngine;

/// NIC construction parameters.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Line rate in Gbps (100 for the paper's ConnectX-5 setup).
    pub line_gbps: f64,
    /// Device PCIe link bandwidth in GB/s (16 ≈ Gen3 ×16).
    pub pcie_gbps: f64,
    /// RX descriptor ring capacity.
    pub rx_ring: usize,
    /// Fixed NIC pipeline latency per frame (parse/steer/queue).
    pub pipeline: Nanos,
    /// MMIO costs for local register access.
    pub mmio: MmioCost,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            line_gbps: 100.0,
            pcie_gbps: 16.0,
            rx_ring: 1024,
            pipeline: Nanos(300),
            mmio: MmioCost::default(),
        }
    }
}

/// A posted RX buffer awaiting a frame.
#[derive(Clone, Copy, Debug)]
struct RxSlot {
    buf: BufRef,
    len: u32,
}

/// Completion info for a received frame.
#[derive(Clone, Copy, Debug)]
pub struct RxCompletion {
    /// Where the frame was DMA'd.
    pub buf: BufRef,
    /// Frame length in bytes.
    pub len: u32,
    /// Time the DMA write was globally visible (CQE could be raised).
    pub done: Nanos,
}

/// A frame leaving the NIC onto the wire.
#[derive(Clone, Debug)]
pub struct TxFrame {
    /// Payload bytes (as DMA'd from the TX buffer).
    pub bytes: Vec<u8>,
    /// Time the last bit left the NIC.
    pub wire_exit: Nanos,
}

/// Counters for one NIC.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames received (delivered to a buffer).
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped because no RX buffer was posted.
    pub rx_drops: u64,
    /// Doorbell rings observed.
    pub doorbells: u64,
}

/// The NIC device model.
pub struct Nic {
    id: DeviceId,
    config: NicConfig,
    dma: DmaEngine,
    tx_line: BandwidthPipe,
    rx_line: BandwidthPipe,
    rx_ring: VecDeque<RxSlot>,
    up: bool,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC attached to `host`.
    pub fn new(id: DeviceId, host: HostId, config: NicConfig) -> Nic {
        // Line pipes work in GB/s.
        let gbytes = config.line_gbps / 8.0;
        Nic {
            id,
            dma: DmaEngine::new(host, config.pcie_gbps),
            tx_line: BandwidthPipe::new(gbytes),
            rx_line: BandwidthPipe::new(gbytes),
            rx_ring: VecDeque::with_capacity(config.rx_ring),
            config,
            up: true,
            stats: NicStats::default(),
        }
    }

    /// The device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The host this NIC is physically attached to.
    pub fn host(&self) -> HostId {
        self.dma.host()
    }

    /// True if the NIC is operational.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Injects a failure (link down / firmware wedge).
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Repairs the device (swap / reset).
    pub fn restore(&mut self) {
        self.up = true;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Cost of ringing a doorbell from the local host.
    pub fn doorbell_cost(&self) -> Nanos {
        self.config.mmio.write
    }

    /// Rings the TX doorbell (bookkeeping only; the caller then calls
    /// [`Nic::transmit`] for each submitted descriptor).
    pub fn ring_doorbell(&mut self) {
        self.stats.doorbells += 1;
    }

    /// Posts an RX buffer of `len` bytes.
    ///
    /// Returns `QueueFull` if the ring is at capacity.
    pub fn post_rx(&mut self, buf: BufRef, len: u32) -> Result<(), DeviceError> {
        if self.rx_ring.len() >= self.config.rx_ring {
            return Err(DeviceError::QueueFull(self.id));
        }
        self.rx_ring.push_back(RxSlot { buf, len });
        Ok(())
    }

    /// Number of posted RX buffers.
    pub fn rx_posted(&self) -> usize {
        self.rx_ring.len()
    }

    /// Processes one TX descriptor at `now`: DMA-reads `len` bytes from
    /// `buf` into `frame` (resized to `len`; its old contents are
    /// overwritten), pushes the frame through the NIC pipeline and
    /// serializes it at line rate. Returns the frame, whose `bytes` is
    /// `frame`, with its wire-exit time. Passing back a buffer from an
    /// earlier frame keeps a transmit loop allocation-free.
    pub fn transmit(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        buf: BufRef,
        len: u32,
        frame: Vec<u8>,
    ) -> Result<TxFrame, DeviceError> {
        if !self.up {
            return Err(DeviceError::Failed(self.id));
        }
        self.send(fabric, now, now, buf, len, frame)
    }

    /// Descriptor-accurate transmit: DMA-fetches the next descriptor
    /// from `ring`, then DMA-fetches the payload it points at, then
    /// serializes. Returns `None` when the ring has no posted work.
    ///
    /// This is the path that makes *descriptor-ring placement* (local
    /// vs pool) measurable; [`Nic::transmit`] models the same flow with
    /// the descriptor fetch abstracted away.
    pub fn transmit_from_ring(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        ring: &mut crate::desc::DescRing,
    ) -> Result<Option<TxFrame>, DeviceError> {
        if !self.up {
            return Err(DeviceError::Failed(self.id));
        }
        let Some((payload, len, fetched_desc)) = ring.fetch(fabric, now, &mut self.dma)? else {
            return Ok(None);
        };
        self.send(fabric, now, fetched_desc, payload, len, Vec::new())
            .map(Some)
    }

    /// The TX body shared by both transmit paths: DMA-reads the payload
    /// from `fetch_at` on into `bytes`, then stages and serializes it.
    /// The trace span covers the whole descriptor, from `now`.
    fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        fetch_at: Nanos,
        buf: BufRef,
        len: u32,
        mut bytes: Vec<u8>,
    ) -> Result<TxFrame, DeviceError> {
        bytes.resize(len as usize, 0);
        let fetched = self.dma.read(fabric, fetch_at, buf, &mut bytes)?;
        let staged = fetched + self.config.pipeline;
        let wire_exit = self.tx_line.transfer(staged, len as u64);
        self.stats.tx_frames += 1;
        self.stats.tx_bytes += len as u64;
        if let Some(tr) = fabric.trace_mut() {
            tr.span(Track::Dma(self.dma.host().0), "dev/nic_tx", now, wire_exit);
        }
        Ok(TxFrame { bytes, wire_exit })
    }

    /// Accepts a frame arriving from the wire at `now`: deserializes at
    /// line rate, consumes the next posted RX buffer, and DMA-writes the
    /// payload. Returns `None` (and counts a drop) when no buffer is
    /// posted or the frame exceeds the posted buffer.
    pub fn receive(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        frame: &[u8],
    ) -> Result<Option<RxCompletion>, DeviceError> {
        if !self.up {
            return Err(DeviceError::Failed(self.id));
        }
        let landed = self.rx_line.transfer(now, frame.len() as u64) + self.config.pipeline;
        let Some(slot) = self.rx_ring.front().copied() else {
            self.stats.rx_drops += 1;
            return Ok(None);
        };
        if (frame.len() as u32) > slot.len {
            self.stats.rx_drops += 1;
            return Ok(None);
        }
        self.rx_ring.pop_front();
        let done = self.dma.write(fabric, landed, slot.buf, frame)?;
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += frame.len() as u64;
        if let Some(tr) = fabric.trace_mut() {
            tr.span(Track::Dma(self.dma.host().0), "dev/nic_rx", now, done);
        }
        Ok(Some(RxCompletion {
            buf: slot.buf,
            len: frame.len() as u32,
            done,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn setup() -> (Fabric, Nic, u64) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 1 << 20)
            .expect("alloc");
        let nic = Nic::new(DeviceId(0), HostId(0), NicConfig::default());
        (f, nic, seg.base())
    }

    #[test]
    fn tx_carries_pool_buffer_bytes() {
        let (mut f, mut nic, base) = setup();
        // Host 1 (remote!) writes the TX payload into the pool buffer.
        let payload = vec![0xABu8; 1500];
        let t = f
            .nt_store(Nanos(0), HostId(1), base, &payload)
            .expect("store");
        let frame = nic
            .transmit(&mut f, t, BufRef::Pool(base), 1500, Vec::new())
            .expect("tx");
        assert_eq!(frame.bytes, payload, "NIC must read remote host's data");
        assert!(frame.wire_exit > t);
    }

    #[test]
    fn tx_overwrites_a_reused_frame_buffer() {
        let (mut f, mut nic, base) = setup();
        let payload: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let t = f
            .nt_store(Nanos(0), HostId(1), base, &payload)
            .expect("store");
        // A longer buffer left over from an earlier frame.
        let stale = vec![0xEEu8; 4096];
        let frame = nic
            .transmit(&mut f, t, BufRef::Pool(base), 256, stale)
            .expect("tx");
        assert_eq!(frame.bytes, payload);
    }

    #[test]
    fn tx_serializes_at_line_rate() {
        let (mut f, mut nic, base) = setup();
        f.nt_store(Nanos(0), HostId(0), base, &[1u8; 1500])
            .expect("store");
        // Saturate: back-to-back 1500 B frames for ~100 us.
        let mut last = Nanos(0);
        let n = 1000;
        for _ in 0..n {
            let fr = nic
                .transmit(&mut f, Nanos(0), BufRef::Pool(base), 1500, Vec::new())
                .expect("tx");
            last = fr.wire_exit;
        }
        let gbps = (n as f64 * 1500.0 * 8.0) / last.as_nanos() as f64;
        assert!((gbps - 100.0).abs() < 5.0, "TX rate {gbps} Gbps");
    }

    #[test]
    fn rx_lands_in_posted_pool_buffer() {
        let (mut f, mut nic, base) = setup();
        nic.post_rx(BufRef::Pool(base), 2048).expect("post");
        let frame = vec![0x77u8; 1000];
        let c = nic
            .receive(&mut f, Nanos(0), &frame)
            .expect("rx")
            .expect("delivered");
        assert_eq!(c.len, 1000);
        // Remote host 1 can read the payload after invalidating.
        let t = f.invalidate(c.done, HostId(1), base, 1000);
        let mut buf = vec![0u8; 1000];
        f.load(t, HostId(1), base, &mut buf).expect("load");
        assert_eq!(buf, frame);
    }

    #[test]
    fn rx_without_buffer_drops() {
        let (mut f, mut nic, _base) = setup();
        let r = nic.receive(&mut f, Nanos(0), &[0u8; 100]).expect("rx");
        assert!(r.is_none());
        assert_eq!(nic.stats().rx_drops, 1);
    }

    #[test]
    fn oversized_frame_drops_but_keeps_buffer() {
        let (mut f, mut nic, base) = setup();
        nic.post_rx(BufRef::Pool(base), 512).expect("post");
        let r = nic.receive(&mut f, Nanos(0), &vec![0u8; 1024]).expect("rx");
        assert!(r.is_none());
        assert_eq!(nic.rx_posted(), 1, "buffer must not be consumed");
    }

    #[test]
    fn failed_nic_rejects_io() {
        let (mut f, mut nic, base) = setup();
        nic.fail();
        assert!(!nic.is_up());
        let err = nic
            .transmit(&mut f, Nanos(0), BufRef::Pool(base), 64, Vec::new())
            .unwrap_err();
        assert!(matches!(err, DeviceError::Failed(_)));
        nic.restore();
        f.nt_store(Nanos(0), HostId(0), base, &[0u8; 64])
            .expect("store");
        assert!(nic
            .transmit(&mut f, Nanos(1000), BufRef::Pool(base), 64, Vec::new())
            .is_ok());
    }

    #[test]
    fn rx_ring_capacity_enforced() {
        let (mut _f, mut nic, base) = {
            let (f, n, b) = setup();
            (f, n, b)
        };
        for i in 0..1024 {
            nic.post_rx(BufRef::Pool(base + i * 2048), 2048)
                .expect("post");
        }
        let err = nic.post_rx(BufRef::Pool(base), 2048).unwrap_err();
        assert!(matches!(err, DeviceError::QueueFull(_)));
    }

    #[test]
    fn ring_transmit_carries_descriptor_payload() {
        let (mut f, mut nic, base) = setup();
        let payload = vec![0x5Cu8; 700];
        f.nt_store(Nanos(0), HostId(1), base + 4096, &payload)
            .expect("stage");
        let mut ring = crate::desc::DescRing::new(BufRef::Pool(base), 8);
        let t = ring
            .post(
                &mut f,
                Nanos(200),
                HostId(1),
                BufRef::Pool(base + 4096),
                700,
            )
            .expect("post");
        let frame = nic
            .transmit_from_ring(&mut f, t, &mut ring)
            .expect("tx")
            .expect("descriptor present");
        assert_eq!(frame.bytes, payload);
        // Empty ring yields None.
        assert!(nic
            .transmit_from_ring(&mut f, frame.wire_exit, &mut ring)
            .expect("tx")
            .is_none());
    }

    #[test]
    fn ring_placement_changes_tx_latency() {
        let (mut f, mut nic, base) = setup();
        f.nt_store(Nanos(0), HostId(0), base + 4096, &[1u8; 64])
            .expect("stage");
        f.local_store(Nanos(0), HostId(0), 0x9000, &[1u8; 64]);
        // Pool-resident ring.
        let mut pool_ring = crate::desc::DescRing::new(BufRef::Pool(base), 8);
        let t = pool_ring
            .post(&mut f, Nanos(500), HostId(0), BufRef::Pool(base + 4096), 64)
            .expect("post");
        let pool_exit = nic
            .transmit_from_ring(&mut f, t, &mut pool_ring)
            .expect("tx")
            .expect("frame")
            .wire_exit;
        // Local ring on a fresh NIC (fresh pipes).
        let mut nic2 = Nic::new(DeviceId(2), HostId(0), NicConfig::default());
        let mut local_ring = crate::desc::DescRing::new(BufRef::Local(0x8000), 8);
        let t2 = local_ring
            .post(&mut f, Nanos(500), HostId(0), BufRef::Local(0x9000), 64)
            .expect("post");
        let local_exit = nic2
            .transmit_from_ring(&mut f, t2, &mut local_ring)
            .expect("tx")
            .expect("frame")
            .wire_exit;
        assert!(
            pool_exit - t > local_exit - t2,
            "pool ring TX {:?} should cost more than local {:?}",
            pool_exit - t,
            local_exit - t2
        );
    }

    #[test]
    fn local_buffer_tx_works_identically() {
        let (mut f, mut nic, _base) = setup();
        let payload = vec![9u8; 256];
        f.local_store(Nanos(0), HostId(0), 0x5000, &payload);
        let frame = nic
            .transmit(&mut f, Nanos(100), BufRef::Local(0x5000), 256, Vec::new())
            .expect("tx");
        assert_eq!(frame.bytes, payload);
    }
}
