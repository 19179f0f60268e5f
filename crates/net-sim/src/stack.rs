//! A Junction-like poll-mode UDP echo stack.
//!
//! One core runs a run-to-completion loop: poll the NIC completion
//! queue, parse the datagram, touch the RX payload, build the echo
//! response in a TX buffer, submit the TX descriptor, ring the
//! doorbell. The experimental variable is buffer placement:
//!
//! - **Local**: buffers in the stack host's DDR5; loads/stores are
//!   plain and coherent.
//! - **CXL**: buffers in pool shared memory; the stack must
//!   invalidate-before-read on RX (the NIC's DMA write is not snooped
//!   across hosts) and write TX payloads with non-temporal stores so
//!   the NIC's DMA read sees them.

use cxl_fabric::{Fabric, FabricError, HostId, Segment};
use simkit::server::TimelineServer;
use simkit::Nanos;

use pcie_sim::BufRef;

/// Per-packet CPU costs of the stack (kernel-bypass class).
#[derive(Clone, Copy, Debug)]
pub struct StackParams {
    /// Completion-queue poll + descriptor parse.
    pub rx_poll: Nanos,
    /// UDP/IP receive processing.
    pub rx_proto: Nanos,
    /// Application echo logic (excluding payload copy).
    pub app: Nanos,
    /// UDP/IP transmit processing + descriptor build.
    pub tx_proto: Nanos,
    /// Worker cores running the stack (Junction runs a spin-polling
    /// kernel thread per core).
    pub cores: u32,
    /// Echo in place: reply straight out of the RX buffer, touching
    /// only the header line (what a kernel-bypass UDP echo actually
    /// does). When false, the payload is copied into a TX buffer.
    pub zero_copy: bool,
}

impl Default for StackParams {
    fn default() -> Self {
        StackParams {
            rx_poll: Nanos(150),
            rx_proto: Nanos(250),
            app: Nanos(100),
            tx_proto: Nanos(250),
            cores: 8,
            zero_copy: true,
        }
    }
}

/// Where the stack's TX/RX buffers live.
pub enum BufferPool {
    /// Local DRAM on the stack host, at a base address.
    Local {
        /// Base address in the stack host's local DRAM.
        base: u64,
    },
    /// A shared CXL segment.
    Cxl {
        /// The backing shared segment.
        seg: Segment,
    },
}

impl BufferPool {
    /// The `i`-th buffer of `size` bytes as a DMA reference.
    pub fn buf(&self, i: u64, size: u64) -> BufRef {
        match self {
            BufferPool::Local { base } => BufRef::Local(base + i * size),
            BufferPool::Cxl { seg } => BufRef::Pool(seg.base() + i * size),
        }
    }
}

/// The echo server stack: run-to-completion on a small pool of cores.
pub struct EchoStack {
    host: HostId,
    params: StackParams,
    cores: Vec<TimelineServer>,
    pool: BufferPool,
    buf_size: u64,
    n_bufs: u64,
    next_tx: u64,
    /// The copying echo's payload buffer, reused by every packet.
    scratch: Vec<u8>,
}

impl EchoStack {
    /// Creates a stack on `host` using `pool` for I/O buffers. The
    /// buffer region is split into `n_bufs` buffers of `buf_size`; the
    /// first half serves RX, the second half TX.
    pub fn new(
        host: HostId,
        params: StackParams,
        pool: BufferPool,
        buf_size: u64,
        n_bufs: u64,
    ) -> EchoStack {
        assert!(n_bufs >= 2, "need at least one RX and one TX buffer");
        assert!(params.cores >= 1, "need at least one core");
        EchoStack {
            host,
            cores: (0..params.cores).map(|_| TimelineServer::new()).collect(),
            params,
            pool,
            buf_size,
            n_bufs,
            next_tx: 0,
            scratch: Vec::new(),
        }
    }

    /// The `i`-th RX buffer.
    pub fn rx_buf(&self, i: u64) -> BufRef {
        self.pool.buf(i % (self.n_bufs / 2), self.buf_size)
    }

    /// Number of RX buffers.
    pub fn rx_bufs(&self) -> u64 {
        self.n_bufs / 2
    }

    /// Handles one received datagram, run-to-completion:
    /// `rx_done` is when the NIC's DMA write of the RX payload was
    /// visible. Returns `(tx_buf, response_len, ready_time)` — the
    /// caller (the experiment loop) then hands `tx_buf` to the NIC.
    ///
    /// The returned response payload is the echoed request; integrity
    /// is enforced by actually copying the bytes through the fabric.
    pub fn handle(
        &mut self,
        fabric: &mut Fabric,
        rx_done: Nanos,
        rx_buf: BufRef,
        len: u32,
    ) -> Result<(BufRef, u32, Nanos), FabricError> {
        // The least-backlogged core picks the completion up when free.
        // Compute the start time up front so the core can be booked
        // with a single, strictly in-order serve() at the end — cores
        // are the saturating resource, so their FIFO must stay exact.
        let core = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.backlog(rx_done))
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = rx_done + self.cores[core].backlog(rx_done);
        let mut t = start + self.params.rx_poll + self.params.rx_proto;

        let (tx_buf, done) = if self.params.zero_copy {
            // In-place echo: read the header line, rewrite it
            // (addresses swapped), reply straight from the RX buffer.
            let mut hdr = [0u8; 64];
            t = match rx_buf {
                BufRef::Pool(hpa) => {
                    let ti = fabric.invalidate(t, self.host, hpa, 64);
                    fabric.load(ti, self.host, hpa, &mut hdr)?
                }
                BufRef::Local(addr) => fabric.local_load(t, self.host, addr, &mut hdr),
            };
            t += self.params.app;
            t = match rx_buf {
                BufRef::Pool(hpa) => fabric.nt_store(t, self.host, hpa, &hdr)?,
                BufRef::Local(addr) => fabric.local_store(t, self.host, addr, &hdr),
            };
            (rx_buf, t + self.params.tx_proto)
        } else {
            // Copying echo: pull the whole payload, write it into the
            // next TX buffer.
            let payload = &mut self.scratch;
            payload.resize(len as usize, 0);
            t = match rx_buf {
                BufRef::Pool(hpa) => {
                    let ti = fabric.invalidate(t, self.host, hpa, len as u64);
                    fabric.load(ti, self.host, hpa, payload)?
                }
                BufRef::Local(addr) => fabric.local_load(t, self.host, addr, payload),
            };
            t += self.params.app;
            let tx_index = self.n_bufs / 2 + (self.next_tx % (self.n_bufs / 2));
            self.next_tx += 1;
            let tx_buf = self.pool.buf(tx_index, self.buf_size);
            t = match tx_buf {
                BufRef::Pool(hpa) => fabric.nt_store(t, self.host, hpa, payload)?,
                BufRef::Local(addr) => fabric.local_store(t, self.host, addr, payload),
            };
            (tx_buf, t + self.params.tx_proto)
        };

        // Account the whole run on the core's timeline so back-to-back
        // packets queue behind each other. Booked at rx_done (the
        // arrival), which is monotonic per core, so FIFO stays exact;
        // the returned completion equals `done` because `start` already
        // included the backlog.
        let busy = done.saturating_sub(start);
        let booked_done = self.cores[core].serve(rx_done, busy);
        debug_assert_eq!(booked_done, done, "core booking must match computed time");
        Ok((tx_buf, len, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn fabric() -> Fabric {
        Fabric::new(PodConfig::new(2, 2, 2))
    }

    #[test]
    fn echo_copies_rx_payload_to_tx_buffer() {
        let mut f = fabric();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 1 << 16)
            .expect("alloc");
        let base = seg.base();
        let mut stack = EchoStack::new(
            HostId(1),
            StackParams::default(),
            BufferPool::Cxl { seg },
            2048,
            8,
        );
        // Simulate the NIC's DMA write of a request into RX buffer 0.
        let payload = vec![0x3Cu8; 512];
        let rx_done = f
            .dma_write(Nanos(0), HostId(0), base, &payload)
            .expect("dma");
        let (tx_buf, len, done) = stack
            .handle(&mut f, rx_done, BufRef::Pool(base), 512)
            .expect("handle");
        assert_eq!(len, 512);
        assert!(done > rx_done);
        // The NIC (host 0) DMA-reads the TX buffer and must see the echo.
        let mut out = vec![0u8; 512];
        f.dma_read(done, HostId(0), tx_buf.addr(), &mut out)
            .expect("dma read");
        assert_eq!(out, payload);
    }

    #[test]
    fn local_mode_echo_works_on_same_host() {
        let mut f = fabric();
        let mut stack = EchoStack::new(
            HostId(0),
            StackParams::default(),
            BufferPool::Local { base: 0x10_0000 },
            2048,
            8,
        );
        let payload = vec![7u8; 256];
        let rx_done = f.local_store(Nanos(0), HostId(0), 0x10_0000, &payload);
        let (tx_buf, _, done) = stack
            .handle(&mut f, rx_done, BufRef::Local(0x10_0000), 256)
            .expect("handle");
        let mut out = vec![0u8; 256];
        f.local_load(done, HostId(0), tx_buf.addr(), &mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn back_to_back_packets_queue_on_the_core() {
        let mut f = fabric();
        let mut stack = EchoStack::new(
            HostId(0),
            StackParams {
                cores: 1,
                ..StackParams::default()
            },
            BufferPool::Local { base: 0x10_0000 },
            2048,
            16,
        );
        let payload = vec![1u8; 64];
        f.local_store(Nanos(0), HostId(0), 0x10_0000, &payload);
        let (_, _, d1) = stack
            .handle(&mut f, Nanos(0), BufRef::Local(0x10_0000), 64)
            .expect("p1");
        let (_, _, d2) = stack
            .handle(&mut f, Nanos(0), BufRef::Local(0x10_0000), 64)
            .expect("p2");
        // Second packet finishes roughly one service time later.
        assert!(d2 > d1);
        assert!(d2.as_nanos() >= 2 * (d1.as_nanos() / 2));
    }

    #[test]
    fn cxl_handle_is_slower_but_same_order() {
        let mut f = fabric();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 1 << 16)
            .expect("alloc");
        let base = seg.base();
        // Copying mode makes the payload-size-dependent difference
        // visible; zero-copy hides most of it (which is the point).
        let copying = StackParams {
            cores: 1,
            zero_copy: false,
            ..StackParams::default()
        };
        let mut cxl = EchoStack::new(HostId(1), copying, BufferPool::Cxl { seg }, 2048, 8);
        let mut local = EchoStack::new(
            HostId(0),
            copying,
            BufferPool::Local { base: 0x10_0000 },
            2048,
            8,
        );
        let payload = vec![1u8; 1024];
        let rx_cxl = f
            .dma_write(Nanos(0), HostId(0), base, &payload)
            .expect("dma");
        f.local_store(Nanos(0), HostId(0), 0x10_0000, &payload);
        let (_, _, d_cxl) = cxl
            .handle(&mut f, rx_cxl, BufRef::Pool(base), 1024)
            .expect("cxl");
        let (_, _, d_loc) = local
            .handle(&mut f, rx_cxl, BufRef::Local(0x10_0000), 1024)
            .expect("local");
        let cxl_cost = (d_cxl - rx_cxl).as_nanos() as f64;
        let loc_cost = (d_loc - rx_cxl).as_nanos() as f64;
        assert!(cxl_cost > loc_cost, "CXL handling should cost more");
        // But within the same order of magnitude (the paper's point).
        assert!(cxl_cost / loc_cost < 3.0, "ratio {}", cxl_cost / loc_cost);
    }
}
