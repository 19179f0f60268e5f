//! The per-host pooling agent.
//!
//! Every host runs one agent (§4.2). It owns the host's physical PCIe
//! devices, polls shared-memory channels for operations forwarded by
//! remote hosts and for orchestrator commands, executes those operations
//! locally (doorbell + device queues), and reports device failures and
//! load upstream. The agent is single-threaded and poll-mode, like the
//! datapath stacks it mediates for.

use std::collections::{HashMap, HashSet};

use cxl_fabric::{Fabric, HostId};
use pcie_sim::nic::TxFrame;
use pcie_sim::{Accelerator, BufRef, DeviceError, DeviceId, Nic, Ssd};
use shmem::channel::ChannelStats;
use simkit::trace::Track;
use simkit::Nanos;

use crate::poll::{self, Endpoint, PollActor};
use crate::proto::{Cmd, Msg};
use crate::vdev::{DeviceKind, PoolError};

/// Who is on the other end of a link (see [`Endpoint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Peer {
    /// Another host's agent (datapath forwarding).
    Host(HostId),
    /// The pooling orchestrator (control plane).
    Orchestrator,
}

/// A completed forwarded operation, as recorded by the *requesting*
/// agent.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// 0 = success.
    pub status: u8,
    /// Device-reported completion time.
    pub at: Nanos,
}

/// Who issued a command [`Agent::execute`] runs, and so where a posted
/// RX buffer's fill is announced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// This host's own stack (the local fast path). Its CPU rings a TX
    /// doorbell itself and is busy until the MMIO write posts.
    Local,
    /// Forwarded over the agent's link at this index. The agent
    /// replies at once and announces RX fills back over the same link.
    Link(usize),
}

/// An RX completion delivered to the buffer's owner.
#[derive(Clone, Copy, Debug)]
pub struct RxEvent {
    /// Pool address of the filled buffer.
    pub buf: u64,
    /// Frame length.
    pub len: u32,
    /// When the DMA write was visible.
    pub at: Nanos,
}

/// Counters for one agent.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentStats {
    /// Forwarded operations executed for remote hosts.
    pub served: u64,
    /// Operations that hit a failed local device.
    pub failures_seen: u64,
    /// Assignment updates applied.
    pub assigns: u64,
}

/// The per-host pooling agent.
pub struct Agent {
    /// The host this agent runs on.
    pub host: HostId,
    /// Local physical NICs.
    pub nics: HashMap<DeviceId, Nic>,
    /// Local physical SSDs.
    pub ssds: HashMap<DeviceId, Ssd>,
    /// Local physical accelerators.
    pub accels: HashMap<DeviceId, Accelerator>,
    /// Links to every peer, the poll-loop clock and the poll state.
    pub endpoint: Endpoint,
    /// This host's current device bindings, per kind (set by
    /// orchestrator `Assign` messages).
    pub assigned: HashMap<DeviceKind, DeviceId>,
    /// Completions of operations *this host* forwarded, keyed by op id.
    pub completions: HashMap<u64, Completion>,
    /// Forwarded ops this host stopped waiting for ([`Agent::forget`])
    /// whose completion has not arrived yet.
    pub(crate) forgotten: HashSet<u64>,
    /// Frames that left local NICs (consumed by tests / net glue).
    pub out_frames: Vec<(DeviceId, TxFrame)>,
    /// RX completions for buffers owned by this host's stack.
    pub rx_inbox: Vec<RxEvent>,
    /// Per-NIC FIFO of notification routes, aligned with the NIC's
    /// posted-buffer ring.
    rx_routes: HashMap<DeviceId, std::collections::VecDeque<Origin>>,
    /// Failure notices awaiting forwarding to the orchestrator.
    outbox_orch: Vec<Msg>,
    stats: AgentStats,
}

impl Agent {
    /// Creates an agent with no devices or links yet.
    pub fn new(host: HostId) -> Agent {
        Agent {
            host,
            nics: HashMap::new(),
            ssds: HashMap::new(),
            accels: HashMap::new(),
            endpoint: Endpoint::default(),
            assigned: HashMap::new(),
            completions: HashMap::new(),
            forgotten: HashSet::new(),
            out_frames: Vec::new(),
            rx_inbox: Vec::new(),
            rx_routes: HashMap::new(),
            outbox_orch: Vec::new(),
            stats: AgentStats::default(),
        }
    }

    /// The agent's local poll-loop clock.
    pub fn clock(&self) -> Nanos {
        self.endpoint.clock()
    }

    /// Moves the clock forward (e.g. after the host was busy elsewhere).
    pub fn advance_clock(&mut self, to: Nanos) {
        self.endpoint.advance_clock(to);
    }

    /// Control-plane queue occupancy: orchestrator notices and channel
    /// messages waiting to flush plus TX frames awaiting harness
    /// pickup. The metrics plane samples this as `host/queue_depth`.
    pub fn queue_depth(&self) -> usize {
        self.outbox_orch.len() + self.endpoint.queued() + self.out_frames.len()
    }

    /// Aggregated ring statistics across every channel link this agent
    /// holds (mesh peers + orchestrator): total sends, backpressure
    /// events and cumulative stall nanoseconds on the send side, empty
    /// and hit polls on the receive side. The metrics plane samples the
    /// send side as `chan/*` series.
    pub fn channel_stats(&self) -> ChannelStats {
        self.endpoint.channel_stats()
    }

    /// Stops waiting for forwarded op `op` (it timed out): its
    /// completion is dropped, now or when it arrives.
    pub(crate) fn forget(&mut self, op: u64) {
        if self.completions.remove(&op).is_none() {
            self.forgotten.insert(op);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Delivers a frame arriving from the wire at local NIC `dev`:
    /// drives the device's receive path and routes the completion to
    /// the buffer's owner — this host's inbox, or an `RxDone` message
    /// over the channel the buffer was posted from.
    pub fn deliver_frame(
        &mut self,
        fabric: &mut Fabric,
        dev: DeviceId,
        bytes: &[u8],
    ) -> Result<Option<pcie_sim::RxCompletion>, DeviceError> {
        let now = self.clock();
        let nic = self.nics.get_mut(&dev).ok_or(DeviceError::Failed(dev))?;
        let completion = nic.receive(fabric, now, bytes)?;
        let Some(c) = completion else {
            return Ok(None); // Dropped: no buffer consumed, no route.
        };
        let route = self
            .rx_routes
            .get_mut(&dev)
            .and_then(|q| q.pop_front())
            .unwrap_or(Origin::Local);
        let event = RxEvent {
            buf: c.buf.addr(),
            len: c.len,
            at: c.done,
        };
        match route {
            Origin::Local => self.rx_inbox.push(event),
            Origin::Link(i) => {
                let msg = Msg::RxDone {
                    buf: event.buf,
                    len: event.len,
                    at: event.at.as_nanos(),
                };
                self.endpoint.reply(fabric, i, &msg);
            }
        }
        Ok(Some(c))
    }

    /// Executes `cmd` on local device `dev` starting at `at`: the one
    /// place a NIC, SSD or accelerator is driven, for the local fast
    /// path and for forwarded commands alike. A transmit rings the
    /// doorbell (a `dev/doorbell` instant after its MMIO cost) and
    /// queues the frame in [`Agent::out_frames`]; an RX post rings it
    /// too and remembers `from` as the buffer's fill route. A dead or
    /// unknown device counts as a failure and queues a `DevFailed`
    /// notice for the orchestrator. Returns the device-reported
    /// completion time.
    pub fn execute(
        &mut self,
        fabric: &mut Fabric,
        dev: DeviceId,
        cmd: &Cmd,
        at: Nanos,
        from: Origin,
    ) -> Result<Nanos, DeviceError> {
        let result = self.drive(fabric, dev, cmd, at, from);
        if result.is_err() {
            self.stats.failures_seen += 1;
            let clock = self.clock();
            if let Some(tr) = fabric.trace_mut() {
                tr.instant_note(
                    Track::HostCpu(self.host.0),
                    "dev/failed",
                    clock,
                    &format!("{dev:?}"),
                );
            }
            self.outbox_orch.push(Msg::DevFailed {
                dev,
                at: clock.as_nanos(),
            });
        }
        result
    }

    fn drive(
        &mut self,
        fabric: &mut Fabric,
        dev: DeviceId,
        cmd: &Cmd,
        at: Nanos,
        from: Origin,
    ) -> Result<Nanos, DeviceError> {
        let failed = DeviceError::Failed(dev);
        let cpu = Track::HostCpu(self.host.0);
        match *cmd {
            Cmd::Tx { buf, len } => {
                let nic = self.nics.get_mut(&dev).ok_or(failed)?;
                let t = at + nic.doorbell_cost();
                nic.ring_doorbell();
                if let Some(tr) = fabric.trace_mut() {
                    tr.instant(cpu, "dev/doorbell", t);
                }
                let frame = nic.transmit(fabric, t, BufRef::Pool(buf), len, Vec::new())?;
                let done = frame.wire_exit;
                self.out_frames.push((dev, frame));
                if from == Origin::Local {
                    self.advance_clock(t);
                }
                Ok(done)
            }
            Cmd::RxPost { buf, len } => {
                let nic = self.nics.get_mut(&dev).ok_or(failed)?;
                nic.post_rx(BufRef::Pool(buf), len)?;
                let t = at + nic.doorbell_cost();
                self.rx_routes.entry(dev).or_default().push_back(from);
                if let Some(tr) = fabric.trace_mut() {
                    tr.instant(cpu, "dev/doorbell", t);
                }
                Ok(t)
            }
            Cmd::SsdRead { lba, blocks, buf } => {
                let ssd = self.ssds.get_mut(&dev).ok_or(failed)?;
                ssd.read(fabric, at, lba, blocks as u64, BufRef::Pool(buf))
            }
            Cmd::SsdWrite { lba, blocks, buf } => {
                let ssd = self.ssds.get_mut(&dev).ok_or(failed)?;
                ssd.write(fabric, at, lba, blocks as u64, BufRef::Pool(buf))
            }
            Cmd::Accel { inbuf, len, outbuf } => {
                let accel = self.accels.get_mut(&dev).ok_or(failed)?;
                accel.offload(fabric, at, BufRef::Pool(inbuf), len, BufRef::Pool(outbuf))
            }
        }
    }

    /// Sends `msg` to `peer`, charging the agent's clock: 30 ns for a
    /// posted NT store, or until the failed credit check when the ring
    /// is full. A full ring queues the message; the poll loop flushes
    /// it.
    pub fn send_to(&mut self, fabric: &mut Fabric, peer: Peer, msg: &Msg) -> Result<(), PoolError> {
        if let Some(tr) = fabric.trace_mut() {
            tr.instant_note(
                Track::HostCpu(self.host.0),
                "proto/encode",
                self.clock(),
                msg.kind_name(),
            );
        }
        self.endpoint.post(fabric, peer, msg)
    }

    /// Runs the agent's poll loop until its clock reaches `until`,
    /// executing any forwarded operations and orchestrator commands it
    /// receives. Each pass starts by flushing the messages a full ring
    /// left queued and the failure notices for the orchestrator, which
    /// accumulate in an outbox. Provably empty polls are skipped at
    /// their exact idle cost unless exact polling is on (see
    /// `crate::poll`).
    pub fn pump(&mut self, fabric: &mut Fabric, until: Nanos) {
        poll::pump(self, fabric, until);
    }

    fn dispatch(&mut self, fabric: &mut Fabric, link_idx: usize, msg: Msg) {
        let host = self.host.0;
        match msg {
            Msg::Submit { op, dev, cmd } => {
                fabric.trace_push(op, cmd.trace_kind());
                let clock = self.clock();
                if let Some(tr) = fabric.trace_mut() {
                    tr.instant(Track::HostCpu(host), "agent/dispatch", clock);
                }
                let result = self.execute(fabric, dev, &cmd, clock, Origin::Link(link_idx));
                self.complete(fabric, link_idx, op, result);
                fabric.trace_pop();
            }
            Msg::Done { op, status, at } => {
                if let Some(tr) = fabric.trace_mut() {
                    let (_, kind) = tr.ctx();
                    tr.instant_for(
                        Track::HostCpu(host),
                        "op/complete",
                        op,
                        kind,
                        Nanos(at),
                        None,
                    );
                }
                // A forgotten op's completion is dropped; the length
                // test spares every other op the set lookup.
                if self.forgotten.is_empty() || !self.forgotten.remove(&op) {
                    let at = Nanos(at);
                    self.completions.insert(op, Completion { status, at });
                }
            }
            Msg::RxDone { buf, len, at } => {
                self.rx_inbox.push(RxEvent {
                    buf,
                    len,
                    at: Nanos(at),
                });
            }
            Msg::Assign { host, kind, dev } => {
                if host == self.host {
                    if let Some(k) = DeviceKind::from_u8(kind) {
                        self.assigned.insert(k, dev);
                        self.stats.assigns += 1;
                        let clock = self.clock();
                        if let Some(tr) = fabric.trace_mut() {
                            tr.instant_note(
                                Track::HostCpu(self.host.0),
                                "agent/assign",
                                clock,
                                &format!("{k:?} -> {dev:?}"),
                            );
                        }
                    }
                }
            }
            // Failure reports are consumed by the orchestrator, not by
            // agents.
            Msg::DevFailed { .. } => {}
        }
    }

    /// Sends a `Done` back on the link the request arrived on.
    fn complete(
        &mut self,
        fabric: &mut Fabric,
        link_idx: usize,
        op: u64,
        result: Result<Nanos, DeviceError>,
    ) {
        let (status, at) = match result {
            Ok(t) => {
                self.stats.served += 1;
                (0u8, t)
            }
            Err(_) => (1u8, self.clock()),
        };
        let done = Msg::Done {
            op,
            status,
            at: at.as_nanos(),
        };
        self.endpoint.reply(fabric, link_idx, &done);
    }
}

impl PollActor for Agent {
    fn endpoint(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    fn pending(&self) -> bool {
        !self.outbox_orch.is_empty()
    }

    fn flush(&mut self, fabric: &mut Fabric) {
        for msg in std::mem::take(&mut self.outbox_orch) {
            // A full ring queues the notice; one whose ring is on
            // failed pool memory (or that has no orchestrator link)
            // waits in the outbox for the next pass.
            if self.send_to(fabric, Peer::Orchestrator, &msg).is_err() {
                self.outbox_orch.push(msg);
            }
        }
    }

    fn on_message(&mut self, fabric: &mut Fabric, i: usize, data: Vec<u8>) {
        if let Ok(msg) = Msg::decode(&data) {
            self.dispatch(fabric, i, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::Link;
    use cxl_fabric::PodConfig;
    use pcie_sim::NicConfig;
    use shmem::channel::Channel;

    /// Builds two linked agents (host 0 with a NIC, host 1 without).
    fn duo() -> (Fabric, Agent, Agent) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 64).expect("chan");
        let mut a0 = Agent::new(HostId(0));
        let mut a1 = Agent::new(HostId(1));
        a0.endpoint.set_link(
            Peer::Host(HostId(1)),
            Link {
                tx: ch.ab.0,
                rx: ch.ba.1,
            },
        );
        a1.endpoint.set_link(
            Peer::Host(HostId(0)),
            Link {
                tx: ch.ba.0,
                rx: ch.ab.1,
            },
        );
        a0.nics.insert(
            DeviceId(0),
            Nic::new(DeviceId(0), HostId(0), NicConfig::default()),
        );
        (f, a0, a1)
    }

    #[test]
    fn forwarded_tx_executes_and_completes() {
        let (mut f, mut a0, mut a1) = duo();
        // Host 1 stages a payload in a shared buffer.
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let t = f
            .nt_store(Nanos(0), HostId(1), seg.base(), &[9u8; 128])
            .expect("store");
        a1.advance_clock(t);
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 1,
                dev: DeviceId(0),
                cmd: Cmd::Tx {
                    buf: seg.base(),
                    len: 128,
                },
            },
        )
        .expect("send");
        // Agent 0 picks it up and transmits.
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.stats().served, 1);
        assert_eq!(a0.out_frames.len(), 1);
        assert_eq!(a0.out_frames[0].1.bytes, vec![9u8; 128]);
        // Agent 1 receives the completion.
        a1.pump(&mut f, Nanos::from_micros(100));
        let c = a1.completions.get(&1).expect("completion");
        assert_eq!(c.status, 0);
        assert!(c.at > Nanos::ZERO);
    }

    #[test]
    fn failed_device_reports_status_one() {
        let (mut f, mut a0, mut a1) = duo();
        a0.nics.get_mut(&DeviceId(0)).expect("nic").fail();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 7,
                dev: DeviceId(0),
                cmd: Cmd::Tx {
                    buf: seg.base(),
                    len: 64,
                },
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.stats().failures_seen, 1);
        a1.pump(&mut f, Nanos::from_micros(100));
        assert_eq!(a1.completions.get(&7).expect("completion").status, 1);
    }

    #[test]
    fn unknown_device_is_a_failure_not_a_panic() {
        let (mut f, mut a0, mut a1) = duo();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 3,
                dev: DeviceId(99),
                cmd: Cmd::SsdRead {
                    lba: 0,
                    blocks: 1,
                    buf: seg.base(),
                },
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        a1.pump(&mut f, Nanos::from_micros(100));
        assert_eq!(a1.completions.get(&3).expect("completion").status, 1);
    }

    #[test]
    fn assign_updates_binding() {
        let (mut f, mut a0, mut a1) = duo();
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Assign {
                host: HostId(0),
                kind: DeviceKind::Nic.as_u8(),
                dev: DeviceId(5),
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.assigned.get(&DeviceKind::Nic), Some(&DeviceId(5)));
        assert_eq!(a0.stats().assigns, 1);
    }

    #[test]
    fn assign_for_other_host_is_ignored() {
        let (mut f, mut a0, mut a1) = duo();
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Assign {
                host: HostId(3),
                kind: DeviceKind::Nic.as_u8(),
                dev: DeviceId(5),
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert!(a0.assigned.is_empty());
    }

    #[test]
    fn pump_without_links_just_advances_clock() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let mut a = Agent::new(HostId(0));
        a.pump(&mut f, Nanos::from_micros(10));
        assert_eq!(a.clock(), Nanos::from_micros(10));
    }
}
