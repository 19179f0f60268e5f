//! Pod assembly: one simulated rack running the full pooling system.
//!
//! [`PodSim`] owns the CXL fabric, every host's pooling agent (with its
//! physical devices), the full mesh of agent-to-agent shared-memory
//! channels, and the orchestrator with its control channels. Its
//! methods implement the *client side* of the datapath — what the
//! userspace I/O stack on a host does to use a pooled device:
//!
//! 1. write the I/O buffer into shared pool memory (non-temporal,
//!    [`PodSim::stage`]),
//! 2. forward the MMIO command to the device's attach host
//!    ([`PodSim::submit`]),
//! 3. poll for the completion message ([`PodSim::step`]).
//!
//! Every pooled op is one split-phase [`InFlight`]: [`PodSim::start`]
//! runs steps 1 and 2 on the owner's bound device, each
//! [`PodSim::step`] runs one pump round of step 3, and
//! [`PodSim::finish`] steps the op until it is done. The blocking calls
//! (`vnic_send`, `vssd_read`, ...) are `start` plus `finish`.
//!
//! When the device happens to be local, `submit` takes the fast path:
//! the same executor ([`Agent::execute`]) runs the command at once,
//! with no ring in between.

use cxl_fabric::{DomainId, Fabric, HostId, LinkId, MhdId, PodConfig, SegmentId};
use pcie_sim::nic::TxFrame;
use pcie_sim::{Accelerator, BufRef, DeviceId, Nic, NicConfig, Ssd, SsdConfig};
use simkit::metrics::{Labels, MetricId, MetricsConfig, MetricsRecorder};
use simkit::trace::{self, TraceConfig, TraceRecorder, Track};
use simkit::Nanos;

use crate::agent::{Agent, Origin, Peer};
use crate::lifecycle::LifecycleStats;
use crate::orchestrator::{AllocPolicy, Orchestrator};
use crate::poll::{Link, PollActor};
use crate::proto::{Cmd, Msg};
use crate::vdev::{DeviceKind, PoolError};

/// Size of one client I/O buffer slot.
pub const IO_SLOT: u64 = 64 * 1024;

/// Step of the lockstep control-plane pump: `run_control` and each
/// [`PodSim::step`] round advance agents and the orchestrator this much
/// simulated time.
const PUMP_QUANTUM: Nanos = Nanos(2_000);

/// Pod construction parameters.
#[derive(Clone, Debug)]
pub struct PodParams {
    /// Number of hosts.
    pub hosts: u16,
    /// Number of MHDs in the CXL pool.
    pub mhds: u16,
    /// Failure domains the MHDs are spread over (round-robin). `0`
    /// (the default) means one domain per MHD; otherwise the value
    /// must evenly divide `mhds`.
    pub domains: u16,
    /// Path redundancy λ.
    pub lambda: u16,
    /// Hosts that get a NIC (one per entry; repeats allowed).
    pub nic_hosts: Vec<u16>,
    /// Hosts that get an SSD.
    pub ssd_hosts: Vec<u16>,
    /// Hosts that get an accelerator.
    pub accel_hosts: Vec<u16>,
    /// Ring capacity (slots) of each control channel.
    pub ring_slots: u64,
    /// I/O buffer slots per host.
    pub io_slots: u64,
    /// Allocation policy.
    pub policy: AllocPolicy,
    /// Execute every notional ring poll for real, as the original
    /// busy-polling model did, instead of skipping the provably empty
    /// ones (see `crate::poll`). Off by default; the exact poller is
    /// kept as the test oracle for the wake-driven one.
    pub exact_polling: bool,
}

impl PodParams {
    /// A small pod: `hosts` hosts, NICs on the first `nics` hosts,
    /// defaults elsewhere.
    pub fn new(hosts: u16, nics: u16) -> PodParams {
        PodParams {
            hosts,
            mhds: 2,
            domains: 0,
            lambda: 2,
            nic_hosts: (0..nics.min(hosts)).collect(),
            ssd_hosts: Vec::new(),
            accel_hosts: Vec::new(),
            ring_slots: 64,
            io_slots: 16,
            policy: AllocPolicy::LocalFirst { threshold: 80 },
            exact_polling: false,
        }
    }
}

/// What [`PodSim::start`] runs on the owner's bound device.
#[derive(Clone, Debug)]
pub enum Req<'a> {
    /// Stage the payload and transmit it on the NIC.
    Send(&'a [u8]),
    /// Post one RX buffer on the NIC.
    PostRx,
    /// Post one RX buffer, deliver this frame from the wire once the
    /// post completes, then poll for the owner's RX completion.
    Recv(Vec<u8>),
    /// Read blocks from the SSD into a fresh I/O buffer.
    SsdRead {
        /// First block.
        lba: u64,
        /// Block count.
        blocks: u32,
    },
    /// Write blocks, already staged in pool memory, to the SSD.
    SsdWrite {
        /// First block.
        lba: u64,
        /// Block count.
        blocks: u32,
        /// Pool address of the staged blocks.
        buf: u64,
    },
    /// Stage the input and run an offload job on the accelerator; the
    /// output lands in a fresh I/O buffer.
    Accel(&'a [u8]),
}

/// One pooled operation on its way: started by [`PodSim::start`] or
/// [`PodSim::submit`], advanced by [`PodSim::step`], waited for by
/// [`PodSim::finish`].
#[derive(Debug)]
#[must_use = "an op completes only when it is stepped"]
pub struct InFlight {
    owner: HostId,
    /// Matches the completion and names a timeout; 0 for a local RX
    /// post or a bare RX poll, which have no completion to match.
    op: u64,
    /// See [`OpResult::buf`].
    buf: u64,
    /// Past this pod time the op fails with `Timeout`.
    deadline: Nanos,
    stage: Stage,
    /// A NIC receive's NIC and frame, delivered once the post completes.
    frame: Option<(DeviceId, Vec<u8>)>,
    /// The owner's root trace span, open until the op (for a NIC
    /// receive, its post) completes.
    root: Option<RootSpan>,
}

impl InFlight {
    /// Sets the pod time past which the op fails with `Timeout` (a
    /// [`PodSim::submit`]ted op has none until given one).
    pub fn with_deadline(mut self, deadline: Nanos) -> InFlight {
        self.deadline = deadline;
        self
    }

    fn new(owner: HostId, op: u64, buf: u64, stage: Stage) -> InFlight {
        InFlight {
            owner,
            op,
            buf,
            deadline: Nanos::MAX,
            stage,
            frame: None,
            root: None,
        }
    }

    fn result(&self, at: Nanos, local: bool, len: u32) -> OpResult {
        OpResult {
            op: self.op,
            at,
            local,
            buf: self.buf,
            len,
        }
    }
}

#[derive(Debug)]
enum Stage {
    /// Done on the local fast path; the device completes at `at`.
    Local { at: Nanos },
    /// Forwarded to `attach`; waits for the completion message.
    Forwarded { attach: HostId, dev: DeviceId },
    /// Waits for an event in the owner's RX inbox. The event counts as
    /// local when its post was (a local post takes no op id).
    Polling,
    /// Finished with this outcome.
    Done(Result<OpResult, PoolError>),
}

/// What a root trace span records at [`PodSim::start`].
#[derive(Clone, Copy, Debug)]
struct RootSpan {
    kind: u8,
    name: &'static str,
    start: Nanos,
    /// The span runs to the device's completion when that is later
    /// than the owner's clock (not for an RX post).
    to_completion: bool,
}

/// Outcome of a completed pooled operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpResult {
    /// Operation id (0 for a local RX post or a bare RX poll).
    pub op: u64,
    /// Device-reported completion time.
    pub at: Nanos,
    /// True if the fast (local, non-forwarded) path was used.
    pub local: bool,
    /// The op's I/O buffer: the transmitted, posted, read or written
    /// buffer, the accelerator's output, or the buffer a received
    /// frame filled.
    pub buf: u64,
    /// Frame length of a received frame (0 for other ops).
    pub len: u32,
}

/// The full simulated pod.
pub struct PodSim {
    /// The CXL fabric.
    pub fabric: Fabric,
    /// Per-host agents (index = host id).
    pub agents: Vec<Agent>,
    /// The orchestrator.
    pub orch: Orchestrator,
    io_base: Vec<u64>,
    io_slots: u64,
    next_io: Vec<u64>,
    next_op: u64,
    ring_slots: u64,
    /// Every control channel, in allocation order: the agent mesh,
    /// then the orchestrator's links.
    channels: Vec<ControlChannel>,
    /// Per-host I/O segment ids.
    io_segs: Vec<SegmentId>,
    /// Opt-in metrics registry + sampler (see `simkit::metrics`),
    /// `None` until [`PodSim::enable_metrics_config`]; boxed so the
    /// disabled fast path pays one pointer.
    metrics: Option<Box<MetricsRecorder>>,
    /// The pod-level metric series, each with what the sampler reads
    /// into it every tick, in registration order (empty until
    /// [`PodSim::enable_metrics_config`]).
    metric_ids: Vec<(MetricId, Reading)>,
    /// Tenant-lifecycle counters and the pod-wide blackout histogram
    /// (see [`crate::lifecycle`]); always on, metrics-independent.
    pub lifecycle: LifecycleStats,
}

/// One control channel of the pod: the two rings between end `a` (an
/// agent, or the orchestrator) and agent `b`.
#[derive(Clone, Copy, Debug)]
struct ControlChannel {
    a: Peer,
    b: HostId,
    /// Backing segments of the `a → b` and `b → a` rings.
    segs: (SegmentId, SegmentId),
}

/// What one pod-level metric series reads at each sampling tick. The
/// pod holds it beside the series' id, so the sampling pass is one
/// walk with no name lookups.
#[derive(Clone, Copy, Debug)]
enum Reading {
    /// `pool/free_bytes`.
    PoolFree,
    /// `audit/violations` (0 while auditing is off).
    AuditViolations,
    /// `orch/migrations`.
    OrchMigrations,
    /// `orch/failovers`.
    OrchFailovers,
    /// `lifecycle/blackout_ns`: migration windows recorded in
    /// [`LifecycleStats::blackout`].
    Blackouts,
    /// `lifecycle/in_flight_migrations` (gauge).
    InFlightMigrations,
    /// `host/served_ops` of one host.
    Served(usize),
    /// `host/queue_depth` of one host.
    QueueDepth(usize),
    /// `chan/stall_ns` of one host.
    ChanStall(usize),
    /// `chan/blocked` of one host.
    ChanBlocked(usize),
    /// `domain/free_bytes`.
    DomainFree(DomainId),
    /// `domain/capacity_bytes`.
    DomainCapacity(DomainId),
    /// `mhd/free_bytes`.
    MhdFree(MhdId),
    /// `link/uplink_util` over one sampling interval.
    LinkUtil(LinkId),
}

impl PodSim {
    /// Turns on fabric coherence auditing (see `cxl_fabric::audit`) in
    /// analysis `mode`: every subsequent pool access by agents,
    /// devices, and the orchestrator is checked for stale reads, lost
    /// writes, write-write conflicts, and torn reads;
    /// `AuditMode::VectorClock` adds the happens-before race detector.
    pub fn enable_audit_mode(&mut self, mode: cxl_fabric::AuditMode) {
        self.fabric.enable_audit(cxl_fabric::AuditConfig {
            mode,
            ..cxl_fabric::AuditConfig::default()
        });
    }

    /// Settles in-flight writes and returns the final audit report
    /// (None when auditing was never enabled).
    pub fn audit_finalize(&mut self) -> Option<cxl_fabric::AuditReport> {
        let now = self.time();
        self.fabric.audit_finalize(now)
    }

    /// Race findings with per-line clock snapshots (vector-clock audit
    /// mode; None when auditing was never enabled).
    pub fn race_report(&self) -> Option<cxl_fabric::RaceReport> {
        self.fabric.race_report()
    }

    /// Turns on the pod-wide flight recorder (see `simkit::trace`) with
    /// `config` (capacity, per-access fabric spans): every subsequent
    /// client operation leaves a causal span chain — payload staging,
    /// protocol encode, channel send/poll, agent dispatch, doorbell,
    /// device + DMA execution, completion delivery — exportable with
    /// [`PodSim::export_trace`].
    pub fn enable_trace_config(&mut self, config: TraceConfig) {
        self.fabric.enable_trace(config);
    }

    /// The flight recorder, if enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.fabric.trace()
    }

    /// Exports the recording as Chrome/Perfetto trace-event JSON
    /// (None when tracing was never enabled). When the metrics plane
    /// is also on, its sampled timelines are merged in as counter
    /// tracks (`"ph":"C"`) so gauges render alongside the spans.
    pub fn export_trace(&self) -> Option<String> {
        let counters = self
            .metrics
            .as_deref()
            .map(|m| m.counter_track_events())
            .unwrap_or_default();
        self.fabric
            .trace()
            .map(|t| t.export_chrome_json_with(&counters))
    }

    /// Turns on the pod-wide metrics plane (see `simkit::metrics`) with
    /// `config` (interval, sample-ring capacity): a simulated-time
    /// sampler records per-host CPU/queue occupancy, per-domain and
    /// per-MHD capacity, per-link bandwidth utilisation, audit
    /// violation counts, orchestrator events and migration blackouts at
    /// a fixed interval. Sampling is observation-only: it never
    /// advances any simulated clock, so metrics-on runs stay
    /// bit-identical in simulated time.
    pub fn enable_metrics_config(&mut self, config: MetricsConfig) {
        self.metrics = Some(Box::new(MetricsRecorder::new(config)));
        self.register_pod_metrics();
    }

    /// The metrics recorder, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRecorder> {
        self.metrics.as_deref()
    }

    /// Mutable metrics recorder, if enabled. Workload drivers use
    /// this to register their own (e.g. per-tenant) series alongside
    /// the pod's.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRecorder> {
        self.metrics.as_deref_mut()
    }

    /// Schema'd CSV dump of every sampled point, sorted by metric
    /// registration with time ascending within a series (None when
    /// metrics were never enabled).
    pub fn export_metrics_csv(&self) -> Option<String> {
        self.metrics.as_deref().map(|m| m.export_csv())
    }

    /// Schema'd JSON dump (`cxl-pool-metrics/v1`) of every series
    /// (None when metrics were never enabled).
    pub fn export_metrics_json(&self) -> Option<String> {
        self.metrics.as_deref().map(|m| m.export_json())
    }

    /// Registers the pod-level metric catalog in a fixed, deterministic
    /// order: pool, audit, orchestrator, lifecycle, hosts, domains,
    /// MHDs, links. CSV rows follow it.
    fn register_pod_metrics(&mut self) {
        let Some(rec) = self.metrics.as_deref_mut() else {
            return;
        };
        let topo = self.fabric.topology();
        let domain_of = |m: MhdId| topo.domain_of(m).0;
        let none = Labels::NONE;
        let mut ids = vec![
            (rec.gauge("pool/free_bytes", none), Reading::PoolFree),
            (
                rec.counter("audit/violations", none),
                Reading::AuditViolations,
            ),
            (
                rec.counter("orch/migrations", none),
                Reading::OrchMigrations,
            ),
            (rec.counter("orch/failovers", none), Reading::OrchFailovers),
            (
                rec.counter("lifecycle/blackout_ns", none),
                Reading::Blackouts,
            ),
            (
                rec.gauge("lifecycle/in_flight_migrations", none),
                Reading::InFlightMigrations,
            ),
        ];
        for h in 0..self.agents.len() {
            let labels = Labels::host(h as u16);
            ids.push((rec.counter("host/served_ops", labels), Reading::Served(h)));
            ids.push((
                rec.gauge("host/queue_depth", labels),
                Reading::QueueDepth(h),
            ));
            ids.push((rec.counter("chan/stall_ns", labels), Reading::ChanStall(h)));
            ids.push((rec.counter("chan/blocked", labels), Reading::ChanBlocked(h)));
        }
        for d in (0..topo.domains()).map(DomainId) {
            let labels = Labels::domain(d.0);
            ids.push((
                rec.gauge("domain/free_bytes", labels),
                Reading::DomainFree(d),
            ));
            let capacity = rec.gauge("domain/capacity_bytes", labels);
            ids.push((capacity, Reading::DomainCapacity(d)));
        }
        for m in (0..topo.mhds()).map(MhdId) {
            let labels = Labels::domain(domain_of(m)).with_mhd(m.0);
            ids.push((rec.gauge("mhd/free_bytes", labels), Reading::MhdFree(m)));
        }
        for l in topo.links() {
            let labels = Labels::host(l.host.0)
                .with_domain(domain_of(l.mhd))
                .with_mhd(l.mhd.0);
            ids.push((
                rec.gauge("link/uplink_util", labels),
                Reading::LinkUtil(l.id),
            ));
        }
        self.metric_ids = ids;
    }

    /// Refreshes every pod-level gauge and records one sample row per
    /// metric. Called from the pump loops after each quantum; a cheap
    /// no-op (one comparison) unless the sampling tick is due.
    fn sample_metrics(&mut self, now: Nanos) {
        let due = self.metrics.as_deref().is_some_and(|m| m.tick_due(now));
        if !due {
            return;
        }
        // The recorder leaves `self` for the tick, so each reading is
        // written as it is taken.
        let Some(mut rec) = self.metrics.take() else {
            return;
        };
        let horizon = rec.config().interval;
        for &(id, reading) in &self.metric_ids {
            rec.gauge_set(id, self.read_metric(reading, horizon));
        }
        rec.sample(now);
        self.metrics = Some(rec);
    }

    /// The current value of one pod-level series; link utilization is
    /// taken over the last `horizon`.
    fn read_metric(&self, reading: Reading, horizon: Nanos) -> f64 {
        let f = &self.fabric;
        let chan = |h: usize| self.agents[h].channel_stats();
        let count = match reading {
            Reading::LinkUtil(l) => return f.uplink_utilization(l, horizon),
            Reading::PoolFree => f.free_capacity(),
            Reading::AuditViolations => f.audit_report().map_or(0, |r| r.counts.total()),
            Reading::OrchMigrations => self.orch.migrations,
            Reading::OrchFailovers => self.orch.failover_log.len() as u64,
            Reading::Blackouts => self.lifecycle.blackout.count(),
            Reading::InFlightMigrations => self.lifecycle.in_flight,
            Reading::Served(h) => self.agents[h].stats().served,
            Reading::QueueDepth(h) => self.agents[h].queue_depth() as u64,
            Reading::ChanStall(h) => chan(h).stall_ns,
            Reading::ChanBlocked(h) => chan(h).blocked_events,
            Reading::DomainFree(d) => f.domain_free(d),
            Reading::DomainCapacity(d) => f.domain_capacity(d),
            Reading::MhdFree(m) => f.mhd_free(m),
        };
        count as f64
    }

    /// Builds and wires the whole pod, performing initial device
    /// allocation for every host and device kind present.
    pub fn new(params: PodParams) -> PodSim {
        let mut config = PodConfig::new(params.hosts, params.mhds, params.lambda);
        if params.domains != 0 {
            config = config.with_domains(params.domains);
        }
        let fabric = Fabric::new(config);
        let hosts = params.hosts;
        let all_hosts: Vec<HostId> = (0..hosts).map(HostId).collect();
        let mut agents: Vec<Agent> = all_hosts.iter().map(|&h| Agent::new(h)).collect();
        for a in &mut agents {
            a.endpoint.exact = params.exact_polling;
        }
        // The orchestrator runs on host 0.
        let mut orch = Orchestrator::new(HostId(0), params.policy);
        orch.endpoint.exact = params.exact_polling;
        let mut pod = PodSim {
            fabric,
            agents,
            orch,
            io_base: Vec::with_capacity(hosts as usize),
            io_slots: params.io_slots,
            next_io: vec![0; hosts as usize],
            next_op: 1,
            ring_slots: params.ring_slots,
            channels: Vec::new(),
            io_segs: Vec::with_capacity(hosts as usize),
            metrics: None,
            metric_ids: Vec::new(),
            lifecycle: LifecycleStats::default(),
        };

        // Control channels: the agent-to-agent mesh, then the
        // orchestrator's link to every agent.
        let mesh = (0..hosts)
            .flat_map(|a| ((a + 1)..hosts).map(move |b| (Peer::Host(HostId(a)), HostId(b))));
        let orch_links = all_hosts.iter().map(|&h| (Peer::Orchestrator, h));
        for (a, b) in mesh.chain(orch_links) {
            let segs = pod.open_channel(a, b);
            pod.channels.push(ControlChannel { a, b, segs });
        }

        // Physical devices.
        let mut next_dev = 0u32;
        for &h in &params.nic_hosts {
            let id = DeviceId(next_dev);
            next_dev += 1;
            pod.agents[h as usize]
                .nics
                .insert(id, Nic::new(id, HostId(h), NicConfig::default()));
            pod.orch.register(id, DeviceKind::Nic, HostId(h));
        }
        for &h in &params.ssd_hosts {
            let id = DeviceId(next_dev);
            next_dev += 1;
            pod.agents[h as usize]
                .ssds
                .insert(id, Ssd::new(id, HostId(h), SsdConfig::default()));
            pod.orch.register(id, DeviceKind::Ssd, HostId(h));
        }
        for &h in &params.accel_hosts {
            let id = DeviceId(next_dev);
            next_dev += 1;
            pod.agents[h as usize].accels.insert(
                id,
                Accelerator::new(id, HostId(h), pcie_sim::accel::AccelConfig::default()),
            );
            pod.orch.register(id, DeviceKind::Accel, HostId(h));
        }

        // Per-host I/O buffer segments, shared pod-wide so any device's
        // attach host can DMA them.
        for _ in 0..hosts {
            let seg = pod
                .fabric
                .alloc_shared(&all_hosts, params.io_slots * IO_SLOT)
                .expect("pod pool holds I/O buffers");
            pod.io_base.push(seg.base());
            pod.io_segs.push(seg.id());
        }

        // Initial allocation: give every host a binding for each kind
        // that exists in the pod, then let the Assign messages land.
        let kinds: Vec<DeviceKind> = [
            (!params.nic_hosts.is_empty()).then_some(DeviceKind::Nic),
            (!params.ssd_hosts.is_empty()).then_some(DeviceKind::Ssd),
            (!params.accel_hosts.is_empty()).then_some(DeviceKind::Accel),
        ]
        .into_iter()
        .flatten()
        .collect();
        for h in 0..hosts {
            for &k in &kinds {
                let _ = pod.orch.allocate(&mut pod.fabric, HostId(h), k);
            }
        }
        pod.run_control(Nanos::from_micros(200));
        pod
    }

    /// The latest clock across agents and orchestrator — "now" for the
    /// pod as a whole.
    pub fn time(&self) -> Nanos {
        let agents = self
            .agents
            .iter()
            .map(|a| a.clock())
            .max()
            .unwrap_or(Nanos::ZERO);
        agents.max(self.orch.endpoint.clock())
    }

    /// Ring statistics summed over every agent and the orchestrator:
    /// channel sends and stalls, and empty versus hit ring polls.
    pub fn channel_stats(&self) -> shmem::channel::ChannelStats {
        let mut total = self.orch.endpoint.channel_stats();
        for a in &self.agents {
            total += a.channel_stats();
        }
        total
    }

    /// Where a device is physically attached (the orchestrator's
    /// registry, which never drops a device).
    pub fn attach_of(&self, dev: DeviceId) -> Option<HostId> {
        self.orch.device(dev).map(|d| d.attach)
    }

    /// Device kinds with at least one registered device in the pod
    /// (load generators validate tenant mixes against this).
    pub fn kinds_available(&self) -> Vec<DeviceKind> {
        [DeviceKind::Nic, DeviceKind::Ssd, DeviceKind::Accel]
            .into_iter()
            .filter(|&k| !self.orch.devices_of(k).is_empty())
            .collect()
    }

    /// Feeds a host-load observation (0-100) into the orchestrator.
    /// Load generators use this to close the control loop: the
    /// orchestrator's balance pass migrates the heaviest *reported*
    /// user off a hot device.
    pub fn report_host_load(&mut self, host: HostId, load: u8) {
        self.orch.set_host_load(host, load);
    }

    /// One orchestrator load-balancing pass (see
    /// [`Orchestrator::balance`]); returns migrations performed.
    pub fn rebalance(&mut self, spread_pct: u8) -> u64 {
        self.orch.balance(&mut self.fabric, spread_pct)
    }

    /// `host`'s current binding for `kind` (as known by its agent).
    pub fn binding(&self, host: HostId, kind: DeviceKind) -> Option<DeviceId> {
        self.agents[host.0 as usize].assigned.get(&kind).copied()
    }

    /// Reserves a fresh operation id (for modules that label their own
    /// work with one, like tenant migration).
    pub fn take_op_id(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    /// Records one migration blackout window — the single accounting
    /// point shared by connection migration and whole-tenant lifecycle
    /// migration: the pod-wide blackout histogram (which the
    /// `lifecycle/blackout_ns` metric samples) and a `lifecycle/migrate`
    /// span on the orchestrator host's CPU track (when tracing).
    /// Observation-only: no simulated clock moves.
    pub(crate) fn record_migration_window(
        &mut self,
        op: u64,
        quiesced_at: Nanos,
        resumed_at: Nanos,
    ) {
        let blackout = resumed_at.saturating_sub(quiesced_at);
        self.lifecycle.blackout.record_nanos(blackout);
        let orch_host = self.orch.host.0;
        if let Some(tr) = self.fabric.trace_mut() {
            tr.span_for(
                Track::HostCpu(orch_host),
                "lifecycle/migrate",
                op,
                trace::KIND_NONE,
                quiesced_at,
                resumed_at,
            );
        }
    }

    /// Grabs the next I/O buffer slot for `host`.
    pub fn io_buf(&mut self, host: HostId) -> u64 {
        let h = host.0 as usize;
        let slot = self.next_io[h] % self.io_slots;
        self.next_io[h] += 1;
        self.io_base[h] + slot * IO_SLOT
    }

    /// Stages `payload` in `host`'s next I/O buffer with a
    /// non-temporal store and holds the host's clock until the store
    /// has landed, so nothing submitted next can overtake it. Returns
    /// the buffer's pool address.
    pub fn stage(&mut self, host: HostId, payload: &[u8]) -> Result<u64, PoolError> {
        let buf = self.io_buf(host);
        let agent = &mut self.agents[host.0 as usize];
        let staged = self.fabric.nt_store(agent.clock(), host, buf, payload)?;
        agent.advance_clock(staged);
        Ok(buf)
    }

    /// `owner`'s current binding for `kind`, or `NotAssigned`.
    fn bound(&self, owner: HostId, kind: DeviceKind) -> Result<DeviceId, PoolError> {
        self.binding(owner, kind)
            .ok_or(PoolError::NotAssigned(kind))
    }

    /// Runs every agent and the orchestrator forward for `span` of
    /// simulated time (from the pod's current time).
    ///
    /// Agents are pumped in small interleaved quanta so their clocks
    /// advance together: the fabric's FIFO pipe timelines assume
    /// roughly monotonic arrivals, and letting one actor simulate far
    /// ahead would make everyone else queue behind its bookings.
    ///
    /// A quiet pod — no ring message in flight, no failure notice
    /// queued, no metrics sampling — skips the quanta: no poll in the
    /// span can find anything, so each actor lands on its first pass
    /// boundary at or after the end of the span either way.
    pub fn run_control(&mut self, span: Nanos) {
        let until = self.time() + span;
        if self.is_quiet() {
            for a in &mut self.agents {
                a.pump(&mut self.fabric, until);
            }
            self.orch.pump(&mut self.fabric, until);
            return;
        }
        let mut step = self
            .agents
            .iter()
            .map(|a| a.clock())
            .min()
            .unwrap_or(Nanos::ZERO)
            .min(self.orch.endpoint.clock());
        while step < until {
            step = (step + PUMP_QUANTUM).min(until);
            for a in &mut self.agents {
                a.pump(&mut self.fabric, step);
            }
            self.orch.pump(&mut self.fabric, step);
            self.sample_metrics(step);
        }
    }

    /// True when no actor can receive or send anything until someone
    /// submits work: the wake-driven pollers have nothing in flight,
    /// no message waits for ring credits, no notice waits in an
    /// outbox, and no sampler needs the quantum ticks.
    fn is_quiet(&self) -> bool {
        // Every endpoint carries the pod's exact-polling flag.
        !self.orch.endpoint.exact
            && !self.fabric.wakes_pending()
            && self.metrics.is_none()
            && self.orch.endpoint.queued() == 0
            && self
                .agents
                .iter()
                .all(|a| a.endpoint.queued() == 0 && !a.pending())
    }

    /// Injects a failure of device `dev`, of any kind (an unknown id is
    /// a no-op).
    pub fn fail_device(&mut self, dev: DeviceId) {
        self.set_device_up(dev, false);
    }

    /// Repairs device `dev`, of any kind, and tells the orchestrator
    /// (an unknown id is a no-op).
    pub fn repair_device(&mut self, dev: DeviceId) {
        self.set_device_up(dev, true);
        self.orch.on_repair(dev);
    }

    /// Fails or restores `dev` on the agent it attaches to.
    fn set_device_up(&mut self, dev: DeviceId, up: bool) {
        let Some(HostId(h)) = self.attach_of(dev) else {
            return;
        };
        let a = &mut self.agents[h as usize];
        if let Some(nic) = a.nics.get_mut(&dev) {
            if up {
                nic.restore()
            } else {
                nic.fail()
            }
        } else if let Some(ssd) = a.ssds.get_mut(&dev) {
            if up {
                ssd.restore()
            } else {
                ssd.fail()
            }
        } else if let Some(accel) = a.accels.get_mut(&dev) {
            if up {
                accel.restore()
            } else {
                accel.fail()
            }
        }
    }

    /// Rebuilds every control channel and I/O segment that was backed
    /// by a failed MHD (§5, "highly-available CXL pods"): new rings are
    /// allocated on surviving devices and both endpoints are swapped.
    /// Protocol state on the dead rings is abandoned — outstanding
    /// forwarded operations time out and are retried by callers, which
    /// is exactly the software-failover story the paper argues is
    /// tractable. Returns the number of channels rebuilt.
    ///
    /// Call after `fabric.topology_mut().fail_mhd(...)`.
    pub fn recover_pool_failure(&mut self, mhd: cxl_fabric::MhdId) -> usize {
        let uses_dead = |fabric: &cxl_fabric::Fabric, id: cxl_fabric::SegmentId| {
            fabric
                .segment(id)
                .map(|s| s.ways().contains(&mhd))
                .unwrap_or(false)
        };
        let mut rebuilt = 0;
        for i in 0..self.channels.len() {
            let ControlChannel { a, b, segs } = self.channels[i];
            if !uses_dead(&self.fabric, segs.0) && !uses_dead(&self.fabric, segs.1) {
                continue;
            }
            let _ = self.fabric.free_segment(segs.0);
            let _ = self.fabric.free_segment(segs.1);
            self.channels[i].segs = self.open_channel(a, b);
            rebuilt += 1;
        }

        // I/O buffer segments: interleaved, so any that touch the dead
        // MHD move wholesale (in-flight buffer contents are lost — pool
        // memory is volatile; the datapath retries).
        let all_hosts: Vec<HostId> = (0..self.agents.len() as u16).map(HostId).collect();
        for h in 0..self.io_segs.len() {
            if !uses_dead(&self.fabric, self.io_segs[h]) {
                continue;
            }
            let _ = self.fabric.free_segment(self.io_segs[h]);
            let seg = self
                .fabric
                .alloc_shared(&all_hosts, self.io_slots * IO_SLOT)
                .expect("survivors hold replacement I/O buffers");
            self.io_base[h] = seg.base();
            self.io_segs[h] = seg.id();
            self.next_io[h] = 0;
            rebuilt += 1;
        }
        rebuilt
    }

    /// Allocates the channel between end `a` and agent `b` on a single
    /// MHD each way, so a pool-device failure breaks some channels, not
    /// all, and hands each end its link (replacing any old one, whose
    /// queued messages go with it). Returns the backing segments.
    fn open_channel(&mut self, a: Peer, b: HostId) -> (SegmentId, SegmentId) {
        let a_host = match a {
            Peer::Host(h) => h,
            Peer::Orchestrator => self.orch.host,
        };
        let ch = shmem::channel::Channel::allocate(&mut self.fabric, a_host, b, self.ring_slots)
            .expect("pod pool holds control rings");
        let a_end = Link {
            tx: ch.ab.0,
            rx: ch.ba.1,
        };
        let b_end = Link {
            tx: ch.ba.0,
            rx: ch.ab.1,
        };
        let a_endpoint = match a {
            Peer::Host(h) => &mut self.agents[h.0 as usize].endpoint,
            Peer::Orchestrator => &mut self.orch.endpoint,
        };
        a_endpoint.set_link(Peer::Host(b), a_end);
        self.agents[b.0 as usize].endpoint.set_link(a, b_end);
        ch.segments
    }

    /// Whole-domain outage recovery (§5, multi-MHD failure domains):
    /// rebuilds every control channel and I/O segment backed by *any*
    /// MHD of the failed domain, exactly as
    /// [`PodSim::recover_pool_failure`] does for a single device.
    /// Call after `fabric.topology_mut().fail_domain(...)` — or use
    /// [`PodSim::fail_domain`], which does both. Returns the number of
    /// channels/segments rebuilt.
    pub fn recover_domain_failure(&mut self, domain: cxl_fabric::DomainId) -> usize {
        let members = self.fabric.topology().mhds_in_domain(domain);
        members
            .into_iter()
            .map(|m| self.recover_pool_failure(m))
            .sum()
    }

    /// Fails every MHD in `domain` (chassis power loss) and immediately
    /// rebuilds the affected channels and I/O segments on survivors.
    /// Returns the number rebuilt.
    pub fn fail_domain(&mut self, domain: cxl_fabric::DomainId) -> usize {
        self.fabric.topology_mut().fail_domain(domain);
        self.recover_domain_failure(domain)
    }

    /// Restores every MHD in `domain`.
    pub fn restore_domain(&mut self, domain: cxl_fabric::DomainId) {
        self.fabric.topology_mut().restore_domain(domain);
    }

    // -----------------------------------------------------------------
    // Virtual NIC
    // -----------------------------------------------------------------

    /// Sends `payload` through `owner`'s pooled NIC. Stages the payload
    /// in a shared I/O buffer, then takes the local fast path or
    /// forwards the submission to the attach host. Returns the transmit
    /// completion.
    pub fn vnic_send(
        &mut self,
        owner: HostId,
        payload: &[u8],
        deadline: Nanos,
    ) -> Result<OpResult, PoolError> {
        let op = self.start(owner, Req::Send(payload), deadline)?;
        self.finish(op)
    }

    /// Sends a batch of payloads through `owner`'s pooled NIC with one
    /// completion wait for the whole batch (doorbell batching): all
    /// payloads are staged and all submissions forwarded before the
    /// caller starts polling for completions. Amortizes the per-op
    /// polling overhead of the forwarded path.
    pub fn vnic_send_batch(
        &mut self,
        owner: HostId,
        payloads: &[&[u8]],
        deadline: Nanos,
    ) -> Result<Vec<OpResult>, PoolError> {
        let ops = payloads
            .iter()
            .map(|payload| self.start(owner, Req::Send(payload), deadline))
            .collect::<Result<Vec<_>, _>>()?;
        // One polling phase covers the whole batch.
        ops.into_iter().map(|op| self.finish(op)).collect()
    }

    /// Posts one RX buffer on `owner`'s pooled NIC; returns the buffer's
    /// pool address.
    pub fn vnic_post_rx(&mut self, owner: HostId, deadline: Nanos) -> Result<u64, PoolError> {
        let op = self.start(owner, Req::PostRx, deadline)?;
        self.finish(op).map(|r| r.buf)
    }

    /// A frame arrives from the wire at physical NIC `dev`; delivers it
    /// into the next posted RX buffer and notifies the buffer's owner
    /// (locally, or with an `RxDone` over the channel). Returns
    /// `(buffer, dma_done)` or `None` on drop.
    pub fn deliver_frame(
        &mut self,
        dev: DeviceId,
        bytes: &[u8],
    ) -> Result<Option<(BufRef, Nanos)>, PoolError> {
        let attach = self
            .attach_of(dev)
            .ok_or(PoolError::NoDevice(DeviceKind::Nic))?;
        let agent = &mut self.agents[attach.0 as usize];
        let r = agent.deliver_frame(&mut self.fabric, dev, bytes)?;
        Ok(r.map(|c| (c.buf, c.done)))
    }

    /// Polls `owner`'s RX completion inbox, pumping the control plane
    /// until an event arrives or `deadline` passes: the poll stage of a
    /// NIC receive, on its own.
    pub fn vnic_poll_rx(
        &mut self,
        owner: HostId,
        deadline: Nanos,
    ) -> Option<crate::agent::RxEvent> {
        let poll = InFlight::new(owner, 0, 0, Stage::Polling).with_deadline(deadline);
        let r = self.finish(poll).ok()?;
        Some(crate::agent::RxEvent {
            buf: r.buf,
            len: r.len,
            at: r.at,
        })
    }

    /// `owner` reads `len` bytes of RX payload from pool address `addr`
    /// with proper software coherence (invalidate then load).
    pub fn read_rx_payload(
        &mut self,
        owner: HostId,
        addr: u64,
        len: usize,
        not_before: Nanos,
    ) -> Result<(Vec<u8>, Nanos), PoolError> {
        let now = self.agents[owner.0 as usize].clock().max(not_before);
        let t = self.fabric.invalidate(now, owner, addr, len as u64);
        let mut buf = vec![0u8; len];
        let t = self.fabric.load(t, owner, addr, &mut buf)?;
        self.agents[owner.0 as usize].advance_clock(t);
        Ok((buf, t))
    }

    // -----------------------------------------------------------------
    // Virtual SSD
    // -----------------------------------------------------------------

    /// Reads `blocks` blocks from `owner`'s pooled SSD into a fresh I/O
    /// buffer; returns `(buffer_addr, result)`.
    pub fn vssd_read(
        &mut self,
        owner: HostId,
        lba: u64,
        blocks: u32,
        deadline: Nanos,
    ) -> Result<(u64, OpResult), PoolError> {
        let op = self.start(owner, Req::SsdRead { lba, blocks }, deadline)?;
        self.finish(op).map(|r| (r.buf, r))
    }

    /// Writes `blocks` blocks (already staged at `buf`) to `owner`'s
    /// pooled SSD.
    pub fn vssd_write(
        &mut self,
        owner: HostId,
        lba: u64,
        blocks: u32,
        buf: u64,
        deadline: Nanos,
    ) -> Result<OpResult, PoolError> {
        let op = self.start(owner, Req::SsdWrite { lba, blocks, buf }, deadline)?;
        self.finish(op)
    }

    // -----------------------------------------------------------------
    // Virtual accelerator
    // -----------------------------------------------------------------

    /// Runs an offload job on `owner`'s pooled accelerator: `input`
    /// bytes are staged into a fresh buffer, processed, and the output
    /// lands in a second buffer whose address is returned.
    pub fn vaccel_run(
        &mut self,
        owner: HostId,
        input: &[u8],
        deadline: Nanos,
    ) -> Result<(u64, OpResult), PoolError> {
        let op = self.start(owner, Req::Accel(input), deadline)?;
        self.finish(op).map(|r| (r.buf, r))
    }

    // -----------------------------------------------------------------
    // Start / step / finish
    // -----------------------------------------------------------------

    /// Starts `req` on `owner`'s bound device: stages or picks the I/O
    /// buffer, then [`PodSim::submit`]s the command. While tracing, a
    /// root span opens on the owner's CPU track and every stage records
    /// under the op's id until the op (for a NIC receive, its post)
    /// completes, when the span closes. An op that takes no op id (a
    /// local RX post, an early binding error) leaves no root span, so it
    /// cannot mislabel a later op.
    pub fn start(
        &mut self,
        owner: HostId,
        req: Req<'_>,
        deadline: Nanos,
    ) -> Result<InFlight, PoolError> {
        let (kind, trace_kind, name) = match req {
            Req::Send(_) => (DeviceKind::Nic, trace::KIND_NIC, "op/vnic_send"),
            Req::PostRx | Req::Recv(_) => (DeviceKind::Nic, trace::KIND_NIC, "op/vnic_post_rx"),
            Req::SsdRead { .. } => (DeviceKind::Ssd, trace::KIND_SSD, "op/vssd_read"),
            Req::SsdWrite { .. } => (DeviceKind::Ssd, trace::KIND_SSD, "op/vssd_write"),
            Req::Accel(_) => (DeviceKind::Accel, trace::KIND_ACCEL, "op/vaccel_run"),
        };
        let dev = self.bound(owner, kind)?;
        if !self.fabric.trace_enabled() {
            return self
                .issue(owner, dev, req)
                .map(|f| f.with_deadline(deadline));
        }
        // The next op id is peeked, not allocated: allocation order is
        // untouched.
        let op = self.next_op;
        let root = RootSpan {
            kind: trace_kind,
            name,
            start: self.agents[owner.0 as usize].clock(),
            to_completion: !matches!(req, Req::PostRx | Req::Recv(_)),
        };
        self.fabric.trace_push(op, trace_kind);
        let started = self.issue(owner, dev, req);
        self.fabric.trace_pop();
        let root = (self.next_op != op).then_some(root);
        if let (Some(root), Err(_)) = (root, &started) {
            self.close_root(owner, op, root, None);
        }
        started.map(|f| InFlight { root, ..f }.with_deadline(deadline))
    }

    /// [`PodSim::start`] on `dev`, without the trace context.
    fn issue(&mut self, owner: HostId, dev: DeviceId, req: Req) -> Result<InFlight, PoolError> {
        let mut frame = None;
        let cmd = match req {
            Req::Send(payload) => {
                let buf = self.stage(owner, payload)?;
                let len = payload.len() as u32;
                Cmd::Tx { buf, len }
            }
            Req::PostRx | Req::Recv(_) => {
                if let Req::Recv(bytes) = req {
                    frame = Some((dev, bytes));
                }
                let (buf, len) = (self.io_buf(owner), IO_SLOT as u32);
                Cmd::RxPost { buf, len }
            }
            Req::SsdRead { lba, blocks } => {
                let buf = self.io_buf(owner);
                Cmd::SsdRead { lba, blocks, buf }
            }
            Req::SsdWrite { lba, blocks, buf } => Cmd::SsdWrite { lba, blocks, buf },
            Req::Accel(input) => {
                let inbuf = self.stage(owner, input)?;
                let outbuf = self.io_buf(owner);
                let len = input.len() as u32;
                Cmd::Accel { inbuf, len, outbuf }
            }
        };
        let f = self.submit(owner, dev, cmd)?;
        Ok(InFlight { frame, ..f })
    }

    /// Submits `cmd` to device `dev` on behalf of `owner`, so callers
    /// can keep several devices busy at once (striping, bonding). A
    /// device attached to `owner` runs on the local fast path at once:
    /// [`Agent::execute`] on the owner's agent, no ring. Any other
    /// device gets the command forwarded to its attach host in a
    /// [`Msg::Submit`], which that host's agent hands to the same
    /// executor. The op has no deadline until
    /// [`InFlight::with_deadline`] gives it one.
    pub fn submit(
        &mut self,
        owner: HostId,
        dev: DeviceId,
        cmd: Cmd,
    ) -> Result<InFlight, PoolError> {
        let attach = self.attach_of(dev).ok_or(PoolError::NoDevice(cmd.kind()))?;
        let buf = match cmd {
            Cmd::Tx { buf, .. }
            | Cmd::RxPost { buf, .. }
            | Cmd::SsdRead { buf, .. }
            | Cmd::SsdWrite { buf, .. } => buf,
            Cmd::Accel { outbuf, .. } => outbuf,
        };
        if attach == owner {
            let agent = &mut self.agents[owner.0 as usize];
            let now = agent.clock();
            let at = agent.execute(&mut self.fabric, dev, &cmd, now, Origin::Local)?;
            // A local RX post has no completion to match, so it takes
            // no op id (and its traced op no root span).
            let op = match cmd {
                Cmd::RxPost { .. } => 0,
                _ => self.take_op_id(),
            };
            return Ok(InFlight::new(owner, op, buf, Stage::Local { at }));
        }
        let op = self.take_op_id();
        let msg = Msg::Submit { op, dev, cmd };
        self.agents[owner.0 as usize].send_to(&mut self.fabric, Peer::Host(attach), &msg)?;
        let stage = Stage::Forwarded { attach, dev };
        Ok(InFlight::new(owner, op, buf, stage))
    }

    /// Advances `f` by one pump round that ends by `until`, and
    /// returns its outcome once it is done (again on every later call).
    /// A forwarded op pumps the attach agent, the owner and the
    /// orchestrator; an RX poll pumps the whole pod. A NIC receive
    /// delivers its frame the moment its post completes and then polls.
    /// Past the op's deadline it fails with `Timeout`.
    pub fn step(&mut self, f: &mut InFlight, until: Nanos) -> Option<Result<OpResult, PoolError>> {
        let owner = f.owner.0 as usize;
        loop {
            let done =
                match f.stage {
                    Stage::Done(ref done) => return Some(done.clone()),
                    Stage::Local { at } => Some(Ok(f.result(at, true, 0))),
                    Stage::Forwarded { dev, .. } => self.agents[owner]
                        .completions
                        .remove(&f.op)
                        .map(|c| match c.status {
                            0 => Ok(f.result(c.at, false, 0)),
                            _ => Err(PoolError::RemoteFailed { op: f.op, dev }),
                        }),
                    Stage::Polling => {
                        let inbox = &mut self.agents[owner].rx_inbox;
                        (!inbox.is_empty()).then(|| {
                            let ev = inbox.remove(0);
                            f.buf = ev.buf;
                            Ok(f.result(ev.at, f.op == 0, ev.len))
                        })
                    }
                };
            let now = self.time();
            let done = match done {
                Some(done) => done,
                None if now > f.deadline => {
                    // A late completion would otherwise stay in the
                    // owner's map for good.
                    if let Stage::Forwarded { .. } = f.stage {
                        self.agents[owner].forget(f.op);
                    }
                    Err(PoolError::Timeout { op: f.op })
                }
                None => {
                    let Stage::Forwarded { attach, .. } = f.stage else {
                        self.run_control(PUMP_QUANTUM.min(until.saturating_sub(now)));
                        return None;
                    };
                    // One round of the attach agent, the owner and the
                    // orchestrator, under the op's trace context (none
                    // without a root span, as outside the op).
                    let end = (now + PUMP_QUANTUM).min(until);
                    let (op, kind) = f.root.map_or((0, trace::KIND_NONE), |r| (f.op, r.kind));
                    self.fabric.trace_push(op, kind);
                    self.agents[attach.0 as usize].pump(&mut self.fabric, end);
                    self.agents[owner].pump(&mut self.fabric, end);
                    self.orch.pump(&mut self.fabric, end);
                    self.sample_metrics(end);
                    self.fabric.trace_pop();
                    return None;
                }
            };
            if let Some(root) = f.root.take() {
                self.close_root(f.owner, f.op, root, done.as_ref().ok());
            }
            if let (Ok(_), Some((dev, frame))) = (&done, f.frame.take()) {
                f.stage = match self.deliver_frame(dev, &frame) {
                    Ok(_) => Stage::Polling,
                    Err(e) => Stage::Done(Err(e)),
                };
                continue;
            }
            f.stage = Stage::Done(done.clone());
            return Some(done);
        }
    }

    /// Steps `f` until it is done: the one wait loop of the datapath.
    pub fn finish(&mut self, mut f: InFlight) -> Result<OpResult, PoolError> {
        loop {
            if let Some(done) = self.step(&mut f, Nanos::MAX) {
                return done;
            }
        }
    }

    /// Emits `op`'s root span on the owner's CPU track, ending at the
    /// owner's clock or, for an op that runs `to_completion`, at the
    /// device's completion if that is later.
    fn close_root(&mut self, owner: HostId, op: u64, root: RootSpan, done: Option<&OpResult>) {
        let clock = self.agents[owner.0 as usize].clock();
        let end = match done {
            Some(r) if root.to_completion => r.at.max(clock),
            _ => clock,
        };
        if let Some(tr) = self.fabric.trace_mut() {
            let track = Track::HostCpu(owner.0);
            tr.span_for(track, root.name, op, root.kind, root.start, end);
        }
    }

    /// Drains the frames transmitted by NIC `dev` since the last call.
    pub fn take_frames(&mut self, dev: DeviceId) -> Vec<TxFrame> {
        let Some(attach) = self.attach_of(dev) else {
            return Vec::new();
        };
        let frames = &mut self.agents[attach.0 as usize].out_frames;
        frames
            .extract_if(.., |(d, _)| *d == dev)
            .map(|(_, f)| f)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deadline() -> Nanos {
        Nanos::from_millis(50)
    }

    #[test]
    fn pod_initial_allocation_binds_every_host() {
        let pod = PodSim::new(PodParams::new(4, 2));
        for h in 0..4 {
            assert!(
                pod.binding(HostId(h), DeviceKind::Nic).is_some(),
                "host {h} unbound"
            );
        }
    }

    #[test]
    fn local_send_takes_fast_path() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // Host 0 has a local NIC and local-first policy: local binding.
        let dev = pod.binding(HostId(0), DeviceKind::Nic).unwrap();
        assert_eq!(pod.attach_of(dev), Some(HostId(0)));
        let r = pod
            .vnic_send(HostId(0), &[1u8; 256], deadline())
            .expect("send");
        assert!(r.local);
        let frames = pod.take_frames(dev);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].bytes, vec![1u8; 256]);
    }

    #[test]
    fn remote_send_is_forwarded_and_carries_bytes() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // Host 3 has no local NIC: its binding is remote.
        let dev = pod.binding(HostId(3), DeviceKind::Nic).unwrap();
        let attach = pod.attach_of(dev).unwrap();
        assert_ne!(attach, HostId(3));
        let payload: Vec<u8> = (0..900u32).map(|i| i as u8).collect();
        let r = pod
            .vnic_send(HostId(3), &payload, deadline())
            .expect("send");
        assert!(!r.local);
        let frames = pod.take_frames(dev);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].bytes, payload, "remote TX must carry exact bytes");
    }

    #[test]
    fn remote_send_latency_is_microseconds() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let t0 = pod.time();
        let _ = pod
            .vnic_send(HostId(3), &[0u8; 128], deadline())
            .expect("send");
        let elapsed = pod.time() - t0;
        // Forwarded op: channel + agent poll + DMA + reply. Must be
        // microseconds, not milliseconds.
        assert!(
            elapsed < Nanos::from_micros(50),
            "remote send took {elapsed}"
        );
    }

    #[test]
    fn rx_roundtrip_through_pool_buffer() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let dev = pod.binding(HostId(3), DeviceKind::Nic).unwrap();
        let buf = pod.vnic_post_rx(HostId(3), deadline()).expect("post");
        let frame: Vec<u8> = (0..500u32).map(|i| (i * 3) as u8).collect();
        let (got_buf, done) = pod
            .deliver_frame(dev, &frame)
            .expect("deliver")
            .expect("not dropped");
        assert_eq!(got_buf.addr(), buf);
        let (payload, _) = pod
            .read_rx_payload(HostId(3), buf, frame.len(), done)
            .expect("read");
        assert_eq!(payload, frame);
    }

    #[test]
    fn remote_rx_completion_is_forwarded_to_owner() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let owner = HostId(3);
        let dev = pod.binding(owner, DeviceKind::Nic).unwrap();
        assert_ne!(pod.attach_of(dev), Some(owner));
        let buf = pod.vnic_post_rx(owner, deadline()).expect("post");
        let frame: Vec<u8> = (0..700u32).map(|i| (i * 5) as u8).collect();
        pod.deliver_frame(dev, &frame)
            .expect("deliver")
            .expect("no drop");
        // The owner learns about the frame through its inbox (RxDone
        // over the channel), not through the deliver_frame return.
        let ev = pod
            .vnic_poll_rx(owner, Nanos::from_millis(50))
            .expect("RxDone arrives");
        assert_eq!(ev.buf, buf);
        assert_eq!(ev.len as usize, frame.len());
        let (payload, _) = pod
            .read_rx_payload(owner, ev.buf, ev.len as usize, ev.at)
            .expect("read");
        assert_eq!(payload, frame);
    }

    #[test]
    fn local_rx_completion_lands_in_local_inbox() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let owner = HostId(0);
        let dev = pod.binding(owner, DeviceKind::Nic).unwrap();
        assert_eq!(pod.attach_of(dev), Some(owner));
        let buf = pod.vnic_post_rx(owner, deadline()).expect("post");
        pod.deliver_frame(dev, &[1u8; 64])
            .expect("deliver")
            .expect("no drop");
        let ev = pod
            .vnic_poll_rx(owner, Nanos::from_millis(10))
            .expect("local event");
        assert_eq!(ev.buf, buf);
    }

    #[test]
    fn failover_rebinds_to_surviving_nic() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let dev = pod.binding(HostId(3), DeviceKind::Nic).unwrap();
        pod.fail_device(dev);
        // The send fails (remote device down).
        let err = pod
            .vnic_send(HostId(3), &[0u8; 64], deadline())
            .unwrap_err();
        assert!(matches!(
            err,
            PoolError::RemoteFailed { .. } | PoolError::Device(_)
        ));
        // The agent's failure notice reaches the orchestrator, which
        // reassigns host 3 to the surviving NIC.
        pod.run_control(Nanos::from_millis(1));
        let newdev = pod.binding(HostId(3), DeviceKind::Nic).unwrap();
        assert_ne!(newdev, dev, "binding must move off the dead NIC");
        let r = pod
            .vnic_send(HostId(3), &[5u8; 64], deadline())
            .expect("retry works");
        assert!(r.at > Nanos::ZERO);
        assert!(!pod.orch.failover_log.is_empty());
    }

    #[test]
    fn ssd_write_read_roundtrip_remote() {
        let mut params = PodParams::new(4, 1);
        params.ssd_hosts = vec![0];
        let mut pod = PodSim::new(params);
        // Host 2 uses the (remote) SSD.
        let block: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
        let buf = pod.stage(HostId(2), &block).expect("stage");
        pod.vssd_write(HostId(2), 10, 1, buf, deadline())
            .expect("write");
        let (rbuf, r) = pod.vssd_read(HostId(2), 10, 1, deadline()).expect("read");
        // The device reports when its DMA into the buffer is visible;
        // reading earlier would be the coherence bug the paper warns
        // about.
        let (data, _) = pod
            .read_rx_payload(HostId(2), rbuf, 4096, r.at)
            .expect("load");
        assert_eq!(data, block);
    }

    #[test]
    fn accelerator_offload_remote_transforms_data() {
        let mut params = PodParams::new(4, 1);
        params.accel_hosts = vec![1];
        let mut pod = PodSim::new(params);
        let input: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let (outbuf, r) = pod.vaccel_run(HostId(2), &input, deadline()).expect("run");
        assert!(!r.local);
        let (out, _) = pod
            .read_rx_payload(HostId(2), outbuf, input.len(), r.at)
            .expect("read");
        let expect: Vec<u8> = input.iter().map(|b| b ^ 0xA5).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn remote_failure_names_the_failed_device() {
        // NIC 0 and SSD 1 on host 0, accelerator 2 on host 1: host 2
        // reaches both through the channel, never through its NIC.
        let mut params = PodParams::new(4, 1);
        params.ssd_hosts = vec![0];
        params.accel_hosts = vec![1];
        let mut pod = PodSim::new(params);
        let ssd = pod.binding(HostId(2), DeviceKind::Ssd).expect("ssd bound");
        let accel = pod
            .binding(HostId(2), DeviceKind::Accel)
            .expect("accel bound");
        pod.fail_device(ssd);
        pod.fail_device(accel);
        let err = pod.vssd_read(HostId(2), 0, 1, deadline()).unwrap_err();
        assert!(
            matches!(err, PoolError::RemoteFailed { dev, .. } if dev == ssd),
            "{err:?} should name {ssd:?}"
        );
        let err = pod.vaccel_run(HostId(2), &[1; 64], deadline()).unwrap_err();
        assert!(
            matches!(err, PoolError::RemoteFailed { dev, .. } if dev == accel),
            "{err:?} should name {accel:?}"
        );
    }

    #[test]
    fn no_device_of_kind_errors() {
        let mut pod = PodSim::new(PodParams::new(2, 1));
        let err = pod.vssd_read(HostId(0), 0, 1, deadline()).unwrap_err();
        assert!(matches!(err, PoolError::NotAssigned(DeviceKind::Ssd)));
    }

    #[test]
    fn pool_mhd_failure_recovers_after_rebuild() {
        use cxl_fabric::MhdId;
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // Warm traffic on the forwarded path.
        pod.vnic_send(HostId(3), &[1u8; 64], deadline())
            .expect("warm");
        // Kill MHD 0: roughly half the isolated control rings and all
        // interleaved I/O segments die.
        pod.fabric.topology_mut().fail_mhd(MhdId(0));
        // Some hosts' sends now fail or time out (their rings/buffers
        // are unreachable). Find one affected host.
        let mut anyone_broken = false;
        for h in 0..4u16 {
            let d = pod.time() + Nanos::from_micros(300);
            if pod.vnic_send(HostId(h), &[2u8; 64], d).is_err() {
                anyone_broken = true;
            }
        }
        assert!(anyone_broken, "an MHD failure should break something");
        // Software recovery: rebuild on the surviving MHD.
        let rebuilt = pod.recover_pool_failure(MhdId(0));
        assert!(rebuilt > 0, "nothing was rebuilt");
        // Every host can use the pool again.
        for h in 0..4u16 {
            let mut ok = false;
            for _ in 0..10 {
                let d = deadline();
                if pod.vnic_send(HostId(h), &[3u8; 64], d).is_ok() {
                    ok = true;
                    break;
                }
                pod.run_control(Nanos::from_micros(300));
            }
            assert!(ok, "host {h} still broken after recovery");
        }
    }

    #[test]
    fn recovery_is_noop_when_nothing_died() {
        use cxl_fabric::MhdId;
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // MHD 1 alive and well: recovering from a failure that didn't
        // happen rebuilds nothing... but wait — recovery keys off
        // segment *ways*, so ask about a never-failed MHD id beyond the
        // pod. Nothing uses it.
        let rebuilt = pod.recover_pool_failure(MhdId(7));
        assert_eq!(rebuilt, 0);
    }

    #[test]
    fn batched_sends_amortize_polling() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // Remote host, 8-packet batch.
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 200]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let t0 = pod.time();
        let batch = pod
            .vnic_send_batch(HostId(3), &refs, deadline())
            .expect("batch");
        let batch_elapsed = pod.time() - t0;
        assert_eq!(batch.len(), 8);
        // Same 8 packets one by one on a fresh pod.
        let mut pod2 = PodSim::new(PodParams::new(4, 2));
        let t0 = pod2.time();
        for p in &payloads {
            pod2.vnic_send(HostId(3), p, deadline()).expect("send");
        }
        let serial_elapsed = pod2.time() - t0;
        assert!(
            batch_elapsed < serial_elapsed,
            "batch {batch_elapsed} should beat serial {serial_elapsed}"
        );
        // And every frame made it out with the right bytes.
        let dev = pod.binding(HostId(3), DeviceKind::Nic).unwrap();
        let frames = pod.take_frames(dev);
        assert_eq!(frames.len(), 8);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.bytes, payloads[i], "frame {i}");
        }
    }

    #[test]
    fn forwarded_submits_past_a_full_ring_queue_in_order() {
        let mut params = PodParams::new(4, 1);
        params.ring_slots = 4;
        let mut pod = PodSim::new(params);
        let owner = HostId(3);
        let dev = pod.binding(owner, DeviceKind::Nic).unwrap();
        assert_ne!(pod.attach_of(dev), Some(owner));
        let payloads: Vec<Vec<u8>> = (0..17u8).map(|i| vec![i; 64]).collect();
        // 16 submits on a 4-slot ring before any await: the 5th on
        // queue in the owner's channel.
        let mut subs = Vec::new();
        for p in &payloads[..16] {
            let buf = pod.stage(owner, p).expect("stage");
            let len = p.len() as u32;
            subs.push(
                pod.submit(owner, dev, Cmd::Tx { buf, len })
                    .expect("submit"),
            );
        }
        assert!(pod.channel_stats().blocked_events > 0, "the ring filled");
        for sub in subs {
            pod.finish(sub.with_deadline(deadline())).expect("await");
        }
        // The link still works once its queue has drained.
        pod.vnic_send(owner, &payloads[16], deadline())
            .expect("send");
        let sent: Vec<Vec<u8>> = pod.take_frames(dev).into_iter().map(|f| f.bytes).collect();
        assert_eq!(sent, payloads, "frames leave in submit order");
    }

    #[test]
    fn rebuilt_channel_takes_its_queue_with_it() {
        use cxl_fabric::MhdId;
        let mut params = PodParams::new(4, 1);
        params.ring_slots = 4;
        let mut pod = PodSim::new(params);
        let owner = HostId(3);
        let dev = pod.binding(owner, DeviceKind::Nic).unwrap();
        for i in 0..8u8 {
            let buf = pod.stage(owner, &[i; 64]).expect("stage");
            let _ = pod
                .submit(owner, dev, Cmd::Tx { buf, len: 64 })
                .expect("submit");
        }
        assert!(
            pod.agents[3].endpoint.queued() > 0,
            "submits wait for credits"
        );
        // Kill the MHD under host 3's ring to host 0 and rebuild.
        let ring = pod
            .channels
            .iter()
            .find(|c| c.a == Peer::Host(HostId(0)) && c.b == owner)
            .expect("mesh channel")
            .segs
            .1;
        let mhd: MhdId = pod.fabric.segment(ring).expect("live").ways()[0];
        pod.fabric.topology_mut().fail_mhd(mhd);
        assert!(pod.recover_pool_failure(mhd) > 0);
        assert_eq!(
            pod.agents[3].endpoint.queued(),
            0,
            "the old queue went with its link"
        );
    }

    /// The five op kinds a workload issues.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Send,
        Recv,
        SsdRead,
        SsdWrite,
        Accel,
    }

    /// NIC, SSD and accelerator on host 0, traced: host 0 reaches each
    /// on the local fast path, host 3 over the channel.
    fn twin_pod() -> PodSim {
        let mut params = PodParams::new(4, 1);
        params.ssd_hosts = vec![0];
        params.accel_hosts = vec![0];
        let mut pod = PodSim::new(params);
        pod.enable_trace_config(TraceConfig {
            capacity: 1 << 14,
            fabric_ops: true,
        });
        pod
    }

    /// Runs `kind` for `owner` through the blocking calls (a NIC
    /// receive chains post, frame delivery and poll).
    fn blocking(pod: &mut PodSim, owner: HostId, kind: Kind) -> OpResult {
        let d = deadline();
        match kind {
            Kind::Send => pod.vnic_send(owner, &[3; 300], d).expect("send"),
            Kind::Recv => {
                let dev = pod.binding(owner, DeviceKind::Nic).expect("bound");
                let buf = pod.vnic_post_rx(owner, d).expect("post");
                pod.deliver_frame(dev, &[4; 200]).expect("deliver");
                let ev = pod.vnic_poll_rx(owner, d).expect("event");
                assert_eq!((ev.buf, ev.len), (buf, 200));
                OpResult {
                    op: 0,
                    at: ev.at,
                    local: false,
                    buf: ev.buf,
                    len: ev.len,
                }
            }
            Kind::SsdRead => pod.vssd_read(owner, 9, 2, d).expect("read").1,
            Kind::SsdWrite => {
                let buf = pod.stage(owner, &[5; 4096]).expect("stage");
                pod.vssd_write(owner, 9, 1, buf, d).expect("write")
            }
            Kind::Accel => pod.vaccel_run(owner, &[6; 512], d).expect("run").1,
        }
    }

    /// Starts `kind` for `owner` and steps it to completion; returns
    /// the outcome and the number of steps that returned `None`.
    fn stepped(pod: &mut PodSim, owner: HostId, kind: Kind) -> (OpResult, usize) {
        let d = deadline();
        let mut op = match kind {
            Kind::Send => pod.start(owner, Req::Send(&[3; 300]), d),
            Kind::Recv => pod.start(owner, Req::Recv(vec![4; 200]), d),
            Kind::SsdRead => pod.start(owner, Req::SsdRead { lba: 9, blocks: 2 }, d),
            Kind::SsdWrite => {
                let buf = pod.stage(owner, &[5; 4096]).expect("stage");
                pod.start(
                    owner,
                    Req::SsdWrite {
                        lba: 9,
                        blocks: 1,
                        buf,
                    },
                    d,
                )
            }
            Kind::Accel => pod.start(owner, Req::Accel(&[6; 512]), d),
        }
        .expect("start");
        let mut pending = 0;
        loop {
            match pod.step(&mut op, Nanos::MAX) {
                Some(done) => {
                    let r = done.expect("op");
                    let again = pod.step(&mut op, Nanos::MAX).expect("done stays done");
                    assert_eq!(again, Ok(r), "a finished op reports its outcome again");
                    return (r, pending);
                }
                None => pending += 1,
            }
        }
    }

    /// Every actor's clock, the ring and fabric counters and the trace.
    fn fingerprint(pod: &PodSim) -> (Vec<Nanos>, String) {
        let mut clocks: Vec<Nanos> = pod.agents.iter().map(|a| a.clock()).collect();
        clocks.push(pod.orch.endpoint.clock());
        let counters = format!("{:?} {:?}", pod.channel_stats(), pod.fabric.stats());
        (clocks, counters + &pod.export_trace().expect("traced"))
    }

    #[test]
    fn stepping_an_op_matches_the_blocking_call() {
        use Kind::*;
        for kind in [Send, Recv, SsdRead, SsdWrite, Accel] {
            for owner in [HostId(0), HostId(3)] {
                let (mut a, mut b) = (twin_pod(), twin_pod());
                let forwarded = owner == HostId(3);
                let want = blocking(&mut a, owner, kind);
                let (got, pending) = stepped(&mut b, owner, kind);
                let case = format!("{kind:?} from {owner:?}");
                if let Recv = kind {
                    assert_eq!(
                        (got.at, got.buf, got.len),
                        (want.at, want.buf, want.len),
                        "{case}"
                    );
                } else {
                    assert_eq!(got, want, "{case}");
                }
                assert_eq!(
                    pending > 0,
                    forwarded,
                    "{case}: step returns None until done"
                );
                assert_eq!(fingerprint(&a), fingerprint(&b), "{case}");
            }
        }
    }

    #[test]
    fn a_forwarded_op_past_its_deadline_times_out_with_its_op_id() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        // The op started next takes the id after this one.
        let id = pod.take_op_id() + 1;
        let op = pod
            .start(HostId(3), Req::Send(&[1; 64]), Nanos::ZERO)
            .expect("start");
        assert_eq!(pod.finish(op), Err(PoolError::Timeout { op: id }));
    }

    #[test]
    fn a_timed_out_op_leaves_no_completion_behind() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let owner = HostId(3);
        for _ in 0..5 {
            let op = pod
                .start(owner, Req::Send(&[1; 64]), Nanos::ZERO)
                .expect("start");
            assert!(matches!(pod.finish(op), Err(PoolError::Timeout { .. })));
        }
        assert_eq!(pod.agents[3].forgotten.len(), 5, "no Done arrived yet");
        pod.run_control(Nanos::from_micros(100));
        assert!(pod.agents[3].completions.is_empty());
        assert!(
            pod.agents[3].forgotten.is_empty(),
            "every late Done arrived"
        );
    }

    #[test]
    fn a_nic_receive_times_out_in_its_poll_stage_with_the_post_op_id() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let owner = HostId(3);
        let dev = pod.binding(owner, DeviceKind::Nic).unwrap();
        let attach = pod.attach_of(dev).unwrap();
        assert_ne!(attach, owner);
        // A frame longer than the posted buffer is dropped, so no RX
        // completion ever reaches the owner.
        let frame = vec![7u8; IO_SLOT as usize + 1];
        let deadline = pod.time() + Nanos::from_micros(100);
        // The forwarded RX post takes the id after this one.
        let id = pod.take_op_id() + 1;
        let op = pod.start(owner, Req::Recv(frame), deadline).expect("start");
        assert_eq!(pod.finish(op), Err(PoolError::Timeout { op: id }));
        let nic = pod.agents[attach.0 as usize].nics[&dev].stats();
        assert_eq!(nic.rx_drops, 1, "the post completed and the frame arrived");
        assert!(pod.time() > deadline);
    }

    #[test]
    fn io_buffers_rotate() {
        let mut pod = PodSim::new(PodParams::new(2, 1));
        let a = pod.io_buf(HostId(0));
        let b = pod.io_buf(HostId(0));
        assert_ne!(a, b);
        // After io_slots allocations the addresses wrap.
        for _ in 0..14 {
            pod.io_buf(HostId(0));
        }
        let again = pod.io_buf(HostId(0));
        assert_eq!(a, again);
    }
}
