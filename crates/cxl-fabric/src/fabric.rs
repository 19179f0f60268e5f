//! The fabric proper: timed, contents-accurate memory operations against
//! the pool and against per-host local DRAM.
//!
//! Every operation takes the current simulated time and returns the
//! operation's *completion* time, with queueing on links and device
//! controllers modelled by [`simkit::server::BandwidthPipe`] timelines.
//! Writes to the pool become visible to other hosts only at their
//! completion time (an in-flight write buffer holds them until then), and
//! cached stores are not visible at all until flushed or evicted — the
//! two hazards software coherence must handle on real non-coherent pools.
//!
//! # Pool accesses
//!
//! The seven pool accesses ([`Fabric::load`], [`Fabric::store`],
//! [`Fabric::nt_store`], [`Fabric::flush`], [`Fabric::invalidate`],
//! [`Fabric::dma_read`] and [`Fabric::dma_write`]) share one prologue.
//! Each first settles every in-flight write visible by its start time,
//! then checks its range: a zero-length range panics, and the range
//! must lie in one mapped segment granted to the accessing host. A
//! rejected range charges nothing: no time, no [`AccessStats`] counter,
//! no audit op and no trace span. The six accesses that return a
//! `Result` report it as a [`FabricError`]; [`Fabric::invalidate`]
//! returns its start time instead. An accepted access is counted, then
//! shadowed by the auditor's hook for its kind, and ends in one shared
//! epilogue that records its trace span.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

use simkit::server::{BandwidthPipe, OrderStats};
use simkit::trace::{TraceConfig, TraceRecorder, Track};
use simkit::Nanos;

use crate::alloc::{DomainPlacement, PoolAllocator, Segment, SegmentId};
use crate::audit::{
    Actor, AuditConfig, AuditReport, Auditor, Layout, RaceReport, ShadowWrite, ViolationKind,
};
use crate::cache::{self, CacheStats, Eviction, HostCache, LoadOutcome};
use crate::error::FabricError;
use crate::params::{FabricParams, CACHELINE};
use crate::sparse::SparseMem;
use crate::topology::{HostId, LinkId, MhdId, Topology};

/// Cost of a load served from the host's own cache (an L2-ish hit).
const CACHE_HIT_NS: u64 = 5;
/// CPU cost of issuing one cache-line invalidate.
const INVALIDATE_NS: u64 = 2;
/// Capacity contributed by each MHD, in bytes.
const MHD_CAPACITY: u64 = 256 << 30;
/// Per-host local DDR5 bandwidth available to I/O, in GB/s.
const LOCAL_DRAM_GBPS: f64 = 150.0;

/// Construction parameters for a pod.
#[derive(Clone, Debug)]
pub struct PodConfig {
    /// Number of hosts.
    pub hosts: u16,
    /// Number of multi-headed devices.
    pub mhds: u16,
    /// Redundant paths per host (λ): links to λ distinct MHDs.
    pub lambda: u16,
    /// Number of failure domains the MHDs are spread over. Must divide
    /// `mhds` evenly. The default (`mhds`) puts each MHD in its own
    /// domain, matching [`Topology::dense`]; a smaller value groups
    /// MHDs round-robin via [`Topology::multi_domain`].
    pub domains: u16,
    /// Timing parameters.
    pub params: FabricParams,
}

impl PodConfig {
    /// A pod with the given shape and default timing. Every MHD holds
    /// 256 GiB, every host has 150 GB/s of local DRAM bandwidth for
    /// I/O, and default allocations interleave λ ways.
    pub fn new(hosts: u16, mhds: u16, lambda: u16) -> PodConfig {
        PodConfig {
            hosts,
            mhds,
            lambda,
            domains: mhds,
            params: FabricParams::default(),
        }
    }

    /// Overrides the timing parameters.
    pub fn with_params(mut self, params: FabricParams) -> PodConfig {
        self.params = params;
        self
    }

    /// Spreads the MHDs over `domains` failure domains (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or does not divide `mhds` evenly.
    pub fn with_domains(mut self, domains: u16) -> PodConfig {
        assert!(
            domains > 0 && self.mhds.is_multiple_of(domains),
            "domains ({domains}) must evenly divide mhds ({})",
            self.mhds
        );
        self.domains = domains;
        self
    }
}

/// Aggregate operation counters for the whole fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessStats {
    /// CPU loads against the pool.
    pub loads: u64,
    /// CPU (cached, write-back) stores against the pool.
    pub stores: u64,
    /// Non-temporal stores against the pool.
    pub nt_stores: u64,
    /// Cache-line flushes issued.
    pub flushes: u64,
    /// Device DMA reads from the pool.
    pub dma_reads: u64,
    /// Device DMA writes to the pool.
    pub dma_writes: u64,
    /// Total bytes moved host←pool (loads + DMA reads).
    pub bytes_read: u64,
    /// Total bytes moved host→pool (visible writes only).
    pub bytes_written: u64,
}

/// A pool write in flight until `visible_at`. Writes are ordered by
/// `(visible_at, seq)` alone, and `seq` (the enqueue order) is unique,
/// so writes visible at one instant settle in the order they were
/// issued.
struct PendingWrite {
    visible_at: Nanos,
    seq: u64,
    hpa: u64,
    data: Vec<u8>,
    /// The auditor's shadow of the write, landed when it settles. A
    /// flush's shadow rides on its first dirty line's write.
    shadow: Option<Box<ShadowWrite>>,
}

impl PartialEq for PendingWrite {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for PendingWrite {}

impl PartialOrd for PendingWrite {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingWrite {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.visible_at, self.seq).cmp(&(other.visible_at, other.seq))
    }
}

/// Byte buffers of in-flight writes, recycled: a settled write's
/// buffer carries a later write, so enqueueing one does not allocate.
/// The spare list holds at most the peak in-flight bytes; a buffer
/// that would push it past that is freed instead.
#[derive(Default)]
struct WriteBufs {
    spare: Vec<Vec<u8>>,
    /// Capacity held by `spare`.
    spare_bytes: usize,
    /// Data bytes of the writes in flight.
    in_flight: usize,
    /// Peak of `in_flight`.
    peak: usize,
}

impl WriteBufs {
    /// A buffer holding a copy of `data`, counted in flight.
    fn take(&mut self, data: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        self.spare_bytes -= buf.capacity();
        buf.clear();
        buf.extend_from_slice(data);
        self.in_flight += data.len();
        self.peak = self.peak.max(self.in_flight);
        buf
    }

    /// Takes back a settled write's buffer.
    fn give(&mut self, buf: Vec<u8>) {
        self.in_flight -= buf.len();
        if self.spare_bytes + buf.capacity() <= self.peak {
            self.spare_bytes += buf.capacity();
            self.spare.push(buf);
        }
    }
}

/// A CXL pod: topology + timing + contents + per-host caches.
pub struct Fabric {
    topology: Topology,
    params: FabricParams,
    alloc: PoolAllocator,
    pool: SparseMem,
    /// In-flight writes, earliest `(visible_at, seq)` on top.
    pending: BinaryHeap<Reverse<PendingWrite>>,
    pending_seq: u64,
    write_bufs: WriteBufs,
    caches: Vec<HostCache>,
    local_mem: Vec<SparseMem>,
    local_pipes: Vec<BandwidthPipe>,
    uplinks: Vec<BandwidthPipe>,
    downlinks: Vec<BandwidthPipe>,
    mhd_pipes: Vec<BandwidthPipe>,
    /// Interleave width of [`Fabric::alloc_private`] and
    /// [`Fabric::alloc_shared`]: λ, one way per path a host has.
    default_ways: usize,
    stats: AccessStats,
    /// Opt-in coherence checker; boxed to keep the disabled fast path
    /// small.
    audit: Option<Box<Auditor>>,
    /// Ranges where torn multi-line reads are tolerated by protocol
    /// design (see [`Fabric::mark_tear_tolerant`]). Kept even while
    /// auditing is off so a later [`Fabric::enable_audit`] still
    /// honours them.
    tear_tolerant: Vec<(u64, u64)>,
    /// Ranges holding synchronization protocol state (ring slots):
    /// reads there are acquire operations
    /// in the vector-clock model. Kept even while auditing is off, as
    /// with `tear_tolerant`.
    sync_ranges: Vec<(u64, u64)>,
    /// Opt-in flight recorder (see [`simkit::trace`]); boxed so the
    /// disabled fast path pays one pointer, mirroring `audit`.
    trace: Option<Box<TraceRecorder>>,
    /// Reusable per-access scratch for [`Segment::spread_into`]: every
    /// pool access computes an interleave spread, and reusing one
    /// buffer keeps the datapath allocation-free.
    spread_scratch: Vec<(MhdId, u64)>,
    /// Reusable [`Fabric::load`] scratch: the lines that missed the
    /// host cache, and every line with its hit/miss outcome for the
    /// auditor. Taken and put back per call.
    missed_scratch: Vec<u64>,
    /// See [`Fabric::missed_scratch`].
    served_scratch: Vec<(u64, bool)>,
    /// Ring-slot wake table: slot line → visibility time of the
    /// message store a ring sender posted there and no receiver has
    /// consumed yet. A scheduling shortcut for poll loops (see
    /// [`Fabric::post_wake`]); it never serves data.
    wakes: BTreeMap<u64, Nanos>,
    /// See [`Fabric::layout_generation`].
    layout_gen: u64,
    /// See [`Fabric::wake_generation`].
    wake_gen: u64,
}

impl Fabric {
    /// Builds a pod from `config`.
    pub fn new(config: PodConfig) -> Fabric {
        let topology = if config.domains == config.mhds {
            Topology::dense(config.hosts, config.mhds, config.lambda)
        } else {
            assert!(
                config.domains > 0 && config.mhds.is_multiple_of(config.domains),
                "domains ({}) must evenly divide mhds ({})",
                config.domains,
                config.mhds
            );
            Topology::multi_domain(
                config.hosts,
                config.domains,
                config.mhds / config.domains,
                config.lambda,
            )
        };
        let link_gbps = config.params.link_gbps();
        let n_links = topology.links().len();
        Fabric {
            alloc: PoolAllocator::new(config.mhds, MHD_CAPACITY),
            caches: (0..config.hosts)
                .map(|_| HostCache::new(config.params.host_cache_lines))
                .collect(),
            local_mem: (0..config.hosts).map(|_| SparseMem::new()).collect(),
            local_pipes: (0..config.hosts)
                .map(|_| BandwidthPipe::new(LOCAL_DRAM_GBPS))
                .collect(),
            uplinks: (0..n_links)
                .map(|_| BandwidthPipe::new(link_gbps))
                .collect(),
            downlinks: (0..n_links)
                .map(|_| BandwidthPipe::new(link_gbps))
                .collect(),
            mhd_pipes: (0..config.mhds)
                .map(|_| BandwidthPipe::new(config.params.mhd_dram_gbps))
                .collect(),
            pool: SparseMem::new(),
            pending: BinaryHeap::new(),
            pending_seq: 0,
            write_bufs: WriteBufs::default(),
            default_ways: usize::from(config.lambda.max(1)),
            params: config.params,
            topology,
            stats: AccessStats::default(),
            audit: None,
            tear_tolerant: Vec::new(),
            sync_ranges: Vec::new(),
            trace: None,
            spread_scratch: Vec::new(),
            missed_scratch: Vec::new(),
            served_scratch: Vec::new(),
            wakes: BTreeMap::new(),
            layout_gen: 0,
            wake_gen: 0,
        }
    }

    // ---------------------------------------------------------------
    // Coherence auditing
    // ---------------------------------------------------------------

    /// Turns on the coherence-violation checker. Every subsequent pool
    /// access is shadowed; see [`crate::audit`] for the hazards
    /// detected. Cached state present before the call is treated as
    /// current (enabling mid-run never invents violations).
    pub fn enable_audit(&mut self, config: AuditConfig) {
        // Writes already in flight carry shadows of the auditor being
        // replaced, if any; the new one never saw them issued.
        if self.audit.is_some() {
            let mut writes = std::mem::take(&mut self.pending).into_vec();
            for Reverse(w) in &mut writes {
                w.shadow = None;
            }
            self.pending = writes.into();
        }
        self.audit = Some(Box::new(Auditor::new(config)));
    }

    /// The auditor, when auditing is on, with the layout its hooks read.
    fn auditor(&mut self) -> Option<(&mut Auditor, Layout<'_>)> {
        let audit = self.audit.as_deref_mut()?;
        let lay = Layout {
            alloc: &self.alloc,
            topology: &self.topology,
            tolerant: &self.tear_tolerant,
            sync: &self.sync_ranges,
        };
        Some((audit, lay))
    }

    /// The auditor's findings so far, if auditing is enabled.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_deref().map(Auditor::report)
    }

    /// Settles all in-flight writes, flags dirty lines still unpublished
    /// on segments other hosts can read, and returns the final report.
    /// `now` stamps the unflushed-write findings.
    pub fn audit_finalize(&mut self, now: Nanos) -> Option<AuditReport> {
        self.settle(Nanos::MAX);
        let (audit, lay) = self.auditor()?;
        audit.on_finalize(&lay, now);
        let report = audit.report().clone();
        self.sync_trace_audit();
        Some(report)
    }

    /// Declares `[hpa, hpa + len)` tear-tolerant: a protocol there
    /// detects and retries torn reads itself (a version word checked
    /// before and after the payload read), so the auditor does not
    /// report them.
    pub fn mark_tear_tolerant(&mut self, hpa: u64, len: u64) {
        if len > 0 {
            self.tear_tolerant.push((hpa, hpa + len));
        }
    }

    /// Declares `[hpa, hpa + len)` a synchronization range: the
    /// protocol state there (ring slots) transfers ordering, so in
    /// vector-clock audit mode a fresh read of such a line is an
    /// *acquire* of the observed write's clock. Registered by the
    /// shmem ring constructor.
    pub fn mark_sync_range(&mut self, hpa: u64, len: u64) {
        if len > 0 {
            self.sync_ranges.push((hpa, hpa + len));
        }
    }

    /// The happens-before race findings with clock snapshots, if
    /// auditing is enabled (empty unless the auditor runs in
    /// [`crate::audit::AuditMode::VectorClock`]).
    pub fn race_report(&self) -> Option<RaceReport> {
        let lay = Layout {
            alloc: &self.alloc,
            topology: &self.topology,
            tolerant: &self.tear_tolerant,
            sync: &self.sync_ranges,
        };
        self.audit.as_deref().map(|a| a.race_report(&lay))
    }

    /// Records a DMA completion observed by `host`'s CPU (the CQE /
    /// doorbell read): everything the device did happens-before the
    /// CPU's subsequent work. Called by `DmaEngine` after each pool
    /// DMA; a no-op unless vector-clock auditing is on.
    pub fn dma_complete(&mut self, host: HostId) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_dma_complete(host);
        }
    }

    // ---------------------------------------------------------------
    // Flight recorder
    // ---------------------------------------------------------------

    /// Turns on the flight recorder (see [`simkit::trace`]). Every
    /// instrumented datapath stage records spans/instants from here on;
    /// with [`TraceConfig::fabric_ops`] set, individual fabric accesses
    /// get spans too. Recording is observation only: it never advances
    /// any clock, so enabling it does not change simulated behavior.
    pub fn enable_trace(&mut self, config: TraceConfig) {
        self.trace = Some(Box::new(TraceRecorder::new(config)));
    }

    /// True when the flight recorder is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorder, if enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_deref()
    }

    /// Mutable recorder access for instrumentation sites. Callers must
    /// treat a `None` as "tracing off" and skip all recording work.
    pub fn trace_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.as_deref_mut()
    }

    /// Pushes `(op, device kind)` trace context; a no-op when tracing
    /// is off. Pair with [`Fabric::trace_pop`].
    pub fn trace_push(&mut self, op: u64, kind: u8) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.push_ctx(op, kind);
        }
    }

    /// Pops the top trace context; a no-op when tracing is off.
    pub fn trace_pop(&mut self) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.pop_ctx();
        }
    }

    /// Re-emits audit violations recorded since the last call as
    /// instant events on the offending actor's track, so races and
    /// stale reads are visible in context in the exported trace.
    fn sync_trace_audit(&mut self) {
        let (Some(tr), Some(a)) = (self.trace.as_deref_mut(), self.audit.as_deref()) else {
            return;
        };
        let vs = &a.report().violations;
        let mut seen = tr.audit_watermark();
        let (op, kind) = tr.ctx();
        while seen < vs.len() {
            let v = &vs[seen];
            tr.instant_for(
                violation_track(&v.kind),
                "audit/violation",
                op,
                kind,
                v.detected_at,
                Some(&format!("{} @{:#x}", v.kind.name(), v.line)),
            );
            seen += 1;
        }
        tr.set_audit_watermark(seen);
    }

    /// The pod topology (for failure injection and path inspection).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (failure injection). Bumps
    /// [`Fabric::layout_generation`].
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.layout_gen += 1;
        &mut self.topology
    }

    /// Counts the changes that can move an idle load's cost or make it
    /// fail (see [`Fabric::idle_line_load`]): every
    /// [`Fabric::topology_mut`] call and every [`Fabric::free_segment`].
    /// Allocation does not count: pool addresses are never reused, and
    /// a segment's owners and every pipe's bandwidth are fixed once
    /// they exist. Poll loops key their cached idle-poll plans on it.
    pub fn layout_generation(&self) -> u64 {
        self.layout_gen
    }

    /// Counts the changes to the ring-slot wake table (see
    /// [`Fabric::wake_at`]): every posted wake, every cleared one, every
    /// wake a settle turns loadable, and every [`Fabric::free_segment`].
    /// Poll loops key their cached earliest due poll on it.
    pub fn wake_generation(&self) -> u64 {
        self.wake_gen
    }

    /// The timing parameters in force.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Aggregate operation counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Cache counters for one host.
    pub fn cache_stats(&self, host: HostId) -> CacheStats {
        self.caches[host.0 as usize].stats()
    }

    // ---------------------------------------------------------------
    // Allocation
    // ---------------------------------------------------------------

    /// Allocates a private segment for `host`.
    pub fn alloc_private(&mut self, host: HostId, len: u64) -> Result<Segment, FabricError> {
        self.alloc
            .alloc(&self.topology, &[host], len, self.default_ways)
    }

    /// Allocates a segment shared by `hosts` (the substrate for
    /// cross-host I/O buffers and message channels).
    pub fn alloc_shared(&mut self, hosts: &[HostId], len: u64) -> Result<Segment, FabricError> {
        self.alloc
            .alloc(&self.topology, hosts, len, self.default_ways)
    }

    /// Allocates with an explicit interleave width (for the interleave
    /// bandwidth experiments).
    pub fn alloc_interleaved(
        &mut self,
        hosts: &[HostId],
        len: u64,
        ways: usize,
    ) -> Result<Segment, FabricError> {
        self.alloc.alloc(&self.topology, hosts, len, ways)
    }

    /// Allocates a segment shared by `hosts` under an explicit
    /// failure-domain placement (pin to one domain, or stripe across a
    /// minimum number of domains); see
    /// [`crate::alloc::DomainPlacement`].
    pub fn alloc_placed(
        &mut self,
        hosts: &[HostId],
        len: u64,
        max_ways: usize,
        placement: DomainPlacement,
    ) -> Result<Segment, FabricError> {
        self.alloc
            .alloc_placed(&self.topology, hosts, len, max_ways, placement)
    }

    /// Releases a segment. Tear-tolerant and sync ranges inside it are
    /// dropped, and the auditor forgets its shadow state for the
    /// space, so a reallocation is audited from scratch. The segment's
    /// pool pages are released, and writes still in flight into it and
    /// every host cache's lines of it, dirty ones included, are dropped
    /// unwritten: pool addresses are never handed out again, so nothing
    /// could read them.
    pub fn free_segment(&mut self, id: SegmentId) -> Result<(), FabricError> {
        if let Some(seg) = self.alloc.segment(id) {
            let (base, end) = (seg.base(), seg.end());
            self.tear_tolerant.retain(|&(s, e)| e <= base || s >= end);
            self.sync_ranges.retain(|&(s, e)| e <= base || s >= end);
            self.wakes.retain(|&la, _| la < base || la >= end);
            self.layout_gen += 1;
            self.wake_gen += 1;
            // Every pending write lies inside one segment (accesses are
            // bounds-checked), so its start address places it. A
            // write's shadow goes with it.
            let bufs = &mut self.write_bufs;
            self.pending.retain(|Reverse(w)| {
                let keep = w.hpa < base || w.hpa >= end;
                if !keep {
                    bufs.in_flight -= w.data.len();
                }
                keep
            });
            self.pool.clear_range(base, end - base);
            for cache in &mut self.caches {
                cache.forget_range(base, end - base);
            }
            if let Some(a) = self.audit.as_deref_mut() {
                a.on_segment_free(base, end);
            }
        }
        self.alloc.free(id)
    }

    /// Total free pool capacity in bytes.
    pub fn free_capacity(&self) -> u64 {
        self.alloc.total_free()
    }

    /// Free capacity on the *up* MHDs of one failure domain, in bytes
    /// (zero while the whole domain is failed). Placement policies use
    /// this as the domain's utilization signal.
    pub fn domain_free(&self, domain: crate::topology::DomainId) -> u64 {
        self.topology
            .mhds_in_domain(domain)
            .into_iter()
            .filter(|&m| self.topology.mhd_is_up(m))
            .map(|m| self.alloc.free_on(m))
            .sum()
    }

    /// Total capacity of the *up* MHDs of one failure domain, in bytes.
    /// With [`Fabric::domain_free`] this yields a domain utilization
    /// percentage for local-first placement thresholds.
    pub fn domain_capacity(&self, domain: crate::topology::DomainId) -> u64 {
        let up = self
            .topology
            .mhds_in_domain(domain)
            .into_iter()
            .filter(|&m| self.topology.mhd_is_up(m))
            .count() as u64;
        up * self.alloc.capacity_per_mhd()
    }

    /// Free capacity on one MHD, in bytes (zero while it is failed).
    /// The metrics plane samples this into per-MHD utilization series.
    pub fn mhd_free(&self, mhd: crate::topology::MhdId) -> u64 {
        if self.topology.mhd_is_up(mhd) {
            self.alloc.free_on(mhd)
        } else {
            0
        }
    }

    /// Resolves an address to its segment.
    pub fn segment_at(&self, hpa: u64) -> Result<&Segment, FabricError> {
        self.alloc.segment_at(hpa)
    }

    /// Looks up a live segment by id.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.alloc.segment(id)
    }

    // ---------------------------------------------------------------
    // Pool access (CPU side)
    // ---------------------------------------------------------------

    /// CPU load of `buf.len()` bytes at `hpa` by `host`.
    ///
    /// Lines present in the host's cache are served locally — possibly
    /// returning *stale* data, exactly like real non-coherent CXL.
    /// Missing lines are fetched from the pool (timed) and cached.
    pub fn load(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        buf: &mut [u8],
    ) -> Result<Nanos, FabricError> {
        let len = buf.len() as u64;
        self.begin(PoolOp::Load, now, host, hpa, len)?;
        let mut missed = std::mem::take(&mut self.missed_scratch);
        let mut served = std::mem::take(&mut self.served_scratch);
        missed.clear();
        served.clear();
        let cache = &mut self.caches[host.0 as usize];
        for la in lines(hpa, len) {
            match cache.load(la) {
                LoadOutcome::Hit(data) => {
                    copy_line_to_buf(la, &data, hpa, buf);
                    served.push((la, true));
                }
                LoadOutcome::Miss => {
                    missed.push(la);
                    served.push((la, false));
                }
            }
        }
        if let Some((a, lay)) = self.auditor() {
            a.on_load(&lay, now, host, &served);
        }
        // Fetch missing lines from the pool and install them.
        let mut evictions: Vec<Eviction> = Vec::new();
        for &la in &missed {
            let mut line = [0u8; CACHELINE as usize];
            self.pool.read(la, &mut line);
            copy_line_to_buf(la, &line, hpa, buf);
            if let Some(ev) = self.caches[host.0 as usize].fill(la, line) {
                evictions.push(ev);
            }
        }
        // Dirty evictions write back immediately (they ride the same
        // link traffic; visibility now is the conservative choice).
        for ev in evictions {
            self.apply_eviction(now, host, ev);
        }
        let bytes = missed.len() as u64 * CACHELINE;
        self.missed_scratch = missed;
        self.served_scratch = served;
        let done = self.timed(PoolOp::Load, now, host, hpa, bytes)?;
        Ok(self.finish(PoolOp::Load, now, host, done))
    }

    /// CPU cached (write-back) store. The data lands in the host's cache
    /// only — other hosts will *not* see it until [`Fabric::flush`] or a
    /// capacity eviction. Write misses perform a timed read-for-ownership
    /// fetch.
    pub fn store(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        let len = data.len() as u64;
        self.begin(PoolOp::Store, now, host, hpa, len)?;
        if let Some((a, lay)) = self.auditor() {
            a.count_store(&lay, host, hpa, len);
        }

        // RFO: fetch lines we don't own yet so partial-line stores merge
        // correctly.
        let mut fetched = 0u64;
        for la in lines(hpa, len) {
            if !self.caches[host.0 as usize].contains(la) {
                let mut line = [0u8; CACHELINE as usize];
                self.pool.read(la, &mut line);
                if let Some(ev) = self.caches[host.0 as usize].fill(la, line) {
                    self.apply_eviction(now, host, ev);
                }
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_fill(host, la);
                }
                fetched += CACHELINE;
            }
        }
        // Apply the store line by line.
        let mut cur = hpa;
        let end = hpa + len;
        while cur < end {
            let la = line_of(cur);
            let n = ((la + CACHELINE).min(end) - cur) as usize;
            let off = (cur - hpa) as usize;
            // simlint: allow(unwrap-in-datapath) -- off + n <= len == data.len() by the line-walk construction above
            if let Some(ev) = self.caches[host.0 as usize].store(cur, &data[off..off + n]) {
                self.apply_eviction(now, host, ev);
            }
            if let Some((a, lay)) = self.auditor() {
                a.on_store(&lay, now, host, la);
            }
            cur += n as u64;
        }
        let done = self.timed(PoolOp::Store, now, host, hpa, fetched)?;
        Ok(self.finish(PoolOp::Store, now, host, done))
    }

    /// Non-temporal store: bypasses the host cache and becomes visible
    /// to all hosts at the returned completion time. Any locally cached
    /// copies of the touched lines are dropped.
    pub fn nt_store(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        let len = data.len() as u64;
        self.begin(PoolOp::NtStore, now, host, hpa, len)?;
        self.caches[host.0 as usize].invalidate_range(hpa, len);
        let done = self.timed(PoolOp::NtStore, now, host, hpa, len)?;
        let shadow = self
            .auditor()
            .map(|(a, lay)| a.on_nt_store(&lay, now, host, hpa, len));
        self.enqueue_write(done, hpa, data, shadow);
        Ok(self.finish(PoolOp::NtStore, now, host, done))
    }

    /// Flushes `[hpa, hpa + len)` from the host's cache: dirty lines are
    /// written to the pool (visible at the returned time), clean lines
    /// are dropped.
    pub fn flush(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> Result<Nanos, FabricError> {
        self.begin(PoolOp::Flush, now, host, hpa, len)?;
        let mut dirty: Vec<(u64, [u8; CACHELINE as usize])> = Vec::new();
        self.caches[host.0 as usize].flush_range(hpa, len, &mut dirty);
        let bytes = dirty.len() as u64 * CACHELINE;
        self.stats.bytes_written += bytes;
        let done = self.timed(PoolOp::Flush, now, host, hpa, bytes)?;
        let mut shadow = self.auditor().and_then(|(a, lay)| {
            let dirty_lines: Vec<u64> = dirty.iter().map(|&(la, _)| la).collect();
            a.on_flush(&lay, now, host, hpa, len, &dirty_lines)
        });
        for (la, data) in dirty {
            self.enqueue_write(done, la, &data, shadow.take());
        }
        Ok(self.finish(PoolOp::Flush, now, host, done))
    }

    /// Drops `[hpa, hpa + len)` from the host's cache without writing
    /// back, so the next load refetches from the pool. This is how a
    /// reader guarantees freshness on non-coherent hardware.
    ///
    /// A range the access check rejects (see the [module docs](crate::fabric))
    /// charges nothing: the call returns `now`, and the load that
    /// follows reports the error. The invalidate itself returns a bare
    /// completion time rather than a `Result` because every caller
    /// chains it straight into that load, perfbench's probes included.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero, as every pool access does.
    pub fn invalidate(&mut self, now: Nanos, host: HostId, hpa: u64, len: u64) -> Nanos {
        if self.begin(PoolOp::Invalidate, now, host, hpa, len).is_err() {
            return now;
        }
        self.caches[host.0 as usize].invalidate_range(hpa, len);
        if let Some((a, lay)) = self.auditor() {
            a.on_invalidate(&lay, now, host, hpa, len);
        }
        let done = now + Fabric::invalidate_cost(hpa, len);
        self.finish(PoolOp::Invalidate, now, host, done)
    }

    /// What [`Fabric::invalidate`] charges for `[hpa, hpa + len)`.
    pub fn invalidate_cost(hpa: u64, len: u64) -> Nanos {
        let (first, end) = cache::span(hpa, len);
        Nanos(INVALIDATE_NS) * ((end - first) / CACHELINE)
    }

    /// What a [`Fabric::load`] of the one line at `la` adds to its start
    /// time when the line misses the host cache and every pipe on its
    /// path is idle: the same pipe arithmetic, booking nothing. `None`
    /// when the load would fail (unmapped, not granted, or no up path).
    /// Poll loops use it as the exact cost of an empty ring poll.
    pub fn idle_line_load(&self, host: HostId, la: u64) -> Option<Nanos> {
        let mhd = self.check(host, la, CACHELINE).ok()?.mhd_for(la);
        if !self.topology.mhd_is_up(mhd) {
            return None;
        }
        // With idle pipes `pick_link` takes the lowest-id up link.
        let link = self
            .topology
            .host_links(host)
            .find(|l| l.up && l.mhd == mhd)?
            .id;
        let wire = Nanos(self.params.cxl_wire_ns);
        Some(
            Nanos(PoolOp::Load.issue_ns(&self.params))
                + self.uplinks[link.0 as usize].service_time(CACHELINE)
                + wire
                + self.mhd_pipes[mhd.0 as usize].service_time(CACHELINE)
                + Nanos(self.params.cxl_device_ns)
                + self.downlinks[link.0 as usize].service_time(CACHELINE)
                + wire,
        )
    }

    // ---------------------------------------------------------------
    // Ring-slot wake table
    // ---------------------------------------------------------------

    /// Records that a ring sender's message store to slot line `la`
    /// becomes visible at `at`. Poll loops read it back through
    /// [`Fabric::wake_at`] to skip polls that provably find the slot
    /// empty; the entry carries no data, and loads never consult it.
    /// Slot stores are whole aligned lines, so `la` is also the
    /// store's address.
    pub fn post_wake(&mut self, la: u64, at: Nanos) {
        self.wakes.insert(la, at);
        self.wake_gen += 1;
    }

    /// Forgets slot line `la`'s wake (its message was consumed).
    pub fn clear_wake(&mut self, la: u64) {
        if self.wakes.remove(&la).is_some() {
            self.wake_gen += 1;
        }
    }

    /// When the unconsumed message posted to slot line `la` becomes
    /// loadable, if there is one: its visibility time, or
    /// [`Nanos::ZERO`] once an access has already settled it into pool
    /// memory (accesses settle in-flight writes up to their own start,
    /// so a lagging actor can load a message before its clock reaches
    /// the visibility time).
    pub fn wake_at(&self, la: u64) -> Option<Nanos> {
        self.wakes.get(&la).copied()
    }

    /// True while some posted ring message is still unconsumed.
    pub fn wakes_pending(&self) -> bool {
        !self.wakes.is_empty()
    }

    /// Settles every in-flight write visible by `now` into pool memory,
    /// as the start of any access at `now` does. A poll loop that skips
    /// empty polls calls it with its last skipped poll's load instant,
    /// so pool contents advance exactly as if those polls had run.
    ///
    /// This is the one place in-flight writes are ordered: each write's
    /// shadow lands in the auditor as the write is popped, so shadow
    /// versions always match pool-visible contents.
    pub fn settle(&mut self, now: Nanos) {
        loop {
            let Some(top) = self.pending.peek_mut() else {
                break;
            };
            if top.0.visible_at > now {
                break;
            }
            let Reverse(w) = PeekMut::pop(top);
            self.pool.write(w.hpa, &w.data);
            // A ring message settled into pool memory is loadable from
            // now on, even by an actor whose clock has not reached
            // `visible_at`.
            if let Some(wake) = self.wakes.get_mut(&w.hpa) {
                if *wake != Nanos::ZERO {
                    *wake = Nanos::ZERO;
                    self.wake_gen += 1;
                }
            }
            if let (Some((a, lay)), Some(shadow)) = (self.auditor(), w.shadow) {
                a.land(&lay, w.visible_at, *shadow);
            }
            self.write_bufs.give(w.data);
        }
    }

    /// Booking order over every link pipe (both directions) and MHD
    /// pipe: how many timeline bookings were served out of order, with
    /// no queueing, and their summed lag.
    pub fn timeline_order(&self) -> OrderStats {
        let mut total = OrderStats::default();
        for pipe in self
            .uplinks
            .iter()
            .chain(&self.downlinks)
            .chain(&self.mhd_pipes)
        {
            total += pipe.order_stats();
        }
        total
    }

    // ---------------------------------------------------------------
    // Pool access (device DMA side)
    // ---------------------------------------------------------------

    /// Device DMA read from the pool, issued by a device attached to
    /// `host`. Snoops the *attach host's* cache (DMA is coherent within
    /// one host on x86), so that host's dirty lines are observed; other
    /// hosts' caches are not snooped — their dirty data is invisible.
    pub fn dma_read(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        buf: &mut [u8],
    ) -> Result<Nanos, FabricError> {
        let len = buf.len() as u64;
        self.begin(PoolOp::DmaRead, now, host, hpa, len)?;
        if let Some((a, lay)) = self.auditor() {
            a.on_dma_read(&lay, now, host, hpa, len);
        }

        self.pool.read(hpa, buf);
        // Overlay the attach host's dirty lines, if it has any.
        let cache = &mut self.caches[host.0 as usize];
        if cache.dirty_lines() > 0 {
            cache.load_dirty_in(hpa, len, |la, line| copy_line_to_buf(la, line, hpa, buf));
        }
        let done = self.timed(PoolOp::DmaRead, now, host, hpa, len)?;
        Ok(self.finish(PoolOp::DmaRead, now, host, done))
    }

    /// Device DMA write to the pool, issued by a device attached to
    /// `host`. Visible at the returned completion time; snoop-invalidates
    /// the attach host's cached copies (remote hosts stay stale — they
    /// must invalidate before reading).
    pub fn dma_write(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        let len = data.len() as u64;
        self.begin(PoolOp::DmaWrite, now, host, hpa, len)?;
        self.caches[host.0 as usize].invalidate_range(hpa, len);
        let done = self.timed(PoolOp::DmaWrite, now, host, hpa, len)?;
        let shadow = self
            .auditor()
            .map(|(a, lay)| a.on_dma_write(&lay, now, host, hpa, len));
        self.enqueue_write(done, hpa, data, shadow);
        Ok(self.finish(PoolOp::DmaWrite, now, host, done))
    }

    // ---------------------------------------------------------------
    // Local DRAM access
    // ---------------------------------------------------------------

    /// CPU load, or device DMA read, from the host's local DRAM (always
    /// coherent within the host).
    pub fn local_load(&mut self, now: Nanos, host: HostId, addr: u64, buf: &mut [u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].read(addr, buf);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, buf.len() as u64);
        xfer + Nanos(self.params.local_load_ns)
    }

    /// CPU store, or device DMA write, to the host's local DRAM.
    pub fn local_store(&mut self, now: Nanos, host: HostId, addr: u64, data: &[u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].write(addr, data);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, data.len() as u64);
        xfer + Nanos(self.params.local_store_ns)
    }

    // ---------------------------------------------------------------
    // Debug / test access
    // ---------------------------------------------------------------

    /// Forces all in-flight writes visible and reads raw pool contents
    /// (no timing, no cache). For tests and assertions only; production
    /// builds compile this escape hatch out (`debug-peek` feature).
    #[cfg(any(test, feature = "debug-peek"))]
    pub fn peek_settled(&mut self, hpa: u64, buf: &mut [u8]) {
        self.settle(Nanos::MAX);
        self.pool.read(hpa, buf);
    }

    /// Reads raw pool contents as currently visible (in-flight writes
    /// excluded). For tests only; production builds compile this escape
    /// hatch out (`debug-peek` feature).
    #[cfg(any(test, feature = "debug-peek"))]
    pub fn peek(&self, hpa: u64, buf: &mut [u8]) {
        self.pool.read(hpa, buf);
    }

    /// Utilization of a link's uplink direction over `[0, horizon]`.
    pub fn uplink_utilization(&self, link: LinkId, horizon: Nanos) -> f64 {
        self.uplinks[link.0 as usize].utilization(horizon)
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// The prologue every pool access shares: settles the writes
    /// visible by `now`, checks the range, then counts the access.
    /// Settling comes first, so a rejected access still advances pool
    /// contents to `now`.
    fn begin(
        &mut self,
        op: PoolOp,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> Result<(), FabricError> {
        self.settle(now);
        self.check(host, hpa, len)?;
        op.count(&mut self.stats, len);
        Ok(())
    }

    /// The epilogue every pool access shares: emits the audit findings
    /// raised since the last sync as trace instants, then records the
    /// access's span when fabric-op tracing is on. Returns `done`.
    fn finish(&mut self, op: PoolOp, now: Nanos, host: HostId, done: Nanos) -> Nanos {
        self.sync_trace_audit();
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.config().fabric_ops {
                tr.span(op.track(host), op.span_name(), now, done);
            }
        }
        done
    }

    /// The segment holding `[hpa, hpa + len)`, if it is mapped, granted
    /// to `host` and holds the whole range.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    fn check(&self, host: HostId, hpa: u64, len: u64) -> Result<&Segment, FabricError> {
        assert!(len > 0, "zero-length access");
        let seg = self.alloc.segment_at(hpa)?;
        if !seg.grants(host) {
            return Err(FabricError::AccessDenied { host, hpa });
        }
        if hpa + len > seg.end() {
            return Err(FabricError::OutOfBounds { hpa, len });
        }
        Ok(seg)
    }

    /// Settles one cache eviction: dirty victims write back to the
    /// pool immediately; clean victims just leave the host's shadow
    /// view so a later refetch is audited as a fresh miss.
    fn apply_eviction(&mut self, now: Nanos, host: HostId, ev: Eviction) {
        match ev.writeback {
            Some(data) => {
                self.pool.write(ev.addr, &data);
                self.stats.bytes_written += CACHELINE;
                if let Some((a, lay)) = self.auditor() {
                    a.on_dirty_eviction(&lay, now, host, ev.addr);
                }
            }
            None => {
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_clean_eviction(host, ev.addr);
                }
            }
        }
    }

    fn enqueue_write(
        &mut self,
        visible_at: Nanos,
        hpa: u64,
        data: &[u8],
        shadow: Option<ShadowWrite>,
    ) {
        let seq = self.pending_seq;
        self.pending_seq += 1;
        let data = self.write_bufs.take(data);
        self.pending.push(Reverse(PendingWrite {
            visible_at,
            seq,
            hpa,
            data,
            shadow: shadow.map(Box::new),
        }));
    }

    /// Picks the least-backlogged up link from `host` to `mhd`.
    ///
    /// Iterates candidates directly (no intermediate `Vec`);
    /// `min_by_key` keeps the first of equal minimums, i.e. the lowest
    /// link id, matching the materialised-path order it replaced.
    fn pick_link(&self, now: Nanos, host: HostId, mhd: MhdId) -> Result<LinkId, FabricError> {
        if !self.topology.mhd_is_up(mhd) {
            return Err(FabricError::NoPath { host, mhd });
        }
        self.topology
            .host_links(host)
            .filter(|l| l.up && l.mhd == mhd)
            .map(|l| l.id)
            .min_by_key(|l| self.uplinks[l.0 as usize].backlog(now))
            .ok_or(FabricError::NoPath { host, mhd })
    }

    /// Books `bytes` of `op`'s pool traffic over the interleave set of
    /// the segment at `hpa` and returns when it completes. A read sends
    /// a request up each involved link and streams the data back down;
    /// a write streams the data up into the MHD. An access that moves
    /// no bytes was served by the host cache.
    fn timed(
        &mut self,
        op: PoolOp,
        now: Nanos,
        host: HostId,
        hpa: u64,
        bytes: u64,
    ) -> Result<Nanos, FabricError> {
        if bytes == 0 {
            return Ok(now + Nanos(CACHE_HIT_NS));
        }
        let seg = self.alloc.segment_at(hpa)?;
        seg.spread_into(
            hpa,
            bytes.min(seg.end() - hpa).max(1),
            &mut self.spread_scratch,
        );
        let wire = Nanos(self.params.cxl_wire_ns);
        let dev = self.params.cxl_device_ns;
        let t_issue = now + Nanos(op.issue_ns(&self.params));
        let mut done = Nanos::ZERO;
        for i in 0..self.spread_scratch.len() {
            let (mhd, b) = self.spread_scratch[i];
            let link = self.pick_link(now, host, mhd)?.0 as usize;
            let mhd_pipe = &mut self.mhd_pipes[mhd.0 as usize];
            let end = if op.writes_pool() {
                let at_dev = self.uplinks[link].transfer(t_issue, b) + wire;
                mhd_pipe.transfer(at_dev, b) + Nanos(dev / 2)
            } else {
                // Request packet (header-sized; modelled as one line).
                let at_dev = self.uplinks[link].transfer(t_issue, CACHELINE) + wire;
                let dev_ready = mhd_pipe.transfer(at_dev, b);
                self.downlinks[link].transfer(dev_ready + Nanos(dev), b) + wire
            };
            done = done.max(end);
        }
        Ok(done)
    }
}

/// The seven pool accesses, as [`Fabric::begin`] counts them and
/// [`Fabric::finish`] records them.
#[derive(Clone, Copy)]
enum PoolOp {
    Load,
    Store,
    NtStore,
    Flush,
    Invalidate,
    DmaRead,
    DmaWrite,
}

impl PoolOp {
    fn is_dma(self) -> bool {
        matches!(self, PoolOp::DmaRead | PoolOp::DmaWrite)
    }

    /// True for the kinds whose pool traffic is a write.
    fn writes_pool(self) -> bool {
        matches!(self, PoolOp::NtStore | PoolOp::Flush | PoolOp::DmaWrite)
    }

    /// Bumps this kind's [`AccessStats`] counter and, for the kinds that
    /// move exactly their range, its byte counter. Flush write-backs and
    /// eviction write-backs depend on cache state and are counted where
    /// they happen.
    fn count(self, stats: &mut AccessStats, len: u64) {
        match self {
            PoolOp::Load => {
                stats.loads += 1;
                stats.bytes_read += len;
            }
            PoolOp::Store => stats.stores += 1,
            PoolOp::NtStore => {
                stats.nt_stores += 1;
                stats.bytes_written += len;
            }
            PoolOp::Flush => stats.flushes += 1,
            PoolOp::Invalidate => {}
            PoolOp::DmaRead => {
                stats.dma_reads += 1;
                stats.bytes_read += len;
            }
            PoolOp::DmaWrite => {
                stats.dma_writes += 1;
                stats.bytes_written += len;
            }
        }
    }

    /// The CPU's issue overhead; a device issues its own DMA.
    fn issue_ns(self, params: &FabricParams) -> u64 {
        if self.is_dma() {
            0
        } else {
            params.cxl_host_overhead_ns
        }
    }

    fn track(self, host: HostId) -> Track {
        if self.is_dma() {
            Track::Dma(host.0)
        } else {
            Track::HostCpu(host.0)
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            PoolOp::Load => "fabric/load",
            PoolOp::Store => "fabric/store",
            PoolOp::NtStore => "fabric/nt_store",
            PoolOp::Flush => "fabric/flush",
            PoolOp::Invalidate => "fabric/invalidate",
            PoolOp::DmaRead => "fabric/dma_read",
            PoolOp::DmaWrite => "fabric/dma_write",
        }
    }
}

/// The trace track of the actor that triggered a violation (the later
/// access of the conflicting pair, where the hazard became observable).
fn violation_track(kind: &ViolationKind) -> Track {
    match kind {
        ViolationKind::StaleRead { reader, .. } => Track::HostCpu(reader.0),
        ViolationKind::TornRead { reader, .. } => Track::HostCpu(reader.0),
        ViolationKind::LostWrite { by, .. } => Track::HostCpu(by.0),
        ViolationKind::WriteWriteConflict { second, .. } => Track::HostCpu(second.0),
        ViolationKind::UnflushedWrite { writer, .. } => Track::HostCpu(writer.0),
        ViolationKind::ConcurrentConflict { second, .. } => match second {
            Actor::Cpu(h) => Track::HostCpu(h.0),
            Actor::Dma(h) => Track::Dma(h.0),
        },
    }
}

fn line_of(addr: u64) -> u64 {
    addr & !(CACHELINE - 1)
}

/// Iterates the line addresses overlapping `[hpa, hpa + len)`.
fn lines(hpa: u64, len: u64) -> impl Iterator<Item = u64> {
    let (first, end) = cache::span(hpa, len);
    (first..end).step_by(CACHELINE as usize)
}

/// Copies the overlap between cache line `la` (contents `line`) and the
/// buffer mapped at `[hpa, hpa + buf.len())` into the buffer.
fn copy_line_to_buf(la: u64, line: &[u8; CACHELINE as usize], hpa: u64, buf: &mut [u8]) {
    let buf_end = hpa + buf.len() as u64;
    let start = la.max(hpa);
    let end = (la + CACHELINE).min(buf_end);
    if start >= end {
        return;
    }
    let src = (start - la) as usize;
    let dst = (start - hpa) as usize;
    let n = (end - start) as usize;
    buf[dst..dst + n].copy_from_slice(&line[src..src + n]);
}

#[cfg(test)]
mod tests {
    // peek/peek_settled are the whole point of these assertions
    // (clippy.toml forbids them outside test code).
    #![allow(clippy::disallowed_methods)]

    use super::*;

    fn pod() -> Fabric {
        Fabric::new(PodConfig::new(4, 2, 2))
    }

    #[test]
    fn nt_store_visible_to_other_host_after_completion() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let done = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[0xAB; 64])
            .expect("store");
        assert!(done > Nanos(0));
        // Before completion the old data (zero) is visible.
        let mut buf = [0xFFu8; 64];
        f.peek(seg.base(), &mut buf);
        assert_eq!(buf, [0u8; 64]);
        // At completion the new data is visible to host 1.
        let mut buf = [0u8; 64];
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0xABu8; 64]);
    }

    #[test]
    fn cached_store_is_stale_until_flush() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Host 0 writes through its cache (no flush).
        f.store(Nanos(0), HostId(0), seg.base(), &[1u8; 64])
            .expect("store");
        // Host 1 sees zeroes: the write sits in host 0's cache.
        let mut buf = [9u8; 64];
        f.load(Nanos(10_000), HostId(1), seg.base(), &mut buf)
            .expect("load");
        assert_eq!(buf, [0u8; 64], "host 1 must not see unflushed data");
        // After host 0 flushes, a *fresh* read by host 1 still returns
        // stale data from host 1's own cache...
        let done = f
            .flush(Nanos(20_000), HostId(0), seg.base(), 64)
            .expect("flush");
        let mut buf = [9u8; 64];
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0u8; 64], "host 1's cached copy is stale");
        // ...until host 1 invalidates its copy.
        let t = f.invalidate(done, HostId(1), seg.base(), 64);
        let mut buf = [9u8; 64];
        f.load(t, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn idle_load_latency_matches_calibration() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        let done = f
            .load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        let idle = done.as_nanos();
        // Paper: ~2.15x local 90 ns => ~194 ns, allow ±10%.
        assert!(
            (idle as f64 - 194.0).abs() / 194.0 < 0.10,
            "idle CXL load {idle} ns"
        );
    }

    #[test]
    fn cache_hit_is_fast_and_stale() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("miss");
        let done = f
            .load(Nanos(1000), HostId(0), seg.base(), &mut buf)
            .expect("hit");
        assert_eq!(done, Nanos(1000 + CACHE_HIT_NS));
    }

    #[test]
    fn local_dram_is_faster_than_pool() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        let pool_t = f
            .load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        let local_t = f.local_load(Nanos(0), HostId(0), 0x1000, &mut buf);
        assert!(local_t < pool_t, "local {local_t:?} vs pool {pool_t:?}");
        let ratio = pool_t.as_nanos() as f64 / local_t.as_nanos() as f64;
        assert!(ratio > 1.8, "CXL/local ratio {ratio}");
    }

    #[test]
    fn access_denied_for_non_owner() {
        let mut f = pod();
        let seg = f.alloc_private(HostId(0), 4096).expect("alloc");
        let mut buf = [0u8; 8];
        let err = f
            .load(Nanos(0), HostId(2), seg.base(), &mut buf)
            .unwrap_err();
        assert!(matches!(err, FabricError::AccessDenied { .. }));
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let mut f = pod();
        let seg = f.alloc_private(HostId(0), 128).expect("alloc");
        let err = f
            .nt_store(Nanos(0), HostId(0), seg.base() + 100, &[0u8; 64])
            .unwrap_err();
        assert!(matches!(err, FabricError::OutOfBounds { .. }));
    }

    #[test]
    fn dma_write_then_remote_load_needs_invalidate() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Host 1 caches the line first.
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(1), seg.base(), &mut buf)
            .expect("load");
        // A device on host 0 DMA-writes it.
        let done = f
            .dma_write(Nanos(1000), HostId(0), seg.base(), &[5u8; 64])
            .expect("dma");
        // Host 1 still sees its stale cached copy...
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0u8; 64]);
        // ...until it invalidates.
        let t = f.invalidate(done, HostId(1), seg.base(), 64);
        f.load(t, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn dma_read_snoops_attach_host_dirty_lines() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        f.store(Nanos(0), HostId(0), seg.base(), &[3u8; 64])
            .expect("store");
        // DMA by a device on host 0 sees the dirty cached data.
        let mut buf = [0u8; 64];
        f.dma_read(Nanos(100), HostId(0), seg.base(), &mut buf)
            .expect("dma");
        assert_eq!(buf, [3u8; 64]);
    }

    #[test]
    fn mhd_failure_makes_segment_unreachable() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        for m in 0..f.topology().mhds() {
            f.topology_mut().fail_mhd(MhdId(m));
        }
        let mut buf = [0u8; 8];
        // Cached lines still "work" (CPU cache survives) but a fresh
        // address misses and fails.
        let err = f
            .load(Nanos(0), HostId(0), seg.base() + 512, &mut buf)
            .unwrap_err();
        assert!(matches!(err, FabricError::NoPath { .. }));
    }

    #[test]
    fn bulk_write_time_tracks_link_bandwidth() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 1 << 20).expect("alloc");
        let data = vec![1u8; 256 * 1024];
        let done = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &data)
            .expect("store");
        // 256 KiB over 2x30 GB/s interleaved links: >= 4.3 us; with one
        // link it would be ~8.7 us. Accept the interleaved regime.
        let us = done.as_nanos() as f64 / 1000.0;
        assert!(us > 3.0 && us < 10.0, "bulk store took {us} us");
    }

    #[test]
    fn stats_count_operations() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        f.nt_store(Nanos(10), HostId(0), seg.base(), &[0u8; 64])
            .expect("nt");
        f.flush(Nanos(20), HostId(0), seg.base(), 64)
            .expect("flush");
        let s = f.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.nt_stores, 1);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn lines_iterator_covers_range() {
        let ls: Vec<u64> = lines(100, 200).collect();
        assert_eq!(ls.first().copied(), Some(64));
        assert_eq!(ls.last().copied(), Some(256));
        assert_eq!(ls.len(), 4);
    }

    #[test]
    fn pending_writes_apply_in_timestamp_order() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Two writes to the same line; the later-visible one wins.
        let d1 = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[1u8; 64])
            .expect("w1");
        let d2 = f
            .nt_store(d1, HostId(0), seg.base(), &[2u8; 64])
            .expect("w2");
        let mut buf = [0u8; 64];
        f.peek_settled(seg.base(), &mut buf);
        assert_eq!(buf, [2u8; 64]);
        assert!(d2 > d1);
    }
    #[test]
    fn same_instant_writes_to_one_line_settle_in_enqueue_order() {
        // Idle-path completion of a 64 B and a 128 B write issued at 0:
        // a 128 B write issued that much earlier than a 64 B one lands
        // at the same instant (both pipes book it out of order).
        let idle_done = |len: usize| {
            let mut f = pod();
            let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
            f.nt_store(Nanos(0), HostId(0), seg.base(), &vec![0u8; len])
                .expect("store")
        };
        let lead = idle_done(128) - idle_done(64);
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let la = seg.base();
        let first = f
            .nt_store(Nanos(1_000), HostId(0), la, &[1u8; 64])
            .expect("first");
        let second = f
            .nt_store(Nanos(1_000) - lead, HostId(0), la, &[2u8; 128])
            .expect("second");
        assert_eq!(first, second, "both writes become visible together");
        f.settle(first - Nanos(1));
        let mut buf = [0u8; 128];
        f.peek(la, &mut buf);
        assert_eq!(buf, [0u8; 128], "neither is visible early");
        f.settle(first);
        f.peek(la, &mut buf);
        assert_eq!(buf, [2u8; 128], "the later-enqueued write lands last");
    }

    #[test]
    fn re_enabled_audit_does_not_land_writes_it_never_saw_issued() {
        let vc = AuditConfig {
            mode: crate::audit::AuditMode::VectorClock,
            ..AuditConfig::default()
        };
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        f.enable_audit(vc);
        let done = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[1u8; 64])
            .expect("nt");
        f.enable_audit(vc);
        // The write lands in pool memory, but the fresh auditor never
        // saw it issued, so host 1's unordered read races nothing.
        let mut buf = [0u8; 64];
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [1u8; 64]);
        let report = f.audit_report().expect("audit on");
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn short_write_after_a_longer_one_changes_only_its_own_bytes() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let long = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[7u8; 128])
            .expect("long");
        f.settle(long);
        let mut before = vec![0u8; 4096];
        f.peek(seg.base(), &mut before);
        let short = f
            .nt_store(long, HostId(0), seg.base() + 256, &[9u8; 64])
            .expect("short");
        f.settle(short);
        let mut after = vec![0u8; 4096];
        f.peek(seg.base(), &mut after);
        let changed: Vec<usize> = (0..4096).filter(|&i| before[i] != after[i]).collect();
        assert_eq!(changed, (256..320).collect::<Vec<_>>());
        assert!(after[256..320].iter().all(|&b| b == 9));
        assert!(after[..128].iter().all(|&b| b == 7));
    }

    #[test]
    fn wake_table_tracks_settling_and_segment_frees() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let la = seg.base() + 64;
        let vis = f
            .nt_store(Nanos(0), HostId(0), la, &[9u8; 64])
            .expect("store");
        f.post_wake(la, vis);
        assert!(f.wakes_pending());
        assert_eq!(f.wake_at(la), Some(vis));
        // Settling before visibility leaves the wake alone; settling
        // past it makes the message loadable now.
        f.settle(vis - Nanos(1));
        assert_eq!(f.wake_at(la), Some(vis));
        f.settle(vis);
        assert_eq!(f.wake_at(la), Some(Nanos::ZERO));
        f.clear_wake(la);
        assert!(!f.wakes_pending());
        // Freeing a segment forgets the wakes posted inside it only.
        let other = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        f.post_wake(la, vis);
        f.post_wake(other.base(), vis);
        f.free_segment(seg.id()).expect("free");
        assert_eq!(f.wake_at(la), None);
        assert_eq!(f.wake_at(other.base()), Some(vis));
    }

    #[test]
    fn generations_count_wake_and_layout_changes() {
        let mut f = pod();
        let gens = |f: &Fabric| (f.layout_generation(), f.wake_generation());
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        assert_eq!(gens(&f), (0, 0), "allocation changes no generation");
        let la = seg.base();
        let vis = f
            .nt_store(Nanos(0), HostId(0), la, &[9u8; 64])
            .expect("store");
        f.post_wake(la, vis);
        assert_eq!(gens(&f), (0, 1));
        // Only a settle that turns the wake loadable counts, once.
        f.settle(vis - Nanos(1));
        assert_eq!(gens(&f), (0, 1));
        f.settle(vis);
        assert_eq!(gens(&f), (0, 2));
        f.clear_wake(la);
        f.clear_wake(la);
        assert_eq!(gens(&f), (0, 3), "clearing nothing changes nothing");
        f.topology_mut().fail_mhd(MhdId(0));
        assert_eq!(gens(&f), (1, 3));
        f.free_segment(seg.id()).expect("free");
        assert_eq!(gens(&f), (2, 4));
    }

    #[test]
    fn freed_segment_releases_pool_pages_and_in_flight_writes() {
        let mut f = pod();
        let keep = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        f.nt_store(Nanos(0), HostId(0), keep.base(), &[1u8; 64])
            .expect("store");
        f.settle(Nanos::MAX);
        let resident = f.pool.resident_pages();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 3 * 4096 + 100)
            .expect("alloc");
        let data = vec![7u8; (3 * 4096 + 100) as usize];
        f.dma_write(Nanos(0), HostId(0), seg.base(), &data)
            .expect("dma");
        f.settle(Nanos::MAX);
        assert!(f.pool.resident_pages() > resident);
        // A write still in flight when the segment goes.
        let late = f
            .nt_store(Nanos(1_000_000), HostId(1), seg.base() + 4096, &[9u8; 64])
            .expect("store");
        f.free_segment(seg.id()).expect("free");
        assert_eq!(f.pool.resident_pages(), resident);
        f.settle(late);
        let mut buf = vec![0u8; data.len()];
        f.peek(seg.base(), &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "in-flight write materialised");
        assert_eq!(f.pool.resident_pages(), resident);
        // The surviving segment is untouched.
        let mut line = [0u8; 64];
        f.peek(keep.base(), &mut line);
        assert_eq!(line, [1u8; 64]);
    }

    #[test]
    fn freed_segment_leaves_no_line_in_host_caches() {
        let params = FabricParams {
            host_cache_lines: 4,
            ..FabricParams::default()
        };
        let mut f = Fabric::new(PodConfig::new(2, 2, 2).with_params(params));
        f.enable_audit(AuditConfig {
            mode: crate::audit::AuditMode::VectorClock,
            ..AuditConfig::default()
        });
        let hosts = [HostId(0), HostId(1)];
        let a = f.alloc_shared(&hosts, 4096).expect("alloc");
        let b = f.alloc_shared(&hosts, 4096).expect("alloc");
        let t = f
            .store(Nanos(0), HostId(0), a.base(), &[0xab; 64])
            .expect("store");
        let (written, cache) = (f.stats().bytes_written, f.cache_stats(HostId(0)));
        f.free_segment(a.id()).expect("free");
        assert_eq!(f.caches[0].dirty_lines(), 0, "freed dirty line kept");
        assert_eq!(f.cache_stats(HostId(0)), cache, "the drop is not counted");
        // Eight loads from B cycle host 0's four-line cache twice: a
        // freed line still resident would be evicted and written back.
        let mut t = t;
        let mut line = [0u8; 64];
        for i in 0..8 {
            t = f
                .load(t, HostId(0), b.base() + i * 64, &mut line)
                .expect("load");
        }
        f.settle(Nanos::MAX);
        f.peek(a.base(), &mut line);
        assert_eq!(line, [0u8; 64], "freed line written back");
        assert_eq!(f.stats().bytes_written, written);
        let in_a = |la: u64| (a.base()..a.end()).contains(&la);
        let race = f.race_report().expect("audit on");
        assert!(race.line_clocks.iter().all(|&(la, ..)| !in_a(la)));
        let report = f.audit_report().expect("audit on");
        assert!(report.violations.iter().all(|v| !in_a(v.line)));
    }

    #[test]
    fn idle_line_load_matches_an_uncontended_miss() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let idle = f.idle_line_load(HostId(1), seg.base()).expect("path");
        let mut line = [0u8; 64];
        let t = Nanos(10_000);
        let done = f.load(t, HostId(1), seg.base(), &mut line).expect("load");
        assert_eq!(done, t + idle);
        // No grant, or no path: the load would fail.
        assert_eq!(f.idle_line_load(HostId(2), seg.base()), None);
        let mhd = f.segment_at(seg.base()).expect("seg").mhd_for(seg.base());
        f.topology_mut().fail_mhd(mhd);
        assert_eq!(f.idle_line_load(HostId(1), seg.base()), None);
    }

    /// Every pool access in one call shape; `invalidate`'s bare time
    /// comes back as `Ok`.
    type Access = fn(&mut Fabric, Nanos, HostId, u64, u64) -> Result<Nanos, FabricError>;

    fn accesses() -> [(&'static str, Access); 7] {
        [
            ("load", |f, t, h, a, n| {
                f.load(t, h, a, &mut vec![0; n as usize])
            }),
            ("store", |f, t, h, a, n| {
                f.store(t, h, a, &vec![1; n as usize])
            }),
            ("nt_store", |f, t, h, a, n| {
                f.nt_store(t, h, a, &vec![1; n as usize])
            }),
            ("flush", |f, t, h, a, n| f.flush(t, h, a, n)),
            ("invalidate", |f, t, h, a, n| Ok(f.invalidate(t, h, a, n))),
            ("dma_read", |f, t, h, a, n| {
                f.dma_read(t, h, a, &mut vec![0; n as usize])
            }),
            ("dma_write", |f, t, h, a, n| {
                f.dma_write(t, h, a, &vec![1; n as usize])
            }),
        ]
    }

    /// Everything an access can charge: counters, pipe bookings, audit
    /// ops and trace events.
    fn charges(f: &Fabric) -> String {
        let tr = f.trace().expect("trace on");
        format!(
            "{:?} {:?} audited {} events {}",
            f.stats(),
            f.timeline_order(),
            f.audit_report().expect("audit on").ops_audited,
            tr.event_count() as u64 + tr.dropped()
        )
    }

    #[test]
    fn every_access_rejects_a_bad_range_and_charges_nothing() {
        let mut f = pod();
        f.enable_audit(AuditConfig::default());
        f.enable_trace(TraceConfig {
            fabric_ops: true,
            ..TraceConfig::default()
        });
        let seg = f.alloc_private(HostId(0), 4096).expect("alloc");
        let now = Nanos(1_000);
        for (name, access) in accesses() {
            access(&mut f, now, HostId(0), seg.base(), 64).expect(name);
        }
        for off in [0, 8] {
            let unmapped = seg.end() + 4096 + off;
            let stranger = seg.base() + off;
            let straddle = seg.end() - 64 + off;
            let cases = [
                (
                    "unmapped",
                    HostId(0),
                    unmapped,
                    64,
                    FabricError::Unmapped { hpa: unmapped },
                ),
                (
                    "not granted",
                    HostId(3),
                    stranger,
                    64,
                    FabricError::AccessDenied {
                        host: HostId(3),
                        hpa: stranger,
                    },
                ),
                (
                    "out of bounds",
                    HostId(0),
                    straddle,
                    128,
                    FabricError::OutOfBounds {
                        hpa: straddle,
                        len: 128,
                    },
                ),
            ];
            for (case, host, hpa, len, err) in cases {
                for (name, access) in accesses() {
                    let before = charges(&f);
                    let got = access(&mut f, now, host, hpa, len);
                    let want = if name == "invalidate" {
                        Ok(now)
                    } else {
                        Err(err.clone())
                    };
                    assert_eq!(got, want, "{name}, {case} at {hpa:#x}");
                    assert_eq!(charges(&f), before, "{name}, {case} at {hpa:#x}");
                }
            }
        }
    }

    #[test]
    fn a_zero_length_range_panics_for_every_access() {
        for off in [0, 8] {
            for (name, access) in accesses() {
                let mut f = pod();
                let seg = f.alloc_private(HostId(0), 4096).expect("alloc");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    access(&mut f, Nanos(0), HostId(0), seg.base() + off, 0)
                }));
                assert!(outcome.is_err(), "{name} took 0 bytes at +{off}");
            }
        }
    }

    #[test]
    fn timeline_order_totals_link_and_mhd_pipes() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut line = [0u8; 64];
        let t = f
            .load(Nanos(5_000), HostId(0), seg.base(), &mut line)
            .expect("load");
        assert!(t > Nanos(5_000));
        assert_eq!(f.timeline_order().out_of_order, 0);
        // An earlier-time access books behind the first on every pipe
        // it crosses: uplink, MHD, downlink.
        f.invalidate(Nanos(0), HostId(0), seg.base(), 64);
        f.load(Nanos(0), HostId(0), seg.base(), &mut line)
            .expect("load");
        let order = f.timeline_order();
        assert_eq!((order.bookings, order.out_of_order), (6, 3));
        assert!(order.lag > Nanos::ZERO);
    }
}
