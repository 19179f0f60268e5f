//! Coherence-violation checker: a shadow-state race/staleness detector.
//!
//! CXL pool memory is not cache-coherent across hosts, so correctness
//! rests on a *discipline*: writers publish with non-temporal stores or
//! explicit flushes, readers invalidate before loading, and no two
//! hosts hold the same line dirty. The fabric makes violations of that
//! discipline *observable* (stale bytes come back), but a test only
//! notices if the stale bytes happen to change its outcome. This module
//! makes violations *diagnosable*: an opt-in [`Auditor`] shadows every
//! pool access and reports each hazard with full provenance — who
//! wrote, when it became visible, and who read around it.
//!
//! ## Shadow state
//!
//! Per cache line the auditor tracks the latest *visible* write event
//! (writer, kind, issue/visibility times) plus a monotone application
//! `version`: the write's landing number, assigned in visibility order
//! — issue order and visibility order differ when a slow large write
//! overlaps a fast small one, so staleness is judged on versions, never
//! on issue ids. Per (host, line) it tracks the version that host's
//! cached copy reflects and whether the host holds the line dirty. The
//! auditor keeps no in-flight writes of its own: each write hook
//! returns the write's [`ShadowWrite`], which rides with the write in
//! the fabric's pending-write heap and lands (through [`Auditor::land`])
//! when `Fabric::settle` pops the write.
//!
//! Visible-write state is kept as *extents*, not per line: each applied
//! write range is one extent of pool addresses pointing at its event,
//! split only where a later write overlaps it, and a line's version is
//! its event's. Only host views — lines some CPU caches — are kept per
//! line, in a paged table with occupancy bitmaps. So a DMA or
//! non-temporal store of many lines costs one segment resolution and
//! one ordered walk over the extents and cached lines it touches, not
//! a step per line.
//!
//! ## Audit modes
//!
//! Both modes run one analysis: a happens-before race detector over
//! the version shadow state. Every ordering agent is an [`Actor`] —
//! one per host CPU plus one per DMA attach point — with its own
//! [`VClock`] component. In [`AuditMode::VectorClock`] an actor's
//! component advances on each of its ops; in [`AuditMode::Version`]
//! the clocks never tick, so every clock is empty and there are no
//! happens-before edges. Then every write is ordered before every
//! read, nothing races, and a missed write always counts as stale:
//! sound but over-approximate, since two writes landed by the same
//! `Fabric::settle` get an arbitrary relative order and a DMA
//! write racing a CPU publish is reported as a definitely-ordered
//! stale read.
//!
//! Cross-actor edges come only from real coherence actions:
//!
//! - **release**: every visible write (nt-store, flush, DMA write,
//!   eviction) snapshots its actor's clock;
//! - **acquire**: a load miss on a line inside a registered *sync
//!   range* (message rings — see `Fabric::mark_sync_range`) joins the
//!   observed write's clock;
//! - **DMA issue**: a DMA op joins the attach host's CPU clock (the
//!   doorbell orders it after the CPU's prior work);
//! - **DMA completion**: [`Auditor::on_dma_complete`] joins the DMA
//!   clock back into the CPU clock (the CQE orders the device's writes
//!   before subsequent CPU work).
//!
//! Conflicting accesses whose clocks are incomparable race: they are
//! reported as [`ViolationKind::ConcurrentConflict`] with both actors'
//! full clock snapshots. The version-based violations stay and become
//! *precise*: staleness is only reported as [`ViolationKind::StaleRead`]
//! when the missed write happens-before the reader; otherwise it is a
//! race, not staleness.
//!
//! ## Violations
//!
//! - [`ViolationKind::StaleRead`]: a host load was served from a cached
//!   copy older than another host's visible write to that line.
//! - [`ViolationKind::TornRead`]: one load spanning several lines
//!   observed a multi-line write event on some lines but not others
//!   (e.g. a partial invalidate), outside tear-tolerant ranges.
//! - [`ViolationKind::LostWrite`]: dirty data was discarded
//!   (invalidate / overwrite without publish) or a publish based on a
//!   stale copy clobbered another host's newer visible write.
//! - [`ViolationKind::WriteWriteConflict`]: two hosts held the same
//!   line dirty at once — whichever publishes second silently wins.
//! - [`ViolationKind::UnflushedWrite`]: at finalize, a host still held
//!   dirty data on a segment other hosts can read — a write the
//!   discipline never published.
//! - [`ViolationKind::ConcurrentConflict`]: two conflicting accesses
//!   with incomparable vector clocks (vector-clock mode only).
//!
//! Protocols that *tolerate* tearing by design (a reader that re-reads
//! until a version word matches) register their payload range as
//! tear-tolerant so retry loops are not reported as hazards.
//!
//! ## Failure-domain namespacing
//!
//! A multi-MHD pod groups MHDs into failure domains
//! ([`crate::topology::DomainId`]), and the auditor namespaces its
//! analysis by domain: dedup keys and the race report's line order are
//! keyed by `(domain, line)`, torn reads are judged within one domain's
//! lines of a load, and vector-clock components are per `(actor,
//! domain)` via [`Actor::index_in`].
//!
//! Versions come from one counter, the number of writes landed so far,
//! yet invent no order across independent devices, because no report
//! compares versions across domains. A version is only compared with
//! another on one line (a stale hit, a clobbered write, a flush's
//! merge base) or among one domain's lines of one load (a torn read),
//! and the landing order restricted to one domain's writes is exactly
//! that domain's own visibility order. An overwrite (non-temporal store
//! or DMA write) takes as its base the landing count when it was
//! issued: the write current on a line when the overwrite lands is
//! newer than the one current at issue exactly when it landed after
//! the issue. That holds because a shadow lands only in the auditor
//! that issued it, on state no segment free has cleared since:
//! `Fabric::free_segment` drops the shadows of writes into the freed
//! segment, and `Fabric::enable_audit` drops every shadow of the
//! auditor it replaces.
//!
//! The auditor keeps no domain table of its own: each hook that needs
//! a line's domain takes a [`Layout`], the fabric's segment table and
//! topology, and resolves the line through them (its segment, the MHD
//! backing its interleave granule, that MHD's domain). It resolves one
//! only where the domain is read, since shadow lookups go by address:
//! a load resolves its lines only when it spans several, and a fill
//! takes no [`Layout`] at all. A line no live
//! segment holds audits in [`DomainId`]`(0)`, which keeps single-domain
//! pods (and direct-drive tests) byte-for-byte compatible with the
//! pre-domain auditor. Shadow state is keyed by address, so
//! [`Auditor::on_segment_free`] clears the freed range's state: a later
//! tenant of the same addresses, in whatever domain, is audited from
//! scratch.

use std::collections::BTreeMap;

use simkit::hash::{DetHashMap, DetHashSet};
use simkit::Nanos;

use crate::alloc::PoolAllocator;
use crate::params::{CACHELINE, INTERLEAVE_GRANULE};
use crate::topology::{DomainId, HostId, Topology};

/// Which analysis the auditor runs. Both are the same vector-clock
/// analysis; they differ only in whether actors' clocks advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// Clocks never tick, so there are no happens-before edges: every
    /// missed write counts as stale and nothing races. Sound but
    /// over-approximate (batch-mates get an arbitrary order).
    Version,
    /// Per-actor vector clocks with happens-before race detection.
    VectorClock,
}

impl AuditMode {
    /// Both analyses, for callers that check a protocol under each.
    pub const ALL: [AuditMode; 2] = [AuditMode::Version, AuditMode::VectorClock];
}

/// An agent with its own ordering component in the vector-clock model.
/// Each host contributes its CPU and its DMA attach point: devices are
/// ordered against their attach host's CPU only through doorbell and
/// completion edges, and against remote hosts only through messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Actor {
    /// The CPU of a host.
    Cpu(HostId),
    /// The DMA attach point of a host (all devices behind it).
    Dma(HostId),
}

/// Stride between one failure domain's block of vector-clock component
/// indices and the next. Components `[d * DOMAIN_STRIDE, (d + 1) *
/// DOMAIN_STRIDE)` belong to domain `d`; within a block the layout is
/// [`Actor::index`]. Sized for the full `u16` host space so the
/// mapping never collides.
pub const DOMAIN_STRIDE: usize = 2 * (u16::MAX as usize + 1);

impl Actor {
    /// This actor's fixed component index in every [`VClock`], in the
    /// default failure domain ([`DomainId`]`(0)`).
    pub fn index(self) -> usize {
        match self {
            Actor::Cpu(h) => 2 * h.0 as usize,
            Actor::Dma(h) => 2 * h.0 as usize + 1,
        }
    }

    /// This actor's component index namespaced to failure domain
    /// `domain`: progress is tracked per `(actor, domain)`, so
    /// ordering within one domain never aliases ordering in another.
    pub fn index_in(self, domain: DomainId) -> usize {
        domain.0 as usize * DOMAIN_STRIDE + self.index()
    }

    /// The actor owning component index `i` (inverse of
    /// [`Actor::index`] / [`Actor::index_in`]; the domain part of a
    /// namespaced index is recovered with [`domain_of_index`]).
    pub fn from_index(i: usize) -> Actor {
        let i = i % DOMAIN_STRIDE;
        let h = HostId((i / 2) as u16);
        if i.is_multiple_of(2) {
            Actor::Cpu(h)
        } else {
            Actor::Dma(h)
        }
    }

    /// The host this actor belongs to.
    pub fn host(self) -> HostId {
        match self {
            Actor::Cpu(h) | Actor::Dma(h) => h,
        }
    }
}

/// The failure domain a namespaced component index belongs to (the
/// counterpart of [`Actor::from_index`] for [`Actor::index_in`]).
pub fn domain_of_index(i: usize) -> DomainId {
    DomainId((i / DOMAIN_STRIDE) as u16)
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Cpu(h) => write!(f, "cpu{}", h.0),
            Actor::Dma(h) => write!(f, "dma{}", h.0),
        }
    }
}

/// A vector clock over per-`(actor, domain)` components
/// ([`Actor::index_in`]). Missing components read as zero; the
/// representation is sparse (domain-namespaced indices are far apart),
/// and zero components are never stored, so structural equality
/// matches clock equality.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(BTreeMap<usize, u64>);

impl VClock {
    /// The component at index `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(&i).copied().unwrap_or(0)
    }

    /// Advances one component (an actor's own tick).
    fn bump(&mut self, i: usize) {
        *self.0.entry(i).or_insert(0) += 1;
    }

    /// Componentwise maximum: the happens-before join.
    pub fn join(&mut self, other: &VClock) {
        for (&i, &v) in &other.0 {
            let slot = self.0.entry(i).or_insert(0);
            if v > *slot {
                *slot = v;
            }
        }
    }

    /// True when `self` happens-before-or-equals `other`.
    pub fn leq(&self, other: &VClock) -> bool {
        self.0.iter().all(|(&i, &v)| v <= other.get(i))
    }

    /// True when neither clock is ordered before the other: the two
    /// accesses race.
    pub fn concurrent_with(&self, other: &VClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// True when every component is zero (a clock that never ticked).
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Display for VClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (&i, &v) in &self.0 {
            if v == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            let d = domain_of_index(i);
            if d == DomainId(0) {
                write!(f, "{}:{}", Actor::from_index(i), v)?;
            } else {
                write!(f, "{}@d{}:{}", Actor::from_index(i), d.0, v)?;
            }
            first = false;
        }
        write!(f, "}}")
    }
}

/// Which side of a conflicting access pair an actor was on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A CPU load or device DMA read.
    Read,
    /// A visible write (nt-store, flush, DMA write, eviction) or a
    /// cached store.
    Write,
}

/// How a visible write reached the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// Non-temporal store.
    NtStore,
    /// Explicit flush of dirty cached lines.
    Flush,
    /// Device DMA write.
    DmaWrite,
    /// Capacity eviction of a dirty line (an *accidental* publish).
    Eviction,
}

/// Why dirty data never reached (or was overwritten in) the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LostWriteCause {
    /// The owner invalidated its own dirty line without flushing.
    InvalidateDiscard,
    /// An overwrite (nt-store / DMA) dropped dirty bytes outside the
    /// overwritten range.
    OverwriteDiscard,
    /// A publish based on a stale copy clobbered a newer visible write
    /// by another host.
    StaleBasePublish,
}

/// One detected coherence violation, with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A load served stale cached data.
    StaleRead {
        /// Host whose load returned stale bytes.
        reader: HostId,
        /// Host whose visible write the reader missed.
        writer: HostId,
        /// How the missed write was published.
        write_kind: WriteKind,
        /// When the missed write was issued.
        written_at: Nanos,
        /// When the missed write became visible pool-wide.
        visible_at: Nanos,
    },
    /// One load observed a multi-line write on some lines only.
    TornRead {
        /// Host whose load mixed old and new lines.
        reader: HostId,
        /// Host that published the partially-observed write.
        writer: HostId,
        /// A line where the write *was* observed.
        fresh_line: u64,
        /// A line (same write event) where it was *not*.
        stale_line: u64,
        /// When the partially-observed write became visible.
        visible_at: Nanos,
    },
    /// Dirty data was lost without ever being readable by others.
    LostWrite {
        /// Host whose data was overwritten or discarded.
        victim: HostId,
        /// Host performing the discarding/clobbering operation.
        by: HostId,
        /// What happened.
        cause: LostWriteCause,
        /// When the lost data was first made dirty (or visible).
        dirty_since: Nanos,
    },
    /// Two hosts held the same line dirty simultaneously.
    WriteWriteConflict {
        /// Host that dirtied the line first.
        first: HostId,
        /// When the first host dirtied it.
        first_dirty_since: Nanos,
        /// Host that dirtied it second (trigger of the report).
        second: HostId,
    },
    /// Dirty data on a shared segment never published by finalize time.
    UnflushedWrite {
        /// Host still holding the dirty line.
        writer: HostId,
        /// When the line was dirtied.
        dirty_since: Nanos,
    },
    /// Two conflicting accesses whose vector clocks are incomparable:
    /// no coherence action orders them, so their outcome depends on
    /// fabric timing alone (vector-clock mode only).
    ConcurrentConflict {
        /// Actor of the earlier-observed access.
        first: Actor,
        /// What the first access was.
        first_access: AccessKind,
        /// When the first access was issued.
        first_at: Nanos,
        /// The first actor's clock at that access.
        first_clock: VClock,
        /// Actor of the access that exposed the race.
        second: Actor,
        /// What the second access was.
        second_access: AccessKind,
        /// When the second access was issued.
        second_at: Nanos,
        /// The second actor's clock at that access.
        second_clock: VClock,
    },
}

impl ViolationKind {
    /// Stable short name of the violation kind (used by rendered
    /// reports, telemetry counters, and trace instant labels).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::StaleRead { .. } => "stale-read",
            ViolationKind::TornRead { .. } => "torn-read",
            ViolationKind::LostWrite { .. } => "lost-write",
            ViolationKind::WriteWriteConflict { .. } => "write-write-conflict",
            ViolationKind::UnflushedWrite { .. } => "unflushed-write",
            ViolationKind::ConcurrentConflict { .. } => "concurrent-conflict",
        }
    }
}

/// A violation anchored to a line address and detection time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The cache-line address the hazard was detected on.
    pub line: u64,
    /// Simulated time of detection.
    pub detected_at: Nanos,
    /// The hazard and its provenance.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ {} ns] line {:#x}: ",
            self.kind.name(),
            self.detected_at.as_nanos(),
            self.line
        )?;
        match &self.kind {
            ViolationKind::StaleRead {
                reader,
                writer,
                write_kind,
                written_at,
                visible_at,
            } => write!(
                f,
                "host {} read a cached copy predating host {}'s {:?} \
                 (issued {} ns, visible {} ns)",
                reader.0,
                writer.0,
                write_kind,
                written_at.as_nanos(),
                visible_at.as_nanos()
            ),
            ViolationKind::TornRead {
                reader,
                writer,
                fresh_line,
                stale_line,
                visible_at,
            } => write!(
                f,
                "host {} observed host {}'s write (visible {} ns) on line \
                 {:#x} but not on line {:#x} in the same load",
                reader.0,
                writer.0,
                visible_at.as_nanos(),
                fresh_line,
                stale_line
            ),
            ViolationKind::LostWrite {
                victim,
                by,
                cause,
                dirty_since,
            } => write!(
                f,
                "host {}'s data (dirty/visible since {} ns) lost to host \
                 {}'s {:?}",
                victim.0,
                dirty_since.as_nanos(),
                by.0,
                cause
            ),
            ViolationKind::WriteWriteConflict {
                first,
                first_dirty_since,
                second,
            } => write!(
                f,
                "hosts {} (dirty since {} ns) and {} both hold the line dirty",
                first.0,
                first_dirty_since.as_nanos(),
                second.0
            ),
            ViolationKind::UnflushedWrite {
                writer,
                dirty_since,
            } => write!(
                f,
                "host {} never published dirty data held since {} ns on a \
                 shared segment",
                writer.0,
                dirty_since.as_nanos()
            ),
            ViolationKind::ConcurrentConflict {
                first,
                first_access,
                first_at,
                first_clock,
                second,
                second_access,
                second_at,
                second_clock,
            } => write!(
                f,
                "{first} {first_access:?} (issued {} ns, clock \
                 {first_clock}) races {second} {second_access:?} (issued \
                 {} ns, clock {second_clock}): no happens-before edge \
                 orders them",
                first_at.as_nanos(),
                second_at.as_nanos()
            ),
        }
    }
}

/// Per-kind violation counters (every occurrence, deduplicated or not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// Stale reads observed.
    pub stale_reads: u64,
    /// Torn multi-line reads observed.
    pub torn_reads: u64,
    /// Lost/discarded/clobbered writes observed.
    pub lost_writes: u64,
    /// Write-write conflicts observed.
    pub ww_conflicts: u64,
    /// Unflushed dirty lines at finalize.
    pub unflushed_writes: u64,
    /// Happens-before races observed (vector-clock mode).
    pub concurrent_conflicts: u64,
}

impl ViolationCounts {
    /// Total violations across all kinds.
    pub fn total(&self) -> u64 {
        self.stale_reads
            + self.torn_reads
            + self.lost_writes
            + self.ww_conflicts
            + self.unflushed_writes
            + self.concurrent_conflicts
    }
}

/// The auditor's cumulative findings.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Recorded violations (deduplicated, capped by
    /// [`AuditConfig::max_recorded`]).
    pub violations: Vec<Violation>,
    /// Per-kind occurrence counters (never capped).
    pub counts: ViolationCounts,
    /// Occurrences not recorded in `violations` (duplicates or
    /// over-cap).
    pub suppressed: u64,
    /// Pool operations that passed through the audit layer.
    pub ops_audited: u64,
    /// Local-DRAM operations seen (always coherent; counted only).
    pub local_ops: u64,
}

impl AuditReport {
    /// True when no violation of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.counts.total() == 0
    }

    /// A multi-line human-readable summary of recorded violations.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: {} violation(s) over {} pool ops ({} suppressed)",
            self.counts.total(),
            self.ops_audited,
            self.suppressed
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

/// Race findings with per-line clock snapshots (vector-clock mode); see
/// [`Auditor::race_report`].
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Recorded [`ViolationKind::ConcurrentConflict`] violations.
    pub conflicts: Vec<Violation>,
    /// Current clock of every actor that has performed an operation.
    pub actor_clocks: Vec<(Actor, VClock)>,
    /// Last visible write per line: `(line, writing actor, clock)`.
    pub line_clocks: Vec<(u64, Actor, VClock)>,
}

impl RaceReport {
    /// A multi-line human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "races: {} concurrent conflict(s)",
            self.conflicts.len()
        );
        for v in &self.conflicts {
            let _ = writeln!(out, "  {v}");
        }
        let _ = writeln!(out, "actor clocks:");
        for (a, c) in &self.actor_clocks {
            let _ = writeln!(out, "  {a}: {c}");
        }
        if !self.line_clocks.is_empty() {
            let _ = writeln!(out, "line write clocks:");
            for (la, a, c) in &self.line_clocks {
                let _ = writeln!(out, "  {la:#x}: {a} {c}");
            }
        }
        out
    }
}

/// Tuning for the auditor.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Maximum violations kept in [`AuditReport::violations`]; counters
    /// keep counting past the cap.
    pub max_recorded: usize,
    /// Which analysis to run.
    pub mode: AuditMode,
}

impl Default for AuditConfig {
    /// [`AuditMode::Version`], keeping the first 1024 violations.
    fn default() -> AuditConfig {
        AuditConfig {
            max_recorded: 1024,
            mode: AuditMode::Version,
        }
    }
}

/// The fabric state the auditor's hooks read, borrowed for one call:
/// the segment table and topology that place a line in its failure
/// domain, and the registered tear-tolerant and sync ranges.
#[derive(Clone, Copy)]
pub struct Layout<'a> {
    /// Live segments: a line's segment and the MHD backing its granule.
    pub alloc: &'a PoolAllocator,
    /// Each MHD's failure domain.
    pub topology: &'a Topology,
    /// Ranges where torn reads are by design
    /// (`Fabric::mark_tear_tolerant`).
    pub tolerant: &'a [(u64, u64)],
    /// Synchronization ranges, where reads are acquire operations
    /// (`Fabric::mark_sync_range`).
    pub sync: &'a [(u64, u64)],
}

impl Layout<'_> {
    /// The failure domain backing cache line `la`: [`DomainId`]`(0)`
    /// when no live segment holds it.
    pub fn domain_of(&self, la: u64) -> DomainId {
        self.alloc
            .segment_at(la)
            .map_or(DomainId(0), |seg| self.topology.domain_of(seg.mhd_for(la)))
    }

    /// Cache line `la` with the failure domain it resolves to.
    fn key_of(&self, la: u64) -> LineKey {
        (self.domain_of(la), la)
    }

    /// Appends the failure domains the lines of the line-aligned `[lo,
    /// hi)` resolve to (unsorted, possibly repeated): the domains whose
    /// clock components an op ticks. One segment lookup per segment the
    /// range crosses and one step per granule, not per line.
    fn push_domains(&self, lo: u64, hi: u64, out: &mut Vec<DomainId>) {
        let mut la = lo;
        while la < hi {
            let Ok(seg) = self.alloc.segment_at(la) else {
                out.push(DomainId(0));
                // Segments start on granule boundaries, so the next
                // mapped line, if any, starts one.
                la = (la / INTERLEAVE_GRANULE + 1) * INTERLEAVE_GRANULE;
                continue;
            };
            let ways = seg.ways();
            let last = line_of(hi.min(seg.end()) - 1);
            let g0 = ((la - seg.base()) / INTERLEAVE_GRANULE) as usize;
            let g1 = ((last - seg.base()) / INTERLEAVE_GRANULE) as usize;
            // A run of at least `ways.len()` granules covers every way.
            let n = (g1 - g0 + 1).min(ways.len());
            out.extend((g0..g0 + n).map(|g| self.topology.domain_of(ways[g % ways.len()])));
            la = last + CACHELINE;
        }
    }
}

/// Latest visible write on one line, as derived from the extent that
/// covers the line and that extent's event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LineState {
    /// Issue-order id of the event (provenance / torn-read identity).
    event: u64,
    /// Visibility-order version (staleness comparisons).
    version: u64,
    writer: HostId,
    actor: Actor,
    kind: WriteKind,
    written_at: Nanos,
    visible_at: Nanos,
}

/// What one host's cached copy of a line reflects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HostView {
    /// Version the cached bytes reflect.
    version: u64,
    /// Event id the cached bytes reflect.
    event: u64,
    dirty: bool,
    dirty_since: Nanos,
    /// Version of the copy the dirty data was merged onto (frozen at
    /// the first store; a publish from a stale base loses others'
    /// writes).
    base_version: u64,
}

/// A clean copy of `cur`, a line's current write (`None`: never
/// written): the view a fill installs, and the write's release clock.
fn clean_copy(events: &DetHashMap<u64, EventMeta>, cur: Option<LineState>) -> (HostView, VClock) {
    let (version, event) = cur.map_or((0, 0), |c| (c.version, c.event));
    let view = HostView {
        version,
        event,
        dirty: false,
        dirty_since: Nanos::ZERO,
        base_version: version,
    };
    let clock = events
        .get(&event)
        .map(|m| m.wclock.clone())
        .unwrap_or_default();
    (view, clock)
}

/// A cache line with the failure domain it resolves to, resolved only
/// where a report reads the domain: a multi-line load's torn-read
/// groups and the race report's line order.
type LineKey = (DomainId, u64);

/// One host's shadow view of one line, co-located with its clocks.
#[derive(Clone, Debug)]
struct ViewEntry {
    host: u16,
    view: HostView,
    /// Release clock of the write the cached copy reflects.
    view_clock: VClock,
    /// The owner's clock when the view was first dirtied.
    dirty_clock: VClock,
}

/// Lines per [`ViewTable`] page: 1024 lines = 64 KiB of pool address
/// space per page.
const VIEW_PAGE: usize = 1024;

/// One page of per-line host views plus a bitmap of its non-empty
/// slots, so range walks visit only lines some host caches.
struct ViewPage {
    /// Per-line views, sorted by host id.
    slots: Box<[Vec<ViewEntry>]>,
    /// Bit `i` is set when `slots[i]` is non-empty.
    occupied: [u64; VIEW_PAGE / 64],
}

/// Per-line host views: the only shadow state kept line by line, and
/// only for lines some CPU caches. Paged arrays indexed by line-address
/// arithmetic (`la / CACHELINE`) make a point lookup two indexings and
/// a slot offset; the occupancy bitmaps make a walk over a range cost
/// O(words + views), not O(lines). Views are host-sorted so "lowest
/// dirty host" scans are deterministic by construction.
#[derive(Default)]
struct ViewTable {
    /// `pages[p]` holds lines `[p * VIEW_PAGE, (p + 1) * VIEW_PAGE)`
    /// (in line units), allocated on the first view in it.
    pages: Vec<Option<Box<ViewPage>>>,
}

impl ViewTable {
    fn index_of(la: u64) -> (usize, usize) {
        let idx = (la / CACHELINE) as usize;
        (idx / VIEW_PAGE, idx % VIEW_PAGE)
    }

    /// Every host's view of line `la` (empty when nobody caches it).
    fn slot(&self, la: u64) -> &[ViewEntry] {
        let (p, off) = Self::index_of(la);
        match self.pages.get(p) {
            Some(Some(page)) => &page.slots[off],
            _ => &[],
        }
    }

    /// One host's view entry on a line, if present.
    fn entry(&self, host: u16, la: u64) -> Option<&ViewEntry> {
        let slot = self.slot(la);
        let i = slot.binary_search_by_key(&host, |e| e.host).ok()?;
        Some(&slot[i])
    }

    /// The host's view entry, inserting `seed()` (a view and its
    /// release clock) at its host-sorted position when absent.
    fn entry_or_insert_with(
        &mut self,
        host: u16,
        la: u64,
        seed: impl FnOnce() -> (HostView, VClock),
    ) -> &mut ViewEntry {
        let (p, off) = Self::index_of(la);
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| {
            Box::new(ViewPage {
                slots: (0..VIEW_PAGE).map(|_| Vec::new()).collect(),
                occupied: [0; VIEW_PAGE / 64],
            })
        });
        let i = match page.slots[off].binary_search_by_key(&host, |e| e.host) {
            Ok(i) => i,
            Err(i) => {
                let (view, view_clock) = seed();
                let entry = ViewEntry {
                    host,
                    view,
                    view_clock,
                    dirty_clock: VClock::default(),
                };
                page.slots[off].insert(i, entry);
                page.occupied[off / 64] |= 1 << (off % 64);
                i
            }
        };
        &mut page.slots[off][i]
    }

    /// Replaces the host's view wholesale (clean fill semantics: any
    /// previous dirty clock is dropped with the previous view).
    fn set(&mut self, host: u16, la: u64, view: HostView, view_clock: VClock) {
        let entry = self.entry_or_insert_with(host, la, || (view, VClock::default()));
        entry.view = view;
        entry.view_clock = view_clock;
        entry.dirty_clock = VClock::default();
    }

    /// Removes the host's view (and clock shadows), returning the view.
    fn remove(&mut self, host: u16, la: u64) -> Option<HostView> {
        let (p, off) = Self::index_of(la);
        let page = self.pages.get_mut(p)?.as_mut()?;
        let slot = &mut page.slots[off];
        let i = slot.binary_search_by_key(&host, |e| e.host).ok()?;
        let view = slot.remove(i).view;
        if slot.is_empty() {
            page.occupied[off / 64] &= !(1 << (off % 64));
        }
        Some(view)
    }

    /// The view of the lowest-id host other than `host` holding the
    /// line dirty: the deterministic "first writer" of conflict
    /// reports. Views are host-sorted, so the first dirty match is the
    /// minimum.
    fn min_dirty_other(&self, host: u16, la: u64) -> Option<&ViewEntry> {
        self.slot(la)
            .iter()
            .find(|e| e.host != host && e.view.dirty)
    }

    /// Fills `out` with every line in `[lo, hi)` some host caches, in
    /// address order.
    fn lines_in(&self, lo: u64, hi: u64, out: &mut Vec<u64>) {
        out.clear();
        if hi <= lo {
            return;
        }
        let first = (lo / CACHELINE) as usize;
        let last = ((hi - 1) / CACHELINE) as usize;
        for p in first / VIEW_PAGE..=last / VIEW_PAGE {
            let Some(Some(page)) = self.pages.get(p) else {
                continue;
            };
            let page_base = p * VIEW_PAGE;
            let a = first.max(page_base) - page_base;
            let b = last.min(page_base + VIEW_PAGE - 1) - page_base;
            for w in a / 64..=b / 64 {
                let mut bits = page.occupied[w];
                if w == a / 64 {
                    bits &= u64::MAX << (a % 64);
                }
                if w == b / 64 && b % 64 != 63 {
                    bits &= (1u64 << (b % 64 + 1)) - 1;
                }
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    out.push((page_base + i) as u64 * CACHELINE);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Every dirty view, in `(line, host)` order.
    fn dirty_views(&self) -> Vec<(u16, u64, Nanos)> {
        let mut lines = Vec::new();
        self.lines_in(
            0,
            (self.pages.len() * VIEW_PAGE) as u64 * CACHELINE,
            &mut lines,
        );
        let mut out = Vec::new();
        for la in lines {
            for e in self.slot(la) {
                if e.view.dirty {
                    out.push((e.host, la, e.view.dirty_since));
                }
            }
        }
        out
    }

    /// Drops every view of lines in `[lo, hi)`. Pages left empty are
    /// released so freed segments give their shadow memory back.
    fn clear_range(&mut self, lo: u64, hi: u64) {
        let mut lines = Vec::new();
        self.lines_in(lo, hi, &mut lines);
        for la in lines {
            let (p, off) = Self::index_of(la);
            if let Some(Some(page)) = self.pages.get_mut(p) {
                page.slots[off] = Vec::new();
                page.occupied[off / 64] &= !(1 << (off % 64));
            }
        }
        if hi <= lo {
            return;
        }
        let first = (lo / CACHELINE) as usize / VIEW_PAGE;
        let last = ((hi - 1) / CACHELINE) as usize / VIEW_PAGE;
        for page in self.pages.iter_mut().take(last + 1).skip(first) {
            if matches!(page, Some(pg) if pg.occupied.iter().all(|&w| w == 0)) {
                *page = None;
            }
        }
    }
}

/// One visible write event: its provenance, its version, and the line
/// ranges it covered. Shared by every extent piece of the event and
/// kept while the event is still current on at least one line.
#[derive(Clone, Debug)]
struct EventMeta {
    writer: HostId,
    actor: Actor,
    kind: WriteKind,
    written_at: Nanos,
    visible_at: Nanos,
    /// Landing number: the event's version on every line it covers.
    version: u64,
    /// Release clock, one per event rather than one per line.
    wclock: VClock,
    /// Line-aligned `[start, end)` ranges the event covered when it was
    /// applied, ascending (torn-read identity).
    ranges: Vec<(u64, u64)>,
    /// Number of lines whose current write this event is.
    refs: u64,
}

impl EventMeta {
    /// True when the event covered line `la` when it was applied.
    fn covers(&self, la: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, end)| end <= la);
        self.ranges.get(i).is_some_and(|&(start, _)| start <= la)
    }
}

/// A line-aligned extent of pool addresses whose current visible write
/// is one event. Extents never overlap; a write over part of one splits
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Extent {
    end: u64,
    event: u64,
}

/// What the lines of a [`BaseRun`] were derived from: the newest
/// version the writer could have seen on them. A write current on one
/// of the lines at landing with a higher version, by another host, is
/// clobbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Base {
    /// Dirty lines merged onto the copy of that version (a flush or a
    /// dirty eviction; 0 for lines never written).
    Flat(u64),
    /// Whole lines overwritten when that many writes had landed (a
    /// non-temporal store or DMA write).
    Since(u64),
}

impl Base {
    fn version(self) -> u64 {
        match self {
            Base::Flat(v) | Base::Since(v) => v,
        }
    }
}

/// A line-aligned `[start, end)` run of an in-flight write whose lines
/// share one [`Base`]: a write's bases, run-length encoded.
#[derive(Debug)]
struct BaseRun {
    start: u64,
    end: u64,
    base: Base,
}

/// The auditor's shadow of one in-flight pool write: its event id,
/// writer, release clock and the bases of the lines it writes (one run
/// for an overwrite, one per merge base for a flush). A write hook
/// returns it when the write is issued; the fabric keeps it with the
/// write and hands it to [`Auditor::land`] once the write becomes
/// visible, or drops it with the write when the segment is freed.
/// Opaque outside this module.
#[must_use = "a shadow write must land when its write becomes visible"]
#[derive(Debug)]
pub struct ShadowWrite {
    event: u64,
    writer: HostId,
    /// Actor that issued the write (vector-clock mode provenance).
    actor: Actor,
    /// The actor's clock when the write was issued (its release clock).
    wclock: VClock,
    kind: WriteKind,
    written_at: Nanos,
    /// The written lines with their bases, ascending and disjoint.
    runs: Vec<BaseRun>,
}

/// One side of a conflicting access pair: who, how, when, and the
/// actor's clock then.
#[derive(Clone, Debug)]
struct Access {
    actor: Actor,
    kind: AccessKind,
    at: Nanos,
    clock: VClock,
}

impl Access {
    fn write(actor: Actor, at: Nanos, clock: VClock) -> Access {
        Access {
            actor,
            kind: AccessKind::Write,
            at,
            clock,
        }
    }

    fn read(actor: Actor, at: Nanos, clock: VClock) -> Access {
        Access {
            actor,
            kind: AccessKind::Read,
            at,
            clock,
        }
    }
}

/// Dedup identity of a violation (kind + site + parties).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum DedupKey {
    Stale {
        line: u64,
        reader: u16,
        event: u64,
    },
    Torn {
        stale_line: u64,
        event: u64,
    },
    Lost {
        line: u64,
        victim: u16,
        by: u16,
        cause: LostWriteCause,
    },
    Ww {
        line: u64,
        a: u16,
        b: u16,
    },
    Unflushed {
        line: u64,
        writer: u16,
    },
    Concurrent {
        line: u64,
        a: usize,
        b: usize,
        accesses: (AccessKind, AccessKind),
    },
}

/// The shadow-state coherence checker. Owned by the fabric when audit
/// mode is enabled; see `Fabric::enable_audit`.
pub struct Auditor {
    config: AuditConfig,
    next_event: u64,
    /// Writes landed so far: each landing takes the next number as its
    /// version. One pool-wide count, yet versions are compared only
    /// within one domain (see the module docs).
    landed: u64,
    /// Visible-write state: `start → extent`, one extent per applied
    /// write range, split only where a later write overlaps it.
    extents: BTreeMap<u64, Extent>,
    /// Events current on at least one line, by id.
    events: DetHashMap<u64, EventMeta>,
    /// Per-line host views (CPU-cached lines only).
    views: ViewTable,
    /// Reusable line list for view walks.
    line_scratch: Vec<u64>,
    /// Reusable `(start, end, event)` list for extent walks.
    piece_scratch: Vec<(u64, u64, u64)>,
    /// Reusable domain list for clock ticks.
    domain_scratch: Vec<DomainId>,
    seen: DetHashSet<(DomainId, DedupKey)>,
    report: AuditReport,
    /// Per-actor clocks, indexed by [`Actor::index`] (all empty in
    /// [`AuditMode::Version`]). Components inside each clock are
    /// namespaced per domain via [`Actor::index_in`].
    clocks: Vec<VClock>,
}

fn line_of(addr: u64) -> u64 {
    addr & !(CACHELINE - 1)
}

/// The line-aligned `[lo, hi)` covering every line `[hpa, hpa+len)`
/// touches (one line for an empty access).
fn line_span(hpa: u64, len: u64) -> (u64, u64) {
    (line_of(hpa), line_of(hpa + len.max(1) - 1) + CACHELINE)
}

/// True if `[hpa, hpa+64)` lies inside any of the given ranges.
fn in_ranges(ranges: &[(u64, u64)], la: u64) -> bool {
    ranges
        .iter()
        .any(|&(start, end)| la >= start && la + CACHELINE <= end)
}

impl Auditor {
    /// A fresh auditor with the given config.
    pub fn new(config: AuditConfig) -> Auditor {
        Auditor {
            config,
            next_event: 1,
            landed: 0,
            extents: BTreeMap::new(),
            events: DetHashMap::default(),
            views: ViewTable::default(),
            line_scratch: Vec::new(),
            piece_scratch: Vec::new(),
            domain_scratch: Vec::new(),
            seen: DetHashSet::default(),
            report: AuditReport::default(),
            clocks: Vec::new(),
        }
    }

    /// The event whose extent covers line `la`, if any.
    fn meta_at(&self, la: u64) -> Option<(u64, &EventMeta)> {
        let (_, x) = self.extents.range(..=la).next_back()?;
        if la >= x.end {
            return None;
        }
        Some((x.event, &self.events[&x.event]))
    }

    /// The last visible write on line `la`.
    fn state(&self, la: u64) -> Option<LineState> {
        let (event, m) = self.meta_at(la)?;
        Some(LineState {
            event,
            version: m.version,
            writer: m.writer,
            actor: m.actor,
            kind: m.kind,
            written_at: m.written_at,
            visible_at: m.visible_at,
        })
    }

    /// Fills `out` with the extent pieces overlapping `[lo, hi)`,
    /// clipped to it, as `(start, end, event)` in address order. An
    /// access that stays within one extent costs one tree descent.
    fn pieces(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64, u64)>) {
        out.clear();
        let mut from = lo;
        if let Some((_, x)) = self.extents.range(..=lo).next_back() {
            if x.end > lo {
                out.push((lo, x.end.min(hi), x.event));
                from = x.end;
            }
        }
        if from < hi {
            for (&s, x) in self.extents.range(from..hi) {
                out.push((s, x.end.min(hi), x.event));
            }
        }
    }

    /// Drops `lines` lines from an event's refcount, retiring the event
    /// once it is current nowhere.
    fn release(&mut self, event: u64, lines: u64) {
        if let Some(meta) = self.events.get_mut(&event) {
            meta.refs -= lines;
            if meta.refs == 0 {
                self.events.remove(&event);
            }
        }
    }

    /// Removes all visible-write state for lines in the line-aligned
    /// `[lo, hi)`, splitting extents that straddle either edge.
    fn carve(&mut self, lo: u64, hi: u64) {
        if let Some((&s, &x)) = self.extents.range(..lo).next_back() {
            if x.end > lo {
                if let Some(left) = self.extents.get_mut(&s) {
                    left.end = lo;
                }
                if x.end > hi {
                    self.extents.insert(hi, x);
                }
                self.release(x.event, (x.end.min(hi) - lo) / CACHELINE);
            }
        }
        while let Some((&s, &x)) = self.extents.range(lo..hi).next() {
            self.extents.remove(&s);
            if x.end > hi {
                self.extents.insert(hi, x);
            }
            self.release(x.event, (x.end.min(hi) - s) / CACHELINE);
        }
    }

    /// Findings so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Race findings with full clock snapshots (in
    /// [`AuditMode::Version`] every clock is empty, so everything is).
    pub fn race_report(&self, lay: &Layout<'_>) -> RaceReport {
        let conflicts = self
            .report
            .violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::ConcurrentConflict { .. }))
            .cloned()
            .collect();
        let actor_clocks = self
            .clocks
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, c)| (Actor::from_index(i), c.clone()))
            .collect();
        // One entry per line, ordered by (domain, line).
        let mut keyed: Vec<(LineKey, Actor, &VClock)> = Vec::new();
        for (&start, x) in &self.extents {
            let m = &self.events[&x.event];
            if !m.wclock.is_empty() {
                for la in (start..x.end).step_by(CACHELINE as usize) {
                    keyed.push((lay.key_of(la), m.actor, &m.wclock));
                }
            }
        }
        keyed.sort_unstable_by_key(|&(key, _, _)| key);
        let line_clocks = keyed
            .into_iter()
            .map(|((_, la), a, c)| (la, a, c.clone()))
            .collect();
        RaceReport {
            conflicts,
            actor_clocks,
            line_clocks,
        }
    }

    // ---------------------------------------------------------------
    // Vector-clock plumbing
    // ---------------------------------------------------------------

    /// Advances `actor`'s own component once in each distinct failure
    /// domain the line-aligned `ranges` touch (domain 0 when there are
    /// none): an op spanning domains is one program-order step in each
    /// namespace. This is the only place the mode is read — in
    /// [`AuditMode::Version`] clocks never tick, so every clock stays
    /// empty, every join is a no-op, every write is ordered before
    /// every read and nothing races.
    fn tick(
        &mut self,
        lay: &Layout<'_>,
        actor: Actor,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) {
        if self.config.mode == AuditMode::Version {
            return;
        }
        let mut doms = std::mem::take(&mut self.domain_scratch);
        doms.clear();
        for (lo, hi) in ranges {
            lay.push_domains(lo, hi, &mut doms);
        }
        doms.sort_unstable();
        doms.dedup();
        if doms.is_empty() {
            doms.push(DomainId(0));
        }
        for &d in &doms {
            self.clock_mut(actor).bump(actor.index_in(d));
        }
        self.domain_scratch = doms;
    }

    /// Ticks `actor` for one op on `[hpa, hpa+len)`.
    fn tick_range(&mut self, lay: &Layout<'_>, actor: Actor, hpa: u64, len: u64) {
        self.tick(lay, actor, [line_span(hpa, len)]);
    }

    fn clock_mut(&mut self, actor: Actor) -> &mut VClock {
        let i = actor.index();
        if self.clocks.len() <= i {
            self.clocks.resize(i + 1, VClock::default());
        }
        &mut self.clocks[i]
    }

    /// The actor's current clock (empty if it never acted).
    fn snapshot(&self, actor: Actor) -> VClock {
        self.clocks.get(actor.index()).cloned().unwrap_or_default()
    }

    /// Joins `clock` into `dst`'s clock (an incoming hb edge).
    fn join_from(&mut self, dst: Actor, clock: &VClock) {
        self.clock_mut(dst).join(clock);
    }

    /// Joins `src`'s current clock into `dst`'s (e.g. a DMA doorbell
    /// or completion edge).
    fn join_actor(&mut self, dst: Actor, src: Actor) {
        let c = self.snapshot(src);
        self.join_from(dst, &c);
    }

    // ---------------------------------------------------------------
    // Landing writes
    // ---------------------------------------------------------------

    /// Lands a write that became visible at `visible_at`: takes the
    /// next landing number as its version, checks it against the writes
    /// it overwrites and installs it as the lines' current write. The
    /// fabric lands shadows in the `(visible_at, issue order)` order it
    /// settles pool bytes in.
    pub fn land(&mut self, lay: &Layout<'_>, visible_at: Nanos, ev: ShadowWrite) {
        self.landed += 1;
        // Check the write against every extent it overwrites.
        let mut pieces = std::mem::take(&mut self.piece_scratch);
        for run in &ev.runs {
            self.pieces(run.start, run.end, &mut pieces);
            for &(ps, pe, old) in &pieces {
                self.check_overwrite(lay, visible_at, &ev, run.base, old, (ps, pe));
            }
        }
        self.piece_scratch = pieces;
        // Install the write as one extent per contiguous range.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for run in &ev.runs {
            match ranges.last_mut() {
                Some(last) if last.1 == run.start => last.1 = run.end,
                _ => ranges.push((run.start, run.end)),
            }
        }
        let mut lines = 0;
        for &(lo, hi) in &ranges {
            self.install(lo, hi, ev.event);
            lines += (hi - lo) / CACHELINE;
        }
        self.events.insert(
            ev.event,
            EventMeta {
                writer: ev.writer,
                actor: ev.actor,
                kind: ev.kind,
                written_at: ev.written_at,
                visible_at,
                version: self.landed,
                wclock: ev.wclock,
                ranges,
                refs: lines,
            },
        );
    }

    /// Makes `event` the current write of the line-aligned `[lo, hi)`.
    fn install(&mut self, lo: u64, hi: u64, event: u64) {
        // Rewriting exactly one existing extent (a ring slot, a reused
        // buffer) swaps its event in place.
        if let Some(x) = self.extents.get_mut(&lo) {
            if x.end == hi {
                let old = std::mem::replace(&mut x.event, event);
                self.release(old, (hi - lo) / CACHELINE);
                return;
            }
        }
        self.carve(lo, hi);
        self.extents.insert(lo, Extent { end: hi, event });
    }

    /// Reports what write `ev` does to the lines `[ps, pe)` of the older
    /// event `old`: a clobbered newer write, and a write-write race. The
    /// piece is walked line by line only when it can report something.
    fn check_overwrite(
        &mut self,
        lay: &Layout<'_>,
        visible_at: Nanos,
        ev: &ShadowWrite,
        base: Base,
        old: u64,
        (ps, pe): (u64, u64),
    ) {
        let old = &self.events[&old];
        // A newer visible write by someone else landed between this
        // write's base and its visibility: that write is clobbered.
        let lost = old.writer != ev.writer && old.version > base.version();
        let race = old.actor != ev.actor && old.wclock.concurrent_with(&ev.wclock);
        if !lost && !race {
            return;
        }
        let old = old.clone();
        for la in (ps..pe).step_by(CACHELINE as usize) {
            if lost {
                let cause = LostWriteCause::StaleBasePublish;
                let parties = (old.writer, ev.writer);
                self.record_lost(lay, la, visible_at, parties, cause, old.visible_at);
            }
            // Write-write race: the previous visible write and this one
            // carry incomparable release clocks — their relative order
            // is pure fabric timing, not program order.
            if race {
                let first = Access::write(old.actor, old.written_at, old.wclock.clone());
                let second = Access::write(ev.actor, ev.written_at, ev.wclock.clone());
                self.record_race(lay, la, visible_at, first, second);
            }
        }
    }

    /// A new write by `actor` issued at `written_at`, released with the
    /// actor's current clock.
    fn issue(
        &mut self,
        written_at: Nanos,
        actor: Actor,
        kind: WriteKind,
        runs: Vec<BaseRun>,
    ) -> ShadowWrite {
        let event = self.next_event;
        self.next_event += 1;
        ShadowWrite {
            event,
            writer: actor.host(),
            actor,
            wclock: self.snapshot(actor),
            kind,
            written_at,
            runs,
        }
    }

    // ---------------------------------------------------------------
    // Access hooks (called by the fabric)
    // ---------------------------------------------------------------

    /// Audits one CPU load. `served` lists each line the load touched
    /// and whether it was served from the host's cache (`true`) or
    /// fetched fresh from the pool (`false`).
    pub fn on_load(&mut self, lay: &Layout<'_>, now: Nanos, host: HostId, served: &[(u64, bool)]) {
        self.report.ops_audited += 1;
        let reader = Actor::Cpu(host);
        let lines = served.iter().map(|&(la, _)| (la, la + CACHELINE));
        self.tick(lay, reader, lines);
        // (line key, observed version, observed event) per served line,
        // kept only when the load spans lines and so could tear.
        let multi_line = served.len() > 1;
        let mut observed: Vec<(LineKey, u64, u64)> = Vec::new();
        for &(la, hit) in served {
            let cur = self.state(la);
            let view = if hit {
                // Audit enabled mid-run: seed the cached copy as
                // current rather than inventing a hazard.
                let events = &self.events;
                let entry = self
                    .views
                    .entry_or_insert_with(host.0, la, || clean_copy(events, cur));
                let view = entry.view;
                // Reading your own dirty merge is read-own-writes; the
                // stale *base* is reported at publish instead.
                let missed =
                    cur.filter(|c| !view.dirty && view.version < c.version && c.writer != host);
                // A fresh (or own-dirty) hit on a sync line acquires the
                // ordering of the write the copy reflects.
                let acquired =
                    (missed.is_none() && in_ranges(lay.sync, la)).then(|| entry.view_clock.clone());
                if let Some(cur) = missed {
                    let wclock = self.events[&cur.event].wclock.clone();
                    self.missed_write(lay, la, now, reader, cur, wclock);
                } else if let Some(vc) = acquired {
                    self.join_from(reader, &vc);
                }
                view
            } else {
                // Miss: the host now caches the pool-current bytes.
                let (fresh, wclock) = clean_copy(&self.events, cur);
                let wclock = match cur {
                    Some(c) => {
                        let write = Access::write(c.actor, c.written_at, wclock);
                        self.observe(lay, la, now, reader, &write);
                        write.clock
                    }
                    None => wclock,
                };
                self.views.set(host.0, la, fresh, wclock);
                fresh
            };
            if multi_line {
                observed.push((lay.key_of(la), view.version, view.event));
            }
        }
        // Torn-read analysis runs per failure domain: independent
        // devices share no visibility order, so a load spanning domains
        // has no single order to tear against.
        if observed.iter().all(|&((d, _), _, _)| d == observed[0].0 .0) {
            if observed.len() > 1 {
                self.check_torn(lay, now, host, &observed);
            }
            return;
        }
        let mut by_domain: BTreeMap<DomainId, Vec<(LineKey, u64, u64)>> = BTreeMap::new();
        for &(key, v, e) in &observed {
            by_domain.entry(key.0).or_default().push((key, v, e));
        }
        for group in by_domain.values() {
            if group.len() > 1 {
                self.check_torn(lay, now, host, group);
            }
        }
    }

    /// A read by `reader` of line `la` that observes `write` in the
    /// pool: a sync line acquires the write's clock; any other line
    /// first checks that the write is ordered before the read, then
    /// joins it anyway so one unordered publish does not cascade into a
    /// conflict on every later access.
    fn observe(&mut self, lay: &Layout<'_>, la: u64, now: Nanos, reader: Actor, write: &Access) {
        let races = write.actor != reader
            && self
                .clocks
                .get(reader.index())
                .is_some_and(|r| write.clock.concurrent_with(r))
            && !in_ranges(lay.sync, la);
        if races {
            let read = Access::read(reader, now, self.snapshot(reader));
            self.record_race(lay, la, now, write.clone(), read);
        }
        self.join_from(reader, &write.clock);
    }

    /// A read by `reader` of line `la` that missed `missed`, a newer
    /// write (visible, or dirty in another host's cache) released with
    /// `wclock`: definite staleness when the write happens-before the
    /// read, a race when no edge orders them. With frozen clocks every
    /// write is ordered, so every missed write is stale.
    fn missed_write(
        &mut self,
        lay: &Layout<'_>,
        la: u64,
        now: Nanos,
        reader: Actor,
        missed: LineState,
        wclock: VClock,
    ) {
        let read = Access::read(reader, now, self.snapshot(reader));
        if !wclock.leq(&read.clock) {
            let write = Access::write(missed.actor, missed.written_at, wclock);
            self.record_race(lay, la, now, write, read);
            return;
        }
        let kind = ViolationKind::StaleRead {
            reader: reader.host(),
            writer: missed.writer,
            write_kind: missed.kind,
            written_at: missed.written_at,
            visible_at: missed.visible_at,
        };
        let key = DedupKey::Stale {
            line: la,
            reader: reader.host().0,
            event: missed.event,
        };
        self.record(lay, la, now, kind, key);
    }

    /// Flags loads that saw a multi-line write event on one line but an
    /// older state on another line the same event covered. `observed`
    /// holds lines of a single failure domain.
    fn check_torn(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        observed: &[(LineKey, u64, u64)],
    ) {
        let Some(&(fresh_key, fresh_version, fresh_event)) =
            observed.iter().max_by_key(|&&(_, v, _)| v)
        else {
            return;
        };
        if fresh_event == 0 {
            return;
        }
        let Some(meta) = self.events.get(&fresh_event) else {
            // The event is no longer current anywhere else; partial
            // observation of it is reported as staleness instead.
            return;
        };
        let fresh_line = fresh_key.1;
        let writer = meta.writer;
        let visible_at = meta.visible_at;
        let torn: Vec<u64> = observed
            .iter()
            .filter(|&&(key, v, _)| {
                key != fresh_key
                    && v < fresh_version
                    && meta.covers(key.1)
                    && !in_ranges(lay.tolerant, key.1)
            })
            .map(|&(key, _, _)| key.1)
            .collect();
        for stale_line in torn {
            self.record(
                lay,
                stale_line,
                now,
                ViolationKind::TornRead {
                    reader: host,
                    writer,
                    fresh_line,
                    stale_line,
                    visible_at,
                },
                DedupKey::Torn {
                    stale_line,
                    event: fresh_event,
                },
            );
        }
    }

    /// Audits the read-for-ownership fill of one line (write miss) or a
    /// load-miss fill: the host's copy now reflects the pool-current
    /// version.
    pub fn on_fill(&mut self, host: HostId, la: u64) {
        let (view, clock) = clean_copy(&self.events, self.state(la));
        self.views.set(host.0, la, view, clock);
    }

    /// Audits a capacity eviction of a *clean* line: the host simply
    /// forgets its copy, so the shadow view is dropped too.
    pub fn on_clean_eviction(&mut self, host: HostId, la: u64) {
        self.views.remove(host.0, la);
    }

    /// Audits one cached (write-back) store to one line. Reports a
    /// write-write conflict when another host already holds the line
    /// dirty.
    pub fn on_store(&mut self, lay: &Layout<'_>, now: Nanos, host: HostId, la: u64) {
        // Dirty elsewhere? Both hosts intend to publish: a race. When
        // several hosts hold the line dirty, report the lowest id so
        // the reported `first` (and the violation log) never varies
        // run to run; the line's views are host-sorted, so that is the
        // first dirty entry in the slot.
        if let Some(e) = self.views.min_dirty_other(host.0, la) {
            let (first, first_dirty_since) = (HostId(e.host), e.view.dirty_since);
            self.record(
                lay,
                la,
                now,
                ViolationKind::WriteWriteConflict {
                    first,
                    first_dirty_since,
                    second: host,
                },
                DedupKey::Ww {
                    line: la,
                    a: first.0.min(host.0),
                    b: first.0.max(host.0),
                },
            );
        }
        let cur = self.state(la);
        let dirty_clock = self.snapshot(Actor::Cpu(host));
        let events = &self.events;
        let entry = self
            .views
            .entry_or_insert_with(host.0, la, || clean_copy(events, cur));
        if !entry.view.dirty {
            entry.view.dirty = true;
            entry.view.dirty_since = now;
            // Freeze the merge base: publishing later writes back the
            // whole line as seen *now*.
            entry.view.base_version = entry.view.version;
            entry.dirty_clock = dirty_clock;
        }
    }

    /// Counts a cached-store op (once per `Fabric::store` call) against
    /// the domains `[hpa, hpa+len)` touches.
    pub fn count_store(&mut self, lay: &Layout<'_>, host: HostId, hpa: u64, len: u64) {
        self.report.ops_audited += 1;
        self.tick_range(lay, Actor::Cpu(host), hpa, len);
    }

    /// Audits a non-temporal store: the writer's own cached lines are
    /// dropped (dirty bytes outside the written range are lost). Returns
    /// the write's shadow, to [`Auditor::land`] once it is visible.
    pub fn on_nt_store(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> ShadowWrite {
        self.report.ops_audited += 1;
        self.tick_range(lay, Actor::Cpu(host), hpa, len);
        let cause = Some(LostWriteCause::OverwriteDiscard);
        self.drop_copies(lay, now, host, hpa, len, cause);
        let runs = self.overwrite_run(hpa, len);
        self.issue(now, Actor::Cpu(host), WriteKind::NtStore, runs)
    }

    /// Audits a device DMA write via attach host `host`: snoop drops
    /// the attach host's copies; remote hosts keep theirs (and go
    /// stale). The doorbell orders the DMA after the attach CPU's prior
    /// work (one hb edge); remote CPUs get no edge. Returns the write's
    /// shadow, to [`Auditor::land`] once it is visible.
    pub fn on_dma_write(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> ShadowWrite {
        self.report.ops_audited += 1;
        self.join_actor(Actor::Dma(host), Actor::Cpu(host));
        self.tick_range(lay, Actor::Dma(host), hpa, len);
        let cause = Some(LostWriteCause::OverwriteDiscard);
        self.drop_copies(lay, now, host, hpa, len, cause);
        let runs = self.overwrite_run(hpa, len);
        self.issue(now, Actor::Dma(host), WriteKind::DmaWrite, runs)
    }

    /// Audits a flush: `dirty` lists the dirty lines being published,
    /// in ascending order; clean lines in the range are just dropped.
    /// Returns the publish's shadow, to [`Auditor::land`] once it is
    /// visible, or `None` when no line was dirty.
    #[must_use = "a shadow write must land when its write becomes visible"]
    pub fn on_flush(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
        dirty: &[u64],
    ) -> Option<ShadowWrite> {
        self.report.ops_audited += 1;
        self.tick_range(lay, Actor::Cpu(host), hpa, len);
        let mut published: Vec<BaseRun> = Vec::new();
        for &la in dirty {
            let base = self
                .views
                .entry(host.0, la)
                .map(|e| e.view.base_version)
                .unwrap_or(0);
            match published.last_mut() {
                Some(run) if run.end == la && run.base == Base::Flat(base) => {
                    run.end += CACHELINE;
                }
                _ => published.push(BaseRun {
                    start: la,
                    end: la + CACHELINE,
                    base: Base::Flat(base),
                }),
            }
        }
        debug_assert!(published.windows(2).all(|w| w[0].end <= w[1].start));
        // clflush semantics: every line in the range leaves the cache.
        self.drop_copies(lay, now, host, hpa, len, None);
        (!published.is_empty())
            .then(|| self.issue(now, Actor::Cpu(host), WriteKind::Flush, published))
    }

    /// Audits an invalidate: dropping a dirty line without write-back
    /// loses the data.
    pub fn on_invalidate(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) {
        self.report.ops_audited += 1;
        let cause = Some(LostWriteCause::InvalidateDiscard);
        self.drop_copies(lay, now, host, hpa, len, cause);
    }

    /// Audits a DMA read via attach host `host`: the device sees the
    /// pool plus that host's dirty lines — any *other* host's dirty
    /// line in the range is invisible to it (an unpublished write the
    /// device reads around). The read also checks that the last visible
    /// write on each line is ordered before it.
    pub fn on_dma_read(&mut self, lay: &Layout<'_>, now: Nanos, host: HostId, hpa: u64, len: u64) {
        self.report.ops_audited += 1;
        let reader = Actor::Dma(host);
        self.join_actor(reader, Actor::Cpu(host));
        self.tick_range(lay, reader, hpa, len);
        let (lo, hi) = line_span(hpa, len);
        // Lines another host may hold dirty, and the first line of
        // every extent piece: once the read has joined a piece's
        // release clock, the piece's later lines can neither race nor
        // add an edge, so only these lines can report.
        let mut cached = std::mem::take(&mut self.line_scratch);
        self.views.lines_in(lo, hi, &mut cached);
        let mut pieces = std::mem::take(&mut self.piece_scratch);
        self.pieces(lo, hi, &mut pieces);
        let (mut c, mut p) = (0, 0);
        while c < cached.len() || p < pieces.len() {
            let next_cached = cached.get(c).copied().unwrap_or(u64::MAX);
            let next_piece = pieces.get(p).map_or(u64::MAX, |x| x.0);
            let la = next_cached.min(next_piece);
            if next_cached == la {
                self.dma_read_dirty(lay, now, host, la);
                c += 1;
            }
            if next_piece == la {
                let m = &self.events[&pieces[p].2];
                let write = Access::write(m.actor, m.written_at, m.wclock.clone());
                self.observe(lay, la, now, reader, &write);
                p += 1;
            }
        }
        self.line_scratch = cached;
        self.piece_scratch = pieces;
    }

    /// The remote-dirty half of [`Auditor::on_dma_read`] for line `la`:
    /// the device reads around another host's unpublished store.
    fn dma_read_dirty(&mut self, lay: &Layout<'_>, now: Nanos, host: HostId, la: u64) {
        // Lowest dirty host wins, as in on_store: the reported writer
        // is deterministic because the slot's views are host-sorted.
        let Some(e) = self.views.min_dirty_other(host.0, la) else {
            return;
        };
        let writer = HostId(e.host);
        let missed = LineState {
            event: u64::MAX ^ la,
            version: 0,
            writer,
            actor: Actor::Cpu(writer),
            kind: WriteKind::Flush,
            written_at: e.view.dirty_since,
            // Never yet visible; report the dirtying time.
            visible_at: e.view.dirty_since,
        };
        let dclock = e.dirty_clock.clone();
        self.missed_write(lay, la, now, Actor::Dma(host), missed, dclock);
    }

    /// Records the completion edge of a DMA operation: the attach
    /// host's CPU observed the CQE/doorbell, so everything the device
    /// did happens-before the CPU's subsequent work.
    pub fn on_dma_complete(&mut self, host: HostId) {
        self.join_actor(Actor::Cpu(host), Actor::Dma(host));
    }

    /// Audits a dirty capacity eviction: the line is published *now*
    /// (the fabric writes it back immediately), an accidental publish
    /// the owner never ordered.
    pub fn on_dirty_eviction(&mut self, lay: &Layout<'_>, now: Nanos, host: HostId, la: u64) {
        let base = self
            .views
            .entry(host.0, la)
            .map(|e| e.view.base_version)
            .unwrap_or(0);
        self.views.remove(host.0, la);
        self.tick(lay, Actor::Cpu(host), [(la, la + CACHELINE)]);
        let run = BaseRun {
            start: la,
            end: la + CACHELINE,
            base: Base::Flat(base),
        };
        let ev = self.issue(now, Actor::Cpu(host), WriteKind::Eviction, vec![run]);
        self.land(lay, now, ev);
    }

    /// Forgets all shadow state for `[base, end)` when the segment is
    /// freed: a reallocation of the space must be audited from scratch,
    /// not against ghosts of the previous tenant. Shadows of writes
    /// still in flight into the segment are the fabric's to drop, with
    /// their writes.
    pub fn on_segment_free(&mut self, base: u64, end: u64) {
        // Visible-write extents and views of every line the range
        // touches go in one carve and one view sweep; the carve keeps
        // event refcounts balanced.
        if end <= base {
            return;
        }
        let (lo, hi) = line_span(base, end - base);
        self.carve(lo, hi);
        self.views.clear_range(lo, hi);
    }

    /// Counts a local-DRAM access (always coherent; nothing to check).
    pub fn on_local(&mut self) {
        self.report.local_ops += 1;
    }

    /// Audits finalize: every line a host still holds dirty on a
    /// segment other hosts can read is an
    /// [`ViolationKind::UnflushedWrite`], flagged in `(host, line)`
    /// order and stamped `now`.
    pub fn on_finalize(&mut self, lay: &Layout<'_>, now: Nanos) {
        let mut dirty = self.views.dirty_views();
        dirty.sort_by_key(|&(h, la, _)| (h, la));
        for (h, la, dirty_since) in dirty {
            if lay.alloc.segment_at(la).is_ok_and(|s| s.owners().len() > 1) {
                let writer = HostId(h);
                let kind = ViolationKind::UnflushedWrite {
                    writer,
                    dirty_since,
                };
                let key = DedupKey::Unflushed {
                    line: la,
                    writer: h,
                };
                self.record(lay, la, now, kind, key);
            }
        }
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Drops `host`'s cached copies of every line `[hpa, hpa+len)`
    /// touches. With a `cause`, a dirty copy's bytes are lost: all of
    /// them on an invalidate, and on an overwrite those of lines the
    /// overwrite does not fully replace.
    fn drop_copies(
        &mut self,
        lay: &Layout<'_>,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
        cause: Option<LostWriteCause>,
    ) {
        let (lo, hi) = line_span(hpa, len);
        let mut lines = std::mem::take(&mut self.line_scratch);
        self.views.lines_in(lo, hi, &mut lines);
        for &la in &lines {
            let Some(view) = self.views.remove(host.0, la) else {
                continue;
            };
            let Some(cause) = cause.filter(|_| view.dirty) else {
                continue;
            };
            let replaced = hpa <= la && la + CACHELINE <= hpa + len;
            if cause != LostWriteCause::OverwriteDiscard || !replaced {
                self.record_lost(lay, la, now, (host, host), cause, view.dirty_since);
            }
        }
        self.line_scratch = lines;
    }

    /// The one base run of an overwrite of `[hpa, hpa+len)`: it
    /// replaces whole lines, so it clobbers whatever lands on them after
    /// it is issued.
    fn overwrite_run(&self, hpa: u64, len: u64) -> Vec<BaseRun> {
        let (start, end) = line_span(hpa, len);
        vec![BaseRun {
            start,
            end,
            base: Base::Since(self.landed),
        }]
    }

    /// Records `victim`'s dirty (or visible) data lost to `by`.
    fn record_lost(
        &mut self,
        lay: &Layout<'_>,
        la: u64,
        now: Nanos,
        (victim, by): (HostId, HostId),
        cause: LostWriteCause,
        dirty_since: Nanos,
    ) {
        let kind = ViolationKind::LostWrite {
            victim,
            by,
            cause,
            dirty_since,
        };
        let key = DedupKey::Lost {
            line: la,
            victim: victim.0,
            by: by.0,
            cause,
        };
        self.record(lay, la, now, kind, key);
    }

    /// Records a happens-before race between two conflicting accesses;
    /// the pair dedups regardless of which actor came first.
    fn record_race(
        &mut self,
        lay: &Layout<'_>,
        la: u64,
        now: Nanos,
        first: Access,
        second: Access,
    ) {
        let (a, b) = (first.actor.index(), second.actor.index());
        let key = DedupKey::Concurrent {
            line: la,
            a: a.min(b),
            b: a.max(b),
            accesses: (first.kind, second.kind),
        };
        let kind = ViolationKind::ConcurrentConflict {
            first: first.actor,
            first_access: first.kind,
            first_at: first.at,
            first_clock: first.clock,
            second: second.actor,
            second_access: second.kind,
            second_at: second.at,
            second_clock: second.clock,
        };
        self.record(lay, la, now, kind, key);
    }

    fn record(
        &mut self,
        lay: &Layout<'_>,
        line: u64,
        detected_at: Nanos,
        kind: ViolationKind,
        key: DedupKey,
    ) {
        let domain = lay.domain_of(line);
        match &kind {
            ViolationKind::StaleRead { .. } => self.report.counts.stale_reads += 1,
            ViolationKind::TornRead { .. } => self.report.counts.torn_reads += 1,
            ViolationKind::LostWrite { .. } => self.report.counts.lost_writes += 1,
            ViolationKind::WriteWriteConflict { .. } => self.report.counts.ww_conflicts += 1,
            ViolationKind::UnflushedWrite { .. } => self.report.counts.unflushed_writes += 1,
            ViolationKind::ConcurrentConflict { .. } => {
                self.report.counts.concurrent_conflicts += 1
            }
        }
        if !self.seen.insert((domain, key))
            || self.report.violations.len() >= self.config.max_recorded
        {
            self.report.suppressed += 1;
            return;
        }
        self.report.violations.push(Violation {
            line,
            detected_at,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    use crate::alloc::DomainPlacement;

    const L: u64 = CACHELINE;

    /// A two-host pod's segment table and topology, each of its two
    /// MHDs its own failure domain.
    struct Pod {
        alloc: PoolAllocator,
        topo: Topology,
    }

    impl Pod {
        fn new() -> Pod {
            Pod {
                alloc: PoolAllocator::new(2, 1 << 30),
                topo: Topology::dense(2, 2, 2),
            }
        }

        /// Allocates `len` bytes shared by both hosts under `placement`
        /// and returns the segment's base.
        fn alloc(&mut self, len: u64, placement: DomainPlacement) -> u64 {
            let owners = [HostId(0), HostId(1)];
            self.alloc
                .alloc_placed(&self.topo, &owners, len, 2, placement)
                .expect("alloc")
                .base()
        }

        fn lay(&self) -> Layout<'_> {
            Layout {
                alloc: &self.alloc,
                topology: &self.topo,
                tolerant: &[],
                sync: &[],
            }
        }
    }

    /// The layout of a pod with no live segment: every line audits in
    /// domain 0.
    fn bare() -> Layout<'static> {
        static POD: OnceLock<Pod> = OnceLock::new();
        POD.get_or_init(Pod::new).lay()
    }

    /// Version-mode config (these tests pin the single-version
    /// semantics).
    fn ver() -> AuditConfig {
        AuditConfig {
            mode: AuditMode::Version,
            ..AuditConfig::default()
        }
    }

    /// Vector-clock-mode config.
    fn vc() -> AuditConfig {
        AuditConfig {
            mode: AuditMode::VectorClock,
            ..AuditConfig::default()
        }
    }

    /// Drives the auditor directly (no fabric) through a stale-read
    /// scenario: host 1 caches a line, host 0 publishes, host 1 hits.
    #[test]
    fn stale_hit_after_remote_publish_is_flagged() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        // Host 1 load-misses line 0 (caches pool state, version 0).
        a.on_load(&lay, Nanos(0), HostId(1), &[(0, false)]);
        // Host 0 nt-stores the line, visible at t=100.
        let w = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, L);
        a.land(&lay, Nanos(100), w);
        // Host 1 hits its stale copy.
        a.on_load(&lay, Nanos(200), HostId(1), &[(0, true)]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 1);
        match &r.violations[0].kind {
            ViolationKind::StaleRead { reader, writer, .. } => {
                assert_eq!(*reader, HostId(1));
                assert_eq!(*writer, HostId(0));
            }
            other => panic!("expected StaleRead, got {other:?}"),
        }
    }

    #[test]
    fn own_write_hit_is_not_stale() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        a.on_load(&lay, Nanos(0), HostId(0), &[(0, false)]);
        let w = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, L);
        a.land(&lay, Nanos(100), w);
        // Host 0 re-caching pre-publish bytes of its *own* write is an
        // ordering quirk, not a cross-host hazard.
        a.on_load(&lay, Nanos(200), HostId(0), &[(0, true)]);
        assert!(a.report().is_clean());
    }

    #[test]
    fn visibility_order_not_issue_order_decides_staleness() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        // Host 0 issues a slow write first (visible at 200), host 1 a
        // fast one second (visible at 100). They land in visibility
        // order, as the fabric settles them, so the final state is
        // host 0's.
        let slow = a.on_nt_store(&lay, Nanos(0), HostId(0), 0, L);
        let fast = a.on_nt_store(&lay, Nanos(10), HostId(1), 0, L);
        a.land(&lay, Nanos(100), fast);
        a.land(&lay, Nanos(200), slow);
        // A host that missed *after* both applied observes the final
        // (host 0) version: fresh, no violation.
        a.on_load(&lay, Nanos(300), HostId(1), &[(0, false)]);
        a.on_load(&lay, Nanos(310), HostId(1), &[(0, true)]);
        assert_eq!(a.report().counts.stale_reads, 0);
    }

    #[test]
    fn invalidate_of_dirty_line_loses_the_write() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        a.on_fill(HostId(0), 0);
        a.on_store(&lay, Nanos(5), HostId(0), 0);
        a.on_invalidate(&lay, Nanos(10), HostId(0), 0, L);
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 1);
        match &r.violations[0].kind {
            ViolationKind::LostWrite { cause, victim, .. } => {
                assert_eq!(*cause, LostWriteCause::InvalidateDiscard);
                assert_eq!(*victim, HostId(0));
            }
            other => panic!("expected LostWrite, got {other:?}"),
        }
    }

    #[test]
    fn two_dirty_hosts_conflict() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        a.on_fill(HostId(0), 0);
        a.on_store(&lay, Nanos(5), HostId(0), 0);
        a.on_fill(HostId(1), 0);
        a.on_store(&lay, Nanos(9), HostId(1), 0);
        let r = a.report();
        assert_eq!(r.counts.ww_conflicts, 1);
        match &r.violations[0].kind {
            ViolationKind::WriteWriteConflict { first, second, .. } => {
                assert_eq!(*first, HostId(0));
                assert_eq!(*second, HostId(1));
            }
            other => panic!("expected WriteWriteConflict, got {other:?}"),
        }
    }

    #[test]
    fn stale_base_flush_clobbers_newer_write() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        // Host 1 fills at version 0 and dirties the line.
        a.on_fill(HostId(1), 0);
        a.on_store(&lay, Nanos(5), HostId(1), 0);
        // Host 0 publishes a newer value.
        let w = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, L);
        a.land(&lay, Nanos(50), w);
        // Host 1 flushes its version-0-based merge over it.
        let w = a
            .on_flush(&lay, Nanos(60), HostId(1), 0, L, &[0])
            .expect("dirty line published");
        a.land(&lay, Nanos(120), w);
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 1);
        match &r.violations[0].kind {
            ViolationKind::LostWrite {
                cause, victim, by, ..
            } => {
                assert_eq!(*cause, LostWriteCause::StaleBasePublish);
                assert_eq!(*victim, HostId(0));
                assert_eq!(*by, HostId(1));
            }
            other => panic!("expected LostWrite, got {other:?}"),
        }
    }

    #[test]
    fn torn_multi_line_read_is_flagged_and_tolerance_suppresses_it() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        // Host 1 caches both lines at version 0.
        a.on_load(&lay, Nanos(0), HostId(1), &[(0, false), (L, false)]);
        // Host 0 publishes a 2-line write.
        let w = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, 2 * L);
        a.land(&lay, Nanos(100), w);
        // Host 1's next load hits line 0 stale but misses line 1
        // (fresh): a torn observation of one event.
        a.on_load(&lay, Nanos(200), HostId(1), &[(0, true), (L, false)]);
        let r = a.report();
        assert_eq!(r.counts.torn_reads, 1);
        match &r
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::TornRead { .. }))
            .unwrap()
            .kind
        {
            ViolationKind::TornRead {
                fresh_line,
                stale_line,
                writer,
                reader,
                ..
            } => {
                assert_eq!(*fresh_line, L);
                assert_eq!(*stale_line, 0);
                assert_eq!(*writer, HostId(0));
                assert_eq!(*reader, HostId(1));
            }
            other => panic!("expected TornRead, got {other:?}"),
        }

        // The same pattern inside a tear-tolerant range stays quiet.
        let mut b = Auditor::new(ver());
        b.on_load(&lay, Nanos(0), HostId(1), &[(0, false), (L, false)]);
        let w = b.on_nt_store(&lay, Nanos(10), HostId(0), 0, 2 * L);
        b.land(&lay, Nanos(100), w);
        let tolerant = Layout {
            tolerant: &[(0, 2 * L)],
            ..lay
        };
        b.on_load(&tolerant, Nanos(200), HostId(1), &[(0, true), (L, false)]);
        assert_eq!(b.report().counts.torn_reads, 0);
    }

    #[test]
    fn duplicate_violations_count_but_record_once() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        a.on_load(&lay, Nanos(0), HostId(1), &[(0, false)]);
        let w = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, L);
        a.land(&lay, Nanos(100), w);
        a.on_load(&lay, Nanos(200), HostId(1), &[(0, true)]);
        a.on_load(&lay, Nanos(300), HostId(1), &[(0, true)]);
        a.on_load(&lay, Nanos(400), HostId(1), &[(0, true)]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 3);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn record_cap_suppresses_overflow() {
        let lay = bare();
        let mut a = Auditor::new(AuditConfig {
            max_recorded: 1,
            ..ver()
        });
        a.on_fill(HostId(0), 0);
        a.on_store(&lay, Nanos(1), HostId(0), 0);
        a.on_invalidate(&lay, Nanos(2), HostId(0), 0, L);
        a.on_fill(HostId(0), L);
        a.on_store(&lay, Nanos(3), HostId(0), L);
        a.on_invalidate(&lay, Nanos(4), HostId(0), L, L);
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn display_mentions_parties_and_kind() {
        let v = Violation {
            line: 0x40,
            detected_at: Nanos(7),
            kind: ViolationKind::StaleRead {
                reader: HostId(1),
                writer: HostId(0),
                write_kind: WriteKind::NtStore,
                written_at: Nanos(1),
                visible_at: Nanos(2),
            },
        };
        let s = v.to_string();
        assert!(s.contains("stale-read"));
        assert!(s.contains("host 1"));
        assert!(s.contains("host 0"));
    }

    // -----------------------------------------------------------------
    // Vector-clock mode
    // -----------------------------------------------------------------

    #[test]
    fn vclock_partial_order_basics() {
        let mut a = VClock::default();
        let mut b = VClock::default();
        a.bump(Actor::Cpu(HostId(0)).index());
        b.bump(Actor::Cpu(HostId(1)).index());
        assert!(a.concurrent_with(&b));
        assert!(!a.leq(&b) && !b.leq(&a));
        // Join orders them.
        b.join(&a);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        assert!(!a.concurrent_with(&b));
        assert_eq!(b.get(Actor::Cpu(HostId(0)).index()), 1);
        assert_eq!(b.get(Actor::Cpu(HostId(1)).index()), 1);
    }

    #[test]
    fn actor_index_roundtrip_and_display() {
        for actor in [
            Actor::Cpu(HostId(0)),
            Actor::Dma(HostId(0)),
            Actor::Cpu(HostId(5)),
            Actor::Dma(HostId(5)),
        ] {
            assert_eq!(Actor::from_index(actor.index()), actor);
        }
        assert_eq!(Actor::Cpu(HostId(3)).to_string(), "cpu3");
        assert_eq!(Actor::Dma(HostId(3)).to_string(), "dma3");
    }

    #[test]
    fn unordered_writes_race_in_vc_mode_but_not_version_mode() {
        let lay = bare();
        // Two hosts publish the same line with no coherence edge
        // between them: version mode invents an order, vector clocks
        // call the race out.
        let run = |cfg: AuditConfig| {
            let mut a = Auditor::new(cfg);
            let first = a.on_nt_store(&lay, Nanos(0), HostId(0), 0, L);
            let second = a.on_nt_store(&lay, Nanos(10), HostId(1), 0, L);
            a.land(&lay, Nanos(100), first);
            a.land(&lay, Nanos(110), second);
            a.report().clone()
        };
        assert_eq!(run(ver()).counts.concurrent_conflicts, 0);
        let r = run(vc());
        assert_eq!(r.counts.concurrent_conflicts, 1);
        match &r
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::ConcurrentConflict { .. }))
            .unwrap()
            .kind
        {
            ViolationKind::ConcurrentConflict {
                first,
                second,
                first_clock,
                second_clock,
                ..
            } => {
                assert_eq!(*first, Actor::Cpu(HostId(0)));
                assert_eq!(*second, Actor::Cpu(HostId(1)));
                assert!(first_clock.concurrent_with(second_clock));
            }
            other => panic!("expected ConcurrentConflict, got {other:?}"),
        }
    }

    #[test]
    fn dma_completion_edge_orders_cpu_read_after_dma_write() {
        let lay = bare();
        // Without the completion edge the attach CPU's fresh read of a
        // DMA-written line races it; with the edge it is ordered.
        let run = |complete: bool| {
            let mut a = Auditor::new(vc());
            let w = a.on_dma_write(&lay, Nanos(0), HostId(0), 0, L);
            a.land(&lay, Nanos(100), w);
            if complete {
                a.on_dma_complete(HostId(0));
            }
            a.on_load(&lay, Nanos(200), HostId(0), &[(0, false)]);
            a.report().counts.concurrent_conflicts
        };
        assert_eq!(run(false), 1);
        assert_eq!(run(true), 0);
    }

    #[test]
    fn sync_range_miss_is_an_acquire_edge() {
        // Host 0 publishes a flag line registered as a sync range;
        // host 1's fresh read of it joins host 0's clock, ordering a
        // subsequent read of host 0's earlier data write.
        let run = |sync: &[(u64, u64)]| {
            let lay = Layout { sync, ..bare() };
            let mut a = Auditor::new(vc());
            // Data write, then flag write (program order on cpu0).
            let data = a.on_nt_store(&lay, Nanos(0), HostId(0), 2 * L, L);
            let flag = a.on_nt_store(&lay, Nanos(10), HostId(0), 0, L);
            a.land(&lay, Nanos(90), data);
            a.land(&lay, Nanos(100), flag);
            // Host 1 reads flag then data, both fresh.
            a.on_load(&lay, Nanos(200), HostId(1), &[(0, false)]);
            a.on_load(&lay, Nanos(210), HostId(1), &[(2 * L, false)]);
            a.report().counts.concurrent_conflicts
        };
        // No sync range: the flag read itself races host 0's write.
        assert!(run(&[]) > 0);
        // Flag line registered: acquire edge, everything ordered.
        assert_eq!(run(&[(0, L)]), 0);
    }

    #[test]
    fn stale_hit_with_edge_is_precise_stale_read_not_race() {
        let lay = bare();
        let mut a = Auditor::new(vc());
        // Host 1 caches the data line.
        a.on_load(&lay, Nanos(0), HostId(1), &[(2 * L, false)]);
        // Host 0 publishes data then a sync flag.
        let data = a.on_nt_store(&lay, Nanos(10), HostId(0), 2 * L, L);
        let flag = a.on_nt_store(&lay, Nanos(20), HostId(0), 0, L);
        a.land(&lay, Nanos(90), data);
        a.land(&lay, Nanos(100), flag);
        // Host 1 acquires via the flag, then hits its stale data copy:
        // the missed write is hb-ordered before the read, so this is a
        // definite stale read, not a race.
        let sync = Layout {
            sync: &[(0, L)],
            ..lay
        };
        a.on_load(&sync, Nanos(200), HostId(1), &[(0, false)]);
        a.on_load(&sync, Nanos(210), HostId(1), &[(2 * L, true)]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 1);
        assert_eq!(r.counts.concurrent_conflicts, 0);
    }

    #[test]
    fn segment_free_clears_shadow_state() {
        let lay = bare();
        let mut a = Auditor::new(vc());
        let w = a.on_nt_store(&lay, Nanos(0), HostId(0), 0, 2 * L);
        a.land(&lay, Nanos(100), w);
        let sync = Layout {
            sync: &[(0, 2 * L)],
            ..lay
        };
        a.on_load(&sync, Nanos(110), HostId(1), &[(0, false)]);
        a.on_segment_free(0, 2 * L);
        // The next tenant of the space starts from scratch: a fresh
        // read finds no prior write to race with.
        a.on_load(&lay, Nanos(200), HostId(2), &[(0, false), (L, false)]);
        assert!(a.report().is_clean());
        assert!(a.race_report(&lay).line_clocks.is_empty());
    }

    #[test]
    fn race_report_carries_clock_snapshots() {
        let lay = bare();
        let mut a = Auditor::new(vc());
        let first = a.on_nt_store(&lay, Nanos(0), HostId(0), 0, L);
        let second = a.on_nt_store(&lay, Nanos(10), HostId(1), 0, L);
        a.land(&lay, Nanos(100), first);
        a.land(&lay, Nanos(110), second);
        let rr = a.race_report(&lay);
        assert_eq!(rr.conflicts.len(), 1);
        assert_eq!(rr.line_clocks.len(), 1);
        assert_eq!(rr.line_clocks[0].0, 0);
        assert!(rr
            .actor_clocks
            .iter()
            .any(|(actor, _)| *actor == Actor::Cpu(HostId(0))));
        let rendered = rr.render();
        assert!(rendered.contains("concurrent conflict"));
        assert!(rendered.contains("cpu0"));
    }

    #[test]
    fn version_mode_keeps_empty_race_report() {
        let lay = bare();
        let mut a = Auditor::new(ver());
        let w = a.on_nt_store(&lay, Nanos(0), HostId(0), 0, L);
        a.land(&lay, Nanos(100), w);
        let rr = a.race_report(&lay);
        assert!(rr.conflicts.is_empty());
        assert!(rr.actor_clocks.is_empty());
        assert!(rr.line_clocks.is_empty());
    }

    // -----------------------------------------------------------------
    // Failure-domain namespacing
    // -----------------------------------------------------------------

    #[test]
    fn domain_index_roundtrip_and_display() {
        let a = Actor::Dma(HostId(3));
        assert_eq!(a.index_in(DomainId(0)), a.index());
        let i = a.index_in(DomainId(2));
        assert_eq!(Actor::from_index(i), a);
        assert_eq!(domain_of_index(i), DomainId(2));
        // Distinct (actor, domain) pairs never collide.
        assert_ne!(
            Actor::Cpu(HostId(u16::MAX)).index_in(DomainId(0)),
            Actor::Cpu(HostId(0)).index_in(DomainId(1))
        );

        let mut c = VClock::default();
        c.bump(Actor::Cpu(HostId(1)).index_in(DomainId(0)));
        c.bump(Actor::Cpu(HostId(1)).index_in(DomainId(2)));
        let s = c.to_string();
        assert!(s.contains("cpu1:1"), "domain-0 component plain: {s}");
        assert!(s.contains("cpu1@d2:1"), "domain-2 component tagged: {s}");
    }

    #[test]
    fn unmapped_addresses_audit_in_domain_zero() {
        assert_eq!(bare().domain_of(0x1234_0000), DomainId(0));
    }

    #[test]
    fn segment_table_resolves_per_granule_domains() {
        const G: u64 = INTERLEAVE_GRANULE;
        let mut pod = Pod::new();
        // Two-way interleave alternating domains every granule.
        let base = pod.alloc(4 * G, DomainPlacement::Striped { min_domains: 2 });
        let lay = pod.lay();
        assert_eq!(lay.domain_of(base), DomainId(0));
        assert_eq!(lay.domain_of(base + G), DomainId(1));
        assert_eq!(lay.domain_of(base + 2 * G), DomainId(0));
        // Outside the segment: default domain.
        assert_eq!(lay.domain_of(base + 4 * G), DomainId(0));
    }

    #[test]
    fn per_domain_versions_do_not_cross() {
        let mut pod = Pod::new();
        let base = pod.alloc(INTERLEAVE_GRANULE, DomainPlacement::Pinned(DomainId(1)));
        let lay = pod.lay();
        let mut a = Auditor::new(ver());
        // A write in domain 1 then a host caching a domain-0 line: the
        // domain-0 view must not appear stale against the domain-1
        // write's version.
        let w = a.on_nt_store(&lay, Nanos(0), HostId(0), base, L);
        a.land(&lay, Nanos(50), w);
        let far = base + 0x10_0000;
        a.on_load(&lay, Nanos(60), HostId(1), &[(far, false)]);
        a.on_load(&lay, Nanos(70), HostId(1), &[(far, true)]);
        assert!(a.report().is_clean(), "{}", a.report().render());
    }

    #[test]
    fn cross_domain_reuse_does_not_alias_shadow_state() {
        // The pool never reuses an address, so two segment tables stage
        // the reuse: the same range in domain 0, then in domain 1.
        let (mut first, mut second) = (Pod::new(), Pod::new());
        let base = first.alloc(2 * L, DomainPlacement::Pinned(DomainId(0)));
        assert_eq!(
            second.alloc(2 * L, DomainPlacement::Pinned(DomainId(1))),
            base
        );
        let mut a = Auditor::new(vc());
        // First tenant: host 0 publishes and host 1 caches the range.
        let lay = first.lay();
        let w = a.on_nt_store(&lay, Nanos(0), HostId(0), base, 2 * L);
        a.land(&lay, Nanos(100), w);
        let sync = Layout {
            sync: &[(base, base + 2 * L)],
            ..lay
        };
        a.on_load(&sync, Nanos(110), HostId(1), &[(base, false)]);
        // Free the range; the next tenant holds it in domain 1.
        a.on_segment_free(base, base + 2 * L);
        let lay = second.lay();
        // The new tenant's fresh accesses find no ghost of the old
        // domain's writes: no stale read, no race, no line clocks.
        a.on_load(
            &lay,
            Nanos(200),
            HostId(2),
            &[(base, false), (base + L, false)],
        );
        let w = a.on_nt_store(&lay, Nanos(210), HostId(2), base, L);
        a.land(&lay, Nanos(300), w);
        assert!(a.report().is_clean(), "{}", a.report().render());
        let rr = a.race_report(&lay);
        assert_eq!(rr.line_clocks.len(), 1, "only the new tenant's write");
    }

    // -----------------------------------------------------------------
    // View table and extent map
    // -----------------------------------------------------------------

    fn hv(version: u64, event: u64) -> HostView {
        HostView {
            version,
            event,
            dirty: false,
            dirty_since: Nanos::ZERO,
            base_version: version,
        }
    }

    /// The paged view table must answer every query the auditor makes
    /// exactly like a plain map of `(host, line) → view`, including
    /// range walks across page and bitmap-word boundaries and range
    /// clears that release pages.
    #[test]
    fn view_table_matches_hashmap_oracle() {
        use simkit::rng::Rng;
        use std::collections::HashMap;

        const FLOOR: u64 = 1 << 20;
        // Spans three 1024-line pages.
        const LINES: u64 = 2200;

        for seed in [1u64, 7, 42, 0xC0FFEE] {
            let mut rng = Rng::new(seed);
            let mut table = ViewTable::default();
            let mut oracle: HashMap<(u16, u64), HostView> = HashMap::new();
            let line_at = |rng: &mut Rng| FLOOR + rng.below(LINES) * CACHELINE;
            for step in 0..6000u64 {
                let la = line_at(&mut rng);
                let h = rng.below(4) as u16;
                match rng.below(10) {
                    0..=3 => {
                        table.set(h, la, hv(step, step), VClock::default());
                        oracle.insert((h, la), hv(step, step));
                    }
                    4 | 5 => {
                        // The on_store shape: seed-or-get, then dirty.
                        let entry = table
                            .entry_or_insert_with(h, la, || (hv(step, step), VClock::default()));
                        let oview = oracle.entry((h, la)).or_insert(hv(step, step));
                        assert_eq!(entry.view, *oview);
                        if !entry.view.dirty {
                            entry.view.dirty = true;
                            entry.view.dirty_since = Nanos(step);
                            *oview = entry.view;
                        }
                    }
                    6..=8 => {
                        assert_eq!(table.remove(h, la), oracle.remove(&(h, la)));
                    }
                    _ if step.is_multiple_of(4) => {
                        let hi = la + (rng.below(600) + 1) * CACHELINE;
                        table.clear_range(la, hi);
                        oracle.retain(|&(_, l), _| l < la || l >= hi);
                    }
                    _ => {}
                }
                let q = line_at(&mut rng);
                let qh = rng.below(4) as u16;
                assert_eq!(
                    table.entry(qh, q).map(|e| e.view),
                    oracle.get(&(qh, q)).copied()
                );
                let want_dirty = (0..4u16)
                    .filter(|&o| o != qh)
                    .filter_map(|o| oracle.get(&(o, q)).filter(|v| v.dirty).map(|v| (o, v)))
                    .min_by_key(|&(o, _)| o)
                    .map(|(o, v)| (HostId(o), v.dirty_since));
                assert_eq!(
                    table
                        .min_dirty_other(qh, q)
                        .map(|e| (HostId(e.host), e.view.dirty_since)),
                    want_dirty
                );
                let qhi = q + (rng.below(700) + 1) * CACHELINE;
                let mut got = Vec::new();
                table.lines_in(q, qhi, &mut got);
                let mut want: Vec<u64> = oracle
                    .keys()
                    .map(|&(_, l)| l)
                    .filter(|&l| l >= q && l < qhi)
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(got, want, "seed {seed} step {step}");
            }
            let mut want: Vec<(u16, u64, Nanos)> = oracle
                .iter()
                .filter(|(_, v)| v.dirty)
                .map(|(&(h, la), v)| (h, la, v.dirty_since))
                .collect();
            want.sort_unstable_by_key(|&(h, la, _)| (la, h));
            assert_eq!(table.dirty_views(), want, "seed {seed}");
            table.clear_range(0, (FLOOR + LINES * CACHELINE) * 2);
            assert!(table.pages.iter().all(Option::is_none), "pages released");
        }
    }

    /// The granule-stepped domain walk must find exactly the domains
    /// that resolving each line through the segment table finds, across
    /// unmapped gaps (below the pool floor, after frees, past unaligned
    /// segment ends) and fresh allocations.
    #[test]
    fn domain_walk_matches_per_line_resolution() {
        use crate::alloc::SegmentId;
        use simkit::rng::Rng;

        let mut rng = Rng::new(5);
        // Three domains of two MHDs each; the host reaches all six.
        let topo = Topology::multi_domain(1, 3, 2, 6);
        let mut alloc = PoolAllocator::new(6, 1 << 40);
        let mut live: Vec<SegmentId> = Vec::new();
        let floor = 1 << 20;
        let mut top = floor;
        for _ in 0..300 {
            if !live.is_empty() && rng.chance(0.3) {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                alloc.free(id).expect("live segment");
            } else {
                let placement = match rng.below(3) {
                    0 => DomainPlacement::Any,
                    1 => DomainPlacement::Pinned(DomainId(rng.below(3) as u16)),
                    _ => DomainPlacement::Striped {
                        min_domains: 2 + rng.below(2) as usize,
                    },
                };
                let len = 1 + rng.below(1 << 13);
                let ways = 1 + rng.below(4) as usize;
                let seg = alloc
                    .alloc_placed(&topo, &[HostId(0)], len, ways, placement)
                    .expect("alloc");
                top = seg.end();
                live.push(seg.id());
            }
            let lay = Layout {
                alloc: &alloc,
                topology: &topo,
                tolerant: &[],
                sync: &[],
            };
            let lo = line_of(floor - 8192 + rng.below(top - floor + 16384));
            let hi = lo + (1 + rng.below(200)) * L;
            let mut got = Vec::new();
            lay.push_domains(lo, hi, &mut got);
            got.sort_unstable();
            got.dedup();
            let mut want: Vec<DomainId> = (lo..hi)
                .step_by(L as usize)
                .map(|la| match alloc.segment_at(la) {
                    Ok(seg) => topo.domain_of(seg.mhd_for(la)),
                    Err(_) => DomainId(0),
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "[{lo:#x}, {hi:#x})");
        }
    }

    /// Extents must resolve every line to the same current write as a
    /// per-line table would, and keep each event's refcount equal to
    /// the number of lines it is still current on, across partial
    /// overwrites and frees.
    #[test]
    fn extents_track_per_line_writes_and_refcounts() {
        use simkit::rng::Rng;
        use std::collections::BTreeMap;

        const LINES: u64 = 300;

        let mut pod = Pod::new();
        let floor = pod.alloc(LINES * L, DomainPlacement::Striped { min_domains: 2 });
        let lay = pod.lay();
        for seed in [3u64, 11, 0xBEEF] {
            let mut rng = Rng::new(seed);
            let mut a = Auditor::new(ver());
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next_event = 1;
            for step in 0..2000u64 {
                let first = rng.below(LINES);
                let lines = 1 + rng.below((LINES - first).min(40));
                let lo = floor + first * L;
                if rng.chance(0.05) {
                    a.on_segment_free(lo, lo + lines * L);
                    model.retain(|&la, _| la < lo || la >= lo + lines * L);
                } else {
                    // Mid-line starts and ends still cover whole lines.
                    let cut = rng.below(2) * 8;
                    let (hpa, len) = (lo + cut, lines * L - cut);
                    let w = a.on_nt_store(&lay, Nanos(step), HostId(0), hpa, len);
                    a.land(&lay, Nanos(step), w);
                    for i in 0..lines {
                        model.insert(lo + i * L, next_event);
                    }
                    next_event += 1;
                }
                for i in 0..LINES {
                    let la = floor + i * L;
                    assert_eq!(
                        a.meta_at(la).map(|(e, _)| e),
                        model.get(&la).copied(),
                        "seed {seed} step {step} line {la:#x}"
                    );
                }
                let mut refs: BTreeMap<u64, u64> = BTreeMap::new();
                for &e in model.values() {
                    *refs.entry(e).or_default() += 1;
                }
                assert_eq!(a.events.len(), refs.len());
                for (e, n) in refs {
                    assert_eq!(a.events[&e].refs, n, "seed {seed} event {e}");
                }
            }
        }
    }
}
