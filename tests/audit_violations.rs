//! Negative tests for the coherence auditor: each test commits a
//! deliberate protocol sin through the real `Fabric` API and asserts
//! the auditor reports the right violation kind with the right
//! provenance (writer, reader, timing). The flip side — that correct
//! protocols run audit-clean — is asserted by `chaos.rs` and
//! `properties.rs`.

use cxl_fabric::audit::Layout;
use cxl_fabric::{
    domain_of_index, AccessKind, Actor, AuditConfig, AuditMode, Auditor, DomainId, DomainPlacement,
    Fabric, HostId, LostWriteCause, PodConfig, PoolAllocator, Segment, Topology, ViolationKind,
    WriteKind, DOMAIN_STRIDE,
};
use simkit::Nanos;

const LINE: u64 = 64;

/// Version-mode audit config: the provenance assertions below are
/// about the single-version scheme's exact reports (the vector-clock
/// analysis reclassifies some of them as races — covered by the
/// `*_concurrent_conflict` tests).
fn version_cfg() -> AuditConfig {
    AuditConfig {
        mode: AuditMode::Version,
        ..AuditConfig::default()
    }
}

fn vc_cfg() -> AuditConfig {
    AuditConfig {
        mode: AuditMode::VectorClock,
        ..AuditConfig::default()
    }
}

fn audited_pod() -> (Fabric, Segment) {
    audited_pod_mode(version_cfg())
}

fn audited_pod_mode(cfg: AuditConfig) -> (Fabric, Segment) {
    let mut f = Fabric::new(PodConfig::new(2, 2, 2));
    f.enable_audit(cfg);
    let seg = f
        .alloc_shared(&[HostId(0), HostId(1)], 4096)
        .expect("alloc");
    (f, seg)
}

/// Omitting the reader-side invalidate after a remote publish is the
/// canonical staleness bug: the reader must be told who wrote and when.
#[test]
fn omitted_invalidate_fires_stale_read_with_provenance() {
    let (mut f, seg) = audited_pod();
    // Host 1 caches the line.
    let mut buf = [0u8; LINE as usize];
    let t = f
        .load(Nanos(0), HostId(1), seg.base(), &mut buf)
        .expect("load");
    // Host 0 publishes with an nt-store; wait for visibility.
    let done = f
        .nt_store(t, HostId(0), seg.base(), &[0xAA; LINE as usize])
        .expect("nt");
    // BUG under test: host 1 reads again WITHOUT invalidating.
    f.load(done + Nanos(10), HostId(1), seg.base(), &mut buf)
        .expect("load");
    assert_eq!(buf, [0u8; LINE as usize], "stale bytes served");

    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.stale_reads, 1);
    let v = &report.violations[0];
    assert_eq!(v.line, seg.base());
    match &v.kind {
        ViolationKind::StaleRead {
            reader,
            writer,
            write_kind,
            written_at,
            visible_at,
        } => {
            assert_eq!(*reader, HostId(1));
            assert_eq!(*writer, HostId(0));
            assert_eq!(*write_kind, WriteKind::NtStore);
            assert_eq!(*written_at, t);
            assert_eq!(*visible_at, done);
        }
        other => panic!("expected StaleRead, got {other:?}"),
    }
    // The report renders the parties for humans.
    let text = report.render();
    assert!(text.contains("stale-read"), "render: {text}");
    assert!(text.contains("host 1"), "render: {text}");
}

/// Omitting the writer-side flush leaves the write invisible forever:
/// finalize must flag it against the writer.
#[test]
fn omitted_flush_fires_unflushed_write_with_provenance() {
    let (mut f, seg) = audited_pod();
    // BUG under test: host 0 writes through its cache and never
    // flushes.
    let t = f
        .store(Nanos(0), HostId(0), seg.base(), &[0x55; LINE as usize])
        .expect("store");
    // Host 1 reads fresh from the pool and sees nothing — which is the
    // point: the write was never published.
    let mut buf = [0xFF; LINE as usize];
    let end = f.load(t, HostId(1), seg.base(), &mut buf).expect("load");
    assert_eq!(buf, [0u8; LINE as usize]);

    let report = f.audit_finalize(end).expect("audit on");
    assert_eq!(report.counts.unflushed_writes, 1);
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::UnflushedWrite { .. }))
        .expect("unflushed write recorded");
    assert_eq!(v.line, seg.base());
    match &v.kind {
        ViolationKind::UnflushedWrite {
            writer,
            dirty_since,
        } => {
            assert_eq!(*writer, HostId(0));
            assert_eq!(*dirty_since, Nanos(0));
        }
        other => panic!("expected UnflushedWrite, got {other:?}"),
    }
}

/// A flushed write on a shared segment satisfies finalize.
#[test]
fn flushed_write_passes_finalize() {
    let (mut f, seg) = audited_pod();
    let t = f
        .store(Nanos(0), HostId(0), seg.base(), &[0x55; LINE as usize])
        .expect("store");
    let t = f.flush(t, HostId(0), seg.base(), LINE).expect("flush");
    let report = f.audit_finalize(t).expect("audit on");
    assert!(report.is_clean(), "violations:\n{}", report.render());
}

/// Dirty data on a *private* segment concerns nobody else; finalize
/// stays quiet.
#[test]
fn private_dirty_line_is_not_unflushed() {
    let mut f = Fabric::new(PodConfig::new(2, 2, 2));
    f.enable_audit(version_cfg());
    let seg = f.alloc_private(HostId(0), 4096).expect("alloc");
    let t = f
        .store(Nanos(0), HostId(0), seg.base(), &[9u8; LINE as usize])
        .expect("store");
    let report = f.audit_finalize(t).expect("audit on");
    assert_eq!(report.counts.unflushed_writes, 0);
}

/// Invalidating your own dirty line throws the write away.
#[test]
fn invalidate_of_dirty_line_fires_lost_write() {
    let (mut f, seg) = audited_pod();
    let t = f
        .store(Nanos(0), HostId(0), seg.base(), &[7u8; LINE as usize])
        .expect("store");
    // BUG under test: invalidate instead of flush.
    let t = f.invalidate(t, HostId(0), seg.base(), LINE);
    let report = f.audit_finalize(t).expect("audit on");
    assert_eq!(report.counts.lost_writes, 1);
    match &report.violations[0].kind {
        ViolationKind::LostWrite {
            victim, by, cause, ..
        } => {
            assert_eq!(*victim, HostId(0));
            assert_eq!(*by, HostId(0));
            assert_eq!(*cause, LostWriteCause::InvalidateDiscard);
        }
        other => panic!("expected LostWrite, got {other:?}"),
    }
    // The data really is gone: nothing was ever published.
    assert_eq!(report.counts.unflushed_writes, 0);
}

/// Two hosts holding the same line dirty race on write-back order.
#[test]
fn concurrent_dirty_stores_fire_write_write_conflict() {
    let (mut f, seg) = audited_pod();
    let t = f
        .store(Nanos(0), HostId(0), seg.base(), &[1u8; LINE as usize])
        .expect("store");
    let _ = f
        .store(t, HostId(1), seg.base(), &[2u8; LINE as usize])
        .expect("store");
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.ww_conflicts, 1);
    match &report.violations[0].kind {
        ViolationKind::WriteWriteConflict { first, second, .. } => {
            assert_eq!(*first, HostId(0));
            assert_eq!(*second, HostId(1));
        }
        other => panic!("expected WriteWriteConflict, got {other:?}"),
    }
}

/// Publishing a merge based on a stale copy silently clobbers the
/// other host's newer visible write.
#[test]
fn stale_base_flush_fires_lost_write() {
    let (mut f, seg) = audited_pod();
    // Host 1 dirties the line on a version-0 base.
    let t = f
        .store(Nanos(0), HostId(1), seg.base(), &[3u8; LINE as usize])
        .expect("store");
    // Host 0 publishes a newer value, fully visible.
    let done = f
        .nt_store(t, HostId(0), seg.base(), &[4u8; LINE as usize])
        .expect("nt");
    // BUG under test: host 1 flushes its stale-based merge over it.
    let t2 = f.flush(done, HostId(1), seg.base(), LINE).expect("flush");
    let report = f.audit_finalize(t2).expect("audit on");
    assert!(
        report.counts.lost_writes >= 1,
        "report:\n{}",
        report.render()
    );
    let v = report
        .violations
        .iter()
        .find(|v| {
            matches!(
                v.kind,
                ViolationKind::LostWrite {
                    cause: LostWriteCause::StaleBasePublish,
                    ..
                }
            )
        })
        .expect("stale-base publish recorded");
    match &v.kind {
        ViolationKind::LostWrite { victim, by, .. } => {
            assert_eq!(*victim, HostId(0), "host 0's write was clobbered");
            assert_eq!(*by, HostId(1));
        }
        other => panic!("expected LostWrite, got {other:?}"),
    }
}

/// A load spanning a multi-line write must not mix old and new lines:
/// a half-invalidate leaves exactly that mix.
#[test]
fn partial_invalidate_fires_torn_read() {
    let (mut f, seg) = audited_pod();
    // Host 1 caches both lines of the record.
    let mut buf = [0u8; 2 * LINE as usize];
    let t = f
        .load(Nanos(0), HostId(1), seg.base(), &mut buf)
        .expect("load");
    // Host 0 publishes a 2-line record in one nt-store.
    let done = f
        .nt_store(t, HostId(0), seg.base(), &[0xBB; 2 * LINE as usize])
        .expect("nt");
    // BUG under test: host 1 invalidates only the second line, then
    // reads the whole record.
    let t2 = f.invalidate(done, HostId(1), seg.base() + LINE, LINE);
    f.load(t2, HostId(1), seg.base(), &mut buf).expect("load");
    // The returned record really is a mix.
    assert_eq!(&buf[..LINE as usize], &[0u8; LINE as usize][..]);
    assert_eq!(&buf[LINE as usize..], &[0xBB; LINE as usize][..]);

    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.torn_reads, 1, "report:\n{}", report.render());
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::TornRead { .. }))
        .expect("torn read recorded");
    match &v.kind {
        ViolationKind::TornRead {
            reader,
            writer,
            fresh_line,
            stale_line,
            visible_at,
        } => {
            assert_eq!(*reader, HostId(1));
            assert_eq!(*writer, HostId(0));
            assert_eq!(*fresh_line, seg.base() + LINE);
            assert_eq!(*stale_line, seg.base());
            assert_eq!(*visible_at, done);
        }
        other => panic!("expected TornRead, got {other:?}"),
    }
}

/// A device reading a buffer the CPU dirtied but never flushed gets
/// pre-write bytes: flagged against the forgetful writer.
#[test]
fn dma_read_around_remote_dirty_line_fires_stale_read() {
    let (mut f, seg) = audited_pod();
    // Host 1 dirties the buffer in cache (never flushes).
    let t = f
        .store(Nanos(0), HostId(1), seg.base(), &[6u8; LINE as usize])
        .expect("store");
    // A device attached to host 0 DMA-reads it: host 1's data is
    // invisible to the device.
    let mut buf = [0xFFu8; LINE as usize];
    f.dma_read(t, HostId(0), seg.base(), &mut buf).expect("dma");
    assert_eq!(buf, [0u8; LINE as usize]);
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.stale_reads, 1);
    match &report.violations[0].kind {
        ViolationKind::StaleRead { reader, writer, .. } => {
            assert_eq!(*reader, HostId(0));
            assert_eq!(*writer, HostId(1));
        }
        other => panic!("expected StaleRead, got {other:?}"),
    }
}

/// Counters keep counting past the recording cap; nothing is lost
/// silently.
#[test]
fn repeat_offenders_are_counted_but_deduplicated() {
    let (mut f, seg) = audited_pod();
    let mut buf = [0u8; LINE as usize];
    let t = f
        .load(Nanos(0), HostId(1), seg.base(), &mut buf)
        .expect("load");
    let done = f
        .nt_store(t, HostId(0), seg.base(), &[1u8; LINE as usize])
        .expect("nt");
    let mut t = done;
    for _ in 0..5 {
        t = f
            .load(t + Nanos(10), HostId(1), seg.base(), &mut buf)
            .expect("load");
    }
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.stale_reads, 5);
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::StaleRead { .. }))
            .count(),
        1
    );
    assert_eq!(report.suppressed, 4);
}

/// Writes become visible in `(visibility time, issue order)`, not in
/// issue order, and the audit must judge them in that same order: its
/// verdicts name the write each line really ends with. On line `a` the
/// write issued first becomes visible last; on line `b` two writes
/// become visible at one instant and the one issued second lands last.
#[test]
fn audit_judges_writes_in_visibility_order() {
    let pod = || Fabric::new(PodConfig::new(3, 2, 2));
    // How much earlier a 128 B write must issue than a 64 B one for
    // both to become visible at one instant on idle pipes.
    let idle_done = |len: usize| {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        f.nt_store(Nanos(0), HostId(0), seg.base(), &vec![0u8; len])
            .expect("store")
    };
    let lead = idle_done(128) - idle_done(64);

    let mut f = pod();
    f.enable_audit(version_cfg());
    let seg = f
        .alloc_shared(&[HostId(0), HostId(1), HostId(2)], 4096)
        .expect("alloc");
    let (a, b) = (seg.base(), seg.base() + 1024);
    // Host 2 caches both lines before any write.
    let mut buf = [0u8; LINE as usize];
    for la in [a, b] {
        f.load(Nanos(0), HostId(2), la, &mut buf).expect("load");
    }
    // Line a: host 0 issues first but at a later clock, so host 1's
    // write, issued second, becomes visible first.
    let slow = f
        .nt_store(Nanos(1_000), HostId(0), a, &[1u8; LINE as usize])
        .expect("slow");
    let fast = f
        .nt_store(Nanos(0), HostId(1), a, &[2u8; LINE as usize])
        .expect("fast");
    assert!(fast < slow, "visible in reverse issue order");
    // Line b: a tie, broken by issue order.
    let first = f
        .nt_store(Nanos(500), HostId(0), b, &[3u8; LINE as usize])
        .expect("first");
    let second = f
        .nt_store(Nanos(500) - lead, HostId(1), b, &[4u8; 2 * LINE as usize])
        .expect("second");
    assert_eq!(first, second, "both visible at one instant");

    // Host 2 hits both stale copies once every write is visible.
    let t = slow.max(second) + Nanos(10);
    for la in [a, b] {
        f.load(t, HostId(2), la, &mut buf).expect("stale hit");
        assert_eq!(buf, [0u8; LINE as usize]);
    }
    let report = f.audit_report().expect("audit on").clone();
    let mut stale = Vec::new();
    let mut lost = Vec::new();
    for v in &report.violations {
        match v.kind {
            ViolationKind::StaleRead {
                writer, visible_at, ..
            } => stale.push((v.line, writer, visible_at)),
            ViolationKind::LostWrite { victim, by, .. } => lost.push((v.line, victim, by)),
            _ => panic!("unexpected violation: {v}"),
        }
    }
    // Each stale hit missed the write that landed last, and that write
    // clobbered the one that landed before it (recorded as they land:
    // line b's pair first).
    assert_eq!(stale, [(a, HostId(0), slow), (b, HostId(1), second)]);
    assert_eq!(lost, [(b, HostId(0), HostId(1)), (a, HostId(1), HostId(0))]);
    // Pool bytes agree: a fresh read returns the same writes' data.
    for (la, byte) in [(a, 1u8), (b, 4)] {
        let t = f.invalidate(t, HostId(2), la, LINE);
        f.load(t, HostId(2), la, &mut buf).expect("fresh load");
        assert_eq!(buf, [byte; LINE as usize]);
    }
}

// ---------------------------------------------------------------------
// Vector-clock race detection (DMA-aware happens-before analysis)
// ---------------------------------------------------------------------

/// The ROADMAP false-positive regression: a device DMA write and a CPU
/// publish settling in the same `Fabric::settle` batch have *no*
/// coherence edge between them, so a reader that misses the CPU write
/// is racing it, not definitely behind it. The single-version scheme
/// invents an order and misreports a stale read; vector clocks carry
/// incomparable write clocks and report the race as such.
fn run_batch_scenario(cfg: AuditConfig) -> cxl_fabric::AuditReport {
    let (mut f, seg) = audited_pod_mode(cfg);
    // Host 1 caches the line.
    let mut buf = [0u8; LINE as usize];
    f.load(Nanos(0), HostId(1), seg.base(), &mut buf)
        .expect("load");
    // A device on host 0 DMA-writes the line (raw fabric op: no
    // completion edge back to any CPU)...
    f.dma_write(Nanos(10), HostId(0), seg.base(), &[1u8; LINE as usize])
        .expect("dma");
    // ...and host 0's CPU publishes over it, unordered with the DMA.
    f.nt_store(Nanos(5_000), HostId(0), seg.base(), &[2u8; LINE as usize])
        .expect("nt");
    // Both writes settle in the same batch here; host 1 then hits its
    // stale cached copy with no edge to either write.
    f.load(Nanos(1_000_000), HostId(1), seg.base(), &mut buf)
        .expect("load");
    f.audit_report().expect("audit on").clone()
}

#[test]
fn version_mode_misreports_batch_race_as_stale_read() {
    let report = run_batch_scenario(version_cfg());
    assert_eq!(report.counts.stale_reads, 1, "{}", report.render());
    assert_eq!(report.counts.concurrent_conflicts, 0);
}

#[test]
fn vc_mode_reports_batch_race_as_concurrent_conflicts() {
    let report = run_batch_scenario(vc_cfg());
    assert_eq!(
        report.counts.stale_reads,
        0,
        "no definite staleness without an edge:\n{}",
        report.render()
    );
    // Two races: the DMA write vs the CPU publish (write-write, same
    // batch), and the CPU publish vs host 1's unordered read.
    assert_eq!(report.counts.concurrent_conflicts, 2, "{}", report.render());
    let ww = report
        .violations
        .iter()
        .find_map(|v| match &v.kind {
            ViolationKind::ConcurrentConflict {
                first,
                first_access: AccessKind::Write,
                first_clock,
                second,
                second_access: AccessKind::Write,
                second_clock,
                ..
            } => Some((*first, first_clock.clone(), *second, second_clock.clone())),
            _ => None,
        })
        .expect("write-write race recorded");
    assert_eq!(ww.0, Actor::Dma(HostId(0)));
    assert_eq!(ww.2, Actor::Cpu(HostId(0)));
    assert!(
        ww.1.concurrent_with(&ww.3),
        "batch-mates must carry incomparable clocks: {} vs {}",
        ww.1,
        ww.3
    );
}

/// With a real coherence edge (a sync-marked flag line the reader
/// acquires), the same stale hit *is* definitely ordered: vector-clock
/// mode reports a precise `StaleRead` and no race — the precision
/// guarantee over PR 1.
#[test]
fn coherence_edge_makes_vc_stale_read_precise() {
    let (mut f, seg) = audited_pod_mode(vc_cfg());
    let flag = seg.base();
    let data = seg.base() + LINE;
    f.mark_sync_range(flag, LINE);
    // Host 1 caches the data line.
    let mut buf = [0u8; LINE as usize];
    f.load(Nanos(0), HostId(1), data, &mut buf).expect("load");
    // Host 0 publishes data, then the flag (program order on cpu0).
    let done_d = f
        .nt_store(Nanos(10), HostId(0), data, &[1u8; LINE as usize])
        .expect("nt data");
    let done_f = f
        .nt_store(done_d, HostId(0), flag, &[1u8; LINE as usize])
        .expect("nt flag");
    // Host 1 properly acquires via the flag...
    let t = f.invalidate(done_f + Nanos(10), HostId(1), flag, LINE);
    let t = f.load(t, HostId(1), flag, &mut buf).expect("load flag");
    // ...then forgets to invalidate the data line: a *definite* stale
    // read (the missed write happens-before the acquire).
    f.load(t, HostId(1), data, &mut buf).expect("load data");
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.concurrent_conflicts, 0, "{}", report.render());
    assert_eq!(report.counts.stale_reads, 1, "{}", report.render());
    match &report.violations[0].kind {
        ViolationKind::StaleRead { reader, writer, .. } => {
            assert_eq!(*reader, HostId(1));
            assert_eq!(*writer, HostId(0));
        }
        other => panic!("expected StaleRead, got {other:?}"),
    }
}

/// An unordered DMA write racing a CPU load that *misses* returns
/// fresh bytes — the version scheme sees nothing wrong at all. Only
/// the happens-before analysis can flag that the outcome depended on
/// fabric timing.
fn run_dma_write_vs_load(cfg: AuditConfig) -> cxl_fabric::AuditReport {
    let (mut f, seg) = audited_pod_mode(cfg);
    // A device on host 1 DMA-writes the line (no completion edge).
    let done = f
        .dma_write(Nanos(0), HostId(1), seg.base(), &[9u8; LINE as usize])
        .expect("dma");
    // Host 0 reads fresh, with no handshake ordering it after the DMA.
    let t = f.invalidate(done + Nanos(100), HostId(0), seg.base(), LINE);
    let mut buf = [0u8; LINE as usize];
    f.load(t, HostId(0), seg.base(), &mut buf).expect("load");
    f.audit_report().expect("audit on").clone()
}

#[test]
fn unordered_dma_write_vs_load_is_a_race_only_vc_can_see() {
    let version = run_dma_write_vs_load(version_cfg());
    assert_eq!(version.counts.total(), 0, "{}", version.render());

    let vc = run_dma_write_vs_load(vc_cfg());
    assert_eq!(vc.counts.concurrent_conflicts, 1, "{}", vc.render());
    match &vc.violations[0].kind {
        ViolationKind::ConcurrentConflict {
            first,
            first_access,
            first_clock,
            second,
            second_access,
            second_clock,
            ..
        } => {
            assert_eq!(*first, Actor::Dma(HostId(1)));
            assert_eq!(*first_access, AccessKind::Write);
            assert_eq!(*second, Actor::Cpu(HostId(0)));
            assert_eq!(*second_access, AccessKind::Read);
            assert!(first_clock.concurrent_with(second_clock));
            // The snapshots carry each actor's own component.
            assert_eq!(first_clock.get(Actor::Dma(HostId(1)).index()), 1);
            assert_eq!(second_clock.get(Actor::Cpu(HostId(0)).index()), 1);
        }
        other => panic!("expected ConcurrentConflict, got {other:?}"),
    }
}

/// An invalidate settles the writes visible by its start, like every
/// other pool access. Here the last access before a segment free is an
/// invalidate issued after a racing DMA write became visible: that
/// write must reach the auditor (and report its race with the earlier
/// CPU publish) before the free drops whatever is still in flight.
#[test]
fn invalidate_settles_a_visible_write_before_its_segment_is_freed() {
    let (mut f, seg) = audited_pod_mode(vc_cfg());
    let published = f
        .nt_store(Nanos(0), HostId(0), seg.base(), &[1u8; LINE as usize])
        .expect("nt");
    // A device on host 1 overwrites the line, unordered with host 0.
    let visible = f
        .dma_write(published, HostId(1), seg.base(), &[2u8; LINE as usize])
        .expect("dma");
    f.invalidate(visible, HostId(0), seg.base(), LINE);
    f.free_segment(seg.id()).expect("free");
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.concurrent_conflicts, 1, "{}", report.render());
    match &report.violations[0].kind {
        ViolationKind::ConcurrentConflict {
            first,
            first_access,
            second,
            second_access,
            ..
        } => {
            assert_eq!(*first, Actor::Cpu(HostId(0)));
            assert_eq!(*first_access, AccessKind::Write);
            assert_eq!(*second, Actor::Dma(HostId(1)));
            assert_eq!(*second_access, AccessKind::Write);
        }
        other => panic!("expected ConcurrentConflict, got {other:?}"),
    }
    assert_eq!(report.violations[0].detected_at, visible);
}

/// A device DMA-reading around a store the owning CPU never published:
/// vector-clock mode reports the unpublished store racing the DMA read
/// (with both clock snapshots) instead of a definite stale read.
#[test]
fn dma_read_of_unpublished_store_races_in_vc_mode() {
    let (mut f, seg) = audited_pod_mode(vc_cfg());
    // Host 1 dirties the line in cache, never flushes.
    let t = f
        .store(Nanos(0), HostId(1), seg.base(), &[6u8; LINE as usize])
        .expect("store");
    // A device on host 0 DMA-reads it, unordered with the store.
    let mut buf = [0u8; LINE as usize];
    f.dma_read(t, HostId(0), seg.base(), &mut buf).expect("dma");
    let report = f.audit_report().expect("audit on");
    assert_eq!(report.counts.stale_reads, 0, "{}", report.render());
    assert_eq!(report.counts.concurrent_conflicts, 1, "{}", report.render());
    match &report.violations[0].kind {
        ViolationKind::ConcurrentConflict {
            first,
            first_access,
            first_clock,
            second,
            second_access,
            second_clock,
            ..
        } => {
            assert_eq!(*first, Actor::Cpu(HostId(1)), "the unpublished writer");
            assert_eq!(*first_access, AccessKind::Write);
            assert_eq!(*second, Actor::Dma(HostId(0)), "the device reader");
            assert_eq!(*second_access, AccessKind::Read);
            assert!(first_clock.concurrent_with(second_clock));
            assert_eq!(first_clock.get(Actor::Cpu(HostId(1)).index()), 1);
            assert_eq!(second_clock.get(Actor::Dma(HostId(0)).index()), 1);
        }
        other => panic!("expected ConcurrentConflict, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Failure-domain namespacing (multi-MHD pods)
// ---------------------------------------------------------------------

/// The segment table and topology of a two-host pod whose two MHDs are
/// each their own failure domain, for driving the [`Auditor`] directly.
struct PodLayout {
    alloc: PoolAllocator,
    topology: Topology,
}

impl PodLayout {
    fn new() -> PodLayout {
        PodLayout {
            alloc: PoolAllocator::new(2, 1 << 30),
            topology: Topology::dense(2, 2, 2),
        }
    }

    /// Allocates 4 KiB shared by both hosts under `placement`; returns
    /// the segment's base.
    fn alloc(&mut self, placement: DomainPlacement) -> u64 {
        let owners = [HostId(0), HostId(1)];
        self.alloc
            .alloc_placed(&self.topology, &owners, 4096, 2, placement)
            .expect("alloc")
            .base()
    }

    fn layout(&self) -> Layout<'_> {
        Layout {
            alloc: &self.alloc,
            topology: &self.topology,
            tolerant: &[],
            sync: &[],
        }
    }
}

fn pinned(d: u16) -> DomainPlacement {
    DomainPlacement::Pinned(DomainId(d))
}

/// A tenant leaves a host holding a stale cached copy, then its segment
/// is freed and the *same address range* is reallocated in a different
/// failure domain. The pool allocator never reuses addresses, so this
/// drives the [`Auditor`] directly, with a second segment table that
/// holds the same range in the other domain: the sin (a cache hit at
/// the reused address) must audit against the new tenant's state, not
/// the ghost of the old one.
fn reuse_scenario(free_between: bool) -> cxl_fabric::AuditReport {
    let (mut first, mut second) = (PodLayout::new(), PodLayout::new());
    let base = first.alloc(pinned(0));
    assert_eq!(second.alloc(pinned(1)), base, "the same range");
    let end = base + 4096;
    let mut a = Auditor::new(version_cfg());
    let mut lay = first.layout();
    // Host 1 caches the line (load miss).
    a.on_load(&lay, Nanos(0), HostId(1), &[(base, false)]);
    // Host 0 publishes over it; the write settles.
    let w = a.on_nt_store(&lay, Nanos(10), HostId(0), base, LINE);
    a.land(&lay, Nanos(500), w);
    if free_between {
        // The tenant dies; the range is reused in another domain.
        a.on_segment_free(base, end);
        lay = second.layout();
    }
    // Host 1 hits a cached copy at the same address.
    a.on_load(&lay, Nanos(2_000), HostId(1), &[(base, true)]);
    a.report().clone()
}

/// Control: without the free, the hit really is a stale read — the
/// aliasing test below is not passing vacuously.
#[test]
fn stale_hit_without_segment_free_fires() {
    let report = reuse_scenario(false);
    assert_eq!(report.counts.stale_reads, 1, "{}", report.render());
}

/// The property under test: `on_segment_free` clears shadow state in
/// *every* domain, so cross-domain address reuse starts from scratch.
#[test]
fn address_reuse_across_domains_does_not_alias_shadow_state() {
    let report = reuse_scenario(true);
    assert_eq!(
        report.counts.total(),
        0,
        "ghost of the previous tenant:\n{}",
        report.render()
    );
}

/// The tenant-departure property for *replica sets*: a departing
/// tenant's state lives at several addresses (primary + per-domain
/// replicas). `ReplicaSet::free` frees each replica segment through
/// `free_segment`, which must clear the per-line shadow state of every
/// range in every domain — so a new tenant reusing *either* address
/// (even swapped across domains) starts from scratch.
fn replica_reuse_scenario(free_between: bool) -> cxl_fabric::AuditReport {
    let (mut first, mut second) = (PodLayout::new(), PodLayout::new());
    let primary = first.alloc(pinned(0));
    let replica = first.alloc(pinned(1));
    // The new tenant's table holds both ranges with the domains swapped.
    assert_eq!(second.alloc(pinned(1)), primary);
    assert_eq!(second.alloc(pinned(0)), replica);
    let mut a = Auditor::new(version_cfg());
    let mut lay = first.layout();
    // Host 1 caches a line of each copy (load misses).
    a.on_load(
        &lay,
        Nanos(0),
        HostId(1),
        &[(primary, false), (replica, false)],
    );
    // The owner publishes new state to both copies; writes settle.
    let to_primary = a.on_nt_store(&lay, Nanos(10), HostId(0), primary, LINE);
    let to_replica = a.on_nt_store(&lay, Nanos(20), HostId(0), replica, LINE);
    a.land(&lay, Nanos(500), to_primary);
    a.land(&lay, Nanos(600), to_replica);
    if free_between {
        // Departure: the whole replica set is reclaimed, then a new
        // tenant reuses both ranges with the domains *swapped*.
        a.on_segment_free(primary, primary + 4096);
        a.on_segment_free(replica, replica + 4096);
        lay = second.layout();
    }
    // Host 1 hits cached copies at both reused addresses.
    a.on_load(
        &lay,
        Nanos(2_000),
        HostId(1),
        &[(primary, true), (replica, true)],
    );
    a.report().clone()
}

/// Control: without the departure both hits really are stale reads —
/// one per replica — so the aliasing test is not vacuous.
#[test]
fn stale_hits_on_both_replicas_fire_without_free() {
    let report = replica_reuse_scenario(false);
    assert_eq!(report.counts.stale_reads, 2, "{}", report.render());
}

/// The departure path: freeing every replica segment clears shadow
/// state in all domains, so the new tenant sees no ghost of the old.
#[test]
fn replica_set_reuse_after_departure_does_not_alias_shadow_state() {
    let report = replica_reuse_scenario(true);
    assert_eq!(
        report.counts.total(),
        0,
        "ghost of the departed tenant's replicas:\n{}",
        report.render()
    );
}

/// Torn-read analysis is a per-domain notion: visibility versions are
/// drawn per failure domain, so a record spanning two domains has no
/// single order to tear against. The same access pattern *does* tear
/// when both lines share a domain.
fn torn_scenario(placement: DomainPlacement) -> cxl_fabric::AuditReport {
    let mut pod = PodLayout::new();
    let base = pod.alloc(placement);
    let lay = pod.layout();
    let mut a = Auditor::new(version_cfg());
    // Adjacent lines straddling the interleave-granule boundary: with
    // two way domains they land in different domains.
    let lo = base + 192;
    let hi = base + 256;
    // Host 1 caches both lines of the record.
    a.on_load(&lay, Nanos(0), HostId(1), &[(lo, false), (hi, false)]);
    // Host 0 publishes the 2-line record in one nt-store.
    let w = a.on_nt_store(&lay, Nanos(10), HostId(0), lo, 2 * LINE);
    a.land(&lay, Nanos(500), w);
    // BUG under test: host 1 invalidates only the second line, then
    // reads the whole record (first line hits stale, second misses).
    a.on_invalidate(&lay, Nanos(1_100), HostId(1), hi, LINE);
    a.on_load(&lay, Nanos(1_200), HostId(1), &[(lo, true), (hi, false)]);
    a.report().clone()
}

#[test]
fn half_invalidated_record_tears_within_one_domain() {
    let report = torn_scenario(pinned(0));
    assert_eq!(report.counts.torn_reads, 1, "{}", report.render());
}

#[test]
fn record_spanning_two_domains_does_not_tear_across_them() {
    // Two ways, one per domain: granule 0 in domain 0, granule 1 in 1.
    let report = torn_scenario(DomainPlacement::Striped { min_domains: 2 });
    assert_eq!(
        report.counts.torn_reads,
        0,
        "no cross-domain visibility order to tear against:\n{}",
        report.render()
    );
}

/// Vector-clock components are namespaced per `(actor, domain)`: the
/// same CPU writing in two domains ticks two different components, and
/// the index arithmetic round-trips.
#[test]
fn vc_write_clocks_are_namespaced_per_domain() {
    let cpu0 = Actor::Cpu(HostId(0));
    assert_eq!(cpu0.index_in(DomainId(0)), cpu0.index());
    assert_eq!(cpu0.index_in(DomainId(3)), 3 * DOMAIN_STRIDE + cpu0.index());
    assert_eq!(domain_of_index(cpu0.index_in(DomainId(3))), DomainId(3));
    assert_eq!(Actor::from_index(cpu0.index_in(DomainId(3))), cpu0);

    let mut a = Auditor::new(vc_cfg());
    let mut pod = PodLayout::new();
    // Two-way interleave: granule 0 in domain 0, granule 1 in domain 1.
    let base = pod.alloc(DomainPlacement::Striped { min_domains: 2 });
    let lay = pod.layout();
    let in_d0 = base;
    let in_d1 = base + 256;
    assert_eq!(lay.domain_of(in_d0), DomainId(0));
    assert_eq!(lay.domain_of(in_d1), DomainId(1));
    let to_d0 = a.on_nt_store(&lay, Nanos(0), HostId(0), in_d0, LINE);
    let to_d1 = a.on_nt_store(&lay, Nanos(200), HostId(0), in_d1, LINE);
    a.land(&lay, Nanos(100), to_d0);
    a.land(&lay, Nanos(300), to_d1);

    let races = a.race_report(&lay);
    let clock_of = |la: u64| {
        races
            .line_clocks
            .iter()
            .find(|&&(line, _, _)| line == la)
            .map(|(_, _, c)| c.clone())
            .expect("write clock recorded")
    };
    let d0_clock = clock_of(in_d0);
    let d1_clock = clock_of(in_d1);
    assert_eq!(d0_clock.get(cpu0.index_in(DomainId(0))), 1);
    assert_eq!(
        d0_clock.get(cpu0.index_in(DomainId(1))),
        0,
        "a domain-0 write must not tick the domain-1 component"
    );
    assert_eq!(d1_clock.get(cpu0.index_in(DomainId(1))), 1);
}

/// The lost-write base rule for overwrites, on a record striped over
/// two failure domains: an overwrite clobbers exactly the writes by
/// other hosts that land after it is issued. Host 0 publishes eight
/// lines (two granules, one per domain); `writer` overwrites the middle
/// four, two in each domain. With `issue_first` the overwrite is issued
/// before host 0's write lands and becomes visible after it; otherwise
/// it is issued once host 0's write has landed. Returns the lost-write
/// lines (as line offsets into the record) with their domains, and the
/// report.
fn overwrite_base_scenario(
    cfg: AuditConfig,
    writer: HostId,
    issue_first: bool,
) -> (Vec<(u64, DomainId)>, cxl_fabric::AuditReport) {
    let mut pod = PodLayout::new();
    let base = pod.alloc(DomainPlacement::Striped { min_domains: 2 });
    let lay = pod.layout();
    let mut a = Auditor::new(cfg);
    let (lo, len) = (base + 2 * LINE, 4 * LINE);
    let over_at = if issue_first { Nanos(0) } else { Nanos(300) };
    let over = issue_first.then(|| a.on_nt_store(&lay, over_at, writer, lo, len));
    let first = a.on_nt_store(&lay, Nanos(10), HostId(0), base, 8 * LINE);
    a.land(&lay, Nanos(100), first);
    let over = over.unwrap_or_else(|| a.on_nt_store(&lay, over_at, writer, lo, len));
    a.land(&lay, Nanos(400), over);
    let report = a.report().clone();
    let lost = report
        .violations
        .iter()
        .filter_map(|v| match v.kind {
            ViolationKind::LostWrite {
                victim,
                by,
                cause: LostWriteCause::StaleBasePublish,
                ..
            } => {
                assert_eq!((victim, by), (HostId(0), writer));
                Some(((v.line - base) / LINE, lay.domain_of(v.line)))
            }
            _ => None,
        })
        .collect();
    (lost, report)
}

#[test]
fn overwrite_clobbers_only_writes_landed_after_its_issue() {
    for cfg in [version_cfg(), vc_cfg()] {
        let mode = cfg.mode;
        // Issued before host 0's write landed: every overlapped line
        // loses host 0's write, in both domains (four lines per
        // interleave granule: lines 2 and 3 in domain 0, 4 and 5 in 1).
        let (lost, report) = overwrite_base_scenario(cfg, HostId(1), true);
        let (d0, d1) = (DomainId(0), DomainId(1));
        let want = [(2, d0), (3, d0), (4, d1), (5, d1)];
        assert_eq!(lost, want, "{mode:?}:\n{}", report.render());
        // Issued after host 0's write landed: it saw that write.
        let (lost, report) = overwrite_base_scenario(cfg, HostId(1), false);
        assert!(lost.is_empty(), "{mode:?}:\n{}", report.render());
        // One writer never clobbers itself.
        let (_, report) = overwrite_base_scenario(cfg, HostId(0), true);
        assert_eq!(report.counts.total(), 0, "{mode:?}:\n{}", report.render());
    }
}
