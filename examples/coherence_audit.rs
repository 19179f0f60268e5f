//! Coherence audit mode: catch software-coherence bugs with provenance.
//!
//! The pool is not cache-coherent across hosts, so correctness rests on
//! a discipline — publish with nt-stores or flushes, invalidate before
//! reading. This example turns on the auditor, commits three classic
//! sins (a read without invalidate, a write without flush, and a DMA
//! write racing a CPU read), and prints the resulting report.
//!
//! Run with: `cargo run --example coherence_audit`
//!
//! Pass `--audit=vc` to use the vector-clock happens-before analysis
//! instead of the single-version scheme. The race detector catches the
//! DMA race — which returns *fresh bytes* and is invisible to version
//! tracking — and reclassifies the unordered stale read as a
//! `ConcurrentConflict` carrying both actors' clock snapshots.

use cxl_fabric::{AuditConfig, AuditMode, Fabric, FabricError, HostId, PodConfig};
use simkit::Nanos;

fn main() -> Result<(), FabricError> {
    let mode = if std::env::args().any(|a| a == "--audit=vc") {
        AuditMode::VectorClock
    } else {
        AuditMode::Version
    };
    let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
    fabric.enable_audit(AuditConfig {
        mode,
        ..AuditConfig::default()
    });

    let seg = fabric.alloc_shared(&[HostId(0), HostId(1)], 4096)?;
    let mut buf = [0u8; 64];

    // Host 1 caches the line.
    let t = fabric.load(Nanos(0), HostId(1), seg.base(), &mut buf)?;

    // Host 0 publishes properly with a non-temporal store...
    let done = fabric.nt_store(t, HostId(0), seg.base(), &[7u8; 64])?;

    // ...but host 1 forgets to invalidate before re-reading: the load
    // is served its stale cached copy.
    let t = fabric.load(done, HostId(1), seg.base(), &mut buf)?;
    println!(
        "host 1 read byte {} (expected 7) — silently stale!\n",
        buf[0]
    );

    // Meanwhile host 0 writes a second line through its write-back
    // cache and never flushes: nobody will ever see it.
    let t = fabric.store(t, HostId(0), seg.base() + 64, &[9u8; 64])?;

    // Third sin: a device on host 0 DMA-writes a buffer while host 1
    // reads it, with no completion handshake ordering the two. Here the
    // read happens to see the DMA'd bytes — fresh data, so version
    // tracking finds nothing wrong — but the outcome depended on fabric
    // timing. Only the happens-before analysis flags the race.
    let done = fabric.dma_write(t, HostId(0), seg.base() + 128, &[3u8; 64])?;
    let t = fabric.invalidate(done, HostId(1), seg.base() + 128, 64);
    let t = fabric.load(t, HostId(1), seg.base() + 128, &mut buf)?;

    let report = fabric.audit_finalize(t).expect("audit is on");
    println!("{}", report.render());
    assert!(!report.is_clean());
    assert_eq!(report.counts.unflushed_writes, 1);
    match mode {
        AuditMode::Version => {
            // The stale read is flagged; the DMA race is invisible.
            assert_eq!(report.counts.stale_reads, 1);
            assert_eq!(report.counts.concurrent_conflicts, 0);
        }
        AuditMode::VectorClock => {
            // The DMA race is caught, and the unordered stale read is
            // reported as a race too (no edge proves the reader was
            // behind the write — it could equally have clobbered it).
            assert!(report.counts.concurrent_conflicts >= 2);
            let races = fabric.race_report().expect("audit is on");
            println!("{}", races.render());
        }
    }

    // The same switches exist one level up, on the whole-pod simulator:
    // `PodSim::enable_audit_mode()` / `PodSim::audit_finalize()` /
    // `PodSim::race_report()`.
    Ok(())
}
