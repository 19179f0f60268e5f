//! Golden oracle for the coherence auditor: one seeded random op trace
//! over two-domain interleaved segments, driven through the real
//! `Fabric` API, must reproduce the committed audit and race reports in
//! both audit modes: every counter exactly, and each full rendering by
//! line count and FNV-1a digest, checked every 500 ops and after
//! finalize.
//!
//! The trace covers every shadow-state path: non-temporal stores and
//! device DMA reads and writes of 1–600 lines that straddle 256 B
//! interleave granules (and start or end mid-line), cached stores with
//! and without a flush, loads, invalidates, dirty capacity evictions
//! forced by a small host cache, DMA completion edges, sync and
//! tear-tolerant ranges, and segment frees followed by fresh
//! allocations. A change to the auditor's internals must leave every
//! violation, its order, every counter and every clock unchanged.
//!
//! To regenerate the golden files after a deliberate change to the
//! audit's semantics, run
//! `AUDIT_GOLDEN_BLESS=1 cargo test --test audit_golden` and review
//! the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use cxl_fabric::{
    AuditConfig, AuditMode, DomainPlacement, Fabric, FabricParams, HostId, PodConfig, Segment,
};
use simkit::rng::Rng;
use simkit::Nanos;

const LINE: u64 = 64;
const HOSTS: u16 = 4;
/// Lines per segment: room for a 600-line DMA at a random offset.
const SEG_LINES: u64 = 704;
/// Small enough that cached stores and loads force dirty and clean
/// capacity evictions.
const CACHE_LINES: usize = 48;
const OPS: usize = 3_000;

fn pod(mode: AuditMode) -> Fabric {
    let params = FabricParams {
        host_cache_lines: CACHE_LINES,
        ..FabricParams::default()
    };
    let mut f = Fabric::new(
        PodConfig::new(HOSTS, 4, 4)
            .with_domains(2)
            .with_params(params),
    );
    f.enable_audit(AuditConfig {
        max_recorded: 1 << 20,
        mode,
    });
    f
}

fn alloc(f: &mut Fabric, rng: &mut Rng) -> Segment {
    let hosts: Vec<HostId> = (0..HOSTS).map(HostId).collect();
    // Odd tails exercise a segment end that is not granule aligned.
    let len = SEG_LINES * LINE + rng.below(3) * 40;
    let seg = f
        .alloc_placed(
            &hosts,
            len,
            2 + rng.below(3) as usize,
            DomainPlacement::Striped { min_domains: 2 },
        )
        .expect("alloc striped segment");
    // Protocol ranges: a sync word block and a tear-tolerant record.
    f.mark_sync_range(seg.base(), 4 * LINE);
    f.mark_tear_tolerant(seg.base() + 8 * LINE, 6 * LINE);
    seg
}

/// A random `[hpa, hpa + len)` inside `seg` spanning 1..=`max_lines`
/// lines, sometimes starting or ending mid-line.
fn range(rng: &mut Rng, seg: &Segment, max_lines: u64) -> (u64, u64) {
    let lines = 1 + rng.below(max_lines);
    let first = rng.below(SEG_LINES - lines + 1);
    let mut hpa = seg.base() + first * LINE;
    let mut len = lines * LINE;
    if rng.chance(0.2) {
        let cut = 8 * (1 + rng.below(7));
        hpa += cut;
        len -= cut;
    }
    if rng.chance(0.2) && len > 16 {
        len -= 8 * (1 + rng.below(len.min(64) / 8 - 1));
    }
    (hpa, len)
}

/// FNV-1a over `text`: the golden files pin full renderings by digest
/// (a full vector-clock rendering runs to megabytes) and keep a short
/// verbatim head of each for context.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends `title` with `text`'s line count and digest, then the
/// first `head` lines of `text` verbatim.
fn section(out: &mut String, title: &str, text: &str, head: usize) {
    let _ = writeln!(
        out,
        "## {title}: {} lines, fnv1a {:#018x}",
        text.lines().count(),
        fnv1a(text)
    );
    for line in text.lines().take(head) {
        let _ = writeln!(out, "{line}");
    }
}

/// Everything the auditor reports at one instant: counters, every
/// recorded violation and the full race report.
fn snapshot(out: &mut String, f: &Fabric, title: &str, head: usize) {
    let report = f.audit_report().expect("audit on");
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "{:?}", report.counts);
    let _ = writeln!(
        out,
        "ops_audited {} local_ops {} suppressed {} recorded {}",
        report.ops_audited,
        report.local_ops,
        report.suppressed,
        report.violations.len()
    );
    section(out, "audit report", &report.render(), head);
    let races = f.race_report().expect("audit on");
    section(out, "race report", &races.render(), head);
}

fn run_trace(mode: AuditMode, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut f = pod(mode);
    let mut segs: Vec<Segment> = (0..3).map(|_| alloc(&mut f, &mut rng)).collect();
    let mut t = Nanos(1_000);
    let mut buf = vec![0u8; (SEG_LINES * LINE) as usize];
    let mut out = String::new();
    for step in 0..OPS {
        t += Nanos(1 + rng.below(400));
        let s = rng.below(segs.len() as u64) as usize;
        let seg = segs[s].clone();
        let host = HostId(rng.below(HOSTS as u64) as u16);
        let fill = (step % 251) as u8;
        match rng.below(100) {
            0..=17 => {
                let max = if rng.chance(0.1) { 600 } else { 12 };
                let (hpa, len) = range(&mut rng, &seg, max);
                let data = vec![fill; len as usize];
                f.nt_store(t, host, hpa, &data).expect("nt_store");
            }
            18..=29 => {
                let (hpa, len) = range(&mut rng, &seg, 600);
                let data = vec![fill; len as usize];
                f.dma_write(t, host, hpa, &data).expect("dma_write");
                if rng.chance(0.5) {
                    f.dma_complete(host);
                }
            }
            30..=39 => {
                let (hpa, len) = range(&mut rng, &seg, 600);
                f.dma_read(t, host, hpa, &mut buf[..len as usize])
                    .expect("dma_read");
                if rng.chance(0.5) {
                    f.dma_complete(host);
                }
            }
            40..=59 => {
                let (hpa, len) = range(&mut rng, &seg, 6);
                let data = vec![fill; len as usize];
                let done = f.store(t, host, hpa, &data).expect("store");
                if rng.chance(0.6) {
                    let (fh, fl) = if rng.chance(0.7) {
                        (hpa, len)
                    } else {
                        range(&mut rng, &seg, 40)
                    };
                    f.flush(done, host, fh, fl).expect("flush");
                }
            }
            60..=61 => {
                let (hpa, len) = range(&mut rng, &seg, 40);
                f.flush(t, host, hpa, len).expect("flush");
            }
            62..=83 => {
                let (hpa, len) = range(&mut rng, &seg, 10);
                f.load(t, host, hpa, &mut buf[..len as usize])
                    .expect("load");
            }
            84..=95 => {
                let (hpa, len) = range(&mut rng, &seg, 64);
                f.invalidate(t, host, hpa, len);
            }
            96..=98 => {
                // Settle everything a while later, as an idle pod does.
                t += Nanos(2_000);
                f.settle(t);
            }
            _ => {
                f.free_segment(seg.id()).expect("free");
                segs[s] = alloc(&mut f, &mut rng);
            }
        }
        if step % 500 == 499 {
            snapshot(&mut out, &f, &format!("after step {step}"), 0);
        }
    }
    f.audit_finalize(t + Nanos(1)).expect("audit on");
    snapshot(&mut out, &f, "final", 40);
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check(mode: AuditMode, name: &str) {
    let got = run_trace(mode, 0x5EED_A0D1);
    let path = golden_path(name);
    if std::env::var_os("AUDIT_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        let at = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: audit output diverges from the golden file at line {}:\n  got:  {}\n  want: {}",
            at + 1,
            got.lines().nth(at).unwrap_or("<eof>"),
            want.lines().nth(at).unwrap_or("<eof>")
        );
    }
}

#[test]
fn version_mode_trace_matches_golden_report() {
    check(AuditMode::Version, "audit_oracle_version.txt");
}

#[test]
fn vector_clock_mode_trace_matches_golden_report() {
    check(AuditMode::VectorClock, "audit_oracle_vc.txt");
}
