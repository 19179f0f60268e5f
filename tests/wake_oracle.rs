//! The exact poller as the oracle for the wake-driven one.
//!
//! Agents and the orchestrator skip ring polls that provably find
//! nothing and advance their clocks by the skipped polls' idle cost
//! (`PodParams::exact_polling` off, the default). With the flag on,
//! every notional poll executes for real: the busy-polling model the
//! wake rule replaces. These tests pin the oracle to that model's
//! published numbers, pin the default wake model's own seed-42 numbers
//! exactly, bound how far the wake model drifts from the oracle, and
//! check that the endpoints' cached poll plans follow pool failures,
//! restores and channel rebuilds.

use bench::workload::{
    base_spec, churn_pod_params, churn_workload, faulted_spec, pod_params, search_config,
};
use bench::Scale;
use cxl_pcie_pool::cxl_fabric::{AccessStats, AuditMode, HostId, MhdId};
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::simkit::Nanos;
use cxl_pcie_pool::workgen::{self, Engine, RunReport};

/// Per-tenant `(name, p50, p90, p99)` of the seed-42 quick baseline
/// under busy polling, as `repro workload --seed 42` reported before
/// the wake rule existed.
const EXACT_SEED42_TENANTS: [(&str, u64, u64, u64); 3] = [
    ("frontend", 3_376, 5_984, 10_688),
    ("analytics", 75_264, 87_552, 97_709),
    ("ml", 3_696, 4_320, 4_768),
];
/// Measured ops of that baseline.
const EXACT_SEED42_OPS: u64 = 785;
/// Its clean and single-domain-loss capacities (pps).
const EXACT_SEED42_CAPACITY: (f64, f64) = (91_375.0, 84_125.0);

/// Per-tenant `(name, p50, p90, p99)` of the seed-42 quick baseline
/// under the default wake rule, as `repro workload --seed 42` reports.
const WAKE_SEED42_TENANTS: [(&str, u64, u64, u64); 3] = [
    ("frontend", 3_152, 7_200, 9_408),
    ("analytics", 75_264, 85_504, 96_405),
    ("ml", 3_696, 4_320, 4_768),
];
/// Measured ops of that baseline.
const WAKE_SEED42_OPS: u64 = 789;
/// Its clean and single-domain-loss capacities (pps).
const WAKE_SEED42_CAPACITY: (f64, f64) = (91_375.0, 84_125.0);
/// Every [`AccessStats`] counter of that baseline's engine run, in field
/// order: loads, stores, NT stores, flushes, DMA reads, DMA writes,
/// bytes read and bytes written. Loads, NT stores and DMA ops are the
/// bench ledger's per-op figures times [`WAKE_SEED42_OPS`].
const WAKE_SEED42_LEDGER: [u64; 8] = [1_785, 0, 2_681, 0, 856, 800, 1_827_856, 3_489_616];

/// Per-tenant `(name, p50, p90, p99)` of the seed-42 quick run with the
/// whole-domain loss (`faulted_spec`) under the default wake rule: the
/// fault and heal events land between ops, so their timing shows here.
const FAULT_SEED42_TENANTS: [(&str, u64, u64, u64); 3] = [
    ("frontend", 3_280, 6_688, 150_528),
    ("analytics", 77_312, 91_648, 150_528),
    ("ml", 3_728, 4_320, 4_832),
];
/// Measured ops, errors and simulated elapsed time of that run.
const FAULT_SEED42_OPS: u64 = 749;
const FAULT_SEED42_ERRORS: u64 = 6;
const FAULT_SEED42_ELAPSED: Nanos = Nanos(2_801_213);

/// Every applied lifecycle event `(at ns, tenant, event, migrated,
/// blackout ns)` of the seed-42 quick migrating churn run.
const CHURN_SEED42_LIFECYCLE: [(u64, &str, &str, bool, Option<u64>); 8] = [
    (450_768, "diurnal-b", "arrive", false, None),
    (607_080, "diurnal-a", "arrive", true, Some(5_601)),
    (1_379_740, "diurnal-a", "grow", false, None),
    (1_430_282, "diurnal-b", "grow", false, None),
    (2_302_252, "diurnal-b", "shrink", false, None),
    (2_534_753, "diurnal-a", "shrink", false, None),
    (2_790_466, "diurnal-b", "depart", false, None),
    (3_140_413, "diurnal-a", "depart", false, None),
];
/// Per-tenant `(name, ops, p99)` of that run.
const CHURN_SEED42_TENANTS: [(&str, u64, u64); 3] = [
    ("steady", 75, 5_536),
    ("diurnal-a", 15, 259_072),
    ("diurnal-b", 7, 115_200),
];

/// The quick search's final bracket width: `(hi - lo) / 2^iters`.
fn search_step() -> f64 {
    let c = search_config(Scale::Quick);
    (c.hi_pps - c.lo_pps) / f64::from(1u32 << c.iters)
}

fn params(seed: u64, exact: bool) -> PodParams {
    PodParams {
        exact_polling: exact,
        ..pod_params(seed)
    }
}

/// Runs the quick baseline, audited in `audit` when given; also returns
/// every [`AccessStats`] counter the engine run moved, in field order.
fn baseline(seed: u64, exact: bool, audit: Option<AuditMode>) -> (RunReport, PodSim, [u64; 8]) {
    let mut pod = PodSim::new(params(seed, exact));
    if let Some(mode) = audit {
        pod.enable_audit_mode(mode);
    }
    let counts = |pod: &PodSim| {
        let AccessStats {
            loads,
            stores,
            nt_stores,
            flushes,
            dma_reads,
            dma_writes,
            bytes_read,
            bytes_written,
        } = pod.fabric.stats();
        [
            loads,
            stores,
            nt_stores,
            flushes,
            dma_reads,
            dma_writes,
            bytes_read,
            bytes_written,
        ]
    };
    let before = counts(&pod);
    let report = Engine::new(seed).run(&mut pod, &base_spec(Scale::Quick));
    let after = counts(&pod);
    let ledger = std::array::from_fn(|i| after[i] - before[i]);
    (report, pod, ledger)
}

/// Asserts a baseline's op count and per-tenant percentiles.
fn assert_tenants(report: &RunReport, ops: u64, tenants: &[(&str, u64, u64, u64); 3], model: &str) {
    assert_eq!(report.ops, ops, "{model}: ops moved");
    for (t, &(name, p50, p90, p99)) in report.tenants.iter().zip(tenants) {
        assert_eq!(t.name, name);
        assert_eq!(
            (t.latency.p50, t.latency.p90, t.latency.p99),
            (p50, p90, p99),
            "{name} percentiles moved under {model}"
        );
    }
}

fn capacities(seed: u64, exact: bool) -> (f64, f64) {
    let build = || PodSim::new(params(seed, exact));
    let search = search_config(Scale::Quick);
    let clean = workgen::capacity::search(build, &base_spec(Scale::Quick), &search, seed);
    let fault = workgen::capacity::search(build, &faulted_spec(Scale::Quick), &search, seed);
    (clean.capacity_pps, fault.capacity_pps)
}

/// Every agent clock, then the orchestrator's.
fn clocks(pod: &PodSim) -> Vec<Nanos> {
    pod.agents
        .iter()
        .map(|a| a.clock())
        .chain([pod.orch.endpoint.clock()])
        .collect()
}

/// Builds the pod with exact polling, then switches every actor to the
/// wake rule, so both modes start from identical clocks and contents.
fn switched_to_wake(seed: u64) -> PodSim {
    let mut pod = PodSim::new(params(seed, true));
    for a in &mut pod.agents {
        a.endpoint.exact = false;
    }
    pod.orch.endpoint.exact = false;
    pod
}

/// One idle pass of host 0's agent: pumping it 1 ns ahead lands it on
/// its next pass boundary.
fn idle_pass(pod: &mut PodSim) -> Nanos {
    let start = pod.agents[0].clock();
    pod.agents[0].pump(&mut pod.fabric, start + Nanos(1));
    pod.agents[0].clock() - start
}

#[test]
fn exact_polling_reproduces_the_busy_polling_model() {
    let (report, _, _) = baseline(42, true, None);
    assert_tenants(
        &report,
        EXACT_SEED42_OPS,
        &EXACT_SEED42_TENANTS,
        "exact polling",
    );
    assert_eq!(capacities(42, true), EXACT_SEED42_CAPACITY);
}

#[test]
fn wake_rule_tracks_the_exact_latencies_verdicts_and_audit() {
    // A skipped poll costs exactly its idle time, so the wake model
    // drifts from the oracle only through what the oracle's own poll
    // bookings did to other traffic: nanoseconds of queueing, which can
    // carry one detection across a pass boundary and so shift later
    // ops' phases. A median thus moves by under 5 %, or — when the
    // latency distribution has modes about a pass apart and the median
    // sits between them, as the frontend's does — by at most one idle
    // pass `P`. Tails stay within 15 %.
    let pass = idle_pass(&mut PodSim::new(params(1, false)));
    for seed in [1, 42] {
        for mode in AuditMode::ALL {
            let (exact, mut exact_pod, _) = baseline(seed, true, Some(mode));
            let (wake, mut wake_pod, ledger) = baseline(seed, false, Some(mode));
            if seed == 42 {
                assert_tenants(
                    &wake,
                    WAKE_SEED42_OPS,
                    &WAKE_SEED42_TENANTS,
                    &format!("the wake rule ({mode:?} audit)"),
                );
                assert_eq!(ledger, WAKE_SEED42_LEDGER, "access stats ({mode:?} audit)");
            }
            for (e, w) in exact.tenants.iter().zip(&wake.tenants) {
                let (e50, w50) = (e.latency.p50 as f64, w.latency.p50 as f64);
                let bound = (0.05 * e50).max(pass.as_nanos() as f64);
                assert!(
                    (w50 - e50).abs() <= bound,
                    "seed {seed} {mode:?} {}: p50 {w50} vs exact {e50} (bound {bound})",
                    e.name
                );
                let (e99, w99) = (e.latency.p99 as f64, w.latency.p99 as f64);
                assert!(
                    (w99 - e99).abs() <= 0.15 * e99,
                    "seed {seed} {mode:?} {}: p99 {w99} vs exact {e99}",
                    e.name
                );
                assert_eq!(
                    e.verdict.pass, w.verdict.pass,
                    "seed {seed} {mode:?} {}",
                    e.name
                );
            }
            for pod in [&mut exact_pod, &mut wake_pod] {
                let audit = pod.audit_finalize().expect("audit on");
                assert_eq!(
                    audit.counts.total(),
                    0,
                    "seed {seed} {mode:?}: {:?}",
                    audit.violations
                );
            }
        }
    }
}

#[test]
fn wake_rule_capacity_is_within_one_search_step() {
    let (clean, fault) = capacities(42, false);
    assert_eq!((clean, fault), WAKE_SEED42_CAPACITY);
    let (exact_clean, exact_fault) = EXACT_SEED42_CAPACITY;
    assert!(
        (clean - exact_clean).abs() <= search_step(),
        "clean {clean}"
    );
    assert!(
        (fault - exact_fault).abs() <= search_step(),
        "fault {fault}"
    );
    assert!(fault < clean, "domain loss must still cost capacity");
}

#[test]
fn wake_rule_pins_the_domain_loss_run() {
    let mut pod = PodSim::new(params(42, false));
    let report = Engine::new(42).run(&mut pod, &faulted_spec(Scale::Quick));
    assert_tenants(
        &report,
        FAULT_SEED42_OPS,
        &FAULT_SEED42_TENANTS,
        "the wake rule (domain loss)",
    );
    assert_eq!(report.errors, FAULT_SEED42_ERRORS, "errors moved");
    assert_eq!(report.elapsed, FAULT_SEED42_ELAPSED, "elapsed moved");
}

#[test]
fn wake_rule_pins_the_churn_run() {
    let mut pod = PodSim::new(churn_pod_params(42));
    let report = Engine::new(42).run(&mut pod, &churn_workload(Scale::Quick, true));
    let lifecycle: Vec<_> = report
        .lifecycle
        .iter()
        .map(|e| {
            (
                e.at.as_nanos(),
                e.tenant.as_str(),
                e.event,
                e.migrated,
                e.blackout.map(|b| b.as_nanos()),
            )
        })
        .collect();
    assert_eq!(lifecycle, CHURN_SEED42_LIFECYCLE, "lifecycle records moved");
    let tenants: Vec<_> = report
        .tenants
        .iter()
        .map(|t| (t.name.as_str(), t.ops, t.latency.p99))
        .collect();
    assert_eq!(tenants, CHURN_SEED42_TENANTS, "churn tenants moved");
}

#[test]
fn idle_pod_skips_every_poll_but_keeps_the_phase() {
    let mut exact = PodSim::new(params(42, true));
    let mut wake = switched_to_wake(42);
    assert_eq!(clocks(&exact), clocks(&wake));

    let loads = wake.fabric.stats().loads;
    exact.run_control(Nanos::from_micros(100));
    wake.run_control(Nanos::from_micros(100));
    assert_eq!(
        wake.fabric.stats().loads,
        loads,
        "idle polls touched the pool"
    );
    // Idle exact polls cost exactly their idle time, so every actor
    // lands on the same pass boundary.
    assert_eq!(clocks(&exact), clocks(&wake));

    // One forwarded op: the attach host detects the submission at the
    // same poll, and the owner the completion, in both modes.
    let host = HostId(4);
    let deadline = exact.time() + Nanos::from_millis(1);
    let e = exact.vnic_send(host, &[7; 1024], deadline).expect("send");
    let w = wake.vnic_send(host, &[7; 1024], deadline).expect("send");
    assert!(
        !e.local && !w.local,
        "host 4 has no NIC: the op is forwarded"
    );
    assert_eq!(e.at, w.at);
    assert_eq!(clocks(&exact), clocks(&wake));
}

#[test]
fn rings_on_failed_pool_memory_neither_spin_nor_wake() {
    let mut exact = PodSim::new(params(7, true));
    let mut wake = switched_to_wake(7);
    for pod in [&mut exact, &mut wake] {
        for m in 0..4 {
            pod.fabric.topology_mut().fail_mhd(MhdId(m));
        }
    }
    let loads = wake.fabric.stats().loads;
    exact.run_control(Nanos::from_micros(50));
    wake.run_control(Nanos::from_micros(50));
    assert_eq!(wake.fabric.stats().loads, loads, "dead rings were polled");
    // Every poll fails at no cost, so both modes burn each quantum and
    // every actor ends the span at the same instant.
    assert_eq!(clocks(&exact), clocks(&wake));
    assert!(clocks(&wake).iter().all(|&c| c == exact.time()));
}

/// Every actor's receive rings (slots and credit line), read with all
/// in-flight writes settled, in actor and attach order.
#[allow(clippy::disallowed_methods)] // reading pool contents is the check
fn settled_rings(pod: &mut PodSim) -> Vec<Vec<u8>> {
    let bases: Vec<u64> = pod
        .agents
        .iter()
        .map(|a| &a.endpoint)
        .chain([&pod.orch.endpoint])
        .flat_map(|ep| ep.receive_rings())
        .collect();
    bases
        .into_iter()
        .map(|base| {
            let len = pod.fabric.segment_at(base).expect("ring mapped").len();
            let mut ring = vec![0; len as usize];
            pod.fabric.peek_settled(base, &mut ring);
            ring
        })
        .collect()
}

/// Polls every actor idle for a few passes, one actor at a time, each
/// from its own start far from the others': exact polls then find idle
/// pipes, so they cost exactly what skipped ones do, and both modes
/// must land every actor on the same pass boundary. (Under
/// `run_control`'s lockstep quanta, exact polls of several actors can
/// queue on a shared MHD pipe for a few ns: the one model difference
/// the wake rule documents.)
fn isolated_passes(pod: &mut PodSim) {
    const GAP: Nanos = Nanos::from_micros(20);
    const WINDOW: Nanos = Nanos::from_micros(5);
    let mut start = pod.time() + GAP;
    for a in &mut pod.agents {
        a.advance_clock(start);
        a.pump(&mut pod.fabric, start + WINDOW);
        start += GAP;
    }
    pod.orch.endpoint.advance_clock(start);
    pod.orch.pump(&mut pod.fabric, start + WINDOW);
}

#[test]
fn cached_poll_plans_follow_pool_failure_restore_and_rebuild() {
    // Each step changes what an idle poll of some ring costs, or which
    // rings there are, after every actor has cached its plan. A plan
    // the step left stale would charge the old idle costs and put the
    // wake-rule actors on other pass boundaries than the exact ones.
    let mut exact = PodSim::new(params(7, true));
    let mut wake = switched_to_wake(7);
    for pod in [&mut exact, &mut wake] {
        isolated_passes(pod);
    }
    assert_eq!(clocks(&exact), clocks(&wake), "before any step");

    let ring = wake.agents[0]
        .endpoint
        .receive_rings()
        .next()
        .expect("host 0 has links");
    let mhd = wake.fabric.segment_at(ring).expect("ring mapped").ways()[0];
    type Step = fn(&mut PodSim, MhdId);
    let steps: [(&str, Step); 3] = [
        ("fail", |pod, mhd| pod.fabric.topology_mut().fail_mhd(mhd)),
        ("restore", |pod, mhd| {
            pod.fabric.topology_mut().restore_mhd(mhd)
        }),
        ("rebuild", |pod, mhd| {
            assert!(pod.recover_pool_failure(mhd) > 0, "no ring rebuilt");
        }),
    ];
    for (name, step) in steps {
        for pod in [&mut exact, &mut wake] {
            step(pod, mhd);
            isolated_passes(pod);
        }
        assert_eq!(clocks(&exact), clocks(&wake), "after {name}");
        assert_eq!(
            settled_rings(&mut exact),
            settled_rings(&mut wake),
            "ring contents after {name}"
        );
    }
}
