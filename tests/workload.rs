//! Integration tests for the workgen subsystem against a real pod:
//! determinism, SLO censoring under faults, and the capacity search.

use cxl_pcie_pool::cxl_fabric::AuditMode;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::simkit::Nanos;
use cxl_pcie_pool::workgen::{
    self, Arrival, CapacityConfig, ChurnSpec, ChurnTenant, Engine, FaultPlan, OpKind, RunReport,
    SloSpec, TenantSpec, WorkloadSpec,
};

fn pod() -> PodSim {
    let mut p = PodParams::new(6, 2);
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    PodSim::new(p)
}

fn mixed_spec(rate_pps: f64) -> WorkloadSpec {
    WorkloadSpec {
        tenants: vec![
            TenantSpec {
                name: "net".into(),
                arrival: Arrival::Poisson { rate_pps },
                mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
                hosts: vec![3, 4, 5],
                slo: SloSpec {
                    quantile: 0.9,
                    limit: Nanos::from_micros(50),
                    max_error_frac: 0.1,
                },
            },
            TenantSpec {
                name: "disk".into(),
                arrival: Arrival::ClosedLoop {
                    concurrency: 2,
                    think: Nanos::from_micros(10),
                },
                mix: vec![
                    (OpKind::SsdRead { blocks: 1 }, 0.6),
                    (OpKind::SsdWrite { blocks: 1 }, 0.4),
                ],
                hosts: vec![2],
                slo: SloSpec {
                    quantile: 0.9,
                    limit: Nanos::from_micros(400),
                    max_error_frac: 0.1,
                },
            },
        ],
        warmup: Nanos::from_micros(200),
        measure: Nanos::from_micros(1_500),
        op_timeout: Nanos::from_micros(150),
        balance_every: Some(Nanos::from_micros(500)),
        fault: None,
        churn: None,
    }
}

fn fingerprint(r: &RunReport) -> Vec<(String, u64, u64, u64, u64)> {
    r.tenants
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                t.ops,
                t.errors,
                t.latency.p99,
                t.verdict.observed.as_nanos(),
            )
        })
        .collect()
}

#[test]
fn same_seed_reproduces_the_run_exactly() {
    let spec = mixed_spec(25_000.0);
    let mut a = pod();
    let mut b = pod();
    let ra = Engine::new(11).run(&mut a, &spec);
    let rb = Engine::new(11).run(&mut b, &spec);
    assert_eq!(fingerprint(&ra), fingerprint(&rb));
    assert_eq!(ra.elapsed, rb.elapsed);
    assert_eq!(ra.ops, rb.ops);
}

#[test]
fn different_seed_changes_the_schedule() {
    let spec = mixed_spec(25_000.0);
    let mut a = pod();
    let mut b = pod();
    let ra = Engine::new(11).run(&mut a, &spec);
    let rb = Engine::new(12).run(&mut b, &spec);
    assert_ne!(
        fingerprint(&ra),
        fingerprint(&rb),
        "different seeds should produce different measurements"
    );
}

#[test]
fn mhd_failure_mid_run_degrades_the_measured_tail() {
    let clean_spec = mixed_spec(40_000.0);
    let mut faulted_spec = mixed_spec(40_000.0);
    faulted_spec.fault = Some(FaultPlan::mhd(
        1,
        Nanos::from_micros(700),
        Nanos::from_micros(150),
    ));

    let mut a = pod();
    let clean = Engine::new(5).run(&mut a, &clean_spec);
    let mut b = pod();
    let faulted = Engine::new(5).run(&mut b, &faulted_spec);

    assert_eq!(clean.errors, 0, "healthy pod should not time out");
    assert!(
        faulted.errors > 0,
        "outage operations should fail or time out"
    );
    let clean_p99 = clean.tenants[0].latency.p99;
    let faulted_p99 = faulted.tenants[0].latency.p99;
    assert!(
        faulted_p99 > clean_p99,
        "censored outage ops must drag the tail: clean {clean_p99} vs faulted {faulted_p99}"
    );
}

#[test]
fn engine_keeps_no_transmitted_frame() {
    // Sends from a host with its own NIC and from one without, with and
    // without an MHD outage whose ops fail or time out.
    let mut spec = mixed_spec(40_000.0);
    spec.tenants[0].hosts = vec![0, 4];
    let mut faulted = spec.clone();
    faulted.fault = Some(FaultPlan::mhd(
        1,
        Nanos::from_micros(700),
        Nanos::from_micros(150),
    ));
    for (spec, outage) in [(spec, false), (faulted, true)] {
        let mut p = pod();
        let r = Engine::new(5).run(&mut p, &spec);
        assert_eq!(r.errors > 0, outage);
        let sent: u64 = p
            .agents
            .iter()
            .flat_map(|a| a.nics.values())
            .map(|n| n.stats().tx_frames)
            .sum();
        assert!(sent > 0, "the run transmitted frames");
        for a in &p.agents {
            assert!(a.out_frames.is_empty(), "host {:?} kept frames", a.host);
        }
    }
}

#[test]
fn capacity_search_brackets_the_knee() {
    let base = mixed_spec(20_000.0);
    let cfg = CapacityConfig {
        lo_pps: 5_000.0,
        hi_pps: 300_000.0,
        iters: 4,
    };
    let result = workgen::capacity::search(pod, &base, &cfg, 3);
    assert!(
        result.capacity_pps >= cfg.lo_pps && result.capacity_pps < cfg.hi_pps,
        "capacity {} outside ({}, {})",
        result.capacity_pps,
        cfg.lo_pps,
        cfg.hi_pps
    );
    // The endpoint probes are evaluated first and the invariant holds.
    assert!(result.trials[0].pass, "lo probe should pass");
    assert!(!result.trials[1].pass, "hi probe should saturate");
    assert!(result.trials.len() == 2 + cfg.iters as usize);
    let report = result.report_at_capacity.expect("capacity > 0");
    assert!(report.all_slos_pass());
}

#[test]
fn impossible_slo_yields_zero_capacity() {
    let mut base = mixed_spec(20_000.0);
    for t in &mut base.tenants {
        t.slo.limit = Nanos(1); // nothing completes in a nanosecond
        t.slo.max_error_frac = 0.0;
    }
    let cfg = CapacityConfig {
        lo_pps: 5_000.0,
        hi_pps: 50_000.0,
        iters: 2,
    };
    let result = workgen::capacity::search(pod, &base, &cfg, 3);
    assert_eq!(result.capacity_pps, 0.0);
    assert!(result.report_at_capacity.is_none());
}

#[test]
fn a_failing_trial_names_a_failing_tenant() {
    // "quiet" offers about one op per second, so no trial window holds
    // one of its ops: its empty distribution fails every trial while
    // the other tenants pass with nonzero observed latencies.
    let mut base = mixed_spec(20_000.0);
    base.tenants.push(TenantSpec {
        name: "quiet".into(),
        arrival: Arrival::Poisson { rate_pps: 1.0 },
        ..base.tenants[0].clone()
    });
    let cfg = CapacityConfig {
        lo_pps: 5_000.0,
        hi_pps: 50_000.0,
        iters: 2,
    };
    let result = workgen::capacity::search(pod, &base, &cfg, 3);
    let first = &result.trials[0];
    assert!(!first.pass);
    assert_eq!(first.worst_tenant, "quiet");
    assert_eq!(first.worst_observed, Nanos::ZERO);
    assert_eq!(first.worst_ops, 0);
}

fn churn_pod() -> PodSim {
    let mut p = PodParams::new(8, 2);
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    PodSim::new(p)
}

fn churn_spec(migrate: bool) -> WorkloadSpec {
    let churn_tenant = |name: &str, host: u16| ChurnTenant {
        spec: TenantSpec {
            name: name.into(),
            arrival: Arrival::Poisson { rate_pps: 30_000.0 },
            mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
            hosts: vec![host],
            slo: SloSpec::p99(Nanos::from_micros(100)),
        },
        state_len: 4096,
        replicas: 1,
        naive_dev: 0,
    };
    WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "steady".into(),
            arrival: Arrival::Poisson { rate_pps: 15_000.0 },
            mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
            hosts: vec![3, 4],
            slo: SloSpec::p99(Nanos::from_micros(100)),
        }],
        warmup: Nanos::from_micros(200),
        measure: Nanos::from_millis(2),
        op_timeout: Nanos::from_micros(200),
        balance_every: None,
        fault: None,
        churn: Some(ChurnSpec {
            tenants: vec![churn_tenant("burst-a", 5), churn_tenant("burst-b", 6)],
            migrate,
        }),
    }
}

/// Audit-clean under vector clocks — and under the version analysis too.
#[test]
fn churn_run_is_vc_audit_clean_and_reclaims_capacity() {
    for mode in AuditMode::ALL {
        let mut p = churn_pod();
        p.enable_audit_mode(mode);
        let free0 = p.fabric.free_capacity();
        let r = Engine::new(21).run(&mut p, &churn_spec(true));

        assert!(
            !r.lifecycle.is_empty(),
            "{mode:?}: churn run should log lifecycle events"
        );
        assert!(r.lifecycle.iter().any(|e| e.event == "arrive"), "{mode:?}");
        assert!(
            r.lifecycle.iter().any(|e| e.event == "depart"),
            "{mode:?}: tenants should depart within the run: {:?}",
            r.lifecycle
        );
        assert!(
            p.lifecycle.tenant_migrations >= 1,
            "{mode:?}: overloaded naive placement should trigger at least one live migration"
        );
        assert!(p.lifecycle.blackout_summary().is_some(), "{mode:?}");
        assert_eq!(
            p.fabric.free_capacity(),
            free0,
            "{mode:?}: departed tenants must hand back every segment (incl. replicas)"
        );

        let report = p.audit_finalize().expect("audit enabled");
        assert_eq!(
            report.counts.total(),
            0,
            "churn + live migration must stay coherent under {mode:?} audit: {:?}",
            report.counts
        );
    }
}

#[test]
fn churn_replay_is_bit_identical_and_churn_free_specs_are_unaffected() {
    let spec = churn_spec(true);
    let mut a = churn_pod();
    let mut b = churn_pod();
    let ra = Engine::new(33).run(&mut a, &spec);
    let rb = Engine::new(33).run(&mut b, &spec);
    assert_eq!(fingerprint(&ra), fingerprint(&rb));
    assert_eq!(ra.elapsed, rb.elapsed);
    let ev_a: Vec<_> = ra
        .lifecycle
        .iter()
        .map(|e| (e.at, e.tenant.clone(), e.event, e.migrated, e.blackout))
        .collect();
    let ev_b: Vec<_> = rb
        .lifecycle
        .iter()
        .map(|e| (e.at, e.tenant.clone(), e.event, e.migrated, e.blackout))
        .collect();
    assert_eq!(ev_a, ev_b, "lifecycle timeline must replay bit-identically");

    // A churn-free spec must not consume churn RNG streams.
    let no_churn = mixed_spec(25_000.0);
    let mut c = pod();
    let rc = Engine::new(11).run(&mut c, &no_churn);
    assert!(rc.lifecycle.is_empty());
}

#[test]
fn engine_run_is_audit_clean() {
    for mode in AuditMode::ALL {
        let spec = mixed_spec(25_000.0);
        let mut p = pod();
        p.enable_audit_mode(mode);
        let _ = Engine::new(11).run(&mut p, &spec);
        let report = p.audit_finalize().expect("audit enabled");
        assert_eq!(
            report.counts.total(),
            0,
            "workload datapath must stay coherent under {mode:?} audit: {:?}",
            report.counts
        );
    }
}
