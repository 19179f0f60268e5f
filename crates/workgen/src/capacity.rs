//! Automated capacity search: the maximum offered load meeting every
//! SLO.
//!
//! This is the pod-sizing question (cf. Octopus' pod-scale planning):
//! given a topology and a tenant mix, binary-search the total open-loop
//! offered rate for the largest value at which every tenant's SLO still
//! holds. Each trial rebuilds the pod from scratch so trials are
//! independent and the whole search is a pure function of the seed.

use cxl_pool_core::pod::PodSim;
use simkit::Nanos;

use crate::engine::{Engine, RunReport, TenantReport};
use crate::spec::WorkloadSpec;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct CapacityConfig {
    /// Lowest total offered rate tried (ops/s).
    pub lo_pps: f64,
    /// Highest total offered rate tried (ops/s).
    pub hi_pps: f64,
    /// Bisection iterations after the endpoint probes; resolution is
    /// `(hi - lo) / 2^iters`.
    pub iters: u32,
}

impl Default for CapacityConfig {
    fn default() -> CapacityConfig {
        CapacityConfig {
            lo_pps: 5_000.0,
            hi_pps: 400_000.0,
            iters: 6,
        }
    }
}

/// One evaluated point of the search.
#[derive(Clone, Debug)]
pub struct TrialPoint {
    /// Total offered rate tried (ops/s).
    pub offered_pps: f64,
    /// Whether every tenant met its SLO at this rate.
    pub pass: bool,
    /// Name of the tenant furthest over (or closest to) its SLO,
    /// failing tenants first: a failing trial names a failing tenant.
    pub worst_tenant: String,
    /// That tenant's observed latency at its SLO quantile.
    pub worst_observed: Nanos,
    /// That tenant's measured op count: a 0 here means its 0 ns
    /// observed latency is no sample at all, not a fast one.
    pub worst_ops: u64,
}

/// The search outcome.
#[derive(Clone, Debug)]
pub struct CapacityResult {
    /// Maximum offered rate meeting every SLO, ops/s (0 when even the
    /// low endpoint fails).
    pub capacity_pps: f64,
    /// Every point evaluated, in evaluation order.
    pub trials: Vec<TrialPoint>,
    /// The full run report at the capacity point (None when capacity
    /// is 0).
    pub report_at_capacity: Option<RunReport>,
}

/// Binary-searches the maximum total offered load under `base`'s tenant
/// mix that still meets every SLO. `build_pod` must return a freshly
/// built pod each call (trials are independent); determinism comes from
/// building it with the same parameters and from `seed`.
pub fn search<F>(
    mut build_pod: F,
    base: &WorkloadSpec,
    cfg: &CapacityConfig,
    seed: u64,
) -> CapacityResult
where
    F: FnMut() -> PodSim,
{
    let base_total = base.offered_pps();
    assert!(
        base_total > 0.0,
        "capacity search needs at least one open-loop tenant"
    );
    assert!(
        cfg.lo_pps > 0.0 && cfg.lo_pps < cfg.hi_pps,
        "need 0 < lo < hi"
    );
    let engine = Engine::new(seed);
    let mut trials = Vec::new();
    let mut trial = |rate: f64, build_pod: &mut F| -> (bool, RunReport) {
        let spec = base.scaled(rate / base_total);
        let mut pod = build_pod();
        let report = engine.run(&mut pod, &spec);
        // A tenant with no ops observes 0 ns yet fails, so failing
        // tenants rank ahead of every passing one, then by observed/limit.
        let ratio = |t: &TenantReport| {
            t.verdict.observed.as_nanos() as f64 / t.verdict.spec.limit.as_nanos() as f64
        };
        let worst = report
            .tenants
            .iter()
            .max_by(|a, b| {
                (!a.verdict.pass)
                    .cmp(&!b.verdict.pass)
                    .then(ratio(a).total_cmp(&ratio(b)))
            })
            .expect("spec has tenants");
        let pass = report.all_slos_pass();
        trials.push(TrialPoint {
            offered_pps: rate,
            pass,
            worst_tenant: worst.name.clone(),
            worst_observed: worst.verdict.observed,
            worst_ops: worst.ops,
        });
        (pass, report)
    };

    // Endpoint probes bound the search.
    let (lo_pass, lo_report) = trial(cfg.lo_pps, &mut build_pod);
    if !lo_pass {
        return CapacityResult {
            capacity_pps: 0.0,
            trials,
            report_at_capacity: None,
        };
    }
    let (hi_pass, hi_report) = trial(cfg.hi_pps, &mut build_pod);
    if hi_pass {
        return CapacityResult {
            capacity_pps: cfg.hi_pps,
            trials,
            report_at_capacity: Some(hi_report),
        };
    }

    // Invariant: lo passes, hi fails.
    let (mut lo, mut hi) = (cfg.lo_pps, cfg.hi_pps);
    let mut best = lo_report;
    for _ in 0..cfg.iters {
        let mid = (lo + hi) / 2.0;
        let (pass, report) = trial(mid, &mut build_pod);
        if pass {
            lo = mid;
            best = report;
        } else {
            hi = mid;
        }
    }
    CapacityResult {
        capacity_pps: lo,
        trials,
        report_at_capacity: Some(best),
    }
}
