//! Deterministic tenant churn: arrive / grow / shrink / depart on a
//! seeded diurnal schedule.
//!
//! A [`ChurnSpec`] adds lifecycle tenants to a workload. Each churn
//! tenant's [`TenantSpec`] carries its *peak* (grown) arrival process;
//! the engine pre-computes the peak-rate schedule, then thins it by
//! the tenant's lifecycle phase ([`thin_schedule`]): nothing before
//! arrival, half rate after arriving, full rate while grown, quarter
//! rate after shrinking, nothing after departure. Both the event
//! schedule and the thinning are pure functions of the seed, so churn
//! runs replay bit-identically.
//!
//! At each event the engine touches the pod through
//! `cxl_pool_core::lifecycle`: arrival provisions the tenant's pool
//! state and pins its hosts to a statically chosen device (the naive
//! placement a no-migration baseline is stuck with); grow/shrink
//! checkpoint the state; departure releases every tenant segment. When
//! [`ChurnSpec::migrate`] is on, the engine additionally live-migrates
//! the tenant to the least-loaded device after each event — the §4.2
//! orchestrator response this module exists to measure.

use simkit::rng::Rng;
use simkit::Nanos;

use crate::spec::TenantSpec;

/// What happens to a churn tenant at a lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LifecycleEventKind {
    /// The tenant appears: pool state is provisioned, hosts are bound,
    /// and it starts issuing at half its peak rate.
    Arrive,
    /// The tenant ramps to its full peak rate.
    Grow,
    /// The tenant drops to a quarter of its peak rate.
    Shrink,
    /// The tenant leaves; every segment it owned is reclaimed.
    Depart,
}

impl LifecycleEventKind {
    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            LifecycleEventKind::Arrive => "arrive",
            LifecycleEventKind::Grow => "grow",
            LifecycleEventKind::Shrink => "shrink",
            LifecycleEventKind::Depart => "depart",
        }
    }

    /// Thinning divisor for the phase this event starts: keep every
    /// n-th op of the peak-rate schedule (None = inactive).
    pub fn divisor(self) -> Option<u64> {
        match self {
            LifecycleEventKind::Arrive => Some(2),
            LifecycleEventKind::Grow => Some(1),
            LifecycleEventKind::Shrink => Some(4),
            LifecycleEventKind::Depart => None,
        }
    }

    /// Fraction of the tenant's peak rate offered during the phase
    /// this event starts (the reciprocal of [`divisor`]).
    ///
    /// [`divisor`]: LifecycleEventKind::divisor
    pub fn level(self) -> f64 {
        match self.divisor() {
            Some(d) => 1.0 / d as f64,
            None => 0.0,
        }
    }
}

/// One lifecycle event on the churn timeline. Ordered by `(at,
/// tenant, kind)`, the order [`ChurnSpec::schedule`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LifecycleEvent {
    /// Offset from run start.
    pub at: Nanos,
    /// Index into [`ChurnSpec::tenants`].
    pub tenant: usize,
    /// What happens.
    pub kind: LifecycleEventKind,
}

/// One churn tenant: a workload spec (at peak rate) plus its pool
/// footprint and the naive static placement the baseline uses.
#[derive(Clone, Debug)]
pub struct ChurnTenant {
    /// The tenant's traffic at peak (grown) rate. Must be open-loop.
    pub spec: TenantSpec,
    /// Bytes of pool-resident tenant state provisioned on arrival.
    pub state_len: u64,
    /// Domain-replicated copies of the state region (0 = none).
    pub replicas: usize,
    /// Index into `devices_of(kind)` for static placement on arrival —
    /// what a pod without live migration is stuck with.
    pub naive_dev: usize,
}

/// First-class tenant churn riding on a workload.
#[derive(Clone, Debug)]
pub struct ChurnSpec {
    /// The churn tenants, appended after the resident tenants.
    pub tenants: Vec<ChurnTenant>,
    /// Live-migrate tenants to the least-loaded device after each
    /// lifecycle event (false = naive static placement baseline).
    pub migrate: bool,
}

impl ChurnSpec {
    /// Generates the lifecycle event schedule over `[0, span)`.
    ///
    /// A pure function of `(seed, span)`: the same inputs yield a
    /// bit-identical event list (the replay property the capacity and
    /// bench self-checks lean on). Each tenant lives one compressed
    /// diurnal day: arrive in the early ramp, grow toward the peak,
    /// shrink in the evening, depart before close — with every offset
    /// drawn from the tenant's forked stream. Events past 95% of the
    /// span are dropped (the tenant then stays in that phase to the
    /// end of the run and is reclaimed by the engine's cleanup).
    /// Sorted by `(at, tenant, kind)`.
    pub fn schedule(&self, seed: u64, span: Nanos) -> Vec<LifecycleEvent> {
        let mut master = Rng::new(seed);
        let span_ns = span.as_nanos() as f64;
        let mut out = Vec::new();
        for (ti, _) in self.tenants.iter().enumerate() {
            let mut rng = master.fork();
            let arrive = 0.05 + 0.15 * rng.f64();
            let grow = arrive + 0.10 + 0.15 * rng.f64();
            let shrink = grow + 0.15 + 0.15 * rng.f64();
            let depart = shrink + 0.10 + 0.15 * rng.f64();
            for (frac, kind) in [
                (arrive, LifecycleEventKind::Arrive),
                (grow, LifecycleEventKind::Grow),
                (shrink, LifecycleEventKind::Shrink),
                (depart, LifecycleEventKind::Depart),
            ] {
                if frac < 0.95 {
                    out.push(LifecycleEvent {
                        at: Nanos((frac * span_ns) as u64),
                        tenant: ti,
                        kind,
                    });
                }
            }
        }
        out.sort_by_key(|e| (e.at, e.tenant, e.kind));
        out
    }
}

/// Thins churn tenant `tenant`'s peak-rate arrival schedule by its
/// lifecycle phase: an op at offset `t` survives only if the tenant is
/// active at `t`, keeping every n-th op per the phase's
/// [`LifecycleEventKind::divisor`]. Deterministic: depends only on
/// the inputs.
pub fn thin_schedule(sched: Vec<Nanos>, events: &[LifecycleEvent], tenant: usize) -> Vec<Nanos> {
    let mine: Vec<&LifecycleEvent> = events.iter().filter(|e| e.tenant == tenant).collect();
    let mut out = Vec::new();
    for (i, off) in sched.into_iter().enumerate() {
        let phase = mine.iter().rev().find(|e| e.at <= off);
        let Some(div) = phase.and_then(|e| e.kind.divisor()) else {
            continue;
        };
        if (i as u64).is_multiple_of(div) {
            out.push(off);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Arrival;
    use crate::slo::SloSpec;
    use crate::spec::OpKind;

    fn churn(n: usize) -> ChurnSpec {
        ChurnSpec {
            tenants: (0..n)
                .map(|i| ChurnTenant {
                    spec: TenantSpec {
                        name: format!("web-{i}"),
                        arrival: Arrival::Poisson { rate_pps: 10_000.0 },
                        mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
                        hosts: vec![i as u16],
                        slo: SloSpec::p99(Nanos::from_micros(100)),
                    },
                    state_len: 4096,
                    replicas: 0,
                    naive_dev: 0,
                })
                .collect(),
            migrate: true,
        }
    }

    #[test]
    fn events_are_ordered_and_per_tenant_phases_progress() {
        let c = churn(3);
        let span = Nanos::from_millis(10);
        let ev = c.schedule(7, span);
        assert!(ev
            .windows(2)
            .all(|w| (w[0].at, w[0].tenant) <= (w[1].at, w[1].tenant)));
        for ti in 0..3 {
            let mine: Vec<_> = ev.iter().filter(|e| e.tenant == ti).collect();
            assert!(!mine.is_empty());
            assert_eq!(
                mine[0].kind,
                LifecycleEventKind::Arrive,
                "first event arrives"
            );
            assert!(
                mine.windows(2)
                    .all(|w| w[0].kind < w[1].kind && w[0].at < w[1].at),
                "phases progress in order"
            );
            assert!(mine.iter().all(|e| e.at < span));
        }
    }

    #[test]
    fn thinning_respects_phase_windows() {
        let c = churn(1);
        let span = Nanos::from_millis(10);
        let ev = c.schedule(3, span);
        let arrive = ev[0].at;
        let depart = ev
            .iter()
            .rev()
            .find(|e| e.kind == LifecycleEventKind::Depart);
        let full: Vec<Nanos> = (0..10_000u64).map(|i| Nanos(i * 1_000)).collect();
        let kept = thin_schedule(full, &ev, 0);
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|&t| t >= arrive), "nothing before arrival");
        if let Some(d) = depart {
            assert!(kept.iter().all(|&t| t < d.at), "nothing after departure");
        }
    }

    #[test]
    fn divisors_match_levels() {
        for k in [
            LifecycleEventKind::Arrive,
            LifecycleEventKind::Grow,
            LifecycleEventKind::Shrink,
            LifecycleEventKind::Depart,
        ] {
            match k.divisor() {
                Some(d) => assert!((k.level() - 1.0 / d as f64).abs() < 1e-12),
                None => assert_eq!(k.level(), 0.0),
            }
        }
    }
}
