//! The workload engine: drives a [`PodSim`] through a [`WorkloadSpec`]
//! in simulated time.
//!
//! Open-loop tenants pre-compute their arrival schedules from the seed;
//! the engine issues each operation at (or as soon as possible after)
//! its scheduled arrival and measures latency *from the scheduled
//! arrival*, so a pod that falls behind accumulates queueing delay and
//! the tail blows up — the hockey stick every capacity search walks.
//! Closed-loop tenants run fixed-concurrency workers whose latency is
//! measured from the actual issue instant.
//!
//! Operations scheduled inside the warmup window run but are not
//! recorded; the measurement window follows. Failed or timed-out
//! operations are censored at the per-op deadline and counted as
//! errors (see [`crate::slo`]).

use std::collections::BTreeMap;
use std::iter::successors;

use cxl_fabric::{DomainId, HostId, MhdId};
use cxl_pool_core::lifecycle::{self as pod_lifecycle, TenantState};
use cxl_pool_core::pod::{PodSim, Req, IO_SLOT};
use cxl_pool_core::vdev::{DeviceKind, PoolError};
use pcie_sim::DeviceId;
use simkit::metrics::{Labels, MetricId};
use simkit::rng::Rng;
use simkit::stats::{Histogram, Summary};
use simkit::Nanos;

use crate::arrival::Arrival;
use crate::lifecycle::{thin_schedule, ChurnSpec, LifecycleEvent, LifecycleEventKind};
use crate::slo::SloVerdict;
use crate::spec::{FaultTarget, OpKind, TenantSpec, WorkloadSpec};

/// Per-tenant results for one run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Mean offered rate (ops/s) over the measurement window; for
    /// closed-loop tenants this equals the achieved rate.
    pub offered_pps: f64,
    /// Successfully completed measured ops per second.
    pub achieved_pps: f64,
    /// Operations measured (including censored failures).
    pub ops: u64,
    /// Failed or timed-out operations among them.
    pub errors: u64,
    /// Measured latency distribution (ns).
    pub latency: Summary,
    /// The SLO verdict for this tenant.
    pub verdict: SloVerdict,
    /// Largest number of simultaneously outstanding operations
    /// (closed-loop tenants only; 0 for open loop).
    pub peak_in_flight: usize,
    /// True for a closed-loop tenant, whose offered rate is its
    /// achieved rate rather than an input.
    pub closed_loop: bool,
}

/// One applied lifecycle event, for reports and JSON.
#[derive(Clone, Debug)]
pub struct LifecycleEventReport {
    /// Offset from run start at which the event applied.
    pub at: Nanos,
    /// Churn tenant name.
    pub tenant: String,
    /// `"arrive"`, `"grow"`, `"shrink"` or `"depart"`.
    pub event: &'static str,
    /// True when the event triggered a live migration.
    pub migrated: bool,
    /// Blackout window of that migration, when one happened.
    pub blackout: Option<Nanos>,
}

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-tenant results (residents first, then churn tenants).
    pub tenants: Vec<TenantReport>,
    /// Per-operation-class latency summaries, sorted by label.
    pub kinds: Vec<(&'static str, Summary)>,
    /// Total offered rate of the open-loop resident tenants (ops/s).
    pub offered_pps: f64,
    /// Total achieved rate across tenants, open and closed loop
    /// (ops/s); see [`RunReport::achieved_open_pps`] for the figure
    /// comparable to an offered rate.
    pub achieved_pps: f64,
    /// Measured operations across tenants.
    pub ops: u64,
    /// Errors across tenants.
    pub errors: u64,
    /// Simulated time consumed by the run.
    pub elapsed: Nanos,
    /// Applied tenant-lifecycle events, in order (empty without churn).
    pub lifecycle: Vec<LifecycleEventReport>,
}

impl RunReport {
    /// True when every tenant met its SLO.
    pub fn all_slos_pass(&self) -> bool {
        self.tenants.iter().all(|t| t.verdict.pass)
    }

    /// Offered rate summed over every open-loop tenant, churn tenants
    /// included (ops/s).
    pub fn offered_open_pps(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| !t.closed_loop)
            .map(|t| t.offered_pps)
            .sum()
    }

    /// Achieved rate of the open-loop tenants: the figure that
    /// [`RunReport::offered_open_pps`] bounds (ops/s).
    pub fn achieved_open_pps(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| !t.closed_loop)
            .map(|t| t.achieved_pps)
            .sum()
    }

    /// Achieved rate of the closed-loop tenants (ops/s).
    pub fn achieved_closed_pps(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.closed_loop)
            .map(|t| t.achieved_pps)
            .sum()
    }
}

/// One operation: when it issues, for which tenant, and its drawn host,
/// class and block address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    /// Scheduled issue time: an offset from run start in a [`Plan`],
    /// absolute in the executor.
    at: Nanos,
    /// Tenant index (residents first, then churn tenants).
    tenant: usize,
    host: u16,
    kind: OpKind,
    /// Block address (used by SSD ops).
    lba: u64,
}

/// A pod event the plan fixes in time. Events at one offset apply in
/// variant order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The fault plan's target (one MHD or a whole failure domain) dies.
    Fail(FaultTarget),
    /// Software recovery rebuilds the channels `heal_after` later.
    Heal(FaultTarget),
    /// A churn tenant arrives, grows, shrinks or departs.
    Lifecycle(LifecycleEvent),
    /// Per-host issue counts go to the orchestrator as loads for one
    /// balance pass.
    Balance,
}

/// One tenant's choice stream: the k-th op the tenant issues takes the
/// k-th `(host, op, lba)` draw.
#[derive(Debug)]
struct Choices<'a> {
    tenant: usize,
    spec: &'a TenantSpec,
    /// The mix weights, in mix order.
    weights: Vec<f64>,
    rng: Rng,
}

impl Choices<'_> {
    /// The tenant's next op, issued at `at`.
    fn draw(&mut self, at: Nanos) -> Op {
        let t = self.spec;
        let host = t.hosts[self.rng.below(t.hosts.len() as u64) as usize];
        let kind = t.mix[self.rng.weighted(&self.weights)].0;
        let lba = self.rng.below(1 << 16);
        Op {
            at,
            tenant: self.tenant,
            host,
            kind,
            lba,
        }
    }
}

/// Everything a run does that the pod cannot change, computed by
/// [`plan`] from the spec and the seed alone.
#[derive(Debug)]
struct Plan<'a> {
    /// Open-loop arrivals with their draws, sorted by `(at, tenant)`.
    ops: Vec<Op>,
    /// Fault, heal, lifecycle and balance events, sorted by `(at, event)`.
    events: Vec<(Nanos, Event)>,
    /// Choice streams of the closed-loop tenants, by tenant index (None
    /// for open-loop tenants, whose draws are in `ops`).
    closed: Vec<Option<Choices<'a>>>,
}

/// Residents first, then churn tenants: the order of every per-tenant
/// vector in a run.
fn all_tenants(spec: &WorkloadSpec) -> impl Iterator<Item = &TenantSpec> {
    let churn = spec.churn.iter().flat_map(|c| c.tenants.iter());
    spec.tenants.iter().chain(churn.map(|ct| &ct.spec))
}

/// Plans a run of `spec` over `[0, warmup + measure)` as a pure
/// function of `(spec, seed)`.
fn plan(spec: &WorkloadSpec, seed: u64) -> Plan<'_> {
    let span = spec.warmup + spec.measure;

    // Seed derivation: one schedule stream and one choice stream per
    // tenant, all forked from the master in tenant order.
    let mut master = Rng::new(seed);
    let mut streams: Vec<(Vec<Nanos>, Rng)> = Vec::new();
    for t in &spec.tenants {
        let sched_seed = master.next_u64();
        streams.push((t.arrival.schedule(sched_seed, span), master.fork()));
    }

    // Churn: the lifecycle event schedule and the churn tenants'
    // thinned peak-rate schedules derive from the same master
    // stream, *after* the residents — a churn-free spec replays
    // bit-identically to a pre-churn engine.
    let mut lifecycle = Vec::new();
    if let Some(c) = &spec.churn {
        lifecycle = c.schedule(master.next_u64(), span);
        for (ci, ct) in c.tenants.iter().enumerate() {
            let full = ct.spec.arrival.schedule(master.next_u64(), span);
            streams.push((thin_schedule(full, &lifecycle, ci), master.fork()));
        }
    }

    let mut ops = Vec::new();
    let mut closed = Vec::new();
    for (ti, (t, (schedule, rng))) in all_tenants(spec).zip(streams).enumerate() {
        let weights = t.mix.iter().map(|&(_, w)| w).collect();
        let mut choices = Choices {
            tenant: ti,
            spec: t,
            weights,
            rng,
        };
        ops.extend(schedule.into_iter().map(|at| choices.draw(at)));
        closed.push((!t.arrival.is_open_loop()).then_some(choices));
    }
    ops.sort_by_key(|o| (o.at, o.tenant));

    let mut events: Vec<(Nanos, Event)> = lifecycle
        .into_iter()
        .map(|e| (e.at, Event::Lifecycle(e)))
        .collect();
    if let Some(f) = spec.fault {
        events.push((f.at, Event::Fail(f.target)));
        events.push((f.at + f.heal_after, Event::Heal(f.target)));
    }
    if let Some(every) = spec.balance_every {
        let ticks = successors(Some(every), |&t| Some(t + every));
        events.extend(ticks.take_while(|&t| t < span).map(|t| (t, Event::Balance)));
    }
    // No op issues at or past the span, so no event there applies.
    events.retain(|&(at, _)| at < span);
    events.sort();
    Plan {
        ops,
        events,
        closed,
    }
}

/// Per-tenant metric handles, registered when the pod's metrics plane
/// is on (see `simkit::metrics`): an in-flight gauge, cumulative
/// completion/error counters and a running SLO-attainment fraction.
struct TenantMetricIds {
    /// `tenant/in_flight`.
    in_flight: MetricId,
    /// `tenant/completed`.
    completed: MetricId,
    /// `tenant/errors`.
    errors: MetricId,
    /// `tenant/slo_attainment`.
    slo: MetricId,
}

/// The workload engine. Construction is free; all state lives in
/// [`Engine::run`].
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    seed: u64,
}

impl Engine {
    /// Creates an engine whose every random choice derives from `seed`.
    pub fn new(seed: u64) -> Engine {
        Engine { seed }
    }

    /// Runs `spec` against `pod` and reports per-tenant latency and
    /// SLO verdicts. Panics if the spec does not validate against the
    /// pod (use [`WorkloadSpec::validate`] to pre-check).
    ///
    /// Executes the run's plan: planned arrivals and closed-loop worker
    /// heads issue in `(at, tenant, worker)` order. Before each op,
    /// every event at or before its issue time applies at the pod's
    /// current time; events after the last op apply once it is done.
    pub fn run(&self, pod: &mut PodSim, spec: &WorkloadSpec) -> RunReport {
        let kinds = pod.kinds_available();
        spec.validate(pod.agents.len() as u16, &kinds)
            .expect("workload spec fits the pod");
        let mut plan = plan(spec, self.seed);

        let t0 = pod.time();
        let span = spec.warmup + spec.measure;
        let meas_start = t0 + spec.warmup;
        let meas_end = t0 + span;
        let all_tenants: Vec<&TenantSpec> = all_tenants(spec).collect();
        let resident_n = spec.tenants.len();

        // Closed-loop workers as `(next issue, tenant)`, in tenant then
        // worker order.
        let mut workers: Vec<(Nanos, usize)> = Vec::new();
        for (ti, t) in spec.tenants.iter().enumerate() {
            if let Arrival::ClosedLoop { concurrency, .. } = t.arrival {
                workers.extend((0..concurrency).map(|_| (t0, ti)));
            }
        }

        // Measurement state.
        let n = all_tenants.len();
        let mut hists: Vec<Histogram> = vec![Histogram::new(); n];
        let mut errors = vec![0u64; n];
        let mut completed = vec![0u64; n];
        let mut kind_hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let mut intervals: Vec<Vec<(Nanos, Nanos)>> = vec![Vec::new(); n];
        let mut host_issued: BTreeMap<u16, u64> = BTreeMap::new();
        let mut within_slo = vec![0u64; n];

        // Per-tenant timelines on the pod's metrics plane, if enabled.
        // Gauges are refreshed around each executed op; the pod's
        // simulated-time sampler does the periodic recording.
        let tenant_metrics: Option<Vec<TenantMetricIds>> = pod.metrics_mut().map(|rec| {
            (0..n as u16)
                .map(|ti| TenantMetricIds {
                    in_flight: rec.gauge("tenant/in_flight", Labels::tenant(ti)),
                    completed: rec.counter("tenant/completed", Labels::tenant(ti)),
                    errors: rec.counter("tenant/errors", Labels::tenant(ti)),
                    slo: rec.gauge("tenant/slo_attainment", Labels::tenant(ti)),
                })
                .collect()
        });

        let mut churn = spec.churn.as_ref().map(|c| ChurnState {
            spec,
            churn: c,
            states: c.tenants.iter().map(|_| None).collect(),
            levels: vec![0.0; c.tenants.len()],
            log: Vec::new(),
        });
        let mut ops = plan.ops.iter().peekable();
        let mut events = plan.events.iter().peekable();
        loop {
            // The next op: the earliest planned arrival or closed-loop
            // worker head, by `(at, tenant, worker)`.
            let worker = workers
                .iter()
                .enumerate()
                .filter(|(_, &(at, _))| at < meas_end)
                .min_by_key(|&(w, &(at, _))| (at, w))
                .map(|(w, _)| w);
            let arrival =
                ops.next_if(|o| worker.is_none_or(|w| (t0 + o.at, o.tenant) < workers[w]));
            let next = match (arrival, worker) {
                (Some(o), _) => {
                    let at = t0 + o.at;
                    Some((Op { at, ..*o }, None))
                }
                (None, Some(w)) => {
                    let (at, ti) = workers[w];
                    let stream = plan.closed[ti].as_mut().expect("closed-loop tenant");
                    Some((stream.draw(at), Some(w)))
                }
                (None, None) => None,
            };

            // Apply every event at or before the op (all that are left
            // once no op is) at the pod's current time.
            let until = next.map_or(Nanos::MAX, |(op, _)| op.at);
            while let Some(&(_, ev)) = events.next_if(|&&(off, _)| t0 + off <= until) {
                match ev {
                    Event::Fail(FaultTarget::Mhd(m)) => {
                        pod.fabric.topology_mut().fail_mhd(MhdId(m));
                    }
                    Event::Fail(FaultTarget::Domain(d)) => {
                        pod.fabric.topology_mut().fail_domain(DomainId(d));
                    }
                    Event::Heal(FaultTarget::Mhd(m)) => {
                        pod.recover_pool_failure(MhdId(m));
                    }
                    Event::Heal(FaultTarget::Domain(d)) => {
                        pod.recover_domain_failure(DomainId(d));
                    }
                    Event::Lifecycle(e) => {
                        let churn = churn.as_mut().expect("lifecycle events imply churn");
                        churn.apply(pod, &e);
                    }
                    Event::Balance => {
                        let peak = host_issued.values().copied().max().unwrap_or(0).max(1);
                        for (&h, &count) in &host_issued {
                            let load = ((count * 100) / peak).min(100) as u8;
                            pod.report_host_load(HostId(h), load);
                        }
                        host_issued.clear();
                        pod.rebalance(30);
                    }
                }
            }
            let Some((issue, worker)) = next else {
                break;
            };

            // Let the pod idle forward to the scheduled issue.
            let now = pod.time();
            if now < issue.at {
                pod.run_control(issue.at - now);
            }
            let tenant = all_tenants[issue.tenant];
            *host_issued.entry(issue.host).or_insert(0) += 1;

            // Execute. Open loop measures from the scheduled arrival
            // (queueing delay included); closed loop from the actual
            // issue instant.
            let closed = worker.is_some();
            let start = if closed {
                pod.time().max(issue.at)
            } else {
                issue.at
            };
            let deadline = pod.time().max(issue.at) + spec.op_timeout;
            if let (Some(tm), Some(rec)) = (&tenant_metrics, pod.metrics_mut()) {
                rec.gauge_set(tm[issue.tenant].in_flight, 1.0);
            }
            let (end, failed) = match execute(pod, issue, deadline) {
                Ok(done) => (done, false),
                Err(_) => (deadline, true),
            };
            let latency = end.saturating_sub(start);

            if (meas_start..meas_end).contains(&issue.at) {
                hists[issue.tenant].record_nanos(latency);
                kind_hists
                    .entry(issue.kind.label())
                    .or_default()
                    .record_nanos(latency);
                if failed {
                    errors[issue.tenant] += 1;
                } else {
                    completed[issue.tenant] += 1;
                }
                if closed {
                    intervals[issue.tenant].push((start, end));
                }
                if !failed && latency <= tenant.slo.limit {
                    within_slo[issue.tenant] += 1;
                }
            }
            if let (Some(tm), Some(rec)) = (&tenant_metrics, pod.metrics_mut()) {
                let ids = &tm[issue.tenant];
                let measured_ops = hists[issue.tenant].count();
                let attainment = if measured_ops == 0 {
                    1.0
                } else {
                    within_slo[issue.tenant] as f64 / measured_ops as f64
                };
                rec.gauge_set(ids.in_flight, 0.0);
                rec.gauge_set(ids.completed, completed[issue.tenant] as f64);
                rec.gauge_set(ids.errors, errors[issue.tenant] as f64);
                rec.gauge_set(ids.slo, attainment);
            }

            // Closed-loop worker reschedule.
            if let (Some(w), Arrival::ClosedLoop { think, .. }) = (worker, &tenant.arrival) {
                workers[w].0 = end.max(issue.at) + *think;
            }
        }
        let lifecycle = churn.map_or_else(Vec::new, |c| c.finish(pod));

        // Reduce.
        let secs = spec.measure.as_secs_f64();
        let mut tenants = Vec::with_capacity(n);
        for (ti, t) in all_tenants.iter().enumerate() {
            let achieved = completed[ti] as f64 / secs;
            // A churn tenant's offered rate is what its thinned
            // schedule actually put inside the measurement window.
            let offered = if ti >= resident_n {
                plan.ops
                    .iter()
                    .filter(|o| o.tenant == ti && o.at >= spec.warmup && o.at < span)
                    .count() as f64
                    / secs
            } else {
                t.arrival.mean_rate_pps().unwrap_or(achieved)
            };
            tenants.push(TenantReport {
                name: t.name.clone(),
                offered_pps: offered,
                achieved_pps: achieved,
                ops: hists[ti].count(),
                errors: errors[ti],
                latency: hists[ti].summary(),
                verdict: t.slo.check(&hists[ti], errors[ti]),
                peak_in_flight: peak_overlap(&mut intervals[ti]),
                closed_loop: matches!(t.arrival, Arrival::ClosedLoop { .. }),
            });
        }
        let achieved_total = tenants.iter().map(|t| t.achieved_pps).sum();
        RunReport {
            kinds: kind_hists
                .into_iter()
                .map(|(k, h)| (k, h.summary()))
                .collect(),
            offered_pps: spec.offered_pps(),
            achieved_pps: achieved_total,
            ops: tenants.iter().map(|t| t.ops).sum(),
            errors: tenants.iter().map(|t| t.errors).sum(),
            elapsed: pod.time().saturating_sub(t0),
            tenants,
            lifecycle,
        }
    }
}

/// The device class a churn tenant's traffic is judged on: its
/// heaviest-weighted op's kind.
fn primary_kind(t: &TenantSpec) -> DeviceKind {
    t.mix
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|&(op, _)| op.device_kind())
        .expect("validated mix is non-empty")
}

/// `t`'s mix weight fraction that lands on `kind`.
fn kind_share(t: &TenantSpec, kind: DeviceKind) -> f64 {
    let total: f64 = t
        .mix
        .iter()
        .filter(|&&(_, w)| w > 0.0)
        .map(|&(_, w)| w)
        .sum();
    if total <= 0.0 {
        return 0.0;
    }
    let on: f64 = t
        .mix
        .iter()
        .filter(|&&(op, w)| w > 0.0 && op.device_kind() == kind)
        .map(|&(_, w)| w)
        .sum();
    on / total
}

/// The churn tenants' runtime state in one run: each one's
/// pool-resident state and current activity level, and the log of
/// applied lifecycle events.
struct ChurnState<'a> {
    spec: &'a WorkloadSpec,
    churn: &'a ChurnSpec,
    states: Vec<Option<TenantState>>,
    levels: Vec<f64>,
    log: Vec<LifecycleEventReport>,
}

impl ChurnState<'_> {
    /// Offered-rate attribution for `kind`, in milli-ops/s per live
    /// device: every open-loop tenant's mean rate (scaled by its mix
    /// share on `kind` and, for churn tenants, its lifecycle level) is
    /// split across its hosts and charged to the device each host is
    /// currently bound to. Churn tenant `exclude` is left out so the
    /// placement choice reflects the load it would *join*.
    /// Deterministic: BTreeMap keying and integer milli-pps totals.
    fn device_load_mpps(
        &self,
        pod: &PodSim,
        kind: DeviceKind,
        exclude: usize,
    ) -> BTreeMap<DeviceId, u64> {
        let mut load: BTreeMap<DeviceId, u64> = pod
            .orch
            .devices_of(kind)
            .into_iter()
            .filter(|&d| pod.orch.device(d).is_some_and(|i| i.up))
            .map(|d| (d, 0))
            .collect();
        let charge = |load: &mut BTreeMap<DeviceId, u64>, t: &TenantSpec, level: f64| {
            let Some(rate) = t.arrival.mean_rate_pps() else {
                return;
            };
            let share = kind_share(t, kind);
            if share <= 0.0 || level <= 0.0 {
                return;
            }
            let per_host = rate * share * level / t.hosts.len() as f64;
            for &h in &t.hosts {
                if let Some(d) = pod.binding(HostId(h), kind) {
                    if let Some(v) = load.get_mut(&d) {
                        *v += (per_host * 1000.0) as u64;
                    }
                }
            }
        };
        for t in &self.spec.tenants {
            charge(&mut load, t, 1.0);
        }
        for (ci, ct) in self.churn.tenants.iter().enumerate() {
            if ci != exclude {
                charge(&mut load, &ct.spec, self.levels[ci]);
            }
        }
        load
    }

    /// Live-migrates churn tenant `ci` to the least-loaded `kind` device
    /// if that device carries strictly less attributed load than the
    /// tenant's current one. Returns the blackout when a migration ran.
    fn rebalance(
        &self,
        pod: &mut PodSim,
        ci: usize,
        st: &mut TenantState,
        kind: DeviceKind,
    ) -> Option<Nanos> {
        let load = self.device_load_mpps(pod, kind, ci);
        let cur = pod.binding(st.hosts[0], kind)?;
        let (&target, &target_load) = load.iter().min_by_key(|&(&d, &l)| (l, d))?;
        let cur_load = load.get(&cur).copied().unwrap_or(u64::MAX);
        if target == cur || target_load >= cur_load {
            return None;
        }
        match pod_lifecycle::migrate_tenant(pod, st, kind, target) {
            Ok(Some(rep)) => Some(rep.blackout),
            _ => None,
        }
    }

    /// Applies one lifecycle event to the pod: arrival provisions and
    /// statically places the tenant, grow/shrink re-checkpoint it,
    /// departure releases everything it owns. With
    /// [`ChurnSpec::migrate`] on, arrival/grow/shrink additionally
    /// rebalance by live migration.
    fn apply(&mut self, pod: &mut PodSim, ev: &LifecycleEvent) {
        let c = self.churn;
        let ct = &c.tenants[ev.tenant];
        let kind = primary_kind(&ct.spec);
        let mut migrated = None;
        match ev.kind {
            LifecycleEventKind::Arrive => {
                let hosts: Vec<HostId> = ct.spec.hosts.iter().map(|&h| HostId(h)).collect();
                let Ok(mut st) = pod_lifecycle::provision(
                    pod,
                    ev.tenant as u16,
                    &hosts,
                    ct.state_len,
                    ct.replicas,
                ) else {
                    return;
                };
                self.levels[ev.tenant] = ev.kind.level();
                // Naive static placement: every tenant host lands on the
                // spec'd device, migration or not — the baseline the
                // orchestrator's churn response is judged against.
                let devs = pod.orch.devices_of(kind);
                if !devs.is_empty() {
                    let naive = devs[ct.naive_dev.min(devs.len() - 1)];
                    let now = pod.time();
                    for &h in &hosts {
                        if pod.binding(h, kind) != Some(naive) {
                            let _ = pod_lifecycle::rebind(pod, h, kind, naive, now);
                        }
                    }
                }
                if c.migrate {
                    migrated = self.rebalance(pod, ev.tenant, &mut st, kind);
                }
                self.states[ev.tenant] = Some(st);
            }
            LifecycleEventKind::Grow | LifecycleEventKind::Shrink => {
                self.levels[ev.tenant] = ev.kind.level();
                let Some(mut st) = self.states[ev.tenant].take() else {
                    return;
                };
                let _ = st.checkpoint(pod);
                if c.migrate {
                    migrated = self.rebalance(pod, ev.tenant, &mut st, kind);
                }
                self.states[ev.tenant] = Some(st);
            }
            LifecycleEventKind::Depart => {
                self.levels[ev.tenant] = 0.0;
                let Some(st) = self.states[ev.tenant].take() else {
                    return;
                };
                st.release(pod);
            }
        }
        self.log.push(LifecycleEventReport {
            at: ev.at,
            tenant: ct.spec.name.clone(),
            event: ev.kind.label(),
            migrated: migrated.is_some(),
            blackout: migrated,
        });
    }

    /// Reclaims every tenant still resident, so the pod hands back every
    /// churn-owned segment, and returns the applied-event log.
    fn finish(self, pod: &mut PodSim) -> Vec<LifecycleEventReport> {
        for st in self.states.into_iter().flatten() {
            st.release(pod);
        }
        self.log
    }
}

/// Runs one operation to completion; returns the completion time.
fn execute(pod: &mut PodSim, issue: Op, deadline: Nanos) -> Result<Nanos, PoolError> {
    let (host, lba) = (HostId(issue.host), issue.lba);
    let data = |bytes: u32| {
        assert!(bytes as u64 <= IO_SLOT, "payload exceeds an I/O slot");
        payload(bytes, issue.at)
    };
    // The NIC a send leaves its frame on, read before the op can move it.
    let sent_on = match issue.kind {
        OpKind::NicSend { .. } => pod.binding(host, DeviceKind::Nic),
        _ => None,
    };
    let op = match issue.kind {
        OpKind::NicSend { bytes } => pod.start(host, Req::Send(&data(bytes)), deadline)?,
        OpKind::NicRecv { bytes } => pod.start(host, Req::Recv(data(bytes)), deadline)?,
        OpKind::SsdRead { blocks } => pod.start(host, Req::SsdRead { lba, blocks }, deadline)?,
        OpKind::SsdWrite { blocks } => {
            let buf = pod.stage(host, &data((blocks as u64 * 4096).min(IO_SLOT) as u32))?;
            pod.start(host, Req::SsdWrite { lba, blocks, buf }, deadline)?
        }
        OpKind::AccelRun { bytes } => pod.start(host, Req::Accel(&data(bytes)), deadline)?,
    };
    let done = pod.finish(op);
    // No harness reads the frames a send leaves on its NIC: drop them.
    if let Some(dev) = sent_on {
        pod.take_frames(dev);
    }
    done.map(|r| r.at)
}

/// Deterministic payload bytes for one operation.
fn payload(bytes: u32, issue: Nanos) -> Vec<u8> {
    let tag = (issue.as_nanos() % 251) as u8;
    (0..bytes).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// Maximum number of overlapping `(start, end)` intervals.
fn peak_overlap(intervals: &mut [(Nanos, Nanos)]) -> usize {
    if intervals.is_empty() {
        return 0;
    }
    let mut edges: Vec<(Nanos, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals.iter() {
        edges.push((s, 1));
        // Half-open: an op ending exactly when another starts does not
        // overlap it.
        edges.push((e, -1));
    }
    edges.sort_by_key(|&(t, d)| (t, d));
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ChurnTenant;
    use crate::slo::SloSpec;
    use crate::spec::FaultPlan;

    fn tenant(name: &str, arrival: Arrival, host: u16) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            arrival,
            mix: vec![
                (OpKind::NicSend { bytes: 64 }, 0.7),
                (OpKind::SsdRead { blocks: 1 }, 0.3),
            ],
            hosts: vec![host, host + 1],
            slo: SloSpec::p99(Nanos::from_micros(50)),
        }
    }

    /// An open-loop and a closed-loop resident, a domain loss, balance
    /// feedback and, with `churn`, one churn tenant.
    fn spec(churn: bool) -> WorkloadSpec {
        let closed = Arrival::ClosedLoop {
            concurrency: 2,
            think: Nanos(0),
        };
        let churn_tenant = ChurnTenant {
            spec: tenant("churn", Arrival::Poisson { rate_pps: 40_000.0 }, 4),
            state_len: 4096,
            replicas: 0,
            naive_dev: 0,
        };
        WorkloadSpec {
            tenants: vec![
                tenant("open", Arrival::Poisson { rate_pps: 50_000.0 }, 0),
                tenant("closed", closed, 2),
            ],
            warmup: Nanos::from_micros(100),
            measure: Nanos::from_millis(2),
            op_timeout: Nanos::from_micros(200),
            balance_every: Some(Nanos::from_micros(500)),
            fault: Some(FaultPlan::domain(
                1,
                Nanos::from_micros(700),
                Nanos::from_micros(100),
            )),
            churn: churn.then(|| ChurnSpec {
                tenants: vec![churn_tenant],
                migrate: true,
            }),
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_spec_and_seed() {
        // No pod exists here: the plan is built from the spec and seed.
        let s = spec(true);
        let (a, b) = (plan(&s, 7), plan(&s, 7));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", plan(&s, 8)));
        assert!(a.ops.iter().any(|o| o.tenant == 2), "churn tenant issues");
        assert!(a
            .ops
            .windows(2)
            .all(|w| (w[0].at, w[0].tenant) <= (w[1].at, w[1].tenant)));
        let span = s.warmup + s.measure;
        assert!(a.events.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.events.iter().all(|&(at, _)| at < span));
    }

    #[test]
    fn churn_leaves_the_resident_arrivals_alone() {
        let residents = |s: &WorkloadSpec| -> Vec<Op> {
            let p = plan(s, 3);
            p.ops.into_iter().filter(|o| o.tenant < 2).collect()
        };
        assert_eq!(residents(&spec(true)), residents(&spec(false)));
        assert!(!residents(&spec(false)).is_empty());
    }

    #[test]
    fn events_at_one_offset_apply_fail_heal_lifecycle_balance() {
        // Move the fault, its heal and a balance tick onto the first
        // lifecycle event's offset.
        let mut s = spec(true);
        let p = plan(&s, 5);
        let lifecycle = p.events.iter().find(|e| matches!(e.1, Event::Lifecycle(_)));
        let (at, _) = *lifecycle.expect("churn plans lifecycle events");
        s.fault = Some(FaultPlan::domain(1, at, Nanos::ZERO));
        s.balance_every = Some(at);
        let p = plan(&s, 5);
        let same: Vec<Event> = p.events.iter().filter(|e| e.0 == at).map(|e| e.1).collect();
        assert!(
            matches!(
                same[..],
                [
                    Event::Fail(_),
                    Event::Heal(_),
                    Event::Lifecycle(_),
                    Event::Balance
                ]
            ),
            "{same:?}"
        );
    }

    #[test]
    fn closed_loop_tenants_get_a_stream_and_no_planned_ops() {
        let s = spec(true);
        let mut p = plan(&s, 1);
        assert!(p.ops.iter().all(|o| o.tenant != 1));
        assert!(p.closed[0].is_none() && p.closed[2].is_none());
        let stream = p.closed[1].as_mut().expect("closed-loop stream");
        let op = stream.draw(Nanos(9));
        assert_eq!((op.at, op.tenant), (Nanos(9), 1));
        assert!([2, 3].contains(&op.host));
    }

    #[test]
    fn peak_overlap_counts_concurrency() {
        let mut iv = vec![
            (Nanos(0), Nanos(10)),
            (Nanos(5), Nanos(15)),
            (Nanos(10), Nanos(20)), // starts when the first ends: no overlap
        ];
        assert_eq!(peak_overlap(&mut iv), 2);
        assert_eq!(peak_overlap(&mut []), 0);
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload(8, Nanos(100)), payload(8, Nanos(100)));
        assert_eq!(payload(4, Nanos(0)), vec![0, 1, 2, 3]);
    }
}
