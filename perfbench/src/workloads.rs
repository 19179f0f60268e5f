//! The four workloads: their inputs, all derived from the seed, and one
//! pass of each. A pass drives the simulator only through its public
//! functions and times them; with a recording [`Tracer`] it also leaves
//! spans and counter deltas behind.

use std::time::Instant;

use bench::workload::{
    base_spec, churn_pod_params, churn_workload, faulted_spec, pod_params, search_config,
};
use bench::Scale;
use cxl_fabric::AuditMode;
use cxl_pool_core::pod::{PodParams, PodSim};
use net_sim::experiment::{run_point, BufferMode, UdpConfig};
use simkit::stats::Summary;
use simkit::trace::TraceConfig;
use simkit::Nanos;
use workgen::capacity::TrialPoint;
use workgen::{Arrival, CapacityConfig, Engine, RunReport, WorkloadSpec};

use crate::ledger::{median, min, Counters, SpanId, Tracer};

/// Named values that must repeat bit for bit from pass to pass.
pub type Values = Vec<(String, f64)>;

/// The workloads, by the names the command line uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PodNominal,
    CapacitySearch,
    UdpEcho,
    TenantChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PodNominal,
        Kind::CapacitySearch,
        Kind::UdpEcho,
        Kind::TenantChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PodNominal => "pod-nominal",
            Kind::CapacitySearch => "capacity-search",
            Kind::UdpEcho => "udp-echo",
            Kind::TenantChurn => "tenant-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Which observability planes a pod workload turns on. The on/off
/// differentials of the traced run switch them off one at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Obs {
    pub audit: bool,
    pub trace: bool,
}

impl Obs {
    pub const ON: Obs = Obs {
        audit: true,
        trace: true,
    };
}

/// One capacity trial as `capacity::search` reported it, with the seed
/// and the spec (clean or faulted) it ran.
pub struct Trial {
    pub seed: u64,
    pub fault: bool,
    pub point: TrialPoint,
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    /// Host seconds building pods (the benchmark's own preparation on
    /// udp-echo).
    pub setup_s: f64,
    /// Host seconds of simulated work after set-up.
    pub run_s: f64,
    /// Simulated time covered, ns (0 on capacity-search: see
    /// [`Workload::replay`]).
    pub sim_ns: u64,
    /// Completed simulated ops or echoes (0 on capacity-search).
    pub ops: u64,
    /// Model outputs: unchanged by observability and by speed.
    pub model: Values,
    /// Deterministic counters: unchanged from pass to pass.
    pub counters: Values,
    /// Coherence violations the audit reported.
    pub violations: u64,
    /// False when an echo came back corrupted.
    pub integrity_ok: bool,
    /// The trials of every capacity search, in order.
    pub trials: Vec<Trial>,
}

/// pod-nominal's measured window: long enough that the frontend tenant
/// (30k pps) completes more than 1,000 ops, so its p99 has ten samples
/// beyond it.
const NOMINAL_MEASURE: Nanos = Nanos::from_millis(40);

/// tenant-churn runs its A/B on this many consecutive seeds per pass:
/// one seed's lifecycle schedule alone swings a pass's cost by a
/// quarter and its op count by a tenth.
const CHURN_SEEDS: u64 = 12;

/// Flight-recorder capacity on the pod workloads, as `repro workload`
/// uses it.
const TRACE_CAPACITY: usize = 1 << 15;

/// The Fig 3 sweep: payloads and offered load as a fraction of the
/// payload's saturation rate, each point run for `UDP_DURATION`.
pub const UDP_PAYLOADS: [u32; 4] = bench::fig3::PAYLOADS;
pub const UDP_FRACTIONS: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.85, 0.95];
pub const UDP_DURATION: Nanos = Nanos::from_millis(5);

/// `UdpConfig`'s own default seed: benchmark seed 1 reproduces `repro
/// fig3`.
const UDP_BASE_SEED: u64 = 0xF1_63;

enum Inputs {
    Pod(WorkloadSpec),
    Capacity {
        panel: Vec<u64>,
        clean: WorkloadSpec,
        fault: WorkloadSpec,
        cfg: CapacityConfig,
    },
    Udp {
        seed: u64,
    },
    Churn {
        seeds: Vec<u64>,
        migrate: WorkloadSpec,
        naive: WorkloadSpec,
    },
}

/// A workload with its inputs made from one seed.
pub struct Workload {
    pub kind: Kind,
    seed: u64,
    inputs: Inputs,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let inputs = match kind {
            Kind::PodNominal => {
                let mut spec = base_spec(Scale::Quick);
                spec.measure = NOMINAL_MEASURE;
                Inputs::Pod(spec)
            }
            Kind::CapacitySearch => Inputs::Capacity {
                panel: capacity_panel(seed),
                clean: base_spec(Scale::Quick),
                fault: faulted_spec(Scale::Quick),
                cfg: search_config(Scale::Quick),
            },
            Kind::UdpEcho => Inputs::Udp {
                seed: UDP_BASE_SEED.wrapping_add(seed).wrapping_sub(1),
            },
            Kind::TenantChurn => Inputs::Churn {
                seeds: (0..CHURN_SEEDS).map(|i| seed.wrapping_add(i)).collect(),
                migrate: churn_workload(Scale::Quick, true),
                naive: churn_workload(Scale::Quick, false),
            },
        };
        Workload { kind, seed, inputs }
    }

    /// True for the workloads whose audit and flight recorder can be
    /// switched off for the on/off differentials.
    pub fn has_observability(&self) -> bool {
        matches!(self.inputs, Inputs::Pod(_) | Inputs::Churn { .. })
    }

    /// The UDP seed when it equals `repro fig3`'s.
    pub fn is_fig3_seed(&self) -> bool {
        matches!(self.inputs, Inputs::Udp { seed } if seed == UDP_BASE_SEED)
    }

    /// Runs one pass. `obs` applies to the pod workloads only.
    pub fn pass(&self, obs: Obs, tr: &mut Tracer) -> Pass {
        match &self.inputs {
            Inputs::Pod(spec) => self.pod_pass(spec, obs, tr),
            Inputs::Capacity {
                panel,
                clean,
                fault,
                cfg,
            } => capacity_pass(panel, clean, fault, cfg, tr),
            Inputs::Udp { seed } => udp_pass(*seed, tr),
            Inputs::Churn {
                seeds,
                migrate,
                naive,
            } => self.churn_pass(seeds, migrate, naive, obs, tr),
        }
    }

    fn pod_pass(&self, spec: &WorkloadSpec, obs: Obs, tr: &mut Tracer) -> Pass {
        let top = tr.open("pod-nominal", None);
        let (mut pod, setup_s) = build(tr, top, pod_params(self.seed));
        observe(&mut pod, obs);
        let (report, run_s) = engine_run(tr, top, &mut pod, self.seed, spec);
        let violations = finalize(&mut pod, tr);
        tr.close(top);
        let mut model = Values::new();
        tenant_model(&mut model, "model.", &report, spec);
        Pass {
            setup_s,
            run_s,
            sim_ns: report.elapsed.as_nanos(),
            ops: report.ops,
            model,
            counters: counters(&pod, &report, ""),
            violations,
            integrity_ok: true,
            trials: Vec::new(),
        }
    }

    /// The tenant-churn A/B on every seed of the panel: live migration
    /// with audit and flight recorder on, then naive placement with both
    /// off, as `repro workload --churn` runs them. Model outputs of the
    /// panel's first seed carry the plain `model.` names.
    fn churn_pass(
        &self,
        seeds: &[u64],
        migrate: &WorkloadSpec,
        naive: &WorkloadSpec,
        obs: Obs,
        tr: &mut Tracer,
    ) -> Pass {
        let top = tr.open("tenant-churn", None);
        let mut pass = Pass {
            integrity_ok: true,
            ..Pass::default()
        };
        for (n, &seed) in seeds.iter().enumerate() {
            let (mut mig_pod, mig_setup) = build(tr, top, churn_pod_params(seed));
            observe(&mut mig_pod, obs);
            let (mig, mig_run) = engine_run(tr, top, &mut mig_pod, seed, migrate);
            pass.violations += finalize(&mut mig_pod, tr);
            let (mut naive_pod, naive_setup) = build(tr, top, churn_pod_params(seed));
            let (nai, naive_run) = engine_run(tr, top, &mut naive_pod, seed, naive);

            pass.setup_s += mig_setup + naive_setup;
            pass.run_s += mig_run + naive_run;
            pass.sim_ns += mig.elapsed.as_nanos() + nai.elapsed.as_nanos();
            pass.ops += mig.ops + nai.ops;
            let p = if n == 0 {
                String::new()
            } else {
                format!("seed{seed}.")
            };
            let model = &mut pass.model;
            tenant_model(model, &format!("{p}model."), &mig, migrate);
            tenant_model(model, &format!("{p}naive.model."), &nai, naive);
            for (side, r) in [("migrate", &mig), ("naive", &nai)] {
                model.push((
                    format!("{p}model.churn.{side}.all_slos_pass"),
                    flag(r.all_slos_pass()),
                ));
            }
            for (i, e) in mig.lifecycle.iter().enumerate() {
                let key = format!("{p}lifecycle.{i}.{}.{}", e.tenant, e.event);
                model.push((format!("{key}.at_ns"), e.at.as_nanos() as f64));
                model.push((format!("{key}.migrated"), flag(e.migrated)));
                let blackout = e.blackout.map_or(-1.0, |b| b.as_nanos() as f64);
                model.push((format!("{key}.blackout_ns"), blackout));
            }
            let c = &mut pass.counters;
            c.extend(counters(&mig_pod, &mig, &format!("{p}migrate.")));
            c.extend(counters(&naive_pod, &nai, &format!("{p}naive.")));
        }
        tr.close(top);
        pass
    }

    /// Re-runs every capacity trial of `trials` as a plain engine run
    /// on a fresh pod, and checks that each reproduces the verdict
    /// `capacity::search` recorded. Returns the simulated ns and ops
    /// summed over all trials, which the search itself does not
    /// expose.
    pub fn replay(&self, trials: &[Trial], tr: &mut Tracer) -> Result<(u64, u64), String> {
        let Inputs::Capacity { clean, fault, .. } = &self.inputs else {
            return Ok((0, 0));
        };
        let top = tr.open("capacity replay", None);
        let (mut sim_ns, mut ops) = (0, 0);
        for t in trials {
            let p = &t.point;
            let base = if t.fault { fault } else { clean };
            let spec = base.scaled(p.offered_pps / base.offered_pps());
            let span = tr.open("capacity trial", top);
            let (mut pod, _) = build(tr, span, pod_params(t.seed));
            let (report, _) = engine_run(tr, span, &mut pod, t.seed, &spec);
            tr.close(span);
            let worst = report
                .tenants
                .iter()
                .find(|r| r.name == p.worst_tenant)
                .map(|r| r.verdict.observed);
            if report.all_slos_pass() != p.pass || worst != Some(p.worst_observed) {
                return Err(format!(
                    "seed {} trial at {} pps does not replay the search's verdict",
                    t.seed, p.offered_pps
                ));
            }
            sim_ns += report.elapsed.as_nanos();
            ops += report.ops;
        }
        tr.close(top);
        Ok((sim_ns, ops))
    }

    /// Checks the sweep against `repro fig3`'s own table: every point's
    /// p50s, as the table prints them, must match.
    pub fn check_fig3(&self, pass: &Pass) -> Result<(), String> {
        let table = bench::fig3::run_with(UDP_DURATION, &UDP_PAYLOADS, &UDP_FRACTIONS);
        let csv = table.to_csv();
        let value = |key: &str| {
            pass.model
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| simkit::table::fmt_f64(v / 1e3))
        };
        for (row, line) in csv.lines().skip(1).enumerate() {
            let cols: Vec<&str> = line.split(',').collect();
            let (p, f) = (row / UDP_FRACTIONS.len(), row % UDP_FRACTIONS.len());
            let point = point_key(UDP_PAYLOADS[p], UDP_FRACTIONS[f]);
            for (mode, col) in [("local", 2), ("cxl", 3)] {
                let ours = value(&format!("{point}.{mode}.p50_ns"));
                if ours.as_deref() != cols.get(col).copied() {
                    return Err(format!(
                        "{point} {mode} p50 is {ours:?} here but {:?} in repro fig3",
                        cols.get(col)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The capacity seed panel: seven consecutive seeds from `seed`, plus
/// 42 (the seed `repro workload` reports). Seed 1 gives the panel 1-7
/// and 42.
pub fn capacity_panel(seed: u64) -> Vec<u64> {
    let mut panel: Vec<u64> = (0..7).map(|i| seed.wrapping_add(i)).collect();
    let extra = if panel.contains(&42) {
        seed.wrapping_add(7)
    } else {
        42
    };
    panel.push(extra);
    panel
}

fn capacity_pass(
    panel: &[u64],
    clean: &WorkloadSpec,
    fault: &WorkloadSpec,
    cfg: &CapacityConfig,
    tr: &mut Tracer,
) -> Pass {
    let top = tr.open("capacity-search", None);
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    let mut model = Values::new();
    let mut trials = Vec::new();
    let mut caps: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for &seed in panel {
        for (fault_run, spec) in [(false, clean), (true, fault)] {
            let span = tr.open("capacity::search", top);
            let mut build_s = 0.0;
            let t = Instant::now();
            let result = workgen::capacity::search(
                || {
                    let (pod, s) = build(tr, span, pod_params(seed));
                    build_s += s;
                    pod
                },
                spec,
                cfg,
                seed,
            );
            let search_s = t.elapsed().as_secs_f64();
            run_s += search_s - build_s;
            tr.close(span);
            tr.part_done(search_s);
            setup_s += build_s;

            let side = if fault_run { "fault" } else { "clean" };
            caps[usize::from(fault_run)].push(result.capacity_pps);
            let key = format!("capacity.{seed}.{side}");
            model.push((format!("{key}.pps"), result.capacity_pps));
            for (i, p) in result.trials.into_iter().enumerate() {
                model.push((format!("{key}.trial{i}.offered_pps"), p.offered_pps));
                model.push((format!("{key}.trial{i}.pass"), flag(p.pass)));
                model.push((
                    format!("{key}.trial{i}.worst_ns"),
                    p.worst_observed.as_nanos() as f64,
                ));
                trials.push(Trial {
                    seed,
                    fault: fault_run,
                    point: p,
                });
            }
        }
    }
    tr.close(top);
    for (side, v) in ["clean", "fault"].iter().zip(&caps) {
        let max = v.iter().copied().fold(0.0, f64::max);
        model.push((format!("model.capacity_pps.{side}.median"), median(v)));
        model.push((format!("model.capacity_pps.{side}.min"), min(v)));
        model.push((format!("model.capacity_pps.{side}.max"), max));
    }
    Pass {
        setup_s,
        run_s,
        model,
        integrity_ok: true,
        trials,
        ..Pass::default()
    }
}

/// Rough saturation rate of a payload (pps), exactly as `repro fig3`
/// places its sweep points: the CPU pool for small payloads, the
/// 100 Gbps line for large ones.
fn saturation_pps(payload: u32) -> f64 {
    let cores = net_sim::StackParams::default().cores as f64;
    let cpu = cores * 1e9 / 1_100.0;
    let line = 12.5e9 / (payload as f64 + 42.0);
    cpu.min(line)
}

fn point_key(payload: u32, frac: f64) -> String {
    format!("udp.{payload}B.{frac}")
}

/// The sweep's points, payload-major, each as its key and its local and
/// CXL configurations.
fn udp_sweep(seed: u64) -> Vec<(String, [UdpConfig; 2])> {
    let mut points = Vec::new();
    for payload in UDP_PAYLOADS {
        for frac in UDP_FRACTIONS {
            let config = |mode| {
                let mut cfg = UdpConfig::new(payload, saturation_pps(payload) * frac, mode);
                cfg.duration = UDP_DURATION;
                cfg.seed = seed;
                cfg
            };
            points.push((
                point_key(payload, frac),
                [config(BufferMode::LocalDram), config(BufferMode::CxlPool)],
            ));
        }
    }
    points
}

fn udp_pass(seed: u64, tr: &mut Tracer) -> Pass {
    let top = tr.open("udp-echo", None);
    let t = Instant::now();
    let points = udp_sweep(seed);
    let setup_s = t.elapsed().as_secs_f64();

    let mut pass = Pass {
        setup_s,
        integrity_ok: true,
        ..Pass::default()
    };
    let (mut p50s, mut gaps) = ([Vec::new(), Vec::new()], Vec::new());
    for (key, pair) in points {
        let mut p50 = [0u64; 2];
        for (m, cfg) in pair.into_iter().enumerate() {
            let duration = cfg.duration;
            let span = tr.open("run_point", top);
            let t = Instant::now();
            let point = run_point(cfg);
            let point_s = t.elapsed().as_secs_f64();
            pass.run_s += point_s;
            tr.part_done(point_s);
            let echoes = (point.achieved_pps * duration.as_secs_f64()).round() as u64;
            tr.close_with(
                span,
                vec![("udp.echoes", echoes), ("udp.drops", point.drops)],
            );
            if tr.is_on() {
                tr.ledger.echoes += echoes;
                tr.ledger.drops += point.drops;
            }
            pass.sim_ns += duration.as_nanos();
            pass.ops += echoes;
            pass.integrity_ok &= point.integrity_ok;
            let mode = ["local", "cxl"][m];
            let v = &mut pass.model;
            v.push((format!("{key}.{mode}.p50_ns"), point.p50 as f64));
            v.push((format!("{key}.{mode}.p99_ns"), point.p99 as f64));
            v.push((format!("{key}.{mode}.achieved_pps"), point.achieved_pps));
            v.push((format!("{key}.{mode}.drops"), point.drops as f64));
            p50[m] = point.p50;
            p50s[m].push(point.p50 as f64);
        }
        gaps.push((p50[1] as f64 - p50[0] as f64) / p50[0] as f64 * 100.0);
    }
    tr.close(top);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    pass.model
        .push(("model.udp.local_p50_ns".into(), mean(&p50s[0])));
    pass.model
        .push(("model.udp.cxl_p50_ns".into(), mean(&p50s[1])));
    pass.model
        .push(("model.udp.cxl_gap_pct".into(), mean(&gaps)));
    pass
}

/// Builds a pod, timing `PodSim::new`.
fn build(tr: &mut Tracer, parent: SpanId, params: PodParams) -> (PodSim, f64) {
    let span = tr.open("PodSim::new", parent);
    let t = Instant::now();
    let pod = PodSim::new(params);
    let host_s = t.elapsed().as_secs_f64();
    if tr.is_on() {
        let end = tr.now_ns();
        let built = Counters::read(&pod);
        tr.ledger.build_host_s.push(host_s);
        tr.close_at(span, end, Some(&built));
    }
    (pod, host_s)
}

/// Runs `spec` on `pod`, timing `Engine::run`; traced, it also books the
/// counters that moved during the run.
fn engine_run(
    tr: &mut Tracer,
    parent: SpanId,
    pod: &mut PodSim,
    seed: u64,
    spec: &WorkloadSpec,
) -> (RunReport, f64) {
    let before = tr.is_on().then(|| Counters::read(pod));
    let span = tr.open("Engine::run", parent);
    let t = Instant::now();
    let report = Engine::new(seed).run(pod, spec);
    let host_s = t.elapsed().as_secs_f64();
    if let Some(before) = before {
        let end = tr.now_ns();
        let delta = Counters::read(pod).since(&before);
        tr.ledger.add_run(pod, &report, host_s, &delta);
        tr.close_at(span, end, Some(&delta));
    }
    tr.part_done(host_s);
    (report, host_s)
}

/// Switches on the planes `obs` asks for, with their settings pinned:
/// the audit mode and trace capacity never follow the environment, and
/// the metrics plane stays off.
fn observe(pod: &mut PodSim, obs: Obs) {
    if obs.audit {
        pod.enable_audit_mode(AuditMode::Version);
    }
    if obs.trace {
        pod.enable_trace_config(TraceConfig {
            capacity: TRACE_CAPACITY,
            fabric_ops: false,
        });
    }
}

/// Settles the audit and returns its violation count (0 when off).
fn finalize(pod: &mut PodSim, tr: &mut Tracer) -> u64 {
    let violations = pod.audit_finalize().map_or(0, |r| r.counts.total());
    tr.ledger.final_violations += violations;
    violations
}

/// Deterministic counters of a finished run.
fn counters(pod: &PodSim, report: &RunReport, prefix: &str) -> Values {
    let mut out: Values = Counters::read(pod)
        .named()
        .into_iter()
        .map(|(name, v)| (format!("{prefix}{name}"), v as f64))
        .collect();
    out.push((format!("{prefix}ops"), report.ops as f64));
    out.push((format!("{prefix}errors"), report.errors as f64));
    out.push((
        format!("{prefix}elapsed_ns"),
        report.elapsed.as_nanos() as f64,
    ));
    out
}

/// Per-tenant latency (every percentile with its sample count, and the
/// highest percentile with at least ten samples beyond it), SLO
/// verdicts, and open- and closed-loop rates kept apart.
fn tenant_model(out: &mut Values, prefix: &str, report: &RunReport, spec: &WorkloadSpec) {
    let closed = |name: &str| {
        spec.tenants
            .iter()
            .any(|t| t.name == name && matches!(t.arrival, Arrival::ClosedLoop { .. }))
    };
    let (mut offered_open, mut achieved_open, mut achieved_closed) = (0.0, 0.0, 0.0);
    for t in &report.tenants {
        let key = format!("{prefix}latency_ns.{}", t.name);
        let s: &Summary = &t.latency;
        out.push((format!("{key}.p50"), s.p50 as f64));
        out.push((format!("{key}.p90"), s.p90 as f64));
        out.push((format!("{key}.p99"), s.p99 as f64));
        out.push((format!("{key}.count"), s.count as f64));
        out.push((format!("{key}.top_pct"), top_pct(s.count)));
        out.push((format!("{prefix}slo_pass.{}", t.name), flag(t.verdict.pass)));
        if closed(&t.name) {
            achieved_closed += t.achieved_pps;
        } else {
            offered_open += t.offered_pps;
            achieved_open += t.achieved_pps;
        }
    }
    out.push((format!("{prefix}offered_pps.open"), offered_open));
    out.push((format!("{prefix}achieved_pps.open"), achieved_open));
    out.push((format!("{prefix}achieved_pps.closed"), achieved_closed));
}

/// The highest of p99.9, p99, p90 and p50 with at least ten samples
/// beyond it among `count`, as a percentage; 0 when none qualifies.
fn top_pct(count: u64) -> f64 {
    [999u64, 990, 900, 500]
        .into_iter()
        .find(|&q| count * (1000 - q) >= 10 * 1000)
        .map_or(0.0, |q| q as f64 / 10.0)
}

fn flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}
