//! `bench workload` — the pool-scale workload and capacity bench.
//!
//! Drives a six-host, two-failure-domain pod through a three-tenant
//! mix (latency-sensitive NIC traffic, bursty storage scans,
//! closed-loop accelerator offload) with the [`workgen`] engine, then
//! binary-searches the maximum total offered load that still meets
//! every tenant's SLO — once on a healthy pod and once with a whole
//! failure domain (two of the four MHDs) lost mid-run.
//!
//! [`run`] returns one typed [`BenchResult`]. Everything else reads
//! it: [`BenchResult::json`] renders `BENCH_workload.json` (machine
//! readable, schema documented in EXPERIMENTS.md), the human summary
//! on stdout prints from it, and `--check` asserts on it. A new
//! document field is a typed field first, rendered in one place.
//!
//! Everything is a pure function of `--seed`: rerunning with the same
//! seed reproduces the JSON bit for bit. `--check` verifies this and
//! that the written file parses back to the rendered document, then
//! asserts on the typed result: capacity degradation under the domain
//! loss and a clean vector-clock coherence audit among the rest.

use std::fs;
use std::process::ExitCode;

use cxl_fabric::{AuditMode, AuditReport};
use cxl_pool_core::pod::{PodParams, PodSim};
use serde_json::Value;
use simkit::stats::Summary;
use simkit::trace::{kind_name, TraceConfig, TraceRecorder};
use simkit::Nanos;
use workgen::{
    Arrival, CapacityConfig, CapacityResult, ChurnSpec, ChurnTenant, Engine, FaultPlan,
    FaultTarget, OpKind, RunReport, SloSpec, TenantSpec, WorkloadSpec,
};

use crate::Scale;

/// Stable schema tag for downstream consumers (v4: `baseline.ledger`
/// per-layer counts, and offered/achieved rates split into open- and
/// closed-loop figures; v5: audit hook calls and trace spans per op in
/// the ledger; v6: the worst tenant's op count in every capacity
/// trial).
pub const SCHEMA: &str = "cxl-pool-workload-bench/v6";

/// `--check` fails when the baseline run issues more pool loads than
/// this per measured op: idle ring polls are skipped, so loads track
/// the work the ops do, not the simulated time they span.
pub const MAX_LOADS_PER_OP: f64 = 10.0;

/// The analysis the audited runs use, written as `audit.mode`: the
/// vector-clock mode adds happens-before race detection to the checks.
const AUDIT_MODE: AuditMode = AuditMode::VectorClock;

/// Default output path (gitignored; CI uploads it as an artifact).
pub const DEFAULT_OUT: &str = "BENCH_workload.json";

/// Bench configuration, from the CLI.
#[derive(Clone, Debug)]
pub struct Config {
    /// Master seed; every schedule, mix pick, and policy choice
    /// derives from it.
    pub seed: u64,
    /// Quick (CI) or full (paper-scale) windows and search depth.
    pub scale: Scale,
    /// Also run the tenant-churn scenario (live migration vs naive
    /// static placement) and emit the `churn` section.
    pub churn: bool,
}

/// The pod under test: six hosts, four MHDs round-robined over two
/// failure domains (λ = 4, so every host has two redundant links into
/// *each* domain and every host pair shares an MHD for its channel),
/// NICs behind hosts 0-1, SSDs behind 0-1, one accelerator behind
/// host 2. Hosts 3-5 own no devices and reach everything through the
/// pool — the paper's "pooled pod" shape. The shape does not depend on
/// the seed: `LocalFirst` placement draws no random numbers.
pub fn pod_params(_seed: u64) -> PodParams {
    let mut p = PodParams::new(6, 2);
    p.mhds = 4;
    p.domains = 2;
    p.lambda = 4;
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    p.ring_slots = 128;
    p.io_slots = 32;
    p
}

/// The base three-tenant workload. Offered rates here are the
/// *baseline* operating point; the capacity search scales them
/// together, preserving the mix.
pub fn base_spec(scale: Scale) -> WorkloadSpec {
    let tenants = vec![
        // Latency-sensitive frontend: open-loop Poisson NIC traffic
        // from the device-less hosts.
        TenantSpec {
            name: "frontend".into(),
            arrival: Arrival::Poisson { rate_pps: 30_000.0 },
            mix: vec![
                (OpKind::NicSend { bytes: 1024 }, 0.9),
                (OpKind::NicRecv { bytes: 512 }, 0.1),
            ],
            hosts: vec![3, 4, 5],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(30),
                max_error_frac: 0.10,
            },
        },
        // Bursty analytics scans against the pooled SSDs (MMPP).
        TenantSpec {
            name: "analytics".into(),
            arrival: Arrival::Bursty {
                low_pps: 5_000.0,
                high_pps: 40_000.0,
                dwell_low: Nanos::from_micros(300),
                dwell_high: Nanos::from_micros(100),
            },
            mix: vec![
                (OpKind::SsdRead { blocks: 1 }, 0.7),
                (OpKind::SsdWrite { blocks: 1 }, 0.3),
            ],
            hosts: vec![2, 4],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(200),
                max_error_frac: 0.10,
            },
        },
        // Closed-loop ML offload: fixed concurrency, can't overload
        // the pod by itself but competes for fabric bandwidth.
        TenantSpec {
            name: "ml".into(),
            arrival: Arrival::ClosedLoop {
                concurrency: 3,
                think: Nanos::from_micros(5),
            },
            mix: vec![(OpKind::AccelRun { bytes: 2048 }, 1.0)],
            hosts: vec![3, 5],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(200),
                max_error_frac: 0.10,
            },
        },
    ];
    WorkloadSpec {
        tenants,
        warmup: scale.pick(Nanos::from_micros(300), Nanos::from_millis(1)),
        measure: scale.pick(Nanos::from_micros(2_500), Nanos::from_millis(10)),
        op_timeout: Nanos::from_micros(150),
        balance_every: Some(Nanos::from_millis(1)),
        fault: None,
        churn: None,
    }
}

/// The pod for the churn scenario: [`pod_params`] with eight hosts so
/// the lifecycle tenants can issue from device-less hosts 5-6 while the
/// resident tenant keeps hosts 3-4 busy; two NICs is the contended
/// resource the orchestrator spreads churn across. Like [`pod_params`],
/// it does not depend on the seed.
pub fn churn_pod_params(seed: u64) -> PodParams {
    PodParams {
        hosts: 8,
        ..pod_params(seed)
    }
}

/// The churn workload: one resident NIC tenant plus two lifecycle
/// tenants arriving/growing/shrinking/departing on the seeded diurnal
/// schedule. The churn tenants run 8-block pooled-SSD scans — each op
/// occupies every flash channel for one read latency, so a single SSD
/// sustains ~12.5k ops/s — at peak rates sized so *one* SSD carries
/// both tenants only by blowing its tail. Naive placement pins every
/// churn tenant on SSD 0 — the static choice a pod without live
/// migration is stuck with — so the A/B pair (`migrate` on/off)
/// isolates exactly the orchestrator's churn response. The
/// control-plane balance feedback is off here for the same reason.
pub fn churn_workload(scale: Scale, migrate: bool) -> WorkloadSpec {
    let churn_tenant = |name: &str, rate_pps: f64, host: u16| ChurnTenant {
        spec: TenantSpec {
            name: name.into(),
            arrival: Arrival::Poisson { rate_pps },
            mix: vec![(OpKind::SsdRead { blocks: 8 }, 1.0)],
            hosts: vec![host],
            slo: SloSpec {
                quantile: 0.99,
                limit: Nanos::from_micros(300),
                max_error_frac: 0.05,
            },
        },
        state_len: 4096,
        replicas: 1,
        naive_dev: 0,
    };
    WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "steady".into(),
            arrival: Arrival::Poisson { rate_pps: 20_000.0 },
            mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
            hosts: vec![3, 4],
            slo: SloSpec {
                quantile: 0.99,
                limit: Nanos::from_micros(100),
                max_error_frac: 0.05,
            },
        }],
        warmup: scale.pick(Nanos::from_micros(200), Nanos::from_micros(500)),
        measure: scale.pick(Nanos::from_millis(4), Nanos::from_millis(12)),
        op_timeout: Nanos::from_micros(600),
        balance_every: None,
        fault: None,
        churn: Some(ChurnSpec {
            tenants: vec![
                churn_tenant("diurnal-a", 8_000.0, 5),
                churn_tenant("diurnal-b", 8_000.0, 6),
            ],
            migrate,
        }),
    }
}

/// The same workload with failure domain 1 (MHDs 1 and 3) lost
/// mid-measurement and software recovery shortly after.
pub fn faulted_spec(scale: Scale) -> WorkloadSpec {
    let mut spec = base_spec(scale);
    spec.fault = Some(FaultPlan::domain(
        1,
        spec.warmup + scale.pick(Nanos::from_micros(600), Nanos::from_micros(2_400)),
        scale.pick(Nanos::from_micros(100), Nanos::from_micros(400)),
    ));
    spec
}

/// Capacity-search bounds: wide enough that the knee lands strictly
/// inside at both scales.
pub fn search_config(scale: Scale) -> CapacityConfig {
    CapacityConfig {
        lo_pps: 8_000.0,
        hi_pps: 240_000.0,
        iters: scale.pick(6, 8),
    }
}

/// Everything one bench run measured. [`BenchResult::json`] renders the
/// document from it; `--check` and the stdout summary read it directly.
#[derive(Clone, Debug)]
pub struct BenchResult {
    cfg: Config,
    params: PodParams,
    /// The base three-tenant workload ([`base_spec`]).
    spec: WorkloadSpec,
    baseline: RunReport,
    /// What the baseline run cost, layer by layer.
    ledger: LedgerCounts,
    /// The baseline's flight-recorder stages.
    stages: Vec<StageLatency>,
    audit: Option<AuditReport>,
    clean: CapacityResult,
    under_fault: CapacityResult,
    /// The outage the faulted search injects ([`faulted_spec`]).
    fault: FaultPlan,
    churn: Option<ChurnResult>,
}

/// The tenant-churn A/B: one seeded lifecycle schedule, run with
/// orchestrator live migration and with the naive static placement.
#[derive(Clone, Debug)]
struct ChurnResult {
    params: PodParams,
    /// The migrating run's workload ([`churn_workload`]).
    spec: WorkloadSpec,
    migrate: RunReport,
    naive: RunReport,
    /// Whole-tenant migrations of the migrating run.
    migrations: u64,
    /// Its migration blackouts (None before the first one).
    blackout: Option<Summary>,
    /// Its `lifecycle/migrate` flight-recorder stage.
    migrate_stage: Option<Summary>,
    audit: Option<AuditReport>,
}

/// A flight-recorder stage: its name, device kind name and latency.
type StageLatency = (&'static str, &'static str, Summary);

/// Runs the whole bench: a pure function of `cfg`.
pub fn run(cfg: &Config) -> BenchResult {
    let params = pod_params(cfg.seed);
    let build = || PodSim::new(params.clone());
    let spec = base_spec(cfg.scale);
    let faulted = faulted_spec(cfg.scale);

    // Baseline at the nominal operating point, with the flight
    // recorder and the coherence auditor on.
    let mut pod = build();
    observe(&mut pod);
    let before = LedgerCounts::read(&pod);
    let baseline = Engine::new(cfg.seed).run(&mut pod, &spec);
    let ledger = LedgerCounts::read(&pod).since(&before);
    let stages = stages(&pod);
    let audit = pod.audit_finalize();

    // Capacity: clean pod, then with the mid-run MHD failure.
    let search = search_config(cfg.scale);
    let clean = workgen::capacity::search(build, &spec, &search, cfg.seed);
    let under_fault = workgen::capacity::search(build, &faulted, &search, cfg.seed);
    BenchResult {
        cfg: cfg.clone(),
        params,
        spec,
        baseline,
        ledger,
        stages,
        audit,
        clean,
        under_fault,
        fault: faulted.fault.expect("faulted_spec injects an outage"),
        churn: cfg.churn.then(|| run_churn(cfg)),
    }
}

/// Runs the churn A/B: the same seeded lifecycle schedule, once with
/// orchestrator live migration answering each event and once stuck
/// with the naive static placement. Audit + flight recorder ride on
/// the migrating run — the interesting datapath.
fn run_churn(cfg: &Config) -> ChurnResult {
    let engine = Engine::new(cfg.seed);
    let params = churn_pod_params(cfg.seed);
    let spec = churn_workload(cfg.scale, true);
    let mut pod = PodSim::new(params.clone());
    observe(&mut pod);
    let migrate = engine.run(&mut pod, &spec);
    let migrate_stage = stages(&pod)
        .into_iter()
        .find(|&(stage, _, _)| stage == "lifecycle/migrate")
        .map(|(_, _, latency)| latency);
    let migrations = pod.lifecycle.tenant_migrations;
    let blackout = pod.lifecycle.blackout_summary();
    let audit = pod.audit_finalize();
    let naive_spec = churn_workload(cfg.scale, false);
    let naive = engine.run(&mut PodSim::new(params.clone()), &naive_spec);
    ChurnResult {
        params,
        spec,
        migrate,
        naive,
        migrations,
        blackout,
        migrate_stage,
        audit,
    }
}

/// The flight recorder's stage latencies, sorted by stage and kind
/// *name* (not the recorder's kind number).
fn stages(pod: &PodSim) -> Vec<StageLatency> {
    let mut stages: Vec<StageLatency> = pod
        .trace()
        .into_iter()
        .flat_map(TraceRecorder::stage_summaries)
        .map(|(stage, kind, latency)| (stage, kind_name(kind), latency))
        .collect();
    stages.sort_by_key(|&(stage, kind, _)| (stage, kind));
    stages
}

impl BenchResult {
    /// The `BENCH_workload.json` document.
    pub fn json(&self) -> Value {
        let stages = self.stages.iter().map(|(stage, kind, latency)| {
            obj(vec![
                ("stage", string(stage)),
                ("kind", string(kind)),
                ("latency_ns", summary_json(latency)),
            ])
        });
        let mut baseline = report_json_fields(&self.baseline);
        baseline.push(("stages", array(stages)));
        baseline.push(("ledger", self.ledger.json(self.baseline.ops)));
        obj(vec![
            ("schema", string(SCHEMA)),
            ("seed", num(self.cfg.seed as f64)),
            ("scale", string(self.cfg.scale.pick("quick", "full"))),
            ("pod", obj(pod_fields(&self.params))),
            (
                "tenants",
                array(self.spec.tenants.iter().map(tenant_spec_json)),
            ),
            ("baseline", obj(baseline)),
            ("audit", audit_json(self.audit.as_ref())),
            ("capacity", capacity_json(&self.clean, None)),
            (
                "capacity_under_fault",
                capacity_json(&self.under_fault, Some(&self.fault)),
            ),
            (
                "churn",
                self.churn.as_ref().map_or(Value::Null, ChurnResult::json),
            ),
        ])
    }
}

/// CLI entry: `bench workload [--seed N] [--out PATH] [--full] [--churn] [--check]`.
pub fn run_cli(args: &[String]) -> ExitCode {
    let mut seed = 42u64;
    let mut out = DEFAULT_OUT.to_string();
    let mut scale = Scale::Quick;
    let mut churn = false;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("workload: --seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("workload: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--full" => scale = Scale::Full,
            "--churn" => churn = true,
            "--check" => check = true,
            other => {
                eprintln!(
                    "workload: unknown argument {other}\n\
                     usage: bench workload [--seed N] [--out PATH] [--full] [--churn] [--check]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let result = run(&Config { seed, scale, churn });
    let doc = result.json();
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    if let Err(e) = fs::write(&out, &text) {
        eprintln!("workload: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    print_summary(&result, &out);

    if check {
        match self_check(&result, &doc, &out) {
            Ok(()) => println!("workload: self-check OK"),
            Err(e) => {
                eprintln!("workload: self-check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Validates what `--check` can only see on disk: the file at `out`
/// parses back to `doc`, the document rendered from `r`, and a rerun
/// with the same config reproduces it byte for byte. Then asserts on
/// `r` itself ([`check`]).
fn self_check(r: &BenchResult, doc: &Value, out: &str) -> Result<(), String> {
    let written = fs::read_to_string(out).map_err(|e| format!("rereading {out}: {e}"))?;
    let parsed = serde_json::from_str(&written).map_err(|e| format!("reparsing {out}: {e:?}"))?;
    if parsed != *doc {
        return Err(format!(
            "{out} does not parse back to the rendered document"
        ));
    }
    let again = serde_json::to_string_pretty(&run(&r.cfg).json()).expect("serialize");
    if again != written {
        return Err(format!("rerun with the same seed does not reproduce {out}"));
    }
    check(r)
}

/// The `--check` assertions on a bench result: three baseline tenant
/// reports, the two-failure-domain pod, a whole-domain outage, a
/// positive clean capacity strictly above the faulted one, a clean
/// coherence audit and the pool-loads gate. With churn, live migration
/// must keep every SLO green where the naive static placement fails at
/// least one, at least one tenant must migrate (with its blackout
/// recorded) and one depart, and the migrating datapath must be
/// audit-clean.
fn check(r: &BenchResult) -> Result<(), String> {
    let tenants = r.baseline.tenants.len();
    if tenants != 3 {
        return Err(format!("expected 3 tenant reports, got {tenants}"));
    }
    if r.params.domains != 2 {
        return Err("pod is not the two-failure-domain shape".into());
    }
    if !matches!(r.fault.target, FaultTarget::Domain(_)) {
        return Err("fault plan is not a whole-domain outage".into());
    }
    let (clean, faulted) = (r.clean.capacity_pps, r.under_fault.capacity_pps);
    if clean <= 0.0 {
        return Err(format!("clean capacity is {clean}, expected > 0"));
    }
    if faulted >= clean {
        return Err(format!(
            "capacity under single-domain loss ({faulted}) is not strictly below clean ({clean})"
        ));
    }
    audit_clean(r.audit.as_ref(), "coherence audit")?;
    let loads = ratio(r.ledger.loads, r.baseline.ops);
    if loads > MAX_LOADS_PER_OP {
        return Err(format!(
            "baseline issued {loads:.1} pool loads per op, above the {MAX_LOADS_PER_OP} gate"
        ));
    }

    let Some(c) = &r.churn else {
        return Ok(());
    };
    if !c.migrate.all_slos_pass() {
        return Err("live migration failed to keep every churn-run SLO green".into());
    }
    if c.naive.all_slos_pass() {
        return Err(
            "naive static placement passed every SLO — the churn scenario does not discriminate"
                .into(),
        );
    }
    if c.migrations < 1 {
        return Err("churn run performed no tenant migrations".into());
    }
    if c.blackout.map_or(0, |b| b.count) < 1 {
        return Err("blackout histogram is empty despite migrations".into());
    }
    if !c.migrate.lifecycle.iter().any(|e| e.event == "depart") {
        return Err("no tenant departed within the churn run".into());
    }
    audit_clean(c.audit.as_ref(), "churn coherence audit")
}

/// Fails unless `audit` ran and found no violation.
fn audit_clean(audit: Option<&AuditReport>, what: &str) -> Result<(), String> {
    match audit.map(|a| a.counts.total()) {
        None => Err(format!("{what} did not run")),
        Some(0) => Ok(()),
        Some(n) => Err(format!("{what} reported {n} violations")),
    }
}

fn print_summary(r: &BenchResult, out: &str) {
    let (b, l) = (&r.baseline, &r.ledger);
    let per_op = |n: u64| ratio(n, b.ops);
    println!("=== workload bench ===");
    println!(
        "baseline: open loop offered {:.0} pps, achieved {:.0} pps; closed loop achieved {:.0} pps; \
         {} ops, {} errors",
        b.offered_open_pps(),
        b.achieved_open_pps(),
        b.achieved_closed_pps(),
        b.ops,
        b.errors,
    );
    println!(
        "  ledger: {:.1} pool loads, {:.1} NT stores, {:.1} DMA ops, {:.1} empty + {:.1} hit \
         ring polls, {:.1} audit hook calls, {:.1} trace spans per op; {:.1}% of timeline \
         bookings out of order",
        per_op(l.loads),
        per_op(l.nt_stores),
        per_op(l.dma_ops),
        per_op(l.polls_empty),
        per_op(l.polls_hit),
        per_op(l.audit_ops),
        per_op(l.trace_spans),
        100.0 * ratio(l.out_of_order, l.bookings),
    );
    for t in &b.tenants {
        let slo = &t.verdict;
        println!(
            "  {:<10} p{:<4.0} {:>8.1} us (limit {:.0} us) {}",
            t.name,
            slo.spec.quantile * 100.0,
            slo.observed.as_nanos() as f64 / 1_000.0,
            slo.spec.limit.as_nanos() as f64 / 1_000.0,
            if slo.pass { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "capacity: {:.0} pps clean, {:.0} pps with single-domain loss mid-run",
        r.clean.capacity_pps, r.under_fault.capacity_pps,
    );
    if let Some(c) = &r.churn {
        let slos = |run: &RunReport| {
            if run.all_slos_pass() {
                "all SLOs PASS"
            } else {
                "SLO FAIL"
            }
        };
        println!(
            "churn: {} events, {} migrations; live migration: {}, naive placement: {}",
            c.migrate.lifecycle.len(),
            c.migrations,
            slos(&c.migrate),
            slos(&c.naive),
        );
        // An empty histogram prints NaN, as an absent JSON value did.
        let (n, p50, p99) = c.blackout.map_or((f64::NAN, f64::NAN, f64::NAN), |s| {
            (s.count as f64, s.p50 as f64, s.p99 as f64)
        });
        println!(
            "  blackout: n={n} p50={:.1} us p99={:.1} us",
            p50 / 1_000.0,
            p99 / 1_000.0,
        );
    }
    println!("wrote {out}");
}

// --- Ledger ---------------------------------------------------------------

/// The deterministic per-layer counters behind `baseline.ledger`, read
/// from the counters the fabric, its timelines and the ring endpoints
/// already keep (cumulative; see [`LedgerCounts::since`]).
#[derive(Clone, Copy, Debug)]
struct LedgerCounts {
    loads: u64,
    nt_stores: u64,
    dma_ops: u64,
    bookings: u64,
    out_of_order: u64,
    out_of_order_lag_ns: u64,
    polls_empty: u64,
    polls_hit: u64,
    /// Pool operations that passed through the coherence audit hooks.
    audit_ops: u64,
    /// Flight-recorder events recorded, kept or dropped.
    trace_spans: u64,
}

impl LedgerCounts {
    fn read(pod: &PodSim) -> LedgerCounts {
        let f = pod.fabric.stats();
        let order = pod.fabric.timeline_order();
        let chan = pod.channel_stats();
        let trace = pod.fabric.trace();
        LedgerCounts {
            loads: f.loads,
            nt_stores: f.nt_stores,
            dma_ops: f.dma_reads + f.dma_writes,
            bookings: order.bookings,
            out_of_order: order.out_of_order,
            out_of_order_lag_ns: order.lag.as_nanos(),
            polls_empty: chan.polls_empty,
            polls_hit: chan.polls_hit,
            audit_ops: pod.fabric.audit_report().map_or(0, |r| r.ops_audited),
            trace_spans: trace.map_or(0, |t| t.event_count() as u64 + t.dropped()),
        }
    }

    /// What accrued between `earlier` and `self`.
    fn since(&self, earlier: &LedgerCounts) -> LedgerCounts {
        LedgerCounts {
            loads: self.loads - earlier.loads,
            nt_stores: self.nt_stores - earlier.nt_stores,
            dma_ops: self.dma_ops - earlier.dma_ops,
            bookings: self.bookings - earlier.bookings,
            out_of_order: self.out_of_order - earlier.out_of_order,
            out_of_order_lag_ns: self.out_of_order_lag_ns - earlier.out_of_order_lag_ns,
            polls_empty: self.polls_empty - earlier.polls_empty,
            polls_hit: self.polls_hit - earlier.polls_hit,
            audit_ops: self.audit_ops - earlier.audit_ops,
            trace_spans: self.trace_spans - earlier.trace_spans,
        }
    }

    /// The `baseline.ledger` object, normalised by the run's measured
    /// `ops` (warmup ops run too, so per-op figures include their share).
    fn json(&self, ops: u64) -> Value {
        let per_op = |n: u64| ratio(n, ops);
        obj(vec![
            ("ops", num(ops as f64)),
            ("pool_loads_per_op", num(per_op(self.loads))),
            ("nt_stores_per_op", num(per_op(self.nt_stores))),
            ("dma_ops_per_op", num(per_op(self.dma_ops))),
            ("audit_ops_per_op", num(per_op(self.audit_ops))),
            ("trace_spans_per_op", num(per_op(self.trace_spans))),
            (
                "ring_polls_per_op",
                obj(vec![
                    ("empty", num(per_op(self.polls_empty))),
                    ("hit", num(per_op(self.polls_hit))),
                ]),
            ),
            (
                "timeline_bookings",
                obj(vec![
                    ("in_order", num((self.bookings - self.out_of_order) as f64)),
                    ("out_of_order", num(self.out_of_order as f64)),
                    (
                        "out_of_order_frac",
                        num(ratio(self.out_of_order, self.bookings)),
                    ),
                    (
                        "mean_lag_ns",
                        num(ratio(self.out_of_order_lag_ns, self.out_of_order)),
                    ),
                ]),
            ),
        ])
    }
}

// --- JSON helpers -------------------------------------------------------

/// `n / d`, or 0 when `d` is 0.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `pod` section's fields: the shape of the pod `p` builds, with
/// device entries counting hosts.
fn pod_fields(p: &PodParams) -> Vec<(&'static str, Value)> {
    vec![
        ("hosts", num(p.hosts as f64)),
        ("mhds", num(p.mhds as f64)),
        ("domains", num(p.domains as f64)),
        ("lambda", num(p.lambda as f64)),
        ("nic_hosts", num(p.nic_hosts.len() as f64)),
        ("ssd_hosts", num(p.ssd_hosts.len() as f64)),
        ("accel_hosts", num(p.accel_hosts.len() as f64)),
    ]
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn string(s: &str) -> Value {
    Value::String(s.into())
}

fn array(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

fn summary_json(s: &Summary) -> Value {
    obj(vec![
        ("count", num(s.count as f64)),
        ("mean", num(s.mean)),
        ("min", num(s.min as f64)),
        ("p50", num(s.p50 as f64)),
        ("p90", num(s.p90 as f64)),
        ("p99", num(s.p99 as f64)),
        ("max", num(s.max as f64)),
    ])
}

fn tenant_spec_json(t: &TenantSpec) -> Value {
    let arrival = match t.arrival {
        Arrival::Poisson { rate_pps } => obj(vec![
            ("model", string("poisson")),
            ("rate_pps", num(rate_pps)),
        ]),
        Arrival::Bursty {
            low_pps,
            high_pps,
            dwell_low,
            dwell_high,
        } => obj(vec![
            ("model", string("bursty")),
            ("low_pps", num(low_pps)),
            ("high_pps", num(high_pps)),
            ("dwell_low_ns", num(dwell_low.as_nanos() as f64)),
            ("dwell_high_ns", num(dwell_high.as_nanos() as f64)),
        ]),
        Arrival::Diurnal {
            base_pps,
            peak_pps,
            period,
        } => obj(vec![
            ("model", string("diurnal")),
            ("base_pps", num(base_pps)),
            ("peak_pps", num(peak_pps)),
            ("period_ns", num(period.as_nanos() as f64)),
        ]),
        Arrival::ClosedLoop { concurrency, think } => obj(vec![
            ("model", string("closed_loop")),
            ("concurrency", num(concurrency as f64)),
            ("think_ns", num(think.as_nanos() as f64)),
        ]),
    };
    let mix = t
        .mix
        .iter()
        .map(|&(op, w)| obj(vec![("op", string(op.label())), ("weight", num(w))]));
    obj(vec![
        ("name", string(&t.name)),
        ("arrival", arrival),
        ("mix", array(mix)),
        ("hosts", array(t.hosts.iter().map(|&h| num(h as f64)))),
        (
            "slo",
            obj(vec![
                ("quantile", num(t.slo.quantile)),
                ("limit_ns", num(t.slo.limit.as_nanos() as f64)),
                ("max_error_frac", num(t.slo.max_error_frac)),
            ]),
        ),
    ])
}

fn report_json_fields(r: &RunReport) -> Vec<(&'static str, Value)> {
    let tenants = r.tenants.iter().map(|t| {
        obj(vec![
            ("name", string(&t.name)),
            ("offered_pps", num(t.offered_pps)),
            ("achieved_pps", num(t.achieved_pps)),
            ("ops", num(t.ops as f64)),
            ("errors", num(t.errors as f64)),
            ("peak_in_flight", num(t.peak_in_flight as f64)),
            ("latency_ns", summary_json(&t.latency)),
            (
                "slo",
                obj(vec![
                    ("pass", Value::Bool(t.verdict.pass)),
                    ("quantile", num(t.verdict.spec.quantile)),
                    ("observed_ns", num(t.verdict.observed.as_nanos() as f64)),
                    ("limit_ns", num(t.verdict.spec.limit.as_nanos() as f64)),
                ]),
            ),
        ])
    });
    let kinds = r
        .kinds
        .iter()
        .map(|(label, s)| obj(vec![("op", string(label)), ("latency_ns", summary_json(s))]));
    vec![
        ("offered_open_pps", num(r.offered_open_pps())),
        ("achieved_open_pps", num(r.achieved_open_pps())),
        ("achieved_closed_pps", num(r.achieved_closed_pps())),
        ("ops", num(r.ops as f64)),
        ("errors", num(r.errors as f64)),
        ("elapsed_ns", num(r.elapsed.as_nanos() as f64)),
        ("tenants", array(tenants)),
        ("kinds", array(kinds)),
    ]
}

impl ChurnResult {
    /// The `churn` document section: the lifecycle timeline and
    /// migration accounting from the migrating run, the A/B SLO
    /// verdicts, and the audit result for the migrating datapath.
    fn json(&self) -> Value {
        let churn = self.spec.churn.as_ref().expect("churn workload");
        let churn_tenants = churn.tenants.iter().map(|ct| {
            obj(vec![
                ("spec", tenant_spec_json(&ct.spec)),
                ("state_len", num(ct.state_len as f64)),
                ("replicas", num(ct.replicas as f64)),
                ("naive_dev", num(ct.naive_dev as f64)),
            ])
        });
        let events = self.migrate.lifecycle.iter().map(|e| {
            obj(vec![
                ("at_ns", num(e.at.as_nanos() as f64)),
                ("tenant", string(&e.tenant)),
                ("event", string(e.event)),
                ("migrated", Value::Bool(e.migrated)),
                (
                    "blackout_ns",
                    e.blackout.map_or(Value::Null, |b| num(b.as_nanos() as f64)),
                ),
            ])
        });
        let side = |r: &RunReport| {
            let mut fields = report_json_fields(r);
            fields.push(("all_slos_pass", Value::Bool(r.all_slos_pass())));
            fields
        };
        let summary = |s: &Option<Summary>| s.as_ref().map_or(Value::Null, summary_json);
        let mut migrate = side(&self.migrate);
        migrate.push(("tenant_migrations", num(self.migrations as f64)));
        migrate.push(("blackout_ns", summary(&self.blackout)));
        migrate.push(("migrate_stage_ns", summary(&self.migrate_stage)));
        let mut pod = pod_fields(&self.params);
        pod.retain(|(k, _)| ["hosts", "mhds", "domains", "nic_hosts"].contains(k));
        obj(vec![
            ("pod", obj(pod)),
            ("churn_tenants", array(churn_tenants)),
            ("events", array(events)),
            ("migrate", obj(migrate)),
            ("naive", obj(side(&self.naive))),
            ("audit", audit_json(self.audit.as_ref())),
        ])
    }
}

/// Turns on what the audited runs record: the coherence audit in
/// [`AUDIT_MODE`] and a 32,768-event flight recorder.
fn observe(pod: &mut PodSim) {
    pod.enable_audit_mode(AUDIT_MODE);
    pod.enable_trace_config(TraceConfig {
        capacity: 1 << 15,
        fabric_ops: false,
    });
}

/// An `audit` section of the document: the mode and what it found.
fn audit_json(audit: Option<&AuditReport>) -> Value {
    match audit {
        Some(r) => obj(vec![
            ("mode", string(&format!("{AUDIT_MODE:?}"))),
            ("ops_audited", num(r.ops_audited as f64)),
            ("violations", num(r.counts.total() as f64)),
        ]),
        None => Value::Null,
    }
}

fn capacity_json(c: &CapacityResult, fault: Option<&FaultPlan>) -> Value {
    let trials = c.trials.iter().map(|t| {
        obj(vec![
            ("offered_pps", num(t.offered_pps)),
            ("pass", Value::Bool(t.pass)),
            ("worst_tenant", string(&t.worst_tenant)),
            ("worst_observed_ns", num(t.worst_observed.as_nanos() as f64)),
            ("worst_ops", num(t.worst_ops as f64)),
        ])
    });
    let mut fields = vec![
        ("capacity_pps", num(c.capacity_pps)),
        ("trials", array(trials)),
    ];
    if let Some(f) = fault {
        let (kind, index) = match f.target {
            FaultTarget::Mhd(m) => ("mhd", m),
            FaultTarget::Domain(d) => ("domain", d),
        };
        fields.push((
            "fault",
            obj(vec![
                ("target", string(kind)),
                (kind, num(index as f64)),
                ("at_ns", num(f.at.as_nanos() as f64)),
                ("heal_after_ns", num(f.heal_after.as_nanos() as f64)),
            ]),
        ));
    }
    if let Some(r) = &c.report_at_capacity {
        fields.push(("report_at_capacity", obj(report_json_fields(r))));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use super::*;

    /// Quick seed 42 with churn: a result every `--check` assertion
    /// accepts, computed once.
    fn passing() -> BenchResult {
        static PASSING: OnceLock<BenchResult> = OnceLock::new();
        let cfg = Config {
            seed: 42,
            scale: Scale::Quick,
            churn: true,
        };
        PASSING.get_or_init(|| run(&cfg)).clone()
    }

    /// Breaks a copy of the passing result and expects `check` to fail
    /// with `message`.
    fn fails_with(message: &str, breaking: impl FnOnce(&mut BenchResult)) {
        let mut r = passing();
        breaking(&mut r);
        assert_eq!(check(&r), Err(message.to_string()));
    }

    fn churn(r: &mut BenchResult) -> &mut ChurnResult {
        r.churn.as_mut().expect("churn ran")
    }

    /// A file path of this test process's own.
    fn scratch_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("workload-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn the_passing_result_passes_every_assertion() {
        assert_eq!(check(&passing()), Ok(()));
    }

    #[test]
    fn a_missing_tenant_report_fails() {
        fails_with("expected 3 tenant reports, got 2", |r| {
            r.baseline.tenants.pop();
        });
    }

    #[test]
    fn a_one_domain_pod_fails() {
        fails_with("pod is not the two-failure-domain shape", |r| {
            r.params.domains = 1
        });
    }

    #[test]
    fn a_single_mhd_outage_fails() {
        fails_with("fault plan is not a whole-domain outage", |r| {
            r.fault.target = FaultTarget::Mhd(1)
        });
    }

    #[test]
    fn zero_clean_capacity_fails() {
        fails_with("clean capacity is 0, expected > 0", |r| {
            r.clean.capacity_pps = 0.0
        });
    }

    #[test]
    fn equal_clean_and_faulted_capacity_fails() {
        let message = "capacity under single-domain loss (91375) is not strictly below clean \
                       (91375)";
        fails_with(message, |r| {
            r.under_fault.capacity_pps = r.clean.capacity_pps
        });
    }

    #[test]
    fn one_audit_violation_fails() {
        fails_with("coherence audit reported 1 violations", |r| {
            r.audit.as_mut().expect("audited").counts.stale_reads = 1
        });
    }

    #[test]
    fn a_missing_audit_fails() {
        fails_with("coherence audit did not run", |r| r.audit = None);
    }

    #[test]
    fn eleven_pool_loads_per_op_fail() {
        let message = "baseline issued 11.0 pool loads per op, above the 10 gate";
        fails_with(message, |r| r.ledger.loads = 11 * r.baseline.ops);
    }

    #[test]
    fn a_migrating_run_missing_an_slo_fails() {
        let message = "live migration failed to keep every churn-run SLO green";
        fails_with(message, |r| {
            churn(r).migrate.tenants[0].verdict.pass = false
        });
    }

    #[test]
    fn naive_placement_passing_every_slo_fails() {
        let message =
            "naive static placement passed every SLO — the churn scenario does not discriminate";
        fails_with(message, |r| {
            for t in &mut churn(r).naive.tenants {
                t.verdict.pass = true;
            }
        });
    }

    #[test]
    fn a_churn_run_without_migrations_fails() {
        fails_with("churn run performed no tenant migrations", |r| {
            churn(r).migrations = 0
        });
    }

    #[test]
    fn an_empty_blackout_histogram_fails() {
        fails_with("blackout histogram is empty despite migrations", |r| {
            churn(r).blackout = None
        });
    }

    #[test]
    fn a_churn_run_without_a_departure_fails() {
        fails_with("no tenant departed within the churn run", |r| {
            churn(r).migrate.lifecycle.retain(|e| e.event != "depart")
        });
    }

    #[test]
    fn a_churn_audit_violation_fails() {
        fails_with("churn coherence audit reported 2 violations", |r| {
            let audit = churn(r).audit.as_mut().expect("audited");
            audit.counts.lost_writes = 2;
        });
    }

    #[test]
    fn a_file_that_does_not_parse_fails() {
        let r = passing();
        let path = scratch_file("unparsable");
        fs::write(&path, "{").expect("write");
        let out = path.to_str().expect("utf-8 path");
        let err = self_check(&r, &r.json(), out).expect_err("unparsable file");
        fs::remove_file(&path).expect("remove");
        assert!(err.starts_with(&format!("reparsing {out}")), "{err}");
    }

    #[test]
    fn a_file_holding_another_document_fails() {
        let r = passing();
        let mut other = r.clone();
        other.clean.capacity_pps += 1.0;
        let path = scratch_file("other");
        let text = serde_json::to_string_pretty(&other.json()).expect("serialize");
        fs::write(&path, text).expect("write");
        let out = path.to_str().expect("utf-8 path");
        let err = self_check(&r, &r.json(), out).expect_err("another document");
        fs::remove_file(&path).expect("remove");
        assert_eq!(
            err,
            format!("{out} does not parse back to the rendered document")
        );
    }

    #[test]
    fn a_missing_file_fails() {
        let r = passing();
        let path = scratch_file("missing");
        let out = path.to_str().expect("utf-8 path");
        let err = self_check(&r, &r.json(), out).expect_err("missing file");
        assert!(err.starts_with(&format!("rereading {out}")), "{err}");
    }

    #[test]
    fn a_rerun_that_differs_fails() {
        // The document holds a churn section that a rerun of the
        // recorded config, with churn off, does not.
        let mut r = passing();
        r.cfg.churn = false;
        let path = scratch_file("rerun");
        let doc = r.json();
        fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .expect("write");
        let out = path.to_str().expect("utf-8 path");
        let err = self_check(&r, &doc, out).expect_err("differing rerun");
        fs::remove_file(&path).expect("remove");
        assert_eq!(
            err,
            format!("rerun with the same seed does not reproduce {out}")
        );
    }
}
