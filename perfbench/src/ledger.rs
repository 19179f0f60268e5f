//! The benchmark's own tracing: spans around every public call it makes
//! into the simulator, counter deltas read from public stats at span
//! boundaries, and the per-layer metric table the traced run reports.
//!
//! Spans are kept in memory and written once, at the end of the traced
//! run. With tracing off every call here is a no-op, and no counter is
//! read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cxl_fabric::LinkId;
use cxl_pool_core::pod::PodSim;
use simkit::stats::Histogram;
use workgen::RunReport;

use crate::yardstick::Yardstick;

/// Every per-layer metric the traced run reports, with its unit and
/// nominal direction. A layer a workload never reaches reports 0.
/// Directions of `model.*` values and deterministic counters are
/// nominal: a speed-only change must leave them bit-identical.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // workgen
    ("workgen.ops", "count", "higher"),
    ("workgen.errors", "count", "lower"),
    ("workgen.error_frac", "fraction", "lower"),
    ("workgen.trials", "count", "higher"),
    ("workgen.trial_s.p50", "s", "lower"),
    ("workgen.trial_s.max", "s", "lower"),
    // core::pod
    ("pod.build_s", "s", "lower"),
    ("pod.idle_host_ns_per_sim_us", "ns/us", "lower"),
    ("pod.op_host_us.nic_send", "us", "lower"),
    ("pod.op_host_us.nic_recv", "us", "lower"),
    ("pod.op_host_us.ssd_read", "us", "lower"),
    ("pod.op_host_us.ssd_write", "us", "lower"),
    ("pod.op_host_us.accel_run", "us", "lower"),
    // core::agent + shmem
    ("agent.served", "count", "higher"),
    ("shmem.sends", "count", "higher"),
    ("shmem.blocked", "count", "lower"),
    ("shmem.stall_ns", "ns", "lower"),
    ("shmem.polls_per_op", "count/op", "lower"),
    ("shmem.poll_host_ns", "ns", "lower"),
    // cxl-fabric datapath
    ("fabric.loads_per_op", "count/op", "lower"),
    ("fabric.loads_per_sim_us", "count/us", "lower"),
    ("fabric.nt_stores_per_op", "count/op", "lower"),
    ("fabric.flushes_per_op", "count/op", "lower"),
    ("fabric.dma_per_op", "count/op", "lower"),
    ("fabric.bytes_read", "B", "lower"),
    ("fabric.bytes_written", "B", "lower"),
    ("fabric.cache_misses", "count", "lower"),
    ("fabric.writebacks", "count", "lower"),
    ("fabric.load_host_ns", "ns", "lower"),
    // simkit::server timelines
    ("timeline.uplink_util.mean", "fraction", "lower"),
    ("timeline.uplink_util.max", "fraction", "lower"),
    ("timeline.serve_host_ns", "ns", "lower"),
    // cxl-fabric audit
    ("audit.ops_audited", "count", "higher"),
    ("audit.violations", "count", "lower"),
    ("audit.host_s", "s", "lower"),
    // simkit::trace
    ("trace.spans", "count", "higher"),
    ("trace.dropped", "count", "lower"),
    ("trace.host_s", "s", "lower"),
    // simkit::sched + net-sim
    ("udp.echoes", "count", "higher"),
    ("udp.drops", "count", "lower"),
    ("udp.host_ns_per_echo", "ns", "lower"),
    ("sched.push_pop_host_ns", "ns", "lower"),
    // pcie-sim
    ("device.nic_tx_frames", "count", "higher"),
    ("device.ssd_ops", "count", "higher"),
    ("device.accel_runs", "count", "higher"),
    // core::orchestrator
    ("orch.migrations", "count", "lower"),
    ("orch.failovers", "count", "lower"),
    // core::lifecycle
    ("lifecycle.events", "count", "higher"),
    ("lifecycle.migrations", "count", "higher"),
    ("lifecycle.blackout_ns.p50", "ns", "lower"),
    ("lifecycle.blackout_ns.p99", "ns", "lower"),
    ("lifecycle.blackout_ns.count", "count", "higher"),
    // the benchmark itself
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.check_fail_frac", "fraction", "lower"),
    // model outputs: exact under any speed-only change
    ("model.capacity_pps.clean.median", "pps", "higher"),
    ("model.capacity_pps.clean.min", "pps", "higher"),
    ("model.capacity_pps.clean.max", "pps", "higher"),
    ("model.capacity_pps.fault.median", "pps", "higher"),
    ("model.capacity_pps.fault.min", "pps", "higher"),
    ("model.capacity_pps.fault.max", "pps", "higher"),
    ("model.offered_pps.open", "pps", "higher"),
    ("model.achieved_pps.open", "pps", "higher"),
    ("model.achieved_pps.closed", "pps", "higher"),
    ("model.latency_ns.frontend.p50", "ns", "lower"),
    ("model.latency_ns.frontend.p90", "ns", "lower"),
    ("model.latency_ns.frontend.p99", "ns", "lower"),
    ("model.latency_ns.frontend.count", "count", "higher"),
    ("model.latency_ns.frontend.top_pct", "%", "higher"),
    ("model.latency_ns.analytics.p50", "ns", "lower"),
    ("model.latency_ns.analytics.p90", "ns", "lower"),
    ("model.latency_ns.analytics.p99", "ns", "lower"),
    ("model.latency_ns.analytics.count", "count", "higher"),
    ("model.latency_ns.analytics.top_pct", "%", "higher"),
    ("model.latency_ns.ml.p50", "ns", "lower"),
    ("model.latency_ns.ml.p90", "ns", "lower"),
    ("model.latency_ns.ml.p99", "ns", "lower"),
    ("model.latency_ns.ml.count", "count", "higher"),
    ("model.latency_ns.ml.top_pct", "%", "higher"),
    ("model.latency_ns.steady.p50", "ns", "lower"),
    ("model.latency_ns.steady.p90", "ns", "lower"),
    ("model.latency_ns.steady.p99", "ns", "lower"),
    ("model.latency_ns.steady.count", "count", "higher"),
    ("model.latency_ns.steady.top_pct", "%", "higher"),
    ("model.latency_ns.diurnal-a.p50", "ns", "lower"),
    ("model.latency_ns.diurnal-a.p90", "ns", "lower"),
    ("model.latency_ns.diurnal-a.p99", "ns", "lower"),
    ("model.latency_ns.diurnal-a.count", "count", "higher"),
    ("model.latency_ns.diurnal-a.top_pct", "%", "higher"),
    ("model.latency_ns.diurnal-b.p50", "ns", "lower"),
    ("model.latency_ns.diurnal-b.p90", "ns", "lower"),
    ("model.latency_ns.diurnal-b.p99", "ns", "lower"),
    ("model.latency_ns.diurnal-b.count", "count", "higher"),
    ("model.latency_ns.diurnal-b.top_pct", "%", "higher"),
    ("model.slo_pass.frontend", "bool", "higher"),
    ("model.slo_pass.analytics", "bool", "higher"),
    ("model.slo_pass.ml", "bool", "higher"),
    ("model.slo_pass.steady", "bool", "higher"),
    ("model.slo_pass.diurnal-a", "bool", "higher"),
    ("model.slo_pass.diurnal-b", "bool", "higher"),
    ("model.udp.local_p50_ns", "ns", "lower"),
    ("model.udp.cxl_p50_ns", "ns", "lower"),
    ("model.udp.cxl_gap_pct", "%", "lower"),
    ("model.churn.migrate.all_slos_pass", "bool", "higher"),
    ("model.churn.naive.all_slos_pass", "bool", "higher"),
];

/// Names of the pod counters read at span boundaries, in the order
/// [`Counters::read`] fills them.
const COUNTER_NAMES: [&str; 24] = [
    "fabric.loads",
    "fabric.stores",
    "fabric.nt_stores",
    "fabric.flushes",
    "fabric.dma_reads",
    "fabric.dma_writes",
    "fabric.bytes_read",
    "fabric.bytes_written",
    "cache.misses",
    "cache.writebacks",
    "cache.invalidations",
    "shmem.sends",
    "shmem.blocked",
    "shmem.stall_ns",
    "agent.served",
    "device.nic_tx_frames",
    "device.ssd_ops",
    "device.accel_runs",
    "audit.ops_audited",
    "audit.violations",
    "trace.events",
    "trace.dropped",
    "orch.migrations",
    "orch.failovers",
];

/// A snapshot of a pod's public counters (see [`COUNTER_NAMES`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters([u64; COUNTER_NAMES.len()]);

impl Counters {
    /// Reads every counter from the pod's public stats.
    pub fn read(pod: &PodSim) -> Counters {
        let f = pod.fabric.stats();
        let (mut misses, mut writebacks, mut invalidations) = (0, 0, 0);
        let (mut sends, mut blocked, mut stall_ns, mut served) = (0, 0, 0, 0);
        let (mut tx_frames, mut ssd_ops, mut accel_runs) = (0, 0, 0);
        for agent in &pod.agents {
            let c = pod.fabric.cache_stats(agent.host);
            misses += c.misses;
            writebacks += c.writebacks;
            invalidations += c.invalidations;
            let ch = agent.channel_stats();
            sends += ch.sends;
            blocked += ch.blocked_events;
            stall_ns += ch.stall_ns;
            served += agent.stats().served;
            tx_frames += agent
                .nics
                .values()
                .map(|n| n.stats().tx_frames)
                .sum::<u64>();
            ssd_ops += agent
                .ssds
                .values()
                .map(|s| {
                    let st = s.stats();
                    st.reads + st.writes
                })
                .sum::<u64>();
            accel_runs += agent.accels.values().map(|a| a.stats().jobs).sum::<u64>();
        }
        let (audited, violations) = pod
            .fabric
            .audit_report()
            .map_or((0, 0), |r| (r.ops_audited, r.counts.total()));
        let (events, dropped) = pod
            .trace()
            .map_or((0, 0), |t| (t.event_count() as u64, t.dropped()));
        Counters([
            f.loads,
            f.stores,
            f.nt_stores,
            f.flushes,
            f.dma_reads,
            f.dma_writes,
            f.bytes_read,
            f.bytes_written,
            misses,
            writebacks,
            invalidations,
            sends,
            blocked,
            stall_ns,
            served,
            tx_frames,
            ssd_ops,
            accel_runs,
            audited,
            violations,
            events,
            dropped,
            pod.orch.migrations,
            pod.orch.failover_log.len() as u64,
        ])
    }

    /// The counter named `name` (one of [`COUNTER_NAMES`]).
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTER_NAMES
            .iter()
            .position(|&n| n == name)
            .expect("known counter name");
        self.0[i]
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].saturating_sub(before.0[i])
        }))
    }

    fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Every counter with its name.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        COUNTER_NAMES.iter().copied().zip(self.0).collect()
    }
}

/// Mean and maximum uplink utilization over `[0, now]` across every
/// link of the pod.
pub fn uplink_util(pod: &PodSim) -> (f64, f64) {
    let horizon = pod.time();
    let n = pod.fabric.topology().links().len();
    if n == 0 || horizon.as_nanos() == 0 {
        return (0.0, 0.0);
    }
    let utils: Vec<f64> = (0..n)
        .map(|i| pod.fabric.uplink_utilization(LinkId(i as u32), horizon))
        .collect();
    let max = utils.iter().copied().fold(0.0, f64::max);
    (utils.iter().sum::<f64>() / n as f64, max)
}

/// Totals over every engine run of one traced pass.
#[derive(Default)]
pub struct Ledger {
    /// Engine runs seen.
    pub runs: u64,
    /// Completed simulated ops.
    pub ops: u64,
    /// Failed simulated ops.
    pub errors: u64,
    /// Simulated time, ns.
    pub sim_ns: u64,
    /// Host seconds inside each `Engine::run`.
    pub run_host_s: Vec<f64>,
    /// Host seconds inside each `PodSim::new`.
    pub build_host_s: Vec<f64>,
    /// Counter deltas summed over the engine runs.
    pub counters: Counters,
    /// Per-run mean uplink utilization, summed (divide by `runs`).
    pub uplink_mean_sum: f64,
    /// Highest uplink utilization of any link in any run.
    pub uplink_max: f64,
    /// Applied lifecycle events.
    pub lifecycle_events: u64,
    /// Tenant migrations by the lifecycle subsystem.
    pub tenant_migrations: u64,
    /// Migration blackouts of every run.
    pub blackout: Histogram,
    /// Coherence violations after each audited pod was finalized.
    pub final_violations: u64,
    /// UDP echoes completed and requests dropped.
    pub echoes: u64,
    pub drops: u64,
}

impl Ledger {
    /// Accounts one finished engine run on `pod`.
    pub fn add_run(&mut self, pod: &PodSim, report: &RunReport, host_s: f64, delta: &Counters) {
        self.runs += 1;
        self.ops += report.ops;
        self.errors += report.errors;
        self.sim_ns += report.elapsed.as_nanos();
        self.run_host_s.push(host_s);
        self.counters.add(delta);
        let (mean, max) = uplink_util(pod);
        self.uplink_mean_sum += mean;
        self.uplink_max = self.uplink_max.max(max);
        self.lifecycle_events += report.lifecycle.len() as u64;
        self.tenant_migrations += pod.lifecycle.tenant_migrations;
        self.blackout.merge(&pod.lifecycle.blackout);
    }

    /// The ledger's share of the per-layer table.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let c = &self.counters;
        let per_op = |n: u64| ratio(n as f64, self.ops as f64);
        let mut put = |k: &'static str, v: f64| {
            out.insert(k, v);
        };
        put("workgen.ops", self.ops as f64);
        put("workgen.errors", self.errors as f64);
        put(
            "workgen.error_frac",
            ratio(self.errors as f64, (self.ops + self.errors) as f64),
        );
        put("workgen.trials", self.runs as f64);
        put("workgen.trial_s.p50", median(&self.run_host_s));
        put(
            "workgen.trial_s.max",
            self.run_host_s.iter().copied().fold(0.0, f64::max),
        );
        put("pod.build_s", median(&self.build_host_s));
        put("agent.served", c.get("agent.served") as f64);
        put("shmem.sends", c.get("shmem.sends") as f64);
        put("shmem.blocked", c.get("shmem.blocked") as f64);
        put("shmem.stall_ns", c.get("shmem.stall_ns") as f64);
        put("shmem.polls_per_op", per_op(c.get("cache.invalidations")));
        put("fabric.loads_per_op", per_op(c.get("fabric.loads")));
        put(
            "fabric.loads_per_sim_us",
            ratio(c.get("fabric.loads") as f64, self.sim_ns as f64 / 1e3),
        );
        put("fabric.nt_stores_per_op", per_op(c.get("fabric.nt_stores")));
        put("fabric.flushes_per_op", per_op(c.get("fabric.flushes")));
        put(
            "fabric.dma_per_op",
            per_op(c.get("fabric.dma_reads") + c.get("fabric.dma_writes")),
        );
        put("fabric.bytes_read", c.get("fabric.bytes_read") as f64);
        put("fabric.bytes_written", c.get("fabric.bytes_written") as f64);
        put("fabric.cache_misses", c.get("cache.misses") as f64);
        put("fabric.writebacks", c.get("cache.writebacks") as f64);
        put(
            "timeline.uplink_util.mean",
            ratio(self.uplink_mean_sum, self.runs as f64),
        );
        put("timeline.uplink_util.max", self.uplink_max);
        put("audit.ops_audited", c.get("audit.ops_audited") as f64);
        put("audit.violations", self.final_violations as f64);
        put("trace.spans", c.get("trace.events") as f64);
        put("trace.dropped", c.get("trace.dropped") as f64);
        put("udp.echoes", self.echoes as f64);
        put("udp.drops", self.drops as f64);
        put("device.nic_tx_frames", c.get("device.nic_tx_frames") as f64);
        put("device.ssd_ops", c.get("device.ssd_ops") as f64);
        put("device.accel_runs", c.get("device.accel_runs") as f64);
        put("orch.migrations", c.get("orch.migrations") as f64);
        put("orch.failovers", c.get("orch.failovers") as f64);
        put("lifecycle.events", self.lifecycle_events as f64);
        put("lifecycle.migrations", self.tenant_migrations as f64);
        if !self.blackout.is_empty() {
            let b = self.blackout.summary();
            put("lifecycle.blackout_ns.p50", b.p50 as f64);
            put("lifecycle.blackout_ns.p99", b.p99 as f64);
            put("lifecycle.blackout_ns.count", b.count as f64);
        }
    }
}

/// One recorded span: a call the benchmark made, with the counters that
/// moved inside it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

/// An open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder plus the per-layer ledger of the traced pass. The
/// end-to-end run's recorder records nothing but paces the yardstick.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Totals of the pass being traced.
    pub ledger: Ledger,
    /// Timed between the parts of a pass, when present.
    pub yardstick: Option<Yardstick>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            ledger: Ledger::default(),
            yardstick: None,
        }
    }

    /// A recorder that records nothing and runs the yardstick after
    /// every part of a pass.
    pub fn paced() -> Tracer {
        Tracer {
            yardstick: Some(Yardstick::default()),
            ..Tracer::off()
        }
    }

    /// Marks the end of a timed part of a pass that took `host_s`.
    pub fn part_done(&mut self, host_s: f64) {
        if let Some(y) = &mut self.yardstick {
            y.after_part(host_s);
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// True when spans and counters are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Host nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes `span` at host time `end_ns` with the counters that moved
    /// inside it.
    pub fn close_at(&mut self, span: SpanId, end_ns: u64, counters: Option<&Counters>) {
        if let Some(i) = span {
            self.spans[i].end_ns = end_ns;
            if let Some(c) = counters {
                self.spans[i].counters = c.named();
            }
        }
    }

    /// Closes `span` now, with no counters.
    pub fn close(&mut self, span: SpanId) {
        let end = self.now_ns();
        self.close_at(span, end, None);
    }

    /// Closes `span` now with extra named counts (run_point's echoes).
    pub fn close_with(&mut self, span: SpanId, counters: Vec<(&'static str, u64)>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
            self.spans[i].counters = counters;
        }
    }

    /// The spans as a JSON array. Each span carries its self time: its
    /// duration minus the part its direct children cover.
    pub fn spans_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .filter(|(_, v)| *v != 0)
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"counters\": {{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
                counters.join(", ")
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}
