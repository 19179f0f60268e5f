//! Live metrics plane: a registry of named counters and gauges
//! sampled on a simulated-time tick into a bounded ring.
//!
//! Where the flight recorder ([`crate::trace`]) answers *where did one
//! operation spend its nanoseconds*, the metrics plane answers *how did
//! the fleet evolve over the run*: per-host queue occupancy, per-domain
//! capacity headroom, per-tenant in-flight and SLO attainment — the
//! continuous telemetry a pooling operator watches, rather than an
//! end-of-run summary.
//!
//! The plane samples stores; it owns none. Every value it records is
//! read from a counter or state that already exists elsewhere (agent
//! stats, the allocator, the orchestrator, a workload engine) and
//! written with [`MetricsRecorder::gauge_set`] when a tick is due.
//!
//! Design constraints (the same contract as the recorder):
//!
//! - **Observation only.** Recording a value never advances a clock and
//!   never branches simulated behavior; runs with metrics on and off
//!   are bit-identical in simulated time.
//! - **Allocation-light hot path.** [`MetricsRecorder::gauge_set`]
//!   writes one `f64` in a pre-allocated slot. All allocation happens
//!   at registration and export time.
//! - **Bounded.** Samples live in a chunked [`Arena`] capped at
//!   [`MetricsConfig::capacity`]; overflow increments a drop counter
//!   instead of growing the buffer ([`MetricsRecorder::dropped`]).
//!   Chunks are allocated lazily, so short runs never pay for the full
//!   capacity and long runs never reallocation-copy retained samples.
//! - **Deterministic exports.** Every export is sorted by the fixed key
//!   `(name, host, domain, mhd, device, tenant)` then time, so report text
//!   and JSON are byte-stable across runs.
//!
//! Three export shapes: Chrome/Perfetto counter-track events
//! ([`MetricsRecorder::counter_track_events`], merged into the trace
//! JSON so counters render alongside spans), a schema'd CSV
//! ([`MetricsRecorder::export_csv`]), and a schema'd JSON document
//! ([`MetricsRecorder::export_json`]).

use crate::arena::Arena;
use crate::time::Nanos;
use crate::trace::json_string;

/// Handle to a registered metric; cheap to copy and store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(u32);

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically accumulating total, sampled from its store.
    Counter,
    /// An instantaneous value.
    Gauge,
}

impl MetricKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// Static label set attached to a metric at registration. Labels are
/// fixed for the metric's lifetime — there is no per-sample label
/// allocation — and double as the export sort key (host, then domain, then
/// MHD, then device kind, then tenant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// Host index, for per-host series.
    pub host: Option<u16>,
    /// Failure-domain index, for per-domain series.
    pub domain: Option<u16>,
    /// Multi-headed-device index, for per-MHD series.
    pub mhd: Option<u16>,
    /// Device kind (`"nic"`, `"ssd"`, `"accel"`) or other static tag.
    pub device: Option<&'static str>,
    /// Tenant index, for per-tenant series.
    pub tenant: Option<u16>,
}

impl Labels {
    /// The empty label set (a pod-global series).
    pub const NONE: Labels = Labels {
        host: None,
        domain: None,
        mhd: None,
        device: None,
        tenant: None,
    };

    /// Labels a per-host series.
    pub fn host(host: u16) -> Labels {
        Labels {
            host: Some(host),
            ..Labels::NONE
        }
    }

    /// Labels a per-domain series.
    pub fn domain(domain: u16) -> Labels {
        Labels {
            domain: Some(domain),
            ..Labels::NONE
        }
    }

    /// Labels a per-tenant series.
    pub fn tenant(tenant: u16) -> Labels {
        Labels {
            tenant: Some(tenant),
            ..Labels::NONE
        }
    }

    /// Labels a per-MHD series.
    pub fn mhd(mhd: u16) -> Labels {
        Labels {
            mhd: Some(mhd),
            ..Labels::NONE
        }
    }

    /// Adds an MHD tag to an existing label set.
    pub fn with_mhd(mut self, mhd: u16) -> Labels {
        self.mhd = Some(mhd);
        self
    }

    /// Adds a domain tag to an existing label set.
    pub fn with_domain(mut self, domain: u16) -> Labels {
        self.domain = Some(domain);
        self
    }

    /// Renders the label suffix of a series name: `{host=0,domain=1}`,
    /// or the empty string for an unlabeled series.
    pub fn suffix(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(h) = self.host {
            parts.push(format!("host={h}"));
        }
        if let Some(d) = self.domain {
            parts.push(format!("domain={d}"));
        }
        if let Some(m) = self.mhd {
            parts.push(format!("mhd={m}"));
        }
        if let Some(dev) = self.device {
            parts.push(format!("device={dev}"));
        }
        if let Some(t) = self.tenant {
            parts.push(format!("tenant={t}"));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Recorder construction parameters. `Default` samples every 1 ms of
/// simulated time into a ring of 65,536 samples.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// Simulated-time distance between samples.
    pub interval: Nanos,
    /// Maximum retained samples; the ring never grows past this, and
    /// overflow increments [`MetricsRecorder::dropped`].
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            interval: Nanos::from_millis(1),
            capacity: 1 << 16,
        }
    }
}

/// One registered metric and its live value.
struct Metric {
    name: &'static str,
    labels: Labels,
    kind: MetricKind,
    /// The last value set.
    value: f64,
}

/// One sampled point: metric index, simulated time, value.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Simulated time of the sampling tick.
    pub at: Nanos,
    /// Index into the registry (dense, registration order).
    pub metric: u32,
    /// The metric's value at the tick.
    pub value: f64,
}

/// One exported series: a metric plus its sampled timeline.
#[derive(Clone, Debug)]
pub struct Series {
    /// Metric name, e.g. `"domain/free_bytes"`.
    pub name: &'static str,
    /// Static labels.
    pub labels: Labels,
    /// Kind.
    pub kind: MetricKind,
    /// `(time, value)` points in time order.
    pub points: Vec<(Nanos, f64)>,
}

/// The metrics registry + sampler. Owned by the simulation driver (the
/// pod simulator, which lends it to workload engines), which registers
/// the metrics and writes their values when a tick is due.
pub struct MetricsRecorder {
    config: MetricsConfig,
    metrics: Vec<Metric>,
    samples: Arena<Sample>,
    dropped: u64,
    next_tick: Nanos,
}

impl MetricsRecorder {
    /// Creates a recorder; sample chunks are arena-allocated on demand,
    /// so retained samples are never reallocation-copied and an idle
    /// recorder costs nothing.
    pub fn new(config: MetricsConfig) -> MetricsRecorder {
        let next_tick = config.interval;
        MetricsRecorder {
            config,
            metrics: Vec::new(),
            samples: Arena::new(),
            dropped: 0,
            next_tick,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MetricsConfig {
        &self.config
    }

    /// Registers a metric (idempotent: re-registering the same
    /// `(name, labels)` returns the existing handle, whatever the
    /// kind). Registration order is the dense-id order; callers must
    /// register deterministically.
    pub fn register(&mut self, name: &'static str, kind: MetricKind, labels: Labels) -> MetricId {
        if let Some(i) = self
            .metrics
            .iter()
            .position(|m| m.name == name && m.labels == labels)
        {
            return MetricId(i as u32);
        }
        self.metrics.push(Metric {
            name,
            labels,
            kind,
            value: 0.0,
        });
        MetricId(self.metrics.len() as u32 - 1)
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &'static str, labels: Labels) -> MetricId {
        self.register(name, MetricKind::Counter, labels)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &'static str, labels: Labels) -> MetricId {
        self.register(name, MetricKind::Gauge, labels)
    }

    /// Sets a metric's value from its store (hot path: one store).
    pub fn gauge_set(&mut self, id: MetricId, value: f64) {
        if let Some(m) = self.metrics.get_mut(id.0 as usize) {
            m.value = value;
        }
    }

    /// True when simulated time `now` has reached the next sampling
    /// tick. Callers refresh their gauges only when this is true, then
    /// call [`MetricsRecorder::sample`].
    pub fn tick_due(&self, now: Nanos) -> bool {
        now >= self.next_tick
    }

    /// Records one sample row per registered metric at simulated time
    /// `now` and advances the tick. A no-op when the tick is not due,
    /// so callers may invoke it unconditionally from their pump loop.
    pub fn sample(&mut self, now: Nanos) {
        if now < self.next_tick {
            return;
        }
        for (i, m) in self.metrics.iter().enumerate() {
            if self.samples.len() < self.config.capacity {
                self.samples.push(Sample {
                    at: now,
                    metric: i as u32,
                    value: m.value,
                });
            } else {
                self.dropped += 1;
            }
        }
        while self.next_tick <= now {
            self.next_tick += self.config.interval;
        }
    }

    /// Iterates recorded samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Samples not retained because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of registered metrics.
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// Distinct metric names, sorted.
    pub fn metric_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// All series with their sampled points, sorted by the fixed export
    /// key `(name, host, domain, mhd, device, tenant)`.
    pub fn series(&self) -> Vec<Series> {
        let mut order: Vec<usize> = (0..self.metrics.len()).collect();
        order.sort_by_key(|&i| (self.metrics[i].name, self.metrics[i].labels));
        // Map metric index -> slot in the sorted output.
        let mut slot = vec![0usize; self.metrics.len()];
        for (s, &i) in order.iter().enumerate() {
            slot[i] = s;
        }
        let mut out: Vec<Series> = order
            .iter()
            .map(|&i| Series {
                name: self.metrics[i].name,
                labels: self.metrics[i].labels,
                kind: self.metrics[i].kind,
                points: Vec::new(),
            })
            .collect();
        for s in &self.samples {
            out[slot[s.metric as usize]].points.push((s.at, s.value));
        }
        out
    }

    /// Chrome/Perfetto counter-track events (`"ph":"C"`), one JSON
    /// object string per sampled point, in export-key order. Merged
    /// into the trace export so counters render alongside spans.
    pub fn counter_track_events(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.samples.len());
        for series in self.series() {
            let track = format!("{}{}", series.name, series.labels.suffix());
            for (at, v) in &series.points {
                let ts = at.as_nanos() as f64 / 1000.0;
                out.push(format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"name\":{},\"ts\":{ts},\
                     \"args\":{{\"value\":{}}}}}",
                    json_string(&track),
                    fmt_value(*v),
                ));
            }
        }
        out
    }

    /// Schema'd CSV dump: header
    /// `time_ns,name,host,domain,mhd,device,tenant,value`, rows in
    /// export-key order then time. Absent labels render as empty
    /// fields.
    pub fn export_csv(&self) -> String {
        let mut out = String::from("time_ns,name,host,domain,mhd,device,tenant,value\n");
        for series in self.series() {
            let host = series.labels.host.map_or(String::new(), |v| v.to_string());
            let domain = series
                .labels
                .domain
                .map_or(String::new(), |v| v.to_string());
            let mhd = series.labels.mhd.map_or(String::new(), |v| v.to_string());
            let device = series.labels.device.unwrap_or("");
            let tenant = series
                .labels
                .tenant
                .map_or(String::new(), |v| v.to_string());
            for (at, v) in &series.points {
                out.push_str(&format!(
                    "{},{},{host},{domain},{mhd},{device},{tenant},{}\n",
                    at.as_nanos(),
                    series.name,
                    fmt_value(*v),
                ));
            }
        }
        out
    }

    /// Schema'd JSON dump (`cxl-pool-metrics/v1`): interval, drop
    /// count, and one series object per metric with its labels and
    /// `[time_ns, value]` points, in export-key order. Parseable by
    /// the vendored `serde_json`.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"cxl-pool-metrics/v1\",\n");
        out.push_str(&format!(
            "  \"interval_ns\": {},\n  \"dropped\": {},\n  \"series\": [",
            self.config.interval.as_nanos(),
            self.dropped
        ));
        let series = self.series();
        for (i, s) in series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            out.push_str(&json_string(s.name));
            out.push_str(", \"kind\": ");
            out.push_str(&json_string(s.kind.name()));
            out.push_str(", \"labels\": {");
            let mut first = true;
            let mut label = |out: &mut String, key: &str, val: String| {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("\"{key}\": {val}"));
            };
            if let Some(h) = s.labels.host {
                label(&mut out, "host", h.to_string());
            }
            if let Some(d) = s.labels.domain {
                label(&mut out, "domain", d.to_string());
            }
            if let Some(m) = s.labels.mhd {
                label(&mut out, "mhd", m.to_string());
            }
            if let Some(dev) = s.labels.device {
                label(&mut out, "device", json_string(dev));
            }
            if let Some(t) = s.labels.tenant {
                label(&mut out, "tenant", t.to_string());
            }
            out.push_str("}, \"points\": [");
            for (j, (at, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {}]", at.as_nanos(), fmt_value(*v)));
            }
            out.push_str("]}");
        }
        if !series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Formats a sample value: integral magnitudes below 2^53 print as
/// integers (byte-stable, no float noise), everything else as the
/// shortest round-trippable float. Non-finite values clamp to 0.
pub fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        (v as i64).to_string()
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval: u64, capacity: usize) -> MetricsConfig {
        MetricsConfig {
            interval: Nanos(interval),
            capacity,
        }
    }

    #[test]
    fn registration_is_idempotent_and_dense() {
        let mut m = MetricsRecorder::new(cfg(100, 64));
        let a = m.gauge("pool/free_bytes", Labels::NONE);
        let b = m.gauge("host/served_ops", Labels::host(0));
        let a2 = m.gauge("pool/free_bytes", Labels::NONE);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(m.metric_count(), 2);
    }

    #[test]
    fn sampling_ticks_at_interval() {
        let mut m = MetricsRecorder::new(cfg(100, 64));
        let g = m.gauge("g", Labels::NONE);
        assert!(!m.tick_due(Nanos(99)));
        m.sample(Nanos(99));
        assert_eq!(m.samples().count(), 0);
        m.gauge_set(g, 7.0);
        m.sample(Nanos(100));
        m.gauge_set(g, 9.0);
        m.sample(Nanos(150)); // not due: next tick is 200
        m.sample(Nanos(230));
        let pts: Vec<(u64, f64)> = m.samples().map(|s| (s.at.as_nanos(), s.value)).collect();
        assert_eq!(pts, vec![(100, 7.0), (230, 9.0)]);
    }

    #[test]
    fn counters_and_gauges_sample_their_last_set_value() {
        let mut m = MetricsRecorder::new(cfg(10, 64));
        let c = m.counter("c", Labels::NONE);
        let g = m.gauge("g", Labels::NONE);
        m.gauge_set(c, 2.0);
        m.gauge_set(c, 5.0);
        m.gauge_set(g, 7.0);
        m.sample(Nanos(10));
        let got: Vec<(&str, MetricKind, f64)> = m
            .series()
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, v)| (s.name, s.kind, v)))
            .collect();
        assert_eq!(
            got,
            vec![
                ("c", MetricKind::Counter, 5.0),
                ("g", MetricKind::Gauge, 7.0)
            ]
        );
        assert!(m.export_json().contains("\"kind\": \"counter\""));
    }

    #[test]
    fn ring_capacity_bounds_samples_and_counts_drops() {
        let mut m = MetricsRecorder::new(cfg(10, 8));
        for name in ["a", "b", "c"] {
            m.gauge(name, Labels::NONE);
        }
        for t in 1..=5u64 {
            m.sample(Nanos(t * 10));
        }
        // 5 ticks x 3 metrics = 15 attempts; 8 kept, 7 dropped.
        assert_eq!(m.samples().count(), 8);
        assert_eq!(m.dropped(), 7);
    }

    #[test]
    fn series_sorted_by_fixed_key() {
        let mut m = MetricsRecorder::new(cfg(10, 64));
        m.gauge("z/metric", Labels::NONE);
        m.gauge("a/metric", Labels::host(1));
        m.gauge("a/metric", Labels::host(0));
        m.sample(Nanos(10));
        let s = m.series();
        let keys: Vec<(&str, Option<u16>)> = s.iter().map(|s| (s.name, s.labels.host)).collect();
        assert_eq!(
            keys,
            vec![
                ("a/metric", Some(0)),
                ("a/metric", Some(1)),
                ("z/metric", None)
            ]
        );
        assert!(s.iter().all(|s| s.points.len() == 1));
    }

    #[test]
    fn exports_are_stable_and_well_formed() {
        let mut m = MetricsRecorder::new(cfg(10, 64));
        let g = m.gauge("domain/free_bytes", Labels::domain(1));
        let c = m.counter("tenant/completed", Labels::tenant(2));
        m.gauge_set(g, 1024.0);
        m.gauge_set(c, 3.0);
        m.sample(Nanos(10));
        let csv = m.export_csv();
        assert!(csv.starts_with("time_ns,name,host,domain,mhd,device,tenant,value\n"));
        assert!(csv.contains("10,domain/free_bytes,,1,,,,1024\n"));
        assert!(csv.contains("10,tenant/completed,,,,,2,3\n"));
        let json = m.export_json();
        assert!(json.contains("\"schema\": \"cxl-pool-metrics/v1\""));
        assert!(json.contains("\"domain\": 1"));
        assert!(json.contains("[10, 1024]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let tracks = m.counter_track_events();
        assert_eq!(tracks.len(), 2);
        assert!(tracks[0].contains("\"ph\":\"C\""));
        assert!(tracks[0].contains("domain/free_bytes{domain=1}"));
        // Identical recording -> byte-identical exports.
        let csv2 = m.export_csv();
        assert_eq!(csv, csv2);
    }
}
