//! Metrics-plane integration: sampling must be pure observation
//! (identical simulated behavior and workload reports on and off), the
//! sample ring must stay bounded with drops accounted, and the CSV/JSON
//! exports must round-trip.

use bench::workload::{base_spec, pod_params};
use bench::Scale;
use cxl_fabric::HostId;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::telemetry;
use cxl_pcie_pool::workgen::{Engine, RunReport};
use serde_json::Value;
use simkit::metrics::{Labels, MetricsConfig};
use simkit::Nanos;

/// A pod where host 2 owns no devices: its SSD ops take the full
/// forwarded path, exercising channels, agents and the orchestrator.
fn ssd_pod() -> PodSim {
    let mut params = PodParams::new(4, 1);
    params.ssd_hosts = vec![0];
    PodSim::new(params)
}

fn cfg(interval: Nanos, capacity: usize) -> MetricsConfig {
    MetricsConfig { interval, capacity }
}

/// Drives a deterministic burst of mixed traffic and returns the pod.
fn drive(pod: &mut PodSim) -> Vec<u64> {
    let mut ats = Vec::new();
    for i in 0..4u64 {
        let d = pod.time() + Nanos::from_millis(50);
        let (_, r) = pod.vssd_read(HostId(2), i, 1, d).expect("read");
        ats.push(r.at.as_nanos());
        let d = pod.time() + Nanos::from_millis(50);
        let r = pod.vnic_send(HostId(2), &[i as u8; 256], d).expect("send");
        ats.push(r.at.as_nanos());
    }
    pod.run_control(Nanos::from_micros(50));
    ats
}

#[test]
fn metrics_do_not_perturb_simulated_time() {
    let run = |metrics: bool| -> (Nanos, Vec<u64>) {
        let mut pod = ssd_pod();
        if metrics {
            pod.enable_metrics_config(cfg(Nanos::from_micros(1), 1 << 14));
        }
        let ats = drive(&mut pod);
        (pod.time(), ats)
    };
    let (time_off, ats_off) = run(false);
    let (time_on, ats_on) = run(true);
    assert_eq!(time_off, time_on, "metrics sampling shifted the pod clock");
    assert_eq!(ats_off, ats_on, "metrics sampling shifted completion times");
}

/// The workload engine's `tenant/*` series: turning the plane on for
/// the seed-42 quick bench baseline changes no number the run reports,
/// and every tenant gets its four timelines.
#[test]
fn engine_tenant_metrics_leave_the_run_report_unchanged() {
    let run = |metrics: bool| -> (RunReport, PodSim) {
        let mut pod = PodSim::new(pod_params(42));
        if metrics {
            pod.enable_metrics_config(cfg(Nanos::from_micros(100), 1 << 16));
        }
        let report = Engine::new(42).run(&mut pod, &base_spec(Scale::Quick));
        (report, pod)
    };
    let (off, _) = run(false);
    let (on, pod) = run(true);
    assert_eq!(
        (off.ops, off.errors, off.elapsed),
        (on.ops, on.errors, on.elapsed),
        "metrics sampling changed ops, errors or elapsed time"
    );
    assert_eq!(off.tenants.len(), on.tenants.len());
    for (a, b) in off.tenants.iter().zip(&on.tenants) {
        assert_eq!(
            format!("{:?} {:?}", a.latency, a.verdict),
            format!("{:?} {:?}", b.latency, b.verdict),
            "metrics sampling changed tenant {}",
            a.name
        );
    }

    let series = pod.metrics().expect("metrics enabled").series();
    for t in 0..on.tenants.len() as u16 {
        for name in [
            "tenant/in_flight",
            "tenant/completed",
            "tenant/errors",
            "tenant/slo_attainment",
        ] {
            let points = series
                .iter()
                .find(|s| s.name == name && s.labels == Labels::tenant(t))
                .map_or(0, |s| s.points.len());
            assert!(points > 0, "{name} of tenant {t} has no sampled point");
        }
    }
}

#[test]
fn ring_capacity_bounds_samples_and_counts_drops() {
    let mut pod = ssd_pod();
    // Tiny ring: far fewer slots than (metrics x ticks).
    pod.enable_metrics_config(cfg(Nanos::from_micros(1), 8));
    drive(&mut pod);

    let rec = pod.metrics().expect("metrics enabled");
    assert_eq!(
        rec.samples().count(),
        8,
        "the ring never grows past capacity"
    );
    assert!(rec.dropped() > 0, "overflow must be counted");

    // The exports stay well-formed under drops and report them.
    let json = rec.export_json();
    let v: Value = serde_json::from_str(&json).expect("valid JSON under drops");
    assert!(v.get("dropped").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);

    // ... and the drop counter surfaces in the operator report.
    let rep = telemetry::snapshot(&pod);
    assert!(rep.metrics_dropped > 0);
    assert!(rep.to_string().contains("samples dropped"));
}

#[test]
fn csv_and_json_exports_round_trip() {
    let mut pod = ssd_pod();
    pod.enable_metrics_config(cfg(Nanos::from_micros(1), 1 << 14));
    drive(&mut pod);

    let rec = pod.metrics().expect("metrics enabled");

    // CSV: header + one row per sample, numeric time and value fields.
    let csv = rec.export_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("time_ns,name,host,domain,mhd,device,tenant,value")
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), rec.samples().count());
    for row in &rows {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 8, "malformed CSV row: {row}");
        cols[0].parse::<u64>().expect("time_ns is numeric");
        cols[7].parse::<f64>().expect("value is numeric");
    }

    // JSON: parses, carries the schema tag, and its per-series point
    // counts sum to the sample count.
    let v: Value = serde_json::from_str(&rec.export_json()).expect("metrics JSON parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("cxl-pool-metrics/v1")
    );
    let series = v
        .get("series")
        .and_then(Value::as_array)
        .expect("series array");
    let points: usize = series
        .iter()
        .map(|s| {
            s.get("points")
                .and_then(Value::as_array)
                .map_or(0, Vec::len)
        })
        .sum();
    assert_eq!(points, rec.samples().count());
    // Series are sorted by (name, labels) for byte-stable output.
    let names: Vec<&str> = series
        .iter()
        .map(|s| s.get("name").and_then(Value::as_str).unwrap_or(""))
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "series must be name-sorted");
}

#[test]
fn metrics_absent_when_never_enabled() {
    let mut pod = ssd_pod();
    drive(&mut pod);
    assert!(pod.metrics().is_none());
    assert!(pod.export_metrics_csv().is_none());
    assert!(pod.export_metrics_json().is_none());
    let rep = telemetry::snapshot(&pod);
    assert!(rep.metrics.is_empty());
    assert_eq!(rep.metrics_dropped, 0);
}
