//! End-to-end flight recorder demo: mixed NIC/SSD/accelerator traffic
//! with one injected NIC failure, exported as Chrome/Perfetto
//! trace-event JSON. Load the output in <https://ui.perfetto.dev> to
//! see one track per host CPU, per DMA attach point, and per
//! shared-memory channel.
//!
//! ```sh
//! cargo run --release --example pod_trace            # writes pod_trace.json
//! cargo run --release --example pod_trace -- --check # also validates the file
//! cargo run --release --example pod_trace -- --out /tmp/t.json
//! cargo run --release --example pod_trace -- --metrics # + counter tracks & CSV
//! ```
//!
//! With `--metrics` the sampled metrics plane is enabled too: gauges
//! land as Perfetto counter tracks in the same JSON, and the raw
//! samples go to a CSV next to it (`--metrics-out`, default
//! `pod_trace_metrics.csv`). The run lasts a few hundred microseconds of
//! simulated time, so the sampler ticks every 10 µs.

use cxl_fabric::{AuditMode, HostId};
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::telemetry;
use cxl_pcie_pool::pool::vdev::DeviceKind;
use cxl_pcie_pool::simkit::metrics::MetricsConfig;
use cxl_pcie_pool::simkit::trace::TraceConfig;
use cxl_pcie_pool::simkit::Nanos;
use serde_json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let metrics = args.iter().any(|a| a == "--metrics");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "pod_trace.json".to_string());
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "pod_trace_metrics.csv".to_string());

    let mut params = PodParams::new(6, 2);
    params.ssd_hosts = vec![0, 1];
    params.accel_hosts = vec![2];
    let mut pod = PodSim::new(params);
    // The example exists to produce a trace, so record everything,
    // including the verbose per-access fabric spans.
    pod.enable_trace_config(TraceConfig {
        fabric_ops: true,
        ..TraceConfig::default()
    });
    pod.enable_audit_mode(AuditMode::Version);
    if metrics {
        pod.enable_metrics_config(MetricsConfig {
            interval: Nanos::from_micros(10),
            ..MetricsConfig::default()
        });
    }

    // Mixed traffic. Hosts 3-5 own no devices, so their operations take
    // the full forwarded path: NT-store staging, protocol encode,
    // channel send, remote agent dispatch, doorbell, DMA, completion.
    let block: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    for round in 0..3u32 {
        for h in 0..6u16 {
            let host = HostId(h);
            let d = pod.time() + Nanos::from_millis(50);
            pod.vnic_send(host, &vec![round as u8; 512], d)
                .expect("send");
            let buf = pod.stage(host, &block).expect("stage write payload");
            let d = pod.time() + Nanos::from_millis(50);
            pod.vssd_write(host, (round * 8 + h as u32) as u64, 1, buf, d)
                .expect("write");
            let d = pod.time() + Nanos::from_millis(50);
            pod.vssd_read(host, (round * 8 + h as u32) as u64, 1, d)
                .expect("read");
            if h % 2 == 1 {
                let d = pod.time() + Nanos::from_millis(50);
                pod.vaccel_run(host, &[7u8; 1024], d).expect("offload");
            }
        }
    }

    // A NIC dies mid-run; host 5's next sends fail until the
    // orchestrator rebinds it to the survivor. Both the failure instant
    // and the retried operation end up in the trace.
    let victim = pod.binding(HostId(5), DeviceKind::Nic).expect("bound");
    pod.fail_device(victim);
    let mut recovered = false;
    for _ in 0..10 {
        let d = pod.time() + Nanos::from_millis(20);
        if pod.vnic_send(HostId(5), b"after failover", d).is_ok() {
            recovered = true;
            break;
        }
        pod.run_control(Nanos::from_micros(300));
    }
    assert!(recovered, "failover should succeed");

    let json = pod.export_trace().expect("tracing is enabled");
    std::fs::write(&out_path, &json).expect("write trace file");
    let tr = pod.trace().expect("tracing is enabled");
    println!(
        "wrote {} ({} events, {} dropped)",
        out_path,
        tr.events().count(),
        tr.dropped()
    );
    println!("{}", telemetry::snapshot(&pod));

    if metrics {
        let rec = pod.metrics().expect("metrics enabled");
        let csv = rec.export_csv();
        std::fs::write(&metrics_out, &csv).expect("write metrics csv");
        println!(
            "wrote {} ({} series, {} samples, {} dropped)",
            metrics_out,
            rec.metric_count(),
            rec.samples().count(),
            rec.dropped()
        );
    }

    if check {
        validate(&json);
        if metrics {
            validate_metrics(&pod, &json);
        }
        println!("pod_trace: check OK");
    }
}

/// Asserts the metrics-plane invariants CI relies on: a usefully wide
/// metric catalog, counter tracks merged into the Perfetto JSON, and
/// CSV/JSON exports that parse and agree with the recorder.
fn validate_metrics(pod: &PodSim, trace_json: &str) {
    let rec = pod.metrics().expect("metrics enabled");
    let names = rec.metric_names();
    assert!(
        names.len() >= 8,
        "expected >= 8 distinct metric names, got {}: {names:?}",
        names.len()
    );
    assert!(rec.samples().next().is_some(), "sampler never ticked");

    // Counter tracks made it into the merged trace export.
    let v = serde_json::from_str(trace_json).expect("trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .count();
    assert!(counters > 0, "no counter-track events in the trace export");

    // The CSV is one header plus one line per sample.
    let csv = rec.export_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("time_ns,name,host,domain,mhd,device,tenant,value"),
        "metrics CSV header mismatch"
    );
    assert_eq!(lines.count(), rec.samples().count(), "CSV row count");

    // The JSON export parses and carries its schema tag.
    let mj = serde_json::from_str(&rec.export_json()).expect("metrics JSON parses");
    assert_eq!(
        mj.get("schema").and_then(Value::as_str),
        Some("cxl-pool-metrics/v1"),
        "metrics JSON schema tag"
    );
}

/// Re-parses the exported file and asserts the invariants CI relies
/// on: valid JSON, at least one complete span per datapath stage, a
/// full per-op causal chain for each device kind, and the failover's
/// failure marker.
fn validate(json: &str) {
    let v = serde_json::from_str(json).expect("trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    let name_of = |e: &Value| {
        e.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let ph_of = |e: &Value| {
        e.get("ph")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let op_of = |e: &Value| {
        e.get("args")
            .and_then(|a| a.get("op"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };

    // Every required stage has at least one complete ("X") span.
    const REQUIRED_SPANS: &[&str] = &[
        "op/vnic_send",
        "op/vssd_read",
        "op/vssd_write",
        "op/vaccel_run",
        "chan/send",
        "dev/nic_tx",
        "dev/ssd_read",
        "dev/ssd_write",
        "dev/accel",
        "dma/read",
        "dma/write",
        "fabric/nt_store",
    ];
    for want in REQUIRED_SPANS {
        assert!(
            events
                .iter()
                .any(|e| ph_of(e) == "X" && name_of(e) == *want),
            "missing complete span for stage {want}"
        );
    }
    const REQUIRED_INSTANTS: &[&str] = &[
        "proto/encode",
        "agent/dispatch",
        "dev/doorbell",
        "op/complete",
        "dev/failed",
    ];
    for want in REQUIRED_INSTANTS {
        assert!(
            events
                .iter()
                .any(|e| ph_of(e) == "i" && name_of(e) == *want),
            "missing instant for stage {want}"
        );
    }

    // Per-kind causal chains: some operation id must carry the whole
    // forwarded path from root span to completion delivery.
    let chains: &[(&str, &str)] = &[
        ("op/vnic_send", "dev/nic_tx"),
        ("op/vssd_read", "dev/ssd_read"),
        ("op/vaccel_run", "dev/accel"),
    ];
    for (root, dev_stage) in chains {
        let complete = events.iter().filter(|e| name_of(e) == *root).any(|e| {
            let op = op_of(e);
            op != 0
                && ["proto/encode", "agent/dispatch", "op/complete"]
                    .iter()
                    .all(|stage| {
                        events
                            .iter()
                            .any(|x| op_of(x) == op && name_of(x) == *stage)
                    })
                && events
                    .iter()
                    .any(|x| op_of(x) == op && name_of(x) == *dev_stage)
        });
        assert!(complete, "no complete forwarded chain for {root}");
    }

    // Tracks are named for Perfetto.
    assert!(
        events
            .iter()
            .any(|e| ph_of(e) == "M" && name_of(e) == "thread_name"),
        "missing thread_name metadata"
    );
}
