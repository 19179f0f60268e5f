//! Pod-wide telemetry: one snapshot of every counter that matters,
//! printable as the kind of report a pooling operator would watch.

use core::fmt;

use cxl_fabric::ViolationCounts;
use pcie_sim::DeviceId;
use simkit::stats::Summary;

use crate::pod::PodSim;
use crate::vdev::DeviceKind;

/// Per-device counters in a report.
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// The device.
    pub dev: DeviceId,
    /// Its class.
    pub kind: DeviceKind,
    /// Attach host index.
    pub attach: u16,
    /// Liveness per the orchestrator.
    pub up: bool,
    /// Last load the orchestrator heard for this device (0-100).
    pub load: u8,
    /// Hosts currently assigned.
    pub users: usize,
    /// Operations completed (TX frames / SSD commands / accel jobs).
    pub ops: u64,
    /// Bytes moved through the device.
    pub bytes: u64,
}

/// Coherence-audit tallies carried by a report (present only when
/// auditing was enabled on the pod).
#[derive(Clone, Copy, Debug)]
pub struct AuditSummary {
    /// Per-kind violation counters, including `concurrent_conflicts`
    /// from the vector-clock race detector.
    pub counts: ViolationCounts,
    /// Pool operations that passed through the audit layer.
    pub ops_audited: u64,
}

/// One row of per-stage latency attribution from the flight recorder.
#[derive(Clone, Copy, Debug)]
pub struct StageReport {
    /// Datapath stage name, e.g. `"chan/send"`.
    pub stage: &'static str,
    /// Device-kind tag the stage latencies are attributed to.
    pub kind: &'static str,
    /// Latency distribution (nanoseconds).
    pub latency: Summary,
}

/// One sampled timeline from the metrics plane, reduced to a report
/// row: series identity, point count, final value and a sparkline of
/// the sampled values.
#[derive(Clone, Debug)]
pub struct MetricReport {
    /// Metric name plus label suffix, e.g. `"domain/free_bytes{domain=1}"`.
    pub series: String,
    /// Sampled points in the timeline.
    pub points: usize,
    /// Value at the last sampling tick.
    pub last: f64,
    /// Unicode sparkline over the sampled values (empty when the
    /// series never got a tick).
    pub spark: String,
}

/// A full pod snapshot.
#[derive(Clone, Debug)]
pub struct PodReport {
    /// Per-agent: (host, forwarded ops served, device failures seen,
    /// assignment updates applied).
    pub agents: Vec<(u16, u64, u64, u64)>,
    /// Per-device counters.
    pub devices: Vec<DeviceReport>,
    /// Failovers the orchestrator performed.
    pub failovers: usize,
    /// Load-balancing migrations performed.
    pub migrations: u64,
    /// Whole-tenant lifecycle migrations performed.
    pub tenant_migrations: u64,
    /// Migration blackout distribution (ns) across every migration
    /// window — tenant and connection migrations alike; None before
    /// the first migration.
    pub blackout: Option<Summary>,
    /// Fabric: total pool loads / visible writes (ops).
    pub pool_loads: u64,
    /// Fabric: NT stores + flush write-backs + DMA writes.
    pub pool_writes: u64,
    /// Fabric: bytes read from the pool.
    pub pool_bytes_read: u64,
    /// Fabric: bytes written to the pool.
    pub pool_bytes_written: u64,
    /// Coherence-audit tallies (None when auditing is off).
    pub audit: Option<AuditSummary>,
    /// Per-stage latency attribution from the flight recorder (empty
    /// when tracing is off).
    pub stages: Vec<StageReport>,
    /// Trace events dropped because the recorder's ring was full.
    pub trace_dropped: u64,
    /// Sampled metric timelines (empty when the metrics plane is off),
    /// sorted by series name then labels.
    pub metrics: Vec<MetricReport>,
    /// Metric samples dropped because the sample ring was full.
    pub metrics_dropped: u64,
}

/// Builds a report from the pod's current counters.
pub fn snapshot(pod: &PodSim) -> PodReport {
    let agents = pod
        .agents
        .iter()
        .map(|a| {
            let s = a.stats();
            (a.host.0, s.served, s.failures_seen, s.assigns)
        })
        .collect();

    let mut devices = Vec::new();
    for kind in [DeviceKind::Nic, DeviceKind::Ssd, DeviceKind::Accel] {
        for dev in pod.orch.devices_of(kind) {
            let info = pod.orch.device(dev).expect("registered");
            let attach = info.attach.0;
            let agent = &pod.agents[attach as usize];
            let (ops, bytes) = match kind {
                DeviceKind::Nic => agent
                    .nics
                    .get(&dev)
                    .map(|n| {
                        let s = n.stats();
                        (s.tx_frames + s.rx_frames, s.tx_bytes + s.rx_bytes)
                    })
                    .unwrap_or((0, 0)),
                DeviceKind::Ssd => agent
                    .ssds
                    .get(&dev)
                    .map(|s| {
                        let st = s.stats();
                        (st.reads + st.writes, st.bytes_read + st.bytes_written)
                    })
                    .unwrap_or((0, 0)),
                DeviceKind::Accel => agent
                    .accels
                    .get(&dev)
                    .map(|a| {
                        let st = a.stats();
                        (st.jobs, st.bytes)
                    })
                    .unwrap_or((0, 0)),
            };
            devices.push(DeviceReport {
                dev,
                kind,
                attach,
                up: info.up,
                load: info.load,
                users: info.users.len(),
                ops,
                bytes,
            });
        }
    }

    let audit = pod.fabric.audit_report().map(|r| AuditSummary {
        counts: r.counts,
        ops_audited: r.ops_audited,
    });
    let (stages, trace_dropped) = match pod.trace() {
        Some(tr) => {
            let mut stages: Vec<StageReport> = tr
                .stage_summaries()
                .into_iter()
                .map(|(stage, kind, latency)| StageReport {
                    stage,
                    kind: simkit::trace::kind_name(kind),
                    latency,
                })
                .collect();
            // Sort on the rendered key so the printed table (and any
            // serialization of it) is byte-stable regardless of the
            // recorder's internal keying.
            stages.sort_by(|a, b| (a.stage, a.kind).cmp(&(b.stage, b.kind)));
            (stages, tr.dropped())
        }
        None => (Vec::new(), 0),
    };

    // `MetricsRecorder::series` already sorts by (name, labels); carry
    // that order into the report rows.
    let (metrics, metrics_dropped) = match pod.metrics() {
        Some(rec) => (
            rec.series()
                .into_iter()
                .map(|s| {
                    let values: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
                    MetricReport {
                        series: format!("{}{}", s.name, s.labels.suffix()),
                        points: values.len(),
                        last: values.last().copied().unwrap_or(0.0),
                        spark: sparkline(&values, 32),
                    }
                })
                .collect(),
            rec.dropped(),
        ),
        None => (Vec::new(), 0),
    };

    let f = pod.fabric.stats();
    PodReport {
        agents,
        devices,
        failovers: pod.orch.failover_log.len(),
        migrations: pod.orch.migrations,
        tenant_migrations: pod.lifecycle.tenant_migrations,
        blackout: pod.lifecycle.blackout_summary(),
        pool_loads: f.loads + f.dma_reads,
        pool_writes: f.nt_stores + f.flushes + f.dma_writes,
        pool_bytes_read: f.bytes_read,
        pool_bytes_written: f.bytes_written,
        audit,
        stages,
        trace_dropped,
        metrics,
        metrics_dropped,
    }
}

/// Renders `values` as a fixed-alphabet Unicode sparkline, averaging
/// down to at most `width` buckets. Deterministic: depends only on the
/// input values.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets = width.min(values.len());
    let mut reduced = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
        let slice = &values[lo..hi];
        reduced.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let min = reduced.iter().copied().fold(f64::INFINITY, f64::min);
    let max = reduced.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    reduced
        .iter()
        .map(|&v| {
            if !span.is_finite() || span <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

impl fmt::Display for PodReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pod report")?;
        writeln!(
            f,
            "  pool: {} reads / {} writes ({} B in, {} B out)",
            self.pool_loads, self.pool_writes, self.pool_bytes_read, self.pool_bytes_written
        )?;
        writeln!(
            f,
            "  control plane: {} failovers, {} migrations",
            self.failovers, self.migrations
        )?;
        if let Some(b) = &self.blackout {
            writeln!(
                f,
                "  lifecycle: {} tenant migrations, blackout ns n={} p50={} p99={} max={}",
                self.tenant_migrations, b.count, b.p50, b.p99, b.max
            )?;
        }
        if let Some(a) = &self.audit {
            let c = &a.counts;
            writeln!(
                f,
                "  audit: {} violations over {} pool ops \
                 (stale-read {}, torn-read {}, lost-write {}, ww-conflict {}, \
                 unflushed {}, concurrent-conflict {})",
                c.total(),
                a.ops_audited,
                c.stale_reads,
                c.torn_reads,
                c.lost_writes,
                c.ww_conflicts,
                c.unflushed_writes,
                c.concurrent_conflicts
            )?;
        }
        if !self.stages.is_empty() {
            writeln!(f, "  stage latency (ns):")?;
            for s in &self.stages {
                writeln!(
                    f,
                    "    {:<16} {:<5} n={:<7} p50={:<9} p99={:<9} max={}",
                    s.stage, s.kind, s.latency.count, s.latency.p50, s.latency.p99, s.latency.max
                )?;
            }
        }
        if self.trace_dropped > 0 {
            writeln!(
                f,
                "  trace: {} events dropped (ring full)",
                self.trace_dropped
            )?;
        }
        if !self.metrics.is_empty() {
            writeln!(f, "  metrics (sampled timelines):")?;
            for m in &self.metrics {
                writeln!(
                    f,
                    "    {:<36} n={:<6} last={:<14} {}",
                    m.series,
                    m.points,
                    simkit::metrics::fmt_value(m.last),
                    m.spark
                )?;
            }
        }
        if self.metrics_dropped > 0 {
            writeln!(
                f,
                "  metrics: {} samples dropped (ring full)",
                self.metrics_dropped
            )?;
        }
        for (host, served, failures, assigns) in &self.agents {
            writeln!(
                f,
                "  agent[{host}]: served {served} forwarded ops, saw {failures} device failures, applied {assigns} assignments"
            )?;
        }
        for d in &self.devices {
            writeln!(
                f,
                "  {:?} {:?} @host{} {}: {} users, {} ops, {} bytes, load {}%",
                d.kind,
                d.dev,
                d.attach,
                if d.up { "up" } else { "DOWN" },
                d.users,
                d.ops,
                d.bytes,
                d.load
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodParams;
    use cxl_fabric::HostId;
    use simkit::Nanos;

    #[test]
    fn snapshot_counts_activity() {
        let mut params = PodParams::new(4, 2);
        params.ssd_hosts = vec![0];
        let mut pod = PodSim::new(params);
        let d = pod.time() + Nanos::from_millis(50);
        pod.vnic_send(HostId(3), &[1u8; 256], d).expect("send");
        let d = pod.time() + Nanos::from_millis(50);
        pod.vssd_read(HostId(2), 0, 1, d).expect("read");
        let r = snapshot(&pod);
        assert_eq!(r.agents.len(), 4);
        assert_eq!(r.devices.len(), 3);
        let nic_ops: u64 = r
            .devices
            .iter()
            .filter(|x| x.kind == DeviceKind::Nic)
            .map(|x| x.ops)
            .sum();
        assert!(nic_ops >= 1, "the send should be counted");
        let ssd_ops: u64 = r
            .devices
            .iter()
            .filter(|x| x.kind == DeviceKind::Ssd)
            .map(|x| x.ops)
            .sum();
        assert!(ssd_ops >= 1, "the read should be counted");
        assert!(r.pool_writes > 0 && r.pool_loads > 0);
        // The report renders without panicking and mentions devices.
        let text = r.to_string();
        assert!(text.contains("agent[0]"));
        assert!(text.contains("Nic"));
    }

    #[test]
    fn snapshot_carries_audit_and_stage_attribution() {
        let mut params = PodParams::new(4, 2);
        params.ssd_hosts = vec![0];
        let mut pod = PodSim::new(params);
        pod.enable_audit_mode(cxl_fabric::AuditMode::Version);
        pod.enable_trace_config(simkit::trace::TraceConfig {
            capacity: 1 << 12,
            fabric_ops: false,
        });
        let d = pod.time() + Nanos::from_millis(50);
        pod.vnic_send(HostId(3), &[1u8; 256], d).expect("send");
        let d = pod.time() + Nanos::from_millis(50);
        pod.vssd_read(HostId(2), 0, 1, d).expect("read");
        let r = snapshot(&pod);
        let audit = r.audit.expect("audit enabled");
        assert!(audit.ops_audited > 0, "pool traffic should be audited");
        assert!(
            r.stages
                .iter()
                .any(|s| s.stage == "op/vnic_send" && s.kind == "nic"),
            "send root span should be attributed"
        );
        assert!(
            r.stages
                .iter()
                .any(|s| s.stage == "dev/ssd_read" && s.kind == "ssd"),
            "SSD execution should be attributed per kind"
        );
        let text = r.to_string();
        assert!(text.contains("audit:"));
        assert!(text.contains("stage latency"));
    }

    #[test]
    fn snapshot_carries_metric_timelines() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        pod.enable_metrics_config(simkit::metrics::MetricsConfig {
            interval: Nanos::from_micros(10),
            capacity: 1 << 12,
        });
        let d = pod.time() + Nanos::from_millis(50);
        pod.vnic_send(HostId(3), &[1u8; 256], d).expect("send");
        pod.run_control(Nanos::from_millis(1));
        let r = snapshot(&pod);
        assert!(!r.metrics.is_empty(), "metric rows should be present");
        assert!(
            r.metrics.windows(2).all(|w| w[0].series <= w[1].series),
            "rows sorted by series key"
        );
        let pool = r
            .metrics
            .iter()
            .find(|m| m.series == "pool/free_bytes")
            .expect("pool gauge sampled");
        assert!(pool.points > 0 && pool.last > 0.0);
        assert!(!pool.spark.is_empty());
        let text = r.to_string();
        assert!(text.contains("metrics (sampled timelines):"));
        assert!(text.contains("pool/free_bytes"));
    }

    #[test]
    fn sparkline_is_deterministic_and_bounded() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[5.0], 8), "▁");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0], 8), "▁▁▁");
        let rising: Vec<f64> = (0..64).map(f64::from).collect();
        let s = sparkline(&rising, 8);
        assert_eq!(s.chars().count(), 8);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(s, sparkline(&rising, 8));
    }

    #[test]
    fn snapshot_reflects_failures() {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let dev = pod.binding(HostId(3), DeviceKind::Nic).expect("bound");
        pod.fail_device(dev);
        let d = pod.time() + Nanos::from_millis(20);
        let _ = pod.vnic_send(HostId(3), &[0u8; 32], d);
        pod.run_control(Nanos::from_millis(1));
        let r = snapshot(&pod);
        assert!(r.failovers >= 1, "failover should be recorded");
        assert!(r.devices.iter().any(|x| !x.up), "a device should be down");
        assert!(r.to_string().contains("DOWN"));
    }
}
