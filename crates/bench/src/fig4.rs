//! Figure 4: latency distribution of message passing over shared CXL
//! memory.
//!
//! The paper measures a ping-pong over a real MHD-based pool on
//! PCIe-5.0 ×16 links: "shared-memory channels in CXL achieve sub-µs
//! latencies without cache coherence. The median latency is around
//! 600 ns, slightly above the theoretical minimum latency for message
//! passing, which equals the total latency of one CXL write and one
//! CXL read."

use shmem::pingpong::{run as pingpong, PingPongConfig};
use simkit::table::{fmt_f64, Table};
use simkit::Nanos;

use crate::Scale;

/// Runs the measurement and renders the distribution table.
pub fn run(scale: Scale) -> Table {
    run_with_summary(scale).0
}

/// Like [`run`], but also returns the compact [`simkit::stats::Summary`]
/// so `--json`
/// output can carry stable quantiles instead of raw histogram buckets
/// (those stay behind `Histogram::bucket_counts`).
pub fn run_with_summary(scale: Scale) -> (Table, simkit::stats::Summary) {
    let config = PingPongConfig {
        iterations: scale.pick(20_000, 200_000),
        ..PingPongConfig::default()
    };
    let r = pingpong(&config).expect("ping-pong runs");
    let s = r.latency.summary();
    let mut t = Table::new(&["metric", "ns", "note"]);
    t.row(&[
        "floor (1 write + 1 read)",
        &r.floor.as_nanos().to_string(),
        "analytic",
    ]);
    t.row(&["min", &s.min.to_string(), ""]);
    t.row(&["p10", &s.p10.to_string(), ""]);
    t.row(&["p50", &s.p50.to_string(), "paper: ~600"]);
    t.row(&["p90", &s.p90.to_string(), ""]);
    t.row(&["p99", &s.p99.to_string(), ""]);
    t.row(&["max", &s.max.to_string(), ""]);
    t.row(&["mean", &fmt_f64(s.mean), ""]);
    t.row(&["samples", &s.count.to_string(), ""]);
    (t, s)
}

/// Coherence-discipline ablation: what the channel costs if the
/// receiver skips the invalidate (it would read stale data — shown via
/// the fabric's cache-hit latency) versus the correct protocol.
pub fn run_ablation(scale: Scale) -> Table {
    // The correct protocol at two link widths, showing the link's share
    // of the latency budget.
    let mut t = Table::new(&["variant", "p50_ns", "floor_ns"]);
    for (name, params) in [
        ("x16 links (paper setup)", cxl_fabric::FabricParams::x16()),
        ("x8 links", cxl_fabric::FabricParams::default()),
    ] {
        let config = PingPongConfig {
            iterations: scale.pick(10_000, 100_000),
            params,
            mean_gap: Nanos(2_000),
            ..PingPongConfig::default()
        };
        let r = pingpong(&config).expect("ping-pong runs");
        t.row(&[
            name,
            &r.latency.quantile(0.5).to_string(),
            &r.floor.as_nanos().to_string(),
        ]);
    }
    t
}

/// Contention ablation: message-passing latency while background bulk
/// DMA loads the same pool. The paper measures an idle pod; this
/// bounds how far the 600 ns story degrades when the pool is busy.
pub fn run_contention(scale: Scale) -> Table {
    use cxl_fabric::{Fabric, HostId, PodConfig};
    use shmem::ring::{PollOutcome, RingBuf, SendOutcome};
    let msgs = scale.pick(2_000u32, 20_000);
    let mut t = Table::new(&["background_load", "p50_ns", "p99_ns"]);
    for bg_frac in [0.0f64, 0.4, 0.8] {
        let mut fabric =
            Fabric::new(PodConfig::new(2, 2, 2).with_params(cxl_fabric::FabricParams::x16()));
        let ring = RingBuf::allocate(&mut fabric, HostId(0), HostId(1), 64).expect("alloc");
        let bulk = fabric
            .alloc_shared(&[HostId(0), HostId(1)], 8 << 20)
            .expect("alloc");
        let (mut tx, mut rx) = ring.split();
        let mut hist = simkit::stats::Histogram::new();
        let link_bw = fabric.params().link_gbps();
        let chunk = 64u64 << 10;
        let bg_gap = if bg_frac > 0.0 {
            Nanos((chunk as f64 / (link_bw * bg_frac)) as u64)
        } else {
            Nanos::MAX
        };
        let bg_data = vec![0u8; chunk as usize];
        let mut next_bg = Nanos(0);
        let mut clock = Nanos(0);
        for i in 0..msgs {
            // Background writer streams from host 0 while it also
            // sends messages (worst case: shared uplink).
            while bg_frac > 0.0 && next_bg <= clock {
                let addr = bulk.base() + (i as u64 % 64) * chunk;
                let _ = fabric.dma_write(next_bg, HostId(0), addr, &bg_data);
                next_bg += bg_gap;
            }
            let issue = clock;
            let visible = match tx.send(&mut fabric, issue, &[1u8; 32]).expect("send") {
                SendOutcome::Sent(v) => v,
                SendOutcome::Full(v) => {
                    clock = v + Nanos(500);
                    continue;
                }
            };
            let mut rx_clock = visible.saturating_sub(Nanos(400));
            let received = loop {
                match rx.poll(&mut fabric, rx_clock).expect("poll") {
                    PollOutcome::Empty(t) => rx_clock = t,
                    PollOutcome::Msg { at, .. } => break at,
                }
            };
            hist.record((received.saturating_sub(issue)).as_nanos());
            clock = received + Nanos(1_500);
        }
        t.row(&[
            &format!("{:.0}% of one x16 link", bg_frac * 100.0),
            &hist.quantile(0.5).to_string(),
            &hist.quantile(0.99).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_raises_latency() {
        let t = run_contention(crate::Scale::Quick);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let idle: f64 = rows[0].split(',').nth(1).unwrap().parse().unwrap();
        let loaded: f64 = rows[2].split(',').nth(1).unwrap().parse().unwrap();
        assert!(
            loaded >= idle,
            "loaded p50 {loaded} should be >= idle {idle}"
        );
    }

    #[test]
    fn distribution_table_has_all_metrics() {
        let t = run(Scale::Quick);
        assert_eq!(t.len(), 9);
        assert!(t.render().contains("p50"));
    }

    #[test]
    fn summary_agrees_with_table() {
        let (t, s) = run_with_summary(Scale::Quick);
        assert!(s.count > 0);
        assert!(t.render().contains(&s.p50.to_string()));
        assert!(s.min <= s.p50 && s.p50 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn ablation_compares_widths() {
        let t = run_ablation(Scale::Quick);
        assert_eq!(t.len(), 2);
    }
}
