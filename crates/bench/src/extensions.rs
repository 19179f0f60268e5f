//! §5 extension experiments: ToR-less availability, accelerator
//! disaggregation, storage striping, and connection migration.

use cxl_fabric::HostId;
use cxl_pool_core::accelpool::{run as accel_run, AccelPoolConfig};
use cxl_pool_core::migration::Connection;
use cxl_pool_core::pod::{InFlight, PodParams, PodSim};
use cxl_pool_core::proto::Cmd;
use cxl_pool_core::striping::StripedVolume;
use cxl_pool_core::torless::{nines, p_unreachable, simulate, FailureRates, RackDesign};
use cxl_pool_core::vdev::DeviceKind;
use pcie_sim::ssd::BLOCK;
use simkit::stats::Histogram;
use simkit::table::{fmt_f64, Table};
use simkit::Nanos;

use crate::Scale;

/// ToR-less rack availability vs classic designs, analytic and Monte
/// Carlo.
pub fn run_torless(scale: Scale) -> Table {
    let trials = scale.pick(200_000, 2_000_000);
    let rates = FailureRates::default();
    let mut t = Table::new(&["design", "p_unreachable_pct", "mc_pct", "nines"]);
    let designs: Vec<(String, RackDesign)> = vec![
        ("single ToR".into(), RackDesign::SingleTor),
        ("dual ToR".into(), RackDesign::DualTor),
        (
            "ToR-less λ=1, 8 NICs".into(),
            RackDesign::TorLess { lambda: 1, nics: 8 },
        ),
        (
            "ToR-less λ=2, 8 NICs".into(),
            RackDesign::TorLess { lambda: 2, nics: 8 },
        ),
        (
            "ToR-less λ=4, 8 NICs".into(),
            RackDesign::TorLess { lambda: 4, nics: 8 },
        ),
        (
            "ToR-less λ=8, 8 NICs".into(),
            RackDesign::TorLess { lambda: 8, nics: 8 },
        ),
    ];
    for (name, design) in designs {
        let p = p_unreachable(design, &rates);
        let mc = simulate(design, &rates, trials, 0xDEAD);
        t.row(&[
            &name,
            &fmt_f64(p * 100.0),
            &fmt_f64(mc * 100.0),
            &fmt_f64(nines(p)),
        ]);
    }
    t
}

/// Accelerator disaggregation at varying host:card ratios.
pub fn run_accelpool(scale: Scale) -> Table {
    let jobs = scale.pick(4, 12);
    let mut t = Table::new(&[
        "hosts:cards",
        "cards_per_host",
        "p50_ms",
        "p99_ms",
        "remote_pct",
        "jobs",
    ]);
    for (hosts, accels) in [(16u16, 1u16), (16, 2), (16, 4), (8, 1), (4, 4)] {
        let r = accel_run(&AccelPoolConfig {
            hosts,
            accels,
            jobs_per_host: jobs,
            job_bytes: 48 * 1024,
        })
        .expect("accel pool runs");
        t.row(&[
            &format!("{hosts}:{accels}"),
            &fmt_f64(r.cards_per_host),
            &fmt_f64(r.latency.quantile(0.5) as f64 / 1e6),
            &fmt_f64(r.latency.quantile(0.99) as f64 / 1e6),
            &fmt_f64(r.remote_fraction * 100.0),
            &r.jobs.to_string(),
        ]);
    }
    t
}

/// Storage striping bandwidth vs stripe width.
pub fn run_striping(scale: Scale) -> Table {
    let blocks = scale.pick(128u64, 512);
    let mut t = Table::new(&["ssds", "write_gbps", "read_gbps", "speedup_vs_1"]);
    let mut base_w = 0.0;
    for width in [1u16, 2, 4, 8] {
        let mut params = PodParams::new(8, 1);
        params.ssd_hosts = (0..width).map(|i| i % 8).collect();
        params.io_slots = 128;
        let mut pod = PodSim::new(params);
        let devs = pod.orch.devices_of(DeviceKind::Ssd);
        let vol = StripedVolume::new(devs, 2);
        let data: Vec<u8> = (0..(blocks * BLOCK) as usize).map(|i| i as u8).collect();
        let deadline = pod.time() + Nanos::from_millis(500);
        let w = vol
            .write(&mut pod, HostId(7), 0, &data, deadline)
            .expect("striped write");
        // Let the agents idle past the write-phase flash completions,
        // so the read measurement starts from quiescent devices.
        let gap = w.done.saturating_sub(pod.time()) + Nanos::from_micros(10);
        pod.run_control(gap);
        let deadline = pod.time() + Nanos::from_millis(500);
        let (_, r) = vol
            .read(&mut pod, HostId(7), 0, blocks, deadline)
            .expect("striped read");
        if width == 1 {
            base_w = w.gbps();
        }
        t.row(&[
            &width.to_string(),
            &fmt_f64(w.gbps()),
            &fmt_f64(r.gbps()),
            &fmt_f64(w.gbps() / base_w),
        ]);
    }
    t
}

/// Pool-device (MHD) failure and software recovery (§5,
/// "highly-available CXL pods"): blast-radius and recovery success as
/// the pod spreads over more MHDs.
pub fn run_pool_recovery(_scale: Scale) -> Table {
    use cxl_fabric::MhdId;
    let mut t = Table::new(&["mhds", "lambda", "channels_rebuilt", "hosts_restored_pct"]);
    // Pod-wide shared segments need full host-MHD connectivity
    // (λ = m), the standard MHD-pod wiring.
    for (mhds, lambda) in [(2u16, 2u16), (4, 4), (8, 8)] {
        let mut params = PodParams::new(8, 4);
        params.mhds = mhds;
        params.lambda = lambda;
        let mut pod = PodSim::new(params);
        // Warm all hosts.
        for h in 0..8u16 {
            let d = pod.time() + Nanos::from_millis(50);
            let _ = pod.vnic_send(HostId(h), &[1u8; 64], d);
        }
        pod.fabric.topology_mut().fail_mhd(MhdId(0));
        let rebuilt = pod.recover_pool_failure(MhdId(0));
        let mut restored = 0;
        for h in 0..8u16 {
            for _ in 0..10 {
                let d = pod.time() + Nanos::from_millis(50);
                if pod.vnic_send(HostId(h), &[2u8; 64], d).is_ok() {
                    restored += 1;
                    break;
                }
                pod.run_control(Nanos::from_micros(300));
            }
        }
        t.row(&[
            &mhds.to_string(),
            &lambda.to_string(),
            &rebuilt.to_string(),
            &fmt_f64(restored as f64 / 8.0 * 100.0),
        ]);
    }
    t
}

/// Device harvesting (§1 benefit 4): one host bursts across all pool
/// NICs; aggregate goodput vs NICs harvested.
pub fn run_harvest(scale: Scale) -> Table {
    use cxl_pool_core::bonding::BondedNic;
    let frames = scale.pick(128u64, 1024);
    let mut t = Table::new(&["nics_harvested", "aggregate_gbps", "speedup_vs_1"]);
    let mut base = 0.0;
    for nics in [1u16, 2, 4, 8] {
        let mut params = PodParams::new(8, nics);
        params.io_slots = 64;
        let mut pod = PodSim::new(params);
        let mut bond = BondedNic::harvest_all(&pod, HostId(7)).expect("bond");
        let deadline = pod.time() + Nanos::from_millis(500);
        let r = bond.burst(&mut pod, frames, 9000, deadline).expect("burst");
        if nics == 1 {
            base = r.gbps();
        }
        t.row(&[
            &nics.to_string(),
            &fmt_f64(r.gbps()),
            &fmt_f64(r.gbps() / base),
        ]);
    }
    t
}

/// Pooled-SSD IOPS vs queue depth: the submission pipelining the
/// sub-µs channel enables. At QD 1 every command pays the full flash
/// round trip; deeper queues overlap the flash channels until the
/// drive's parallelism (8 channels) saturates.
pub fn run_ssd_qd(scale: Scale) -> Table {
    let ios = scale.pick(128u32, 1024);
    let mut t = Table::new(&["queue_depth", "k_iops", "speedup_vs_qd1"]);
    let mut base = 0.0;
    for qd in [1usize, 2, 4, 8, 16, 32] {
        let mut params = PodParams::new(4, 1);
        params.ssd_hosts = vec![0];
        params.io_slots = 64;
        let mut pod = PodSim::new(params);
        let dev = pod.orch.devices_of(DeviceKind::Ssd)[0];
        let owner = HostId(2);
        let issued = pod.time();
        let mut done = issued;
        let mut inflight = std::collections::VecDeque::<InFlight>::new();
        let mut rng = simkit::rng::Rng::new(qd as u64);
        for _ in 0..ios {
            if inflight.len() >= qd {
                let f = inflight.pop_front().expect("nonempty");
                let d = pod.time() + Nanos::from_millis(500);
                let r = pod.finish(f.with_deadline(d)).expect("await");
                done = done.max(r.at);
                // Closed loop: the next submission waits for the
                // oldest command's *device* completion, not just its
                // completion message.
                pod.agents[owner.0 as usize].advance_clock(r.at);
            }
            let buf = pod.io_buf(owner);
            let lba = rng.below(1 << 16);
            let cmd = Cmd::SsdRead {
                lba,
                blocks: 1,
                buf,
            };
            inflight.push_back(pod.submit(owner, dev, cmd).expect("submit"));
        }
        for f in inflight {
            let d = pod.time() + Nanos::from_millis(500);
            let r = pod.finish(f.with_deadline(d)).expect("await");
            done = done.max(r.at);
        }
        let iops = ios as f64 / (done.saturating_sub(issued)).as_secs_f64();
        if qd == 1 {
            base = iops;
        }
        t.row(&[&qd.to_string(), &fmt_f64(iops / 1e3), &fmt_f64(iops / base)]);
    }
    t
}

/// Connection-migration blackout distribution.
pub fn run_migration(scale: Scale) -> Table {
    let trials = scale.pick(20, 100);
    let mut hist = Histogram::new();
    for trial in 0..trials {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let mut conn = Connection::open(&mut pod, HostId(0)).expect("open");
        // Trial-varying pre-migration traffic de-phases the polling
        // loops so the blackout distribution is not a single point.
        for _ in 0..=(trial % 5) {
            let deadline = pod.time() + Nanos::from_millis(50);
            conn.send_segment(&mut pod, 512, deadline).expect("seg");
        }
        pod.run_control(Nanos(173 * (trial as u64 % 13) + 59));
        let from = pod.binding(HostId(0), DeviceKind::Nic).expect("bound");
        let to = pod
            .orch
            .devices_of(DeviceKind::Nic)
            .into_iter()
            .find(|&d| d != from)
            .expect("second NIC");
        let deadline = pod.time() + Nanos::from_millis(50);
        let report = conn.migrate(&mut pod, to, deadline).expect("migrate");
        hist.record(report.blackout.as_nanos());
    }
    let s = hist.summary();
    let mut t = Table::new(&["metric", "blackout_us"]);
    t.row(&["p50", &fmt_f64(s.p50 as f64 / 1e3)]);
    t.row(&["p99", &fmt_f64(s.p99 as f64 / 1e3)]);
    t.row(&["max", &fmt_f64(s.max as f64 / 1e3)]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torless_table_covers_designs() {
        let t = run_torless(Scale::Quick);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn striping_table_shows_speedup() {
        let t = run_striping(Scale::Quick);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn migration_blackout_table_renders() {
        let t = run_migration(Scale::Quick);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ssd_qd_scales_iops() {
        let t = run_ssd_qd(Scale::Quick);
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let qd1: f64 = rows[0].split(',').nth(1).unwrap().parse().unwrap();
        let qd32: f64 = rows[5].split(',').nth(1).unwrap().parse().unwrap();
        // QD1 is flash-latency bound (~12k IOPS); deep queues overlap
        // the 8 flash channels.
        assert!((8.0..16.0).contains(&qd1), "QD1 {qd1} kIOPS");
        assert!(qd32 > qd1 * 3.0, "QD32 {qd32} vs QD1 {qd1}");
    }

    #[test]
    fn pool_recovery_table_restores_everyone() {
        let t = run_pool_recovery(Scale::Quick);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        for row in csv.lines().skip(1) {
            let restored: f64 = row.split(',').nth(3).unwrap().parse().unwrap();
            assert_eq!(restored, 100.0, "row: {row}");
        }
    }

    #[test]
    fn harvest_table_scales() {
        let t = run_harvest(Scale::Quick);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let x8: f64 = rows[3].split(',').nth(2).unwrap().parse().unwrap();
        assert!(x8 > 3.0, "8-NIC harvest speedup {x8}");
    }
}
