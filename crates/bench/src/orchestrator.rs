//! §4.2 control-plane experiments (the paper sketches these flows but
//! shows no figure; we reproduce them as measured ablations).
//!
//! - **Forwarding overhead**: latency of a pooled NIC send when the
//!   device is local vs one MMIO-forward away.
//! - **Failover**: time from NIC failure to the first successful send
//!   on the replacement device.
//! - **Allocation policy**: load spread across devices under the
//!   paper's local-first policy vs least-utilized vs random.

use cxl_fabric::HostId;
use cxl_pool_core::orchestrator::AllocPolicy;
use cxl_pool_core::pod::{InFlight, PodParams, PodSim};
use cxl_pool_core::vdev::DeviceKind;
use simkit::rng::Rng;
use simkit::stats::Histogram;
use simkit::table::{fmt_f64, Table};
use simkit::Nanos;

use crate::Scale;

fn deadline(pod: &PodSim) -> Nanos {
    pod.time() + Nanos::from_millis(50)
}

/// Local vs forwarded NIC submission latency.
pub fn run_forwarding(scale: Scale) -> Table {
    let iters = scale.pick(200, 2_000);
    let mut pod = PodSim::new(PodParams::new(4, 2));
    let mut local = Histogram::new();
    let mut remote = Histogram::new();
    for i in 0..iters {
        // Host 0: local NIC. Host 3: remote NIC. Closed loop: each
        // send completes before the next is issued, so the measurement
        // is a pure per-operation latency.
        for (host, hist) in [(HostId(0), &mut local), (HostId(3), &mut remote)] {
            let t0 = pod.agents[host.0 as usize].clock();
            let d = deadline(&pod);
            let r = pod
                .vnic_send(host, &[i as u8; 256], d)
                .expect("send succeeds");
            hist.record((r.at.saturating_sub(t0)).as_nanos());
            pod.agents[host.0 as usize].advance_clock(r.at);
        }
    }
    let mut t = Table::new(&["path", "p50_us", "p99_us", "mean_us"]);
    for (name, h) in [
        ("local fast path", &local),
        ("MMIO-forwarded (remote NIC)", &remote),
    ] {
        let s = h.summary();
        t.row(&[
            name,
            &fmt_f64(s.p50 as f64 / 1e3),
            &fmt_f64(s.p99 as f64 / 1e3),
            &fmt_f64(s.mean / 1e3),
        ]);
    }
    t
}

/// Failover latency distribution: fail the remote NIC under a stream
/// of sends, measure failure-to-recovery per trial.
pub fn run_failover(scale: Scale) -> Table {
    let trials = scale.pick(20, 100);
    let mut hist = Histogram::new();
    for trial in 0..trials {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let victim_host = HostId(3);
        // Warm the path with a trial-dependent amount of traffic so
        // the failure lands at a different phase of the polling loops
        // each time.
        for _ in 0..=(trial % 7) {
            let d = deadline(&pod);
            pod.vnic_send(victim_host, &[1u8; 128], d).expect("warm");
        }
        pod.run_control(Nanos(251 * (trial as u64 % 11) + 97));
        let dev = pod.binding(victim_host, DeviceKind::Nic).expect("bound");
        pod.fail_device(dev);
        let t_fail = pod.time();
        // Retry loop, as the datapath would: each failed attempt lets
        // the control plane run, until a send lands on the replacement.
        let mut recovered = None;
        for _ in 0..50 {
            let d = deadline(&pod);
            match pod.vnic_send(victim_host, &[2u8; 128], d) {
                Ok(r) => {
                    recovered = Some(r.at);
                    break;
                }
                Err(_) => pod.run_control(Nanos::from_micros(100)),
            }
        }
        let recovered = recovered.expect("failover completes");
        hist.record((recovered.saturating_sub(t_fail)).as_nanos());
    }
    let s = hist.summary();
    let mut t = Table::new(&["metric", "failover_us"]);
    t.row(&["p50", &fmt_f64(s.p50 as f64 / 1e3)]);
    t.row(&["p90", &fmt_f64(s.p90 as f64 / 1e3)]);
    t.row(&["p99", &fmt_f64(s.p99 as f64 / 1e3)]);
    t.row(&["mean", &fmt_f64(s.mean / 1e3)]);
    t.row(&["max", &fmt_f64(s.max as f64 / 1e3)]);
    t
}

/// Allocation-policy comparison: hosts request NICs under a skewed
/// synthetic load; report the user spread across devices.
pub fn run_policies(scale: Scale) -> Table {
    let hosts = 8u16;
    let nics = 4u16;
    let rounds = scale.pick(4, 16);
    let mut t = Table::new(&[
        "policy",
        "max_users_per_nic",
        "min_users_per_nic",
        "local_bindings_pct",
    ]);
    for (name, policy) in [
        (
            "local-first (paper)",
            AllocPolicy::LocalFirst { threshold: 80 },
        ),
        ("least-utilized", AllocPolicy::LeastUtilized),
        ("random", AllocPolicy::Random { seed: 7 }),
    ] {
        let mut params = PodParams::new(hosts, nics);
        params.policy = policy;
        let mut pod = PodSim::new(params);
        // One NIC is persistently hot (a noisy neighbour) so the
        // policies actually diverge: local-first keeps spilling its
        // attach host elsewhere, least-utilized avoids it pod-wide,
        // random ignores load entirely.
        let hot = pod.orch.devices_of(DeviceKind::Nic)[0];
        for _round in 0..rounds {
            pod.orch.set_load(hot, 95);
            for h in 0..hosts {
                let _ = pod
                    .orch
                    .allocate(&mut pod.fabric, HostId(h), DeviceKind::Nic);
            }
            // Synthetic skew: device load proportional to its users,
            // except the hot device which stays hot.
            for dev in pod.orch.devices_of(DeviceKind::Nic) {
                let users = pod.orch.device(dev).map(|d| d.users.len()).unwrap_or(0);
                let load = if dev == hot {
                    95
                } else {
                    (users as u8).saturating_mul(12).min(100)
                };
                pod.orch.set_load(dev, load);
            }
        }
        pod.run_control(Nanos::from_micros(500));
        let devs = pod.orch.devices_of(DeviceKind::Nic);
        let users: Vec<usize> = devs
            .iter()
            .map(|&d| pod.orch.device(d).map(|i| i.users.len()).unwrap_or(0))
            .collect();
        let local = (0..hosts)
            .filter(|&h| {
                pod.orch
                    .assignment(HostId(h), DeviceKind::Nic)
                    .and_then(|d| pod.attach_of(d))
                    == Some(HostId(h))
            })
            .count();
        t.row(&[
            name,
            &users.iter().max().unwrap().to_string(),
            &users.iter().min().unwrap().to_string(),
            &fmt_f64(local as f64 / hosts as f64 * 100.0),
        ]);
    }
    t
}

/// Doorbell-batching ablation: per-packet cost of the forwarded path
/// when submissions are awaited one by one vs batched.
pub fn run_batching(scale: Scale) -> Table {
    let iters = scale.pick(50, 400);
    let mut t = Table::new(&["batch_size", "per_packet_us", "speedup_vs_1"]);
    let mut base = 0.0;
    for batch in [1usize, 2, 4, 8] {
        let mut pod = PodSim::new(PodParams::new(4, 2));
        let payloads: Vec<Vec<u8>> = (0..batch).map(|i| vec![i as u8; 256]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let t0 = pod.time();
        for _ in 0..iters / batch as u32 {
            let d = deadline(&pod);
            pod.vnic_send_batch(HostId(3), &refs, d)
                .expect("batch send");
        }
        let per_packet =
            (pod.time() - t0).as_nanos() as f64 / ((iters / batch as u32) * batch as u32) as f64;
        if batch == 1 {
            base = per_packet;
        }
        t.row(&[
            &batch.to_string(),
            &fmt_f64(per_packet / 1e3),
            &fmt_f64(base / per_packet),
        ]);
    }
    t
}

/// Load-balancing: build a hot/cold imbalance and measure the spread
/// before and after `balance()` passes.
pub fn run_balancing() -> Table {
    let mut params = PodParams::new(8, 4);
    params.policy = AllocPolicy::LocalFirst { threshold: 100 };
    let mut pod = PodSim::new(params);
    // Pile synthetic load onto the first NIC.
    let devs = pod.orch.devices_of(DeviceKind::Nic);
    pod.orch.set_load(devs[0], 95);
    for &d in &devs[1..] {
        pod.orch.set_load(d, 10);
    }
    let before: Vec<u8> = devs
        .iter()
        .map(|&d| pod.orch.device(d).unwrap().load)
        .collect();
    let mut moved = 0;
    for _ in 0..4 {
        moved += pod.orch.balance(&mut pod.fabric, 30);
    }
    pod.run_control(Nanos::from_micros(500));
    let after: Vec<u8> = devs
        .iter()
        .map(|&d| pod.orch.device(d).unwrap().load)
        .collect();
    let mut t = Table::new(&["stage", "load_spread", "migrations"]);
    let spread = |v: &[u8]| (*v.iter().max().unwrap() - *v.iter().min().unwrap()).to_string();
    t.row(&["before", &spread(&before), "0"]);
    t.row(&["after", &spread(&after), &moved.to_string()]);
    t
}

/// Dynamic load balancing (§1 benefit 3 / §4.2): hosts with
/// phase-shifted sinusoidal NIC demand, orchestrator re-balancing every
/// epoch vs a static assignment. Reported: overloaded device-epochs
/// and the mean of the per-epoch hottest-device load.
pub fn run_dynamic_balance(scale: Scale) -> Table {
    let epochs = scale.pick(200u32, 2_000);
    let hosts = 8usize;
    let nics = 4usize;
    let capacity = 100.0f64;
    let mut t = Table::new(&[
        "strategy",
        "overload_epochs_pct",
        "mean_peak_load",
        "migrations",
    ]);
    for balance in [false, true] {
        let mut params = PodParams::new(hosts as u16, nics as u16);
        params.policy = AllocPolicy::LocalFirst { threshold: 80 };
        let mut pod = PodSim::new(params);
        let devs = pod.orch.devices_of(DeviceKind::Nic);
        let mut rng = Rng::new(0xBA1A + balance as u64);
        let mut overloaded = 0u32;
        let mut peak_sum = 0.0;
        let rotation = (epochs / 4).max(1);
        for epoch in 0..epochs {
            // A rotating hot set chosen to *colocate* on the initial
            // assignment (hosts h and h+4 share a NIC): a static
            // mapping overloads one device every regime; the
            // orchestrator can split the pair.
            let shift = (epoch / rotation) as usize;
            let demands: Vec<f64> = (0..hosts)
                .map(|h| {
                    let hot = h % nics == shift % nics;
                    let base = if hot { 70.0 } else { 12.0 };
                    (base + rng.normal(0.0, 4.0)).max(1.0)
                })
                .collect();
            // Device load = sum of its users' demands.
            let mut load = vec![0.0f64; nics];
            for (h, d) in demands.iter().enumerate() {
                if let Some(dev) = pod.orch.assignment(HostId(h as u16), DeviceKind::Nic) {
                    let idx = devs.iter().position(|&x| x == dev).expect("known dev");
                    load[idx] += d;
                }
            }
            let peak = load.iter().cloned().fold(0.0, f64::max);
            peak_sum += peak;
            if load.iter().any(|&l| l > capacity) {
                overloaded += 1;
            }
            // Report device and host loads, then optionally balance.
            for (i, &dev) in devs.iter().enumerate() {
                let pct = ((load[i] / capacity) * 100.0).min(255.0) as u8;
                pod.orch.set_load(dev, pct.min(100));
            }
            for (h, d) in demands.iter().enumerate() {
                pod.orch
                    .set_host_load(HostId(h as u16), (*d).min(100.0) as u8);
            }
            if balance {
                pod.orch.balance(&mut pod.fabric, 25);
                pod.run_control(Nanos::from_micros(50));
            }
        }
        t.row(&[
            if balance {
                "orchestrated (balance each epoch)"
            } else {
                "static assignment"
            },
            &fmt_f64(overloaded as f64 / epochs as f64 * 100.0),
            &fmt_f64(peak_sum / epochs as f64),
            &pod.orch.migrations.to_string(),
        ]);
    }
    t
}

/// Fair sharing: several hosts push through ONE pooled NIC at once
/// ("pools can dynamically adjust the number of hosts using a PCIe
/// device"). The attach agent's round-robin polling and the NIC line
/// are the arbiters; we report per-host throughput and the fairness
/// spread.
pub fn run_sharing(scale: Scale) -> Table {
    use cxl_pool_core::bonding::BondedNic;
    let frames = scale.pick(48u64, 256);
    let mut t = Table::new(&[
        "sharers",
        "per_host_gbps_min",
        "per_host_gbps_max",
        "fairness",
    ]);
    for sharers in [1u16, 2, 4] {
        let mut params = PodParams::new(8, 1);
        params.io_slots = 64;
        let mut pod = PodSim::new(params);
        let dev = pod.orch.devices_of(DeviceKind::Nic)[0];
        // Interleave submissions from each sharer round-robin so they
        // genuinely contend for the same agent + NIC line.
        let mut bonds: Vec<BondedNic> = (0..sharers)
            .map(|i| BondedNic::over(HostId(4 + i), vec![dev]))
            .collect();
        let payload = vec![0xF0u8; 9000];
        let issued = pod.time();
        let window = 8usize;
        let mut inflight: Vec<Vec<InFlight>> = (0..sharers).map(|_| Vec::new()).collect();
        let mut done: Vec<Nanos> = vec![issued; sharers as usize];
        for _ in 0..frames {
            for (s, bond) in bonds.iter_mut().enumerate() {
                if inflight[s].len() >= window {
                    let f = inflight[s].remove(0);
                    let d = pod.time() + Nanos::from_millis(500);
                    let r = pod.finish(f.with_deadline(d)).expect("await");
                    done[s] = done[s].max(r.at);
                }
                inflight[s].push(bond.submit_one(&mut pod, &payload).expect("submit"));
            }
        }
        for (s, ops) in inflight.into_iter().enumerate() {
            for f in ops {
                let d = pod.time() + Nanos::from_millis(500);
                let r = pod.finish(f.with_deadline(d)).expect("await");
                done[s] = done[s].max(r.at);
            }
        }
        let rates: Vec<f64> = done
            .iter()
            .map(|&d| {
                frames as f64 * 9000.0 * 8.0 / (d.saturating_sub(issued)).as_nanos().max(1) as f64
            })
            .collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        t.row(&[
            &sharers.to_string(),
            &fmt_f64(min),
            &fmt_f64(max),
            &fmt_f64(min / max),
        ]);
    }
    t
}

/// Descriptor-ring placement ablation (§4.1 "I/O-related buffers"):
/// per-frame TX cost when the descriptor ring lives in local DRAM vs
/// pool memory (payload in the pool in both cases).
pub fn run_desc_placement(scale: Scale) -> Table {
    use pcie_sim::{BufRef, DescRing, DeviceId, Nic, NicConfig};
    let iters = scale.pick(300u32, 3_000);
    let mut t = Table::new(&["desc_ring", "per_frame_us_p50", "overhead_pct"]);
    let mut base_p50 = 0.0;
    for pool_ring in [false, true] {
        let mut fabric = cxl_fabric::Fabric::new(cxl_fabric::PodConfig::new(2, 2, 2));
        let seg = fabric
            .alloc_shared(&[HostId(0), HostId(1)], 1 << 20)
            .expect("alloc");
        let mut nic = Nic::new(DeviceId(0), HostId(0), NicConfig::default());
        let ring_buf = if pool_ring {
            BufRef::Pool(seg.base())
        } else {
            BufRef::Local(0x8000)
        };
        let mut ring = DescRing::new(ring_buf, 64);
        let payload_base = seg.base() + 4096;
        fabric
            .nt_store(Nanos(0), HostId(1), payload_base, &[7u8; 1500])
            .expect("stage");
        let mut h = Histogram::new();
        let mut now = Nanos(1_000);
        for _ in 0..iters {
            let posted = ring
                .post(
                    &mut fabric,
                    now,
                    HostId(1),
                    BufRef::Pool(payload_base),
                    1500,
                )
                .expect("post");
            let frame = nic
                .transmit_from_ring(&mut fabric, posted, &mut ring)
                .expect("tx")
                .expect("frame");
            h.record((frame.wire_exit - now).as_nanos());
            now = frame.wire_exit + Nanos(500);
        }
        let p50 = h.quantile(0.5) as f64;
        if !pool_ring {
            base_p50 = p50;
        }
        t.row(&[
            if pool_ring { "CXL pool" } else { "local DRAM" },
            &fmt_f64(p50 / 1e3),
            &fmt_f64((p50 - base_p50) / base_p50 * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_balance_beats_static() {
        let t = run_dynamic_balance(Scale::Quick);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let static_overload: f64 = rows[0].split(',').nth(1).unwrap().parse().unwrap();
        let balanced_overload: f64 = rows[1].split(',').nth(1).unwrap().parse().unwrap();
        assert!(
            balanced_overload <= static_overload,
            "balancing should not increase overload: {balanced_overload} vs {static_overload}"
        );
    }

    #[test]
    fn desc_placement_overhead_is_positive_and_small() {
        let t = run_desc_placement(Scale::Quick);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let overhead: f64 = rows[1].split(',').nth(2).unwrap().parse().unwrap();
        assert!(overhead > 0.0, "pool ring must cost something");
        assert!(overhead < 50.0, "but not dominate: {overhead}%");
    }

    #[test]
    fn forwarding_table_shows_both_paths() {
        let t = run_forwarding(Scale::Quick);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn failover_completes_in_milliseconds() {
        let t = run_failover(Scale::Quick);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn policy_table_covers_three_policies() {
        let t = run_policies(Scale::Quick);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn balancing_reduces_spread() {
        let t = run_balancing();
        assert_eq!(t.len(), 2);
    }
}
