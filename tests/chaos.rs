//! Chaos testing: random device failures and repairs under continuous
//! traffic. The invariants:
//!
//! 1. No payload is ever corrupted (frames carry exact bytes or fail
//!    cleanly).
//! 2. As long as one device of the kind survives, traffic always
//!    recovers within a bounded number of retries.
//! 3. The orchestrator's registry never routes a host to a device it
//!    believes is down.
//!
//! Each scenario runs under both coherence-audit analyses and must stay
//! audit-clean in each.

use cxl_fabric::{AuditMode, HostId};
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::vdev::DeviceKind;
use simkit::rng::Rng;
use simkit::Nanos;

fn deadline(pod: &PodSim) -> Nanos {
    pod.time() + Nanos::from_millis(50)
}

#[test]
fn random_failures_never_corrupt_traffic() {
    for mode in AuditMode::ALL {
        random_failures_under(mode);
    }
}

fn random_failures_under(mode: AuditMode) {
    let mut rng = Rng::new(0xC8A0);
    let mut pod = PodSim::new(PodParams::new(6, 3));
    pod.enable_audit_mode(mode);
    let nics = pod.orch.devices_of(DeviceKind::Nic);
    let mut down: Vec<bool> = vec![false; nics.len()];
    let mut sent = 0u64;
    let mut delivered = 0u64;

    for round in 0..120u32 {
        // Random failure/repair, keeping at least one NIC alive.
        let roll = rng.below(10);
        if roll == 0 {
            let alive: Vec<usize> = (0..nics.len()).filter(|&i| !down[i]).collect();
            if alive.len() > 1 {
                let victim = alive[rng.below(alive.len() as u64) as usize];
                pod.fail_device(nics[victim]);
                down[victim] = true;
            }
        } else if roll == 1 {
            let dead: Vec<usize> = (0..nics.len()).filter(|&i| down[i]).collect();
            if let Some(&fix) = dead.first() {
                pod.repair_device(nics[fix]);
                down[fix] = false;
            }
        }

        // Every host sends one uniquely-patterned packet, retrying
        // through failovers.
        for h in 0..6u16 {
            let host = HostId(h);
            let payload: Vec<u8> = (0..300u32)
                .map(|i| (i as u8) ^ (h as u8) ^ (round as u8))
                .collect();
            sent += 1;
            let mut ok = false;
            for _ in 0..12 {
                let d = deadline(&pod);
                match pod.vnic_send(host, &payload, d) {
                    Ok(_) => {
                        ok = true;
                        break;
                    }
                    Err(_) => pod.run_control(Nanos::from_micros(300)),
                }
            }
            assert!(
                ok,
                "{mode:?}: host {h} starved in round {round} (down: {down:?})"
            );
            delivered += 1;
            // Verify the frame on whichever NIC carried it.
            let dev = pod.binding(host, DeviceKind::Nic).expect("bound");
            let frames = pod.take_frames(dev);
            let found = frames.iter().any(|f| f.bytes == payload);
            assert!(
                found,
                "{mode:?}: host {h} round {round}: payload corrupted or lost"
            );
        }
    }
    assert_eq!(sent, delivered, "{mode:?}");
    assert!(sent >= 720, "{mode:?}: only {sent} sends");
    // Even under chaos the protocols must follow the coherence
    // discipline to the letter.
    let report = pod.audit_finalize().expect("audit on");
    assert!(
        report.is_clean(),
        "{mode:?} coherence violations:\n{}",
        report.render()
    );
    assert!(report.ops_audited > 0, "{mode:?}: audit saw no traffic");
}

#[test]
fn orchestrator_never_binds_to_known_dead_devices() {
    for mode in AuditMode::ALL {
        dead_device_bindings_under(mode);
    }
}

fn dead_device_bindings_under(mode: AuditMode) {
    let mut rng = Rng::new(0xC8A1);
    let mut pod = PodSim::new(PodParams::new(8, 4));
    pod.enable_audit_mode(mode);
    let nics = pod.orch.devices_of(DeviceKind::Nic);
    for _ in 0..60 {
        let victim = nics[rng.below(nics.len() as u64) as usize];
        // Tell the orchestrator directly (simulates a failure report).
        pod.orch.on_failure(&mut pod.fabric, victim);
        pod.run_control(Nanos::from_micros(200));
        // Every binding the orchestrator owns must point at an up
        // device (or be absent when the pool is exhausted).
        for h in 0..8u16 {
            if let Some(dev) = pod.orch.assignment(HostId(h), DeviceKind::Nic) {
                let info = pod.orch.device(dev).expect("registered");
                assert!(info.up, "{mode:?}: host {h} bound to dead {dev:?}");
            }
        }
        // Repair someone at random so the pool doesn't drain.
        let fix = nics[rng.below(nics.len() as u64) as usize];
        pod.repair_device(fix);
    }
    let report = pod.audit_finalize().expect("audit on");
    assert!(
        report.is_clean(),
        "{mode:?} coherence violations:\n{}",
        report.render()
    );
}

#[test]
fn mixed_device_chaos_keeps_all_kinds_functional() {
    for mode in AuditMode::ALL {
        mixed_device_chaos_under(mode);
    }
}

fn mixed_device_chaos_under(mode: AuditMode) {
    let mut params = PodParams::new(6, 2);
    params.ssd_hosts = vec![0, 1];
    params.accel_hosts = vec![2, 3];
    let mut pod = PodSim::new(params);
    pod.enable_audit_mode(mode);
    let mut rng = Rng::new(0xC8A2);
    let input: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
    for round in 0..30u32 {
        // Fail one random device of a random kind, repair it next round.
        let kind = match rng.below(3) {
            0 => DeviceKind::Nic,
            1 => DeviceKind::Ssd,
            _ => DeviceKind::Accel,
        };
        let devs = pod.orch.devices_of(kind);
        let victim = devs[rng.below(devs.len() as u64) as usize];
        pod.fail_device(victim);

        // All three kinds must keep serving host 5 (retry allowed).
        let host = HostId(5);
        let mut nic_ok = false;
        let mut ssd_ok = false;
        let mut accel_ok = false;
        for _ in 0..12 {
            let d = deadline(&pod);
            if !nic_ok && pod.vnic_send(host, &input, d).is_ok() {
                nic_ok = true;
            }
            let d = deadline(&pod);
            if !ssd_ok && pod.vssd_read(host, round as u64, 1, d).is_ok() {
                ssd_ok = true;
            }
            let d = deadline(&pod);
            if !accel_ok && pod.vaccel_run(host, &input, d).is_ok() {
                accel_ok = true;
            }
            if nic_ok && ssd_ok && accel_ok {
                break;
            }
            pod.run_control(Nanos::from_micros(300));
        }
        assert!(
            nic_ok && ssd_ok && accel_ok,
            "{mode:?} round {round}: nic={nic_ok} ssd={ssd_ok} accel={accel_ok} after failing {victim:?}"
        );

        pod.repair_device(victim);
    }
    let report = pod.audit_finalize().expect("audit on");
    assert!(
        report.is_clean(),
        "{mode:?} coherence violations:\n{}",
        report.render()
    );
}
