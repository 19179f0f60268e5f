//! NIC failover: when a pooled NIC dies, the orchestrator re-binds its
//! users to a surviving device and traffic resumes (§2.2, §4.2).
//!
//! ```sh
//! cargo run --example nic_failover
//! ```

use cxl_fabric::HostId;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::vdev::DeviceKind;
use cxl_pcie_pool::simkit::Nanos;

fn main() {
    let mut pod = PodSim::new(PodParams::new(4, 2));
    let victim_host = HostId(3);

    // Warm traffic on the assigned NIC.
    let deadline = pod.time() + Nanos::from_millis(10);
    pod.vnic_send(victim_host, b"warm-up", deadline)
        .expect("warm-up");
    let dev = pod.binding(victim_host, DeviceKind::Nic).expect("bound");
    println!(
        "host 3 is using NIC {dev:?} (attached to host {:?})",
        pod.attach_of(dev)
    );

    // The NIC dies.
    pod.fail_device(dev);
    let t_fail = pod.time();
    println!("NIC {dev:?} failed at t={t_fail}");

    // The next send fails; the agent reports the failure over the
    // shared-memory channel; the orchestrator re-binds host 3.
    let mut attempts = 0;
    let recovered_at = loop {
        attempts += 1;
        let deadline = pod.time() + Nanos::from_millis(10);
        match pod.vnic_send(victim_host, b"retry", deadline) {
            Ok(r) => break r.at,
            Err(e) => {
                println!("  attempt {attempts}: {e}; letting the control plane run");
                pod.run_control(Nanos::from_micros(200));
            }
        }
    };

    let newdev = pod.binding(victim_host, DeviceKind::Nic).expect("rebound");
    println!(
        "recovered after {attempts} attempts: now on NIC {newdev:?}, \
         failover took {} (failure -> first successful send)",
        recovered_at.saturating_sub(t_fail),
    );
    for ev in &pod.orch.failover_log {
        println!(
            "  orchestrator log: host {:?} moved {:?} -> {:?} at {}",
            ev.host, ev.failed, ev.replacement, ev.at
        );
    }
    assert_ne!(newdev, dev);
}
