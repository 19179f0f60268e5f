//! Unit-cost probes: one public function called in a loop on a fresh,
//! warmed object. Each probe times several batches and reports the
//! fastest batch's host cost per call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bench::workload::pod_params;
use cxl_fabric::{Fabric, HostId, PodConfig};
use cxl_pool_core::pod::PodSim;
use cxl_pool_core::vdev::DeviceKind;
use shmem::{PollOutcome, RingBuf};
use simkit::server::TimelineServer;
use simkit::{Nanos, Scheduler};

use crate::ledger::min;

const BATCHES: usize = 7;

/// Host ns per call of `f`: `warm` untimed calls, then the fastest of
/// [`BATCHES`] batches of `per_batch` calls. The fastest batch is the
/// one least disturbed by whatever else shares the host's cores.
fn per_call_ns(warm: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    min(&batches)
}

/// A deadline far enough out that no probe op times out.
fn deadline(pod: &PodSim) -> Nanos {
    pod.time() + Nanos::from_millis(10)
}

/// Host µs per call of `op` on a fresh pod built from `seed`.
fn pod_op_us(seed: u64, mut op: impl FnMut(&mut PodSim, u64)) -> f64 {
    let mut pod = PodSim::new(pod_params(seed));
    let mut i = 0u64;
    per_call_ns(20, 50, || {
        op(&mut pod, i);
        i += 1;
    }) / 1e3
}

/// Probes of the pod layers: idle control-plane time, one forwarded op
/// per kind, a pool load, an empty ring poll and a timeline booking.
pub fn pod_probes(seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    // Device-less hosts, so every op is forwarded through the pool:
    // host 3 issues NIC and accelerator work, host 4 SSD work.
    let (net, ssd) = (HostId(3), HostId(4));

    let mut pod = PodSim::new(pod_params(seed));
    let step = Nanos::from_micros(100);
    let idle = per_call_ns(5, 10, || pod.run_control(step));
    out.insert("pod.idle_host_ns_per_sim_us", idle / 100.0);

    let send = pod_op_us(seed, |pod, _| {
        let d = deadline(pod);
        black_box(pod.vnic_send(net, &[0x5A; 1024], d).expect("probe send"));
    });
    out.insert("pod.op_host_us.nic_send", send);

    let recv = pod_op_us(seed, |pod, _| {
        let d = deadline(pod);
        let dev = pod.binding(net, DeviceKind::Nic).expect("NIC bound");
        pod.vnic_post_rx(net, d).expect("probe post");
        let got = pod.deliver_frame(dev, &[0xA5; 512]).expect("probe frame");
        assert!(got.is_some(), "posted buffer took the frame");
        black_box(pod.vnic_poll_rx(net, d).expect("probe receive"));
    });
    out.insert("pod.op_host_us.nic_recv", recv);

    let read = pod_op_us(seed, |pod, i| {
        let d = deadline(pod);
        black_box(pod.vssd_read(ssd, i % 1024, 1, d).expect("probe read"));
    });
    out.insert("pod.op_host_us.ssd_read", read);

    let write = pod_op_us(seed, |pod, i| {
        let d = deadline(pod);
        let buf = pod.io_buf(ssd);
        black_box(
            pod.vssd_write(ssd, i % 1024, 1, buf, d)
                .expect("probe write"),
        );
    });
    out.insert("pod.op_host_us.ssd_write", write);

    let accel = pod_op_us(seed, |pod, _| {
        let d = deadline(pod);
        black_box(pod.vaccel_run(net, &[0x3C; 2048], d).expect("probe job"));
    });
    out.insert("pod.op_host_us.accel_run", accel);

    // One line that misses the host cache, as a ring poll loads it.
    let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
    let seg = fabric
        .alloc_shared(&[HostId(0)], 1 << 16)
        .expect("probe segment");
    let (mut line, mut t) = ([0u8; 64], Nanos::ZERO);
    let load = per_call_ns(1_000, 20_000, || {
        let ti = fabric.invalidate(t, HostId(0), seg.base(), 64);
        t = fabric
            .load(ti, HostId(0), seg.base(), &mut line)
            .expect("probe load");
    });
    out.insert("fabric.load_host_ns", load);

    let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
    let ring = RingBuf::allocate(&mut fabric, HostId(0), HostId(1), 64).expect("probe ring");
    let (_tx, mut rx) = ring.split();
    let mut t = Nanos::ZERO;
    let poll = per_call_ns(1_000, 20_000, || {
        match rx.poll(&mut fabric, t).expect("probe poll") {
            PollOutcome::Empty(at) => t = at,
            PollOutcome::Msg { .. } => unreachable!("nothing was sent"),
        }
    });
    out.insert("shmem.poll_host_ns", poll);

    let mut server = TimelineServer::new();
    let mut now = Nanos::ZERO;
    let serve = per_call_ns(10_000, 200_000, || {
        now += Nanos(7);
        black_box(server.serve(now, Nanos(5)));
    });
    out.insert("timeline.serve_host_ns", serve);
}

/// Probe of the event loop: one `Scheduler` push plus one pop, with 64
/// events pending.
pub fn sched_probe(out: &mut BTreeMap<&'static str, f64>) {
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..64 {
        sched.schedule(Nanos(i * 13), i);
    }
    let cost = per_call_ns(10_000, 200_000, || {
        let (at, ev) = sched.pop().expect("events pending");
        sched.schedule(at + Nanos(64 * 13 + ev % 7), black_box(ev));
    });
    out.insert("sched.push_pop_host_ns", cost);
}
