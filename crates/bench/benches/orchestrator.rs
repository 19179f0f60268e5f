//! Criterion benches for the control plane (§4.2): pod construction,
//! allocation, and failover handling.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_fabric::HostId;
use cxl_pool_core::pod::{PodParams, PodSim};
use cxl_pool_core::vdev::DeviceKind;
use simkit::Nanos;

fn bench_pod_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pod");
    group.sample_size(10);
    group.bench_function("build_8_hosts", |b| {
        b.iter(|| criterion::black_box(PodSim::new(PodParams::new(8, 4))));
    });
    group.finish();
}

fn bench_allocate(c: &mut Criterion) {
    c.bench_function("orchestrator_allocate", |b| {
        let mut pod = PodSim::new(PodParams::new(8, 4));
        let mut h = 0u16;
        b.iter(|| {
            h = (h + 1) % 8;
            let dev = pod
                .orch
                .allocate(&mut pod.fabric, HostId(h), DeviceKind::Nic)
                .expect("allocate");
            // Drain the Assign message so long runs don't fill the
            // agent ring and block the channel.
            pod.run_control(Nanos::from_micros(1));
            criterion::black_box(dev)
        });
    });
}

fn bench_failover(c: &mut Criterion) {
    let mut group = c.benchmark_group("failover");
    group.sample_size(10);
    group.bench_function("fail_and_recover", |b| {
        b.iter(|| {
            let mut pod = PodSim::new(PodParams::new(4, 2));
            let dev = pod.binding(HostId(3), DeviceKind::Nic).expect("bound");
            pod.fail_device(dev);
            let d = pod.time() + Nanos::from_millis(10);
            let _ = pod.vnic_send(HostId(3), &[0u8; 64], d);
            pod.run_control(Nanos::from_millis(1));
            let d = pod.time() + Nanos::from_millis(10);
            criterion::black_box(pod.vnic_send(HostId(3), &[0u8; 64], d).expect("recovered"))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pod_build, bench_allocate, bench_failover);
criterion_main!(benches);
