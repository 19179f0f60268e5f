//! Capacity search: how much multi-tenant load does a pod absorb
//! before an SLO breaks — and what does an MHD failure cost?
//!
//! A tour of the `workgen` library API (DESIGN.md §9): declare a
//! two-tenant workload, run it once at a fixed rate, then binary-search
//! the maximum offered load meeting every SLO, clean and with an MHD
//! failing mid-run. Everything is a pure function of `--seed`.
//!
//! ```sh
//! cargo run --release --example capacity_search [-- --seed 42]
//! ```

use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::simkit::Nanos;
use cxl_pcie_pool::workgen::{
    self, Arrival, CapacityConfig, Engine, FaultPlan, OpKind, RunReport, SloSpec, TenantSpec,
    WorkloadSpec,
};

fn build_pod() -> PodSim {
    // 6 hosts over 2 MHDs; SSDs attach to hosts 0–1, the accelerator
    // to host 2, NICs everywhere. Tenants run on the *other* hosts, so
    // most operations take the MMIO-forwarded remote path.
    let mut p = PodParams::new(6, 2);
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    PodSim::new(p)
}

fn spec(rate_pps: f64) -> WorkloadSpec {
    WorkloadSpec {
        tenants: vec![
            // An open-loop NIC frontend: offered load is independent of
            // how fast the pod serves it, so saturation shows up as
            // queueing delay in the p90 — the hockey stick.
            TenantSpec {
                name: "frontend".into(),
                arrival: Arrival::Poisson { rate_pps },
                mix: vec![(OpKind::NicSend { bytes: 1024 }, 1.0)],
                hosts: vec![3, 4, 5],
                slo: SloSpec {
                    quantile: 0.90,
                    limit: Nanos::from_micros(30),
                    max_error_frac: 0.10,
                },
            },
            // A closed-loop batch tenant: fixed concurrency with think
            // time, so it self-throttles and contributes steady load.
            TenantSpec {
                name: "scans".into(),
                arrival: Arrival::ClosedLoop {
                    concurrency: 2,
                    think: Nanos::from_micros(10),
                },
                mix: vec![
                    (OpKind::SsdRead { blocks: 1 }, 0.7),
                    (OpKind::SsdWrite { blocks: 1 }, 0.3),
                ],
                hosts: vec![2, 4],
                slo: SloSpec {
                    quantile: 0.90,
                    limit: Nanos::from_micros(300),
                    max_error_frac: 0.10,
                },
            },
        ],
        warmup: Nanos::from_micros(300),
        measure: Nanos::from_micros(2_000),
        op_timeout: Nanos::from_micros(150),
        balance_every: Some(Nanos::from_millis(1)),
        fault: None,
        churn: None,
    }
}

fn print_report(r: &RunReport) {
    println!(
        "  offered {:>8.0} pps, achieved {:>8.0} pps, {} ops, {} errors",
        r.offered_pps, r.achieved_pps, r.ops, r.errors
    );
    for t in &r.tenants {
        println!(
            "    {:<10} p50 {:>7} ns  p90 {:>7} ns  p99 {:>7} ns  SLO {} \
             (p{:.0} observed {} ns, limit {} ns)",
            t.name,
            t.latency.p50,
            t.latency.p90,
            t.latency.p99,
            if t.verdict.pass { "PASS" } else { "FAIL" },
            t.verdict.spec.quantile * 100.0,
            t.verdict.observed.as_nanos(),
            t.verdict.spec.limit.as_nanos(),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes a u64");
            }
            other => {
                eprintln!("usage: capacity_search [--seed N] (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    // 1. One fixed-rate run: is 25k pps comfortable for this pod?
    println!("== single run at 25,000 pps (seed {seed}) ==");
    let mut pod = build_pod();
    let report = Engine::new(seed).run(&mut pod, &spec(25_000.0));
    print_report(&report);

    // 2. Binary-search the knee: largest total offered load where
    //    every tenant's SLO still passes. Each trial rebuilds the pod
    //    from the seed, so trials are independent and reproducible.
    let cfg = CapacityConfig {
        lo_pps: 8_000.0,
        hi_pps: 240_000.0,
        iters: 5,
    };
    println!("\n== capacity search, clean pod ==");
    let clean = workgen::capacity::search(build_pod, &spec(25_000.0), &cfg, seed);
    for t in &clean.trials {
        println!(
            "  trial {:>8.0} pps → {} (worst: {} at {} ns)",
            t.offered_pps,
            if t.pass { "pass" } else { "FAIL" },
            t.worst_tenant,
            t.worst_observed.as_nanos(),
        );
    }
    println!("  capacity: {:.0} pps", clean.capacity_pps);

    // 3. Same search with MHD 1 failing mid-run; software recovery
    //    (PodSim::recover_pool_failure) rebuilds the channels 100 µs
    //    later. Operations caught in the outage are censored at their
    //    timeout deadline, dragging the measured tail — so capacity
    //    under the fault is strictly lower.
    let mut faulted = spec(25_000.0);
    faulted.fault = Some(FaultPlan::mhd(
        1,
        Nanos::from_micros(900),
        Nanos::from_micros(100),
    ));
    println!("\n== capacity search, MHD 1 fails mid-run ==");
    let degraded = workgen::capacity::search(build_pod, &faulted, &cfg, seed);
    println!("  capacity: {:.0} pps", degraded.capacity_pps);

    let loss = 100.0 * (1.0 - degraded.capacity_pps / clean.capacity_pps.max(1.0));
    println!(
        "\nMHD failure costs {loss:.1} % of SLO capacity \
         ({:.0} → {:.0} pps); graceful, not a cliff.",
        clean.capacity_pps, degraded.capacity_pps
    );
    assert!(
        degraded.capacity_pps < clean.capacity_pps,
        "fault must cost capacity"
    );
}
