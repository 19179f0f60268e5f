//! Property tests for the workload generator: empirical rates, the
//! closed-loop concurrency bound, and schedule determinism.

use proptest::prelude::*;
use simkit::Nanos;
use workgen::{Arrival, Engine, OpKind, SloSpec, TenantSpec, WorkloadSpec};

use cxl_pool_core::pod::{PodParams, PodSim};

fn small_pod() -> PodSim {
    let mut p = PodParams::new(4, 2);
    p.ssd_hosts = vec![0];
    PodSim::new(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An open-loop schedule's empirical rate converges to the
    /// configured mean rate. The span is sized for >= 1000 expected
    /// arrivals, so a 20% tolerance sits far beyond 3 sigma for the
    /// Poisson component; the MMPP's dwell sampling adds variance,
    /// covered by the same margin because each state dwells many times.
    #[test]
    fn open_loop_empirical_rate_tracks_mean(
        seed in any::<u64>(),
        which in 0u8..3,
        rate_k in 20u64..200,
    ) {
        let rate = rate_k as f64 * 1_000.0;
        let arrival = match which {
            0 => Arrival::Poisson { rate_pps: rate },
            1 => Arrival::Bursty {
                low_pps: rate * 0.5,
                high_pps: rate * 1.5,
                dwell_low: Nanos::from_micros(150),
                dwell_high: Nanos::from_micros(150),
            },
            _ => Arrival::Diurnal {
                base_pps: rate * 0.5,
                peak_pps: rate * 1.5,
                // Whole periods inside the span keep the mean exact.
                period: Nanos::from_millis(5),
            },
        };
        let span = Nanos::from_millis(50);
        let sched = arrival.schedule(seed, span);
        let mean = arrival.mean_rate_pps().expect("open loop");
        let expected = mean * span.as_secs_f64();
        let got = sched.len() as f64;
        prop_assert!(
            (got - expected).abs() <= expected * 0.20,
            "expected ~{expected:.0} arrivals, got {got}"
        );
    }

    /// Same seed, same schedule — bit for bit; a different seed moves
    /// at least one arrival.
    #[test]
    fn schedules_are_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        rate_k in 10u64..100,
    ) {
        let a = Arrival::Bursty {
            low_pps: rate_k as f64 * 500.0,
            high_pps: rate_k as f64 * 2_000.0,
            dwell_low: Nanos::from_micros(200),
            dwell_high: Nanos::from_micros(100),
        };
        let span = Nanos::from_millis(5);
        let s1 = a.schedule(seed, span);
        let s2 = a.schedule(seed, span);
        prop_assert_eq!(&s1, &s2);
        let s3 = a.schedule(seed ^ 0x9E37_79B9_7F4A_7C15, span);
        prop_assert!(s1.is_empty() || s1 != s3, "distinct seeds should differ");
    }

    /// A closed-loop tenant never has more operations outstanding than
    /// its configured concurrency, whatever the pod looks like.
    #[test]
    fn closed_loop_respects_concurrency_bound(
        seed in any::<u64>(),
        concurrency in 1usize..6,
        think_us in 0u64..10,
    ) {
        let spec = WorkloadSpec {
            tenants: vec![TenantSpec {
                name: "bound".into(),
                arrival: Arrival::ClosedLoop {
                    concurrency,
                    think: Nanos::from_micros(think_us),
                },
                mix: vec![
                    (OpKind::NicSend { bytes: 256 }, 0.7),
                    (OpKind::SsdRead { blocks: 1 }, 0.3),
                ],
                hosts: vec![2, 3],
                slo: SloSpec::p99(Nanos::from_millis(1)),
            }],
            warmup: Nanos::from_micros(50),
            measure: Nanos::from_micros(400),
            op_timeout: Nanos::from_micros(200),
            balance_every: None,
            fault: None,
            churn: None,
        };
        let mut pod = small_pod();
        let report = Engine::new(seed).run(&mut pod, &spec);
        let t = &report.tenants[0];
        prop_assert!(
            t.peak_in_flight <= concurrency,
            "{} in flight with concurrency {concurrency}",
            t.peak_in_flight
        );
        prop_assert!(t.ops > 0, "closed loop should complete work");
    }
}
