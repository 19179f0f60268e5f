//! Pooled provisioning: SSD and NIC shared across pods of N hosts
//! (§2.1).
//!
//! The paper's √N estimate is a *provisioning-for-variance* argument:
//! a host's SSD/NIC demand is a random variable (it depends on which
//! VMs happen to land there once cores and memory fill), so hardware
//! must be provisioned at a high quantile of per-host demand — and the
//! gap between that quantile and the mean is the stranded capacity.
//! Pooling N hosts aggregates N demands; the pod-level quantile sits
//! only ~√N standard deviations above the pod mean instead of N·(one
//! standard deviation above each host mean), so the stranded fraction
//! shrinks roughly as 1/√N.
//!
//! The experiment: pack hosts on their *host-local* resources (cores,
//! memory), record each host's uncapped SSD/NIC demand, then compare
//! the capacity a provider must provision per host vs per pod at the
//! same service level.

use serde::Serialize;
use simkit::rng::Rng;

use crate::packing::HostShape;
use crate::vm::VmCatalog;

/// Per-host demand sample produced by compute-bound packing.
#[derive(Clone, Copy, Debug)]
pub struct HostDemand {
    /// SSD capacity the host's VMs want (GB) — may exceed the host
    /// shape; that is exactly the demand pooling can serve.
    pub ssd_gb: f64,
    /// NIC bandwidth the host's VMs want (Gbps).
    pub nic_gbps: f64,
}

/// Packs each host to core/memory saturation and records its SSD/NIC
/// demand (uncapped).
pub fn sample_host_demands(
    catalog: &mut VmCatalog,
    shape: &HostShape,
    hosts: usize,
    rng: &mut Rng,
) -> Vec<HostDemand> {
    let mut out = Vec::with_capacity(hosts);
    for _ in 0..hosts {
        let mut cores = shape.cores as i64;
        let mut mem = shape.mem_gb as i64;
        let mut ssd = 0.0;
        let mut nic = 0.0;
        let mut misses = 0;
        while misses < 16 {
            let d = catalog.sample(rng);
            if cores >= d.cores as i64 && mem >= d.mem_gb as i64 {
                cores -= d.cores as i64;
                mem -= d.mem_gb as i64;
                ssd += d.ssd_gb as f64;
                nic += d.nic_gbps;
                misses = 0;
            } else {
                misses += 1;
            }
        }
        out.push(HostDemand {
            ssd_gb: ssd,
            nic_gbps: nic,
        });
    }
    out
}

/// Empirical quantile of a sample (q in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Stranded fraction when capacity is provisioned at quantile `q` of
/// the demand distribution: `(C_q - mean) / C_q`.
fn stranding_at_quantile(demands: &[f64], q: f64) -> f64 {
    let mut sorted = demands.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite demands"));
    let cap = quantile(&sorted, q);
    let mean = demands.iter().sum::<f64>() / demands.len() as f64;
    if cap <= 0.0 {
        return 0.0;
    }
    ((cap - mean) / cap).max(0.0)
}

/// Groups host demands into pods of `n` and returns pod totals.
fn pod_sums(demands: &[f64], n: usize) -> Vec<f64> {
    demands
        .chunks_exact(n)
        .map(|chunk| chunk.iter().sum())
        .collect()
}

/// One row of the pool-size sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PoolSweepRow {
    /// Pod size N.
    pub n: usize,
    /// Stranded SSD fraction with pod-level provisioning.
    pub ssd: f64,
    /// Stranded NIC fraction with pod-level provisioning.
    pub nic: f64,
    /// The paper's √N shortcut anchored at N = 1.
    pub ssd_sqrt_pred: f64,
    /// √N shortcut for NIC.
    pub nic_sqrt_pred: f64,
    /// Pods in the sample.
    pub pods: usize,
}

/// Provisioning quantile: capacity covers this fraction of pods
/// without demand overflow (the service level held constant across N).
pub const SERVICE_QUANTILE: f64 = 0.98;

/// Sweeps pod sizes, measuring stranded SSD/NIC fraction when capacity
/// is provisioned at [`SERVICE_QUANTILE`] of demand, per host (N = 1)
/// or per pod (N > 1).
pub fn sweep_pool_sizes(
    shape: &HostShape,
    hosts: usize,
    sizes: &[usize],
    correlation: f64,
    seed: u64,
) -> Vec<PoolSweepRow> {
    let mut catalog = VmCatalog::azure_like().with_correlation(correlation);
    let mut rng = Rng::new(seed);
    let demands = sample_host_demands(&mut catalog, shape, hosts, &mut rng);
    let ssd: Vec<f64> = demands.iter().map(|d| d.ssd_gb).collect();
    let nic: Vec<f64> = demands.iter().map(|d| d.nic_gbps).collect();

    let mut rows = Vec::new();
    let mut anchor: Option<(f64, f64)> = None;
    for &n in sizes {
        let ssd_pods = pod_sums(&ssd, n);
        let nic_pods = pod_sums(&nic, n);
        let s_ssd = stranding_at_quantile(&ssd_pods, SERVICE_QUANTILE);
        let s_nic = stranding_at_quantile(&nic_pods, SERVICE_QUANTILE);
        let (a_ssd, a_nic) = *anchor.get_or_insert((s_ssd, s_nic));
        rows.push(PoolSweepRow {
            n,
            ssd: s_ssd,
            nic: s_nic,
            ssd_sqrt_pred: a_ssd / (n as f64).sqrt(),
            nic_sqrt_pred: a_nic / (n as f64).sqrt(),
            pods: ssd_pods.len(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(corr: f64) -> Vec<PoolSweepRow> {
        sweep_pool_sizes(
            &HostShape::default_cloud(),
            4096,
            &[1, 2, 4, 8, 16],
            corr,
            21,
        )
    }

    #[test]
    fn per_host_demand_has_variance() {
        let mut cat = VmCatalog::azure_like();
        let mut rng = Rng::new(3);
        let d = sample_host_demands(&mut cat, &HostShape::default_cloud(), 500, &mut rng);
        let ssd: Vec<f64> = d.iter().map(|h| h.ssd_gb).collect();
        let mean = ssd.iter().sum::<f64>() / ssd.len() as f64;
        let var = ssd.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / ssd.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            cv > 0.15,
            "demand too uniform (cv {cv}) for pooling to matter"
        );
        assert!(mean > 500.0, "mean SSD demand {mean} implausibly low");
    }

    #[test]
    fn pooling_reduces_stranding_monotonically() {
        let rows = sweep(0.0);
        for w in rows.windows(2) {
            assert!(
                w[1].ssd < w[0].ssd,
                "SSD stranding should fall: N={} {} -> N={} {}",
                w[0].n,
                w[0].ssd,
                w[1].n,
                w[1].ssd
            );
            assert!(w[1].nic < w[0].nic, "NIC stranding should fall");
        }
    }

    #[test]
    fn measured_decline_tracks_sqrt_n() {
        let rows = sweep(0.0);
        for r in rows.iter().skip(1) {
            let rel = (r.ssd - r.ssd_sqrt_pred).abs() / r.ssd_sqrt_pred;
            assert!(
                rel < 0.5,
                "N={}: measured {} vs sqrt-rule {}",
                r.n,
                r.ssd,
                r.ssd_sqrt_pred
            );
        }
    }

    #[test]
    fn n8_cuts_stranding_near_sqrt8() {
        let rows = sweep(0.0);
        let n1 = &rows[0];
        let n8 = rows.iter().find(|r| r.n == 8).expect("N=8 row");
        let ratio = n1.ssd / n8.ssd;
        // √8 ≈ 2.83; accept the right regime.
        assert!(
            (1.8..4.5).contains(&ratio),
            "N=8 reduction ratio {ratio} not in the √N regime"
        );
    }

    #[test]
    fn correlation_blunts_pooling() {
        let indep = sweep(0.0);
        let corr = sweep(0.9);
        let gain_indep = indep[0].ssd / indep.last().unwrap().ssd;
        let gain_corr = corr[0].ssd / corr.last().unwrap().ssd;
        assert!(
            gain_corr < gain_indep,
            "correlated demand should pool worse: {gain_corr}x vs {gain_indep}x"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(0.0);
        let b = sweep(0.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ssd, y.ssd);
        }
    }
}
