//! Deterministic pseudo-random number generation and distributions.
//!
//! The simulator implements its own PRNG (SplitMix64 for seeding,
//! xoshiro256++ for the stream) so that simulation results are stable
//! across toolchain and dependency upgrades. The generators here are for
//! *simulation*, not cryptography.

/// SplitMix64: a tiny, statistically solid generator used to expand a
/// single `u64` seed into the xoshiro256++ state.
///
/// # Examples
///
/// ```
/// use simkit::rng::SplitMix64;
/// let mut sm = SplitMix64::new(42);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary seed (zero is fine).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++: the workhorse generator for all stochastic simulation
/// inputs (arrival processes, service jitter, workload mixes).
///
/// Seeded via [`SplitMix64`] per the reference implementation, so any
/// `u64` seed — including 0 — yields a well-mixed state.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Splits off an independent child generator (for giving each
    /// simulated component its own stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift method
    /// (unbiased enough for simulation; no rejection loop needed at these
    /// ranges).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be nonempty");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive, got {mean}");
        // Use 1-u so ln never sees exactly 0.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Picks an index from a slice of nonnegative weights proportional to
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be nonempty with positive sum"
        );
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// A Zipf(α) sampler over `{0, .., n-1}` using precomputed cumulative
/// weights — O(log n) per sample, suitable for skewed-access workloads.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` items with skew `alpha` (0 = uniform,
    /// larger = more skewed; 0.99 is the YCSB default).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha < 0`.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(alpha >= 0.0, "alpha must be nonnegative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(alpha);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Samples an item index; index 0 is the hottest.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Rng::new(4);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "sample mean {mean} too far");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = Rng::new(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = Rng::new(8);
        let weights = [1.0, 3.0];
        let n = 100_000;
        let ones = (0..n).filter(|_| r.weighted(&weights) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut r = Rng::new(9);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[50] * 10, "head should dominate");
        assert!(counts.iter().sum::<u32>() == 100_000);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut r = Rng::new(10);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c} not uniform");
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng::new(12);
        let mut child = a.fork();
        let overlap = (0..100)
            .filter(|_| a.next_u64() == child.next_u64())
            .count();
        assert_eq!(overlap, 0);
    }
}
