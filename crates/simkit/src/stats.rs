//! Statistics collection: latency histograms, time-weighted gauges, and
//! summary reduction.

use serde::Serialize;

use crate::time::Nanos;

/// An HDR-style histogram with logarithmic buckets, tuned for latencies
/// spanning nanoseconds to seconds.
///
/// Values are bucketed with ~1.5% relative error (64 sub-buckets per
/// power of two), which is far below the noise floor of any experiment in
/// this workspace. Recording is O(1); quantile queries are O(buckets).
///
/// # Examples
///
/// ```
/// use simkit::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 500] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) >= 290 && h.quantile(0.5) <= 310);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let magnitude = 63 - value.leading_zeros();
    let shift = magnitude - SUB_BUCKET_BITS;
    let sub = (value >> shift) - SUB_BUCKETS;
    ((magnitude - SUB_BUCKET_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
}

fn bucket_midpoint(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let magnitude = index / SUB_BUCKETS - 1 + SUB_BUCKET_BITS as u64;
    let sub = index % SUB_BUCKETS + SUB_BUCKETS;
    let shift = magnitude - SUB_BUCKET_BITS as u64;
    // Midpoint of [sub << shift, (sub+1) << shift).
    (sub << shift) + (1 << shift) / 2
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one raw value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a latency.
    pub fn record_nanos(&mut self, value: Nanos) {
        self.record(value.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (exact, not bucketed).
    ///
    /// Returns 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded value (exact). Returns 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact). Returns 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, approximated to the bucket
    /// midpoint. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Discards every recorded value, keeping the allocated buckets.
    ///
    /// Workload harnesses use this at the warmup/measurement boundary:
    /// record through warmup (so the buckets are hot), then clear and
    /// measure.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reduces to a serializable summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p10: self.quantile(0.10),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }

    /// Full bucket contents as `(bucket_midpoint, count)` pairs, one per
    /// non-empty bucket.
    ///
    /// This is the explicit escape hatch for consumers that genuinely
    /// need the raw distribution; serialized output should prefer
    /// [`Histogram::summary`], which is compact and stable across
    /// bucket-layout changes.
    pub fn bucket_counts(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_midpoint(i).clamp(self.min, self.max), c))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A reduced view of a [`Histogram`]: count, mean, and key quantiles.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// 10th percentile (bucket-approximated).
    pub p10: u64,
    /// Median (bucket-approximated).
    pub p50: u64,
    /// 90th percentile (bucket-approximated).
    pub p90: u64,
    /// 99th percentile (bucket-approximated).
    pub p99: u64,
    /// 99.9th percentile (bucket-approximated).
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A time-weighted average of a piecewise-constant signal (queue depth,
/// devices in use, utilization).
///
/// Call [`TimeWeighted::set`] whenever the value changes; the average
/// weights each value by how long it was held.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: Nanos,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Creates a gauge with initial value `value` at time zero.
    pub fn new(value: f64) -> TimeWeighted {
        TimeWeighted {
            last_time: Nanos::ZERO,
            last_value: value,
            weighted_sum: 0.0,
            total_time: 0.0,
            peak: value,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: Nanos, value: f64) {
        assert!(now >= self.last_time, "time went backwards");
        let dt = (now - self.last_time).as_nanos() as f64;
        self.weighted_sum += self.last_value * dt;
        self.total_time += dt;
        self.last_time = now;
        self.last_value = value;
        self.peak = self.peak.max(value);
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: Nanos, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Peak value observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average over `[0, now]`.
    pub fn average(&self, now: Nanos) -> f64 {
        let dt = (now.saturating_sub(self.last_time)).as_nanos() as f64;
        let total = self.total_time + dt;
        if total == 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * dt) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        // Below SUB_BUCKETS every value has its own bucket; the median of
        // 0..64 is the 32nd smallest value, which is 31.
        assert_eq!(h.quantile(0.5), SUB_BUCKETS / 2 - 1);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.02, "q={q}: got {got}, want {expect}, rel {rel}");
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 250_015.0).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = Histogram::new();
        for v in [10, 1_000, 100_000] {
            h.record(v);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
        // Recording after clear behaves like a fresh histogram.
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn bucket_counts_cover_all_samples() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 500, 50_000] {
            h.record(v);
        }
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        // Exactly three distinct buckets, midpoints within range.
        assert_eq!(buckets.len(), 3);
        for &(mid, _) in &buckets {
            assert!(mid >= h.min() && mid <= h.max());
        }
    }

    #[test]
    fn summary_fields_are_ordered() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::Rng::new(1);
        for _ in 0..10_000 {
            h.record(rng.range(100, 10_000));
        }
        let s = h.summary();
        assert!(s.min <= s.p10 && s.p10 <= s.p50);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(0.0);
        g.set(Nanos(100), 10.0); // 0 for [0,100)
        g.set(Nanos(200), 0.0); // 10 for [100,200)
        assert!((g.average(Nanos(200)) - 5.0).abs() < 1e-9);
        // Holding 0 for another 200ns halves the average again.
        assert!((g.average(Nanos(400)) - 2.5).abs() < 1e-9);
        assert_eq!(g.peak(), 10.0);
    }

    #[test]
    fn time_weighted_add_tracks_deltas() {
        let mut g = TimeWeighted::new(0.0);
        g.add(Nanos(0), 3.0);
        g.add(Nanos(50), 2.0);
        assert_eq!(g.current(), 5.0);
        g.add(Nanos(100), -5.0);
        assert_eq!(g.current(), 0.0);
        // [0,50)=3, [50,100)=5 -> avg over [0,100) = 4.
        assert!((g.average(Nanos(100)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_roundtrip_error_is_small() {
        for v in [
            1u64,
            63,
            64,
            100,
            1_000,
            123_456,
            10_000_000,
            u32::MAX as u64,
        ] {
            let mid = bucket_midpoint(bucket_index(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.016, "v={v} mid={mid} rel={rel}");
        }
    }
}
