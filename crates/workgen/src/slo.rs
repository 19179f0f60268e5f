//! Service-level objectives over measured latency distributions.

use simkit::stats::Histogram;
use simkit::Nanos;

/// A latency SLO: "the `quantile` latency stays under `limit`, with at
/// most `max_error_frac` of operations failing outright".
///
/// Timed-out operations are recorded *censored at their deadline* by
/// the engine, so they both count toward the error fraction and drag
/// the measured tail up — an overloaded or faulted pod cannot pass by
/// dropping its slowest requests.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Quantile being constrained, in `(0, 1]` (0.99 = p99).
    pub quantile: f64,
    /// Latency bound for that quantile.
    pub limit: Nanos,
    /// Tolerated fraction of failed/timed-out operations.
    pub max_error_frac: f64,
}

impl SloSpec {
    /// The common case: `p99 < limit`, no tolerated errors.
    pub fn p99(limit: Nanos) -> SloSpec {
        SloSpec {
            quantile: 0.99,
            limit,
            max_error_frac: 0.0,
        }
    }

    /// Checks the SLO against a measured distribution.
    ///
    /// `errors` is the number of failed operations among `hist`'s
    /// samples (already censored into the histogram). An empty
    /// distribution fails: a tenant that got no operations through its
    /// measurement window is not meeting any objective.
    pub fn check(&self, hist: &Histogram, errors: u64) -> SloVerdict {
        let observed = Nanos(hist.quantile(self.quantile));
        let ops = hist.count();
        let error_frac = if ops == 0 {
            1.0
        } else {
            errors as f64 / ops as f64
        };
        SloVerdict {
            pass: ops > 0 && observed <= self.limit && error_frac <= self.max_error_frac,
            observed,
            spec: *self,
            ops,
            errors,
        }
    }
}

/// The outcome of checking one [`SloSpec`].
#[derive(Clone, Copy, Debug)]
pub struct SloVerdict {
    /// Whether the SLO held.
    pub pass: bool,
    /// The observed latency at the constrained quantile.
    pub observed: Nanos,
    /// The spec that was checked.
    pub spec: SloSpec,
    /// Operations measured (including censored failures).
    pub ops: u64,
    /// Failed/timed-out operations among them.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn passes_under_limit() {
        let h = hist(&[1_000; 100]);
        let v = SloSpec::p99(Nanos::from_micros(10)).check(&h, 0);
        assert!(v.pass);
        assert!(v.observed <= Nanos::from_micros(2));
    }

    #[test]
    fn fails_when_tail_exceeds_limit() {
        let mut values = vec![1_000u64; 95];
        values.extend([100_000; 5]); // 5% at 100µs.
        let v = SloSpec::p99(Nanos::from_micros(10)).check(&hist(&values), 0);
        assert!(!v.pass);
        assert!(v.observed > Nanos::from_micros(10));
    }

    #[test]
    fn errors_fail_a_zero_tolerance_slo() {
        let h = hist(&[1_000; 100]);
        let v = SloSpec::p99(Nanos::from_micros(10)).check(&h, 1);
        assert!(!v.pass, "one error must break max_error_frac = 0");
    }

    #[test]
    fn error_budget_tolerates_some_failures() {
        let slo = SloSpec {
            quantile: 0.5,
            limit: Nanos::from_micros(10),
            max_error_frac: 0.05,
        };
        let h = hist(&[1_000; 100]);
        assert!(slo.check(&h, 4).pass);
        assert!(!slo.check(&h, 6).pass);
    }

    #[test]
    fn empty_distribution_fails() {
        let v = SloSpec::p99(Nanos::from_micros(10)).check(&Histogram::new(), 0);
        assert!(!v.pass);
        assert_eq!(v.ops, 0);
    }
}
