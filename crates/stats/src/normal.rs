//! Fitted normal distributions with confidence bounds.
//!
//! The autotuner represents both timing and accuracy observations as
//! normal distributions fit by least squares (§5.5.1), which for a normal
//! model coincides with the sample mean and variance. When a programmer
//! supplies hand-proven fixed accuracies, the fit degenerates to a point
//! mass ([`Normal::point`]).

use crate::online::OnlineStats;
use crate::special::erf;

/// A normal distribution, typically fit to observed timings or accuracies.
///
/// # Examples
///
/// ```
/// use pb_stats::Normal;
///
/// let n = Normal::fit(&[9.8, 10.1, 10.0, 9.9, 10.2]);
/// assert!((n.mean() - 10.0).abs() < 0.01);
/// // 95% lower confidence bound on the mean is slightly below the mean.
/// assert!(n.lower_confidence_bound(0.95) < n.mean());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
    /// Number of samples the fit was computed from (0 for analytic point
    /// distributions).
    samples: u64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is NaN.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            !mean.is_nan() && !std_dev.is_nan(),
            "parameters must not be NaN"
        );
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Normal {
            mean,
            std_dev,
            samples: 0,
        }
    }

    /// A degenerate point distribution at `value`, used for hand-proven
    /// fixed accuracies (§5.5.1: "the normal distributions will become
    /// singular points").
    pub fn point(value: f64) -> Self {
        Normal::new(value, 0.0)
    }

    /// Fits a normal distribution to samples (sample mean / sample
    /// standard deviation, the least-squares estimator for the normal
    /// family).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(samples: &[f64]) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot fit a distribution to no samples"
        );
        let stats: OnlineStats = samples.iter().copied().collect();
        Normal::from_stats(&stats)
    }

    /// Fits from a pre-accumulated [`OnlineStats`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn from_stats(stats: &OnlineStats) -> Self {
        assert!(!stats.is_empty(), "cannot fit a distribution to no samples");
        Normal {
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            samples: stats.count(),
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Number of samples used for the fit (zero for analytic
    /// distributions).
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// Whether this is a degenerate (zero-variance) point distribution.
    pub fn is_point(&self) -> bool {
        self.std_dev == 0.0
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.is_point() {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        0.5 * (1.0 + erf((x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2)))
    }

    /// Quantile (inverse CDF) via bisection on the CDF.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1)");
        if self.is_point() {
            return self.mean;
        }
        // Bracket +-10 sigma and bisect; 80 iterations gives ~1e-18
        // relative bracket width, far below f64 precision.
        let mut lo = self.mean - 10.0 * self.std_dev;
        let mut hi = self.mean + 10.0 * self.std_dev;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// One-sided lower confidence bound on the distribution mean at the
    /// given confidence level, based on the standard error of the fit.
    ///
    /// For a point distribution the bound is the point itself. The paper
    /// uses such bounds to state "with 95% confidence the accuracy is at
    /// least X" for statistical accuracy guarantees (§3.3).
    pub fn lower_confidence_bound(&self, confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        if self.is_point() || self.samples <= 1 {
            return self.mean;
        }
        let se = self.std_dev / (self.samples as f64).sqrt();
        let z = standard_normal_quantile(confidence);
        self.mean - z * se
    }

    /// One-sided upper confidence bound on the distribution mean.
    pub fn upper_confidence_bound(&self, confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        if self.is_point() || self.samples <= 1 {
            return self.mean;
        }
        let se = self.std_dev / (self.samples as f64).sqrt();
        let z = standard_normal_quantile(confidence);
        self.mean + z * se
    }
}

/// Quantile of the standard normal distribution via bisection.
fn standard_normal_quantile(p: f64) -> f64 {
    let n = Normal::new(0.0, 1.0);
    n.quantile(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_mean_and_std() {
        let n = Normal::fit(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((n.mean() - 3.0).abs() < 1e-12);
        assert!((n.std_dev() - 2.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(n.sample_count(), 5);
    }

    #[test]
    fn point_distribution_cdf_is_step() {
        let p = Normal::point(7.0);
        assert!(p.is_point());
        assert_eq!(p.cdf(6.999), 0.0);
        assert_eq!(p.cdf(7.0), 1.0);
        assert_eq!(p.quantile(0.5), 7.0);
        assert_eq!(p.lower_confidence_bound(0.95), 7.0);
    }

    #[test]
    fn cdf_standard_values() {
        let n = Normal::new(0.0, 1.0);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.96) - 0.9750021).abs() < 1e-5);
        assert!((n.cdf(-1.96) - 0.0249979).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(3.0, 2.0);
        for &p in &[0.05, 0.25, 0.5, 0.9, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn confidence_bounds_bracket_mean() {
        let n = Normal::fit(&[9.0, 10.0, 11.0, 10.0, 9.5, 10.5]);
        let lo = n.lower_confidence_bound(0.95);
        let hi = n.upper_confidence_bound(0.95);
        assert!(lo < n.mean() && n.mean() < hi);
        // Higher confidence widens the interval.
        assert!(n.lower_confidence_bound(0.99) < lo);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn fit_rejects_empty() {
        Normal::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn new_rejects_negative_std() {
        Normal::new(0.0, -1.0);
    }
}
