//! Streaming sample statistics via Welford's algorithm.

/// Numerically stable streaming mean and variance accumulator.
///
/// Uses Welford's online algorithm so that adding millions of timing
/// samples never loses precision to catastrophic cancellation.
///
/// # Examples
///
/// ```
/// use pb_stats::OnlineStats;
///
/// let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

/// The name the frozen benchmark ledger uses for a candidate's cost
/// statistics. Read by nothing in the crates; the ledger refresh
/// deletes it.
pub type SampleStats = OnlineStats;

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean. Returns `0.0` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (Bessel-corrected). Zero when fewer than
    /// two observations have been recorded.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`), zero when empty.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn matches_textbook_formulas() {
        let data = [1.5, 2.5, 3.5, 4.5, 5.5];
        let s: OnlineStats = data.into_iter().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn huge_offset_remains_stable() {
        // Welford should survive a large common offset where the naive
        // sum-of-squares formula would lose all precision.
        let offset = 1e9;
        let s: OnlineStats = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]
            .into_iter()
            .collect();
        assert!((s.variance() - 30.0).abs() < 1e-6);
    }
}
