//! Outlier-robust summary statistics for noisy measurements.
//!
//! Wall-clock timings are contaminated by rare, large positive
//! outliers (page faults, scheduler preemption, frequency transitions)
//! that inflate both the mean and the variance the §5.5.1 comparison
//! protocol feeds to Welch's t-test. [`SampleStats`] retains the raw
//! observations alongside a pass-through [`OnlineStats`] accumulator,
//! and a [`Robustness`] policy turns them into the summary the
//! comparator actually tests: the untouched Welford accumulator
//! ([`Robustness::Mean`]) or a winsorized summary (extreme observations
//! clamped to interior quantiles).
//!
//! `Robustness::Mean` returns the pass-through accumulator verbatim —
//! not a recomputation — so virtual-cost tuning runs stay bit-identical
//! to the pre-robustness comparator.

use crate::online::OnlineStats;

/// How a [`SampleStats`] collapses its observations into the summary
/// the comparison protocol tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Robustness {
    /// The plain Welford accumulator, untouched. The default, and the
    /// right choice for deterministic (virtual-cost) measurements.
    #[default]
    Mean,
    /// Winsorized summary: the lowest and highest `fraction` of the
    /// sorted observations are clamped to the nearest interior value.
    /// Keeps the sample count (and thus the t-test's degrees of
    /// freedom) while bounding each outlier's leverage.
    Winsorized {
        /// Fraction of observations clamped at *each* end (e.g. `0.1`
        /// clamps the bottom 10% and the top 10%).
        fraction: f64,
    },
}

impl Robustness {
    /// Number of observations affected at each end of a sorted sample
    /// of `len` observations: `floor(fraction · len)`, capped so at
    /// least one observation always survives in the middle.
    fn tail_len(fraction: f64, len: usize) -> usize {
        if len == 0 || fraction <= 0.0 {
            return 0;
        }
        let k = (fraction * len as f64).floor() as usize;
        k.min((len - 1) / 2)
    }
}

/// Sample-retaining statistics: a Welford accumulator plus the raw
/// observations, so robust summaries can be recomputed under any
/// [`Robustness`] policy.
///
/// The comparison protocol bounds samples per candidate per size at
/// `max_trials` (25 by default), so retention is a few hundred bytes
/// per candidate, not an unbounded log.
///
/// # Examples
///
/// ```
/// use pb_stats::{Robustness, SampleStats};
///
/// let s: SampleStats = [1.0, 1.0, 1.0, 1.0, 100.0].into_iter().collect();
/// assert_eq!(s.mean(), 20.8);
/// let w = s.summary(Robustness::Winsorized { fraction: 0.2 });
/// assert_eq!(w.mean(), 1.0); // the outlier is clamped to 1.0
/// assert_eq!(w.count(), 5); // winsorizing keeps the count
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleStats {
    online: OnlineStats,
    samples: Vec<f64>,
}

impl SampleStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SampleStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.online.push(x);
        self.samples.push(x);
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.online.count()
    }

    /// Returns `true` if no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }

    /// Sample mean of the raw (un-robustified) observations. `0.0`
    /// when empty.
    pub fn mean(&self) -> f64 {
        self.online.mean()
    }

    /// The pass-through Welford accumulator over the raw observations.
    pub fn online(&self) -> &OnlineStats {
        &self.online
    }

    /// The summary the comparison protocol should test under `policy`.
    ///
    /// [`Robustness::Mean`] returns the pass-through accumulator
    /// verbatim (bit-identical to having never retained samples);
    /// [`Robustness::Winsorized`] sorts a copy of the observations
    /// (total order, NaN last) and rebuilds a Welford accumulator from
    /// the clamped values.
    pub fn summary(&self, policy: Robustness) -> OnlineStats {
        match policy {
            Robustness::Mean => self.online,
            Robustness::Winsorized { fraction } => {
                let mut sorted = self.samples.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let k = Robustness::tail_len(fraction, sorted.len());
                if k > 0 {
                    let lo = sorted[k];
                    let hi = sorted[sorted.len() - 1 - k];
                    for x in &mut sorted[..k] {
                        *x = lo;
                    }
                    let len = sorted.len();
                    for x in &mut sorted[len - k..] {
                        *x = hi;
                    }
                }
                sorted.into_iter().collect()
            }
        }
    }
}

impl FromIterator<f64> for SampleStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for SampleStats {
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
    fn mean_policy_is_the_passthrough_accumulator() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s: SampleStats = data.into_iter().collect();
        let direct: OnlineStats = data.into_iter().collect();
        // Bitwise equality, not approximate: the Mean policy must be
        // indistinguishable from never having retained samples.
        assert_eq!(s.summary(Robustness::Mean), direct);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn winsorized_clamps_outliers_but_keeps_count() {
        let s: SampleStats = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1000.0]
            .into_iter()
            .collect();
        let w = s.summary(Robustness::Winsorized { fraction: 0.1 });
        assert_eq!(w.count(), 10);
        assert_eq!(w.mean(), 1.0);
        assert_eq!(w.variance(), 0.0);
        // The raw accumulator still sees the outlier.
        assert!(s.mean() > 100.0);
    }

    #[test]
    fn tiny_samples_are_never_emptied() {
        for len in 1..=4usize {
            let s: SampleStats = (0..len).map(|i| i as f64).collect();
            let summary = s.summary(Robustness::Winsorized { fraction: 0.49 });
            assert!(summary.count() >= 1, "len={len} emptied the sample");
        }
    }

    #[test]
    fn zero_fraction_is_equivalent_to_mean_for_values() {
        let s: SampleStats = [5.0, 3.0, 8.0].into_iter().collect();
        let w = s.summary(Robustness::Winsorized { fraction: 0.0 });
        assert_eq!(w.count(), 3);
        assert!((w.mean() - s.mean()).abs() < 1e-12);
    }

    #[test]
    fn nan_sorts_last_and_gets_clamped() {
        // A NaN observation (a faulted wall-clock read) sorts last
        // under total order, so winsorizing clamps it to a finite
        // interior value instead of poisoning the summary.
        let s: SampleStats = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, f64::NAN]
            .into_iter()
            .collect();
        let w = s.summary(Robustness::Winsorized { fraction: 0.1 });
        assert_eq!(w.mean(), 1.0);
        assert!(s.mean().is_nan());
    }
}
