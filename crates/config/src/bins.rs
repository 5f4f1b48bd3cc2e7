//! Accuracy bins: the discretized optimal frontier (§4.2, §5.5.4).
//!
//! "It is not possible to evaluate the entire optimal frontier … Instead,
//! to make this problem tractable, we discretize the space of accuracies
//! by placing each allowable accuracy into a bin." Bins may be specified
//! by the user (`accuracy_bins`) or inferred by the compiler when a
//! transform is called with a specific accuracy.

/// A sorted set of accuracy targets the tuner must satisfy.
///
/// Accuracies in this system follow the paper's convention: **larger is
/// more accurate**. (Benchmarks whose natural metric is
/// smaller-is-better, such as bin packing's `bins/OPT` ratio, negate or
/// invert their metric in the accuracy transform.)
///
/// # Examples
///
/// ```
/// use pb_config::AccuracyBins;
///
/// let bins = AccuracyBins::new(vec![0.5, 0.2, 0.95, 0.5]);
/// assert_eq!(bins.targets(), &[0.2, 0.5, 0.95]); // sorted, duplicate dropped
/// assert_eq!(bins.bin_meeting(0.6), Some(2)); // 0.5 is too loose for 0.6
/// assert_eq!(bins.bin_meeting(0.99), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyBins {
    targets: Vec<f64>,
}

serde::json_object!(AccuracyBins { targets });

impl AccuracyBins {
    /// Creates bins from the given targets (sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or contains NaN.
    pub fn new(mut targets: Vec<f64>) -> Self {
        assert!(
            !targets.is_empty(),
            "at least one accuracy target is required"
        );
        assert!(
            targets.iter().all(|t| !t.is_nan()),
            "accuracy targets must not be NaN"
        );
        targets.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        targets.dedup();
        AccuracyBins { targets }
    }

    /// The sorted accuracy targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether there are no bins (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The index of the least accurate bin whose target is at least
    /// `required` — the bin to *run* when a caller asks for accuracy
    /// `required` at runtime ("we support dynamically looking up the
    /// correct bin that will obtain a requested accuracy", §4.2).
    pub fn bin_meeting(&self, required: f64) -> Option<usize> {
        self.targets.iter().position(|&t| t >= required)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_deduped_on_construction() {
        let bins = AccuracyBins::new(vec![3.0, 1.0, 2.0, 1.0]);
        assert_eq!(bins.targets(), &[1.0, 2.0, 3.0]);
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn bin_meeting_picks_cheapest_sufficient() {
        let bins = AccuracyBins::new(vec![0.2, 0.5, 0.95]);
        assert_eq!(bins.bin_meeting(0.3), Some(1));
        assert_eq!(bins.bin_meeting(0.5), Some(1));
        assert_eq!(bins.bin_meeting(0.96), None);
        assert_eq!(bins.bin_meeting(0.0), Some(0));
    }

    #[test]
    fn negative_targets_supported() {
        // Image compression uses log-scale accuracies that can be
        // negative; bins must not assume [0, 1].
        let bins = AccuracyBins::new(vec![-1.0, 0.0, 2.0]);
        assert_eq!(bins.bin_meeting(-0.5), Some(1));
        assert_eq!(bins.bin_meeting(-2.0), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one accuracy target")]
    fn empty_targets_rejected() {
        AccuracyBins::new(vec![]);
    }
}
