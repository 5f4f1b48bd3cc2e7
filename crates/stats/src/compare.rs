//! Adaptive trial-count comparison of two candidates (§5.5.1).
//!
//! "With too few tests, random deviations may cause non-optimal decisions
//! to be made, while with too many tests, autotuning will take an
//! unacceptably long time." The paper's heuristic runs additional trials
//! only while the comparison is still ambiguous:
//!
//! 1. A t-test with p < 0.05 decides the candidates are *different*.
//! 2. If there is ≥95% probability that the mean difference is below 1%,
//!    the candidates are declared the *same*.
//! 3. If both candidates hit the maximum trial budget, declare *same*.
//! 4. Otherwise run one more trial on whichever candidate yields the
//!    highest expected reduction in standard error, and repeat.

use crate::online::OnlineStats;
use crate::special::normal_cdf;
use crate::ttest::welch_t_test;

/// Outcome of comparing two candidates on a single metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOutcome {
    /// The first candidate's metric is statistically lower.
    Less,
    /// The first candidate's metric is statistically higher.
    Greater,
    /// No statistically meaningful difference was established within the
    /// trial budget.
    Same,
}

/// Which side of a comparison the protocol wants more data on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Which {
    /// The first candidate.
    A,
    /// The second candidate.
    B,
}

/// One step of the resumable comparison protocol: either the decision
/// is already determined by the accumulated statistics, or the
/// protocol needs more trials on one side before it can re-decide.
///
/// This is the *decision core* of §5.5.1 with the trial execution
/// factored out, so a scheduler can collect many comparisons' pending
/// draws into one batch (see `pb_tuner`'s tournament pruning) instead
/// of running them one at a time on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareStep {
    /// The comparison is decided; no further trials are needed.
    Decided(CompareOutcome),
    /// Run `draws` more trial(s) on `which`, fold them into that
    /// side's statistics, and call [`Comparator::decide_samples`] again.
    NeedMore {
        /// The side that should receive the next trial(s).
        which: Which,
        /// How many trials to run before re-deciding (more than one
        /// only while a side is below the minimum trial count).
        draws: u64,
    },
}

/// Tuning knobs for the comparison protocol. The defaults are the
/// "typical values" quoted in the paper: 3–25 trials, α = 0.05, and a
/// same-threshold of a 95% probability of a < 1% difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorConfig {
    /// Minimum number of trials per candidate before any decision.
    pub min_trials: u64,
    /// Maximum number of trials per candidate.
    pub max_trials: u64,
    /// Significance level below which candidates are declared different.
    pub alpha: f64,
    /// Relative difference considered negligible (e.g. `0.01` = 1%).
    pub same_epsilon: f64,
    /// Confidence required to declare the difference negligible.
    pub same_confidence: f64,
    /// Inert: read by nothing (see [`Robustness`]).
    pub robustness: Robustness,
}

/// An inert summary policy: every cost is virtual, so
/// [`Comparator::decide_samples`] tests the plain mean and variance
/// whatever this says. Read by nothing; it and
/// [`ComparatorConfig::robustness`] stay only because the frozen
/// benchmark ledger names them, and the ledger refresh deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Robustness {
    /// The plain mean and variance.
    #[default]
    Mean,
    /// The same as [`Robustness::Mean`].
    Winsorized {
        /// Read by nothing.
        fraction: f64,
    },
}

impl Default for ComparatorConfig {
    fn default() -> Self {
        ComparatorConfig {
            min_trials: 3,
            max_trials: 25,
            alpha: 0.05,
            same_epsilon: 0.01,
            same_confidence: 0.95,
            robustness: Robustness::Mean,
        }
    }
}

/// Implements the adaptive comparison loop from §5.5.1.
///
/// # Examples
///
/// ```
/// use pb_stats::{Comparator, CompareOutcome, CompareStep, OnlineStats, Which};
///
/// let comparator = Comparator::default();
/// let mut fast = OnlineStats::new();
/// let mut slow = OnlineStats::new();
/// let outcome = loop {
///     match comparator.decide_samples(&fast, &slow) {
///         CompareStep::Decided(outcome) => break outcome,
///         CompareStep::NeedMore { which, draws } => {
///             for _ in 0..draws {
///                 match which {
///                     Which::A => fast.push(1.0 + 0.001 * (fast.count() % 3) as f64),
///                     Which::B => slow.push(2.0 + 0.001 * (slow.count() % 5) as f64),
///                 }
///             }
///         }
///     }
/// };
/// assert_eq!(outcome, CompareOutcome::Less);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Comparator {
    config: ComparatorConfig,
}

impl Comparator {
    /// Creates a comparator with the given configuration.
    pub fn new(config: ComparatorConfig) -> Self {
        Comparator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ComparatorConfig {
        &self.config
    }

    /// The decision core of §5.5.1: given both candidates' accumulated
    /// statistics, either the comparison is already decided or the
    /// protocol names the side that should run more trials. Pure in the
    /// statistics — no trials run here — so a scheduler can evaluate
    /// many comparisons' pending draws as one batch and re-decide after
    /// merging the outcomes.
    pub fn decide_samples(&self, a_stats: &OnlineStats, b_stats: &OnlineStats) -> CompareStep {
        let cfg = &self.config;
        // Non-finite means decide immediately: a candidate
        // quarantined after repeated trial faults carries a worst-cost
        // sentinel (`+inf`, or NaN once mixed with finite samples) and
        // must lose deterministically — without burning trial draws on
        // a side that can never produce a finite mean. Never fires for
        // healthy measurements (empty stats have mean 0.0).
        let a_bad = !a_stats.mean().is_finite();
        let b_bad = !b_stats.mean().is_finite();
        if a_bad || b_bad {
            return CompareStep::Decided(match (a_bad, b_bad) {
                (true, false) => CompareOutcome::Greater,
                (false, true) => CompareOutcome::Less,
                _ => CompareOutcome::Same,
            });
        }
        // Bring both candidates up to the minimum trial count (A
        // first, matching the blocking loop's fill order).
        if a_stats.count() < cfg.min_trials {
            return CompareStep::NeedMore {
                which: Which::A,
                draws: cfg.min_trials - a_stats.count(),
            };
        }
        if b_stats.count() < cfg.min_trials {
            return CompareStep::NeedMore {
                which: Which::B,
                draws: cfg.min_trials - b_stats.count(),
            };
        }

        // Step 1: t-test for difference.
        let test = welch_t_test(a_stats, b_stats);
        if test.rejects_equality(cfg.alpha) {
            return CompareStep::Decided(if a_stats.mean() < b_stats.mean() {
                CompareOutcome::Less
            } else {
                CompareOutcome::Greater
            });
        }

        // Step 2: is the relative difference negligible with high
        // probability? Fit a normal to the percentage difference of
        // the means via error propagation.
        if self.relative_difference_negligible(a_stats, b_stats) {
            return CompareStep::Decided(CompareOutcome::Same);
        }

        // Step 3: both candidates exhausted their budget.
        let a_full = a_stats.count() >= cfg.max_trials;
        let b_full = b_stats.count() >= cfg.max_trials;
        if a_full && b_full {
            return CompareStep::Decided(CompareOutcome::Same);
        }

        // Step 4: one more trial on the candidate with the highest
        // expected standard-error reduction that still has budget.
        let gain_a = if a_full {
            f64::NEG_INFINITY
        } else {
            se_reduction(a_stats)
        };
        let gain_b = if b_full {
            f64::NEG_INFINITY
        } else {
            se_reduction(b_stats)
        };
        CompareStep::NeedMore {
            which: if gain_a >= gain_b { Which::A } else { Which::B },
            draws: 1,
        }
    }

    /// Step 2 of the heuristic: P(|relative difference| < ε) ≥ confidence.
    fn relative_difference_negligible(&self, a: &OnlineStats, b: &OnlineStats) -> bool {
        let cfg = &self.config;
        let scale = 0.5 * (a.mean().abs() + b.mean().abs());
        if scale == 0.0 {
            // Both means are exactly zero: identical.
            return true;
        }
        let diff = (a.mean() - b.mean()) / scale;
        // Std of the difference of the means via independent error
        // propagation, expressed relative to the common scale.
        let se = (a.std_err().powi(2) + b.std_err().powi(2)).sqrt() / scale;
        if se == 0.0 {
            return diff.abs() < cfg.same_epsilon;
        }
        let p_within =
            normal_cdf(cfg.same_epsilon, diff, se) - normal_cdf(-cfg.same_epsilon, diff, se);
        p_within >= cfg.same_confidence
    }
}

/// Expected reduction in standard error from one more sample:
/// `s * (1/sqrt(n) - 1/sqrt(n+1))`.
fn se_reduction(stats: &OnlineStats) -> f64 {
    let n = stats.count() as f64;
    if n == 0.0 {
        return f64::INFINITY;
    }
    stats.std_dev() * (1.0 / n.sqrt() - 1.0 / (n + 1.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random stream for tests.
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as f64) / (u32::MAX as f64 * 2.0)
        }
    }

    /// Serves `decide_samples`' draws from the two generators until it
    /// decides: the outcome and the number of draws on each side.
    fn run_compare(
        comparator: &Comparator,
        mut gen_a: impl FnMut() -> f64,
        mut gen_b: impl FnMut() -> f64,
    ) -> (CompareOutcome, u64, u64) {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        loop {
            match comparator.decide_samples(&a, &b) {
                CompareStep::Decided(out) => return (out, a.count(), b.count()),
                CompareStep::NeedMore {
                    which: Which::A,
                    draws,
                } => (0..draws).for_each(|_| a.push(gen_a())),
                CompareStep::NeedMore {
                    which: Which::B,
                    draws,
                } => (0..draws).for_each(|_| b.push(gen_b())),
            }
        }
    }

    #[test]
    fn clearly_different_candidates_need_few_trials() {
        let comparator = Comparator::default();
        let mut rng = Lcg(1);
        let mut rng2 = Lcg(2);
        let (out, na, nb) = run_compare(
            &comparator,
            move || 1.0 + 0.01 * rng.next_f64(),
            move || 10.0 + 0.01 * rng2.next_f64(),
        );
        assert_eq!(out, CompareOutcome::Less);
        // "larger differences can be verified with fewer tests".
        assert!(na <= 5 && nb <= 5, "na={na} nb={nb}");
    }

    #[test]
    fn identical_candidates_declared_same() {
        let comparator = Comparator::default();
        let mut rng = Lcg(3);
        let mut rng2 = Lcg(4);
        let (out, _, _) = run_compare(
            &comparator,
            move || 5.0 + 0.001 * rng.next_f64(),
            move || 5.0 + 0.001 * rng2.next_f64(),
        );
        assert_eq!(out, CompareOutcome::Same);
    }

    #[test]
    fn budget_is_respected() {
        // Two overlapping noisy candidates close enough that the test
        // cannot separate them: the comparator must stop at max_trials.
        let comparator = Comparator::new(ComparatorConfig {
            max_trials: 10,
            ..ComparatorConfig::default()
        });
        let mut rng = Lcg(5);
        let mut rng2 = Lcg(6);
        let (out, na, nb) = run_compare(
            &comparator,
            move || 5.0 + rng.next_f64(),
            move || 5.05 + rng2.next_f64(),
        );
        assert!(na <= 10 && nb <= 10);
        // Either conclusion is statistically defensible here; what
        // matters is termination within budget.
        let _ = out;
    }

    #[test]
    fn greater_is_reported_for_slower_first_candidate() {
        let comparator = Comparator::default();
        let (out, _, _) = run_compare(&comparator, || 10.0, || 1.0);
        assert_eq!(out, CompareOutcome::Greater);
    }

    #[test]
    fn deterministic_equal_sources_same() {
        let comparator = Comparator::default();
        let (out, na, nb) = run_compare(&comparator, || 2.0, || 2.0);
        assert_eq!(out, CompareOutcome::Same);
        assert_eq!(na, 3);
        assert_eq!(nb, 3);
    }

    #[test]
    fn decide_requests_min_trials_in_bulk() {
        let comparator = Comparator::default();
        let empty = OnlineStats::new();
        assert_eq!(
            comparator.decide_samples(&empty, &empty),
            CompareStep::NeedMore {
                which: Which::A,
                draws: comparator.config().min_trials,
            }
        );
        let full: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(
            comparator.decide_samples(&full, &empty),
            CompareStep::NeedMore {
                which: Which::B,
                draws: comparator.config().min_trials,
            }
        );
    }

    #[test]
    fn non_finite_summaries_lose_immediately() {
        let comparator = Comparator::default();
        let healthy: OnlineStats = [1.0, 1.0, 1.0].into_iter().collect();
        let mut poisoned = OnlineStats::new();
        poisoned.push(f64::INFINITY);
        // Even below min_trials, the quarantined side loses without
        // requesting a single draw: its summary can never become
        // finite, so extra trials would be wasted.
        assert_eq!(
            comparator.decide_samples(&poisoned, &healthy),
            CompareStep::Decided(CompareOutcome::Greater)
        );
        assert_eq!(
            comparator.decide_samples(&healthy, &poisoned),
            CompareStep::Decided(CompareOutcome::Less)
        );
        assert_eq!(
            comparator.decide_samples(&poisoned, &poisoned),
            CompareStep::Decided(CompareOutcome::Same)
        );
        // Mixing finite samples in degrades the mean to NaN — still
        // non-finite, still an immediate loss.
        poisoned.push(1.0);
        assert!(poisoned.mean().is_nan());
        assert_eq!(
            comparator.decide_samples(&poisoned, &healthy),
            CompareStep::Decided(CompareOutcome::Greater)
        );
    }

    #[test]
    fn robustness_policy_does_not_change_the_decision() {
        // Candidate A is truly faster (1.0 vs 2.0), but one of its ten
        // trials is a 40x outlier. There is one summary, the plain mean
        // and variance, so a comparator configured to winsorize decides
        // exactly as the default one does.
        let base = ComparatorConfig {
            min_trials: 3,
            max_trials: 10,
            ..ComparatorConfig::default()
        };
        let winsorized = Comparator::new(ComparatorConfig {
            robustness: Robustness::Winsorized { fraction: 0.1 },
            ..base
        });
        let a: OnlineStats = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 40.0]
            .into_iter()
            .collect();
        let b: OnlineStats = [2.0, 2.05, 1.95, 2.0, 2.05, 1.95, 2.0, 2.05, 1.95, 2.0]
            .into_iter()
            .collect();
        let step = Comparator::new(base).decide_samples(&a, &b);
        assert_eq!(step, CompareStep::Decided(CompareOutcome::Same));
        assert_eq!(winsorized.decide_samples(&a, &b), step);
    }

    #[test]
    fn higher_variance_candidate_gets_more_trials() {
        let comparator = Comparator::new(ComparatorConfig {
            max_trials: 40,
            ..ComparatorConfig::default()
        });
        let mut rng = Lcg(7);
        let mut rng2 = Lcg(8);
        let (_, na, nb) = run_compare(
            &comparator,
            move || 5.0 + 0.01 * rng.next_f64(),
            move || 5.0 + 4.0 * rng2.next_f64(),
        );
        assert!(
            nb >= na,
            "noisy candidate should be sampled at least as much: na={na} nb={nb}"
        );
    }
}
