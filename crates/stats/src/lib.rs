//! Statistics engine for the PetaBricks variable-accuracy autotuner.
//!
//! The autotuner described in §5.5.1 of the paper measures both execution
//! time and accuracy of candidate algorithms, fits normal distributions to
//! the observations, and uses statistical hypothesis testing (Welch's
//! t-test) to decide — with as few trials as possible — whether two
//! candidates differ. This crate provides those primitives:
//!
//! * [`OnlineStats`] — numerically stable streaming mean/variance
//!   (Welford's algorithm).
//! * [`welch_t_test`] — two-sample t-test with unequal variances,
//!   returning a real p-value via the regularized incomplete beta
//!   function.
//! * [`Comparator`] — the adaptive trial-count comparison protocol from
//!   §5.5.1 (run more trials only when the decision is still ambiguous).
//!
//! Every cost the tuner compares is virtual, a pure function of the
//! trial, so there is one summary: the Welford accumulator. The names
//! [`SampleStats`] (an alias of [`OnlineStats`]) and [`Robustness`]
//! (an inert policy) are read by nothing here; they survive only
//! because the frozen benchmark ledger names them.
//!
//! # Examples
//!
//! ```
//! use pb_stats::OnlineStats;
//!
//! let mut s = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     s.push(x);
//! }
//! assert_eq!(s.mean(), 2.5);
//! assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

mod compare;
mod online;
mod order;
mod special;
mod ttest;

pub use compare::{Comparator, ComparatorConfig, CompareOutcome, CompareStep, Robustness, Which};
pub use online::{OnlineStats, SampleStats};
pub use order::{total_cmp_nan_first, total_cmp_nan_last};
pub use ttest::{welch_t_test, TTest};
