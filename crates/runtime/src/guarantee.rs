//! Accuracy guarantees (§3.3).
//!
//! PetaBricks supports three guarantee styles:
//!
//! * **Statistical** — the default: off-line testing bounds the accuracy
//!   metric to a confidence level; nothing extra happens at run time.
//! * **Run-time checking** — the `verify_accuracy` keyword inserts a
//!   check after execution; on failure "the algorithm can be retried
//!   with the next higher level of accuracy".
//! * **Domain-specific** — hand proofs make checking unnecessary.
//!
//! [`run_verified`] implements the run-time–checked path against a
//! [`TunedProgram`]: execute at the cheapest sufficient bin, verify with
//! the accuracy metric, and escalate bin-by-bin (then retry with fresh
//! seeds) until the requirement is met or options run out.

use crate::transform::{Transform, TransformRunner};
use crate::tuned::TunedProgram;
use crate::ExecCtx;
use pb_config::ConfigError;
use std::fmt;

/// Error produced when a runtime-checked execution cannot reach the
/// required accuracy.
#[derive(Debug, Clone, PartialEq)]
pub enum GuaranteeError {
    /// No trained bin has a target meeting the requirement.
    NoSufficientBin {
        /// The accuracy the caller asked for.
        required: f64,
        /// The highest trained target.
        highest_trained: f64,
    },
    /// All escalations and retries were exhausted.
    AccuracyNotMet {
        /// The accuracy the caller asked for.
        required: f64,
        /// The best accuracy any attempt achieved.
        best_achieved: f64,
        /// Total executions performed.
        attempts: usize,
    },
    /// A bin's configuration does not fit the transform's schema (a
    /// tuned-program file written for another schema, or edited).
    ConfigMismatch {
        /// The bin whose configuration was rejected.
        bin: usize,
        /// Why the schema rejected it.
        error: ConfigError,
    },
}

impl fmt::Display for GuaranteeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuaranteeError::NoSufficientBin {
                required,
                highest_trained,
            } => write!(
                f,
                "no trained accuracy bin meets {required} (highest trained target is {highest_trained})"
            ),
            GuaranteeError::AccuracyNotMet {
                required,
                best_achieved,
                attempts,
            } => write!(
                f,
                "accuracy {required} not met after {attempts} attempts (best achieved {best_achieved})"
            ),
            GuaranteeError::ConfigMismatch { bin, error } => {
                write!(f, "the configuration of bin {bin} does not fit the schema: {error}")
            }
        }
    }
}

impl std::error::Error for GuaranteeError {}

/// A successful verified execution.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedRun<O> {
    /// The transform's output.
    pub output: O,
    /// The verified accuracy of that output.
    pub accuracy: f64,
    /// Executions performed (1 = first try succeeded).
    pub attempts: usize,
    /// Index of the accuracy bin whose configuration produced the
    /// accepted output.
    pub bin_used: usize,
}

/// Executes `input` with a hard accuracy requirement, implementing the
/// `verify_accuracy` retry protocol (§3.3).
///
/// Starts at the cheapest bin whose target meets `required`; on a failed
/// check escalates to each higher bin in turn, then performs up to
/// `max_retries` extra executions at the highest bin with fresh seeds.
///
/// # Errors
///
/// * [`GuaranteeError::NoSufficientBin`] if no trained bin targets the
///   required accuracy.
/// * [`GuaranteeError::ConfigMismatch`] if a bin the escalation could
///   reach holds a configuration the transform's schema rejects.
/// * [`GuaranteeError::AccuracyNotMet`] if every attempt fails the check.
pub fn run_verified<T: Transform>(
    runner: &TransformRunner<T>,
    tuned: &TunedProgram,
    input: &T::Input,
    n: u64,
    required: f64,
    max_retries: usize,
    seed: u64,
) -> Result<VerifiedRun<T::Output>, GuaranteeError> {
    let start_bin = tuned.bin_meeting(required).ok_or_else(|| {
        let highest = tuned
            .bins()
            .targets()
            .last()
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        GuaranteeError::NoSufficientBin {
            required,
            highest_trained: highest,
        }
    })?;

    let top_bin = tuned.bins().len() - 1;
    let mut attempts = 0;
    let mut best_achieved = f64::NEG_INFINITY;
    let transform = runner.transform();
    let schema = runner.schema();
    for bin in start_bin..=top_bin {
        if let Err(error) = tuned.entry(bin).config.validate(schema) {
            return Err(GuaranteeError::ConfigMismatch { bin, error });
        }
    }

    // Escalation schedule: each bin from start to top once, then
    // max_retries extra tries at the top bin.
    let schedule = (start_bin..=top_bin).chain(std::iter::repeat_n(top_bin, max_retries));
    for bin in schedule {
        let config = &tuned.entry(bin).config;
        let mut ctx = ExecCtx::new(schema, config, n, seed.wrapping_add(attempts as u64));
        let output = transform.execute(input, &mut ctx);
        let accuracy = transform.accuracy(input, &output);
        attempts += 1;
        if accuracy >= required {
            return Ok(VerifiedRun {
                output,
                accuracy,
                attempts,
                bin_used: bin,
            });
        }
        best_achieved = best_achieved.max(accuracy);
    }
    Err(GuaranteeError::AccuracyNotMet {
        required,
        best_achieved,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::CostModel;
    use crate::tuned::TunedEntry;
    use pb_config::{AccuracyBins, Schema, Value};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Accuracy = level / 10 with ±0.05 noise, so low bins genuinely
    /// fail strict requirements and high bins pass.
    struct Noisy;

    impl Transform for Noisy {
        type Input = ();
        type Output = f64;

        fn name(&self) -> &str {
            "noisy"
        }

        fn schema(&self) -> Schema {
            let mut s = Schema::new("noisy");
            s.add_accuracy_variable("level", 0, 10);
            s.add_choice_site("rule", 2);
            s
        }

        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}

        fn execute(&self, _input: &(), ctx: &mut ExecCtx<'_>) -> f64 {
            let level = ctx.param("level").unwrap() as f64;
            let noise: f64 = ctx.rng().gen_range(-0.05..0.05);
            level / 10.0 + noise
        }

        fn accuracy(&self, _input: &(), output: &f64) -> f64 {
            *output
        }
    }

    fn tuned_for(levels: &[(f64, i64)]) -> (TransformRunner<Noisy>, TunedProgram) {
        let runner = TransformRunner::new(Noisy, CostModel::Virtual);
        let schema = runner.schema().clone();
        let bins = AccuracyBins::new(levels.iter().map(|&(t, _)| t).collect());
        let entries = levels
            .iter()
            .map(|&(t, level)| {
                let mut config = schema.default_config();
                config
                    .set_by_name(&schema, "level", Value::Int(level))
                    .unwrap();
                TunedEntry {
                    target: t,
                    config,
                    observed_accuracy: t,
                    observed_time: level as f64,
                }
            })
            .collect();
        let tuned = TunedProgram::new("noisy", bins, entries);
        (runner, tuned)
    }

    #[test]
    fn first_attempt_succeeds_when_bin_is_strong() {
        let (runner, tuned) = tuned_for(&[(0.2, 9), (0.8, 10)]);
        let run = run_verified(&runner, &tuned, &(), 1, 0.1, 0, 42).unwrap();
        assert_eq!(run.attempts, 1);
        assert_eq!(run.bin_used, 0);
        assert!(run.accuracy >= 0.1);
    }

    #[test]
    fn escalates_to_higher_bin_on_failure() {
        // Bin 0 claims 0.5 but its config only delivers ~0.1: the check
        // must fail and escalate to bin 1 (level 10 -> ~1.0).
        let (runner, tuned) = tuned_for(&[(0.5, 1), (0.9, 10)]);
        let run = run_verified(&runner, &tuned, &(), 1, 0.5, 0, 42).unwrap();
        assert_eq!(run.bin_used, 1);
        assert_eq!(run.attempts, 2);
    }

    #[test]
    fn requirement_above_training_is_rejected() {
        let (runner, tuned) = tuned_for(&[(0.2, 2), (0.8, 8)]);
        let err = run_verified(&runner, &tuned, &(), 1, 0.99, 3, 42).unwrap_err();
        assert!(matches!(err, GuaranteeError::NoSufficientBin { .. }));
    }

    #[test]
    fn exhausted_retries_report_best_achieved() {
        // The top bin claims 0.95 but its config delivers ~0.2.
        let (runner, tuned) = tuned_for(&[(0.95, 2)]);
        let err = run_verified(&runner, &tuned, &(), 1, 0.95, 4, 42).unwrap_err();
        match err {
            GuaranteeError::AccuracyNotMet {
                attempts,
                best_achieved,
                ..
            } => {
                assert_eq!(attempts, 5, "initial try plus 4 retries");
                assert!(best_achieved < 0.3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn retries_use_fresh_seeds() {
        // With noise of ±0.05 around 0.9, requiring 0.9 fails for about
        // half the seeds; retries with fresh seeds must eventually pass.
        let (runner, tuned) = tuned_for(&[(0.9, 9)]);
        let run = run_verified(&runner, &tuned, &(), 1, 0.9, 50, 7).unwrap();
        assert!(run.accuracy >= 0.9);
        assert!(run.attempts >= 1);
    }

    #[test]
    fn configs_the_schema_rejects_are_errors_not_panics_or_runs() {
        let (runner, tuned) = tuned_for(&[(0.2, 2), (0.8, 8)]);
        let json = serde_json::to_string(&tuned).unwrap();
        let edits = [
            // Written for another schema: no values at all.
            (r#"[{"Int":2},{"Tree":{"levels":[],"top_choice":0}}]"#, "[]"),
            // `level` is declared 0..=10.
            (r#"{"Int":2}"#, r#"{"Int":99}"#),
            // Decision-tree cutoffs must ascend strictly.
            (
                r#""levels":[]"#,
                r#""levels":[{"cutoff":9,"choice":1},{"cutoff":3,"choice":0}]"#,
            ),
        ];
        for (from, to) in edits {
            let loaded = TunedProgram::from_json(&json.replacen(from, to, 1)).unwrap();
            let err = run_verified(&runner, &loaded, &(), 1, 0.1, 0, 42).unwrap_err();
            assert!(matches!(err, GuaranteeError::ConfigMismatch { bin: 0, .. }));
        }
    }
}
