//! The [`Transform`] interface and the trial runner the tuner drives.
//!
//! A PetaBricks *transform* "is like a function call in any common
//! procedural language" (§2) except that it exposes algorithmic and
//! accuracy choices to the autotuner. In this reproduction a transform
//! is a Rust type implementing [`Transform`]; the autotuner interacts
//! with it exclusively through the object-safe [`TrialRunner`] facade,
//! which generates a training input, executes the transform under a
//! candidate configuration, and measures both cost and accuracy (the
//! two axes of the optimal frontier, §4.2).

use crate::ctx::{ExecCtx, TraceNode};
use pb_config::{Config, Schema};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// How candidate cost is measured during training: there is one model.
///
/// Kept, with its one variant, only so the frozen ledger
/// (`ledger/src/programs.rs`) builds; the ledger refresh deletes it
/// with [`TransformRunner::new`]'s argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModel {
    /// Deterministic virtual cost charged via [`ExecCtx::charge`]:
    /// every trial is a pure function of `(config, n, seed)`, so the
    /// tuner memoizes it and a tuning run's decisions reproduce on any
    /// machine.
    #[default]
    Virtual,
}

/// Measurements from one trial execution of a candidate algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Wall-clock seconds of the execution: what decides whether a
    /// batch of trials is worth dispatching, never what is tuned.
    pub wall_seconds: f64,
    /// The virtual cost charged through [`ExecCtx::charge`]: the cost
    /// the tuner optimizes.
    pub virtual_cost: f64,
    /// The accuracy-metric value for this run (larger = more accurate).
    pub accuracy: f64,
}

impl TrialOutcome {
    /// The deterministic worst-case verdict recorded for a trial whose
    /// every attempt faulted (panicked, timed out, or produced a
    /// non-finite cost) and whose retries are exhausted: infinite cost
    /// on every axis and `-inf` accuracy, so a quarantined candidate
    /// loses every time comparison and meets no accuracy target.
    pub const QUARANTINED: TrialOutcome = TrialOutcome {
        wall_seconds: f64::INFINITY,
        virtual_cost: f64::INFINITY,
        accuracy: f64::NEG_INFINITY,
    };

    /// Whether this outcome is the quarantine sentinel.
    pub fn is_quarantined(&self) -> bool {
        *self == TrialOutcome::QUARANTINED
    }
}

/// A variable-accuracy transform: the paper's `transform` construct
/// (§2–3) expressed as a Rust trait.
///
/// Implementations declare their tunables (the training-information
/// inventory), generate training inputs of a given size, execute under a
/// configuration via [`ExecCtx`], and score outputs with their
/// `accuracy_metric`.
pub trait Transform {
    /// The transform's input data (the `from` clause). Shared, read
    /// only, by every trial on the same `(n, seed)` of a tuning run
    /// (see [`TrialRunner::prepare`]), possibly on several threads.
    type Input: Send + Sync + 'static;
    /// The transform's output data (the `to` clause).
    type Output;

    /// Transform name (used in config files and reports).
    fn name(&self) -> &str;

    /// Builds the tunable schema — the static-analysis output the tuner
    /// generates mutators from (§5.3–5.4).
    fn schema(&self) -> Schema;

    /// Generates a training input of size `n` (§5.1: input sizes grow
    /// exponentially during tuning).
    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Self::Input;

    /// Executes the transform under the configuration carried by `ctx`.
    fn execute(&self, input: &Self::Input, ctx: &mut ExecCtx<'_>) -> Self::Output;

    /// The `accuracy_metric` transform (§3.2): computes the accuracy of
    /// an input/output pair. Larger values are more accurate.
    fn accuracy(&self, input: &Self::Input, output: &Self::Output) -> f64;
}

/// A training input built by [`TrialRunner::prepare`], type-erased so
/// the tuner can hold it without knowing the transform.
pub type SharedInput = Arc<dyn Any + Send + Sync>;

/// Object-safe facade over a [`Transform`] used by the autotuner.
///
/// The tuner never sees input/output types — only configurations going
/// in and `(cost, accuracy)` measurements coming out, and the opaque
/// [`SharedInput`]s it builds once per `(n, seed)` and hands back to
/// [`TrialRunner::run_prepared`].
pub trait TrialRunner: Send + Sync {
    /// Transform name.
    fn name(&self) -> &str;

    /// The tunable schema.
    fn schema(&self) -> &Schema;

    /// Nothing reads this: every trial is a pure function of
    /// `(config, n, seed)` and the tuner memoizes them all. Kept only
    /// so the frozen ledger's `TimedRunner` (`ledger/src/timing.rs`)
    /// builds; the ledger refresh deletes it.
    fn deterministic(&self) -> bool {
        false
    }

    /// Runs one trial: generate an input of size `n` from `seed`,
    /// execute under `config`, measure cost and accuracy.
    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome;

    /// Builds the input [`TrialRunner::run_trial`] would generate for
    /// `(n, seed)`, once, so every trial on it can share it through
    /// [`TrialRunner::run_prepared`]. The default builds `()`, once per
    /// `(n, seed)` like any other input: a runner that does not
    /// override both methods reaches its own `run_trial` through the
    /// default `run_prepared`, and so generates its input per trial.
    fn prepare(&self, n: u64, seed: u64) -> SharedInput {
        let _ = (n, seed);
        Arc::new(())
    }

    /// Runs one trial on `input`, which [`TrialRunner::prepare`] built
    /// for the same `(n, seed)`: the outcome is the one
    /// [`TrialRunner::run_trial`] gives. The default ignores `input`
    /// and calls `run_trial`.
    fn run_prepared(
        &self,
        config: &Config,
        input: &SharedInput,
        n: u64,
        seed: u64,
    ) -> TrialOutcome {
        let _ = input;
        self.run_trial(config, n, seed)
    }

    /// Like [`TrialRunner::run_trial`] but also records and returns the
    /// execution trace (used for cycle-shape reporting).
    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode);
}

/// Adapts a concrete [`Transform`] into a [`TrialRunner`].
///
/// # Examples
///
/// ```
/// use pb_config::Schema;
/// use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner, TrialRunner};
/// use rand::rngs::SmallRng;
/// use rand::Rng;
///
/// struct Sum;
///
/// impl Transform for Sum {
///     type Input = Vec<f64>;
///     type Output = f64;
///     fn name(&self) -> &str { "sum" }
///     fn schema(&self) -> Schema {
///         let mut s = Schema::new("sum");
///         s.add_accuracy_variable("terms_pct", 1, 100);
///         s
///     }
///     fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Vec<f64> {
///         (0..n).map(|_| rng.gen::<f64>()).collect()
///     }
///     fn execute(&self, input: &Vec<f64>, ctx: &mut ExecCtx<'_>) -> f64 {
///         let pct = ctx.param("terms_pct").unwrap() as usize;
///         let take = input.len() * pct / 100;
///         ctx.charge(take as f64);
///         input.iter().take(take).sum()
///     }
///     fn accuracy(&self, input: &Vec<f64>, output: &f64) -> f64 {
///         let exact: f64 = input.iter().sum();
///         if exact == 0.0 { 1.0 } else { 1.0 - ((exact - output) / exact).abs() }
///     }
/// }
///
/// let runner = TransformRunner::new(Sum, CostModel::Virtual);
/// let config = runner.schema().default_config();
/// let outcome = runner.run_trial(&config, 100, 7);
/// assert!(outcome.accuracy <= 1.0);
/// assert!(outcome.virtual_cost <= 100.0);
/// ```
#[derive(Debug)]
pub struct TransformRunner<T: Transform> {
    transform: T,
    schema: Schema,
}

impl<T: Transform> TransformRunner<T> {
    /// Wraps `transform`, caching its schema. `cost_model` names the
    /// one model there is; the argument is kept only so the frozen
    /// ledger (`ledger/src/programs.rs`) builds, and the ledger
    /// refresh deletes it.
    pub fn new(transform: T, cost_model: CostModel) -> Self {
        let CostModel::Virtual = cost_model;
        let schema = transform.schema();
        TransformRunner { transform, schema }
    }

    /// The wrapped transform.
    pub fn transform(&self) -> &T {
        &self.transform
    }

    /// The cached tunable schema (also available through the
    /// [`TrialRunner`] trait; provided inherently so callers holding a
    /// concrete runner need not import the trait).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The training input of size `n` for `seed`. Input generation and
    /// execution use decorrelated seeds: the input is a function of
    /// `(n, seed)` alone, so [`TrialRunner::prepare`] builds it once and
    /// every candidate's trial on that seed re-uses it, while the
    /// execution's internal randomness still varies with `seed`.
    fn generate(&self, n: u64, seed: u64) -> T::Input {
        let mut input_rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
        self.transform.generate_input(n, &mut input_rng)
    }

    /// Executes under `config` on `input` and measures the trial.
    fn run_on(
        &self,
        input: &T::Input,
        config: &Config,
        n: u64,
        seed: u64,
        traced: bool,
    ) -> (TrialOutcome, TraceNode) {
        let mut ctx = ExecCtx::new(&self.schema, config, n, seed);
        if traced {
            ctx.enable_trace();
        }
        let start = Instant::now();
        let output = self.transform.execute(input, &mut ctx);
        let wall = start.elapsed().as_secs_f64();
        let accuracy = self.transform.accuracy(input, &output);
        let outcome = TrialOutcome {
            wall_seconds: wall,
            virtual_cost: ctx.virtual_cost(),
            accuracy,
        };
        let tree = if traced {
            ctx.trace_tree()
        } else {
            TraceNode::default()
        };
        (outcome, tree)
    }
}

impl<T: Transform> TrialRunner for TransformRunner<T>
where
    T: Send + Sync,
{
    fn name(&self) -> &str {
        self.transform.name()
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        let input = self.generate(n, seed);
        self.run_on(&input, config, n, seed, false).0
    }

    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.run_on(&self.generate(n, seed), config, n, seed, true)
    }

    fn prepare(&self, n: u64, seed: u64) -> SharedInput {
        Arc::new(self.generate(n, seed))
    }

    /// Falls back to [`TrialRunner::run_trial`] when `input` is not
    /// this transform's: what a decorator that forwards `run_prepared`
    /// but not `prepare` hands down.
    fn run_prepared(
        &self,
        config: &Config,
        input: &SharedInput,
        n: u64,
        seed: u64,
    ) -> TrialOutcome {
        match input.downcast_ref::<T::Input>() {
            Some(input) => self.run_on(input, config, n, seed, false).0,
            None => self.run_trial(config, n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A toy transform whose accuracy and cost are both controlled by a
    /// single accuracy variable, so tests can verify plumbing exactly.
    struct Toy;

    impl Transform for Toy {
        type Input = u64;
        type Output = u64;

        fn name(&self) -> &str {
            "toy"
        }

        fn schema(&self) -> Schema {
            let mut s = Schema::new("toy");
            s.add_accuracy_variable("level", 0, 10);
            s.add_choice_site("path", 2);
            s
        }

        fn generate_input(&self, n: u64, rng: &mut SmallRng) -> u64 {
            n + (rng.gen::<u64>() % 2)
        }

        fn execute(&self, input: &u64, ctx: &mut ExecCtx<'_>) -> u64 {
            let level = ctx.param("level").unwrap() as u64;
            let path = ctx.choice("path").unwrap() as u64;
            ctx.charge((level * input) as f64 + 1.0);
            ctx.event("ran");
            level * 10 + path
        }

        fn accuracy(&self, _input: &u64, output: &u64) -> f64 {
            (output / 10) as f64 / 10.0
        }
    }

    #[test]
    fn virtual_cost_model_uses_charges() {
        let runner = TransformRunner::new(Toy, CostModel::Virtual);
        let mut config = runner.schema().default_config();
        config
            .set_by_name(runner.schema(), "level", pb_config::Value::Int(3))
            .unwrap();
        let out = runner.run_trial(&config, 100, 1);
        assert!(out.virtual_cost >= 300.0, "cost scales with level*input");
        assert!((out.accuracy - 0.3).abs() < 1e-12);
    }

    #[test]
    fn quarantine_sentinel_is_worst_on_every_axis() {
        let q = TrialOutcome::QUARANTINED;
        assert!(q.is_quarantined());
        assert_eq!(q.wall_seconds, f64::INFINITY);
        assert_eq!(q.virtual_cost, f64::INFINITY);
        assert_eq!(q.accuracy, f64::NEG_INFINITY);
        // A healthy outcome is never mistaken for the sentinel.
        let runner = TransformRunner::new(Toy, CostModel::Virtual);
        let config = runner.schema().default_config();
        assert!(!runner.run_trial(&config, 10, 1).is_quarantined());
    }

    #[test]
    fn same_seed_same_outcome_in_virtual_mode() {
        let runner = TransformRunner::new(Toy, CostModel::Virtual);
        let config = runner.schema().default_config();
        let a = runner.run_trial(&config, 64, 9);
        let b = runner.run_trial(&config, 64, 9);
        assert_eq!(a.virtual_cost, b.virtual_cost);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn a_prepared_input_runs_the_trial_run_trial_runs() {
        let runner = TransformRunner::new(Toy, CostModel::Virtual);
        let mut config = runner.schema().default_config();
        config
            .set_by_name(runner.schema(), "level", pb_config::Value::Int(3))
            .unwrap();
        let measured = |o: TrialOutcome| (o.virtual_cost, o.accuracy);
        // Toy's input is `n` or `n + 1` by seed, so its cost shows
        // which input a trial ran on.
        let costs: Vec<f64> = (0..8)
            .map(|seed| runner.run_trial(&config, 100, seed).virtual_cost)
            .collect();
        assert!(
            costs.contains(&301.0) && costs.contains(&304.0),
            "{costs:?}"
        );
        for seed in 0..8 {
            let want = measured(runner.run_trial(&config, 100, seed));
            let input = runner.prepare(100, seed);
            assert_eq!(
                measured(runner.run_prepared(&config, &input, 100, seed)),
                want
            );
            // Another runner's input (here the default `prepare`'s
            // `()`) falls back to generating the trial's own.
            let foreign: SharedInput = Arc::new(());
            assert_eq!(
                measured(runner.run_prepared(&config, &foreign, 100, seed)),
                want
            );
        }
    }

    #[test]
    fn traced_run_captures_events() {
        let runner = TransformRunner::new(Toy, CostModel::Virtual);
        let config = runner.schema().default_config();
        let (_, tree) = runner.run_traced(&config, 10, 0);
        assert_eq!(tree.count_points("ran"), 1);
        // Untraced runs return an empty tree.
        let out = runner.run_trial(&config, 10, 0);
        assert!(out.accuracy >= 0.0);
    }
}
