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
use std::time::Instant;

/// How candidate cost is measured during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModel {
    /// Wall-clock seconds — what the paper uses on real hardware.
    WallClock,
    /// Deterministic virtual cost charged via [`ExecCtx::charge`] —
    /// used by the test suite and by reproducible tuning runs, where
    /// machine noise would otherwise make results flaky.
    #[default]
    Virtual,
}

/// Measurements from one trial execution of a candidate algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// The cost the tuner optimizes (wall seconds or virtual units,
    /// per the runner's [`CostModel`]).
    pub time: f64,
    /// Wall-clock seconds regardless of cost model.
    pub wall_seconds: f64,
    /// Virtual cost regardless of cost model.
    pub virtual_cost: f64,
    /// The accuracy-metric value for this run (larger = more accurate).
    pub accuracy: f64,
}

impl TrialOutcome {
    /// The deterministic worst-case verdict recorded for a trial whose
    /// every attempt faulted (panicked, timed out, or produced a
    /// non-finite cost) and whose retries are exhausted: infinite cost
    /// on every axis and `-inf` accuracy, so a quarantined candidate
    /// loses every time comparison, meets no accuracy target, and is
    /// never persisted to a trial-cache sidecar (which skips
    /// non-finite entries).
    pub const QUARANTINED: TrialOutcome = TrialOutcome {
        time: f64::INFINITY,
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
    /// The transform's input data (the `from` clause).
    type Input;
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

/// Object-safe facade over a [`Transform`] used by the autotuner.
///
/// The tuner never sees input/output types — only configurations going
/// in and `(cost, accuracy)` measurements coming out.
pub trait TrialRunner: Send + Sync {
    /// Transform name.
    fn name(&self) -> &str;

    /// The tunable schema.
    fn schema(&self) -> &Schema;

    /// Whether [`TrialRunner::run_trial`] is a pure function of
    /// `(config, n, seed)` — true for the virtual cost model, false
    /// for wall-clock measurement. The tuner only memoizes trial
    /// outcomes when this holds; the conservative default is `false`.
    fn deterministic(&self) -> bool {
        false
    }

    /// Runs one trial: generate an input of size `n` from `seed`,
    /// execute under `config`, measure cost and accuracy.
    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome;

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
/// assert_eq!(outcome.time, outcome.virtual_cost);
/// ```
#[derive(Debug)]
pub struct TransformRunner<T: Transform> {
    transform: T,
    schema: Schema,
    cost_model: CostModel,
}

impl<T: Transform> TransformRunner<T> {
    /// Wraps `transform`, caching its schema.
    pub fn new(transform: T, cost_model: CostModel) -> Self {
        let schema = transform.schema();
        TransformRunner {
            transform,
            schema,
            cost_model,
        }
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

    fn run_inner(
        &self,
        config: &Config,
        n: u64,
        seed: u64,
        traced: bool,
    ) -> (TrialOutcome, TraceNode) {
        // Input generation and execution use decorrelated seeds so that
        // the same input can be re-used across candidates while the
        // execution's internal randomness still varies with `seed`.
        let mut input_rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let input = self.transform.generate_input(n, &mut input_rng);
        let mut ctx = ExecCtx::new(&self.schema, config, n, seed);
        if traced {
            ctx.enable_trace();
        }
        let start = Instant::now();
        let output = self.transform.execute(&input, &mut ctx);
        let wall = start.elapsed().as_secs_f64();
        let accuracy = self.transform.accuracy(&input, &output);
        let virtual_cost = ctx.virtual_cost();
        let time = match self.cost_model {
            CostModel::WallClock => wall,
            CostModel::Virtual => virtual_cost,
        };
        let outcome = TrialOutcome {
            time,
            wall_seconds: wall,
            virtual_cost,
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

    fn deterministic(&self) -> bool {
        self.cost_model == CostModel::Virtual
    }

    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        self.run_inner(config, n, seed, false).0
    }

    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.run_inner(config, n, seed, true)
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
        assert!(out.time >= 300.0, "cost scales with level*input");
        assert_eq!(out.time, out.virtual_cost);
        assert!((out.accuracy - 0.3).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_model_reports_elapsed() {
        let runner = TransformRunner::new(Toy, CostModel::WallClock);
        let config = runner.schema().default_config();
        let out = runner.run_trial(&config, 10, 1);
        assert_eq!(out.time, out.wall_seconds);
        assert!(out.wall_seconds >= 0.0);
    }

    #[test]
    fn wall_clock_model_still_records_virtual_cost_and_accuracy() {
        // Wall-clock tuning keeps the deterministic observables: the
        // virtual cost and accuracy of a trial are functions of
        // (config, n, seed) regardless of cost model, so diagnostics
        // can cross-check noisy timings against them.
        let wall = TransformRunner::new(Toy, CostModel::WallClock);
        let virt = TransformRunner::new(Toy, CostModel::Virtual);
        let config = wall.schema().default_config();
        let w = wall.run_trial(&config, 64, 9);
        let v = virt.run_trial(&config, 64, 9);
        assert_eq!(w.virtual_cost, v.virtual_cost);
        assert_eq!(w.accuracy, v.accuracy);
        assert!(w.time.is_finite());
        // And only the virtual model may be memoized.
        assert!(!wall.deterministic());
        assert!(virt.deterministic());
    }

    #[test]
    fn quarantine_sentinel_is_worst_on_every_axis() {
        let q = TrialOutcome::QUARANTINED;
        assert!(q.is_quarantined());
        assert_eq!(q.time, f64::INFINITY);
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
