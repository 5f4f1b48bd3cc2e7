//! The top-level autotuning loop (Figure 5 of the paper).
//!
//! ```text
//! population = [...]
//! mutators   = [...]
//! for inputsize in [1, 2, 4, 8, 16, ..., N]:
//!     testPopulation(population, inputsize)
//!     for round in [1, 2, 3, ..., R]:
//!         randomMutation(population, mutators, inputsize)
//!         if accuracyTargetsNotReached(population):
//!             guidedMutation(population, mutators, inputsize)
//!         prune(population)
//! ```
//!
//! The exponentially growing input-size schedule "naturally exploits any
//! optimal substructure inherent to most programs" (§5.1); random
//! mutation expands the population (§5.5.2); guided mutation hill-climbs
//! on accuracy variables when targets are unmet (§5.5.3); pruning keeps
//! the fastest `K` per accuracy bin (§5.5.4).

use crate::candidate::{run_trials, Candidate};
use crate::exec::{EvalMode, Evaluator};
use crate::mutators::MutatorPool;
use crate::population::Population;
use pb_config::{AccuracyBins, Config, Schema, TunableKind, Value};
use pb_runtime::{TrialRunner, TunedEntry, TunedProgram};
use pb_stats::{Comparator, ComparatorConfig};
use pb_trace::EventKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::path::PathBuf;

/// Errors the autotuner can report.
#[derive(Debug, Clone, PartialEq)]
pub enum TunerError {
    /// Guided mutation failed to construct any candidate meeting an
    /// accuracy bin's target (§5.5.3: "If the required accuracy cannot
    /// be attained … an error is reported to the user").
    AccuracyUnreachable {
        /// The unmet bin target.
        target: f64,
        /// The best accuracy any candidate achieved at the final size.
        best_achieved: f64,
    },
    /// The transform declares no tunables, so there is nothing to tune.
    NothingToTune,
}

impl fmt::Display for TunerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunerError::AccuracyUnreachable {
                target,
                best_achieved,
            } => write!(
                f,
                "guided mutation could not reach accuracy target {target} (best achieved {best_achieved})"
            ),
            TunerError::NothingToTune => {
                write!(f, "the transform's schema declares no tunables")
            }
        }
    }
}

impl std::error::Error for TunerError {}

/// Tuning-run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerOptions {
    /// First input size in the exponential schedule.
    pub initial_size: u64,
    /// Final (largest) input size; training stops after this size.
    pub max_size: u64,
    /// Rounds of mutation + pruning per input size (`R` in Figure 5).
    pub rounds_per_size: usize,
    /// Random-mutation attempts per round.
    pub mutation_attempts: usize,
    /// `K`: candidates kept per accuracy bin when pruning.
    pub keep_per_bin: usize,
    /// Adaptive-comparison settings (§5.5.1); its `min_trials` is also
    /// how many trials every candidate gets before it is compared.
    pub comparator: ComparatorConfig,
    /// Hill-climbing step budget for guided mutation.
    pub guided_max_steps: usize,
    /// Extra randomly mutated candidates seeded into the initial
    /// population alongside the schema default.
    pub initial_random: usize,
    /// Master seed for the tuner's own randomness.
    pub seed: u64,
    /// Execute trial batches on the pool. `false` forces
    /// sequential execution; results are bit-identical either way
    /// (trial seeds are deterministic and merge order is fixed), so
    /// this is a performance switch and a determinism-test lever, not
    /// a semantic one.
    pub parallel_trials: bool,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            initial_size: 1,
            max_size: 4096,
            rounds_per_size: 6,
            mutation_attempts: 16,
            keep_per_bin: 3,
            comparator: ComparatorConfig::default(),
            guided_max_steps: 64,
            initial_random: 3,
            seed: 0x5EED,
            parallel_trials: true,
        }
    }
}

impl TunerOptions {
    /// A reduced-effort preset for tests, examples, and quick tuning
    /// runs: fewer rounds, fewer trials, smaller population.
    pub fn fast_preset(max_size: u64, seed: u64) -> Self {
        TunerOptions {
            initial_size: 2.min(max_size),
            max_size,
            rounds_per_size: 3,
            mutation_attempts: 8,
            keep_per_bin: 2,
            comparator: ComparatorConfig {
                min_trials: 2,
                max_trials: 8,
                ..ComparatorConfig::default()
            },
            guided_max_steps: 48,
            initial_random: 2,
            seed,
            parallel_trials: true,
        }
    }

    /// The exponential input-size schedule `[s, 2s, 4s, …, N]`.
    pub fn size_schedule(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        let mut n = self.initial_size.max(1);
        while n < self.max_size {
            sizes.push(n);
            n = n.saturating_mul(2);
        }
        sizes.push(self.max_size);
        sizes.dedup();
        sizes
    }
}

/// Counters describing what a tuning run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Calls into the runner, retried attempts included (the dominant
    /// cost, §5.5.1).
    pub trials: u64,
    /// Children created by random mutation.
    pub children_created: u64,
    /// Children that survived the parent comparison.
    pub children_accepted: u64,
    /// Guided-mutation invocations.
    pub guided_runs: u64,
    /// Trial requests served from the memo cache without executing
    /// (entries produced earlier in this run).
    pub cache_hits: u64,
    /// Always 0: the memo lives for one run, so no entry is warm. Kept
    /// because the frozen ledger still reads it.
    pub cache_hits_warm: u64,
    /// Trial requests that executed a trial (`trials -
    /// trial_retries`).
    pub cache_misses: u64,
    /// Trial requests that duplicated another request in the same
    /// batch and shared its execution (neither hits nor misses).
    pub cache_coalesced: u64,
    /// Pruning arena rounds that issued a trial batch (§5.5.4 on the
    /// pool).
    pub prune_rounds: u64,
    /// Comparator-requested trial draws executed via pruning batches.
    pub prune_draws: u64,
    /// Child-vs-parent merge arena rounds that issued a trial batch.
    pub merge_rounds: u64,
    /// Comparator-requested trial draws executed via merge batches.
    pub merge_draws: u64,
    /// Always 0: the arena keeps no pair-verdict memo. Kept because
    /// the frozen ledger still reads it.
    pub pair_memo_queries: u64,
    /// Always 0, like `pair_memo_queries`, and kept for the same
    /// reader.
    pub pair_memo_hits: u64,
    /// Trial attempts that panicked (caught by the evaluator's fault
    /// isolation, never propagated).
    pub trial_panics: u64,
    /// Trial attempts that reported a non-finite cost.
    pub trial_nonfinite: u64,
    /// Trial re-executions triggered by faulting attempts.
    pub trial_retries: u64,
    /// Trials quarantined after exhausting their retries (recorded
    /// with the deterministic worst-cost sentinel).
    pub quarantined: u64,
}

impl TunerStats {
    /// This run's *decision* counters: everything that describes what
    /// the tuner decided, with the raw attempt/fault counters zeroed
    /// out. Two runs whose decision images are equal made identical
    /// choices even if one needed retries to get there — the chaos
    /// contract (`tests/fault_injection.rs`) compares a fault-injected
    /// run against a fault-free run this way, since retried attempts
    /// legitimately inflate the fault counters and `trials` (by exactly
    /// `trial_retries`) without changing a single verdict.
    /// `quarantined` is *kept*: a quarantine replaces an outcome and
    /// therefore is a decision input.
    pub fn decision_image(&self) -> TunerStats {
        TunerStats {
            trials: 0,
            trial_panics: 0,
            trial_nonfinite: 0,
            trial_retries: 0,
            ..*self
        }
    }
}

/// A tuned program plus the run's statistics and frontier summary.
#[derive(Debug)]
pub struct TuningOutcome {
    /// The per-bin winning configurations.
    pub program: TunedProgram,
    /// Run counters.
    pub stats: TunerStats,
    /// Population size at the end of training.
    pub final_population: usize,
}

/// The accuracy-aware genetic autotuner (§5).
///
/// See the crate-level example for end-to-end usage.
pub struct Autotuner<'a> {
    runner: &'a dyn TrialRunner,
    bins: AccuracyBins,
    options: TunerOptions,
}

impl<'a> Autotuner<'a> {
    /// Creates a tuner for `runner` over the given accuracy bins.
    pub fn new(runner: &'a dyn TrialRunner, bins: AccuracyBins, options: TunerOptions) -> Self {
        Autotuner {
            runner,
            bins,
            options,
        }
    }

    /// Returns `self` unchanged: the trial memo lives for one tuning
    /// run, and nothing is read from or written to `path`. Does
    /// nothing; kept only so the frozen ledger (`ledger/src/layers.rs`)
    /// builds; the ledger refresh deletes it with the `sidecars` row.
    pub fn with_trial_cache(self, _path: impl Into<PathBuf>) -> Self {
        self
    }

    /// Runs the full tuning loop and returns the tuned program.
    ///
    /// # Errors
    ///
    /// See [`TunerError`].
    pub fn tune(self) -> Result<TunedProgram, TunerError> {
        self.tune_outcome().map(|o| o.program)
    }

    /// Runs the full tuning loop, returning the program plus run
    /// statistics (used by the ablation benches).
    ///
    /// # Errors
    ///
    /// See [`TunerError`].
    pub fn tune_outcome(self) -> Result<TuningOutcome, TunerError> {
        let schema = self.runner.schema().clone();
        if schema.is_empty() {
            return Err(TunerError::NothingToTune);
        }
        let mode = if self.options.parallel_trials {
            EvalMode::Parallel
        } else {
            EvalMode::Sequential
        };
        let evaluator = Evaluator::new(self.runner, mode, true);
        let pool = MutatorPool::from_schema(&schema);
        let comparator = Comparator::new(self.options.comparator);
        let mut rng = SmallRng::seed_from_u64(self.options.seed);
        let mut stats = TunerStats::default();
        let mut next_id: u64 = 0;
        let mut alloc_id = || {
            let id = next_id;
            next_id += 1;
            id
        };

        // Initial population: schema default plus a few random mutants.
        let mut pop = Population::new();
        pop.add(Candidate::new(alloc_id(), schema.default_config()));
        for _ in 0..self.options.initial_random {
            let mut config = schema.default_config();
            if pool
                .apply_random(
                    &mut config,
                    &schema,
                    self.options.initial_size,
                    &mut rng,
                    None,
                )
                .is_some()
            {
                pop.add(Candidate::new(alloc_id(), config));
            }
        }

        let sizes = self.options.size_schedule();
        for &n in &sizes {
            evaluator.drop_inputs_below(n);
            let span = pb_trace::start();
            pop.test_all(&evaluator, n, self.options.comparator.min_trials);
            pb_trace::record(EventKind::PhaseTest, span);
            for _round in 0..self.options.rounds_per_size {
                self.random_mutation(
                    &evaluator,
                    &schema,
                    &pool,
                    &comparator,
                    &mut pop,
                    n,
                    &mut rng,
                    &mut stats,
                    &mut alloc_id,
                );
                if let Some(target) = self.unmet_target(&pop, n) {
                    stats.guided_runs += 1;
                    let span = pb_trace::start();
                    if self.guided_mutation(&evaluator, &schema, &mut pop, n, target, &mut alloc_id)
                    {
                        stats.children_created += 1;
                        stats.children_accepted += 1;
                    }
                    pb_trace::record(EventKind::PhaseGuided, span);
                }
                let span = pb_trace::start();
                let report = pop.prune(
                    n,
                    &self.bins,
                    self.options.keep_per_bin,
                    &evaluator,
                    &comparator,
                );
                pb_trace::record(EventKind::PhasePrune, span);
                stats.prune_rounds += report.rounds;
                stats.prune_draws += report.draws;
            }
        }

        // Assemble the tuned program at the final size.
        let final_n = *sizes.last().expect("schedule is never empty");
        let mut entries = Vec::with_capacity(self.bins.len());
        for &target in self.bins.targets() {
            let idx = pop.fastest_meeting(final_n, target).ok_or_else(|| {
                let best = pop
                    .best_accuracy_index(final_n)
                    .map(|i| pop.candidates()[i].mean_accuracy(final_n))
                    .unwrap_or(f64::NEG_INFINITY);
                TunerError::AccuracyUnreachable {
                    target,
                    best_achieved: best,
                }
            })?;
            let candidate = &pop.candidates()[idx];
            entries.push(TunedEntry {
                target,
                config: candidate.config().clone(),
                observed_accuracy: candidate.mean_accuracy(final_n),
                observed_time: candidate.mean_time(final_n),
            });
        }
        let stats = TunerStats {
            children_created: stats.children_created,
            children_accepted: stats.children_accepted,
            guided_runs: stats.guided_runs,
            prune_rounds: stats.prune_rounds,
            prune_draws: stats.prune_draws,
            merge_rounds: stats.merge_rounds,
            merge_draws: stats.merge_draws,
            ..evaluator.counters()
        };
        Ok(TuningOutcome {
            program: TunedProgram::new(schema.name(), self.bins, entries),
            stats,
            final_population: pop.len(),
        })
    }

    /// The lowest accuracy-bin target no candidate meets, if any (drives
    /// the guided-mutation phase of Figure 5, which climbs toward it).
    fn unmet_target(&self, pop: &Population, n: u64) -> Option<f64> {
        self.bins
            .targets()
            .iter()
            .copied()
            .find(|&t| !pop.candidates().iter().any(|c| c.meets_target(n, t)))
    }

    /// The random-mutation phase (§5.5.2) in plan-then-execute form:
    ///
    /// 1. **Plan** — draw every mutation attempt of the round against
    ///    the round-start population: pick a random parent and
    ///    mutator, build the child configuration, and append the child
    ///    to the population. No trials run.
    /// 2. **Test** — the population's test (only the children lack
    ///    trials) batches all their initial trials through the
    ///    evaluator (the pool in parallel mode).
    /// 3. **Merge** — decide each child-vs-parent comparison through
    ///    one comparison-arena session
    ///    ([`Population::merge_children`]): the pairs are grouped by
    ///    parent into plan-order chains. Within a chain a pair starts
    ///    drawing only once the pair before it is decided, so every
    ///    comparison sees exactly the statistics the old
    ///    one-blocking-comparison-at-a-time merge produced — identical
    ///    draws, identical accept/reject decisions. Across chains the
    ///    stalled pairs' draws share each arena round, which executes
    ///    as one [`Evaluator::run_batch`] on the pool. A child is kept
    ///    if it beats its parent in either time or accuracy.
    ///
    /// All randomness is consumed in the plan phase and all decisions
    /// happen in the fixed merge order, so parallel execution is
    /// bit-identical to sequential.
    #[allow(clippy::too_many_arguments)]
    fn random_mutation(
        &self,
        evaluator: &Evaluator<'_>,
        schema: &Schema,
        pool: &MutatorPool,
        comparator: &Comparator,
        pop: &mut Population,
        n: u64,
        rng: &mut SmallRng,
        stats: &mut TunerStats,
        alloc_id: &mut impl FnMut() -> u64,
    ) {
        if pop.is_empty() {
            return;
        }
        // Phase 1 — plan. Parents are drawn from the round-start
        // population (accepted children join the parent pool next
        // round); children join at fixed indices after the parents.
        let span = pb_trace::start();
        let parent_count = pop.len();
        let mut parent_of: Vec<usize> = Vec::new();
        for _ in 0..self.options.mutation_attempts {
            let parent_idx = rng.gen_range(0..parent_count);
            let parent = &pop.candidates()[parent_idx];
            let mut config = parent.config().clone();
            let prev = parent.last_mutation.as_ref();
            let Some(record) = pool.apply_random(&mut config, schema, n, rng, prev) else {
                continue;
            };
            let mut child = Candidate::new(alloc_id(), config);
            child.last_mutation = Some(record);
            parent_of.push(parent_idx);
            pop.add(child);
        }
        stats.children_created += parent_of.len() as u64;

        // Phase 2 — test the whole round's children at once.
        pop.test_all(evaluator, n, self.options.comparator.min_trials);
        pb_trace::record(EventKind::PhaseMutate, span);

        // Phase 3 — merge through the arena; rejected children are
        // dropped once every pair is decided.
        let span = pb_trace::start();
        let (accepted, report) = pop.merge_children(
            &parent_of,
            n,
            evaluator,
            comparator,
            self.options.comparator.alpha,
        );
        pb_trace::record(EventKind::PhaseMerge, span);
        stats.children_accepted += accepted.iter().filter(|&&a| a).count() as u64;
        pop.retain_indexed(|idx| idx < parent_count || accepted[idx - parent_count]);
        stats.merge_rounds += report.rounds;
        stats.merge_draws += report.draws;
    }

    /// The guided-mutation phase (§5.5.3): hill climbing on the
    /// accuracy tunables of the best-accuracy candidate toward
    /// `target`, the lowest unmet bin target. Returns whether it added
    /// a candidate to the population.
    ///
    /// The incumbent and each step's probes are candidates outside the
    /// population, tested by one [`run_trials`] batch per step and judged
    /// by [`Candidate::meets_target`]; the first most accurate probe in
    /// (tunable, neighbour) order wins, so parallel runs match sequential.
    fn guided_mutation(
        &self,
        evaluator: &Evaluator<'_>,
        schema: &Schema,
        pop: &mut Population,
        n: u64,
        target: f64,
        alloc_id: &mut impl FnMut() -> u64,
    ) -> bool {
        let Some(base_idx) = pop.best_accuracy_index(n) else {
            return false;
        };
        let accuracy_ids = schema.accuracy_tunables();
        if accuracy_ids.is_empty() {
            return false;
        }

        let trials = self.options.comparator.min_trials;
        // Measured afresh: its population twin may hold more trials.
        let mut current = Candidate::new(PROBE_ID, pop.candidates()[base_idx].config().clone());
        let incumbent = std::slice::from_mut(&mut current);
        run_trials(incumbent, n, evaluator, [(0, trials)]);
        let mut improved_any = false;

        for _ in 0..self.options.guided_max_steps {
            if current.meets_target(n, target) {
                break;
            }
            // Plan the step's probes …
            let mut probes: Vec<Candidate> = Vec::new();
            for &id in &accuracy_ids {
                for neighbor in neighbor_values(schema, current.config(), id) {
                    let mut probe = current.config().clone();
                    probe.set(id, neighbor);
                    if probe != *current.config() {
                        probes.push(Candidate::new(PROBE_ID, probe));
                    }
                }
            }
            // … test them as one batch …
            let wants = (0..probes.len()).map(|i| (i, trials));
            run_trials(&mut probes, n, evaluator, wants);
            // … and pick the winner in plan order.
            let best = probes.into_iter().reduce(|best, probe| {
                let better = probe.mean_accuracy(n) > best.mean_accuracy(n);
                if better {
                    probe
                } else {
                    best
                }
            });
            match best {
                Some(probe) if probe.mean_accuracy(n) > current.mean_accuracy(n) => {
                    current = probe;
                    improved_any = true;
                }
                _ => break, // local optimum
            }
        }

        let added = improved_any || current.meets_target(n, target);
        if added {
            pop.add(Candidate::new(alloc_id(), current.config().clone()));
            pop.test_all(evaluator, n, trials);
        }
        added
    }
}

/// The id of guided mutation's incumbent and probes: nothing reads it,
/// and a run allocates ids upward from 0, so no member takes it.
const PROBE_ID: u64 = u64::MAX;

/// Hill-climbing neighbourhood for one accuracy tunable: double, halve,
/// increment, decrement for accuracy variables; every alternative
/// algorithm for choice sites.
fn neighbor_values(schema: &Schema, config: &Config, id: pb_config::TunableId) -> Vec<Value> {
    let tunable = schema.tunable_by_id(id);
    match tunable.kind() {
        TunableKind::AccuracyVariable { .. } => {
            let v = config.get(id).as_int().unwrap_or(1);
            let (up, down) = (v.saturating_add(1), v.saturating_sub(1));
            [v.saturating_mul(2), v / 2, up, down]
                .into_iter()
                .map(|x| tunable.clamp(Value::Int(x)))
                .collect()
        }
        TunableKind::ChoiceSite { num_algorithms } => (0..*num_algorithms)
            .map(|i| Value::Tree(pb_config::DecisionTree::single(i)))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};

    /// Diminishing-returns iteration benchmark: accuracy = 1 - 1/(1+i),
    /// cost = i·n. The optimal config for target a is the smallest i
    /// with 1 - 1/(1+i) >= a.
    struct Iterate;

    impl Transform for Iterate {
        type Input = ();
        type Output = f64;
        fn name(&self) -> &str {
            "iterate"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("iterate");
            s.add_accuracy_variable("iters", 1, 1 << 14);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
            let iters = ctx.param("iters").unwrap() as f64;
            ctx.charge(iters * ctx.size() as f64);
            1.0 - 1.0 / (1.0 + iters)
        }
        fn accuracy(&self, _i: &(), o: &f64) -> f64 {
            *o
        }
    }

    /// Two algorithms: algorithm 0 is fast but capped at accuracy 0.5;
    /// algorithm 1 is 10x slower but reaches 1.0. Tests that the tuner
    /// switches algorithms across bins.
    struct TwoAlgos;

    impl Transform for TwoAlgos {
        type Input = ();
        type Output = f64;
        fn name(&self) -> &str {
            "two_algos"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("two_algos");
            s.add_choice_site("algo", 2);
            s.add_accuracy_variable("effort", 1, 1024);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
            let effort = ctx.param("effort").unwrap() as f64;
            match ctx.choice("algo").unwrap() {
                0 => {
                    ctx.charge(effort);
                    0.5 * (1.0 - 1.0 / (1.0 + effort))
                }
                _ => {
                    ctx.charge(10.0 * effort);
                    1.0 - 1.0 / (1.0 + effort)
                }
            }
        }
        fn accuracy(&self, _i: &(), o: &f64) -> f64 {
            *o
        }
    }

    #[test]
    fn tunes_iteration_counts_per_bin() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.5, 0.9, 0.999]);
        let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(16, 3))
            .tune()
            .unwrap();
        let schema = runner.schema();
        let i0 = tuned.entry(0).config.int(schema, "iters").unwrap();
        let i1 = tuned.entry(1).config.int(schema, "iters").unwrap();
        let i2 = tuned.entry(2).config.int(schema, "iters").unwrap();
        assert!(
            i0 <= i1 && i1 <= i2,
            "iters should grow with accuracy: {i0} {i1} {i2}"
        );
        // Minimum feasible iters: 1 for 0.5, 9 for 0.9, 999 for 0.999.
        assert!(i0 >= 1 && i1 >= 9 && i2 >= 999);
        // And the tuner should not grossly overshoot (cost pressure).
        assert!(i0 <= 64, "bin 0 picked wastefully large iters {i0}");
        assert!(tuned.entry(0).observed_time <= tuned.entry(2).observed_time);
    }

    #[test]
    fn switches_algorithms_between_bins() {
        let runner = TransformRunner::new(TwoAlgos, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.3, 0.9]);
        let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(16, 11))
            .tune()
            .unwrap();
        let schema = runner.schema();
        // The 0.9 bin is only reachable with algorithm 1.
        let hi = tuned.entry(1).config.choice(schema, "algo", 16).unwrap();
        assert_eq!(hi, 1);
        assert!(tuned.entry(1).observed_accuracy >= 0.9);
        assert!(tuned.entry(0).observed_accuracy >= 0.3);
    }

    #[test]
    fn unreachable_target_errors() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        // Accuracy is strictly below 1.0 for any finite iters; 2.0 is
        // impossible.
        let bins = AccuracyBins::new(vec![2.0]);
        let err = Autotuner::new(&runner, bins, TunerOptions::fast_preset(8, 5))
            .tune()
            .unwrap_err();
        match err {
            TunerError::AccuracyUnreachable {
                target,
                best_achieved,
            } => {
                assert_eq!(target, 2.0);
                assert!(best_achieved < 1.01);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_schema_errors() {
        struct Untunable;
        impl Transform for Untunable {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "untunable"
            }
            fn schema(&self) -> Schema {
                Schema::new("untunable")
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), _ctx: &mut ExecCtx<'_>) {}
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                1.0
            }
        }
        let runner = TransformRunner::new(Untunable, CostModel::Virtual);
        let err = Autotuner::new(
            &runner,
            AccuracyBins::new(vec![0.5]),
            TunerOptions::fast_preset(8, 0),
        )
        .tune()
        .unwrap_err();
        assert_eq!(err, TunerError::NothingToTune);
    }

    #[test]
    fn outcome_reports_nonzero_stats() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.5]);
        let outcome = Autotuner::new(&runner, bins, TunerOptions::fast_preset(8, 2))
            .tune_outcome()
            .unwrap();
        assert!(outcome.stats.trials > 0);
        assert!(outcome.stats.children_created > 0);
        assert!(outcome.final_population >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.5, 0.9]);
        let a = Autotuner::new(&runner, bins.clone(), TunerOptions::fast_preset(8, 77))
            .tune()
            .unwrap();
        let b = Autotuner::new(&runner, bins, TunerOptions::fast_preset(8, 77))
            .tune()
            .unwrap();
        assert_eq!(a, b);
    }

    /// Algorithm 0 costs `8·n` (low constant, no setup); algorithm 1
    /// costs `n²/16 + 1` — so 0 wins above n = 128 and 1 wins below.
    /// Accuracy is 1.0 either way. Tests that decision-tree mutation
    /// lets the tuner specialize the choice by input size.
    struct SizeDependent;

    impl Transform for SizeDependent {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "size_dependent"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("size_dependent");
            s.add_choice_site("algo", 2);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            let n = ctx.size() as f64;
            match ctx.choice("algo").unwrap() {
                0 => ctx.charge(8.0 * n),
                _ => ctx.charge(n * n / 16.0 + 1.0),
            }
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            1.0
        }
    }

    #[test]
    fn decision_trees_specialize_choice_by_input_size() {
        let runner = TransformRunner::new(SizeDependent, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![1.0]);
        let mut options = TunerOptions::fast_preset(1024, 21);
        options.rounds_per_size = 5;
        options.mutation_attempts = 20;
        let tuned = Autotuner::new(&runner, bins, options).tune().unwrap();
        let schema = runner.schema();
        let config = &tuned.entry(0).config;
        // At the trained (largest) size, the linear algorithm must win:
        // 8·1024 = 8192 vs 1024²/16 = 65537.
        assert_eq!(config.choice(schema, "algo", 1024).unwrap(), 0);
        // The winning candidate's cost at the final size reflects the
        // correct asymptotic branch.
        assert!(tuned.entry(0).observed_time < 16_000.0);
    }

    /// A tuner targeting `target`, a sequential evaluator, and a
    /// population of one `Iterate` candidate at `iters`, tested at `n`.
    fn one_candidate<'r>(
        runner: &'r TransformRunner<Iterate>,
        iters: i64,
        n: u64,
        target: f64,
    ) -> (Autotuner<'r>, Evaluator<'r>, Population) {
        let schema = runner.schema();
        let mut config = schema.default_config();
        config
            .set_by_name(schema, "iters", Value::Int(iters))
            .unwrap();
        let options = TunerOptions::fast_preset(n, 0);
        let tuner = Autotuner::new(runner, AccuracyBins::new(vec![target]), options);
        let evaluator = Evaluator::new(runner, EvalMode::Sequential, true);
        let mut pop = Population::new();
        pop.add(Candidate::new(0, config));
        pop.test_all(&evaluator, n, options.comparator.min_trials);
        (tuner, evaluator, pop)
    }

    #[test]
    fn guided_mutation_climbs_to_a_reachable_target() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let (tuner, evaluator, mut pop) = one_candidate(&runner, 1, 8, 0.9);
        let mut next_id = 1;
        let mut alloc_id = || {
            next_id += 1;
            next_id - 1
        };
        assert_eq!(tuner.unmet_target(&pop, 8), Some(0.9));
        assert!(tuner.guided_mutation(
            &evaluator,
            runner.schema(),
            &mut pop,
            8,
            0.9,
            &mut alloc_id
        ));
        assert_eq!(pop.len(), 2, "exactly one candidate added");
        let added = &pop.candidates()[1];
        assert_eq!(added.id, 1, "the added candidate takes the run's next id");
        assert!(added.meets_target(8, 0.9));
        assert_eq!(tuner.unmet_target(&pop, 8), None);
    }

    #[test]
    fn guided_mutation_at_the_range_maximum_adds_nothing() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let (tuner, evaluator, mut pop) = one_candidate(&runner, 1 << 14, 8, 2.0);
        let before = pop.candidates()[0].config().clone();
        let mut alloc_id = || -> u64 { panic!("no candidate may be added") };
        assert!(!tuner.guided_mutation(
            &evaluator,
            runner.schema(),
            &mut pop,
            8,
            2.0,
            &mut alloc_id
        ));
        assert_eq!(pop.len(), 1);
        assert_eq!(*pop.candidates()[0].config(), before);
    }

    #[test]
    fn neighbors_saturate_at_the_ends_of_the_integer_range() {
        let mut schema = Schema::new("extreme");
        let id = schema.add_accuracy_variable("k", i64::MIN, i64::MAX);
        let mut config = schema.default_config();
        let ints = |config: &Config| -> Vec<i64> {
            neighbor_values(&schema, config, id)
                .into_iter()
                .map(|v| v.as_int().unwrap())
                .collect()
        };
        config.set(id, Value::Int(i64::MAX));
        assert_eq!(
            ints(&config),
            [i64::MAX, i64::MAX / 2, i64::MAX, i64::MAX - 1]
        );
        config.set(id, Value::Int(i64::MIN));
        assert_eq!(
            ints(&config),
            [i64::MIN, i64::MIN / 2, i64::MIN + 1, i64::MIN]
        );
    }

    #[test]
    fn size_schedule_is_exponential_and_ends_at_max() {
        let options = TunerOptions {
            initial_size: 1,
            max_size: 100,
            ..TunerOptions::default()
        };
        assert_eq!(options.size_schedule(), vec![1, 2, 4, 8, 16, 32, 64, 100]);
        let single = TunerOptions {
            initial_size: 64,
            max_size: 64,
            ..TunerOptions::default()
        };
        assert_eq!(single.size_schedule(), vec![64]);
    }
}
