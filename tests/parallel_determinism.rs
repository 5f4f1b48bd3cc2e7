//! Parallel candidate evaluation must be **bit-identical** to forced
//! sequential evaluation.
//!
//! Trial seeds are a deterministic function of `(input size, trial
//! index)`, trials are pure under the virtual cost model, and every
//! tuner decision happens in a fixed merge order — so switching the
//! evaluator between the work-stealing pool and a sequential loop may
//! change only the wall-clock schedule, never a configuration, a
//! statistic, or a prune decision. These tests pin that guarantee
//! across multiple seeds and two real tuning workloads.

use petabricks::benchmarks::binpacking::ratio_to_accuracy;
use petabricks::benchmarks::{BinPacking, Clustering};
use petabricks::config::{AccuracyBins, Config, Schema};
use petabricks::runtime::pool::THREADS_ENV;
use petabricks::runtime::{
    CostModel, TraceNode, Transform, TransformRunner, TrialOutcome, TrialRunner,
};
use petabricks::tuner::{Autotuner, TunerOptions, TuningOutcome};

/// Forces a multi-threaded pool even on single-core CI runners, so the
/// parallel path genuinely executes trials concurrently.
///
/// Guarded by a [`Once`] because libtest runs the `#[test]` fns on
/// separate threads: the variable is written exactly once, and every
/// test synchronizes on that write before its first pool use (the
/// pool's own `OnceLock` then reads it exactly once).
fn force_parallel_pool() {
    static FORCE: std::sync::Once = std::sync::Once::new();
    // SAFETY: the Once serializes the single write; all reads happen
    // through Pool::global()'s one-time init, after some call to this
    // function (and therefore the write) has completed.
    FORCE.call_once(|| unsafe { std::env::set_var(THREADS_ENV, "4") });
}

fn tune<T>(transform: T, bins: Vec<f64>, max_size: u64, seed: u64, parallel: bool) -> TuningOutcome
where
    T: Transform + Send + Sync,
{
    let runner = TransformRunner::new(transform, CostModel::Virtual);
    let mut options = TunerOptions::fast_preset(max_size, seed);
    options.parallel_trials = parallel;
    Autotuner::new(&runner, AccuracyBins::new(bins), options)
        .tune_outcome()
        .unwrap_or_else(|e| panic!("tuning failed: {e}"))
}

fn assert_bit_identical(seq: &TuningOutcome, par: &TuningOutcome) {
    // The tuned frontier: identical configurations and identical
    // observed statistics (f64-exact, no tolerance).
    assert_eq!(seq.program, par.program);
    // Every counter the run accumulated: same trials executed, same
    // children created/accepted, same prune decisions, same cache
    // behaviour.
    assert_eq!(seq.stats, par.stats);
    // And the surviving population is the same size.
    assert_eq!(seq.final_population, par.final_population);
    // Healthy workloads never trip fault isolation.
    for stats in [&seq.stats, &par.stats] {
        assert_eq!(
            (stats.trial_panics, stats.trial_nonfinite, stats.quarantined),
            (0, 0, 0)
        );
    }
}

#[test]
fn clustering_parallel_matches_sequential_across_seeds() {
    force_parallel_pool();
    for seed in [11u64, 0xE2E] {
        let seq = tune(Clustering, vec![0.05, 0.2], 64, seed, false);
        let par = tune(Clustering, vec![0.05, 0.2], 64, seed, true);
        assert_bit_identical(&seq, &par);
    }
}

#[test]
fn binpacking_parallel_matches_sequential_across_seeds() {
    force_parallel_pool();
    for seed in [7u64, 42] {
        let bins = vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
        let seq = tune(BinPacking, bins.clone(), 256, seed, false);
        let par = tune(BinPacking, bins, 256, seed, true);
        assert_bit_identical(&seq, &par);
    }
}

/// Arena comparisons consume no randomness at execution time and
/// merge comparator draws in plan order, so their rounds, draw counts,
/// batch shapes, memo traffic, and decisions must be bit-identical
/// between the forced-sequential evaluator and the 4-thread pool —
/// with pair-verdict memoization and the k-way selection layout
/// enabled (they always are; there is no other code path).
#[test]
fn pruning_is_bit_identical_and_batched() {
    force_parallel_pool();
    // Bin packing's seed-dependent trial noise keeps comparisons
    // ambiguous, so pruning genuinely draws extra trials here
    // (clustering's comparisons all decide from cached statistics).
    for seed in [5u64, 0xBEE] {
        let bins = vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
        let seq = tune(BinPacking, bins.clone(), 256, seed, false);
        let par = tune(BinPacking, bins, 256, seed, true);
        assert_bit_identical(&seq, &par);
        // `assert_bit_identical` already compares the full TunerStats;
        // these spell out that the pruning path was really exercised
        // through the batch machinery, not a degenerate no-op.
        assert!(
            seq.stats.prune_rounds > 0,
            "pruning must have run batched rounds: {:?}",
            seq.stats
        );
        assert!(
            seq.stats.prune_draws > 0,
            "pruning must have drawn comparator trials: {:?}",
            seq.stats
        );
        assert_eq!(seq.stats.prune_rounds, par.stats.prune_rounds);
        assert_eq!(seq.stats.prune_draws, par.stats.prune_draws);
    }
}

/// The child-vs-parent merge phase and the pair-verdict memo run
/// through the same arena machinery and must be just as bit-identical
/// — and really exercised: merge draws batch wider than one, the
/// pruning re-sorts replay memoized verdicts, and the mean arena round
/// is wider than the ~1.07 draws/round of pruning-only batching (when
/// every child-vs-parent draw ran blocking).
#[test]
fn merging_and_pair_memo_are_bit_identical_and_batched() {
    force_parallel_pool();
    // Seeds chosen so the run's pruning re-sorts really replay
    // memoized verdicts under the forced 4-thread pool (the virtual
    // cost model sees the thread budget, so the trajectory — and with
    // it the memo traffic — is a deterministic function of the seed
    // and that budget).
    for (max_size, seed) in [(256, 5u64), (256, 42), (128, 0x7B5)] {
        let bins = vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
        let seq = tune(BinPacking, bins.clone(), max_size, seed, false);
        let par = tune(BinPacking, bins, max_size, seed, true);
        assert_bit_identical(&seq, &par);
        let draws = seq.stats.prune_draws + seq.stats.merge_draws;
        let rounds = seq.stats.prune_rounds + seq.stats.merge_rounds;
        assert!(
            draws as f64 / rounds as f64 > 1.07,
            "mean arena round width fell to the pruning-only baseline: {:?}",
            seq.stats
        );
        assert!(
            seq.stats.merge_rounds > 0,
            "child-vs-parent merges must have run batched rounds: {:?}",
            seq.stats
        );
        assert!(
            seq.stats.merge_draws > seq.stats.merge_rounds,
            "disjoint merge pairs must batch their draws: {:?}",
            seq.stats
        );
        assert!(
            seq.stats.pair_memo_hits > 0,
            "re-sorts must replay memoized pair verdicts: {:?}",
            seq.stats
        );
        assert_eq!(seq.stats.merge_rounds, par.stats.merge_rounds);
        assert_eq!(seq.stats.merge_draws, par.stats.merge_draws);
        assert_eq!(seq.stats.pair_memo_queries, par.stats.pair_memo_queries);
        assert_eq!(seq.stats.pair_memo_hits, par.stats.pair_memo_hits);
    }
}

/// Tracing must be pure observation (the `pb_trace` contract): with
/// recording enabled, every tuner decision, every statistic, and
/// every counter must be bitwise what it is with tracing disabled —
/// in both evaluator modes. Only the event log may differ.
#[test]
fn tracing_does_not_perturb_tuner_decisions() {
    use petabricks::trace::EventKind;
    force_parallel_pool();
    let bins = vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
    let seed = 0x17ACE;
    let off_seq = tune(BinPacking, bins.clone(), 128, seed, false);
    let off_par = tune(BinPacking, bins.clone(), 128, seed, true);
    assert_bit_identical(&off_seq, &off_par);

    petabricks::trace::enable();
    let on_seq = tune(BinPacking, bins.clone(), 128, seed, false);
    let on_par = tune(BinPacking, bins, 128, seed, true);
    let trace = petabricks::trace::collect();
    petabricks::trace::disable();

    assert_bit_identical(&off_seq, &on_seq);
    assert_bit_identical(&off_seq, &on_par);
    // The traced runs really recorded the tuner hierarchy (one
    // tuning-run span each) — tracing was on, not silently off.
    let runs = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::TuningRun)
        .count();
    assert!(
        runs >= 2,
        "expected >= 2 tuning_run spans, got {runs} of {} events",
        trace.events.len()
    );
    assert!(
        trace.events.iter().any(|e| e.kind == EventKind::Trial),
        "traced runs must record trial spans"
    );
}

/// The same trials as the wrapped runner, but reported as
/// non-deterministic, so the tuner runs them without a memo.
struct Unmemoized<'r>(&'r dyn TrialRunner);

impl TrialRunner for Unmemoized<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        self.0.run_trial(config, n, seed)
    }
    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.0.run_traced(config, n, seed)
    }
}

#[test]
fn memoization_does_not_change_results_only_work() {
    force_parallel_pool();
    let runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.05, 0.2]);
    let options = TunerOptions::fast_preset(64, 3);
    let with_cache = Autotuner::new(&runner, bins.clone(), options)
        .tune_outcome()
        .unwrap();
    let without_cache = Autotuner::new(&Unmemoized(&runner), bins, options)
        .tune_outcome()
        .unwrap();
    assert_eq!(with_cache.program, without_cache.program);
    assert!(
        with_cache.stats.cache_hits > 0,
        "a real tuning run re-requests trials (duplicate candidates, \
         comparator redraws): {:?}",
        with_cache.stats
    );
    assert!(
        with_cache.stats.trials < without_cache.stats.trials,
        "memoization must reduce executed trials: {} vs {}",
        with_cache.stats.trials,
        without_cache.stats.trials
    );
}
