//! Parallel candidate evaluation must be **bit-identical** to forced
//! sequential evaluation.
//!
//! Trial seeds are a deterministic function of `(input size, trial
//! index)`, trials are pure under the virtual cost model, and every
//! tuner decision happens in a fixed merge order — so switching the
//! evaluator between the work-stealing pool and a sequential loop may
//! change only the wall-clock schedule, never a configuration, a
//! statistic, or a prune decision. These tests pin that guarantee
//! across multiple seeds and two real tuning workloads, and that the
//! pooled runs they compare really dispatch batches to the workers,
//! and really run batches too cheap to dispatch inline.

use petabricks::benchmarks::binpacking::ratio_to_accuracy;
use petabricks::benchmarks::{BinPacking, Clustering, Helmholtz3d, ImageCompression};
use petabricks::config::{AccuracyBins, Config, Schema};
use petabricks::runtime::pool::{current_task_depth, Pool, THREADS_ENV};
use petabricks::runtime::{
    CostModel, ExecCtx, TraceNode, Transform, TransformRunner, TrialOutcome, TrialRunner,
};
use petabricks::tuner::{Autotuner, TunerOptions, TuningOutcome};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Forces a multi-threaded pool even on single-core CI runners, so the
/// parallel path genuinely executes trials concurrently, and holds the
/// pool for the calling test until the guard drops: this file's tests
/// run one at a time, so the pool's batch counters a test reads count
/// its own batches only.
///
/// The variable is written under a [`Once`] because libtest runs the
/// `#[test]` fns on separate threads: it is written exactly once, and
/// every test synchronizes on that write before its first pool use
/// (the pool's own `OnceLock` then reads it exactly once).
fn force_parallel_pool() -> MutexGuard<'static, ()> {
    static FORCE: std::sync::Once = std::sync::Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    // A test that failed while holding the pool poisoned nothing the
    // next one reads.
    let serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // SAFETY: the Once serializes the single write; all reads happen
    // through Pool::global()'s one-time init, after some call to this
    // function (and therefore the write) has completed.
    FORCE.call_once(|| unsafe { std::env::set_var(THREADS_ENV, "4") });
    serial
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
    let _pool = force_parallel_pool();
    for seed in [11u64, 0xE2E] {
        let seq = tune(Clustering, vec![0.05, 0.2], 64, seed, false);
        let par = tune(Clustering, vec![0.05, 0.2], 64, seed, true);
        assert_bit_identical(&seq, &par);
    }
}

#[test]
fn binpacking_parallel_matches_sequential_across_seeds() {
    let _pool = force_parallel_pool();
    for seed in [7u64, 42] {
        let bins = vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
        let seq = tune(BinPacking, bins.clone(), 256, seed, false);
        let par = tune(BinPacking, bins, 256, seed, true);
        assert_bit_identical(&seq, &par);
    }
}

/// Arena comparisons consume no randomness at execution time and
/// merge comparator draws in plan order, so their rounds, draw counts,
/// batch shapes and decisions must be bit-identical between the
/// forced-sequential evaluator and the 4-thread pool.
#[test]
fn pruning_is_bit_identical_and_batched() {
    let _pool = force_parallel_pool();
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

/// The child-vs-parent merge phase runs through the same arena
/// machinery and must be just as bit-identical — and really exercised:
/// merge draws batch wider than one, and the mean arena round is wider
/// than the ~1.07 draws/round of pruning-only batching (when every
/// child-vs-parent draw ran blocking).
#[test]
fn merging_is_bit_identical_and_batched() {
    let _pool = force_parallel_pool();
    // The virtual cost model charges the modeled machine, not the
    // pool, so each run's trajectory is a deterministic function of the
    // seed alone.
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
        assert_eq!(seq.stats.merge_rounds, par.stats.merge_rounds);
        assert_eq!(seq.stats.merge_draws, par.stats.merge_draws);
    }
}

/// Tracing must be pure observation (the `pb_trace` contract): with
/// recording enabled, every tuner decision, every statistic, and
/// every counter must be bitwise what it is with tracing disabled —
/// in both evaluator modes. Only the event log may differ.
#[test]
fn tracing_does_not_perturb_tuner_decisions() {
    use petabricks::trace::EventKind;
    let _pool = force_parallel_pool();
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
    // The traced runs really recorded phase spans — tracing was on,
    // not silently off. Guided mutation runs only while a bin is
    // unmet, so it is not required.
    for kind in [
        EventKind::PhaseTest,
        EventKind::PhaseMutate,
        EventKind::PhaseMerge,
        EventKind::PhasePrune,
    ] {
        let spans = trace.events.iter().filter(|e| e.kind == kind).count();
        assert!(
            spans >= 2,
            "expected >= 2 {} spans, got {spans} of {} events",
            kind.name(),
            trace.events.len()
        );
    }
}

/// The same trials as the wrapped runner, but reported as not
/// deterministic: a flag the tuner does not read, since every trial is
/// a pure function of `(config, n, seed)` and always memoized.
struct Unmemoized<'r>(&'r dyn TrialRunner);

impl TrialRunner for Unmemoized<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn deterministic(&self) -> bool {
        false
    }
    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        self.0.run_trial(config, n, seed)
    }
    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.0.run_traced(config, n, seed)
    }
}

/// Every runner is memoized, whatever its `deterministic()` says: one
/// that reports `false` tunes k-means to the same program, and the same
/// counters, cache hits included, as the plain runner.
#[test]
fn memoization_does_not_change_results_only_work() {
    let _pool = force_parallel_pool();
    let runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.05, 0.2]);
    let options = TunerOptions::fast_preset(64, 3);
    let plain = Autotuner::new(&runner, bins.clone(), options)
        .tune_outcome()
        .unwrap();
    let flagged = Unmemoized(&runner);
    assert!(!flagged.deterministic());
    let reported = Autotuner::new(&flagged, bins, options)
        .tune_outcome()
        .unwrap();
    assert_eq!(plain.program, reported.program);
    assert_eq!(plain.stats, reported.stats);
    assert!(
        reported.stats.cache_hits > 0,
        "a real tuning run re-requests trials (duplicate candidates, \
         comparator redraws): {:?}",
        reported.stats
    );
}

/// The same trials as the wrapped runner, but without `prepare` and
/// `run_prepared`: every trial generates its own input, as before
/// inputs were shared.
struct Unshared<'r>(&'r dyn TrialRunner);

impl TrialRunner for Unshared<'_> {
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

/// Image compression keeps its Gram reduction and each eigensolver's
/// top singular triplets on the shared input, Helmholtz its band
/// factors, and k-means its k-means++ seedings; none may show in a
/// tuned decision or a counter. Image compression tunes up to n = 48 as
/// well as 16: only past 32 does divide and conquer recurse. k-means
/// tunes up to n = 1 024 at the seed whose tuned programs seed 30
/// centres by k-means++ at every size, so the assignment scan prunes
/// too.
#[test]
fn shared_inputs_change_work_not_results() {
    let _pool = force_parallel_pool();
    fn check(runner: &dyn TrialRunner, bins: Vec<f64>, max_size: u64, seed: u64) {
        let bins = AccuracyBins::new(bins);
        let options = TunerOptions::fast_preset(max_size, seed);
        let shared = Autotuner::new(runner, bins.clone(), options)
            .tune_outcome()
            .unwrap();
        let unshared = Autotuner::new(&Unshared(runner), bins, options)
            .tune_outcome()
            .unwrap();
        assert_eq!(shared.program, unshared.program, "{}", runner.name());
        assert_eq!(shared.stats, unshared.stats, "{}", runner.name());
    }
    let image = TransformRunner::new(ImageCompression, CostModel::Virtual);
    check(&image, vec![0.3, 1.0], 16, 0x1C);
    check(&image, vec![0.3, 1.0], 48, 0x1C);
    let helmholtz = TransformRunner::new(Helmholtz3d, CostModel::Virtual);
    check(&helmholtz, vec![1.0, 3.0, 5.0], 7, 0x4E);
    let clustering = TransformRunner::new(Clustering, CostModel::Virtual);
    check(&clustering, vec![0.05, 0.2], 1024, 0xE2E);
}

/// A trial that spins for `spin` before charging like `v` iterations
/// of a real kernel, and records where it ran.
struct Spinning {
    spin: Duration,
    /// How long, at most, a trial the submitting thread runs inside a
    /// pool task spins on until some trial has run on a worker.
    worker_deadline: Instant,
    /// Trials run on a pool worker: their batch was dispatched.
    on_worker: AtomicU64,
    /// Trials run on the submitting thread outside any pool task: a
    /// single-request batch, which the pool counts as an inline batch.
    unmarked: AtomicU64,
}

impl Spinning {
    fn new(spin: Duration) -> Self {
        Spinning {
            spin,
            worker_deadline: Instant::now() + Duration::from_secs(60),
            on_worker: AtomicU64::new(0),
            unmarked: AtomicU64::new(0),
        }
    }
}

impl Transform for Spinning {
    type Input = f64;
    type Output = f64;
    fn name(&self) -> &str {
        "spinning"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("spinning");
        s.add_accuracy_variable("v", 1, 64);
        s
    }
    fn generate_input(&self, _n: u64, rng: &mut SmallRng) -> f64 {
        rand::Rng::gen_range(rng, 0.9..1.1)
    }
    fn execute(&self, input: &f64, ctx: &mut ExecCtx<'_>) -> f64 {
        let start = Instant::now();
        let on_worker = std::thread::current().name() == Some("pb-pool-worker");
        // The submitting thread can run every job of a dispatched batch
        // before a parked worker wakes. So a spinning trial it runs
        // inside a pool task holds its job until a worker has run one:
        // whether a batch reaches a worker then does not depend on when
        // a worker wakes.
        let awaits_worker = self.spin > Duration::ZERO && !on_worker && current_task_depth() > 0;
        while start.elapsed() < self.spin
            || (awaits_worker
                && self.on_worker.load(Ordering::Relaxed) == 0
                && Instant::now() < self.worker_deadline)
        {
            std::hint::spin_loop();
        }
        if on_worker {
            self.on_worker.fetch_add(1, Ordering::Relaxed);
        } else if current_task_depth() == 0 {
            self.unmarked.fetch_add(1, Ordering::Relaxed);
        }
        let v = ctx.param("v").unwrap() as f64;
        ctx.charge(v * ctx.size() as f64 * input);
        1.0 - 1.0 / (1.0 + v)
    }
    fn accuracy(&self, input: &f64, output: &f64) -> f64 {
        output * input
    }
}

/// At the sizes these tests tune, most pooled batches are cheaper than
/// a dispatch and run inline, which would leave the comparisons above
/// comparing the sequential evaluator with itself. Trials that spin
/// ~50 µs must still reach the workers; trials that cost nothing must
/// run some batch inline. Both pooled runs equal the sequential one.
#[test]
fn pooled_runs_dispatch_costly_batches_and_inline_cheap_ones() {
    let _pool = force_parallel_pool();
    let tune = |spin: Duration, parallel: bool| {
        let runner = TransformRunner::new(Spinning::new(spin), CostModel::Virtual);
        let mut options = TunerOptions::fast_preset(32, 0x5914);
        options.parallel_trials = parallel;
        let before = Pool::global().batch_stats();
        let outcome = Autotuner::new(&runner, AccuracyBins::new(vec![0.5, 0.9]), options)
            .tune_outcome()
            .unwrap();
        let inline = Pool::global().batch_stats().inline - before.inline;
        let spinning = runner.transform();
        let on_worker = spinning.on_worker.load(Ordering::Relaxed);
        let unmarked = spinning.unmarked.load(Ordering::Relaxed);
        (outcome, on_worker, inline, unmarked)
    };
    for spin in [Duration::from_micros(50), Duration::ZERO] {
        let (seq, ..) = tune(spin, false);
        let (par, on_worker, inline, unmarked) = tune(spin, true);
        assert_eq!(seq.program, par.program, "{spin:?}");
        assert_eq!(seq.stats, par.stats, "{spin:?}");
        if spin > Duration::ZERO {
            assert!(on_worker > 0, "no batch reached a worker: {:?}", par.stats);
        } else {
            // Every single-request batch is an inline batch too, and
            // runs outside a pool task; an inline batch of the
            // evaluator's own runs inside one.
            assert!(
                inline > unmarked,
                "no batch ran inline: {inline} inline batches, {unmarked} \
                 single-request ones; {:?}",
                par.stats
            );
        }
    }
}
