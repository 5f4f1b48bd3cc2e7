//! Chaos and noise contracts for the fault-tolerant tuning pipeline.
//!
//! Two guarantees are pinned here, end to end through the autotuner:
//!
//! 1. **Chaos heals bit-identically.** With `pb_faults` injecting
//!    panics and non-finite costs at a seeded fraction of trial
//!    coordinates — each faulting once, within the evaluator's retry
//!    budget — a virtual-cost tuning run's *decisions* (program,
//!    decision-image statistics, final population) are bit-identical
//!    to the fault-free run, sequentially and on a forced 4-thread
//!    pool. Faults that exhaust retries quarantine instead of
//!    aborting, still deterministically.
//! 2. **Robust statistics survive noise.** Under seeded wall-clock
//!    jitter and outlier spikes, the winsorized comparator still
//!    converges to the known-best algorithm where the plain mean
//!    comparator is flipped by the outliers — and noisy runners are
//!    re-sampled, never memoized.

use petabricks::benchmarks::Clustering;
use petabricks::config::{AccuracyBins, Schema};
use petabricks::faults::{FaultConfig, FaultyRunner};
use petabricks::runtime::pool::THREADS_ENV;
use petabricks::runtime::{CostModel, ExecCtx, Transform, TransformRunner, TrialRunner};
use petabricks::stats::Robustness;
use petabricks::tuner::{Autotuner, TunerOptions, TuningOutcome};
use rand::rngs::SmallRng;

/// Forces a multi-threaded pool even on single-core CI runners (same
/// idiom as `parallel_determinism.rs`).
fn force_parallel_pool() {
    static FORCE: std::sync::Once = std::sync::Once::new();
    // SAFETY: the Once serializes the single write; all reads happen
    // through Pool::global()'s one-time init afterwards.
    FORCE.call_once(|| unsafe { std::env::set_var(THREADS_ENV, "4") });
}

/// Silences the panic hook for injected panics only — chaos runs
/// raise hundreds of them on pool threads, where libtest's output
/// capture cannot reach. Real panics still print and fail loudly.
fn quiet_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.contains("pb_faults: injected panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn tune_runner(runner: &dyn TrialRunner, options: TunerOptions) -> TuningOutcome {
    Autotuner::new(runner, AccuracyBins::new(vec![0.05, 0.2]), options)
        .tune_outcome()
        .unwrap_or_else(|e| panic!("tuning failed: {e}"))
}

fn clustering_options(parallel: bool) -> TunerOptions {
    let mut options = TunerOptions::fast_preset(64, 0xFA07);
    options.parallel_trials = parallel;
    options
}

/// Injected panics and corrupted costs, each healing on first retry,
/// must leave every tuner decision bitwise untouched: the evaluator
/// retries beneath the trial cache, so only the attempt counters —
/// zeroed by `decision_image` — may differ from the fault-free run.
#[test]
fn chaos_with_retries_is_decision_identical_to_fault_free() {
    force_parallel_pool();
    quiet_injected_panics();
    let clean_runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let plan = FaultConfig {
        seed: 0xC4A05,
        panic_rate: 0.10,
        nonfinite_rate: 0.05,
        faults_per_trial: 1,
        ..FaultConfig::default()
    };

    let clean = tune_runner(&clean_runner, clustering_options(false));
    for parallel in [false, true] {
        let chaos_runner = FaultyRunner::new(&clean_runner, plan.clone());
        assert!(
            chaos_runner.deterministic(),
            "bounded faults without noise must keep replayability"
        );
        let chaos = tune_runner(&chaos_runner, clustering_options(parallel));

        let injected = chaos_runner.report();
        assert!(
            injected.panics > 0,
            "chaos must really inject: {injected:?}"
        );
        assert!(
            injected.nonfinite > 0,
            "chaos must really corrupt: {injected:?}"
        );
        assert_eq!(chaos.stats.trial_panics, injected.panics);
        assert_eq!(chaos.stats.trial_nonfinite, injected.nonfinite);
        assert_eq!(
            chaos.stats.trial_retries,
            injected.panics + injected.nonfinite,
            "every single-shot fault costs exactly one retry"
        );
        assert_eq!(chaos.stats.quarantined, 0, "retries must heal everything");
        assert_eq!(
            chaos.stats.trials,
            clean.stats.trials + chaos.stats.trial_retries,
            "every retried attempt is counted as a trial"
        );

        // The decisions — program, decision counters, survivors — are
        // bitwise those of the run that never saw a fault.
        assert_eq!(clean.program, chaos.program);
        assert_eq!(
            clean.stats.decision_image(),
            chaos.stats.decision_image(),
            "parallel={parallel}"
        );
        assert_eq!(clean.final_population, chaos.final_population);
    }
}

/// Fault injection is keyed by trial coordinate, not call order, so a
/// chaos run itself is bit-identical — raw fault counters included —
/// between forced-sequential and 4-thread-pool evaluation.
#[test]
fn chaos_runs_are_bit_identical_across_evaluator_modes() {
    force_parallel_pool();
    quiet_injected_panics();
    let clean_runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let plan = FaultConfig {
        seed: 0xD1CE,
        panic_rate: 0.12,
        nonfinite_rate: 0.06,
        faults_per_trial: 1,
        ..FaultConfig::default()
    };
    let seq_runner = FaultyRunner::new(&clean_runner, plan.clone());
    let par_runner = FaultyRunner::new(&clean_runner, plan);
    let seq = tune_runner(&seq_runner, clustering_options(false));
    let par = tune_runner(&par_runner, clustering_options(true));
    assert_eq!(seq.program, par.program);
    assert_eq!(seq.stats, par.stats, "full stats, fault counters included");
    assert_eq!(seq.final_population, par.final_population);
    assert_eq!(seq_runner.report(), par_runner.report());
    assert!(seq.stats.trial_panics > 0);
}

/// Coordinates that fault on *every* attempt exhaust their retries and
/// quarantine with the worst-cost sentinel; the run completes without
/// aborting and stays deterministic across evaluator modes.
#[test]
fn permanent_faults_quarantine_without_aborting() {
    force_parallel_pool();
    quiet_injected_panics();
    let clean_runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let plan = FaultConfig {
        seed: 0xBAD,
        panic_rate: 0.04,
        faults_per_trial: u32::MAX,
        ..FaultConfig::default()
    };
    let seq_runner = FaultyRunner::new(&clean_runner, plan.clone());
    let par_runner = FaultyRunner::new(&clean_runner, plan);
    let seq = tune_runner(&seq_runner, clustering_options(false));
    let par = tune_runner(&par_runner, clustering_options(true));
    assert!(
        seq.stats.quarantined > 0,
        "permanent faults must quarantine: {:?}",
        seq.stats
    );
    assert_eq!(
        seq.stats.trial_retries,
        2 * seq.stats.quarantined,
        "each quarantine burns the full retry budget"
    );
    assert!(
        !seq.program.entries().is_empty(),
        "tuning still produces a program"
    );
    assert_eq!(seq.program, par.program);
    assert_eq!(seq.stats, par.stats);
    assert_eq!(seq.final_population, par.final_population);
}

/// Two interchangeable algorithms, one 25% cheaper: the tuner must
/// learn to prefer algorithm 0.
struct CloseRace;

impl Transform for CloseRace {
    type Input = ();
    type Output = ();
    fn name(&self) -> &str {
        "close_race"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("close_race");
        s.add_switch("algo", 2);
        s
    }
    fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
    fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
        let factor = match ctx.switch("algo").unwrap() {
            0 => 1.0,
            _ => 1.25,
        };
        ctx.charge(factor * ctx.size() as f64);
    }
    fn accuracy(&self, _i: &(), _o: &()) -> f64 {
        1.0
    }
}

fn tune_noisy(robustness: Robustness, plan_seed: u64) -> (usize, TuningOutcome) {
    let clean_runner = TransformRunner::new(CloseRace, CostModel::Virtual);
    let noisy_runner = FaultyRunner::new(
        &clean_runner,
        FaultConfig {
            seed: plan_seed,
            jitter: 0.04,
            outlier_rate: 0.12,
            outlier_factor: 60.0,
            ..FaultConfig::default()
        },
    );
    assert!(
        !noisy_runner.deterministic(),
        "noise must demote the runner to wall-clock semantics"
    );
    let mut options = TunerOptions::fast_preset(64, 0x5EED);
    options.comparator.min_trials = 5;
    options.comparator.max_trials = 25;
    options.comparator.robustness = robustness;
    let outcome = Autotuner::new(&noisy_runner, AccuracyBins::new(vec![0.5]), options)
        .tune_outcome()
        .unwrap_or_else(|e| panic!("tuning failed: {e}"));
    let schema = clean_runner.schema();
    let algo = outcome
        .program
        .entry(0)
        .config
        .switch(schema, "algo")
        .unwrap();
    (algo, outcome)
}

/// Under seeded outlier spikes, the winsorized comparator still finds
/// the genuinely cheaper algorithm at a plan seed where the plain mean
/// comparator is flipped by the spikes — and because noise demotes the
/// runner to wall-clock semantics, every trial re-samples (no memo
/// replay of a noisy measurement).
#[test]
fn winsorized_comparator_converges_where_mean_is_flipped_by_outliers() {
    force_parallel_pool();
    let plan_seed = NOISE_PLAN_SEED;
    let (mean_algo, _) = tune_noisy(Robustness::Mean, plan_seed);
    let (robust_algo, robust) = tune_noisy(Robustness::Winsorized { fraction: 0.2 }, plan_seed);
    assert_eq!(
        mean_algo, 1,
        "plan seed must be one where outliers flip the mean comparator"
    );
    assert_eq!(robust_algo, 0, "winsorizing must recover the true winner");
    assert_eq!(
        robust.stats.cache_hits, 0,
        "noisy trials must never replay from the memo"
    );
    assert_eq!(robust.stats.cache_hits_warm, 0);
}

/// Plan seed pinned for the flip scenario above (found by scanning;
/// any seed where the mean comparator picks the slower algorithm and
/// the winsorized comparator picks the cheaper one would do).
const NOISE_PLAN_SEED: u64 = 6;
