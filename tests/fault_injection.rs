//! Chaos contracts for the fault-tolerant tuning pipeline, end to end
//! through the autotuner.
//!
//! **Chaos heals bit-identically.** With the `faults` module injecting
//! panics and non-finite costs at a seeded fraction of trial
//! coordinates — each faulting once, within the evaluator's retry
//! budget — a virtual-cost tuning run's *decisions* (program,
//! decision-image statistics, final population) are bit-identical to
//! the fault-free run, sequentially and on a forced 4-thread pool.
//! Faults that exhaust retries quarantine instead of aborting, still
//! deterministically.

mod faults;

use faults::{FaultConfig, FaultyRunner};
use petabricks::benchmarks::Clustering;
use petabricks::config::AccuracyBins;
use petabricks::runtime::pool::THREADS_ENV;
use petabricks::runtime::{CostModel, TransformRunner, TrialRunner};
use petabricks::tuner::{Autotuner, TunerOptions, TuningOutcome};

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
    };

    let clean = tune_runner(&clean_runner, clustering_options(false));
    for parallel in [false, true] {
        let chaos_runner = FaultyRunner::new(&clean_runner, plan.clone());
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
