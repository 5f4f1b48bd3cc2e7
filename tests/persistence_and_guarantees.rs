//! Integration: tuned programs persist to JSON config files and the
//! runtime accuracy-guarantee machinery works against them (§3.3).

use petabricks::benchmarks::imagecompr::Image;
use petabricks::benchmarks::ImageCompression;
use petabricks::benchmarks::Matrix;
use petabricks::config::AccuracyBins;
use petabricks::runtime::guarantee::{run_verified, GuaranteeError};
use petabricks::runtime::{CostModel, TransformRunner, TunedProgram};
use petabricks::tuner::{Autotuner, TunerOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tune_compression() -> (TransformRunner<ImageCompression>, TunedProgram) {
    let runner = TransformRunner::new(ImageCompression, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.3, 1.0]);
    let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(16, 0x9E5))
        .tune()
        .expect("reachable");
    (runner, tuned)
}

#[test]
fn tuned_program_round_trips_through_json() {
    let (runner, tuned) = tune_compression();
    let json = tuned.to_json();
    let reloaded = TunedProgram::from_json(&json).expect("parses back");
    assert_eq!(tuned, reloaded);
    // The reloaded configuration still validates and still runs.
    for entry in reloaded.entries() {
        entry
            .config
            .validate(runner.schema())
            .expect("persisted config validates against the schema");
    }
}

#[test]
fn runtime_checked_execution_meets_requirement() {
    let (runner, tuned) = tune_compression();
    let mut rng = SmallRng::seed_from_u64(5);
    let image = Image::new(Matrix::random_uniform(16, 16, &mut rng));
    let run = run_verified(&runner, &tuned, &image, 16, 0.3, 2, 1).expect("0.3 is trained");
    assert!(run.accuracy >= 0.3);
    assert!(run.output.rank() >= 1);
}

#[test]
fn requirements_above_training_are_rejected() {
    let (runner, tuned) = tune_compression();
    let mut rng = SmallRng::seed_from_u64(6);
    let image = Image::new(Matrix::random_uniform(16, 16, &mut rng));
    let err = run_verified(&runner, &tuned, &image, 16, 5.0, 1, 1).unwrap_err();
    assert!(matches!(err, GuaranteeError::NoSufficientBin { .. }));
}

#[test]
fn trial_cache_sidecar_warms_the_next_tuning_run() {
    let path = std::env::temp_dir().join(format!(
        "pb_trial_cache_sidecar_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let runner = TransformRunner::new(ImageCompression, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.3, 1.0]);
    let options = TunerOptions::fast_preset(16, 0x51DE);

    // Cold run: nothing to preload; the memo is written on exit.
    let cold = Autotuner::new(&runner, bins.clone(), options)
        .with_trial_cache(&path)
        .tune_outcome()
        .expect("tunes");
    assert_eq!(cold.stats.cache_hits_warm, 0);
    assert!(path.exists(), "sidecar must be written after tuning");

    // Warm run: identical trial outcomes come from the sidecar, so
    // the tuned program is identical while executed trials drop.
    let warm = Autotuner::new(&runner, bins, options)
        .with_trial_cache(&path)
        .tune_outcome()
        .expect("tunes");
    assert!(
        warm.stats.cache_hits_warm > 0,
        "second run must reuse persisted trials: {:?}",
        warm.stats
    );
    assert!(
        warm.stats.trials < cold.stats.trials,
        "warm start must execute fewer trials: {} vs {}",
        warm.stats.trials,
        cold.stats.trials
    );
    assert_eq!(cold.program, warm.program);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_files_are_human_editable() {
    // A user can hand-edit the persisted JSON (the paper's config
    // files were plain text for the same reason).
    let (runner, tuned) = tune_compression();
    let json = tuned.to_json();
    assert!(json.contains("rank_k") || json.contains("Int"), "{json}");
    let reloaded = TunedProgram::from_json(&json).unwrap();
    let outcome = {
        use petabricks::runtime::TrialRunner;
        runner.run_trial(&reloaded.entry(1).config, 16, 42)
    };
    assert!(outcome.accuracy >= 0.5, "tuned entry still delivers");
}
