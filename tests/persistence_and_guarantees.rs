//! Integration: tuned programs persist to JSON config files and the
//! runtime accuracy-guarantee machinery works against them (§3.3).

use petabricks::benchmarks::imagecompr::Image;
use petabricks::benchmarks::ImageCompression;
use petabricks::benchmarks::Matrix;
use petabricks::config::AccuracyBins;
use petabricks::runtime::guarantee::{run_verified, GuaranteeError};
use petabricks::runtime::{CostModel, TransformRunner, TunedProgram};
use petabricks::tuner::{Autotuner, EvalMode, Evaluator, TunerOptions};
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

/// The trial memo lives for one tuning run: `with_trial_cache` and the
/// evaluator's `load_sidecar`/`save_sidecar` are inert, kept only for
/// callers that have not dropped them yet.
#[test]
fn trial_cache_entry_points_touch_no_file_and_change_no_run() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("pb_trial_cache_stub_{pid}.json"));
    let _ = std::fs::remove_file(&path);
    let runner = TransformRunner::new(ImageCompression, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.3, 1.0]);
    let options = TunerOptions::fast_preset(16, 0x51DE);

    let plain = Autotuner::new(&runner, bins.clone(), options)
        .tune_outcome()
        .expect("tunes");
    let cached = Autotuner::new(&runner, bins, options)
        .with_trial_cache(&path)
        .tune_outcome()
        .expect("tunes");
    assert!(!path.exists(), "a tuning run writes no trial cache");
    assert_eq!(cached.program, plain.program);
    assert_eq!(cached.stats, plain.stats);
    assert_eq!(cached.stats.cache_hits_warm, 0);

    let existing = dir.join(format!("pb_trial_cache_existing_{pid}.json"));
    let bytes = br#"{"transform": "image_compression", "entries": []}"#;
    std::fs::write(&existing, bytes).unwrap();
    let evaluator = Evaluator::new(&runner, EvalMode::Sequential, true);
    assert_eq!(evaluator.load_sidecar(&existing), 0);
    assert!(evaluator.save_sidecar(&existing).is_ok());
    let after = std::fs::read(&existing).unwrap();
    std::fs::remove_file(&existing).ok();
    assert_eq!(after, bytes);
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
