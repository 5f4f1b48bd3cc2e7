//! Tunes the image-compression benchmark (§6.1.4) and shows the
//! eigensolver choice and retained rank per accuracy level, plus a
//! `verify_accuracy`-style runtime-checked execution (§3.3).
//!
//! Run with: `cargo run --release --example image_compression`

use petabricks::benchmarks::imagecompr::{Image, SOLVER_NAMES};
use petabricks::benchmarks::ImageCompression;
use petabricks::config::AccuracyBins;
use petabricks::runtime::guarantee::run_verified;
use petabricks::runtime::{CostModel, TransformRunner};
use petabricks::tuner::{Autotuner, TunerOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let runner = TransformRunner::new(ImageCompression, CostModel::Virtual);
    // Accuracy = log10(rms(A) / rms(A - A_k)).
    let bins = AccuracyBins::new(vec![0.3, 0.8, 1.5]);
    let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(32, 9))
        .tune()
        .expect("targets reachable");

    let schema = runner.schema();
    println!("tuned image compression (n = 32 training):");
    for entry in tuned.entries() {
        let k = entry.config.int(schema, "rank_k").unwrap();
        let solver = entry.config.choice(schema, "eigensolver", 32).unwrap();
        println!(
            "  target {:>4}: rank k = {:>3}, eigensolver = {:<18} (observed {:.2}, cost {:.2e})",
            entry.target, k, SOLVER_NAMES[solver], entry.observed_accuracy, entry.observed_time,
        );
    }

    // Hard guarantee via runtime checking: compress a fresh image and
    // verify the reconstruction meets 0.5 orders, escalating if not.
    let mut rng = SmallRng::seed_from_u64(123);
    let image = Image::new(petabricks::benchmarks::Matrix::random_uniform(
        32, 32, &mut rng,
    ));
    let run =
        run_verified(&runner, &tuned, &image, 32, 0.5, 2, 7).expect("a trained bin covers 0.5");
    println!(
        "\nruntime-checked compression: accuracy {:.2} with bin {} after {} attempt(s), rank {}",
        run.accuracy,
        run.bin_used,
        run.attempts,
        run.output.rank()
    );
}
