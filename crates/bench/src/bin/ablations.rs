//! Tuner design-choice ablations (§5.1, §5.5).
//!
//! Each ablation tunes the same diminishing-returns benchmark under a
//! modified tuner and reports trials executed plus the quality of the
//! resulting frontier, quantifying the paper's design choices:
//! adaptive trial counts (§5.5.1), guided mutation (§5.5.3), the
//! exponential input-size schedule (§5.1), and the keep-K pruning
//! width (§5.5.4).

use pb_config::{AccuracyBins, Schema};
use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner, TrialRunner};
use pb_stats::ComparatorConfig;
use pb_tuner::{Autotuner, TunerOptions};
use rand::rngs::SmallRng;
use rand::Rng;

/// Noisy diminishing-returns benchmark: accuracy = 1 − 1/(1+iters)
/// with multiplicative cost noise, so adaptive trial counts matter.
struct Noisy;

impl Transform for Noisy {
    type Input = ();
    type Output = f64;
    fn name(&self) -> &str {
        "noisy"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("noisy");
        s.add_accuracy_variable("iters", 1, 4096);
        s.add_cutoff("block", 1, 1024);
        s
    }
    fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
    fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
        let iters = ctx.param("iters").unwrap() as f64;
        let noise: f64 = ctx.rng().gen_range(0.9..1.1);
        ctx.charge(iters * ctx.size() as f64 * noise);
        1.0 - 1.0 / (1.0 + iters)
    }
    fn accuracy(&self, _i: &(), o: &f64) -> f64 {
        *o
    }
}

fn frontier_cost(runner: &dyn TrialRunner, tuned: &pb_runtime::TunedProgram, n: u64) -> f64 {
    tuned
        .entries()
        .iter()
        .map(|e| {
            (0..3)
                .map(|t| runner.run_trial(&e.config, n, t).virtual_cost)
                .sum::<f64>()
                / 3.0
        })
        .sum()
}

fn run_case(name: &str, options: TunerOptions) {
    let runner = TransformRunner::new(Noisy, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.5, 0.9, 0.99]);
    match Autotuner::new(&runner, bins, options).tune_outcome() {
        Ok(outcome) => {
            let quality = frontier_cost(&runner, &outcome.program, options.max_size);
            println!(
                "{name:<28} trials={:<6} children={:<5} accepted={:<5} guided={:<3} frontier_cost={quality:.0}",
                outcome.stats.trials,
                outcome.stats.children_created,
                outcome.stats.children_accepted,
                outcome.stats.guided_runs,
            );
        }
        Err(e) => println!("{name:<28} FAILED: {e}"),
    }
}

fn main() {
    let base = TunerOptions {
        max_size: 64,
        seed: 0xAB1A,
        ..TunerOptions::fast_preset(64, 0xAB1A)
    };

    println!("# Ablation: adaptive trial counts (paper §5.5.1)");
    run_case("adaptive (3..25 trials)", base);
    run_case(
        "fixed 25 trials",
        TunerOptions {
            comparator: ComparatorConfig {
                min_trials: 25,
                max_trials: 25,
                ..ComparatorConfig::default()
            },
            ..base
        },
    );
    println!();

    println!("# Ablation: guided mutation (paper §5.5.3)");
    run_case("guided mutation on", base);
    run_case(
        "guided mutation off",
        TunerOptions {
            guided_max_steps: 0,
            ..base
        },
    );
    println!();

    println!("# Ablation: input-size schedule (paper §5.1)");
    run_case("exponential 2..64", base);
    run_case(
        "direct-to-64",
        TunerOptions {
            initial_size: 64,
            ..base
        },
    );
    println!();

    println!("# Ablation: pruning width K (paper §5.5.4)");
    for k in [1, 2, 4, 8] {
        run_case(
            &format!("keep_per_bin = {k}"),
            TunerOptions {
                keep_per_bin: k,
                ..base
            },
        );
    }
}
