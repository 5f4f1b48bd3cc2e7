//! Figure/table regeneration harness.
//!
//! One binary per artifact in the paper's evaluation (§6):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig6 <benchmark>` | Fig. 6(a)–(f): speedup vs input size per accuracy level |
//! | `fig7` | Fig. 7: best bin-packing algorithm per (accuracy, size) |
//! | `table1` | Table 1: tuned k-means choices per accuracy (n = 2048) |
//! | `fig8` | Fig. 8: tuned Helmholtz cycle shapes |
//! | `programmability` | §6.5: code-size comparison |
//! | `ablations` | §5.1, §5.5: tuner design-choice ablations |
//!
//! Costs are measured with the deterministic virtual-cost model, which
//! tracks operation counts; speedup *shapes* (who wins, crossovers,
//! orders of magnitude) reproduce the paper, while absolute numbers
//! reflect this substrate rather than the authors' 2009 Xeon testbed.

#![forbid(unsafe_code)]

use pb_config::AccuracyBins;
use pb_runtime::{TrialRunner, TunedProgram};
use pb_tuner::{Autotuner, TunerOptions};

/// Number of measurement trials per (config, size) cell.
pub const MEASURE_TRIALS: u64 = 3;

/// Trains a runner over the given bins with a budget preset scaled for
/// harness use.
///
/// # Panics
///
/// Panics if tuning fails (the bins are chosen to be reachable).
pub fn train(
    runner: &dyn TrialRunner,
    bins: &AccuracyBins,
    max_size: u64,
    seed: u64,
) -> TunedProgram {
    let mut options = TunerOptions::fast_preset(max_size, seed);
    options.rounds_per_size = 5;
    options.mutation_attempts = 16;
    Autotuner::new(runner, bins.clone(), options)
        .tune()
        .unwrap_or_else(|e| panic!("tuning {} failed: {e}", runner.name()))
}

/// Mean cost of a configuration at one input size.
pub fn mean_cost(runner: &dyn TrialRunner, config: &pb_config::Config, n: u64) -> f64 {
    let mut total = 0.0;
    for trial in 0..MEASURE_TRIALS {
        total += runner
            .run_trial(config, n, 0xC0FFEE ^ (n << 8) ^ trial)
            .time;
    }
    total / MEASURE_TRIALS as f64
}

/// One row of a Fig. 6 speedup series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Input size.
    pub n: u64,
    /// Accuracy-bin target.
    pub target: f64,
    /// `cost(highest bin) / cost(this bin)` at this size.
    pub speedup: f64,
}

/// Generates the Fig. 6 speedup series for a tuned program: for every
/// size and bin, the ratio of the *highest*-accuracy configuration's
/// cost to this bin's configuration's cost.
pub fn speedup_series(
    runner: &dyn TrialRunner,
    tuned: &TunedProgram,
    sizes: &[u64],
) -> Vec<SpeedupPoint> {
    let top = tuned.entries().last().expect("at least one bin");
    let mut out = Vec::new();
    for &n in sizes {
        let top_cost = mean_cost(runner, &top.config, n);
        for entry in tuned.entries() {
            let cost = mean_cost(runner, &entry.config, n);
            out.push(SpeedupPoint {
                n,
                target: entry.target,
                speedup: if cost > 0.0 { top_cost / cost } else { 1.0 },
            });
        }
    }
    out
}

/// Renders a speedup series as the rows of one Fig. 6 panel.
pub fn format_speedups(title: &str, points: &[SpeedupPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(
        s,
        "{:>10} {:>14} {:>12}",
        "input_size", "accuracy", "speedup"
    );
    for p in points {
        let _ = writeln!(s, "{:>10} {:>14.4} {:>12.2}", p.n, p.target, p.speedup);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Schema;
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
    use rand::rngs::SmallRng;

    struct Iterate;

    impl Transform for Iterate {
        type Input = ();
        type Output = f64;
        fn name(&self) -> &str {
            "iterate"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("iterate");
            s.add_accuracy_variable("iters", 1, 4096);
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

    #[test]
    fn harness_produces_monotone_speedups() {
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.5, 0.99]);
        let tuned = train(&runner, &bins, 8, 1);
        let points = speedup_series(&runner, &tuned, &[4, 8]);
        assert_eq!(points.len(), 4);
        // The loose bin is faster than the tight bin (speedup > 1);
        // the tight bin's self-speedup is exactly 1.
        for p in &points {
            if p.target == 0.99 {
                assert!((p.speedup - 1.0).abs() < 1e-9);
            } else {
                assert!(p.speedup > 1.0, "{p:?}");
            }
        }
        let rendered = format_speedups("test", &points);
        assert!(rendered.contains("input_size"));
    }
}
