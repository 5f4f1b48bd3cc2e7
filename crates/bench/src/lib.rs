//! Figure/table regeneration harness.
//!
//! | binary | artifact |
//! |--------|----------|
//! | `reproduce` | §6: Fig. 6(a)–(f), Fig. 7, Fig. 8, Table 1 (n = 2048) and §6.5 |
//! | `ablations` | §5.1, §5.5: tuner design-choice ablations |
//!
//! A [`Cell`] is one bin's tuned configuration measured at one size. Its
//! verdict checks that the bin's target is met on seeds the tuner never
//! drew and that no tighter bin costs less there. `reproduce` fails
//! only when a [`Label::Trained`] cell fails ([`gate`]).
//!
//! Costs are measured with the deterministic virtual-cost model, which
//! tracks operation counts; speedup *shapes* (who wins, crossovers,
//! orders of magnitude) reproduce the paper, while absolute numbers
//! reflect this substrate rather than the authors' 2009 Xeon testbed.

#![forbid(unsafe_code)]

use pb_benchmarks::binpacking::ratio_to_accuracy;
use pb_benchmarks::{
    BinPacking, Clustering, Helmholtz3d, ImageCompression, Poisson2d, Preconditioner,
};
use pb_config::AccuracyBins;
use pb_runtime::{CostModel, Transform, TransformRunner, TrialRunner, TunedProgram};
use pb_stats::OnlineStats;
use pb_tuner::{Autotuner, TunerOptions};
use std::cmp::Ordering;
use std::fmt;

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

/// A cell's input size against its program's training size: below,
/// equal (trained) or above (extrapolated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Below,
    Trained,
    Extrapolated,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Label::Below => "below",
            Label::Trained => "trained",
            Label::Extrapolated => "extrapolated",
        })
    }
}

/// One accuracy bin's tuned configuration measured at one input size.
/// It displays as its held-out accuracy, label and verdict columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Input size.
    pub n: u64,
    /// The bin's accuracy target.
    pub target: f64,
    /// Mean cost of the measured trials.
    pub cost: f64,
    /// Mean accuracy of the measured trials.
    pub accuracy: f64,
    /// `n` against the training size.
    pub label: Label,
    /// No tighter bin at `n` costs less (set by [`judge`]).
    pub ordered: bool,
}

impl Cell {
    /// A cell not yet judged against the other bins at its size.
    pub fn new(n: u64, target: f64, train_size: u64, cost: f64, accuracy: f64) -> Cell {
        let label = match n.cmp(&train_size) {
            Ordering::Less => Label::Below,
            Ordering::Equal => Label::Trained,
            Ordering::Greater => Label::Extrapolated,
        };
        Cell {
            n,
            target,
            cost,
            accuracy,
            label,
            ordered: true,
        }
    }

    /// Whether the cell meets its target and its cost order.
    pub fn passes(&self) -> bool {
        self.accuracy >= self.target && self.ordered
    }

    /// `pass`, or what failed.
    pub fn verdict(&self) -> &'static str {
        match (self.accuracy >= self.target, self.ordered) {
            (true, true) => "pass",
            (false, true) => "FAIL accuracy",
            (true, false) => "FAIL cost order",
            (false, false) => "FAIL accuracy, cost order",
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A clustering with a centre on every point reads a huge accuracy.
        let accuracy = if self.accuracy < 1e6 {
            format!("{:.4}", self.accuracy)
        } else {
            format!("{:.3e}", self.accuracy)
        };
        write!(f, "{accuracy:>10} {:>13}  {}", self.label, self.verdict())
    }
}

/// Sets each cell's [`Cell::ordered`]: false when a tighter bin at the
/// same size costs less, so this looser bin got the costlier program.
pub fn judge(cells: &mut [Cell]) {
    for i in 0..cells.len() {
        let c = cells[i];
        let tighter_and_cheaper = |d: &Cell| d.n == c.n && d.target > c.target && d.cost < c.cost;
        cells[i].ordered = !cells.iter().any(tighter_and_cheaper);
    }
}

/// Whether every [`Label::Trained`] cell passes.
pub fn gate(cells: &[Cell]) -> bool {
    cells
        .iter()
        .all(|c| c.label != Label::Trained || c.passes())
}

/// Measures every bin of `tuned` at every size on [`MEASURE_TRIALS`]
/// seeds the tuner never drew, averaging accuracy as the tuner's
/// admission does, and judges the cells. They come size by size, each
/// size's bins in target order.
pub fn measure(
    runner: &dyn TrialRunner,
    tuned: &TunedProgram,
    sizes: &[u64],
    train_size: u64,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in sizes {
        for entry in tuned.entries() {
            let (mut cost, mut acc) = (0.0, OnlineStats::new());
            for trial in 0..MEASURE_TRIALS {
                let outcome = runner.run_trial(&entry.config, n, 0xC0FFEE ^ (n << 8) ^ trial);
                cost += outcome.time;
                acc.push(outcome.accuracy);
            }
            let cost = cost / MEASURE_TRIALS as f64;
            cells.push(Cell::new(n, entry.target, train_size, cost, acc.mean()));
        }
    }
    judge(&mut cells);
    cells
}

/// One Fig. 6 panel: its heading, its benchmark (costed by the virtual
/// model), its accuracy bins, the size it is trained at and the
/// ascending sizes it is reported at, the training size among them.
pub struct Panel {
    pub title: &'static str,
    pub runner: Box<dyn TrialRunner>,
    pub bins: AccuracyBins,
    pub train_size: u64,
    pub sizes: Vec<u64>,
}

impl Panel {
    fn new<T>(title: &'static str, t: T, bins: &[f64], train_size: u64, sizes: &[u64]) -> Panel
    where
        T: Transform + Send + Sync + 'static,
    {
        Panel {
            title,
            runner: Box::new(TransformRunner::new(t, CostModel::Virtual)),
            bins: AccuracyBins::new(bins.to_vec()),
            train_size,
            sizes: sizes.to_vec(),
        }
    }

    /// Trains the panel's program and measures its cells.
    pub fn run(&self) -> (TunedProgram, Vec<Cell>) {
        let tuned = train(self.runner.as_ref(), &self.bins, self.train_size, 0xF16);
        let cells = measure(self.runner.as_ref(), &tuned, &self.sizes, self.train_size);
        (tuned, cells)
    }
}

/// Fig. 6(a)–(f), in order. Bin packing's paper levels are bins/OPT
/// ratios 1.4–1.01, converted to the larger-is-better metric.
pub fn fig6_panels() -> Vec<Panel> {
    let packing = [1.4, 1.3, 1.2, 1.1, 1.01].map(ratio_to_accuracy);
    let orders = [1.0, 3.0, 5.0, 7.0, 9.0];
    vec![
        Panel::new(
            "Fig 6(a) Bin Packing (accuracy = 2 - bins/OPT)",
            BinPacking,
            &packing,
            1 << 10,
            &[8, 64, 512, 1024, 4096, 16384],
        ),
        Panel::new(
            "Fig 6(b) Clustering",
            Clustering,
            &[0.05, 0.10, 0.20, 0.50, 0.75, 0.95],
            256,
            &[16, 64, 256, 1024],
        ),
        Panel::new(
            "Fig 6(c) Helmholtz (accuracy = orders of magnitude)",
            Helmholtz3d,
            &orders,
            7,
            &[3, 7, 15],
        ),
        Panel::new(
            "Fig 6(d) Image Compression (accuracy = log10 RMS ratio)",
            ImageCompression,
            &[0.3, 0.6, 0.8, 1.0, 1.5, 2.0],
            48,
            &[8, 16, 32, 48, 64],
        ),
        Panel::new(
            "Fig 6(e) Poisson (accuracy = orders of magnitude)",
            Poisson2d,
            &orders,
            31,
            &[7, 15, 31, 63],
        ),
        Panel::new(
            "Fig 6(f) Preconditioner (accuracy = orders of magnitude)",
            Preconditioner,
            &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            24,
            &[8, 16, 24, 32, 64],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Schema;
    use pb_runtime::pool::{Pool, THREADS_ENV};
    use pb_runtime::ExecCtx;
    use rand::rngs::SmallRng;
    use std::sync::Once;

    /// Sizes this test process's global pool at two threads before any
    /// tuning test uses it: the virtual cost model sees the thread
    /// budget, so what the tuner picks depends on it.
    fn two_thread_pool() {
        static PIN: Once = Once::new();
        PIN.call_once(|| {
            std::env::set_var(THREADS_ENV, "2");
            assert_eq!(Pool::global().threads(), 2, "pool sized before the pin");
        });
    }

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
        two_thread_pool();
        let runner = TransformRunner::new(Iterate, CostModel::Virtual);
        let bins = AccuracyBins::new(vec![0.5, 0.99]);
        let tuned = train(&runner, &bins, 8, 1);
        let cells = measure(&runner, &tuned, &[4, 8], 8);
        assert_eq!(cells.len(), 4);
        let labels: Vec<Label> = cells.iter().map(|c| c.label).collect();
        assert_eq!(
            labels,
            [Label::Below, Label::Below, Label::Trained, Label::Trained]
        );
        // At each size the loose bin is strictly cheaper than the tight
        // one, and every cell meets its target.
        for pair in cells.chunks(2) {
            assert!(pair[0].cost < pair[1].cost, "{pair:?}");
        }
        assert!(cells.iter().all(Cell::passes), "{cells:?}");
        assert!(gate(&cells));
    }

    #[test]
    fn a_failing_trained_cell_fails_the_gate() {
        let mut cells = vec![
            Cell::new(8, 0.5, 8, 1.0, 0.6),
            Cell::new(8, 0.9, 8, 2.0, 0.95),
            Cell::new(16, 0.5, 8, 2.0, 0.3),
            Cell::new(16, 0.9, 8, 1.0, 0.95),
        ];
        judge(&mut cells);
        assert!(cells[..2].iter().all(Cell::passes));
        // Off the training size, a miss of either kind is reported...
        assert_eq!(cells[2].verdict(), "FAIL accuracy, cost order");
        assert!(gate(&cells));
        // ...but a trained cell that misses its target fails the gate,
        cells[0].accuracy = 0.4;
        assert_eq!(cells[0].verdict(), "FAIL accuracy");
        assert!(!gate(&cells));
        // as does one that costs more than a tighter bin.
        cells[0].accuracy = 0.6;
        cells[0].cost = 3.0;
        judge(&mut cells);
        assert_eq!(cells[0].verdict(), "FAIL cost order");
        assert!(!gate(&cells));
    }

    #[test]
    fn clustering_panel_passes_where_trained_and_misses_beyond() {
        two_thread_pool();
        let panel = fig6_panels().swap_remove(1);
        assert_eq!(panel.train_size, 256);
        let (tuned, cells) = panel.run();
        assert_eq!(tuned.entries().len(), panel.bins.len());
        let at = |n: u64| cells.iter().filter(move |c| c.n == n);
        assert_eq!(at(256).count(), panel.bins.len());
        for c in at(256) {
            assert_eq!(c.label, Label::Trained);
            assert!(c.passes(), "{c:?}");
        }
        for c in at(1024) {
            assert_eq!(c.label, Label::Extrapolated);
            assert!(c.accuracy < c.target, "{c:?}");
        }
        assert!(gate(&cells));
    }
}
