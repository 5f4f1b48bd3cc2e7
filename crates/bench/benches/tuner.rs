//! Criterion benchmarks for the autotuner itself: a complete tuning
//! run on a synthetic benchmark, plus the comparison primitive from
//! §5.5.1.

use criterion::{criterion_group, criterion_main, Criterion};
use pb_config::{AccuracyBins, Schema};
use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
use pb_stats::{Comparator, OnlineStats};
use pb_tuner::{Autotuner, TunerOptions};
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
        s.add_cutoff("block", 1, 1024);
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

fn bench_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuner");
    group.sample_size(10);
    group.bench_function("full_tune_2_bins", |b| {
        b.iter(|| {
            let runner = TransformRunner::new(Iterate, CostModel::Virtual);
            let bins = AccuracyBins::new(vec![0.5, 0.99]);
            std::hint::black_box(
                Autotuner::new(&runner, bins, TunerOptions::fast_preset(16, 1))
                    .tune()
                    .unwrap(),
            )
        })
    });
    group.bench_function("adaptive_comparison", |b| {
        b.iter(|| {
            let comparator = Comparator::default();
            let mut a = OnlineStats::new();
            let mut bb = OnlineStats::new();
            let (mut i, mut j) = (0u64, 0u64);
            std::hint::black_box(comparator.compare(
                &mut a,
                &mut || {
                    i += 1;
                    1.0 + (i % 7) as f64 * 0.01
                },
                &mut bb,
                &mut || {
                    j += 1;
                    1.05 + (j % 5) as f64 * 0.01
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tuning);
criterion_main!(benches);
