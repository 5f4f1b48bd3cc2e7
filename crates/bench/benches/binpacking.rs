//! Criterion micro-benchmarks for the Fig. 6(a)/Fig. 7 kernels: the
//! bin-packing heuristics at a fixed input size. The asymptotic gap
//! between NextFit (`O(n)`) and the search-based heuristics
//! (`O(n·bins)`) is the engine behind the paper's four-orders-of-
//! magnitude speedups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_benchmarks::binpacking::{generate_input, pack_with, ALGORITHM_NAMES};
use pb_benchmarks::BinPacking;
use pb_runtime::{ExecCtx, Pool, Transform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_algorithms(c: &mut Criterion) {
    let t = BinPacking;
    let schema = t.schema();
    let config = schema.default_config();
    let mut rng = SmallRng::seed_from_u64(1);
    let input = generate_input(4096, &mut rng);

    let mut group = c.benchmark_group("binpacking_n4096");
    group.sample_size(10);
    for (alg, name) in ALGORITHM_NAMES.iter().enumerate() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &alg, |b, &alg| {
            b.iter(|| {
                let mut ctx = ExecCtx::new(&schema, &config, 4096, 0);
                std::hint::black_box(pack_with(alg, &input.items, 2, usize::MAX, &mut ctx))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("binpacking_nextfit_scaling");
    group.sample_size(10);
    for size in [1024u64, 4096, 16384] {
        let mut rng = SmallRng::seed_from_u64(2);
        let input = generate_input(size, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let mut ctx = ExecCtx::new(&schema, &config, size, 0);
                std::hint::black_box(pack_with(7, &input.items, 2, usize::MAX, &mut ctx))
            })
        });
    }
    group.finish();
}

/// The engaged regime at the ledger's size: every scan past 16 open
/// bins is charged as a pool scan. Run once from the caller (depth 0,
/// where a per-item pool batch used to dispatch) and once from inside
/// a pool task (depth 1, where it ran inline) — the tuner's trials
/// execute in both positions.
fn bench_engaged(c: &mut Criterion) {
    let t = BinPacking;
    let schema = t.schema();
    let config = schema.default_config();
    let mut rng = SmallRng::seed_from_u64(3);
    let input = generate_input(2048, &mut rng);
    let pack = |alg: usize| {
        let mut ctx = ExecCtx::new(&schema, &config, 2048, 0);
        std::hint::black_box(pack_with(alg, &input.items, 2, 16, &mut ctx));
    };

    let mut group = c.benchmark_group("binpacking_n2048_cutoff16");
    group.sample_size(10);
    for (alg, name) in ALGORITHM_NAMES.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("caller", name), &alg, |b, &alg| {
            b.iter(|| pack(alg))
        });
        group.bench_with_input(BenchmarkId::new("pool_task", name), &alg, |b, &alg| {
            // Two tasks, so the batch dispatches instead of running
            // inline; both pack.
            b.iter(|| Pool::global().run_indexed(2, |_| pack(alg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_engaged);
criterion_main!(benches);
