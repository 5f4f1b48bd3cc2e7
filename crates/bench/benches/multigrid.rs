//! Criterion benchmarks for the Fig. 6(c)/(e)/Fig. 8 kernels: the
//! three Poisson building blocks (SOR sweep, V-cycle, banded direct
//! solve) and the Helmholtz operator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_linalg::SymmetricBanded;
use pb_multigrid::vcycle::{vcycle, VcycleOptions};
use pb_multigrid::{poisson2d, Grid2d, Grid3d, HelmholtzProblem};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_poisson_blocks(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let b31 = Grid2d::random_uniform(31, -1.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("poisson_blocks_n31");
    group.sample_size(10);
    group.bench_function("sor_sweep", |bench| {
        bench.iter(|| {
            let mut u = Grid2d::zeros(31);
            poisson2d::sor_sweep(&mut u, &b31, 1.2);
            std::hint::black_box(u)
        })
    });
    group.bench_function("vcycle", |bench| {
        bench.iter(|| {
            let mut u = Grid2d::zeros(31);
            vcycle(&mut u, &b31, &VcycleOptions::default());
            std::hint::black_box(u)
        })
    });
    // `direct_solve` keeps one factor per grid size for the process, so
    // it times the two substitutions; what the factor and a solve cost
    // on their own is measured on the band matrix directly.
    let a31 = SymmetricBanded::poisson_2d(31);
    let factor31 = a31.cholesky().expect("the 5-point stencil is SPD");
    group.bench_function("band_factor_31", |bench| {
        bench.iter(|| std::hint::black_box(a31.cholesky()))
    });
    group.bench_function("band_solve_31", |bench| {
        bench.iter(|| std::hint::black_box(factor31.solve(b31.as_slice())))
    });
    group.bench_function("direct_solve_31", |bench| {
        bench.iter(|| std::hint::black_box(poisson2d::direct_solve(&b31)))
    });
    group.finish();
}

fn bench_helmholtz_operator(c: &mut Criterion) {
    let mut group = c.benchmark_group("helmholtz3d_sor_sweep");
    group.sample_size(10);
    for n in [7usize, 15] {
        let mut rng = SmallRng::seed_from_u64(2);
        let p = HelmholtzProblem::random(n, 1.0, 1.0, &mut rng);
        let f = Grid3d::random_uniform(n, -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                let mut phi = Grid3d::zeros(n);
                p.sor_sweep(&mut phi, &f, 1.2);
                std::hint::black_box(phi)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poisson_blocks, bench_helmholtz_operator);
criterion_main!(benches);
