//! Criterion benchmarks for the Fig. 6(d) kernel: the three
//! eigensolver backends of the SVD, full spectrum versus top-k
//! bisection — the crossover the image-compression benchmark's
//! autotuner exploits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pb_linalg::eigen_bisect::largest_eigenpairs;
use pb_linalg::eigen_dc::eigen_dc_tridiagonal;
use pb_linalg::eigen_qr::eigen_tridiagonal;
use pb_linalg::svd::{svd_top_k, SvdMethod};
use pb_linalg::tridiag::householder_tridiagonalize;
use pb_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_svd(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let a = Matrix::random_uniform(64, 64, &mut rng);

    let mut group = c.benchmark_group("svd_full_rank_n64");
    group.sample_size(10);
    for (method, name) in [
        (SvdMethod::Qr, "qr"),
        (SvdMethod::DivideAndConquer, "divide_and_conquer"),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &method, |b, &m| {
            b.iter(|| std::hint::black_box(svd_top_k(&a, 64, m).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("svd_top_k_bisection_n64");
    group.sample_size(10);
    for k in [1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| std::hint::black_box(svd_top_k(&a, k, SvdMethod::Bisection).unwrap()))
        });
    }
    group.finish();
}

/// The stages of one image-compression trial at the ledger's size
/// (n = 96), each on its own: the Householder reduction every
/// eigensolver choice pays, the three solvers on its tridiagonal
/// form, and the rank-k reconstruction the accuracy metric pays.
fn bench_stages_n96(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let a = Matrix::random_uniform(96, 96, &mut rng);
    let gram = a.transpose().matmul(&a);
    let t = householder_tridiagonalize(&gram).tridiag;
    let svd = svd_top_k(&a, 96, SvdMethod::Qr).unwrap();

    let mut group = c.benchmark_group("eigen_stages_n96");
    group.sample_size(10);
    group.bench_function("tridiagonalize", |b| {
        b.iter(|| std::hint::black_box(householder_tridiagonalize(&gram)))
    });
    group.bench_function("ql", |b| {
        b.iter(|| std::hint::black_box(eigen_tridiagonal(&t, None).unwrap()))
    });
    group.bench_function("dc", |b| {
        b.iter(|| std::hint::black_box(eigen_dc_tridiagonal(&t).unwrap()))
    });
    for k in [1usize, 8, 96] {
        group.bench_function(format!("bisect_k{k}"), |b| {
            b.iter(|| std::hint::black_box(largest_eigenpairs(&t, k)))
        });
    }
    group.bench_function("reconstruct_k96", |b| {
        b.iter(|| std::hint::black_box(svd.reconstruct()))
    });
    group.finish();
}

criterion_group!(benches, bench_svd, bench_stages_n96);
criterion_main!(benches);
