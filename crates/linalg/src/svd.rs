//! Singular value decomposition and best rank-k approximation.
//!
//! The image-compression benchmark (§6.1.4) stores the first `k`
//! singular triplets of an image matrix: `A_k = Σᵢ σᵢ·uᵢ·vᵢᵀ` is the
//! best rank-`k` approximation. The SVD is computed through the
//! symmetric eigenproblem — either all triplets at once (QR or
//! divide-and-conquer on `AᵀA`) or only the top `k` (bisection), which
//! is the algorithmic menu the autotuner chooses from.

use crate::eigen_bisect;
use crate::eigen_dc::eigen_dc_tridiagonal;
use crate::eigen_qr::{eigen_tridiagonal, EigenDidNotConverge};
use crate::matrix::{axpy, Matrix};
use crate::tridiag::householder_tridiagonalize;

/// Which eigensolver backs the SVD computation — the algorithmic
/// choice exposed to the autotuner in the image-compression benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SvdMethod {
    /// Full spectrum by implicit QL/QR iteration.
    Qr,
    /// Full spectrum by divide and conquer.
    DivideAndConquer,
    /// Only the top `k` singular values by Sturm bisection + inverse
    /// iteration.
    Bisection,
}

/// A (possibly truncated) singular value decomposition
/// `A ≈ U·diag(σ)·Vᵀ` with singular values descending.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Number of retained triplets.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs the rank-`k` approximation `U·diag(σ)·Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let m = self.u.rows();
        let n = self.v.rows();
        // Row `t` of `Vᵀ` is the contiguous `vₜ`, so triplet `t` adds
        // `uᵢₜ·σₜ·vₜ` to output row `i` in one pass; every entry still
        // accumulates its triplets in ascending `t`.
        let vt = self.v.transpose();
        let mut out = vec![0.0; m * n];
        for (t, &s) in self.sigma.iter().enumerate() {
            for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
                let us = self.u[(i, t)] * s;
                if us == 0.0 {
                    continue;
                }
                axpy(us, vt.row(t), out_row);
            }
        }
        Matrix::from_vec(m, n, out)
    }
}

/// Computes the top-`k` SVD of `a` with the selected eigensolver.
///
/// `k` is clamped to `min(m, n)`. The decomposition is computed through
/// the Gram matrix `AᵀA` (whose eigenvalues are `σ²` and eigenvectors
/// are the right singular vectors); left vectors follow from
/// `uᵢ = A·vᵢ/σᵢ`. Zero singular values get zero left vectors.
///
/// # Errors
///
/// Returns `EigenDidNotConverge` if the underlying QL iteration
/// fails.
///
/// # Examples
///
/// ```
/// use pb_linalg::svd::{svd_top_k, SvdMethod};
/// use pb_linalg::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 2.0]);
/// let svd = svd_top_k(&a, 2, SvdMethod::Qr).unwrap();
/// assert!((svd.sigma[0] - 3.0).abs() < 1e-10);
/// assert!((svd.sigma[1] - 2.0).abs() < 1e-10);
/// ```
pub fn svd_top_k(a: &Matrix, k: usize, method: SvdMethod) -> Result<Svd, EigenDidNotConverge> {
    let m = a.rows();
    let n = a.cols();
    let k = k.min(m.min(n)).max(1);

    // Gram matrix AᵀA (n × n), reduced to tridiagonal form.
    let gram = a.transpose().matmul(a);
    let reduction = householder_tridiagonalize(&gram);

    // Eigenpairs of the tridiagonal form, largest k.
    let (mut values, tri_vectors) = match method {
        SvdMethod::Qr => {
            let eig = eigen_tridiagonal(&reduction.tridiag, None)?;
            take_top_k(eig.values, eig.vectors, k)
        }
        SvdMethod::DivideAndConquer => {
            let eig = eigen_dc_tridiagonal(&reduction.tridiag)?;
            take_top_k(eig.values, eig.vectors, k)
        }
        SvdMethod::Bisection => {
            let eig = eigen_bisect::largest_eigenpairs(&reduction.tridiag, k);
            // `largest_eigenpairs` returns ascending; flip to
            // descending.
            let p = eig.values.len();
            let values: Vec<f64> = eig.values.iter().rev().copied().collect();
            let vectors =
                Matrix::from_fn(eig.vectors.rows(), p, |i, j| eig.vectors[(i, p - 1 - j)]);
            (values, vectors)
        }
    };

    // Map tridiagonal eigenvectors back to right singular vectors.
    let v = reduction.q.matmul(&tri_vectors);
    // σ = sqrt(max(λ, 0)); tiny negatives from roundoff clamp to 0.
    for val in &mut values {
        *val = val.max(0.0);
    }
    let sigma: Vec<f64> = values.iter().map(|&l| l.sqrt()).collect();

    // u_i = A v_i / σ_i.
    let mut u = Matrix::zeros(m, k);
    for j in 0..k {
        let vj = v.col(j);
        let avj = a.matvec(&vj);
        if sigma[j] > f64::EPSILON * sigma.first().copied().unwrap_or(1.0).max(1.0) {
            for i in 0..m {
                u[(i, j)] = avj[i] / sigma[j];
            }
        }
    }

    Ok(Svd { u, sigma, v })
}

/// Selects the top `k` eigenpairs from an ascending decomposition,
/// returning them descending.
fn take_top_k(values: Vec<f64>, vectors: Matrix, k: usize) -> (Vec<f64>, Matrix) {
    let n = values.len();
    let k = k.min(n);
    let top_values: Vec<f64> = values[n - k..].iter().rev().copied().collect();
    let top_vectors = Matrix::from_fn(vectors.rows(), k, |i, j| vectors[(i, n - 1 - j)]);
    (top_values, top_vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, SIZES};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const METHODS: [SvdMethod; 3] = [
        SvdMethod::Qr,
        SvdMethod::DivideAndConquer,
        SvdMethod::Bisection,
    ];

    /// Entry-by-entry accumulation walking a column of `V` — the
    /// reconstruction before the transposed form: the bit-identity
    /// oracle.
    fn reconstruct_reference(svd: &Svd) -> Matrix {
        let m = svd.u.rows();
        let n = svd.v.rows();
        let k = svd.rank();
        let mut out = Matrix::zeros(m, n);
        for t in 0..k {
            let s = svd.sigma[t];
            for i in 0..m {
                let us = svd.u[(i, t)] * s;
                if us == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += us * svd.v[(j, t)];
                }
            }
        }
        out
    }

    #[test]
    fn transposed_reconstruction_matches_column_walk_bit_for_bit() {
        for &n in &SIZES {
            for seed in [3u64, 30] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let a = Matrix::random_uniform(n + 2, n, &mut rng);
                for method in METHODS {
                    for k in [1, n.div_ceil(2), n] {
                        let mut svd = svd_top_k(&a, k, method).unwrap();
                        // A zero left vector (what a zero singular
                        // value leaves) takes the `us == 0.0` skip.
                        let last = svd.rank() - 1;
                        for i in 0..svd.u.rows() {
                            svd.u[(i, last)] = 0.0;
                        }
                        assert_bits_eq(
                            svd.reconstruct().as_slice(),
                            reconstruct_reference(&svd).as_slice(),
                            &format!("n={n} seed={seed} {method:?} k={k}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_matrix_sigma_exact() {
        let a = Matrix::from_rows(&[&[0.0, 4.0], &[1.0, 0.0]]);
        for method in METHODS {
            let svd = svd_top_k(&a, 2, method).unwrap();
            assert!((svd.sigma[0] - 4.0).abs() < 1e-9, "{method:?}");
            assert!((svd.sigma[1] - 1.0).abs() < 1e-9, "{method:?}");
        }
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let mut rng = SmallRng::seed_from_u64(77);
        let a = Matrix::random_uniform(8, 8, &mut rng);
        for method in METHODS {
            let svd = svd_top_k(&a, 8, method).unwrap();
            let err = a.sub(&svd.reconstruct()).max_abs();
            assert!(err < 1e-6, "{method:?}: reconstruction error {err}");
        }
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let mut rng = SmallRng::seed_from_u64(78);
        let a = Matrix::random_uniform(12, 12, &mut rng);
        let mut last_err = f64::INFINITY;
        for k in [1, 3, 6, 12] {
            let svd = svd_top_k(&a, k, SvdMethod::Qr).unwrap();
            let err = a.sub(&svd.reconstruct()).frobenius_norm();
            assert!(err <= last_err + 1e-9, "rank {k} error {err} > {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-6, "full rank is exact");
    }

    #[test]
    fn eckart_young_error_matches_tail_singular_values() {
        // ‖A − A_k‖_F² = Σ_{i>k} σᵢ².
        let mut rng = SmallRng::seed_from_u64(79);
        let a = Matrix::random_uniform(10, 10, &mut rng);
        let full = svd_top_k(&a, 10, SvdMethod::Qr).unwrap();
        let k = 4;
        let trunc = svd_top_k(&a, k, SvdMethod::Qr).unwrap();
        let err = a.sub(&trunc.reconstruct()).frobenius_norm();
        let tail: f64 = full.sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-6, "err {err} vs tail {tail}");
    }

    #[test]
    fn methods_agree_on_top_singular_values() {
        let mut rng = SmallRng::seed_from_u64(80);
        let a = Matrix::random_uniform(15, 15, &mut rng);
        let qr = svd_top_k(&a, 5, SvdMethod::Qr).unwrap();
        let dc = svd_top_k(&a, 5, SvdMethod::DivideAndConquer).unwrap();
        let bi = svd_top_k(&a, 5, SvdMethod::Bisection).unwrap();
        for i in 0..5 {
            assert!((qr.sigma[i] - dc.sigma[i]).abs() < 1e-7, "i={i}");
            assert!((qr.sigma[i] - bi.sigma[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn rectangular_matrices() {
        let mut rng = SmallRng::seed_from_u64(81);
        let a = Matrix::random_uniform(9, 5, &mut rng);
        let svd = svd_top_k(&a, 5, SvdMethod::Qr).unwrap();
        assert_eq!(svd.u.rows(), 9);
        assert_eq!(svd.v.rows(), 5);
        let err = a.sub(&svd.reconstruct()).max_abs();
        assert!(err < 1e-6);
    }

    #[test]
    fn singular_values_are_descending() {
        let mut rng = SmallRng::seed_from_u64(83);
        let a = Matrix::random_uniform(7, 7, &mut rng);
        for method in METHODS {
            let svd = svd_top_k(&a, 7, method).unwrap();
            for w in svd.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "{method:?}");
            }
        }
    }
}
