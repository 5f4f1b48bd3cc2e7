//! Symmetric tridiagonal matrices and Householder reduction.
//!
//! All three eigensolvers (QR iteration, bisection,
//! divide-and-conquer) operate on symmetric tridiagonal matrices; a
//! dense symmetric matrix is first reduced with Householder reflections
//! (the classic `tred2` reduction), accumulating the orthogonal
//! transformation so eigenvectors can be mapped back.
//!
//! Step `k`'s Householder vector `v` is zero up to index `k`, so the
//! step touches only what is still live: `w = m·v` over columns
//! `k+1..n` of rows `k..n`, the new off-diagonal entry `(k+1, k)`, the
//! trailing block `(k+1.., k+1..)`, and columns `k+1..n` of `Q`. This
//! is the full-matrix update with its no-ops removed, not a different
//! summation: every kept entry receives the same expression with the
//! same association (`-2·v[i]`, `2·w[i]` and `4·vw·v[i]` are hoisted
//! per row exactly as the full expression groups them), every dropped
//! term of a sum is a product with an exact zero that leaves a
//! non-zero partial sum unchanged, and every dropped entry is one no
//! later step and neither returned diagonal reads again. The results
//! are bit-identical to the full update (pinned by the oracle test
//! against the previous body), including on tridiagonal, diagonal,
//! zero and zero-sub-column inputs where the `alpha == 0.0` /
//! `r == 0.0` skips fire.
//!
//! The step works on the transposes `Mᵀ` and `Qᵀ`, so a column of `M`
//! or `Q` is a contiguous row. `w = m·v` and every row's `q·v` then
//! advance all their sums together, one per row, each adding its
//! columns in the same order from the same start value as a
//! row-at-a-time dot product: no sum waits on another's add chain, and
//! the results keep their bits.

use crate::matrix::{dot, Matrix};

/// A symmetric tridiagonal matrix: `diag` of length `n` and `offdiag`
/// of length `n - 1` (`offdiag[i] = A[i+1][i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricTridiagonal {
    /// Main diagonal.
    pub diag: Vec<f64>,
    /// Sub/super diagonal.
    pub offdiag: Vec<f64>,
}

impl SymmetricTridiagonal {
    /// Creates a tridiagonal matrix.
    ///
    /// # Panics
    ///
    /// Panics if `offdiag.len() + 1 != diag.len()` or `diag` is empty.
    pub fn new(diag: Vec<f64>, offdiag: Vec<f64>) -> Self {
        assert!(!diag.is_empty(), "empty tridiagonal matrix");
        assert_eq!(
            offdiag.len() + 1,
            diag.len(),
            "off-diagonal must be one shorter than the diagonal"
        );
        SymmetricTridiagonal { diag, offdiag }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Densifies (test oracles).
    #[cfg(test)]
    pub fn to_dense(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                self.diag[i]
            } else if i.abs_diff(j) == 1 {
                self.offdiag[i.min(j)]
            } else {
                0.0
            }
        })
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    #[cfg(test)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(x.len(), n, "vector length mismatch");
        (0..n)
            .map(|i| {
                let mut v = self.diag[i] * x[i];
                if i > 0 {
                    v += self.offdiag[i - 1] * x[i - 1];
                }
                if i + 1 < n {
                    v += self.offdiag[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    /// Gershgorin bounds `[lo, hi]` containing every eigenvalue.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let n = self.dim();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let mut r = 0.0;
            if i > 0 {
                r += self.offdiag[i - 1].abs();
            }
            if i + 1 < n {
                r += self.offdiag[i].abs();
            }
            lo = lo.min(self.diag[i] - r);
            hi = hi.max(self.diag[i] + r);
        }
        (lo, hi)
    }
}

/// Result of Householder tridiagonalization: `A = Q · T · Qᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonalization {
    /// The tridiagonal matrix `T`.
    pub tridiag: SymmetricTridiagonal,
    /// The accumulated orthogonal transform `Q`.
    pub q: Matrix,
}

/// Householder reduction of a symmetric matrix to tridiagonal form
/// (the `tred2` algorithm), accumulating `Q`.
///
/// # Panics
///
/// Panics if `a` is not square (`a` is assumed symmetric; both
/// triangles are read).
pub fn householder_tridiagonalize(a: &Matrix) -> Tridiagonalization {
    assert!(a.is_square(), "tridiagonalization requires a square matrix");
    let n = a.rows();
    // Row-major working copies of `Mᵀ` and `Qᵀ`: column `j` of `M` (of
    // `Q`) is the contiguous row `j` of `mt` (`qt`), so every loop below
    // walks rows, and a product with `v` advances one sum per row of `M`
    // (of `Q`) at once, each still in column order.
    let mut mt = a.transpose().into_vec();
    let mut qt = Matrix::identity(n).into_vec();
    // Only `v[k + 1..]`, `w[k..]` and the factors' `[k + 1..]` are live
    // at step `k`.
    let mut v = vec![0.0; n];
    let mut w = vec![0.0; n];
    // Per row `i` of the trailing block: `-2·v[i]`, `2·w[i]` and
    // `4·vw·v[i]`, as the full update groups them.
    let (mut fa, mut fb, mut fc) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    // Per row `i` of `Q`: `2·(q·v)`.
    let mut qv = vec![0.0; n];

    for k in 0..n.saturating_sub(2) {
        // Build the Householder vector for column k below the diagonal.
        let col = &mt[k * n..(k + 1) * n];
        let mut alpha: f64 = 0.0;
        for &x in &col[k + 1..] {
            alpha += x * x;
        }
        alpha = alpha.sqrt();
        if alpha == 0.0 {
            continue;
        }
        let head = col[k + 1];
        if head > 0.0 {
            alpha = -alpha;
        }
        let r = (0.5 * (alpha * alpha - head * alpha)).sqrt();
        if r == 0.0 {
            continue;
        }
        v[k + 1] = (head - alpha) / (2.0 * r);
        for i in k + 2..n {
            v[i] = col[i] / (2.0 * r);
        }
        let vt = &v[k + 1..];

        // m <- H m H with H = I - 2 v vᵀ, where v is zero up to k.
        // w = m v: rows above k are never used, columns up to k only
        // add products with those zeros. Each row's sum starts where
        // `dot` starts and adds its columns in order.
        let wk = &mut w[k..];
        wk.fill(-0.0);
        for (mt_row, &vj) in mt[(k + 1) * n..].chunks_exact(n).zip(vt) {
            for (s, &mij) in wk.iter_mut().zip(&mt_row[k..]) {
                *s += mij * vj;
            }
        }
        let wt = &w[k + 1..];
        let vw = dot(vt, wt);
        // m <- m - 2 v wᵀ - 2 w vᵀ + 4 (vᵀ w) v vᵀ, on the entries
        // still to be read: the new off-diagonal (k + 1, k), where
        // v[k] = 0, and the trailing block.
        let vk = 0.0;
        mt[k * n + k + 1] +=
            -2.0 * v[k + 1] * w[k] - 2.0 * w[k + 1] * vk + 4.0 * vw * v[k + 1] * vk;
        for i in k + 1..n {
            (fa[i], fb[i], fc[i]) = (-2.0 * v[i], 2.0 * w[i], 4.0 * vw * v[i]);
        }
        let (fa, fb, fc) = (&fa[k + 1..], &fb[k + 1..], &fc[k + 1..]);
        for ((mt_row, &wj), &vj) in mt[(k + 1) * n..].chunks_exact_mut(n).zip(wt).zip(vt) {
            let column = mt_row[k + 1..].iter_mut().zip(fa).zip(fb).zip(fc);
            for (((mij, &a), &b), &c) in column {
                *mij += a * wj - b * vj + c * vj;
            }
        }
        // q <- q H (accumulate from the right): columns up to k of H
        // are the identity's. Every row's `q·v` starts from 0.0 and adds
        // its columns in order; then every row reflects.
        qv.fill(0.0);
        for (qt_row, &vj) in qt[(k + 1) * n..].chunks_exact(n).zip(vt) {
            for (s, &qij) in qv.iter_mut().zip(qt_row) {
                *s += qij * vj;
            }
        }
        for s in &mut qv {
            *s *= 2.0;
        }
        for (qt_row, &vj) in qt[(k + 1) * n..].chunks_exact_mut(n).zip(vt) {
            for (qij, &scale) in qt_row.iter_mut().zip(&qv) {
                *qij -= scale * vj;
            }
        }
    }

    let diag: Vec<f64> = (0..n).map(|i| mt[i * n + i]).collect();
    let offdiag: Vec<f64> = (0..n.saturating_sub(1))
        .map(|i| mt[i * n + i + 1])
        .collect();
    Tridiagonalization {
        tridiag: SymmetricTridiagonal::new(diag, offdiag),
        q: Matrix::from_vec(n, n, qt).transpose(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, symmetric_cases};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The full-matrix `tred2` step this module used before the
    /// trailing-block update: the bit-identity oracle.
    fn householder_tridiagonalize_reference(a: &Matrix) -> Tridiagonalization {
        assert!(a.is_square(), "tridiagonalization requires a square matrix");
        let n = a.rows();
        let mut m = a.clone();
        let mut q = Matrix::identity(n);

        for k in 0..n.saturating_sub(2) {
            // Build the Householder vector for column k below the diagonal.
            let mut alpha: f64 = 0.0;
            for i in k + 1..n {
                alpha += m[(i, k)] * m[(i, k)];
            }
            alpha = alpha.sqrt();
            if alpha == 0.0 {
                continue;
            }
            if m[(k + 1, k)] > 0.0 {
                alpha = -alpha;
            }
            let r = (0.5 * (alpha * alpha - m[(k + 1, k)] * alpha)).sqrt();
            if r == 0.0 {
                continue;
            }
            let mut v = vec![0.0; n];
            v[k + 1] = (m[(k + 1, k)] - alpha) / (2.0 * r);
            for i in k + 2..n {
                v[i] = m[(i, k)] / (2.0 * r);
            }

            // m <- H m H with H = I - 2 v vᵀ.
            // w = m v.
            let w = m.matvec(&v);
            let vw = dot(&v, &w);
            // m <- m - 2 v wᵀ - 2 w vᵀ + 4 (vᵀ w) v vᵀ.
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] += -2.0 * v[i] * w[j] - 2.0 * w[i] * v[j] + 4.0 * vw * v[i] * v[j];
                }
            }
            // q <- q H (accumulate from the right).
            for i in 0..n {
                let mut qv = 0.0;
                for j in 0..n {
                    qv += q[(i, j)] * v[j];
                }
                for j in 0..n {
                    q[(i, j)] -= 2.0 * qv * v[j];
                }
            }
        }

        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        let offdiag: Vec<f64> = (0..n.saturating_sub(1)).map(|i| m[(i + 1, i)]).collect();
        Tridiagonalization {
            tridiag: SymmetricTridiagonal::new(diag, offdiag),
            q,
        }
    }

    #[test]
    fn trailing_block_update_matches_full_update_bit_for_bit() {
        for (label, a) in symmetric_cases() {
            let got = householder_tridiagonalize(&a);
            let want = householder_tridiagonalize_reference(&a);
            assert_bits_eq(
                &got.tridiag.diag,
                &want.tridiag.diag,
                &format!("{label} diag"),
            );
            assert_bits_eq(
                &got.tridiag.offdiag,
                &want.tridiag.offdiag,
                &format!("{label} offdiag"),
            );
            assert_bits_eq(got.q.as_slice(), want.q.as_slice(), &format!("{label} q"));
        }
    }

    #[test]
    fn q_t_qt_reconstructs_a() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let t = householder_tridiagonalize(&a);
        let back = t.q.matmul(&t.tridiag.to_dense()).matmul(&t.q.transpose());
        assert!(a.sub(&back).max_abs() < 1e-10);
    }

    #[test]
    fn tridiagonal_accessors() {
        let t = SymmetricTridiagonal::new(vec![2.0, 2.0, 2.0], vec![-1.0, -1.0]);
        assert_eq!(t.dim(), 3);
        let d = t.to_dense();
        assert_eq!(d[(0, 1)], -1.0);
        assert_eq!(d[(1, 0)], -1.0);
        assert_eq!(d[(0, 2)], 0.0);
        let y = t.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn gershgorin_contains_known_spectrum() {
        // tridiag(-1,2,-1) has eigenvalues in (0, 4).
        let n = 8;
        let t = SymmetricTridiagonal::new(vec![2.0; n], vec![-1.0; n - 1]);
        let (lo, hi) = t.gershgorin_bounds();
        assert!(lo <= 0.0 && hi >= 4.0);
    }

    #[test]
    fn householder_preserves_spectrum_shape() {
        let mut rng = SmallRng::seed_from_u64(33);
        for n in [2, 3, 5, 10, 20] {
            let a = Matrix::random_symmetric(n, &mut rng);
            let t = householder_tridiagonalize(&a);
            // Orthogonality of Q.
            let qtq = t.q.transpose().matmul(&t.q);
            assert!(
                qtq.sub(&Matrix::identity(n)).max_abs() < 1e-10,
                "Q not orthogonal for n={n}"
            );
            // Reconstruction.
            let back = t.q.matmul(&t.tridiag.to_dense()).matmul(&t.q.transpose());
            assert!(a.sub(&back).max_abs() < 1e-9, "reconstruction failed n={n}");
        }
    }

    #[test]
    fn already_tridiagonal_is_fixed_point_up_to_signs() {
        let t0 = SymmetricTridiagonal::new(vec![1.0, 2.0, 3.0], vec![0.5, 0.25]);
        let t = householder_tridiagonalize(&t0.to_dense());
        for (a, b) in t.tridiag.diag.iter().zip(&t0.diag) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in t.tridiag.offdiag.iter().zip(&t0.offdiag) {
            assert!((a.abs() - b.abs()).abs() < 1e-12);
        }
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[5.0]]);
        let t = householder_tridiagonalize(&a);
        assert_eq!(t.tridiag.diag, vec![5.0]);
        assert!(t.tridiag.offdiag.is_empty());
    }
}
