//! Implicit-shift QL/QR eigensolver for symmetric matrices.
//!
//! The workhorse "compute every eigenpair" routine (LAPACK's
//! `DSTEQR`-style algorithm, the `tqli` formulation): implicit QL with
//! Wilkinson shifts on the tridiagonal form, accumulating the rotations
//! into the eigenvector matrix. Cost is `O(n³)` including eigenvectors,
//! which is what makes bisection-for-k attractive at low accuracy in
//! the image-compression benchmark (§6.1.4).
//!
//! A rotation mixes two adjacent *columns* of the eigenvector matrix.
//! The iteration therefore works on a column-major copy, where that is
//! one pass over two contiguous slices instead of two stride-`n`
//! walks, and returns to row-major once, while sorting. Each entry
//! still sees the same rotations in the same order with the same two
//! expressions, so the layout changes no bit of the result.

use crate::matrix::Matrix;
use crate::tridiag::SymmetricTridiagonal;

/// An eigendecomposition `A = V · diag(λ) · Vᵀ` with eigenvalues
/// ascending and eigenvectors in the matching columns of `V`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, matching `values`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Sorts eigenpairs ascending by eigenvalue (in place).
    pub(crate) fn sort_ascending(&mut self) {
        let n = self.values.len();
        let order = ascending_order(&self.values);
        let values = order.iter().map(|&i| self.values[i]).collect();
        let vectors = Matrix::from_fn(self.vectors.rows(), n, |r, c| self.vectors[(r, order[c])]);
        self.values = values;
        self.vectors = vectors;
    }
}

/// The stable permutation that sorts `values` ascending.
fn ascending_order(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("eigenvalues are finite")
    });
    order
}

/// Error for QL iteration failing to converge (essentially impossible
/// for real symmetric input, but surfaced rather than looping forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EigenDidNotConverge;

impl std::fmt::Display for EigenDidNotConverge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QL iteration exceeded its iteration budget")
    }
}

impl std::error::Error for EigenDidNotConverge {}

/// Eigendecomposition of a symmetric tridiagonal matrix by implicit QL
/// with shifts, accumulating rotations into `q0` (pass the Householder
/// `Q` to get eigenvectors of the original dense matrix, or `None` for
/// eigenvectors of the tridiagonal matrix itself).
///
/// # Errors
///
/// Returns [`EigenDidNotConverge`] if any eigenvalue needs more than 50
/// QL sweeps.
pub fn eigen_tridiagonal(
    t: &SymmetricTridiagonal,
    q0: Option<&Matrix>,
) -> Result<SymmetricEigen, EigenDidNotConverge> {
    let n = t.dim();
    let mut d = t.diag.clone();
    // e is offset by one versus the textbook: e[i] couples d[i], d[i+1].
    let mut e = t.offdiag.clone();
    e.push(0.0);
    // Column-major: column `j` of the eigenvector matrix is
    // `z[j * rows..(j + 1) * rows]`, so a rotation of two adjacent
    // columns is one pass over two contiguous slices.
    let (rows, mut z) = match q0 {
        Some(q) => {
            assert_eq!(q.cols(), n, "q0 must have n columns");
            (q.rows(), q.transpose().into_vec())
        }
        None => (n, Matrix::identity(n).into_vec()),
    };

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a negligible off-diagonal to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(EigenDidNotConverge);
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut i = m;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                let (zi, zi1) = z[i * rows..(i + 2) * rows].split_at_mut(rows);
                for (a, b) in zi.iter_mut().zip(zi1) {
                    let f = *b;
                    *b = s * *a + c * f;
                    *a = c * *a - s * f;
                }
            }
            if r == 0.0 && i > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort ascending and return to row-major in one pass.
    let order = ascending_order(&d);
    let mut vectors = Vec::with_capacity(rows * n);
    for r in 0..rows {
        vectors.extend(order.iter().map(|&c| z[c * rows + r]));
    }
    Ok(SymmetricEigen {
        values: order.iter().map(|&c| d[c]).collect(),
        vectors: Matrix::from_vec(rows, n, vectors),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, symmetric_cases};
    use crate::tridiag::householder_tridiagonalize;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// QL rotating two columns of a row-major matrix, as this module
    /// did before the column-major working copy: the bit-identity
    /// oracle.
    fn eigen_tridiagonal_reference(
        t: &SymmetricTridiagonal,
        q0: Option<&Matrix>,
    ) -> Result<SymmetricEigen, EigenDidNotConverge> {
        let n = t.dim();
        let mut d = t.diag.clone();
        // e is offset by one versus the textbook: e[i] couples d[i], d[i+1].
        let mut e = t.offdiag.clone();
        e.push(0.0);
        let mut z = match q0 {
            Some(q) => {
                assert_eq!(q.cols(), n, "q0 must have n columns");
                q.clone()
            }
            None => Matrix::identity(n),
        };
        let rows = z.rows();

        for l in 0..n {
            let mut iter = 0;
            loop {
                // Look for a negligible off-diagonal to split at.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                if iter > 50 {
                    return Err(EigenDidNotConverge);
                }
                // Wilkinson shift.
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let mut s = 1.0;
                let mut c = 1.0;
                let mut p = 0.0;
                let mut i = m;
                while i > l {
                    i -= 1;
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    // Accumulate the rotation into the eigenvector matrix.
                    for k in 0..rows {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
                if r == 0.0 && i > l {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }

        let mut eig = SymmetricEigen {
            values: d,
            vectors: z,
        };
        eig.sort_ascending();
        Ok(eig)
    }

    #[test]
    fn column_major_rotations_match_row_major_bit_for_bit() {
        for (label, a) in symmetric_cases() {
            let reduction = householder_tridiagonalize(&a);
            for q0 in [None, Some(&reduction.q)] {
                let got = eigen_tridiagonal(&reduction.tridiag, q0).unwrap();
                let want = eigen_tridiagonal_reference(&reduction.tridiag, q0).unwrap();
                let what = format!("{label} q0={}", q0.is_some());
                assert_bits_eq(&got.values, &want.values, &format!("{what} values"));
                assert_bits_eq(
                    got.vectors.as_slice(),
                    want.vectors.as_slice(),
                    &format!("{what} vectors"),
                );
            }
        }
    }

    #[test]
    fn rectangular_q0_keeps_its_row_count() {
        let t = SymmetricTridiagonal::new(vec![2.0, -1.0, 0.5], vec![0.75, -0.25]);
        let q0 = Matrix::from_fn(5, 3, |i, j| (1 + i * 3 + j) as f64 / 7.0);
        let got = eigen_tridiagonal(&t, Some(&q0)).unwrap();
        let want = eigen_tridiagonal_reference(&t, Some(&q0)).unwrap();
        assert_eq!((got.vectors.rows(), got.vectors.cols()), (5, 3));
        assert_bits_eq(got.vectors.as_slice(), want.vectors.as_slice(), "5x3 q0");
    }

    /// Every eigenpair of a dense symmetric matrix: Householder
    /// reduction followed by implicit QL.
    fn eigen_dense(a: &Matrix) -> SymmetricEigen {
        let reduction = householder_tridiagonalize(a);
        eigen_tridiagonal(&reduction.tridiag, Some(&reduction.q)).unwrap()
    }

    fn check_decomposition(a: &Matrix, eig: &SymmetricEigen, tol: f64) {
        let n = a.rows();
        // A v = λ v for every pair.
        for j in 0..n {
            let v = eig.vectors.col(j);
            let av = a.matvec(&v);
            for i in 0..n {
                assert!(
                    (av[i] - eig.values[j] * v[i]).abs() < tol,
                    "pair {j} residual too large"
                );
            }
        }
        // V orthonormal.
        let vtv = eig.vectors.transpose().matmul(&eig.vectors);
        assert!(vtv.sub(&Matrix::identity(n)).max_abs() < tol);
        // Ascending order.
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + tol);
        }
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = eigen_dense(&a);
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn poisson_tridiagonal_spectrum() {
        // tridiag(-1,2,-1) of size n has eigenvalues
        // 2 - 2 cos(k·π/(n+1)), k = 1..n.
        let n = 12;
        let t = SymmetricTridiagonal::new(vec![2.0; n], vec![-1.0; n - 1]);
        let eig = eigen_tridiagonal(&t, None).unwrap();
        for (k, &lambda) in eig.values.iter().enumerate() {
            let expect =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lambda - expect).abs() < 1e-10, "k={k}");
        }
        check_decomposition(&t.to_dense(), &eig, 1e-9);
    }

    #[test]
    fn random_symmetric_matrices() {
        let mut rng = SmallRng::seed_from_u64(44);
        for n in [1, 2, 3, 8, 25] {
            let a = Matrix::random_symmetric(n, &mut rng);
            let eig = eigen_dense(&a);
            check_decomposition(&a, &eig, 1e-8);
            // Trace is preserved.
            let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
            let sum: f64 = eig.values.iter().sum();
            assert!((trace - sum).abs() < 1e-8, "n={n}");
        }
    }

    #[test]
    fn diagonal_matrix_is_immediate() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let eig = eigen_dense(&a);
        assert!((eig.values[0] + 1.0).abs() < 1e-14);
        assert!((eig.values[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2·I has eigenvalue 2 with multiplicity 3.
        let a = Matrix::identity(3).scale(2.0);
        let eig = eigen_dense(&a);
        for &v in &eig.values {
            assert!((v - 2.0).abs() < 1e-14);
        }
        check_decomposition(&a, &eig, 1e-12);
    }
}
