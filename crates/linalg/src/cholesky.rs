//! Dense Cholesky factorization for symmetric positive-definite
//! systems.
//!
//! Used as the "ideal direct solver" at the bottom of multigrid
//! recursions (§6.4: at size 8 and 9 orders of magnitude of required
//! accuracy, the tuned Helmholtz algorithm "abandons the use of
//! recursion completely, opting instead to solve the problem with the
//! ideal direct solver").

use crate::matrix::Matrix;

/// Error returned when a matrix is not positive definite (or not
/// square/symmetric enough to factor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not symmetric positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// The lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if a non-positive pivot appears.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    ///
    /// # Examples
    ///
    /// ```
    /// use pb_linalg::cholesky::Cholesky;
    /// use pb_linalg::Matrix;
    ///
    /// let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
    /// let chol = Cholesky::factor(&a).unwrap();
    /// let x = chol.solve(&[8.0, 7.0]);
    /// let ax = a.matvec(&x);
    /// assert!((ax[0] - 8.0).abs() < 1e-12 && (ax[1] - 7.0).abs() < 1e-12);
    /// ```
    pub fn factor(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert!(a.is_square(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor.
    #[cfg(test)]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` by forward/back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "right-hand side has wrong length");
        // Forward: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Back: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn factor_reconstructs_matrix() {
        let mut rng = SmallRng::seed_from_u64(10);
        let a = Matrix::random_spd(8, &mut rng);
        let chol = Cholesky::factor(&a).unwrap();
        let back = chol.l().matmul(&chol.l().transpose());
        assert!(a.sub(&back).max_abs() < 1e-10);
    }

    #[test]
    fn solve_random_spd_system() {
        let mut rng = SmallRng::seed_from_u64(11);
        for n in [1, 2, 5, 16] {
            let a = Matrix::random_spd(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = a.matvec(&x_true);
            let x = Cholesky::factor(&a).unwrap().solve(&b);
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert_eq!(Cholesky::factor(&a), Err(NotPositiveDefinite));
        let neg = Matrix::from_rows(&[&[-1.0]]);
        assert_eq!(Cholesky::factor(&neg), Err(NotPositiveDefinite));
    }
}
