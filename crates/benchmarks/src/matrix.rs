//! Row-major dense matrices.

use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or there are no rows.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps row-major `data` as a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows * cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// A matrix with entries drawn uniformly from `[0, 1)` — the image
    /// model used by the compression benchmark (§6.1.4: "generated from
    /// a uniform distribution on (0,1)").
    pub fn random_uniform(rows: usize, cols: usize, rng: &mut SmallRng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.gen::<f64>())
    }

    /// A random symmetric matrix with entries in `[-1, 1]`.
    #[cfg(test)]
    pub(crate) fn random_symmetric(n: usize, rng: &mut SmallRng) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.gen_range(-1.0..1.0);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// A random symmetric positive-definite matrix (`B·Bᵀ + n·I`).
    #[cfg(test)]
    pub(crate) fn random_spd(n: usize, rng: &mut SmallRng) -> Self {
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut m = b.matmul(&b.transpose());
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The underlying row-major data.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major data, by value.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[cfg(test)]
    pub(crate) fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.data.len());
        for j in 0..self.cols {
            data.extend(self.data.iter().skip(j).step_by(self.cols.max(1)));
        }
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree for matmul"
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&other.data) {
            *o -= b;
        }
        out
    }

    /// Scales every entry by `s`.
    #[cfg(test)]
    pub(crate) fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Root-mean-square of the entries (the error measure used by the
    /// paper's PDE and compression accuracy metrics).
    pub(crate) fn rms(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
        }
    }

    /// Largest absolute entry.
    #[cfg(test)]
    pub(crate) fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Whether the matrix is symmetric to within `tol`.
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a vector.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_is_matmul_neutral() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Matrix::random_uniform(4, 4, &mut rng);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(4).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Matrix::random_uniform(3, 5, &mut rng);
        let x: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let y = a.matvec(&x);
        let xm = Matrix::from_fn(5, 1, |i, _| x[i]);
        let ym = a.matmul(&xm);
        for i in 0..3 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = Matrix::random_uniform(3, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 7);
    }

    #[test]
    fn symmetric_and_spd_generators() {
        let mut rng = SmallRng::seed_from_u64(4);
        let s = Matrix::random_symmetric(6, &mut rng);
        assert!(s.is_symmetric(0.0));
        let spd = Matrix::random_spd(6, &mut rng);
        assert!(spd.is_symmetric(1e-12));
        // Diagonal dominance from the +n*I shift implies positive
        // diagonal entries at minimum.
        for i in 0..6 {
            assert!(spd[(i, i)] > 0.0);
        }
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((a.rms() - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a:?}").is_empty());
    }
}
