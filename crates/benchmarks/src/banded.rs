//! Symmetric banded matrices and band Cholesky — the `DPBSV`
//! equivalent.
//!
//! The paper's Poisson benchmark uses "one direct (band Cholesky
//! factorization through LAPACK's DPBSV routine)" building block
//! (§6.1.5). The discretized 2D Laplacian on an `n × n` grid is
//! symmetric positive definite with bandwidth `n`, so band Cholesky
//! solves it in `O(n² · bandwidth²)` — asymptotically better than dense
//! factorization but worse than multigrid, which is exactly the
//! trade-off the autotuner explores.
//!
//! # Layout
//!
//! Matrix and factor share LAPACK's lower band storage: one contiguous
//! buffer of `n` columns of `kd + 1` entries (`kd` the bandwidth) with
//! `ab[j·(kd+1) + d] = A[j+d][j]`. Column `j` of the lower triangle is
//! the slice starting at `j·(kd+1)`: its diagonal first, then the
//! entries below it. The last `kd` columns are shorter than `kd + 1`;
//! their tails are padding that stays `0.0` and is never read.
//!
//! # Factorization order
//!
//! `cholesky` is left-looking by columns: column `j` starts as
//! `A[j..][j]`, has `L[j][k]·L[j..][k]` subtracted for every earlier
//! column `k` whose band reaches row `j`, `k` ascending, and is then
//! scaled by its pivot. An entry `L[i][j]` therefore sees
//! `A[i][j] − L[i][k₀]·L[j][k₀] − L[i][k₁]·L[j][k₁] − …` over exactly
//! the columns whose band holds both rows, lowest first — the same
//! multiply–subtract sequence as the textbook entry-at-a-time
//! dot-product loop, so the factor is bit-identical to that loop's.
//! What changes is the shape of the inner loop: not a serial dot
//! product that reads a different diagonal at every step, but an axpy
//! of one contiguous column slice into another, whose elements do not
//! depend on each other. The substitutions keep their orders as well
//! (forward: column axpys for `j` ascending; back: a dot product over
//! ascending rows), each over one contiguous column.

use crate::cholesky::NotPositiveDefinite;
#[cfg(test)]
use crate::matrix::Matrix;

/// A symmetric banded matrix in column-major lower band storage (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricBanded {
    n: usize,
    bandwidth: usize,
    /// `ab[j·(bandwidth+1) + d] = A[j + d][j]`, `d` in `0..=bandwidth`;
    /// entries with `j + d >= n` are padding and stay `0.0`.
    ab: Vec<f64>,
}

impl SymmetricBanded {
    /// A zero matrix of size `n` with the given (lower) bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth >= n` and `n > 0` (such a matrix should be
    /// dense instead) — except that `n == 0` is rejected outright.
    pub fn zeros(n: usize, bandwidth: usize) -> Self {
        assert!(n > 0, "empty banded matrix");
        assert!(bandwidth < n, "bandwidth must be below the dimension");
        SymmetricBanded {
            n,
            bandwidth,
            ab: vec![0.0; n * (bandwidth + 1)],
        }
    }

    /// The 1D Poisson operator `tridiag(-1, 2, -1)` of size `n`.
    #[cfg(test)]
    pub fn poisson_1d(n: usize) -> Self {
        let mut a = SymmetricBanded::zeros(n, 1.min(n - 1));
        for i in 0..n {
            a.set(i, i, 2.0);
        }
        for i in 0..n.saturating_sub(1) {
            a.set(i + 1, i, -1.0);
        }
        a
    }

    /// The 2D Poisson 5-point operator on an `m × m` interior grid
    /// (dimension `m²`, bandwidth `m`) — the system the paper's Poisson
    /// and preconditioner benchmarks solve (§6.1.5, §6.1.6).
    pub fn poisson_2d(m: usize) -> Self {
        assert!(m > 0, "grid must be non-empty");
        let n = m * m;
        let bw = if n == 1 { 0 } else { m };
        let mut a = SymmetricBanded::zeros(n, bw);
        for row in 0..m {
            for col in 0..m {
                let idx = row * m + col;
                a.set(idx, idx, 4.0);
                if col + 1 < m {
                    a.set(idx + 1, idx, -1.0);
                }
                if row + 1 < m {
                    a.set(idx + m, idx, -1.0);
                }
            }
        }
        a
    }

    /// Dimension of the matrix.
    #[cfg(test)]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The (lower) bandwidth.
    #[cfg(test)]
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Entry `A[i][j]` (0 outside the band).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[cfg(test)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        if d > self.bandwidth {
            0.0
        } else {
            self.ab[lo * (self.bandwidth + 1) + d]
        }
    }

    /// Sets `A[i][j]` (and its mirror).
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band or out of range.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        assert!(d <= self.bandwidth, "entry outside the band");
        self.ab[lo * (self.bandwidth + 1) + d] = value;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    #[cfg(test)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = i.saturating_sub(self.bandwidth);
            let hi = (i + self.bandwidth + 1).min(self.n);
            let mut acc = 0.0;
            for j in lo..hi {
                acc += self.get(i, j) * x[j];
            }
            *yi = acc;
        }
        y
    }

    /// Densifies.
    #[cfg(test)]
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Band Cholesky factorization (`DPBTRF` equivalent), left-looking
    /// by columns (see the module docs for why that order matters).
    ///
    /// # Errors
    ///
    /// Returns [`crate::cholesky::NotPositiveDefinite`] on a
    /// non-positive pivot.
    pub fn cholesky(&self) -> Result<BandedCholesky, NotPositiveDefinite> {
        let n = self.n;
        let kd = self.bandwidth;
        let w = kd + 1;
        let mut l = self.ab.clone();
        for j in 0..n {
            let (done, rest) = l.split_at_mut(j * w);
            let col = &mut rest[..w.min(n - j)];
            for k in j.saturating_sub(kd)..j {
                // Rows j.. of column k: L[j][k] first. `zip` stops at
                // the shorter of column k's band and column j's height.
                let src = &done[k * w + (j - k)..(k + 1) * w];
                let ljk = src[0];
                for (c, &s) in col.iter_mut().zip(src) {
                    *c -= ljk * s;
                }
            }
            if col[0] <= 0.0 {
                return Err(NotPositiveDefinite);
            }
            let pivot = col[0].sqrt();
            col[0] = pivot;
            for c in &mut col[1..] {
                *c /= pivot;
            }
        }
        Ok(BandedCholesky {
            n,
            bandwidth: kd,
            l,
        })
    }

    /// Factor-and-solve in one call — the `DPBSV` entry point.
    ///
    /// # Errors
    ///
    /// Returns [`crate::cholesky::NotPositiveDefinite`] if the matrix is
    /// not SPD.
    #[cfg(test)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefinite> {
        Ok(self.cholesky()?.solve(b))
    }
}

/// The banded Cholesky factor.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedCholesky {
    n: usize,
    bandwidth: usize,
    /// Lower factor in the matrix's storage:
    /// `l[j·(bandwidth+1) + d] = L[j + d][j]`.
    l: Vec<f64>,
}

impl BandedCholesky {
    /// Solves `A·x = b` with the factored matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` mismatches the dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let w = self.bandwidth + 1;
        assert_eq!(b.len(), n, "right-hand side has wrong length");
        let mut x = b.to_vec();
        // Forward: L·y = b, one column axpy per unknown.
        for (j, col) in self.l.chunks_exact(w).enumerate() {
            let (head, tail) = x[j..].split_first_mut().expect("j < n");
            *head /= col[0];
            let yj = *head;
            for (yi, &lij) in tail.iter_mut().zip(&col[1..]) {
                *yi -= lij * yj;
            }
        }
        // Back: Lᵀ·x = y, one dot product over ascending rows per
        // unknown.
        for (j, col) in self.l.chunks_exact(w).enumerate().rev() {
            let (head, tail) = x[j..].split_first_mut().expect("j < n");
            let mut sum = *head;
            for (&xi, &lij) in tail.iter().zip(&col[1..]) {
                sum -= lij * xi;
            }
            *head = sum / col[0];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The diagonal-major, entry-at-a-time band Cholesky this module
    /// used before the column-major layout, kept as the bit-identity
    /// oracle: `bands[d][i] = A[i + d][i]`.
    struct DiagonalMajorReference {
        n: usize,
        kd: usize,
        l: Vec<Vec<f64>>,
    }

    impl DiagonalMajorReference {
        fn factor(a: &SymmetricBanded) -> Self {
            let n = a.dim();
            let kd = a.bandwidth();
            let mut l: Vec<Vec<f64>> = (0..=kd)
                .map(|d| (0..n - d).map(|i| a.get(i + d, i)).collect())
                .collect();
            for j in 0..n {
                let mut sum = l[0][j];
                let kmin = j.saturating_sub(kd);
                for k in kmin..j {
                    let v = l[j - k][k];
                    sum -= v * v;
                }
                assert!(sum > 0.0, "reference factor needs an SPD matrix");
                let pivot = sum.sqrt();
                l[0][j] = pivot;
                for i in j + 1..(j + kd + 1).min(n) {
                    let mut sum = l[i - j][j];
                    let kmin = i.saturating_sub(kd);
                    for k in kmin..j {
                        if i - k <= kd && j - k <= kd {
                            sum -= l[i - k][k] * l[j - k][k];
                        }
                    }
                    l[i - j][j] = sum / pivot;
                }
            }
            DiagonalMajorReference { n, kd, l }
        }

        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let (n, kd) = (self.n, self.kd);
            let mut y = b.to_vec();
            for j in 0..n {
                y[j] /= self.l[0][j];
                let yj = y[j];
                for i in j + 1..(j + kd + 1).min(n) {
                    y[i] -= self.l[i - j][j] * yj;
                }
            }
            let mut x = y;
            for j in (0..n).rev() {
                let mut sum = x[j];
                for i in j + 1..(j + kd + 1).min(n) {
                    sum -= self.l[i - j][j] * x[i];
                }
                x[j] = sum / self.l[0][j];
            }
            x
        }
    }

    fn random_spd_banded(n: usize, kd: usize, rng: &mut SmallRng) -> SymmetricBanded {
        let mut a = SymmetricBanded::zeros(n, kd);
        for d in 1..=kd {
            for i in 0..n - d {
                a.set(i + d, i, rng.gen_range(-1.0..1.0));
            }
        }
        // Diagonal dominance guarantees positive definiteness.
        for i in 0..n {
            a.set(i, i, 2.0 * (kd as f64 + 1.0) + rng.gen_range(0.0..1.0));
        }
        a
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn poisson_2d_solutions_are_bit_identical_to_the_diagonal_major_reference() {
        let mut rng = SmallRng::seed_from_u64(63);
        for m in [1, 3, 7, 15, 31, 63] {
            let a = SymmetricBanded::poisson_2d(m);
            let b: Vec<f64> = (0..m * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let reference = DiagonalMajorReference::factor(&a);
            let factor = a.cholesky().unwrap();
            for j in 0..a.dim() {
                for i in j..(j + a.bandwidth() + 1).min(a.dim()) {
                    assert_eq!(
                        factor.l[j * (a.bandwidth() + 1) + (i - j)].to_bits(),
                        reference.l[i - j][j].to_bits(),
                        "m={m}: L[{i}][{j}]"
                    );
                }
            }
            assert_bits_eq(&factor.solve(&b), &reference.solve(&b), &format!("m={m}"));
        }
    }

    #[test]
    fn random_bands_are_bit_identical_to_the_diagonal_major_reference() {
        let mut rng = SmallRng::seed_from_u64(22);
        for (n, kd) in [(1, 0), (2, 1), (5, 4), (9, 3), (16, 5), (40, 17), (33, 0)] {
            let a = random_spd_banded(n, kd, &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = DiagonalMajorReference::factor(&a).solve(&b);
            assert_bits_eq(&a.solve(&b).unwrap(), &want, &format!("n={n} kd={kd}"));
        }
    }

    #[test]
    fn non_positive_pivot_is_an_error() {
        let mut a = SymmetricBanded::zeros(3, 1);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        a.set(1, 0, 2.0);
        assert_eq!(a.cholesky(), Err(NotPositiveDefinite));
    }

    #[test]
    fn get_set_respects_symmetry_and_band() {
        let mut a = SymmetricBanded::zeros(5, 2);
        a.set(3, 1, 7.0);
        assert_eq!(a.get(3, 1), 7.0);
        assert_eq!(a.get(1, 3), 7.0);
        assert_eq!(a.get(0, 4), 0.0, "outside band reads zero");
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn set_outside_band_panics() {
        let mut a = SymmetricBanded::zeros(5, 1);
        a.set(0, 4, 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let mut rng = SmallRng::seed_from_u64(20);
        let a = random_spd_banded(9, 3, &mut rng);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let banded = a.matvec(&x);
        let dense = a.to_dense().matvec(&x);
        for (b, d) in banded.iter().zip(&dense) {
            assert!((b - d).abs() < 1e-12);
        }
    }

    #[test]
    fn band_cholesky_matches_dense_cholesky_solve() {
        let mut rng = SmallRng::seed_from_u64(21);
        for (n, kd) in [(4, 1), (8, 2), (16, 5), (25, 5)] {
            let a = random_spd_banded(n, kd, &mut rng);
            let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 1.0).collect();
            let x_band = a.solve(&b).unwrap();
            let x_dense = Cholesky::factor(&a.to_dense()).unwrap().solve(&b);
            for (xb, xd) in x_band.iter().zip(&x_dense) {
                assert!((xb - xd).abs() < 1e-8, "n={n} kd={kd}");
            }
        }
    }

    #[test]
    fn poisson_1d_solution_is_linear_for_constant_rhs_ends() {
        // tridiag(-1,2,-1)·x = e_1 has known solution x_i = (n-i)/(n+1).
        let n = 10;
        let a = SymmetricBanded::poisson_1d(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let x = a.solve(&b).unwrap();
        for (i, xi) in x.iter().enumerate() {
            let expect = (n - i) as f64 / (n + 1) as f64;
            assert!((xi - expect).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn poisson_2d_is_spd_and_solvable() {
        let a = SymmetricBanded::poisson_2d(6);
        assert_eq!(a.dim(), 36);
        assert_eq!(a.bandwidth(), 6);
        let b = vec![1.0; 36];
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
        // Solution of -Δu = 1 with zero boundary is positive inside.
        assert!(x.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn poisson_2d_size_one() {
        let a = SymmetricBanded::poisson_2d(1);
        assert_eq!(a.dim(), 1);
        let x = a.solve(&[2.0]).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Banded Cholesky solves random diagonally-dominant SPD systems.
        #[test]
        fn banded_cholesky_solves(seed in 0u64..500, n in 2usize..20, kd in 1usize..4) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = random_spd_banded(n, kd.min(n - 1), &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b = a.matvec(&x_true);
            let x = a.solve(&b).expect("diagonally dominant is SPD");
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-7);
            }
        }

        /// Band Cholesky is dense Cholesky with the out-of-band terms
        /// skipped. Those terms are exact zeros, so the two solutions may
        /// differ in the sign of a zero and in nothing else.
        #[test]
        fn banded_solve_matches_dense_cholesky_bitwise(
            seed in 0u64..500,
            n in 1usize..=40,
            kd in 0usize..40,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = random_spd_banded(n, kd.min(n - 1), &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let banded = a.solve(&b).expect("diagonally dominant is SPD");
            let dense = Cholesky::factor(&a.to_dense())
                .expect("diagonally dominant is SPD")
                .solve(&b);
            // `+ 0.0` maps -0.0 to 0.0 and changes no other value.
            let bits = |x: &[f64]| x.iter().map(|v| (v + 0.0).to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&banded), bits(&dense));
        }
    }
}
