//! 2D vertex-centered grids of interior points.

use rand::rngs::SmallRng;
use rand::Rng;

/// An `n × n` grid of interior values with an implicit zero Dirichlet
/// boundary. Multigrid coarsening requires `n = 2^k − 1`.
///
/// # Examples
///
/// ```
/// use pb_multigrid::Grid2d;
///
/// let mut g = Grid2d::zeros(7);
/// g.set(3, 3, 1.0);
/// assert_eq!(g.get(3, 3), 1.0);
/// assert!(Grid2d::valid_size(7) && !Grid2d::valid_size(8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    n: usize,
    data: Vec<f64>,
}

impl Grid2d {
    /// An all-zero grid with `n` interior points per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "grid must be non-empty");
        Grid2d {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// A grid of `n` interior points per dimension that takes ownership
    /// of `data` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `data.len() != n²`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert!(n > 0, "grid must be non-empty");
        assert_eq!(data.len(), n * n, "data does not fill an {n}-grid");
        Grid2d { n, data }
    }

    /// Whether `n` is a legal multigrid size (`2^k − 1`).
    pub fn valid_size(n: usize) -> bool {
        n > 0 && (n + 1).is_power_of_two()
    }

    /// The next legal multigrid size at or above `n`.
    pub fn round_up_size(n: usize) -> usize {
        let mut s = 1;
        while s < n {
            s = 2 * s + 1;
        }
        s
    }

    /// A grid with entries drawn uniformly from `[lo, hi)`.
    pub fn random_uniform(n: usize, lo: f64, hi: f64, rng: &mut SmallRng) -> Self {
        let mut g = Grid2d::zeros(n);
        for v in &mut g.data {
            *v = rng.gen_range(lo..hi);
        }
        g
    }

    /// Interior points per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw values, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at interior coordinates `(i, j)`, 0-based.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets the value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.n + j] = value;
    }

    /// Value with the zero boundary applied: out-of-range reads give 0.
    #[inline]
    pub fn get_bc(&self, i: isize, j: isize) -> f64 {
        if i < 0 || j < 0 || i as usize >= self.n || j as usize >= self.n {
            0.0
        } else {
            self.get(i as usize, j as usize)
        }
    }

    /// Root-mean-square of the values (the paper's PDE accuracy metrics
    /// are RMS-error ratios).
    pub fn rms(&self) -> f64 {
        (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
    }

    /// Largest absolute value.
    #[cfg(test)]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn size_validation() {
        for n in [1, 3, 7, 15, 31, 63] {
            assert!(Grid2d::valid_size(n), "n={n}");
        }
        for n in [2, 4, 8, 10, 16] {
            assert!(!Grid2d::valid_size(n), "n={n}");
        }
        assert_eq!(Grid2d::round_up_size(1), 1);
        assert_eq!(Grid2d::round_up_size(2), 3);
        assert_eq!(Grid2d::round_up_size(9), 15);
        assert_eq!(Grid2d::round_up_size(15), 15);
    }

    #[test]
    fn from_vec_keeps_row_major_order() {
        let g = Grid2d::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((g.n(), g.get(0, 1), g.get(1, 0)), (2, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_checks_the_length() {
        Grid2d::from_vec(2, vec![0.0; 3]);
    }

    #[test]
    fn boundary_reads_are_zero() {
        let mut g = Grid2d::zeros(3);
        g.set(0, 0, 5.0);
        assert_eq!(g.get_bc(-1, 0), 0.0);
        assert_eq!(g.get_bc(0, 3), 0.0);
        assert_eq!(g.get_bc(0, 0), 5.0);
    }

    #[test]
    fn norms() {
        let mut g = Grid2d::zeros(2);
        g.set(0, 0, 3.0);
        g.set(1, 1, -4.0);
        assert!((g.rms() - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(g.max_abs(), 4.0);
    }

    #[test]
    fn random_fill_within_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Grid2d::random_uniform(7, -2.0, 2.0, &mut rng);
        assert!(g.as_slice().iter().all(|&v| (-2.0..2.0).contains(&v)));
    }
}
