//! 3D vertex-centered grids of interior points.

use rand::rngs::SmallRng;
use rand::Rng;

/// An `n × n × n` grid of interior values with an implicit zero
/// Dirichlet boundary. Multigrid coarsening requires `n = 2^k − 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3d {
    n: usize,
    data: Vec<f64>,
}

impl Grid3d {
    /// An all-zero grid with `n` interior points per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "grid must be non-empty");
        Grid3d {
            n,
            data: vec![0.0; n * n * n],
        }
    }

    /// A grid filled with `value`.
    #[cfg(test)]
    pub fn constant(n: usize, value: f64) -> Self {
        let mut g = Grid3d::zeros(n);
        g.data.fill(value);
        g
    }

    /// A grid of `n` interior points per dimension that takes ownership
    /// of `data` (in [`Grid3d::idx`] order).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `data.len() != n³`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert!(n > 0, "grid must be non-empty");
        assert_eq!(data.len(), n * n * n, "data does not fill an {n}-grid");
        Grid3d { n, data }
    }

    /// Whether `n` is a legal multigrid size (`2^k − 1`).
    #[cfg(test)]
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
        let mut g = Grid3d::zeros(n);
        for v in &mut g.data {
            *v = rng.gen_range(lo..hi);
        }
        g
    }

    /// Interior points per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of points (`n³`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no points (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw values (x-major, then y, then z contiguous).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Linear index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    /// Value at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Sets the value at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, value: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = value;
    }

    /// Value with the zero boundary applied.
    #[inline]
    pub fn get_bc(&self, i: isize, j: isize, k: isize) -> f64 {
        let n = self.n as isize;
        if i < 0 || j < 0 || k < 0 || i >= n || j >= n || k >= n {
            0.0
        } else {
            self.get(i as usize, j as usize, k as usize)
        }
    }

    /// Clamped read (for coefficient grids, which extend by nearest
    /// value rather than by zero).
    #[inline]
    pub fn get_clamped(&self, i: isize, j: isize, k: isize) -> f64 {
        let n = self.n as isize;
        let c = |x: isize| x.clamp(0, n - 1) as usize;
        self.get(c(i), c(j), c(k))
    }

    /// Root-mean-square of the values.
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
    fn indexing_round_trips() {
        let mut g = Grid3d::zeros(5);
        g.set(1, 2, 3, 9.0);
        assert_eq!(g.get(1, 2, 3), 9.0);
        assert_eq!(g.get_bc(1, 2, 3), 9.0);
        assert_eq!(g.get_bc(-1, 2, 3), 0.0);
        assert_eq!(g.get_bc(1, 2, 5), 0.0);
        assert_eq!(g.len(), 125);
    }

    #[test]
    fn clamped_reads_extend_edges() {
        let mut g = Grid3d::zeros(3);
        g.set(0, 1, 1, 4.0);
        assert_eq!(g.get_clamped(-5, 1, 1), 4.0);
        g.set(2, 2, 2, 7.0);
        assert_eq!(g.get_clamped(9, 9, 9), 7.0);
    }

    #[test]
    fn constant_and_random_fill() {
        let c = Grid3d::constant(3, 2.5);
        assert!(c.as_slice().iter().all(|&v| v == 2.5));
        let mut rng = SmallRng::seed_from_u64(1);
        let r = Grid3d::random_uniform(3, 0.5, 1.0, &mut rng);
        assert!(r.as_slice().iter().all(|&v| (0.5..1.0).contains(&v)));
    }

    #[test]
    fn valid_sizes() {
        assert!(Grid3d::valid_size(7));
        assert!(!Grid3d::valid_size(8));
        assert_eq!(Grid3d::round_up_size(1), 1);
        assert_eq!(Grid3d::round_up_size(4), 7);
        assert_eq!(Grid3d::round_up_size(7), 7);
    }

    #[test]
    fn from_vec_keeps_idx_order() {
        let g = Grid3d::from_vec(2, (0..8).map(f64::from).collect());
        assert_eq!((g.n(), g.get(0, 1, 1), g.get(1, 0, 0)), (2, 3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_checks_the_length() {
        Grid3d::from_vec(2, vec![0.0; 7]);
    }
}
