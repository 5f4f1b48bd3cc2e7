//! Vertex-centered grids of interior points, in two and three
//! dimensions: the storage and the dimension-free operations. The
//! coordinate accessors live in `grid2d` and `grid3d`.

use rand::rngs::SmallRng;
use rand::Rng;

/// An `n^D` grid of interior values with an implicit zero Dirichlet
/// boundary. Multigrid coarsening requires `n = 2^k − 1`.
///
/// Values are stored with the last coordinate contiguous: row-major in
/// 2-D, `k`-lines of [`Grid::idx`] in 3-D.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<const D: usize> {
    n: usize,
    data: Vec<f64>,
}

impl<const D: usize> Grid<D> {
    /// An all-zero grid with `n` interior points per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "grid must be non-empty");
        Grid {
            n,
            data: vec![0.0; n.pow(D as u32)],
        }
    }

    /// A grid of `n` interior points per dimension that takes ownership
    /// of `data`, in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `data.len() != n^D`.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert!(n > 0, "grid must be non-empty");
        assert_eq!(
            data.len(),
            n.pow(D as u32),
            "data does not fill an {n}-grid"
        );
        Grid { n, data }
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
        let mut g = Self::zeros(n);
        for v in &mut g.data {
            *v = rng.gen_range(lo..hi);
        }
        g
    }

    /// A grid filled with `value`.
    #[cfg(test)]
    pub fn constant(n: usize, value: f64) -> Self {
        let mut g = Self::zeros(n);
        g.data.fill(value);
        g
    }

    /// Interior points per dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw values, in storage order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Root-mean-square of the values (the paper's PDE accuracy metrics
    /// are RMS-error ratios).
    pub fn rms(&self) -> f64 {
        (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
    }

    /// Adds `delta` into the grid in place (`self += delta`).
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn add_correction(&mut self, delta: &Self) {
        assert_eq!(self.n, delta.n, "grid sizes must match");
        for (v, d) in self.data.iter_mut().zip(&delta.data) {
            *v += d;
        }
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

    #[test]
    fn norms_and_corrections() {
        let mut g = Grid::<2>::zeros(2);
        g.set(0, 0, 3.0);
        g.set(1, 1, -4.0);
        assert!((g.rms() - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(g.max_abs(), 4.0);
        g.add_correction(&Grid::constant(2, 1.0));
        assert_eq!(g.as_slice(), [4.0, 1.0, 1.0, -3.0]);
    }
}
