//! Coordinate access to 3-D grids (`k`-lines contiguous).

use crate::grid::Grid;

impl Grid<3> {
    /// Linear index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        let n = self.n();
        (i * n + j) * n + k
    }

    /// Value at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.as_slice()[self.idx(i, j, k)]
    }

    /// Sets the value at `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, value: f64) {
        let idx = self.idx(i, j, k);
        self.as_mut_slice()[idx] = value;
    }

    /// Value with the zero boundary applied.
    #[cfg(test)]
    pub fn get_bc(&self, i: isize, j: isize, k: isize) -> f64 {
        let n = self.n() as isize;
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
        let n = self.n() as isize;
        let c = |x: isize| x.clamp(0, n - 1) as usize;
        self.get(c(i), c(j), c(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn indexing_round_trips() {
        let mut g = Grid::<3>::zeros(5);
        g.set(1, 2, 3, 9.0);
        assert_eq!(g.get(1, 2, 3), 9.0);
        assert_eq!(g.get_bc(1, 2, 3), 9.0);
        assert_eq!(g.get_bc(-1, 2, 3), 0.0);
        assert_eq!(g.get_bc(1, 2, 5), 0.0);
        assert_eq!(g.as_slice().len(), 125);
    }

    #[test]
    fn clamped_reads_extend_edges() {
        let mut g = Grid::<3>::zeros(3);
        g.set(0, 1, 1, 4.0);
        assert_eq!(g.get_clamped(-5, 1, 1), 4.0);
        g.set(2, 2, 2, 7.0);
        assert_eq!(g.get_clamped(9, 9, 9), 7.0);
    }

    #[test]
    fn constant_and_random_fill() {
        let c = Grid::<3>::constant(3, 2.5);
        assert!(c.as_slice().iter().all(|&v| v == 2.5));
        let mut rng = SmallRng::seed_from_u64(1);
        let r = Grid::<3>::random_uniform(3, 0.5, 1.0, &mut rng);
        assert!(r.as_slice().iter().all(|&v| (0.5..1.0).contains(&v)));
    }

    #[test]
    fn valid_sizes() {
        assert!(Grid::<3>::valid_size(7));
        assert!(!Grid::<3>::valid_size(8));
        assert_eq!(Grid::<3>::round_up_size(1), 1);
        assert_eq!(Grid::<3>::round_up_size(4), 7);
        assert_eq!(Grid::<3>::round_up_size(7), 7);
    }

    #[test]
    fn from_vec_keeps_idx_order() {
        let g = Grid::<3>::from_vec(2, (0..8).map(f64::from).collect());
        assert_eq!((g.n(), g.get(0, 1, 1), g.get(1, 0, 0)), (2, 3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_checks_the_length() {
        Grid::<3>::from_vec(2, vec![0.0; 7]);
    }
}
