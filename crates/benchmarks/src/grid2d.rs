//! Coordinate access to 2-D grids (row-major storage).

use crate::grid::Grid;

impl Grid<2> {
    /// Value at interior coordinates `(i, j)`, 0-based.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.as_slice()[i * self.n() + j]
    }

    /// Sets the value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let n = self.n();
        self.as_mut_slice()[i * n + j] = value;
    }

    /// Value with the zero boundary applied: out-of-range reads give 0.
    #[cfg(test)]
    pub fn get_bc(&self, i: isize, j: isize) -> f64 {
        let n = self.n() as isize;
        if i < 0 || j < 0 || i >= n || j >= n {
            0.0
        } else {
            self.get(i as usize, j as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn size_validation() {
        for n in [1, 3, 7, 15, 31, 63] {
            assert!(Grid::<2>::valid_size(n), "n={n}");
        }
        for n in [2, 4, 8, 10, 16] {
            assert!(!Grid::<2>::valid_size(n), "n={n}");
        }
        assert_eq!(Grid::<2>::round_up_size(1), 1);
        assert_eq!(Grid::<2>::round_up_size(2), 3);
        assert_eq!(Grid::<2>::round_up_size(9), 15);
        assert_eq!(Grid::<2>::round_up_size(15), 15);
    }

    #[test]
    fn from_vec_keeps_row_major_order() {
        let g = Grid::<2>::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((g.n(), g.get(0, 1), g.get(1, 0)), (2, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_checks_the_length() {
        // Eight values fill a 2-grid in 3-D, not in 2-D.
        Grid::<2>::from_vec(2, vec![0.0; 8]);
    }

    #[test]
    fn boundary_reads_are_zero() {
        let mut g = Grid::<2>::zeros(3);
        g.set(0, 0, 5.0);
        assert_eq!(g.get_bc(-1, 0), 0.0);
        assert_eq!(g.get_bc(0, 3), 0.0);
        assert_eq!(g.get_bc(0, 0), 5.0);
    }

    #[test]
    fn random_fill_within_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Grid::<2>::random_uniform(7, -2.0, 2.0, &mut rng);
        assert!(g.as_slice().iter().all(|&v| (-2.0..2.0).contains(&v)));
    }
}
