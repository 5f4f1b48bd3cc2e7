//! The 2D Poisson operator and its multigrid building blocks.
//!
//! Everything works on the scaled 5-point stencil `(4, −1, −1, −1, −1)`
//! with a zero Dirichlet boundary; the right-hand side is assumed
//! pre-multiplied by `h²`, which drops out of the paper's accuracy
//! metric (a ratio of residual RMS values, §6.1.5).

use crate::banded::{BandedCholesky, SymmetricBanded};
use crate::grid2d::Grid2d;
use std::sync::OnceLock;

/// Applies the 5-point stencil: `out = A·u`.
///
/// # Panics
///
/// Panics if the grids have different sizes.
pub fn apply(u: &Grid2d) -> Grid2d {
    let n = u.n();
    let mut out = Grid2d::zeros(n);
    for i in 0..n {
        for j in 0..n {
            let v = 4.0 * u.get(i, j)
                - u.get_bc(i as isize - 1, j as isize)
                - u.get_bc(i as isize + 1, j as isize)
                - u.get_bc(i as isize, j as isize - 1)
                - u.get_bc(i as isize, j as isize + 1);
            out.set(i, j, v);
        }
    }
    out
}

/// Residual `r = b − A·u`.
///
/// # Panics
///
/// Panics if sizes differ.
pub fn residual(u: &Grid2d, b: &Grid2d) -> Grid2d {
    assert_eq!(u.n(), b.n(), "grid sizes must match");
    let au = apply(u);
    let n = u.n();
    let mut r = Grid2d::zeros(n);
    for i in 0..n {
        for j in 0..n {
            r.set(i, j, b.get(i, j) - au.get(i, j));
        }
    }
    r
}

/// One Red-Black SOR sweep with relaxation weight `omega` (updates red
/// points `(i+j) even` first, then black).
///
/// # Panics
///
/// Panics if sizes differ.
pub fn sor_sweep(u: &mut Grid2d, b: &Grid2d, omega: f64) {
    assert_eq!(u.n(), b.n(), "grid sizes must match");
    let n = u.n();
    for color in 0..2usize {
        for i in 0..n {
            for j in 0..n {
                if (i + j) % 2 != color {
                    continue;
                }
                let nb = u.get_bc(i as isize - 1, j as isize)
                    + u.get_bc(i as isize + 1, j as isize)
                    + u.get_bc(i as isize, j as isize - 1)
                    + u.get_bc(i as isize, j as isize + 1);
                let gs = (b.get(i, j) + nb) / 4.0;
                let old = u.get(i, j);
                u.set(i, j, old + omega * (gs - old));
            }
        }
    }
}

/// Full-weighting restriction: an `n`-grid (`n = 2m + 1`) to the
/// `m`-grid, with the standard 1/16·[1 2 1; 2 4 2; 1 2 1] stencil.
///
/// # Panics
///
/// Panics if `n` is not coarsenable (`n < 3` or `n` even).
pub fn restrict(fine: &Grid2d) -> Grid2d {
    let n = fine.n();
    assert!(n >= 3 && n % 2 == 1, "grid of size {n} cannot be coarsened");
    let m = (n - 1) / 2;
    let mut coarse = Grid2d::zeros(m);
    for ci in 0..m {
        for cj in 0..m {
            let fi = (2 * ci + 1) as isize;
            let fj = (2 * cj + 1) as isize;
            let mut acc = 4.0 * fine.get_bc(fi, fj);
            acc += 2.0
                * (fine.get_bc(fi - 1, fj)
                    + fine.get_bc(fi + 1, fj)
                    + fine.get_bc(fi, fj - 1)
                    + fine.get_bc(fi, fj + 1));
            acc += fine.get_bc(fi - 1, fj - 1)
                + fine.get_bc(fi - 1, fj + 1)
                + fine.get_bc(fi + 1, fj - 1)
                + fine.get_bc(fi + 1, fj + 1);
            coarse.set(ci, cj, acc / 16.0);
        }
    }
    coarse
}

/// Bilinear prolongation: an `m`-grid to the `n = 2m + 1` grid.
pub fn prolong(coarse: &Grid2d) -> Grid2d {
    let m = coarse.n();
    let n = 2 * m + 1;
    let mut fine = Grid2d::zeros(n);
    let cv = |i: isize, j: isize| coarse.get_bc(i, j);
    for i in 0..n {
        for j in 0..n {
            // Coarse coordinates: fine point (i, j) sits between coarse
            // points ((i-1)/2, (j-1)/2) and neighbours.
            let v = match (i % 2, j % 2) {
                (1, 1) => cv((i as isize - 1) / 2, (j as isize - 1) / 2),
                (1, 0) => {
                    0.5 * (cv((i as isize - 1) / 2, j as isize / 2 - 1)
                        + cv((i as isize - 1) / 2, j as isize / 2))
                }
                (0, 1) => {
                    0.5 * (cv(i as isize / 2 - 1, (j as isize - 1) / 2)
                        + cv(i as isize / 2, (j as isize - 1) / 2))
                }
                _ => {
                    0.25 * (cv(i as isize / 2 - 1, j as isize / 2 - 1)
                        + cv(i as isize / 2 - 1, j as isize / 2)
                        + cv(i as isize / 2, j as isize / 2 - 1)
                        + cv(i as isize / 2, j as isize / 2))
                }
            };
            fine.set(i, j, v);
        }
    }
    fine
}

/// Adds `delta` into `u` in place (`u += delta`).
///
/// # Panics
///
/// Panics if sizes differ.
pub fn add_correction(u: &mut Grid2d, delta: &Grid2d) {
    assert_eq!(u.n(), delta.n(), "grid sizes must match");
    for (ui, di) in u.as_mut_slice().iter_mut().zip(delta.as_slice()) {
        *ui += di;
    }
}

/// Band Cholesky factors of the stencil, one slot per multigrid level
/// `k` (`n = 2ᵏ − 1`), filled on first use and kept for the life of the
/// process.
static FACTORS: [OnceLock<BandedCholesky>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

fn factor(n: usize) -> BandedCholesky {
    SymmetricBanded::poisson_2d(n)
        .cholesky()
        .expect("the 5-point Poisson stencil is SPD")
}

/// Direct solve `A·u = b` via band Cholesky — the paper's `DPBSV`
/// building block.
///
/// The matrix depends on `n` alone, so each multigrid size
/// (`n = 2ᵏ − 1`) is factored once per process and every later call is
/// two band substitutions. The factor is the one
/// `SymmetricBanded::poisson_2d(n).cholesky()` returns, so answers are
/// bit-identical to factoring per call. The table is shared by every
/// thread (pool workers included: the first caller of a size factors,
/// concurrent callers of that size wait for it) and is never evicted;
/// a size holds `8·n²·(n+1)` bytes (2.0 MB at `n = 63`). Other sizes
/// are factored per call.
///
/// # Panics
///
/// Panics if the (always SPD) stencil factorization fails, which would
/// indicate a bug.
pub fn direct_solve(b: &Grid2d) -> Grid2d {
    let n = b.n();
    let x = if Grid2d::valid_size(n) {
        let level = (n + 1).trailing_zeros() as usize;
        FACTORS[level].get_or_init(|| factor(n)).solve(b.as_slice())
    } else {
        factor(n).solve(b.as_slice())
    };
    Grid2d::from_vec(n, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    #[test]
    fn apply_matches_banded_operator() {
        let mut rng = SmallRng::seed_from_u64(1);
        let u = Grid2d::random_uniform(7, -1.0, 1.0, &mut rng);
        let stencil = apply(&u);
        let banded = SymmetricBanded::poisson_2d(7).matvec(u.as_slice());
        for (a, b) in stencil.as_slice().iter().zip(&banded) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn direct_solve_zeroes_residual() {
        let mut rng = SmallRng::seed_from_u64(2);
        let b = Grid2d::random_uniform(15, -1.0, 1.0, &mut rng);
        let u = direct_solve(&b);
        assert!(residual(&u, &b).max_abs() < 1e-9);
    }

    #[test]
    fn first_use_from_eight_threads_matches_a_fresh_factor_bit_for_bit() {
        // No other test in this crate direct-solves a 31-grid, so all
        // eight threads meet the empty slot.
        let n = 31;
        let level = (n + 1usize).trailing_zeros() as usize;
        assert!(FACTORS[level].get().is_none(), "size {n} already factored");
        let mut rng = SmallRng::seed_from_u64(31);
        let inputs: Vec<Grid2d> = (0..8)
            .map(|_| Grid2d::random_uniform(n, -1.0, 1.0, &mut rng))
            .collect();
        let start = Barrier::new(inputs.len());
        let answers: Vec<Grid2d> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|b| {
                    scope.spawn(|| {
                        start.wait();
                        direct_solve(b)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("solver thread panicked"))
                .collect()
        });
        let fresh = SymmetricBanded::poisson_2d(n).cholesky().unwrap();
        for (b, u) in inputs.iter().zip(&answers) {
            let want = fresh.solve(b.as_slice());
            let got: Vec<u64> = u.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn sizes_outside_the_table_and_size_one_still_solve() {
        // n = 5 is not 2ᵏ − 1 (factored per call); n = 1 has bandwidth 0.
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [5, 1] {
            let b = Grid2d::random_uniform(n, -1.0, 1.0, &mut rng);
            let u = direct_solve(&b);
            assert!(residual(&u, &b).max_abs() < 1e-12, "n={n}");
            let want = SymmetricBanded::poisson_2d(n).solve(b.as_slice()).unwrap();
            assert_eq!(u.as_slice(), &want[..], "n={n}");
        }
    }

    #[test]
    fn sor_reduces_residual_monotonically() {
        let mut rng = SmallRng::seed_from_u64(3);
        let b = Grid2d::random_uniform(15, -1.0, 1.0, &mut rng);
        let mut u = Grid2d::zeros(15);
        let mut last = residual(&u, &b).rms();
        for _ in 0..10 {
            sor_sweep(&mut u, &b, 1.5);
            let r = residual(&u, &b).rms();
            assert!(r < last, "residual must shrink: {r} !< {last}");
            last = r;
        }
    }

    #[test]
    fn gauss_seidel_is_sor_with_unit_weight() {
        // omega = 1 must still converge (plain Gauss-Seidel).
        let mut rng = SmallRng::seed_from_u64(4);
        let b = Grid2d::random_uniform(7, -1.0, 1.0, &mut rng);
        let mut u = Grid2d::zeros(7);
        let before = residual(&u, &b).rms();
        for _ in 0..50 {
            sor_sweep(&mut u, &b, 1.0);
        }
        assert!(residual(&u, &b).rms() < before * 1e-2);
    }

    #[test]
    fn restriction_and_prolongation_shapes() {
        let fine = Grid2d::zeros(15);
        assert_eq!(restrict(&fine).n(), 7);
        let coarse = Grid2d::zeros(7);
        assert_eq!(prolong(&coarse).n(), 15);
    }

    #[test]
    fn prolong_preserves_constants_in_the_interior() {
        // A constant coarse grid prolongs to the same constant away
        // from the boundary (boundary-adjacent points see the zero BC).
        let mut coarse = Grid2d::zeros(7);
        for v in coarse.as_mut_slice() {
            *v = 1.0;
        }
        let fine = prolong(&coarse);
        for i in 2..13 {
            for j in 2..13 {
                assert!((fine.get(i, j) - 1.0).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn transfer_operators_are_adjoint_up_to_scaling() {
        // Full weighting R = (1/4)·Pᵀ: ⟨R·u, v⟩ = (1/4)·⟨u, P·v⟩.
        let mut rng = SmallRng::seed_from_u64(5);
        let u = Grid2d::random_uniform(15, -1.0, 1.0, &mut rng);
        let v = Grid2d::random_uniform(7, -1.0, 1.0, &mut rng);
        let lhs: f64 = restrict(&u)
            .as_slice()
            .iter()
            .zip(v.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = u
            .as_slice()
            .iter()
            .zip(prolong(&v).as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - 0.25 * rhs).abs() < 1e-10,
            "lhs={lhs} rhs/4={}",
            0.25 * rhs
        );
    }
}
