//! The 2D Poisson operator and its multigrid building blocks.
//!
//! Everything works on the scaled 5-point stencil `(4, −1, −1, −1, −1)`
//! with a zero Dirichlet boundary; the right-hand side is assumed
//! pre-multiplied by `h²`, which drops out of the paper's accuracy
//! metric (a ratio of residual RMS values, §6.1.5).

use crate::banded::{BandedCholesky, SymmetricBanded};
use crate::grid::Grid;
use crate::lines::{each_of_colour, each_point, split_line};
use std::sync::OnceLock;

/// Calls `point(idx, (A·u)[idx])` for every point, row by row. An
/// off-grid neighbour reads as a row of zeros or a `0.0` edge, the
/// exact `+0.0` the boundary holds, so the interior needs no boundary
/// tests and every point keeps the neighbour order `(i−1), (i+1),
/// (j−1), (j+1)`.
fn stencil(u: &Grid<2>, mut point: impl FnMut(usize, f64)) {
    let n = u.n();
    let zeros = vec![0.0; n];
    let rows = u.as_slice();
    let row_at = |i: Option<usize>| i.map_or(&zeros[..], |i| &rows[i * n..][..n]);
    for i in 0..n {
        let row = &rows[i * n..][..n];
        let up = row_at(i.checked_sub(1));
        let down = row_at((i + 1 < n).then_some(i + 1));
        each_point(row, |j, left, right| {
            point(i * n + j, 4.0 * row[j] - up[j] - down[j] - left - right);
        });
    }
}

/// Applies the 5-point stencil: `out = A·u`.
#[cfg(test)]
pub fn apply(u: &Grid<2>) -> Grid<2> {
    let mut out = vec![0.0; u.as_slice().len()];
    stencil(u, |idx, au| out[idx] = au);
    Grid::from_vec(u.n(), out)
}

/// Residual `r = b − A·u`, in one pass.
///
/// # Panics
///
/// Panics if sizes differ.
pub fn residual(u: &Grid<2>, b: &Grid<2>) -> Grid<2> {
    assert_eq!(u.n(), b.n(), "grid sizes must match");
    let b = b.as_slice();
    let mut r = vec![0.0; b.len()];
    stencil(u, |idx, au| r[idx] = b[idx] - au);
    Grid::from_vec(u.n(), r)
}

/// One Red-Black SOR sweep with relaxation weight `omega`: red points
/// `(i+j) even`, then black.
///
/// It runs as one pass over the rows: red row `i`, then black row
/// `i − 1`, then the last black row. That gives the two-pass answer:
/// black row `i − 1` reads red rows `i − 2 ..= i`, all final, and red
/// row `i` reads black rows `i − 1 ..= i + 1`, none updated yet.
///
/// # Panics
///
/// Panics if sizes differ.
pub fn sor_sweep(u: &mut Grid<2>, b: &Grid<2>, omega: f64) {
    assert_eq!(u.n(), b.n(), "grid sizes must match");
    let n = u.n();
    let zeros = vec![0.0; n];
    let (u, b) = (u.as_mut_slice(), b.as_slice());
    let mut relax_row = |i: usize, colour: usize| {
        let (above, row, below) = split_line(u, n, i);
        let up = if i > 0 { &above[(i - 1) * n..] } else { &zeros };
        let down = if i + 1 < n { &below[..n] } else { &zeros };
        let b = &b[i * n..][..n];
        each_of_colour(row, (colour + i) % 2, |row, j, left, right| {
            let nb = up[j] + down[j] + left + right;
            let gs = (b[j] + nb) / 4.0;
            let old = row[j];
            row[j] = old + omega * (gs - old);
        });
    };
    for i in 0..n {
        relax_row(i, 0);
        if i > 0 {
            relax_row(i - 1, 1);
        }
    }
    relax_row(n - 1, 1);
}

/// Full-weighting restriction: an `n`-grid (`n = 2m + 1`) to the
/// `m`-grid, with the standard 1/16·[1 2 1; 2 4 2; 1 2 1] stencil. Each
/// coarse point sits on an odd fine point, so the stencil never leaves
/// the grid.
///
/// # Panics
///
/// Panics if `n` is not coarsenable (`n < 3` or `n` even).
pub fn restrict(fine: &Grid<2>) -> Grid<2> {
    let n = fine.n();
    assert!(n >= 3 && n % 2 == 1, "grid of size {n} cannot be coarsened");
    let m = (n - 1) / 2;
    let f = fine.as_slice();
    let mut coarse = Vec::with_capacity(m * m);
    for ci in 0..m {
        let up = &f[2 * ci * n..][..n];
        let mid = &f[(2 * ci + 1) * n..][..n];
        let down = &f[(2 * ci + 2) * n..][..n];
        for cj in 0..m {
            let c = 2 * cj + 1;
            let mut acc = 4.0 * mid[c];
            acc += 2.0 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
            acc += up[c - 1] + up[c + 1] + down[c - 1] + down[c + 1];
            coarse.push(acc / 16.0);
        }
    }
    Grid::from_vec(m, coarse)
}

/// Bilinear prolongation: an `m`-grid to the `n = 2m + 1` grid.
pub fn prolong(coarse: &Grid<2>) -> Grid<2> {
    let m = coarse.n();
    let n = 2 * m + 1;
    // The coarse grid inside a ring of the boundary's zeros: fine point
    // `(i, j)` reads padded rows `i/2` and `i/2 + 1`, columns likewise,
    // with no boundary tests.
    let w = m + 2;
    let mut padded = vec![0.0; w * w];
    for (ci, row) in coarse.as_slice().chunks_exact(m).enumerate() {
        padded[(ci + 1) * w + 1..][..m].copy_from_slice(row);
    }
    let mut fine = vec![0.0; n * n];
    for (i, out) in fine.chunks_exact_mut(n).enumerate() {
        let lo = &padded[i / 2 * w..][..w];
        let hi = &padded[(i / 2 + 1) * w..][..w];
        for (j, v) in out.iter_mut().enumerate() {
            let q = j / 2;
            *v = match (i % 2, j % 2) {
                (1, 1) => hi[q + 1],
                (1, 0) => 0.5 * (hi[q] + hi[q + 1]),
                (0, 1) => 0.5 * (lo[q + 1] + hi[q + 1]),
                _ => 0.25 * (lo[q] + lo[q + 1] + hi[q] + hi[q + 1]),
            };
        }
    }
    Grid::from_vec(n, fine)
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
pub fn direct_solve(b: &Grid<2>) -> Grid<2> {
    let n = b.n();
    let x = if Grid::<2>::valid_size(n) {
        let level = (n + 1).trailing_zeros() as usize;
        FACTORS[level].get_or_init(|| factor(n)).solve(b.as_slice())
    } else {
        factor(n).solve(b.as_slice())
    };
    Grid::from_vec(n, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::assert_bits_eq;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    /// The stencils as they were before their interior loops, reading
    /// every neighbour through `get_bc`: the bit-identity oracles.
    mod reference {
        use super::Grid;

        pub fn apply(u: &Grid<2>) -> Grid<2> {
            let n = u.n();
            let mut out = Grid::<2>::zeros(n);
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

        pub fn residual(u: &Grid<2>, b: &Grid<2>) -> Grid<2> {
            let au = apply(u);
            let n = u.n();
            let mut r = Grid::<2>::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    r.set(i, j, b.get(i, j) - au.get(i, j));
                }
            }
            r
        }

        pub fn sor_sweep(u: &mut Grid<2>, b: &Grid<2>, omega: f64) {
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

        pub fn restrict(fine: &Grid<2>) -> Grid<2> {
            let m = (fine.n() - 1) / 2;
            let mut coarse = Grid::<2>::zeros(m);
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

        pub fn prolong(coarse: &Grid<2>) -> Grid<2> {
            let m = coarse.n();
            let n = 2 * m + 1;
            let mut fine = Grid::<2>::zeros(n);
            let cv = |i: isize, j: isize| coarse.get_bc(i, j);
            for i in 0..n {
                for j in 0..n {
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
    }

    /// Every size up to 17 (both parities, so both colours start every
    /// row), then the ledger's multigrid sizes.
    const SIZES: [usize; 19] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 63,
    ];

    #[test]
    fn stencils_are_bit_identical_to_the_get_bc_versions() {
        let mut rng = SmallRng::seed_from_u64(17);
        for n in SIZES {
            let b = Grid::random_uniform(n, -1.0, 1.0, &mut rng);
            let mut u = Grid::random_uniform(n, -1.0, 1.0, &mut rng);
            let mut want = u.clone();
            for (sweep, omega) in [1.0, 1.3, 1.9, 0.8].into_iter().enumerate() {
                let what = format!("n={n} sweep {sweep}");
                assert_bits_eq(
                    apply(&u).as_slice(),
                    reference::apply(&want).as_slice(),
                    &format!("apply {what}"),
                );
                assert_bits_eq(
                    residual(&u, &b).as_slice(),
                    reference::residual(&want, &b).as_slice(),
                    &format!("residual {what}"),
                );
                sor_sweep(&mut u, &b, omega);
                reference::sor_sweep(&mut want, &b, omega);
                assert_bits_eq(u.as_slice(), want.as_slice(), &format!("sor {what}"));
            }
            if n >= 3 && n % 2 == 1 {
                assert_bits_eq(
                    restrict(&u).as_slice(),
                    reference::restrict(&u).as_slice(),
                    &format!("restrict n={n}"),
                );
            }
            assert_bits_eq(
                prolong(&u).as_slice(),
                reference::prolong(&u).as_slice(),
                &format!("prolong m={n}"),
            );
        }
    }

    #[test]
    fn apply_matches_banded_operator() {
        let mut rng = SmallRng::seed_from_u64(1);
        let u = Grid::random_uniform(7, -1.0, 1.0, &mut rng);
        let stencil = apply(&u);
        let banded = SymmetricBanded::poisson_2d(7).matvec(u.as_slice());
        for (a, b) in stencil.as_slice().iter().zip(&banded) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn direct_solve_zeroes_residual() {
        let mut rng = SmallRng::seed_from_u64(2);
        let b = Grid::random_uniform(15, -1.0, 1.0, &mut rng);
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
        let inputs: Vec<Grid<2>> = (0..8)
            .map(|_| Grid::random_uniform(n, -1.0, 1.0, &mut rng))
            .collect();
        let start = Barrier::new(inputs.len());
        let answers: Vec<Grid<2>> = std::thread::scope(|scope| {
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
            let b = Grid::random_uniform(n, -1.0, 1.0, &mut rng);
            let u = direct_solve(&b);
            assert!(residual(&u, &b).max_abs() < 1e-12, "n={n}");
            let want = SymmetricBanded::poisson_2d(n).solve(b.as_slice()).unwrap();
            assert_eq!(u.as_slice(), &want[..], "n={n}");
        }
    }

    #[test]
    fn sor_reduces_residual_monotonically() {
        let mut rng = SmallRng::seed_from_u64(3);
        let b = Grid::random_uniform(15, -1.0, 1.0, &mut rng);
        let mut u = Grid::<2>::zeros(15);
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
        let b = Grid::random_uniform(7, -1.0, 1.0, &mut rng);
        let mut u = Grid::<2>::zeros(7);
        let before = residual(&u, &b).rms();
        for _ in 0..50 {
            sor_sweep(&mut u, &b, 1.0);
        }
        assert!(residual(&u, &b).rms() < before * 1e-2);
    }

    #[test]
    fn restriction_and_prolongation_shapes() {
        let fine = Grid::zeros(15);
        assert_eq!(restrict(&fine).n(), 7);
        let coarse = Grid::zeros(7);
        assert_eq!(prolong(&coarse).n(), 15);
    }

    #[test]
    fn prolong_preserves_constants_in_the_interior() {
        // A constant coarse grid prolongs to the same constant away
        // from the boundary (boundary-adjacent points see the zero BC).
        let mut coarse = Grid::<2>::zeros(7);
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
        let u = Grid::random_uniform(15, -1.0, 1.0, &mut rng);
        let v = Grid::random_uniform(7, -1.0, 1.0, &mut rng);
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
