//! The 3D variable-coefficient Helmholtz operator (§6.1.3).
//!
//! Discretizes `α·a·φ − β·∇·(b·∇φ) = f` on a vertex-centered grid with
//! zero Dirichlet boundary, coefficients `a`, `b` drawn from
//! `U(0.5, 1)` "to ensure the system is positive-definite" as in the
//! paper. Face coefficients are arithmetic averages of the adjacent
//! point values. The three solver building blocks the tuned benchmark
//! chooses between — Red-Black SOR, recursion to a coarsened problem,
//! and a direct solve — all live here. The direct solve is a band
//! Cholesky: the 7-point operator on `n³` unknowns has bandwidth `n²`,
//! so it costs `O(n³·(n²)²) = O(n⁷)`, not the `O(n⁹)` of factoring the
//! same matrix densely, and a problem factors it once.

use crate::banded::{BandedCholesky, SymmetricBanded};
use crate::grid::Grid;
use crate::lines::{each_of_colour, each_point, split_line};
use rand::rngs::SmallRng;
use std::sync::OnceLock;

/// The six axis directions used for face averaging.
const DIRS: [(isize, isize, isize); 6] = [
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
];

/// The operator's row at one point: its diagonal `α·a + Σ w`, and the
/// six face weights `w = (β/h²)·b_face` in `DIRS` order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Weights {
    diag: f64,
    face: [f64; 6],
}

/// One discretized variable-coefficient Helmholtz problem (operator
/// only; the right-hand side travels separately).
///
/// The fields are private so the per-point [`Weights`], built with the
/// problem, and the band factor, built by its first direct solve,
/// always describe its coefficients. Both are derived state: equality
/// compares the coefficients and ignores whether the factor is built
/// yet.
#[derive(Debug, Clone)]
pub struct HelmholtzProblem {
    /// Zeroth-order coefficient weight.
    alpha: f64,
    /// Diffusion weight.
    beta: f64,
    /// Point coefficient field `a`.
    a: Grid<3>,
    /// Diffusion coefficient field `b`.
    b: Grid<3>,
    /// Mesh spacing (doubles on each coarsening).
    h: f64,
    /// The operator's rows, in [`Grid::idx`] order.
    weights: Vec<Weights>,
    /// The operator's band Cholesky factor, built by the first
    /// [`HelmholtzProblem::direct_solve`] and kept for every later one.
    factor: OnceLock<BandedCholesky>,
}

impl PartialEq for HelmholtzProblem {
    fn eq(&self, other: &Self) -> bool {
        (self.alpha, self.beta, self.h) == (other.alpha, other.beta, other.h)
            && self.a == other.a
            && self.b == other.b
            && self.weights == other.weights
    }
}

impl HelmholtzProblem {
    /// A random problem of size `n` with `a, b ~ U(0.5, 1)` on the unit
    /// cube (`h = 1/(n+1)`), so the diffusion term dominates and the
    /// multigrid hierarchy genuinely matters — as in the paper's
    /// benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random(n: usize, alpha: f64, beta: f64, rng: &mut SmallRng) -> Self {
        let a = Grid::random_uniform(n, 0.5, 1.0, rng);
        let b = Grid::random_uniform(n, 0.5, 1.0, rng);
        Self::new(alpha, beta, a, b, 1.0 / (n as f64 + 1.0))
    }

    /// The problem with these coefficients, its operator rows computed
    /// once: a face coefficient is the average of the two points' `b`,
    /// with clamped reads extending the field past the boundary.
    fn new(alpha: f64, beta: f64, a: Grid<3>, b: Grid<3>, h: f64) -> Self {
        let n = a.n();
        let inv_h2 = 1.0 / (h * h);
        let mut weights = Vec::with_capacity(a.as_slice().len());
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let here = b.get(i, j, k);
                    let mut row = Weights {
                        diag: alpha * a.get(i, j, k),
                        face: [0.0; 6],
                    };
                    for (w, d) in row.face.iter_mut().zip(DIRS) {
                        let there =
                            b.get_clamped(i as isize + d.0, j as isize + d.1, k as isize + d.2);
                        *w = beta * inv_h2 * (0.5 * (here + there));
                        row.diag += *w;
                    }
                    weights.push(row);
                }
            }
        }
        HelmholtzProblem {
            alpha,
            beta,
            a,
            b,
            h,
            weights,
            factor: OnceLock::new(),
        }
    }

    /// Grid size per dimension.
    pub fn n(&self) -> usize {
        self.a.n()
    }

    /// The point coefficient field `a`.
    #[cfg(test)]
    pub fn a(&self) -> &Grid<3> {
        &self.a
    }

    /// Calls `point(idx, (A·φ)[idx])` for every point, `k`-line by
    /// `k`-line. An off-grid neighbour reads as a line of zeros or a
    /// `0.0` end, the exact `+0.0` the boundary holds, so the interior
    /// needs no boundary tests and each point sums its faces in `DIRS`
    /// order.
    fn stencil(&self, phi: &Grid<3>, mut point: impl FnMut(usize, f64)) {
        let n = self.n();
        assert_eq!(phi.n(), n, "grid sizes must match");
        let zeros = vec![0.0; n];
        let p = phi.as_slice();
        for i in 0..n {
            for j in 0..n {
                let l = i * n + j;
                let line = &p[l * n..][..n];
                let [xm, xp, ym, yp] = across(&p[..l * n], &p[(l + 1) * n..], i, j, n, &zeros);
                let a = &self.a.as_slice()[l * n..][..n];
                let w = &self.weights[l * n..][..n];
                each_point(line, |k, left, right| {
                    let (w, here) = (&w[k].face, line[k]);
                    let mut v = self.alpha * a[k] * here;
                    for (wd, nbr) in w.iter().zip([xm[k], xp[k], ym[k], yp[k], left, right]) {
                        v += wd * (here - nbr);
                    }
                    point(l * n + k, v);
                });
            }
        }
    }

    /// Applies the operator: `out = A·φ`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` has a different size.
    #[cfg(test)]
    pub fn apply(&self, phi: &Grid<3>) -> Grid<3> {
        let mut out = vec![0.0; phi.as_slice().len()];
        self.stencil(phi, |idx, v| out[idx] = v);
        Grid::from_vec(phi.n(), out)
    }

    /// Residual `r = f − A·φ`, in one pass.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn residual(&self, phi: &Grid<3>, f: &Grid<3>) -> Grid<3> {
        assert_eq!(phi.n(), f.n(), "grid sizes must match");
        let f = f.as_slice();
        let mut r = vec![0.0; f.len()];
        self.stencil(phi, |idx, v| r[idx] = f[idx] - v);
        Grid::from_vec(phi.n(), r)
    }

    /// One Red-Black SOR sweep (red points `(i+j+k)` even first), each
    /// colour visiting only its own points.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn sor_sweep(&self, phi: &mut Grid<3>, f: &Grid<3>, omega: f64) {
        let n = self.n();
        assert_eq!(phi.n(), n, "grid sizes must match");
        assert_eq!(f.n(), n, "grid sizes must match");
        let zeros = vec![0.0; n];
        let (p, f) = (phi.as_mut_slice(), f.as_slice());
        for colour in 0..2 {
            for i in 0..n {
                for j in 0..n {
                    let l = i * n + j;
                    let (before, line, after) = split_line(p, n, l);
                    let [xm, xp, ym, yp] = across(before, after, i, j, n, &zeros);
                    let f = &f[l * n..][..n];
                    let w = &self.weights[l * n..][..n];
                    each_of_colour(line, (colour + i + j) % 2, |line, k, left, right| {
                        let w = &w[k];
                        let mut offdiag = 0.0;
                        for (wd, nbr) in
                            w.face.iter().zip([xm[k], xp[k], ym[k], yp[k], left, right])
                        {
                            offdiag += wd * nbr;
                        }
                        let gs = (f[k] + offdiag) / w.diag;
                        let old = line[k];
                        line[k] = old + omega * (gs - old);
                    });
                }
            }
        }
    }

    /// The coarsened problem: size `(n−1)/2`, doubled mesh spacing,
    /// coefficients sampled at co-located fine points (adequate for the
    /// smooth `U(0.5, 1)` fields of the benchmark).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n` is even.
    pub fn coarsen(&self) -> HelmholtzProblem {
        let n = self.n();
        assert!(n >= 3 && n % 2 == 1, "size {n} cannot be coarsened");
        let m = (n - 1) / 2;
        let sample = |g: &Grid<3>| {
            let mut c = Grid::<3>::zeros(m);
            for i in 0..m {
                for j in 0..m {
                    for k in 0..m {
                        c.set(i, j, k, g.get(2 * i + 1, 2 * j + 1, 2 * k + 1));
                    }
                }
            }
            c
        };
        Self::new(
            self.alpha,
            self.beta,
            sample(&self.a),
            sample(&self.b),
            2.0 * self.h,
        )
    }

    /// Direct solve by band Cholesky (the "ideal direct solver" for
    /// small grids): the operator is written straight into a band of
    /// width `n²` — each point's diagonal and its couplings to the next
    /// point along each axis — and factored there, `O(n⁷)` in the
    /// per-dimension size against `O(n⁹)` for a dense factorization.
    /// Entries outside the band are exact zeros, so the answer is the
    /// dense factorization's bit for bit. The first call on a problem
    /// assembles and factors the band; every call then does the two
    /// band substitutions, `O(n⁵)`. Still only worth it at the bottom
    /// of the recursion.
    ///
    /// # Panics
    ///
    /// Panics if the assembled operator is not SPD, which would
    /// indicate a discretization bug.
    pub fn direct_solve(&self, f: &Grid<3>) -> Grid<3> {
        let n = self.n();
        assert_eq!(f.n(), n, "grid sizes must match");
        let factor = self.factor.get_or_init(|| {
            self.band()
                .cholesky()
                .expect("the Helmholtz operator is SPD for positive coefficients")
        });
        Grid::from_vec(n, factor.solve(f.as_slice()))
    }

    /// The operator in band storage: each row's diagonal, and its
    /// couplings to the next point along each axis (the lower triangle
    /// in [`Grid::idx`] order).
    fn band(&self) -> SymmetricBanded {
        let n = self.n();
        // A 1-grid has no couplings, and a band must be narrower than
        // the matrix.
        let bandwidth = if n == 1 { 0 } else { n * n };
        let mut band = SymmetricBanded::zeros(n * n * n, bandwidth);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let row = self.a.idx(i, j, k);
                    let w = &self.weights[row];
                    band.set(row, row, w.diag);
                    // Couplings to the next point along each axis (the
                    // lower triangle in `idx` order): `DIRS` 1, 3 and 5.
                    for (here, d, stride) in [(i, 1, n * n), (j, 3, n), (k, 5, 1)] {
                        if here + 1 < n {
                            band.set(row + stride, row, -w.face[d]);
                        }
                    }
                }
            }
        }
        band
    }
}

/// The lines `(i−1, j)`, `(i+1, j)`, `(i, j−1)` and `(i, j+1)` of an
/// `n`-grid, the first four of `DIRS`, given the values before and
/// after line `l = i·n + j`; an off-grid line reads as `zeros`.
#[inline(always)]
fn across<'a>(
    before: &'a [f64],
    after: &'a [f64],
    i: usize,
    j: usize,
    n: usize,
    zeros: &'a [f64],
) -> [&'a [f64]; 4] {
    let l = i * n + j;
    let line = |data: &'a [f64], at: Option<usize>| at.map_or(zeros, |at| &data[at * n..][..n]);
    [
        line(before, (i > 0).then(|| l - n)),
        line(after, (i + 1 < n).then_some(n - 1)),
        line(before, (j > 0).then(|| l - 1)),
        line(after, (j + 1 < n).then_some(0)),
    ]
}

/// 27-point full-weighting restriction of a residual grid. Each coarse
/// point sits on an odd fine point, so the stencil never leaves the
/// grid.
///
/// # Panics
///
/// Panics if the size cannot be coarsened.
pub fn restrict(fine: &Grid<3>) -> Grid<3> {
    let n = fine.n();
    assert!(n >= 3 && n % 2 == 1, "size {n} cannot be coarsened");
    let m = (n - 1) / 2;
    let f = fine.as_slice();
    let mut coarse = Vec::with_capacity(m * m * m);
    for ci in 0..m {
        for cj in 0..m {
            for ck in 0..m {
                // The corner of the 3×3×3 block around fine point
                // `(2ci+1, 2cj+1, 2ck+1)`.
                let corner = fine.idx(2 * ci, 2 * cj, 2 * ck);
                let mut acc = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        for dk in 0..3 {
                            let w = (1 + di % 2) * (1 + dj % 2) * (1 + dk % 2);
                            acc += w as f64 * f[corner + (di * n + dj) * n + dk];
                        }
                    }
                }
                coarse.push(acc / 64.0);
            }
        }
    }
    Grid::from_vec(m, coarse)
}

/// The padded coarse points (and their weights) that fine index `x`
/// interpolates from along one axis, as a fixed pair plus how many of
/// it are in use: an odd index sits on one coarse point, an even index
/// halfway between two.
fn axis_stencil(x: usize) -> ([(usize, f64); 2], usize) {
    if x % 2 == 1 {
        ([(x.div_ceil(2), 1.0), (0, 0.0)], 1)
    } else {
        ([(x / 2, 0.5), (x / 2 + 1, 0.5)], 2)
    }
}

/// Trilinear prolongation from an `m`-grid to the `2m + 1` grid.
pub fn prolong(coarse: &Grid<3>) -> Grid<3> {
    let m = coarse.n();
    let n = 2 * m + 1;
    // The coarse grid inside a shell of the boundary's zeros (coarse
    // index `c` is padded index `c + 1`), so no read needs a boundary
    // test.
    let w = m + 2;
    let mut padded = vec![0.0; w * w * w];
    for (l, line) in coarse.as_slice().chunks_exact(m).enumerate() {
        let (ci, cj) = (l / m, l % m);
        padded[((ci + 1) * w + cj + 1) * w + 1..][..m].copy_from_slice(line);
    }
    let axes: Vec<_> = (0..n).map(axis_stencil).collect();
    let mut fine = Vec::with_capacity(n * n * n);
    for (si, li) in &axes {
        for (sj, lj) in &axes {
            for (sk, lk) in &axes {
                let mut v = 0.0;
                for &(ci, wi) in &si[..*li] {
                    for &(cj, wj) in &sj[..*lj] {
                        for &(ck, wk) in &sk[..*lk] {
                            v += wi * wj * wk * padded[(ci * w + cj) * w + ck];
                        }
                    }
                }
                fine.push(v);
            }
        }
    }
    Grid::from_vec(n, fine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::matrix::Matrix;
    use crate::test_inputs::assert_bits_eq;
    use rand::SeedableRng;

    fn problem(n: usize, seed: u64) -> HelmholtzProblem {
        let mut rng = SmallRng::seed_from_u64(seed);
        HelmholtzProblem::random(n, 1.0, 1.0, &mut rng)
    }

    /// The operator as a dense matrix, assembled by applying it to unit
    /// vectors.
    fn assemble_dense(p: &HelmholtzProblem) -> Matrix {
        let size = p.n().pow(3);
        let mut dense = Matrix::zeros(size, size);
        let mut e = Grid::<3>::zeros(p.n());
        for col in 0..size {
            e.as_mut_slice()[col] = 1.0;
            let ae = p.apply(&e);
            for (row, &v) in ae.as_slice().iter().enumerate() {
                dense[(row, col)] = v;
            }
            e.as_mut_slice()[col] = 0.0;
        }
        dense
    }

    /// `direct_solve` as it was before the band assembly — dense
    /// assemble-and-factor — kept as the bit-identity oracle.
    fn dense_direct_solve(p: &HelmholtzProblem, f: &Grid<3>) -> Vec<f64> {
        Cholesky::factor(&assemble_dense(p))
            .expect("the Helmholtz operator is SPD for positive coefficients")
            .solve(f.as_slice())
    }

    /// `prolong` as it was with a `Vec` per axis per fine point, kept
    /// as the bit-identity oracle.
    fn prolong_with_vecs(coarse: &Grid<3>) -> Grid<3> {
        let m = coarse.n();
        let n = 2 * m + 1;
        let mut fine = Grid::<3>::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let mut v = 0.0;
                    let axes = [i, j, k].map(|x| {
                        if x % 2 == 1 {
                            vec![((x as isize - 1) / 2, 1.0)]
                        } else {
                            vec![(x as isize / 2 - 1, 0.5), (x as isize / 2, 0.5)]
                        }
                    });
                    for (ci, wi) in &axes[0] {
                        for (cj, wj) in &axes[1] {
                            for (ck, wk) in &axes[2] {
                                v += wi * wj * wk * coarse.get_bc(*ci, *cj, *ck);
                            }
                        }
                    }
                    fine.set(i, j, k, v);
                }
            }
        }
        fine
    }

    /// The operator kernels as they were before the per-point weights
    /// and interior loops, forming every face coefficient per read and
    /// every neighbour through `get_bc`: the bit-identity oracles.
    mod reference {
        use super::super::{HelmholtzProblem, DIRS};
        use crate::grid::Grid;

        fn face_b(
            p: &HelmholtzProblem,
            i: usize,
            j: usize,
            k: usize,
            d: (isize, isize, isize),
        ) -> f64 {
            let here = p.b.get(i, j, k);
            let there =
                p.b.get_clamped(i as isize + d.0, j as isize + d.1, k as isize + d.2);
            0.5 * (here + there)
        }

        pub fn apply(p: &HelmholtzProblem, phi: &Grid<3>) -> Grid<3> {
            let n = p.n();
            let inv_h2 = 1.0 / (p.h * p.h);
            let mut out = Grid::<3>::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let mut v = p.alpha * p.a.get(i, j, k) * phi.get(i, j, k);
                        for dir in DIRS {
                            let bf = face_b(p, i, j, k, dir);
                            let nbr = phi.get_bc(
                                i as isize + dir.0,
                                j as isize + dir.1,
                                k as isize + dir.2,
                            );
                            v += p.beta * inv_h2 * bf * (phi.get(i, j, k) - nbr);
                        }
                        out.set(i, j, k, v);
                    }
                }
            }
            out
        }

        pub fn residual(p: &HelmholtzProblem, phi: &Grid<3>, f: &Grid<3>) -> Grid<3> {
            let aphi = apply(p, phi);
            let mut r = Grid::<3>::zeros(p.n());
            for (ri, (fi, ai)) in r
                .as_mut_slice()
                .iter_mut()
                .zip(f.as_slice().iter().zip(aphi.as_slice()))
            {
                *ri = fi - ai;
            }
            r
        }

        pub fn sor_sweep(p: &HelmholtzProblem, phi: &mut Grid<3>, f: &Grid<3>, omega: f64) {
            let n = p.n();
            let inv_h2 = 1.0 / (p.h * p.h);
            for color in 0..2usize {
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            if (i + j + k) % 2 != color {
                                continue;
                            }
                            let mut offdiag = 0.0;
                            let mut diag = p.alpha * p.a.get(i, j, k);
                            for dir in DIRS {
                                let bf = face_b(p, i, j, k, dir);
                                diag += p.beta * inv_h2 * bf;
                                offdiag += p.beta
                                    * inv_h2
                                    * bf
                                    * phi.get_bc(
                                        i as isize + dir.0,
                                        j as isize + dir.1,
                                        k as isize + dir.2,
                                    );
                            }
                            let gs = (f.get(i, j, k) + offdiag) / diag;
                            let old = phi.get(i, j, k);
                            phi.set(i, j, k, old + omega * (gs - old));
                        }
                    }
                }
            }
        }

        pub fn restrict(fine: &Grid<3>) -> Grid<3> {
            let m = (fine.n() - 1) / 2;
            let mut coarse = Grid::<3>::zeros(m);
            for ci in 0..m {
                for cj in 0..m {
                    for ck in 0..m {
                        let (fi, fj, fk) = (
                            (2 * ci + 1) as isize,
                            (2 * cj + 1) as isize,
                            (2 * ck + 1) as isize,
                        );
                        let mut acc = 0.0;
                        for di in -1isize..=1 {
                            for dj in -1isize..=1 {
                                for dk in -1isize..=1 {
                                    let w = (2 - di.abs()) * (2 - dj.abs()) * (2 - dk.abs());
                                    acc += w as f64 * fine.get_bc(fi + di, fj + dj, fk + dk);
                                }
                            }
                        }
                        coarse.set(ci, cj, ck, acc / 64.0);
                    }
                }
            }
            coarse
        }
    }

    /// Every size up to 9 (both parities), then the ledger's largest
    /// Helmholtz size.
    const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15];

    #[test]
    fn stencils_are_bit_identical_to_the_get_bc_versions() {
        let mut rng = SmallRng::seed_from_u64(19);
        for n in SIZES {
            for (alpha, beta) in [(1.0, 1.0), (0.3, 2.5)] {
                let p = HelmholtzProblem::random(n, alpha, beta, &mut rng);
                let f = Grid::random_uniform(n, -1.0, 1.0, &mut rng);
                let mut phi = Grid::random_uniform(n, -1.0, 1.0, &mut rng);
                let mut want = phi.clone();
                for (sweep, omega) in [1.0, 1.2, 1.9, 0.8].into_iter().enumerate() {
                    let what = format!("n={n} alpha={alpha} sweep {sweep}");
                    assert_bits_eq(
                        p.apply(&phi).as_slice(),
                        reference::apply(&p, &want).as_slice(),
                        &format!("apply {what}"),
                    );
                    assert_bits_eq(
                        p.residual(&phi, &f).as_slice(),
                        reference::residual(&p, &want, &f).as_slice(),
                        &format!("residual {what}"),
                    );
                    p.sor_sweep(&mut phi, &f, omega);
                    reference::sor_sweep(&p, &mut want, &f, omega);
                    assert_bits_eq(phi.as_slice(), want.as_slice(), &format!("sor {what}"));
                }
                if n >= 3 && n % 2 == 1 {
                    assert_bits_eq(
                        restrict(&phi).as_slice(),
                        reference::restrict(&phi).as_slice(),
                        &format!("restrict n={n}"),
                    );
                }
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn direct_solve_is_bit_identical_to_dense_assemble_and_factor() {
        for n in [1, 3, 7] {
            for seed in [11, 12] {
                let fine = problem(n, seed);
                let mut rng = SmallRng::seed_from_u64(seed + 100);
                let mut p = Some(fine);
                while let Some(level) = p {
                    let m = level.n();
                    // The first solve factors the band, the second uses
                    // the factor the level kept.
                    for solve in ["first", "second"] {
                        let f = Grid::random_uniform(m, -1.0, 1.0, &mut rng);
                        assert_eq!(
                            bits(level.direct_solve(&f).as_slice()),
                            bits(&dense_direct_solve(&level, &f)),
                            "n={n} seed={seed} level size {m}, {solve} solve"
                        );
                    }
                    assert!(level.factor.get().is_some());
                    p = (m >= 3).then(|| level.coarsen());
                }
            }
        }
    }

    #[test]
    fn equality_ignores_the_kept_factor() {
        let solved = problem(3, 14);
        let mut rng = SmallRng::seed_from_u64(15);
        solved.direct_solve(&Grid::random_uniform(3, -1.0, 1.0, &mut rng));
        assert!(solved.factor.get().is_some());
        assert_eq!(solved, problem(3, 14));
        assert_ne!(solved, problem(3, 16));
    }

    #[test]
    fn prolong_is_bit_identical_to_the_vec_per_axis_version() {
        let mut rng = SmallRng::seed_from_u64(13);
        for m in 1..=7 {
            let coarse = Grid::random_uniform(m, -1.0, 1.0, &mut rng);
            assert_eq!(
                bits(prolong(&coarse).as_slice()),
                bits(prolong_with_vecs(&coarse).as_slice()),
                "m={m}"
            );
        }
    }

    #[test]
    fn operator_is_symmetric_positive() {
        let p = problem(3, 1);
        let n = 27;
        let dense = assemble_dense(&p);
        assert!(dense.is_symmetric(1e-12));
        for i in 0..n {
            assert!(dense[(i, i)] > 0.0);
        }
    }

    #[test]
    fn direct_solve_zeroes_residual() {
        let p = problem(3, 2);
        let mut rng = SmallRng::seed_from_u64(3);
        let f = Grid::random_uniform(3, -1.0, 1.0, &mut rng);
        let phi = p.direct_solve(&f);
        assert!(p.residual(&phi, &f).max_abs() < 1e-9);
    }

    #[test]
    fn sor_reduces_residual() {
        let p = problem(7, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let f = Grid::random_uniform(7, -1.0, 1.0, &mut rng);
        let mut phi = Grid::<3>::zeros(7);
        let mut last = p.residual(&phi, &f).rms();
        for _ in 0..8 {
            p.sor_sweep(&mut phi, &f, 1.3);
            let r = p.residual(&phi, &f).rms();
            assert!(r < last, "{r} !< {last}");
            last = r;
        }
    }

    #[test]
    fn diag_matches_assembled_operator() {
        let p = problem(3, 6);
        let mut e = Grid::<3>::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let idx = e.idx(i, j, k);
                    e.as_mut_slice()[idx] = 1.0;
                    let ae = p.apply(&e);
                    assert!((ae.get(i, j, k) - p.weights[e.idx(i, j, k)].diag).abs() < 1e-12);
                    e.as_mut_slice()[idx] = 0.0;
                }
            }
        }
    }

    #[test]
    fn coarsen_halves_and_doubles_h() {
        let p = problem(7, 7);
        let c = p.coarsen();
        assert_eq!(c.n(), 3);
        assert_eq!(c.h, 2.0 * p.h);
        assert_eq!(c.alpha, p.alpha);
        // Coefficients stay within the original range.
        assert!(c.a.as_slice().iter().all(|&v| (0.5..1.0).contains(&v)));
    }

    #[test]
    fn transfer_operators_are_adjoint_up_to_scaling() {
        // R = (1/8)·Pᵀ in 3D.
        let mut rng = SmallRng::seed_from_u64(8);
        let u = Grid::random_uniform(7, -1.0, 1.0, &mut rng);
        let v = Grid::random_uniform(3, -1.0, 1.0, &mut rng);
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
        assert!((lhs - 0.125 * rhs).abs() < 1e-10);
    }

    #[test]
    fn two_grid_cycle_beats_smoothing_alone() {
        let p = problem(7, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let f = Grid::random_uniform(7, -1.0, 1.0, &mut rng);

        // Pure smoothing.
        let mut phi_s = Grid::<3>::zeros(7);
        for _ in 0..4 {
            p.sor_sweep(&mut phi_s, &f, 1.2);
        }

        // Two-grid: 2 sweeps, coarse direct correction, 2 sweeps.
        let mut phi = Grid::<3>::zeros(7);
        p.sor_sweep(&mut phi, &f, 1.2);
        p.sor_sweep(&mut phi, &f, 1.2);
        let r = p.residual(&phi, &f);
        let rc = restrict(&r);
        let coarse = p.coarsen();
        let ec = coarse.direct_solve(&rc);
        let ef = prolong(&ec);
        phi.add_correction(&ef);
        p.sor_sweep(&mut phi, &f, 1.2);
        p.sor_sweep(&mut phi, &f, 1.2);

        let rs = p.residual(&phi_s, &f).rms();
        let rt = p.residual(&phi, &f).rms();
        assert!(
            rt < rs * 0.8,
            "two-grid ({rt}) should beat pure smoothing ({rs})"
        );
    }
}
