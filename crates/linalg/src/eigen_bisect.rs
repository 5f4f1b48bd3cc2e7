//! Bisection eigensolver: selected eigenvalues via Sturm sequences,
//! eigenvectors via inverse iteration.
//!
//! When only `k` of `n` eigenpairs are needed — the image-compression
//! benchmark's "Bisection method for only k eigenvalues and
//! eigenvectors" choice (§6.1.4) — bisection costs `O(k·n)` per
//! bisection step instead of the `O(n³)` full QR decomposition. The
//! autotuner discovers the crossover between the two.
//!
//! One Sturm count is a single chain of `n` dependent divides, so a
//! bisection is latency-bound. The selected eigenvalues are
//! independent of each other, so they are bisected four at a time in
//! lockstep: four chains in flight where there was one. A lane is the
//! scalar bisection verbatim — its own `lo`/`hi`, the same midpoints,
//! the same stop test, the same recurrence expression — and lanes
//! share only values that do not depend on the shift, so every
//! eigenvalue equals `eigenvalue_k`'s bit for bit.

use crate::eigen_qr::SymmetricEigen;
use crate::matrix::{norm2, Matrix};
use crate::tridiag::SymmetricTridiagonal;

/// Number of eigenvalues of `t` strictly less than `x`, computed with
/// the Sturm sequence of leading principal minors.
pub fn sturm_count(t: &SymmetricTridiagonal, x: f64) -> usize {
    let n = t.dim();
    let mut count = 0;
    let mut q = t.diag[0] - x;
    if q < 0.0 {
        count += 1;
    }
    for i in 1..n {
        let e2 = t.offdiag[i - 1] * t.offdiag[i - 1];
        let denom = if q != 0.0 {
            q
        } else {
            // Standard guard: treat an exactly zero pivot as a tiny
            // value of the sign convention that keeps counts correct.
            f64::EPSILON * (t.offdiag[i - 1].abs() + f64::MIN_POSITIVE)
        };
        q = t.diag[i] - x - e2 / denom;
        if q < 0.0 {
            count += 1;
        }
    }
    count
}

/// The `k`-th smallest eigenvalue (0-based) by bisection to absolute
/// tolerance `tol`.
///
/// # Panics
///
/// Panics if `k >= t.dim()` or `tol <= 0`.
pub fn eigenvalue_k(t: &SymmetricTridiagonal, k: usize, tol: f64) -> f64 {
    assert!(k < t.dim(), "eigenvalue index out of range");
    assert!(tol > 0.0, "tolerance must be positive");
    let (mut lo, mut hi) = t.gershgorin_bounds();
    // Widen marginally so strict comparisons behave at the endpoints.
    let pad = (hi - lo).abs().max(1.0) * 1e-12;
    lo -= pad;
    hi += pad;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if sturm_count(t, mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Bisection lanes run in lockstep (see [`sturm_count_lanes`]).
const LANES: usize = 4;

/// [`sturm_count`] at `LANES` shifts at once. Each lane evaluates the
/// scalar recurrence's exact expression on its own `q`; only the
/// per-row `e²` and zero-pivot guard, which do not depend on the
/// shift, are shared. The lanes' divide chains are independent, so
/// they overlap in the divider instead of running back to back.
fn sturm_count_lanes(t: &SymmetricTridiagonal, x: [f64; LANES]) -> [usize; LANES] {
    let mut count = [0usize; LANES];
    let mut q = x.map(|x| t.diag[0] - x);
    for l in 0..LANES {
        count[l] += usize::from(q[l] < 0.0);
    }
    for (&diag, &off) in t.diag[1..].iter().zip(&t.offdiag) {
        let e2 = off * off;
        let guard = f64::EPSILON * (off.abs() + f64::MIN_POSITIVE);
        for l in 0..LANES {
            let denom = if q[l] != 0.0 { q[l] } else { guard };
            q[l] = diag - x[l] - e2 / denom;
            count[l] += usize::from(q[l] < 0.0);
        }
    }
    count
}

/// [`eigenvalue_k`] for `LANES` indices at once: every lane keeps its
/// own `lo`/`hi`, takes the same midpoints and stops on the same test
/// as the scalar loop, so each result is the scalar one bit for bit.
/// A lane that has converged idles (its count is computed and
/// ignored) until the slowest lane finishes.
fn eigenvalues_lockstep(t: &SymmetricTridiagonal, ks: [usize; LANES], tol: f64) -> [f64; LANES] {
    let (mut lo, mut hi) = t.gershgorin_bounds();
    let pad = (hi - lo).abs().max(1.0) * 1e-12;
    lo -= pad;
    hi += pad;
    let mut lo = [lo; LANES];
    let mut hi = [hi; LANES];
    while (0..LANES).any(|l| hi[l] - lo[l] > tol) {
        let mut mid = [0.0; LANES];
        for l in 0..LANES {
            mid[l] = 0.5 * (lo[l] + hi[l]);
        }
        let counts = sturm_count_lanes(t, mid);
        for l in 0..LANES {
            if hi[l] - lo[l] > tol {
                if counts[l] <= ks[l] {
                    lo[l] = mid[l];
                } else {
                    hi[l] = mid[l];
                }
            }
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = 0.5 * (lo[l] + hi[l]);
    }
    out
}

/// Eigenvalues `first..first + count` by bisection: full groups of
/// `LANES` indices in lockstep, a remainder of two or three padded
/// with its last index, a single leftover on the scalar path.
fn eigenvalue_range(t: &SymmetricTridiagonal, first: usize, count: usize, tol: f64) -> Vec<f64> {
    let mut values = Vec::with_capacity(count);
    let mut k = first;
    let end = first + count;
    while k < end {
        let len = (end - k).min(LANES);
        if len == 1 {
            values.push(eigenvalue_k(t, k, tol));
        } else {
            let ks = std::array::from_fn(|l| k + l.min(len - 1));
            values.extend_from_slice(&eigenvalues_lockstep(t, ks, tol)[..len]);
        }
        k += len;
    }
    values
}

/// Inverse iteration's inner solve `(T - λI)·x = b` by Gaussian
/// elimination with partial pivoting on the tridiagonal band. Singular
/// pivots are perturbed, which is the standard trick since inverse
/// iteration *wants* a nearly singular system. Holds the band scratch
/// and the pivot floor, which depend on `t` alone, across solves.
struct ShiftedSolver<'a> {
    t: &'a SymmetricTridiagonal,
    tiny: f64,
    // Band storage after elimination: d (diagonal), du (first super),
    // du2 (second super, created by row swaps).
    d: Vec<f64>,
    du: Vec<f64>,
    du2: Vec<f64>,
}

impl<'a> ShiftedSolver<'a> {
    fn new(t: &'a SymmetricTridiagonal) -> Self {
        let n = t.dim();
        let tiny = f64::EPSILON
            * t.diag
                .iter()
                .chain(t.offdiag.iter())
                .fold(1.0f64, |m, v| m.max(v.abs()))
            + f64::MIN_POSITIVE;
        ShiftedSolver {
            t,
            tiny,
            d: vec![0.0; n],
            du: vec![0.0; n],
            du2: vec![0.0; n],
        }
    }

    /// Overwrites `x` (holding `b`) with the solution.
    fn solve(&mut self, lambda: f64, x: &mut [f64]) {
        let ShiftedSolver {
            t,
            tiny,
            d,
            du,
            du2,
        } = self;
        let tiny = *tiny;
        let n = t.dim();
        // For the symmetric input the sub- and super-diagonals start
        // out equal.
        for (di, &v) in d.iter_mut().zip(&t.diag) {
            *di = v - lambda;
        }
        du[..n - 1].copy_from_slice(&t.offdiag);
        du[n - 1] = 0.0;
        du2.fill(0.0);

        for i in 0..n.saturating_sub(1) {
            let dl = t.offdiag[i]; // subdiagonal entry coupling rows i, i+1
            if d[i].abs() >= dl.abs() {
                // No swap. Eliminate the subdiagonal with row i.
                let pivot = if d[i].abs() < tiny { tiny } else { d[i] };
                let fact = dl / pivot;
                d[i + 1] -= fact * du[i];
                x[i + 1] -= fact * x[i];
            } else {
                // Swap rows i and i+1, then eliminate.
                let fact = d[i] / dl;
                let old_d1 = d[i + 1];
                let old_du1 = du[i + 1]; // zero when i + 2 == n
                d[i] = dl;
                d[i + 1] = du[i] - fact * old_d1;
                du[i] = old_d1;
                du2[i] = old_du1;
                du[i + 1] = -fact * old_du1;
                let old_xi = x[i];
                x[i] = x[i + 1];
                x[i + 1] = old_xi - fact * x[i];
            }
        }
        // Back substitution over (d, du, du2).
        for i in (0..n).rev() {
            let mut sum = x[i];
            if i + 1 < n {
                sum -= du[i] * x[i + 1];
            }
            if i + 2 < n {
                sum -= du2[i] * x[i + 2];
            }
            let pivot = if d[i].abs() < tiny { tiny } else { d[i] };
            x[i] = sum / pivot;
        }
    }
}

/// Eigenvector for an approximate eigenvalue by inverse iteration,
/// orthogonalized against `previous` vectors (needed for clustered
/// eigenvalues).
fn inverse_iteration(solver: &mut ShiftedSolver<'_>, lambda: f64, previous: &[&[f64]]) -> Vec<f64> {
    let n = solver.t.dim();
    // Deterministic, non-degenerate starting vector.
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * ((i * 2654435761usize) % 1000) as f64 / 1000.0)
        .collect();
    normalize(&mut v);
    let mut w = vec![0.0; n];
    for _ in 0..4 {
        w.copy_from_slice(&v);
        solver.solve(lambda, &mut w);
        // Orthogonalize against already-found vectors of the cluster.
        for p in previous {
            let proj = crate::matrix::dot(&w, p);
            for (wi, pi) in w.iter_mut().zip(*p) {
                *wi -= proj * pi;
            }
        }
        if normalize(&mut w) == 0.0 {
            break;
        }
        std::mem::swap(&mut v, &mut w);
    }
    v
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = norm2(v);
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

/// The `k` largest eigenpairs (ascending order within the result).
///
/// # Panics
///
/// Panics if `k == 0` or `k > t.dim()`.
pub fn largest_eigenpairs(t: &SymmetricTridiagonal, k: usize) -> SymmetricEigen {
    selected_eigenpairs(t, t.dim() - k, k)
}

/// Eigenpairs `first..first + count` (by ascending eigenvalue index).
///
/// # Panics
///
/// Panics if the range is empty or exceeds the dimension.
pub fn selected_eigenpairs(t: &SymmetricTridiagonal, first: usize, count: usize) -> SymmetricEigen {
    let n = t.dim();
    assert!(count > 0, "must request at least one eigenpair");
    assert!(first + count <= n, "eigenpair range out of bounds");
    let (lo, hi) = t.gershgorin_bounds();
    let tol = (hi - lo).abs().max(1.0) * 1e-13;

    let values = eigenvalue_range(t, first, count, tol);

    let mut solver = ShiftedSolver::new(t);
    let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(count);
    for (i, &lambda) in values.iter().enumerate() {
        // Vectors already computed for eigenvalues within a cluster
        // must be orthogonalized away.
        let cluster_tol = tol.max(1e-10 * lambda.abs().max(1.0));
        let cluster: Vec<&[f64]> = values[..i]
            .iter()
            .zip(&vectors)
            .filter(|(&prev, _)| (prev - lambda).abs() < cluster_tol * 1e3)
            .map(|(_, v)| v.as_slice())
            .collect();
        let vector = inverse_iteration(&mut solver, lambda, &cluster);
        vectors.push(vector);
    }

    let vmat = Matrix::from_fn(n, count, |r, c| vectors[c][r]);
    SymmetricEigen {
        values,
        vectors: vmat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen_qr::eigen_tridiagonal;
    use crate::test_inputs::{assert_bits_eq, symmetric_cases};
    use crate::tridiag::householder_tridiagonalize;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Solves `(T - λI)·x = b` by Gaussian elimination with partial
    /// pivoting on the tridiagonal band (the inner step of inverse
    /// iteration). Singular pivots are perturbed, which is the standard
    /// trick since inverse iteration *wants* a nearly singular system.
    fn solve_shifted(t: &SymmetricTridiagonal, lambda: f64, b: &[f64]) -> Vec<f64> {
        let n = t.dim();
        // Band storage after elimination: d (diagonal), du (first super),
        // du2 (second super, created by row swaps). For the symmetric input
        // the sub- and super-diagonals start out equal.
        let mut d: Vec<f64> = t.diag.iter().map(|&v| v - lambda).collect();
        let mut du: Vec<f64> = t.offdiag.clone();
        du.push(0.0);
        let mut du2 = vec![0.0; n];
        let mut x = b.to_vec();

        let tiny = f64::EPSILON
            * t.diag
                .iter()
                .chain(t.offdiag.iter())
                .fold(1.0f64, |m, v| m.max(v.abs()))
            + f64::MIN_POSITIVE;

        for i in 0..n.saturating_sub(1) {
            let dl = t.offdiag[i]; // subdiagonal entry coupling rows i, i+1
            if d[i].abs() >= dl.abs() {
                // No swap. Eliminate the subdiagonal with row i.
                let pivot = if d[i].abs() < tiny { tiny } else { d[i] };
                let fact = dl / pivot;
                d[i + 1] -= fact * du[i];
                x[i + 1] -= fact * x[i];
            } else {
                // Swap rows i and i+1, then eliminate.
                let fact = d[i] / dl;
                let old_d1 = d[i + 1];
                let old_du1 = du[i + 1]; // zero when i + 2 == n
                d[i] = dl;
                d[i + 1] = du[i] - fact * old_d1;
                du[i] = old_d1;
                du2[i] = old_du1;
                du[i + 1] = -fact * old_du1;
                let old_xi = x[i];
                x[i] = x[i + 1];
                x[i + 1] = old_xi - fact * x[i];
            }
        }
        // Back substitution over (d, du, du2).
        for i in (0..n).rev() {
            let mut sum = x[i];
            if i + 1 < n {
                sum -= du[i] * x[i + 1];
            }
            if i + 2 < n {
                sum -= du2[i] * x[i + 2];
            }
            let pivot = if d[i].abs() < tiny { tiny } else { d[i] };
            x[i] = sum / pivot;
        }
        x
    }

    /// Eigenvector for an approximate eigenvalue by inverse iteration,
    /// orthogonalized against `previous` vectors (needed for clustered
    /// eigenvalues).
    fn inverse_iteration_reference(
        t: &SymmetricTridiagonal,
        lambda: f64,
        previous: &[Vec<f64>],
    ) -> Vec<f64> {
        let n = t.dim();
        // Deterministic, non-degenerate starting vector.
        let mut v: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.5 * ((i * 2654435761usize) % 1000) as f64 / 1000.0)
            .collect();
        normalize(&mut v);
        for _ in 0..4 {
            let mut w = solve_shifted(t, lambda, &v);
            // Orthogonalize against already-found vectors of the cluster.
            for p in previous {
                let proj = crate::matrix::dot(&w, p);
                for (wi, pi) in w.iter_mut().zip(p) {
                    *wi -= proj * pi;
                }
            }
            if normalize(&mut w) == 0.0 {
                break;
            }
            v = w;
        }
        v
    }

    /// The selection before lockstep bisection and the reused solver
    /// scratch: one scalar `eigenvalue_k` per index, cloned clusters.
    fn selected_eigenpairs_reference(
        t: &SymmetricTridiagonal,
        first: usize,
        count: usize,
    ) -> SymmetricEigen {
        let n = t.dim();
        let (lo, hi) = t.gershgorin_bounds();
        let tol = (hi - lo).abs().max(1.0) * 1e-13;

        let values: Vec<f64> = (first..first + count)
            .map(|k| eigenvalue_k(t, k, tol))
            .collect();

        let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(count);
        for (i, &lambda) in values.iter().enumerate() {
            let cluster_tol = tol.max(1e-10 * lambda.abs().max(1.0));
            let cluster: Vec<Vec<f64>> = values[..i]
                .iter()
                .zip(&vectors)
                .filter(|(&prev, _)| (prev - lambda).abs() < cluster_tol * 1e3)
                .map(|(_, v)| v.clone())
                .collect();
            vectors.push(inverse_iteration_reference(t, lambda, &cluster));
        }

        let vmat = Matrix::from_fn(n, count, |r, c| vectors[c][r]);
        SymmetricEigen {
            values,
            vectors: vmat,
        }
    }

    #[test]
    fn lockstep_selection_matches_scalar_selection_bit_for_bit() {
        for (label, a) in symmetric_cases() {
            let t = householder_tridiagonalize(&a).tridiag;
            let n = t.dim();
            // Lane remainders 1, 2, 3, 0, one full group plus 1, and
            // every group shape up to the whole spectrum.
            for k in [1, 2, 3, 4, 5, n] {
                if k > n {
                    continue;
                }
                let got = largest_eigenpairs(&t, k);
                let want = selected_eigenpairs_reference(&t, n - k, k);
                let what = format!("{label} k={k}");
                assert_bits_eq(&got.values, &want.values, &format!("{what} values"));
                assert_bits_eq(
                    got.vectors.as_slice(),
                    want.vectors.as_slice(),
                    &format!("{what} vectors"),
                );
                let (lo, hi) = t.gershgorin_bounds();
                let tol = (hi - lo).abs().max(1.0) * 1e-13;
                for (i, &value) in got.values.iter().enumerate() {
                    assert_eq!(
                        value.to_bits(),
                        eigenvalue_k(&t, n - k + i, tol).to_bits(),
                        "{what} value {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_counts_match_scalar_counts() {
        let mut rng = SmallRng::seed_from_u64(9);
        // A zero pivot on the way (diag[0] == shift) takes the guard.
        let t = SymmetricTridiagonal::new(vec![1.0, -0.5, 2.0, 0.25], vec![0.5, -1.5, 0.75]);
        for _ in 0..50 {
            let x: [f64; LANES] = std::array::from_fn(|l| {
                if l == 0 {
                    1.0
                } else {
                    rng.gen_range(-3.0..3.0)
                }
            });
            assert_eq!(sturm_count_lanes(&t, x), x.map(|x| sturm_count(&t, x)));
        }
    }

    fn poisson_t(n: usize) -> SymmetricTridiagonal {
        SymmetricTridiagonal::new(vec![2.0; n], vec![-1.0; n - 1])
    }

    #[test]
    fn sturm_count_between_diagonal_entries() {
        // diag(1, 2, 3): one eigenvalue below 1.5, two below 2.5.
        let t = SymmetricTridiagonal::new(vec![1.0, 2.0, 3.0], vec![0.0, 0.0]);
        assert_eq!(sturm_count(&t, 1.5), 1);
        assert_eq!(sturm_count(&t, 2.5), 2);
    }

    #[test]
    fn sturm_count_diagonal_matrix() {
        let t = SymmetricTridiagonal::new(vec![1.0, 5.0, 9.0], vec![0.0, 0.0]);
        assert_eq!(sturm_count(&t, 0.0), 0);
        assert_eq!(sturm_count(&t, 2.0), 1);
        assert_eq!(sturm_count(&t, 6.0), 2);
        assert_eq!(sturm_count(&t, 100.0), 3);
    }

    #[test]
    fn bisection_matches_analytic_poisson_spectrum() {
        let n = 16;
        let t = poisson_t(n);
        for k in [0, 1, 7, 15] {
            let lambda = eigenvalue_k(&t, k, 1e-12);
            let expect =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lambda - expect).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn bisection_matches_qr_on_random_matrices() {
        let mut rng = SmallRng::seed_from_u64(55);
        for n in [3, 8, 20] {
            let diag: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let off: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let t = SymmetricTridiagonal::new(diag, off);
            let full = eigen_tridiagonal(&t, None).unwrap();
            for k in 0..n {
                let lambda = eigenvalue_k(&t, k, 1e-12);
                assert!(
                    (lambda - full.values[k]).abs() < 1e-8,
                    "n={n} k={k}: {lambda} vs {}",
                    full.values[k]
                );
            }
        }
    }

    #[test]
    fn eigenvectors_satisfy_residual() {
        let n = 12;
        let t = poisson_t(n);
        let eig = selected_eigenpairs(&t, 0, 4);
        for j in 0..4 {
            let v = eig.vectors.col(j);
            let tv = t.matvec(&v);
            for i in 0..n {
                assert!(
                    (tv[i] - eig.values[j] * v[i]).abs() < 1e-7,
                    "pair {j} residual"
                );
            }
            assert!((norm2(&v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn largest_eigenpairs_take_top_of_spectrum() {
        let n = 10;
        let t = poisson_t(n);
        let top = largest_eigenpairs(&t, 3);
        let full = eigen_tridiagonal(&t, None).unwrap();
        for (a, b) in top.values.iter().zip(&full.values[n - 3..]) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_eigenvalues_get_orthogonal_vectors() {
        // diag(1, 1, 5): eigenvalue 1 has multiplicity 2.
        let t = SymmetricTridiagonal::new(vec![1.0, 1.0, 5.0], vec![0.0, 0.0]);
        let eig = selected_eigenpairs(&t, 0, 2);
        let v0 = eig.vectors.col(0);
        let v1 = eig.vectors.col(1);
        assert!(crate::matrix::dot(&v0, &v1).abs() < 1e-6);
    }
}
