//! Cuppen divide-and-conquer eigensolver for symmetric tridiagonal
//! matrices.
//!
//! The third member of the hybrid eigensolver menu in the
//! image-compression benchmark (§6.1.4: "a hybrid algorithm for finding
//! all eigenvalues and eigenvectors, which combines Divide and Conquer,
//! QR Iteration and Bisection"). The matrix is split as
//!
//! ```text
//! T = [T₁ 0; 0 T₂] + β·v·vᵀ
//! ```
//!
//! halves are solved recursively, and the rank-one update
//! `D + ρ·z·zᵀ` is diagonalized by solving the *secular equation*
//! `1 + ρ·Σ zᵢ²/(dᵢ − λ) = 0` with interval bisection, with tiny-`z`
//! and equal-`d` deflation and the Gu–Eisenstat `z`-vector
//! recomputation for numerically orthogonal eigenvectors.

use crate::eigen_qr::{eigen_tridiagonal, EigenDidNotConverge, SymmetricEigen};
use crate::matrix::{axpy, norm2, Matrix};
use crate::tridiag::SymmetricTridiagonal;

/// Subproblems at or below this size are solved directly with QL.
const BASE_CASE: usize = 32;

/// Full eigendecomposition by divide and conquer.
///
/// # Errors
///
/// Returns [`EigenDidNotConverge`] only if a QL base case fails.
pub fn eigen_dc_tridiagonal(
    t: &SymmetricTridiagonal,
) -> Result<SymmetricEigen, EigenDidNotConverge> {
    let n = t.dim();
    if n <= BASE_CASE {
        return eigen_tridiagonal(t, None);
    }
    let m = n / 2;
    let beta = t.offdiag[m - 1];
    if beta == 0.0 {
        // Already decoupled: solve the blocks independently.
        let t1 = SymmetricTridiagonal::new(t.diag[..m].to_vec(), t.offdiag[..m - 1].to_vec());
        let t2 = SymmetricTridiagonal::new(t.diag[m..].to_vec(), t.offdiag[m..].to_vec());
        let e1 = eigen_dc_tridiagonal(&t1)?;
        let e2 = eigen_dc_tridiagonal(&t2)?;
        return Ok(merge_block_diagonal(e1, e2));
    }

    // Split with the rank-one correction β·v·vᵀ, v = e_m + e_{m+1}.
    let mut diag1 = t.diag[..m].to_vec();
    let mut diag2 = t.diag[m..].to_vec();
    diag1[m - 1] -= beta;
    diag2[0] -= beta;
    let t1 = SymmetricTridiagonal::new(diag1, t.offdiag[..m - 1].to_vec());
    let t2 = SymmetricTridiagonal::new(diag2, t.offdiag[m..].to_vec());
    let e1 = eigen_dc_tridiagonal(&t1)?;
    let e2 = eigen_dc_tridiagonal(&t2)?;

    // z = blkdiag(Q₁, Q₂)ᵀ · v: last row of Q₁ stacked on first row of
    // Q₂.
    let mut d = Vec::with_capacity(n);
    d.extend_from_slice(&e1.values);
    d.extend_from_slice(&e2.values);
    let mut z = Vec::with_capacity(n);
    for j in 0..m {
        z.push(e1.vectors[(m - 1, j)]);
    }
    for j in 0..n - m {
        z.push(e2.vectors[(0, j)]);
    }

    let update = rank_one_update(&d, &z, beta);

    let vectors = map_back(&e1.vectors, &e2.vectors, &update.vectors);
    let mut out = SymmetricEigen {
        values: update.values,
        vectors,
    };
    out.sort_ascending();
    Ok(out)
}

/// Maps the rank-one update's eigenvectors back through the
/// block-diagonal `Q = blkdiag(q1, q2)`: `Q · update`.
///
/// Row-axpy form: output row `i` accumulates `q[i][j] · update_row(j)`
/// for ascending `j`, so every entry is the same left-to-right sum a
/// per-entry dot product over `j` would form, while each pass walks two
/// contiguous rows instead of a column of `update`.
fn map_back(q1: &Matrix, q2: &Matrix, update: &Matrix) -> Matrix {
    let m = q1.rows();
    let n = update.rows();
    let mut out = vec![0.0; n * n];
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let (q_row, first) = if i < m {
            (q1.row(i), 0)
        } else {
            (q2.row(i - m), m)
        };
        for (j, &qij) in q_row.iter().enumerate() {
            axpy(qij, update.row(first + j), out_row);
        }
    }
    Matrix::from_vec(n, n, out)
}

/// Concatenates two independent eigendecompositions into a
/// block-diagonal one (sorted ascending).
fn merge_block_diagonal(e1: SymmetricEigen, e2: SymmetricEigen) -> SymmetricEigen {
    let m = e1.values.len();
    let n = m + e2.values.len();
    let mut vectors = Matrix::zeros(n, n);
    for j in 0..m {
        for i in 0..m {
            vectors[(i, j)] = e1.vectors[(i, j)];
        }
    }
    for j in 0..n - m {
        for i in 0..n - m {
            vectors[(m + i, m + j)] = e2.vectors[(i, j)];
        }
    }
    let mut values = e1.values;
    values.extend_from_slice(&e2.values);
    let mut out = SymmetricEigen { values, vectors };
    out.sort_ascending();
    out
}

/// Secular function `f(λ) = 1 + ρ·Σ zᵢ²/(dᵢ − λ)`.
fn secular(d: &[f64], z: &[f64], rho: f64, lambda: f64) -> f64 {
    let mut sum = 0.0;
    for (&di, &zi) in d.iter().zip(z) {
        sum += zi * zi / (di - lambda);
    }
    1.0 + rho * sum
}

/// Eigendecomposition of `D + ρ·z·zᵀ` (public for testing and for the
/// image-compression benchmark's internal use).
///
/// # Panics
///
/// Panics if lengths differ or the input is empty.
pub fn rank_one_update(d: &[f64], z: &[f64], rho: f64) -> SymmetricEigen {
    assert_eq!(d.len(), z.len(), "d and z must have equal length");
    let n = d.len();
    assert!(n > 0, "empty rank-one update");

    // Sort by d ascending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite diagonal"));
    let ds: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut zs: Vec<f64> = order.iter().map(|&i| z[i]).collect();

    let znorm2 = crate::matrix::dot(&zs, &zs);
    let spread = (ds[n - 1] - ds[0]).abs().max(rho.abs() * znorm2).max(1.0);
    let tol = f64::EPSILON * spread * (n as f64);

    // Deflation step 1: Givens-rotate (nearly) equal diagonal pairs so
    // only one keeps a nonzero z component. The rotations are
    // accumulated and applied to the eigenvector matrix afterwards.
    let mut rotations: Vec<(usize, usize, f64, f64)> = Vec::new();
    for i in 0..n - 1 {
        if zs[i].abs() <= tol {
            continue;
        }
        for j in i + 1..n {
            if (ds[j] - ds[i]).abs() > tol {
                break;
            }
            if zs[j].abs() <= tol {
                continue;
            }
            let r = zs[i].hypot(zs[j]);
            let c = zs[j] / r;
            let s = zs[i] / r;
            zs[j] = r;
            zs[i] = 0.0;
            rotations.push((i, j, c, s));
        }
    }

    // Deflation step 2: partition into deflated (z ≈ 0) and active.
    let mut active: Vec<usize> = Vec::new();
    let mut deflated: Vec<usize> = Vec::new();
    for i in 0..n {
        if zs[i].abs() <= tol {
            deflated.push(i);
        } else {
            active.push(i);
        }
    }

    let mut values = vec![0.0; n];
    let mut vectors = Matrix::zeros(n, n);

    for &i in &deflated {
        values[i] = ds[i];
        vectors[(i, i)] = 1.0;
    }

    if !active.is_empty() {
        let da: Vec<f64> = active.iter().map(|&i| ds[i]).collect();
        let za: Vec<f64> = active.iter().map(|&i| zs[i]).collect();
        let (lam, zhat) = solve_secular(&da, &za, rho);
        // Eigenvectors of the active subproblem:
        // u_k[j] = ẑ_j / (d_j − λ_k), normalized.
        for (k, &lambda) in lam.iter().enumerate() {
            let col = active[k];
            values[col] = lambda;
            let mut u: Vec<f64> = da
                .iter()
                .zip(&zhat)
                .map(|(&dj, &zj)| zj / (dj - lambda))
                .collect();
            // A root indistinguishable from its pole at f64 resolution
            // (dⱼ − λ = 0 ⇒ ±∞ above) means the eigenvector is, to
            // machine precision, the unit vector at that pole.
            if let Some(j) = u.iter().position(|x| !x.is_finite()) {
                u.iter_mut().for_each(|x| *x = 0.0);
                u[j] = 1.0;
            }
            let norm = norm2(&u);
            if norm > 0.0 {
                for x in &mut u {
                    *x /= norm;
                }
            } else {
                // ẑ degenerated to zero: fall back to the nearest pole's
                // unit vector so the column is never empty.
                let j = da
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        (*a - lambda)
                            .abs()
                            .partial_cmp(&(*b - lambda).abs())
                            .expect("finite")
                    })
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                u[j] = 1.0;
            }
            for (j, &row) in active.iter().enumerate() {
                vectors[(row, col)] = u[j];
            }
        }
    }

    // Undo the deflation rotations. The rotation G (with z′ = G·z)
    // transformed the problem as D + ρzzᵀ = Gᵀ(GDGᵀ + ρz′z′ᵀ)G, so the
    // original problem's eigenvectors are Gᵀ times the rotated ones:
    // x_i ← c·x_i + s·x_j, x_j ← −s·x_i + c·x_j.
    for &(i, j, c, s) in rotations.iter().rev() {
        for col in 0..n {
            let xi = vectors[(i, col)];
            let xj = vectors[(j, col)];
            vectors[(i, col)] = c * xi + s * xj;
            vectors[(j, col)] = -s * xi + c * xj;
        }
    }

    // Undo the sorting permutation on rows.
    let mut unsorted = Matrix::zeros(n, n);
    for (sorted_row, &orig_row) in order.iter().enumerate() {
        for col in 0..n {
            unsorted[(orig_row, col)] = vectors[(sorted_row, col)];
        }
    }

    let mut out = SymmetricEigen {
        values,
        vectors: unsorted,
    };
    out.sort_ascending();
    out
}

/// Solves the secular equation for sorted distinct `d` with all-nonzero
/// `z`, returning the roots and the Gu–Eisenstat recomputed `ẑ`.
fn solve_secular(d: &[f64], z: &[f64], rho: f64) -> (Vec<f64>, Vec<f64>) {
    let p = d.len();
    let zz = crate::matrix::dot(z, z);
    let mut roots = Vec::with_capacity(p);
    for k in 0..p {
        let (lo, hi) = if rho > 0.0 {
            if k + 1 < p {
                (d[k], d[k + 1])
            } else {
                (d[p - 1], d[p - 1] + rho * zz)
            }
        } else if k == 0 {
            (d[0] + rho * zz, d[0])
        } else {
            (d[k - 1], d[k])
        };
        roots.push(bisect_secular(d, z, rho, lo, hi));
    }

    // Gu–Eisenstat: recompute ẑ from the computed roots so the
    // eigenvector formula is exact for a nearby problem:
    //   ẑ_j² = Π_i (λ_i − d_j) / (ρ · Π_{i≠j} (d_i − d_j)).
    let mut zhat = Vec::with_capacity(p);
    for j in 0..p {
        let mut prod = (roots[j] - d[j]) / rho;
        for i in 0..p {
            if i == j {
                continue;
            }
            prod *= (roots[i] - d[j]) / (d[i] - d[j]);
        }
        let mag = prod.abs().sqrt();
        zhat.push(mag.copysign(z[j]));
    }
    (roots, zhat)
}

/// Bisection for the unique root of the secular function in the open
/// interval `(lo, hi)`.
fn bisect_secular(d: &[f64], z: &[f64], rho: f64, lo: f64, hi: f64) -> f64 {
    let mut lo = lo;
    let mut hi = hi;
    // f is monotone increasing on the interval when rho > 0 (−∞ → +∞)
    // and monotone decreasing when rho < 0 (+∞ → −∞).
    for _ in 0..140 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // interval exhausted at f64 resolution
        }
        let f = secular(d, z, rho, mid);
        let go_right = if rho > 0.0 { f < 0.0 } else { f > 0.0 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, SIZES};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check(t: &SymmetricTridiagonal, eig: &SymmetricEigen, tol: f64) {
        let n = t.dim();
        for j in 0..n {
            let v = eig.vectors.col(j);
            let tv = t.matvec(&v);
            for i in 0..n {
                assert!(
                    (tv[i] - eig.values[j] * v[i]).abs() < tol,
                    "pair {j} residual {} (n={n})",
                    (tv[i] - eig.values[j] * v[i]).abs()
                );
            }
        }
        let vtv = eig.vectors.transpose().matmul(&eig.vectors);
        let orth = vtv.sub(&Matrix::identity(n)).max_abs();
        assert!(orth < tol, "orthogonality defect {orth}");
    }

    /// One dot product per output entry, walking a column of `update`
    /// — the back-multiplication before the row-axpy form: the
    /// bit-identity oracle.
    fn map_back_reference(q1: &Matrix, q2: &Matrix, update: &Matrix) -> Matrix {
        let m = q1.rows();
        let n = update.rows();
        let mut vectors = Matrix::zeros(n, n);
        for col in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += q1[(i, j)] * update[(j, col)];
                }
                vectors[(i, col)] = acc;
            }
            for i in 0..n - m {
                let mut acc = 0.0;
                for j in 0..n - m {
                    acc += q2[(i, j)] * update[(m + j, col)];
                }
                vectors[(m + i, col)] = acc;
            }
        }
        vectors
    }

    #[test]
    fn row_axpy_back_multiplication_matches_dot_products_bit_for_bit() {
        for &n in &SIZES[1..] {
            for seed in [5u64, 50, 500] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let m = n / 2;
                let q1 = Matrix::random_symmetric(m, &mut rng);
                let q2 = Matrix::random_symmetric(n - m, &mut rng);
                // Exact zeros and a deflated (unit) column, as the
                // rank-one update produces them.
                let mut update = Matrix::random_symmetric(n, &mut rng);
                for i in 0..n {
                    update[(i, 0)] = 0.0;
                    update[(0, i)] = 0.0;
                }
                update[(0, 0)] = 1.0;
                let got = map_back(&q1, &q2, &update);
                let want = map_back_reference(&q1, &q2, &update);
                assert_bits_eq(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("n={n} seed={seed}"),
                );
            }
        }
    }

    #[test]
    fn rank_one_update_simple() {
        // D = diag(1, 2), z = (1, 1), rho = 1:
        // A = [[2, 1], [1, 3]], eigenvalues (5 ± sqrt(5))/2.
        let eig = rank_one_update(&[1.0, 2.0], &[1.0, 1.0], 1.0);
        let expect_lo = (5.0 - 5.0f64.sqrt()) / 2.0;
        let expect_hi = (5.0 + 5.0f64.sqrt()) / 2.0;
        assert!((eig.values[0] - expect_lo).abs() < 1e-10);
        assert!((eig.values[1] - expect_hi).abs() < 1e-10);
    }

    #[test]
    fn rank_one_update_negative_rho() {
        // A = diag(1,2) - z zᵀ with z=(1,1): [[0, -1], [-1, 1]],
        // eigenvalues (1 ± sqrt(5))/2.
        let eig = rank_one_update(&[1.0, 2.0], &[1.0, 1.0], -1.0);
        let expect_lo = (1.0 - 5.0f64.sqrt()) / 2.0;
        let expect_hi = (1.0 + 5.0f64.sqrt()) / 2.0;
        assert!(
            (eig.values[0] - expect_lo).abs() < 1e-10,
            "{:?}",
            eig.values
        );
        assert!((eig.values[1] - expect_hi).abs() < 1e-10);
    }

    #[test]
    fn rank_one_update_with_deflation() {
        // z has zero entries: those diagonal entries are eigenvalues.
        let eig = rank_one_update(&[1.0, 3.0, 5.0], &[0.0, 1.0, 0.0], 2.0);
        assert!(eig.values.iter().any(|&v| (v - 1.0).abs() < 1e-12));
        assert!(eig.values.iter().any(|&v| (v - 5.0).abs() < 1e-12));
        // Middle becomes 3 + 2 = 5? No: 3 + rho·z² = 5 exactly.
        assert!(eig.values.iter().any(|&v| (v - 5.0).abs() < 1e-12));
    }

    #[test]
    fn rank_one_update_equal_diagonals() {
        // Repeated d forces the Givens deflation path.
        let eig = rank_one_update(&[2.0, 2.0, 2.0], &[1.0, 1.0, 1.0], 1.0);
        // Eigenvalues: 2 (twice) and 2 + 3 = 5.
        let mut close_to_2 = 0;
        let mut close_to_5 = 0;
        for &v in &eig.values {
            if (v - 2.0).abs() < 1e-9 {
                close_to_2 += 1;
            }
            if (v - 5.0).abs() < 1e-9 {
                close_to_5 += 1;
            }
        }
        assert_eq!(close_to_2, 2);
        assert_eq!(close_to_5, 1);
        // Orthogonality through the rotation-undo path.
        let vtv = eig.vectors.transpose().matmul(&eig.vectors);
        assert!(vtv.sub(&Matrix::identity(3)).max_abs() < 1e-9);
    }

    #[test]
    fn dc_returns_every_eigenvalue_ascending() {
        let t = SymmetricTridiagonal::new(vec![2.0; 40], vec![-1.0; 39]);
        let eig = eigen_dc_tridiagonal(&t).unwrap();
        assert_eq!(eig.values.len(), 40);
        assert!(eig.values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dc_matches_qr_on_poisson() {
        let n = 64;
        let t = SymmetricTridiagonal::new(vec![2.0; n], vec![-1.0; n - 1]);
        let dc = eigen_dc_tridiagonal(&t).unwrap();
        let qr = eigen_tridiagonal(&t, None).unwrap();
        for (a, b) in dc.values.iter().zip(&qr.values) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        check(&t, &dc, 1e-7);
    }

    #[test]
    fn dc_random_tridiagonals() {
        let mut rng = SmallRng::seed_from_u64(66);
        for n in [33, 50, 100] {
            let diag: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let off: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let t = SymmetricTridiagonal::new(diag, off);
            let dc = eigen_dc_tridiagonal(&t).unwrap();
            let qr = eigen_tridiagonal(&t, None).unwrap();
            for (a, b) in dc.values.iter().zip(&qr.values) {
                assert!((a - b).abs() < 1e-7, "n={n}: {a} vs {b}");
            }
            check(&t, &dc, 1e-6);
        }
    }

    #[test]
    fn dc_with_zero_coupling_decouples() {
        // offdiag has an exact zero at the split point.
        let n = 40;
        let mut off = vec![1.0; n - 1];
        off[n / 2 - 1] = 0.0;
        let t = SymmetricTridiagonal::new((0..n).map(|i| i as f64).collect(), off);
        let dc = eigen_dc_tridiagonal(&t).unwrap();
        let qr = eigen_tridiagonal(&t, None).unwrap();
        for (a, b) in dc.values.iter().zip(&qr.values) {
            assert!((a - b).abs() < 1e-8);
        }
        check(&t, &dc, 1e-7);
    }
}
