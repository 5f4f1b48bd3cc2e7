//! Singular value decomposition and best rank-k approximation.
//!
//! The image-compression benchmark (§6.1.4) stores the first `k`
//! singular triplets of an image matrix: `A_k = Σᵢ σᵢ·uᵢ·vᵢᵀ` is the
//! best rank-`k` approximation. The SVD is computed through the
//! symmetric eigenproblem — either all triplets at once (QR or
//! divide-and-conquer on `AᵀA`) or only the top `k` (bisection), which
//! is the algorithmic menu the autotuner chooses from.
//!
//! A matrix's [`TopTriplets`] keep, per eigensolver, the top triplets
//! found so far, so a later call of any rank copies them out instead
//! of decomposing again. Every triplet is the one a decomposition for
//! that call alone gives, bit for bit:
//! * QL and divide and conquer decompose the whole spectrum whatever
//!   the rank, and a rank-`k` call keeps the top `k` pairs of it;
//! * bisection finds each eigenvalue to the same bits whatever range
//!   it is bisected in, and an eigenvector whose cluster (the lower
//!   selected eigenvalues within its tolerance) is empty does not
//!   depend on the rank. The others are orthogonalized against their
//!   cluster, which the rank decides, so each call recomputes them;
//! * `V = Q·X` and the left vectors `uᵢ = A·vᵢ/σᵢ` sum each column in
//!   an order that does not depend on the other columns, and the
//!   left vectors' floor reads only σ₀, the top of every rank.

use crate::eigen_bisect;
use crate::eigen_dc::eigen_dc_tridiagonal;
use crate::eigen_qr::{eigen_tridiagonal, EigenDidNotConverge, SymmetricEigen};
use crate::matrix::{axpy, Matrix};
use crate::tridiag::{householder_tridiagonalize, SymmetricTridiagonal, Tridiagonalization};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which eigensolver backs the SVD computation — the algorithmic
/// choice exposed to the autotuner in the image-compression benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SvdMethod {
    /// Full spectrum by implicit QL/QR iteration.
    Qr,
    /// Full spectrum by divide and conquer.
    DivideAndConquer,
    /// Only the top `k` singular values by Sturm bisection + inverse
    /// iteration.
    Bisection,
}

/// A (possibly truncated) singular value decomposition
/// `A ≈ U·diag(σ)·Vᵀ` with singular values descending.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Number of retained triplets.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs the rank-`k` approximation `U·diag(σ)·Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let m = self.u.rows();
        let n = self.v.rows();
        // Row `t` of `Vᵀ` is the contiguous `vₜ`, so triplet `t` adds
        // `uᵢₜ·σₜ·vₜ` to output row `i` in one pass; every entry still
        // accumulates its triplets in ascending `t`.
        let vt = self.v.transpose();
        let mut out = vec![0.0; m * n];
        for (t, &s) in self.sigma.iter().enumerate() {
            for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
                let us = self.u[(i, t)] * s;
                if us == 0.0 {
                    continue;
                }
                axpy(us, vt.row(t), out_row);
            }
        }
        Matrix::from_vec(m, n, out)
    }
}

/// The Gram matrix `AᵀA` (whose eigenvalues are `σ²` and eigenvectors
/// are the right singular vectors) reduced to tridiagonal form: the
/// part of every SVD of `a` that depends on `a` alone, whatever the
/// eigensolver or rank.
fn gram_reduction(a: &Matrix) -> Tridiagonalization {
    householder_tridiagonalize(&gram(a))
}

/// One matrix `A` with what its top-`k` SVDs share: the tridiagonal
/// reduction of `AᵀA`, built with it, and per eigensolver the top
/// singular triplets found so far, grown on demand (see the module
/// docs for why a kept triplet is the one a fresh call computes). QL
/// and divide and conquer decompose once, and keep the eigenpairs they
/// have not turned into triplets yet to grow from; bisection
/// keeps the eigenvalues it has bisected. Calls may come from several
/// threads at once: a call that must grow a solver's triplets holds
/// that solver's lock while it does.
#[derive(Debug)]
pub struct TopTriplets {
    a: Matrix,
    reduction: Tridiagonalization,
    /// Per [`SvdMethod`], in declaration order, the triplets kept so
    /// far.
    kept: [Mutex<Kept>; 3],
}

/// The top `len` singular triplets of one eigensolver, descending.
#[derive(Debug, Default)]
struct Kept {
    /// QL or divide and conquer: the eigenpairs of the reduced Gram
    /// matrix not kept yet, `0..n − len` ascending. The first call
    /// decomposes the whole matrix; each growth keeps only the rest.
    rest: Option<SymmetricEigen>,
    /// The eigenvalues `σ²` of `AᵀA`, before the clamp at zero.
    lambda: Vec<f64>,
    sigma: Vec<f64>,
    /// Right singular vectors, one contiguous column each.
    v: Vec<f64>,
    /// Left singular vectors, one contiguous column each.
    u: Vec<f64>,
}

impl Kept {
    fn len(&self) -> usize {
        self.sigma.len()
    }

    /// The top `k ≤ len` triplets.
    fn top(&self, k: usize) -> Svd {
        let columns = |data: &[f64]| {
            let rows = data.len() / self.len();
            Matrix::from_fn(rows, k, |r, c| data[c * rows + r])
        };
        Svd {
            u: columns(&self.u),
            sigma: self.sigma[..k].to_vec(),
            v: columns(&self.v),
        }
    }
}

impl TopTriplets {
    /// Wraps `a`, reducing `AᵀA` once.
    pub fn new(a: Matrix) -> Self {
        let reduction = gram_reduction(&a);
        TopTriplets {
            a,
            reduction,
            kept: Default::default(),
        }
    }

    /// The matrix `A`.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The top-`k` SVD of `A` with the selected eigensolver, equal bit
    /// for bit to what a new `TopTriplets` of `A` gives.
    ///
    /// `k` is clamped to `1..=min(m, n)`. The eigenpairs of the reduced
    /// Gram matrix give `σ²` and the right singular vectors; left
    /// vectors follow from `uᵢ = A·vᵢ/σᵢ`. Zero singular values get
    /// zero left vectors.
    ///
    /// # Errors
    ///
    /// Returns `EigenDidNotConverge` if the underlying QL iteration
    /// fails.
    pub fn top_k(&self, k: usize, method: SvdMethod) -> Result<Svd, EigenDidNotConverge> {
        let k = k.min(self.a.rows().min(self.a.cols())).max(1);
        type Decompose = fn(&SymmetricTridiagonal) -> Result<SymmetricEigen, EigenDidNotConverge>;
        let decompose: Decompose = match method {
            SvdMethod::Qr => |t| eigen_tridiagonal(t, None),
            SvdMethod::DivideAndConquer => eigen_dc_tridiagonal,
            SvdMethod::Bisection => return Ok(self.bisection_top_k(k)),
        };
        let mut kept = lock(&self.kept[method as usize]);
        let len = kept.len();
        if len < k {
            let rest = match kept.rest.take() {
                Some(rest) => rest,
                None => decompose(&self.reduction.tridiag)?,
            };
            // Ascending: position `p` is eigenpair `n − 1 − p`.
            let n = self.reduction.tridiag.dim();
            let lambda = (len..k).map(|p| rest.values[n - 1 - p]).collect();
            let vectors = Matrix::from_fn(n, k - len, |r, c| rest.vectors[(r, n - 1 - len - c)]);
            self.grow(&mut kept, lambda, &vectors);
            if k < n {
                kept.rest = Some(SymmetricEigen {
                    values: rest.values[..n - k].to_vec(),
                    vectors: Matrix::from_fn(n, n - k, |r, c| rest.vectors[(r, c)]),
                });
            }
        }
        Ok(kept.top(k))
    }

    /// Bisection's top `k`: the kept free triplets, with the vectors
    /// whose cluster is not empty at rank `k` recomputed.
    fn bisection_top_k(&self, k: usize) -> Svd {
        let t = &self.reduction.tridiag;
        let n = t.dim();
        let mut kept = lock(&self.kept[SvdMethod::Bisection as usize]);
        let len = kept.len();
        if len < k {
            let tol = eigen_bisect::selection_tol(t);
            let mut lambda = eigen_bisect::eigenvalue_range(t, n - k, k - len, tol);
            lambda.reverse();
            let free = eigen_bisect::free_vectors(t, &lambda);
            self.grow(&mut kept, lambda, &free);
        }
        // The selection `n − k..n`, ascending: position `i` is kept
        // triplet `k − 1 − i`.
        let ascending: Vec<f64> = kept.lambda[..k].iter().rev().copied().collect();
        let clustered = eigen_bisect::clustered_vectors(t, &ascending);
        let mut svd = kept.top(k);
        if !clustered.is_empty() {
            let vectors = Matrix::from_fn(n, clustered.len(), |r, c| clustered[c].1[r]);
            let sigma: Vec<f64> = clustered
                .iter()
                .map(|&(i, _)| svd.sigma[k - 1 - i])
                .collect();
            let v = self.reduction.q.matmul(&vectors);
            let u = left_vectors(&self.a, &v, &sigma, svd.sigma[0]);
            for (c, &(i, _)) in clustered.iter().enumerate() {
                let p = k - 1 - i;
                for r in 0..v.rows() {
                    svd.v[(r, p)] = v[(r, c)];
                }
                for r in 0..u.rows() {
                    svd.u[(r, p)] = u[(r, c)];
                }
            }
        }
        svd
    }

    /// Appends the triplets of the next eigenpairs, `lambda` descending
    /// with the matching tridiagonal eigenvectors in `vectors`' columns.
    /// Everything is computed before `kept` changes, so a panic leaves
    /// it as it was.
    fn grow(&self, kept: &mut Kept, lambda: Vec<f64>, vectors: &Matrix) {
        // Map tridiagonal eigenvectors back to right singular vectors.
        let v = self.reduction.q.matmul(vectors);
        // σ = sqrt(max(λ, 0)); tiny negatives from roundoff clamp to 0.
        let sigma: Vec<f64> = lambda.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let top = kept.sigma.first().unwrap_or(&sigma[0]);
        let u = left_vectors(&self.a, &v, &sigma, *top);
        append_columns(&mut kept.v, &v);
        append_columns(&mut kept.u, &u);
        kept.sigma.extend(sigma);
        kept.lambda.extend(lambda);
    }
}

/// Appends `more`'s columns to `kept`, one contiguous column each,
/// without the spare capacity of amortized growth: kept triplets grow a
/// few times per input, and live as long as it does.
fn append_columns(kept: &mut Vec<f64>, more: &Matrix) {
    kept.reserve_exact(more.rows() * more.cols());
    for c in 0..more.cols() {
        kept.extend((0..more.rows()).map(|r| more[(r, c)]));
    }
}

/// Locks one solver's kept triplets. A call that panicked while holding
/// the lock left them unchanged (see [`TopTriplets::grow`]), so a
/// poisoned lock is taken as it is.
fn lock(kept: &Mutex<Kept>) -> MutexGuard<'_, Kept> {
    kept.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The top-`k` SVD of `a` with `a`'s [`gram_reduction`].
#[cfg(test)]
pub fn svd_top_k(a: &Matrix, k: usize, method: SvdMethod) -> Result<Svd, EigenDidNotConverge> {
    svd_reduced(a, &gram_reduction(a), k, method)
}

/// Computes the top-`k` SVD of `a` with the selected eigensolver, from
/// `reduction`, which must be `gram_reduction(a)`: one call's whole
/// decomposition, as image compression ran it per trial before
/// [`TopTriplets`] kept it, and the bit-identity oracle for it.
///
/// # Errors
///
/// Returns `EigenDidNotConverge` if the underlying QL iteration
/// fails.
#[cfg(test)]
pub fn svd_reduced(
    a: &Matrix,
    reduction: &Tridiagonalization,
    k: usize,
    method: SvdMethod,
) -> Result<Svd, EigenDidNotConverge> {
    let m = a.rows();
    let n = a.cols();
    let k = k.min(m.min(n)).max(1);

    // Eigenpairs of the tridiagonal form, largest k.
    let (mut values, tri_vectors) = match method {
        SvdMethod::Qr => {
            let eig = eigen_tridiagonal(&reduction.tridiag, None)?;
            take_top_k(eig.values, eig.vectors, k)
        }
        SvdMethod::DivideAndConquer => {
            let eig = eigen_dc_tridiagonal(&reduction.tridiag)?;
            take_top_k(eig.values, eig.vectors, k)
        }
        SvdMethod::Bisection => {
            let eig = eigen_bisect::largest_eigenpairs(&reduction.tridiag, k);
            // `largest_eigenpairs` returns ascending; flip to
            // descending.
            let p = eig.values.len();
            let values: Vec<f64> = eig.values.iter().rev().copied().collect();
            let vectors =
                Matrix::from_fn(eig.vectors.rows(), p, |i, j| eig.vectors[(i, p - 1 - j)]);
            (values, vectors)
        }
    };

    // Map tridiagonal eigenvectors back to right singular vectors.
    let v = reduction.q.matmul(&tri_vectors);
    // σ = sqrt(max(λ, 0)); tiny negatives from roundoff clamp to 0.
    for val in &mut values {
        *val = val.max(0.0);
    }
    let sigma: Vec<f64> = values.iter().map(|&l| l.sqrt()).collect();

    let u = left_vectors(a, &v, &sigma, sigma[0]);
    Ok(Svd { u, sigma, v })
}

/// `AᵀA`, to the bit what `a.transpose().matmul(a)` gives for finite
/// `a`. That product sums entry `(i, j)` as `Σₜ a[t][i]·a[t][j]` from
/// 0.0 in ascending `t`, skipping each `t` with `a[t][i] == 0.0`; entry
/// `(j, i)` adds the same products in the same order, skipping where
/// `a[t][j] == 0.0` instead. A skipped product is an exact zero, and
/// adding one leaves every partial sum (never `-0.0` from a 0.0 start)
/// unchanged, so the two entries share their bits: the lower triangle
/// is computed and mirrored.
fn gram(a: &Matrix) -> Matrix {
    let n = a.cols();
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        let out_row = &mut out[i * n..=i * n + i];
        for t in 0..a.rows() {
            let ati = a[(t, i)];
            if ati == 0.0 {
                continue;
            }
            for (o, &atj) in out_row.iter_mut().zip(a.row(t)) {
                *o += ati * atj;
            }
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            out[i * n + j] = out[j * n + i];
        }
    }
    Matrix::from_vec(n, n, out)
}

/// `uⱼ = A·vⱼ/σⱼ` for every column `vⱼ` of `v`, zero where `σⱼ` is
/// negligible against `top`, the largest singular value, in one pass
/// over `A`: row `i` accumulates all its `k` products `(A·vⱼ)ᵢ` in
/// lockstep, each summed over `A`'s row in ascending order from
/// `A.matvec(vⱼ)`'s starting value, so each column's bits do not depend
/// on the others.
fn left_vectors(a: &Matrix, v: &Matrix, sigma: &[f64], top: f64) -> Matrix {
    let m = a.rows();
    let k = sigma.len();
    let floor = f64::EPSILON * top.max(1.0);
    let mut u = vec![0.0; m * k];
    let mut av = vec![0.0; k];
    for (i, u_row) in u.chunks_exact_mut(k.max(1)).enumerate() {
        av.fill(-0.0);
        for (l, &ail) in a.row(i).iter().enumerate() {
            for (s, &vlj) in av.iter_mut().zip(v.row(l)) {
                *s += ail * vlj;
            }
        }
        for ((uij, &s), &sj) in u_row.iter_mut().zip(&av).zip(sigma) {
            if sj > floor {
                *uij = s / sj;
            }
        }
    }
    Matrix::from_vec(m, k, u)
}

/// Selects the top `k` eigenpairs from an ascending decomposition,
/// returning them descending.
#[cfg(test)]
fn take_top_k(values: Vec<f64>, vectors: Matrix, k: usize) -> (Vec<f64>, Matrix) {
    let n = values.len();
    let k = k.min(n);
    let top_values: Vec<f64> = values[n - k..].iter().rev().copied().collect();
    let top_vectors = Matrix::from_fn(vectors.rows(), k, |i, j| vectors[(i, n - 1 - j)]);
    (top_values, top_vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, SIZES};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const METHODS: [SvdMethod; 3] = [
        SvdMethod::Qr,
        SvdMethod::DivideAndConquer,
        SvdMethod::Bisection,
    ];

    fn assert_svd_bits_eq(got: &Svd, want: &Svd, what: &str) {
        assert_bits_eq(&got.sigma, &want.sigma, &format!("{what}: σ"));
        assert_bits_eq(got.v.as_slice(), want.v.as_slice(), &format!("{what}: V"));
        assert_bits_eq(got.u.as_slice(), want.u.as_slice(), &format!("{what}: U"));
    }

    /// A fresh matrix's top-`k` SVD: its own `TopTriplets`, checked
    /// against the per-call body they replaced.
    fn fresh_top_k(a: &Matrix, k: usize, method: SvdMethod) -> Svd {
        let fresh = TopTriplets::new(a.clone()).top_k(k, method).unwrap();
        let what = format!("fresh {method:?} k={k}");
        assert_svd_bits_eq(&fresh, &svd_top_k(a, k, method).unwrap(), &what);
        fresh
    }

    /// One shared `TopTriplets` per size, asked for every solver at
    /// ranks that grow, shrink and revisit its kept triplets: in
    /// ascending and descending rank per solver, with the solvers
    /// interleaved, and from four threads at once. Every SVD must be a
    /// fresh matrix's, bit for bit.
    #[test]
    fn kept_triplets_match_fresh_inputs_bit_for_bit() {
        for n in [16usize, 48, 96] {
            let a = Matrix::random_uniform(n, n, &mut SmallRng::seed_from_u64(n as u64));
            let ranks = [1, n / 2, n, 3, n - 1];
            let fresh: Vec<Vec<Svd>> = METHODS
                .iter()
                .map(|&method| ranks.iter().map(|&k| fresh_top_k(&a, k, method)).collect())
                .collect();
            let mut ascending = Vec::new();
            let mut descending = Vec::new();
            let mut interleaved = Vec::new();
            for s in 0..METHODS.len() {
                let mut by_rank: Vec<usize> = (0..ranks.len()).collect();
                by_rank.sort_by_key(|&r| ranks[r]);
                ascending.extend(by_rank.iter().map(|&r| (s, r)));
                descending.extend(by_rank.iter().rev().map(|&r| (s, r)));
            }
            for r in 0..ranks.len() {
                interleaved.extend((0..METHODS.len()).map(|s| (s, r)));
            }
            let check = |kept: &TopTriplets, order: &[(usize, usize)], label: &str| {
                for &(s, r) in order {
                    let got = kept.top_k(ranks[r], METHODS[s]).unwrap();
                    let what = format!("n={n} {label} {:?} k={}", METHODS[s], ranks[r]);
                    assert_svd_bits_eq(&got, &fresh[s][r], &what);
                }
            };
            let orders = [
                ("ascending", &ascending),
                ("descending", &descending),
                ("interleaved", &interleaved),
            ];
            for (label, order) in orders {
                check(&TopTriplets::new(a.clone()), order, label);
            }
            let shared = TopTriplets::new(a.clone());
            std::thread::scope(|scope| {
                for (i, order) in [&ascending, &descending, &interleaved, &ascending]
                    .into_iter()
                    .enumerate()
                {
                    let (check, shared) = (&check, &shared);
                    scope.spawn(move || {
                        let mut order = order.clone();
                        order.rotate_left(i * 4);
                        check(shared, &order, &format!("thread {i}"));
                    });
                }
            });
        }
    }

    /// `H₁·D·H₂` for Householder reflectors `Hᵢ = I − 2·w·wᵀ/(wᵀw)`: its
    /// singular values are `|D|`'s entries.
    fn reflected(d: &[f64], rng: &mut SmallRng) -> Matrix {
        let n = d.len();
        let mut reflector = || {
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let ww: f64 = w.iter().map(|x| x * x).sum();
            Matrix::from_fn(n, n, |i, j| {
                f64::from(u8::from(i == j)) - 2.0 * w[i] * w[j] / ww
            })
        };
        let (h1, h2) = (reflector(), reflector());
        h1.matmul(&Matrix::from_fn(
            n,
            n,
            |i, j| if i == j { d[i] } else { 0.0 },
        ))
        .matmul(&h2)
    }

    /// Singular values repeated at the top, in the middle and at the
    /// bottom of the spectrum, so bisection orthogonalizes vectors
    /// against clusters that change with the rank: on one shared
    /// `TopTriplets`, every solver at ranks growing one by one, then
    /// shrinking, must give a fresh matrix's SVD bit for bit.
    #[test]
    fn kept_triplets_match_fresh_inputs_on_clustered_spectra() {
        let d = [
            5.0, 5.0, 5.0, 4.0, 3.5, 3.0, 3.0, 2.5, 2.0, 2.0, 2.0, 2.0, 1.5, 1.0, 0.5, 0.5,
        ];
        let n = d.len();
        let a = reflected(&d, &mut SmallRng::seed_from_u64(17));
        let ranks: Vec<usize> = (1..=n).chain((1..n).rev()).collect();
        for method in METHODS {
            let shared = TopTriplets::new(a.clone());
            for &k in &ranks {
                let what = format!("clustered {method:?} k={k}");
                let got = shared.top_k(k, method).unwrap();
                assert_svd_bits_eq(&got, &fresh_top_k(&a, k, method), &what);
            }
        }
        // The check above reached both kinds of bisection vector: some
        // rank has clustered vectors, and the top vector is free at
        // rank 1 and clustered at rank 2.
        let shared = TopTriplets::new(a);
        let _ = shared.top_k(n, SvdMethod::Bisection);
        let t = &shared.reduction.tridiag;
        let kept = lock(&shared.kept[SvdMethod::Bisection as usize]);
        let clustered_at = |k: usize| {
            let ascending: Vec<f64> = kept.lambda[..k].iter().rev().copied().collect();
            let clustered = eigen_bisect::clustered_vectors(t, &ascending);
            clustered
                .iter()
                .map(|&(i, _)| k - 1 - i)
                .collect::<Vec<_>>()
        };
        assert_eq!(clustered_at(1), Vec::<usize>::new());
        assert_eq!(clustered_at(2), vec![0]);
        assert_eq!(clustered_at(3), vec![1, 0]);
        assert!((4..=n).all(|k| !clustered_at(k).is_empty()));
    }

    /// Entry-by-entry accumulation walking a column of `V` — the
    /// reconstruction before the transposed form: the bit-identity
    /// oracle.
    fn reconstruct_reference(svd: &Svd) -> Matrix {
        let m = svd.u.rows();
        let n = svd.v.rows();
        let k = svd.rank();
        let mut out = Matrix::zeros(m, n);
        for t in 0..k {
            let s = svd.sigma[t];
            for i in 0..m {
                let us = svd.u[(i, t)] * s;
                if us == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += us * svd.v[(j, t)];
                }
            }
        }
        out
    }

    #[test]
    fn transposed_reconstruction_matches_column_walk_bit_for_bit() {
        for &n in &SIZES {
            for seed in [3u64, 30] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let a = Matrix::random_uniform(n + 2, n, &mut rng);
                for method in METHODS {
                    for k in [1, n.div_ceil(2), n] {
                        let mut svd = svd_top_k(&a, k, method).unwrap();
                        // A zero left vector (what a zero singular
                        // value leaves) takes the `us == 0.0` skip.
                        let last = svd.rank() - 1;
                        for i in 0..svd.u.rows() {
                            svd.u[(i, last)] = 0.0;
                        }
                        assert_bits_eq(
                            svd.reconstruct().as_slice(),
                            reconstruct_reference(&svd).as_slice(),
                            &format!("n={n} seed={seed} {method:?} k={k}"),
                        );
                    }
                }
            }
        }
    }

    /// The left vectors one column at a time, each a `col()` copy of
    /// `vⱼ` and a `matvec`: the body before the lockstep pass, and the
    /// bit-identity oracle.
    fn left_vectors_reference(a: &Matrix, v: &Matrix, sigma: &[f64]) -> Matrix {
        let m = a.rows();
        let k = sigma.len();
        let mut u = Matrix::zeros(m, k);
        for j in 0..k {
            let vj = v.col(j);
            let avj = a.matvec(&vj);
            if sigma[j] > f64::EPSILON * sigma.first().copied().unwrap_or(1.0).max(1.0) {
                for i in 0..m {
                    u[(i, j)] = avj[i] / sigma[j];
                }
            }
        }
        u
    }

    /// Tall, square and wide inputs at every oracle size, whole or with
    /// zero entries (the product's skips) and zero columns.
    #[test]
    fn mirrored_gram_matches_the_transposed_product_bit_for_bit() {
        for &n in &SIZES {
            for (rows, seed) in [(n + 2, 7u64), (n, 70), (n.div_ceil(2), 700)] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let whole = Matrix::random_uniform(rows, n, &mut rng);
                let mut holes = whole.clone();
                for t in 0..rows {
                    for j in 0..n {
                        if (t * 7 + j * 3) % 5 == 0 || j == n / 2 {
                            holes[(t, j)] = 0.0;
                        }
                    }
                }
                let signed = Matrix::from_fn(rows, n, |t, j| match (t + 2 * j) % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen_range(-1.0..1.0),
                });
                let cases = [
                    ("whole", whole),
                    ("holes", holes),
                    ("signed zeros", signed),
                    ("zero", Matrix::zeros(rows, n)),
                ];
                for (label, a) in cases {
                    assert_bits_eq(
                        gram(&a).as_slice(),
                        a.transpose().matmul(&a).as_slice(),
                        &format!("{rows}x{n} {label}"),
                    );
                }
            }
        }
    }

    /// Tall, square and wide inputs at every oracle size, each method
    /// and rank; then the same singular vectors with a zero and a
    /// negligible singular value, which must leave zero columns.
    #[test]
    fn lockstep_left_vectors_match_matvec_columns_bit_for_bit() {
        for &n in &SIZES {
            for (rows, seed) in [(n + 2, 5u64), (n, 50), (n.div_ceil(2), 500)] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let a = Matrix::random_uniform(rows, n, &mut rng);
                for method in METHODS {
                    for k in [1, n.div_ceil(2), n] {
                        let svd = svd_top_k(&a, k, method).unwrap();
                        let what = format!("{rows}x{n} {method:?} k={k}");
                        let want = left_vectors_reference(&a, &svd.v, &svd.sigma);
                        assert_bits_eq(svd.u.as_slice(), want.as_slice(), &what);
                        let mut sigma = svd.sigma.clone();
                        let last = sigma.len() - 1;
                        sigma[last] = 0.0;
                        sigma[last / 2] = f64::EPSILON / 2.0;
                        assert_bits_eq(
                            left_vectors(&a, &svd.v, &sigma, sigma[0]).as_slice(),
                            left_vectors_reference(&a, &svd.v, &sigma).as_slice(),
                            &format!("{what} with negligible σ"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_matrix_sigma_exact() {
        let a = Matrix::from_rows(&[&[0.0, 4.0], &[1.0, 0.0]]);
        for method in METHODS {
            let svd = svd_top_k(&a, 2, method).unwrap();
            assert!((svd.sigma[0] - 4.0).abs() < 1e-9, "{method:?}");
            assert!((svd.sigma[1] - 1.0).abs() < 1e-9, "{method:?}");
        }
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let mut rng = SmallRng::seed_from_u64(77);
        let a = Matrix::random_uniform(8, 8, &mut rng);
        for method in METHODS {
            let svd = svd_top_k(&a, 8, method).unwrap();
            let err = a.sub(&svd.reconstruct()).max_abs();
            assert!(err < 1e-6, "{method:?}: reconstruction error {err}");
        }
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let mut rng = SmallRng::seed_from_u64(78);
        let a = Matrix::random_uniform(12, 12, &mut rng);
        let mut last_err = f64::INFINITY;
        for k in [1, 3, 6, 12] {
            let svd = svd_top_k(&a, k, SvdMethod::Qr).unwrap();
            let err = a.sub(&svd.reconstruct()).frobenius_norm();
            assert!(err <= last_err + 1e-9, "rank {k} error {err} > {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-6, "full rank is exact");
    }

    #[test]
    fn eckart_young_error_matches_tail_singular_values() {
        // ‖A − A_k‖_F² = Σ_{i>k} σᵢ².
        let mut rng = SmallRng::seed_from_u64(79);
        let a = Matrix::random_uniform(10, 10, &mut rng);
        let full = svd_top_k(&a, 10, SvdMethod::Qr).unwrap();
        let k = 4;
        let trunc = svd_top_k(&a, k, SvdMethod::Qr).unwrap();
        let err = a.sub(&trunc.reconstruct()).frobenius_norm();
        let tail: f64 = full.sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-6, "err {err} vs tail {tail}");
    }

    #[test]
    fn methods_agree_on_top_singular_values() {
        let mut rng = SmallRng::seed_from_u64(80);
        let a = Matrix::random_uniform(15, 15, &mut rng);
        let qr = svd_top_k(&a, 5, SvdMethod::Qr).unwrap();
        let dc = svd_top_k(&a, 5, SvdMethod::DivideAndConquer).unwrap();
        let bi = svd_top_k(&a, 5, SvdMethod::Bisection).unwrap();
        for i in 0..5 {
            assert!((qr.sigma[i] - dc.sigma[i]).abs() < 1e-7, "i={i}");
            assert!((qr.sigma[i] - bi.sigma[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn rectangular_matrices() {
        let mut rng = SmallRng::seed_from_u64(81);
        let a = Matrix::random_uniform(9, 5, &mut rng);
        let svd = svd_top_k(&a, 5, SvdMethod::Qr).unwrap();
        assert_eq!(svd.u.rows(), 9);
        assert_eq!(svd.v.rows(), 5);
        let err = a.sub(&svd.reconstruct()).max_abs();
        assert!(err < 1e-6);
    }

    #[test]
    fn singular_values_are_descending() {
        let mut rng = SmallRng::seed_from_u64(83);
        let a = Matrix::random_uniform(7, 7, &mut rng);
        for method in METHODS {
            let svd = svd_top_k(&a, 7, method).unwrap();
            for w in svd.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "{method:?}");
            }
        }
    }
}
