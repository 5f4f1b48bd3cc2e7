//! Inputs and the comparison shared by the bit-identity oracles: each
//! rewritten kernel keeps its previous body as a `#[cfg(test)]`
//! reference and must reproduce it `to_bits`-exactly on all of these.

use crate::matrix::Matrix;
use crate::tridiag::SymmetricTridiagonal;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Sizes around the kernels' edges: no Householder step (1, 2), one
/// step (3), lane remainders, the D&C base case (33 > 32) and the
/// ledger's image size (96).
pub(crate) const SIZES: [usize; 8] = [1, 2, 3, 4, 7, 16, 33, 96];

const SEEDS: [u64; 3] = [1, 20, 300];

/// Labelled symmetric matrices: Gram matrices `AᵀA` of `U(0, 1)`
/// inputs (what image compression reduces) and `random_symmetric`, at
/// every size and seed, plus the structured cases where a skipped
/// product with zero could flip a sign.
pub(crate) fn symmetric_cases() -> Vec<(String, Matrix)> {
    let mut cases = Vec::new();
    for &n in &SIZES {
        for &seed in &SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = Matrix::random_uniform(n, n, &mut rng);
            cases.push((format!("gram n={n} seed={seed}"), a.transpose().matmul(&a)));
            cases.push((
                format!("symmetric n={n} seed={seed}"),
                Matrix::random_symmetric(n, &mut rng),
            ));
        }
    }
    for &n in &SIZES[2..] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let dense = Matrix::random_symmetric(n, &mut rng);
        let diag: Vec<f64> = (0..n).map(|i| dense[(i, i)]).collect();
        let off: Vec<f64> = (1..n).map(|i| dense[(i, i - 1)]).collect();
        cases.push((
            format!("tridiagonal n={n}"),
            SymmetricTridiagonal::new(diag.clone(), off).to_dense(),
        ));
        cases.push((
            format!("diagonal n={n}"),
            SymmetricTridiagonal::new(diag, vec![0.0; n - 1]).to_dense(),
        ));
        cases.push((format!("zero n={n}"), Matrix::zeros(n, n)));
        // Column 0 is zero below the diagonal (`alpha == 0.0` skips the
        // first step) and so is column 1 below its sub-diagonal (the
        // second step's vector is a unit vector).
        let mut gapped = dense.clone();
        for i in 1..n {
            gapped[(i, 0)] = 0.0;
            gapped[(0, i)] = 0.0;
        }
        for i in 3..n {
            gapped[(i, 1)] = 0.0;
            gapped[(1, i)] = 0.0;
        }
        cases.push((format!("zero sub-columns n={n}"), gapped));
    }
    cases
}

/// Asserts that two float sequences are equal bit for bit.
pub(crate) fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i}: {g:e} vs {w:e}"
        );
    }
}
