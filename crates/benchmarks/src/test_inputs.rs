//! Inputs and the comparison shared by the bit-identity oracles: each
//! rewritten kernel keeps its previous body as a `#[cfg(test)]`
//! reference and must reproduce it `to_bits`-exactly on all of these.
//! The multigrid benchmarks also pin whole trials by hash.

use crate::matrix::Matrix;
use crate::tridiag::SymmetricTridiagonal;
use pb_config::{Config, DecisionTree, Schema, Value};
use pb_runtime::{ExecCtx, Transform};
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

/// One configuration per way a multigrid cycle can end: recursing at
/// every one of `levels` tuned levels, and SOR-solving or direct-solving
/// at each level below recursing ones, each as `(label, config)`.
/// `edits` set the remaining tunables.
pub(crate) fn multigrid_configs(
    schema: &Schema,
    levels: usize,
    edits: &[(&str, Value)],
) -> Vec<(String, Config)> {
    let mut base = schema.default_config();
    for (name, v) in edits {
        base.set_by_name(schema, name, v.clone()).unwrap();
    }
    let mut configs = vec![("recurse".to_string(), base.clone())];
    for d in 0..levels {
        for (action, label) in [(1, "sor_solve"), (2, "direct")] {
            let mut c = base.clone();
            let tree = Value::Tree(DecisionTree::single(action));
            c.set_by_name(schema, &format!("level{d}_action"), tree)
                .unwrap();
            configs.push((format!("level{d} {label}"), c));
        }
    }
    configs
}

/// One trial of `t` at `config` on `input`, hashed (FNV-1a) over the
/// `to_bits` of the output's values, the virtual cost and the
/// accuracy: equal hashes mean a bit-identical trial.
pub(crate) fn trial_hash<T: Transform>(
    t: &T,
    config: &Config,
    input: &T::Input,
    n: u64,
    values: impl Fn(&T::Output) -> &[f64],
) -> u64 {
    let schema = t.schema();
    let mut ctx = ExecCtx::new(&schema, config, n, 0);
    let out = t.execute(input, &mut ctx);
    let tail = [ctx.virtual_cost(), t.accuracy(input, &out)];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values(&out).iter().chain(&tail) {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
