//! Inputs and the comparison shared by the bit-identity oracles: each
//! rewritten kernel keeps its previous body as a `#[cfg(test)]`
//! reference and must reproduce it `to_bits`-exactly on all of these.
//! The multigrid benchmarks also pin whole trials, and their cycle
//! shapes, by hash.

use crate::matrix::Matrix;
use crate::tridiag::SymmetricTridiagonal;
use pb_config::{Config, DecisionTree, Schema, Value};
use pb_runtime::{ExecCtx, TraceNode, Transform};
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

/// Each tunable of `schema`, in order, as `name kind { range } =
/// default`: what a pinned schema holds.
pub(crate) fn schema_lines(schema: &Schema) -> Vec<String> {
    let defaults = schema.default_config();
    schema
        .iter()
        .map(|(id, t)| format!("{} {:?} = {}", t.name(), t.kind(), defaults.get(id)))
        .collect()
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Writes a trace tree as `label(point point child child)`: the scope
/// labels and point events Fig. 8 renders, in order.
fn write_shape(node: &TraceNode, out: &mut String) {
    out.push_str(&node.label);
    out.push('(');
    for point in &node.points {
        out.push_str(point);
        out.push(' ');
    }
    for child in &node.children {
        write_shape(child, out);
    }
    out.push(')');
}

/// One traced trial of `t` at `config` on `input`, as two FNV-1a
/// hashes: the trial's, over the `to_bits` of the output's values (its
/// `values` slices in order), the virtual cost and the accuracy (equal
/// hashes mean a bit-identical trial), then its cycle shape's, over
/// the trace tree.
pub(crate) fn trial_hash<T: Transform>(
    t: &T,
    config: &Config,
    input: &T::Input,
    n: u64,
    values: impl Fn(&T::Output) -> Vec<&[f64]>,
) -> (u64, u64) {
    trial_hash_words(t, config, input, n, |out| {
        values(out)
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    })
}

/// [`trial_hash`] over the 64-bit words `words` reads off the output,
/// for outputs that are not all floats.
pub(crate) fn trial_hash_words<T: Transform>(
    t: &T,
    config: &Config,
    input: &T::Input,
    n: u64,
    words: impl Fn(&T::Output) -> Vec<u64>,
) -> (u64, u64) {
    let schema = t.schema();
    let mut ctx = ExecCtx::new(&schema, config, n, 0);
    ctx.enable_trace();
    let out = t.execute(input, &mut ctx);
    let tail = [ctx.virtual_cost(), t.accuracy(input, &out)].map(f64::to_bits);
    let trial = words(&out)
        .into_iter()
        .chain(tail)
        .fold(FNV_OFFSET, |h, w| fnv(h, &w.to_le_bytes()));
    let mut shape = String::new();
    write_shape(&ctx.trace_tree(), &mut shape);
    (trial, fnv(FNV_OFFSET, shape.as_bytes()))
}
