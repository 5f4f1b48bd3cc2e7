//! Image compression benchmark (§6.1.4).
//!
//! Compresses an `n × n` "image" (entries `U(0, 1)` as in the paper)
//! by storing its best rank-`k` approximation from the SVD. The number
//! of singular values `k` is the accuracy variable; the algorithmic
//! choice is the eigensolver: the full-spectrum hybrid (QR iteration
//! or divide-and-conquer) versus "Bisection method for only k
//! eigenvalues and eigenvectors".
//!
//! Accuracy metric: "the ratio between the RMS error of the initial
//! guess (the zero matrix) to the RMS error of the output compared
//! with the input matrix A, converted to log-scale" —
//! `log₁₀(rms(A) / rms(A − A_k))`.

use crate::matrix::Matrix;
use crate::svd::{Svd, SvdMethod, TopTriplets};
use pb_config::Schema;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;

/// Eigensolver choice indices.
pub const SOLVER_NAMES: [&str; 3] = ["qr", "divide_and_conquer", "bisection_k"];

/// One image to compress, with the part of its SVD that no tunable
/// changes: the tridiagonal reduction of its Gram matrix `AᵀA`, built
/// with the image, and per eigensolver the top singular triplets the
/// trials on it have found so far (`TopTriplets`). QL and divide and
/// conquer decompose the whole spectrum on their first trial, whatever
/// its rank; bisection bisects the eigenvalues it has not yet. A trial
/// of rank `k` grows its solver's triplets to `k` if it must, then
/// copies the top `k` out: the bits a fresh image gives. A trial is
/// still charged for the whole decomposition: a real compression call
/// would pay for it.
#[derive(Debug)]
pub struct Image {
    triplets: TopTriplets,
}

impl Image {
    /// Wraps `pixels`, reducing `AᵀA` once.
    pub fn new(pixels: Matrix) -> Self {
        Image {
            triplets: TopTriplets::new(pixels),
        }
    }

    fn pixels(&self) -> &Matrix {
        self.triplets.matrix()
    }
}

/// The image-compression variable-accuracy transform.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageCompression;

impl Transform for ImageCompression {
    type Input = Image;
    type Output = Svd;

    fn name(&self) -> &str {
        "imagecompression"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("imagecompression");
        s.add_accuracy_variable("rank_k", 1, 2048);
        s.add_choice_site("eigensolver", SOLVER_NAMES.len());
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Image {
        let n = n.max(2) as usize;
        Image::new(Matrix::random_uniform(n, n, rng))
    }

    fn execute(&self, input: &Image, ctx: &mut ExecCtx<'_>) -> Svd {
        let n = input.pixels().rows();
        let k = (ctx.param("rank_k").expect("schema declares rank_k") as usize).clamp(1, n);
        let solver = ctx
            .choice("eigensolver")
            .expect("schema declares eigensolver");
        ctx.event(SOLVER_NAMES[solver.min(2)]);

        let n3 = (n * n * n) as f64;
        let method = match solver {
            0 => {
                // Tridiagonalization + full QL with vector accumulation.
                ctx.charge(n3 + 6.0 * n3);
                SvdMethod::Qr
            }
            1 => {
                // D&C deflation typically saves a large constant.
                ctx.charge(n3 + 2.0 * n3);
                SvdMethod::DivideAndConquer
            }
            _ => {
                // Tridiagonalization + k bisections + k inverse
                // iterations.
                ctx.charge(n3 + (k * n * n) as f64);
                SvdMethod::Bisection
            }
        };
        // Forming u_i = A·vᵢ/σᵢ and later reconstruction are O(k·n²).
        ctx.charge((k * n * n) as f64);
        input
            .triplets
            .top_k(k, method)
            .expect("QL iteration converges on Gram matrices")
    }

    fn accuracy(&self, input: &Image, output: &Svd) -> f64 {
        let initial = input.pixels().rms().max(f64::MIN_POSITIVE);
        let err = input.pixels().sub(&output.reconstruct()).rms();
        if err <= 0.0 {
            return 16.0;
        }
        (initial / err).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::trial_hash;
    use pb_config::{Config, DecisionTree, Value};
    use rand::SeedableRng;

    fn run(k: i64, solver: usize, n: u64) -> (f64, f64) {
        let t = ImageCompression;
        let schema = t.schema();
        let mut config: Config = schema.default_config();
        config
            .set_by_name(&schema, "rank_k", Value::Int(k))
            .unwrap();
        config
            .set_by_name(
                &schema,
                "eigensolver",
                Value::Tree(DecisionTree::single(solver)),
            )
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let input = t.generate_input(n, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, n, 0);
        let out = t.execute(&input, &mut ctx);
        (t.accuracy(&input, &out), ctx.virtual_cost())
    }

    /// Whole-trial hashes (the `U`, `σ` and `V` bits, virtual cost and
    /// accuracy) taken before the Householder products ran four rows in
    /// lockstep and the left vectors came from one pass over `A`.
    const PINS: [&str; 27] = [
        "n16 qr k=1: adcc52f62d5b1af5",
        "n16 qr k=8: 5a5f4bd1e6025588",
        "n16 qr k=16: b3f40b4c0f8a9d78",
        "n16 divide_and_conquer k=1: 31ecc854274ce021",
        "n16 divide_and_conquer k=8: 35c4239545d53d9a",
        "n16 divide_and_conquer k=16: f56276e44c2b02a8",
        "n16 bisection_k k=1: fc9adfad52a60eb2",
        "n16 bisection_k k=8: 2fe866026039ad59",
        "n16 bisection_k k=16: fb6dc4054367092c",
        "n48 qr k=1: 379f46739d4b2c0e",
        "n48 qr k=24: 91819689bae5b528",
        "n48 qr k=48: 40912567a0bc9408",
        "n48 divide_and_conquer k=1: b418e24ee4346b08",
        "n48 divide_and_conquer k=24: ec54a072bcf25d00",
        "n48 divide_and_conquer k=48: ce407e5d55de6318",
        "n48 bisection_k k=1: ccb7c244b7788333",
        "n48 bisection_k k=24: 9e4efc8743e47a03",
        "n48 bisection_k k=48: ed62524b2c83472c",
        "n96 qr k=1: 5d48712ba66f6c37",
        "n96 qr k=48: aeab5694c8cbe87e",
        "n96 qr k=96: 8e290739554a176e",
        "n96 divide_and_conquer k=1: 7fedcc10d6f65c56",
        "n96 divide_and_conquer k=48: 6041de13003acabc",
        "n96 divide_and_conquer k=96: 55c30c2b18b8e13a",
        "n96 bisection_k k=1: 8b925d13ac5f61aa",
        "n96 bisection_k k=48: 8f2b28284325b881",
        "n96 bisection_k k=96: d33ec953f8845eb5",
    ];

    #[test]
    fn whole_trials_match_their_pins() {
        let t = ImageCompression;
        let schema = t.schema();
        let mut got = Vec::new();
        for n in [16u64, 48, 96] {
            let input = t.generate_input(n, &mut SmallRng::seed_from_u64(n));
            for (solver, name) in SOLVER_NAMES.iter().enumerate() {
                for k in [1, n / 2, n] {
                    let mut config = schema.default_config();
                    let tree = Value::Tree(DecisionTree::single(solver));
                    config.set_by_name(&schema, "eigensolver", tree).unwrap();
                    config
                        .set_by_name(&schema, "rank_k", Value::Int(k as i64))
                        .unwrap();
                    let (hash, _) = trial_hash(&t, &config, &input, n, |svd| {
                        vec![svd.u.as_slice(), &svd.sigma, svd.v.as_slice()]
                    });
                    got.push(format!("n{n} {name} k={k}: {hash:016x}"));
                }
            }
        }
        assert_eq!(got, PINS);
    }

    #[test]
    fn accuracy_grows_with_rank() {
        let (a1, _) = run(1, 0, 24);
        let (a8, _) = run(8, 0, 24);
        let (a24, _) = run(24, 0, 24);
        assert!(a1 < a8 && a8 < a24, "{a1} {a8} {a24}");
        assert!(a24 > 9.0, "full rank is near-exact: {a24}");
    }

    #[test]
    fn solvers_agree_on_accuracy() {
        let (qr, _) = run(6, 0, 20);
        let (dc, _) = run(6, 1, 20);
        let (bi, _) = run(6, 2, 20);
        assert!((qr - dc).abs() < 0.05, "qr {qr} vs dc {dc}");
        assert!((qr - bi).abs() < 0.05, "qr {qr} vs bisect {bi}");
    }

    #[test]
    fn bisection_is_cheaper_for_small_k() {
        let (_, qr_cost) = run(2, 0, 32);
        let (_, bi_cost) = run(2, 2, 32);
        assert!(
            bi_cost < qr_cost,
            "bisection ({bi_cost}) should undercut QR ({qr_cost}) at k=2"
        );
    }

    #[test]
    fn rank_is_clamped_to_dimension() {
        let t = ImageCompression;
        let schema = t.schema();
        let mut config = schema.default_config();
        config
            .set_by_name(&schema, "rank_k", Value::Int(2048))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let input = t.generate_input(8, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 8, 0);
        let out = t.execute(&input, &mut ctx);
        assert_eq!(out.rank(), 8);
    }
}
