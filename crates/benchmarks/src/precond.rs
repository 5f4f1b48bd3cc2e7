//! Preconditioned iterative solver benchmark (§6.1.6).
//!
//! Solves `A·x = b` by conjugate gradients with three preconditioner
//! choices: none (plain CG), the Jacobi preconditioner
//! `P = diag(A)`, and a polynomial preconditioner `P⁻¹ = p(A)` built
//! from a truncated Neumann series. The iteration count is a
//! `for_enough` accuracy variable.
//!
//! The paper uses the discrete Poisson operator, whose diagonal is
//! constant — making Jacobi preconditioning a no-op scaling. To keep
//! the Jacobi choice meaningful we use the variable-coefficient
//! operator `a(x)·u − Δu` with `a ~ U(0, 4)`; the choice structure,
//! accuracy metric, and trade-off shape are unchanged.
//!
//! Accuracy metric: `log₁₀(rms(b − A·x_in) / rms(b − A·x_out))` with
//! `x_in = 0` (the paper's levels 0.0–3.0 are these orders of
//! magnitude).

use pb_config::Schema;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::Rng;

/// Preconditioner choice indices.
pub const METHOD_NAMES: [&str; 3] = ["cg", "jacobi_pcg", "polynomial_pcg"];

/// A symmetric positive-definite operator `a(x)·u − Δu` on an `m × m`
/// grid (5-point stencil, zero Dirichlet boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct SpdOperator {
    m: usize,
    /// Point coefficients `a ≥ 0` (variable diagonal).
    a: Vec<f64>,
}

impl SpdOperator {
    /// A random operator with `a ~ U(0, 4)`.
    pub fn random(m: usize, rng: &mut SmallRng) -> Self {
        SpdOperator {
            m,
            a: (0..m * m).map(|_| rng.gen_range(0.0..4.0)).collect(),
        }
    }

    /// Number of unknowns (`m²`).
    pub fn dim(&self) -> usize {
        self.m * self.m
    }

    /// Diagonal entry at linear index `i`.
    pub fn diag(&self, i: usize) -> f64 {
        self.a[i] + 4.0
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let m = self.m;
        assert_eq!(x.len(), m * m, "vector length mismatch");
        let mut y = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                let idx = i * m + j;
                let mut v = (self.a[idx] + 4.0) * x[idx];
                if i > 0 {
                    v -= x[idx - m];
                }
                if i + 1 < m {
                    v -= x[idx + m];
                }
                if j > 0 {
                    v -= x[idx - 1];
                }
                if j + 1 < m {
                    v -= x[idx + 1];
                }
                y[idx] = v;
            }
        }
        y
    }

    /// RMS of the residual `b − A·x`.
    pub fn residual_rms(&self, x: &[f64], b: &[f64]) -> f64 {
        let ax = self.apply(x);
        let n = b.len() as f64;
        (b.iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            / n)
            .sqrt()
    }
}

/// One problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecondInput {
    /// The operator.
    pub op: SpdOperator,
    /// Right-hand side.
    pub b: Vec<f64>,
}

/// Applies the selected preconditioner `z = P⁻¹·r`.
fn precondition(
    op: &SpdOperator,
    method: usize,
    poly_degree: usize,
    r: &[f64],
    ctx: &mut ExecCtx<'_>,
) -> Vec<f64> {
    match method {
        0 => r.to_vec(),
        1 => {
            // Jacobi: z = D⁻¹·r.
            ctx.charge(r.len() as f64);
            r.iter()
                .enumerate()
                .map(|(i, &ri)| ri / op.diag(i))
                .collect()
        }
        _ => {
            // Truncated Neumann series on the Jacobi splitting:
            // P⁻¹ = Σ_{j=0}^{deg} (I − D⁻¹A)^j · D⁻¹.
            let dinv_r: Vec<f64> = r
                .iter()
                .enumerate()
                .map(|(i, &ri)| ri / op.diag(i))
                .collect();
            let mut z = dinv_r.clone();
            let mut term = dinv_r;
            for _ in 0..poly_degree {
                // term ← (I − D⁻¹A)·term.
                let at = op.apply(&term);
                ctx.charge(5.0 * r.len() as f64);
                for (i, t) in term.iter_mut().enumerate() {
                    *t -= at[i] / op.diag(i);
                }
                for (zi, &ti) in z.iter_mut().zip(&term) {
                    *zi += ti;
                }
            }
            z
        }
    }
}

/// The preconditioned-solver variable-accuracy transform. The tuner's
/// size `n` is the grid dimension per side (`n²` unknowns).
#[derive(Debug, Clone, Copy, Default)]
pub struct Preconditioner;

impl Transform for Preconditioner {
    type Input = PrecondInput;
    type Output = Vec<f64>;

    fn name(&self) -> &str {
        "preconditioner"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("preconditioner");
        s.add_choice_site("method", METHOD_NAMES.len());
        s.add_accuracy_variable("iterations", 1, 2000);
        s.add_user_param("poly_degree", 1, 5);
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> PrecondInput {
        let m = n.max(2) as usize;
        let op = SpdOperator::random(m, rng);
        let b = (0..m * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        PrecondInput { op, b }
    }

    fn execute(&self, input: &PrecondInput, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let op = &input.op;
        let b = &input.b;
        let dim = op.dim();
        let method = ctx.choice("method").expect("schema declares method");
        let max_iters = ctx.for_enough("iterations").expect("schema");
        let degree = ctx.param("poly_degree").expect("schema") as usize;
        ctx.event(METHOD_NAMES[method.min(2)]);

        // Preconditioned conjugate gradients from x = 0.
        let mut x = vec![0.0; dim];
        let mut r = b.clone();
        let mut z = precondition(op, method, degree, &r, ctx);
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        for _ in 0..max_iters {
            if rz.abs() < 1e-300 {
                break;
            }
            let ap = op.apply(&p);
            ctx.charge(5.0 * dim as f64);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap <= 0.0 {
                break;
            }
            let alpha = rz / pap;
            for (xi, &pi) in x.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, &api) in r.iter_mut().zip(&ap) {
                *ri -= alpha * api;
            }
            z = precondition(op, method, degree, &r, ctx);
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for (pi, &zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
            ctx.charge(4.0 * dim as f64);
        }
        x
    }

    fn accuracy(&self, input: &PrecondInput, output: &Vec<f64>) -> f64 {
        let n = input.b.len() as f64;
        let initial = (input.b.iter().map(|v| v * v).sum::<f64>() / n)
            .sqrt()
            .max(f64::MIN_POSITIVE);
        let after = input.op.residual_rms(output, &input.b);
        if after <= 0.0 {
            return 16.0;
        }
        (initial / after).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::{Config, DecisionTree, Value};
    use rand::SeedableRng;

    fn run(method: usize, iters: i64, n: u64, seed: u64) -> (f64, f64) {
        let t = Preconditioner;
        let schema = t.schema();
        let mut config: Config = schema.default_config();
        config
            .set_by_name(&schema, "method", Value::Tree(DecisionTree::single(method)))
            .unwrap();
        config
            .set_by_name(&schema, "iterations", Value::Int(iters))
            .unwrap();
        config
            .set_by_name(&schema, "poly_degree", Value::Int(3))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let input = t.generate_input(n, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, n, 0);
        let out = t.execute(&input, &mut ctx);
        (t.accuracy(&input, &out), ctx.virtual_cost())
    }

    #[test]
    fn operator_is_spd() {
        let mut rng = SmallRng::seed_from_u64(1);
        let op = SpdOperator::random(5, &mut rng);
        // Symmetry: check ⟨A·x, y⟩ = ⟨x, A·y⟩ on random vectors.
        let x: Vec<f64> = (0..25).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..25).map(|i| (i as f64).cos()).collect();
        let ax = op.apply(&x);
        let ay = op.apply(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
        // Positive definiteness: xᵀA·x > 0.
        let xax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!(xax > 0.0);
    }

    #[test]
    fn all_methods_converge() {
        for method in 0..3 {
            let (acc, _) = run(method, 500, 12, 2);
            assert!(
                acc > 6.0,
                "{} only reached {acc} orders",
                METHOD_NAMES[method]
            );
        }
    }

    #[test]
    fn accuracy_grows_with_iterations() {
        let (a5, _) = run(0, 5, 16, 3);
        let (a50, _) = run(0, 50, 16, 3);
        assert!(a50 > a5, "{a50} !> {a5}");
    }

    #[test]
    fn preconditioning_reduces_iterations_to_reach_target() {
        // Count iterations to 6 orders via bisection over `iters`.
        let needed = |method: usize| -> i64 {
            let mut lo = 1i64;
            let mut hi = 1024;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let (acc, _) = run(method, mid, 16, 4);
                if acc >= 6.0 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        let cg = needed(0);
        let jacobi = needed(1);
        let poly = needed(2);
        assert!(
            jacobi <= cg,
            "Jacobi PCG ({jacobi}) needs no more iterations than CG ({cg})"
        );
        assert!(
            poly <= jacobi,
            "polynomial PCG ({poly}) needs no more iterations than Jacobi ({jacobi})"
        );
    }

    #[test]
    fn polynomial_iterations_cost_more_each() {
        let (_, cg_cost) = run(0, 20, 16, 5);
        let (_, poly_cost) = run(2, 20, 16, 5);
        assert!(poly_cost > cg_cost);
    }
}
