//! The tuned multigrid solver shared by the Poisson (§6.1.5) and
//! Helmholtz (§6.1.3) benchmarks.
//!
//! At every recursion level the configuration picks one of three
//! building blocks — recurse to the coarser grid with tuned pre- and
//! post-relaxations, iterate Red-Black SOR to a tuned count, or solve
//! directly — and the execution trace records the resulting cycle
//! shape (Fig. 8): one `n<size>` scope per level, a `relax` point per
//! SOR sweep and a `direct` point per direct solve. An [`Operator`]
//! supplies the per-problem kernels and their virtual costs.

use crate::grid::Grid;
use pb_config::Schema;
use pb_runtime::ExecCtx;

/// Per-level action choices.
const ACTION_NAMES: [&str; 3] = ["recurse", "sor_solve", "direct"];

/// The indices of `sor_solve` and `direct` in [`ACTION_NAMES`].
const SOR_SOLVE: usize = 1;
const DIRECT: usize = 2;

/// A discretized operator on `D`-dimensional grids: the kernels one
/// multigrid level runs, each charging its own virtual cost where the
/// cost depends on the problem.
pub trait Operator<const D: usize>: Sized {
    /// Recursion depths with dedicated tunables; deeper levels reuse
    /// the deepest set.
    const MAX_LEVELS: usize;
    /// The largest tunable `cycles` count.
    const MAX_CYCLES: i64;
    /// Virtual cost of one residual, per grid point.
    const RESIDUAL_COST: f64;

    /// One Red-Black SOR sweep of `A·u = b` with weight `omega`,
    /// charged.
    fn relax(&self, u: &mut Grid<D>, b: &Grid<D>, omega: f64, ctx: &mut ExecCtx<'_>);

    /// The residual `b − A·u`.
    fn residual(&self, u: &Grid<D>, b: &Grid<D>) -> Grid<D>;

    /// The next coarser level: its operator, and the residual `r`
    /// carried to it as that operator's right-hand side.
    fn coarse_level(&self, r: &Grid<D>) -> (&Self, Grid<D>);

    /// Interpolation from the `m`-grid to the `2m + 1` grid.
    fn prolong(coarse: &Grid<D>) -> Grid<D>;

    /// Solves `A·u = b` directly, charged.
    fn direct(&self, b: &Grid<D>, ctx: &mut ExecCtx<'_>) -> Grid<D>;

    /// Declares, in order, each level's `level{d}_action` choice and
    /// its `_pre`, `_post` and `_sor_iters` counts, then `cycles`.
    fn add_tunables(s: &mut Schema) {
        for d in 0..Self::MAX_LEVELS {
            s.add_choice_site(format!("level{d}_action"), ACTION_NAMES.len());
            s.add_accuracy_variable_with_default(format!("level{d}_pre"), 0, 6, 2);
            s.add_accuracy_variable_with_default(format!("level{d}_post"), 0, 6, 2);
            s.add_accuracy_variable_with_default(format!("level{d}_sor_iters"), 1, 200, 10);
        }
        s.add_accuracy_variable_with_default("cycles", 1, Self::MAX_CYCLES, 2);
    }
}

/// Improves the guess `u` for `A·u = b` by the tuned number of
/// `cycles`, each solving the residual equation from the top level and
/// adding the correction, so repeated cycles compound the per-cycle
/// reduction.
pub fn solve<const D: usize, P: Operator<D>>(
    op: &P,
    b: &Grid<D>,
    mut u: Grid<D>,
    ctx: &mut ExecCtx<'_>,
) -> Grid<D> {
    let cycles = ctx.for_enough("cycles").expect("schema declares cycles");
    let points = b.n().pow(D as u32) as f64;
    for _ in 0..cycles {
        let r = op.residual(&u, b);
        ctx.charge(points * P::RESIDUAL_COST);
        let e = solve_level(op, &r, 0, ctx);
        u.add_correction(&e);
    }
    u
}

/// Solves `A·u = b` from a zero guess at recursion `depth`, honouring
/// that level's tuned action. Grids of 3 or fewer points per dimension
/// always go direct: they cannot be coarsened.
pub fn solve_level<const D: usize, P: Operator<D>>(
    op: &P,
    b: &Grid<D>,
    depth: usize,
    ctx: &mut ExecCtx<'_>,
) -> Grid<D> {
    let n = b.n();
    let d = depth.min(P::MAX_LEVELS - 1);
    let omega = ctx.float_param("omega").expect("schema declares omega");
    let points = n.pow(D as u32) as f64;
    ctx.enter(format!("n{n}"));

    let action = if n <= 3 {
        DIRECT
    } else {
        ctx.with_size(n as u64, |ctx| {
            ctx.choice(&format!("level{d}_action")).expect("schema")
        })
    };
    let relax = |u: &mut Grid<D>, ctx: &mut ExecCtx<'_>| {
        op.relax(u, b, omega, ctx);
        ctx.event("relax");
    };

    let out = match action {
        DIRECT => {
            let u = op.direct(b, ctx);
            ctx.event("direct");
            u
        }
        SOR_SOLVE => {
            let iters = ctx
                .for_enough(&format!("level{d}_sor_iters"))
                .expect("schema");
            let mut u = Grid::zeros(n);
            for _ in 0..iters {
                relax(&mut u, ctx);
            }
            u
        }
        _ => {
            let pre = ctx.for_enough(&format!("level{d}_pre")).expect("schema");
            let post = ctx.for_enough(&format!("level{d}_post")).expect("schema");
            let mut u = Grid::zeros(n);
            for _ in 0..pre {
                relax(&mut u, ctx);
            }
            let r = op.residual(&u, b);
            ctx.charge(points * P::RESIDUAL_COST);
            let (coarse, rc) = op.coarse_level(&r);
            let ec = solve_level(coarse, &rc, depth + 1, ctx);
            let ef = P::prolong(&ec);
            ctx.charge(points * 2.0);
            u.add_correction(&ef);
            for _ in 0..post {
                relax(&mut u, ctx);
            }
            u
        }
    };
    ctx.exit();
    out
}

/// The accuracy metric: `log₁₀` of the ratio between the RMS of the
/// right-hand side `b` (the residual of the zero initial guess) and of
/// the final residual `r`. The paper's accuracy levels 10¹…10⁹ are
/// these orders of magnitude.
pub fn accuracy<const D: usize>(b: &Grid<D>, r: &Grid<D>) -> f64 {
    let initial = b.rms().max(f64::MIN_POSITIVE);
    let after = r.rms();
    if after <= 0.0 {
        return 16.0; // solved to the bits: better than any bin
    }
    (initial / after).log10()
}
