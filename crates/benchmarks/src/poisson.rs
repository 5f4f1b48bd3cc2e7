//! 2D Poisson multigrid benchmark (§6.1.5).
//!
//! Three building blocks — direct (band Cholesky), iterative
//! (Red-Black SOR), and recursive (multigrid) — with the autotuner
//! choosing, *at every recursion level*, whether to recurse further,
//! iterate, or solve directly, and how many relaxations to apply before
//! and after the coarse-grid correction. "It is this kind of trade-offs
//! that our variable accuracy auto-tuner excels at exploring." The
//! solver is the [`multigrid`] one the Helmholtz benchmark also tunes.
//!
//! Accuracy metric: `log₁₀` of the ratio between the RMS residual of
//! the initial guess and of the final guess (the paper's accuracy
//! levels 10¹…10⁹ are these orders of magnitude).

use crate::grid::Grid;
use crate::multigrid::{self, Operator};
use crate::poisson2d;
use pb_config::Schema;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;

/// The Poisson right-hand side (the unknown starts at zero).
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonInput {
    /// Right-hand side grid (size `2^k − 1`).
    pub b: Grid<2>,
}

/// The scaled 5-point Laplacian at every level, with the tuned row
/// count from which a smoother sweep is charged as split on the
/// modeled machine.
#[derive(Clone, Copy)]
struct Laplacian {
    par_cutoff: usize,
}

impl Operator<2> for Laplacian {
    const MAX_LEVELS: usize = 8;
    const MAX_CYCLES: i64 = 64;
    const RESIDUAL_COST: f64 = 6.0;

    /// One Red-Black SOR sweep, charged as split on the modeled
    /// machine when the grid has at least `par_cutoff` rows (the §5.2
    /// parallel/sequential switch-over, tuned like the other
    /// benchmarks' placement and assignment scans).
    ///
    /// Both regimes run `poisson2d::sor_sweep` in place; they differ
    /// only in *virtual cost*, which models the schedule
    /// (`ExecCtx::charge_split`: work divided across the modeled
    /// machine's threads plus a dispatch overhead), whatever the
    /// pool's width.
    fn relax(&self, u: &mut Grid<2>, b: &Grid<2>, omega: f64, ctx: &mut ExecCtx<'_>) {
        let n = u.n();
        let work = (n * n) as f64 * 5.0;
        poisson2d::sor_sweep(u, b, omega);
        if !ctx.charge_split(n, self.par_cutoff, work) {
            ctx.charge(work);
        }
    }

    fn residual(&self, u: &Grid<2>, b: &Grid<2>) -> Grid<2> {
        poisson2d::residual(u, b)
    }

    fn coarse_level(&self, r: &Grid<2>) -> (&Self, Grid<2>) {
        let mut rc = poisson2d::restrict(r);
        for v in rc.as_mut_slice() {
            *v *= 4.0; // coarse-grid h² rescaling
        }
        (self, rc)
    }

    fn prolong(coarse: &Grid<2>) -> Grid<2> {
        poisson2d::prolong(coarse)
    }

    /// Direct band Cholesky: O(n² · bandwidth²) = O(n⁴). The charge
    /// deliberately still models `DPBSV`'s factor-and-solve, the block
    /// the paper timed, although `direct_solve` reuses one factor per
    /// grid size: tuned programs and the Fig. 6–8 shapes must not
    /// depend on that reuse.
    fn direct(&self, b: &Grid<2>, ctx: &mut ExecCtx<'_>) -> Grid<2> {
        ctx.charge((b.n() as f64).powi(4));
        poisson2d::direct_solve(b)
    }
}

/// The 2D Poisson variable-accuracy transform.
#[derive(Debug, Clone, Copy, Default)]
pub struct Poisson2d;

impl Transform for Poisson2d {
    type Input = PoissonInput;
    type Output = Grid<2>;

    fn name(&self) -> &str {
        "poisson2d"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("poisson2d");
        Laplacian::add_tunables(&mut s);
        s.add_float_param("omega", 0.8, 1.95);
        s.add_cutoff("par_cutoff", 16, 1 << 16);
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> PoissonInput {
        let size = Grid::<2>::round_up_size(n.max(1) as usize);
        PoissonInput {
            b: Grid::random_uniform(size, -1.0, 1.0, rng),
        }
    }

    fn execute(&self, input: &PoissonInput, ctx: &mut ExecCtx<'_>) -> Grid<2> {
        let par_cutoff = ctx.param("par_cutoff").expect("schema").max(1) as usize;
        let b = &input.b;
        multigrid::solve(&Laplacian { par_cutoff }, b, Grid::zeros(b.n()), ctx)
    }

    fn accuracy(&self, input: &PoissonInput, output: &Grid<2>) -> f64 {
        multigrid::accuracy(&input.b, &poisson2d::residual(output, &input.b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{multigrid_configs, schema_lines, trial_hash};
    use pb_config::{Config, DecisionTree, Value};

    fn config_with(schema: &Schema, edits: &[(&str, Value)]) -> Config {
        let mut c = schema.default_config();
        for (name, v) in edits {
            c.set_by_name(schema, name, v.clone()).unwrap();
        }
        c
    }

    fn accuracy_of(config: &Config, schema: &Schema, n: u64, seed: u64) -> f64 {
        let t = Poisson2d;
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(seed)
        };
        let input = t.generate_input(n, &mut rng);
        let mut ctx = ExecCtx::new(schema, config, n, seed);
        let out = t.execute(&input, &mut ctx);
        t.accuracy(&input, &out)
    }

    #[test]
    fn direct_everywhere_solves_exactly() {
        let t = Poisson2d;
        let schema = t.schema();
        let mut edits: Vec<(String, Value)> = Vec::new();
        for d in 0..Laplacian::MAX_LEVELS {
            edits.push((
                format!("level{d}_action"),
                Value::Tree(DecisionTree::single(2)),
            ));
        }
        let edits_ref: Vec<(&str, Value)> =
            edits.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let config = config_with(&schema, &edits_ref);
        let acc = accuracy_of(&config, &schema, 15, 1);
        assert!(acc > 9.0, "direct solve reaches machine precision: {acc}");
    }

    #[test]
    fn more_cycles_give_more_accuracy() {
        let t = Poisson2d;
        let schema = t.schema();
        let mut base: Vec<(String, Value)> = Vec::new();
        for d in 0..Laplacian::MAX_LEVELS {
            base.push((format!("level{d}_pre"), Value::Int(2)));
            base.push((format!("level{d}_post"), Value::Int(2)));
        }
        for (cycles, min_acc) in [(1, 0.5), (4, 2.0)] {
            let mut edits = base.clone();
            edits.push(("cycles".to_string(), Value::Int(cycles)));
            let edits_ref: Vec<(&str, Value)> =
                edits.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            let config = config_with(&schema, &edits_ref);
            let acc = accuracy_of(&config, &schema, 31, 2);
            assert!(acc > min_acc, "cycles={cycles}: accuracy {acc}");
        }
    }

    #[test]
    fn sor_only_is_weaker_than_multigrid_for_same_budget() {
        let t = Poisson2d;
        let schema = t.schema();
        // SOR-only at the top level: 30 sweeps.
        let sor = config_with(
            &schema,
            &[
                ("level0_action", Value::Tree(DecisionTree::single(1))),
                ("level0_sor_iters", Value::Int(30)),
            ],
        );
        // One V-cycle with 2+2 sweeps per level.
        let mut edits: Vec<(String, Value)> = Vec::new();
        for d in 0..Laplacian::MAX_LEVELS {
            edits.push((format!("level{d}_pre"), Value::Int(2)));
            edits.push((format!("level{d}_post"), Value::Int(2)));
        }
        let edits_ref: Vec<(&str, Value)> =
            edits.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let mg = config_with(&schema, &edits_ref);
        let acc_sor = accuracy_of(&sor, &schema, 31, 3);
        let acc_mg = accuracy_of(&mg, &schema, 31, 3);
        assert!(
            acc_mg > acc_sor,
            "multigrid ({acc_mg}) should beat plain SOR ({acc_sor})"
        );
    }

    #[test]
    fn trace_records_cycle_shape() {
        let t = Poisson2d;
        let schema = t.schema();
        let mut edits: Vec<(String, Value)> = vec![("cycles".to_string(), Value::Int(1))];
        for d in 0..Laplacian::MAX_LEVELS {
            edits.push((format!("level{d}_pre"), Value::Int(1)));
            edits.push((format!("level{d}_post"), Value::Int(1)));
        }
        let edits_ref: Vec<(&str, Value)> =
            edits.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let config = config_with(&schema, &edits_ref);
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(4)
        };
        let input = t.generate_input(15, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 15, 0);
        ctx.enable_trace();
        let _ = t.execute(&input, &mut ctx);
        let tree = ctx.trace_tree();
        // Levels n15 -> n7 -> n3 (direct).
        assert_eq!(tree.depth(), 3);
        assert!(tree.count_points("relax") >= 4);
        assert_eq!(tree.count_points("direct"), 1);
    }

    #[test]
    fn par_cutoff_changes_schedule_not_results() {
        let t = Poisson2d;
        let schema = t.schema();
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(6)
        };
        let input = t.generate_input(31, &mut rng);
        let mut outputs = Vec::new();
        // Always-parallel vs never-parallel smoother sweeps must agree
        // bit-for-bit on the solution: the cutoff tunes the scheduler,
        // not the algorithm (red-black points only read the opposite
        // colour).
        for cutoff in [16i64, 1 << 16] {
            let mut config = schema.default_config();
            config
                .set_by_name(&schema, "par_cutoff", Value::Int(cutoff))
                .unwrap();
            let mut ctx = ExecCtx::new(&schema, &config, 31, 9);
            let out = t.execute(&input, &mut ctx);
            outputs.push((out, ctx.virtual_cost()));
        }
        assert_eq!(outputs[0].0, outputs[1].0);
        // The virtual cost *sees* the schedule: a 31x31 sweep (4805
        // work units) well clears the dispatch overhead, so the
        // always-parallel run is modelled cheaper on the modeled
        // machine, whatever the pool's width.
        assert!(
            outputs[0].1 < outputs[1].1,
            "parallel schedule should cost less: {} vs {}",
            outputs[0].1,
            outputs[1].1
        );
    }

    /// Every tunable's name, kind, range and default, in schema order:
    /// a reordered or re-ranged tunable changes every tuned decision, so
    /// it must show here.
    const SCHEMA: [&str; 35] = [
        "level0_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level0_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level0_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level0_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level1_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level1_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level1_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level1_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level2_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level2_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level2_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level2_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level3_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level3_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level3_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level3_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level4_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level4_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level4_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level4_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level5_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level5_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level5_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level5_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level6_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level6_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level6_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level6_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "level7_action ChoiceSite { num_algorithms: 3 } = tree[*:0]",
        "level7_pre AccuracyVariable { min: 0, max: 6 } = 2",
        "level7_post AccuracyVariable { min: 0, max: 6 } = 2",
        "level7_sor_iters AccuracyVariable { min: 1, max: 200 } = 10",
        "cycles AccuracyVariable { min: 1, max: 64 } = 2",
        "omega FloatParam { min: 0.8, max: 1.95 } = 1.375",
        "par_cutoff Cutoff { min: 16, max: 65536 } = 16",
    ];

    #[test]
    fn schema_matches_its_pin() {
        let schema = Poisson2d.schema();
        assert_eq!(schema.name(), "poisson2d");
        assert_eq!(schema_lines(&schema), SCHEMA);
    }

    /// Whole-trial hashes (output, virtual cost and accuracy bits) taken
    /// before the stencils got interior loops and a one-pass SOR sweep,
    /// each followed by the trial's cycle-shape hash (the trace tree's
    /// scopes and `relax`/`direct` points).
    const PINS: [&str; 17] = [
        "n7 recurse: 50395ff800403855 32d159a72fd95428",
        "n7 level0 sor_solve: 5c081715b2e450db aa87de37b5c6061a",
        "n7 level0 direct: fcd3b97a8257c9de dde550a2f41ce9d4",
        "n15 recurse: 7dc158f5683c9c5f 2a41e5b17eaa6f82",
        "n15 level0 sor_solve: f5565a815b320ce1 4aac46a4c9a36044",
        "n15 level0 direct: 218947cfd27229c1 ebeb2f3c1980bc4a",
        "n15 level1 sor_solve: a5c050e1a896e9f7 55deb62a627c0fb0",
        "n15 level1 direct: effa1976784fb322 ea311af7f643b7aa",
        "n63 recurse: da57294dbcd22789 7b51a709916c6f7a",
        "n63 level0 sor_solve: 902fb1fc0c013ea1 4931d63f9638908a",
        "n63 level0 direct: b589778d47adde2e 6acc0f359b17602a",
        "n63 level1 sor_solve: 00e8dc4ebbd5b204 472a06a236a5754a",
        "n63 level1 direct: 4557802e9105cc14 8a57d3d236086daa",
        "n63 level2 sor_solve: bc410bd379edbae4 f513fdedb6425c6a",
        "n63 level2 direct: f27572348c2b7495 162228a4c8b72a5a",
        "n63 level3 sor_solve: ade32092b7eda9e4 3f73974f34246632",
        "n63 level3 direct: d4617695c38a39fe cad79ad7ab88897e",
    ];

    #[test]
    fn whole_trials_match_their_pins() {
        let t = Poisson2d;
        let schema = t.schema();
        // A cutoff no grid reaches keeps the charges independent of the
        // pool's thread count.
        let edits = [
            ("omega", Value::Float(1.3)),
            ("par_cutoff", Value::Int(1 << 16)),
        ];
        let mut got = Vec::new();
        for (n, levels) in [(7u64, 1), (15, 2), (63, 4)] {
            let mut rng = {
                use rand::SeedableRng;
                SmallRng::seed_from_u64(n)
            };
            let input = t.generate_input(n, &mut rng);
            for (label, config) in multigrid_configs(&schema, levels, &edits) {
                let (hash, shape) = trial_hash(&t, &config, &input, n, |u| vec![u.as_slice()]);
                got.push(format!("n{n} {label}: {hash:016x} {shape:016x}"));
            }
        }
        assert_eq!(got, PINS);
    }

    #[test]
    fn input_sizes_round_up_to_multigrid_sizes() {
        let t = Poisson2d;
        let mut rng = {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(5)
        };
        assert_eq!(t.generate_input(9, &mut rng).b.n(), 15);
        assert_eq!(t.generate_input(15, &mut rng).b.n(), 15);
        assert_eq!(t.generate_input(1, &mut rng).b.n(), 1);
    }
}
