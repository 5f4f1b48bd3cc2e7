//! `planted`: a synthetic transform whose trials cost O(1), so a
//! tuning run on it is almost entirely tuner bookkeeping, comparator
//! statistics and per-batch dispatch. Its accuracy and cost are closed
//! forms of six tunables, so the cheapest configuration meeting any
//! accuracy target is known by construction and a tuned program can be
//! checked against it.

use pb_config::{Config, Schema};
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;

/// Accuracy ceiling of each algorithm.
const CAP: [f64; 3] = [0.4, 0.8, 1.0];
/// Cost per unit of work of each algorithm.
const FACTOR: [f64; 3] = [1.0, 4.0, 25.0];
const MAX_EFFORT: i64 = 1024;
const MAX_PASSES: i64 = 8;
const LAYOUTS: usize = 4;
const MAX_BLOCK: i64 = 64;

/// The synthetic transform. `layout`, `block` and `damping` only ever
/// add cost away from the planted values, so the optimum has them
/// exactly there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planted {
    layout: usize,
    block: i64,
    damping: f64,
}

impl Planted {
    /// Places the cost-free `layout`, `block` and `damping` values from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        let bits = crate::ops::mix(seed, 0x9_1A47ED);
        Planted {
            layout: (bits % LAYOUTS as u64) as usize,
            block: 1 << ((bits >> 8) % 7),
            damping: ((bits >> 16) % 9) as f64 / 8.0,
        }
    }

    fn work(effort: i64, passes: i64) -> f64 {
        (effort * passes) as f64
    }

    fn accuracy_of(algo: usize, work: f64) -> f64 {
        CAP[algo] * (1.0 - 1.0 / (1.0 + work))
    }

    /// Cost of the cheapest configuration whose accuracy reaches
    /// `target`, or `None` when no configuration does.
    pub fn optimum_cost(&self, target: f64) -> Option<f64> {
        let max_work = Self::work(MAX_EFFORT, MAX_PASSES);
        (0..CAP.len())
            .filter_map(|algo| {
                // Smallest integer work w with CAP·(1 − 1/(1+w)) ≥ target:
                // start just below the real-valued solution and step up,
                // so rounding in the division cannot overshoot.
                if target >= CAP[algo] {
                    return None;
                }
                let mut w = (target / (CAP[algo] - target)).floor().max(1.0);
                while Self::accuracy_of(algo, w) < target {
                    w += 1.0;
                }
                (w <= max_work).then_some(FACTOR[algo] * w + 1.0)
            })
            .min_by(|a, b| a.partial_cmp(b).expect("costs are finite"))
    }

    /// Accuracy and cost of `config` at input size `n` (the closed
    /// forms `execute` charges), for checking a tuned entry without
    /// running a trial.
    pub fn evaluate(&self, schema: &Schema, config: &Config, n: u64) -> (f64, f64) {
        let mut ctx = ExecCtx::new(schema, config, n, 0);
        let accuracy = self.execute(&(), &mut ctx);
        (accuracy, ctx.virtual_cost())
    }
}

impl Transform for Planted {
    type Input = ();
    type Output = f64;

    fn name(&self) -> &str {
        "planted"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("planted");
        s.add_choice_site("algo", CAP.len());
        s.add_accuracy_variable("effort", 1, MAX_EFFORT);
        s.add_accuracy_variable("passes", 1, MAX_PASSES);
        s.add_switch("layout", LAYOUTS);
        s.add_cutoff("block", 1, MAX_BLOCK);
        s.add_float_param("damping", 0.0, 1.0);
        s
    }

    fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}

    fn execute(&self, _input: &(), ctx: &mut ExecCtx<'_>) -> f64 {
        let algo = ctx.choice("algo").expect("schema declares algo");
        let effort = ctx.param("effort").expect("schema declares effort");
        let passes = ctx.param("passes").expect("schema declares passes");
        let layout = ctx.switch("layout").expect("schema declares layout");
        let block = ctx.param("block").expect("schema declares block").max(1);
        let damping = ctx.float_param("damping").expect("schema declares damping");
        let work = Self::work(effort, passes);
        let detour = (1.0 + 0.25 * (layout as f64 - self.layout as f64).abs())
            * (1.0 + 0.1 * ((block as f64).log2() - (self.block as f64).log2()).abs())
            * (1.0 + (damping - self.damping).powi(2));
        ctx.charge(FACTOR[algo] * work * detour + 1.0);
        Self::accuracy_of(algo, work)
    }

    fn accuracy(&self, _input: &(), output: &f64) -> f64 {
        *output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::{DecisionTree, Value};

    fn config_with(
        planted: &Planted,
        algo: usize,
        effort: i64,
        passes: i64,
        off_by: usize,
    ) -> (Schema, Config) {
        let schema = planted.schema();
        let mut config = schema.default_config();
        let set = |config: &mut Config, name: &str, value: Value| {
            config
                .set_by_name(&schema, name, value)
                .expect("legal value");
        };
        set(&mut config, "algo", Value::Tree(DecisionTree::single(algo)));
        set(&mut config, "effort", Value::Int(effort));
        set(&mut config, "passes", Value::Int(passes));
        let layout = (planted.layout + off_by) % LAYOUTS;
        set(&mut config, "layout", Value::Switch(layout));
        set(&mut config, "block", Value::Int(planted.block));
        set(&mut config, "damping", Value::Float(planted.damping));
        (schema, config)
    }

    #[test]
    fn optimum_is_the_cheapest_sufficient_algorithm_at_minimal_work() {
        let planted = Planted::new(3);
        // 0.3 < 0.4: algorithm 0 suffices with work 3 (0.4·3/4 = 0.3).
        assert_eq!(planted.optimum_cost(0.3), Some(1.0 * 3.0 + 1.0));
        // 0.6 needs algorithm 1: work 3 (0.8·3/4 = 0.6), cost 4·3 + 1.
        assert_eq!(planted.optimum_cost(0.6), Some(13.0));
        // 0.9 needs algorithm 2: work 9, cost 25·9 + 1.
        assert_eq!(planted.optimum_cost(0.9), Some(226.0));
        assert_eq!(planted.optimum_cost(1.0), None);
    }

    #[test]
    fn the_planted_configuration_attains_the_optimum_and_detours_cost_more() {
        let planted = Planted::new(11);
        for (target, algo, work) in [(0.3, 0, 3), (0.6, 1, 3), (0.9, 2, 9)] {
            let (schema, config) = config_with(&planted, algo, work, 1, 0);
            let (accuracy, cost) = planted.evaluate(&schema, &config, 64);
            assert!(accuracy >= target, "{accuracy} < {target}");
            assert_eq!(Some(cost), planted.optimum_cost(target));
            let (schema, config) = config_with(&planted, algo, work, 1, 1);
            assert!(planted.evaluate(&schema, &config, 64).1 > cost);
            // One unit less work misses the target.
            if work > 1 {
                let (schema, config) = config_with(&planted, algo, work - 1, 1, 0);
                assert!(planted.evaluate(&schema, &config, 64).0 < target);
            }
        }
    }

    #[test]
    fn the_optimum_moves_with_the_seed() {
        let placements: std::collections::HashSet<(usize, i64, u64)> = (0..32)
            .map(Planted::new)
            .map(|p| (p.layout, p.block, p.damping.to_bits()))
            .collect();
        assert!(placements.len() > 8, "{placements:?}");
    }
}
