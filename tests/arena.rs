//! The comparison arena's behavioural guarantees:
//!
//! * the arena-driven child-vs-parent merge makes **exactly** the
//!   decisions (and draws exactly the trials) of the old blocking
//!   one-comparison-at-a-time merge, for identical seeds;
//! * the post-promotion re-sort of a prune call re-decides the
//!   promotion pair from the statistics promotion left behind, so it
//!   draws no trial — the draw counters prove zero re-tests.

use petabricks::config::{AccuracyBins, Schema, Value};
use petabricks::runtime::{CostModel, ExecCtx, Transform, TransformRunner};
use petabricks::stats::{
    welch_t_test, Comparator, ComparatorConfig, CompareOutcome, CompareStep, Which,
};
use petabricks::tuner::{Arena, Candidate, EvalMode, Evaluator, PairContest, Population};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Cost = `level · n · (1 ± 1%)` with deterministic per-seed noise;
/// accuracy = `level / 64`. The noise keeps close comparisons
/// ambiguous, so the adaptive comparator genuinely draws extra trials.
#[derive(Clone, Copy)]
struct NoisyLevels;

impl Transform for NoisyLevels {
    type Input = f64;
    type Output = f64;
    fn name(&self) -> &str {
        "noisy_levels"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("noisy_levels");
        s.add_accuracy_variable("level", 1, 64);
        s
    }
    fn generate_input(&self, _n: u64, rng: &mut SmallRng) -> f64 {
        rng.gen_range(0.99..1.01)
    }
    fn execute(&self, noise: &f64, ctx: &mut ExecCtx<'_>) -> f64 {
        let level = ctx.param("level").unwrap() as f64;
        ctx.charge(level * ctx.size() as f64 * noise);
        level / 64.0
    }
    fn accuracy(&self, _i: &f64, o: &f64) -> f64 {
        *o
    }
}

fn comparator() -> Comparator {
    Comparator::new(ComparatorConfig {
        min_trials: 3,
        max_trials: 10,
        ..ComparatorConfig::default()
    })
}

/// Builds a tested population: one candidate per parent level, then
/// one untested child per `(parent, level)` pair appended in order.
fn build_population<T: Transform>(
    runner: &TransformRunner<T>,
    evaluator: &Evaluator<'_>,
    parent_levels: &[i64],
    children: &[(usize, i64)],
    n: u64,
    min_trials: u64,
) -> Population {
    let schema = runner.schema();
    let mut pop = Population::new();
    let mut id = 0;
    let with_level = |level: i64, id: &mut u64| {
        let mut config = schema.default_config();
        config
            .set_by_name(schema, "level", Value::Int(level))
            .unwrap();
        let c = Candidate::new(*id, config);
        *id += 1;
        c
    };
    for &level in parent_levels {
        pop.add(with_level(level, &mut id));
    }
    pop.test_all(evaluator, n, min_trials);
    for &(_, level) in children {
        pop.add(with_level(level, &mut id));
    }
    // Phase-2 equivalent: batch the children's initial trials.
    pop.test_all(evaluator, n, min_trials);
    pop
}

/// The pre-arena merge, verbatim semantics: children decided one
/// blocking comparison at a time, in plan order, each comparator-
/// requested draw executed immediately through the evaluator, each
/// rejected child truncated before the next pair starts.
fn blocking_reference_merge(
    pop: &mut Population,
    parent_of: &[usize],
    n: u64,
    evaluator: &Evaluator<'_>,
    comparator: &Comparator,
    alpha: f64,
) -> Vec<bool> {
    let base = pop.len() - parent_of.len();
    let mut accepted = Vec::with_capacity(parent_of.len());
    for (k, &parent) in parent_of.iter().enumerate() {
        let child = base + k;
        let verdict = loop {
            let time_of = |pop: &Population, i: usize| {
                pop.candidates()[i]
                    .stats(n)
                    .map(|s| s.time)
                    .unwrap_or_default()
            };
            let step = comparator.decide_samples(&time_of(pop, child), &time_of(pop, parent));
            match step {
                CompareStep::Decided(outcome) => break outcome,
                CompareStep::NeedMore { which, draws } => {
                    let target = match which {
                        Which::A => child,
                        Which::B => parent,
                    };
                    // One draw at a time, each a one-request batch
                    // served before the next is planned.
                    let candidate = &mut pop.candidates_mut()[target];
                    for _ in 0..draws {
                        let plan: Vec<_> =
                            candidate.plan_trials(n, candidate.trials(n) + 1).collect();
                        candidate.absorb(n, &evaluator.run_batch(&plan)[0]);
                    }
                }
            }
        };
        let faster = verdict == CompareOutcome::Less;
        let more_accurate = {
            let child = pop.candidates()[child].stats(n).expect("tested");
            let parent = pop.candidates()[parent].stats(n).expect("tested");
            let test = welch_t_test(&child.accuracy, &parent.accuracy);
            test.rejects_equality(alpha) && child.accuracy.mean() > parent.accuracy.mean()
        };
        accepted.push(faster || more_accurate);
    }
    accepted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena-driven child-vs-parent merging must reproduce the old
    /// sequential merge exactly: same accept/reject decisions and the
    /// same per-candidate statistics (same draws on the same seeds).
    #[test]
    fn arena_merge_matches_blocking_sequential_merge(
        parent_levels in prop::collection::vec(1i64..64, 1..5),
        raw_children in prop::collection::vec((0usize..8, 1i64..64), 1..10),
    ) {
        let children: Vec<(usize, i64)> = raw_children
            .iter()
            .map(|&(p, level)| (p % parent_levels.len(), level))
            .collect();
        let parent_of: Vec<usize> = children.iter().map(|&(p, _)| p).collect();
        let n = 8;
        let comparator = comparator();
        let min_trials = comparator.config().min_trials;
        let runner = TransformRunner::new(NoisyLevels, CostModel::Virtual);

        // Production path: one arena session of per-parent chains
        // (same-parent pairs gated in plan order, chains for
        // different parents batching their draws together).
        let eval_arena = Evaluator::new(&runner, EvalMode::Sequential, true);
        let mut pop_arena = build_population(
            &runner, &eval_arena, &parent_levels, &children, n, min_trials,
        );
        let (accepted_arena, report) =
            pop_arena.merge_children(&parent_of, n, &eval_arena, &comparator, 0.05);

        // Reference path: the old blocking sequential merge.
        let eval_ref = Evaluator::new(&runner, EvalMode::Sequential, true);
        let mut pop_ref = build_population(
            &runner, &eval_ref, &parent_levels, &children, n, min_trials,
        );
        let accepted_ref =
            blocking_reference_merge(&mut pop_ref, &parent_of, n, &eval_ref, &comparator, 0.05);

        prop_assert_eq!(&accepted_arena, &accepted_ref);
        // Identical decisions must come from identical statistics:
        // every candidate drew the same trials in both worlds.
        for (a, b) in pop_arena.candidates().iter().zip(pop_ref.candidates()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.trials(n), b.trials(n));
            let (sa, sb) = (a.stats(n).unwrap(), b.stats(n).unwrap());
            prop_assert_eq!(sa.time.mean().to_bits(), sb.time.mean().to_bits());
            prop_assert_eq!(sa.accuracy.mean().to_bits(), sb.accuracy.mean().to_bits());
        }
        // And the arena really batched: at least one round ran unless
        // every verdict decided straight from cached statistics.
        if report.draws > 0 {
            prop_assert!(report.rounds > 0);
        }
    }
}

/// The demand-merge widening: a same-parent pair no longer waits for
/// unrelated parents' pairs. Two chains — parent P with a decisive
/// first child and an ambiguous second, parent Q with one ambiguous
/// child — run jointly and solo. The joint session must do exactly
/// the solo draws (chains are disjoint, decisions unchanged) in
/// strictly fewer rounds, because P's *second* link batches its draws
/// into the same rounds as Q's chain instead of into waves of its own.
/// Like [`NoisyLevels`] but with ±10% noise: adjacent levels overlap,
/// so the comparator genuinely needs repeated draws to separate them.
/// (At ±1% every distinct-level t-test decides from the minimum fill,
/// and equal levels share bitwise-identical samples — trial seeds are
/// candidate-independent — so nothing ever draws.)
#[derive(Clone, Copy)]
struct WideNoise;

impl Transform for WideNoise {
    type Input = f64;
    type Output = f64;
    fn name(&self) -> &str {
        "wide_noise"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("wide_noise");
        s.add_accuracy_variable("level", 1, 64);
        s
    }
    fn generate_input(&self, _n: u64, rng: &mut SmallRng) -> f64 {
        rng.gen_range(0.9..1.1)
    }
    fn execute(&self, noise: &f64, ctx: &mut ExecCtx<'_>) -> f64 {
        let level = ctx.param("level").unwrap() as f64;
        ctx.charge(level * ctx.size() as f64 * noise);
        level / 64.0
    }
    fn accuracy(&self, _i: &f64, o: &f64) -> f64 {
        *o
    }
}

#[test]
fn same_parent_chains_share_rounds_across_parents() {
    let n = 8;
    let comparator = comparator();
    let min_trials = comparator.config().min_trials;
    let runner = TransformRunner::new(WideNoise, CostModel::Virtual);
    let parents = [8i64, 32];
    // (parent index, level): the 56-level child is decisively slower
    // than parent 8; the 9-vs-8 and 33-vs-32 pairs sit inside the ±10%
    // noise band, so both chains draw repeated comparator trials.
    let chain_p = [(0usize, 56i64), (0, 9)];
    let chain_q = [(1usize, 33i64)];
    let joint: Vec<(usize, i64)> = chain_p.iter().chain(&chain_q).copied().collect();

    let run = |children: &[(usize, i64)]| {
        let evaluator = Evaluator::new(&runner, EvalMode::Sequential, true);
        let mut pop = build_population(&runner, &evaluator, &parents, children, n, min_trials);
        let parent_of: Vec<usize> = children.iter().map(|&(p, _)| p).collect();
        pop.merge_children(&parent_of, n, &evaluator, &comparator, 0.05)
    };

    let (accepted_joint, joint_report) = run(&joint);
    let (accepted_p, p_report) = run(&chain_p);
    let (accepted_q, q_report) = run(&chain_q);

    // Chains are disjoint, so joining them changes no decision and
    // re-draws no trial...
    assert_eq!(accepted_joint[..2], accepted_p[..]);
    assert_eq!(accepted_joint[2..], accepted_q[..]);
    assert_eq!(joint_report.draws, p_report.draws + q_report.draws);
    // ...but the joint session interleaves the chains' rounds. Both
    // ambiguous pairs draw repeatedly, so round sharing must show up
    // as strictly fewer rounds than running the chains back to back
    // (which is what parent-disjoint waves degenerated to here: C2
    // could not enter a wave until Q's whole chain finished its own).
    assert!(
        p_report.rounds > 0 && q_report.rounds > 0,
        "both chains must really draw: {p_report:?} {q_report:?}"
    );
    assert!(
        joint_report.rounds < p_report.rounds + q_report.rounds,
        "chains must share rounds: joint {joint_report:?} vs {p_report:?} + {q_report:?}"
    );
}

/// Cost = `level` (size-independent), accuracy = `level / 1000`.
#[derive(Clone, Copy)]
struct Spread;

impl Transform for Spread {
    type Input = ();
    type Output = f64;
    fn name(&self) -> &str {
        "spread"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("spread");
        s.add_accuracy_variable("level", 1, 1000);
        s
    }
    fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
    fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
        let level = ctx.param("level").unwrap() as f64;
        ctx.charge(level);
        level / 1000.0
    }
    fn accuracy(&self, _i: &(), o: &f64) -> f64 {
        *o
    }
}

/// The promotion scenario with K = 1: the rough sort keeps `a`
/// (misleading cached mean), discards the truly-faster `d`; promotion
/// decides `(d, a)` with fresh draws; the re-sort then needs exactly
/// that verdict again, and re-decides it without drawing.
fn promotion_population(runner: &TransformRunner<Spread>, n: u64) -> (Population, usize, usize) {
    let schema = runner.schema();
    let mut pop = Population::new();
    // (level = true cost, bogus cached time): rough order a, d.
    for (i, &(level, fake_time)) in [(500i64, 500.0f64), (10, 950.0)].iter().enumerate() {
        let mut config = schema.default_config();
        config
            .set_by_name(schema, "level", Value::Int(level))
            .unwrap();
        let mut c = Candidate::new(i as u64, config);
        let stats = c.stats_mut(n);
        stats.time.push(fake_time);
        stats.accuracy.push(level as f64 / 1000.0);
        pop.add(c);
    }
    (pop, 0, 1) // (population, index of a, index of d)
}

/// Regression: the re-sort re-decides the promotion pair without
/// re-testing it. Total prune draws equal the draws of deciding that
/// one pair once.
#[test]
fn resort_draws_nothing_beyond_the_promotion_pair() {
    let runner = TransformRunner::new(Spread, CostModel::Virtual);
    let n = 4;
    let comparator = Comparator::new(ComparatorConfig {
        min_trials: 10,
        max_trials: 50,
        ..ComparatorConfig::default()
    });
    let bins = AccuracyBins::new(vec![0.005]);

    let evaluator = Evaluator::new(&runner, EvalMode::Sequential, true);
    let (mut pop, a, d) = promotion_population(&runner, n);
    let report = pop.prune(n, &bins, 1, &evaluator, &comparator);
    // The truly fastest candidate won the bin; the best-accuracy
    // safety net keeps the other.
    let schema = runner.schema();
    let mut levels: Vec<i64> = pop
        .candidates()
        .iter()
        .map(|c| c.config().int(schema, "level").unwrap())
        .collect();
    levels.sort_unstable();
    assert_eq!(levels, vec![10, 500], "prune outcome changed: {report:?}");

    // Twin measurement: deciding the single (d, a) pair from the same
    // starting statistics costs exactly the draws the whole prune
    // call drew — so the re-sort re-tested nothing.
    let eval_twin = Evaluator::new(&runner, EvalMode::Sequential, true);
    let (mut pop_twin, a2, d2) = promotion_population(&runner, n);
    assert_eq!((a, d), (a2, d2));
    let mut arena = Arena::new(&eval_twin, &comparator);
    let mut pair = [PairContest::new(d2, a2)];
    arena.run(pop_twin.candidates_mut(), n, &mut pair);
    assert_eq!(pair[0].verdict, Some(CompareOutcome::Less));
    let pair_draws = arena.report().draws;
    assert!(pair_draws > 0, "the promotion decision must draw trials");
    assert_eq!(
        report.draws, pair_draws,
        "prune must draw exactly one pair-decision's trials; more means \
         the re-sort re-tested the promotion pair"
    );
}

/// The blocking-compatible wrapper is itself arena-driven: a single
/// `compare_time` call batches its min-trial fill instead of drawing
/// one trial at a time, and still agrees with the decision core.
#[test]
fn compare_time_agrees_with_decision_core() {
    let runner = TransformRunner::new(NoisyLevels, CostModel::Virtual);
    let n = 8;
    let comparator = comparator();
    let evaluator = Evaluator::new(&runner, EvalMode::Sequential, true);
    let mut pop = build_population(&runner, &evaluator, &[4, 48], &[], n, 0);
    assert_eq!(
        pop.compare_time(0, 1, n, &evaluator, &comparator),
        CompareOutcome::Less
    );
    assert_eq!(
        pop.compare_time(1, 0, n, &evaluator, &comparator),
        CompareOutcome::Greater
    );
    // Both candidates ended with at least the minimum trial count.
    for c in pop.candidates() {
        assert!(c.trials(n) >= comparator.config().min_trials);
    }
}
