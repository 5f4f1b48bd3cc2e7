//! The candidate population and the accuracy-binned pruning procedure.
//!
//! Pruning (§5.5.4) keeps, for each accuracy bin required by the user,
//! the fastest `K` algorithms that meet the bin's requirement — a
//! discretized optimal frontier. Because comparisons can trigger
//! additional trials (§5.5.1), the pruning procedure avoids fully
//! sorting candidates that will be discarded:
//!
//! 1. roughly sort by mean performance without extra trials;
//! 2. split at the `K`-th element into KEEP and DISCARD;
//! 3. fully sort KEEP with the adaptive comparator;
//! 4. compare each DISCARD element to the `K`-th KEEP element (a
//!    fixed pivot, snapshotted before any promotion), moving any
//!    faster ones into KEEP;
//! 5. fully sort KEEP again;
//! 6. keep the first `K`.
//!
//! The selection runs as comparison-arena rounds (see [`crate::arena`]
//! and [`crate::tournament`]): all bins' pending comparator draws
//! execute as one [`Evaluator`] batch per round on the pool, and pair
//! verdicts memoize for the duration of the prune call.

use crate::arena::{Arena, ArenaReport, Contest, PairContest};
use crate::candidate::Candidate;
use crate::exec::Evaluator;
use crate::tournament::{PruneReport, Selection};
use pb_config::AccuracyBins;
use pb_stats::{total_cmp_nan_first, total_cmp_nan_last, welch_t_test, Comparator, CompareOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// The tuner's population of candidate algorithms.
#[derive(Debug, Default)]
pub struct Population {
    candidates: Vec<Candidate>,
}

impl Population {
    /// Creates an empty population.
    pub fn new() -> Self {
        Population::default()
    }

    /// Adds a candidate.
    pub fn add(&mut self, candidate: Candidate) {
        self.candidates.push(candidate);
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidates, in insertion order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Mutable access to the candidates.
    pub fn candidates_mut(&mut self) -> &mut [Candidate] {
        &mut self.candidates
    }

    /// Keeps only the candidates whose index satisfies `keep`,
    /// preserving order (used by the tuner to drop appended children
    /// that lost their parent comparison).
    pub fn retain_indexed(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut idx = 0;
        self.candidates.retain(|_| {
            let kept = keep(idx);
            idx += 1;
            kept
        });
    }

    /// Index of the candidate with the highest mean accuracy at size
    /// `n`, or `None` if empty.
    ///
    /// Selection is a total order (`f64::total_cmp`) with NaN sorting
    /// last: a candidate whose mean accuracy is NaN can never shadow
    /// one with a real measurement.
    pub fn best_accuracy_index(&self, n: u64) -> Option<usize> {
        (0..self.candidates.len()).max_by(|&a, &b| {
            total_cmp_nan_first(
                self.candidates[a].mean_accuracy(n),
                self.candidates[b].mean_accuracy(n),
            )
        })
    }

    /// Index of the fastest candidate meeting `target` accuracy at size
    /// `n` (by cached means; no extra trials). NaN mean times sort
    /// last, so a NaN-timed candidate is never reported as fastest
    /// while a finitely-timed one qualifies.
    pub fn fastest_meeting(&self, n: u64, target: f64) -> Option<usize> {
        (0..self.candidates.len())
            .filter(|&i| self.candidates[i].meets_target(n, target))
            .min_by(|&a, &b| {
                total_cmp_nan_last(
                    self.candidates[a].mean_time(n),
                    self.candidates[b].mean_time(n),
                )
            })
    }

    /// Ensures every candidate has at least `min_trials` cached at `n`
    /// (the *testPopulation* phase of Figure 5).
    ///
    /// Plan-then-execute: the whole population's missing trials are
    /// collected into one batch, executed through `evaluator` (on the
    /// pool in parallel mode), and merged back per
    /// candidate in trial-index order — bit-identical to testing each
    /// candidate sequentially.
    pub fn test_all(&mut self, evaluator: &Evaluator<'_>, n: u64, min_trials: u64) {
        let mut requests = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for (i, c) in self.candidates.iter().enumerate() {
            let plan = c.plan_trials(n, min_trials);
            if !plan.is_empty() {
                spans.push((i, plan.len()));
                requests.extend(plan);
            }
        }
        if requests.is_empty() {
            return;
        }
        let outcomes = evaluator.run_batch(&requests);
        let mut offset = 0;
        for (i, count) in spans {
            for outcome in &outcomes[offset..offset + count] {
                self.candidates[i].absorb(n, outcome);
            }
            offset += count;
        }
    }

    /// Adaptive time comparison between candidates `i` and `j` at size
    /// `n`, drawing extra trials through `evaluator` as the comparator
    /// requests them. Cached statistics are updated in place.
    ///
    /// A convenience wrapper that opens a one-pair [`Arena`] session:
    /// the draw sequence is identical to the blocking §5.5.1 loop
    /// (each [`pb_stats::CompareStep`] is served before re-deciding),
    /// but the draws execute as evaluator batches — the min-trial fill
    /// runs as one batch instead of trial-by-trial.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn compare_time(
        &mut self,
        i: usize,
        j: usize,
        n: u64,
        evaluator: &Evaluator<'_>,
        comparator: &Comparator,
    ) -> CompareOutcome {
        assert_ne!(i, j, "cannot compare a candidate to itself");
        let mut arena = Arena::new(evaluator, comparator);
        let mut pair = [PairContest::new(i, j)];
        arena.run(&mut self.candidates, n, &mut pair);
        pair[0].verdict.expect("arena runs contests to completion")
    }

    /// Decides one round of child-vs-parent merges (§5.5.2 phase 3)
    /// through the comparison arena. The last `parent_of.len()`
    /// candidates are the round's children, in plan order;
    /// `parent_of[k]` is the population index of child `k`'s parent.
    /// Returns each child's accept verdict — faster than its parent
    /// (adaptive time comparison) or more accurate (Welch's t-test at
    /// `alpha`) — plus the arena session's counters. The caller drops
    /// rejected children (see
    /// [`retain_indexed`](Population::retain_indexed)).
    ///
    /// Pairs are grouped by parent into plan-order *chains* and every
    /// chain runs as one `MergeChain` contest in a single arena
    /// session — the demand-merge rule: within a chain, pair `k + 1`
    /// only starts demanding draws once pair `k`'s verdict and accept
    /// decision are recorded (a later pair must see the parent's
    /// statistics exactly as the earlier comparison left them), while
    /// *across* chains every stalled pair deposits its draws into the
    /// same round batch. Same-parent pairs therefore no longer force
    /// whole-population waves: a chain never waits on unrelated
    /// parents' pairs, so rounds are wider and fewer, and each
    /// comparison still sees exactly the statistics the old
    /// one-blocking-comparison-at-a-time merge produced — identical
    /// draws, identical verdicts, just batched.
    pub fn merge_children(
        &mut self,
        parent_of: &[usize],
        n: u64,
        evaluator: &Evaluator<'_>,
        comparator: &Comparator,
        alpha: f64,
    ) -> (Vec<bool>, ArenaReport) {
        assert!(parent_of.len() <= self.candidates.len());
        let base = self.candidates.len() - parent_of.len();
        let mut accepted = vec![false; parent_of.len()];
        // Group plan indices by parent, preserving plan order within
        // each chain; BTreeMap keeps the contest order deterministic.
        let mut chains: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (k, &parent) in parent_of.iter().enumerate() {
            chains.entry(parent).or_default().push(k);
        }
        let mut contests: Vec<MergeChain> = chains
            .into_iter()
            .map(|(parent, links)| MergeChain::new(parent, links, base, n, alpha))
            .collect();
        let mut arena = Arena::new(evaluator, comparator);
        arena.run(&mut self.candidates, n, &mut contests);
        for chain in contests {
            for (k, accept) in chain.into_decisions() {
                accepted[k] = accept;
            }
        }
        (accepted, arena.report())
    }

    /// The pruning phase (§5.5.4): for each accuracy bin keep the
    /// fastest `keep_per_bin` candidates that meet the bin's target at
    /// size `n`; candidates in no keep-set are removed. The single
    /// highest-accuracy candidate is always retained so that guided
    /// mutation has material to work with even when no bin is met yet
    /// (a liveness safety net; the paper reports an error to the user in
    /// the equivalent situation, which the tuner does at the end of
    /// training instead).
    ///
    /// All bins' fastest-K selections run as one arena session: each
    /// round's pending comparator draws — across every bin and active
    /// pair — execute as a single [`Evaluator`] batch on the pool,
    /// sharing the trial memo, and pair verdicts memoize for the whole
    /// call (a pair decided during the KEEP sort is never re-tested
    /// during the post-promotion re-sort). Plan-then-execute with
    /// merges in candidate-index order keeps parallel pruning
    /// bit-identical to sequential.
    pub fn prune(
        &mut self,
        n: u64,
        bins: &AccuracyBins,
        keep_per_bin: usize,
        evaluator: &Evaluator<'_>,
        comparator: &Comparator,
    ) -> PruneReport {
        let mut report = PruneReport::default();
        if self.candidates.len() <= 1 {
            return report;
        }
        let mut selections: Vec<Selection> = bins
            .targets()
            .iter()
            .map(|&target| {
                let qualifying: Vec<usize> = (0..self.candidates.len())
                    .filter(|&i| self.candidates[i].meets_target(n, target))
                    .collect();
                Selection::new(&self.candidates, qualifying, keep_per_bin, n)
            })
            .collect();
        let mut arena = Arena::new(evaluator, comparator);
        arena.run(&mut self.candidates, n, &mut selections);
        report.arena = arena.report();
        let mut keep: BTreeSet<usize> = selections
            .into_iter()
            .flat_map(Selection::into_result)
            .collect();
        if let Some(best) = self.best_accuracy_index(n) {
            keep.insert(best);
        }
        let before = self.candidates.len();
        self.retain_indexed(|idx| keep.contains(&idx));
        report.removed = (before - self.candidates.len()) as u64;
        report
    }
}

/// One parent's plan-order chain of child-vs-parent merge pairs,
/// resumable as a [`Contest`] (see
/// [`merge_children`](Population::merge_children)).
///
/// The chain is the unit of the demand-merge rule: pair `k + 1` is
/// gated on pair `k`'s complete decision, because both the comparator
/// (more parent time samples) and the Welch accuracy test (more parent
/// accuracy samples) are sensitive to the trials earlier pairs drew on
/// the shared parent. Everything *between* chains is free to
/// interleave — chains touch disjoint candidates, so their draw
/// demands batch together without affecting any decision.
struct MergeChain {
    /// Population index of the shared parent.
    parent: usize,
    /// Plan indices `k` of this parent's children, in plan order.
    links: Vec<usize>,
    /// Accept decisions for `links[..decided.len()]`, recorded at the
    /// moment each pair's verdict landed.
    decided: Vec<bool>,
    /// First index of the children block in the population.
    base: usize,
    n: u64,
    alpha: f64,
}

impl MergeChain {
    fn new(parent: usize, links: Vec<usize>, base: usize, n: u64, alpha: f64) -> Self {
        let decided = Vec::with_capacity(links.len());
        MergeChain {
            parent,
            links,
            decided,
            base,
            n,
            alpha,
        }
    }

    /// `(plan index, accepted)` per link, once the chain completed.
    fn into_decisions(self) -> impl Iterator<Item = (usize, bool)> {
        debug_assert_eq!(self.decided.len(), self.links.len());
        self.links.into_iter().zip(self.decided)
    }
}

impl Contest for MergeChain {
    fn advance(
        &mut self,
        cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>,
        cands: &[Candidate],
    ) -> bool {
        while self.decided.len() < self.links.len() {
            let k = self.links[self.decided.len()];
            let child = self.base + k;
            let Some(verdict) = cmp(child, self.parent) else {
                return false;
            };
            // Decide acceptance *now*: the statistics visible at this
            // instant are exactly what the blocking sequential merge
            // saw after deciding this pair, before any later pair drew
            // more trials on the parent.
            let faster = verdict == CompareOutcome::Less;
            let more_accurate = {
                let child = cands[child].stats(self.n).expect("child was tested");
                let parent = cands[self.parent].stats(self.n).expect("parent was tested");
                let test = welch_t_test(&child.accuracy, &parent.accuracy);
                test.rejects_equality(self.alpha) && child.accuracy.mean() > parent.accuracy.mean()
            };
            self.decided.push(faster || more_accurate);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::{Schema, Value};
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
    use rand::rngs::SmallRng;

    /// Cost = `level * n`, accuracy = `level / 10`: a clean frontier
    /// where higher accuracy always costs more.
    struct Frontier;

    impl Transform for Frontier {
        type Input = ();
        type Output = f64;
        fn name(&self) -> &str {
            "frontier"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("frontier");
            s.add_accuracy_variable("level", 1, 10);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
            let level = ctx.param("level").unwrap() as f64;
            ctx.charge(level * ctx.size() as f64);
            level / 10.0
        }
        fn accuracy(&self, _i: &(), o: &f64) -> f64 {
            *o
        }
    }

    fn population_with_levels(
        runner: &TransformRunner<Frontier>,
        levels: &[i64],
        n: u64,
    ) -> Population {
        let schema = runner.schema();
        let mut pop = Population::new();
        for (i, &level) in levels.iter().enumerate() {
            let mut config = schema.default_config();
            config
                .set_by_name(schema, "level", Value::Int(level))
                .unwrap();
            pop.add(Candidate::new(i as u64, config));
        }
        let evaluator = Evaluator::new(runner, crate::exec::EvalMode::Sequential, true);
        pop.test_all(&evaluator, n, 3);
        pop
    }

    #[test]
    fn compare_time_orders_by_cost() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        let mut pop = population_with_levels(&runner, &[2, 8], 16);
        let comparator = Comparator::default();
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        assert_eq!(
            pop.compare_time(0, 1, 16, &evaluator, &comparator),
            CompareOutcome::Less
        );
        assert_eq!(
            pop.compare_time(1, 0, 16, &evaluator, &comparator),
            CompareOutcome::Greater
        );
    }

    #[test]
    fn prune_keeps_fastest_per_bin() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        // Levels 1..=10; bins at 0.2 and 0.8 accuracy.
        let mut pop = population_with_levels(&runner, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 16);
        let bins = AccuracyBins::new(vec![0.2, 0.8]);
        let comparator = Comparator::default();
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        let removed = pop.prune(16, &bins, 1, &evaluator, &comparator).removed;
        assert!(removed >= 7, "population should shrink, removed {removed}");
        // The fastest candidate meeting 0.2 is level 2; meeting 0.8 is
        // level 8; the best-accuracy safety net keeps level 10.
        let levels: Vec<i64> = pop
            .candidates()
            .iter()
            .map(|c| c.config.int(runner.schema(), "level").unwrap())
            .collect();
        assert!(levels.contains(&2), "levels kept: {levels:?}");
        assert!(levels.contains(&8), "levels kept: {levels:?}");
        assert!(levels.contains(&10), "levels kept: {levels:?}");
        assert_eq!(levels.len(), 3, "levels kept: {levels:?}");
    }

    #[test]
    fn prune_respects_keep_per_bin() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        let mut pop = population_with_levels(&runner, &[3, 4, 5, 6, 7], 8);
        let bins = AccuracyBins::new(vec![0.3]);
        let comparator = Comparator::default();
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        pop.prune(8, &bins, 3, &evaluator, &comparator);
        let levels: Vec<i64> = pop
            .candidates()
            .iter()
            .map(|c| c.config.int(runner.schema(), "level").unwrap())
            .collect();
        // Fastest three meeting 0.3 are 3, 4, 5; plus best-accuracy 7.
        assert_eq!(levels, vec![3, 4, 5, 7]);
    }

    #[test]
    fn prune_never_empties_population() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        let mut pop = population_with_levels(&runner, &[1, 2], 8);
        // Impossible bin: nothing qualifies.
        let bins = AccuracyBins::new(vec![99.0]);
        let comparator = Comparator::default();
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        pop.prune(8, &bins, 2, &evaluator, &comparator);
        assert_eq!(pop.len(), 1, "best-accuracy candidate survives");
        assert_eq!(
            pop.candidates()[0]
                .config
                .int(runner.schema(), "level")
                .unwrap(),
            2
        );
    }

    #[test]
    fn fastest_meeting_uses_cached_means() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        let pop = population_with_levels(&runner, &[2, 5, 9], 8);
        let idx = pop.fastest_meeting(8, 0.5).unwrap();
        assert_eq!(
            pop.candidates()[idx]
                .config
                .int(runner.schema(), "level")
                .unwrap(),
            5
        );
        assert!(pop.fastest_meeting(8, 0.95).is_none());
    }

    #[test]
    fn nan_statistics_never_shadow_the_frontier() {
        let runner = TransformRunner::new(Frontier, CostModel::Virtual);
        let mut pop = population_with_levels(&runner, &[2, 5], 8);
        // A corrupted candidate: NaN mean accuracy and NaN mean time,
        // but enough (bogus) accuracy mass that `meets_target` where a
        // NaN would poison `partial_cmp`-based selection.
        let mut config = runner.schema().default_config();
        config
            .set_by_name(runner.schema(), "level", Value::Int(9))
            .unwrap();
        let mut broken = Candidate::new(99, config);
        let stats = broken.stats_mut(8);
        stats.time.push(f64::NAN);
        stats.accuracy.push(f64::NAN);
        pop.add(broken);
        // NaN accuracy loses `best_accuracy_index` to any real value.
        let best = pop.best_accuracy_index(8).unwrap();
        assert_eq!(
            pop.candidates()[best]
                .config
                .int(runner.schema(), "level")
                .unwrap(),
            5
        );
        // NaN mean accuracy never qualifies, and even if a NaN-timed
        // candidate qualified it must not be reported as fastest.
        let idx = pop.fastest_meeting(8, 0.2).unwrap();
        assert_eq!(
            pop.candidates()[idx]
                .config
                .int(runner.schema(), "level")
                .unwrap(),
            2
        );
        // With *only* NaN candidates, selection still terminates.
        let mut only_nan = Population::new();
        let mut c = Candidate::new(0, runner.schema().default_config());
        c.stats_mut(8).accuracy.push(f64::NAN);
        c.stats_mut(8).time.push(f64::NAN);
        only_nan.add(c);
        assert_eq!(only_nan.best_accuracy_index(8), Some(0));
    }

    /// A transform with a wide, size-independent cost spread:
    /// cost = `level`, accuracy = `level / 1000`.
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

    /// §5.5.4 step-4 regression: the promotion pivot must be the K-th
    /// KEEP element, snapshotted *before* any promotion. The old code
    /// compared each DISCARD element against a moving `keep.last()` —
    /// the most recently promoted, unsorted element — so after a fast
    /// candidate was promoted, later DISCARD elements were compared
    /// against *it* instead of the K-th KEEP element and could be
    /// wrongly rejected.
    ///
    /// Setup (K = 2, true costs in parentheses): cached means lie so
    /// the rough sort keeps [a1 (500), a2 (900)] and discards
    /// [p (10), d (20)] in that order. Promotions against the fixed
    /// pivot a2 admit both p and d; the final sort + truncate keeps
    /// {p, d}. The moving-pivot code compared d against the freshly
    /// promoted p, could not distinguish them within budget, rejected
    /// d, and kept {p, a1} — retaining a candidate 25x slower than d.
    #[test]
    fn promotion_pivot_is_fixed_not_moving() {
        let runner = TransformRunner::new(Spread, CostModel::Virtual);
        let schema = runner.schema();
        let n = 4;
        // (level = true cost, bogus cached time): rough order a1, a2, p, d.
        let plan: [(i64, f64); 4] = [(500, 500.0), (900, 900.0), (10, 950.0), (20, 980.0)];
        let mut pop = Population::new();
        for (i, &(level, fake_time)) in plan.iter().enumerate() {
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
        let comparator = Comparator::new(pb_stats::ComparatorConfig {
            min_trials: 10,
            max_trials: 50,
            ..pb_stats::ComparatorConfig::default()
        });
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        let bins = AccuracyBins::new(vec![0.005]);
        let report = pop.prune(n, &bins, 2, &evaluator, &comparator);
        let mut levels: Vec<i64> = pop
            .candidates()
            .iter()
            .map(|c| c.config.int(schema, "level").unwrap())
            .collect();
        levels.sort_unstable();
        // Kept: the two truly fastest (10, 20) plus the best-accuracy
        // safety net (900). The moving-pivot bug kept 500 instead of 20.
        assert_eq!(levels, vec![10, 20, 900], "report: {report:?}");
        assert!(report.arena.rounds > 0, "adaptive draws must have batched");
        assert!(report.arena.draws > 0);
    }

    /// The prune path must execute its comparator draws through
    /// `Evaluator::run_batch` — visible as batches larger than one
    /// draw whenever several comparisons are pending at once.
    #[test]
    fn prune_batches_draws_across_pairs_and_bins() {
        let runner = TransformRunner::new(Spread, CostModel::Virtual);
        let schema = runner.schema();
        let n = 4;
        let mut pop = Population::new();
        // Eight candidates with one misleading cached trial each, so
        // every adaptive comparison needs fresh draws.
        for (i, level) in [40i64, 80, 120, 160, 200, 240, 280, 320].iter().enumerate() {
            let mut config = schema.default_config();
            config
                .set_by_name(schema, "level", Value::Int(*level))
                .unwrap();
            let mut c = Candidate::new(i as u64, config);
            let stats = c.stats_mut(n);
            stats.time.push(1000.0 - *level as f64);
            stats.accuracy.push(*level as f64 / 1000.0);
            pop.add(c);
        }
        let comparator = Comparator::new(pb_stats::ComparatorConfig {
            min_trials: 5,
            max_trials: 25,
            ..pb_stats::ComparatorConfig::default()
        });
        let evaluator = Evaluator::new(&runner, crate::exec::EvalMode::Sequential, true);
        let bins = AccuracyBins::new(vec![0.01, 0.2]);
        let report = pop.prune(n, &bins, 2, &evaluator, &comparator);
        assert!(report.arena.rounds > 0);
        assert!(
            report.arena.draws > report.arena.rounds,
            "independent comparisons must batch their draws: {report:?}"
        );
    }
}
