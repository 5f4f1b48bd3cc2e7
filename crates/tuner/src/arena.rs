//! The comparison arena: every tuner decision as a resumable,
//! pool-batched tournament.
//!
//! The §5.5.1 comparator decides `Less`/`Greater`/`Same` from two
//! candidates' accumulated statistics and otherwise names the side
//! that needs another trial ([`pb_stats::CompareStep`]). Pruning's
//! fastest-K selections, the post-promotion re-sort and the
//! child-vs-parent merges of random mutation all consume those steps
//! through one round loop, owned by a session object ([`Arena`])
//! wrapping an [`Evaluator`] and a [`Comparator`]:
//! [`Arena::run`] advances every pending decision ([`Contest`]) as far
//! as current statistics allow, collects the stalled comparisons'
//! requested draws, executes them as one [`Evaluator::run_batch`] on
//! the pool, merges outcomes back in candidate-index order (through
//! the helper that also tests the population), and repeats. Every
//! comparison is decided afresh from the candidates' statistics at the
//! moment it is asked.
//!
//! No randomness is consumed anywhere in a round (trial seeds are a
//! deterministic function of each candidate's trial count) and merges
//! happen in plan order, so parallel execution is **bit-identical** to
//! forced-sequential execution, including every counter in
//! [`ArenaReport`].

use crate::candidate::{run_trials, Candidate};
use crate::exec::Evaluator;
use pb_stats::{Comparator, CompareOutcome, CompareStep, SampleStats, Which};
use std::collections::BTreeMap;

/// Counters for one arena session (folded into
/// [`TunerStats`](crate::TunerStats) by callers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaReport {
    /// Plan-then-execute rounds that issued a trial batch.
    pub rounds: u64,
    /// Comparator-requested trial draws executed via those batches.
    pub draws: u64,
}

/// A resumable decision driven by the arena: `advance` resolves as
/// much as `cmp` can decide from current statistics and returns `true`
/// once the decision is complete.
///
/// `cmp(a, b)` compares candidates by slice index: `Some(outcome)`
/// when decidable from current statistics, `None` when the comparison
/// stalled — in which case its trial demand has been recorded for the
/// round's batch. Implementations must be idempotent across calls; a
/// contest may give up the round at its first stalled comparison, and
/// may query a pair it has asked before (it is decided again from the
/// statistics as they stand).
///
/// `cands` is a read-only view of the candidates at the moment of the
/// call, so a contest whose decision rule consults statistics beyond
/// the time verdict (the merge chain's Welch accuracy test, say) can
/// evaluate it at exactly the point its verdict lands — the same
/// statistics the blocking sequential procedure would have seen.
pub trait Contest {
    /// Advances as far as the comparator can decide; `true` = done.
    fn advance(
        &mut self,
        cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>,
        cands: &[Candidate],
    ) -> bool;
}

/// The simplest contest: one head-to-head verdict between candidates
/// `a` and `b` (by slice index), as used by the child-vs-parent merge
/// of random mutation.
#[derive(Debug, Clone, Copy)]
pub struct PairContest {
    /// First candidate (the paper's "child" in merge usage).
    pub a: usize,
    /// Second candidate.
    pub b: usize,
    /// The decided outcome of comparing `a` to `b`, once complete.
    pub verdict: Option<CompareOutcome>,
}

impl PairContest {
    /// A pending comparison of `a` versus `b`.
    pub fn new(a: usize, b: usize) -> Self {
        PairContest {
            a,
            b,
            verdict: None,
        }
    }
}

impl Contest for PairContest {
    fn advance(
        &mut self,
        cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>,
        _cands: &[Candidate],
    ) -> bool {
        if self.verdict.is_none() {
            self.verdict = cmp(self.a, self.b);
        }
        self.verdict.is_some()
    }
}

/// One comparison session: evaluator + comparator + the session's
/// counters. Create one per tuner decision procedure (a prune call, a
/// merge phase) and [`run`](Arena::run) any number of contests through
/// it.
pub struct Arena<'a, 'r> {
    evaluator: &'a Evaluator<'r>,
    comparator: &'a Comparator,
    rounds: u64,
    draws: u64,
}

impl<'a, 'r> Arena<'a, 'r> {
    /// Opens a session.
    pub fn new(evaluator: &'a Evaluator<'r>, comparator: &'a Comparator) -> Self {
        Arena {
            evaluator,
            comparator,
            rounds: 0,
            draws: 0,
        }
    }

    /// The session's counters so far.
    pub fn report(&self) -> ArenaReport {
        ArenaReport {
            rounds: self.rounds,
            draws: self.draws,
        }
    }

    /// Runs every contest to completion.
    ///
    /// Each iteration advances all contests against the candidates'
    /// current statistics; every stalled comparison deposits its draw
    /// request as the trial count its candidate must reach — per
    /// candidate, the *largest* request wins, since draws extend the
    /// shared per-candidate statistics — and the round's requests
    /// execute as one batch through the evaluator, merging back in
    /// candidate-index order.
    pub fn run<C: Contest>(&mut self, cands: &mut [Candidate], n: u64, contests: &mut [C]) {
        let empty = SampleStats::new();
        loop {
            // Candidate index → trials it must have once the round ran.
            let mut demands: BTreeMap<usize, u64> = BTreeMap::new();
            let mut all_done = true;
            {
                let cands_ro: &[Candidate] = cands;
                let comparator = self.comparator;
                let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
                    debug_assert_ne!(a, b, "cannot compare a candidate to itself");
                    let time_a = cands_ro[a].stats(n).map(|s| &s.time).unwrap_or(&empty);
                    let time_b = cands_ro[b].stats(n).map(|s| &s.time).unwrap_or(&empty);
                    match comparator.decide_samples(time_a, time_b) {
                        CompareStep::Decided(outcome) => Some(outcome),
                        CompareStep::NeedMore { which, draws } => {
                            let (target, time) = match which {
                                Which::A => (a, time_a),
                                Which::B => (b, time_b),
                            };
                            let entry = demands.entry(target).or_insert(0);
                            *entry = (*entry).max(time.count() + draws);
                            None
                        }
                    }
                };
                for contest in contests.iter_mut() {
                    all_done &= contest.advance(&mut cmp, cands_ro);
                }
            }
            if all_done {
                return;
            }
            debug_assert!(!demands.is_empty(), "a stalled contest must demand draws");

            // One batch for the whole round, spanning every stalled
            // comparison, run on the pool (or sequentially —
            // bit-identical either way); candidate-index order fixes
            // the merge order.
            self.rounds += 1;
            self.draws += run_trials(cands, n, self.evaluator, demands);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EvalMode;
    use pb_config::{Schema, Value};
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
    use rand::rngs::SmallRng;

    /// Cost = `level`, accuracy = `level / 100`.
    struct Leveled;

    impl Transform for Leveled {
        type Input = ();
        type Output = f64;
        fn name(&self) -> &str {
            "leveled"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("leveled");
            s.add_accuracy_variable("level", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) -> f64 {
            let level = ctx.param("level").unwrap() as f64;
            ctx.charge(level);
            level / 100.0
        }
        fn accuracy(&self, _i: &(), o: &f64) -> f64 {
            *o
        }
    }

    fn candidates(runner: &TransformRunner<Leveled>, levels: &[i64]) -> Vec<Candidate> {
        let schema = runner.schema();
        levels
            .iter()
            .enumerate()
            .map(|(i, &level)| {
                let mut config = schema.default_config();
                config
                    .set_by_name(schema, "level", Value::Int(level))
                    .unwrap();
                Candidate::new(i as u64, config)
            })
            .collect()
    }

    #[test]
    fn pair_contests_batch_their_draws() {
        let runner = TransformRunner::new(Leveled, CostModel::Virtual);
        let mut cands = candidates(&runner, &[10, 80, 20, 60]);
        let evaluator = Evaluator::new(&runner, EvalMode::Sequential, true);
        let comparator = Comparator::default();
        let mut arena = Arena::new(&evaluator, &comparator);
        // Two disjoint pairs: their min-trial fills must share rounds.
        let mut contests = [PairContest::new(0, 1), PairContest::new(2, 3)];
        arena.run(&mut cands, 8, &mut contests);
        assert_eq!(contests[0].verdict, Some(CompareOutcome::Less));
        assert_eq!(contests[1].verdict, Some(CompareOutcome::Less));
        let report = arena.report();
        assert!(report.rounds > 0);
        assert!(
            report.draws > report.rounds,
            "disjoint pairs must batch together: {report:?}"
        );
    }
}
