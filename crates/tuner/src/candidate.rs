//! Candidate algorithms: a configuration plus cached measurements.
//!
//! "The dominant time requirement of our autotuner is testing candidate
//! algorithms by running them on training inputs" (§5.5.1), so every
//! trial's result is cached on the candidate for as long as the tuner
//! trains at that input size. [`run_trials`] is the one path from a
//! trial to a candidate.

use crate::exec::{Evaluator, SharedConfig, TrialRequest};
use crate::mutators::MutationRecord;
use pb_config::Config;
use pb_runtime::TrialOutcome;
use pb_stats::OnlineStats;

/// Cached timing and accuracy statistics for one input size.
#[derive(Debug, Clone, Default)]
pub struct SizeStats {
    /// Virtual-cost observations: the mean and variance the comparator
    /// tests.
    pub time: OnlineStats,
    /// Accuracy-metric observations.
    pub accuracy: OnlineStats,
}

/// One member of the tuner's population.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Unique id within one tuning run: an identity for callers to
    /// compare. The tuner itself never reads it; trial seeds come from
    /// the input size and the trial index, not from the candidate.
    pub id: u64,
    /// The configuration this candidate embodies, fingerprinted once:
    /// every trial planned for it shares both.
    config: SharedConfig,
    /// The measurements at the input size they were taken at. A run
    /// climbs its size schedule and never reads a size it has left, so
    /// a candidate keeps one size's statistics: trials at a new size
    /// replace them.
    results: Option<(u64, SizeStats)>,
    /// Record of the mutation that created this candidate, consumed by
    /// the `MetaUndo` mutator (§5.4).
    pub last_mutation: Option<MutationRecord>,
}

impl Candidate {
    /// Wraps a configuration as an untested candidate, fingerprinting
    /// it.
    pub fn new(id: u64, config: Config) -> Self {
        Candidate::shared(id, SharedConfig::new(config))
    }

    /// Wraps an already fingerprinted configuration.
    pub(crate) fn shared(id: u64, config: SharedConfig) -> Self {
        Candidate {
            id,
            config,
            results: None,
            last_mutation: None,
        }
    }

    /// The configuration this candidate embodies.
    pub fn config(&self) -> &Config {
        self.config.config()
    }

    /// The cached statistics for input size `n`, if any trials ran
    /// there since the candidate last measured another size.
    pub fn stats(&self, n: u64) -> Option<&SizeStats> {
        match &self.results {
            Some((size, stats)) if *size == n => Some(stats),
            _ => None,
        }
    }

    /// Mutable access to the statistics for size `n`, starting them
    /// afresh (and dropping another size's) if there are none.
    pub fn stats_mut(&mut self, n: u64) -> &mut SizeStats {
        if self.stats(n).is_none() {
            self.results = None;
        }
        let (_, stats) = self
            .results
            .get_or_insert_with(|| (n, SizeStats::default()));
        stats
    }

    /// Number of trials cached at size `n`.
    pub fn trials(&self, n: u64) -> u64 {
        self.stats(n).map(|s| s.time.count()).unwrap_or(0)
    }

    /// Mean cost at size `n` (`+inf` when untested, so untested
    /// candidates sort last in rough performance ordering).
    pub fn mean_time(&self, n: u64) -> f64 {
        self.stats(n)
            .filter(|s| !s.time.is_empty())
            .map(|s| s.time.mean())
            .unwrap_or(f64::INFINITY)
    }

    /// Mean accuracy at size `n` (`-inf` when untested).
    pub fn mean_accuracy(&self, n: u64) -> f64 {
        self.stats(n)
            .filter(|s| !s.accuracy.is_empty())
            .map(|s| s.accuracy.mean())
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Plans the trials needed to reach `min_trials` cached trials at
    /// size `n` (the *plan* half of plan-then-execute; outcomes are
    /// merged back with [`Candidate::absorb`] in trial-index order).
    /// To plan `extra` trials beyond the cached ones, ask for
    /// `trials(n) + extra`. Every request shares the candidate's
    /// configuration and fingerprint: planning neither clones nor
    /// hashes it.
    ///
    /// Seeds are a deterministic function of the size and trial index,
    /// so *different candidates are measured on the same training
    /// inputs*, which sharpens comparisons exactly as reusing test
    /// inputs did in the original system.
    pub fn plan_trials(&self, n: u64, min_trials: u64) -> impl Iterator<Item = TrialRequest> + '_ {
        self.config.plan(n, self.trials(n)..min_trials)
    }

    /// Merges one planned trial's outcome into the size-`n` statistics.
    /// Callers must absorb outcomes in the trial-index order they were
    /// planned, which keeps parallel runs bit-identical to sequential.
    pub fn absorb(&mut self, n: u64, outcome: &TrialOutcome) {
        let stats = self.stats_mut(n);
        stats.time.push(outcome.virtual_cost);
        stats.accuracy.push(outcome.accuracy);
    }

    /// Whether this candidate meets accuracy `target` at size `n` (by
    /// mean accuracy over its cached trials).
    pub fn meets_target(&self, n: u64, target: f64) -> bool {
        self.mean_accuracy(n) >= target
    }
}

/// The one path from a trial to a candidate. For each `(i, min_trials)`
/// in `wants`, plans the trials candidate `i` lacks to hold `min_trials`
/// at size `n`; runs them all as one [`Evaluator::run_batch`]; and
/// absorbs each candidate's outcomes in plan order. `wants` names each
/// candidate at most once, and its order is the batch's order.
/// Candidates that lack nothing add nothing. Returns the number of
/// trials run.
pub(crate) fn run_trials(
    cands: &mut [Candidate],
    n: u64,
    evaluator: &Evaluator<'_>,
    wants: impl IntoIterator<Item = (usize, u64)>,
) -> u64 {
    let mut requests = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (i, min_trials) in wants {
        let start = requests.len();
        requests.extend(cands[i].plan_trials(n, min_trials));
        if requests.len() > start {
            spans.push((i, requests.len() - start));
        }
    }
    if requests.is_empty() {
        return 0;
    }
    let outcomes = evaluator.run_batch(&requests);
    let mut outcomes = outcomes.iter();
    for (i, count) in spans {
        for outcome in outcomes.by_ref().take(count) {
            cands[i].absorb(n, outcome);
        }
    }
    requests.len() as u64
}

/// Deterministic seed for trial `index` at input size `n`, shared by all
/// candidates so they compete on identical inputs.
pub(crate) fn trial_seed(n: u64, index: u64) -> u64 {
    let mut x = n
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(index.wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(0x2545F4914F6CDD1D);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Schema;
    use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner, TrialRunner};
    use rand::rngs::SmallRng;

    struct Fixed;

    impl Transform for Fixed {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "fixed"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("fixed");
            s.add_accuracy_variable("v", 1, 10);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            let v = ctx.param("v").unwrap() as f64;
            ctx.charge(v * ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.7
        }
    }

    /// Plans up to `min_trials` at `n`, runs the plan, absorbs it.
    fn fill(c: &mut Candidate, runner: &dyn TrialRunner, n: u64, min_trials: u64) {
        let plan: Vec<TrialRequest> = c.plan_trials(n, min_trials).collect();
        for r in plan {
            c.absorb(n, &runner.run_trial(r.config(), r.n, r.seed));
        }
    }

    #[test]
    fn planned_trials_reach_min_and_cache() {
        let runner = TransformRunner::new(Fixed, CostModel::Virtual);
        let mut c = Candidate::new(0, runner.schema().default_config());
        assert_eq!(c.trials(16), 0);
        assert_eq!(c.mean_time(16), f64::INFINITY);
        assert_eq!(c.mean_accuracy(16), f64::NEG_INFINITY);
        fill(&mut c, &runner, 16, 3);
        assert_eq!(c.trials(16), 3);
        assert_eq!(c.mean_time(16), 16.0);
        assert_eq!(c.mean_accuracy(16), 0.7);
        // Planning again asks for nothing more.
        assert_eq!(c.plan_trials(16, 3).count(), 0);
        // Other sizes remain independent.
        assert_eq!(c.trials(32), 0);
    }

    #[test]
    fn meets_target_uses_mean_accuracy() {
        let runner = TransformRunner::new(Fixed, CostModel::Virtual);
        let mut c = Candidate::new(0, runner.schema().default_config());
        fill(&mut c, &runner, 8, 2);
        assert!(c.meets_target(8, 0.7));
        assert!(c.meets_target(8, 0.5));
        assert!(!c.meets_target(8, 0.71));
        assert!(!c.meets_target(16, 0.1), "untested size never qualifies");
    }

    #[test]
    fn trial_seeds_are_distinct_but_deterministic() {
        let a = trial_seed(64, 0);
        let b = trial_seed(64, 1);
        let c = trial_seed(128, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, trial_seed(64, 0));
    }
}
