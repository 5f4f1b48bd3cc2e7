// Seeded deterministic fault injection for autotuner trials.
//
// A candidate configuration can drive a trial into a panic or a
// non-finite cost; the tuner's fault-isolation layer
// (`pb_tuner::Evaluator`) exists to survive that, and this module is
// the harness that proves it does: a `FaultyRunner` wraps any
// `TrialRunner` and injects faults at *seeded, reproducible* trial
// coordinates, so chaos tests can assert bit-identical tuning
// decisions instead of eyeballing flakiness.
//
// Design rules:
//
// * **Off by default, zero hot-path cost.** A default `FaultConfig`
//   makes `FaultyRunner::run_trial` a plain delegation — no lock,
//   no hash, no clock.
// * **Seeded and coordinate-keyed.** Whether a trial faults is a pure
//   function of `(plan seed, config, n, trial seed)` — *not* of
//   thread interleaving or call order — so sequential and pooled runs
//   inject the same faults at the same coordinates.
// * **Bounded per coordinate.** Each faulting coordinate fails its
//   first `FaultConfig::faults_per_trial` attempts and then
//   succeeds, which is what makes "retries heal everything"
//   assertable: with `faults_per_trial = 1` and at least one retry,
//   a virtual-cost tuning run's decisions are bit-identical to the
//   fault-free run.

use petabricks::config::Config;
use petabricks::runtime::{TraceNode, TrialOutcome, TrialRunner};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which fault a coordinate injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// The trial panics (models a crash in measured code).
    Panic,
    /// The trial reports a non-finite cost (models an overflowed
    /// accumulator).
    NonFinite,
}

/// The injection plan: fault rates.
///
/// All rates are probabilities in `[0, 1]` evaluated against a seeded
/// hash of the trial coordinate; the default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Fraction of coordinates that panic.
    pub panic_rate: f64,
    /// Fraction of coordinates that report a non-finite cost.
    pub nonfinite_rate: f64,
    /// How many consecutive attempts at a faulting coordinate fail
    /// before it heals (`u32::MAX` = never heals).
    pub faults_per_trial: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            panic_rate: 0.0,
            nonfinite_rate: 0.0,
            faults_per_trial: 1,
        }
    }
}

impl FaultConfig {
    /// Whether this plan injects nothing at all (the fast-path gate:
    /// an off plan never hashes or locks).
    pub fn is_off(&self) -> bool {
        self.panic_rate == 0.0 && self.nonfinite_rate == 0.0
    }
}

/// Counter snapshot of everything a [`FaultyRunner`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Panics raised.
    pub panics: u64,
    /// Non-finite costs returned.
    pub nonfinite: u64,
}

/// A [`TrialRunner`] decorator that injects the plan's faults,
/// transparently delegating everything else to the wrapped
/// runner.
pub struct FaultyRunner<'r> {
    inner: &'r dyn TrialRunner,
    plan: FaultConfig,
    /// Attempt count per trial coordinate, so bounded faults heal
    /// after `faults_per_trial` attempts regardless of which pool
    /// thread retries them.
    calls: Mutex<HashMap<(u64, u64, u64), u32>>,
    panics: AtomicU64,
    nonfinite: AtomicU64,
}

impl<'r> FaultyRunner<'r> {
    /// Wraps `inner` under the given injection plan.
    pub fn new(inner: &'r dyn TrialRunner, plan: FaultConfig) -> Self {
        FaultyRunner {
            inner,
            plan,
            calls: Mutex::new(HashMap::new()),
            panics: AtomicU64::new(0),
            nonfinite: AtomicU64::new(0),
        }
    }

    /// Everything injected so far.
    pub fn report(&self) -> InjectionReport {
        InjectionReport {
            panics: self.panics.load(Ordering::Relaxed),
            nonfinite: self.nonfinite.load(Ordering::Relaxed),
        }
    }

    /// Records one more attempt at `key` and returns the attempt
    /// number just consumed (0 for the first call).
    fn bump_attempt(&self, key: (u64, u64, u64)) -> u32 {
        let mut calls = self.calls.lock().expect("fault call map poisoned");
        let entry = calls.entry(key).or_insert(0);
        let attempt = *entry;
        *entry = entry.saturating_add(1);
        attempt
    }

    /// The fault this coordinate injects on the given attempt, if any.
    /// Selection ignores the attempt (a coordinate either is chaos-
    /// chosen or is not); the attempt only bounds how long it faults.
    fn fault_for(&self, key: (u64, u64, u64), attempt: u32) -> Option<FaultKind> {
        if attempt >= self.plan.faults_per_trial {
            return None;
        }
        let draw = unit(mix(&[SALT_FAULT, self.plan.seed, key.0, key.1, key.2]));
        let panic_edge = self.plan.panic_rate;
        let nonfinite_edge = panic_edge + self.plan.nonfinite_rate;
        if draw < panic_edge {
            Some(FaultKind::Panic)
        } else if draw < nonfinite_edge {
            Some(FaultKind::NonFinite)
        } else {
            None
        }
    }
}

impl TrialRunner for FaultyRunner<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &petabricks::config::Schema {
        self.inner.schema()
    }

    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        if self.plan.is_off() {
            return self.inner.run_trial(config, n, seed);
        }
        let key = (config_key(config), n, seed);
        let attempt = self.bump_attempt(key);
        match self.fault_for(key, attempt) {
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("pb_faults: injected panic at n={n} seed={seed} attempt={attempt}");
            }
            Some(FaultKind::NonFinite) => {
                self.nonfinite.fetch_add(1, Ordering::Relaxed);
                let mut outcome = self.inner.run_trial(config, n, seed);
                outcome.virtual_cost = f64::NAN;
                outcome
            }
            None => self.inner.run_trial(config, n, seed),
        }
    }

    /// Traced runs are diagnostic, not decisions; they bypass
    /// injection so cycle-shape reports stay readable under chaos.
    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.inner.run_traced(config, n, seed)
    }
}

const SALT_FAULT: u64 = 0x7061_6E69_635F_6B65; // "panic_ke"

/// FNV-1a over the configuration's canonical JSON: a stable identity
/// for "same candidate" that needs no dependency on the tuner's own
/// fingerprinting.
fn config_key(config: &Config) -> u64 {
    fnv1a(config.to_json().as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64-style avalanche over a word sequence.
fn mix(words: &[u64]) -> u64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        state ^= w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = state.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    state ^= state >> 31;
    state = state.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    state ^= state >> 33;
    state
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use petabricks::config::Schema;
    use petabricks::runtime::{CostModel, ExecCtx, Transform, TransformRunner};
    use rand::rngs::SmallRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    struct Linear;

    impl Transform for Linear {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "linear"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("linear");
            s.add_cutoff("c", 1, 64);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            ctx.charge(ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            1.0
        }
    }

    fn runner() -> TransformRunner<Linear> {
        TransformRunner::new(Linear, CostModel::Virtual)
    }

    #[test]
    fn off_plan_is_a_pure_passthrough() {
        let inner = runner();
        let faulty = FaultyRunner::new(&inner, FaultConfig::default());
        let config = inner.schema().default_config();
        let direct = inner.run_trial(&config, 32, 9);
        let wrapped = faulty.run_trial(&config, 32, 9);
        assert_eq!(
            direct.virtual_cost.to_bits(),
            wrapped.virtual_cost.to_bits()
        );
        assert_eq!(direct.accuracy.to_bits(), wrapped.accuracy.to_bits());
        assert_eq!(faulty.report(), InjectionReport::default());
        assert!(
            faulty.calls.lock().unwrap().is_empty(),
            "off plan must not even count calls"
        );
    }

    #[test]
    fn forced_panic_heals_after_faults_per_trial_attempts() {
        let inner = runner();
        let faulty = FaultyRunner::new(
            &inner,
            FaultConfig {
                panic_rate: 1.0,
                faults_per_trial: 2,
                ..FaultConfig::default()
            },
        );
        let config = inner.schema().default_config();
        for _ in 0..2 {
            let attempt = catch_unwind(AssertUnwindSafe(|| faulty.run_trial(&config, 16, 5)));
            assert!(attempt.is_err(), "first two attempts must panic");
        }
        let healed = faulty.run_trial(&config, 16, 5);
        assert!(healed.virtual_cost.is_finite());
        assert_eq!(faulty.report().panics, 2);
        // Another coordinate counts its own attempts.
        let other = catch_unwind(AssertUnwindSafe(|| faulty.run_trial(&config, 16, 6)));
        assert!(other.is_err(), "a fresh coordinate's first attempt panics");
    }

    #[test]
    fn nonfinite_injection_corrupts_only_the_cost() {
        let inner = runner();
        let faulty = FaultyRunner::new(
            &inner,
            FaultConfig {
                nonfinite_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        let config = inner.schema().default_config();
        let bad = faulty.run_trial(&config, 8, 1);
        assert!(bad.virtual_cost.is_nan());
        assert_eq!(bad.accuracy, 1.0, "accuracy survives a corrupted cost");
        let healed = faulty.run_trial(&config, 8, 1);
        assert_eq!(healed.virtual_cost, 8.0);
        assert_eq!(faulty.report().nonfinite, 1);
    }

    #[test]
    fn rates_select_a_seeded_reproducible_subset() {
        let inner = runner();
        let plan = FaultConfig {
            seed: 1234,
            panic_rate: 0.3,
            ..FaultConfig::default()
        };
        let first = FaultyRunner::new(&inner, plan.clone());
        let second = FaultyRunner::new(&inner, plan);
        let config = inner.schema().default_config();
        let mut panicked = 0;
        for seed in 0..200 {
            let a = catch_unwind(AssertUnwindSafe(|| first.run_trial(&config, 32, seed)));
            let b = catch_unwind(AssertUnwindSafe(|| second.run_trial(&config, 32, seed)));
            assert_eq!(
                a.is_err(),
                b.is_err(),
                "same plan must fault the same coordinates"
            );
            panicked += a.is_err() as u32;
        }
        assert!(
            (30..90).contains(&panicked),
            "a 30% rate should hit roughly 60 of 200 coordinates, hit {panicked}"
        );
        // A different seed picks a different subset.
        let other = FaultyRunner::new(
            &inner,
            FaultConfig {
                seed: 99,
                panic_rate: 0.3,
                ..FaultConfig::default()
            },
        );
        let differs = (0..200).any(|seed| {
            let a = catch_unwind(AssertUnwindSafe(|| first.run_trial(&config, 32, seed)));
            let b = catch_unwind(AssertUnwindSafe(|| other.run_trial(&config, 32, seed)));
            a.is_err() != b.is_err()
        });
        assert!(differs, "different plan seeds must differ somewhere");
    }
}
