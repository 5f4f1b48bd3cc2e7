//! Plan-then-execute trial evaluation: batching, parallelism, and
//! memoization.
//!
//! "The dominant time requirement of our autotuner is testing candidate
//! algorithms by running them on training inputs" (§5.5.1). The tuner
//! therefore separates *planning* which trials a generation needs from
//! *executing* them: phases collect [`TrialRequest`]s and hand them to
//! an [`Evaluator`], which
//!
//! * executes whole batches on the [`pb_runtime::pool::Pool`] (or
//!   sequentially, when forced) — on the submitting thread, as one pool
//!   task, when its measured trial times say the batch costs less than
//!   a dispatch — and
//! * memoizes outcomes, for one tuning run, in a fingerprint cache keyed
//!   on `(canonical config hash, n, seed)`, so duplicate candidates and
//!   mutate-then-revert configurations never re-execute a trial, and
//! * builds each training input once per tuning run
//!   ([`TrialRunner::prepare`]) and shares it with every trial on the
//!   same `(n, seed)`, whatever the candidate. Every trial runs through
//!   [`TrialRunner::run_prepared`]: a runner that keeps nothing per
//!   input gets the default `()` input, and the default `run_prepared`
//!   calls its own `run_trial`.
//!
//! Because trial seeds are a deterministic function of the input size
//! and trial index, and every trial is a pure function of
//! `(config, n, seed)` under the virtual cost model, parallel execution
//! is **bit-identical** to sequential execution: only the wall-clock
//! schedule differs, never an outcome or a merge order.
//!
//! [`Evaluator::run_batch`] is the only way a trial reaches the runner:
//! the adaptive comparator's demand-driven extra trials (§5.5.1) are
//! planned and batched per arena round, and guided mutation's probes
//! (§5.5.3) are candidates batched per step, like everything else.

use crate::tuner::TunerStats;
use pb_config::{Config, Value};
use pb_runtime::parallel::parallel_gen;
use pb_runtime::pool::Pool;
use pb_runtime::{SharedInput, TrialOutcome, TrialRunner};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How an [`Evaluator`] executes a batch of trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Batches run on the global pool.
    #[default]
    Parallel,
    /// Batches run one trial at a time on the calling thread (forced
    /// sequential mode; the determinism baseline).
    Sequential,
}

/// Retries after a trial's first faulting attempt (up to three attempts
/// in total) before its outcome is replaced by the quarantine sentinel
/// ([`TrialOutcome::QUARANTINED`]).
///
/// Trials are hostile territory: a candidate configuration can drive a
/// transform into a panic or a NaN cost. The evaluator counts, retries
/// and ultimately quarantines each such fault instead of letting it
/// propagate and kill the tuning run (or poison the pool).
const MAX_RETRIES: u32 = 2;

/// One planned trial: a configuration to run at input size `n` with a
/// deterministic seed.
///
/// The configuration is shared (`Arc`) and its fingerprint is computed
/// once per candidate, when the candidate is created: every request
/// planned for it — and `run_batch`'s internal bookkeeping — carries
/// both without re-cloning or re-hashing the config.
#[derive(Debug, Clone)]
pub struct TrialRequest {
    config: Arc<Config>,
    fingerprint: u64,
    /// Input size.
    pub n: u64,
    /// Deterministic trial seed (derived from `n` and the trial
    /// index, shared across candidates).
    pub seed: u64,
}

impl TrialRequest {
    /// Plans one trial, fingerprinting the configuration.
    pub fn new(config: Arc<Config>, n: u64, seed: u64) -> Self {
        let fingerprint = config_fingerprint(&config);
        TrialRequest::fingerprinted(config, fingerprint, n, seed)
    }

    /// Plans one trial on a configuration whose fingerprint is already
    /// known: how a candidate plans every trial without re-hashing.
    pub(crate) fn fingerprinted(config: Arc<Config>, fingerprint: u64, n: u64, seed: u64) -> Self {
        TrialRequest {
            config,
            fingerprint,
            n,
            seed,
        }
    }

    /// The configuration to execute.
    pub fn config(&self) -> &Config {
        &self.config
    }

    fn key(&self) -> CacheKey {
        (self.fingerprint, self.n, self.seed)
    }
}

/// 64-bit FNV-1a over a configuration's canonical structure.
///
/// Canonical because [`Config`] stores its values in schema order; two
/// configurations reachable by different mutation paths but equal
/// value-for-value hash identically (the mutate-then-revert case).
/// Hashes the values directly — no serialization — because this runs
/// for every trial request and comparator draw.
pub fn config_fingerprint(config: &Config) -> u64 {
    // Low byte first, so every bit of `word` stirs.
    fn mix(hash: &mut u64, word: u64) {
        *hash = fnv1a(*hash, &word.to_le_bytes());
    }
    let mut hash = fnv1a(FNV_OFFSET, config.transform().as_bytes());
    for value in config.values() {
        match value {
            Value::Int(v) => {
                mix(&mut hash, 1);
                mix(&mut hash, *v as u64);
            }
            Value::Float(v) => {
                mix(&mut hash, 2);
                // `-0.0 == 0.0`: equal configs must fingerprint
                // identically, so normalize the sign of zero before
                // taking bits.
                let v = if *v == 0.0 { 0.0 } else { *v };
                mix(&mut hash, v.to_bits());
            }
            Value::Switch(v) => {
                mix(&mut hash, 3);
                mix(&mut hash, *v as u64);
            }
            Value::Tree(tree) => {
                mix(&mut hash, 4);
                mix(&mut hash, tree.top_choice() as u64);
                for level in tree.levels() {
                    mix(&mut hash, level.cutoff);
                    mix(&mut hash, level.choice as u64);
                }
            }
        }
    }
    hash
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a `hash`, one byte at a time.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

type CacheKey = (u64, u64, u64);

/// Hashes the evaluator's keys — config fingerprints, trial seeds and
/// input sizes, all already well mixed or few — with one multiply and
/// one rotate per word instead of SipHash's rounds. It resists no
/// adversary, and needs not: every key is the tuner's own.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed through [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The trial memo: `(config fingerprint, n, seed) → outcome`, for one
/// tuning run. It lives as long as its evaluator and is never written
/// anywhere: its keys cannot see a change to a transform's code.
#[derive(Debug, Default)]
struct TrialCache {
    map: Mutex<KeyMap<CacheKey, TrialOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Intra-batch duplicates: requests that shared another request's
    /// execution *within the same batch*. Not hits — nothing was in
    /// the cache when the batch was planned — and not misses — they
    /// did not execute a trial.
    coalesced: AtomicU64,
}

/// The estimated work below which a parallel-mode batch runs on the
/// submitting thread instead of the pool: for less, queueing the batch,
/// waking a worker and waiting for its last chunk cost more than the
/// parallelism saves. Chosen from a sweep over 5–80 µs on the
/// `tune_small` and `tune_full` ledger workloads (CHANGES.md).
const INLINE_BELOW_SECONDS: f64 = 20e-6;

/// The measured wall times of the trials run at one input size.
#[derive(Debug, Default)]
struct WallHistory {
    sum: f64,
    count: u64,
}

impl WallHistory {
    fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// One training input's slot, filled by the first trial that runs on
/// it.
type InputSlot = Arc<OnceLock<SharedInput>>;

/// Executes trials for the tuner: batched, optionally parallel,
/// memoized, each on its `(n, seed)`'s shared input.
pub struct Evaluator<'a> {
    runner: &'a dyn TrialRunner,
    mode: EvalMode,
    cache: TrialCache,
    /// The inputs built so far, `(n, seed) → input`. Trial seeds depend
    /// only on `(n, trial index)`, so a run meets few of them, and each
    /// lives until the tuner moves past its size
    /// ([`Evaluator::drop_inputs_below`]).
    inputs: Mutex<KeyMap<(u64, u64), InputSlot>>,
    /// Per input size, the measured wall time of the trials this
    /// evaluator ran in parallel mode: what decides whether a batch is
    /// worth dispatching. Updated once per batch, by the submitting
    /// thread.
    walls: Mutex<KeyMap<u64, WallHistory>>,
    /// Calls into the runner, retried attempts included.
    trials: AtomicU64,
    /// Attempts that panicked (caught, never propagated).
    trial_panics: AtomicU64,
    /// Attempts that reported a non-finite cost.
    trial_nonfinite: AtomicU64,
    /// Re-executions triggered by a faulting attempt.
    trial_retries: AtomicU64,
    /// Trials whose every attempt faulted: their outcome is the
    /// [`TrialOutcome::QUARANTINED`] sentinel.
    quarantined: AtomicU64,
}

impl<'a> Evaluator<'a> {
    /// Wraps `runner`, with an empty trial memo. Every trial is a pure
    /// function of `(config, n, seed)`, so the memo is always on:
    /// `memoize` is ignored, and kept only so the frozen ledger
    /// (`ledger/src/layers.rs`) builds; the ledger refresh deletes it.
    pub fn new(runner: &'a dyn TrialRunner, mode: EvalMode, memoize: bool) -> Self {
        let _ = memoize;
        Evaluator {
            runner,
            mode,
            cache: TrialCache::default(),
            inputs: Mutex::default(),
            walls: Mutex::default(),
            trials: AtomicU64::new(0),
            trial_panics: AtomicU64::new(0),
            trial_nonfinite: AtomicU64::new(0),
            trial_retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The counters this evaluator owns — calls into the runner, the
    /// memo's hits, misses and coalesced requests, and the fault
    /// counters — as a [`TunerStats`] whose run-level fields are zero.
    pub fn counters(&self) -> TunerStats {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TunerStats {
            trials: read(&self.trials),
            cache_hits: read(&self.cache.hits),
            cache_misses: read(&self.cache.misses),
            cache_coalesced: read(&self.cache.coalesced),
            trial_panics: read(&self.trial_panics),
            trial_nonfinite: read(&self.trial_nonfinite),
            trial_retries: read(&self.trial_retries),
            quarantined: read(&self.quarantined),
            ..TunerStats::default()
        }
    }

    /// Runs every request and returns outcomes in request order.
    ///
    /// Cache hits and duplicates *within* the batch (counted
    /// separately, as coalesced) never re-execute; the remaining
    /// unique trials run on the pool in parallel mode or in order in
    /// sequential mode. Identical results and identical final cache
    /// state either way.
    pub fn run_batch(&self, requests: &[TrialRequest]) -> Vec<TrialOutcome> {
        let cache = &self.cache;

        // Partition into already-cached slots and unique misses.
        let mut slots: Vec<Option<TrialOutcome>> = vec![None; requests.len()];
        // For non-cached requests: index into `misses`.
        let mut pending: Vec<usize> = vec![usize::MAX; requests.len()];
        let mut miss_of_key: KeyMap<CacheKey, usize> = KeyMap::default();
        // The requests that execute, borrowed: nothing is cloned.
        let mut misses: Vec<&TrialRequest> = Vec::new();
        let mut hits = 0;
        let mut coalesced = 0;
        {
            let map = cache.map.lock().expect("trial cache poisoned");
            for (i, request) in requests.iter().enumerate() {
                let key = request.key();
                if let Some(&outcome) = map.get(&key) {
                    slots[i] = Some(outcome);
                    hits += 1;
                } else if let Some(&mi) = miss_of_key.get(&key) {
                    // Duplicate within the batch: executes once, but
                    // nothing was cached yet — count it as coalesced,
                    // not as a hit, so the reported hit rate reflects
                    // actual cache reuse.
                    pending[i] = mi;
                    coalesced += 1;
                } else {
                    let mi = misses.len();
                    miss_of_key.insert(key, mi);
                    misses.push(request);
                    pending[i] = mi;
                }
            }
        }
        cache.hits.fetch_add(hits, Ordering::Relaxed);
        cache.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        cache
            .misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);

        let executed = self.execute(&misses);
        {
            let mut map = cache.map.lock().expect("trial cache poisoned");
            for (request, &outcome) in misses.iter().zip(&executed) {
                map.insert(request.key(), outcome);
            }
        }

        slots
            .into_iter()
            .zip(pending)
            .map(|(slot, mi)| slot.unwrap_or_else(|| executed[mi]))
            .collect()
    }

    /// Executes every request (no cache involvement; `run_batch` hands
    /// over distinct coordinates only), parallel or sequential per the
    /// mode. In parallel mode a batch cheaper than a dispatch runs
    /// inline (see [`Evaluator::runs_inline`]).
    fn execute(&self, requests: &[&TrialRequest]) -> Vec<TrialOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        let inputs = self.input_slots(requests);
        let run = |i: usize| self.guarded_run(requests[i], &inputs[i]);
        let in_order = || (0..requests.len()).map(run).collect();
        if self.mode == EvalMode::Sequential {
            return in_order();
        }
        let outcomes = if self.runs_inline(requests, &inputs) {
            Pool::global().run_inline(requests.len(), in_order)
        } else {
            parallel_gen(requests.len(), 2, run)
        };
        self.record_walls(requests, &outcomes);
        outcomes
    }

    /// Whether a parallel-mode batch runs on the submitting thread:
    /// every request's size has a wall-time history, every input is
    /// already built, and the estimated work — the sum of the
    /// requests' per-size mean wall times — is below
    /// [`INLINE_BELOW_SECONDS`]. The history is per size because one
    /// mean over all sizes sends large-size batches inline; the inputs
    /// must be built because `wall_seconds` does not include building
    /// them, and an inline batch would build them one after another.
    fn runs_inline(&self, requests: &[&TrialRequest], inputs: &[InputSlot]) -> bool {
        if inputs.iter().any(|slot| slot.get().is_none()) {
            return false;
        }
        let history = self.walls.lock().expect("wall history poisoned");
        let mut estimate = 0.0;
        for r in requests {
            let Some(walls) = history.get(&r.n) else {
                return false;
            };
            estimate += walls.mean();
            if estimate >= INLINE_BELOW_SECONDS {
                return false;
            }
        }
        true
    }

    /// Folds a parallel-mode batch's measured wall times into the
    /// per-size history, under one lock. A quarantined trial measured
    /// nothing.
    fn record_walls(&self, requests: &[&TrialRequest], outcomes: &[TrialOutcome]) {
        let mut history = self.walls.lock().expect("wall history poisoned");
        for (r, outcome) in requests.iter().zip(outcomes) {
            if outcome.wall_seconds.is_finite() {
                let walls = history.entry(r.n).or_default();
                walls.sum += outcome.wall_seconds;
                walls.count += 1;
            }
        }
    }

    /// Each request's input slot, in request order, all looked up under
    /// one lock: a batch holds few distinct `(n, seed)`, and a lock per
    /// trial would cost the shortest trials more than they save.
    fn input_slots(&self, requests: &[&TrialRequest]) -> Vec<InputSlot> {
        let mut inputs = self.inputs.lock().expect("input map poisoned");
        requests
            .iter()
            .map(|r| Arc::clone(inputs.entry((r.n, r.seed)).or_default()))
            .collect()
    }

    /// Executes one trial under full fault isolation, counting every
    /// call into the runner: panics are caught (`catch_unwind` — the
    /// pool's unwind machinery never engages), non-finite costs are
    /// counted as faults too, and a faulting attempt is retried up to
    /// `MAX_RETRIES` times. The first attempt on an empty `input` slot
    /// prepares the input inside the same guard, so a panicking input
    /// generator faults like a panicking trial, and leaves the slot
    /// empty for the next attempt. A trial whose every attempt faults is
    /// *quarantined*: its recorded outcome is the deterministic
    /// worst-cost sentinel [`TrialOutcome::QUARANTINED`], which loses
    /// every comparison and meets no accuracy target, so tournaments,
    /// arena contests, and merges degrade gracefully instead of
    /// aborting the run.
    fn guarded_run(&self, r: &TrialRequest, input: &OnceLock<SharedInput>) -> TrialOutcome {
        for attempt in 0..=MAX_RETRIES {
            if attempt > 0 {
                self.trial_retries.fetch_add(1, Ordering::Relaxed);
            }
            self.trials.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| {
                let input = input.get_or_init(|| self.runner.prepare(r.n, r.seed));
                self.runner.run_prepared(r.config(), input, r.n, r.seed)
            })) {
                Ok(outcome) if outcome.virtual_cost.is_finite() => return outcome,
                Ok(_) => self.trial_nonfinite.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.trial_panics.fetch_add(1, Ordering::Relaxed),
            };
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        TrialOutcome::QUARANTINED
    }

    /// Drops the inputs of sizes below `n`, and what they keep. A tuning
    /// run climbs its size schedule and runs no trial below the size it
    /// is at; a trial that did would prepare its input again.
    pub(crate) fn drop_inputs_below(&self, n: u64) {
        let mut inputs = self.inputs.lock().expect("input map poisoned");
        inputs.retain(|&(size, _), _| size >= n);
    }

    /// Always 0, and reads nothing: the trial memo lives for one tuning
    /// run. Does nothing; kept only so the frozen ledger
    /// (`ledger/src/layers.rs`) builds; the ledger refresh deletes it
    /// with the `sidecars` row.
    pub fn load_sidecar(&self, _path: &Path) -> usize {
        0
    }

    /// Always `Ok(())`, and writes nothing: the trial memo is never
    /// persisted. Does nothing; kept only so the frozen ledger
    /// (`ledger/src/layers.rs`) builds; the ledger refresh deletes it
    /// with the `sidecars` row.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn save_sidecar(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::trial_seed;
    use pb_config::{Schema, Value};
    use pb_runtime::{CostModel, ExecCtx, TraceNode, Transform, TransformRunner};
    use rand::rngs::SmallRng;
    use std::any::Any;
    use std::collections::HashSet;
    use std::sync::Weak;

    struct Linear;

    impl Transform for Linear {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "linear"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("linear");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            let v = ctx.param("v").unwrap() as f64;
            ctx.charge(v * ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.5
        }
    }

    fn request(config: &Config, n: u64, index: u64) -> TrialRequest {
        TrialRequest::new(Arc::new(config.clone()), n, trial_seed(n, index))
    }

    /// The memo is keyed by config fingerprint: a change to its value
    /// must be a deliberate one.
    #[test]
    fn config_fingerprint_is_pinned() {
        let mut schema = Schema::new("golden");
        schema.add_choice_site("site", 3);
        schema.add_cutoff("cutoff", 1, 1024);
        schema.add_switch("layout", 2);
        schema.add_accuracy_variable("iters", 1, 100);
        schema.add_float_param("omega", 1.0, 2.0);
        schema.add_user_param("k", -4, 16);
        let mut config = schema.default_config();
        assert_eq!(config_fingerprint(&config), 12017072131133183710);
        config
            .set_by_name(&schema, "omega", Value::Float(1.37))
            .unwrap();
        config.set_by_name(&schema, "k", Value::Int(-3)).unwrap();
        assert_eq!(config_fingerprint(&config), 13940676186799297719);
    }

    /// The memo's keys, and so `tuner.cache_hit_share`, depend on each
    /// request's fingerprint: one computed per candidate must be the
    /// one `config_fingerprint` gives, on every request planned.
    #[test]
    fn requests_planned_from_a_candidate_carry_its_fingerprint() {
        let mut schema = Schema::new("golden");
        schema.add_choice_site("site", 3);
        schema.add_accuracy_variable("iters", 1, 100);
        schema.add_float_param("omega", 1.0, 2.0);
        let mut config = schema.default_config();
        config
            .set_by_name(&schema, "omega", Value::Float(1.37))
            .unwrap();
        let fingerprint = config_fingerprint(&config);
        let candidate = crate::candidate::Candidate::new(7, config.clone());
        let planned: Vec<TrialRequest> = candidate.plan_trials(16, 3).collect();
        let more: Vec<TrialRequest> = candidate
            .plan_trials(16, candidate.trials(16) + 2)
            .collect();
        assert_eq!((planned.len(), more.len()), (3, 2));
        // Nothing absorbed yet: both plans start at trial index 0.
        let seeds: Vec<u64> = planned.iter().chain(&more).map(|r| r.seed).collect();
        let indices = (0..3).chain(0..2);
        assert_eq!(
            seeds,
            indices.map(|i| trial_seed(16, i)).collect::<Vec<_>>()
        );
        for r in planned.iter().chain(&more) {
            assert_eq!(r.fingerprint, fingerprint);
            assert_eq!(r.key(), (fingerprint, 16, r.seed));
            assert_eq!(*r.config(), config);
            // One configuration behind every request, not a copy each.
            assert!(Arc::ptr_eq(&r.config, &planned[0].config));
        }
    }

    /// Records, per trial, the task depth its kernel sees and whether a
    /// nested `parallel_gen` stayed on the trial's thread.
    struct Nesting {
        seen: Mutex<Vec<(usize, bool)>>,
    }

    impl Transform for Nesting {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "nesting"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("nesting");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            let depth = pb_runtime::pool::current_task_depth();
            let me = std::thread::current().id();
            let stayed = parallel_gen(64, 2, |_| std::thread::current().id() == me)
                .into_iter()
                .all(|same| same);
            self.seen.lock().unwrap().push((depth, stayed));
            ctx.charge(1.0);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.5
        }
    }

    #[test]
    fn an_inline_batch_keeps_nested_parallelism_inline() {
        let runner = TransformRunner::new(
            Nesting {
                seen: Mutex::default(),
            },
            CostModel::Virtual,
        );
        let eval = Evaluator::new(&runner, EvalMode::Parallel, true);
        let config = runner.schema().default_config();
        let reqs: Vec<TrialRequest> = (0..4).map(|i| request(&config, 8, i)).collect();
        let refs: Vec<&TrialRequest> = reqs.iter().collect();
        // Slots already filled, so only a missing history can keep a
        // batch off the submitting thread.
        let filled = || -> InputSlot {
            let slot: InputSlot = Arc::default();
            slot.get_or_init(|| Arc::new(()) as SharedInput);
            slot
        };
        let ready: Vec<InputSlot> = (0..4).map(|_| filled()).collect();
        assert!(!eval.runs_inline(&refs, &ready), "no history at n = 8 yet");
        let built = eval.input_slots(&refs);
        eval.run_batch(&reqs);
        assert!(built.iter().all(|slot| slot.get().is_some()));
        assert_eq!(
            eval.walls.lock().unwrap()[&8].count,
            4,
            "one wall per trial"
        );
        // These trials take far less than a quarter of the threshold,
        // unless the host preempted one: pin their mean.
        let cheap = WallHistory {
            sum: 1e-7,
            count: 1,
        };
        eval.walls.lock().unwrap().insert(8, cheap);
        assert!(eval.runs_inline(&refs, &built));
        let seen = &runner.transform().seen;
        seen.lock().unwrap().clear();
        // Past the memo, so the same requests run again.
        eval.execute(&refs);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4);
        for &(depth, stayed) in seen.iter() {
            assert!(depth >= 1, "an inline batch runs as a pool task");
            assert!(
                stayed,
                "a kernel's nested batch stays on its trial's thread"
            );
        }
        // A size without history, an input not yet built, and work
        // estimated at the threshold all dispatch.
        let other = [request(&config, 16, 0)];
        assert!(!eval.runs_inline(&[&other[0]], &[filled()]));
        let empty: InputSlot = Arc::default();
        assert!(!eval.runs_inline(&refs[..1], &[empty]));
        let costly = WallHistory {
            sum: INLINE_BELOW_SECONDS / 4.0,
            count: 1,
        };
        eval.walls.lock().unwrap().insert(8, costly);
        assert!(eval.runs_inline(&refs[..3], &built[..3]));
        assert!(!eval.runs_inline(&refs, &built));
    }

    #[test]
    fn duplicate_config_hits_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 1)];
        let first = eval.run_batch(&reqs);
        let c = eval.counters();
        assert_eq!((c.cache_misses, c.cache_hits), (2, 0));
        // A duplicate candidate re-requests the exact same trials.
        let second = eval.run_batch(&reqs);
        let c = eval.counters();
        assert_eq!(c.cache_misses, 2, "no re-execution");
        assert_eq!(c.cache_hits, 2);
        assert_eq!(first, second);
    }

    #[test]
    fn duplicates_within_one_batch_execute_once() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![
            request(&config, 8, 0),
            request(&config, 8, 0),
            request(&config, 8, 0),
        ];
        let out = eval.run_batch(&reqs);
        let c = eval.counters();
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 0, "nothing was cached when planned");
        assert_eq!(c.cache_coalesced, 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        // Re-running the same batch *is* cache reuse: all three hit.
        eval.run_batch(&reqs);
        let c = eval.counters();
        assert_eq!((c.cache_misses, c.cache_hits, c.cache_coalesced), (1, 3, 2));
    }

    #[test]
    fn negative_zero_fingerprints_like_positive_zero() {
        let mut schema = Schema::new("zeroes");
        schema.add_float_param("f", -1.0, 1.0);
        let mut pos = schema.default_config();
        pos.set_by_name(&schema, "f", Value::Float(0.0)).unwrap();
        let mut neg = schema.default_config();
        neg.set_by_name(&schema, "f", Value::Float(-0.0)).unwrap();
        // The configs are equal …
        assert_eq!(pos, neg);
        // … so they must hit the same memo entry.
        assert_eq!(config_fingerprint(&pos), config_fingerprint(&neg));
        // A genuinely different float still fingerprints differently.
        let mut other = schema.default_config();
        other.set_by_name(&schema, "f", Value::Float(0.5)).unwrap();
        assert_ne!(config_fingerprint(&pos), config_fingerprint(&other));
    }

    #[test]
    fn mutation_changes_the_fingerprint() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let schema = runner.schema();
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let base = schema.default_config();
        eval.run_batch(&[request(&base, 8, 0)]);
        assert_eq!(eval.counters().cache_misses, 1);
        // A mutated config misses …
        let mut mutated = base.clone();
        mutated.set_by_name(schema, "v", Value::Int(7)).unwrap();
        assert_ne!(config_fingerprint(&base), config_fingerprint(&mutated));
        eval.run_batch(&[request(&mutated, 8, 0)]);
        assert_eq!(eval.counters().cache_misses, 2);
        // … but reverting the mutation hits again.
        let mut reverted = mutated.clone();
        reverted.set_by_name(schema, "v", Value::Int(1)).unwrap();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&reverted));
        eval.run_batch(&[request(&reverted, 8, 0)]);
        let c = eval.counters();
        assert_eq!((c.cache_misses, c.cache_hits), (2, 1));
    }

    #[test]
    fn demand_driven_single_trials_share_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        eval.run_batch(&[request(&config, 16, 0)]);
        // The comparator-style single draw for the same trial hits.
        let outcomes = eval.run_batch(&[request(&config, 16, 0)]);
        assert_eq!(eval.counters().cache_hits, 1);
        assert_eq!(outcomes[0].virtual_cost, 16.0);
    }

    /// Panics while fewer than `fail_first` calls have been made, then
    /// behaves like `Linear`. `&self`-mutable via an atomic so the
    /// object-safe `Transform` interface stays untouched.
    struct Flaky {
        fail_first: u64,
        calls: AtomicU64,
    }

    impl Flaky {
        fn new(fail_first: u64) -> Self {
            Flaky {
                fail_first,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Transform for Flaky {
        type Input = ();
        type Output = ();
        fn name(&self) -> &str {
            "flaky"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("flaky");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
        fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                panic!("injected trial panic (test)");
            }
            ctx.charge(ctx.size() as f64);
        }
        fn accuracy(&self, _i: &(), _o: &()) -> f64 {
            0.5
        }
    }

    #[test]
    fn transient_panic_recovers_after_retry() {
        let runner = TransformRunner::new(Flaky::new(1), CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(
            out[0].virtual_cost, 8.0,
            "the retry produced a healthy outcome"
        );
        let c = eval.counters();
        assert_eq!((c.trial_panics, c.trial_retries, c.quarantined), (1, 1, 0));
        assert_eq!(c.trials, 2, "the retried attempt is a trial too");
        // The healthy (post-retry) outcome is what got memoized.
        let again = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(again[0], out[0]);
        let c = eval.counters();
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.trial_panics, 1, "no re-execution, no new faults");
    }

    #[test]
    fn exhausted_retries_quarantine_with_the_sentinel() {
        let runner = TransformRunner::new(Flaky::new(u64::MAX), CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(out[0].is_quarantined());
        let c = eval.counters();
        assert_eq!(c.trial_panics, 3, "initial attempt + two retries");
        assert_eq!((c.trial_retries, c.quarantined), (2, 1));
    }

    #[test]
    fn non_finite_costs_are_classified_and_quarantined() {
        struct NanCost;
        impl Transform for NanCost {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "nan_cost"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("nan_cost");
                s.add_accuracy_variable("v", 1, 100);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(f64::NAN);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let runner = TransformRunner::new(NanCost, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(out[0].is_quarantined());
        let c = eval.counters();
        assert_eq!(c.trial_nonfinite, 3, "initial attempt + two retries");
        assert_eq!((c.trial_panics, c.quarantined), (0, 1));
    }

    /// Accuracy and cost both scaled by a per-input factor, so trials
    /// on different seeds differ and comparisons draw extra seeds.
    struct Jittered;

    impl Transform for Jittered {
        type Input = f64;
        type Output = f64;
        fn name(&self) -> &str {
            "jittered"
        }
        fn schema(&self) -> Schema {
            let mut s = Schema::new("jittered");
            s.add_accuracy_variable("v", 1, 100);
            s
        }
        fn generate_input(&self, _n: u64, rng: &mut SmallRng) -> f64 {
            rand::Rng::gen_range(rng, 0.9..1.1)
        }
        fn execute(&self, input: &f64, ctx: &mut ExecCtx<'_>) -> f64 {
            let v = ctx.param("v").unwrap() as f64;
            ctx.charge(v * ctx.size() as f64 * input);
            1.0 - 1.0 / (1.0 + v)
        }
        fn accuracy(&self, input: &f64, output: &f64) -> f64 {
            output * input
        }
    }

    /// Forwards everything to `inner`, counting the inputs it prepares
    /// per `(n, seed)` and the trials run on them, and keeping a weak
    /// handle to each input to count, at every preparation, the inputs
    /// of smaller sizes still alive.
    struct Counting<'r> {
        inner: &'r dyn TrialRunner,
        prepared: Mutex<HashMap<(u64, u64), u64>>,
        ran_on: Mutex<HashMap<(u64, u64), u64>>,
        unprepared: AtomicU64,
        inputs: Mutex<Vec<(u64, Weak<dyn Any + Send + Sync>)>>,
        alive_below: AtomicU64,
    }

    impl<'r> Counting<'r> {
        fn new(inner: &'r dyn TrialRunner) -> Self {
            Counting {
                inner,
                prepared: Mutex::default(),
                ran_on: Mutex::default(),
                unprepared: AtomicU64::new(0),
                inputs: Mutex::default(),
                alive_below: AtomicU64::new(0),
            }
        }
    }

    impl TrialRunner for Counting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
            self.unprepared.fetch_add(1, Ordering::Relaxed);
            self.inner.run_trial(config, n, seed)
        }
        fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
            self.inner.run_traced(config, n, seed)
        }
        fn prepare(&self, n: u64, seed: u64) -> SharedInput {
            *self.prepared.lock().unwrap().entry((n, seed)).or_default() += 1;
            let mut inputs = self.inputs.lock().unwrap();
            let alive = inputs
                .iter()
                .filter(|(size, input)| *size < n && input.strong_count() > 0)
                .count();
            self.alive_below.fetch_add(alive as u64, Ordering::Relaxed);
            let input = self.inner.prepare(n, seed);
            inputs.push((n, Arc::downgrade(&input)));
            input
        }
        fn run_prepared(
            &self,
            config: &Config,
            input: &SharedInput,
            n: u64,
            seed: u64,
        ) -> TrialOutcome {
            *self.ran_on.lock().unwrap().entry((n, seed)).or_default() += 1;
            self.inner.run_prepared(config, input, n, seed)
        }
    }

    #[test]
    fn a_tuning_run_prepares_each_input_once_in_both_modes() {
        use crate::{Autotuner, TunerOptions};
        use pb_config::AccuracyBins;

        let runner = TransformRunner::new(Jittered, CostModel::Virtual);
        let options = |parallel| TunerOptions {
            parallel_trials: parallel,
            ..TunerOptions::fast_preset(64, 5)
        };
        let bins = AccuracyBins::new(vec![0.5, 0.9]);
        let mut outcomes = Vec::new();
        for parallel in [false, true] {
            let counting = Counting::new(&runner);
            let outcome = Autotuner::new(&counting, bins.clone(), options(parallel))
                .tune_outcome()
                .unwrap();
            let what = format!("parallel={parallel}");
            let prepared = counting.prepared.into_inner().unwrap();
            let ran_on = counting.ran_on.into_inner().unwrap();
            assert!(
                prepared.values().all(|&count| count == 1),
                "{what}: {prepared:?}"
            );
            let mut keys: Vec<_> = prepared.keys().collect();
            keys.sort();
            let mut ran: Vec<_> = ran_on.keys().collect();
            ran.sort();
            assert_eq!(keys, ran, "{what}: every input prepared is run on");
            assert!(
                keys.len() >= 4 && (ran_on.values().sum::<u64>() as usize) > 4 * keys.len(),
                "{what}: trials share few inputs: {ran_on:?}"
            );
            assert_eq!(ran_on.values().sum::<u64>(), outcome.stats.trials, "{what}");
            assert_eq!(counting.unprepared.load(Ordering::Relaxed), 0, "{what}");
            // The tuner drops an input once it moves past its size.
            let sizes: HashSet<u64> = keys.iter().map(|&&(n, _)| n).collect();
            assert!(sizes.len() >= 3, "{what}: sizes {sizes:?}");
            let alive_below = counting.alive_below.load(Ordering::Relaxed);
            assert_eq!(alive_below, 0, "{what}: an input outlived its size");
            outcomes.push(outcome);
        }
        assert_eq!(outcomes[0].program, outcomes[1].program);
        // A runner that keeps nothing per input decides as the sharing
        // one does, and each trial reaches its `run_trial`.
        for (parallel, shared) in [false, true].into_iter().zip(&outcomes) {
            let unshared = Unshared {
                inner: &runner,
                ran: Mutex::default(),
            };
            let outcome = Autotuner::new(&unshared, bins.clone(), options(parallel))
                .tune_outcome()
                .unwrap();
            assert_eq!(outcome.program, shared.program, "parallel={parallel}");
            assert_eq!(outcome.stats, shared.stats, "parallel={parallel}");
            let ran: u64 = unshared.ran.into_inner().unwrap().values().sum();
            assert_eq!(ran, outcome.stats.trials, "parallel={parallel}");
        }
    }

    /// `Jittered` behind inputs whose first `fail` preparations panic.
    struct FlakyInput {
        inner: TransformRunner<Jittered>,
        fail: u64,
        prepares: AtomicU64,
    }

    impl TrialRunner for FlakyInput {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
            self.inner.run_trial(config, n, seed)
        }
        fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
            self.inner.run_traced(config, n, seed)
        }
        fn prepare(&self, n: u64, seed: u64) -> SharedInput {
            if self.prepares.fetch_add(1, Ordering::Relaxed) < self.fail {
                panic!("injected input panic (test)");
            }
            self.inner.prepare(n, seed)
        }
        fn run_prepared(
            &self,
            config: &Config,
            input: &SharedInput,
            n: u64,
            seed: u64,
        ) -> TrialOutcome {
            self.inner.run_prepared(config, input, n, seed)
        }
    }

    #[test]
    fn a_panicking_prepare_is_retried_then_quarantined() {
        let flaky = |fail| FlakyInput {
            inner: TransformRunner::new(Jittered, CostModel::Virtual),
            fail,
            prepares: AtomicU64::new(0),
        };
        let transient = flaky(1);
        let eval = Evaluator::new(&transient, EvalMode::Sequential, true);
        let config = transient.schema().default_config();
        let cost = |config: &Config| {
            transient
                .inner
                .run_trial(config, 8, trial_seed(8, 0))
                .virtual_cost
        };
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(
            out[0].virtual_cost,
            cost(&config),
            "the retry prepared the input"
        );
        let c = eval.counters();
        assert_eq!((c.trial_panics, c.trial_retries, c.trials), (1, 1, 2));
        assert_eq!(c.quarantined, 0);
        // Another candidate on the same input re-uses it.
        let mut other = config.clone();
        other
            .set_by_name(transient.schema(), "v", Value::Int(3))
            .unwrap();
        assert_eq!(
            eval.run_batch(&[request(&other, 8, 0)])[0].virtual_cost,
            cost(&other)
        );
        assert_eq!(transient.prepares.load(Ordering::Relaxed), 2);

        let broken = flaky(u64::MAX);
        for mode in [EvalMode::Sequential, EvalMode::Parallel] {
            broken.prepares.store(0, Ordering::Relaxed);
            let eval = Evaluator::new(&broken, mode, true);
            let out = eval.run_batch(&[request(&config, 8, 0)]);
            assert!(out[0].is_quarantined());
            let c = eval.counters();
            assert_eq!(c.trial_panics, 3, "initial attempt + two retries");
            assert_eq!((c.trial_retries, c.quarantined), (2, 1));
            // A failed preparation leaves nothing behind: the next
            // trial on that input prepares it afresh.
            let out = eval.run_batch(&[request(&other, 8, 0)]);
            assert!(out[0].is_quarantined());
            assert_eq!(broken.prepares.load(Ordering::Relaxed), 6);
        }
    }

    /// Forwards only `run_trial` to `inner`, counting its calls per
    /// `(n, seed)`: `prepare` and `run_prepared` keep their defaults.
    struct Unshared<'r> {
        inner: &'r dyn TrialRunner,
        ran: Mutex<HashMap<(u64, u64), u64>>,
    }

    impl TrialRunner for Unshared<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
            *self.ran.lock().unwrap().entry((n, seed)).or_default() += 1;
            self.inner.run_trial(config, n, seed)
        }
        fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
            self.inner.run_traced(config, n, seed)
        }
    }

    #[test]
    fn a_runner_that_keeps_nothing_runs_on_the_one_input_path() {
        let runner = TransformRunner::new(Jittered, CostModel::Virtual);
        let schema = runner.schema();
        let configs: Vec<Config> = [1, 3, 5]
            .map(|v| {
                let mut config = schema.default_config();
                config.set_by_name(schema, "v", Value::Int(v)).unwrap();
                config
            })
            .into();
        // Candidate `c` runs trials `c..c + 4` at two sizes: every
        // batch after the first meets inputs no earlier batch built.
        let batch = |c: u64, config: &Config| -> Vec<TrialRequest> {
            [8, 16]
                .into_iter()
                .flat_map(|n| (c..c + 4).map(move |i| (n, i)))
                .map(|(n, i)| request(config, n, i))
                .collect()
        };
        let measured = |o: &TrialOutcome| (o.virtual_cost, o.accuracy);
        for mode in [EvalMode::Sequential, EvalMode::Parallel] {
            let unshared = Unshared {
                inner: &runner,
                ran: Mutex::default(),
            };
            let eval = Evaluator::new(&unshared, mode, true);
            let sharing = Evaluator::new(&runner, mode, true);
            for (c, config) in (0..).zip(&configs) {
                let requests = batch(c, config);
                let got: Vec<_> = eval.run_batch(&requests).iter().map(measured).collect();
                let want: Vec<_> = sharing.run_batch(&requests).iter().map(measured).collect();
                assert_eq!(got, want, "{mode:?}");
            }
            // One slot per `(n, seed)`, each filled once by the default
            // `prepare`'s `()` …
            let inputs = eval.inputs.lock().unwrap();
            assert_eq!(inputs.len(), 12, "{mode:?}");
            assert!(
                inputs
                    .values()
                    .all(|slot| slot.get().is_some_and(|input| input.is::<()>())),
                "{mode:?}"
            );
            // … and every trial reached `run_trial` through the default
            // `run_prepared`.
            let ran = unshared.ran.lock().unwrap();
            let mut keys: Vec<_> = ran.keys().copied().collect();
            keys.sort();
            let mut slots: Vec<_> = inputs.keys().copied().collect();
            slots.sort();
            assert_eq!(keys, slots, "{mode:?}");
            assert_eq!(ran.values().sum::<u64>(), 24, "{mode:?}");
            assert_eq!(eval.counters().trials, 24, "{mode:?}");
        }
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let config = runner.schema().default_config();
        let reqs: Vec<TrialRequest> = (0..64).map(|i| request(&config, 32, i)).collect();
        let seq = Evaluator::new(&runner, EvalMode::Sequential, true).run_batch(&reqs);
        let par = Evaluator::new(&runner, EvalMode::Parallel, true).run_batch(&reqs);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // `wall_seconds` is a real clock measurement and differs
            // run to run even sequentially; everything the tuner
            // consumes must agree bitwise.
            assert_eq!(s.virtual_cost, p.virtual_cost);
            assert_eq!(s.accuracy, p.accuracy);
        }
    }
}
