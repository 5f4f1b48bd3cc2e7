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
//!   sequentially, when forced), and
//! * memoizes outcomes in a fingerprint cache keyed on
//!   `(canonical config hash, n, seed)`, so duplicate candidates and
//!   mutate-then-revert configurations never re-execute a trial.
//!
//! Because trial seeds are a deterministic function of the input size
//! and trial index, and trials are pure under the virtual cost model,
//! parallel execution is **bit-identical** to sequential execution:
//! only the wall-clock schedule differs, never an outcome or a merge
//! order.
//!
//! [`Evaluator::run_batch`] is the only way a trial reaches the runner:
//! the adaptive comparator's demand-driven extra trials (§5.5.1) are
//! planned and batched per arena round like everything else.

use pb_config::{Config, Value};
use pb_runtime::parallel::parallel_gen;
use pb_runtime::{TrialOutcome, TrialRunner};
use pb_stats::OnlineStats;
use pb_trace::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// The configuration is shared (`Arc`) and its fingerprint is
/// computed once per plan, so a candidate's `min_trials` requests —
/// and `run_batch`'s internal bookkeeping — never re-clone or re-hash
/// the config.
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
        TrialRequest {
            config,
            fingerprint,
            n,
            seed,
        }
    }

    /// Plans a run of trials over `seeds` for one configuration,
    /// fingerprinting it once.
    pub fn batch_for(config: &Config, n: u64, seeds: impl Iterator<Item = u64>) -> Vec<Self> {
        let config = Arc::new(config.clone());
        let fingerprint = config_fingerprint(&config);
        seeds
            .map(|seed| TrialRequest {
                config: Arc::clone(&config),
                fingerprint,
                n,
                seed,
            })
            .collect()
    }

    /// The configuration to execute.
    pub fn config(&self) -> &Config {
        &self.config
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
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    // FNV-1a, one byte at a time, so every bit of `word` stirs.
    fn mix(hash: &mut u64, word: u64) {
        for shift in (0..64).step_by(8) {
            *hash ^= (word >> shift) & 0xFF;
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in config.transform().as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
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

type CacheKey = (u64, u64, u64);

/// One memoized outcome, tagged with whether it was preloaded from a
/// cross-run sidecar (a *warm* entry) or produced in this run.
#[derive(Debug, Clone, Copy)]
struct CachedTrial {
    outcome: TrialOutcome,
    warm: bool,
}

/// The trial memo: `(config fingerprint, n, seed) → outcome`.
#[derive(Debug, Default)]
struct TrialCache {
    map: Mutex<HashMap<CacheKey, CachedTrial>>,
    hits: AtomicU64,
    /// Hits served by entries preloaded from a sidecar (cross-run
    /// reuse), counted separately from in-run hits.
    hits_warm: AtomicU64,
    misses: AtomicU64,
    /// Intra-batch duplicates: requests that shared another request's
    /// execution *within the same batch*. Not hits — nothing was in
    /// the cache when the batch was planned — and not misses — they
    /// did not execute a trial.
    coalesced: AtomicU64,
}

/// On-disk form of the trial memo: one sidecar per transform, keyed by
/// `(transform name, config fingerprint, n, seed)` and stamped with
/// the schema's fingerprint — a sidecar recorded against a different
/// tunable schema is rejected wholesale, since its config fingerprints
/// describe configurations of a different shape.
#[derive(Debug, Serialize, Deserialize)]
struct SidecarFile {
    transform: String,
    schema: u64,
    /// The pool thread budget the outcomes were measured under.
    /// Schedule-aware virtual cost models divide parallel work by
    /// `available_threads()`, so outcomes from a different budget are
    /// not comparable and the whole sidecar is rejected on mismatch.
    threads: usize,
    entries: Vec<SidecarEntry>,
}

/// FNV-1a over the schema's canonical serialized form: changes to the
/// tunable set, ranges, or defaults invalidate persisted sidecars.
/// (Changes to the transform's *implementation* cannot be detected
/// from here — delete the sidecar when the measured code changes.)
fn schema_fingerprint(schema: &pb_config::Schema) -> u64 {
    let canonical = serde_json::to_string(schema).expect("schemas serialize");
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in canonical.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One `(key, outcome)` pair of the sidecar.
#[derive(Debug, Serialize, Deserialize)]
struct SidecarEntry {
    fingerprint: u64,
    n: u64,
    seed: u64,
    time: f64,
    wall_seconds: f64,
    virtual_cost: f64,
    accuracy: f64,
}

/// Executes trials for the tuner: batched, optionally parallel,
/// optionally memoized.
pub struct Evaluator<'a> {
    runner: &'a dyn TrialRunner,
    mode: EvalMode,
    cache: Option<TrialCache>,
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
    /// Wraps `runner`. `memoize` enables the trial cache — sound
    /// whenever trials are deterministic functions of
    /// `(config, n, seed)`, i.e. under the virtual cost model; disable
    /// it when tuning on wall-clock time, where repeated measurements
    /// genuinely differ and replaying one would feed the comparator
    /// zero-variance copies of it. The tuner passes
    /// [`TrialRunner::deterministic`].
    pub fn new(runner: &'a dyn TrialRunner, mode: EvalMode, memoize: bool) -> Self {
        Evaluator {
            runner,
            mode,
            cache: memoize.then(TrialCache::default),
            trials: AtomicU64::new(0),
            trial_panics: AtomicU64::new(0),
            trial_nonfinite: AtomicU64::new(0),
            trial_retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Calls into the runner so far, retried attempts included.
    pub(crate) fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed)
    }

    /// Trial attempts that panicked (caught and classified, never
    /// propagated to the pool or the tuning loop).
    pub fn trial_panics(&self) -> u64 {
        self.trial_panics.load(Ordering::Relaxed)
    }

    /// Trial attempts that reported a non-finite cost.
    pub fn trial_nonfinite(&self) -> u64 {
        self.trial_nonfinite.load(Ordering::Relaxed)
    }

    /// Re-executions triggered by faulting attempts.
    pub fn trial_retries(&self) -> u64 {
        self.trial_retries.load(Ordering::Relaxed)
    }

    /// Trials that exhausted their retries and were recorded as
    /// [`TrialOutcome::QUARANTINED`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Requests served from the cache without executing a trial
    /// (entries produced earlier in this run; warm sidecar entries are
    /// counted by [`Evaluator::cache_hits_warm`] instead).
    pub fn cache_hits(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Requests served by entries preloaded from a cross-run sidecar
    /// (see [`Evaluator::load_sidecar`]).
    pub fn cache_hits_warm(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.hits_warm.load(Ordering::Relaxed))
    }

    /// Requests that had to execute a trial.
    pub fn cache_misses(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.misses.load(Ordering::Relaxed))
    }

    /// Requests that duplicated another request in the same batch and
    /// shared its execution (neither a hit nor a miss).
    pub fn cache_coalesced(&self) -> u64 {
        self.cache
            .as_ref()
            .map_or(0, |c| c.coalesced.load(Ordering::Relaxed))
    }

    /// Runs every request and returns outcomes in request order.
    ///
    /// Cache hits and duplicates *within* the batch (counted
    /// separately, as coalesced) never re-execute; the remaining
    /// unique trials run on the pool in parallel mode or in order in
    /// sequential mode. Identical results and identical final cache
    /// state either way.
    pub fn run_batch(&self, requests: &[TrialRequest]) -> Vec<TrialOutcome> {
        let tracing = pb_trace::enabled();
        let (batch_seq, batch_start) = if tracing {
            (pb_trace::next_seq(), pb_trace::now_ns())
        } else {
            (0, 0)
        };
        let Some(cache) = &self.cache else {
            let outcomes = self.execute(requests);
            if tracing {
                pb_trace::record(Event::span(
                    EventKind::EvalBatch,
                    batch_seq,
                    0,
                    batch_start,
                    [requests.len() as u64, requests.len() as u64, 0, 0],
                ));
            }
            return outcomes;
        };

        let keys: Vec<CacheKey> = requests
            .iter()
            .map(|r| (r.fingerprint, r.n, r.seed))
            .collect();
        // Partition into already-cached slots and unique misses.
        let mut slots: Vec<Option<TrialOutcome>> = vec![None; requests.len()];
        // For non-cached requests: index into `miss_requests`.
        let mut pending: Vec<usize> = vec![usize::MAX; requests.len()];
        let mut miss_of_key: HashMap<CacheKey, usize> = HashMap::new();
        let mut miss_requests: Vec<TrialRequest> = Vec::new();
        let mut hits = 0;
        let mut hits_warm = 0;
        let mut coalesced = 0;
        {
            let map = cache.map.lock().expect("trial cache poisoned");
            for (i, (request, key)) in requests.iter().zip(&keys).enumerate() {
                if let Some(cached) = map.get(key) {
                    slots[i] = Some(cached.outcome);
                    if cached.warm {
                        hits_warm += 1;
                    } else {
                        hits += 1;
                    }
                } else if let Some(&mi) = miss_of_key.get(key) {
                    // Duplicate within the batch: executes once, but
                    // nothing was cached yet — count it as coalesced,
                    // not as a hit, so the reported hit rate reflects
                    // actual cache reuse.
                    pending[i] = mi;
                    coalesced += 1;
                } else {
                    let mi = miss_requests.len();
                    miss_of_key.insert(*key, mi);
                    miss_requests.push(request.clone());
                    pending[i] = mi;
                }
            }
        }
        cache.hits.fetch_add(hits, Ordering::Relaxed);
        cache.hits_warm.fetch_add(hits_warm, Ordering::Relaxed);
        cache.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        cache
            .misses
            .fetch_add(miss_requests.len() as u64, Ordering::Relaxed);

        let executed = self.execute(&miss_requests);
        if tracing {
            pb_trace::record(Event::span(
                EventKind::EvalBatch,
                batch_seq,
                0,
                batch_start,
                [
                    requests.len() as u64,
                    miss_requests.len() as u64,
                    hits + hits_warm,
                    coalesced,
                ],
            ));
        }
        {
            let mut map = cache.map.lock().expect("trial cache poisoned");
            for (key, &mi) in &miss_of_key {
                map.insert(
                    *key,
                    CachedTrial {
                        outcome: executed[mi],
                        warm: false,
                    },
                );
            }
        }

        slots
            .into_iter()
            .zip(pending)
            .map(|(slot, mi)| slot.unwrap_or_else(|| executed[mi]))
            .collect()
    }

    /// Executes every request (no cache involvement), parallel or
    /// sequential per the mode.
    fn execute(&self, requests: &[TrialRequest]) -> Vec<TrialOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        let trace_seq = if pb_trace::enabled() {
            pb_trace::next_seq()
        } else {
            0
        };
        match self.mode {
            EvalMode::Sequential => requests
                .iter()
                .enumerate()
                .map(|(i, r)| self.run_one(trace_seq, i, r))
                .collect(),
            EvalMode::Parallel => match self.repeated_coordinates(requests) {
                None => parallel_gen(requests.len(), 2, |i| {
                    self.run_one(trace_seq, i, &requests[i])
                }),
                Some(chains) => {
                    let ran = parallel_gen(chains.len(), 2, |c| {
                        chains[c]
                            .iter()
                            .map(|&i| self.run_one(trace_seq, i, &requests[i]))
                            .collect::<Vec<_>>()
                    });
                    let mut outcomes = vec![TrialOutcome::QUARANTINED; requests.len()];
                    for (chain, chain_outcomes) in chains.iter().zip(ran) {
                        for (&i, outcome) in chain.iter().zip(chain_outcomes) {
                            outcomes[i] = outcome;
                        }
                    }
                    outcomes
                }
            },
        }
    }

    /// Request indices grouped by trial coordinate, in first-occurrence
    /// order, when some coordinate repeats within the batch; `None`
    /// when every request is distinct (always, behind the memo, which
    /// coalesces repeats before they get here).
    ///
    /// Without a memo, identical candidates each re-run the same
    /// `(config, n, seed)`. A runner that re-samples — wall-clock, or
    /// `pb_faults` noise, which draws on how often a coordinate has run
    /// — hands its k-th draw to whichever repeat reaches it k-th, so a
    /// pool job per request would let the schedule pick which candidate
    /// gets which draw. One job per coordinate, run in request order,
    /// gives every repeat the draw the sequential evaluator gives it.
    fn repeated_coordinates(&self, requests: &[TrialRequest]) -> Option<Vec<Vec<usize>>> {
        if self.cache.is_some() {
            return None;
        }
        let mut chain_of: HashMap<CacheKey, usize> = HashMap::new();
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let chain = *chain_of
                .entry((r.fingerprint, r.n, r.seed))
                .or_insert(chains.len());
            if chain == chains.len() {
                chains.push(Vec::new());
            }
            chains[chain].push(i);
        }
        (chains.len() < requests.len()).then_some(chains)
    }

    /// Executes one trial under full fault isolation, counting every
    /// call into the runner: panics are caught (`catch_unwind` — the
    /// pool's unwind machinery never engages), non-finite costs are
    /// counted as faults too, and a faulting attempt is retried up to
    /// `MAX_RETRIES` times. A trial whose every attempt faults is
    /// *quarantined*: its recorded outcome is the deterministic
    /// worst-cost sentinel [`TrialOutcome::QUARANTINED`], which loses
    /// every comparison and meets no accuracy target, so tournaments,
    /// arena contests, and merges degrade gracefully instead of
    /// aborting the run.
    fn guarded_run(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        for attempt in 0..=MAX_RETRIES {
            if attempt > 0 {
                self.trial_retries.fetch_add(1, Ordering::Relaxed);
            }
            self.trials.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| self.runner.run_trial(config, n, seed))) {
                Ok(outcome) if outcome.time.is_finite() => return outcome,
                Ok(_) => self.trial_nonfinite.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.trial_panics.fetch_add(1, Ordering::Relaxed),
            };
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        TrialOutcome::QUARANTINED
    }

    /// Runs one trial of a batch, tracing it when `trace_seq != 0`.
    fn run_one(&self, trace_seq: u64, index: usize, r: &TrialRequest) -> TrialOutcome {
        if trace_seq == 0 {
            return self.guarded_run(r.config(), r.n, r.seed);
        }
        let t0 = pb_trace::now_ns();
        let outcome = self.guarded_run(r.config(), r.n, r.seed);
        pb_trace::record(Event::span(
            EventKind::Trial,
            trace_seq,
            index as u64,
            t0,
            [r.n, r.seed, outcome.virtual_cost as u64, 0],
        ));
        outcome
    }

    /// Preloads the trial memo from a cross-run sidecar written by
    /// [`Evaluator::save_sidecar`], so a re-tuning run starts warm.
    /// Returns the number of entries loaded; 0 when the file is
    /// missing, malformed, recorded for a different transform, a
    /// different tunable schema, or a different pool thread budget
    /// (schedule-aware virtual costs embed it), or memoization is off
    /// — a cold start, never an error. Entries loaded here count their reuse
    /// as [`cache_hits_warm`](Evaluator::cache_hits_warm).
    ///
    /// Only sound when trials are deterministic functions of
    /// `(config, n, seed)` — the same condition as memoization
    /// itself; callers gate on [`TrialRunner::deterministic`]. A
    /// schema change invalidates the sidecar automatically; a change
    /// to the transform's *implementation* (or its cost model) does
    /// not alter the keys, so delete the sidecar when the measured
    /// code itself changes.
    pub fn load_sidecar(&self, path: &Path) -> usize {
        let Some(cache) = &self.cache else { return 0 };
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0;
        };
        let file = match serde_json::from_str::<SidecarFile>(&text) {
            Ok(file) => file,
            Err(_) => {
                // A corrupted or truncated sidecar (a crashed writer
                // predating atomic renames, a bad disk, a manual edit)
                // must degrade to a cold start, not an aborted tuning
                // run — but silently ignoring real data loss helps
                // nobody, so say what happened (suppressible via
                // `PB_QUIET`).
                pb_runtime::diag_warn!(
                    "trial-cache sidecar {} is corrupted or truncated; starting cold",
                    path.display()
                );
                return 0;
            }
        };
        if file.transform != self.runner.name()
            || file.schema != schema_fingerprint(self.runner.schema())
            || file.threads != pb_runtime::parallel::available_threads()
        {
            return 0;
        }
        let mut map = cache.map.lock().expect("trial cache poisoned");
        let mut loaded = 0;
        for entry in file.entries {
            let outcome = TrialOutcome {
                time: entry.time,
                wall_seconds: entry.wall_seconds,
                virtual_cost: entry.virtual_cost,
                accuracy: entry.accuracy,
            };
            if let std::collections::hash_map::Entry::Vacant(slot) =
                map.entry((entry.fingerprint, entry.n, entry.seed))
            {
                slot.insert(CachedTrial {
                    outcome,
                    warm: true,
                });
                loaded += 1;
            }
        }
        loaded
    }

    /// Writes the trial memo (warm and in-run entries alike) to
    /// `path` as a JSON sidecar keyed by
    /// `(transform name, config fingerprint, n, seed)`. A no-op when
    /// memoization is off. Entries with non-finite measurements are
    /// skipped — JSON cannot carry them losslessly.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the file.
    pub fn save_sidecar(&self, path: &Path) -> std::io::Result<()> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let mut entries: Vec<SidecarEntry> = {
            let map = cache.map.lock().expect("trial cache poisoned");
            map.iter()
                .filter(|(_, cached)| {
                    let o = &cached.outcome;
                    o.time.is_finite()
                        && o.wall_seconds.is_finite()
                        && o.virtual_cost.is_finite()
                        && o.accuracy.is_finite()
                })
                .map(|(&(fingerprint, n, seed), cached)| SidecarEntry {
                    fingerprint,
                    n,
                    seed,
                    time: cached.outcome.time,
                    wall_seconds: cached.outcome.wall_seconds,
                    virtual_cost: cached.outcome.virtual_cost,
                    accuracy: cached.outcome.accuracy,
                })
                .collect()
        };
        // HashMap iteration order is arbitrary; sort so the sidecar is
        // byte-stable across runs with identical contents.
        entries.sort_by_key(|e| (e.fingerprint, e.n, e.seed));
        let file = SidecarFile {
            transform: self.runner.name().to_string(),
            schema: schema_fingerprint(self.runner.schema()),
            threads: pb_runtime::parallel::available_threads(),
            entries,
        };
        let json = serde_json::to_string_pretty(&file)
            .expect("sidecar serialization cannot fail for finite entries");
        // Write-then-rename so an interrupted save (or two runs
        // sharing one path) can never leave a truncated sidecar: the
        // next load sees either the old file or the complete new one.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Mean accuracy of `config` over trials `0..trials` at size `n`
    /// (a batched replacement for probe candidates).
    pub fn mean_accuracy(&self, config: &Config, n: u64, trials: u64) -> f64 {
        let requests = TrialRequest::batch_for(
            config,
            n,
            (0..trials).map(|index| crate::candidate::trial_seed(n, index)),
        );
        let mut acc = OnlineStats::new();
        for outcome in self.run_batch(&requests) {
            acc.push(outcome.accuracy);
        }
        acc.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::trial_seed;
    use pb_config::{Schema, Value};
    use pb_runtime::{CostModel, ExecCtx, TraceNode, Transform, TransformRunner};
    use rand::rngs::SmallRng;

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

    #[test]
    fn duplicate_config_hits_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 1)];
        let first = eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 2);
        assert_eq!(eval.cache_hits(), 0);
        // A duplicate candidate re-requests the exact same trials.
        let second = eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 2, "no re-execution");
        assert_eq!(eval.cache_hits(), 2);
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
        assert_eq!(eval.cache_misses(), 1);
        assert_eq!(
            eval.cache_hits(),
            0,
            "nothing was cached when the batch was planned"
        );
        assert_eq!(eval.cache_coalesced(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        // Re-running the same batch *is* cache reuse: all three hit.
        eval.run_batch(&reqs);
        assert_eq!(eval.cache_misses(), 1);
        assert_eq!(eval.cache_hits(), 3);
        assert_eq!(eval.cache_coalesced(), 2);
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
        assert_eq!(eval.cache_misses(), 1);
        // A mutated config misses …
        let mut mutated = base.clone();
        mutated.set_by_name(schema, "v", Value::Int(7)).unwrap();
        assert_ne!(config_fingerprint(&base), config_fingerprint(&mutated));
        eval.run_batch(&[request(&mutated, 8, 0)]);
        assert_eq!(eval.cache_misses(), 2);
        // … but reverting the mutation hits again.
        let mut reverted = mutated.clone();
        reverted.set_by_name(schema, "v", Value::Int(1)).unwrap();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&reverted));
        eval.run_batch(&[request(&reverted, 8, 0)]);
        assert_eq!(eval.cache_misses(), 2);
        assert_eq!(eval.cache_hits(), 1);
    }

    #[test]
    fn demand_driven_single_trials_share_the_cache() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        eval.run_batch(&[request(&config, 16, 0)]);
        // The comparator-style single draw for the same trial hits.
        let outcomes = eval.run_batch(&[request(&config, 16, 0)]);
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(outcomes[0].time, 16.0);
    }

    #[test]
    fn memoization_can_be_disabled() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, false);
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 0)];
        eval.run_batch(&reqs);
        eval.run_batch(&reqs);
        assert_eq!(eval.cache_hits(), 0);
        assert_eq!(eval.cache_misses(), 0);
    }

    #[test]
    fn sidecar_round_trips_the_memo() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        // Keys above `i64::MAX` (half of all hashes) are stored as
        // plain JSON integers and must come back exactly.
        let high = (1..=100)
            .map(|v| {
                let mut c = config.clone();
                c.set_by_name(runner.schema(), "v", Value::Int(v)).unwrap();
                c
            })
            .find(|c| config_fingerprint(c) >> 63 == 1)
            .expect("some config hashes into the upper half");
        let reqs = vec![
            request(&config, 8, 0),
            request(&config, 8, 1),
            TrialRequest::new(Arc::new(high), 8, (1 << 63) | 5),
        ];
        let first = eval.run_batch(&reqs);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_roundtrip_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();

        // A fresh evaluator preloads the sidecar and serves the same
        // requests without executing anything — counted as warm hits,
        // separate from in-run hits.
        let warm = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(warm.load_sidecar(&path), 3);
        let second = warm.run_batch(&reqs);
        assert_eq!(first, second);
        assert_eq!(warm.cache_misses(), 0);
        assert_eq!(warm.cache_hits(), 0);
        assert_eq!(warm.cache_hits_warm(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sidecar_is_keyed_by_transform_name() {
        struct Renamed;
        impl Transform for Renamed {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "renamed"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("renamed");
                s.add_accuracy_variable("v", 1, 100);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(1.0);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        eval.run_batch(&[request(&config, 8, 0)]);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_transform_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();
        // Another transform's evaluator must not warm from it.
        let other_runner = TransformRunner::new(Renamed, CostModel::Virtual);
        let other = Evaluator::new(&other_runner, EvalMode::Sequential, true);
        assert_eq!(other.load_sidecar(&path), 0);
        // Same transform name but a changed tunable schema: the stale
        // measurements describe configurations of a different shape
        // and must be rejected wholesale.
        struct LinearWider;
        impl Transform for LinearWider {
            type Input = ();
            type Output = ();
            fn name(&self) -> &str {
                "linear"
            }
            fn schema(&self) -> Schema {
                let mut s = Schema::new("linear");
                s.add_accuracy_variable("v", 1, 200);
                s
            }
            fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
            fn execute(&self, _i: &(), ctx: &mut ExecCtx<'_>) {
                ctx.charge(1.0);
            }
            fn accuracy(&self, _i: &(), _o: &()) -> f64 {
                0.5
            }
        }
        let wider_runner = TransformRunner::new(LinearWider, CostModel::Virtual);
        let wider = Evaluator::new(&wider_runner, EvalMode::Sequential, true);
        assert_eq!(wider.load_sidecar(&path), 0);
        // A different pool thread budget: schedule-aware virtual costs
        // divide by it, so the recorded outcomes are not comparable.
        let threads = pb_runtime::parallel::available_threads();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace(
            &format!("\"threads\": {threads}"),
            &format!("\"threads\": {}", threads + 1),
        );
        assert_ne!(text, tampered, "threads field must be present");
        std::fs::write(&path, tampered).unwrap();
        let same = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(same.load_sidecar(&path), 0);
        // A missing file and a disabled cache are cold starts, not
        // errors.
        let _ = std::fs::remove_file(&path);
        assert_eq!(eval.load_sidecar(&path), 0);
        let uncached = Evaluator::new(&runner, EvalMode::Sequential, false);
        assert_eq!(uncached.load_sidecar(&path), 0);
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
        assert_eq!(out[0].time, 8.0, "the retry produced a healthy outcome");
        assert_eq!(eval.trial_panics(), 1);
        assert_eq!(eval.trial_retries(), 1);
        assert_eq!(eval.trials(), 2, "the retried attempt is a trial too");
        assert_eq!(eval.quarantined(), 0);
        // The healthy (post-retry) outcome is what got memoized.
        let again = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(again[0], out[0]);
        assert_eq!(eval.cache_hits(), 1);
        assert_eq!(eval.trial_panics(), 1, "no re-execution, no new faults");
    }

    #[test]
    fn exhausted_retries_quarantine_with_the_sentinel() {
        let runner = TransformRunner::new(Flaky::new(u64::MAX), CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert!(out[0].is_quarantined());
        assert_eq!(eval.trial_panics(), 3, "initial attempt + two retries");
        assert_eq!(eval.trial_retries(), 2);
        assert_eq!(eval.quarantined(), 1);
        // The sentinel is non-finite, so a sidecar save skips it.
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_quarantine_{}.json", std::process::id()));
        eval.save_sidecar(&path).unwrap();
        let warm = Evaluator::new(&runner, EvalMode::Sequential, true);
        assert_eq!(warm.load_sidecar(&path), 0, "sentinels never persist");
        let _ = std::fs::remove_file(&path);
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
        assert_eq!(eval.trial_nonfinite(), 3, "initial attempt + two retries");
        assert_eq!(eval.trial_panics(), 0);
        assert_eq!(eval.quarantined(), 1);
    }

    #[test]
    fn wall_clock_trials_resample_through_the_evaluator() {
        // Real measurements flow through `run_batch` without a memo
        // (the tuner memoizes only deterministic runners), every
        // request re-executes, and outcomes stay finite.
        let runner = TransformRunner::new(Linear, CostModel::WallClock);
        assert!(!runner.deterministic());
        let eval = Evaluator::new(&runner, EvalMode::Sequential, runner.deterministic());
        let config = runner.schema().default_config();
        let reqs = vec![request(&config, 8, 0), request(&config, 8, 0)];
        for outcome in eval.run_batch(&reqs) {
            assert!(outcome.time.is_finite());
            assert_eq!(outcome.time, outcome.wall_seconds);
        }
        // Demand-driven draws re-execute too: no hits, no misses
        // counted (there is no cache at all).
        eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(eval.cache_hits(), 0);
        assert_eq!(eval.cache_misses(), 0);
        assert_eq!(eval.quarantined(), 0);
    }

    #[test]
    fn repeated_coordinates_resample_in_request_order_on_the_pool() {
        /// Re-samples like a noisy measurement: a trial's time grows
        /// with how often its coordinate has already run.
        struct Drifting<'r> {
            inner: &'r dyn TrialRunner,
            runs: Mutex<HashMap<u64, u64>>,
        }
        impl TrialRunner for Drifting<'_> {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn deterministic(&self) -> bool {
                false
            }
            fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
                let mut outcome = self.inner.run_trial(config, n, seed);
                let mut runs = self.runs.lock().unwrap();
                let run = runs.entry(seed).or_insert(0);
                outcome.time += *run as f64;
                *run += 1;
                outcome
            }
            fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
                self.inner.run_traced(config, n, seed)
            }
        }

        let clean = TransformRunner::new(Linear, CostModel::Virtual);
        let config = clean.schema().default_config();
        // Eight coordinates, sixteen interleaved repeats of each.
        let reqs: Vec<TrialRequest> = (0..128).map(|i| request(&config, 8, i % 8)).collect();
        let times = |mode| {
            let runner = Drifting {
                inner: &clean,
                runs: Mutex::new(HashMap::new()),
            };
            let eval = Evaluator::new(&runner, mode, false);
            let times: Vec<f64> = eval.run_batch(&reqs).iter().map(|o| o.time).collect();
            times
        };
        let seq = times(EvalMode::Sequential);
        assert_eq!(seq[0], 8.0);
        assert_eq!(seq[127], 8.0 + 15.0);
        for _ in 0..20 {
            assert_eq!(times(EvalMode::Parallel), seq);
        }
    }

    #[test]
    fn corrupted_sidecar_starts_cold() {
        let runner = TransformRunner::new(Linear, CostModel::Virtual);
        let eval = Evaluator::new(&runner, EvalMode::Sequential, true);
        let path =
            std::env::temp_dir().join(format!("pb_sidecar_corrupt_{}.json", std::process::id()));
        // Truncated JSON — the classic torn write — and a sidecar from
        // before the keys were JSON integers: each warns once.
        let old_format = r#"{"transform": "linear", "schema": "00ab54a98ceb1f0a", "threads": 1,
            "entries": [{"fingerprint": "00ab54a98ceb1f0a", "n": 8, "seed": "8000000000000005",
            "time": 8.0, "wall_seconds": 0.0, "virtual_cost": 8.0, "accuracy": 1.0}]}"#;
        for text in ["{\"transform\": \"linear\", \"entr", old_format] {
            std::fs::write(&path, text).unwrap();
            let warned = pb_runtime::diag::warn_count();
            assert_eq!(eval.load_sidecar(&path), 0);
            assert_eq!(pb_runtime::diag::warn_count(), warned + 1);
        }
        // The evaluator is fully usable afterwards.
        let config = runner.schema().default_config();
        let out = eval.run_batch(&[request(&config, 8, 0)]);
        assert_eq!(out[0].time, 8.0);
        let _ = std::fs::remove_file(&path);
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
            assert_eq!(s.time, p.time);
            assert_eq!(s.virtual_cost, p.virtual_cost);
            assert_eq!(s.accuracy, p.accuracy);
        }
    }
}
