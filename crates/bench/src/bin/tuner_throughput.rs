//! Tuner throughput: trials/sec in sequential vs parallel evaluation
//! mode, plus trial-cache effectiveness, for the kmeans and
//! bin-packing tuning workloads.
//!
//! Writes `BENCH_tuner.json` (in the working directory) so the perf
//! trajectory is recorded across PRs, and prints a human-readable
//! summary. Every run also cross-checks the determinism guarantee:
//! the parallel tuned program must equal the sequential one bitwise.
//!
//! Usage: `tuner_throughput [--smoke] [--trace <path>]`
//!
//! `--smoke` shrinks the workloads for CI; the JSON is still written.
//! `--trace <path>` records the whole bench through `pb_trace` and
//! writes a Chrome trace-event file loadable in Perfetto (tracing is
//! decision-neutral, so the bit-identicality cross-check still runs).
//! In either mode the run *gates* the comparison-arena counters on the
//! bin-packing workload: the pair-verdict memo must be hit (no
//! re-tested verdicts) and the mean arena round width must beat the
//! pre-arena baseline (~1.07 draws/round, when only pruning batched
//! and every child-vs-parent draw ran blocking).

use pb_benchmarks::binpacking::ratio_to_accuracy;
use pb_benchmarks::{BinPacking, Clustering};
use pb_config::AccuracyBins;
use pb_runtime::parallel::available_threads;
use pb_runtime::pool::PoolBatchStats;
use pb_runtime::{CostModel, Transform, TransformRunner};
use pb_tuner::{Autotuner, TunerOptions, TuningOutcome};
use serde::Serialize;
use std::time::Instant;

/// `num / den`, or `0.0` when the denominator is zero.
fn rate(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

/// One window of pool batch counters.
#[derive(Debug, Serialize)]
struct PoolWindow {
    dispatched: u64,
    inline: u64,
    tasks: u64,
    max_batch: u64,
}

impl From<PoolBatchStats> for PoolWindow {
    fn from(s: PoolBatchStats) -> Self {
        PoolWindow {
            dispatched: s.dispatched,
            inline: s.inline,
            tasks: s.tasks,
            max_batch: s.max_batch,
        }
    }
}

/// One timed tuning run.
#[derive(Debug, Serialize)]
struct ModeReport {
    wall_seconds: f64,
    /// Trials actually executed (cache misses + uncached paths).
    trials_executed: u64,
    /// Executed trials per wall-clock second.
    trials_per_sec: f64,
    cache_hits: u64,
    /// Hits served by entries preloaded from a cross-run sidecar
    /// (zero here: the bench runs cold by design).
    cache_hits_warm: u64,
    cache_misses: u64,
    /// Intra-batch duplicates that shared another request's execution
    /// (neither hits nor misses).
    cache_coalesced: u64,
    /// `hits / (hits + warm + misses + coalesced)`: true cache reuse.
    cache_hit_rate: f64,
    /// Pruning arena rounds that issued a trial batch (§5.5.4).
    prune_rounds: u64,
    /// Comparator draws executed through pruning batches.
    prune_draws: u64,
    /// `draws / rounds`: average pruning batch size.
    prune_draws_per_round: f64,
    /// Largest single pruning batch.
    prune_max_batch: u64,
    /// Child-vs-parent merge arena rounds that issued a trial batch.
    merge_rounds: u64,
    /// Comparator draws executed through merge batches.
    merge_draws: u64,
    /// Largest single merge batch.
    merge_max_batch: u64,
    /// Mean comparator draws per arena round, across pruning and
    /// merging (the pre-arena baseline on bin packing was ~1.07, with
    /// merge draws not batched at all).
    arena_mean_round_width: f64,
    /// Widest arena round of the run.
    arena_max_round_width: u64,
    /// Pair-verdict memo lookups across all arena sessions.
    pair_memo_queries: u64,
    /// Lookups answered from a recorded verdict (re-sorts and bracket
    /// replays that neither re-decided nor re-tested).
    pair_memo_hits: u64,
    /// `hits / queries`.
    pair_memo_hit_rate: f64,
    /// Trial attempts that panicked (caught and retried by the
    /// evaluator's fault isolation; zero on these healthy workloads).
    trial_panics: u64,
    /// Trial attempts that overran the soft deadline.
    trial_timeouts: u64,
    /// Trial attempts that reported a non-finite cost.
    trial_nonfinite: u64,
    /// Re-executions triggered by faulting attempts.
    trial_retries: u64,
    /// Trials quarantined after exhausting their retries.
    quarantined: u64,
    /// Every pool batch during this tuning run (trial fan-out plus
    /// kernel-level batches inside trial executions).
    pool_total: PoolWindow,
    /// Pool batches while trial batches were executing (the
    /// evaluator's windows).
    pool_trial: PoolWindow,
    /// Batches outside trial windows (`total − trial`): kernel-level
    /// parallelism the tuner did not directly request.
    pool_kernel_dispatched: u64,
    pool_kernel_inline: u64,
    pool_kernel_tasks: u64,
}

#[derive(Debug, Serialize)]
struct WorkloadReport {
    name: String,
    max_size: u64,
    sequential: ModeReport,
    parallel: ModeReport,
    /// `parallel.trials_per_sec / sequential.trials_per_sec`.
    speedup: f64,
    /// Whether the two modes produced bitwise-equal tuned programs
    /// and run statistics (they must).
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    threads: usize,
    smoke: bool,
    /// Context for reading the speedup numbers (e.g. flags a
    /// single-thread budget, where parallel mode runs inline and
    /// speedup is ~1.0 by construction).
    note: String,
    workloads: Vec<WorkloadReport>,
    /// Cumulative pool counters across the whole bench
    /// process (both modes, all workloads): how many batches reached
    /// the queue vs ran inline, and how wide they were.
    pool_batches_dispatched: u64,
    pool_batches_inline: u64,
    pool_tasks: u64,
    pool_max_batch: u64,
}

/// Tuning runs are deterministic, so repeated runs produce identical
/// outcomes; we keep the best wall time to damp scheduler noise.
const TIMING_RUNS: usize = 3;

/// PR 4's observed mean pruning batch width on bin packing (the only
/// batched comparator path before the arena): the gate the unified
/// arena must beat.
const PRE_ARENA_MEAN_ROUND_WIDTH: f64 = 1.07;

fn timed_tune<T>(
    transform: T,
    bins: &[f64],
    max_size: u64,
    seed: u64,
    parallel: bool,
) -> (TuningOutcome, ModeReport)
where
    T: Transform + Send + Sync + Copy,
{
    let mut best: Option<(TuningOutcome, f64)> = None;
    for _ in 0..TIMING_RUNS {
        let runner = TransformRunner::new(transform, CostModel::Virtual);
        let mut options = TunerOptions::fast_preset(max_size, seed);
        options.parallel_trials = parallel;
        let start = Instant::now();
        let outcome = Autotuner::new(&runner, AccuracyBins::new(bins.to_vec()), options)
            .tune_outcome()
            .unwrap_or_else(|e| panic!("tuning failed: {e}"));
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        if best.as_ref().map(|(_, w)| wall < *w).unwrap_or(true) {
            best = Some((outcome, wall));
        }
    }
    let (outcome, wall) = best.expect("at least one timing run");
    let stats = outcome.stats;
    let requested =
        stats.cache_hits + stats.cache_hits_warm + stats.cache_misses + stats.cache_coalesced;
    let arena_rounds = stats.prune_rounds + stats.merge_rounds;
    let arena_draws = stats.prune_draws + stats.merge_draws;
    let report = ModeReport {
        wall_seconds: wall,
        trials_executed: stats.trials,
        trials_per_sec: stats.trials as f64 / wall,
        cache_hits: stats.cache_hits,
        cache_hits_warm: stats.cache_hits_warm,
        cache_misses: stats.cache_misses,
        cache_coalesced: stats.cache_coalesced,
        cache_hit_rate: rate(stats.cache_hits, requested),
        prune_rounds: stats.prune_rounds,
        prune_draws: stats.prune_draws,
        prune_draws_per_round: rate(stats.prune_draws, stats.prune_rounds),
        prune_max_batch: stats.prune_max_batch,
        merge_rounds: stats.merge_rounds,
        merge_draws: stats.merge_draws,
        merge_max_batch: stats.merge_max_batch,
        arena_mean_round_width: rate(arena_draws, arena_rounds),
        arena_max_round_width: stats.prune_max_batch.max(stats.merge_max_batch),
        pair_memo_queries: stats.pair_memo_queries,
        pair_memo_hits: stats.pair_memo_hits,
        pair_memo_hit_rate: rate(stats.pair_memo_hits, stats.pair_memo_queries),
        trial_panics: stats.trial_panics,
        trial_timeouts: stats.trial_timeouts,
        trial_nonfinite: stats.trial_nonfinite,
        trial_retries: stats.trial_retries,
        quarantined: stats.quarantined,
        pool_total: outcome.pool.total.into(),
        pool_trial: outcome.pool.trial.into(),
        pool_kernel_dispatched: outcome
            .pool
            .total
            .dispatched
            .saturating_sub(outcome.pool.trial.dispatched),
        pool_kernel_inline: outcome
            .pool
            .total
            .inline
            .saturating_sub(outcome.pool.trial.inline),
        pool_kernel_tasks: outcome
            .pool
            .total
            .tasks
            .saturating_sub(outcome.pool.trial.tasks),
    };
    (outcome, report)
}

fn workload<T>(name: &str, transform: T, bins: &[f64], max_size: u64) -> WorkloadReport
where
    T: Transform + Send + Sync + Copy,
{
    let seed = 0x7B5;
    let (seq_outcome, sequential) = timed_tune(transform, bins, max_size, seed, false);
    let (par_outcome, parallel) = timed_tune(transform, bins, max_size, seed, true);
    let bit_identical = seq_outcome.program == par_outcome.program
        && seq_outcome.stats == par_outcome.stats
        && seq_outcome.final_population == par_outcome.final_population;
    assert!(
        bit_identical,
        "{name}: parallel evaluation diverged from sequential"
    );
    let speedup = parallel.trials_per_sec / sequential.trials_per_sec.max(1e-9);
    WorkloadReport {
        name: name.to_string(),
        max_size,
        sequential,
        parallel,
        speedup,
        bit_identical,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace requires a path").clone());
    let (kmeans_size, binpack_size) = if smoke { (64, 128) } else { (512, 2048) };

    // Spawn the pool's workers before any timed region.
    let _ = available_threads();
    if trace_path.is_some() {
        pb_trace::enable();
    }

    let binpack_bins = [ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)];
    let workloads = vec![
        workload("kmeans", Clustering, &[0.05, 0.2], kmeans_size),
        workload("binpacking", BinPacking, &binpack_bins, binpack_size),
    ];

    let threads = available_threads();
    let note = if threads < 2 {
        "single-thread pool budget: the parallel path runs inline, so \
         speedup ~1.0 is expected here; run on a multi-core host (or \
         set PB_POOL_THREADS) to measure real parallel speedup"
            .to_string()
    } else {
        format!(
            "pool budget of {threads} threads (1 caller + {} workers)",
            threads - 1
        )
    };
    let pool = pb_runtime::Pool::global().batch_stats();
    let report = Report {
        threads,
        smoke,
        note,
        workloads,
        pool_batches_dispatched: pool.dispatched,
        pool_batches_inline: pool.inline,
        pool_tasks: pool.tasks,
        pool_max_batch: pool.max_batch,
    };

    println!(
        "# tuner throughput ({} threads{})",
        report.threads,
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "{:>12} {:>14} {:>14} {:>9} {:>10} {:>11} {:>10} {:>10}",
        "workload",
        "seq trials/s",
        "par trials/s",
        "speedup",
        "hit rate",
        "mean width",
        "max width",
        "memo hits"
    );
    for w in &report.workloads {
        println!(
            "{:>12} {:>14.0} {:>14.0} {:>8.2}x {:>9.1}% {:>11.2} {:>10} {:>10}",
            w.name,
            w.sequential.trials_per_sec,
            w.parallel.trials_per_sec,
            w.speedup,
            100.0 * w.parallel.cache_hit_rate,
            w.parallel.arena_mean_round_width,
            w.parallel.arena_max_round_width,
            w.parallel.pair_memo_hits,
        );
    }
    // Write the artifact before gating so a gate failure still leaves
    // the diagnostic JSON behind.
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_tuner.json", &json).expect("write BENCH_tuner.json");
    println!("\nwrote BENCH_tuner.json");

    if let Some(path) = &trace_path {
        let trace = pb_trace::collect();
        std::fs::write(path, trace.chrome_json()).expect("write trace file");
        println!(
            "wrote {path} ({} events, {} dropped)",
            trace.events.len(),
            trace.dropped
        );
    }

    // Gate the arena counters on the workload with real comparator
    // traffic. The pre-arena baseline (PR 4) batched only pruning, at
    // an observed mean of ~1.07 draws/round, with zero pair-verdict
    // reuse and every merge draw blocking.
    let binpack = report
        .workloads
        .iter()
        .find(|w| w.name == "binpacking")
        .expect("binpacking workload runs");
    assert!(
        binpack.parallel.merge_rounds > 0,
        "child-vs-parent merges must run through arena batches"
    );
    assert!(
        binpack.parallel.pair_memo_hit_rate > 0.0,
        "pair-verdict memo must be hit (re-sorts replay verdicts): {:?}",
        binpack.parallel
    );
    assert!(
        binpack.parallel.arena_mean_round_width > PRE_ARENA_MEAN_ROUND_WIDTH,
        "mean arena round width regressed to the pre-arena baseline: {} <= {}",
        binpack.parallel.arena_mean_round_width,
        PRE_ARENA_MEAN_ROUND_WIDTH,
    );
    for w in &report.workloads {
        for mode in [&w.sequential, &w.parallel] {
            assert_eq!(
                (mode.trial_panics, mode.trial_nonfinite, mode.quarantined),
                (0, 0, 0),
                "{}: healthy workloads must never trip fault isolation",
                w.name
            );
        }
    }
}
