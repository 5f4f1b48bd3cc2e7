//! The traced layer pass: every per-layer metric.
//!
//! End-to-end metrics are measured with tracing off. This pass runs
//! the same op list again, three ways — as the timed pass does (the
//! base), with `pb_trace` and VM profiling on and the trial runner
//! decorated (the price of observing, and the layers' own counters),
//! and sequentially (`parallel_trials = false`: the exact split of a
//! tuning run into trial time and the tuner's own, and the base of the
//! pool's speed-up) — and then times the layers' public functions
//! directly. Ledger-side spans wrap every call into a layer; what the
//! crates already record about themselves (`Trace::phase_deltas`, the
//! chunk profile) is read, never added to.

use crate::dsl::PROGRAMS as DSL_PROGRAMS;
use crate::env;
use crate::json::{int, num, obj, text, Value};
use crate::metrics::{Metrics, PER_LAYER};
use crate::ops::{corpus_seed, Op, ServeKind, Spec};
use crate::programs::{Native, ProgramId};
use crate::run::{
    evaluate, op_rows, out_dir, prepare, tally, tuner_options, Cell, Exec, OpRun, Report, Session,
    Settings,
};
use crate::spans::{durations_of, self_time_by_name, Recorder};
use crate::stats::{fastest, geomean, median, quantile, ratio};
use crate::timing::TrialTime;
use pb_config::{AccuracyBins, Config};
use pb_lang::{
    check_program, compile_program, extract_schema, opcode_is_specialized, parse_program,
    Interpreter, OptLevel,
};
use pb_runtime::{ExecCtx, Pool, Transform, TrialRunner, TunedProgram};
use pb_stats::{Comparator, ComparatorConfig, Robustness, SampleStats};
use pb_tuner::{config_fingerprint, Autotuner, EvalMode, Evaluator, TunerStats};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What `pb_trace` recorded over the traced passes.
#[derive(Debug, Default)]
struct Traced {
    events: u64,
    dropped: u64,
    /// Summed span wall per tuner phase name.
    phase_ns: BTreeMap<String, u64>,
    instrs: u64,
    specialized_instrs: u64,
}

impl Traced {
    /// Folds in everything recorded since the last reset, then resets.
    /// Called between ops: an op can emit more events than a ring
    /// holds, a pass always does.
    fn drain(&mut self) {
        let trace = pb_trace::collect();
        self.events += trace.events.len() as u64;
        self.dropped += trace.dropped;
        for phase in trace.phase_deltas() {
            *self.phase_ns.entry(phase.phase).or_insert(0) += phase.wall_ns;
        }
        for chunk in &trace.chunks {
            self.instrs += chunk.instructions();
            self.specialized_instrs += chunk
                .opcodes
                .iter()
                .enumerate()
                .filter(|&(idx, _)| opcode_is_specialized(idx))
                .map(|(_, &count)| count)
                .sum::<u64>();
        }
        pb_trace::reset();
    }
}

/// Each op's fastest pass, like the timed pass takes it.
fn per_op(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| if s.is_empty() { 0.0 } else { fastest(s) })
        .collect()
}

fn push_walls(samples: &mut [Vec<f64>], runs: &[OpRun]) {
    for (slot, run) in samples.iter_mut().zip(runs) {
        slot.push(run.wall_ns);
    }
}

/// Median seconds of `f` over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median seconds per call of `f`, timed in batches of `batch` calls
/// (for calls too short to time one by one).
fn time_batched(batches: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    time_median(batches, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// The tuned programs the workload produced or serves, with the spec
/// each belongs to (one per op or artifact, in list order).
fn tuned_programs(session: &Session) -> Vec<(&Spec, &TunedProgram)> {
    let from_ops = session
        .ops()
        .iter()
        .zip(&session.prepared.references)
        .filter_map(|(op, reference)| match (op, reference) {
            (Op::Tune(t), Some(Ok(tuned))) => Some((&t.spec, &tuned.program)),
            _ => None,
        });
    let from_artifacts = session
        .prepared
        .artifacts
        .iter()
        .filter_map(|a| a.as_ref().ok().map(|a| (&a.spec, &a.tuned)));
    from_ops.chain(from_artifacts).collect()
}

/// The first tuned program of every distinct program, in name order.
fn first_per_program<'s>(
    tuned: &[(&'s Spec, &'s TunedProgram)],
) -> Vec<(&'s Spec, &'s TunedProgram)> {
    let mut seen = BTreeSet::new();
    tuned
        .iter()
        .filter(|(spec, _)| seen.insert(spec.program.name()))
        .copied()
        .collect()
}

/// `pb_lang` front-end: every stage timed through its public function,
/// one span per call.
fn front_end(session: &Session, rec: &mut Recorder, first_op: usize, m: &mut Metrics) {
    const REPS: usize = 20;
    const STAGES: [&str; 7] = [
        "lang.lex",
        "lang.parse",
        "lang.sema",
        "lang.schema",
        "lang.lower",
        "lang.opt",
        "lang.construct",
    ];
    let programs: BTreeSet<usize> = tuned_programs(session)
        .iter()
        .filter_map(|(spec, _)| match spec.program {
            ProgramId::Dsl(i) => Some(i),
            _ => None,
        })
        .collect();
    if programs.is_empty() {
        return;
    }
    let (mut tokens, mut lowered, mut optimized) = (0u64, 0u64, 0u64);
    let (mut compiled_rules, mut rules) = (0usize, 0usize);
    let mut stage_us = [0.0; STAGES.len()];
    let mut lex_s = 0.0;
    for &i in &programs {
        let dsl = &DSL_PROGRAMS[i];
        let Ok(source) = dsl.read_source() else {
            continue;
        };
        rec.set_op(first_op + i);
        let before = rec.spans().len();
        for rep in 0..REPS {
            let lexed = rec.span(STAGES[0], |_| pb_lang::lexer::lex(&source));
            let Ok(program) = rec.span(STAGES[1], |_| parse_program(&source)) else {
                break;
            };
            let checked = rec.span(STAGES[2], |_| check_program(&program));
            black_box(rec.span(STAGES[3], |_| extract_schema(&program, dsl.transform)));
            let raw = rec.span(STAGES[4], |_| compile_program(&program));
            let code_len = |compiled: &pb_lang::CompiledProgram| -> u64 {
                program
                    .transforms
                    .iter()
                    .flat_map(|t| (0..t.rules.len()).filter_map(|r| compiled.chunk(&t.name, r)))
                    .map(|chunk| chunk.code.len() as u64)
                    .sum()
            };
            let (raw_len, coverage) = (code_len(&raw), raw.coverage());
            let tuned = rec.span(STAGES[5], |_| raw.optimized(OptLevel::default()));
            if rep == 0 {
                tokens += lexed.map_or(0, |t| t.len() as u64);
                lowered += raw_len;
                optimized += code_len(&tuned);
                compiled_rules += coverage.0;
                rules += coverage.1;
                if checked.is_err() {
                    break;
                }
            }
            black_box(rec.span(STAGES[6], |_| dsl.construct(program)).is_ok());
        }
        let mine = &rec.spans()[before..];
        for (slot, stage) in stage_us.iter_mut().zip(STAGES) {
            let durations = durations_of(mine, stage);
            if !durations.is_empty() {
                let us = median(&durations) / 1e3;
                *slot += us;
                if stage == STAGES[0] {
                    lex_s += us / 1e6;
                }
            }
        }
    }
    for (stage, us) in STAGES.iter().zip(stage_us) {
        m.set(&format!("{stage}_us"), us);
    }
    m.set("lang.tokens_per_s", ratio(tokens as f64, lex_s));
    m.set("lang.instrs_lowered", lowered as f64);
    m.set("lang.instrs_optimized", optimized as f64);
    m.set(
        "lang.rules_compiled_share",
        ratio(compiled_rules as f64, rules as f64),
    );
}

/// `pb_lang::vm`: every tuned configuration of every DSL program run
/// on the default level, on O0 bytecode and on the tree-walker, the
/// engines interleaved round by round.
fn vm_engines(session: &Session, eval_seed: u64, m: &mut Metrics) {
    use rand::SeedableRng;
    const ROUNDS: usize = 5;
    let (mut run_us, mut o0_us, mut interp_us) = (0.0, 0.0, 0.0);
    let (mut over_o0, mut over_interp) = (Vec::new(), Vec::new());
    for (spec, tuned) in first_per_program(&tuned_programs(session)) {
        let Some(dsl) = spec.program.dsl() else {
            continue;
        };
        let Ok(source) = dsl.read_source() else {
            continue;
        };
        let Ok(program) = parse_program(&source) else {
            continue;
        };
        let Ok(default) = dsl.compile(&source) else {
            continue;
        };
        let engines = [
            Interpreter::new_compiled_at(program.clone(), OptLevel::O0),
            Interpreter::new(program),
        ];
        let schema = default.schema();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(eval_seed);
        let input = dsl.generate_input(spec.n, &mut rng);
        for entry in tuned.entries() {
            let time = |engine: &Interpreter| {
                let mut ctx = ExecCtx::new(&schema, &entry.config, spec.n, eval_seed);
                let start = Instant::now();
                black_box(engine.run(dsl.transform, &input, &mut ctx).is_ok());
                start.elapsed().as_secs_f64() * 1e6
            };
            let mut samples = [Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..ROUNDS {
                samples[0].push(time(default.interpreter()));
                samples[1].push(time(&engines[0]));
                samples[2].push(time(&engines[1]));
            }
            let [fast, o0, tree] = samples.map(|s| median(&s));
            run_us += fast;
            o0_us += o0;
            interp_us += tree;
            over_o0.push(o0 / fast);
            over_interp.push(tree / fast);
        }
    }
    m.set("vm.run_us", run_us);
    m.set("vm.o0_run_us", o0_us);
    m.set("vm.interp_run_us", interp_us);
    m.set("vm.default_over_o0", geomean(&over_o0));
    m.set("vm.default_over_interp", geomean(&over_interp));
}

/// `pb_runtime::pool`: what dispatching a batch of no-op tasks costs.
fn pool_dispatch(m: &mut Metrics) {
    let pool = Pool::global();
    let mut us = [0.0; 4];
    for (slot, width) in us.iter_mut().zip([1usize, 4, 16, 64]) {
        *slot = time_batched(25, 200, || {
            pool.run_indexed(width, |i| {
                black_box(i);
            })
        }) * 1e6;
        m.set(&format!("pool.dispatch_us_w{width}"), *slot);
    }
    m.set("pool.job_ns", ((us[3] - us[0]) * 1e3 / 63.0).max(0.0));
}

/// `pb_stats`: one comparator decision over two full sample sets.
fn comparator(m: &mut Metrics) {
    let config = pb_tuner::TunerOptions::fast_preset(2, 0).comparator;
    let filled = |offset: f64| {
        let mut stats = SampleStats::new();
        for i in 0..config.max_trials {
            stats.push(offset + 0.01 * ((i * 7 % 5) as f64));
        }
        stats
    };
    let (a, b) = (filled(1.0), filled(1.02));
    for (name, robustness) in [
        ("stats.decide_ns", Robustness::Mean),
        (
            "stats.decide_winsorized_ns",
            Robustness::Winsorized { fraction: 0.1 },
        ),
    ] {
        let comparator = Comparator::new(ComparatorConfig {
            robustness,
            ..config
        });
        let s = time_batched(25, 2000, || {
            black_box(comparator.decide_samples(black_box(&a), black_box(&b)));
        });
        m.set(name, s * 1e9);
    }
}

/// `pb_config` and tuned-program I/O over the workload's own tuned
/// programs.
fn config_io(session: &Session, m: &mut Metrics) {
    let tuned = first_per_program(&tuned_programs(session));
    let configs: Vec<&Config> = tuned
        .iter()
        .flat_map(|(_, t)| t.entries().iter().map(|e| &e.config))
        .collect();
    if configs.is_empty() {
        return;
    }
    let per_config = |seconds: f64| seconds / configs.len() as f64;
    m.set(
        "config.fingerprint_ns",
        per_config(time_batched(25, 200, || {
            for config in &configs {
                black_box(config_fingerprint(config));
            }
        })) * 1e9,
    );
    m.set(
        "config.json_roundtrip_us",
        per_config(time_median(25, || {
            for config in &configs {
                black_box(Config::from_json(&config.to_json()).is_ok());
            }
        })) * 1e6,
    );
    let path = out_dir().join("artifacts").join("layer-pass.tuned.json");
    let _ = std::fs::create_dir_all(path.parent().expect("the path has a parent"));
    let per_program = |seconds: f64| seconds / tuned.len() as f64;
    m.set(
        "tuned.save_us",
        per_program(time_median(15, || {
            for (_, program) in &tuned {
                black_box(program.save_to(&path).is_ok());
            }
        })) * 1e6,
    );
    let mut bytes = 0;
    let mut load_s = 0.0;
    for (_, program) in &tuned {
        if program.save_to(&path).is_ok() {
            bytes += std::fs::metadata(&path).map_or(0, |meta| meta.len());
            load_s += time_median(15, || {
                black_box(TunedProgram::load_from(&path).is_ok());
            });
        }
    }
    let _ = std::fs::remove_file(&path);
    m.set("tuned.load_us", per_program(load_s) * 1e6);
    m.set("tuned.bytes", bytes as f64 / tuned.len() as f64);
    let lookups: usize = tuned.iter().map(|(_, t)| t.entries().len()).sum();
    m.set(
        "tuned.bin_lookup_ns",
        time_batched(25, 200, || {
            for (_, program) in &tuned {
                for entry in program.entries() {
                    black_box(program.entry_meeting(black_box(entry.target)));
                }
            }
        }) / lookups as f64
            * 1e9,
    );
}

/// Trial-cache sidecars: one cold and one warm re-tune per program,
/// and the sidecar's own load and save.
fn sidecars(session: &Session, m: &mut Metrics) {
    let dir = out_dir().join("artifacts");
    let _ = std::fs::create_dir_all(&dir);
    let (mut cold_s, mut warm_s, mut save_s, mut load_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut warm_hits, mut requests) = (0u64, 0u64, 0u64);
    for (spec, _) in first_per_program(&tuned_programs(session)) {
        let Ok(runner) = spec.program.build() else {
            continue;
        };
        let path = dir.join(format!("{}.sidecar.json", spec.program.name()));
        let _ = std::fs::remove_file(&path);
        let tune = || {
            let start = Instant::now();
            let outcome = Autotuner::new(
                &*runner,
                AccuracyBins::new(spec.bins.clone()),
                tuner_options(spec, corpus_seed(spec, 0)),
            )
            .with_trial_cache(&path)
            .tune_outcome();
            (start.elapsed().as_secs_f64(), outcome)
        };
        let (cold, _) = tune();
        let (warm, outcome) = tune();
        if let Ok(outcome) = outcome {
            let s = outcome.stats;
            warm_hits += s.cache_hits_warm;
            requests += s.cache_hits + s.cache_hits_warm + s.cache_misses + s.cache_coalesced;
            cold_s += cold;
            warm_s += warm;
        }
        bytes += std::fs::metadata(&path).map_or(0, |meta| meta.len());
        let subject: &dyn TrialRunner = &*runner;
        let evaluator = Evaluator::new(subject, EvalMode::Sequential, true);
        let start = Instant::now();
        black_box(evaluator.load_sidecar(&path));
        load_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(evaluator.save_sidecar(&path).is_ok());
        save_s += start.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
    }
    m.set("cache.sidecar_save_ms", save_s * 1e3);
    m.set("cache.sidecar_load_ms", load_s * 1e3);
    m.set("cache.sidecar_bytes", bytes as f64);
    m.set(
        "cache.warm_hit_share",
        ratio(warm_hits as f64, requests as f64),
    );
    m.set("cache.warm_over_cold", ratio(cold_s, warm_s));
}

/// Geometric mean over tuned programs of cost(tightest bin) ÷
/// cost(loosest bin): the Fig. 6 headline.
fn loose_over_tight(session: &Session, cells: &[Cell]) -> f64 {
    // Tuning: the cells of one op are one program's bins. Serving: the
    // cells of one served program, averaged per requested accuracy.
    let mut groups: BTreeMap<usize, BTreeMap<u64, Vec<f64>>> = BTreeMap::new();
    for cell in cells {
        let group = match &session.ops()[cell.op] {
            Op::Tune(_) => cell.op,
            Op::Serve(s) if s.kind == ServeKind::Steady => s.served,
            Op::Serve(_) => continue,
        };
        // Non-negative targets order by their bit patterns; negative
        // ones are shifted up first.
        let key = (cell.target + 1e6).to_bits();
        groups
            .entry(group)
            .or_default()
            .entry(key)
            .or_default()
            .push(cell.cost);
    }
    let ratios: Vec<f64> = groups
        .values()
        .filter_map(|bins| {
            let mean = |costs: &Vec<f64>| costs.iter().sum::<f64>() / costs.len() as f64;
            let loosest = mean(bins.values().next()?);
            let tightest = mean(bins.values().next_back()?);
            (bins.len() > 1 && loosest > 0.0 && tightest > 0.0).then_some(tightest / loosest)
        })
        .collect();
    geomean(&ratios)
}

/// Sums the tuner's own counters over every op's reference outcome
/// and returns the trials executed.
fn tuner_counters(session: &Session, m: &mut Metrics) -> f64 {
    let mut sum = TunerStats::default();
    for reference in session.prepared.references.iter().flatten().flatten() {
        let s = &reference.stats;
        sum.trials += s.trials;
        sum.children_created += s.children_created;
        sum.children_accepted += s.children_accepted;
        sum.cache_hits += s.cache_hits;
        sum.cache_hits_warm += s.cache_hits_warm;
        sum.cache_misses += s.cache_misses;
        sum.cache_coalesced += s.cache_coalesced;
        sum.prune_rounds += s.prune_rounds;
        sum.prune_draws += s.prune_draws;
        sum.merge_rounds += s.merge_rounds;
        sum.merge_draws += s.merge_draws;
        sum.pair_memo_queries += s.pair_memo_queries;
        sum.pair_memo_hits += s.pair_memo_hits;
        sum.trial_retries += s.trial_retries;
        sum.quarantined += s.quarantined;
    }
    let requests = sum.cache_hits + sum.cache_hits_warm + sum.cache_misses + sum.cache_coalesced;
    let draws = sum.prune_draws + sum.merge_draws;
    m.set("tuner.trials", sum.trials as f64);
    m.set(
        "tuner.children_accept_share",
        ratio(sum.children_accepted as f64, sum.children_created as f64),
    );
    m.set(
        "tuner.cache_hit_share",
        ratio(sum.cache_hits as f64, requests as f64),
    );
    m.set("tuner.cache_coalesced", sum.cache_coalesced as f64);
    m.set(
        "tuner.arena_mean_round_width",
        ratio(draws as f64, (sum.prune_rounds + sum.merge_rounds) as f64),
    );
    m.set(
        "tuner.pair_memo_hit_share",
        ratio(sum.pair_memo_hits as f64, sum.pair_memo_queries as f64),
    );
    m.set("tuner.trial_retries", sum.trial_retries as f64);
    m.set("tuner.quarantined", sum.quarantined as f64);
    m.set("stats.draws", draws as f64);
    sum.trials as f64
}

/// The traced layer pass: every per-layer metric of one workload.
pub fn layer_pass(settings: Settings) -> Report {
    let load = env::load_average();
    let mut session = Session::new(prepare(settings));
    let ops = session.ops().len();
    let threads = Pool::global().threads() as f64;
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let mut m = Metrics::new(PER_LAYER);
    let budget = |share: f64| {
        if settings.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(settings.seconds.max(0.0) * share)
        }
    };

    session.pass(Exec::TIMED, &mut off); // warm-up, discarded

    // Pairs of passes: as timed, then with everything observing.
    let observed = Exec {
        parallel: true,
        decorate: true,
    };
    let (mut plain, mut traced) = (vec![Vec::new(); ops], vec![Vec::new(); ops]);
    let mut seen = Traced::default();
    let mut pool_busy = TrialTime::default();
    let mut pool_traffic = pb_runtime::PoolBatchStats::default();
    let mut pairs = 0u64;
    let begun = Instant::now();
    while pairs == 0 || begun.elapsed() < budget(0.5) {
        push_walls(&mut plain, &session.pass(Exec::TIMED, &mut off));
        pb_trace::reset();
        pb_trace::enable();
        let before = Pool::global().batch_stats();
        let runs = session.pass_with(observed, &mut rec, |_| seen.drain());
        pool_traffic.absorb(&Pool::global().batch_stats().delta_since(&before));
        pb_trace::disable();
        push_walls(&mut traced, &runs);
        for run in &runs {
            pool_busy.calls += run.trial.calls;
            pool_busy.busy_ns += run.trial.busy_ns;
        }
        pairs += 1;
    }
    let per_pass = |total: u64| total as f64 / pairs as f64;
    let (plain_ns, traced_ns) = (per_op(&plain), per_op(&traced));
    let plain_s = plain_ns.iter().sum::<f64>() / 1e9;
    let traced_s = traced_ns.iter().sum::<f64>() / 1e9;
    m.set("trace.overhead_share", ratio(traced_s - plain_s, plain_s));
    m.set("trace.events", per_pass(seen.events));
    m.set("trace.dropped", per_pass(seen.dropped));
    for phase in ["test", "mutate", "guided", "merge", "prune"] {
        let ns = seen.phase_ns.get(&format!("phase_{phase}")).copied();
        m.set(
            &format!("tuner.phase_{phase}_s"),
            per_pass(ns.unwrap_or(0)) / 1e9,
        );
    }
    m.set("pool.batches_dispatched", per_pass(pool_traffic.dispatched));
    m.set("pool.batches_inline", per_pass(pool_traffic.inline));
    m.set("pool.tasks", per_pass(pool_traffic.tasks));
    m.set(
        "pool.mean_batch_width",
        ratio(
            pool_traffic.tasks as f64,
            (pool_traffic.dispatched + pool_traffic.inline) as f64,
        ),
    );
    let busy_s = per_pass(pool_busy.busy_ns) / 1e9;
    m.set("vm.instrs_executed", per_pass(seen.instrs));
    m.set(
        "vm.specialized_instr_share",
        ratio(seen.specialized_instrs as f64, seen.instrs as f64),
    );

    // What ran inside the kernels or the VM, per native program.
    let mut kernel_ns: BTreeMap<Native, (f64, f64)> = BTreeMap::new();
    let mut vm_busy_s = 0.0;
    if settings.workload.tunes() {
        // The sequential attribution pass: wall − trial busy is exactly
        // the tuner's own time, with no overlap to untangle.
        let sequential = Exec {
            parallel: false,
            decorate: true,
        };
        // Per op, the fastest sequential pass and the trial time of
        // that same pass.
        let mut seq_ns = vec![f64::INFINITY; ops];
        let mut busy_ns = vec![0.0; ops];
        let mut calls = vec![0u64; ops];
        let begun = Instant::now();
        let mut passes = 0;
        while passes == 0 || begun.elapsed() < budget(0.25) {
            for (i, run) in session.pass(sequential, &mut off).iter().enumerate() {
                if run.wall_ns < seq_ns[i] {
                    seq_ns[i] = run.wall_ns;
                    busy_ns[i] = run.trial.busy_ns as f64;
                    calls[i] = run.trial.calls;
                }
            }
            passes += 1;
        }
        let seq_s = seq_ns.iter().sum::<f64>() / 1e9;
        let trial_s = busy_ns.iter().sum::<f64>() / 1e9;
        let trials = tuner_counters(&session, &mut m);
        m.set("tuner.trial_busy_s", trial_s);
        m.set("tuner.self_s", seq_s - trial_s);
        m.set("tuner.self_share", ratio(seq_s - trial_s, seq_s));
        m.set(
            "tuner.self_us_per_trial",
            ratio((seq_s - trial_s) * 1e6, trials),
        );
        m.set("pool.par_over_seq", ratio(seq_s, plain_s));
        m.set("pool.efficiency", ratio(seq_s, plain_s) / threads);
        m.set("pool.idle_share", 1.0 - ratio(busy_s, threads * traced_s));
        for (i, op) in session.ops().iter().enumerate() {
            let Op::Tune(t) = op else { continue };
            match t.spec.program {
                ProgramId::Native(native) => {
                    let slot = kernel_ns.entry(native).or_insert((0.0, 0.0));
                    slot.0 += busy_ns[i];
                    slot.1 += calls[i] as f64;
                }
                ProgramId::Dsl(_) => vm_busy_s += busy_ns[i] / 1e9,
                ProgramId::Planted(_) => {}
            }
        }
    }

    // Serving: latency of steady requests, escalations, cold starts.
    let mut steady_us = Vec::new();
    let mut cold_ms = Vec::new();
    let (mut escalated, mut responses) = (0u64, 0u64);
    for (i, op) in session.ops().iter().enumerate() {
        let Op::Serve(s) = op else { continue };
        match s.kind {
            ServeKind::Cold => cold_ms.push(plain_ns[i] / 1e6),
            ServeKind::Steady => {
                steady_us.push(plain_ns[i] / 1e3);
                match s.program {
                    ProgramId::Native(native) => {
                        let slot = kernel_ns.entry(native).or_insert((0.0, 0.0));
                        slot.0 += plain_ns[i];
                        slot.1 += 1.0;
                    }
                    _ => vm_busy_s += plain_ns[i] / 1e9,
                }
            }
        }
        if let Some(response) = session.response(i) {
            responses += 1;
            escalated += u64::from(response.attempts > 1);
        }
    }
    if !steady_us.is_empty() {
        m.set("serve.run_us_p50", quantile(&steady_us, 0.5));
        m.set("serve.run_us_p90", quantile(&steady_us, 0.9));
        m.set(
            "serve.verified_escalation_share",
            ratio(escalated as f64, responses as f64),
        );
        m.set("serve.cold_start_ms", median(&cold_ms));
    }
    for (native, (ns, calls)) in kernel_ns {
        m.set(
            &format!("kernels.trial_us.{}", native.name()),
            ratio(ns / 1e3, calls),
        );
    }
    m.set("vm.instrs_per_s", ratio(per_pass(seen.instrs), vm_busy_s));

    let cells = evaluate(&session);
    m.set("serve.loose_over_tight", loose_over_tight(&session, &cells));

    // The layers' public functions, timed directly.
    front_end(&session, &mut rec, ops, &mut m);
    vm_engines(&session, session.prepared.list.eval_seeds[0], &mut m);
    pool_dispatch(&mut m);
    comparator(&mut m);
    config_io(&session, &mut m);
    if settings.workload.tunes() {
        sidecars(&session, &mut m);
    }

    let (attempted, failed, correct) = tally(&session);
    let self_ns = self_time_by_name(rec.spans())
        .into_iter()
        .map(|(name, ns)| (name, int(ns)));
    let detail = obj([
        ("pairs", int(pairs)),
        ("untraced_wall_s", num(plain_s)),
        ("traced_wall_s", num(traced_s)),
        ("provenance", env::provenance(load)),
        ("ops", op_rows(&session, &plain)),
        (
            "op_names",
            Value::Arr(
                session
                    .ops()
                    .iter()
                    .map(|op| text(op.describe()))
                    .chain(
                        DSL_PROGRAMS
                            .iter()
                            .map(|p| text(format!("front-end {}", p.name))),
                    )
                    .collect(),
            ),
        ),
        ("self_ns_by_span", obj(self_ns)),
        (
            "spans",
            Value::Arr(rec.spans().iter().map(|s| s.to_json()).collect()),
        ),
    ]);
    Report {
        metrics: m,
        attempted,
        failed,
        correct,
        detail,
    }
}
