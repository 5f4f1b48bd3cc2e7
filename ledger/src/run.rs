//! Executing a workload: set-up, the interleaved timed pass, the
//! output checks and the end-to-end metrics.
//!
//! Load model: closed loop, one client thread issuing ops back to
//! back; the global pool runs at its default width. A pass executes
//! the whole op list once; the timed pass is `R` passes (list, list,
//! … — never op × R) after one discarded warm-up pass, and every
//! aggregate is built from each op's fastest pass
//! ([`crate::stats::fastest`]).

use crate::dsl::DslProgram;
use crate::env;
use crate::json::{int, num, obj, text, Value};
use crate::metrics::{Metrics, END_TO_END};
use crate::ops::{op_list, served_specs, Op, OpList, ServeKind, ServeOp, Spec, TuneOp, Workload};
use crate::planted::Planted;
use crate::programs::{ProgramId, Response, Served};
use crate::spans::Recorder;
use crate::stats::{fastest, geomean, median, quartiles, ratio};
use crate::timing::{TimedRunner, TrialTime};
use pb_config::{AccuracyBins, Config};
use pb_lang::{parse_program, Interpreter};
use pb_runtime::{ExecCtx, Pool, Transform, TrialOutcome, TrialRunner, TunedProgram};
use pb_tuner::{config_fingerprint, Autotuner, TunerOptions, TunerStats, TuningOutcome};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed pass measures (at least [`MIN_REPEATS`]
    /// passes whatever this says).
    pub seconds: f64,
    /// Two passes over a reduced corpus: checks and ratios only.
    pub smoke: bool,
}

/// Fewest timed passes an op's time is taken over.
pub const MIN_REPEATS: usize = 5;
const SMOKE_REPEATS: usize = 2;

/// A tuned `planted` entry may cost this many times the known optimum
/// and still count as having recovered it. Over 2400 (placement, seed,
/// bin) cells the tuner's entries cost 1.01 × the optimum at the
/// median and 2.0 × at the 99.9th percentile; 3 × leaves headroom
/// without admitting the wrong algorithm on a bin (3.9 × or more).
pub const PLANTED_SLACK: f64 = 3.0;

/// Every op tunes with `TunerOptions::fast_preset`. `planted` raises
/// its rounds, mutation attempts and survivors to the default
/// preset's: with eight attempts a round the tuner lands within 4 × of
/// the planted optimum, not on it, and since `planted`'s trials are
/// free the extra rounds are exactly the tuner work the op exists to
/// time.
pub fn tuner_options(spec: &Spec, tuner_seed: u64) -> TunerOptions {
    let mut options = TunerOptions::fast_preset(spec.n, tuner_seed);
    if matches!(spec.program, ProgramId::Planted(_)) {
        let full = TunerOptions::default();
        options.rounds_per_size = full.rounds_per_size;
        options.mutation_attempts = full.mutation_attempts;
        options.keep_per_bin = full.keep_per_bin;
    }
    options
}

/// How one tuning run is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// `TunerOptions::parallel_trials`.
    pub parallel: bool,
    /// Wrap the runner in a [`TimedRunner`].
    pub decorate: bool,
}

impl Exec {
    /// Pool mode, nothing observing: how end-to-end numbers are taken.
    pub const TIMED: Exec = Exec {
        parallel: true,
        decorate: false,
    };
}

/// The part of a [`TuningOutcome`] that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    pub program: TunedProgram,
    pub stats: TunerStats,
    pub final_population: usize,
}

impl Tuned {
    fn of(outcome: &TuningOutcome) -> Tuned {
        Tuned {
            program: outcome.program.clone(),
            stats: outcome.stats,
            final_population: outcome.final_population,
        }
    }
}

/// One execution of a tuning op.
pub struct TuneRun {
    pub wall: Duration,
    pub result: Result<TuningOutcome, String>,
    pub trial: TrialTime,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("panicked: {detail}")
}

/// Tunes `spec` from a fresh runner (a DSL program is read
/// and compiled from source inside the timed region). Never panics and
/// never aborts: a `TunerError`, an unreadable source or a panic comes
/// back as the `Err` of [`TuneRun::result`].
pub fn run_tune(spec: &Spec, tuner_seed: u64, exec: Exec, rec: &mut Recorder) -> TuneRun {
    let start = Instant::now();
    let mut trial = TrialTime::default();
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<TuningOutcome, String> {
        let runner = rec.span("program.build", |_| spec.program.build())?;
        let mut options = tuner_options(spec, tuner_seed);
        options.parallel_trials = exec.parallel;
        let bins = AccuracyBins::new(spec.bins.clone());
        let plain: &dyn TrialRunner = &*runner;
        let timed = TimedRunner::new(plain);
        let subject: &dyn TrialRunner = if exec.decorate { &timed } else { plain };
        let outcome = rec.span("tuner.tune", |_| {
            Autotuner::new(subject, bins, options).tune_outcome()
        });
        trial = timed.seen();
        outcome.map_err(|e| e.to_string())
    }));
    TuneRun {
        wall: start.elapsed(),
        result: caught.unwrap_or_else(|payload| Err(panic_message(payload))),
        trial,
    }
}

/// A program loaded for serving: its runner and the tuned program read
/// back from the JSON file set-up wrote.
pub struct Artifact {
    pub spec: Spec,
    pub runner: Box<dyn Served>,
    pub tuned: TunedProgram,
    pub path: PathBuf,
}

/// Where a workload's files go: `ledger/out/`.
pub fn out_dir() -> PathBuf {
    crate::dsl::repo_root().join("ledger").join("out")
}

/// Tunes one served program with its first corpus seed, saves the
/// tuned JSON and loads it back.
fn prepare_artifact(spec: Spec) -> Result<Artifact, String> {
    let seed = crate::ops::corpus_seed(&spec, 0);
    let run = run_tune(&spec, seed, Exec::TIMED, &mut Recorder::new(false));
    let tuned = run.result?.program;
    let dir = out_dir().join("artifacts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.tuned.json", spec.program.name()));
    tuned
        .save_to(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let loaded = TunedProgram::load_from(&path)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    if loaded != tuned {
        return Err(format!("{} did not round-trip", path.display()));
    }
    Ok(Artifact {
        runner: spec.program.build()?,
        spec,
        tuned: loaded,
        path,
    })
}

/// Everything the timed pass needs.
pub struct Prepared {
    pub list: OpList,
    /// Per tuning op: the untimed sequential run's outcome, which every
    /// pool-mode run must equal. `None` for serve ops.
    pub references: Vec<Option<Result<Tuned, String>>>,
    /// Per served program (index = [`ServeOp::served`]).
    pub artifacts: Vec<Result<Artifact, String>>,
}

/// Set-up: the op list, the reference outputs and the serving
/// artifacts.
pub fn prepare(settings: Settings) -> Prepared {
    let list = op_list(settings.workload, settings.seed, settings.smoke);
    let sequential = Exec {
        parallel: false,
        decorate: false,
    };
    let references = list
        .ops
        .iter()
        .map(|op| match op {
            Op::Tune(t) => {
                let run = run_tune(&t.spec, t.tuner_seed, sequential, &mut Recorder::new(false));
                Some(run.result.map(|outcome| Tuned::of(&outcome)))
            }
            Op::Serve(_) => None,
        })
        .collect();
    let artifacts = if settings.workload.tunes() {
        Vec::new()
    } else {
        served_specs().into_iter().map(prepare_artifact).collect()
    };
    Prepared {
        list,
        references,
        artifacts,
    }
}

/// What one execution of one op produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRun {
    pub wall_ns: f64,
    pub trial: TrialTime,
}

/// Why an op counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// An output check failed (as opposed to the op returning an error
    /// of its own).
    pub wrong_output: bool,
    pub reason: String,
}

/// A prepared workload plus what its ops have done so far.
pub struct Session {
    pub prepared: Prepared,
    /// First failure of each op, if any.
    pub failures: Vec<Option<Failure>>,
    /// First response of each serve op; later ones must equal it.
    first_response: Vec<Option<Response>>,
}

impl Session {
    pub fn new(prepared: Prepared) -> Session {
        let n = prepared.list.ops.len();
        Session {
            prepared,
            failures: vec![None; n],
            first_response: vec![None; n],
        }
    }

    pub fn ops(&self) -> &[Op] {
        &self.prepared.list.ops
    }

    fn fail(&mut self, op: usize, wrong_output: bool, reason: String) {
        match &mut self.failures[op] {
            Some(failure) => failure.wrong_output |= wrong_output,
            slot => {
                *slot = Some(Failure {
                    wrong_output,
                    reason,
                })
            }
        }
    }

    /// Executes the whole op list once, in list order, checking every
    /// result against its reference.
    pub fn pass(&mut self, exec: Exec, rec: &mut Recorder) -> Vec<OpRun> {
        self.pass_with(exec, rec, |_| {})
    }

    /// [`Session::pass`], calling `after_op` between ops (outside every
    /// op's timed region).
    pub fn pass_with(
        &mut self,
        exec: Exec,
        rec: &mut Recorder,
        mut after_op: impl FnMut(usize),
    ) -> Vec<OpRun> {
        (0..self.ops().len())
            .map(|index| {
                rec.set_op(index);
                let op = self.ops()[index].clone();
                let run = rec.span("op", |rec| match &op {
                    Op::Tune(t) => self.tune_op(index, t, exec, rec),
                    Op::Serve(s) => self.serve_op(index, s, rec),
                });
                after_op(index);
                run
            })
            .collect()
    }

    fn tune_op(&mut self, index: usize, op: &TuneOp, exec: Exec, rec: &mut Recorder) -> OpRun {
        let run = run_tune(&op.spec, op.tuner_seed, exec, rec);
        let out = OpRun {
            wall_ns: run.wall.as_nanos() as f64,
            trial: run.trial,
        };
        let reference = self.prepared.references[index]
            .as_ref()
            .expect("tuning ops carry a reference");
        match (&run.result, reference) {
            (Ok(outcome), Ok(expected)) => {
                if Tuned::of(outcome) != *expected {
                    self.fail(
                        index,
                        true,
                        "outcome differs from the sequential reference".into(),
                    );
                } else if outcome.stats.quarantined > 0 {
                    self.fail(index, false, "a trial was quarantined".into());
                }
            }
            (Err(e), Ok(_)) => self.fail(
                index,
                true,
                format!("failed where the sequential reference succeeded: {e}"),
            ),
            (Ok(_), Err(e)) => self.fail(
                index,
                true,
                format!("succeeded where the sequential reference failed: {e}"),
            ),
            (Err(e), Err(_)) => self.fail(index, false, e.clone()),
        }
        out
    }

    fn serve_op(&mut self, index: usize, op: &ServeOp, rec: &mut Recorder) -> OpRun {
        let artifact = match &self.prepared.artifacts[op.served] {
            Ok(artifact) => artifact,
            Err(e) => {
                let reason = format!("set-up: {e}");
                self.fail(index, false, reason);
                return OpRun::default();
            }
        };
        let start = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| match op.kind {
            ServeKind::Steady => rec.span("serve.request", |_| {
                artifact
                    .runner
                    .serve(&artifact.tuned, op.n, op.required, op.input_seed)
                    .map_err(|e| e.to_string())
            }),
            ServeKind::Cold => {
                let runner = rec.span("program.build", |_| op.program.build())?;
                let tuned = rec
                    .span("tuned.load", |_| TunedProgram::load_from(&artifact.path))
                    .map_err(|e| e.to_string())?;
                rec.span("serve.request", |_| {
                    runner
                        .serve(&tuned, op.n, op.required, op.input_seed)
                        .map_err(|e| e.to_string())
                })
            }
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload)));
        let elapsed = start.elapsed();
        match served {
            Ok(response) => {
                let same = |a: &Response, b: &Response| {
                    a.accuracy.to_bits() == b.accuracy.to_bits()
                        && a.attempts == b.attempts
                        && a.bin_used == b.bin_used
                };
                match &self.first_response[index] {
                    Some(first) if !same(first, &response) => {
                        self.fail(index, true, "response differs between passes".into())
                    }
                    Some(_) => {}
                    None => self.first_response[index] = Some(response),
                }
                // A steady request is timed by the server (the client
                // builds its input first); a cold start is timed whole.
                let wall = match op.kind {
                    ServeKind::Steady => response.wall,
                    ServeKind::Cold => elapsed,
                };
                OpRun {
                    wall_ns: wall.as_nanos() as f64,
                    ..OpRun::default()
                }
            }
            Err(e) => {
                self.fail(index, false, e);
                OpRun {
                    wall_ns: elapsed.as_nanos() as f64,
                    ..OpRun::default()
                }
            }
        }
    }

    /// The first response of serve op `index`.
    pub fn response(&self, index: usize) -> Option<&Response> {
        self.first_response[index].as_ref()
    }
}

/// One held-out evaluation cell: a tuned (or served) configuration's
/// cost and accuracy against the accuracy asked of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub op: usize,
    pub target: f64,
    pub cost: f64,
    pub accuracy: f64,
}

/// Evaluates every tuned configuration on the held-out seeds (tuning
/// workloads), or prices every response (serving). An op without a
/// tuned program or response contributes no cell. The trials run as
/// one batch on the pool; they are deterministic and are summed in
/// plan order, so the cells are exact functions of the seed.
pub fn evaluate(session: &Session) -> Vec<Cell> {
    struct Job<'a> {
        cell: usize,
        runner: &'a dyn TrialRunner,
        config: &'a Config,
        n: u64,
        seed: u64,
    }
    let list = &session.prepared.list;
    let built: Vec<Option<Box<dyn Served>>> = list
        .ops
        .iter()
        .zip(&session.prepared.references)
        .map(|(op, reference)| match (op, reference) {
            (Op::Tune(t), Some(Ok(_))) => t.spec.program.build().ok(),
            _ => None,
        })
        .collect();
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for (index, op) in list.ops.iter().enumerate() {
        match op {
            Op::Tune(t) => {
                let (Some(Ok(reference)), Some(runner)) =
                    (&session.prepared.references[index], &built[index])
                else {
                    continue;
                };
                for entry in reference.program.entries() {
                    jobs.extend(list.eval_seeds.iter().map(|&seed| Job {
                        cell: cells.len(),
                        runner: &**runner,
                        config: &entry.config,
                        n: t.spec.n,
                        seed,
                    }));
                    cells.push(Cell {
                        op: index,
                        target: entry.target,
                        cost: 0.0,
                        accuracy: 0.0,
                    });
                }
            }
            Op::Serve(s) => {
                let (Some(response), Ok(artifact)) = (
                    session.response(index),
                    &session.prepared.artifacts[s.served],
                ) else {
                    continue;
                };
                jobs.push(Job {
                    cell: cells.len(),
                    runner: &*artifact.runner,
                    config: &artifact.tuned.entry(response.bin_used).config,
                    n: s.n,
                    seed: s.input_seed,
                });
                cells.push(Cell {
                    op: index,
                    target: s.required,
                    cost: 0.0,
                    accuracy: response.accuracy,
                });
            }
        }
    }
    let outcomes: Vec<Mutex<Option<TrialOutcome>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    Pool::global().run_indexed(jobs.len(), |i| {
        let job = &jobs[i];
        // A configuration that panics on a held-out input leaves its
        // slot empty; the cell then reads as unmet, not as a crash.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            job.runner.run_trial(job.config, job.n, job.seed)
        }));
        *outcomes[i]
            .lock()
            .expect("no other holder can have panicked") = outcome.ok();
    });
    let tunes = list.workload.tunes();
    let share = if tunes {
        list.eval_seeds.len() as f64
    } else {
        1.0
    };
    for (job, slot) in jobs.iter().zip(outcomes) {
        let outcome = slot
            .into_inner()
            .expect("no other holder can have panicked")
            .unwrap_or(TrialOutcome::QUARANTINED);
        let cell = &mut cells[job.cell];
        cell.cost += outcome.virtual_cost / share;
        if tunes {
            cell.accuracy += outcome.accuracy / share;
        }
    }
    cells
}

/// Geometric mean of the cells' costs (cells with a non-positive or
/// non-finite cost are left out).
pub fn cost_geomean(cells: &[Cell]) -> f64 {
    let costs: Vec<f64> = cells
        .iter()
        .map(|c| c.cost)
        .filter(|c| c.is_finite() && *c > 0.0)
        .collect();
    geomean(&costs)
}

/// Every `(op, config)` the workload tuned or serves, per DSL program.
fn dsl_configs(session: &Session) -> BTreeMap<usize, Vec<(usize, Config)>> {
    let mut configs: BTreeMap<usize, Vec<(usize, Config)>> = BTreeMap::new();
    for (index, op) in session.ops().iter().enumerate() {
        let (program, tuned) = match op {
            Op::Tune(t) => match &session.prepared.references[index] {
                Some(Ok(reference)) => (t.spec.program, &reference.program),
                _ => continue,
            },
            Op::Serve(s) => match &session.prepared.artifacts[s.served] {
                Ok(artifact) => (s.program, &artifact.tuned),
                Err(_) => continue,
            },
        };
        if let ProgramId::Dsl(i) = program {
            let slot = configs.entry(i).or_default();
            slot.extend(tuned.entries().iter().map(|e| (index, e.config.clone())));
        }
    }
    configs
}

/// One DSL program compiled twice — at the default level and as a
/// plain tree-walker — with one input to run both on.
struct Differential {
    program: &'static DslProgram,
    fast: pb_lang::DslTransform,
    slow: Interpreter,
    schema: pb_config::Schema,
    input: std::collections::HashMap<String, pb_lang::Value>,
    seed: u64,
}

impl Differential {
    fn new(program: &'static DslProgram, seed: u64) -> Result<Self, String> {
        use rand::SeedableRng;
        let source = program.read_source().map_err(|e| e.to_string())?;
        let fast = program.compile(&source)?;
        let slow = Interpreter::new(parse_program(&source).map_err(|e| e.to_string())?);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Ok(Differential {
            schema: fast.schema(),
            input: program.generate_input(program.n, &mut rng),
            program,
            fast,
            slow,
            seed,
        })
    }

    /// Runs `config` on both engines and compares every output bit for
    /// bit.
    fn agrees(&self, config: &Config) -> Result<(), String> {
        let run = |engine: &Interpreter| {
            let mut ctx = ExecCtx::new(&self.schema, config, self.program.n, self.seed);
            engine
                .run(self.program.transform, &self.input, &mut ctx)
                .map_err(|e| e.to_string())
        };
        let (fast, slow) = (run(self.fast.interpreter())?, run(&self.slow)?);
        let same = fast.len() == slow.len()
            && fast
                .iter()
                .all(|(k, v)| slow.get(k).is_some_and(|w| v.bits_eq(w)));
        if same {
            Ok(())
        } else {
            Err(format!(
                "{}: default OptLevel output differs from the tree-walking interpreter",
                self.program.name
            ))
        }
    }
}

/// The output checks that run once, after the timed pass: DSL outputs
/// against the tree-walker on every tuned configuration, and `planted`
/// against its known optimum.
pub fn check_outputs(session: &mut Session) {
    let seed = session.prepared.list.eval_seeds[0];
    for (i, configs) in dsl_configs(session) {
        let engines = Differential::new(&crate::dsl::PROGRAMS[i], seed);
        // The same configuration tuned by several ops is checked once;
        // its verdict goes to every op that shares it.
        let mut verdicts: HashMap<u64, Result<(), String>> = HashMap::new();
        for (op, config) in configs {
            let verdict = verdicts
                .entry(config_fingerprint(&config))
                .or_insert_with(|| engines.as_ref().map_err(String::clone)?.agrees(&config));
            if let Err(reason) = verdict {
                session.fail(op, true, reason.clone());
            }
        }
    }
    for index in 0..session.ops().len() {
        let Op::Tune(TuneOp { spec, .. }) = &session.ops()[index] else {
            continue;
        };
        let (ProgramId::Planted(seed), Some(Ok(reference))) =
            (spec.program, &session.prepared.references[index])
        else {
            continue;
        };
        let planted = Planted::new(seed);
        let schema = planted.schema();
        let missed = reference.program.entries().iter().find_map(|entry| {
            let (accuracy, cost) = planted.evaluate(&schema, &entry.config, spec.n);
            let optimum = planted
                .optimum_cost(entry.target)
                .expect("planted's bins are reachable");
            (accuracy < entry.target || cost > PLANTED_SLACK * optimum).then(|| {
                format!(
                    "planted bin {}: accuracy {accuracy}, cost {cost} against optimum {optimum}",
                    entry.target
                )
            })
        });
        if let Some(reason) = missed {
            session.fail(index, true, reason);
        }
    }
}

/// Per-op times folded into the two time aggregates:
/// `(wall_s, op_ms_geomean)`.
pub fn time_aggregates<R: Ord>(rows: impl Iterator<Item = R>, op_ns: &[f64]) -> (f64, f64) {
    let wall_s = op_ns.iter().sum::<f64>() / 1e9;
    let mut by_row: BTreeMap<R, Vec<f64>> = BTreeMap::new();
    for (row, &ns) in rows.zip(op_ns) {
        by_row.entry(row).or_default().push(ns / 1e6);
    }
    let row_medians: Vec<f64> = by_row.values().map(|ms| median(ms)).collect();
    (wall_s, geomean(&row_medians))
}

/// A finished run: what the last stdout line and the output file carry.
pub struct Report {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// No output check failed.
    pub correct: bool,
    /// Per-op rows, provenance and (traced runs) the span file.
    pub detail: Value,
}

/// Ops attempted, ops failed, and whether every output check held.
pub fn tally(session: &Session) -> (usize, usize, bool) {
    let failed = session.failures.iter().flatten().count();
    let correct = !session.failures.iter().flatten().any(|f| f.wrong_output);
    (session.ops().len(), failed, correct)
}

/// One op's row of the output file: every sample, the quartiles, and
/// the fastest pass the aggregates use.
pub fn op_row(op: &str, row: &str, ms: &[f64], failure: Option<&str>) -> Value {
    let spread = if ms.len() >= 2 {
        quartiles(ms)
    } else {
        [ms.first().copied().unwrap_or(0.0); 3]
    };
    obj([
        ("op", text(op)),
        ("row", text(row)),
        ("repeats", int(ms.len() as u64)),
        (
            "fastest_ms",
            num(if ms.is_empty() { 0.0 } else { fastest(ms) }),
        ),
        ("q1_ms", num(spread[0])),
        ("median_ms", num(spread[1])),
        ("q3_ms", num(spread[2])),
        (
            "samples_ms",
            Value::Arr(ms.iter().map(|&v| num(v)).collect()),
        ),
        ("failure", failure.map_or(Value::Null, text)),
    ])
}

/// Per-op rows of the output file, from per-op samples in nanoseconds.
pub fn op_rows(session: &Session, samples: &[Vec<f64>]) -> Value {
    let rows = session
        .ops()
        .iter()
        .zip(samples)
        .zip(&session.failures)
        .map(|((op, ns), failure)| {
            let ms: Vec<f64> = ns.iter().map(|v| v / 1e6).collect();
            let reason = failure.as_ref().map(|f| f.reason.as_str());
            op_row(&op.describe(), &op.row(), &ms, reason)
        })
        .collect();
    Value::Arr(rows)
}

/// One set of the timed pass, tracing off: every end-to-end metric as
/// this process saw it.
pub fn end_to_end(settings: Settings) -> Report {
    let load = env::load_average();
    // Set-up happens once per set (see `crate::sets`); the run reports
    // the median.
    let start = Instant::now();
    let mut session = Session::new(prepare(settings));
    let setup_s = start.elapsed().as_secs_f64();
    let mut rec = Recorder::new(false);

    session.pass(Exec::TIMED, &mut rec); // warm-up, discarded
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); session.ops().len()];
    let (min_repeats, budget) = if settings.smoke {
        (SMOKE_REPEATS, Duration::ZERO)
    } else {
        (
            MIN_REPEATS,
            Duration::from_secs_f64(settings.seconds.max(0.0)),
        )
    };
    let timed = Instant::now();
    let mut repeats = 0;
    // Whole passes only, so the time measured is `--seconds` rounded to
    // the nearest pass rather than always overshooting by one.
    while repeats < min_repeats || timed.elapsed() + timed.elapsed() / (2 * repeats as u32) < budget
    {
        for (slot, run) in samples.iter_mut().zip(session.pass(Exec::TIMED, &mut rec)) {
            slot.push(run.wall_ns);
        }
        repeats += 1;
    }
    let timed_pass_s = timed.elapsed().as_secs_f64();

    check_outputs(&mut session);
    let cells = evaluate(&session);
    let op_ns: Vec<f64> = samples.iter().map(|s| fastest(s)).collect();
    let (wall_s, op_ms_geomean) = time_aggregates(session.ops().iter().map(Op::row), &op_ns);
    let met = cells.iter().filter(|c| c.accuracy >= c.target).count();
    // An op that produced no tuned program or response has no cells;
    // its bins count as unmet.
    let expected_cells: usize = session
        .ops()
        .iter()
        .map(|op| match op {
            Op::Tune(t) => t.spec.bins.len(),
            Op::Serve(_) => 1,
        })
        .sum();

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("wall_s", wall_s);
    metrics.set("op_ms_geomean", op_ms_geomean);
    metrics.set("tuned_cost_geomean", cost_geomean(&cells));
    metrics.set(
        "accuracy_met_share",
        ratio(met as f64, expected_cells as f64),
    );
    metrics.set("peak_rss_mb", env::peak_rss_mib());

    let (attempted, failed, correct) = tally(&session);
    let detail = obj([
        ("repeats", int(repeats as u64)),
        ("timed_pass_s", num(timed_pass_s)),
        ("provenance", env::provenance(load)),
        ("ops", op_rows(&session, &samples)),
    ]);
    Report {
        metrics,
        attempted,
        failed,
        correct,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Native;

    fn clustering(bins: Vec<f64>) -> Spec {
        Spec {
            program: ProgramId::Native(Native::Clustering),
            n: 16,
            bins,
        }
    }

    #[test]
    fn an_unreachable_bin_is_counted_not_fatal() {
        // Bin packing's metric is 2 − bins/OPT ≤ 1: a 1.5 bin makes the
        // tuner report AccuracyUnreachable, which must surface as a
        // failed op.
        let spec = Spec {
            program: ProgramId::Native(Native::BinPacking),
            n: 32,
            bins: vec![0.5, 1.5],
        };
        let op = Op::Tune(TuneOp {
            tuner_seed: 3,
            spec: spec.clone(),
        });
        let healthy = Op::Tune(TuneOp {
            tuner_seed: 3,
            spec: clustering(vec![0.05]),
        });
        let run = |op: &Op| match op {
            Op::Tune(t) => run_tune(
                &t.spec,
                t.tuner_seed,
                Exec {
                    parallel: false,
                    decorate: false,
                },
                &mut Recorder::new(false),
            ),
            Op::Serve(_) => unreachable!(),
        };
        let references = [&op, &healthy]
            .map(|op| Some(run(op).result.map(|outcome| Tuned::of(&outcome))))
            .to_vec();
        assert!(references[0]
            .as_ref()
            .unwrap()
            .as_ref()
            .is_err_and(|e| e.contains("could not reach accuracy target")));
        let list = OpList {
            workload: Workload::TuneSmall,
            seed: 0,
            ops: vec![op, healthy],
            eval_seeds: [1, 2, 3, 4, 5, 6, 7, 8],
        };
        let mut session = Session::new(Prepared {
            list,
            references,
            artifacts: Vec::new(),
        });
        let runs = session.pass(Exec::TIMED, &mut Recorder::new(false));
        assert_eq!(runs.len(), 2);
        // Counted: one failed op of two, and no output check tripped.
        assert_eq!(tally(&session), (2, 1, true));
        // Its bins have no held-out cells, the healthy op's bin has one.
        assert_eq!(evaluate(&session).len(), 1);
    }

    #[test]
    fn a_diverging_outcome_fails_its_output_check() {
        let spec = clustering(vec![0.05]);
        let op = TuneOp {
            tuner_seed: 9,
            spec: spec.clone(),
        };
        // A reference from another tuner seed stands in for a broken
        // pool-mode run.
        let other = run_tune(&spec, 10, Exec::TIMED, &mut Recorder::new(false));
        let reference = other.result.map(|outcome| Tuned::of(&outcome));
        let mut session = Session::new(Prepared {
            list: OpList {
                workload: Workload::TuneSmall,
                seed: 0,
                ops: vec![Op::Tune(op)],
                eval_seeds: [0; 8],
            },
            references: vec![Some(reference)],
            artifacts: Vec::new(),
        });
        session.pass(Exec::TIMED, &mut Recorder::new(false));
        assert_eq!(tally(&session), (1, 1, false));
    }

    #[test]
    fn decorated_runs_see_every_trial_and_decide_the_same() {
        let spec = clustering(vec![0.05, 0.2]);
        let mut rec = Recorder::new(true);
        let plain = run_tune(&spec, 5, Exec::TIMED, &mut rec);
        let watched = run_tune(
            &spec,
            5,
            Exec {
                parallel: false,
                decorate: true,
            },
            &mut rec,
        );
        let (plain_out, watched_out) = (plain.result.unwrap(), watched.result.unwrap());
        assert_eq!(Tuned::of(&plain_out), Tuned::of(&watched_out));
        assert_eq!(plain.trial, TrialTime::default());
        assert_eq!(watched.trial.calls, watched_out.stats.trials);
        assert!(watched.trial.busy_ns > 0);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["program.build", "tuner.tune", "program.build", "tuner.tune"]
        );
    }

    #[test]
    fn time_aggregates_weigh_rows_equally() {
        let rows = ["poisson", "poisson", "poisson", "precond"];
        // Poisson row: median(100, 300, 200) ms = 200; precond row: 2 ms.
        let (wall_s, op_ms) = time_aggregates(rows.into_iter(), &[100e6, 300e6, 200e6, 2e6]);
        assert!((wall_s - 0.602).abs() < 1e-12);
        assert!((op_ms - 20.0).abs() < 1e-9);
    }
}
