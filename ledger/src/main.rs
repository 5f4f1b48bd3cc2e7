//! `pb_ledger`: the repository's end-to-end + per-layer performance
//! benchmark. See `ledger/README.md`.

mod dsl;
mod env;
mod json;
mod layers;
mod metrics;
mod ops;
mod output;
mod planted;
mod programs;
mod run;
mod sets;
mod spans;
mod stats;
mod suite;
mod supervise;
mod timing;

use ops::{Workload, DEFAULT_SEED};
use run::Settings;
use std::process::ExitCode;

/// Seconds the timed pass measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage: ledger/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       ledger/run.sh [--seed N] [--seconds S] [--smoke] [--record]
       ledger/run.sh repeat [--workload <name>] [--seed N] [--seconds S] [--smoke]
workloads: tune_full tune_small tune_dsl serve_tuned";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// This process measures (set by the supervisor, not by users).
    in_process: bool,
    repeat: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
}

fn parse_u64(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        in_process: false,
        repeat: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "repeat" => parsed.repeat = true,
            supervise::IN_PROCESS => parsed.in_process = true,
            "--smoke" => parsed.smoke = true,
            "--record" => parsed.record = true,
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = parse_u64(v).ok_or_else(|| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                parsed.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process and emits the result.
fn run_one(settings: Settings, trace: bool) -> Result<bool, String> {
    env::check_knobs()?;
    let report = if trace {
        layers::layer_pass(settings)
    } else {
        run::end_to_end(settings)
    };
    output::emit(settings, trace, &report)?;
    Ok(report.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pb_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = suite::Plan {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let held = match (args.repeat, args.workload) {
        (true, only) => suite::repeat(plan, only),
        (false, None) => suite::all(plan, args.record),
        (false, Some(workload)) => {
            let settings = Settings {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
            };
            if args.in_process {
                run_one(settings, args.trace)
            } else if args.trace {
                // One watched child, its output passed through so the
                // result line stays last.
                sets::traced(settings).and_then(|run| {
                    print!("{}", run.stdout);
                    output::Outcome::parse(run.stdout.lines().last().unwrap_or(""))
                        .map(|outcome| outcome.correct)
                })
            } else {
                sets::timed(settings).and_then(|(report, _)| {
                    output::emit(settings, false, &report)?;
                    Ok(report.correct)
                })
            }
        }
    };
    match held {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pb_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
