//! A measured run, as the parent process sees it.
//!
//! The traced layer pass is one watched child process. The timed pass
//! is a handful of them — *sets* — because how fast a process runs a
//! pool-mode workload is partly a property of that process: the same
//! binary, seed and op order gave `tune_small` totals between 0.36 and
//! 0.46 s from one process to the next, while the passes inside each
//! process agreed within a few percent. Each of a workload's
//! [`Workload::sets`](crate::ops::Workload::sets) sets up, warms up and
//! times its share of `--seconds` on its own; an op's time is its
//! fastest pass over all sets, `setup_s` and `peak_rss_mb` are medians
//! over the sets, and the exact metrics must be the same in every set.

use crate::json::{self, int, obj, Value};
use crate::metrics::{Metrics, END_TO_END};
use crate::output::Outcome;
use crate::run::{op_row, out_dir, time_aggregates, Report, Settings};
use crate::stats::{fastest, median};
use crate::supervise;

fn child_args(settings: Settings, seconds: f64, trace: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        settings.workload.name(),
        "--seed",
        &settings.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec();
    if settings.smoke {
        args.push("--smoke".into());
    }
    args
}

/// What one set reported, read back from the result line it printed
/// and the file it wrote.
struct Set {
    result: Outcome,
    detail: Value,
}

impl Set {
    fn metric(&self, name: &str) -> f64 {
        self.result.metric(name).unwrap_or(0.0)
    }

    fn ops(&self) -> &[Value] {
        json::items(self.detail.get("ops"))
    }
}

/// One watched child; returns its stdout.
///
/// # Errors
///
/// See [`supervise::run`].
pub fn traced(settings: Settings) -> Result<supervise::Supervised, String> {
    supervise::run(
        &child_args(settings, settings.seconds, true),
        settings.seconds,
    )
}

/// The timed pass as sets of watched child processes, merged.
///
/// # Errors
///
/// A set that never completed, or whose output cannot be read back.
pub fn timed(settings: Settings) -> Result<(Report, usize), String> {
    let count = if settings.smoke {
        1
    } else {
        settings.workload.sets()
    };
    let share = settings.seconds / count as f64;
    let mut sets = Vec::new();
    let mut casualties = 0;
    for _ in 0..count {
        let run = supervise::run(&child_args(settings, share, false), share)?;
        casualties += run.casualties.len();
        let result = Outcome::parse(run.stdout.lines().last().unwrap_or(""))?;
        let path = out_dir().join(format!("{}.json", settings.workload.name()));
        let body = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| json::parse(&text))?;
        let detail = body.get("detail").cloned().unwrap_or(Value::Null);
        println!(
            "# set {}: wall_s {:.4} setup_s {:.4} ({} passes)",
            sets.len() + 1,
            result.metric("wall_s").unwrap_or(0.0),
            result.metric("setup_s").unwrap_or(0.0),
            detail.get("repeats").and_then(Value::as_i64).unwrap_or(0),
        );
        sets.push(Set { result, detail });
    }
    Ok((merge(&sets)?, casualties))
}

/// Folds the sets into one report.
fn merge(sets: &[Set]) -> Result<Report, String> {
    let first = &sets[0];
    let ops = first.ops().len();
    if sets.iter().any(|s| s.ops().len() != ops) {
        return Err("the sets disagree on the op list".into());
    }
    // Per op: every sample of every set, and the first failure any set
    // recorded.
    let mut rows = Vec::with_capacity(ops);
    let mut samples: Vec<Vec<f64>> = Vec::with_capacity(ops);
    let mut failures: Vec<Option<String>> = Vec::with_capacity(ops);
    for index in 0..ops {
        let op = &first.ops()[index];
        rows.push((
            json::str_at(op, "op").unwrap_or("").to_string(),
            json::str_at(op, "row").unwrap_or("").to_string(),
        ));
        let per_set = sets.iter().map(|s| &s.ops()[index]);
        samples.push(
            per_set
                .clone()
                .flat_map(|op| json::items(op.get("samples_ms")))
                .filter_map(Value::as_f64)
                .collect(),
        );
        failures.push(
            per_set
                .filter_map(|op| json::str_at(op, "failure"))
                .next()
                .map(str::to_string),
        );
    }
    if samples.iter().any(Vec::is_empty) {
        return Err("a set reported an op without samples".into());
    }
    let op_ns: Vec<f64> = samples.iter().map(|ms| fastest(ms) * 1e6).collect();
    let (wall_s, op_ms_geomean) = time_aggregates(rows.iter().map(|(_, row)| row.as_str()), &op_ns);

    // The exact metrics are functions of the seed alone: a set that
    // disagrees computed something else, which is an output failure.
    let exact = |name: &str| {
        sets.iter()
            .all(|s| s.metric(name).to_bits() == first.metric(name).to_bits())
    };
    let agree = exact("tuned_cost_geomean")
        && exact("accuracy_met_share")
        && sets
            .iter()
            .all(|s| s.result.attempted == first.result.attempted);
    let over_sets = |name: &str| median(&sets.iter().map(|s| s.metric(name)).collect::<Vec<_>>());

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", over_sets("setup_s"));
    metrics.set("wall_s", wall_s);
    metrics.set("op_ms_geomean", op_ms_geomean);
    metrics.set("tuned_cost_geomean", first.metric("tuned_cost_geomean"));
    metrics.set("accuracy_met_share", first.metric("accuracy_met_share"));
    metrics.set("peak_rss_mb", over_sets("peak_rss_mb"));

    let detail = obj([
        (
            "sets",
            Value::Arr(
                sets.iter()
                    .map(|s| {
                        obj([
                            (
                                "repeats",
                                s.detail.get("repeats").cloned().unwrap_or(Value::Null),
                            ),
                            ("end_to_end", s.result.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "repeats",
            int(samples.first().map_or(0, |s| s.len() as u64)),
        ),
        (
            "provenance",
            first
                .detail
                .get("provenance")
                .cloned()
                .unwrap_or(Value::Null),
        ),
        (
            "ops",
            Value::Arr(
                rows.iter()
                    .zip(&samples)
                    .zip(&failures)
                    .map(|(((op, row), ms), failure)| op_row(op, row, ms, failure.as_deref()))
                    .collect(),
            ),
        ),
        ("sets_agree", Value::Bool(agree)),
    ]);
    Ok(Report {
        metrics,
        attempted: first.result.attempted as usize,
        failed: failures.iter().flatten().count(),
        correct: agree && sets.iter().all(|s| s.result.correct),
        detail,
    })
}
