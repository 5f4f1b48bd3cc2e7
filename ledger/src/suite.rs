//! Whole-ledger commands: every workload in its own process
//! (`ledger/run.sh`), the same-build repeat check (`ledger/run.sh
//! repeat`) and the committed trajectory (`--record`).

use crate::dsl::repo_root;
use crate::env;
use crate::json::{self, int, obj, text, Value};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::ops::Workload;
use crate::output::{self, Outcome};
use crate::run::{out_dir, Settings};
use crate::sets;
use std::io::Write;
use std::process::Command;

/// What the whole-ledger commands share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Measures one workload (the timed pass as sets, the traced pass as
/// one child), prints its table, and returns what it reported.
fn child(plan: Plan, workload: Workload, trace: bool) -> Result<Outcome, String> {
    let settings = Settings {
        workload,
        seed: plan.seed,
        seconds: plan.seconds,
        smoke: plan.smoke,
    };
    if trace {
        let run = sets::traced(settings)?;
        let last = run.stdout.lines().last().unwrap_or("");
        // Everything but the result line is for the reader.
        for line in run.stdout.lines().filter(|l| *l != last) {
            println!("{line}");
        }
        let mut outcome = Outcome::parse(last).map_err(|e| format!("{}: {e}", workload.name()))?;
        outcome.casualties = run.casualties.len() as u64;
        Ok(outcome)
    } else {
        let (report, casualties) = sets::timed(settings)?;
        output::print_table(settings, false, &report);
        output::write_file(settings, false, &report)?;
        Ok(Outcome {
            casualties: casualties as u64,
            ..Outcome::of(&report)
        })
    }
}

fn commit() -> String {
    Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `detail` object the child wrote next to its result.
fn detail(workload: Workload) -> Option<Value> {
    let path = out_dir().join(format!("{}.json", workload.name()));
    let body = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    body.get("detail").cloned()
}

/// Appends one line per workload to `ledger/history.jsonl`.
fn record(plan: Plan, rows: &[(Workload, Outcome, Outcome)]) -> Result<(), String> {
    let path = repo_root().join("ledger").join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let commit = commit();
    for (workload, timed, traced) in rows {
        let detail = detail(*workload);
        let from_detail = |key: &str| {
            detail
                .as_ref()
                .and_then(|d| d.get(key).cloned())
                .unwrap_or(Value::Null)
        };
        let line = obj([
            ("commit", text(commit.clone())),
            ("workload", text(workload.name())),
            ("seed", int(plan.seed)),
            ("smoke", Value::Bool(plan.smoke)),
            ("repeats", from_detail("repeats")),
            ("provenance", from_detail("provenance")),
            ("attempted", int(timed.attempted)),
            ("failed", int(timed.failed)),
            (
                "crashed_or_hung_attempts",
                int(timed.casualties + traced.casualties),
            ),
            ("end_to_end", timed.to_json()),
            ("per_layer", traced.to_json()),
        ]);
        writeln!(file, "{}", json::line(line))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("recorded {} lines in {}", rows.len(), path.display());
    Ok(())
}

/// `ledger/run.sh`: every workload, timed then traced, each in its own
/// process. Returns whether every output check held.
pub fn all(plan: Plan, keep: bool) -> Result<bool, String> {
    println!(
        "# ledger: {} hardware threads, load {:.2}, knobs {}",
        env::nproc(),
        env::load_average(),
        json::line(env::knobs())
    );
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let timed = child(plan, workload, false)?;
        let traced = child(plan, workload, true)?;
        rows.push((workload, timed, traced));
    }
    println!("\n# summary");
    for (workload, timed, traced) in &rows {
        println!(
            "{:<12} {} ops, {} failed, output checks {}",
            workload.name(),
            timed.attempted,
            timed.failed.max(traced.failed),
            if timed.correct && traced.correct {
                "held"
            } else {
                "FAILED"
            }
        );
    }
    if keep {
        record(plan, &rows)?;
    }
    Ok(rows.iter().all(|(_, a, b)| a.correct && b.correct))
}

/// Metrics that are exact functions of the seed: two runs of one build
/// must agree bit for bit.
const EXACT: [&str; 2] = ["tuned_cost_geomean", "accuracy_met_share"];

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints the per-op quartiles of the least steady ops of a run.
fn print_spread(workload: Workload, set: &str) {
    let Some(detail) = detail(workload) else {
        return;
    };
    let mut ops: Vec<(f64, String)> = json::items(detail.get("ops"))
        .iter()
        .filter_map(|op| {
            let at = |key: &str| op.get(key).and_then(Value::as_f64);
            let (q1, q2, q3) = (at("q1_ms")?, at("median_ms")?, at("q3_ms")?);
            let (name, fastest) = (json::str_at(op, "op")?, at("fastest_ms")?);
            Some((
                (q3 - q1) / q2,
                format!("{name}: fastest {fastest:.3} q1 {q1:.3} median {q2:.3} q3 {q3:.3} ms"),
            ))
        })
        .collect();
    ops.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("spreads are finite"));
    println!("  run {set}: widest per-op spreads (IQR / median)");
    for (spread, line) in ops.iter().take(8) {
        println!("    {spread:>6.3}  {line}");
    }
}

/// `ledger/run.sh repeat`: the timed pass twice over, as runs A and B
/// of the same build; B must stay within every metric's bound of A,
/// and the exact metrics must not move at all.
pub fn repeat(plan: Plan, only: Option<Workload>) -> Result<bool, String> {
    let mut steady = true;
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        println!("# repeat {}", workload.name());
        let a = child(plan, workload, false)?;
        print_spread(workload, "A");
        let b = child(plan, workload, false)?;
        print_spread(workload, "B");
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (a.metric(def.name), b.metric(def.name)) else {
                return Err(format!("{} was not reported", def.name));
            };
            let worse = worsening(def, va, vb);
            let exact = EXACT.contains(&def.name);
            let ok = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                worse <= def.bound
            };
            steady &= ok;
            println!(
                "  {:<20} A {va:>16.6} B {vb:>16.6} {:>+8.2} % (bound {:.0} %{}) {}",
                def.name,
                worse * 100.0,
                def.bound * 100.0,
                if exact { ", exact" } else { "" },
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
        let counts = (a.attempted, a.failed) == (b.attempted, b.failed);
        steady &= counts && a.correct && b.correct;
        println!(
            "  attempted/failed     A {}/{} B {}/{} {}",
            a.attempted,
            a.failed,
            b.attempted,
            b.failed,
            if counts { "ok" } else { "DIFFER" }
        );
    }
    println!(
        "# repeat: {}",
        if steady {
            "run B within every bound of run A"
        } else {
            "NOT steady: raise the repeats, not the bounds"
        }
    );
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        assert_eq!(lower.name, "wall_s");
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        let higher = END_TO_END
            .iter()
            .find(|d| d.name == "accuracy_met_share")
            .unwrap();
        assert!((worsening(higher, 1.0, 0.9) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 0.9, 1.0) < 0.0);
    }
}
