//! Trace inspection: validates and summarizes a Chrome trace-event
//! file emitted by `tuner_throughput --trace` (the `pb_trace` Chrome
//! exporter).
//!
//! Validation (the CI gate): the file must parse as a trace-event
//! JSON object, every event must carry finite non-negative
//! timestamps, and the event list must be sorted by start time — the
//! exporter's contract, and what Perfetto expects.
//!
//! Summaries: per-phase pool batch deltas, top-N hottest VM chunks
//! (by instructions retired, with fused- and specialized-opcode
//! shares — the latter is the share of retired ops running in the
//! `O3` typed-specialization forms, i.e. how much of the chunk's work
//! the facts actually covered), pool utilization per worker thread,
//! and the arena round-width histogram.
//!
//! Usage: `tuner_trace <trace.json> [--top N] [--require-phases]
//! [--require-chunks]`
//!
//! `--require-phases` fails unless the trace carries per-phase pool
//! deltas (a tuning-run trace); `--require-chunks` fails unless it
//! carries a VM chunk profile (a trace recorded with VM profiling on).
//!
//! Diff mode: `tuner_trace diff <a.json> <b.json> [--top N]` compares
//! two trace summaries — per-phase wall time / dispatch deltas and
//! per-chunk instruction deltas, sorted by where the time (or work)
//! moved — so a perf regression can be localized to a tuning phase or
//! a VM chunk without opening either trace in a viewer.

use pb_lang::{opcode_is_fused, opcode_is_specialized, OPCODE_NAMES};
use pb_trace::{ChromeEvent, ChromeTrace};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tuner_trace: {msg}");
    ExitCode::FAILURE
}

/// The exporter's structural contract, checked event by event.
fn validate(events: &[ChromeEvent]) -> Result<(), String> {
    let mut prev_ts = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        if e.ph != "X" && e.ph != "i" {
            return Err(format!(
                "event {i} ({}): unknown phase type {:?}",
                e.name, e.ph
            ));
        }
        if !e.ts.is_finite() || e.ts < 0.0 {
            return Err(format!("event {i} ({}): bad timestamp {}", e.name, e.ts));
        }
        if !e.dur.is_finite() || e.dur < 0.0 {
            return Err(format!("event {i} ({}): bad duration {}", e.name, e.dur));
        }
        if e.ts < prev_ts {
            return Err(format!(
                "event {i} ({}): timestamps not monotonic ({} after {})",
                e.name, e.ts, prev_ts
            ));
        }
        prev_ts = e.ts;
    }
    Ok(())
}

/// Reads, parses, and structurally validates one trace file.
fn load(path: &str) -> Result<ChromeTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace: ChromeTrace = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a valid Chrome trace: {e:?}"))?;
    validate(&trace.traceEvents).map_err(|msg| format!("{path}: {msg}"))?;
    Ok(trace)
}

/// `diff a b`: where did the wall time (and the VM work) move?
fn diff(path_a: &str, path_b: &str, top: usize) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    println!("# diff {path_a} -> {path_b}");

    // Per-phase movement: union of phase names, sorted by absolute
    // wall-time delta so the biggest mover tops the report.
    let index = |t: &ChromeTrace| -> BTreeMap<String, pb_trace::PhaseDelta> {
        t.otherData
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.clone()))
            .collect()
    };
    let (pa, pb) = (index(&a), index(&b));
    if pa.is_empty() && pb.is_empty() {
        println!("\n(no per-phase pool deltas in either trace)");
    } else {
        let mut names: Vec<&String> = pa.keys().chain(pb.keys()).collect();
        names.sort();
        names.dedup();
        let mut rows: Vec<(&str, pb_trace::PhaseDelta, pb_trace::PhaseDelta)> = names
            .into_iter()
            .map(|name| {
                let da = pa.get(name).cloned().unwrap_or_default();
                let db = pb.get(name).cloned().unwrap_or_default();
                (name.as_str(), da, db)
            })
            .collect();
        rows.sort_by_key(|(_, da, db)| std::cmp::Reverse(da.wall_ns.abs_diff(db.wall_ns)));
        let (total_a, total_b): (u64, u64) = rows.iter().fold((0, 0), |(x, y), (_, da, db)| {
            (x + da.wall_ns, y + db.wall_ns)
        });
        println!(
            "\n## per-phase wall time ({:.2} ms -> {:.2} ms, {:+.2} ms)",
            total_a as f64 / 1e6,
            total_b as f64 / 1e6,
            (total_b as f64 - total_a as f64) / 1e6
        );
        println!(
            "{:>14} {:>10} {:>10} {:>10} {:>8} {:>10} {:>9}",
            "phase", "a ms", "b ms", "delta ms", "spans", "dispatched", "tasks"
        );
        for (name, da, db) in &rows {
            println!(
                "{:>14} {:>10.2} {:>10.2} {:>+10.2} {:>+8} {:>+10} {:>+9}",
                name,
                da.wall_ns as f64 / 1e6,
                db.wall_ns as f64 / 1e6,
                (db.wall_ns as f64 - da.wall_ns as f64) / 1e6,
                db.count as i64 - da.count as i64,
                db.dispatched as i64 - da.dispatched as i64,
                db.tasks as i64 - da.tasks as i64
            );
        }
    }

    // Per-chunk movement by instructions retired. Each chunk maps to
    // its `(executions, instructions)` pair per trace.
    type ExecInstr = (u64, u64);
    let chunk_index = |t: &ChromeTrace| -> BTreeMap<String, ExecInstr> {
        t.otherData
            .chunks
            .iter()
            .map(|c| (c.label.clone(), (c.executions, c.instructions())))
            .collect()
    };
    let (ca, cb) = (chunk_index(&a), chunk_index(&b));
    if ca.is_empty() && cb.is_empty() {
        println!("\n(no VM chunk profile in either trace)");
    } else {
        let mut labels: Vec<&String> = ca.keys().chain(cb.keys()).collect();
        labels.sort();
        labels.dedup();
        let mut rows: Vec<(&str, ExecInstr, ExecInstr)> = labels
            .into_iter()
            .map(|l| {
                (
                    l.as_str(),
                    ca.get(l).copied().unwrap_or_default(),
                    cb.get(l).copied().unwrap_or_default(),
                )
            })
            .collect();
        rows.sort_by_key(|&(_, (_, ia), (_, ib))| std::cmp::Reverse(ia.abs_diff(ib)));
        println!("\n## per-chunk instructions (top {top} movers)");
        println!(
            "{:>24} {:>14} {:>14} {:>14} {:>10}",
            "chunk", "a instr", "b instr", "delta", "exec delta"
        );
        for (label, (ea, ia), (eb, ib)) in rows.iter().take(top) {
            println!(
                "{:>24} {:>14} {:>14} {:>+14} {:>+10}",
                label,
                ia,
                ib,
                *ib as i64 - *ia as i64,
                *eb as i64 - *ea as i64
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut free = Vec::new();
    let mut top = 10usize;
    let mut require_phases = false;
    let mut require_chunks = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return fail("--top requires a number"),
            },
            "--require-phases" => require_phases = true,
            "--require-chunks" => require_chunks = true,
            other => free.push(other.to_string()),
        }
    }
    if free.first().map(String::as_str) == Some("diff") {
        return match &free[1..] {
            [a, b] => diff(a, b, top),
            _ => fail("usage: tuner_trace diff <a.json> <b.json> [--top N]"),
        };
    }
    let path = match &free[..] {
        [p] => p.clone(),
        _ => {
            return fail(
                "usage: tuner_trace <trace.json> [--top N] [--require-phases] [--require-chunks]\n       tuner_trace diff <a.json> <b.json> [--top N]",
            )
        }
    };

    let trace = match load(&path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let meta = &trace.otherData;
    if require_phases && meta.phases.is_empty() {
        return fail(&format!("{path}: no per-phase pool deltas recorded"));
    }
    if require_chunks && meta.chunks.is_empty() {
        return fail(&format!("{path}: no VM chunk profile recorded"));
    }

    println!(
        "# {path}: {} events, {} dropped, {} profiled chunks — valid",
        trace.traceEvents.len(),
        meta.dropped,
        meta.chunks.len()
    );

    // Per-phase pool batch deltas (aggregated by the exporter).
    if !meta.phases.is_empty() {
        println!("\n## per-phase pool batch deltas");
        println!(
            "{:>14} {:>7} {:>10} {:>10} {:>8} {:>9} {:>9}",
            "phase", "spans", "wall ms", "dispatched", "inline", "tasks", "max batch"
        );
        for p in &meta.phases {
            println!(
                "{:>14} {:>7} {:>10.2} {:>10} {:>8} {:>9} {:>9}",
                p.phase,
                p.count,
                p.wall_ns as f64 / 1e6,
                p.dispatched,
                p.inline,
                p.tasks,
                p.max_batch
            );
        }
    }

    // Hottest chunks by instructions retired.
    if !meta.chunks.is_empty() {
        let mut chunks = meta.chunks.clone();
        chunks.sort_by(|a, b| {
            b.instructions()
                .cmp(&a.instructions())
                .then_with(|| a.label.cmp(&b.label))
        });
        println!("\n## hottest chunks (top {top})");
        println!(
            "{:>24} {:>12} {:>14} {:>12} {:>8} {:>8}  top opcodes",
            "chunk", "executions", "instructions", "instr/exec", "fused", "spec"
        );
        for c in chunks.iter().take(top) {
            let instr = c.instructions();
            let fused: u64 = c
                .opcodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| opcode_is_fused(i))
                .map(|(_, &n)| n)
                .sum();
            let spec: u64 = c
                .opcodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| opcode_is_specialized(i))
                .map(|(_, &n)| n)
                .sum();
            let mut by_count: Vec<(usize, u64)> = c
                .opcodes
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, n)| n > 0)
                .collect();
            by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let names: Vec<String> = by_count
                .iter()
                .take(3)
                .map(|&(i, n)| {
                    let name = OPCODE_NAMES.get(i).copied().unwrap_or("?");
                    format!("{name}:{n}")
                })
                .collect();
            println!(
                "{:>24} {:>12} {:>14} {:>12.1} {:>7.1}% {:>7.1}%  {}",
                c.label,
                c.executions,
                instr,
                if c.executions > 0 {
                    instr as f64 / c.executions as f64
                } else {
                    0.0
                },
                if instr > 0 {
                    100.0 * fused as f64 / instr as f64
                } else {
                    0.0
                },
                if instr > 0 {
                    100.0 * spec as f64 / instr as f64
                } else {
                    0.0
                },
                names.join(" ")
            );
        }
    }

    // Pool utilization: per-thread busy time from executed job spans.
    let jobs: Vec<&ChromeEvent> = trace
        .traceEvents
        .iter()
        .filter(|e| e.name == "pool_job")
        .collect();
    if !jobs.is_empty() {
        let span_start = trace
            .traceEvents
            .iter()
            .map(|e| e.ts)
            .fold(f64::INFINITY, f64::min);
        let span_end = trace
            .traceEvents
            .iter()
            .map(|e| e.ts + e.dur)
            .fold(0.0f64, f64::max);
        let span = (span_end - span_start).max(1e-9);
        let mut per_tid: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
        for j in &jobs {
            let slot = per_tid.entry(j.tid).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += j.dur;
        }
        println!(
            "\n## pool utilization ({} jobs, {:.1} ms trace span)",
            jobs.len(),
            span / 1e3
        );
        println!(
            "{:>8} {:>8} {:>10} {:>6}",
            "thread", "jobs", "busy ms", "util"
        );
        for (tid, (count, busy)) in &per_tid {
            println!(
                "{:>8} {:>8} {:>10.2} {:>5.1}%",
                tid,
                count,
                busy / 1e3,
                100.0 * busy / span
            );
        }
    }

    // Arena round widths (planned draws per batched round).
    let widths: Vec<u64> = trace
        .traceEvents
        .iter()
        .filter(|e| e.name == "arena_round")
        .map(|e| e.args.a)
        .collect();
    if !widths.is_empty() {
        let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
        for &w in &widths {
            // Power-of-two buckets: 1, 2-3, 4-7, 8-15, …
            buckets
                .entry(u64::BITS - w.max(1).leading_zeros())
                .and_modify(|n| *n += 1)
                .or_insert(1);
        }
        let total: u64 = widths.iter().sum();
        println!(
            "\n## arena round widths ({} rounds, {} draws, mean {:.2})",
            widths.len(),
            total,
            total as f64 / widths.len() as f64
        );
        for (bucket, count) in &buckets {
            let lo = 1u64 << (bucket - 1);
            let hi = (1u64 << bucket) - 1;
            let label = if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            };
            println!("{label:>10} draws: {count:>6} rounds");
        }
    }

    ExitCode::SUCCESS
}
