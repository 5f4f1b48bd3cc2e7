//! Where and under which knobs a run executed: the six `PB_*`
//! variables as the crates resolved them, the machine's width and
//! load, and the process's peak memory.

use crate::json::{int, num, obj, text, Value};
use pb_runtime::Pool;

/// Variables that change what is measured; a timed run refuses to
/// start when one is set.
const FORBIDDEN: [&str; 3] = ["PB_VERIFY", "PB_PROFILE_SAMPLE", "PB_TRACE_RING"];

/// Refuses to measure under a knob that changes what is measured.
///
/// # Errors
///
/// Names the offending variable.
pub fn check_knobs() -> Result<(), String> {
    match FORBIDDEN
        .iter()
        .find(|name| std::env::var_os(name).is_some())
    {
        Some(name) => Err(format!(
            "{name} is set: it changes what the ledger measures; unset it for a timed run"
        )),
        None => Ok(()),
    }
}

fn raw(name: &str) -> Value {
    match std::env::var(name) {
        Ok(v) => text(v),
        Err(_) => text("unset"),
    }
}

/// The resolved values of all six `PB_*` variables.
pub fn knobs() -> Value {
    let pool = Pool::global();
    obj([
        ("PB_POOL_THREADS", int(pool.threads() as u64)),
        ("PB_POOL_SHARDS", int(pool.shards() as u64)),
        ("PB_QUIET", Value::Bool(pb_runtime::diag::quiet())),
        ("PB_VERIFY", Value::Bool(pb_lang::opt::verify_enabled())),
        ("PB_PROFILE_SAMPLE", raw("PB_PROFILE_SAMPLE")),
        ("PB_TRACE_RING", raw("PB_TRACE_RING")),
    ])
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The 1-minute load average, or 0 where `/proc` has none.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0
/// where `/proc` has none.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Everything above as one JSON object, for per-run outputs and the
/// history file.
pub fn provenance(load_at_start: f64) -> Value {
    obj([
        ("nproc", int(nproc() as u64)),
        ("load_1min_at_start", num(load_at_start)),
        ("knobs", knobs()),
    ])
}
