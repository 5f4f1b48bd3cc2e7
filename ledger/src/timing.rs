//! A timing decorator around the [`TrialRunner`] handed to the tuner
//! (the same shape as `pb_faults::FaultyRunner`): the only way to see,
//! from outside the crates, how much of a tuning run is spent inside
//! trials and how much is the tuner's own.

use pb_config::{Config, Schema};
use pb_runtime::{TraceNode, TrialOutcome, TrialRunner};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts trial executions and sums their wall time across threads.
pub struct TimedRunner<'r> {
    inner: &'r dyn TrialRunner,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

/// What a [`TimedRunner`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialTime {
    /// Trial executions.
    pub calls: u64,
    /// Summed wall time inside trials, all threads.
    pub busy_ns: u64,
}

impl<'r> TimedRunner<'r> {
    /// Wraps `inner`.
    pub fn new(inner: &'r dyn TrialRunner) -> Self {
        TimedRunner {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The totals so far.
    pub fn seen(&self) -> TrialTime {
        // Relaxed: plain statistics, read after the tuning run returned.
        TrialTime {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl TrialRunner for TimedRunner<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        self.timed(|| self.inner.run_trial(config, n, seed))
    }

    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        self.timed(|| self.inner.run_traced(config, n, seed))
    }
}
