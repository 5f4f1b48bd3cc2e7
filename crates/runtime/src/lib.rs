//! Runtime for executing tuned variable-accuracy transforms.
//!
//! The paper's compiler emits code whose algorithmic choices, cutoffs and
//! accuracy variables are resolved at run time against a *choice
//! configuration file* (§5.2). This crate is the Rust equivalent of that
//! generated-code runtime:
//!
//! * [`Transform`] — the interface a variable-accuracy transform exposes
//!   to the autotuner: a tunable [`pb_config::Schema`], an input
//!   generator for training, an execution entry point, and an
//!   `accuracy_metric` (§3.2).
//! * [`ExecCtx`] — the execution context handed to a running transform.
//!   It resolves choice sites through decision trees, reads accuracy
//!   variables, implements `for_enough` loops, accumulates the
//!   deterministic *virtual cost* the tuner optimizes, and records
//!   an execution trace (used to draw the multigrid cycle shapes of
//!   Fig. 8).
//! * [`TunedProgram`] — the result of training: one configuration per
//!   accuracy bin, with runtime lookup of "the correct bin that will
//!   obtain a requested accuracy" (§4.2).
//! * [`guarantee`] — statistical, runtime-checked (`verify_accuracy`),
//!   and domain-specific accuracy guarantees (§3.3).
//! * [`pool`] / [`parallel`] — the persistent thread pool (one shared
//!   job queue) and the tunable-cutoff data-parallel helpers built on
//!   it (§5.2). `pool.rs` is the crate's one module with `unsafe` code.

mod ctx;
pub mod diag;
pub mod guarantee;
pub mod parallel;
pub mod pool;
pub mod transform;
mod tuned;

pub use ctx::{ExecCtx, TraceNode};
pub use guarantee::{GuaranteeError, VerifiedRun};
pub use pool::{Pool, PoolBatchStats};
pub use transform::{
    CostModel, SharedInput, Transform, TransformRunner, TrialOutcome, TrialRunner,
};
pub use tuned::{TunedEntry, TunedProgram};
