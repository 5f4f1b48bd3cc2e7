//! Accuracy-aware genetic autotuner (§5 of the paper).
//!
//! The tuner maintains a population of candidate algorithms which it
//! "continually expands using a set of mutators … and prunes in order to
//! allow the population to evolve more optimal algorithms. The input
//! sizes used for testing during this process grow exponentially"
//! (§5.1). Unlike the original PetaBricks tuner, which optimized only
//! execution time, this tuner optimizes the two-dimensional
//! accuracy/time space and stores a discretized optimal frontier — one
//! winning configuration per accuracy bin (§4.2, §5.5.4).
//!
//! Components:
//!
//! * [`MutatorPool`] — the mutator pool generated automatically from a
//!   transform's tunable schema (§5.4): decision-tree manipulation,
//!   log-normal scaling, uniform random, and meta mutators.
//! * [`Candidate`] — a configuration plus its cached per-input-size
//!   timing/accuracy statistics.
//! * [`Population`] — the accuracy-binned pruning procedure (§5.5.4).
//! * [`arena`] — the comparison arena: a session object with a
//!   pair-verdict memo and a generic "pending decisions → batched
//!   draws → merged outcomes" round loop that every comparator
//!   consumer drives, so the adaptive comparator's trial draws batch
//!   onto the pool.
//! * `tournament` — the pruning procedure's fastest-K selections
//!   laid out as arena contests (k-way selection over pre-sorted
//!   runs).
//! * [`Autotuner`] — the top-level loop (Figure 5): test, random mutation,
//!   guided mutation, prune, over exponentially growing input sizes.
//!
//! # Examples
//!
//! ```
//! use pb_config::{AccuracyBins, Schema};
//! use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
//! use pb_tuner::{Autotuner, TunerOptions};
//! use rand::rngs::SmallRng;
//!
//! /// Cost = iters, accuracy = 1 - 1/(1+iters): classic diminishing
//! /// returns; the tuner should pick small iteration counts for loose
//! /// bins and large ones for tight bins.
//! struct Iterate;
//!
//! impl Transform for Iterate {
//!     type Input = ();
//!     type Output = f64;
//!     fn name(&self) -> &str { "iterate" }
//!     fn schema(&self) -> Schema {
//!         let mut s = Schema::new("iterate");
//!         s.add_accuracy_variable("iters", 1, 4096);
//!         s
//!     }
//!     fn generate_input(&self, _n: u64, _rng: &mut SmallRng) {}
//!     fn execute(&self, _input: &(), ctx: &mut pb_runtime::ExecCtx<'_>) -> f64 {
//!         let iters = ctx.param("iters").unwrap() as f64;
//!         ctx.charge(iters);
//!         1.0 - 1.0 / (1.0 + iters)
//!     }
//!     fn accuracy(&self, _input: &(), output: &f64) -> f64 { *output }
//! }
//!
//! let runner = TransformRunner::new(Iterate, CostModel::Virtual);
//! let bins = AccuracyBins::new(vec![0.5, 0.99]);
//! let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(8, 1))
//!     .tune()
//!     .unwrap();
//! let loose = tuned.entry(0).config.int(runner.schema(), "iters").unwrap();
//! let tight = tuned.entry(1).config.int(runner.schema(), "iters").unwrap();
//! assert!(tight > loose);
//! # let _ = ExecCtx::new(runner.schema(), &tuned.entry(0).config, 1, 0);
//! ```

pub mod arena;
mod candidate;
mod exec;
mod mutators;
mod population;
mod tournament;
mod tuner;

pub use arena::{Arena, ArenaReport, Contest, PairContest};
pub use candidate::{Candidate, SizeStats};
pub use exec::{config_fingerprint, EvalMode, Evaluator, TrialRequest};
pub use mutators::{MutationRecord, Mutator, MutatorPool};
pub use population::Population;
pub use tournament::PruneReport;
pub use tuner::{Autotuner, TunerError, TunerOptions, TunerStats, TuningOutcome};
