//! Reproduction of *Language and Compiler Support for Auto-Tuning
//! Variable-Accuracy Algorithms* (Ansel et al., CGO 2011).
//!
//! This facade crate re-exports the workspace's components under one
//! roof, mirroring how the original PetaBricks distribution bundled the
//! language front-end, compiler analyses, autotuner, runtime, and
//! benchmark suite:
//!
//! * [`lang`] — PetaBricks-style language front-end with the
//!   variable-accuracy extensions (§2–3): lexer, parser, semantic
//!   analysis, choice dependency graph, training-info extraction, and an
//!   interpreter.
//! * [`config`] — choice configuration files, decision trees, accuracy
//!   bins (§4.2, §5.2).
//! * [`stats`] — the statistics engine behind adaptive candidate testing
//!   (§5.5.1).
//! * [`tuner`] — the accuracy-aware genetic autotuner (§5).
//! * [`runtime`] — execution of tuned transforms, accuracy guarantees
//!   (§3.3).
//! * [`trace`] — zero-perturbation tuner phase spans and VM chunk
//!   profiles, read in-process through `collect()`.
//! * [`benchmarks`] — the six-benchmark suite from §6.1, with the
//!   numeric substrates it needs (the paper used LAPACK; the benchmark
//!   crate implements the routines from scratch).
//!
//! # Quickstart
//!
//! ```
//! use petabricks::benchmarks::clustering::Clustering;
//! use petabricks::config::AccuracyBins;
//! use petabricks::runtime::{CostModel, TransformRunner};
//! use petabricks::tuner::{Autotuner, TunerOptions};
//!
//! let runner = TransformRunner::new(Clustering::default(), CostModel::Virtual);
//! let bins = AccuracyBins::new(vec![0.2, 0.5]);
//! let options = TunerOptions::fast_preset(64, 42);
//! let tuned = Autotuner::new(&runner, bins, options).tune().unwrap();
//! assert_eq!(tuned.entries().len(), 2);
//! ```

#![forbid(unsafe_code)]

pub use pb_benchmarks as benchmarks;
pub use pb_config as config;
pub use pb_lang as lang;
pub use pb_runtime as runtime;
pub use pb_stats as stats;
pub use pb_trace as trace;
pub use pb_tuner as tuner;
