//! Choice configuration files, decision trees, and tunable schemas.
//!
//! The PetaBricks compiler and autotuner represent candidate algorithms as
//! *choice configuration files* (§5.2): an assignment of decisions to all
//! available choices. This crate provides that representation:
//!
//! * [`Schema`] — the inventory of tunables extracted from a program by
//!   static analysis (part of the *training information file*, §5.3):
//!   algorithm-choice sites, cutoffs, switches, accuracy variables, and
//!   user-defined parameters.
//! * [`DecisionTree`] — input-size → algorithm decision trees used for
//!   each choice site.
//! * [`Config`] — one candidate algorithm: a value for every tunable,
//!   serializable to/from JSON config files.
//! * [`AccuracyBins`] — the discretized accuracy targets for which the
//!   tuner must produce optimized algorithms (§4.2).
//!
//! # Examples
//!
//! ```
//! use pb_config::{Schema, TunableKind};
//!
//! let mut schema = Schema::new("kmeans");
//! schema.add_choice_site("initial_centroids", 2);
//! schema.add_accuracy_variable("k", 1, 1024);
//! schema.add_accuracy_variable("for_enough_iters", 1, 1_000);
//! let config = schema.default_config();
//! assert_eq!(config.len(), 3);
//! assert!(schema.tunable("k").is_some());
//! # let _ = TunableKind::Switch { num_values: 2 };
//! ```

#![forbid(unsafe_code)]

pub mod bins;
pub mod config;
pub mod schema;
mod tree;
mod value;

pub use bins::AccuracyBins;
pub use config::{Config, ConfigError};
pub use schema::{Schema, Tunable, TunableId, TunableKind};
pub use tree::DecisionTree;
pub use value::Value;
