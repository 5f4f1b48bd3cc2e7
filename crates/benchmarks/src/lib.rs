//! The six variable-accuracy benchmarks from §6.1 of the paper,
//! implemented as [`pb_runtime::Transform`]s.
//!
//! | benchmark | paper section | accuracy metric |
//! |-----------|--------------|-----------------|
//! | [`binpacking`] | §6.1.1 | `2 − bins/OPT` (so larger = tighter packing) |
//! | [`clustering`] | §6.1.2 | `√(2n / Σ Dᵢ²)` |
//! | [`Helmholtz3d`] | §6.1.3 | `log₁₀` RMS residual-reduction ratio |
//! | [`imagecompr`] | §6.1.4 | `log₁₀` RMS reconstruction-error ratio |
//! | [`Poisson2d`] | §6.1.5 | `log₁₀` RMS residual-reduction ratio |
//! | [`Preconditioner`] | §6.1.6 | `log₁₀` RMS residual-reduction ratio |
//!
//! Every transform charges a deterministic virtual cost proportional to
//! the work it performs, so the autotuner can run in the reproducible
//! [`pb_runtime::CostModel::Virtual`] mode; wall-clock tuning works
//! unchanged.

// Index loops mirror the paper's pseudocode for these kernels.
#![allow(clippy::needless_range_loop)]

pub mod binpacking;
pub mod clustering;
mod helmholtz;
pub mod imagecompr;
mod poisson;
mod precond;

pub use binpacking::BinPacking;
pub use clustering::Clustering;
pub use helmholtz::Helmholtz3d;
pub use imagecompr::ImageCompression;
pub use poisson::Poisson2d;
pub use precond::Preconditioner;
