//! 2D/3D multigrid substrate with tunable building blocks.
//!
//! The paper's two PDE benchmarks — the 2D Poisson solver (§6.1.5) and
//! the 3D variable-coefficient Helmholtz solver (§6.1.3) — are built
//! from "one direct, one iterative (Red-Black Successive Over
//! Relaxation), and one recursive (multigrid)" algorithmic building
//! block each. This crate supplies those blocks:
//!
//! * [`Grid2d`] / [`Grid3d`] — simple vertex-centered grids with
//!   `2^k − 1` interior points per dimension.
//! * [`poisson2d`] — the 5-point Laplacian: operator application,
//!   residuals, Red-Black SOR sweeps, full-weighting restriction,
//!   bilinear prolongation, and a banded-Cholesky direct solve.
//! * [`helmholtz3d`] — the variable-coefficient operator
//!   `α·a·φ − β·∇·(b·∇φ)` with face-averaged coefficients, Red-Black
//!   SOR, 3D transfer operators, coefficient coarsening, and a dense
//!   direct solve for coarse levels.

mod grid2d;
mod grid3d;
pub mod helmholtz3d;
pub mod poisson2d;

pub use grid2d::Grid2d;
pub use grid3d::Grid3d;
pub use helmholtz3d::HelmholtzProblem;
