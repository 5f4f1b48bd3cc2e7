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
//! the work it performs: the cost the autotuner optimizes.
//!
//! # Numeric substrate
//!
//! The paper's benchmarks lean on LAPACK: `DPBSV` (banded Cholesky
//! solve) for the Poisson direct solver (§6.1.5), and the symmetric
//! eigensolver family — QR iteration, bisection, and divide-and-conquer
//! — for SVD-based image compression (§6.1.4). The two PDE benchmarks
//! are built from "one direct, one iterative (Red-Black Successive Over
//! Relaxation), and one recursive (multigrid)" algorithmic building
//! block each. This crate implements those routines from scratch, so
//! the reproduction has no external numeric dependencies and the
//! autotuner faces the same algorithmic menu as in the paper:
//!
//! * [`Matrix`] — row-major dense matrices (outside this crate, only
//!   `Matrix::random_uniform` is callable, to build image inputs).
//! * `banded` — symmetric banded storage and band Cholesky (the `DPBSV`
//!   equivalent).
//! * `cholesky` — the not-positive-definite error, and (in tests) the
//!   dense Cholesky factorization the band solves are checked against.
//! * `tridiag` — Householder reduction of a symmetric matrix to
//!   tridiagonal form.
//! * `eigen_qr` — implicit-shift QL/QR eigensolver for symmetric
//!   tridiagonal matrices (all eigenpairs).
//! * `eigen_bisect` — Sturm-sequence bisection for selected
//!   eigenvalues plus inverse iteration for their eigenvectors.
//! * `eigen_dc` — Cuppen-style divide-and-conquer eigensolver.
//! * `svd` — singular value decomposition (via the symmetric
//!   eigenproblem) and best rank-k approximation.
//! * `grid` — vertex-centered 2-D and 3-D grids with `2^k − 1`
//!   interior points per dimension.
//! * `grid2d`, `grid3d` — coordinate accessors of the 2-D and 3-D
//!   grids.
//! * `multigrid` — the one tuned solver both PDE benchmarks run: the
//!   per-level direct / SOR / recurse choice, the cycles loop, the
//!   per-level tunables and the residual-ratio accuracy, over an
//!   operator trait the Poisson stencil and the Helmholtz problem
//!   implement.
//! * `lines` — line-at-a-time stencil visits that pass the zero
//!   boundary as values, so stencil interiors need no boundary tests.
//! * `poisson2d` — the 5-point Laplacian: operator application,
//!   residuals, Red-Black SOR sweeps, full-weighting restriction,
//!   bilinear prolongation, and a banded-Cholesky direct solve.
//! * `helmholtz3d` — the variable-coefficient operator
//!   `α·a·φ − β·∇·(b·∇φ)` with face-averaged coefficients, Red-Black
//!   SOR over per-point face weights computed once per level, 3D
//!   transfer operators, coefficient coarsening, and a band-Cholesky
//!   direct solve for coarse levels.

#![forbid(unsafe_code)]
// Index loops mirror the paper's pseudocode and the textbook
// formulations of the numeric kernels; iterator rewrites would obscure
// the banded/packed index algebra.
#![allow(clippy::needless_range_loop)]

mod banded;
pub mod binpacking;
mod cholesky;
pub mod clustering;
mod eigen_bisect;
mod eigen_dc;
mod eigen_qr;
mod grid;
mod grid2d;
mod grid3d;
mod helmholtz;
mod helmholtz3d;
pub mod imagecompr;
mod lines;
mod matrix;
mod multigrid;
mod poisson;
mod poisson2d;
mod precond;
mod svd;
#[cfg(test)]
mod test_inputs;
mod tridiag;

pub use binpacking::BinPacking;
pub use clustering::Clustering;
pub use helmholtz::Helmholtz3d;
pub use imagecompr::ImageCompression;
pub use matrix::Matrix;
pub use poisson::Poisson2d;
pub use precond::Preconditioner;
