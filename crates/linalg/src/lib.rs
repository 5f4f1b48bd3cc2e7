//! Dense and banded linear algebra substrate.
//!
//! The paper's benchmarks lean on LAPACK: `DPBSV` (banded Cholesky
//! solve) for the Poisson direct solver (§6.1.5), and the symmetric
//! eigensolver family — QR iteration, bisection, and divide-and-conquer
//! — for SVD-based image compression (§6.1.4). This crate reimplements
//! those routines from scratch so the reproduction has no external
//! numeric dependencies and the autotuner faces the same algorithmic
//! menu as in the paper:
//!
//! * [`Matrix`] — row-major dense matrices with the usual operations.
//! * [`cholesky`] — dense Cholesky factorization/solve for SPD systems.
//! * [`banded`] — symmetric banded storage and band Cholesky (the
//!   `DPBSV` equivalent).
//! * `tridiag` — Householder reduction of a symmetric matrix to
//!   tridiagonal form.
//! * `eigen_qr` — implicit-shift QL/QR eigensolver for symmetric
//!   tridiagonal matrices (all eigenpairs).
//! * `eigen_bisect` — Sturm-sequence bisection for selected
//!   eigenvalues plus inverse iteration for their eigenvectors.
//! * `eigen_dc` — Cuppen-style divide-and-conquer eigensolver.
//! * [`svd`] — singular value decomposition (via the symmetric
//!   eigenproblem) and best rank-k approximation.

// Index loops mirror the textbook formulations of these kernels;
// iterator rewrites would obscure the banded/packed index algebra.
#![allow(clippy::needless_range_loop)]

pub mod banded;
pub mod cholesky;
mod eigen_bisect;
mod eigen_dc;
mod eigen_qr;
mod matrix;
pub mod svd;
#[cfg(test)]
mod test_inputs;
mod tridiag;

pub use banded::SymmetricBanded;
pub use eigen_qr::SymmetricEigen;
pub use matrix::Matrix;
pub use svd::Svd;
pub use tridiag::SymmetricTridiagonal;
