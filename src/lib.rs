//! # two-stage-gmres — reproduction of "Two-Stage Block Orthogonalization to
//! Improve Performance of s-step GMRES" (IPDPS 2024)
//!
//! This facade crate re-exports the workspace so downstream users can depend
//! on a single crate:
//!
//! * [`dense`] — the dense linear-algebra kernels (GEMM, TRSM, Cholesky,
//!   Householder QR, Jacobi eigensolver);
//! * [`sparse`] — CSR matrices, SpMV, model problems, Matrix Market I/O;
//! * [`distsim`] — the simulated distributed-memory substrate;
//! * [`blockortho`] — every block orthogonalization scheme of the paper,
//!   including the two-stage algorithm, and each scheme's all-reduce
//!   schedule (`OrthoKind::reduce_schedule`);
//! * [`ssgmres`] — the standard / s-step GMRES solver with pluggable
//!   orthogonalization and preconditioning;
//! * [`testmat`] — the synthetic matrices of the numerical study.
//!
//! See the `examples/` directory for runnable entry points and the `bench`
//! crate for the per-table/figure experiment harness.

#![forbid(unsafe_code)]

pub use blockortho;
pub use dense;
pub use distsim;
pub use sparse;
pub use ssgmres;
pub use testmat;
pub use trace;
