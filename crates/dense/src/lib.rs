//! # dense — column-major dense linear algebra kernels
//!
//! The BLAS/LAPACK subset required by the block-orthogonalization schemes of
//! the paper *"Two-Stage Block Orthogonalization to Improve Performance of
//! s-step GMRES"* (IPDPS 2024), implemented from scratch:
//!
//! * a column-major [`Matrix`] type with cheap column-block views
//!   ([`MatView`], [`MatViewMut`]) — the natural layout for the tall-skinny
//!   "multivector" panels `V_j ∈ R^{n×(s+1)}` the solver manipulates;
//! * level-1 kernels (dot, nrm2, axpy, scal) in [`blas1`];
//! * the level-3 kernels the orthogonalization needs (`Gram = VᵀV`,
//!   `C = AᵀB`, the block vector update `V ← V − Q·R`, the triangular
//!   normalization `Q ← V·R⁻¹`, and the fused update+Gram of the two-sync
//!   schemes) in [`blas3`] — row-panel blocked and register-tiled, with
//!   the pre-blocking `naive_*` formulations retained as benchmark baselines
//!   and property-test oracles;
//! * Cholesky factorization (plain and shifted) in [`chol`];
//! * Householder QR for tall-skinny panels in [`qr`];
//! * a cyclic Jacobi symmetric eigenvalue solver in [`eig`]
//!   ([`sym_eigvals`], eigenvalues only) used to measure condition numbers
//!   and orthogonality errors exactly as the paper's MATLAB experiments do,
//!   plus a double-shift QR eigensolver for the real Hessenberg matrices
//!   the Newton-shift harvester extracts Ritz values from;
//! * small upper-triangular utilities in [`tri`] and Givens/least-squares
//!   helpers for the Hessenberg solve in [`lsq`].
//!
//! Everything is `f64`; the mixed-precision (double-double) Gram
//! accumulation lives in the `blockortho` crate where it is used.

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blas1;
pub mod blas3;
pub mod chol;
pub mod eig;
pub mod lsq;
pub mod matrix;
pub mod measure;
pub mod qr;
pub mod simd;
pub mod svd;
pub mod tri;

pub use blas1::{axpy, dot, nrm2, scal};
pub use blas3::{
    fused_update_proj_gram, gemm_nn, gemm_nn_minus, gemm_nn_plus, gemm_tn, gram,
    naive_gemm_nn_minus, naive_gemm_tn, naive_gram, naive_trsm_right_upper, trsm_right_upper,
    ROW_BLOCK, TILE,
};
pub use chol::{cholesky_upper, shifted_cholesky_upper, CholeskyError};
pub use eig::{hessenberg_eigvals, sym_eigvals, HessEigError};
pub use lsq::{band_hessenberg_lsq, givens_rotation, hessenberg_lsq};
pub use matrix::{MatView, MatViewMut, Matrix};
pub use measure::{
    cond_2, frobenius_norm, orthogonality_error, singular_values, spectral_norm_sym,
};
pub use qr::householder_qr;
pub use simd::{set_simd_override, simd_label, simd_level, SimdLevel};
pub use svd::svdvals_jacobi;
pub use tri::{tri_matmul_upper, tri_solve_upper, tri_solve_upper_transpose};
