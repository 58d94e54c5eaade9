//! # two-stage-gmres — reproduction of "Two-Stage Block Orthogonalization to
//! Improve Performance of s-step GMRES" (IPDPS 2024)
//!
//! This facade crate re-exports the workspace so downstream users can depend
//! on a single crate:
//!
//! * [`parkit`] — data-parallel primitives;
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
pub use parkit;
pub use sparse;
pub use ssgmres;
pub use testmat;
pub use trace;

/// Solve `A·x = b` with the paper's recommended configuration
/// (s-step GMRES, `s = 5`, restart 60, two-stage orthogonalization with
/// `bs = m`), returning the solution and solve statistics.
pub fn solve_two_stage(a: &sparse::Csr, b: &[f64], tol: f64) -> (Vec<f64>, ssgmres::SolveResult) {
    let config = ssgmres::GmresConfig {
        restart: 60,
        step_size: 5,
        tol,
        ortho: ssgmres::OrthoKind::TwoStage { big_panel: 60 },
        ..ssgmres::GmresConfig::default()
    };
    ssgmres::SStepGmres::new(config).solve_serial(a, b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_solves_a_small_system() {
        let a = sparse::laplace2d_5pt(20, 20);
        let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
        let (x, result) = crate::solve_two_stage(&a, &b, 1e-8);
        assert!(result.converged);
        assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-5));
    }
}
