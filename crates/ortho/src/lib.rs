//! # blockortho — block orthogonalization kernels for s-step GMRES
//!
//! This crate implements the orthogonalization schemes compared in
//! *"Two-Stage Block Orthogonalization to Improve Performance of s-step
//! GMRES"* (IPDPS 2024) and the sketched variants of its follow-up, all
//! operating on a 1D block-row distributed Krylov basis
//! ([`distsim::DistMultiVector`]) so that the number of global reductions
//! each scheme performs is exactly what the paper counts:
//!
//! | scheme | global reduces per `s` steps | module |
//! |---|---|---|
//! | BCGS2 with CholQR2 (original s-step baseline) | 5 | [`bcgs2`] |
//! | BCGS-PIP2 (the paper's new one-stage variant) | 2 | [`bcgs_pip2`] |
//! | **Two-stage** (the paper's contribution) | 1 (+1 per `bs` steps) | [`two_stage`] |
//! | column-wise CGS2 (standard GMRES) | 3 per step | [`cgs`] |
//! | Randomized CholQR (sketched, arXiv 2503.16717) | 2 | [`sketched`] |
//! | Two-stage with sketched first stage | 1 (+1 per `bs` steps) | [`two_stage`] |
//!
//! The low-level building blocks (CholQR, CholQR2, BCGS, BCGS-PIP,
//! column-wise CGS2) live in [`kernels`]; each higher-level scheme
//! implements the [`BlockOrthogonalizer`] trait so the `ssgmres`
//! solver can switch between them with a configuration enum
//! ([`OrthoKind`]).
//!
//! ## R-factor convention
//!
//! Every scheme maintains the QR factorization `W = Q·R` of the generated
//! Krylov matrix `W` *in place*: the basis multivector holds `Q` (columns of
//! already-processed panels) and the replicated upper-triangular `R` holds
//! the factors, with `R` indexed by global basis column.  Diagonal blocks of
//! `R` have positive diagonals.

#![forbid(unsafe_code)]

pub mod bcgs2;
pub mod bcgs_pip2;
pub mod cgs;
pub mod error;
pub mod kernels;
pub mod sketched;
pub mod traits;
pub mod two_stage;

pub use bcgs2::Bcgs2;
pub use bcgs_pip2::{BcgsPip, BcgsPip2};
pub use cgs::Cgs2Columnwise;
pub use error::OrthoError;
pub use kernels::{bcgs, bcgs_pip, cholqr, cholqr2, columnwise_cgs2};
pub use sketched::RandCholQr;
pub use traits::{
    distinct_fallback_episodes, fold_factored, make_orthogonalizer, BlockOrthogonalizer,
    FallbackEvent, FallbackStage, OrthoKind,
};
pub use two_stage::{FirstStage, TwoStage};

/// Feed an owned dense matrix through `scheme` on a serial communicator,
/// returning `(Q, R)`.
///
/// The matrix is processed panel by panel with `panel_cols` columns per
/// panel (the last one may be narrower), then [`finish`]ed — how the s-step
/// solver feeds its orthogonalizer.  Takes the scheme by reference so the
/// caller can read its fallback events afterwards.
///
/// [`finish`]: BlockOrthogonalizer::finish
pub fn orthogonalize_with(
    scheme: &mut dyn BlockOrthogonalizer,
    matrix: &dense::Matrix,
    panel_cols: usize,
) -> Result<(dense::Matrix, dense::Matrix), OrthoError> {
    use distsim::{DistMultiVector, SerialComm};
    let ncols = matrix.ncols();
    assert!(panel_cols >= 1, "panel width must be at least 1");
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), matrix.clone());
    let mut r = dense::Matrix::zeros(ncols, ncols);
    let mut start = 0usize;
    while start < ncols {
        let end = (start + panel_cols).min(ncols);
        scheme.orthogonalize_panel(&mut basis, start..end, &mut r)?;
        start = end;
    }
    scheme.finish(&mut basis, &mut r)?;
    Ok((basis.local().clone(), r))
}

/// [`orthogonalize_with`] a freshly built scheme of the given kind.  Used
/// by the numerical-study binaries (Figs. 6–8) and by tests.
pub fn orthogonalize_matrix(
    kind: OrthoKind,
    matrix: &dense::Matrix,
    panel_cols: usize,
) -> Result<(dense::Matrix, dense::Matrix), OrthoError> {
    let mut scheme = make_orthogonalizer(kind, matrix.ncols());
    orthogonalize_with(scheme.as_mut(), matrix, panel_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::Matrix;

    #[test]
    fn orthogonalize_matrix_runs_every_scheme() {
        let v = Matrix::from_fn(300, 9, |i, j| {
            ((i * 7 + j * 13) % 23) as f64 * 0.1 + if i == j { 3.0 } else { 0.0 }
        });
        for kind in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 6 },
            OrthoKind::Cgs2,
            OrthoKind::RandCholQr,
            OrthoKind::TwoStageSketched { big_panel: 6 },
        ] {
            let (q, r) = orthogonalize_matrix(kind, &v, 3).unwrap();
            let err = dense::orthogonality_error(&q.view());
            assert!(err < 1e-12, "{kind:?}: orthogonality error {err}");
            let back = dense::gemm_nn(&q, &r);
            for j in 0..9 {
                for i in 0..300 {
                    assert!(
                        (back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs(),
                        "{kind:?}: QR does not reconstruct V at ({i},{j})"
                    );
                }
            }
        }
    }
}
