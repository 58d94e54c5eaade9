//! # blockortho — block orthogonalization kernels for s-step GMRES
//!
//! This crate implements the orthogonalization schemes compared in
//! *"Two-Stage Block Orthogonalization to Improve Performance of s-step
//! GMRES"* (IPDPS 2024) and the sketched variants of its follow-up, all
//! operating on a 1D block-row distributed Krylov basis
//! ([`distsim::DistMultiVector`]) so that the number of global reductions
//! each scheme performs is exactly what the paper counts.
//!
//! Every scheme is a pair: a **first stage** every fresh panel gets, and a
//! **second stage** — none, a second pass over the same panel, or one
//! BCGS-PIP deferred over every `bs` columns (Section V, Fig. 5).  One
//! engine ([`two_stage`]) runs every pair; [`OrthoKind`] names the seven:
//!
//! | kind | first stage | second stage | global reduces per panel |
//! |---|---|---|---|
//! | [`Cgs2`](OrthoKind::Cgs2) (standard GMRES) | column CGS2 | none | 3 per column |
//! | [`Bcgs2CholQr2`](OrthoKind::Bcgs2CholQr2) (original s-step baseline) | BCGS + CholQR2 | per panel: BCGS + CholQR | 5 |
//! | [`BcgsPip`](OrthoKind::BcgsPip) | BCGS-PIP | none | 1 |
//! | [`BcgsPip2`](OrthoKind::BcgsPip2) (the paper's one-stage variant) | BCGS-PIP | per panel: BCGS-PIP, fused with the first | 2 |
//! | [`TwoStage`](OrthoKind::TwoStage) (**the paper's contribution**) | BCGS-PIP | deferred BCGS-PIP every `bs` columns | 1 (+1 per `bs` columns) |
//! | [`RandCholQr`](OrthoKind::RandCholQr) (arXiv 2503.16717) | sketch | per panel: BCGS-PIP | 2 |
//! | [`TwoStageSketched`](OrthoKind::TwoStageSketched) | sketch | deferred BCGS-PIP every `bs` columns | 1 (+1 per `bs` columns) |
//!
//! A kind without a deferred stage refuses a panel it cannot factor, as in
//! the paper: BCGS2 (the block orthogonalization of the original s-step
//! GMRES in Trilinos, Fig. 2) and BCGS-PIP(2) report the Cholesky
//! breakdown, column CGS2 a column of zero norm.  BCGS-PIP forms the Gram
//! matrix of the projected panel through the block Pythagorean identity,
//! so one reduce projects and normalizes; alone it loses orthogonality
//! like `ε·κ²` (bound (6)), and its second pass restores `O(ε)` under
//! condition (5).  On the first panel of a cycle, with nothing to project
//! against, BCGS-PIP2 is CholQR2.
//!
//! For a block of `k` right-hand sides a panel carries `k·s` columns and
//! [`OrthoKind::for_block_width`] keeps the big-panel cadence, so every
//! panel scheme's reduce count per cycle is its `k = 1` count; only the
//! words grow (column CGS2 pays its 3 reduces per column, `3·k` per block
//! step).  [`OrthoKind::reduce_schedule`] lists each reduce with its words,
//! and `tests/comm_volume_validation.rs` at the repository root checks it
//! against measured counters and the paper's closed forms.  The
//! kernels the stages call (CholQR, CholQR2, BCGS, BCGS-PIP, the fused
//! BCGS-PIP2, column-wise CGS2) live in [`kernels`], the sketch in
//! [`sketched`]; the `ssgmres` solver builds a scheme per restart cycle
//! with [`make_orthogonalizer`] and drives it through the
//! [`BlockOrthogonalizer`] trait.
//!
//! ## R-factor convention
//!
//! Every scheme maintains the QR factorization `W = Q·R` of the generated
//! Krylov matrix `W` *in place*: the basis multivector holds `Q` (columns of
//! already-processed panels) and the replicated upper-triangular `R` holds
//! the factors, with `R` indexed by global basis column.  Diagonal blocks of
//! `R` have positive diagonals.

#![forbid(unsafe_code)]

#[cfg(test)]
mod bcgs2;
#[cfg(test)]
mod bcgs_pip2;
#[cfg(test)]
mod cgs;
pub mod error;
pub mod kernels;
pub mod sketched;
pub mod traits;
pub mod two_stage;

pub use error::OrthoError;
pub use kernels::{bcgs, bcgs_pip, cholqr, cholqr2, columnwise_cgs2};
pub use traits::{
    distinct_fallback_episodes, fold_factored, make_orthogonalizer, BlockOrthogonalizer,
    FallbackEvent, FallbackStage, OrthoKind,
};

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
