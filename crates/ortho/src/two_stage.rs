//! The two-stage block orthogonalization scheme (Section V, Fig. 5).
//!
//! The first stage runs once per panel of `s` freshly generated Krylov
//! vectors: a single BCGS-PIP against *all* stored columns — the fully
//! orthogonalized previous big panels `Q_{1:ℓ-1}` and the merely
//! pre-processed panels `Q̂_{ℓ:j-1}` of the current big panel.  Its job is
//! not full orthogonality but keeping the accumulated basis well
//! conditioned, so that the matrix-powers kernel can keep extending it.
//! **1 global reduce per panel.**
//!
//! The second stage runs once per *big panel* of `bs` columns
//! (`s ≤ bs ≤ m`): one BCGS-PIP of the whole pre-processed big panel against
//! the fully orthogonalized prefix, followed by the R-factor update of
//! Fig. 5 lines 18–19.  **1 additional global reduce per `bs` columns**, and
//! all its local BLAS-3 work runs on blocks of `bs` columns instead of `s`,
//! which is where the data-reuse gain comes from.  When the big panel
//! violates condition (9) the stage falls back to the shifted
//! [`bcgs_pip2_fused`](crate::kernels::bcgs_pip2_fused), whose
//! re-orthogonalization fuses the vector update with the next inner
//! products ([`DistMultiVector::update_and_gram`]) — 2 reduces and one
//! fewer pass over the `n×bs` panel than the unfused remedy.
//!
//! With `bs = s` the scheme degenerates to one-stage BCGS-PIP2; with
//! `bs = m` it reaches the paper's best configuration.
//!
//! **The cycle's last big panel is factored, not normalized.**  Still one
//! reduce per big panel, but the flush the end of the cycle triggers (the
//! last panel fills the basis) stops after the reduce, the Cholesky
//! factorization and the `R` / coefficient / sketch updates: no panel
//! reads its columns, so it skips the update and the `n × bs` TRSM that
//! turn the stored `Q̂_bp` into `Q_bp = (Q̂_bp − Q_prev·T_prev)·T_bp⁻¹`.
//! It only records the panel as pending; the relation
//! `Q̂_bp = Q_prev·T_prev + Q_bp·T_bp` is already in
//! [`stored_basis_coeffs`](BlockOrthogonalizer::stored_basis_coeffs).
//! [`finish`](BlockOrthogonalizer::finish) normalizes a pending panel
//! first, with those same two calls, so a standalone run ends with the
//! bits of an eager flush; the solver takes the panel instead
//! ([`take_factored_panel`](BlockOrthogonalizer::take_factored_panel))
//! and folds `T_bp` into the projected solution
//! ([`fold_factored`](crate::fold_factored)) — a triangular solve on
//! `(m+1)·k` rows.  Every other flush (the `bs` threshold with panels
//! behind it, the early flush, a flush `finish` runs) and the shifted
//! remedy normalize as they go.
//!
//! **Early flush (every block width).**  The first stage's Pythagorean Gram
//! `VᵀV − PᵀP` is only as good as the orthonormality of the stored columns
//! it projects against, and the pre-processed columns of the pending big
//! panel lose a little of it with every panel.  Monomial panels — `k·s`
//! wide in a block cycle, `s` wide late in a long single-vector big panel —
//! amplify that loss until the Gram matrix goes indefinite, although the
//! panel itself is well inside the Cholesky bound; whether it does is then
//! decided by how an all-reduce rounds.  When the plain first stage refuses
//! a panel and a big panel is pending, the scheme therefore runs the second
//! stage on it *now* and takes the same raw panel again against the
//! orthonormal columns, before it resorts to the shifted remedy: one extra
//! reduce, and the cycle keeps its Krylov space.
//!
//! The second stage may also run before the last panel at the caller's
//! request: [`finish`](BlockOrthogonalizer::finish) flushes whatever is
//! pending, and later panels start a new big panel behind it (the solver
//! does this when its stage-1 residual estimate says the cycle is about to
//! converge).

use crate::error::OrthoError;
use crate::kernels::{bcgs_pip, pip_factors, shifted_remedy};
use crate::sketched::{PreprocessOutcome, SketchState};
use crate::traits::{BlockOrthogonalizer, FallbackEvent, FallbackStage};
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig};
use std::ops::Range;

/// Which kernel the two-stage scheme uses for its per-panel first stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstStage {
    /// Plain BCGS-PIP pre-processing (the paper's scheme): the panel factor
    /// comes from the Cholesky factorization of the panel's Gram matrix.
    Pip,
    /// Sketch-preconditioned pre-processing (see [`crate::sketched`]): the
    /// panel factor comes from a Householder QR of the sketched panel, so
    /// the stage survives panel condition numbers far beyond the CholQR
    /// crossover at the same 1 reduce per panel.
    Sketched(SketchConfig),
}

/// The two-stage block orthogonalizer.
#[derive(Debug)]
pub struct TwoStage {
    /// Second-stage block size `bs` in columns.
    big_panel: usize,
    /// Total number of basis columns (`m + 1`), used to size bookkeeping.
    total_cols: usize,
    /// First column of the current (not yet fully orthogonalized) big panel.
    big_start: usize,
    /// End (exclusive) of the columns pre-processed so far.
    processed_end: usize,
    /// Representation in the final basis of the vector each column held
    /// while pending: the identity until the column's big panel is flushed,
    /// then the stage-2 T factor.
    coeffs: Matrix,
    /// Shifted-CholQR fallbacks taken (either stage) since construction or
    /// the last reset, with the stage, panel, and shift magnitude of each.
    events: Vec<FallbackEvent>,
    /// First-stage kernel selector.
    first_stage: FirstStage,
    /// Sketching state, realized lazily at the first panel when
    /// `first_stage` is [`FirstStage::Sketched`].
    sketch_state: Option<SketchState>,
    /// The cycle's last big panel, factored but not yet normalized (see the
    /// module docs); `coeffs` holds its relation to the final basis.
    factored: Option<Range<usize>>,
}

impl TwoStage {
    /// Create a two-stage orthogonalizer with second step size `big_panel`
    /// (the paper's `bs`) for a basis of `total_cols` columns.
    pub fn new(big_panel: usize, total_cols: usize) -> Self {
        assert!(big_panel >= 1, "big panel size must be at least 1");
        Self {
            big_panel,
            total_cols,
            big_start: 0,
            processed_end: 0,
            coeffs: Matrix::identity(total_cols),
            events: Vec::new(),
            first_stage: FirstStage::Pip,
            sketch_state: None,
            factored: None,
        }
    }

    /// [`TwoStage::new`] with the sketch-preconditioned first stage: same
    /// reduce schedule (1 per panel + 1 per big panel), with the per-panel
    /// conditioning fix coming from a backward-stable QR of the sketched
    /// panel instead of a Gram Cholesky.
    pub fn with_sketched_first_stage(
        big_panel: usize,
        total_cols: usize,
        sketch: SketchConfig,
    ) -> Self {
        let mut scheme = Self::new(big_panel, total_cols);
        scheme.first_stage = FirstStage::Sketched(sketch);
        scheme
    }

    /// Run the second stage on the columns `big_start..processed_end`
    /// (if any) and update `R` and the coefficient bookkeeping.  With
    /// `factor_only`, a panel the plain kernel factors is not normalized:
    /// the flush records it as `factored` instead.
    fn flush_big_panel(
        &mut self,
        basis: &mut DistMultiVector,
        r: &mut Matrix,
        factor_only: bool,
    ) -> Result<(), OrthoError> {
        let bp = self.big_start..self.processed_end;
        if bp.is_empty() {
            return Ok(());
        }
        let _span = trace::span(
            "ortho",
            "stage2_flush",
            &[
                ("start", bp.start as u64),
                ("cols", (bp.end - bp.start) as u64),
            ],
        );
        let prev = 0..bp.start;
        // Second-stage BCGS-PIP of the pre-processed big panel.  If the big
        // panel violates condition (9) of the paper (its condition number
        // exceeds ~1/sqrt(eps)), fall back to a shifted-CholQR first pass
        // followed by a re-orthogonalization pass — the remedy of Fukaya et
        // al. cited in the paper's related work — and compose the factors.
        // Only a plain factorization is deferred: the remedy's second pass
        // reads the columns its first pass normalized.
        let plain = if factor_only {
            pip_factors(basis, prev.clone(), bp.clone())
        } else {
            bcgs_pip(basis, prev.clone(), bp.clone())
        };
        let factored = plain.is_ok() && factor_only;
        let (t_prev, t_bp) = match plain {
            Ok(factors) => factors,
            Err(OrthoError::CholeskyBreakdown { .. }) => shifted_remedy(
                basis,
                prev.clone(),
                bp.clone(),
                FallbackStage::BigPanelFlush,
                "fallback_stage2",
                "two-stage second stage (shifted fallback)",
                &mut self.events,
            )?,
            Err(other) => return Err(other),
        };
        // The flush rewrote the stored big-panel columns as
        // Q_bp = (Q̂_bp − Q_prev·T_prev)·T_bp⁻¹ (a factor-only flush leaves
        // that to `finish` or the caller); mirror the update on the
        // replicated sketch so later sketched panels project correctly.
        if let Some(state) = &mut self.sketch_state {
            let base = state.block(bp.clone());
            state.refresh_block(&base, prev.clone(), bp.clone(), &t_prev, &t_bp);
        }
        // R updates (Fig. 5 lines 18-19):
        //   R[prev, bp] += T_prev · R[bp, bp]
        //   R[bp, bp]    = T_bp  · R[bp, bp]
        let r_bp_bp = extract_block(r, bp.clone(), bp.clone());
        if !prev.is_empty() {
            let correction = dense::gemm_nn(&t_prev, &r_bp_bp);
            for (jj, col) in bp.clone().enumerate() {
                for i in prev.clone() {
                    let v = r[(i, col)] + correction[(i, jj)];
                    r[(i, col)] = v;
                }
            }
        }
        let new_diag = dense::gemm_nn(&t_bp, &r_bp_bp);
        for (jj, col) in bp.clone().enumerate() {
            for (ii, row) in bp.clone().enumerate() {
                r[(row, col)] = new_diag[(ii, jj)];
            }
        }
        // Bookkeeping: stored columns of this big panel were the
        // pre-processed Q̂; in the final basis they read
        // Q̂_bp = Q_prev·T_prev + Q_bp·T_bp.
        for (jj, col) in bp.clone().enumerate() {
            for i in 0..self.total_cols {
                self.coeffs[(i, col)] = 0.0;
            }
            for (ii, row) in prev.clone().enumerate() {
                self.coeffs[(row, col)] = t_prev[(ii, jj)];
            }
            for (ii, row) in bp.clone().enumerate() {
                self.coeffs[(row, col)] = t_bp[(ii, jj)];
            }
        }
        self.big_start = self.processed_end;
        if factored {
            self.factored = Some(bp);
        }
        Ok(())
    }
}

/// The flush policy: the second stage runs once the `accumulated`
/// pre-processed columns reach the `threshold` (`bs`, scaled by the block
/// width), and on whatever is pending when the cycle ends.  The one
/// definition both [`TwoStage`] and [`OrthoKind::reduce_schedule`] call, so
/// the schedule cannot list big panels the scheme does not run.
///
/// [`OrthoKind::reduce_schedule`]: crate::OrthoKind::reduce_schedule
pub(crate) fn flush_due(accumulated: usize, threshold: usize, end_of_cycle: bool) -> bool {
    accumulated >= threshold || end_of_cycle
}

/// Copy the sub-block `R[rows, cols]` into an owned matrix.
fn extract_block(r: &Matrix, rows: Range<usize>, cols: Range<usize>) -> Matrix {
    let mut out = Matrix::zeros(rows.end - rows.start, cols.end - cols.start);
    for (jj, col) in cols.enumerate() {
        for (ii, row) in rows.clone().enumerate() {
            out[(ii, jj)] = r[(row, col)];
        }
    }
    out
}

impl BlockOrthogonalizer for TwoStage {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        assert_eq!(
            new.start, self.processed_end,
            "two-stage: panels must be supplied in order without gaps"
        );
        // First stage: pre-process the panel against everything stored so
        // far (fully orthogonalized prefix + pre-processed current big
        // panel) with a single BCGS-PIP.  If the raw panel violates the
        // O(1/sqrt(eps)) conditioning bound (condition (5) of the paper) —
        // which the matrix-powers kernel can produce on hard matrices — fall
        // back to the same shifted-CholQR remedy the second stage uses,
        // spending the extra reduces only on the offending panel.
        let prev = 0..new.start;
        let stage1_span = trace::span(
            "ortho",
            "stage1_panel",
            &[
                ("start", new.start as u64),
                ("cols", (new.end - new.start) as u64),
            ],
        );
        match self.first_stage {
            FirstStage::Pip => {
                let mut plain = bcgs_pip(basis, prev.clone(), new.clone());
                if matches!(plain, Err(OrthoError::CholeskyBreakdown { .. }))
                    && self.big_start < new.start
                {
                    // Early flush (see the module docs): the refused panel
                    // is untouched, so it can be taken again as it is.
                    trace::instant(
                        "ortho",
                        "early_flush",
                        &[
                            ("start", new.start as u64),
                            ("cols", (new.end - new.start) as u64),
                        ],
                    );
                    self.flush_big_panel(basis, r, false)?;
                    plain = bcgs_pip(basis, prev.clone(), new.clone());
                }
                let (p, r_new) = match plain {
                    Ok(factors) => factors,
                    Err(OrthoError::CholeskyBreakdown { .. }) => shifted_remedy(
                        basis,
                        prev.clone(),
                        new.clone(),
                        FallbackStage::PanelPreprocess,
                        "fallback_stage1",
                        "two-stage first stage (panel pre-processing)",
                        &mut self.events,
                    )?,
                    Err(other) => return Err(other),
                };
                crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p, &r_new);
            }
            FirstStage::Sketched(config) => {
                let total_cols = self.total_cols;
                let state = self.sketch_state.get_or_insert_with(|| {
                    SketchState::new(&config, basis.global_rows(), total_cols)
                });
                match state.preprocess(basis, prev.clone(), new.clone()) {
                    PreprocessOutcome::Factored { p1, r_s } => {
                        crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p1, &r_s);
                    }
                    PreprocessOutcome::RankDeficient { sv } => {
                        // The raw panel lost full rank even under the
                        // sketch's bounded distortion: take the shifted
                        // remedial path on the raw columns and tag the
                        // episode with the sketch stage.
                        let (p, r_new) = shifted_remedy(
                            basis,
                            prev.clone(),
                            new.clone(),
                            FallbackStage::SketchPrecondition,
                            "fallback_stage1",
                            "two-stage sketched first stage",
                            &mut self.events,
                        )?;
                        state.refresh_block(&sv, prev.clone(), new.clone(), &p, &r_new);
                        crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p, &r_new);
                    }
                }
            }
        }
        self.processed_end = new.end;
        // Close the first-stage span before a possible big-panel flush, so
        // stage-2 time is not attributed to the panel that triggered it.
        drop(stage1_span);
        let end_of_cycle = self.processed_end >= self.total_cols;
        if flush_due(
            self.processed_end - self.big_start,
            self.big_panel,
            end_of_cycle,
        ) {
            // No panel reads the columns of the cycle's last flush: leave
            // their normalization to `finish`, or to a caller that takes it.
            self.flush_big_panel(basis, r, end_of_cycle)?;
        }
        Ok(())
    }

    fn finish(&mut self, basis: &mut DistMultiVector, r: &mut Matrix) -> Result<(), OrthoError> {
        if let Some(bp) = self.factored.take() {
            let t_prev = extract_block(&self.coeffs, 0..bp.start, bp.clone());
            let t_bp = extract_block(&self.coeffs, bp.clone(), bp.clone());
            basis.update(0..bp.start, bp.clone(), &t_prev);
            basis.scale_right(bp, &t_bp);
        }
        self.flush_big_panel(basis, r, false)
    }

    fn take_factored_panel(&mut self) -> Option<Range<usize>> {
        self.factored.take()
    }

    fn stored_basis_coeffs(&self) -> Option<&Matrix> {
        Some(&self.coeffs)
    }

    fn finalized_cols(&self) -> Option<usize> {
        Some(self.big_start)
    }

    fn fallback_events(&self) -> &[FallbackEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 19 + j * 11) % 31) as f64 * 0.06 - 0.8
                + if (i + 3 * j) % 9 == 0 { 1.9 } else { 0.0 }
        })
    }

    fn run_scheme(mut scheme: TwoStage, v: &Matrix, panel: usize) -> (Matrix, Matrix, TwoStage) {
        let (q, r) = crate::orthogonalize_with(&mut scheme, v, panel).unwrap();
        (q, r, scheme)
    }

    fn run(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, TwoStage) {
        run_scheme(TwoStage::new(bs, v.ncols()), v, panel)
    }

    #[test]
    fn two_stage_orthogonality_and_reconstruction() {
        let v = test_matrix(600, 16);
        for bs in [4, 8, 16] {
            let (q, r, _) = run(&v, 4, bs);
            let err = orthogonality_error(&q.view());
            assert!(err < 1e-12, "bs = {bs}: orthogonality error {err}");
            let back = dense::gemm_nn(&q, &r);
            for j in 0..16 {
                for i in 0..600 {
                    assert!(
                        (back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs(),
                        "bs = {bs}: reconstruction failed at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_count_is_one_per_panel_plus_one_per_big_panel() {
        let v = test_matrix(500, 20);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(20, 20);
        let mut scheme = TwoStage::new(20, 20);
        let before = basis.comm().stats().snapshot();
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 5..(p + 1) * 5, &mut r)
                .unwrap();
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        // 4 panels × 1 reduce + 1 big-panel reduce.
        assert_eq!(delta.allreduces, 5);
    }

    #[test]
    fn bs_equal_to_s_matches_one_stage_pip2_sync_count() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = TwoStage::new(5, 10);
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 0..5, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 5..10, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        // bs = s: each panel is immediately flushed → 2 reduces per panel,
        // exactly the BCGS-PIP2 count.
        assert_eq!(delta.allreduces, 4);
    }

    #[test]
    fn pre_processing_keeps_basis_well_conditioned_before_second_stage() {
        // Feed panels of a glued matrix (each panel kappa 1e4) and check that
        // after the first stage the stored (pre-processed) basis has a small
        // condition number even though it is not yet orthogonal.
        let spec = testmat::GluedSpec {
            nrows: 400,
            panel_cols: 4,
            num_panels: 4,
            panel_cond: 1e4,
            glue_cond: 1e2,
        };
        let v = testmat::glued_matrix(&spec, 11);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(16, 16);
        let mut scheme = TwoStage::new(16, 16);
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 4..(p + 1) * 4, &mut r)
                .unwrap();
            let kappa = dense::cond_2(&basis.local().cols(0..(p + 1) * 4));
            assert!(
                kappa < 1e3,
                "pre-processed basis must stay well conditioned, kappa = {kappa}"
            );
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        assert!(orthogonality_error(&basis.local().cols(0..16)) < 1e-12);
    }

    #[test]
    fn stored_basis_coeffs_express_preprocessed_columns() {
        // After finish, coeffs[:, c] must reproduce the pre-processed column
        // that was stored at column c before the second stage ran.
        let v = test_matrix(300, 12);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(12, 12);
        let mut scheme = TwoStage::new(12, 12);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 8..12, &mut r)
            .unwrap();
        // Capture the pre-processed basis before the second stage.
        let pre = basis.local().clone();
        scheme.finish(&mut basis, &mut r).unwrap();
        let coeffs = scheme.stored_basis_coeffs().unwrap();
        let reproduced = dense::gemm_nn(basis.local(), coeffs);
        for j in 0..12 {
            for i in 0..300 {
                assert!(
                    (reproduced[(i, j)] - pre[(i, j)]).abs() < 1e-10,
                    "column {j} not reproduced at row {i}"
                );
            }
        }
    }

    #[test]
    fn shifted_fallback_uses_two_reduces_and_composes_factors() {
        // The second stage's robust path: orthogonalize a prefix, then run
        // the shifted+fused re-orthogonalization on a trailing block and
        // check reduce count, orthogonality, and the factor composition
        // Q̂ = Q_prev·T_prev + Q_bp·T_bp.
        let v = test_matrix(400, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r0 = Matrix::zeros(10, 10);
        let mut pre = crate::bcgs_pip2::BcgsPip2::new();
        pre.orthogonalize_panel(&mut basis, 0..4, &mut r0).unwrap();
        let stored = basis.local().clone(); // columns 4..10 still raw
        let before = basis.comm().stats().snapshot();
        let mut events = Vec::new();
        let (t_prev, t_bp) = shifted_remedy(
            &mut basis,
            0..4,
            4..10,
            FallbackStage::BigPanelFlush,
            "fallback_stage2",
            "test",
            &mut events,
        )
        .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cols, 4..10);
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "shifted fallback must stay 2 reduces");
        assert!(dense::orthogonality_error(&basis.local().cols(0..10)) < 1e-12);
        // Composition reproduces the pre-fallback stored columns.
        let q_prev = basis.local().cols_owned(0..4);
        let q_bp = basis.local().cols_owned(4..10);
        let reproduced = dense::gemm_nn(&q_prev, &t_prev).add(&dense::gemm_nn(&q_bp, &t_bp));
        for j in 0..6 {
            for i in 0..400 {
                assert!(
                    (reproduced[(i, j)] - stored[(i, 4 + j)]).abs() < 1e-9 * v.max_abs(),
                    "column {j} row {i} not reproduced"
                );
            }
        }
    }

    #[test]
    fn first_stage_fallback_records_stage_panel_and_shift() {
        // A panel whose conditioning violates the O(1/sqrt(eps)) bound makes
        // the first-stage BCGS-PIP Cholesky break down; the scheme must take
        // the shifted remedial path AND report which stage, which columns,
        // and how large a shift it needed — not just bump a counter.
        let v = testmat::logscaled_matrix(400, 8, 1e10, 7);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = TwoStage::new(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..8, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        let events = scheme.fallback_events();
        assert!(
            !events.is_empty(),
            "a kappa=1e10 panel must force the remedial path"
        );
        for e in events {
            assert!(e.shift > 0.0, "shifted CholQR must have applied a shift");
            assert!(e.cols.end <= 8 && e.cols.start < e.cols.end);
        }
        assert!(events
            .iter()
            .any(|e| e.stage == crate::traits::FallbackStage::PanelPreprocess));
        // The aggregate equals the distinct-episode count of the events.
        assert_eq!(
            scheme.fallback_count(),
            crate::traits::distinct_fallback_episodes(events)
        );
        // The remedy worked: the basis is orthonormal to machine precision.
        assert!(orthogonality_error(&basis.local().cols(0..8)) < 1e-12);
    }

    fn run_sketched(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, TwoStage) {
        let sketch = distsim::SketchConfig::default();
        run_scheme(
            TwoStage::with_sketched_first_stage(bs, v.ncols(), sketch),
            v,
            panel,
        )
    }

    #[test]
    fn sketched_first_stage_orthogonality_and_reconstruction() {
        let v = test_matrix(600, 16);
        for bs in [4, 8, 16] {
            let (q, r, _) = run_sketched(&v, 4, bs);
            let err = orthogonality_error(&q.view());
            assert!(err < 1e-12, "bs = {bs}: orthogonality error {err}");
            let back = dense::gemm_nn(&q, &r);
            for j in 0..16 {
                for i in 0..600 {
                    assert!(
                        (back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs(),
                        "bs = {bs}: reconstruction failed at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sketched_first_stage_keeps_the_plain_reduce_schedule() {
        // The sketched first stage must not change the scheme's headline:
        // 1 fused reduce per panel + 1 per big-panel flush.
        let v = test_matrix(500, 20);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(20, 20);
        let mut scheme =
            TwoStage::with_sketched_first_stage(20, 20, distsim::SketchConfig::default());
        let before = basis.comm().stats().snapshot();
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 5..(p + 1) * 5, &mut r)
                .unwrap();
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 5, "4 panels + 1 flush, same as plain");
    }

    #[test]
    fn sketched_first_stage_survives_kappa_that_forces_plain_fallbacks() {
        // At kappa 1e10 the plain first stage takes the shifted remedial
        // path (`first_stage_fallback_records_stage_panel_and_shift`
        // above); the sketched first stage absorbs the same panel with
        // zero episodes at the same reduce count.
        let v = testmat::logscaled_matrix(400, 8, 1e10, 7);
        let (q, _, scheme) = run_sketched(&v, 8, 8);
        assert!(orthogonality_error(&q.view()) < 1e-12);
        assert_eq!(
            scheme.fallback_count(),
            0,
            "sketched first stage must not fall back at kappa 1e10"
        );
        let (_, _, plain) = run(&v, 8, 8);
        assert!(
            plain.fallback_count() > 0,
            "plain first stage is expected to fall back on this panel"
        );
    }

    #[test]
    fn sketched_stored_basis_coeffs_express_preprocessed_columns() {
        // The stage-2 bookkeeping must stay correct when stage 1 is
        // sketched: coeffs reproduce the pre-flush stored columns.  Unlike
        // the plain first stage, the sketched pre-processing leaves columns
        // well conditioned but *not* near-orthonormal, so the flush factors
        // are far from identity — exactly the case the bookkeeping exists
        // for.  Use 13 total columns and supply 12 so the capture happens
        // before `finish` runs the (only) flush.
        let v = test_matrix(300, 13);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(13, 13);
        let mut scheme =
            TwoStage::with_sketched_first_stage(13, 13, distsim::SketchConfig::default());
        for p in 0..3 {
            scheme
                .orthogonalize_panel(&mut basis, p * 4..(p + 1) * 4, &mut r)
                .unwrap();
        }
        let pre = basis.local().clone();
        scheme.finish(&mut basis, &mut r).unwrap();
        let coeffs = scheme.stored_basis_coeffs().unwrap();
        let reproduced = dense::gemm_nn(basis.local(), coeffs);
        for j in 0..12 {
            for i in 0..300 {
                assert!(
                    (reproduced[(i, j)] - pre[(i, j)]).abs() < 1e-9,
                    "column {j} not reproduced at row {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "panels must be supplied in order")]
    fn out_of_order_panels_are_rejected() {
        let v = test_matrix(100, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = TwoStage::new(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
    }

    #[test]
    fn glued_matrix_full_run_reaches_machine_precision() {
        // The Fig. 8 scenario at reduced size: glued matrix, panels of 5,
        // big panel of 20.
        let spec = testmat::GluedSpec {
            nrows: 500,
            panel_cols: 5,
            num_panels: 8,
            panel_cond: 1e6,
            glue_cond: 1e3,
        };
        let v = testmat::glued_matrix(&spec, 3);
        let (q, r, _) = run(&v, 5, 20);
        assert!(orthogonality_error(&q.view()) < 1e-12);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..40 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-8 * v.max_abs());
            }
        }
    }

    /// The solver's panels for a `k`-wide cycle of `m` block steps taken
    /// `s` at a time: the residual block, then up to `s·k` columns each.
    fn cycle_panels(k: usize, s: usize, m: usize) -> Vec<Range<usize>> {
        let total = k * (m + 1);
        let mut panels = Vec::new();
        let mut start = 0;
        while start < total {
            let width = if start == 0 { k } else { s * k };
            panels.push(start..(start + width).min(total));
            start = panels[panels.len() - 1].end;
        }
        panels
    }

    /// Submit `panels` of `v` to `scheme`, stopping short of `finish`.
    fn submit(
        scheme: &mut TwoStage,
        v: &Matrix,
        panels: &[Range<usize>],
    ) -> (DistMultiVector, Matrix) {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(v.ncols(), v.ncols());
        for panel in panels {
            scheme
                .orthogonalize_panel(&mut basis, panel.clone(), &mut r)
                .unwrap();
        }
        (basis, r)
    }

    fn assert_bits(tag: &str, a: &Matrix, b: &Matrix) {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(a) == bits(b), "{tag}: not bitwise equal");
    }

    #[test]
    fn deferred_final_flush_finishes_bitwise_like_an_eager_one() {
        // The cycle's last flush only factors its big panel.  Whoever
        // normalizes it — `finish`, or a caller applying the handed-over
        // relation with `update` + `scale_right` — must produce the bits of
        // a flush that `finish` runs eagerly on the same panels, which a
        // scheme with one spare column does (its end-of-cycle trigger never
        // fires).  The sketched first stage sizes its sketch by the column
        // count, so there the two deferred runs are compared with each
        // other; its stored columns are far from orthonormal, which gives
        // the fold a `T_prev` of weight.
        let (s, m) = (5, 42);
        let sketched = FirstStage::Sketched(SketchConfig::default());
        for k in [1, 4] {
            let total = k * (m + 1);
            let v = testmat::random_dense(400, total, 17 + k as u64);
            let panels = cycle_panels(k, s, m);
            for (bs, first) in [s, 20, m]
                .into_iter()
                .flat_map(|bs| [(bs, FirstStage::Pip), (bs, sketched)])
            {
                let tag = format!("k = {k}, bs = {bs}, {first:?}");
                let make = |cols| TwoStage {
                    first_stage: first,
                    ..TwoStage::new(bs * k, cols)
                };
                let mut by_finish = make(total);
                let (mut q_finish, mut r_finish) = submit(&mut by_finish, &v, &panels);
                assert!(by_finish.factored.is_some(), "{tag}: nothing deferred");
                assert_eq!(by_finish.finalized_cols(), Some(total), "{tag}");
                by_finish.finish(&mut q_finish, &mut r_finish).unwrap();
                if first == FirstStage::Pip {
                    let mut eager = make(total + 1);
                    let (mut q, mut r) = submit(&mut eager, &v, &panels);
                    assert!(eager.take_factored_panel().is_none(), "{tag}");
                    eager.finish(&mut q, &mut r).unwrap();
                    assert_bits(&format!("{tag}: Q by finish"), q_finish.local(), q.local());
                    assert_bits(&format!("{tag}: R by finish"), &r_finish, &r);
                }

                let mut by_hand = make(total);
                let (mut q, mut r) = submit(&mut by_hand, &v, &panels);
                let bp = by_hand.take_factored_panel().expect("a factored panel");
                assert_eq!(bp.end, total, "{tag}");
                assert!(
                    by_hand.take_factored_panel().is_none(),
                    "{tag}: taken twice"
                );
                let coeffs = by_hand.stored_basis_coeffs().unwrap().clone();
                let stored = q.local().clone();
                q.update(
                    0..bp.start,
                    bp.clone(),
                    &extract_block(&coeffs, 0..bp.start, bp.clone()),
                );
                q.scale_right(bp.clone(), &extract_block(&coeffs, bp.clone(), bp.clone()));
                // Nothing is left for `finish`: it must not normalize again.
                by_hand.finish(&mut q, &mut r).unwrap();
                assert_bits(&format!("{tag}: Q by hand"), q.local(), q_finish.local());
                assert_bits(&format!("{tag}: R by hand"), &r, &r_finish);

                // The fold the solver applies instead: Q̂·y′ = Q·y over the
                // usable columns, all but the last block step.
                let used = total - k;
                let y = testmat::random_dense(used, k, 5);
                let mut folded = y.clone();
                crate::fold_factored(&coeffs, bp, &mut folded);
                let want = dense::gemm_nn(&q.local().cols_owned(0..used), &y);
                let got = dense::gemm_nn(&stored.cols_owned(0..used), &folded);
                let err = want.sub(&got).max_abs() / want.max_abs();
                assert!(err < 1e-12, "{tag}: fold off by {err}");
            }
        }
    }

    #[test]
    fn a_remedied_final_flush_hands_over_nothing() {
        // A pending big panel that lost its conditioning after stage 1
        // (here: pre-processed columns 1..5 overwritten with a κ = 1e10
        // block, on rows the last panel does not touch, so that panel's
        // stage 1 still passes) makes the end-of-cycle flush's plain
        // Cholesky break down.  The shifted remedy normalizes as it goes,
        // so there is nothing to hand over and `finish` changes nothing.
        let (n, total) = (400, 9);
        let half = n / 2;
        let upper = testmat::random_dense(half, 5, 3);
        let lower = testmat::random_dense(n - half, 4, 4);
        let v = Matrix::from_fn(n, total, |i, j| match (i < half, j) {
            (true, ..5) => upper[(i, j)],
            (false, 5..) => lower[(i - half, j - 5)],
            _ => 0.0,
        });
        let mut scheme = TwoStage::new(8, total);
        let (mut basis, mut r) = submit(&mut scheme, &v, &[0..1, 1..5]);
        let bad = testmat::logscaled_matrix(half, 4, 1e10, 3);
        for j in 0..4 {
            basis.local_mut().col_mut(1 + j)[..half].copy_from_slice(bad.col(j));
        }
        scheme
            .orthogonalize_panel(&mut basis, 5..9, &mut r)
            .unwrap();
        assert!(
            scheme
                .fallback_events()
                .iter()
                .any(|e| e.stage == FallbackStage::BigPanelFlush && e.cols == (0..total)),
            "the final flush must have taken the shifted remedy: {:?}",
            scheme.fallback_events()
        );
        assert!(scheme.take_factored_panel().is_none());
        // Normalized, to what two shifted passes reach at this κ.
        assert!(orthogonality_error(&basis.local().view()) < 1e-9);
        let flushed = basis.local().clone();
        scheme.finish(&mut basis, &mut r).unwrap();
        assert_bits("finish after a remedied flush", basis.local(), &flushed);
    }
}
