//! The one orthogonalizer: every scheme is a first stage and a second stage
//! (Section V, Fig. 5).
//!
//! The **first stage** runs once per panel of freshly generated Krylov
//! vectors, against every stored column: column-wise CGS2, BCGS + CholQR2,
//! BCGS-PIP, or the sketch pre-conditioning of [`crate::sketched`].  The
//! **second stage** is nothing, a second pass over the same panel right
//! away, or — the paper's scheme — one BCGS-PIP over every `bs`
//! pre-processed columns, deferred.  [`OrthoKind`] names the seven pairs
//! the paper and its sketch follow-up (arXiv 2503.16717) compare; the
//! crate docs tabulate them.
//!
//! In the two-stage pairs the first stage's job is not full orthogonality
//! but keeping the accumulated basis well conditioned, so that the
//! matrix-powers kernel can keep extending it: **1 global reduce per
//! panel**.  The deferred stage orthogonalizes the whole pre-processed big
//! panel against the final prefix and updates `R` (Fig. 5 lines 18–19):
//! **1 more reduce per `bs` columns**, with all its local BLAS-3 work on
//! blocks of `bs` columns, which is where the data-reuse gain comes from.
//! With `bs = s` the scheme does BCGS-PIP2's work in two calls (its bits
//! differ from the fused kernel [`OrthoKind::BcgsPip2`] runs); with
//! `bs = m` it reaches the paper's best configuration.
//!
//! **Shifted remedy.**  The stages of the two-stage and sketched pairs take
//! the shifted [`bcgs_pip2_fused`] (2 reduces; it succeeds on any
//! numerically full-rank panel) when their plain kernel refuses a panel,
//! and log a [`FallbackEvent`]; the one-stage baselines and BCGS2 report
//! the breakdown instead, as in the paper.  Before a plain PIP or sketch
//! first stage gives up on a panel while a big panel is pending, it runs
//! the second stage *now* and takes the same raw panel again against the
//! orthonormal columns (the **early flush**): the pre-processed columns lose a little
//! orthonormality with every panel, and monomial panels — `k·s` wide in a
//! block cycle, `s` wide late in a long big panel — amplify that loss until
//! the Pythagorean Gram goes indefinite although the panel is well inside
//! the Cholesky bound.  One extra reduce, and the cycle keeps its Krylov
//! space.
//!
//! **The cycle's last big panel is factored, not normalized.**  The flush
//! the end of the cycle triggers stops after the reduce, the Cholesky
//! factorization and the `R` / coefficient / sketch updates: no panel
//! reads its columns, so it skips the update and the `n × bs` TRSM that
//! turn the stored `Q̂_bp` into `Q_bp = (Q̂_bp − Q_prev·T_prev)·T_bp⁻¹`.
//! The relation `Q̂_bp = Q_prev·T_prev + Q_bp·T_bp` is already in
//! [`stored_basis_coeffs`](BlockOrthogonalizer::stored_basis_coeffs).
//! [`finish`](BlockOrthogonalizer::finish) normalizes a pending panel with
//! those two calls, so a standalone run ends with the bits of an eager
//! flush; the solver takes the panel instead
//! ([`take_factored_panel`](BlockOrthogonalizer::take_factored_panel))
//! and folds `T_bp` into the projected solution
//! ([`fold_factored`](crate::fold_factored)).  Every other flush and the
//! shifted remedy normalize as they go.  `finish` may also run before the
//! last panel: it flushes whatever is pending, and later panels start a new
//! big panel behind it (the solver does this when its stage-1 residual
//! estimate says the cycle is about to converge).

use crate::error::OrthoError;
use crate::kernels::{
    bcgs, bcgs_pip, bcgs_pip2_fused, cholqr, cholqr2, columnwise_cgs2, pip_factors,
};
use crate::sketched::SketchState;
use crate::traits::{BlockOrthogonalizer, FallbackEvent, FallbackStage, OrthoKind};
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig};
use std::ops::Range;

/// What every fresh panel gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum First {
    /// Column-wise CGS2: two projections and a norm per column.
    Cgs2,
    /// A BCGS projection, then CholQR2 (Fig. 2b's first pass).
    BcgsCholQr2,
    /// BCGS-PIP (Fig. 4a).
    Pip,
    /// Sketch pre-conditioning ([`SketchState::preprocess`]).
    Sketch,
}

/// What follows the first stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Second {
    /// Nothing: the first stage's columns are final.
    None,
    /// A second pass over the panel right away: BCGS + CholQR behind
    /// BCGS + CholQR2, BCGS-PIP otherwise.  Behind a PIP first stage both
    /// passes run as the fused two-sync [`bcgs_pip2_fused`].
    PerPanel,
    /// BCGS-PIP over the pending columns once `bs` of them accumulate, and
    /// at the end of the cycle.
    Deferred(usize),
}

impl OrthoKind {
    /// The scheme as its (first stage, second stage) pair.
    pub(crate) fn stages(self) -> (First, Second) {
        match self {
            OrthoKind::Cgs2 => (First::Cgs2, Second::None),
            OrthoKind::Bcgs2CholQr2 => (First::BcgsCholQr2, Second::PerPanel),
            OrthoKind::BcgsPip => (First::Pip, Second::None),
            OrthoKind::BcgsPip2 => (First::Pip, Second::PerPanel),
            OrthoKind::TwoStage { big_panel } => (First::Pip, Second::Deferred(big_panel)),
            OrthoKind::RandCholQr => (First::Sketch, Second::PerPanel),
            OrthoKind::TwoStageSketched { big_panel } => {
                (First::Sketch, Second::Deferred(big_panel))
            }
        }
    }
}

/// The flush policy: the second stage runs once the `accumulated`
/// pre-processed columns reach the `threshold` (`bs`, scaled by the block
/// width), and on whatever is pending when the cycle ends.  The one
/// definition both [`Scheme`] and [`OrthoKind::reduce_schedule`] call, so
/// the schedule cannot list big panels the scheme does not run.
pub(crate) fn flush_due(accumulated: usize, threshold: usize, end_of_cycle: bool) -> bool {
    accumulated >= threshold || end_of_cycle
}

/// A scheme built from its two stages (see the module docs).
#[derive(Debug)]
pub(crate) struct Scheme {
    first: First,
    second: Second,
    /// Total number of basis columns (`m + 1`), used to size bookkeeping.
    total_cols: usize,
    /// First column that is not final: the start of the pending big panel.
    /// Without a deferred stage every submitted column is final.
    big_start: usize,
    /// End (exclusive) of the columns submitted so far.
    processed_end: usize,
    /// With a deferred stage, the representation in the final basis of the
    /// vector each column held while pending: the identity until the
    /// column's big panel is flushed, then the stage-2 T factor.
    coeffs: Option<Matrix>,
    /// The cycle's last big panel, factored but not yet normalized (see the
    /// module docs); `coeffs` holds its relation to the final basis.
    factored: Option<Range<usize>>,
    /// Shifted-CholQR fallbacks taken (either stage) since construction,
    /// with the stage, panel, and shift magnitude of each.
    events: Vec<FallbackEvent>,
    /// The sketch a [`First::Sketch`] stage draws, realized at the first
    /// panel (it needs the basis row dimension).
    pub(crate) sketch_config: SketchConfig,
    sketch: Option<SketchState>,
}

impl Scheme {
    /// The scheme `kind` names, for a basis of `total_cols` columns.
    pub(crate) fn new(kind: OrthoKind, total_cols: usize) -> Self {
        let (first, second) = kind.stages();
        Self {
            first,
            second,
            total_cols,
            big_start: 0,
            processed_end: 0,
            coeffs: matches!(second, Second::Deferred(_)).then(|| Matrix::identity(total_cols)),
            factored: None,
            events: Vec::new(),
            sketch_config: SketchConfig::default(),
            sketch: None,
        }
    }

    /// The first stage on `new`: `(T_prev, T_new)` with
    /// `V = Q_prev·T_prev + Q̂_new·T_new`, and whether the shifted remedy
    /// produced them.
    fn first_stage(
        &mut self,
        basis: &mut DistMultiVector,
        r: &mut Matrix,
        new: Range<usize>,
    ) -> Result<((Matrix, Matrix), bool), OrthoError> {
        let mut plain = self.plain_first_stage(basis, new.clone());
        if plain.is_err() && self.big_start < new.start {
            // Early flush (see the module docs): the refused panel is
            // untouched, so it can be taken again as it is.
            trace::instant("ortho", "early_flush", &span_args(&new));
            self.flush(basis, r, false)?;
            plain = self.plain_first_stage(basis, new.clone());
        }
        let remedied = plain.is_err();
        let factors = self.or_remedy(plain, basis, new.clone(), false)?;
        if remedied {
            self.follow_sketch(new, &factors);
        }
        Ok((factors, remedied))
    }

    /// The first stage's plain kernel on `new`.  The two stages that run
    /// ahead of a deferred second stage, PIP and the sketch, leave a panel
    /// they refuse untouched.
    fn plain_first_stage(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
    ) -> Result<(Matrix, Matrix), OrthoError> {
        let prev = 0..new.start;
        match self.first {
            First::Cgs2 => columnwise_cgs2(basis, new),
            First::BcgsCholQr2 => {
                // Fig. 2b, j = 1: the first panel has nothing to project on.
                let p = if prev.is_empty() {
                    Matrix::zeros(0, new.len())
                } else {
                    bcgs(basis, prev, new.clone())
                };
                cholqr2(basis, new).map(|r_new| (p, r_new))
            }
            First::Pip => bcgs_pip(basis, prev, new),
            First::Sketch => {
                let (config, cols) = (self.sketch_config, self.total_cols);
                self.sketch
                    .get_or_insert_with(|| SketchState::new(&config, basis.global_rows(), cols))
                    .preprocess(basis, prev, new)
            }
        }
    }

    /// The per-panel second stage: a second pass over `new`, composed with
    /// the first stage's `(P1, R1)` into
    /// `V = Q_prev·(P2·R1 + P1) + Q_new·(R2·R1)`.  Fig. 2b line 14 writes
    /// BCGS2's update as `R ← T + R`, dropping the product with `R1` because
    /// the correction is already O(ε); the exact update keeps `V = Q·R` to
    /// working precision whatever the panel's conditioning.
    fn second_pass(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        (p1, r1): (Matrix, Matrix),
    ) -> Result<(Matrix, Matrix), OrthoError> {
        let prev = 0..new.start;
        let (p2, r2) = match self.first {
            First::BcgsCholQr2 if prev.is_empty() => return Ok((p1, r1)),
            First::BcgsCholQr2 => {
                let p2 = bcgs(basis, prev, new.clone());
                (p2, cholqr(basis, new)?)
            }
            // The sketch's BCGS-PIP polish, the one other per-panel pair
            // (PIP behind PIP runs fused).
            _ => {
                let plain = bcgs_pip(basis, prev, new.clone());
                let factors = self.or_remedy(plain, basis, new.clone(), true)?;
                self.follow_sketch(new, &factors);
                factors
            }
        };
        Ok((
            dense::gemm_nn(&p2, &r1).add(&p1),
            dense::tri_matmul_upper(&r2, &r1),
        ))
    }

    /// The deferred second stage on the pending columns
    /// `big_start..processed_end` (if any), with the `R` and coefficient
    /// updates.  With `factor_only`, a panel the plain kernel factors is
    /// not normalized: the flush records it as `factored` instead.
    fn flush(
        &mut self,
        basis: &mut DistMultiVector,
        r: &mut Matrix,
        factor_only: bool,
    ) -> Result<(), OrthoError> {
        let bp = self.big_start..self.processed_end;
        if bp.is_empty() {
            return Ok(());
        }
        let _span = trace::span("ortho", "stage2_flush", &span_args(&bp));
        let prev = 0..bp.start;
        // Only a plain factorization is deferred: the remedy's second pass
        // reads the columns its first pass normalized.
        let plain = if factor_only {
            pip_factors(basis, prev.clone(), bp.clone())
        } else {
            bcgs_pip(basis, prev.clone(), bp.clone())
        };
        let factored = factor_only && plain.is_ok();
        let factors = self.or_remedy(plain, basis, bp.clone(), true)?;
        self.follow_sketch(bp.clone(), &factors);
        let (t_prev, t_bp) = factors;
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
        // Stored columns of this big panel were the pre-processed Q̂; in the
        // final basis they read Q̂_bp = Q_prev·T_prev + Q_bp·T_bp.
        let coeffs = (self.coeffs.as_mut()).expect("only a deferred stage has pending columns");
        for (jj, col) in bp.clone().enumerate() {
            for i in 0..self.total_cols {
                coeffs[(i, col)] = 0.0;
            }
            for (ii, row) in prev.clone().enumerate() {
                coeffs[(row, col)] = t_prev[(ii, jj)];
            }
            for (ii, row) in bp.clone().enumerate() {
                coeffs[(row, col)] = t_bp[(ii, jj)];
            }
        }
        self.big_start = self.processed_end;
        if factored {
            self.factored = Some(bp);
        }
        Ok(())
    }

    /// The shifted remedy the first (or `second`) stage of this scheme
    /// takes when its plain kernel refuses a panel: the fallback tag and
    /// the context a failure of the remedy reports.  `None`: the scheme
    /// reports the refusal.
    fn remedy(&self, second: bool) -> Option<(FallbackStage, &'static str)> {
        use FallbackStage::*;
        match (self.first, self.second, second) {
            (First::Sketch, Second::PerPanel, _) => {
                Some((SketchPrecondition, "sketched panel (shifted fallback)"))
            }
            (First::Pip, Second::Deferred(_), false) => Some((
                PanelPreprocess,
                "two-stage first stage (panel pre-processing)",
            )),
            (First::Sketch, Second::Deferred(_), false) => {
                Some((SketchPrecondition, "two-stage sketched first stage"))
            }
            (_, Second::Deferred(_), true) => {
                Some((BigPanelFlush, "two-stage second stage (shifted fallback)"))
            }
            _ => None,
        }
    }

    /// `plain` if it factored `cols`; else the stage's shifted remedy
    /// ([`Scheme::remedy`]) on the untouched columns, logged as a
    /// [`FallbackEvent`] with the shift its first pass applied.
    fn or_remedy(
        &mut self,
        plain: Result<(Matrix, Matrix), OrthoError>,
        basis: &mut DistMultiVector,
        cols: Range<usize>,
        second: bool,
    ) -> Result<(Matrix, Matrix), OrthoError> {
        let (Err(_), Some((stage, context))) = (&plain, self.remedy(second)) else {
            return plain;
        };
        let instant = if second {
            "fallback_stage2"
        } else {
            "fallback_stage1"
        };
        trace::instant("ortho", instant, &span_args(&cols));
        let prev = 0..cols.start;
        let (t_prev, t_new, shift) =
            bcgs_pip2_fused(basis, prev, cols.clone(), true, context, context)?;
        self.events.push(FallbackEvent { stage, cols, shift });
        Ok((t_prev, t_new))
    }

    /// Mirror on the replicated sketch (if any) the update a pass applied
    /// to the stored columns `cols`: `(stored − Q_prev·T_prev)·T_cols⁻¹`.
    fn follow_sketch(&mut self, cols: Range<usize>, (t_prev, t_cols): &(Matrix, Matrix)) {
        if let Some(state) = &mut self.sketch {
            state.refresh_block(cols, t_prev, t_cols);
        }
    }
}

/// Trace arguments of a column range.
fn span_args(cols: &Range<usize>) -> [(&'static str, u64); 2] {
    [("start", cols.start as u64), ("cols", cols.len() as u64)]
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

/// Write a panel's factors into the replicated `R`:
/// `R[.., new] = [T_prev; T_new]`.
fn write_block(r: &mut Matrix, new: Range<usize>, t_prev: &Matrix, t_new: &Matrix) {
    for (jj, col) in new.clone().enumerate() {
        for i in 0..new.start {
            r[(i, col)] = t_prev[(i, jj)];
        }
        for i in 0..new.len() {
            r[(new.start + i, col)] = t_new[(i, jj)];
        }
    }
}

impl BlockOrthogonalizer for Scheme {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        assert_eq!(
            new.start, self.processed_end,
            "panels must be supplied in order without gaps"
        );
        let stage1_span = trace::span("ortho", "stage1_panel", &span_args(&new));
        let (t_prev, t_new) = match self.second {
            // BCGS-PIP2: both passes in the fused two-sync kernel, 5 panel
            // passes where a PIP pass and a second one would take 6.
            Second::PerPanel if self.first == First::Pip => {
                let (t_prev, t_new, _) = bcgs_pip2_fused(
                    basis,
                    0..new.start,
                    new.clone(),
                    false,
                    "BCGS-PIP2 (first pass)",
                    "BCGS-PIP2 (reorthogonalization)",
                )?;
                (t_prev, t_new)
            }
            Second::PerPanel => match self.first_stage(basis, r, new.clone())? {
                (factors, false) => self.second_pass(basis, new.clone(), factors)?,
                // A remedied panel is already orthonormal.
                (factors, true) => factors,
            },
            _ => self.first_stage(basis, r, new.clone())?.0,
        };
        write_block(r, new.clone(), &t_prev, &t_new);
        self.processed_end = new.end;
        // Close the first-stage span before a possible big-panel flush, so
        // stage-2 time is not attributed to the panel that triggered it.
        drop(stage1_span);
        let Second::Deferred(bs) = self.second else {
            self.big_start = new.end;
            return Ok(());
        };
        let end_of_cycle = new.end >= self.total_cols;
        if flush_due(new.end - self.big_start, bs, end_of_cycle) {
            // No panel reads the columns of the cycle's last flush: leave
            // their normalization to `finish`, or to a caller that takes it.
            self.flush(basis, r, end_of_cycle)?;
        }
        Ok(())
    }

    fn finish(&mut self, basis: &mut DistMultiVector, r: &mut Matrix) -> Result<(), OrthoError> {
        if let (Some(bp), Some(coeffs)) = (self.factored.take(), &self.coeffs) {
            let t_prev = extract_block(coeffs, 0..bp.start, bp.clone());
            let t_bp = extract_block(coeffs, bp.clone(), bp.clone());
            basis.update(0..bp.start, bp.clone(), &t_prev);
            basis.scale_right(bp, &t_bp);
        }
        self.flush(basis, r, false)
    }

    fn take_factored_panel(&mut self) -> Option<Range<usize>> {
        self.factored.take()
    }

    fn stored_basis_coeffs(&self) -> Option<&Matrix> {
        self.coeffs.as_ref()
    }

    fn finalized_cols(&self) -> Option<usize> {
        self.coeffs.as_ref().map(|_| self.big_start)
    }

    fn fallback_events(&self) -> &[FallbackEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_orthogonalizer, orthogonalize_matrix};
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 19 + j * 11) % 31) as f64 * 0.06 - 0.8
                + if (i + 3 * j) % 9 == 0 { 1.9 } else { 0.0 }
        })
    }

    fn run_scheme(mut scheme: Scheme, v: &Matrix, panel: usize) -> (Matrix, Matrix, Scheme) {
        let (q, r) = crate::orthogonalize_with(&mut scheme, v, panel).unwrap();
        (q, r, scheme)
    }

    fn two_stage(bs: usize, total_cols: usize) -> Scheme {
        Scheme::new(OrthoKind::TwoStage { big_panel: bs }, total_cols)
    }

    fn sketched(bs: usize, total_cols: usize) -> Scheme {
        Scheme::new(OrthoKind::TwoStageSketched { big_panel: bs }, total_cols)
    }

    fn run(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, Scheme) {
        run_scheme(two_stage(bs, v.ncols()), v, panel)
    }

    #[test]
    fn sketched_first_stage_flushes_early_before_its_remedy() {
        // Panel 4..8 repeats column 1 of the pending big panel 0..4.  The
        // sketch refuses it; the pending columns are only sketch-
        // orthonormal, so the remedy needs them flushed first, as the PIP
        // first stage does.
        let mut v = testmat::random_dense(400, 8, 3);
        for i in 0..400 {
            let x = v[(i, 1)];
            v[(i, 6)] = x;
        }
        let mut scheme = sketched(10, 8);
        let (q, r) = crate::orthogonalize_with(&mut scheme, &v, 4).unwrap();
        let stages: Vec<_> = scheme
            .events
            .iter()
            .map(|e| (e.stage, e.cols.clone()))
            .collect();
        assert_eq!(stages, [(FallbackStage::SketchPrecondition, 4..8)]);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..8 {
            for i in 0..400 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs());
            }
        }
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
        let mut scheme = two_stage(20, 20);
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
        let mut scheme = two_stage(5, 10);
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
        let mut scheme = two_stage(16, 16);
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
        let mut scheme = two_stage(12, 12);
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
        Scheme::new(OrthoKind::BcgsPip2, 10)
            .orthogonalize_panel(&mut basis, 0..4, &mut r0)
            .unwrap();
        let stored = basis.local().clone(); // columns 4..10 still raw
        let before = basis.comm().stats().snapshot();
        let mut scheme = two_stage(10, 10);
        let refused = Err(OrthoError::CholeskyBreakdown {
            context: "test",
            pivot: 0,
        });
        let (t_prev, t_bp) = scheme.or_remedy(refused, &mut basis, 4..10, true).unwrap();
        let events = scheme.fallback_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cols, 4..10);
        assert_eq!(events[0].stage, FallbackStage::BigPanelFlush);
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
        let mut scheme = two_stage(8, 8);
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

    fn run_sketched(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, Scheme) {
        run_scheme(sketched(bs, v.ncols()), v, panel)
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
        let mut scheme = sketched(20, 20);
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
        let mut scheme = sketched(13, 13);
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
        let mut scheme = two_stage(8, 8);
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
        scheme: &mut Scheme,
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
        for k in [1, 4] {
            let total = k * (m + 1);
            let v = testmat::random_dense(400, total, 17 + k as u64);
            let panels = cycle_panels(k, s, m);
            for (bs, plain) in [s, 20, m]
                .into_iter()
                .flat_map(|bs| [(bs, true), (bs, false)])
            {
                let tag = format!("k = {k}, bs = {bs}, plain first stage: {plain}");
                let make = |cols| {
                    if plain {
                        two_stage(bs * k, cols)
                    } else {
                        sketched(bs * k, cols)
                    }
                };
                let mut by_finish = make(total);
                let (mut q_finish, mut r_finish) = submit(&mut by_finish, &v, &panels);
                assert!(by_finish.factored.is_some(), "{tag}: nothing deferred");
                assert_eq!(by_finish.finalized_cols(), Some(total), "{tag}");
                by_finish.finish(&mut q_finish, &mut r_finish).unwrap();
                if plain {
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
        let mut scheme = two_stage(8, total);
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

    // ----- the kinds without a deferred stage --------------------------------

    /// The inputs the kind-specific cases were tuned on.
    fn pip_input(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 13 + j * 7) % 19) as f64 * 0.11 - 0.9 + if (i + j) % 5 == 0 { 2.0 } else { 0.0 }
        })
    }

    fn cgs_input(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 29 + j * 3) % 23) as f64 * 0.09 - 1.0 + if i % (j + 3) == 1 { 2.2 } else { 0.0 }
        })
    }

    #[test]
    fn handles_moderately_ill_conditioned_panels() {
        // kappa ~ 1e6 < 1/sqrt(eps): condition (1) holds, so BCGS2 with
        // CholQR2 must deliver O(eps) orthogonality.
        let v = testmat::logscaled_matrix(400, 10, 1e6, 5);
        let (q, _) = orthogonalize_matrix(OrthoKind::Bcgs2CholQr2, &v, 5).unwrap();
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-12, "{err}");
    }

    #[test]
    fn single_pip_is_less_orthogonal_but_reconstructs() {
        // On a moderately conditioned input the single-pass PIP has
        // orthogonality error ~ eps * kappa^2 (bound (6)), visibly worse than
        // PIP2 but still a valid factorization.
        let v = testmat::logscaled_matrix(500, 10, 1e5, 3);
        let (q1, r1) = orthogonalize_matrix(OrthoKind::BcgsPip, &v, 5).unwrap();
        let (q2, _) = orthogonalize_matrix(OrthoKind::BcgsPip2, &v, 5).unwrap();
        let e1 = orthogonality_error(&q1.view());
        let e2 = orthogonality_error(&q2.view());
        assert!(e2 < 1e-13, "PIP2 error {e2}");
        assert!(
            e1 > e2,
            "single PIP ({e1}) should be no better than PIP2 ({e2})"
        );
        assert!(e1 < 1e-4, "but still bounded by eps*kappa^2");
        let back = dense::gemm_nn(&q1, &r1);
        for j in 0..10 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-9 * v.max_abs());
            }
        }
    }

    #[test]
    fn first_panel_equals_cholqr2() {
        // With no previous block, BCGS-PIP2 must coincide with CholQR2
        // (the paper notes this explicitly).
        let v = pip_input(250, 5);
        let mut basis_a = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r_a = Matrix::zeros(5, 5);
        make_orthogonalizer(OrthoKind::BcgsPip2, 5)
            .orthogonalize_panel(&mut basis_a, 0..5, &mut r_a)
            .unwrap();
        let mut basis_b = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let r_b = crate::kernels::cholqr2(&mut basis_b, 0..5).unwrap();
        for j in 0..5 {
            for i in 0..=j {
                assert!((r_a[(i, j)] - r_b[(i, j)]).abs() < 1e-11 * r_b.max_abs());
            }
            for i in 0..250 {
                assert!((basis_a.local()[(i, j)] - basis_b.local()[(i, j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn breakdown_is_reported_not_hidden() {
        let mut v = pip_input(200, 6);
        for i in 0..200 {
            let x = v[(i, 0)];
            v[(i, 5)] = 2.0 * x; // linearly dependent on an earlier column
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = make_orthogonalizer(OrthoKind::BcgsPip2, 6);
        scheme
            .orthogonalize_panel(&mut basis, 0..3, &mut r)
            .unwrap();
        assert!(scheme
            .orthogonalize_panel(&mut basis, 3..6, &mut r)
            .is_err());
    }

    #[test]
    fn zero_column_is_a_breakdown() {
        let mut v = cgs_input(100, 3);
        for i in 0..100 {
            v[(i, 2)] = 0.0;
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(3, 3);
        let mut cgs2 = make_orthogonalizer(OrthoKind::Cgs2, 3);
        cgs2.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
        cgs2.orthogonalize_panel(&mut basis, 1..2, &mut r).unwrap();
        assert!(cgs2.orthogonalize_panel(&mut basis, 2..3, &mut r).is_err());
    }
}
