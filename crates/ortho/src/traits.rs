//! The [`BlockOrthogonalizer`] trait and the scheme selector.

use crate::error::OrthoError;
use crate::two_stage::{flush_due, First, Scheme, Second};
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig, SKETCH_NNZ_PER_ROW};
use std::ops::Range;

/// Which stage of a (possibly multi-stage) scheme had to take a remedial
/// pass.  One-stage schemes only ever report [`FallbackStage::PanelPreprocess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStage {
    /// The per-panel kernel (the two-stage scheme's first stage, which
    /// pre-processes each fresh `s`-column panel).
    PanelPreprocess,
    /// The delayed big-panel kernel (the two-stage scheme's second stage,
    /// flushing `bs` accumulated columns at once).
    BigPanelFlush,
    /// The sketched per-panel kernel (`RandCholQr` or the two-stage
    /// scheme's sketched first stage) found the sketched panel numerically
    /// rank deficient and took the shifted-CholQR remedial path.  Kept
    /// distinct from [`PanelPreprocess`](Self::PanelPreprocess) so
    /// sketched and CholQR-shift remediations are never conflated in the
    /// episode accounting.
    SketchPrecondition,
}

/// One remedial (shifted-CholQR) episode a scheme had to take because the
/// plain kernel's Cholesky factorization broke down.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvent {
    /// Which stage took the remedial pass.
    pub stage: FallbackStage,
    /// The basis columns of the offending panel (first stage) or big panel
    /// (second stage).
    pub cols: Range<usize>,
    /// Magnitude of the diagonal shift the shifted Cholesky factorization
    /// applied to the Gram matrix (a direct measure of how far from
    /// positive definite the panel was).
    pub shift: f64,
}

/// Number of *distinct* breakdown episodes in a list of fallback events.
///
/// A big-panel (second-stage) fallback whose column range contains a panel
/// that already needed a first-stage fallback in the same cycle is the same
/// underlying ill-conditioned panel surfacing twice, not a new incident —
/// counting both would double-count the episode across stages.  First-stage
/// events — plain panel pre-processing and sketched pre-conditioning alike
/// — always count; second-stage events count only when no first-stage
/// event lies inside their range.
pub fn distinct_fallback_episodes(events: &[FallbackEvent]) -> usize {
    let first_stage = |stage: FallbackStage| {
        matches!(
            stage,
            FallbackStage::PanelPreprocess | FallbackStage::SketchPrecondition
        )
    };
    events
        .iter()
        .filter(|e| {
            if first_stage(e.stage) {
                true
            } else {
                !events.iter().any(|p| {
                    first_stage(p.stage) && e.cols.start <= p.cols.start && p.cols.end <= e.cols.end
                })
            }
        })
        .count()
}

/// Rewrite coefficients `y` on the final basis columns `0..y.nrows()` as
/// coefficients on the stored ones, so that `Q̂·y′ = Q·y`, when the stored
/// columns `factored` — a panel handed over by
/// [`take_factored_panel`](BlockOrthogonalizer::take_factored_panel) —
/// hold `Q̂[:, c] = Q·coeffs[:, c]` and every column before them is final.
/// `coeffs` is the scheme's
/// [`stored_basis_coeffs`](BlockOrthogonalizer::stored_basis_coeffs); with
/// `T = coeffs[factored, factored]` and `T_prev = coeffs[..factored.start,
/// factored]`, the `m′ = y.nrows() − factored.start` rows of `y` inside the
/// panel become `z = T[..m′, ..m′]⁻¹·y[factored]` (a leading block, since
/// `T` is upper triangular) and `y[..factored.start] −= T_prev[:, ..m′]·z`.
/// A triangular solve on `m′` rows in place of the `n`-row TRSM, with no
/// allocation.
pub fn fold_factored(coeffs: &Matrix, factored: Range<usize>, y: &mut Matrix) {
    let (start, rows) = (factored.start, y.nrows());
    assert!(
        start <= rows && rows <= factored.end,
        "fold_factored: y must cover the final columns up to a prefix of the panel"
    );
    for c in 0..y.ncols() {
        for i in (start..rows).rev() {
            let mut acc = y[(i, c)];
            for j in i + 1..rows {
                acc -= coeffs[(i, j)] * y[(j, c)];
            }
            y[(i, c)] = acc / coeffs[(i, i)];
        }
        for j in start..rows {
            let z = y[(j, c)];
            for i in 0..start {
                y[(i, c)] -= coeffs[(i, j)] * z;
            }
        }
    }
}

/// A block orthogonalization scheme as used inside s-step GMRES.
///
/// The solver owns a basis multivector with `m+1` columns and a replicated
/// upper-triangular `R` of size `(m+1)×(m+1)`.  After the matrix-powers
/// kernel fills the columns `new` with fresh Krylov vectors, it calls
/// [`orthogonalize_panel`](BlockOrthogonalizer::orthogonalize_panel); the
/// scheme must leave those columns (eventually) orthonormal against columns
/// `0..new.start` and fill `R[0..new.end, new]` such that the QR relation
/// `W = Q·R` of the generated Krylov matrix is preserved.
///
/// A scheme with a deferred second stage (the two-stage algorithm)
/// postpones part of the work;
/// [`finish`](BlockOrthogonalizer::finish) must complete it — unless the
/// caller first takes a factored panel through
/// [`take_factored_panel`](BlockOrthogonalizer::take_factored_panel), in
/// which case those stored columns stay unnormalized.  Schemes whose
/// stored basis columns temporarily differ from the final orthonormal basis
/// expose the relation through
/// [`stored_basis_coeffs`](BlockOrthogonalizer::stored_basis_coeffs), which
/// the solver needs to recover the Hessenberg matrix.
pub trait BlockOrthogonalizer {
    /// Orthogonalize the freshly generated panel `new` (see trait docs).
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError>;

    /// Complete any deferred orthogonalization (a no-op without a deferred
    /// second stage):
    /// afterwards every submitted column of `basis` is orthonormal.  A
    /// factored panel nobody took is normalized first, with the
    /// `update` + `scale_right` pair its flush would have run.
    ///
    /// It may run before the last panel: every column submitted so far is
    /// then final, and later panels continue behind them as in a fresh
    /// stretch of the same cycle.
    fn finish(&mut self, basis: &mut DistMultiVector, r: &mut Matrix) -> Result<(), OrthoError>;

    /// Hand over the stored columns the scheme factored but has not
    /// normalized (R factor and [`stored_basis_coeffs`] already final),
    /// leaving them unnormalized for good: a later [`finish`] no longer
    /// touches them.  Column `c` of the returned range holds
    /// `Q̂[:, c] = Q·coeffs[:, c]` in the final basis `Q`, with `coeffs`
    /// from [`stored_basis_coeffs`].  A deferred stage records one when
    /// the cycle's last panel triggers its final flush, which no later
    /// panel reads; a caller that only forms `Q·y` folds the relation into
    /// `y` ([`fold_factored`]) instead of paying the `n × bs` update and
    /// TRSM.  `None` — nothing to hand over — after any other flush, and
    /// always without a deferred stage.
    ///
    /// [`stored_basis_coeffs`]: BlockOrthogonalizer::stored_basis_coeffs
    /// [`finish`]: BlockOrthogonalizer::finish
    fn take_factored_panel(&mut self) -> Option<Range<usize>>;

    /// For column `c` of the basis, the representation of the vector column
    /// `c` held while it was pending (submitted, not yet final): in the
    /// *final* orthonormal basis once the column is final, the identity
    /// column `e_c` — its stored-basis coordinates — before.  A column that
    /// was already final when the matrix-powers kernel read it is `e_c`
    /// whatever this holds; the caller records which columns those are.
    /// `None` means identity coefficients throughout — true for every
    /// kind without a deferred second stage.
    fn stored_basis_coeffs(&self) -> Option<&Matrix>;

    /// Number of leading basis columns whose orthogonalization (and R
    /// factor) is already final — the stored columns of a factored panel
    /// included, although only `finish` normalizes them.  `None` means
    /// every column submitted so far is final — true without a deferred
    /// second stage; with one, the boundary of the last completed big
    /// panel.
    fn finalized_cols(&self) -> Option<usize>;

    /// The remedial (shifted-CholQR) episodes the scheme has taken since
    /// construction (the solver builds a fresh scheme per restart cycle),
    /// with per-stage detail: which stage, which panel, and the shift
    /// magnitude that was needed.  Empty for schemes without a fallback
    /// path.
    fn fallback_events(&self) -> &[FallbackEvent];

    /// Number of *distinct* breakdown episodes since construction:
    /// remedial passes the same ill-conditioned panel forced in more than
    /// one stage of the same cycle are counted once (see
    /// [`distinct_fallback_episodes`]).  `0` for schemes without a fallback
    /// path.
    fn fallback_count(&self) -> usize {
        distinct_fallback_episodes(self.fallback_events())
    }
}

/// Selector for the orthogonalization scheme (mirrors the solver options
/// compared in the paper's evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrthoKind {
    /// BCGS2 with CholQR2 intra-block kernel — the original s-step GMRES
    /// baseline ("s-step" columns of Tables III/IV), 5 reduces per panel.
    Bcgs2CholQr2,
    /// BCGS-PIP2 — the paper's improved one-stage variant, 2 reduces per
    /// panel.
    BcgsPip2,
    /// Single-pass BCGS-PIP (no reorthogonalization) — used as the
    /// pre-processing stage of the two-stage scheme and exposed separately
    /// for the numerical study.
    BcgsPip,
    /// The two-stage scheme of Section V: BCGS-PIP pre-processing per panel,
    /// delayed BCGS-PIP orthogonalization every `big_panel` columns.
    TwoStage {
        /// Second-stage block size `bs` in columns (`s ≤ bs ≤ m`).
        big_panel: usize,
    },
    /// Column-wise classical Gram–Schmidt with reorthogonalization — the
    /// orthogonalization of standard GMRES ("GMRES + CGS2" in Table III).
    Cgs2,
    /// Randomized CholQR (arXiv 2503.16717): sketch-precondition each
    /// panel (factor the sketched panel, apply `R⁻¹`), then one BCGS-PIP
    /// polish.  2 reduces per panel like [`BcgsPip2`](Self::BcgsPip2), but
    /// the panel factor comes from a backward-stable QR of the small
    /// sketch instead of a κ²-squaring Gram Cholesky.
    RandCholQr,
    /// The first stage of [`RandCholQr`](Self::RandCholQr) before the
    /// deferred second stage of [`TwoStage`](Self::TwoStage): the same 1
    /// reduce per panel + 1 per big panel, with the first-stage
    /// conditioning fix coming from the sketch instead of a Gram Cholesky.
    TwoStageSketched {
        /// Second-stage block size `bs` in columns (`s ≤ bs ≤ m`).
        big_panel: usize,
    },
}

impl OrthoKind {
    /// The same scheme re-parameterized for a **block** solve whose panels
    /// carry `block_width · s` columns instead of `s`.
    ///
    /// Panel-width thresholds expressed in columns must scale with the
    /// block width so the *panel cadence* — and therefore the reduce count
    /// per cycle — stays independent of the number of right-hand sides:
    /// the two-stage schemes flush their big panel every `big_panel`
    /// accumulated columns, so a k-wide block run flushes every
    /// `big_panel · k` columns (the same number of *block steps*).  Kinds
    /// without a column-width threshold are returned unchanged, and
    /// `for_block_width(1)` is the identity for every kind.  A zero block
    /// width or a zero `big_panel` panics here, the one place a big panel
    /// is checked.
    pub fn for_block_width(&self, block_width: usize) -> OrthoKind {
        assert!(block_width >= 1, "block width must be at least 1");
        let scale = |big_panel: usize| {
            assert!(big_panel >= 1, "big panel size must be at least 1");
            big_panel * block_width
        };
        match *self {
            OrthoKind::TwoStage { big_panel } => OrthoKind::TwoStage {
                big_panel: scale(big_panel),
            },
            OrthoKind::TwoStageSketched { big_panel } => OrthoKind::TwoStageSketched {
                big_panel: scale(big_panel),
            },
            other => other,
        }
    }

    /// The all-reduces one restart cycle issues after its residual block,
    /// in issue order, as the `f64` words each carries (Figs. 2–5 of the
    /// paper): the reduce count is the length, the reduced volume the sum.
    ///
    /// `self` is the `k = 1` kind, as in `GmresConfig::ortho`; the cycle has
    /// `m` block steps of step size `s` over `k` right-hand sides, and `k`
    /// is applied through [`for_block_width`](Self::for_block_width).  The
    /// residual block (`k` columns) is cycle setup, identical for every
    /// scheme, and its reduces are not listed.  Each later panel carries
    /// `k·s` columns (`m / s` of them, integer division); column-wise CGS2
    /// takes the `k·m` generated columns one at a time whatever `s` is.
    /// The two-stage kinds close a big panel where the flush predicate the
    /// scheme itself calls says so, and the sketched reduces carry the
    /// slots of the operator [`make_orthogonalizer`] builds (`SketchConfig::default()`, [`SKETCH_NNZ_PER_ROW`] samples per
    /// row, over the `k·(m + 1)` basis columns).
    ///
    /// For every panel-blocked scheme the count is independent of `k`; the
    /// words grow at least linearly in it.  Per panel with `p` previous
    /// columns and width `w`: BCGS projection `p·w`, CholQR `w²`, BCGS-PIP
    /// `(p + w)·w`, sketch `rows·nnz·w`, a CGS2 column norm `1`.
    pub fn reduce_schedule(&self, m: usize, s: usize, k: usize) -> Vec<usize> {
        let (first, second) = self.for_block_width(k).stages();
        let (panels, panel_width) = match first {
            First::Cgs2 => (k * m, 1),
            _ => (m / s, k * s),
        };
        let sketch_per_col =
            SketchConfig::default().rows_per_col * k * (m + 1) * SKETCH_NNZ_PER_ROW;
        let mut words = Vec::new();
        let (mut prev, mut big_start) = (0, 0);
        for j in 0..=panels {
            let width = if j == 0 { k } else { panel_width };
            let (bcgs, cholqr, pip) = (prev * width, width * width, (prev + width) * width);
            match first {
                First::Cgs2 => words.extend([bcgs, bcgs, 1]),
                First::BcgsCholQr2 => words.extend([bcgs, cholqr, cholqr]),
                First::Pip => words.push(pip),
                First::Sketch => words.push(sketch_per_col * width),
            }
            prev += width;
            match second {
                Second::None => {}
                Second::PerPanel if first == First::BcgsCholQr2 => {
                    words.extend([bcgs, cholqr]);
                }
                Second::PerPanel => words.push(pip),
                Second::Deferred(threshold) => {
                    let pending = prev - big_start;
                    if flush_due(pending, threshold, j == panels) {
                        words.push(prev * pending);
                        big_start = prev;
                    }
                }
            }
            if j == 0 {
                words.clear();
            }
        }
        words
    }

    /// Short lowercase label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            OrthoKind::Bcgs2CholQr2 => "bcgs2-cholqr2",
            OrthoKind::BcgsPip2 => "bcgs-pip2",
            OrthoKind::BcgsPip => "bcgs-pip",
            OrthoKind::TwoStage { .. } => "two-stage",
            OrthoKind::Cgs2 => "cgs2",
            OrthoKind::RandCholQr => "rand-cholqr",
            OrthoKind::TwoStageSketched { .. } => "two-stage-sketch",
        }
    }
}

/// Construct the orthogonalizer for `kind`: its (first stage, second
/// stage) pair, run by the one engine of [`crate::two_stage`]; the sketched
/// kinds draw the default [`SketchConfig`].
///
/// `total_cols` is the total number of basis columns of a restart cycle
/// (`m + 1`); a deferred second stage needs it to size its bookkeeping.
pub fn make_orthogonalizer(kind: OrthoKind, total_cols: usize) -> Box<dyn BlockOrthogonalizer> {
    Box::new(Scheme::new(kind, total_cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_width_scaling_preserves_flush_cadence_and_is_identity_at_one() {
        for kind in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 20 },
            OrthoKind::RandCholQr,
            OrthoKind::TwoStageSketched { big_panel: 10 },
        ] {
            assert_eq!(kind.for_block_width(1), kind);
        }
        assert_eq!(
            OrthoKind::TwoStage { big_panel: 20 }.for_block_width(4),
            OrthoKind::TwoStage { big_panel: 80 }
        );
        assert_eq!(
            OrthoKind::TwoStageSketched { big_panel: 10 }.for_block_width(2),
            OrthoKind::TwoStageSketched { big_panel: 20 }
        );
        // Width-less kinds are untouched.
        assert_eq!(OrthoKind::BcgsPip2.for_block_width(4), OrthoKind::BcgsPip2);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::BcgsPip,
            OrthoKind::TwoStage { big_panel: 60 },
            OrthoKind::Cgs2,
            OrthoKind::RandCholQr,
            OrthoKind::TwoStageSketched { big_panel: 60 },
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn distinct_episodes_do_not_double_count_across_stages() {
        let first = |cols: Range<usize>| FallbackEvent {
            stage: FallbackStage::PanelPreprocess,
            cols,
            shift: 1e-12,
        };
        let second = |cols: Range<usize>| FallbackEvent {
            stage: FallbackStage::BigPanelFlush,
            cols,
            shift: 1e-10,
        };
        // No events.
        assert_eq!(distinct_fallback_episodes(&[]), 0);
        // Independent first-stage episodes all count.
        assert_eq!(
            distinct_fallback_episodes(&[first(5..10), first(10..15)]),
            2
        );
        // A big-panel flush over a range containing a remediated panel is
        // the same episode, not a second one.
        assert_eq!(
            distinct_fallback_episodes(&[first(5..10), second(0..20)]),
            1
        );
        // A big-panel flush with no remediated panel inside is a new episode.
        assert_eq!(
            distinct_fallback_episodes(&[first(5..10), second(20..40)]),
            2
        );
        // Mixed: two panels inside one flushed big panel still one episode
        // per panel (the flush is a continuation of both).
        assert_eq!(
            distinct_fallback_episodes(&[first(0..5), first(5..10), second(0..10)]),
            2
        );
        // A standalone second-stage episode counts.
        assert_eq!(distinct_fallback_episodes(&[second(0..20)]), 1);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::BcgsPip,
            OrthoKind::TwoStage { big_panel: 10 },
            OrthoKind::Cgs2,
            OrthoKind::RandCholQr,
            OrthoKind::TwoStageSketched { big_panel: 10 },
        ] {
            let o = make_orthogonalizer(kind, 21);
            assert_eq!(o.fallback_count(), 0, "{kind:?}");
        }
    }

    #[test]
    fn sketch_precondition_episodes_count_like_first_stage_events() {
        let sketch = |cols: Range<usize>| FallbackEvent {
            stage: FallbackStage::SketchPrecondition,
            cols,
            shift: 1e-12,
        };
        let second = |cols: Range<usize>| FallbackEvent {
            stage: FallbackStage::BigPanelFlush,
            cols,
            shift: 1e-10,
        };
        // Independent sketched episodes all count.
        assert_eq!(
            distinct_fallback_episodes(&[sketch(5..10), sketch(10..15)]),
            2
        );
        // A big-panel flush over a range containing a sketched remediation
        // is the same episode surfacing in the second stage, not a new one.
        assert_eq!(
            distinct_fallback_episodes(&[sketch(5..10), second(0..20)]),
            1
        );
        // A flush elsewhere is a distinct episode.
        assert_eq!(
            distinct_fallback_episodes(&[sketch(5..10), second(20..40)]),
            2
        );
    }
}
