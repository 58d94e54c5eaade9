//! The all-reduce schedule of each block orthogonalization scheme.
//!
//! A scheme's restart cycle is stated once, by `schedule`, as the list of
//! its all-reduces (`Step`s) in the order the `blockortho` crate issues them
//! (Figs. 2–5 of the paper).  Every public quantity is a fold over that
//! list: the reduce count is its length, the reduced words the sum of
//! `Step::words` — so the two cannot disagree.  The two-stage kinds close a
//! big panel where [`blockortho::two_stage::flush_due`] says so, the
//! predicate `TwoStage` itself calls.  `tests/comm_volume_validation.rs`
//! checks counts and words against `distsim` communicator statistics of real
//! runs over the paper's Table II shapes; the paper's closed forms are the
//! unit tests' oracle.

use blockortho::two_stage::flush_due;

/// The orthogonalization schemes whose performance the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Standard GMRES with column-wise CGS2 (`s = 1`).
    StandardCgs2,
    /// Original s-step GMRES: BCGS2 with CholQR2.
    Bcgs2CholQr2,
    /// The paper's one-stage improvement: BCGS-PIP2.
    BcgsPip2,
    /// The paper's two-stage scheme with second step size `bs` (in columns).
    TwoStage {
        /// Second-stage block size.
        bs: usize,
    },
    /// Randomized CholQR (the sketched one-stage scheme): one sketch reduce
    /// plus one BCGS-PIP polish per panel.  Same 2 reduces per panel as
    /// BCGS-PIP2; the first reduce carries the `rows·nnz·s` sketch slots
    /// only (see [`sketch_reduce_words`]), the projection coming locally
    /// from the replicated `S·Q`.
    RandCholQr {
        /// Sketch rows `c` of the realized operator
        /// (`SketchOp::rows()`, i.e. `rows_per_col · (m + 1)`).
        rows: usize,
        /// Nonzero samples per sketch row (`SKETCH_NNZ_PER_ROW`).
        nnz: usize,
    },
    /// The two-stage scheme with the sketched first stage: the per-panel
    /// reduce carries the sketch slots only, instead of the fused
    /// projection and Gram; the big-panel flush is unchanged.  Same reduce
    /// *count* as [`TwoStage`](Self::TwoStage).
    TwoStageSketched {
        /// Second-stage block size.
        bs: usize,
        /// Sketch rows `c` of the realized operator.
        rows: usize,
        /// Nonzero samples per sketch row.
        nnz: usize,
    },
}

/// Words one sketched-panel allreduce carries for an `s`-column panel over
/// a sketch with `rows` rows of `nnz` samples each: the slot-exchange
/// payload is one word per (sketch row, sample, panel column).  Mirrors
/// `SketchOp::reduce_words` in `distsim` exactly — the join is pinned by
/// `tests/comm_volume_validation.rs`.
pub fn sketch_reduce_words(rows: usize, nnz: usize, s: usize) -> usize {
    rows * nnz * s
}

/// One all-reduce of a restart cycle.  `prev` counts the columns the panel
/// is projected against, `width` the columns of the panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// BCGS projection (`QᵀV` + update).
    Bcgs { prev: usize, width: usize },
    /// CholQR of the panel.
    CholQr { width: usize },
    /// BCGS-PIP: projection + Gram fused in one pass (`[Q, V]ᵀV`), update,
    /// TRSM.
    Pip { prev: usize, width: usize },
    /// Sketched pre-conditioning: one reduce of the `rows·nnz·width` sketch
    /// slots (the projection coefficients come *locally* from the replicated
    /// `S·Q`, so the reduce carries no `prev·width` block).
    Sketch {
        width: usize,
        rows: usize,
        nnz: usize,
    },
    /// Norm of one column (column-wise CGS2's normalization).
    ColNorm,
}

impl Step {
    /// `f64` words this step all-reduces.
    fn words(&self) -> usize {
        match *self {
            Step::Bcgs { prev, width } => prev * width,
            Step::CholQr { width } => width * width,
            Step::Pip { prev, width } => (prev + width) * width,
            Step::Sketch { width, rows, nnz } => sketch_reduce_words(rows, nnz, width),
            Step::ColNorm => 1,
        }
    }
}

/// The all-reduces of one restart cycle of `m` block steps with step size
/// `s` and `k` right-hand sides, in the order the `blockortho` schemes
/// issue them (Figs. 2–5 of the paper) — the one place the crate enumerates
/// panels per scheme.
///
/// The cycle is replayed from its residual block (`k` columns) and the
/// steps of that first panel are dropped: it is cycle setup, identical for
/// every scheme.  Each later panel carries `k·s` columns; column-wise CGS2
/// takes the `k·m` generated columns one at a time whatever `s` is.  The
/// two-stage kinds close a big panel where
/// [`blockortho::two_stage::flush_due`] says `TwoStage` does, with the
/// threshold `k·bs` that `OrthoKind::for_block_width` hands it.
fn schedule(scheme: SchemeKind, m: usize, s: usize, k: usize) -> Vec<Step> {
    assert!(k >= 1, "block width must be at least 1");
    let (panels, panel_width) = if scheme == SchemeKind::StandardCgs2 {
        (k * m, 1)
    } else {
        (m / s, k * s)
    };
    let mut steps = Vec::new();
    let mut prev = 0; // columns before the current panel
    let mut big_start = 0; // columns before the current big panel
    for j in 0..=panels {
        let width = if j == 0 { k } else { panel_width };
        let (bcgs, cholqr, pip) = (
            Step::Bcgs { prev, width },
            Step::CholQr { width },
            Step::Pip { prev, width },
        );
        let sketch = |rows, nnz| Step::Sketch { width, rows, nnz };
        let bs = match scheme {
            SchemeKind::StandardCgs2 => {
                steps.extend([bcgs, bcgs, Step::ColNorm]);
                None
            }
            SchemeKind::Bcgs2CholQr2 => {
                // BCGS + CholQR2 + BCGS + CholQR (Fig. 2b).
                steps.extend([bcgs, cholqr, cholqr, bcgs, cholqr]);
                None
            }
            SchemeKind::BcgsPip2 => {
                steps.extend([pip, pip]);
                None
            }
            SchemeKind::RandCholQr { rows, nnz } => {
                steps.extend([sketch(rows, nnz), pip]);
                None
            }
            SchemeKind::TwoStage { bs } => {
                steps.push(pip);
                Some(bs)
            }
            SchemeKind::TwoStageSketched { bs, rows, nnz } => {
                steps.push(sketch(rows, nnz));
                Some(bs)
            }
        };
        prev += width;
        if let Some(bs) = bs {
            let pending = prev - big_start;
            if flush_due(pending, k * bs, j == panels) {
                steps.push(Step::Pip {
                    prev: big_start,
                    width: pending,
                });
                big_start = prev;
            }
        }
        if j == 0 {
            steps.clear();
        }
    }
    steps
}

/// Number of global reductions one restart cycle of `m` basis vectors needs
/// — [`block_ortho_reduce_count`] at `k = 1`.
pub fn ortho_reduce_count(scheme: SchemeKind, m: usize, s: usize) -> usize {
    block_ortho_reduce_count(scheme, m, s, 1)
}

/// Total number of `f64` words all-reduced by the orthogonalization of one
/// restart cycle — [`block_ortho_cycle_words`] at `k = 1`.
pub fn ortho_cycle_words(scheme: SchemeKind, m: usize, s: usize) -> usize {
    block_ortho_cycle_words(scheme, m, s, 1)
}

/// Number of global reductions one restart cycle of a **block** solve with
/// `k` right-hand sides needs: the number of steps of the schedule.  `m`
/// and `s` stay in block steps (each MPK panel carries `k·s` columns); `bs`
/// stays in *scalar* columns.
///
/// For every panel-blocked scheme the count is **independent of `k`**: the
/// schedule has `m / s` panels regardless of width, and the two-stage
/// accumulated width and its threshold both scale by `k`, so the flush
/// fires on exactly the panels the scalar cadence fires on.  Only
/// column-wise CGS2 scales with `k` (it pays 3 reduces per *column*,
/// honestly reported here).
pub fn block_ortho_reduce_count(scheme: SchemeKind, m: usize, s: usize, k: usize) -> usize {
    schedule(scheme, m, s, k).len()
}

/// Total `f64` words all-reduced by one **block** restart cycle: the sum of
/// the steps' words.  Sketched reduces carry `rows·nnz·k·s` slot words
/// (`rows` is the realized sketch height, `rows_per_col · k·(m + 1)`).
/// While the reduce *count* stays flat in `k`, the words grow ~`k²` — the
/// latency-vs-bandwidth trade the batched solver makes.
///
/// `tests/comm_volume_validation.rs` asserts counts and words against the
/// `CommStats` measured from running the real schemes on the `distsim`
/// substrate, over m ∈ {20, 60}, bs ∈ {5, …, 60} and k ∈ {1, 2, 4}.
pub fn block_ortho_cycle_words(scheme: SchemeKind, m: usize, s: usize, k: usize) -> usize {
    schedule(scheme, m, s, k).iter().map(Step::words).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's per-cycle reduce counts in closed form — the oracle the
    /// schedule is checked against (the two-stage form holds for `bs` a
    /// multiple of `s`).
    fn closed_form_reduces(scheme: SchemeKind, m: usize, s: usize, k: usize) -> usize {
        match scheme {
            SchemeKind::StandardCgs2 => 3 * k * m,
            SchemeKind::Bcgs2CholQr2 => 5 * (m / s),
            SchemeKind::BcgsPip2 | SchemeKind::RandCholQr { .. } => 2 * (m / s),
            SchemeKind::TwoStage { bs } | SchemeKind::TwoStageSketched { bs, .. } => {
                m / s + m.div_ceil(bs)
            }
        }
    }

    #[test]
    fn reduce_counts_match_closed_forms() {
        let m = 60;
        let s = 5;
        for scheme in [
            SchemeKind::StandardCgs2,
            SchemeKind::Bcgs2CholQr2,
            SchemeKind::BcgsPip2,
            SchemeKind::TwoStage { bs: 60 },
            SchemeKind::TwoStage { bs: 20 },
            SchemeKind::TwoStage { bs: 5 },
            SchemeKind::RandCholQr { rows: 488, nnz: 4 },
            SchemeKind::TwoStageSketched {
                bs: 20,
                rows: 488,
                nnz: 4,
            },
        ] {
            assert_eq!(
                ortho_reduce_count(scheme, m, s),
                closed_form_reduces(scheme, m, s, 1),
                "{scheme:?}"
            );
            for k in [2usize, 4] {
                assert_eq!(
                    block_ortho_reduce_count(scheme, m, s, k),
                    closed_form_reduces(scheme, m, s, k),
                    "{scheme:?} at k = {k}"
                );
            }
        }
    }

    #[test]
    fn modeled_reduce_counts_match_measured_counts() {
        // Run the actual schemes on a small problem and compare the measured
        // all-reduce counts (excluding the initial single-column panel, which
        // the model folds into the cycle setup) against the model.
        use blockortho::{make_orthogonalizer, OrthoKind};
        use distsim::{DistMultiVector, SerialComm};
        let m = 20;
        let s = 5;
        let v = dense::Matrix::from_fn(300, m + 1, |i, j| {
            ((i * 7 + j * 3) % 13) as f64 * 0.2 + if i == j { 3.0 } else { 0.0 }
        });
        let pairs = [
            (OrthoKind::Bcgs2CholQr2, SchemeKind::Bcgs2CholQr2),
            (OrthoKind::BcgsPip2, SchemeKind::BcgsPip2),
            (
                OrthoKind::TwoStage { big_panel: 20 },
                SchemeKind::TwoStage { bs: 20 },
            ),
            (
                OrthoKind::TwoStage { big_panel: 10 },
                SchemeKind::TwoStage { bs: 10 },
            ),
            (
                OrthoKind::RandCholQr,
                // rows = rows_per_col (8, default) · total_cols (21).
                SchemeKind::RandCholQr { rows: 168, nnz: 4 },
            ),
            (
                OrthoKind::TwoStageSketched { big_panel: 10 },
                SchemeKind::TwoStageSketched {
                    bs: 10,
                    rows: 168,
                    nnz: 4,
                },
            ),
        ];
        for (kind, scheme) in pairs {
            let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            let mut r = dense::Matrix::zeros(m + 1, m + 1);
            let mut ortho = make_orthogonalizer(kind, m + 1);
            ortho.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
            let before = basis.comm().stats().snapshot();
            let mut col = 1;
            while col < m + 1 {
                ortho
                    .orthogonalize_panel(&mut basis, col..col + s, &mut r)
                    .unwrap();
                col += s;
            }
            ortho.finish(&mut basis, &mut r).unwrap();
            let measured = basis.comm().stats().snapshot().since(&before).allreduces;
            let modeled = ortho_reduce_count(scheme, m, s);
            assert_eq!(measured, modeled, "{scheme:?}");
        }
    }

    #[test]
    fn block_closed_forms_collapse_to_scalar_at_width_one() {
        let m = 60;
        let s = 5;
        for scheme in [
            SchemeKind::StandardCgs2,
            SchemeKind::Bcgs2CholQr2,
            SchemeKind::BcgsPip2,
            SchemeKind::TwoStage { bs: 60 },
            SchemeKind::TwoStage { bs: 20 },
            SchemeKind::RandCholQr { rows: 488, nnz: 4 },
            SchemeKind::TwoStageSketched {
                bs: 20,
                rows: 488,
                nnz: 4,
            },
        ] {
            assert_eq!(
                block_ortho_reduce_count(scheme, m, s, 1),
                ortho_reduce_count(scheme, m, s),
                "{scheme:?}: counts"
            );
            assert_eq!(
                block_ortho_cycle_words(scheme, m, s, 1),
                ortho_cycle_words(scheme, m, s),
                "{scheme:?}: words"
            );
        }
    }

    #[test]
    fn block_reduce_count_is_width_independent_for_panel_schemes() {
        // The batched-solver headline in closed form: the reduce count of
        // every panel-blocked scheme is flat in k (only column-wise CGS2
        // pays per column), while the words scale superlinearly.
        let m = 60;
        let s = 5;
        for scheme in [
            SchemeKind::Bcgs2CholQr2,
            SchemeKind::BcgsPip2,
            SchemeKind::TwoStage { bs: 20 },
            SchemeKind::TwoStageSketched {
                bs: 20,
                rows: 488,
                nnz: 4,
            },
        ] {
            let base = block_ortho_reduce_count(scheme, m, s, 1);
            for k in [2usize, 4, 8] {
                assert_eq!(
                    block_ortho_reduce_count(scheme, m, s, k),
                    base,
                    "{scheme:?} at k = {k}"
                );
                assert!(
                    block_ortho_cycle_words(scheme, m, s, k)
                        >= k * block_ortho_cycle_words(scheme, m, s, 1),
                    "{scheme:?} at k = {k}: words must grow at least linearly"
                );
            }
        }
        assert_eq!(
            block_ortho_reduce_count(SchemeKind::StandardCgs2, m, 1, 4),
            4 * ortho_reduce_count(SchemeKind::StandardCgs2, m, 1)
        );
    }
}
