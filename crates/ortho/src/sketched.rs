//! Sketch-preconditioned orthogonalization (the authors' follow-up,
//! "Random-sketching Techniques to Enhance the Numerical Stability of Block
//! Orthogonalization Algorithms for s-step GMRES", arXiv 2503.16717).
//!
//! The CholQR-family kernels obtain a panel's triangular factor from the
//! Cholesky factorization of its Gram matrix, which squares the panel's
//! condition number: they break down (and take the shifted remedial path)
//! once `κ(panel)` exceeds `~1/√ε`.  The sketched first stage instead draws
//! the factor from a **Householder QR of the sketched panel** `S·W` — a
//! small replicated `c×s` matrix obtained with one allreduce
//! ([`DistMultiVector::sketch`]); the inter-panel projection coefficients
//! come from a *local* sketch-space least squares against the replicated
//! `S·Q` (randomized Gram–Schmidt), so pre-conditioning a panel costs one
//! reduce of just the sketch words.  QR of the sketch is backward stable
//! regardless of `κ(panel)`, so `V·R_s⁻¹` is `O(1)`-conditioned whenever
//! the panel is numerically full rank — the sketched schemes keep going at
//! `κ` where shifted CholQR is already falling back, at identical reduce
//! counts.
//!
//! `SketchState` owns the realized operator and the replicated sketch
//! `S·Q` of the stored basis, maintained *locally* through the same linear
//! updates the basis itself undergoes (sketching is linear), so no extra
//! communication is ever needed.  Two kinds run it as their first stage:
//! [`OrthoKind::RandCholQr`] follows it with one BCGS-PIP polish per panel
//! (2 reduces per panel, like BCGS-PIP2, with `O(ε)` orthogonality far
//! beyond the CholQR crossover), [`OrthoKind::TwoStageSketched`] with the
//! deferred second stage.
//!
//! When the *sketched* panel is numerically rank deficient (the panel
//! truly lost full rank — duplicated Krylov directions, `κ ≳ 1/ε`), the
//! stage takes the same shifted-CholQR remedy as the unsketched family and
//! records a [`FallbackEvent`](crate::FallbackEvent) tagged
//! [`FallbackStage::SketchPrecondition`](crate::FallbackStage::SketchPrecondition),
//! so episode accounting stays honest across families.
//!
//! The solver builds the sketched kinds with the default [`SketchConfig`]
//! (8 sketch rows per basis column, a fixed seed), so every run rebuilds
//! the same operator.  At the
//! solver level the sketched first stage composes with the `Auto` step
//! controller: on a 9-point Laplacian's monomial basis at `s = 10` the
//! plain two-stage scheme's fallback episodes make `Auto` halve the step,
//! while either sketched kind holds the full `s` with no rescue
//! (`tests/breakdown_scenarios.rs::auto_with_sketched_ortho_holds_full_step_where_plain_two_stage_halves`).
//! `bench --bin sketch` sweeps κ × `s` × kind into `BENCH_sketch.json`.
//!
//! [`OrthoKind::RandCholQr`]: crate::OrthoKind::RandCholQr
//! [`OrthoKind::TwoStageSketched`]: crate::OrthoKind::TwoStageSketched

use crate::error::OrthoError;
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig, SketchOp};
use std::ops::Range;

/// Replicated sketching state of the sketched first stage: the realized
/// operator and `S·Q` for every stored basis column (see module docs).
#[derive(Debug)]
pub(crate) struct SketchState {
    op: SketchOp,
    /// `c × total_cols` replicated sketch of the stored basis columns.
    sq: Matrix,
}

impl SketchState {
    pub(crate) fn new(config: &SketchConfig, global_rows: usize, total_cols: usize) -> Self {
        let op = SketchOp::for_basis(config, global_rows, total_cols);
        let sq = Matrix::zeros(op.rows(), total_cols);
        Self { op, sq }
    }

    /// Sketch-precondition the panel `new` against `prev` with **one
    /// global reduce** (the sketch itself): obtain `S·V`, solve the small
    /// replicated least-squares problem `P1 = argmin ‖S·V − S·Q_prev·P1‖`
    /// locally, form `S·W = S·V − S·Q_prev·P1`, factor it with Householder
    /// QR, and — if the panel is numerically full rank — apply `W·R_s⁻¹`
    /// to the basis and record the panel's sketch.  Returns `(P1, R_s)`,
    /// with `V = Q_prev·P1 + V̂·R_s` and `R_s` of positive diagonal.
    ///
    /// The projection coefficients **must** come from the sketch-space
    /// least squares, not the full-space Gram `Q_prevᵀ·V`: pre-conditioned
    /// columns are orthonormal only *under the sketch* (κ ≈ 1 + ζ in full
    /// space, with ζ the sketch distortion), so a Gram projection against
    /// them leaves `O(ζ)`-sized leftovers along previous directions — on
    /// ill-conditioned inputs those leftovers dominate the panel's genuine
    /// new content and the joint basis conditioning collapses.  The LS
    /// residual is orthogonal to `range(S·Q_prev)` *by construction*, which
    /// keeps `S·[Q, V̂]` orthonormal and hence `κ([Q, V̂]) = O(1)`
    /// regardless of `κ(V)` (Balabanov & Grigori, randomized GS).
    ///
    /// A sketched factor with a numerically zero diagonal — the panel lost
    /// full rank even under the sketch's bounded distortion — is refused as
    /// a breakdown at that pivot: the basis is left as it was, and the
    /// stored sketch of `new` holds `S·V` of the raw panel, the base the
    /// remedy's update is mirrored from ([`Self::refresh_block`]).
    pub(crate) fn preprocess(
        &mut self,
        basis: &mut DistMultiVector,
        prev: Range<usize>,
        new: Range<usize>,
    ) -> Result<(Matrix, Matrix), OrthoError> {
        let s = new.end - new.start;
        let k = prev.end - prev.start;
        let sv = basis.sketch(&self.op, new.clone());
        // S·W = S·V − S·Q_prev·P1 (local: sketching is linear and S·Q_prev
        // is replicated).  P1 solves the normal equations of the sketch-
        // space LS; the Gram of S·Q_prev is O(1)-conditioned by the scheme
        // invariant (stored sketches are orthonormal up to distortion), so
        // Cholesky is safe — if it still breaks, fall back to the one-pass
        // sketch-space CGS coefficients (graceful degradation; stage 2 or
        // the polish pass still guarantees correctness).
        let mut sw = sv.clone();
        let p1 = if prev.is_empty() {
            Matrix::zeros(0, s)
        } else {
            let sq_prev = self.sq.cols(prev.clone());
            let rhs = dense::gemm_tn(&sq_prev, &sv.view());
            let p1 = match dense::cholesky_upper(&dense::gram(&sq_prev)) {
                Ok(u) => {
                    let mut x = Matrix::zeros(k, s);
                    for j in 0..s {
                        let y = dense::tri_solve_upper_transpose(&u, rhs.col(j));
                        x.col_mut(j)
                            .copy_from_slice(&dense::tri_solve_upper(&u, &y));
                    }
                    x
                }
                Err(_) => rhs,
            };
            let mut w = sw.cols_mut(0..s);
            dense::gemm_nn_minus(&mut w, &sq_prev, &p1);
            p1
        };
        let (_, mut r_s) = dense::householder_qr(&sw);
        // Householder QR does not fix diagonal signs; flip rows so R_s has
        // a non-negative diagonal (the crate-wide R convention).
        for i in 0..s {
            if r_s[(i, i)] < 0.0 {
                for j in i..s {
                    r_s[(i, j)] = -r_s[(i, j)];
                }
            }
        }
        // Rank screen on the sketched factor: no triangular solve can
        // repair a numerically zero diagonal.
        let tol = 32.0 * f64::EPSILON * r_s.max_abs();
        if let Some(pivot) = (0..s).position(|i| r_s[(i, i)] <= tol) {
            self.store(new, &sv);
            return Err(OrthoError::CholeskyBreakdown {
                context: "sketched panel QR",
                pivot,
            });
        }
        if !prev.is_empty() {
            basis.update(prev, new.clone(), &p1);
        }
        basis.scale_right(new.clone(), &r_s);
        // The panel's sketch is S·V̂ = S·W·R_s⁻¹, computed on the already
        // replicated small block.
        {
            let mut w = sw.cols_mut(0..s);
            dense::trsm_right_upper(&mut w, &r_s);
        }
        self.store(new, &sw);
        Ok((p1, r_s))
    }

    /// Re-derive the sketch of the basis columns `cols` after they were
    /// rewritten as `Q_new = (stored − Q_prev·T_prev)·T_new⁻¹` (the update
    /// every BCGS-PIP / shifted pass applies), from the sketch of their
    /// previous contents.  Local and replicated.
    pub(crate) fn refresh_block(&mut self, cols: Range<usize>, t_prev: &Matrix, t_new: &Matrix) {
        let w = cols.end - cols.start;
        let mut block = self.sq.cols_owned(cols.clone());
        if cols.start > 0 {
            let mut b = block.cols_mut(0..w);
            dense::gemm_nn_minus(&mut b, &self.sq.cols(0..cols.start), t_prev);
        }
        {
            let mut b = block.cols_mut(0..w);
            dense::trsm_right_upper(&mut b, t_new);
        }
        self.store(cols, &block);
    }

    /// Record `block` as the sketch of the stored columns `cols`.
    fn store(&mut self, cols: Range<usize>, block: &Matrix) {
        for (jj, col) in cols.enumerate() {
            self.sq.col_mut(col).copy_from_slice(block.col(jj));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_stage::Scheme;
    use crate::{BlockOrthogonalizer, FallbackStage, OrthoKind};
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn rand_cholqr(config: SketchConfig, total_cols: usize) -> Scheme {
        let mut scheme = Scheme::new(OrthoKind::RandCholQr, total_cols);
        scheme.sketch_config = config;
        scheme
    }

    fn run(v: &Matrix, panel: usize, config: SketchConfig) -> (Matrix, Matrix, Scheme) {
        let mut scheme = rand_cholqr(config, v.ncols());
        let (q, r) = crate::orthogonalize_with(&mut scheme, v, panel).unwrap();
        (q, r, scheme)
    }

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 23 + j * 5) % 29) as f64 * 0.09 - 1.2
                + if (i + 2 * j) % 7 == 0 { 1.4 } else { 0.0 }
        })
    }

    #[test]
    fn orthogonality_and_reconstruction_on_benign_input() {
        let v = test_matrix(500, 12);
        let (q, r, scheme) = run(&v, 4, SketchConfig::default());
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-13, "orthogonality error {err}");
        assert!(scheme.fallback_events().is_empty());
        let back = dense::gemm_nn(&q, &r);
        for j in 0..12 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs());
            }
        }
        // R upper triangular with positive diagonal.
        for i in 0..12 {
            assert!(r[(i, i)] > 0.0);
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn two_reduces_per_panel_like_pip2() {
        let v = test_matrix(300, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = rand_cholqr(SketchConfig::default(), 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "sketch+polish must be 2 reduces");
    }

    #[test]
    fn survives_kappa_1e12_without_fallback() {
        // κ = 1e12 is far beyond the ~1e8 CholQR crossover; the sketched
        // factor must absorb it with zero remedial episodes and O(ε)
        // orthogonality.
        let v = testmat::logscaled_matrix(400, 8, 1e12, 5);
        let (q, _, scheme) = run(&v, 4, SketchConfig::default());
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-12, "orthogonality error {err} at kappa 1e12");
        assert_eq!(
            scheme.fallback_count(),
            0,
            "sketched scheme must not fall back at kappa 1e12"
        );
    }

    #[test]
    fn rank_deficient_panel_reports_or_remediates_with_tagged_events() {
        // A duplicated column makes the panel exactly rank deficient: the
        // scheme must either report an error or succeed via the tagged
        // remedial path — never silently produce garbage.
        let mut v = test_matrix(300, 6);
        for i in 0..300 {
            let x = v[(i, 1)];
            v[(i, 4)] = x;
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = rand_cholqr(SketchConfig::default(), 6);
        scheme
            .orthogonalize_panel(&mut basis, 0..3, &mut r)
            .unwrap();
        match scheme.orthogonalize_panel(&mut basis, 3..6, &mut r) {
            Ok(()) => {
                assert!(
                    scheme
                        .fallback_events()
                        .iter()
                        .all(|e| e.stage == FallbackStage::SketchPrecondition),
                    "sketched remediation must carry the sketch stage tag"
                );
                assert!(!scheme.fallback_events().is_empty());
            }
            Err(e) => {
                let _ = e.to_string(); // reported, never silent
            }
        }
    }

    #[test]
    fn seed_changes_the_factors_but_not_correctness() {
        let v = testmat::logscaled_matrix(350, 9, 1e8, 2);
        let (q1, r1, _) = run(
            &v,
            3,
            SketchConfig {
                seed: 1,
                ..SketchConfig::default()
            },
        );
        let (q2, r2, _) = run(
            &v,
            3,
            SketchConfig {
                seed: 2,
                ..SketchConfig::default()
            },
        );
        assert!(orthogonality_error(&q1.view()) < 1e-12);
        assert!(orthogonality_error(&q2.view()) < 1e-12);
        // Different seeds steer through different sketches; the final R
        // factors still reconstruct the same input.
        for (q, r) in [(&q1, &r1), (&q2, &r2)] {
            let back = dense::gemm_nn(q, r);
            for j in 0..9 {
                for i in 0..350 {
                    assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-8 * v.max_abs());
                }
            }
        }
    }
}
