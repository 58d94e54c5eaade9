//! Low-level orthogonalization kernels on a distributed Krylov basis.
//!
//! Every kernel documents its **global-synchronization count** (the
//! quantity the paper's performance analysis is built on) and its **pass
//! count** — how many times the tall `n×s` panel is swept through memory,
//! the second axis the blocked/fused `dense` kernels optimize.  For
//! reference (a "pass" is one read or read+write sweep of the panel;
//! `prev`-block reads are accounted inside their kernels):
//!
//! | kernel | reduces | panel passes | the stage that runs it |
//! |---|---|---|---|
//! | [`cholqr`] | 1 | 2 (Gram read + TRSM) | BCGS2's per-panel second stage |
//! | [`cholqr2`] | 2 | 4 | BCGS2's first stage |
//! | [`bcgs`] | 1 | 2 (proj read + update) | both stages of BCGS2 |
//! | [`bcgs_pip`] | 1 | 3 (fused proj+Gram read, update, TRSM) | the PIP first stage, the deferred second stage, the sketch's per-panel polish |
//! | its factoring half | 1 | 1 (fused proj+Gram read; the update and TRSM wait for `finish`, and the solver folds them away) | the deferred stage's end-of-cycle flush |
//! | [`bcgs_pip2_fused`] | 2 | 5 (vs 6 for two `bcgs_pip` calls) | BCGS-PIP2's two stages, fused; the shifted remedy |
//! | [`columnwise_cgs2`] | 3·s | O(s) column sweeps | the CGS2 first stage |
//! | sketch pre-conditioning ([`crate::sketched`]) | 1 (sketch slots only) | 3 (sketch read, update, TRSM) | the sketch first stage |
//!
//! **Block panel widths.**  Every kernel takes an arbitrary column range,
//! so a block (multi-RHS) solve with `k` right-hand sides simply submits
//! `k·s`-column panels — the reduce *count* per kernel call is unchanged
//! while each reduce carries the k-scaled payload (the whole point of
//! batching: one synchronization serves k columns).  Per panel of a block
//! cycle with `p = k·(j·s + 1)` previous columns:
//!
//! | kernel | reduces | words per reduce (k-wide block) |
//! |---|---|---|
//! | [`cholqr`] | 1 | (k·s)² |
//! | [`cholqr2`] | 2 | (k·s)² each |
//! | [`bcgs`] | 1 | p·k·s |
//! | [`bcgs_pip`] | 1 | (p + k·s)·k·s |
//! | [`bcgs_pip2_fused`] | 2 | (p + k·s)·k·s each |
//! | sketch pre-conditioning | 1 | rows·nnz·k·s sketch slots |
//!
//! [`OrthoKind::reduce_schedule`](crate::OrthoKind::reduce_schedule) lists
//! these reduces once per scheme, as the words each carries, and
//! `tests/comm_volume_validation.rs` at the repository root pins counts and
//! words against measured `CommStats` for k ∈ {1, 2, 4}, m ∈ {20, 60} and
//! every two-stage `bs` of the paper's Table II sweep.
//!
//! The pass savings of [`bcgs_pip2_fused`] hinge on
//! [`DistMultiVector::update_and_gram`] being a *genuine* single
//! traversal: `dense::fused_update_proj_gram` applies `W = V − Q·P` and
//! accumulates `QᵀW` and `WᵀW` per cache-resident row panel, so the
//! updated rows are consumed while still hot instead of being re-read by
//! separate `gemm_tn`/`gram` sweeps.  With an empty `prev` the call
//! routes (by shape, never by timing) to the dedicated symmetric Gram
//! kernel.
//!
//! All kernels operate in place on column ranges of a [`DistMultiVector`]
//! and return the small replicated factors.

use crate::error::OrthoError;
use dense::Matrix;
use distsim::DistMultiVector;
use std::ops::Range;

/// Cholesky QR of the columns `cols`: factorizes `V = Q·R`, leaving `Q` in
/// place of `V`.
///
/// **1 global reduce** (the Gram matrix).  Fails if the Gram matrix is not
/// numerically positive definite, i.e. `κ(V) ≳ 1/√ε` (condition (1) of the
/// paper).
pub fn cholqr(basis: &mut DistMultiVector, cols: Range<usize>) -> Result<Matrix, OrthoError> {
    let _span = trace::span("ortho", "cholqr", &[("s", (cols.end - cols.start) as u64)]);
    let g = basis.gram(cols.clone());
    let r = dense::cholesky_upper(&g).map_err(|e| OrthoError::CholeskyBreakdown {
        context: "CholQR",
        pivot: e.pivot,
    })?;
    basis.scale_right(cols, &r);
    Ok(r)
}

/// Cholesky QR with reorthogonalization (CholQR2, Fig. 3b of the paper):
/// `R := T·R` where `T` is the factor of the second pass.
///
/// **2 global reduces.**
pub fn cholqr2(basis: &mut DistMultiVector, cols: Range<usize>) -> Result<Matrix, OrthoError> {
    let r1 = cholqr(basis, cols.clone())?;
    let t = cholqr(basis, cols)?;
    Ok(dense::tri_matmul_upper(&t, &r1))
}

/// Block classical Gram–Schmidt projection (Fig. 2a): project the panel
/// `new` against the orthonormal block `prev` and subtract.
///
/// **1 global reduce.**  Returns the projection coefficients
/// `R_{prev,new} = Q_prevᵀ V_new`.
pub fn bcgs(basis: &mut DistMultiVector, prev: Range<usize>, new: Range<usize>) -> Matrix {
    let p = basis.proj(prev.clone(), new.clone());
    basis.update(prev, new, &p);
    p
}

/// BCGS with the Pythagorean inner product (BCGS-PIP, Fig. 4a): project the
/// panel against `prev`, form the Gram matrix of the projected panel via the
/// Pythagorean identity `G_proj = VᵀV − (Q_prevᵀV)ᵀ(Q_prevᵀV)`, factorize,
/// and normalize — all with a **single global reduce** and **3 passes**
/// over the panel (the fused `proj_and_gram` read, the update, the TRSM).
///
/// Returns `(R_prev_new, R_new_new)`.
pub fn bcgs_pip(
    basis: &mut DistMultiVector,
    prev: Range<usize>,
    new: Range<usize>,
) -> Result<(Matrix, Matrix), OrthoError> {
    let _span = trace::span(
        "ortho",
        "bcgs_pip",
        &[
            ("k", (prev.end - prev.start) as u64),
            ("s", (new.end - new.start) as u64),
        ],
    );
    let (p, r_new) = pip_factors(basis, prev.clone(), new.clone())?;
    basis.update(prev, new.clone(), &p);
    basis.scale_right(new, &r_new);
    Ok((p, r_new))
}

/// The factoring half of [`bcgs_pip`]: the fused projection and Gram read
/// (**1 global reduce**, 1 pass), the Pythagorean correction and the
/// Cholesky factorization, leaving the panel as it was.  Returns
/// `(R_prev_new, R_new_new)`; the panel then holds
/// `V = Q_prev·R_prev_new + Q_new·R_new_new`.
pub(crate) fn pip_factors(
    basis: &DistMultiVector,
    prev: Range<usize>,
    new: Range<usize>,
) -> Result<(Matrix, Matrix), OrthoError> {
    let (p, g) = basis.proj_and_gram(prev, new);
    // Pythagorean update of the Gram matrix of the projected panel.
    let correction = dense::gemm_nn(&p.transpose(), &p);
    let g_proj = g.sub(&correction);
    let r_new = dense::cholesky_upper(&g_proj).map_err(|e| OrthoError::CholeskyBreakdown {
        context: "BCGS-PIP",
        pivot: e.pivot,
    })?;
    Ok((p, r_new))
}

/// Fused reorthogonalized BCGS-PIP (the two-sync BCGS-IRO-2S shape with
/// first-pass normalization): orthogonalize the panel `new` against `prev`
/// twice with **2 global reduces** and **5 passes** over the `n×s` panel
/// (down from 6 for two back-to-back [`bcgs_pip`] calls):
///
/// 1. reduce 1: `(P1, G1) = [Q V]ᵀV` ([`DistMultiVector::proj_and_gram`],
///    1 read pass);
/// 2. local: `R1 = chol(G1 − P1ᵀP1)` (shifted Cholesky when `shifted` is
///    set, so any numerically full-rank panel succeeds), then normalize
///    `V ← V·R1⁻¹` (1 pass) — the pass-1 projection is folded into the
///    small factor `P1·R1⁻¹` instead of its own panel sweep;
/// 3. reduce 2: `W = V − Q·(P1·R1⁻¹)` fused with `Y = QᵀW`, `G₂ = WᵀW`
///    ([`DistMultiVector::update_and_gram`], 1 pass);
/// 4. local: `R2 = chol(G₂ − YᵀY)`, then `Q_new = (W − Q·Y)·R2⁻¹`
///    (2 passes).
///
/// Returns `(T_prev, T_new, shift)` with `V = Q_prev·T_prev + Q_new·T_new`,
/// i.e. `T_prev = P1 + Y·R1` and `T_new = R2·R1`; `shift` is the diagonal
/// shift the first-pass shifted Cholesky applied (`0.0` when `shifted` is
/// false, or when the factorization needed none).  With an empty `prev` the
/// sequence degenerates to CholQR2 (same kernel ops, same values).
/// `first_context`/`second_context` label the two Cholesky breakdown sites
/// in errors.
pub fn bcgs_pip2_fused(
    basis: &mut DistMultiVector,
    prev: Range<usize>,
    new: Range<usize>,
    shifted: bool,
    first_context: &'static str,
    second_context: &'static str,
) -> Result<(Matrix, Matrix, f64), OrthoError> {
    let _span = trace::span(
        "ortho",
        "bcgs_pip2_fused",
        &[
            ("k", (prev.end - prev.start) as u64),
            ("s", (new.end - new.start) as u64),
        ],
    );
    // Reduce 1: projection and Gram of the raw panel.
    let (p1, g1) = basis.proj_and_gram(prev.clone(), new.clone());
    let correction = dense::gemm_nn(&p1.transpose(), &p1);
    let g_proj = g1.sub(&correction);
    let mut applied_shift = 0.0;
    let r1 = if shifted {
        dense::shifted_cholesky_upper(&g_proj, basis.global_rows())
            .map(|(r, shift)| {
                applied_shift = shift;
                r
            })
            .map_err(|e| OrthoError::CholeskyBreakdown {
                context: first_context,
                pivot: e.pivot,
            })?
    } else {
        dense::cholesky_upper(&g_proj).map_err(|e| OrthoError::CholeskyBreakdown {
            context: first_context,
            pivot: e.pivot,
        })?
    };
    // Normalize first, so the fused update below works on the
    // well-conditioned panel: W = V·R1⁻¹ − Q·(P1·R1⁻¹) = (V − Q·P1)·R1⁻¹.
    basis.scale_right(new.clone(), &r1);
    let mut p1s = p1.clone();
    dense::trsm_right_upper(&mut p1s.view_mut(), &r1);
    // Reduce 2: update fused with the reorthogonalization inner products.
    let (y, gw) = basis.update_and_gram(prev.clone(), new.clone(), &p1s);
    let corr2 = dense::gemm_nn(&y.transpose(), &y);
    let g2 = gw.sub(&corr2);
    let r2 = dense::cholesky_upper(&g2).map_err(|e| OrthoError::CholeskyBreakdown {
        context: second_context,
        pivot: e.pivot,
    })?;
    basis.update(prev.clone(), new.clone(), &y);
    basis.scale_right(new, &r2);
    // Compose: V = Q_prev·(P1 + Y·R1) + Q_new·(R2·R1).
    let t_prev = dense::gemm_nn(&y, &r1).add(&p1);
    let t_new = dense::tri_matmul_upper(&r2, &r1);
    Ok((t_prev, t_new, applied_shift))
}

/// Column-wise classical Gram–Schmidt with reorthogonalization (CGS2),
/// applied column by column of the panel `new` against every column before
/// the current one — the orthogonalization of standard GMRES.
///
/// This is the "BLAS-1/BLAS-2, `O(s)` synchronizations" kernel class:
/// stable for numerically full-rank panels but communication-bound
/// (**3 global reduces per column**).
///
/// Returns `(R_prev_new, R_new_new)`: the R block of columns `new`, rows
/// `0..new.start` and rows `new`.
pub fn columnwise_cgs2(
    basis: &mut DistMultiVector,
    new: Range<usize>,
) -> Result<(Matrix, Matrix), OrthoError> {
    let _span = trace::span(
        "ortho",
        "columnwise_cgs2",
        &[("s", (new.end - new.start) as u64)],
    );
    let w = new.end - new.start;
    let (mut r_prev, mut r_new) = (Matrix::zeros(new.start, w), Matrix::zeros(w, w));
    for c in new.clone() {
        let rcol = c - new.start;
        if c > 0 {
            // First projection pass.
            let p1 = basis.proj(0..c, c..c + 1);
            basis.update(0..c, c..c + 1, &p1);
            // Reorthogonalization pass.
            let p2 = basis.proj(0..c, c..c + 1);
            basis.update(0..c, c..c + 1, &p2);
            for k in 0..c {
                let rk = p1[(k, 0)] + p2[(k, 0)];
                match k.checked_sub(new.start) {
                    Some(i) => r_new[(i, rcol)] = rk,
                    None => r_prev[(k, rcol)] = rk,
                }
            }
        }
        let norm = basis.norm2(c);
        if norm == 0.0 || !norm.is_finite() {
            return Err(OrthoError::ZeroNorm {
                context: "columnwise CGS2",
                column: c,
            });
        }
        basis.scale_col(c, 1.0 / norm);
        r_new[(rcol, rcol)] = norm;
    }
    Ok((r_prev, r_new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn basis_from(m: &Matrix) -> DistMultiVector {
        DistMultiVector::from_matrix(SerialComm::new(), m.clone())
    }

    fn panel(n: usize, s: usize) -> Matrix {
        Matrix::from_fn(n, s, |i, j| {
            ((i * 31 + j * 17) % 29) as f64 * 0.07 - 1.0 + if i % (j + 2) == 0 { 1.5 } else { 0.0 }
        })
    }

    fn reconstructs(q_cols: &Matrix, r: &Matrix, v: &Matrix, tol: f64) {
        let back = dense::gemm_nn(q_cols, r);
        for j in 0..v.ncols() {
            for i in 0..v.nrows() {
                assert!(
                    (back[(i, j)] - v[(i, j)]).abs() <= tol * v.max_abs(),
                    "({i},{j}): {} vs {}",
                    back[(i, j)],
                    v[(i, j)]
                );
            }
        }
    }

    #[test]
    fn cholqr_orthogonalizes_well_conditioned_panel() {
        let v = panel(400, 5);
        let mut b = basis_from(&v);
        let before = b.comm().stats().snapshot();
        let r = cholqr(&mut b, 0..5).unwrap();
        let delta = b.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1, "CholQR is a single-reduce kernel");
        assert!(orthogonality_error(&b.local().cols(0..5)) < 1e-10);
        reconstructs(b.local(), &r, &v, 1e-12);
    }

    #[test]
    fn cholqr2_reaches_machine_precision_orthogonality() {
        let v = panel(400, 5);
        let mut b = basis_from(&v);
        let before = b.comm().stats().snapshot();
        let r = cholqr2(&mut b, 0..5).unwrap();
        let delta = b.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "CholQR2 uses two reduces");
        assert!(orthogonality_error(&b.local().cols(0..5)) < 1e-14);
        reconstructs(b.local(), &r, &v, 1e-12);
    }

    #[test]
    fn cholqr_fails_on_singular_panel_and_shifted_succeeds() {
        let mut v = panel(100, 3);
        // Make the third column a copy of the first: exactly rank deficient.
        for i in 0..100 {
            let x = v[(i, 0)];
            v[(i, 2)] = x;
        }
        let mut b = basis_from(&v);
        assert!(matches!(
            cholqr(&mut b, 0..3),
            Err(OrthoError::CholeskyBreakdown { .. })
        ));
        // The shifted Cholesky the remedy runs factors the same Gram matrix.
        let b2 = basis_from(&v);
        let (r, shift) = dense::shifted_cholesky_upper(&b2.gram(0..3), b2.global_rows()).unwrap();
        assert!(shift > 0.0);
        assert!(r[(2, 2)] > 0.0);
    }

    #[test]
    fn bcgs_projects_against_previous_block() {
        let v = panel(500, 6);
        let mut b = basis_from(&v);
        // Orthogonalize the first block of 3 columns, then BCGS the rest.
        cholqr2(&mut b, 0..3).unwrap();
        let before = b.comm().stats().snapshot();
        let p = bcgs(&mut b, 0..3, 3..6);
        assert_eq!(b.comm().stats().snapshot().since(&before).allreduces, 1);
        assert_eq!(p.nrows(), 3);
        assert_eq!(p.ncols(), 3);
        // The projected panel must now be orthogonal to the first block.
        let cross = dense::gemm_tn(&b.local().cols(0..3), &b.local().cols(3..6));
        assert!(cross.max_abs() < 1e-10 * v.max_abs());
    }

    #[test]
    fn bcgs_pip_is_single_reduce_and_orthogonalizes() {
        let v = panel(500, 8);
        let mut b = basis_from(&v);
        cholqr2(&mut b, 0..4).unwrap();
        let before = b.comm().stats().snapshot();
        let (p, rnew) = bcgs_pip(&mut b, 0..4, 4..8).unwrap();
        let delta = b.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1, "BCGS-PIP must use a single reduce");
        assert_eq!(p.nrows(), 4);
        assert_eq!(rnew.nrows(), 4);
        // Panel is orthogonal to the previous block and internally orthonormal
        // to the PIP accuracy O(eps * kappa^2).
        let cross = dense::gemm_tn(&b.local().cols(0..4), &b.local().cols(4..8));
        assert!(cross.max_abs() < 1e-8);
        assert!(orthogonality_error(&b.local().cols(4..8)) < 1e-8);
    }

    #[test]
    fn bcgs_pip_with_empty_prev_is_cholqr() {
        let v = panel(200, 4);
        let mut a = basis_from(&v);
        let mut b = basis_from(&v);
        let (_, r_pip) = bcgs_pip(&mut a, 0..0, 0..4).unwrap();
        let r_chol = cholqr(&mut b, 0..4).unwrap();
        for j in 0..4 {
            for i in 0..4 {
                assert!((r_pip[(i, j)] - r_chol[(i, j)]).abs() < 1e-12 * r_chol.max_abs());
            }
        }
    }

    #[test]
    fn bcgs_pip_detects_breakdown_on_dependent_panel() {
        let mut v = panel(200, 6);
        for i in 0..200 {
            let x = v[(i, 1)];
            v[(i, 5)] = x; // column 5 duplicates column 1
        }
        let mut b = basis_from(&v);
        cholqr2(&mut b, 0..3).unwrap();
        assert!(bcgs_pip(&mut b, 0..3, 3..6).is_err());
    }

    #[test]
    fn columnwise_cgs2_orthogonalizes_and_counts_reduces() {
        let v = panel(300, 6);
        let mut b = basis_from(&v);
        cholqr2(&mut b, 0..2).unwrap();
        let before = b.comm().stats().snapshot();
        let (r_prev, r_new) = columnwise_cgs2(&mut b, 2..6).unwrap();
        let delta = b.comm().stats().snapshot().since(&before);
        // 4 columns, each: 2 projections + 1 norm = 3 reduces.
        assert_eq!(delta.allreduces, 12);
        assert!(orthogonality_error(&b.local().cols(0..6)) < 1e-13);
        assert_eq!((r_prev.nrows(), r_prev.ncols()), (2, 4));
        assert_eq!((r_new.nrows(), r_new.ncols()), (4, 4));
        // R diagonal entries (the column norms) are positive.
        for c in 0..4 {
            assert!(r_new[(c, c)] > 0.0);
        }
    }

    #[test]
    fn columnwise_cgs2_zero_column_reports_breakdown() {
        let mut v = panel(100, 3);
        for i in 0..100 {
            v[(i, 2)] = 0.0;
        }
        let mut b = basis_from(&v);
        let err = columnwise_cgs2(&mut b, 0..3).unwrap_err();
        assert!(matches!(err, OrthoError::ZeroNorm { column: 2, .. }));
    }
}
