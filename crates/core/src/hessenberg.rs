//! Hessenberg recovery for s-step GMRES.
//!
//! Standard GMRES builds the upper-Hessenberg matrix `H` (with
//! `A·Q_{0:k−1} = Q_{0:k}·H`) directly from its orthogonalization
//! coefficients.  The s-step variant instead recovers `H` from the R factor
//! of the block QR factorization and the change-of-basis information — the
//! paper writes this as `H = R·T·R⁻¹` (Fig. 1, line 14).  We implement the
//! equivalent column-by-column recurrence, which handles all the cases that
//! occur in practice:
//!
//! For each generated column `c+1`, the matrix-powers kernel computed
//! `w_{c+1} = (A − θ_c·I)·u_c`, where the input `u_c` is some vector whose
//! representation `t_c` in the *final* orthonormal basis is known:
//!
//! * `u_c` was the raw Krylov vector stored in column `c` → `t_c = R[:, c]`;
//! * `u_c` was the column `c` *after* it had been handed to the
//!   orthogonalizer (a panel-start column) while it was still pending → `t_c`
//!   is the orthogonalizer's stored-basis coefficient column (identity for
//!   one-stage schemes, the second-stage `T` factor for the two-stage scheme
//!   once its big panel is flushed);
//! * `u_c` was handed to the orthogonalizer and was already *final* when
//!   the kernel read it (a two-stage big panel flushed before the next panel
//!   started from its last column) → `u_c = Q_c`, so `t_c = e_c` whatever
//!   the flush wrote into the coefficient column.
//!
//! From `A·u_c = w_{c+1} + θ_c·u_c` and `W = Q·R` it follows that
//! `H·t_c = R[:, c+1] + θ_c·t_c`, and since `t_c` is upper triangular with a
//! nonzero diagonal this determines the Hessenberg columns one at a time.
//!
//! **Stored-basis coordinates.**  The same recurrence holds for the columns
//! a delayed scheme has only pre-processed, with `Q` read as the *stored*
//! basis (final columns, then the pending pre-processed ones), `R` as the
//! first-stage factor and the coefficient column of a pending input as
//! `e_c` — which is what a two-stage scheme reports before its flush.  That
//! basis is well conditioned but not orthonormal, so a least-squares
//! residual over it is an estimate.  A flush rewrites `R` and the
//! coefficients of exactly the columns it finalizes; [`HessenbergRecovery`]
//! forgets the columns that read them and recovers them again in the final
//! basis, and no others.
//!
//! **Block generalization.**  With a block right-hand side of `kb` columns
//! the matrix-powers kernel maps input column `c` to output column `c + kb`
//! (the columns of one block step are interleaved), so the recurrence
//! becomes `Hb·t_c = R[:, c + kb] + θ_c·t_c` with `θ_c` indexed by the
//! *block step* `c / kb`, and `Hb` is band upper-Hessenberg with lower
//! bandwidth `kb`.  [`HessenbergRecovery::with_block_width`] runs exactly
//! this recurrence; at `kb = 1` it is bitwise the scalar recovery.

use crate::basis;
use dense::Matrix;

// What basis column `c` held when the matrix-powers kernel read it as an
// input, which decides its representation `t_c` (see the module docs).
/// The raw Krylov vector: `t_c = R[:, c]`.
const RAW: u8 = 0;
/// Handed to the orthogonalizer, not yet final: `t_c` is the stored-basis
/// coefficient column.
const PENDING: u8 = 1;
/// Handed to the orthogonalizer and already final: `t_c = e_c`.
const FINAL: u8 = 2;

/// Incremental Hessenberg recovery for one restart cycle.
#[derive(Debug)]
pub struct HessenbergRecovery {
    /// `total_cols × (total_cols − width)` band Hessenberg matrix being
    /// recovered (`(m+1) × m` in the scalar case).
    h: Matrix,
    /// Number of columns of `h` recovered so far.
    recovered: usize,
    /// Number of leading basis columns that were final when `h` was last
    /// recovered; the columns after them were read in stored-basis
    /// coordinates.
    finalized: usize,
    /// What each basis column held when it was used as an MPK input
    /// ([`RAW`], [`PENDING`] or [`FINAL`]).  Bytes with `RAW` = 0, so the
    /// vector is allocated zeroed: the allocator places a zeroed block
    /// elsewhere than a filled one, and on the `lap2d_k4` benchmark
    /// workload that placement alone moves a whole one-stage solve by
    /// 15 %.
    inputs: Vec<u8>,
    /// Block width `kb` of the right-hand-side block (1 = single RHS).
    width: usize,
}

impl HessenbergRecovery {
    /// Create the recovery bookkeeping for a **block** cycle: a basis of
    /// `total_cols` columns built from an initial residual block of
    /// `width` columns (so at most `total_cols − width` MPK input columns
    /// exist).  `with_block_width(m + 1, 1)` is the single right-hand-side
    /// case: at most `m` generated columns in a basis of `m + 1`.
    pub fn with_block_width(total_cols: usize, width: usize) -> Self {
        assert!(width >= 1, "block width must be at least 1");
        assert!(
            total_cols > width,
            "basis must be wider than the residual block"
        );
        Self {
            h: Matrix::zeros(total_cols, total_cols - width),
            recovered: 0,
            finalized: 0,
            inputs: vec![RAW; total_cols],
            width,
        }
    }

    /// Record that column `c` had already been submitted to the
    /// orthogonalizer when the matrix-powers kernel used it as a starting
    /// vector (i.e. `c` is a panel-start input), at a time when the leading
    /// `finalized` columns were final.
    pub fn mark_submitted_input(&mut self, c: usize, finalized: usize) {
        self.inputs[c] = if c < finalized { FINAL } else { PENDING };
    }

    /// Bring the recovery up to date with the orthogonalizer's boundary of
    /// final columns: when it has moved, a flush rewrote the `R` entries and
    /// coefficient columns of the columns it finalized, so every Hessenberg
    /// column that read one — those from the old boundary minus the block
    /// width on — is recovered again.  Columns before that stay as they are.
    pub(crate) fn rewind(&mut self, finalized: usize) {
        if finalized != self.finalized {
            self.recovered = self
                .recovered
                .min(self.finalized.saturating_sub(self.width));
            self.finalized = finalized;
        }
    }

    /// Number of Hessenberg columns recovered so far.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// The (m+1)×m Hessenberg matrix (only the leading `recovered()` columns
    /// are meaningful).
    pub fn matrix(&self) -> &Matrix {
        &self.h
    }

    /// Recover Hessenberg columns up to (excluding) `upto`, given the current
    /// `R` factor, the orthogonalizer's stored basis coefficients (`None` =
    /// identity), and the Krylov basis's shift list (empty = monomial).
    /// Columns that read entries not yet final come out in stored-basis
    /// coordinates; the solver rewinds the recovery first whenever the final
    /// boundary may have moved.
    ///
    /// Panics if a diagonal coefficient needed for the recurrence is zero —
    /// that can only happen after an orthogonalization breakdown, which the
    /// solver must have handled already.
    pub fn recover_upto(
        &mut self,
        upto: usize,
        r: &Matrix,
        coeffs: Option<&Matrix>,
        shifts: &[f64],
    ) {
        let mrows = self.h.nrows();
        let kb = self.width;
        while self.recovered < upto {
            let c = self.recovered;
            // Representation of the MPK input u_c in the (stored) basis.
            let mut t = vec![0.0; c + 1];
            match (self.inputs[c], coeffs) {
                (RAW, _) => {
                    for (i, ti) in t.iter_mut().enumerate() {
                        *ti = r[(i, c)];
                    }
                }
                (PENDING, Some(cm)) => {
                    for (i, ti) in t.iter_mut().enumerate() {
                        *ti = cm[(i, c)];
                    }
                }
                // PENDING with identity coefficients, or FINAL.
                _ => t[c] = 1.0,
            }
            // Shifts are per *block step*: input column c belongs to block
            // step c / kb (at kb = 1 this is c itself).
            let theta = basis::shift(shifts, c / kb);
            // Numerator: R[:, c+kb] + theta * t − Σ_{k<c} H[:,k]·t[k].
            let mut num = vec![0.0; mrows];
            for i in 0..(c + kb + 1).min(mrows) {
                num[i] = r[(i, c + kb)];
            }
            if theta != 0.0 {
                for (i, &ti) in t.iter().enumerate() {
                    num[i] += theta * ti;
                }
            }
            for (k, &tk) in t.iter().enumerate().take(c) {
                if tk != 0.0 {
                    for (i, entry) in num.iter_mut().enumerate().take((k + kb + 1).min(mrows)) {
                        *entry -= self.h[(i, k)] * tk;
                    }
                }
            }
            let tc = t[c];
            assert!(
                tc != 0.0,
                "Hessenberg recovery: zero diagonal coefficient at column {c}"
            );
            for (i, entry) in num.iter().enumerate().take((c + kb + 1).min(mrows)) {
                self.h[(i, c)] = entry / tc;
            }
            self.recovered += 1;
        }
    }

    /// Solve the projected least-squares problem for the first `k` recovered
    /// columns: `min_y ‖beta·e₁ − H_{1:k+1,1:k}·y‖₂`.
    ///
    /// Returns `(y, residual_estimate)`.
    pub fn least_squares(&self, k: usize, beta: f64) -> (Vec<f64>, f64) {
        assert!(k <= self.recovered, "cannot solve beyond recovered columns");
        debug_assert_eq!(self.width, 1, "use block_least_squares for width > 1");
        let mut hk = Matrix::zeros(k + 1, k);
        for j in 0..k {
            for i in 0..=(j + 1) {
                hk[(i, j)] = self.h[(i, j)];
            }
        }
        dense::hessenberg_lsq(&hk, beta)
    }

    /// Solve the projected block least-squares problem for the first `k`
    /// recovered columns: per right-hand-side column `q` of `rhs` (each of
    /// length `k + width`), `min_y ‖rhs[:, q] − Hb_{1:k+width,1:k}·y‖₂`.
    ///
    /// The block solver's right-hand sides are the residual block's
    /// coordinates in the orthonormal basis, `γ_q · S[:, q]` zero-padded
    /// (with `S` the leading `width × width` block of the R factor) — the
    /// honest block-GMRES coupling; the scalar path's `β·e₁` convention is
    /// the `width = 1`, `S = [1]` special case.
    ///
    /// Returns `(Y, residual_estimates)` with `Y` of shape `k × rhs.ncols()`.
    pub fn block_least_squares(&self, k: usize, rhs: &Matrix) -> (Matrix, Vec<f64>) {
        assert!(k <= self.recovered, "cannot solve beyond recovered columns");
        assert_eq!(rhs.nrows(), k + self.width, "rhs rows must be k + width");
        let mut hk = Matrix::zeros(k + self.width, k);
        for j in 0..k {
            for i in 0..=(j + self.width).min(k + self.width - 1) {
                hk[(i, j)] = self.h[(i, j)];
            }
        }
        dense::band_hessenberg_lsq(&hk, self.width, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: build W column by column with w_{c+1} = A u_c where
    /// u_c is w_c itself (monomial, never re-submitted), factorize with
    /// Householder QR, and compare the recovered H against Qᵀ A Q.
    #[test]
    fn recovers_arnoldi_hessenberg_for_raw_inputs() {
        let n = 60;
        let m = 8;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i + 1 == j || j + 1 == i {
                -0.5
            } else {
                0.0
            }
        });
        // Generate W.
        let mut w = Matrix::zeros(n, m + 1);
        for i in 0..n {
            w[(i, 0)] = ((i * 7 % 13) as f64) - 6.0;
        }
        for c in 0..m {
            let prev = w.col(c).to_vec();
            let mut next = vec![0.0; n];
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += a[(i, j)] * prev[j];
                }
                next[i] = acc;
            }
            w.col_mut(c + 1).copy_from_slice(&next);
        }
        let (q, r) = dense::householder_qr(&w);
        let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
        // All inputs are raw (t_c = R[:, c]).
        rec.recover_upto(m, &r, None, &[]);
        // Reference H = Q_{:,0:m}ᵀ A Q_{:,0:m}, extended Hessenberg.
        let aq = dense::gemm_nn(&a, &q.cols_owned(0..m));
        let h_ref = dense::gemm_tn(&q.view(), &aq.view());
        // The raw Krylov basis is ill-conditioned (power iteration), so the
        // recovered H carries an amplification of roughly κ(W)·ε; a 1e-6
        // absolute tolerance on O(1) entries is the appropriate check here.
        for c in 0..m {
            for i in 0..=c + 1 {
                assert!(
                    (rec.matrix()[(i, c)] - h_ref[(i, c)]).abs() < 1e-6,
                    "H({i},{c}): {} vs {}",
                    rec.matrix()[(i, c)],
                    h_ref[(i, c)]
                );
            }
        }
    }

    #[test]
    fn submitted_inputs_use_identity_coefficients() {
        // Standard GMRES pattern: every input is the orthonormalized column
        // (submitted), so H[:, c] must equal R[:, c+1] for unit-diagonal
        // coefficients.
        let m = 5;
        let mut r = Matrix::zeros(m + 1, m + 1);
        for j in 0..=m {
            for i in 0..=j {
                r[(i, j)] = 1.0 / (1.0 + (i + 2 * j) as f64);
            }
        }
        let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
        for c in 0..m {
            rec.mark_submitted_input(c, 0);
        }
        rec.recover_upto(m, &r, None, &[]);
        for c in 0..m {
            for i in 0..=c + 1 {
                assert!((rec.matrix()[(i, c)] - r[(i, c + 1)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn inputs_final_before_use_ignore_the_flush_coefficients() {
        // A column the kernel read after its big panel was flushed is Q_c
        // itself: its representation is e_c, not the T column the flush
        // wrote for the pre-processed vector it replaced.  Pending inputs
        // read that column.
        let m = 5;
        let mut r = Matrix::zeros(m + 1, m + 1);
        for j in 0..=m {
            for i in 0..=j {
                r[(i, j)] = 1.0 / (1.0 + (i + 2 * j) as f64);
            }
        }
        let t = Matrix::from_fn(m + 1, m + 1, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 0.25,
            std::cmp::Ordering::Equal => 2.0,
            std::cmp::Ordering::Greater => 0.0,
        });
        let recover = |finalized| {
            let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
            for c in 0..m {
                rec.mark_submitted_input(c, finalized);
            }
            rec.recover_upto(m, &r, Some(&t), &[]);
            rec
        };
        let identity = {
            let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
            for c in 0..m {
                rec.mark_submitted_input(c, 0);
            }
            rec.recover_upto(m, &r, None, &[]);
            rec
        };
        assert_eq!(recover(m + 1).matrix(), identity.matrix());
        assert_ne!(recover(0).matrix(), identity.matrix());
    }

    #[test]
    fn newton_shift_is_accounted_for() {
        // With a Newton shift θ, H must equal the monomial recovery plus θ on
        // the diagonal contribution of the input representation.
        let m = 4;
        let mut r = Matrix::identity(m + 1);
        for j in 0..=m {
            for i in 0..j {
                r[(i, j)] = 0.1 * (i + j) as f64;
            }
        }
        let theta = 2.5;
        let mut rec_mono = HessenbergRecovery::with_block_width(m + 1, 1);
        let mut rec_newton = HessenbergRecovery::with_block_width(m + 1, 1);
        for c in 0..m {
            rec_mono.mark_submitted_input(c, 0);
            rec_newton.mark_submitted_input(c, 0);
        }
        rec_mono.recover_upto(m, &r, None, &[]);
        rec_newton.recover_upto(m, &r, None, &[theta]);
        for c in 0..m {
            for i in 0..=c + 1 {
                let expect = rec_mono.matrix()[(i, c)] + if i == c { theta } else { 0.0 };
                assert!((rec_newton.matrix()[(i, c)] - expect).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn least_squares_residual_decreases_with_k() {
        let m = 6;
        let mut r = Matrix::zeros(m + 1, m + 1);
        for j in 0..=m {
            for i in 0..=j {
                r[(i, j)] = if i == j {
                    1.0 + j as f64 * 0.1
                } else {
                    0.3 / (1.0 + (j - i) as f64)
                };
            }
        }
        let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
        rec.recover_upto(m, &r, None, &[]);
        let mut prev = f64::INFINITY;
        for k in 1..=m {
            let (_, res) = rec.least_squares(k, 1.0);
            assert!(res <= prev + 1e-14, "k={k}: {res} > {prev}");
            prev = res;
        }
    }

    #[test]
    #[should_panic(expected = "cannot solve beyond recovered")]
    fn least_squares_beyond_recovery_panics() {
        let rec = HessenbergRecovery::with_block_width(5, 1);
        rec.least_squares(2, 1.0);
    }

    #[test]
    fn width_one_recovery_is_bitwise_the_scalar_recovery() {
        // At width 1 the band recurrence is the scalar one, and the two
        // least-squares routes read the same recovered matrix.
        let m = 7;
        let mut r = Matrix::zeros(m + 1, m + 1);
        for j in 0..=m {
            for i in 0..=j {
                r[(i, j)] = 1.0 / (1.0 + (2 * i + 3 * j) as f64) + if i == j { 0.5 } else { 0.0 };
            }
        }
        let shifts = [1.25, -0.5];
        let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
        for c in [0, 3, 5] {
            rec.mark_submitted_input(c, 0);
        }
        rec.recover_upto(m, &r, None, &shifts);
        // The block least-squares with the scalar convention's rhs (β·e₁)
        // solves the same projected problem (different factorization path,
        // so close — the solver keeps the bitwise scalar route at kb = 1).
        let beta = 2.0;
        let k = m - 1;
        let (y_s, res_s) = rec.least_squares(k, beta);
        let mut rhs = Matrix::zeros(k + 1, 1);
        rhs[(0, 0)] = beta;
        let (y_b, res_b) = rec.block_least_squares(k, &rhs);
        assert!((res_s - res_b[0]).abs() < 1e-12 * (1.0 + res_s.abs()));
        for (a, b) in y_s.iter().zip(y_b.col(0)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn block_recovery_matches_dense_reference_at_width_two() {
        // Width-2 interleaved layout: columns {0, 1} are the residual
        // block; raw (monomial) MPK maps input column c to column c + 2 via
        // w_{c+2} = A·w_c.  The recovered band Hessenberg must equal the
        // dense reference Qᵀ·A·Q on every recovered column.
        let n = 60;
        let kb = 2;
        let steps = 4;
        let total = kb * (steps + 1); // 10 columns, 8 recovered
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i + 1 == j || j + 1 == i {
                -0.5
            } else {
                0.0
            }
        });
        let mut w = Matrix::zeros(n, total);
        for i in 0..n {
            w[(i, 0)] = ((i * 7 % 13) as f64) - 6.0;
            w[(i, 1)] = ((i * 5 % 11) as f64) - 5.0;
        }
        for c in 0..total - kb {
            let prev = w.col(c).to_vec();
            let mut next = vec![0.0; n];
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += a[(i, j)] * prev[j];
                }
                next[i] = acc;
            }
            w.col_mut(c + kb).copy_from_slice(&next);
        }
        let (q, r) = dense::householder_qr(&w);
        let mut rec = HessenbergRecovery::with_block_width(total, kb);
        rec.recover_upto(total - kb, &r, None, &[]);
        let aq = dense::gemm_nn(&a, &q.cols_owned(0..total - kb));
        let h_ref = dense::gemm_tn(&q.view(), &aq.view());
        for c in 0..total - kb {
            for i in 0..(c + kb + 1).min(total) {
                assert!(
                    (rec.matrix()[(i, c)] - h_ref[(i, c)]).abs() < 1e-6,
                    "Hb({i},{c}): {} vs {}",
                    rec.matrix()[(i, c)],
                    h_ref[(i, c)]
                );
            }
        }
    }
}
