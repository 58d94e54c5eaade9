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
//!   orthogonalizer (a panel-start column) → `t_c` is the orthogonalizer's
//!   stored-basis coefficient column (identity for one-stage schemes, the
//!   second-stage `T` factor for the two-stage scheme).
//!
//! From `A·u_c = w_{c+1} + θ_c·u_c` and `W = Q·R` it follows that
//! `H·t_c = R[:, c+1] + θ_c·t_c`, and since `t_c` is upper triangular with a
//! nonzero diagonal this determines the Hessenberg columns one at a time.
//!
//! **Block generalization.**  With a block right-hand side of `kb` columns
//! the matrix-powers kernel maps input column `c` to output column `c + kb`
//! (the columns of one block step are interleaved), so the recurrence
//! becomes `Hb·t_c = R[:, c + kb] + θ_c·t_c` with `θ_c` indexed by the
//! *block step* `c / kb`, and `Hb` is band upper-Hessenberg with lower
//! bandwidth `kb`.  [`HessenbergRecovery::with_block_width`] runs exactly
//! this recurrence; at `kb = 1` it is bitwise the scalar recovery.

use crate::basis::KrylovBasis;
use dense::Matrix;

/// Incremental Hessenberg recovery for one restart cycle.
#[derive(Debug)]
pub struct HessenbergRecovery {
    /// `total_cols × (total_cols − width)` band Hessenberg matrix being
    /// recovered (`(m+1) × m` in the scalar case).
    h: Matrix,
    /// Number of columns of `h` recovered so far.
    recovered: usize,
    /// Whether basis column `c` had already been handed to the
    /// orthogonalizer when it was used as an MPK input.
    submitted_before_mpk: Vec<bool>,
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
            submitted_before_mpk: vec![false; total_cols],
            width,
        }
    }

    /// Block width `kb` this recovery was created with.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Record that column `c` had already been submitted to the
    /// orthogonalizer when the matrix-powers kernel used it as a starting
    /// vector (i.e. `c` is a panel-start input).
    pub fn mark_submitted_input(&mut self, c: usize) {
        self.submitted_before_mpk[c] = true;
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
    /// (final for those columns) `R` factor, the orthogonalizer's stored
    /// basis coefficients (`None` = identity), and the Krylov basis
    /// (for its shifts).
    ///
    /// Panics if a diagonal coefficient needed for the recurrence is zero —
    /// that can only happen after an orthogonalization breakdown, which the
    /// solver must have handled already.
    pub fn recover_upto(
        &mut self,
        upto: usize,
        r: &Matrix,
        coeffs: Option<&Matrix>,
        basis: &KrylovBasis,
    ) {
        let mrows = self.h.nrows();
        let kb = self.width;
        while self.recovered < upto {
            let c = self.recovered;
            // Representation of the MPK input u_c in the final basis.
            let mut t = vec![0.0; c + 1];
            if self.submitted_before_mpk[c] {
                match coeffs {
                    Some(cm) => {
                        for (i, ti) in t.iter_mut().enumerate() {
                            *ti = cm[(i, c)];
                        }
                    }
                    None => t[c] = 1.0,
                }
            } else {
                for (i, ti) in t.iter_mut().enumerate() {
                    *ti = r[(i, c)];
                }
            }
            // Shifts are per *block step*: input column c belongs to block
            // step c / kb (at kb = 1 this is c itself).
            let theta = basis.shift(c / kb);
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
        rec.recover_upto(m, &r, None, &KrylovBasis::Monomial);
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
            rec.mark_submitted_input(c);
        }
        rec.recover_upto(m, &r, None, &KrylovBasis::Monomial);
        for c in 0..m {
            for i in 0..=c + 1 {
                assert!((rec.matrix()[(i, c)] - r[(i, c + 1)]).abs() < 1e-15);
            }
        }
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
            rec_mono.mark_submitted_input(c);
            rec_newton.mark_submitted_input(c);
        }
        rec_mono.recover_upto(m, &r, None, &KrylovBasis::Monomial);
        rec_newton.recover_upto(
            m,
            &r,
            None,
            &KrylovBasis::Newton {
                shifts: vec![theta],
            },
        );
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
        rec.recover_upto(m, &r, None, &KrylovBasis::Monomial);
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
        let basis = KrylovBasis::Newton {
            shifts: vec![1.25, -0.5],
        };
        let mut rec = HessenbergRecovery::with_block_width(m + 1, 1);
        assert_eq!(rec.width(), 1);
        for c in [0, 3, 5] {
            rec.mark_submitted_input(c);
        }
        rec.recover_upto(m, &r, None, &basis);
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
        rec.recover_upto(total - kb, &r, None, &KrylovBasis::Monomial);
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
