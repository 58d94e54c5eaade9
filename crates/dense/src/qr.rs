//! Householder QR factorization of tall-skinny panels.
//!
//! This is the "HHQR" intra-block orthogonalization of the paper
//! (Fig. 2b, Line 8).  It is unconditionally stable but BLAS-1/BLAS-2 bound,
//! which is exactly why the paper prefers CholQR-based kernels on GPUs; we
//! keep it as the stability reference of the numerical study and the
//! tests.

use crate::matrix::Matrix;

/// Householder QR of `V ∈ R^{n×s}` (`n ≥ s`): returns `(Q, R)` with
/// `Q ∈ R^{n×s}` having orthonormal columns, `R ∈ R^{s×s}` upper triangular
/// with non-negative diagonal, and `Q·R = V`.
pub fn householder_qr(v: &Matrix) -> (Matrix, Matrix) {
    let n = v.nrows();
    let s = v.ncols();
    assert!(n >= s, "householder_qr requires n >= s (got {n} x {s})");
    let mut a = v.clone();
    // Householder vectors are stored below the diagonal of `a`; `taus[k]` is
    // the scalar of the k-th reflector.
    let mut taus = vec![0.0f64; s];
    for k in 0..s {
        // Compute the reflector for column k, rows k..n.
        let mut alpha = a[(k, k)];
        let mut normx2 = 0.0;
        for i in (k + 1)..n {
            normx2 += a[(i, k)] * a[(i, k)];
        }
        let normx = (alpha * alpha + normx2).sqrt();
        if normx == 0.0 {
            taus[k] = 0.0;
            continue;
        }
        let beta = if alpha >= 0.0 { -normx } else { normx };
        let tau = (beta - alpha) / beta;
        let scale = 1.0 / (alpha - beta);
        for i in (k + 1)..n {
            a[(i, k)] *= scale;
        }
        alpha = beta;
        taus[k] = tau;
        a[(k, k)] = alpha;
        // Apply the reflector to the trailing columns.
        for j in (k + 1)..s {
            let mut dot = a[(k, j)];
            for i in (k + 1)..n {
                dot += a[(i, k)] * a[(i, j)];
            }
            let t = tau * dot;
            a[(k, j)] -= t;
            for i in (k + 1)..n {
                let h = a[(i, k)];
                a[(i, j)] -= t * h;
            }
        }
    }
    // Extract R (upper triangle of `a`).
    let mut r = Matrix::zeros(s, s);
    for j in 0..s {
        for i in 0..=j {
            r[(i, j)] = a[(i, j)];
        }
    }
    // Form Q explicitly by applying the reflectors to the first s columns of
    // the identity, in reverse order.
    let mut q = Matrix::zeros(n, s);
    for j in 0..s {
        q[(j, j)] = 1.0;
    }
    for k in (0..s).rev() {
        let tau = taus[k];
        if tau == 0.0 {
            continue;
        }
        for j in 0..s {
            let mut dot = q[(k, j)];
            for i in (k + 1)..n {
                dot += a[(i, k)] * q[(i, j)];
            }
            let t = tau * dot;
            q[(k, j)] -= t;
            for i in (k + 1)..n {
                let h = a[(i, k)];
                q[(i, j)] -= t * h;
            }
        }
    }
    // Normalize so the diagonal of R is non-negative (paper convention).
    for j in 0..s {
        if r[(j, j)] < 0.0 {
            for c in j..s {
                r[(j, c)] = -r[(j, c)];
            }
            for i in 0..n {
                q[(i, j)] = -q[(i, j)];
            }
        }
    }
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm_nn;
    use crate::measure::orthogonality_error;

    fn panel(n: usize, s: usize) -> Matrix {
        Matrix::from_fn(n, s, |i, j| {
            ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0 + if i == j { 3.0 } else { 0.0 }
        })
    }

    #[test]
    fn qr_reconstructs_input() {
        let v = panel(200, 6);
        let (q, r) = householder_qr(&v);
        let back = gemm_nn(&q, &r);
        for j in 0..6 {
            for i in 0..200 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
    }

    #[test]
    fn q_is_orthonormal() {
        let v = panel(500, 8);
        let (q, _) = householder_qr(&v);
        assert!(orthogonality_error(&q.view()) < 1e-13);
    }

    #[test]
    fn r_is_upper_triangular_with_nonnegative_diagonal() {
        let v = panel(100, 5);
        let (_, r) = householder_qr(&v);
        for i in 0..5 {
            assert!(r[(i, i)] >= 0.0);
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn handles_rank_deficient_input_gracefully() {
        // Third column is the sum of the first two: rank 2.
        let mut v = panel(50, 3);
        for i in 0..50 {
            let s = v[(i, 0)] + v[(i, 1)];
            v[(i, 2)] = s;
        }
        let (q, r) = householder_qr(&v);
        // QR still reconstructs V even though R is singular.
        let back = gemm_nn(&q, &r);
        for i in 0..50 {
            for j in 0..3 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs());
            }
        }
        assert!(r[(2, 2)].abs() < 1e-10 * v.max_abs());
    }

    #[test]
    fn square_and_single_column_cases() {
        let v = panel(4, 4);
        let (q, r) = householder_qr(&v);
        let back = gemm_nn(&q, &r);
        for i in 0..4 {
            for j in 0..4 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-12 * v.max_abs());
            }
        }
        let w = panel(10, 1);
        let (q1, r1) = householder_qr(&w);
        assert!((crate::blas1::nrm2(q1.col(0)) - 1.0).abs() < 1e-14);
        assert!((r1[(0, 0)] - crate::blas1::nrm2(w.col(0))).abs() < 1e-12);
    }

    #[test]
    fn ill_conditioned_panel_still_orthogonal() {
        // Columns with widely varying scales: HHQR must stay O(eps) orthogonal
        // (this is the property CholQR loses — see the chol tests).
        let n = 300;
        let v = Matrix::from_fn(n, 4, |i, j| {
            let base = ((i * 11 + j) % 17) as f64 - 8.0;
            base * 10f64.powi(-(4 * j as i32))
        });
        let (q, _) = householder_qr(&v);
        assert!(orthogonality_error(&q.view()) < 1e-12);
    }
}
