//! Small upper-triangular utilities (solves, products).
//!
//! These operate on the `s×s` / `(m+1)×(m+1)` R-factors the solver keeps
//! redundantly on every rank; they are serial on purpose.

use crate::matrix::Matrix;

/// Solve `R·x = b` for upper-triangular `R` (back substitution).
///
/// Panics if `R` has a zero diagonal entry.
pub fn tri_solve_upper(r: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = r.nrows();
    assert_eq!(r.ncols(), n, "tri_solve_upper: R must be square");
    assert_eq!(b.len(), n, "tri_solve_upper: rhs length mismatch");
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        assert!(d != 0.0, "tri_solve_upper: zero diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

/// Solve `Rᵀ·x = b` for upper-triangular `R` (forward substitution on the
/// transpose).
pub fn tri_solve_upper_transpose(r: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = r.nrows();
    assert_eq!(r.ncols(), n, "tri_solve_upper_transpose: R must be square");
    assert_eq!(b.len(), n, "tri_solve_upper_transpose: rhs length mismatch");
    let mut x = b.to_vec();
    for i in 0..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= r[(j, i)] * x[j];
        }
        let d = r[(i, i)];
        assert!(d != 0.0, "tri_solve_upper_transpose: zero diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

/// Product `A·B` of two upper-triangular matrices (result is upper
/// triangular); used for the R-factor updates `R ← T·R` of the
/// reorthogonalized schemes.
pub fn tri_matmul_upper(a: &Matrix, b: &Matrix) -> Matrix {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "tri_matmul_upper: A must be square");
    assert_eq!(b.nrows(), n, "tri_matmul_upper: dimension mismatch");
    assert_eq!(b.ncols(), n, "tri_matmul_upper: B must be square");
    let mut c = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            let mut acc = 0.0;
            for k in i..=j {
                acc += a[(i, k)] * b[(k, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm_nn;

    fn upper(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                0.0
            } else if i == j {
                (i + 2) as f64
            } else {
                ((i + j) % 3) as f64 * 0.5 - 0.25
            }
        })
    }

    #[test]
    fn solve_upper_matches_direct_product() {
        let r = upper(6);
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64 - 2.5) * 0.7).collect();
        let mut b = vec![0.0; 6];
        for i in 0..6 {
            for j in 0..6 {
                b[i] += r[(i, j)] * x_true[j];
            }
        }
        let x = tri_solve_upper(&r, &b);
        for (a, e) in x.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_upper_transpose_matches_direct_product() {
        let r = upper(5);
        let x_true: Vec<f64> = (0..5).map(|i| (i as f64) * 0.3 + 1.0).collect();
        let mut b = vec![0.0; 5];
        for i in 0..5 {
            for j in 0..5 {
                b[i] += r[(j, i)] * x_true[j];
            }
        }
        let x = tri_solve_upper_transpose(&r, &b);
        for (a, e) in x.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn solve_rejects_singular_matrix() {
        let mut r = upper(3);
        r[(1, 1)] = 0.0;
        tri_solve_upper(&r, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn tri_matmul_matches_general_gemm() {
        let a = upper(6);
        let b = upper(6);
        let fast = tri_matmul_upper(&a, &b);
        let reference = gemm_nn(&a, &b);
        for i in 0..6 {
            for j in 0..6 {
                assert!((fast[(i, j)] - reference[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn one_by_one_cases() {
        let r = Matrix::from_rows(&[&[4.0]]);
        assert_eq!(tri_solve_upper(&r, &[8.0]), vec![2.0]);
        assert_eq!(tri_matmul_upper(&r, &r)[(0, 0)], 16.0);
    }
}
