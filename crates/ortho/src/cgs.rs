//! Per-kind checks of [`OrthoKind::Cgs2`] (standard GMRES, one column per
//! panel): orthogonality and reconstruction bounds, and reduces per
//! iteration.  The refused zero column is next to the engine's tests in
//! `two_stage.rs`.
//!
//! [`OrthoKind::Cgs2`]: crate::OrthoKind::Cgs2

mod tests {
    use crate::{make_orthogonalizer, BlockOrthogonalizer, OrthoKind};
    use dense::{orthogonality_error, Matrix};
    use distsim::{DistMultiVector, SerialComm};

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 29 + j * 3) % 23) as f64 * 0.09 - 1.0 + if i % (j + 3) == 1 { 2.2 } else { 0.0 }
        })
    }

    /// Standard GMRES processes one column at a time.
    fn run(scheme: &mut dyn BlockOrthogonalizer, v: &Matrix) -> (Matrix, Matrix) {
        crate::orthogonalize_with(scheme, v, 1).unwrap()
    }

    #[test]
    fn cgs2_column_by_column_is_orthogonal_and_reconstructs() {
        let v = test_matrix(400, 10);
        let (q, r) = run(make_orthogonalizer(OrthoKind::Cgs2, 10).as_mut(), &v);
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..10 {
            for i in 0..400 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
        // R is upper triangular with positive diagonal.
        for j in 0..10 {
            assert!(r[(j, j)] > 0.0);
            assert!((j + 1..10).all(|i| r[(i, j)] == 0.0));
        }
    }

    #[test]
    fn cgs2_uses_three_reduces_per_iteration() {
        let v = test_matrix(200, 6);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = make_orthogonalizer(OrthoKind::Cgs2, 6);
        for c in 0..6 {
            let before = basis.comm().stats().snapshot();
            scheme
                .orthogonalize_panel(&mut basis, c..c + 1, &mut r)
                .unwrap();
            let delta = basis.comm().stats().snapshot().since(&before);
            // The first column has nothing to project against and takes its
            // norm alone.
            assert_eq!(delta.allreduces, if c == 0 { 1 } else { 3 }, "column {c}");
        }
    }
}
