//! Per-kind checks of [`OrthoKind::Bcgs2CholQr2`]: orthogonality and
//! reconstruction bounds, and reduces on the first and every later panel.
//! The kind's case at `κ = 1e6` is next to the engine's tests in
//! `two_stage.rs`.
//!
//! [`OrthoKind::Bcgs2CholQr2`]: crate::OrthoKind::Bcgs2CholQr2

mod tests {
    use crate::{make_orthogonalizer, orthogonalize_matrix, OrthoKind};
    use dense::{orthogonality_error, Matrix};
    use distsim::{DistMultiVector, SerialComm};

    const KIND: OrthoKind = OrthoKind::Bcgs2CholQr2;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 11 + j * 5) % 17) as f64 * 0.13 - 1.0
                + if (i + 2 * j) % 7 == 0 { 1.7 } else { 0.0 }
        })
    }

    #[test]
    fn bcgs2_cholqr2_orthogonality_and_reconstruction() {
        let v = test_matrix(500, 15);
        let (q, r) = orthogonalize_matrix(KIND, &v, 5).unwrap();
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..15 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
        // R is upper triangular with positive diagonal.
        for j in 0..15 {
            assert!(r[(j, j)] > 0.0);
            assert!((j + 1..15).all(|i| r[(i, j)] == 0.0));
        }
    }

    #[test]
    fn bcgs2_cholqr2_uses_five_reduces_per_panel() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = make_orthogonalizer(KIND, 10);
        scheme
            .orthogonalize_panel(&mut basis, 0..5, &mut r)
            .unwrap();
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 5..10, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(
            delta.allreduces, 5,
            "BCGS2 with CholQR2 synchronizes five times per panel"
        );
    }

    #[test]
    fn first_panel_reduces_to_intra_only() {
        let v = test_matrix(200, 4);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(4, 4);
        let before = basis.comm().stats().snapshot();
        make_orthogonalizer(KIND, 4)
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "first panel is just CholQR2");
    }
}
