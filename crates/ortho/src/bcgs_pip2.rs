//! Per-kind checks of [`OrthoKind::BcgsPip2`]: orthogonality and
//! reconstruction bounds, and reduces on the first and every later panel.
//! The kind-specific cases (single PIP against PIP2, the first panel ≡
//! CholQR2, the refused dependent panel) are next to the engine's tests in
//! `two_stage.rs`.
//!
//! [`OrthoKind::BcgsPip2`]: crate::OrthoKind::BcgsPip2

mod tests {
    use crate::{make_orthogonalizer, orthogonalize_matrix, OrthoKind};
    use dense::{orthogonality_error, Matrix};
    use distsim::{DistMultiVector, SerialComm};

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 13 + j * 7) % 19) as f64 * 0.11 - 0.9 + if (i + j) % 5 == 0 { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn pip2_produces_machine_precision_orthogonality() {
        let v = test_matrix(600, 12);
        let (q, r) = orthogonalize_matrix(OrthoKind::BcgsPip2, &v, 4).unwrap();
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..12 {
            for i in 0..600 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
        // R is upper triangular with positive diagonal.
        for i in 0..12 {
            assert!(r[(i, i)] > 0.0);
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn pip2_uses_two_reduces_per_panel() {
        let v = test_matrix(300, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = make_orthogonalizer(OrthoKind::BcgsPip2, 8);
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "the first panel is CholQR2");
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(
            delta.allreduces, 2,
            "BCGS-PIP2 must synchronize exactly twice per panel"
        );
    }
}
