//! BCGS-PIP and BCGS-PIP2 (Section IV-C of the paper): the pairs
//! (PIP, none) of [`OrthoKind::BcgsPip`] and (PIP, per-panel PIP) of
//! [`OrthoKind::BcgsPip2`].
//!
//! BCGS-PIP orthogonalizes a panel against the previous basis *and*
//! internally with a single global reduce, by forming the Gram matrix of the
//! projected panel through the block Pythagorean identity.  Applying it
//! twice (BCGS-PIP2) restores `O(ε)` orthogonality under condition (5) and
//! still needs only **2 reduces per panel**, compared with 5 for BCGS2 with
//! CholQR2.  On the first panel of a cycle BCGS-PIP2 degenerates to CholQR2
//! exactly, as the paper notes.
//!
//! BCGS-PIP2 runs as the fused two-sync kernel
//! [`bcgs_pip2_fused`](crate::kernels::bcgs_pip2_fused) (the BCGS-IRO-2S
//! idea from Carson et al.'s BlockStab, with first-pass normalization
//! retained for its `O(ε)`-orthogonality guarantees): the second
//! synchronization's vector update is fused with the reorthogonalization
//! inner products (`[Q_prev W]ᵀW`) in one pass over the panel via
//! [`DistMultiVector::update_and_gram`](distsim::DistMultiVector::update_and_gram).
//! Same 2 reduces as the textbook double-PIP formulation, but 5 passes over
//! the tall panel instead of 6.  Both kinds refuse a panel whose Cholesky
//! factorization breaks down.
//!
//! [`OrthoKind::BcgsPip`]: crate::OrthoKind::BcgsPip
//! [`OrthoKind::BcgsPip2`]: crate::OrthoKind::BcgsPip2

#[cfg(test)]
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
    fn single_pip_is_less_orthogonal_but_reconstructs() {
        // On a moderately conditioned input the single-pass PIP has
        // orthogonality error ~ eps * kappa^2 (bound (6)), visibly worse than
        // PIP2 but still a valid factorization.
        let v = testmat::logscaled_matrix(500, 10, 1e5, 3);
        let (q1, r1) = orthogonalize_matrix(OrthoKind::BcgsPip, &v, 5).unwrap();
        let (q2, _) = orthogonalize_matrix(OrthoKind::BcgsPip2, &v, 5).unwrap();
        let e1 = orthogonality_error(&q1.view());
        let e2 = orthogonality_error(&q2.view());
        assert!(e2 < 1e-13, "PIP2 error {e2}");
        assert!(
            e1 > e2,
            "single PIP ({e1}) should be no better than PIP2 ({e2})"
        );
        assert!(e1 < 1e-4, "but still bounded by eps*kappa^2");
        let back = dense::gemm_nn(&q1, &r1);
        for j in 0..10 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-9 * v.max_abs());
            }
        }
    }

    #[test]
    fn pip2_uses_two_reduces_per_panel() {
        let v = test_matrix(300, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = make_orthogonalizer(OrthoKind::BcgsPip2, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
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

    #[test]
    fn first_panel_equals_cholqr2() {
        // With no previous block, BCGS-PIP2 must coincide with CholQR2
        // (the paper notes this explicitly).
        let v = test_matrix(250, 5);
        let mut basis_a = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r_a = Matrix::zeros(5, 5);
        make_orthogonalizer(OrthoKind::BcgsPip2, 5)
            .orthogonalize_panel(&mut basis_a, 0..5, &mut r_a)
            .unwrap();
        let mut basis_b = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let r_b = crate::kernels::cholqr2(&mut basis_b, 0..5).unwrap();
        for j in 0..5 {
            for i in 0..=j {
                assert!((r_a[(i, j)] - r_b[(i, j)]).abs() < 1e-11 * r_b.max_abs());
            }
            for i in 0..250 {
                assert!((basis_a.local()[(i, j)] - basis_b.local()[(i, j)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn breakdown_is_reported_not_hidden() {
        let mut v = test_matrix(200, 6);
        for i in 0..200 {
            let x = v[(i, 0)];
            v[(i, 5)] = 2.0 * x; // linearly dependent on an earlier column
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = make_orthogonalizer(OrthoKind::BcgsPip2, 6);
        scheme
            .orthogonalize_panel(&mut basis, 0..3, &mut r)
            .unwrap();
        assert!(scheme
            .orthogonalize_panel(&mut basis, 3..6, &mut r)
            .is_err());
    }
}
