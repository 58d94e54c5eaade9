//! BCGS-PIP and BCGS-PIP2 (Section IV-C of the paper).
//!
//! BCGS-PIP orthogonalizes a panel against the previous basis *and*
//! internally with a single global reduce, by forming the Gram matrix of the
//! projected panel through the block Pythagorean identity.  Applying it
//! twice (BCGS-PIP2) restores `O(ε)` orthogonality under condition (5) and
//! still needs only **2 reduces per panel**, compared with 5 for BCGS2 with
//! CholQR2.
//!
//! [`BcgsPip2`] is implemented through the fused two-sync kernel
//! [`crate::kernels::bcgs_pip2_fused`] (the BCGS-IRO-2S idea from Carson et
//! al.'s BlockStab, with first-pass normalization retained for its
//! `O(ε)`-orthogonality guarantees): the second synchronization's vector
//! update is fused with the reorthogonalization inner products
//! (`[Q_prev W]ᵀW`) in one pass over the panel via
//! [`DistMultiVector::update_and_gram`].  Same 2 reduces as the textbook
//! double-PIP formulation, but 5 passes over the tall panel instead of 6.

use crate::error::OrthoError;
use crate::kernels::bcgs_pip;
use crate::traits::BlockOrthogonalizer;
use dense::Matrix;
use distsim::DistMultiVector;
use std::ops::Range;

/// Single-pass BCGS-PIP (Fig. 4a).  Exposed as a standalone scheme mainly
/// for the numerical study; inside the solver it is the building block of
/// [`BcgsPip2`] and of the two-stage algorithm.
#[derive(Debug, Default)]
pub struct BcgsPip;

impl BcgsPip {
    /// Create the scheme.
    pub fn new() -> Self {
        Self
    }
}

impl BlockOrthogonalizer for BcgsPip {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let prev = 0..new.start;
        let (p, r_new) = bcgs_pip(basis, prev.clone(), new.clone())?;
        write_block(r, prev.start, new.clone(), &p, &r_new);
        Ok(())
    }
}

/// Reorthogonalized BCGS with **2 reduces per panel** (Fig. 4b), computed
/// through the fused two-sync kernel [`crate::kernels::bcgs_pip2_fused`]:
/// the second projection and Gram matrix are collected *during* the vector
/// update's pass over the panel ([`DistMultiVector::update_and_gram`]), so
/// a panel costs 5 sweeps of the tall operand instead of the 6 two
/// back-to-back BCGS-PIP calls took.  On the first panel of a cycle it
/// degenerates to CholQR2 exactly as the paper notes.
#[derive(Debug, Default)]
pub struct BcgsPip2;

impl BcgsPip2 {
    /// Create the scheme.
    pub fn new() -> Self {
        Self
    }
}

impl BlockOrthogonalizer for BcgsPip2 {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let prev = 0..new.start;
        let (r_prev, r_new, _shift) = crate::kernels::bcgs_pip2_fused(
            basis,
            prev.clone(),
            new.clone(),
            false,
            "BCGS-PIP2 (first pass)",
            "BCGS-PIP2 (reorthogonalization)",
        )?;
        write_block(r, prev.start, new, &r_prev, &r_new);
        Ok(())
    }
}

/// `P2·R1 + P1` where `P1`, `P2` are `k×s` and `R1` is `s×s` upper
/// triangular.
pub(crate) fn p2_times_r_plus_p1(p2: &Matrix, r1: &Matrix, p1: &Matrix) -> Matrix {
    let prod = dense::gemm_nn(p2, r1);
    prod.add(p1)
}

/// Write the panel's R contributions into the global replicated `R`:
/// `R[prev_start.., new] = [R_prev; R_new]`.
pub(crate) fn write_block(
    r: &mut Matrix,
    prev_start: usize,
    new: Range<usize>,
    r_prev: &Matrix,
    r_new: &Matrix,
) {
    let k = r_prev.nrows();
    let s = new.end - new.start;
    debug_assert_eq!(r_prev.ncols(), s);
    debug_assert_eq!(r_new.nrows(), s);
    debug_assert_eq!(r_new.ncols(), s);
    for (jj, col) in new.clone().enumerate() {
        for i in 0..k {
            r[(prev_start + i, col)] = r_prev[(i, jj)];
        }
        for i in 0..s {
            r[(new.start + i, col)] = r_new[(i, jj)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orthogonalize_with;
    use dense::orthogonality_error;
    use distsim::{DistMultiVector, SerialComm};

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 13 + j * 7) % 19) as f64 * 0.11 - 0.9 + if (i + j) % 5 == 0 { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn pip2_produces_machine_precision_orthogonality() {
        let v = test_matrix(600, 12);
        let mut scheme = BcgsPip2::new();
        let (q, r) = orthogonalize_with(&mut scheme, &v, 4).unwrap();
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
        let mut pip = BcgsPip::new();
        let (q1, r1) = orthogonalize_with(&mut pip, &v, 5).unwrap();
        let mut pip2 = BcgsPip2::new();
        let (q2, _) = orthogonalize_with(&mut pip2, &v, 5).unwrap();
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
        let mut scheme = BcgsPip2::new();
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
        BcgsPip2::new()
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
        let mut scheme = BcgsPip2::new();
        scheme
            .orthogonalize_panel(&mut basis, 0..3, &mut r)
            .unwrap();
        assert!(scheme
            .orthogonalize_panel(&mut basis, 3..6, &mut r)
            .is_err());
    }
}
