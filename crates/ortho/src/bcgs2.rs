//! BCGS2 with CholQR2: block classical Gram–Schmidt with
//! reorthogonalization (Fig. 2 of the paper).
//!
//! This is the block orthogonalization the original s-step GMRES in
//! Trilinos uses — the "s-step" baseline of Tables III/IV — and costs
//! **5 global reduces per panel** (BCGS, CholQR, CholQR, BCGS, CholQR).

use crate::bcgs_pip2::{p2_times_r_plus_p1, write_block};
use crate::error::OrthoError;
use crate::kernels::{bcgs, cholqr, cholqr2};
use crate::traits::BlockOrthogonalizer;
use dense::Matrix;
use distsim::DistMultiVector;
use std::ops::Range;

/// BCGS2 with the CholQR2 intra-block kernel.
#[derive(Debug, Default)]
pub struct Bcgs2;

impl Bcgs2 {
    /// Create the scheme.
    pub fn new() -> Self {
        Self
    }
}

impl BlockOrthogonalizer for Bcgs2 {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let prev = 0..new.start;
        let s = new.end - new.start;
        if prev.is_empty() {
            // First panel: intra-block factorization only (Fig. 2b, j = 1).
            let r_new = cholqr2(basis, new.clone())?;
            write_block(r, 0, new, &Matrix::zeros(0, s), &r_new);
            return Ok(());
        }
        // First inter-block BCGS projection.
        let p1 = bcgs(basis, prev.clone(), new.clone());
        // First intra-block factorization.
        let r1 = cholqr2(basis, new.clone())?;
        // Second inter-block BCGS projection (reorthogonalization).
        let p2 = bcgs(basis, prev.clone(), new.clone());
        // Second intra-block factorization (always CholQR, Fig. 2b line 13).
        let t = cholqr(basis, new.clone())?;
        // R updates.  Fig. 2b line 14 writes `R ← T + R`, dropping the
        // multiplication by `R_{j,j}` because the correction `T_{1:j-1,j}` is
        // already O(ε); we apply the exact update (as BCGS-PIP2 does in
        // Fig. 4b) so the factorization identity V = Q·R holds to working
        // precision regardless of the panel's conditioning.
        let r_prev = p2_times_r_plus_p1(&p2, &r1, &p1);
        let r_new = dense::tri_matmul_upper(&t, &r1);
        write_block(r, prev.start, new, &r_prev, &r_new);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orthogonalize_with;
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 11 + j * 5) % 17) as f64 * 0.13 - 1.0
                + if (i + 2 * j) % 7 == 0 { 1.7 } else { 0.0 }
        })
    }

    #[test]
    fn bcgs2_cholqr2_orthogonality_and_reconstruction() {
        let v = test_matrix(500, 15);
        let (q, r) = orthogonalize_with(&mut Bcgs2::new(), &v, 5).unwrap();
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..15 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
    }

    #[test]
    fn bcgs2_cholqr2_uses_five_reduces_per_panel() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = Bcgs2::new();
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
        Bcgs2::new()
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "first panel is just CholQR2");
    }

    #[test]
    fn handles_moderately_ill_conditioned_panels() {
        // kappa ~ 1e6 < 1/sqrt(eps): condition (1) holds, so BCGS2 with
        // CholQR2 must deliver O(eps) orthogonality.
        let v = testmat::logscaled_matrix(400, 10, 1e6, 5);
        let (q, _) = orthogonalize_with(&mut Bcgs2::new(), &v, 5).unwrap();
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-12, "{err}");
    }
}
