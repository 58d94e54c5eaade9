//! BCGS2: block classical Gram–Schmidt with reorthogonalization
//! (Fig. 2 of the paper), with either a CholQR2 or a column-wise
//! (HHQR-class) intra-block kernel.
//!
//! `BCGS2 with CholQR2` is the block orthogonalization the original s-step
//! GMRES in Trilinos uses — the "s-step" baseline of Tables III/IV — and
//! costs **5 global reduces per panel** (BCGS, CholQR, CholQR, BCGS,
//! CholQR).  `BCGS2 with a column-wise kernel` replaces the first intra
//! factorization with a BLAS-1/2, `O(s)`-reduce kernel, standing in for the
//! Householder-QR option of Fig. 2b (unconditionally stable for numerically
//! full-rank panels, but slow on GPUs — which is the paper's motivation for
//! CholQR-based kernels).

use crate::bcgs_pip2::{p2_times_r_plus_p1, write_block};
use crate::error::OrthoError;
use crate::kernels::{bcgs, cholqr, cholqr2, columnwise_cgs2};
use crate::traits::BlockOrthogonalizer;
use dense::Matrix;
use distsim::DistMultiVector;
use std::ops::Range;

/// Which intra-block kernel the first factorization of BCGS2 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraKernel {
    /// CholQR2 — the original s-step GMRES orthogonalization (5 reduces
    /// per panel).
    CholQr2,
    /// Column-wise CGS2 (HHQR-class baseline, `O(s)` reduces per panel).
    Columnwise,
}

/// The BCGS2 skeleton around its intra-block kernel.
#[derive(Debug)]
pub struct Bcgs2 {
    intra: IntraKernel,
}

impl Bcgs2 {
    /// Create the scheme with the given intra-block kernel.
    pub fn new(intra: IntraKernel) -> Self {
        Self { intra }
    }

    /// The first intra-block factorization of the panel `new`.
    fn intra_factor(
        &self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
    ) -> Result<Matrix, OrthoError> {
        match self.intra {
            IntraKernel::CholQr2 => cholqr2(basis, new),
            IntraKernel::Columnwise => columnwise_cgs2(basis, new.start, new),
        }
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
            let r_new = self.intra_factor(basis, new.clone())?;
            write_block(r, 0, new, &Matrix::zeros(0, s), &r_new);
            return Ok(());
        }
        // First inter-block BCGS projection.
        let p1 = bcgs(basis, prev.clone(), new.clone());
        // First intra-block factorization.
        let r1 = self.intra_factor(basis, new.clone())?;
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
        let (q, r) = orthogonalize_with(&mut Bcgs2::new(IntraKernel::CholQr2), &v, 5).unwrap();
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..15 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
    }

    #[test]
    fn bcgs2_columnwise_orthogonality_and_reconstruction() {
        let v = test_matrix(400, 12);
        let (q, r) = orthogonalize_with(&mut Bcgs2::new(IntraKernel::Columnwise), &v, 4).unwrap();
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..12 {
            for i in 0..400 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
    }

    #[test]
    fn bcgs2_cholqr2_uses_five_reduces_per_panel() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = Bcgs2::new(IntraKernel::CholQr2);
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
    fn bcgs2_columnwise_reduce_count_grows_with_s() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = Bcgs2::new(IntraKernel::Columnwise);
        scheme
            .orthogonalize_panel(&mut basis, 0..5, &mut r)
            .unwrap();
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 5..10, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        // 2 BCGS + 1 final CholQR + the column-wise intra kernel: the first
        // panel column needs only its norm, each later column needs two
        // projections and a norm → 3s − 2 reduces for s = 5.
        assert_eq!(delta.allreduces, 3 + (3 * 5 - 2));
    }

    #[test]
    fn first_panel_reduces_to_intra_only() {
        let v = test_matrix(200, 4);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(4, 4);
        let before = basis.comm().stats().snapshot();
        Bcgs2::new(IntraKernel::CholQr2)
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "first panel is just CholQR2");
    }

    #[test]
    fn handles_moderately_ill_conditioned_panels() {
        // kappa ~ 1e6 < 1/sqrt(eps): condition (1) holds, so both variants
        // must deliver O(eps) orthogonality.
        let v = testmat::logscaled_matrix(400, 10, 1e6, 5);
        for (name, q) in [
            (
                "cholqr2",
                orthogonalize_with(&mut Bcgs2::new(IntraKernel::CholQr2), &v, 5)
                    .unwrap()
                    .0,
            ),
            (
                "columnwise",
                orthogonalize_with(&mut Bcgs2::new(IntraKernel::Columnwise), &v, 5)
                    .unwrap()
                    .0,
            ),
        ] {
            let err = orthogonality_error(&q.view());
            assert!(err < 1e-12, "{name}: {err}");
        }
    }
}
