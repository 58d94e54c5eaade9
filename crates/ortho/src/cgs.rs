//! Column-wise orthogonalization for standard GMRES.
//!
//! Standard GMRES orthogonalizes one new basis vector per iteration.  The
//! paper's baseline ("GMRES + CGS2" in Table III) uses classical
//! Gram–Schmidt with reorthogonalization: two projection passes and one
//! normalization, i.e. **3 global reduces per iteration** regardless of the
//! iteration index.

use crate::error::OrthoError;
use crate::kernels::columnwise_cgs2;
use crate::traits::BlockOrthogonalizer;
use dense::Matrix;
use distsim::DistMultiVector;
use std::ops::Range;

/// Column-wise CGS2 (the standard-GMRES orthogonalization of the paper).
#[derive(Debug, Default)]
pub struct Cgs2Columnwise;

impl Cgs2Columnwise {
    /// Create the scheme.
    pub fn new() -> Self {
        Self
    }
}

impl BlockOrthogonalizer for Cgs2Columnwise {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let block = columnwise_cgs2(basis, new.clone())?;
        for (jj, col) in new.clone().enumerate() {
            for i in 0..new.end {
                r[(i, col)] = block[(i, jj)];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::orthogonality_error;
    use distsim::SerialComm;

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
        let (q, r) = run(&mut Cgs2Columnwise::new(), &v);
        assert!(orthogonality_error(&q.view()) < 1e-13);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..10 {
            for i in 0..400 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-11 * v.max_abs());
            }
        }
    }

    #[test]
    fn cgs2_uses_three_reduces_per_iteration() {
        let v = test_matrix(200, 6);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = Cgs2Columnwise::new();
        for c in 0..5 {
            scheme
                .orthogonalize_panel(&mut basis, c..c + 1, &mut r)
                .unwrap();
        }
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 5..6, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 3);
    }

    #[test]
    fn zero_column_is_a_breakdown() {
        let mut v = test_matrix(100, 3);
        for i in 0..100 {
            v[(i, 2)] = 0.0;
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(3, 3);
        let mut cgs2 = Cgs2Columnwise::new();
        cgs2.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
        cgs2.orthogonalize_panel(&mut basis, 1..2, &mut r).unwrap();
        assert!(cgs2.orthogonalize_panel(&mut basis, 2..3, &mut r).is_err());
    }
}
