//! Column-wise orthogonalization for standard GMRES.
//!
//! Standard GMRES orthogonalizes one new basis vector per iteration.  The
//! paper's baseline ("GMRES + CGS2" in Table III) uses classical
//! Gram–Schmidt with reorthogonalization: two projection passes and one
//! normalization, i.e. **3 global reduces per iteration** regardless of the
//! iteration index.  Modified Gram–Schmidt is provided as a reference; its
//! reduce count grows with the iteration index, which is why it is never
//! used at scale.

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
        let block = columnwise_cgs2(basis, 0, new.clone())?;
        for (jj, col) in new.clone().enumerate() {
            for i in 0..new.end {
                r[(i, col)] = block[(i, jj)];
            }
        }
        Ok(())
    }
}

/// Column-wise modified Gram–Schmidt (one reduce per already-orthogonalized
/// column plus one for the norm), with **selective reorthogonalization**:
/// when a column loses most of its mass to the projections (the
/// Rutishauser/Parlett cancellation test, evaluated *locally* from the
/// Pythagorean identity `‖v‖² ≈ ‖residual‖² + Σ h_k²`, so well-conditioned
/// columns pay no extra reduces), a second projection sweep restores `O(ε)`
/// orthogonality.  A column that still collapses after the second sweep is
/// numerically inside the span and is reported as a breakdown — plain MGS
/// would silently normalize rounding noise there.
#[derive(Debug, Default)]
pub struct MgsColumnwise;

impl MgsColumnwise {
    /// Create the scheme.
    pub fn new() -> Self {
        Self
    }

    /// Cancellation threshold: reorthogonalize when the residual retains
    /// less than this fraction of the column's pre-projection norm.
    const DROP_TOL: f64 = 0.1;
}

impl BlockOrthogonalizer for MgsColumnwise {
    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        for c in new {
            let mut norm = 0.0;
            for pass in 0..2 {
                let mut proj_sq = 0.0;
                for k in 0..c {
                    let h = basis.dot(k, c);
                    basis.axpy_col(-h, k, c);
                    r[(k, c)] += h;
                    proj_sq += h * h;
                }
                norm = basis.norm2(c);
                // ‖v before this sweep‖² = ‖residual‖² + Σ h².  If the
                // residual kept most of it (or there was nothing to project
                // against), the sweep was clean — no reorthogonalization.
                let before = (norm * norm + proj_sq).sqrt();
                if pass == 1 || c == 0 || norm > Self::DROP_TOL * before {
                    if pass == 1 && norm <= Self::DROP_TOL * before {
                        // Collapsed twice: the column is numerically in the
                        // span of its predecessors.
                        return Err(OrthoError::ZeroNorm {
                            context: "columnwise MGS (column in span after reorthogonalization)",
                            column: c,
                        });
                    }
                    break;
                }
            }
            if norm == 0.0 || !norm.is_finite() {
                return Err(OrthoError::ZeroNorm {
                    context: "columnwise MGS",
                    column: c,
                });
            }
            basis.scale_col(c, 1.0 / norm);
            r[(c, c)] = norm;
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
    fn mgs_column_by_column_is_orthogonal_and_reconstructs() {
        let v = test_matrix(350, 8);
        let (q, r) = run(&mut MgsColumnwise::new(), &v);
        assert!(orthogonality_error(&q.view()) < 1e-12);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..8 {
            for i in 0..350 {
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
    fn mgs_reduce_count_grows_with_iteration_index() {
        let v = test_matrix(200, 6);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = MgsColumnwise::new();
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
        // 5 projections (one reduce each) + 1 norm.
        assert_eq!(delta.allreduces, 6);
    }

    #[test]
    fn zero_column_is_a_breakdown() {
        let mut v = test_matrix(100, 3);
        for i in 0..100 {
            v[(i, 2)] = 0.0;
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(3, 3);
        let mut mgs = MgsColumnwise::new();
        mgs.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
        mgs.orthogonalize_panel(&mut basis, 1..2, &mut r).unwrap();
        assert!(mgs.orthogonalize_panel(&mut basis, 2..3, &mut r).is_err());
    }
}
