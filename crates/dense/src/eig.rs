//! Small dense eigensolvers: symmetric (cyclic Jacobi) and real upper
//! Hessenberg (Francis double-shift QR).
//!
//! The paper's numerical study reports condition numbers `κ(V)` and
//! orthogonality errors `‖I − QᵀQ‖₂`.  Both reduce to eigenvalues of small
//! symmetric matrices (`VᵀV` is `s×s` or `(m+1)×(m+1)` at most), for which
//! the cyclic Jacobi method is simple, robust and accurate (it computes tiny
//! eigenvalues of ill-conditioned Gram matrices to high relative accuracy,
//! which matters when measuring condition numbers near `1/ε`).
//!
//! The Newton-basis pipeline additionally needs the eigenvalues (Ritz
//! values) of the *nonsymmetric* upper-Hessenberg matrix that GMRES
//! recovers — generally complex for the row/column-scaled matrices of the
//! evaluation — so [`hessenberg_eigvals`] implements the implicit
//! double-shift QR iteration on a real Hessenberg matrix, returning
//! eigenvalues as `(re, im)` pairs with conjugate pairs adjacent.

use crate::matrix::Matrix;

/// Maximum number of Jacobi sweeps before giving up (convergence is
/// typically reached in < 15 sweeps for the matrix sizes used here).
const MAX_SWEEPS: usize = 64;

/// Eigenvalues (ascending) of a symmetric matrix, by cyclic Jacobi
/// rotations.
///
/// Only the upper triangle of `a` is read.
pub fn sym_eigvals(a: &Matrix) -> Vec<f64> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "sym_eigvals: matrix must be square");
    let mut m = a.clone();
    // Symmetrize from the upper triangle.
    for j in 0..n {
        for i in 0..j {
            let v = m[(i, j)];
            m[(j, i)] = v;
        }
    }
    if n <= 1 {
        return if n == 1 { vec![m[(0, 0)]] } else { Vec::new() };
    }
    let tol = f64::EPSILON * off_norm(&m).max(f64::MIN_POSITIVE);
    for _sweep in 0..MAX_SWEEPS {
        let off = off_norm(&m);
        if off <= tol {
            break;
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation J(p, q, θ) on both sides of M.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
            }
        }
    }
    let mut eigvals: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    eigvals.sort_by(|x, y| x.partial_cmp(y).unwrap());
    eigvals
}

/// The double-shift QR iteration failed to deflate an eigenvalue within the
/// iteration cap — in practice only possible for adversarially constructed
/// matrices; the Newton-shift harvester treats it as "no shifts available".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HessEigError {
    /// Index of the eigenvalue (active block end) that failed to converge.
    pub eigenvalue_index: usize,
}

impl std::fmt::Display for HessEigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Hessenberg QR iteration failed to converge at eigenvalue {}",
            self.eigenvalue_index
        )
    }
}

impl std::error::Error for HessEigError {}

/// Per-eigenvalue iteration cap of the double-shift QR loop (the classical
/// hqr cap, with exceptional shifts at 10 and 20 to break limit cycles).
const HQR_MAX_ITS: usize = 30;

/// Eigenvalues of a real upper-Hessenberg matrix as `(re, im)` pairs,
/// computed by the implicit double-shift (Francis) QR iteration with
/// deflation — the classical hqr algorithm (Golub & Van Loan, Alg. 7.5.x /
/// EISPACK `hqr`), which handles complex-conjugate eigenvalue pairs in real
/// arithmetic.
///
/// Entries below the first subdiagonal are ignored, so the leading `k×k`
/// block of a `(k+1)×k` GMRES Hessenberg matrix can be passed directly.
/// Complex eigenvalues come out in adjacent conjugate pairs
/// (`im > 0` first); ordering is otherwise the deflation order.
pub fn hessenberg_eigvals(a: &Matrix) -> Result<Vec<(f64, f64)>, HessEigError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "hessenberg_eigvals: matrix must be square");
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut h = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n.min(j + 2) {
            h[(i, j)] = a[(i, j)];
        }
    }
    // Norm used as the deflation scale when a diagonal pair vanishes.
    let mut anorm = 0.0f64;
    for j in 0..n {
        for i in 0..n.min(j + 2) {
            anorm += h[(i, j)].abs();
        }
    }
    let anorm = anorm.max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;
    let mut eigs = vec![(0.0f64, 0.0f64); n];
    let mut t = 0.0f64; // accumulated exceptional shifts
    let mut hi = n; // active block is rows/cols 0..hi
    while hi > 0 {
        let mut its = 0usize;
        loop {
            let nn = hi - 1;
            // Deflation scan: smallest l with a negligible subdiagonal
            // below it (l = 0 when none is negligible).
            let mut l = nn;
            while l > 0 {
                let s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if h[(l, l - 1)].abs() <= eps * s {
                    h[(l, l - 1)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let x = h[(nn, nn)];
            if l == nn {
                // 1×1 deflation: a real eigenvalue.
                eigs[nn] = (x + t, 0.0);
                hi -= 1;
                break;
            }
            let y = h[(nn - 1, nn - 1)];
            let w = h[(nn, nn - 1)] * h[(nn - 1, nn)];
            if l + 1 == nn {
                // 2×2 deflation: a real pair or a conjugate pair.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                let x = x + t;
                if q >= 0.0 {
                    let z = p + z.copysign(if p == 0.0 { 1.0 } else { p });
                    eigs[nn - 1] = (x + z, 0.0);
                    eigs[nn] = (if z != 0.0 { x - w / z } else { x + z }, 0.0);
                } else {
                    eigs[nn - 1] = (x + p, z);
                    eigs[nn] = (x + p, -z);
                }
                hi -= 2;
                break;
            }
            if its == HQR_MAX_ITS {
                return Err(HessEigError {
                    eigenvalue_index: nn,
                });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 {
                // Exceptional shift to break limit cycles.
                t += x;
                for i in 0..=nn {
                    let v = h[(i, i)] - x;
                    h[(i, i)] = v;
                }
                let s = h[(nn, nn - 1)].abs() + h[(nn - 1, nn - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            // Look for two consecutive small subdiagonal elements to start
            // the implicit double-shift bulge as far down as possible.
            let mut m = nn - 2;
            let (mut p, mut q, mut r);
            loop {
                let z = h[(m, m)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / h[(m + 1, m)] + h[(m, m + 1)];
                q = h[(m + 1, m + 1)] - z - rr - ss;
                r = h[(m + 2, m + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = h[(m, m - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (h[(m - 1, m - 1)].abs() + z.abs() + h[(m + 1, m + 1)].abs());
                if u <= eps * v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nn {
                h[(i, i - 2)] = 0.0;
                if i > m + 2 {
                    h[(i, i - 3)] = 0.0;
                }
            }
            // Double QR step: chase the 3×3 bulge down rows l..=nn.
            for k in m..nn {
                if k != m {
                    p = h[(k, k - 1)];
                    q = h[(k + 1, k - 1)];
                    r = if k != nn - 1 { h[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = (p * p + q * q + r * r)
                    .sqrt()
                    .copysign(if p == 0.0 { 1.0 } else { p });
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m {
                        let v = -h[(k, k - 1)];
                        h[(k, k - 1)] = v;
                    }
                } else {
                    h[(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification (apply the reflector from the left).
                for j in k..=nn {
                    let mut pp = h[(k, j)] + q * h[(k + 1, j)];
                    if k != nn - 1 {
                        pp += r * h[(k + 2, j)];
                    }
                    let a0 = h[(k, j)] - pp * x;
                    let a1 = h[(k + 1, j)] - pp * y;
                    h[(k, j)] = a0;
                    h[(k + 1, j)] = a1;
                    if k != nn - 1 {
                        let a2 = h[(k + 2, j)] - pp * z;
                        h[(k + 2, j)] = a2;
                    }
                }
                // Column modification (apply it from the right).
                let imax = nn.min(k + 3);
                for i in l..=imax {
                    let mut pp = x * h[(i, k)] + y * h[(i, k + 1)];
                    if k != nn - 1 {
                        pp += z * h[(i, k + 2)];
                    }
                    let a0 = h[(i, k)] - pp;
                    let a1 = h[(i, k + 1)] - pp * q;
                    h[(i, k)] = a0;
                    h[(i, k + 1)] = a1;
                    if k != nn - 1 {
                        let a2 = h[(i, k + 2)] - pp * r;
                        h[(i, k + 2)] = a2;
                    }
                }
            }
        }
    }
    Ok(eigs)
}

/// Frobenius norm of the off-diagonal part.
fn off_norm(m: &Matrix) -> f64 {
    let n = m.nrows();
    let mut acc = 0.0;
    for j in 0..n {
        for i in 0..n {
            if i != j {
                acc += m[(i, j)] * m[(i, j)];
            }
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm_nn;

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        assert_eq!(sym_eigvals(&a), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let vals = sym_eigvals(&a);
        assert!((vals[0] - 1.0).abs() < 1e-14);
        assert!((vals[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn eigenvalues_keep_the_trace_and_the_frobenius_norm() {
        // Orthogonal similarity preserves Σλ = tr(A) and Σλ² = ‖A‖_F².
        let b = Matrix::from_fn(6, 6, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let a = gemm_nn(&b.transpose(), &b); // symmetric PSD
        let vals = sym_eigvals(&a);
        let trace: f64 = (0..6).map(|i| a[(i, i)]).sum();
        let frob_sq: f64 = a.data().iter().map(|v| v * v).sum();
        let sum: f64 = vals.iter().sum();
        let sum_sq: f64 = vals.iter().map(|v| v * v).sum();
        assert!((sum - trace).abs() < 1e-10 * trace);
        assert!((sum_sq - frob_sq).abs() < 1e-10 * frob_sq);
    }

    #[test]
    fn handles_tiny_and_empty_matrices() {
        assert_eq!(sym_eigvals(&Matrix::from_rows(&[&[5.0]])), vec![5.0]);
        assert!(sym_eigvals(&Matrix::zeros(0, 0)).is_empty());
    }

    #[test]
    fn resolves_widely_spread_eigenvalues() {
        // Gram-like matrix with eigenvalues spanning ~12 orders of magnitude.
        let d = [1.0, 1e-6, 1e-12];
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = d[i];
        }
        let vals = sym_eigvals(&a);
        assert!((vals[0] - 1e-12).abs() < 1e-24 + 1e-15 * 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn negative_eigenvalues_are_found() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]); // eigenvalues ±1
        let vals = sym_eigvals(&a);
        assert!((vals[0] + 1.0).abs() < 1e-14);
        assert!((vals[1] - 1.0).abs() < 1e-14);
    }

    /// Sort (re, im) pairs lexicographically for order-insensitive compares.
    fn sorted(mut v: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn hessenberg_eigvals_of_triangular_matrix_is_its_diagonal() {
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (j + 1) as f64
            } else if i < j {
                0.3 * (i + j) as f64
            } else {
                0.0
            }
        });
        let eigs = sorted(hessenberg_eigvals(&a).unwrap());
        for (k, &(re, im)) in eigs.iter().enumerate() {
            assert!((re - (k + 1) as f64).abs() < 1e-12, "{eigs:?}");
            assert_eq!(im, 0.0);
        }
    }

    #[test]
    fn hessenberg_eigvals_matches_symmetric_jacobi_on_tridiagonal() {
        // 1-D Laplacian: eigenvalues 2 − 2cos(kπ/(n+1)), also checkable
        // against the symmetric Jacobi solver.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let mut eigs: Vec<f64> = hessenberg_eigvals(&a)
            .unwrap()
            .iter()
            .map(|&(re, im)| {
                assert!(im.abs() < 1e-12);
                re
            })
            .collect();
        eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sym = sym_eigvals(&a);
        for (k, (qr, j)) in eigs.iter().zip(&sym).enumerate() {
            let exact = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
            assert!((qr - j).abs() < 1e-10, "QR {qr} vs Jacobi {j}");
            assert!((qr - exact).abs() < 1e-10, "QR {qr} vs exact {exact}");
        }
    }

    #[test]
    fn hessenberg_eigvals_finds_complex_conjugate_pairs() {
        // Companion matrix of (λ² − 2λ + 5)(λ − 3): roots 1 ± 2i and 3.
        // p(λ) = λ³ − 5λ² + 11λ − 15.
        let a = Matrix::from_rows(&[&[5.0, -11.0, 15.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let eigs = hessenberg_eigvals(&a).unwrap();
        let complex: Vec<&(f64, f64)> = eigs.iter().filter(|e| e.1 != 0.0).collect();
        assert_eq!(complex.len(), 2, "{eigs:?}");
        for &&(re, im) in &complex {
            assert!((re - 1.0).abs() < 1e-10, "{eigs:?}");
            assert!((im.abs() - 2.0).abs() < 1e-10, "{eigs:?}");
        }
        // Conjugates are adjacent with the im > 0 member first.
        let pos = eigs.iter().position(|e| e.1 > 0.0).unwrap();
        assert_eq!(eigs[pos + 1].0, eigs[pos].0);
        assert_eq!(eigs[pos + 1].1, -eigs[pos].1);
        let real: Vec<&(f64, f64)> = eigs.iter().filter(|e| e.1 == 0.0).collect();
        assert_eq!(real.len(), 1);
        assert!((real[0].0 - 3.0).abs() < 1e-10);
    }

    #[test]
    fn hessenberg_eigvals_rotation_block_is_exactly_complex() {
        // [[c, -s], [s, c]] has eigenvalues c ± i·s.
        let (c, s) = (0.6f64, 0.8f64);
        let a = Matrix::from_rows(&[&[c, -s], &[s, c]]);
        let eigs = hessenberg_eigvals(&a).unwrap();
        assert!((eigs[0].0 - c).abs() < 1e-14);
        assert!((eigs[0].1 - s).abs() < 1e-14);
        assert!((eigs[1].1 + s).abs() < 1e-14);
    }

    #[test]
    fn hessenberg_eigvals_preserves_trace_and_conjugate_closure() {
        // A pseudo-random Hessenberg matrix: the eigenvalue multiset must be
        // closed under conjugation and sum to the trace.
        let n = 9;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i <= j + 1 {
                (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) * 0.25
            } else {
                0.0
            }
        });
        let eigs = hessenberg_eigvals(&a).unwrap();
        assert_eq!(eigs.len(), n);
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let eig_sum: f64 = eigs.iter().map(|e| e.0).sum();
        let imag_sum: f64 = eigs.iter().map(|e| e.1).sum();
        let scale: f64 = eigs.iter().map(|e| e.0.abs() + e.1.abs()).sum::<f64>();
        assert!((eig_sum - trace).abs() < 1e-10 * scale.max(1.0));
        assert!(imag_sum.abs() < 1e-10 * scale.max(1.0));
        for &(re, im) in &eigs {
            if im != 0.0 {
                assert!(
                    eigs.iter()
                        .any(|&(re2, im2)| (re2 - re).abs() < 1e-9 && (im2 + im).abs() < 1e-9),
                    "conjugate of ({re}, {im}) missing: {eigs:?}"
                );
            }
        }
    }

    #[test]
    fn hessenberg_eigvals_handles_degenerate_sizes() {
        assert!(hessenberg_eigvals(&Matrix::zeros(0, 0)).unwrap().is_empty());
        let one = hessenberg_eigvals(&Matrix::from_rows(&[&[4.5]])).unwrap();
        assert_eq!(one, vec![(4.5, 0.0)]);
        // Already-deflated (diagonal) input.
        let mut d = Matrix::zeros(4, 4);
        for i in 0..4 {
            d[(i, i)] = i as f64 - 1.5;
        }
        let eigs = sorted(hessenberg_eigvals(&d).unwrap());
        for (k, &(re, im)) in eigs.iter().enumerate() {
            assert_eq!((re, im), (k as f64 - 1.5, 0.0));
        }
    }

    #[test]
    fn hessenberg_eigvals_ignores_entries_below_the_subdiagonal() {
        // The (k+1)×k GMRES recovery matrix is passed as its leading k×k
        // block; any stale entries below the first subdiagonal are ignored.
        let mut a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        let clean = hessenberg_eigvals(&a).unwrap();
        a[(2, 0)] = 1e6; // garbage below the subdiagonal
        let dirty = hessenberg_eigvals(&a).unwrap();
        assert_eq!(sorted(clean), sorted(dirty));
    }
}
