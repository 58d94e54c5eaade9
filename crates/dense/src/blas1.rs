//! Level-1 vector kernels (dot, nrm2, axpy, scal).
//!
//! Plain serial loops: each simulated rank runs its kernels on its own
//! thread.  The sums are taken as `0.0 + Σ`, so a sum of `-0.0` terms is
//! `+0.0` whatever `f64::sum` starts from; the committed artifacts pin
//! those bits.

/// Dot product `xᵀ y`.
///
/// Panics if the vectors have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    0.0 + x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>()
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow/underflow
/// for very large or very small entries.
pub fn nrm2(x: &[f64]) -> f64 {
    let maxabs = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let inv = 1.0 / maxabs;
    let sumsq = 0.0 + x.iter().map(|&v| (v * inv) * (v * inv)).sum::<f64>();
    maxabs * sumsq.sqrt()
}

/// `y ← y + alpha·x`.
///
/// Panics if the vectors have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha·x`.
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.5).collect()
    }

    #[test]
    fn dot_matches_serial() {
        let x = seq(10_007);
        let y: Vec<f64> = x.iter().map(|v| v + 1.0).collect();
        let serial: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - serial).abs() <= 1e-10 * serial.abs().max(1.0));
    }

    #[test]
    fn dot_of_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn nrm2_matches_definition() {
        let x = seq(5_001);
        let expect = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm2(&x) - expect).abs() <= 1e-12 * expect);
    }

    #[test]
    fn nrm2_handles_extreme_scales() {
        let big = vec![1e200, 1e200];
        assert!((nrm2(&big) - 1e200 * 2f64.sqrt()).abs() < 1e188);
        let small = vec![1e-200, 1e-200];
        assert!((nrm2(&small) - 1e-200 * 2f64.sqrt()).abs() < 1e-212);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = seq(4_096);
        let mut y = vec![1.0; 4_096];
        axpy(2.0, &x, &mut y);
        for (yi, xi) in y.iter().zip(&x) {
            assert_eq!(*yi, 1.0 + 2.0 * xi);
        }
    }

    #[test]
    fn scal_scales_every_entry() {
        let mut x = seq(3_000);
        let orig = x.clone();
        scal(-0.5, &mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert_eq!(*a, -0.5 * b);
        }
    }
}
