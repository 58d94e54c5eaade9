//! The SIMD level does not reach the solution: a two-stage block solve
//! shaped like the benchmark's `lap2d_k4` (9-point Laplacian, four
//! right-hand sides, s = 5, m = bs = 60) returns the same bits with the
//! kernels capped at AVX2 as with AVX-512's 8×4 Gram/projection tile.
//! The override is process-global, so this binary holds the one test that
//! sets it.

use dense::{Matrix, SimdLevel};
use sparse::laplace2d_9pt;
use ssgmres::{GmresConfig, OrthoKind, SStepGmres, SolveResult};

#[test]
fn lap2d_k4_block_solve_is_bitwise_the_same_under_avx2_and_avx512() {
    let nx = 60;
    let a = laplace2d_9pt(nx, nx);
    let n = a.nrows();
    // Four linearly independent block functions plus fixed noise, as the
    // benchmark's `lap2d_k4` right-hand sides.
    let b: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            let x_star: Vec<f64> = (0..n)
                .map(|i| {
                    let half = if i < n / 2 { 1.0 } else { -1.0 };
                    let quarter = if (4 * i / n).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    let w = [1.0, half, quarter, half * quarter][j];
                    w + 0.1 * ((i * 7 + j * 13) % 17) as f64 / 17.0
                })
                .collect();
            a.spmv_alloc(&x_star)
        })
        .collect();
    let solver = SStepGmres::new(GmresConfig {
        ortho: OrthoKind::TwoStage { big_panel: 60 },
        ..GmresConfig::default()
    });
    let run = |level| -> (Matrix, SolveResult, SimdLevel) {
        dense::set_simd_override(Some(level));
        let ran = dense::simd_level();
        let (x, result) = solver.solve_block_serial(&a, &b);
        dense::set_simd_override(None);
        (x, result, ran)
    };
    let (x_avx2, avx2, ran_avx2) = run(SimdLevel::Avx2);
    let (x_avx512, avx512, ran_avx512) = run(SimdLevel::Avx512);
    if ran_avx512 != SimdLevel::Avx512 {
        eprintln!("no AVX-512 on this host: compared {ran_avx2:?} with {ran_avx512:?} only");
    }
    assert!(avx2.converged, "the lap2d_k4-shaped solve converges");
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(bits(&x_avx2) == bits(&x_avx512), "solution bits diverge");
    assert_eq!(avx2.iterations, avx512.iterations);
    assert_eq!(avx2.health_history, avx512.health_history);
}
