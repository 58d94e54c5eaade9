//! Property battery for the runtime-dispatched SIMD tile kernels: every
//! blocked kernel is pinned to its `naive_*` oracle on awkward shapes — row
//! counts that are not multiples of the register tile ([`dense::TILE`]) or
//! the 4-wide AVX2 lane, `s ∈ 1..=10`, and the `k = 0` edge — and the
//! scalar and SIMD backends are
//! cross-checked against each other (bitwise for the update/TRSM class,
//! tolerance for the Gram/projection class).  The streaming update has its
//! own cases: `k`-runs crossing the 16-column cap, `V` widths 1–5, row
//! counts off the 8-row step, and zero coefficients inside a run.
//!
//! The tiled TRSM has its own battery at the stage-2 flush widths, where
//! the left-looking register tile (rather than the ragged column sweep)
//! does nearly all the work.
//!
//! On an AVX-512 host the 8×4 Gram/projection tile is pinned bit for bit
//! to the AVX2 tiles it replaces, on its own and through every blocked
//! kernel, over awkward shapes and the `lap2d_k4` shapes.
//!
//! Nothing here asserts on wall-clock time: the fused kernel's speed over
//! the separate sweeps is checked by
//! `BENCH_SCALING_CHECK=1 cargo run -p bench --release --bin kernels`
//! (CI's `bench-quick` job), not by tier-1.

use dense::{Matrix, SimdLevel, ROW_BLOCK, TILE};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The SIMD backend override is process-global; serialize every test that
/// touches it.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn panel(n: usize, s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, s, |i, j| {
        ((i * 29 + j * 23 + seed * 37) % 67) as f64 * 0.029 - 0.95
            + if (i + 2 * j + seed).is_multiple_of(11) {
                1.3
            } else {
                0.0
            }
    })
}

fn upper(s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(s, s, |i, j| {
        if i > j {
            0.0
        } else if i == j {
            1.4 + ((i + seed) % 3) as f64 * 0.3
        } else {
            ((2 * i + j + seed) % 5) as f64 * 0.12 - 0.25
        }
    })
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{what}: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "{what}: col mismatch");
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            assert!(
                (a[(i, j)] - b[(i, j)]).abs() <= tol,
                "{what} entry ({i},{j}): {} vs {} (tol {tol:.3e})",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

/// Row counts straddling the register tile and the 4-wide AVX2 lane: the
/// interesting remainders are 1..=3 rows past a tile/lane boundary plus the
/// panel-boundary stragglers.
fn awkward_rows() -> Vec<usize> {
    vec![
        0,
        1,
        2,
        3,
        TILE - 1,
        TILE + 1,
        TILE + 3,
        2 * TILE + 1,
        7 * TILE + 2,
        ROW_BLOCK - 1,
        ROW_BLOCK + 5,
        2 * ROW_BLOCK + 3,
        1_031, // prime
    ]
}

/// Every kernel vs its oracle on one (n, s, k) shape under the current
/// backend.
fn check_shape(n: usize, s: usize, k: usize) {
    let v = panel(n, s, 3);
    let q = panel(n, k, 5);
    let p = Matrix::from_fn(k, s, |i, j| ((i + 3 * j) % 4) as f64 * 0.21 - 0.3);
    let r = upper(s, 2);
    let tol = 1e-10 * (n.max(1) as f64);
    // Tolerance class: gram / gemm_tn.
    assert_close(
        &dense::gram(&v.view()),
        &dense::naive_gram(&v.view()),
        tol,
        "gram",
    );
    assert_close(
        &dense::gemm_tn(&q.view(), &v.view()),
        &dense::naive_gemm_tn(&q.view(), &v.view()),
        tol,
        "gemm_tn",
    );
    // Bitwise class: update, TRSM, and the fused update half.
    let mut w = v.clone();
    let mut w_ref = v.clone();
    dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
    dense::naive_gemm_nn_minus(&mut w_ref.view_mut(), &q.view(), &p);
    assert_eq!(w, w_ref, "update bitwise (n={n}, s={s}, k={k})");
    let mut t = v.clone();
    let mut t_ref = v.clone();
    dense::trsm_right_upper(&mut t.view_mut(), &r);
    dense::naive_trsm_right_upper(&mut t_ref.view_mut(), &r);
    assert_eq!(t, t_ref, "trsm bitwise (n={n}, s={s})");
    let mut f = v.clone();
    let (fc, fg) = dense::fused_update_proj_gram(&mut f.view_mut(), &q.view(), &p);
    assert_eq!(f, w, "fused update bitwise (n={n}, s={s}, k={k})");
    assert_close(
        &fc,
        &dense::naive_gemm_tn(&q.view(), &w.view()),
        tol,
        "fused C",
    );
    assert_close(&fg, &dense::naive_gram(&w.view()), tol, "fused G");
}

#[test]
fn simd_kernels_match_oracles_on_awkward_shapes() {
    let _guard = global_lock();
    for n in awkward_rows() {
        for s in [1usize, 2, TILE - 1, TILE, TILE + 1, 10] {
            for k in [0usize, 1, TILE, TILE + 2] {
                check_shape(n, s, k);
            }
        }
    }
}

#[test]
fn scalar_backend_matches_oracles_on_awkward_shapes() {
    let _guard = global_lock();
    dense::set_simd_override(Some(SimdLevel::Scalar));
    for n in [1usize, TILE + 1, ROW_BLOCK + 5, 1_031] {
        for (s, k) in [(1usize, 0usize), (5, 3), (10, TILE)] {
            check_shape(n, s, k);
        }
    }
    dense::set_simd_override(None);
}

#[test]
fn update_class_is_bitwise_identical_across_backends() {
    let _guard = global_lock();
    for n in [1usize, TILE + 3, ROW_BLOCK + 1, 1_031] {
        let s = 7;
        let k = 5;
        let v = panel(n, s, 9);
        let q = panel(n, k, 4);
        let p = Matrix::from_fn(k, s, |i, j| ((2 * i + j) % 5) as f64 * 0.19 - 0.3);
        let r = upper(s, 6);
        dense::set_simd_override(Some(SimdLevel::Scalar));
        let mut w_scalar = v.clone();
        dense::gemm_nn_minus(&mut w_scalar.view_mut(), &q.view(), &p);
        let mut t_scalar = v.clone();
        dense::trsm_right_upper(&mut t_scalar.view_mut(), &r);
        let mut f_scalar = v.clone();
        let _ = dense::fused_update_proj_gram(&mut f_scalar.view_mut(), &q.view(), &p);
        dense::set_simd_override(None);
        let mut w_auto = v.clone();
        dense::gemm_nn_minus(&mut w_auto.view_mut(), &q.view(), &p);
        let mut t_auto = v.clone();
        dense::trsm_right_upper(&mut t_auto.view_mut(), &r);
        let mut f_auto = v.clone();
        let _ = dense::fused_update_proj_gram(&mut f_auto.view_mut(), &q.view(), &p);
        assert_eq!(w_scalar, w_auto, "update must not depend on the backend");
        assert_eq!(t_scalar, t_auto, "trsm must not depend on the backend");
        assert_eq!(
            f_scalar, f_auto,
            "fused update must not depend on the backend"
        );
    }
}

#[test]
fn gram_class_backends_agree_within_ulp_envelope() {
    let _guard = global_lock();
    for n in [TILE + 1, ROW_BLOCK + 5, 2_051] {
        let v = panel(n, 9, 1);
        let q = panel(n, 6, 2);
        dense::set_simd_override(Some(SimdLevel::Scalar));
        let g_scalar = dense::gram(&v.view());
        let c_scalar = dense::gemm_tn(&q.view(), &v.view());
        dense::set_simd_override(None);
        let g_auto = dense::gram(&v.view());
        let c_auto = dense::gemm_tn(&q.view(), &v.view());
        // FMA + lane reassociation envelope, far tighter than the oracle
        // tolerance.
        let tol = 1e-12 * (n as f64);
        assert_close(&g_scalar, &g_auto, tol, "gram backend envelope");
        assert_close(&c_scalar, &c_auto, tol, "gemm_tn backend envelope");
    }
}

/// Upper-triangular factor with structural zeros: whole 4×4 coefficient
/// tiles that are zero-free (the register-tile path), tiles with a few
/// zeros and all-zero tiles (the skipping path), in one matrix.
fn upper_with_zeros(s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(s, s, |i, j| {
        if i > j {
            0.0
        } else if i == j {
            1.4 + ((i + seed) % 3) as f64 * 0.3
        } else if (i / TILE + j / TILE + seed).is_multiple_of(3) {
            // A zero-free tile.
            ((2 * i + j + seed) % 5) as f64 * 0.12 + 0.05
        } else if (i / TILE + 2 * (j / TILE) + seed).is_multiple_of(5) {
            0.0
        } else {
            ((2 * i + j + seed) % 5) as f64 * 0.12 - 0.24
        }
    })
}

#[test]
fn tiled_trsm_is_bitwise_naive_at_flush_widths_on_both_backends() {
    let _guard = global_lock();
    let widths = (1usize..=9).chain([20, 59, 60, 61, 240]);
    for s in widths {
        // Neither a multiple of the register tile nor of the row panel.
        for n in [TILE + 1, ROW_BLOCK + 3, 2 * ROW_BLOCK + 2 * TILE + 1] {
            let v = panel(n, s, s + n);
            for r in [upper(s, 4), upper_with_zeros(s, s)] {
                let mut t_ref = v.clone();
                dense::naive_trsm_right_upper(&mut t_ref.view_mut(), &r);
                for backend in [Some(SimdLevel::Scalar), None] {
                    dense::set_simd_override(backend);
                    let mut t = v.clone();
                    dense::trsm_right_upper(&mut t.view_mut(), &r);
                    assert!(
                        t == t_ref,
                        "tiled trsm diverged from naive: n={n} s={s} backend={backend:?}"
                    );
                }
            }
        }
    }
    dense::set_simd_override(None);
}

/// Row counts that are multiples of neither the 8-row AVX2 step nor
/// [`ROW_BLOCK`], so the scalar row tail runs too.
const STREAM_ROWS: [usize; 5] = [1, 7, 13, ROW_BLOCK + 5, 2 * ROW_BLOCK + 11];

/// `k`-run lengths around the 16-column cap of the streaming update.
const STREAM_KS: [usize; 7] = [1, 3, 4, 15, 16, 17, 224];

/// The streaming update (`gemm_nn_minus` and the fused update) on every
/// backend against the naive `mul_add` sweep, bit for bit, with zero-free
/// coefficients so every full column tile streams whole runs.
#[test]
fn streaming_update_is_bitwise_across_backends_and_naive() {
    let _guard = global_lock();
    for n in STREAM_ROWS {
        for k in STREAM_KS {
            let q = panel(n, k, k);
            for s in 1..=5 {
                let v = panel(n, s, n + s);
                let p = Matrix::from_fn(k, s, |i, j| ((3 * i + j) % 7) as f64 * 0.13 - 0.4);
                let mut naive = v.clone();
                dense::naive_gemm_nn_minus(&mut naive.view_mut(), &q.view(), &p);
                for backend in [Some(SimdLevel::Scalar), None] {
                    dense::set_simd_override(backend);
                    let mut w = v.clone();
                    dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
                    let mut f = v.clone();
                    let _ = dense::fused_update_proj_gram(&mut f.view_mut(), &q.view(), &p);
                    assert!(
                        bits(&w) == bits(&naive) && bits(&f) == bits(&naive),
                        "streaming update diverged: n={n} k={k} s={s} backend={backend:?}"
                    );
                }
            }
        }
    }
    dense::set_simd_override(None);
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// A zero coefficient inside what would otherwise be one run must be
/// skipped, not multiplied: it keeps a `-0.0` in `V` (multiplying `0·(−1)`
/// in would turn it into `+0.0`), and a `Q` column of Inf and NaN whose
/// coefficients are all zero never reaches `V`.
#[test]
fn streaming_update_skips_zero_coefficients_inside_a_run() {
    let _guard = global_lock();
    let (n, k, s) = (2 * ROW_BLOCK + 13, 40, 5);
    let (zero_k, poison_k) = (20, 30);
    let signed_rows = [5, 11, ROW_BLOCK + 1, n - 1];
    let mut q = panel(n, k, 1);
    for &i in &signed_rows {
        for kk in 0..k {
            q[(i, kk)] = if kk == zero_k { -1.0 } else { 0.0 };
        }
    }
    q[(3, poison_k)] = f64::INFINITY;
    q[(n - 2, poison_k)] = f64::NAN;
    // Column 2's coefficients are positive except the one zero at
    // `zero_k`; the poisoned column has a zero coefficient everywhere.
    let p = Matrix::from_fn(k, s, |i, j| {
        if i == poison_k || (i == zero_k && j == 2) {
            0.0
        } else {
            ((i + 2 * j) % 5) as f64 * 0.1 + 0.05
        }
    });
    let mut v = panel(n, s, 2);
    for &i in &signed_rows {
        v[(i, 2)] = -0.0;
    }
    let mut naive = v.clone();
    dense::naive_gemm_nn_minus(&mut naive.view_mut(), &q.view(), &p);
    for backend in [Some(SimdLevel::Scalar), None] {
        dense::set_simd_override(backend);
        let mut w = v.clone();
        dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
        assert!(bits(&w) == bits(&naive), "backend={backend:?}");
        for &i in &signed_rows {
            assert_eq!(w[(i, 2)].to_bits(), (-0.0f64).to_bits(), "row {i}");
        }
        assert!(
            w.data().iter().all(|x| x.is_finite()),
            "backend={backend:?}"
        );
    }
    dense::set_simd_override(None);
}

/// `f` run with the kernels capped at `level`.
fn under<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    dense::set_simd_override(Some(level));
    let out = f();
    dense::set_simd_override(None);
    out
}

/// Every blocked kernel's output bits at one shape under the current cap.
fn kernel_bits(n: usize, s: usize, k: usize) -> Vec<Vec<u64>> {
    let v = panel(n, s, n + s);
    let q = panel(n, k, k + 1);
    let p = Matrix::from_fn(k, s, |i, j| ((3 * i + j) % 7) as f64 * 0.13 - 0.4);
    let mut w = v.clone();
    dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
    let mut t = v.clone();
    dense::trsm_right_upper(&mut t.view_mut(), &upper(s, 3));
    let mut f = v.clone();
    let (fc, fg) = dense::fused_update_proj_gram(&mut f.view_mut(), &q.view(), &p);
    [
        dense::gram(&v.view()),
        dense::gemm_tn(&q.view(), &v.view()),
        w,
        t,
        f,
        fc,
        fg,
    ]
    .iter()
    .map(bits)
    .collect()
}

/// AVX-512 returns AVX2's bits: the 8×4 tile against two AVX2 4×4 tiles
/// entry by entry, then `gram`, `gemm_tn`, `fused_update_proj_gram`,
/// `gemm_nn_minus` and `trsm_right_upper` over column counts off the
/// 8-column tile, row counts off the 256-row panel, 1–3 rows, and the
/// `lap2d_k4` shapes (the 14 400×244 stage-2 Gram, the 224×20 stage-1
/// projection).  On a host without AVX-512 both runs take the AVX2 (or
/// scalar) bodies and the comparison holds trivially.
#[test]
fn avx512_matches_avx2_bitwise_on_tiles_and_blocked_kernels() {
    let _guard = global_lock();
    let wide = under(SimdLevel::Avx512, dense::simd_level);
    if wide != SimdLevel::Avx512 {
        eprintln!("no AVX-512 on this host: compared {wide:?} with itself");
    }
    for n in [0usize, 1, 2, 3, 5, 255, 257, 2 * ROW_BLOCK + 7] {
        let cols: Vec<Vec<f64>> = (0..12).map(|c| panel(n, 1, c).data().to_vec()).collect();
        let a: [&[f64]; 8] = std::array::from_fn(|i| &cols[i][..]);
        let b: [&[f64]; 4] = std::array::from_fn(|j| &cols[8 + j][..]);
        let tile = |level| {
            under(level, || {
                let mut t = [0.0f64; 32];
                dense::simd::tn_tile8x4(&a, &b, &mut t);
                t.map(f64::to_bits)
            })
        };
        let quarters = under(SimdLevel::Avx2, || {
            let mut t = [0u64; 32];
            for half in 0..2 {
                let mut q = [0.0f64; 16];
                let a4 = std::array::from_fn(|i| a[4 * half + i]);
                dense::simd::tn_tile4x4(&a4, &b, &mut q);
                for jj in 0..4 {
                    for ii in 0..4 {
                        t[jj * 8 + 4 * half + ii] = q[jj * 4 + ii].to_bits();
                    }
                }
            }
            t
        });
        assert_eq!(tile(SimdLevel::Avx512), quarters, "8x4 tile, n={n}");
        assert_eq!(tile(SimdLevel::Avx2), quarters, "AVX2 8x4 tile, n={n}");
    }
    for n in [1usize, 2, 3, ROW_BLOCK - 1, 2 * ROW_BLOCK + 5] {
        for s in [1usize, 3, 5, 8, 13, 20] {
            for k in [0usize, 3, 12, 17] {
                assert_eq!(
                    under(SimdLevel::Avx512, || kernel_bits(n, s, k)),
                    under(SimdLevel::Avx2, || kernel_bits(n, s, k)),
                    "n={n} s={s} k={k}"
                );
            }
        }
    }
    let v = panel(14_400, 244, 1);
    let q = panel(14_400, 224, 2);
    let w = panel(14_400, 20, 3);
    let k4 = || {
        [dense::gram(&v.view()), dense::gemm_tn(&q.view(), &w.view())]
            .iter()
            .map(bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        under(SimdLevel::Avx512, k4),
        under(SimdLevel::Avx2, k4),
        "lap2d_k4 shapes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes around lane/tile boundaries, including the k = 0 edge.
    #[test]
    fn random_shapes_match_oracles(
        n in 0usize..1_500,
        s in 1usize..11,
        k in 0usize..9,
    ) {
        let _guard = global_lock();
        check_shape(n, s, k);
    }
}
