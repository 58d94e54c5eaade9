//! Property tests pinning the blocked/register-tiled BLAS-3 kernels to the
//! retained `naive_*` references on awkward shapes: empty operands, single
//! rows/columns, sizes straddling the register tile ([`dense::TILE`]) and
//! cache panel ([`dense::ROW_BLOCK`]) boundaries, and row counts that are
//! not multiples of the tile or the worker count.
//!
//! Two classes of assertion:
//!
//! * **Value**: `gram`/`gemm_tn` match the naive dot-product formulation to
//!   a tight summation-reordering tolerance; `gemm_nn_minus`,
//!   `trsm_right_upper` and the update half of `fused_update_proj_gram`
//!   perform per-element arithmetic in the same order as the naive sweeps
//!   and must match **bitwise**.
//! * **Determinism**: for a fixed thread count, repeated runs are bitwise
//!   identical (chunk-ordered reductions), at every thread count.

use dense::{Matrix, ROW_BLOCK, TILE};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `parkit`'s thread-count override is process-global; serialize every test
/// that touches it so concurrent test threads don't race each other.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("thread lock poisoned")
}

fn panel(n: usize, s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, s, |i, j| {
        ((i * 31 + j * 17 + seed * 41) % 61) as f64 * 0.03 - 0.9
            + if (i + j + seed).is_multiple_of(7) {
                1.1
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
            1.25 + ((i + seed) % 3) as f64 * 0.5
        } else {
            ((i + 2 * j + seed) % 5) as f64 * 0.15 - 0.3
        }
    })
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.nrows(), b.nrows());
    prop_assert_eq!(a.ncols(), b.ncols());
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            prop_assert!(
                (a[(i, j)] - b[(i, j)]).abs() <= tol,
                "entry ({i},{j}): {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
    Ok(())
}

/// The shapes the issue calls out explicitly, plus tile/panel stragglers.
fn awkward_rows() -> Vec<usize> {
    vec![
        0,
        1,
        TILE - 1,
        TILE + 1,
        3 * TILE + 2,
        ROW_BLOCK - 1,
        ROW_BLOCK + 1,
        2 * ROW_BLOCK + 7,
        1_031, // prime: not a multiple of any tile or thread count
    ]
}

#[test]
fn blocked_kernels_match_naive_on_enumerated_awkward_shapes() {
    let _guard = thread_lock();
    for threads in [1usize, 2, 3, 5] {
        parkit::set_num_threads(threads);
        for n in awkward_rows() {
            for s in [1usize, TILE - 1, TILE, TILE + 1, 9] {
                for k in [0usize, 1, TILE, TILE + 2] {
                    let v = panel(n, s, 3);
                    let q = panel(n, k, 5);
                    let p = Matrix::from_fn(k, s, |i, j| ((i + 3 * j) % 4) as f64 * 0.2 - 0.25);
                    // gram ≈ naive (summation order differs).
                    let tol = 1e-12 * (n.max(1) as f64);
                    let g = dense::gram(&v.view());
                    let g_ref = dense::naive_gram(&v.view());
                    assert_close(&g, &g_ref, tol).unwrap();
                    // gemm_tn ≈ naive.
                    let c = dense::gemm_tn(&q.view(), &v.view());
                    let c_ref = dense::naive_gemm_tn(&q.view(), &v.view());
                    assert_close(&c, &c_ref, tol).unwrap();
                    // gemm_nn_minus: bitwise.
                    let mut w = v.clone();
                    let mut w_ref = v.clone();
                    dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
                    dense::naive_gemm_nn_minus(&mut w_ref.view_mut(), &q.view(), &p);
                    assert_eq!(w, w_ref, "update bitwise (n={n}, s={s}, k={k})");
                    // trsm: bitwise.
                    let r = upper(s, 1);
                    let mut t = v.clone();
                    let mut t_ref = v.clone();
                    dense::trsm_right_upper(&mut t.view_mut(), &r);
                    dense::naive_trsm_right_upper(&mut t_ref.view_mut(), &r);
                    assert_eq!(t, t_ref, "trsm bitwise (n={n}, s={s})");
                    // fused update half: bitwise vs the blocked update.
                    let mut f = v.clone();
                    let (fc, fg) = dense::fused_update_proj_gram(&mut f.view_mut(), &q.view(), &p);
                    assert_eq!(f, w, "fused update bitwise (n={n}, s={s}, k={k})");
                    let fc_ref = dense::naive_gemm_tn(&q.view(), &w.view());
                    let fg_ref = dense::naive_gram(&w.view());
                    assert_close(&fc, &fc_ref, tol).unwrap();
                    assert_close(&fg, &fg_ref, tol).unwrap();
                }
            }
        }
    }
    parkit::set_num_threads(0);
}

#[test]
fn blocked_kernels_are_bitwise_deterministic_per_thread_count() {
    let _guard = thread_lock();
    let n = 2 * ROW_BLOCK + 19;
    let v = panel(n, 7, 11);
    let q = panel(n, 5, 13);
    let p = Matrix::from_fn(5, 7, |i, j| (i as f64 - j as f64) * 0.11);
    for threads in [1usize, 2, 4, 7] {
        parkit::set_num_threads(threads);
        let g1 = dense::gram(&v.view());
        let g2 = dense::gram(&v.view());
        assert_eq!(g1, g2, "gram must be deterministic at {threads} threads");
        let c1 = dense::gemm_tn(&q.view(), &v.view());
        let c2 = dense::gemm_tn(&q.view(), &v.view());
        assert_eq!(c1, c2, "gemm_tn must be deterministic at {threads} threads");
        let mut a = v.clone();
        let mut b = v.clone();
        let (ca, ga) = dense::fused_update_proj_gram(&mut a.view_mut(), &q.view(), &p);
        let (cb, gb) = dense::fused_update_proj_gram(&mut b.view_mut(), &q.view(), &p);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert_eq!(ga, gb);
    }
    parkit::set_num_threads(0);
}

/// The streaming update against the naive `mul_add` sweep across thread
/// counts: `k`-runs on both sides of the 16-column cap, `V` widths 1–5
/// (one full column tile plus a ragged one), and row counts that are
/// multiples of neither the 8-row step nor [`ROW_BLOCK`].
#[test]
fn streaming_update_is_bitwise_naive_across_run_lengths_and_threads() {
    let _guard = thread_lock();
    for threads in [1usize, 3] {
        parkit::set_num_threads(threads);
        for n in [1usize, 9, 15, ROW_BLOCK + 3, 3 * ROW_BLOCK + 21] {
            for k in [1usize, 3, 4, 15, 16, 17, 224] {
                let q = panel(n, k, k + 2);
                for s in 1..=5 {
                    let v = panel(n, s, n + 3 * s);
                    let p = Matrix::from_fn(k, s, |i, j| ((i + 4 * j) % 9) as f64 * 0.11 - 0.47);
                    let mut w = v.clone();
                    let mut w_ref = v.clone();
                    dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
                    dense::naive_gemm_nn_minus(&mut w_ref.view_mut(), &q.view(), &p);
                    assert_eq!(w, w_ref, "n={n} k={k} s={s} threads={threads}");
                }
            }
        }
    }
    parkit::set_num_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gram_and_gemm_tn_match_naive_on_random_shapes(
        n in 0usize..1_300,
        s in 1usize..11,
        k in 1usize..9,
        threads in 1usize..6,
    ) {
        let _guard = thread_lock();
        parkit::set_num_threads(threads);
        let v = panel(n, s, n + s);
        let q = panel(n, k, n + k + 1);
        let tol = 1e-12 * (n.max(1) as f64);
        let g = dense::gram(&v.view());
        let g_ref = dense::naive_gram(&v.view());
        parkit::set_num_threads(0);
        assert_close(&g, &g_ref, tol)?;
        for j in 0..s {
            for i in 0..s {
                prop_assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
        parkit::set_num_threads(threads);
        let c = dense::gemm_tn(&q.view(), &v.view());
        let c_ref = dense::naive_gemm_tn(&q.view(), &v.view());
        parkit::set_num_threads(0);
        assert_close(&c, &c_ref, tol)?;
    }

    #[test]
    fn update_and_trsm_are_bitwise_naive_on_random_shapes(
        n in 0usize..1_300,
        s in 1usize..11,
        k in 1usize..9,
        threads in 1usize..6,
    ) {
        let _guard = thread_lock();
        parkit::set_num_threads(threads);
        let v = panel(n, s, 2 * n + s);
        let q = panel(n, k, n + 3);
        let p = Matrix::from_fn(k, s, |i, j| ((2 * i + j) % 5) as f64 * 0.17 - 0.2);
        let r = upper(s, n % 7);
        let mut w = v.clone();
        let mut w_ref = v.clone();
        dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
        dense::naive_gemm_nn_minus(&mut w_ref.view_mut(), &q.view(), &p);
        let mut t = v.clone();
        let mut t_ref = v.clone();
        dense::trsm_right_upper(&mut t.view_mut(), &r);
        dense::naive_trsm_right_upper(&mut t_ref.view_mut(), &r);
        parkit::set_num_threads(0);
        prop_assert!(w == w_ref, "blocked update diverged from naive");
        prop_assert!(t == t_ref, "row-parallel TRSM diverged from naive");
    }
}
