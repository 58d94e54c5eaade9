//! Property tests pinning the blocked/register-tiled BLAS-3 kernels to the
//! retained `naive_*` references on awkward shapes: empty operands, single
//! rows/columns, sizes straddling the register tile ([`dense::TILE`]) and
//! cache panel ([`dense::ROW_BLOCK`]) boundaries, and row counts that are
//! not multiples of the tile.
//!
//! `gram`/`gemm_tn` match the naive dot-product formulation to a tight
//! summation-reordering tolerance; `gemm_nn_minus`, `trsm_right_upper` and
//! the update half of `fused_update_proj_gram` perform per-element
//! arithmetic in the same order as the naive sweeps and must match
//! **bitwise**.

use dense::{Matrix, ROW_BLOCK, TILE};
use proptest::prelude::*;

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
        1_031, // prime: not a multiple of any tile
    ]
}

#[test]
fn blocked_kernels_match_naive_on_enumerated_awkward_shapes() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gram_and_gemm_tn_match_naive_on_random_shapes(
        n in 0usize..1_300,
        s in 1usize..11,
        k in 1usize..9,
    ) {
        let v = panel(n, s, n + s);
        let q = panel(n, k, n + k + 1);
        let tol = 1e-12 * (n.max(1) as f64);
        let g = dense::gram(&v.view());
        let g_ref = dense::naive_gram(&v.view());
        assert_close(&g, &g_ref, tol)?;
        for j in 0..s {
            for i in 0..s {
                prop_assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
        let c = dense::gemm_tn(&q.view(), &v.view());
        let c_ref = dense::naive_gemm_tn(&q.view(), &v.view());
        assert_close(&c, &c_ref, tol)?;
    }

    #[test]
    fn update_and_trsm_are_bitwise_naive_on_random_shapes(
        n in 0usize..1_300,
        s in 1usize..11,
        k in 1usize..9,
    ) {
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
        prop_assert!(w == w_ref, "blocked update diverged from naive");
        prop_assert!(t == t_ref, "TRSM diverged from naive");
    }
}
