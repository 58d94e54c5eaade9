//! The narrow-panel kernels, pinned to the bit on every SIMD level the
//! host has.
//!
//! - [`simd::dot4`] is four [`simd::dot`] calls, with the single column on
//!   either side, and [`simd::update_run1`] is the naive sweep — one
//!   `f64::mul_add` per element per nonzero coefficient — with zero
//!   coefficients left out, on lengths around the 4-, 8-
//!   and 16-row steps and the row panel, with ±0.0, NaN and ±∞ entries
//!   (and a NaN coefficient, whose NaN results compare as NaN, see
//!   [`bits_nan_as_nan`]).
//! - The blocked kernels on ragged shapes (`s ∈ 1..=7`,
//!   `k ∈ {1, …, 9, 30, 61}`) equal an oracle that replays, per
//!   [`ROW_BLOCK`], the per-column path the ragged tiles took before
//!   `dot4` and the one-column update: a full 4×4 tile through
//!   [`simd::tn_tile4x4`], every other entry through [`simd::dot`]; the
//!   updates equal [`dense::naive_gemm_nn_minus`].
//!
//! The SIMD override is process-global, hence a binary of its own and a
//! lock around every test that sets it.

use dense::simd::{self, SimdLevel};
use dense::{Matrix, ROW_BLOCK, TILE};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The levels this host runs, each set in turn as the override; `f` gets
/// the level.  The override is cleared afterwards.
fn on_every_level(mut f: impl FnMut(SimdLevel)) {
    let mut seen = Vec::new();
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        simd::set_simd_override(Some(level));
        let ran = simd::simd_level();
        if !seen.contains(&ran) {
            seen.push(ran);
            f(ran);
        }
    }
    simd::set_simd_override(None);
}

const LENGTHS: [usize; 11] = [0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257];

/// A column of ordinary values with, when `special`, signed zeros, a NaN
/// and infinities planted at rows that depend on `seed`.
fn column(n: usize, seed: usize, special: bool) -> Vec<f64> {
    let mut col: Vec<f64> = (0..n)
        .map(|i| ((i * 31 + seed * 17) % 43) as f64 * 0.047 - 1.01)
        .collect();
    if special {
        for (slot, v) in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let row = (seed * 5 + slot * 7) % n.max(1);
            if row < n && !(seed + slot).is_multiple_of(3) {
                col[row] = v;
            }
        }
    }
    col
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The bits of `xs`, every NaN as one canonical NaN: a NaN coefficient is
/// negated before its fused multiply-add, and where that NaN meets a NaN
/// in the data, which of the two the result carries follows the operand
/// order the compiler gave the instruction, not the kernel.
fn bits_nan_as_nan(xs: &[f64]) -> Vec<u64> {
    (xs.iter())
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

#[test]
fn dot4_is_four_dots_bitwise_on_every_level() {
    let _guard = global_lock();
    on_every_level(|level| {
        for n in LENGTHS {
            for special in [false, true] {
                let cols: Vec<Vec<f64>> = (0..5).map(|s| column(n, s, special)).collect();
                let a = [&cols[0][..], &cols[1][..], &cols[2][..], &cols[3][..]];
                let b = &cols[4][..];
                let four = simd::dot4(&a, b);
                for (i, col) in a.iter().enumerate() {
                    let what = format!("{level:?}, n = {n}, special = {special}, column {i}");
                    assert_eq!(four[i].to_bits(), simd::dot(col, b).to_bits(), "{what}");
                    // The mirrored use: the single column on the left.
                    assert_eq!(four[i].to_bits(), simd::dot(b, col).to_bits(), "{what}");
                }
            }
        }
    });
}

#[test]
fn one_column_update_is_the_axpy_sweep_bitwise_on_every_level() {
    let _guard = global_lock();
    on_every_level(|level| {
        for n in LENGTHS {
            for run in [1usize, 5, 16, 21] {
                for special in [false, true] {
                    let q: Vec<Vec<f64>> = (0..run).map(|k| column(n, k + 7, special)).collect();
                    // Every third coefficient is a signed zero, one is NaN.
                    let c: Vec<f64> = (0..run)
                        .map(|k| match k % 3 {
                            1 => [0.0, -0.0][k % 2],
                            _ if special && k == 2 => f64::NAN,
                            _ => 0.37 * k as f64 - 1.3,
                        })
                        .collect();
                    let v0 = column(n, 99, special);
                    let mut sweep = v0.clone();
                    for (qk, &ck) in q.iter().zip(&c) {
                        if ck != 0.0 {
                            for (o, &x) in sweep.iter_mut().zip(qk) {
                                *o = (-ck).mul_add(x, *o);
                            }
                        }
                    }
                    let (qs, cs): (Vec<&[f64]>, Vec<f64>) = (q.iter().zip(&c))
                        .filter(|(_, &ck)| ck != 0.0)
                        .map(|(qk, &ck)| (&qk[..], ck))
                        .unzip();
                    let mut streamed = v0.clone();
                    simd::update_run1(&mut streamed, &qs, &cs);
                    assert_eq!(
                        bits_nan_as_nan(&streamed),
                        bits_nan_as_nan(&sweep),
                        "{level:?}, n = {n}, run = {run}, special = {special}"
                    );
                }
            }
        }
    });
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

/// Coefficients with a zero in every fifth entry.
fn coeffs(k: usize, s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(k, s, |i, j| {
        if (i + 2 * j + seed).is_multiple_of(5) {
            0.0
        } else {
            ((3 * i + j + seed) % 7) as f64 * 0.11 - 0.33
        }
    })
}

/// Rows `rb..re` of column `c`.
fn seg(m: &Matrix, c: usize, rb: usize, re: usize) -> &[f64] {
    &m.col(c)[rb..re]
}

/// `AᵀB` (`A` n×k, `B` n×s) as the blocked kernels formed it before the
/// ragged tiles had their own kernels: per row block, an entry in a full
/// 4×4 tile from [`simd::tn_tile4x4`], any other from [`simd::dot`];
/// the blocks summed in order from `+0.0`, then `+0.0` added.  With
/// `upper` only the entries `i ≤ j` (the Gram case).
fn per_column_tn(a: &Matrix, b: &Matrix, upper: bool) -> Matrix {
    let (n, k, s) = (a.nrows(), a.ncols(), b.ncols());
    let (k_full, s_full) = (k / TILE * TILE, s / TILE * TILE);
    let mut out = Matrix::zeros(k, s);
    let mut rb = 0;
    while rb < n {
        let re = (rb + ROW_BLOCK).min(n);
        for j in 0..s {
            for i in 0..if upper { j + 1 } else { k } {
                let value = if i < k_full && j < s_full {
                    let (i0, j0) = (i / TILE * TILE, j / TILE * TILE);
                    let a4 = std::array::from_fn(|ii| seg(a, i0 + ii, rb, re));
                    let b4 = std::array::from_fn(|jj| seg(b, j0 + jj, rb, re));
                    let mut tile = [0.0f64; TILE * TILE];
                    simd::tn_tile4x4(&a4, &b4, &mut tile);
                    tile[(j - j0) * TILE + i - i0]
                } else {
                    simd::dot(seg(a, i, rb, re), seg(b, j, rb, re))
                };
                out[(i, j)] += value;
            }
        }
        rb = re;
    }
    if n > 0 {
        out.data_mut().iter_mut().for_each(|x| *x += 0.0);
    }
    if upper {
        for j in 0..s {
            for i in 0..j {
                out[(j, i)] = out[(i, j)];
            }
        }
    }
    out
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}"
    );
    assert!(bits(got.data()) == bits(want.data()), "{what}: bits differ");
}

#[test]
fn blocked_kernels_on_ragged_shapes_equal_the_per_column_replay() {
    let _guard = global_lock();
    let ks = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 30, 61];
    on_every_level(|level| {
        for n in [300usize, 517] {
            for s in 1..=7 {
                let v = panel(n, s, s);
                let what =
                    |kernel: &str, k: usize| format!("{kernel}, {level:?}, n {n} k {k} s {s}");
                assert_bits(
                    &dense::gram(&v.view()),
                    &per_column_tn(&v, &v, true),
                    &what("gram", s),
                );
                for k in ks {
                    let q = panel(n, k, 100 + k);
                    let r = coeffs(k, s, k + s);
                    assert_bits(
                        &dense::gemm_tn(&q.view(), &v.view()),
                        &per_column_tn(&q, &v, false),
                        &what("gemm_tn", k),
                    );
                    // The mirrored shape: the ragged side on the left.
                    assert_bits(
                        &dense::gemm_tn(&v.view(), &q.view()),
                        &per_column_tn(&v, &q, false),
                        &what("gemm_tn mirrored", k),
                    );
                    let mut want = v.clone();
                    dense::naive_gemm_nn_minus(&mut want.view_mut(), &q.view(), &r);
                    let mut got = v.clone();
                    dense::gemm_nn_minus(&mut got.view_mut(), &q.view(), &r);
                    assert_bits(&got, &want, &what("gemm_nn_minus", k));
                    let mut plus = v.clone();
                    let mut neg_r = r.clone();
                    neg_r.scale(-1.0);
                    dense::gemm_nn_plus(&mut plus.view_mut(), &q.view(), &neg_r);
                    assert_bits(&plus, &want, &what("gemm_nn_plus", k));
                    let mut fused = v.clone();
                    let c = dense::fused_update_proj(&mut fused.view_mut(), &q.view(), &r);
                    assert_bits(&fused, &want, &what("fused_update_proj update", k));
                    assert_bits(
                        &c,
                        &per_column_tn(&q, &want, false),
                        &what("fused_update_proj", k),
                    );
                }
            }
        }
    });
}
