//! Runtime-dispatched SIMD backends for the [`crate::blas3`] tile kernels.
//!
//! Every entry point here is a *safe* function that picks between explicit
//! `std::arch` implementations and a portable scalar fallback at runtime
//! ([`simd_level`]), so the same binary runs at full width on an x86_64
//! host and correctly everywhere else.  There are three levels:
//!
//! * [`SimdLevel::Scalar`] — portable Rust, always available;
//! * [`SimdLevel::Avx2`] — AVX2 + FMA bodies for every kernel;
//! * [`SimdLevel::Avx512`] — AVX-512F on top of AVX2 + FMA: the 8×4
//!   Gram/projection tile [`tn_tile8x4`] runs on 512-bit registers; the
//!   other kernels keep their AVX2 bodies.
//!
//! The level is detected once and cached; [`set_simd_override`] (tests,
//! benchmarks) caps it, so an AVX-512 host can be made to run AVX2 or
//! scalar code in the same process.
//!
//! # Numerical contracts
//!
//! The kernels fall into two classes, matching the guarantees the blocked
//! BLAS-3 layer makes against its `naive_*` oracles:
//!
//! * **Bitwise-faithful** — [`update_run`], [`update_run1`], [`scal`]:
//!   these implement the `V ← V − Q·R` / TRSM element updates.  Per
//!   element, each nonzero coefficient `c` costs one fused multiply-add
//!   `v ← v − c·q`, rounded once, in ascending-`k` order (`_mm256_fnmadd_pd`
//!   on AVX2 and AVX-512, `f64::mul_add` on the scalar backend); zero
//!   coefficients are skipped by the caller.  The vector code performs
//!   exactly that sequence per element, only on several rows at a time,
//!   so every output bit matches the scalar backend and the `naive_*`
//!   sweeps.  One rounding per step satisfies the standard model
//!   `fl(v − c·q) = (v − c·q)(1 + δ)`,
//!   `|δ| ≤ u`, that the stability analyses of the block schemes assume.
//!   `crates/dense/tests/simd_kernel_props.rs`
//!   (`update_class_is_bitwise_identical_across_backends`,
//!   `streaming_update_is_bitwise_across_backends_and_naive`) pins it, and
//!   `crates/dense/tests/ragged_kernel_props.rs` pins [`update_run1`].
//!   A NaN result's sign and payload are not part of the contract: where a
//!   NaN coefficient meets a NaN in the data they follow the operand order
//!   of the instruction.
//! * **Tolerance-pinned** — [`tn_tile4x4`], [`tn_tile8x4`], [`sym_tile4`],
//!   [`dot`], and [`dot4`], which is bitwise [`dot`]: the Gram/projection
//!   accumulations are pinned to the oracles
//!   within `1e-10·n`, so the vector paths may use FMA and four parallel
//!   lane accumulators.  Results differ from the scalar path by the usual
//!   reassociation rounding (an ulp envelope of a few `ulp·√n`), but are
//!   fully deterministic for a fixed backend: lanes are reduced in a fixed
//!   order and the row tail is folded in last.  AVX2 and AVX-512 return
//!   the *same* bits: a tile entry's value is a function of the entry, not
//!   of how many entries are in flight.  On both, an entry of a full tile
//!   is one 4-lane FMA chain over the rows in order, the fixed
//!   `(v0+v2)+(v1+v3)` lane sum, then the scalar row tail, added to
//!   `+0.0`; the AVX-512 tile only carries two such chains per 512-bit
//!   register (`crates/dense/tests/simd_kernel_props.rs`,
//!   `avx512_matches_avx2_bitwise_on_tiles_and_blocked_kernels`, pins it).
//!   [`dot4`] runs four [`dot`] chains side by side and returns their bits
//!   exactly (`crates/dense/tests/ragged_kernel_props.rs`).

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level the tile kernels dispatch to, ordered by width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdLevel {
    /// Portable scalar fallback (always available).
    Scalar,
    /// x86_64 AVX2 + FMA, verified present at runtime.
    Avx2,
    /// x86_64 AVX-512F + AVX2 + FMA, verified present at runtime.
    Avx512,
}

impl SimdLevel {
    /// Nonzero code for the atomics below (`0` means "not set").
    #[inline]
    fn code(self) -> u8 {
        self as u8 + 1
    }

    #[inline]
    fn from_code(code: u8) -> Option<SimdLevel> {
        match code {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Avx2),
            3 => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    /// Human-readable name, as `BENCH_kernels.json` records it.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The level the kernels dispatch to, the hardware's capped by the
/// override (`0` until the first query): one load per kernel call.
static LEVEL: AtomicU8 = AtomicU8::new(0);
/// Test/bench cap on the level; `0` means "no override".
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn hardware_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The hardware's level capped by the override.
fn capped_level() -> SimdLevel {
    let hardware = hardware_level();
    match SimdLevel::from_code(OVERRIDE.load(Ordering::Relaxed)) {
        Some(cap) => hardware.min(cap),
        None => hardware,
    }
}

/// First query: publish the capped level only if nothing is stored yet,
/// so a [`set_simd_override`] that lands between reading the override and
/// publishing is not overwritten; return whatever ends up stored.
#[cold]
fn resolve_level() -> SimdLevel {
    let level = capped_level();
    match LEVEL.compare_exchange(0, level.code(), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => level,
        Err(stored) => SimdLevel::from_code(stored).unwrap_or(level),
    }
}

/// The SIMD backend the tile kernels currently dispatch to: the hardware's
/// level, capped by [`set_simd_override`].
#[inline]
pub fn simd_level() -> SimdLevel {
    SimdLevel::from_code(LEVEL.load(Ordering::Relaxed)).unwrap_or_else(resolve_level)
}

/// Run the kernels at most at `level` (`None` restores automatic
/// detection).  Intended for property tests and benchmarks that exercise
/// several code paths in one process: `Some(SimdLevel::Avx2)` makes an
/// AVX-512 host run its AVX2 bodies, and a level the hardware lacks
/// silently stays at the hardware's.
pub fn set_simd_override(level: Option<SimdLevel>) {
    OVERRIDE.store(level.map_or(0, SimdLevel::code), Ordering::Relaxed);
    LEVEL.store(capped_level().code(), Ordering::Relaxed);
}

/// Name of the backend the kernels currently dispatch to, recorded in
/// `BENCH_kernels.json`.
pub fn simd_label() -> &'static str {
    simd_level().label()
}

/// The AVX2 bodies also serve an AVX-512 host.
#[inline]
fn use_avx2() -> bool {
    simd_level() >= SimdLevel::Avx2
}

/// `tile[j*4+i] += Σ_r a[i][r]·b[j][r]` for a full 4×4 register tile
/// (tolerance-pinned: the AVX2 path uses FMA and lane accumulators).
#[inline]
pub fn tn_tile4x4(a: &[&[f64]; 4], b: &[&[f64]; 4], tile: &mut [f64; 16]) {
    let len = a[0].len();
    assert!(
        a.iter().chain(b).all(|col| col.len() == len),
        "tn_tile4x4: column length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; all eight
        // columns have the same length (asserted above).
        unsafe { avx2::tn_tile4x4(a, b, tile) };
        return;
    }
    tn_tile4x4_scalar(a, b, tile);
}

fn tn_tile4x4_scalar(a: &[&[f64]; 4], b: &[&[f64]; 4], tile: &mut [f64; 16]) {
    let len = a[0].len();
    let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
    let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
    let (mut c00, mut c10, mut c20, mut c30) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c01, mut c11, mut c21, mut c31) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c02, mut c12, mut c22, mut c32) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c03, mut c13, mut c23, mut c33) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for r in 0..len {
        let (x0, x1, x2, x3) = (a0[r], a1[r], a2[r], a3[r]);
        let (y0, y1, y2, y3) = (b0[r], b1[r], b2[r], b3[r]);
        c00 += x0 * y0;
        c10 += x1 * y0;
        c20 += x2 * y0;
        c30 += x3 * y0;
        c01 += x0 * y1;
        c11 += x1 * y1;
        c21 += x2 * y1;
        c31 += x3 * y1;
        c02 += x0 * y2;
        c12 += x1 * y2;
        c22 += x2 * y2;
        c32 += x3 * y2;
        c03 += x0 * y3;
        c13 += x1 * y3;
        c23 += x2 * y3;
        c33 += x3 * y3;
    }
    let cols = [
        [c00, c10, c20, c30],
        [c01, c11, c21, c31],
        [c02, c12, c22, c32],
        [c03, c13, c23, c33],
    ];
    for (jj, col) in cols.iter().enumerate() {
        for (ii, &v) in col.iter().enumerate() {
            tile[jj * 4 + ii] += v;
        }
    }
}

/// `tile[j*8+i] += Σ_r a[i][r]·b[j][r]` for eight `A` columns against four
/// `B` columns (tolerance-pinned).  Each entry gets exactly the arithmetic
/// [`tn_tile4x4`] gives it on the same backend below AVX-512, and AVX-512
/// gives it AVX2's: the 512-bit body holds two 4-lane accumulators per
/// register instead of one.
#[inline]
pub fn tn_tile8x4(a: &[&[f64]; 8], b: &[&[f64]; 4], tile: &mut [f64; 32]) {
    let len = a[0].len();
    assert!(
        a.iter().chain(b).all(|col| col.len() == len),
        "tn_tile8x4: column length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx512 {
        // SAFETY: AVX-512F+AVX2+FMA presence was verified by `simd_level`;
        // all twelve columns have the same length (asserted above).
        unsafe { avx512::tn_tile8x4(a, b, tile) };
        return;
    }
    for (half, a4) in a.chunks_exact(4).enumerate() {
        let mut quarter = [0.0f64; 16];
        tn_tile4x4(&[a4[0], a4[1], a4[2], a4[3]], b, &mut quarter);
        for (jj, col) in quarter.chunks_exact(4).enumerate() {
            for (ii, &v) in col.iter().enumerate() {
                tile[jj * 8 + half * 4 + ii] += v;
            }
        }
    }
}

/// Upper triangle of the symmetric 4×4 tile `Σ_r a[i][r]·a[j][r]`, packed
/// as `[(0,0),(0,1),(1,1),(0,2),(1,2),(2,2),(0,3),(1,3),(2,3),(3,3)]`
/// (tolerance-pinned).
#[inline]
pub fn sym_tile4(a: &[&[f64]; 4], tri: &mut [f64; 10]) {
    let len = a[0].len();
    assert!(
        a.iter().all(|col| col.len() == len),
        "sym_tile4: column length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; all four
        // columns have the same length (asserted above).
        unsafe { avx2::sym_tile4(a, tri) };
        return;
    }
    sym_tile4_scalar(a, tri);
}

fn sym_tile4_scalar(a: &[&[f64]; 4], tri: &mut [f64; 10]) {
    let len = a[0].len();
    let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
    let (mut c00, mut c01, mut c11, mut c02, mut c12) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let (mut c22, mut c03, mut c13, mut c23, mut c33) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for r in 0..len {
        let (x0, x1, x2, x3) = (a0[r], a1[r], a2[r], a3[r]);
        c00 += x0 * x0;
        c01 += x0 * x1;
        c11 += x1 * x1;
        c02 += x0 * x2;
        c12 += x1 * x2;
        c22 += x2 * x2;
        c03 += x0 * x3;
        c13 += x1 * x3;
        c23 += x2 * x3;
        c33 += x3 * x3;
    }
    for (slot, v) in tri
        .iter_mut()
        .zip([c00, c01, c11, c02, c12, c22, c03, c13, c23, c33])
    {
        *slot += v;
    }
}

/// Dot product of two equal-length columns (the ragged-tile path;
/// tolerance-pinned).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; the two
        // columns have the same length (asserted above).
        return unsafe { avx2::dot(x, y) };
    }
    dot_scalar(x, y)
}

fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let len = x.len();
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let mut r = 0;
    while r + 1 < len {
        s0 += x[r] * y[r];
        s1 += x[r + 1] * y[r + 1];
        r += 2;
    }
    if r < len {
        s0 += x[r] * y[r];
    }
    s0 + s1
}

/// `[dot(a[0], b), …, dot(a[3], b)]`: four columns against one, each
/// entry bit for bit the [`dot`] of that pair on the same backend (the
/// ragged-tile path where four full columns meet one; tolerance-pinned
/// like [`dot`]).  The AVX2 body runs the four [`dot`] chains side by
/// side, so `b` is read once for all four; a product is commutative, so
/// `dot(x, y)` and `dot(y, x)` give the same bits and the caller may put
/// the single column on either side.
#[inline]
pub fn dot4(a: &[&[f64]; 4], b: &[f64]) -> [f64; 4] {
    assert!(
        a.iter().all(|col| col.len() == b.len()),
        "dot4: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; all five
        // columns have the same length (asserted above).
        return unsafe { avx2::dot4(a, b) };
    }
    a.map(|col| dot_scalar(col, b))
}

/// `v[j] ← v[j] − Σ_k c[k][j]·q[k]` for four resident columns of `V`
/// against a run of streamed columns of `Q` (bitwise-faithful).
///
/// The AVX2 path holds eight rows of all four `V` columns in registers for
/// the whole run: `V` is loaded and stored once per run, and each `k` step
/// is one `_mm256_fnmadd_pd` per column.  The last `len % 8` rows take the
/// scalar sweep.  Per element that is the scalar sweep — one `f64::mul_add`
/// per coefficient in ascending `k` — so both backends return the same
/// bits.  An AVX-512 host runs the AVX2 path: a 32-row 512-bit body timed
/// no faster at the `lap2d_k4` stage-1 shape, where streaming `Q` from
/// memory takes about as long as the arithmetic.
///
/// `c[k][j]` multiplies `q[k]` into column `j`; `q` and `c` have equal
/// length and every column equal length.  Every coefficient must be
/// nonzero: a zero must be *skipped*, not multiplied (see the blocked
/// update in [`crate::blas3`]).
#[inline]
pub fn update_run(v: &mut [&mut [f64]; 4], q: &[&[f64]], c: &[[f64; 4]]) {
    let len = v[0].len();
    assert!(
        c.len() == q.len()
            && v.iter().all(|col| col.len() == len)
            && q.iter().all(|col| col.len() == len),
        "update_run: shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; the
        // shapes were asserted above.
        unsafe { avx2::update_run(v, q, c) };
        return;
    }
    for (j, vj) in v.iter_mut().enumerate() {
        for (qk, ck) in q.iter().zip(c) {
            axpy_minus_scalar(ck[j], qk, vj);
        }
    }
}

/// `v ← v − Σ_k c[k]·q[k]` for one resident column of `V` against a run of
/// streamed columns of `Q` (bitwise-faithful): the one-column
/// [`update_run`].
///
/// The AVX2 path holds sixteen rows of `v` in registers for the whole run,
/// one `_mm256_fnmadd_pd` per four rows per `k` step, in ascending `k`; the
/// last `len % 16` rows take the scalar sweep.  Per element that is the
/// scalar sweep — one `f64::mul_add` per coefficient in ascending `k` — so
/// every backend returns its bits.
/// Every coefficient must be nonzero: a zero is left out of the run.
#[inline]
pub fn update_run1(v: &mut [f64], q: &[&[f64]], c: &[f64]) {
    let len = v.len();
    assert!(
        c.len() == q.len() && q.iter().all(|col| col.len() == len),
        "update_run1: shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence was verified by `simd_level`; the
        // shapes were asserted above.
        unsafe { avx2::update_run1(v, q, c) };
        return;
    }
    for (qk, &ck) in q.iter().zip(c) {
        axpy_minus_scalar(ck, qk, v);
    }
}

/// The scalar element update every bitwise-faithful kernel reproduces:
/// `y ← y − alpha·x`, one rounding per element.
#[inline]
fn axpy_minus_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (o, &q) in y.iter_mut().zip(x) {
        *o = (-alpha).mul_add(q, *o);
    }
}

/// `y ← d·y` (bitwise-faithful: one multiply per element).
#[inline]
pub fn scal(d: f64, y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 presence was verified by `simd_level`.
        unsafe { avx2::scal(d, y) };
        return;
    }
    for o in y.iter_mut() {
        *o *= d;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2+FMA bodies behind the dispatchers above.  Intrinsics that
    //! only touch registers are safe inside these `target_feature`
    //! functions; every load and store through a raw pointer sits in its
    //! own `unsafe` block that names the bound keeping it in range.

    use std::arch::x86_64::*;

    /// Fixed-order horizontal sum `(v0+v2)+(v1+v3)` — deterministic lane
    /// reduction.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum4(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let pair = _mm_add_pd(lo, hi);
        let swapped = _mm_unpackhi_pd(pair, pair);
        _mm_cvtsd_f64(_mm_add_sd(pair, swapped))
    }

    /// # Safety
    /// AVX2+FMA must be present and all eight columns of equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tn_tile4x4(a: &[&[f64]; 4], b: &[&[f64]; 4], tile: &mut [f64; 16]) {
        let len = a[0].len();
        let body = len & !3;
        // Two passes of 2 A-columns x 4 B-columns keep the 8 accumulators
        // plus 6 live loads inside the 16 ymm registers.
        for ip in 0..2 {
            let a0 = a[2 * ip].as_ptr();
            let a1 = a[2 * ip + 1].as_ptr();
            let mut acc0 = [_mm256_setzero_pd(); 4];
            let mut acc1 = [_mm256_setzero_pd(); 4];
            let mut r = 0;
            while r < body {
                // SAFETY: r + 4 <= body <= len, the length of both columns.
                let (va0, va1) =
                    unsafe { (_mm256_loadu_pd(a0.add(r)), _mm256_loadu_pd(a1.add(r))) };
                for j in 0..4 {
                    // SAFETY: r + 4 <= len, the length of every `b` column.
                    let vb = unsafe { _mm256_loadu_pd(b[j].as_ptr().add(r)) };
                    acc0[j] = _mm256_fmadd_pd(va0, vb, acc0[j]);
                    acc1[j] = _mm256_fmadd_pd(va1, vb, acc1[j]);
                }
                r += 4;
            }
            for j in 0..4 {
                let mut s0 = hsum4(acc0[j]);
                let mut s1 = hsum4(acc1[j]);
                for rr in body..len {
                    s0 += a[2 * ip][rr] * b[j][rr];
                    s1 += a[2 * ip + 1][rr] * b[j][rr];
                }
                tile[j * 4 + 2 * ip] += s0;
                tile[j * 4 + 2 * ip + 1] += s1;
            }
        }
    }

    /// # Safety
    /// AVX2+FMA must be present and all four columns of equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sym_tile4(a: &[&[f64]; 4], tri: &mut [f64; 10]) {
        let len = a[0].len();
        let body = len & !3;
        let p = [a[0].as_ptr(), a[1].as_ptr(), a[2].as_ptr(), a[3].as_ptr()];
        let mut acc = [_mm256_setzero_pd(); 10];
        let mut r = 0;
        while r < body {
            // SAFETY: r + 4 <= body <= len, the length of every column.
            let (x0, x1, x2, x3) = unsafe {
                (
                    _mm256_loadu_pd(p[0].add(r)),
                    _mm256_loadu_pd(p[1].add(r)),
                    _mm256_loadu_pd(p[2].add(r)),
                    _mm256_loadu_pd(p[3].add(r)),
                )
            };
            acc[0] = _mm256_fmadd_pd(x0, x0, acc[0]);
            acc[1] = _mm256_fmadd_pd(x0, x1, acc[1]);
            acc[2] = _mm256_fmadd_pd(x1, x1, acc[2]);
            acc[3] = _mm256_fmadd_pd(x0, x2, acc[3]);
            acc[4] = _mm256_fmadd_pd(x1, x2, acc[4]);
            acc[5] = _mm256_fmadd_pd(x2, x2, acc[5]);
            acc[6] = _mm256_fmadd_pd(x0, x3, acc[6]);
            acc[7] = _mm256_fmadd_pd(x1, x3, acc[7]);
            acc[8] = _mm256_fmadd_pd(x2, x3, acc[8]);
            acc[9] = _mm256_fmadd_pd(x3, x3, acc[9]);
            r += 4;
        }
        const PAIRS: [(usize, usize); 10] = [
            (0, 0),
            (0, 1),
            (1, 1),
            (0, 2),
            (1, 2),
            (2, 2),
            (0, 3),
            (1, 3),
            (2, 3),
            (3, 3),
        ];
        for (slot, (av, (i, j))) in tri.iter_mut().zip(acc.iter().zip(PAIRS)) {
            let mut s = hsum4(*av);
            for (&ai, &aj) in a[i][body..len].iter().zip(&a[j][body..len]) {
                s += ai * aj;
            }
            *slot += s;
        }
    }

    /// # Safety
    /// AVX2+FMA must be present and `x`, `y` of equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        let len = x.len();
        let body = len & !7;
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut r = 0;
        while r < body {
            // SAFETY: r + 8 <= body <= len, the length of both columns.
            let (x0, x1, y0, y1) = unsafe {
                (
                    _mm256_loadu_pd(px.add(r)),
                    _mm256_loadu_pd(px.add(r + 4)),
                    _mm256_loadu_pd(py.add(r)),
                    _mm256_loadu_pd(py.add(r + 4)),
                )
            };
            acc0 = _mm256_fmadd_pd(x0, y0, acc0);
            acc1 = _mm256_fmadd_pd(x1, y1, acc1);
            r += 8;
        }
        let mut s = hsum4(_mm256_add_pd(acc0, acc1));
        for rr in body..len {
            s += x[rr] * y[rr];
        }
        s
    }

    /// Four [`dot`] chains side by side: per column the same two 4-lane
    /// accumulators over 8-row steps, `hsum4(acc0 + acc1)` and the scalar
    /// tail, with each 8-row step of `b` loaded once for all four.
    ///
    /// # Safety
    /// AVX2+FMA must be present and every `a` column as long as `b`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4(a: &[&[f64]; 4], b: &[f64]) -> [f64; 4] {
        let len = b.len();
        let body = len & !7;
        let pa = a.map(<[f64]>::as_ptr);
        let pb = b.as_ptr();
        let mut acc = [[_mm256_setzero_pd(); 2]; 4];
        let mut r = 0;
        while r < body {
            // SAFETY: r + 8 <= body <= len, the length of every column.
            let (b0, b1) = unsafe { (_mm256_loadu_pd(pb.add(r)), _mm256_loadu_pd(pb.add(r + 4))) };
            for (acc_i, &p) in acc.iter_mut().zip(&pa) {
                // SAFETY: as for the `b` loads.
                let (x0, x1) =
                    unsafe { (_mm256_loadu_pd(p.add(r)), _mm256_loadu_pd(p.add(r + 4))) };
                acc_i[0] = _mm256_fmadd_pd(x0, b0, acc_i[0]);
                acc_i[1] = _mm256_fmadd_pd(x1, b1, acc_i[1]);
            }
            r += 8;
        }
        let mut out = [0.0f64; 4];
        for ((o, acc_i), col) in out.iter_mut().zip(&acc).zip(a) {
            let mut s = hsum4(_mm256_add_pd(acc_i[0], acc_i[1]));
            for rr in body..len {
                s += col[rr] * b[rr];
            }
            *o = s;
        }
        out
    }

    /// The streaming update: eight rows of the four `V` columns stay in
    /// registers (two `__m256d` each) across the whole run of `Q` columns,
    /// one `_mm256_fnmadd_pd` per column per `k` step in ascending `k`; the
    /// last `len % 8` rows take the scalar sweep.
    ///
    /// # Safety
    /// AVX2+FMA must be present; every `v` and `q` column holds
    /// `v[0].len()` elements and `c.len() == q.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn update_run(v: &mut [&mut [f64]; 4], q: &[&[f64]], c: &[[f64; 4]]) {
        let len = v[0].len();
        let pv = [
            v[0].as_mut_ptr(),
            v[1].as_mut_ptr(),
            v[2].as_mut_ptr(),
            v[3].as_mut_ptr(),
        ];
        let mut r = 0;
        while r + 8 <= len {
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for (a, &p) in acc.iter_mut().zip(&pv) {
                // SAFETY: r + 8 <= len, the length of every `v` column.
                *a = unsafe { [_mm256_loadu_pd(p.add(r)), _mm256_loadu_pd(p.add(r + 4))] };
            }
            for (qk, ck) in q.iter().zip(c) {
                // SAFETY: r + 8 <= len, the length of every `q` column.
                let (lo, hi) = unsafe {
                    (
                        _mm256_loadu_pd(qk.as_ptr().add(r)),
                        _mm256_loadu_pd(qk.as_ptr().add(r + 4)),
                    )
                };
                for (a, &cj) in acc.iter_mut().zip(ck) {
                    let cj = _mm256_set1_pd(cj);
                    a[0] = _mm256_fnmadd_pd(cj, lo, a[0]);
                    a[1] = _mm256_fnmadd_pd(cj, hi, a[1]);
                }
            }
            for (&p, a) in pv.iter().zip(&acc) {
                // SAFETY: as for the loads above.
                unsafe {
                    _mm256_storeu_pd(p.add(r), a[0]);
                    _mm256_storeu_pd(p.add(r + 4), a[1]);
                }
            }
            r += 8;
        }
        for (j, vj) in v.iter_mut().enumerate() {
            for (qk, ck) in q.iter().zip(c) {
                super::axpy_minus_scalar(ck[j], &qk[r..], &mut vj[r..]);
            }
        }
    }

    /// The one-column streaming update: sixteen rows of `v` stay in four
    /// registers across the whole run of `Q` columns, one
    /// `_mm256_fnmadd_pd` per register per `k` step in ascending `k`; the
    /// last `len % 16` rows take the scalar sweep.
    ///
    /// # Safety
    /// AVX2+FMA must be present; every `q` column holds `v.len()` elements
    /// and `c.len() == q.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn update_run1(v: &mut [f64], q: &[&[f64]], c: &[f64]) {
        let len = v.len();
        let pv = v.as_mut_ptr();
        let mut r = 0;
        while r + 16 <= len {
            let mut acc = [_mm256_setzero_pd(); 4];
            for (i, a) in acc.iter_mut().enumerate() {
                // SAFETY: r + 16 <= len, the length of `v`.
                *a = unsafe { _mm256_loadu_pd(pv.add(r + 4 * i)) };
            }
            for (qk, &ck) in q.iter().zip(c) {
                let ck = _mm256_set1_pd(ck);
                let pq = qk.as_ptr();
                for (i, a) in acc.iter_mut().enumerate() {
                    // SAFETY: r + 16 <= len, the length of every `q` column.
                    let x = unsafe { _mm256_loadu_pd(pq.add(r + 4 * i)) };
                    *a = _mm256_fnmadd_pd(ck, x, *a);
                }
            }
            for (i, a) in acc.iter().enumerate() {
                // SAFETY: as for the loads above.
                unsafe { _mm256_storeu_pd(pv.add(r + 4 * i), *a) };
            }
            r += 16;
        }
        for (qk, &ck) in q.iter().zip(c) {
            super::axpy_minus_scalar(ck, &qk[r..], &mut v[r..]);
        }
    }

    /// Bitwise-faithful `y ← d·y`.
    ///
    /// # Safety
    /// AVX2 must be present.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scal(d: f64, y: &mut [f64]) {
        let len = y.len();
        let body = len & !3;
        let vd = _mm256_set1_pd(d);
        let py = y.as_mut_ptr();
        let mut r = 0;
        while r < body {
            // SAFETY: r + 4 <= body <= len.
            let yr = unsafe { _mm256_loadu_pd(py.add(r)) };
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_pd(py.add(r), _mm256_mul_pd(vd, yr)) };
            r += 4;
        }
        for yr in &mut y[body..len] {
            *yr *= d;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512 body: the 8×4 Gram/projection tile, which forms the
    //! AVX2 lane sum `(v0+v2)+(v1+v3)` for both halves of a register at
    //! once so every entry keeps the AVX2 bits.

    use std::arch::x86_64::*;

    /// Eight `A` columns × four `B` columns in sixteen 512-bit
    /// accumulators.  `acc[i][p]` holds, in its low and high 256-bit
    /// halves, the 4-lane chains of entries `(i, 2p)` and `(i, 2p + 1)`:
    /// each `B` pair is packed into one register, each `A` column
    /// broadcast to both halves, so a lane sees exactly the products and
    /// the row order of the AVX2 tile.
    ///
    /// # Safety
    /// AVX-512F+AVX2+FMA must be present and all twelve columns of equal
    /// length.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn tn_tile8x4(a: &[&[f64]; 8], b: &[&[f64]; 4], tile: &mut [f64; 32]) {
        let len = a[0].len();
        let body = len & !3;
        let mut acc = [[_mm512_setzero_pd(); 2]; 8];
        let mut r = 0;
        while r < body {
            // SAFETY: r + 4 <= body <= len, the length of every column.
            let (b0, b1, b2, b3) = unsafe {
                (
                    _mm256_loadu_pd(b[0].as_ptr().add(r)),
                    _mm256_loadu_pd(b[1].as_ptr().add(r)),
                    _mm256_loadu_pd(b[2].as_ptr().add(r)),
                    _mm256_loadu_pd(b[3].as_ptr().add(r)),
                )
            };
            let vb = [
                _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(b0), b1),
                _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(b2), b3),
            ];
            for (acc_i, col) in acc.iter_mut().zip(a) {
                // SAFETY: as for the `b` loads.
                let va = _mm512_broadcast_f64x4(unsafe { _mm256_loadu_pd(col.as_ptr().add(r)) });
                acc_i[0] = _mm512_fmadd_pd(va, vb[0], acc_i[0]);
                acc_i[1] = _mm512_fmadd_pd(va, vb[1], acc_i[1]);
            }
            r += 4;
        }
        for (i, acc_i) in acc.iter().enumerate() {
            for (p, &pair) in acc_i.iter().enumerate() {
                // Both halves' `hsum4` at once: lanes (0, 2) and (1, 3) of
                // each half are added first, then the two partial sums, so
                // lane 0 of each half holds `(v0+v2)+(v1+v3)` bit for bit
                // (IEEE addition is commutative).
                let t = _mm512_add_pd(pair, _mm512_permutex_pd::<0x4E>(pair));
                let u = _mm512_add_pd(t, _mm512_permute_pd::<0x55>(t));
                let sums = [
                    _mm512_cvtsd_f64(u),
                    _mm256_cvtsd_f64(_mm512_extractf64x4_pd::<1>(u)),
                ];
                for (h, mut s) in sums.into_iter().enumerate() {
                    let j = 2 * p + h;
                    for rr in body..len {
                        s += a[i][rr] * b[j][rr];
                    }
                    tile[j * 8 + i] += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 13) % 23) as f64 * 0.37 - 3.1)
            .collect()
    }

    /// Serialize tests that flip the global backend override.
    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .expect("simd override lock poisoned")
    }

    #[test]
    fn level_is_resolvable_and_labelled() {
        let _guard = override_lock();
        set_simd_override(None);
        let level = simd_level();
        assert!(matches!(simd_label(), "scalar" | "avx2" | "avx512"));
        // An override caps the level; it never raises it.
        for cap in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            set_simd_override(Some(cap));
            assert_eq!(simd_level(), level.min(cap));
        }
        set_simd_override(None);
        assert_eq!(simd_level(), level);
    }

    #[test]
    fn tn_tile_backends_agree_within_tolerance() {
        let _guard = override_lock();
        for n in [1usize, 4, 7, 64, 251] {
            let cols: Vec<Vec<f64>> = (0..8).map(|s| col(n, s)).collect();
            let a = [&cols[0][..], &cols[1][..], &cols[2][..], &cols[3][..]];
            let b = [&cols[4][..], &cols[5][..], &cols[6][..], &cols[7][..]];
            let mut scalar_tile = [0.0f64; 16];
            tn_tile4x4_scalar(&a, &b, &mut scalar_tile);
            set_simd_override(None);
            let mut auto_tile = [0.0f64; 16];
            tn_tile4x4(&a, &b, &mut auto_tile);
            for (x, y) in auto_tile.iter().zip(&scalar_tile) {
                assert!((x - y).abs() <= 1e-10 * (n as f64).max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn update_and_scal_are_bitwise_across_backends() {
        let _guard = override_lock();
        for n in [1usize, 3, 4, 7, 8, 9, 63, 257] {
            let q: Vec<Vec<f64>> = (0..5).map(|s| col(n, s + 9)).collect();
            let qr: Vec<&[f64]> = q.iter().map(Vec::as_slice).collect();
            let c: Vec<[f64; 4]> = (0..5)
                .map(|k| std::array::from_fn(|j| (k * 4 + j) as f64 * 0.37 - 2.9))
                .collect();
            let run = |v: &mut [Vec<f64>]| {
                let [v0, v1, v2, v3] = v else { unreachable!() };
                update_run(&mut [v0, v1, v2, v3], &qr, &c);
            };
            let mut v_scalar: Vec<Vec<f64>> = (0..4).map(|s| col(n, s + 40)).collect();
            let mut v_simd = v_scalar.clone();
            set_simd_override(Some(SimdLevel::Scalar));
            run(&mut v_scalar);
            set_simd_override(None);
            run(&mut v_simd);
            assert_eq!(v_scalar, v_simd, "update_run must be bitwise stable");

            let mut y_scalar = col(n, 78);
            let mut y_simd = y_scalar.clone();
            set_simd_override(Some(SimdLevel::Scalar));
            scal(1.0 / 3.0, &mut y_scalar);
            set_simd_override(None);
            scal(1.0 / 3.0, &mut y_simd);
            assert_eq!(y_scalar, y_simd, "scal must be bitwise stable");
        }
    }

    #[test]
    fn dot_backends_agree_within_tolerance() {
        let _guard = override_lock();
        for n in [0usize, 1, 7, 8, 9, 255, 1024] {
            let x = col(n, 3);
            let y = col(n, 5);
            let scalar = dot_scalar(&x, &y);
            set_simd_override(None);
            let auto = dot(&x, &y);
            assert!((scalar - auto).abs() <= 1e-10 * (n as f64).max(1.0));
        }
    }
}
