//! Level-3 kernels used by the block orthogonalization schemes.
//!
//! These are the four workhorses of every algorithm in the paper:
//!
//! * [`gram`]: `G = VᵀV` (the Gram matrix CholQR factorizes),
//! * [`gemm_tn`]: `C = QᵀV` (the BCGS dot-product GEMM),
//! * [`gemm_nn_minus`]: `V ← V − Q·R` (the BCGS vector-update GEMM),
//! * [`trsm_right_upper`]: `Q ← V·R⁻¹` (the CholQR normalization TRSM),
//!
//! plus the fused [`fused_update_proj_gram`] (`V ← V − Q·P` together with
//! `QᵀV` and `VᵀV` of the updated panel) that the two-sync BCGS schemes are
//! built on.
//!
//! # Blocking strategy
//!
//! All kernels stream the tall `n×s` operands in **row panels** of
//! [`ROW_BLOCK`] rows, and within a row panel compute **register tiles** of
//! [`TILE`]×[`TILE`] output entries.  A row panel (`ROW_BLOCK × s` doubles)
//! fits in L1/L2, so every tile of the small output consumes it from cache
//! and each tall operand is read from memory once per kernel call — versus
//! once per *column pair* for the naive dot-product formulation (retained
//! as [`naive_gram`] etc. for benchmarks and property tests).
//!
//! [`trsm_right_upper`] is the one kernel whose columns depend on each
//! other, and the one the two-stage scheme calls at its widest: the
//! stage-2 flush normalizes a `bs`-column panel (`bs = m`, 60 columns per
//! right-hand side), so a row panel is 123–491 KB and lives in L2, not L1.
//! Inside a row panel it therefore solves **left-looking on `TILE`-column
//! tiles**: a column tile first receives the updates of all finished
//! tiles to its left through the same streaming kernel as
//! [`gemm_nn_minus`] (eight rows of its four columns stay in registers
//! while up to 16 finished columns stream past), and only the
//! `TILE×TILE` triangle on the diagonal is solved column by column.
//! `BENCH_kernels.json` carries the TRSM at 25 600×60 and 14 400×240 and
//! the stage-1 update at 14 400×20 against 224 columns.
//!
//! The tile inner loops live in [`crate::simd`] and are explicit
//! `std::arch` AVX2+FMA kernels with a portable scalar fallback, selected
//! once at runtime.  Accumulation kernels ([`gram`], [`gemm_tn`], the
//! projection half of [`fused_update_proj_gram`]) may use FMA and vector
//! lane accumulators — they are pinned to the oracles within `1e-10·n`.
//! The element-update kernels ([`gemm_nn_minus`], [`gemm_nn_plus`],
//! [`trsm_right_upper`], the update half of the fused kernel) take one
//! fused multiply-add per nonzero coefficient per element, in ascending
//! `k`, and skip zero coefficients, exactly as the naive sweeps do; they
//! stay **bitwise identical** to those sweeps on every backend
//! (`crates/dense/tests/blocked_kernel_props.rs`,
//! `blocked_kernels_match_naive_on_enumerated_awkward_shapes`).
//!
//! Every kernel runs on the calling thread over all `n` rows (each
//! simulated rank owns its own rows and thread).  The accumulating kernels
//! add their `s×s`/`k×s` result to `+0.0` entry by entry, so a `-0.0`
//! entry comes out as `+0.0`; the committed artifacts pin those bits.

use crate::matrix::{MatView, MatViewMut, Matrix};
use crate::simd;

/// Register-tile width: each inner loop produces a `TILE×TILE` block of the
/// output in scalar accumulators.
pub const TILE: usize = 4;

/// Rows per cache panel: a `ROW_BLOCK × s` panel of doubles (16 KiB at
/// `s = 8`) stays resident while every register tile consumes it.
pub const ROW_BLOCK: usize = 256;

/// The `len` sums `body` accumulates over all `n` rows into a zeroed
/// buffer, each then added to `+0.0`, so a sum that came out `-0.0` is
/// returned as `+0.0`.  `n = 0` skips `body`.
fn accumulate_rows(n: usize, len: usize, body: impl FnOnce(&mut [f64])) -> Vec<f64> {
    let mut acc = vec![0.0f64; len];
    if n > 0 {
        body(&mut acc);
        for x in &mut acc {
            *x += 0.0;
        }
    }
    acc
}

/// Column pointer into a matrix the kernel updates in place while it reads
/// other columns (or the same rows after the write) of it.
struct ColPtr(*mut f64);

impl ColPtr {
    /// Mutable slice of rows `r0..r1` of column `col` (leading dimension `n`).
    ///
    /// # Safety
    /// The caller must guarantee no other live reference overlaps the
    /// requested segment.
    #[allow(clippy::mut_from_ref)]
    unsafe fn col_seg_mut(&self, n: usize, col: usize, r0: usize, r1: usize) -> &mut [f64] {
        // SAFETY: in bounds and unaliased per the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(col * n + r0), r1 - r0) }
    }
}

/// Read-side column-major operand source for the tile kernels: rows
/// `r0..r1` of one column at a time, never a reference spanning rows the
/// caller does not own.
///
/// Two implementations, chosen by monomorphization:
///
/// * [`SliceCols`] — backed by a real `&[f64]`; segments are ordinary
///   subslices, so LLVM keeps the `noalias`/`readonly` facts of the
///   original reference (this is the fast path for [`gram`]/[`gemm_tn`],
///   whose operands are never concurrently mutated);
/// * [`RawCols`] — backed by a raw pointer, for
///   [`fused_update_proj_gram`] and [`trsm_right_upper`], where a
///   whole-matrix shared slice would alias the in-place update; each
///   segment is materialized only for columns the kernel does not hold
///   mutably at that moment.
trait ColSource: Copy {
    /// Rows `r0..r1` of column `col` as a slice.
    fn seg(&self, col: usize, r0: usize, r1: usize) -> &[f64];
}

/// Safe, slice-backed [`ColSource`] with leading dimension `n`.
#[derive(Clone, Copy)]
struct SliceCols<'a> {
    data: &'a [f64],
    n: usize,
}

impl ColSource for SliceCols<'_> {
    #[inline]
    fn seg(&self, col: usize, r0: usize, r1: usize) -> &[f64] {
        &self.data[col * self.n + r0..col * self.n + r1]
    }
}

/// Raw-pointer-backed [`ColSource`] over `len` elements.
#[derive(Clone, Copy)]
struct RawCols<'a> {
    ptr: *const f64,
    n: usize,
    len: usize,
    _life: std::marker::PhantomData<&'a [f64]>,
}

impl<'a> RawCols<'a> {
    /// # Safety
    /// For the lifetime `'a`, every segment later asked of `seg` must be
    /// readable without a live overlapping `&mut`: the fused kernel reads
    /// a row panel after its own mutable segments are dropped, the TRSM
    /// only columns other than the ones it is writing.
    unsafe fn from_ptr(ptr: *const f64, n: usize, len: usize) -> Self {
        Self {
            ptr,
            n,
            len,
            _life: std::marker::PhantomData,
        }
    }
}

impl ColSource for RawCols<'_> {
    #[inline]
    fn seg(&self, col: usize, r0: usize, r1: usize) -> &[f64] {
        debug_assert!(r0 <= r1 && col * self.n + r1 <= self.len);
        // SAFETY: in-bounds per the constructor contract; no overlapping
        // `&mut` is live for rows the caller owns (see `from_ptr`).
        unsafe { std::slice::from_raw_parts(self.ptr.add(col * self.n + r0), r1 - r0) }
    }
}

/// Accumulate the register tile
/// `out[i0..i0+iw, j0..j0+jw] += A[r0..r1, i0..]ᵀ · B[r0..r1, j0..]`
/// where `A`/`B` are column-major with leading dimension `n` and `out` is
/// `lda_out`-major (column-major with `lda_out` rows).
///
/// The full `4×4` tile is specialized with 16 explicit scalar accumulators;
/// ragged edges take a generic two-way-unrolled path.
#[inline]
#[allow(clippy::too_many_arguments)] // leaf kernel: scalars beat a params struct here
fn tn_tile<A: ColSource, B: ColSource>(
    a: A,
    b: B,
    r0: usize,
    r1: usize,
    i0: usize,
    iw: usize,
    j0: usize,
    jw: usize,
    out: &mut [f64],
    lda_out: usize,
    // Output offsets: tile entry (ii, jj) lands at
    // out[(oj0 + jj) * lda_out + oi0 + ii] (0, 0 for a scratch tile).
    oi0: usize,
    oj0: usize,
) {
    if iw == TILE && jw == TILE {
        let a_segs = [
            a.seg(i0, r0, r1),
            a.seg(i0 + 1, r0, r1),
            a.seg(i0 + 2, r0, r1),
            a.seg(i0 + 3, r0, r1),
        ];
        let b_segs = [
            b.seg(j0, r0, r1),
            b.seg(j0 + 1, r0, r1),
            b.seg(j0 + 2, r0, r1),
            b.seg(j0 + 3, r0, r1),
        ];
        let mut tile = [0.0f64; TILE * TILE];
        simd::tn_tile4x4(&a_segs, &b_segs, &mut tile);
        for jj in 0..TILE {
            for ii in 0..TILE {
                out[(oj0 + jj) * lda_out + oi0 + ii] += tile[jj * TILE + ii];
            }
        }
    } else {
        for jj in 0..jw {
            let bj = b.seg(j0 + jj, r0, r1);
            for ii in 0..iw {
                let ai = a.seg(i0 + ii, r0, r1);
                out[(oj0 + jj) * lda_out + oi0 + ii] += simd::dot(ai, bj);
            }
        }
    }
}

/// Accumulate the upper triangle of the symmetric diagonal tile
/// `out[j0..j0+4, j0..j0+4] += A[r0..r1, j0..]ᵀ · A[r0..r1, j0..]`
/// with 10 scalar accumulators (the Gram diagonal-block case — computing
/// the full square and discarding the lower half would waste 6/16 of the
/// tile's flops).
#[inline]
fn sym_tile4<A: ColSource>(a: A, r0: usize, r1: usize, j0: usize, out: &mut [f64], lda: usize) {
    let segs = [
        a.seg(j0, r0, r1),
        a.seg(j0 + 1, r0, r1),
        a.seg(j0 + 2, r0, r1),
        a.seg(j0 + 3, r0, r1),
    ];
    let mut tri = [0.0f64; 10];
    simd::sym_tile4(&segs, &mut tri);
    out[j0 * lda + j0] += tri[0];
    out[(j0 + 1) * lda + j0] += tri[1];
    out[(j0 + 1) * lda + j0 + 1] += tri[2];
    out[(j0 + 2) * lda + j0] += tri[3];
    out[(j0 + 2) * lda + j0 + 1] += tri[4];
    out[(j0 + 2) * lda + j0 + 2] += tri[5];
    out[(j0 + 3) * lda + j0] += tri[6];
    out[(j0 + 3) * lda + j0 + 1] += tri[7];
    out[(j0 + 3) * lda + j0 + 2] += tri[8];
    out[(j0 + 3) * lda + j0 + 3] += tri[9];
}

/// Accumulate `out += A[rows, :ka]ᵀ · B[rows, :kb]` for one row block,
/// tiling both output dimensions.  With `upper_only` set (the Gram case,
/// `A == B`), only tiles on or above the block diagonal are visited and
/// only entries `i ≤ j` are stored.
#[inline]
#[allow(clippy::too_many_arguments)] // leaf kernel: scalars beat a params struct here
fn tn_row_block<A: ColSource, B: ColSource>(
    a: A,
    b: B,
    r0: usize,
    r1: usize,
    ka: usize,
    kb: usize,
    out: &mut [f64],
    upper_only: bool,
) {
    let mut jb = 0;
    while jb < kb {
        let jw = TILE.min(kb - jb);
        let ib_end = if upper_only { jb + jw } else { ka };
        let mut ib = 0;
        while ib < ib_end {
            let iw = TILE.min(ka - ib);
            if upper_only && ib == jb && iw == TILE && jw == TILE {
                // Full diagonal tile: symmetric accumulation, upper half only.
                sym_tile4(a, r0, r1, jb, out, ka);
            } else if upper_only && ib + iw > jb {
                // Ragged diagonal tile: compute into a scratch tile, keep i ≤ j.
                let mut scratch = [0.0f64; TILE * TILE];
                tn_tile(a, b, r0, r1, ib, iw, jb, jw, &mut scratch, TILE, 0, 0);
                for jj in 0..jw {
                    for ii in 0..iw {
                        if ib + ii <= jb + jj {
                            out[(jb + jj) * ka + ib + ii] += scratch[jj * TILE + ii];
                        }
                    }
                }
            } else {
                tn_tile(a, b, r0, r1, ib, iw, jb, jw, out, ka, ib, jb);
            }
            ib += TILE;
        }
        jb += TILE;
    }
}

/// Gram matrix `G = VᵀV` of a tall-skinny panel `V ∈ R^{n×s}`.
///
/// Single pass over `V` per call (row-panel blocked, `TILE`-wide register
/// tiles).  Only the upper triangle is accumulated; the result is
/// symmetrized before returning.
pub fn gram(v: &MatView<'_>) -> Matrix {
    let n = v.nrows();
    let s = v.ncols();
    let _span = trace::span("blas3", "gram", &[("n", n as u64), ("s", s as u64)]);
    if s == 0 {
        return Matrix::zeros(0, 0);
    }
    let data = v.data();
    let partial = accumulate_rows(n, s * s, |g| {
        let cols = SliceCols { data, n };
        let mut rb = 0;
        while rb < n {
            let re = (rb + ROW_BLOCK).min(n);
            tn_row_block(cols, cols, rb, re, s, s, g, true);
            rb = re;
        }
    });
    let mut g = Matrix::from_col_major(s, s, partial);
    // Symmetrize: copy upper triangle to lower.
    for j in 0..s {
        for i in 0..j {
            let val = g[(i, j)];
            g[(j, i)] = val;
        }
    }
    g
}

/// `C = AᵀB` for tall-skinny `A ∈ R^{n×k}`, `B ∈ R^{n×s}` (`k`, `s` small).
///
/// This is the "dot-products" GEMM of BCGS (`R_{1:j−1,j} = Qᵀ_{1:j−1} V_j`).
/// Row-panel blocked and register-tiled like [`gram`]; each tall operand is
/// streamed once per call.
pub fn gemm_tn(a: &MatView<'_>, b: &MatView<'_>) -> Matrix {
    assert_eq!(a.nrows(), b.nrows(), "gemm_tn: row mismatch");
    let n = a.nrows();
    let k = a.ncols();
    let s = b.ncols();
    let _span = trace::span("blas3", "gemm_tn", &[("n", n as u64), ("k", k as u64)]);
    if k == 0 || s == 0 {
        return Matrix::zeros(k, s);
    }
    let adata = a.data();
    let bdata = b.data();
    let partial = accumulate_rows(n, k * s, |c| {
        let a_cols = SliceCols { data: adata, n };
        let b_cols = SliceCols { data: bdata, n };
        let mut rb = 0;
        while rb < n {
            let re = (rb + ROW_BLOCK).min(n);
            tn_row_block(a_cols, b_cols, rb, re, k, s, c, false);
            rb = re;
        }
    });
    Matrix::from_col_major(k, s, partial)
}

/// Longest run of `Q` columns [`simd::update_run`] streams past one `V`
/// tile.  An uncapped run (up to 224 columns in the stage-1 update of four
/// right-hand sides) touches a page of every `Q` column per row step: on
/// one lane of a 2-core Xeon, updating one tile at a time over the whole
/// `k` range, the twelve stage-1 updates of a `lap2d_k4` cycle
/// (n = 14 400, s = 20, k = 4…224) took 0.042–0.060 s uncapped and
/// 0.029–0.031 s with this cap (best of 15, four alternated runs).
const RUN: usize = 16;

/// Per-column axpy sweep of `V[r0..r1, jb..jb+jw] −= Q[r0..r1, kb..kend]·R`
/// with the naive zero skip, in increasing-`k` order: the path for ragged
/// tiles and for `k` steps whose coefficients contain a zero.
///
/// # Safety
/// `vcols` must point into an `n`-row column-major matrix with at least
/// `jb + jw` columns, and rows `r0..r1` of those columns must not be
/// aliased (by `q` either).
#[inline]
#[allow(clippy::too_many_arguments)] // leaf kernel: scalars beat a params struct here
unsafe fn update_cols_generic<Q: ColSource>(
    vcols: &ColPtr,
    q: Q,
    r: &Matrix,
    n: usize,
    r0: usize,
    r1: usize,
    jb: usize,
    jw: usize,
    kb: usize,
    kend: usize,
) {
    for jj in 0..jw {
        // SAFETY: column jb + jj exists and rows r0..r1 are unaliased (the
        // caller's contract).
        let vj = unsafe { vcols.col_seg_mut(n, jb + jj, r0, r1) };
        for kk in kb..kend {
            let alpha = r[(kk, jb + jj)];
            if alpha != 0.0 {
                simd::axpy_minus(alpha, q.seg(kk, r0, r1), vj);
            }
        }
    }
}

/// One full column tile of the update:
/// `V[r0..r1, jb..jb+4] −= Q[r0..r1, kb..kend]·R[kb..kend, jb..jb+4]`.
///
/// The `k` range is cut into runs of at most [`RUN`] steps whose four
/// coefficients are all nonzero, each streamed through
/// [`simd::update_run`].  A zero coefficient must be *skipped* (not
/// multiplied) to stay bitwise-faithful to the naive sweep: `x − 0.0·q`
/// can flip a `-0.0` and poisons `V` when `q` is Inf/NaN.  So a `k` step
/// with a zero among its four coefficients ends the run and takes the
/// skipping column sweep.  Per element the steps still run in ascending
/// `k`, whichever path each takes.
///
/// # Safety
/// As [`update_cols_generic`], with `jw = 4`.
#[inline]
#[allow(clippy::too_many_arguments)] // leaf kernel: scalars beat a params struct here
unsafe fn update_tile<Q: ColSource>(
    vcols: &ColPtr,
    q: Q,
    r: &Matrix,
    n: usize,
    r0: usize,
    r1: usize,
    jb: usize,
    kb: usize,
    kend: usize,
) {
    let mut k0 = kb;
    while k0 < kend {
        let mut c = [[0.0f64; TILE]; RUN];
        let mut qs: [&[f64]; RUN] = [&[]; RUN];
        let mut run = 0;
        while run < RUN && k0 + run < kend {
            let ck: [f64; TILE] = std::array::from_fn(|jj| r[(k0 + run, jb + jj)]);
            if ck.contains(&0.0) {
                break;
            }
            c[run] = ck;
            qs[run] = q.seg(k0 + run, r0, r1);
            run += 1;
        }
        if run == 0 {
            // SAFETY: the caller's contract, for the one step k0.
            unsafe { update_cols_generic(vcols, q, r, n, r0, r1, jb, TILE, k0, k0 + 1) };
            k0 += 1;
            continue;
        }
        // SAFETY: the four columns are distinct and rows r0..r1 of them are
        // unaliased (the caller's contract).
        let mut v = unsafe {
            [
                vcols.col_seg_mut(n, jb, r0, r1),
                vcols.col_seg_mut(n, jb + 1, r0, r1),
                vcols.col_seg_mut(n, jb + 2, r0, r1),
                vcols.col_seg_mut(n, jb + 3, r0, r1),
            ]
        };
        simd::update_run(&mut v, &qs[..run], &c[..run]);
        k0 += run;
    }
}

/// Update one row block of `V ← V − Q·R`, `RUN` columns of `Q` at a time:
/// each chunk (`ROW_BLOCK × RUN` doubles, 32 KiB) stays in L1 while every
/// full column tile of `V` takes it through [`update_tile`] and a ragged
/// last tile through the column sweep.  Against one tile at a time over
/// the whole `k` range this cut the widest `lap2d_k4` stage-1 update
/// (n = 14 400, s = 20, k = 224) from 5.6–8.6 ms to 4.6–6.6 ms on one lane
/// (best of 15, four alternated runs).
///
/// Per element the updates run over `k` in index order, one fused
/// multiply-add each, so the result is bitwise-identical to the naive
/// column sweep ([`naive_gemm_nn_minus`]).
///
/// # Safety
/// `vcols` must point into an `n`-row column-major matrix with at least
/// `r.ncols()` columns, and rows `r0..r1` of it must not be aliased.
unsafe fn update_row_block<Q: ColSource>(
    vcols: &ColPtr,
    q: Q,
    r: &Matrix,
    n: usize,
    r0: usize,
    r1: usize,
) {
    let k = r.nrows();
    let s = r.ncols();
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + RUN).min(k);
        let mut jb = 0;
        while jb < s {
            let jw = TILE.min(s - jb);
            // SAFETY: the caller's contract, for columns jb..jb + jw.
            unsafe {
                if jw == TILE {
                    update_tile(vcols, q, r, n, r0, r1, jb, k0, k1);
                } else {
                    update_cols_generic(vcols, q, r, n, r0, r1, jb, jw, k0, k1);
                }
            }
            jb += TILE;
        }
        k0 = k1;
    }
}

/// `V ← V − Q·R` for tall-skinny `Q ∈ R^{n×k}`, small `R ∈ R^{k×s}` and
/// tall-skinny `V ∈ R^{n×s}` updated in place.
///
/// This is the "vector-update" GEMM of BCGS
/// (`V̂_j = V_j − Q_{1:j−1} R_{1:j−1,j}`).  Row-panel blocked: `Q` is
/// streamed once while each `V` panel stays in cache.
pub fn gemm_nn_minus(v: &mut MatViewMut<'_>, q: &MatView<'_>, r: &Matrix) {
    let n = v.nrows();
    assert_eq!(q.nrows(), n, "gemm_nn_minus: row mismatch");
    assert_eq!(q.ncols(), r.nrows(), "gemm_nn_minus: inner dim mismatch");
    assert_eq!(r.ncols(), v.ncols(), "gemm_nn_minus: col mismatch");
    let k = q.ncols();
    if k == 0 || v.ncols() == 0 || n == 0 {
        return;
    }
    let _span = trace::span(
        "blas3",
        "gemm_nn_minus",
        &[("n", n as u64), ("k", k as u64)],
    );
    update_panel(v, q, r);
}

/// The row-panel-blocked sweep behind [`gemm_nn_minus`] and
/// [`gemm_nn_plus`] (dimensions already checked, no trace span).
fn update_panel(v: &mut MatViewMut<'_>, q: &MatView<'_>, r: &Matrix) {
    let n = v.nrows();
    let q_cols = SliceCols { data: q.data(), n };
    let vcols = ColPtr(v.data_mut().as_mut_ptr());
    let mut rb = 0;
    while rb < n {
        let re = (rb + ROW_BLOCK).min(n);
        // SAFETY: `v` is borrowed mutably for the whole call and `q` is a
        // distinct matrix, so nothing else references these rows.
        unsafe { update_row_block(&vcols, q_cols, r, n, rb, re) };
        rb = re;
    }
}

/// `V ← V·R⁻¹` for tall-skinny `V ∈ R^{n×s}` and upper-triangular
/// `R ∈ R^{s×s}` (the CholQR normalization TRSM).
///
/// Every row of `V` solves independently against `R`, so the solve makes
/// a **single pass** over `V` in `ROW_BLOCK`-row panels.  Inside a panel
/// the column recurrence `q_j = (v_j − Σ_{i<j} q_i r_{ij}) / r_{jj}` is
/// **left-looking on `TILE`-column tiles**: column tile `J` first takes the
/// update from every finished tile `I < J` through the same streaming
/// kernel as [`gemm_nn_minus`] (eight rows of its four columns stay in
/// registers while up to 16 finished columns stream past, so the finished
/// columns are read once per tile, not once per column), then solves
/// its own `TILE×TILE` triangle by axpy and scale.  At the flush widths of
/// the two-stage scheme (`s = 60…240`, a panel of 123–491 KB) this is what
/// keeps the solve from running at axpy rate out of L2.  A ragged last
/// tile takes the plain column sweep.
///
/// Per element the operations are "subtract `r_ij·q_i` for ascending `i`,
/// one fused multiply-add each, zero `r_ij` skipped, then scale", so
/// results are bitwise-identical to [`naive_trsm_right_upper`] on every
/// backend (`crates/dense/tests/simd_kernel_props.rs`,
/// `tiled_trsm_is_bitwise_naive_at_flush_widths_on_both_backends`).
///
/// Panics if `R` has a zero diagonal entry.
pub fn trsm_right_upper(v: &mut MatViewMut<'_>, r: &Matrix) {
    let n = v.nrows();
    let s = v.ncols();
    assert_eq!(r.nrows(), s, "trsm_right_upper: dimension mismatch");
    assert_eq!(r.ncols(), s, "trsm_right_upper: R must be square");
    for j in 0..s {
        assert!(r[(j, j)] != 0.0, "trsm_right_upper: zero diagonal at {j}");
    }
    if n == 0 || s == 0 {
        return;
    }
    let _span = trace::span("blas3", "trsm", &[("n", n as u64), ("s", s as u64)]);
    let vcols = ColPtr(v.data_mut().as_mut_ptr());
    // SAFETY: `done` is only asked for columns left of the ones held
    // mutably at that moment.
    let done = unsafe { RawCols::from_ptr(vcols.0, n, n * s) };
    let mut rb = 0;
    while rb < n {
        let re = (rb + ROW_BLOCK).min(n);
        let mut jb = 0;
        while jb < s {
            let jw = TILE.min(s - jb);
            // Columns left of `solved_from` are already subtracted
            // from this tile; a ragged tile subtracts them itself.
            let solved_from = if jw == TILE {
                // SAFETY: columns 0..jb (read) lie left of jb..jb+4
                // (written).
                unsafe { update_tile(&vcols, done, r, n, rb, re, jb, 0, jb) };
                jb
            } else {
                0
            };
            for j in jb..jb + jw {
                // SAFETY: as above; column j is the only one written.
                let vj = unsafe { vcols.col_seg_mut(n, j, rb, re) };
                for i in solved_from..j {
                    let alpha = r[(i, j)];
                    if alpha != 0.0 {
                        simd::axpy_minus(alpha, done.seg(i, rb, re), vj);
                    }
                }
                simd::scal(1.0 / r[(j, j)], vj);
            }
            jb += TILE;
        }
        rb = re;
    }
}

/// Fused `V ← V − Q·P` **plus** `C = QᵀV` and `G = VᵀV` of the *updated*
/// panel, in one pass over the tall operands.
///
/// This is the local compute of the two-sync BCGS reorthogonalization step
/// (BCGS-IRO-2S): the projected panel `W = V − Q·P` is written and the
/// inner products `[Q W]ᵀW` needed by the next Cholesky are accumulated
/// while each row panel is still in cache, instead of re-reading `W` from
/// memory in a separate `proj_and_gram` sweep.  Returns `(C, G)` with
/// `C ∈ R^{k×s}`, `G ∈ R^{s×s}` (`G` symmetrized).
pub fn fused_update_proj_gram(
    v: &mut MatViewMut<'_>,
    q: &MatView<'_>,
    p: &Matrix,
) -> (Matrix, Matrix) {
    let n = v.nrows();
    let s = v.ncols();
    let k = q.ncols();
    assert_eq!(q.nrows(), n, "fused_update_proj_gram: row mismatch");
    assert_eq!(p.nrows(), k, "fused_update_proj_gram: inner dim mismatch");
    assert_eq!(p.ncols(), s, "fused_update_proj_gram: col mismatch");
    let _span = trace::span(
        "blas3",
        "fused_update_proj_gram",
        &[("n", n as u64), ("k", k as u64)],
    );
    let qdata = q.data();
    let vcols = ColPtr(v.data_mut().as_mut_ptr());
    let vlen = n * s;
    let buf = accumulate_rows(n, k * s + s * s, |acc| {
        let q_cols = SliceCols { data: qdata, n };
        // SAFETY: `Cols::seg` below reads a row panel only after the
        // mutable segments inside `update_row_block` have been dropped.
        let v_read = unsafe { RawCols::from_ptr(vcols.0, n, vlen) };
        let (c_acc, g_acc) = acc.split_at_mut(k * s);
        let mut rb = 0;
        while rb < n {
            let re = (rb + ROW_BLOCK).min(n);
            if k > 0 {
                // SAFETY: `v` is borrowed mutably for the whole call and
                // no segment of these rows is live.
                unsafe { update_row_block(&vcols, q_cols, p, n, rb, re) };
                tn_row_block(q_cols, v_read, rb, re, k, s, c_acc, false);
            }
            tn_row_block(v_read, v_read, rb, re, s, s, g_acc, true);
            rb = re;
        }
    });
    let c = Matrix::from_col_major(k, s, buf[..k * s].to_vec());
    let mut g = Matrix::from_col_major(s, s, buf[k * s..].to_vec());
    for j in 0..s {
        for i in 0..j {
            let val = g[(i, j)];
            g[(j, i)] = val;
        }
    }
    (c, g)
}

/// Serial reference Gram matrix (the pre-blocking dot-product formulation);
/// baseline for the `kernels` bench and oracle for the property tests.
pub fn naive_gram(v: &MatView<'_>) -> Matrix {
    let n = v.nrows();
    let s = v.ncols();
    let data = v.data();
    let mut g = Matrix::zeros(s, s);
    for j in 0..s {
        let cj = &data[j * n..(j + 1) * n];
        for i in 0..=j {
            let ci = &data[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for (a, b) in ci.iter().zip(cj) {
                acc += a * b;
            }
            g[(i, j)] = acc;
        }
    }
    for j in 0..s {
        for i in 0..j {
            let val = g[(i, j)];
            g[(j, i)] = val;
        }
    }
    g
}

/// Serial reference `C = AᵀB` (pre-blocking dot-product formulation).
pub fn naive_gemm_tn(a: &MatView<'_>, b: &MatView<'_>) -> Matrix {
    assert_eq!(a.nrows(), b.nrows(), "naive_gemm_tn: row mismatch");
    let n = a.nrows();
    let k = a.ncols();
    let s = b.ncols();
    let mut c = Matrix::zeros(k, s);
    for j in 0..s {
        let bj = &b.data()[j * n..(j + 1) * n];
        for i in 0..k {
            let ai = &a.data()[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for (x, y) in ai.iter().zip(bj) {
                acc += x * y;
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Serial reference `V ← V − Q·R`: the column-at-a-time sweep, one
/// `mul_add` per nonzero coefficient in ascending `k`, zero coefficients
/// skipped.
pub fn naive_gemm_nn_minus(v: &mut MatViewMut<'_>, q: &MatView<'_>, r: &Matrix) {
    let n = v.nrows();
    assert_eq!(q.nrows(), n, "naive_gemm_nn_minus: row mismatch");
    assert_eq!(
        q.ncols(),
        r.nrows(),
        "naive_gemm_nn_minus: inner dim mismatch"
    );
    assert_eq!(r.ncols(), v.ncols(), "naive_gemm_nn_minus: col mismatch");
    let k = q.ncols();
    for j in 0..v.ncols() {
        let vj = v.col_mut(j);
        for kk in 0..k {
            let alpha = r[(kk, j)];
            if alpha != 0.0 {
                for (o, &x) in vj.iter_mut().zip(q.col(kk)) {
                    *o = (-alpha).mul_add(x, *o);
                }
            }
        }
    }
}

/// Serial reference `V ← V·R⁻¹`: the column sweep `v_j ← v_j − r_ij·q_i`
/// for ascending `i`, one `mul_add` each, zero `r_ij` skipped, then
/// `v_j ← v_j·(1/r_jj)`.
pub fn naive_trsm_right_upper(v: &mut MatViewMut<'_>, r: &Matrix) {
    let n = v.nrows();
    let s = v.ncols();
    assert_eq!(r.nrows(), s, "naive_trsm_right_upper: dimension mismatch");
    assert_eq!(r.ncols(), s, "naive_trsm_right_upper: R must be square");
    for j in 0..s {
        assert!(
            r[(j, j)] != 0.0,
            "naive_trsm_right_upper: zero diagonal at {j}"
        );
    }
    let data = v.data_mut();
    for j in 0..s {
        let (done, rest) = data.split_at_mut(j * n);
        let vj = &mut rest[..n];
        for i in 0..j {
            let alpha = r[(i, j)];
            if alpha != 0.0 {
                for (o, &x) in vj.iter_mut().zip(&done[i * n..(i + 1) * n]) {
                    *o = (-alpha).mul_add(x, *o);
                }
            }
        }
        let d = 1.0 / r[(j, j)];
        for o in vj.iter_mut() {
            *o *= d;
        }
    }
}

/// General dense product `C = A·B` (serial, intended for small/medium
/// matrices such as `R`-factor updates and test references).
pub fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.ncols(), b.nrows(), "gemm_nn: inner dimension mismatch");
    let m = a.nrows();
    let k = a.ncols();
    let n = b.ncols();
    let mut c = Matrix::zeros(m, n);
    for j in 0..n {
        for l in 0..k {
            let blj = b[(l, j)];
            if blj != 0.0 {
                for i in 0..m {
                    c[(i, j)] += a[(i, l)] * blj;
                }
            }
        }
    }
    c
}

/// `V ← V + Q·Y` for tall-skinny `Q ∈ R^{n×k}`, small `Y ∈ R^{k×s}` and
/// tall-skinny `V ∈ R^{n×s}` updated in place (the solution update
/// `X ← X + Q·Ŷ` of every solve, one column or many).
///
/// Runs as the row-panel-blocked update `V ← V − Q·(−Y)`, so the `V` panel
/// stays in cache while `Q` streams past once for all `s` columns.
/// Negation is exact, hence per element this is bit for bit the column
/// sweep `v_p ← fma(y_jp, q_j, v_p)` for ascending `j`, one rounding per
/// step, zero `y_jp` skipped (pinned by
/// `gemm_nn_plus_is_bitwise_the_column_sweep`).  It opens no trace span.
pub fn gemm_nn_plus(v: &mut MatViewMut<'_>, q: &MatView<'_>, y: &Matrix) {
    assert_eq!(q.nrows(), v.nrows(), "gemm_nn_plus: row mismatch");
    assert_eq!(q.ncols(), y.nrows(), "gemm_nn_plus: inner dim mismatch");
    assert_eq!(y.ncols(), v.ncols(), "gemm_nn_plus: col mismatch");
    let mut neg_y = y.clone();
    neg_y.scale(-1.0);
    update_panel(v, q, &neg_y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn test_panel(n: usize, s: usize) -> Matrix {
        Matrix::from_fn(n, s, |i, j| {
            let x = (i as f64 * 0.37 + j as f64 * 1.3).sin();
            x + if i == j { 2.0 } else { 0.0 }
        })
    }

    fn gemm_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut acc = 0.0;
                for k in 0..a.ncols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() <= tol,
                    "entry ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gram_matches_reference_and_is_symmetric() {
        let v = test_panel(2_003, 5);
        let g = gram(&v.view());
        let reference = gemm_reference(&v.transpose(), &v);
        assert_close(&g, &reference, 1e-9);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn gram_matches_naive_reference() {
        for (n, s) in [(0, 3), (1, 1), (255, 4), (257, 9), (1_023, 8)] {
            let v = test_panel(n, s);
            let g = gram(&v.view());
            let reference = naive_gram(&v.view());
            assert_close(&g, &reference, 1e-10 * (n.max(1) as f64));
        }
    }

    #[test]
    fn gemm_tn_matches_reference() {
        let a = test_panel(1_501, 4);
        let b = test_panel(1_501, 6);
        let c = gemm_tn(&a.view(), &b.view());
        let reference = gemm_reference(&a.transpose(), &b);
        assert_close(&c, &reference, 1e-9);
    }

    #[test]
    fn gemm_tn_matches_naive_on_awkward_shapes() {
        for (n, k, s) in [
            (1, 1, 1),
            (3, 5, 2),
            (255, 3, 7),
            (258, 6, 1),
            (1_025, 5, 5),
        ] {
            let a = test_panel(n, k);
            let b = test_panel(n, s);
            let c = gemm_tn(&a.view(), &b.view());
            let reference = naive_gemm_tn(&a.view(), &b.view());
            assert_close(&c, &reference, 1e-10 * (n as f64));
        }
    }

    #[test]
    fn gemm_tn_with_empty_operand() {
        let a = Matrix::zeros(100, 0);
        let b = test_panel(100, 3);
        let c = gemm_tn(&a.view(), &b.view());
        assert_eq!(c.nrows(), 0);
        assert_eq!(c.ncols(), 3);
    }

    #[test]
    fn gemm_nn_minus_matches_reference() {
        let q = test_panel(1_777, 3);
        let r = Matrix::from_fn(3, 4, |i, j| (i + j) as f64 * 0.25 + 0.1);
        let mut v = test_panel(1_777, 4);
        let reference = v.sub(&gemm_reference(&q, &r));
        gemm_nn_minus(&mut v.view_mut(), &q.view(), &r);
        assert_close(&v, &reference, 1e-10);
    }

    #[test]
    fn gemm_nn_minus_is_bitwise_naive() {
        for (n, k, s) in [(1, 1, 1), (100, 5, 4), (257, 4, 4), (511, 7, 9)] {
            let q = test_panel(n, k);
            let r = Matrix::from_fn(k, s, |i, j| ((i * 3 + j) % 5) as f64 * 0.2 - 0.3);
            let mut a = test_panel(n, s);
            let mut b = a.clone();
            gemm_nn_minus(&mut a.view_mut(), &q.view(), &r);
            naive_gemm_nn_minus(&mut b.view_mut(), &q.view(), &r);
            assert_eq!(a, b, "blocked update must match naive bitwise");
        }
    }

    #[test]
    fn gemm_nn_minus_skips_zero_coefficients_like_naive() {
        // A zero R entry must *skip* its column (naive semantics): with an
        // Inf in the skipped Q column, multiplying instead of skipping
        // would poison V with NaNs; with -0.0 values it would flip signs.
        let n = 600;
        let k = 4; // full 4x4 tile path
        let s = 4;
        let mut q = test_panel(n, k);
        q[(5, 2)] = f64::INFINITY;
        q[(7, 2)] = f64::NAN;
        let mut r = Matrix::from_fn(k, s, |i, j| (i + j + 1) as f64 * 0.25);
        for j in 0..s {
            r[(2, j)] = 0.0; // Q column 2 must never be touched
        }
        let mut v = test_panel(n, s);
        for i in 0..n {
            v[(i, 1)] = -0.0;
        }
        let mut v_ref = v.clone();
        gemm_nn_minus(&mut v.view_mut(), &q.view(), &r);
        naive_gemm_nn_minus(&mut v_ref.view_mut(), &q.view(), &r);
        for j in 0..s {
            for i in 0..n {
                assert!(
                    v[(i, j)].to_bits() == v_ref[(i, j)].to_bits(),
                    "({i},{j}): {:e} vs {:e}",
                    v[(i, j)],
                    v_ref[(i, j)]
                );
            }
        }
        assert!(v.data().iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn gemm_nn_minus_with_empty_q_is_noop() {
        let q = Matrix::zeros(50, 0);
        let r = Matrix::zeros(0, 2);
        let mut v = test_panel(50, 2);
        let orig = v.clone();
        gemm_nn_minus(&mut v.view_mut(), &q.view(), &r);
        assert_eq!(v, orig);
    }

    #[test]
    fn trsm_right_upper_inverts_r() {
        // Build V = Q·R with orthonormal-ish Q unknown; instead verify that
        // (V·R⁻¹)·R == V.
        let r = Matrix::from_rows(&[&[2.0, 0.5, -1.0], &[0.0, 1.5, 0.25], &[0.0, 0.0, 3.0]]);
        let v = test_panel(901, 3);
        let mut q = v.clone();
        trsm_right_upper(&mut q.view_mut(), &r);
        let back = gemm_reference(&q, &r);
        assert_close(&back, &v, 1e-10);
    }

    #[test]
    fn trsm_is_bitwise_naive() {
        let r = Matrix::from_fn(6, 6, |i, j| {
            if i > j {
                0.0
            } else if i == j {
                (i + 2) as f64 * 0.5
            } else {
                ((i + j) % 3) as f64 * 0.4 - 0.2
            }
        });
        for n in [1usize, 100, 255, 257, 1_025] {
            let mut a = test_panel(n, 6);
            let mut b = a.clone();
            trsm_right_upper(&mut a.view_mut(), &r);
            naive_trsm_right_upper(&mut b.view_mut(), &r);
            assert_eq!(a, b, "TRSM must match naive bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn trsm_rejects_singular_r() {
        let r = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        let mut v = test_panel(10, 2);
        trsm_right_upper(&mut v.view_mut(), &r);
    }

    #[test]
    fn fused_update_proj_gram_matches_separate_kernels() {
        for (n, k, s) in [(300, 3, 4), (1_027, 5, 6), (100, 0, 3), (257, 4, 1)] {
            let q = test_panel(n, k);
            let p = Matrix::from_fn(k, s, |i, j| (i as f64 - j as f64) * 0.15 + 0.05);
            let mut v = test_panel(n, s);
            let mut v_ref = v.clone();
            let (c, g) = fused_update_proj_gram(&mut v.view_mut(), &q.view(), &p);
            gemm_nn_minus(&mut v_ref.view_mut(), &q.view(), &p);
            assert_eq!(v, v_ref, "fused update must equal separate update");
            let c_ref = gemm_tn(&q.view(), &v_ref.view());
            let g_ref = gram(&v_ref.view());
            assert_close(&c, &c_ref, 1e-10 * (n as f64));
            assert_close(&g, &g_ref, 1e-10 * (n as f64));
        }
    }

    #[test]
    fn gemm_nn_matches_reference() {
        let a = Matrix::from_fn(7, 5, |i, j| (i as f64 - j as f64) * 0.3);
        let b = Matrix::from_fn(5, 6, |i, j| (i * j) as f64 * 0.1 + 1.0);
        assert_close(&gemm_nn(&a, &b), &gemm_reference(&a, &b), 1e-12);
    }

    #[test]
    fn gemm_nn_plus_is_bitwise_the_column_sweep() {
        // The solution update runs `y += A·x` as `y −= A·(−x)` through
        // gemm_nn_plus on all right-hand sides at once.  It must reproduce
        // the plain ascending-column sweep bit for bit — one fused
        // multiply-add per step — zero coefficients skipped.
        for n in [1usize, ROW_BLOCK - 1, 2 * ROW_BLOCK + 7] {
            let a = test_panel(n, 9);
            let x = Matrix::from_fn(9, 4, |k, p| {
                if (k + p) % 4 == 0 {
                    0.0
                } else {
                    (k as f64 - 3.5) * 0.3 + p as f64 * 0.11
                }
            });
            let y0 = test_panel(n, 4);
            let mut sweep = y0.clone();
            for p in 0..4 {
                for (k, &xk) in x.col(p).iter().enumerate() {
                    if xk != 0.0 {
                        for (yi, &ai) in sweep.col_mut(p).iter_mut().zip(a.col(k)) {
                            *yi = xk.mul_add(ai, *yi);
                        }
                    }
                }
            }
            let mut by_panel = y0.clone();
            gemm_nn_plus(&mut by_panel.view_mut(), &a.view(), &x);
            assert_eq!(by_panel, sweep, "gemm_nn_plus, n = {n}");
        }
    }
}
