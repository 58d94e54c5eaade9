//! Slice-interleaved CSR: the operator format of the distributed SpMV.
//!
//! [`Csr::spmv`] sums one row at a time through one accumulator, so every
//! nonzero waits for the add before it (about four cycles), behind 8-byte
//! column indices.  [`SlicedCsr`] stores the same nonzeros — same count, no
//! padding — with `u32` column indices, permuted per *slice* of four
//! consecutive rows so that one contiguous stream feeds four independent
//! accumulators:
//!
//! ```text
//! slice of rows r0..r3 with lengths l0..l3, m = min(l0..l3):
//!   [r0[0] r1[0] r2[0] r3[0]  r0[1] r1[1] r2[1] r3[1]  …  r0[m-1] … r3[m-1]]   lockstep part
//!   [r0[m..l0]] [r1[m..l1]] [r2[m..l2]] [r3[m..l3]]                            row tails
//! ```
//!
//! The last `nrows mod 4` rows keep plain CSR order.  Each row is still
//! summed left to right with a separate multiply and add, so
//! [`SlicedCsr::spmv`] returns the bits of [`Csr::spmv`] for every input —
//! NaN, ±∞ and ±0 included (`tests/sliced_spmv_props.rs`).  A slice of
//! ragged rows degrades toward the one-row loop, never below it.
//!
//! [`SlicedCsr::spmm`] multiplies several columns in one pass over the
//! stream, four rows times up to four columns of accumulators, and sums
//! every column's rows in the same order, so each of its columns is the
//! bits of `spmv` of that column.  The matrix-powers kernel of a block of
//! right-hand sides reads `A` once per block step instead of once per
//! right-hand side.
//!
//! **Assembly.**  [`SlicedCsr::from_rows`] builds the format straight from
//! a [`RowSource`] — four rows at a time, each mapped to its local columns
//! and put in normal form, then written in slice order into arrays sized by
//! the counting pass.  No `usize` column array and no intermediate [`Csr`]
//! exist at any point.  [`SlicedCsr::from_csr`] is that builder over a
//! [`Csr`]; the distributed matrix (`distsim::DistCsr`) runs it over the
//! rank's rows with the `[owned | ghost]` column map.

use crate::csr::Csr;
use crate::rows::RowSource;
use std::ops::Range;

/// Rows per slice: enough independent add chains to cover the add latency.
const SLICE: usize = 4;

/// Columns [`SlicedCsr::spmm`] carries through one pass over the stream:
/// with [`SLICE`] rows that is sixteen accumulators, what the registers
/// hold.
const SWEEP: usize = 4;

/// A CSR matrix re-laid for the product; see the [module docs](self).
///
/// Built from rows by [`SlicedCsr::from_rows`] (or from a [`Csr`] by
/// [`SlicedCsr::from_csr`]) and turned back by [`SlicedCsr::to_csr`]; it
/// offers no row access — preconditioners and I/O work on [`Csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedCsr {
    nrows: usize,
    ncols: usize,
    /// The CSR row pointers: slice `s` occupies
    /// `rowptr[SLICE·s]..rowptr[SLICE·(s + 1)]` of the two streams.
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    vals: Vec<f64>,
}

/// Row lengths of the slice starting at row `first`, and their minimum.
fn slice_shape(rowptr: &[usize], first: usize) -> ([usize; SLICE], usize) {
    let len: [usize; SLICE] = std::array::from_fn(|r| rowptr[first + r + 1] - rowptr[first + r]);
    let lockstep = len.iter().copied().min().unwrap_or(0);
    (len, lockstep)
}

/// For the slice starting at row `first`, call `visit(stream, csr)` for
/// every entry: `stream` is its position in the sliced layout, `csr` its
/// position in row order, both relative to the slice's first entry.
/// `stream` counts up from 0.
fn for_each_slice_entry(rowptr: &[usize], first: usize, mut visit: impl FnMut(usize, usize)) {
    let (len, lockstep) = slice_shape(rowptr, first);
    let base = rowptr[first];
    let row_start: [usize; SLICE] = std::array::from_fn(|r| rowptr[first + r] - base);
    let mut stream = 0;
    for p in 0..lockstep {
        for start in row_start {
            visit(stream, start + p);
            stream += 1;
        }
    }
    for r in 0..SLICE {
        for p in lockstep..len[r] {
            visit(stream, row_start[r] + p);
            stream += 1;
        }
    }
}

/// Up to [`SLICE`] rows in normal form, in row order: the staging area
/// between a [`RowSource`] and the sliced streams.
#[derive(Default)]
struct RowStage {
    /// One emitted row, global columns.
    raw_cols: Vec<usize>,
    raw_vals: Vec<f64>,
    /// The staged rows, mapped and normalized; row `r` is
    /// `ends[r]..ends[r + 1]`.
    cols: Vec<u32>,
    vals: Vec<f64>,
    ends: Vec<usize>,
    /// Sort scratch of a row the column map leaves out of order.
    pairs: Vec<(u32, f64)>,
}

impl RowStage {
    fn clear(&mut self) {
        self.cols.clear();
        self.vals.clear();
        self.ends.clear();
        self.ends.push(0);
    }

    /// Emit row `i` of `source`, map its columns through `map`, and stage it
    /// in normal form (see [`SlicedCsr::from_rows`]).
    fn push_row<S: RowSource + ?Sized>(
        &mut self,
        source: &S,
        i: usize,
        map: &mut impl FnMut(usize) -> u32,
    ) {
        self.raw_cols.clear();
        self.raw_vals.clear();
        source.emit_row(i, &mut self.raw_cols, &mut self.raw_vals);
        let start = self.cols.len();
        self.cols.extend(self.raw_cols.iter().map(|&c| map(c)));
        if self.cols[start..].windows(2).all(|w| w[0] < w[1]) {
            self.vals.extend_from_slice(&self.raw_vals);
        } else {
            self.pairs.clear();
            let mapped = self.cols[start..].iter().copied();
            self.pairs.extend(mapped.zip(self.raw_vals.iter().copied()));
            self.pairs.sort_by_key(|&(c, _)| c);
            self.cols.truncate(start);
            for run in self.pairs.chunk_by(|a, b| a.0 == b.0) {
                self.cols.push(run[0].0);
                self.vals.push(run.iter().fold(0.0, |acc, &(_, v)| acc + v));
            }
        }
        self.ends.push(self.cols.len());
    }
}

impl SlicedCsr {
    /// Lay out rows `rows` of `source` for the product, with every column
    /// `c` stored as `map(c)`: one pass over the rows, four at a time, each
    /// put in normal form and written in slice order.  A row whose mapped
    /// columns increase strictly is copied as it is; any other is sorted by
    /// its mapped column (stably) and each run of equal columns is summed in
    /// order, from `0.0`, into one entry — what `Csr::from_triplets` makes
    /// of the same entries.  `nnz` is the entry count the rows
    /// emit (the counting pass, [`RowSource::row_len`] summed); the streams
    /// are allocated at that size, which is exact unless a row repeats a
    /// column.  The result has `ncols` columns; `map` must send every
    /// column the rows hold below it.
    ///
    /// Panics if `ncols` exceeds `u32::MAX` or `map` sends a column outside
    /// `0..ncols`.
    pub fn from_rows<S: RowSource + ?Sized>(
        source: &S,
        rows: Range<usize>,
        ncols: usize,
        nnz: usize,
        mut map: impl FnMut(usize) -> u32,
    ) -> Self {
        let nrows = rows.len();
        assert!(
            ncols <= u32::MAX as usize,
            "SlicedCsr stores 32-bit column indices: {nrows} x {ncols} has more than {} columns",
            u32::MAX
        );
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        let mut colind = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let mut stage = RowStage::default();
        let mut first = rows.start;
        while first < rows.end {
            let last = (first + SLICE).min(rows.end);
            stage.clear();
            for i in first..last {
                stage.push_row(source, i, &mut map);
            }
            let ends = &stage.ends;
            if last - first == SLICE {
                let len: [usize; SLICE] = std::array::from_fn(|r| ends[r + 1] - ends[r]);
                let lockstep = len.iter().copied().min().unwrap_or(0);
                for p in 0..lockstep {
                    for &start in &ends[..SLICE] {
                        colind.push(stage.cols[start + p]);
                        vals.push(stage.vals[start + p]);
                    }
                }
                for r in 0..SLICE {
                    let tail = ends[r] + lockstep..ends[r + 1];
                    colind.extend_from_slice(&stage.cols[tail.clone()]);
                    vals.extend_from_slice(&stage.vals[tail]);
                }
            } else {
                colind.extend_from_slice(&stage.cols);
                vals.extend_from_slice(&stage.vals);
            }
            let base = *rowptr.last().expect("rowptr starts at 0");
            rowptr.extend(ends[1..].iter().map(|&e| base + e));
            first = last;
        }
        if let Some(&c) = colind.iter().max() {
            assert!(
                (c as usize) < ncols,
                "column {c} out of bounds for {ncols} columns"
            );
        }
        colind.shrink_to_fit();
        vals.shrink_to_fit();
        Self {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// [`from_rows`](Self::from_rows) over every row of `a`, columns as
    /// they are.  Rows in `Csr`'s normal form (sorted, unique) are laid out
    /// unchanged, so [`to_csr`](Self::to_csr) gives `a` back.
    ///
    /// Panics if `a` has more than `u32::MAX` columns.
    pub fn from_csr(a: &Csr) -> Self {
        Self::from_rows(a, 0..a.nrows(), a.ncols(), a.nnz(), |c| c as u32)
    }

    /// The matrix in plain CSR form (the inverse of
    /// [`from_csr`](Self::from_csr)).
    pub fn to_csr(&self) -> Csr {
        let mut colind: Vec<usize> = self.colind.iter().map(|&c| c as usize).collect();
        let mut vals = self.vals.clone();
        let full = self.nrows - self.nrows % SLICE;
        for first in (0..full).step_by(SLICE) {
            let lo = self.rowptr[first];
            for_each_slice_entry(&self.rowptr, first, |stream, csr| {
                colind[lo + csr] = self.colind[lo + stream] as usize;
                vals[lo + csr] = self.vals[lo + stream];
            });
        }
        Csr::from_raw(self.nrows, self.ncols, self.rowptr.clone(), colind, vals)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Sparse matrix–vector product `y = A·x`, bit for bit
    /// [`Csr::spmv`]'s.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        self.sweep::<1>([x], [y], None);
    }

    /// Sparse matrix times `k` columns: `Y = A·X`, or `Y = A·X − θ·U` with
    /// `shift = Some((θ, U))`.  `x` holds `k` columns of `ncols` entries,
    /// `y` and `U` hold `k` columns of `nrows`, each column-major.  Column
    /// `j` of `Y` is bit for bit [`spmv`](Self::spmv) of column `j` of `X`,
    /// then `y −= θ·u` entry by entry; pass `None` for `θ = 0`, which
    /// subtracts nothing.  Up to four columns share one pass over `A`.
    pub fn spmm(&self, k: usize, x: &[f64], y: &mut [f64], shift: Option<(f64, &[f64])>) {
        let (m, n) = (self.nrows, self.ncols);
        assert_eq!(x.len(), k * n, "spmm: x must hold {k} columns of {n}");
        assert_eq!(y.len(), k * m, "spmm: y must hold {k} columns of {m}");
        if let Some((_, u)) = shift {
            assert_eq!(u.len(), k * m, "spmm: the shifted block must match y");
        }
        for c0 in (0..k).step_by(SWEEP) {
            let w = (k - c0).min(SWEEP);
            let x = &x[c0 * n..(c0 + w) * n];
            let y = &mut y[c0 * m..(c0 + w) * m];
            let u = shift.map(|(theta, u)| (theta, &u[c0 * m..(c0 + w) * m]));
            match w {
                1 => self.sweep::<1>(cols(x, n), cols_mut(y, m), cols_shift(u, m)),
                2 => self.sweep::<2>(cols(x, n), cols_mut(y, m), cols_shift(u, m)),
                3 => self.sweep::<3>(cols(x, n), cols_mut(y, m), cols_shift(u, m)),
                _ => self.sweep::<SWEEP>(cols(x, n), cols_mut(y, m), cols_shift(u, m)),
            }
        }
    }

    /// `K` columns through one pass over the stream, with the shift folded
    /// into the row write.
    #[inline]
    fn sweep<const K: usize>(
        &self,
        x: [&[f64]; K],
        y: [&mut [f64]; K],
        shift: Option<(f64, [&[f64]; K])>,
    ) {
        match shift {
            None => self.sweep_rows(x, y, |_, _, sum| sum),
            Some((theta, u)) => self.sweep_rows(x, y, |q, i, sum| sum - theta * u[q][i]),
        }
    }

    /// [`sweep`](Self::sweep) with the row write `y[q][i] = write(q, i, Σ)`.
    #[inline]
    fn sweep_rows<const K: usize>(
        &self,
        x: [&[f64]; K],
        y: [&mut [f64]; K],
        write: impl Fn(usize, usize, f64) -> f64,
    ) {
        let mut y = y.map(|y| y.as_chunks_mut::<SLICE>());
        let slices = self.nrows / SLICE;
        for k in 0..slices {
            let first = k * SLICE;
            let acc = self.slice_product(first, x);
            for (q, ((out, _), acc)) in y.iter_mut().zip(acc).enumerate() {
                for (r, (out, sum)) in out[k].iter_mut().zip(acc).enumerate() {
                    *out = write(q, first + r, sum);
                }
            }
        }
        let full = slices * SLICE;
        for (q, ((_, rest), x)) in y.iter_mut().zip(x).enumerate() {
            for (t, yi) in rest.iter_mut().enumerate() {
                let (lo, hi) = (self.rowptr[full + t], self.rowptr[full + t + 1]);
                let sum = row_sum(0.0, &self.vals[lo..hi], &self.colind[lo..hi], x);
                *yi = write(q, full + t, sum);
            }
        }
    }

    /// The row sums of the slice starting at row `first`, for each of the
    /// `K` columns of `x`.
    // Inlined into the sweep: called out of line, the slice's sums travel
    // through memory and the narrow Laplace rows lose ~10 %.
    #[inline(always)]
    fn slice_product<const K: usize>(&self, first: usize, x: [&[f64]; K]) -> [[f64; SLICE]; K] {
        let (len, lockstep) = slice_shape(&self.rowptr, first);
        let lo = self.rowptr[first];
        let mut tail = lo + SLICE * lockstep;
        let (lock_vals, _) = self.vals[lo..tail].as_chunks::<SLICE>();
        let (lock_cols, _) = self.colind[lo..tail].as_chunks::<SLICE>();
        let mut acc = [[0.0f64; SLICE]; K];
        for (v, c) in lock_vals.iter().zip(lock_cols) {
            for r in 0..SLICE {
                let c = c[r] as usize;
                for q in 0..K {
                    acc[q][r] += v[r] * x[q][c];
                }
            }
        }
        for r in 0..SLICE {
            let end = tail + len[r] - lockstep;
            let (vals, cols) = (&self.vals[tail..end], &self.colind[tail..end]);
            // The row's sums in a local array: `r` is not a constant here,
            // and `acc[q][r]` would keep every add in memory.
            let mut row: [f64; K] = std::array::from_fn(|q| acc[q][r]);
            for (v, &c) in vals.iter().zip(cols) {
                for q in 0..K {
                    row[q] += v * x[q][c as usize];
                }
            }
            for q in 0..K {
                acc[q][r] = row[q];
            }
            tail = end;
        }
        acc
    }
}

/// The first `K` columns of length `len` of the column-major block `a`.
fn cols<const K: usize>(a: &[f64], len: usize) -> [&[f64]; K] {
    std::array::from_fn(|q| &a[q * len..(q + 1) * len])
}

/// [`cols`], mutably.
fn cols_mut<const K: usize>(a: &mut [f64], len: usize) -> [&mut [f64]; K] {
    let mut rest = a;
    std::array::from_fn(|_| {
        let (col, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        col
    })
}

/// The shift of a sweep: `θ` and the first `K` columns of `U`.
fn cols_shift<const K: usize>(
    shift: Option<(f64, &[f64])>,
    len: usize,
) -> Option<(f64, [&[f64]; K])> {
    shift.map(|(theta, u)| (theta, cols(u, len)))
}

/// `acc + Σ vals[p]·x[cols[p]]`, summed left to right.
#[inline]
fn row_sum(mut acc: f64, vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    for (v, &c) in vals.iter().zip(cols) {
        acc += v * x[c as usize];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::laplace2d_9pt;

    #[test]
    fn layout_interleaves_the_lockstep_part_and_appends_the_tails() {
        // Row lengths 3, 2, 4, 2 (lockstep 2), then one remainder row.
        let a = Csr::from_raw(
            5,
            6,
            vec![0, 3, 5, 9, 11, 13],
            vec![0, 1, 2, 1, 3, 0, 2, 4, 5, 3, 4, 0, 5],
            (1..=13).map(f64::from).collect(),
        );
        let s = SlicedCsr::from_csr(&a);
        assert_eq!(
            s.vals,
            [1., 4., 6., 10., 2., 5., 7., 11., 3., 8., 9., 12., 13.]
        );
        assert_eq!(s.colind, [0, 1, 0, 3, 1, 3, 2, 4, 2, 4, 5, 0, 5]);
        assert_eq!((s.nrows(), s.ncols(), s.nnz()), (5, 6, 13));
        assert_eq!(s.to_csr(), a);
    }

    #[test]
    fn spmv_is_the_csr_product_on_the_paper_stencil() {
        let a = laplace2d_9pt(13, 11);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![f64::NAN; a.nrows()];
        SlicedCsr::from_csr(&a).spmv(&x, &mut y);
        assert_eq!(y, a.spmv_alloc(&x));
    }
}
