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

use crate::csr::Csr;

/// Rows per slice: enough independent add chains to cover the add latency.
const SLICE: usize = 4;

/// A CSR matrix re-laid for the product; see the [module docs](self).
///
/// Built from a [`Csr`] by [`SlicedCsr::from_csr`] and turned back by
/// [`SlicedCsr::to_csr`]; it offers no row access — assembly,
/// preconditioners and I/O work on [`Csr`].
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

impl SlicedCsr {
    /// Re-lay `a` for the product, consuming it: the values are permuted in
    /// place through a slice-sized scratch and the `usize` column indices
    /// are freed once their `u32` copy is written, so the conversion never
    /// holds two copies of the values.
    ///
    /// Panics if `a` has more than `u32::MAX` columns.
    pub fn from_csr(a: Csr) -> Self {
        let (nrows, ncols, rowptr, colind, mut vals) = a.into_raw();
        assert!(
            ncols <= u32::MAX as usize,
            "SlicedCsr stores 32-bit column indices: {nrows} x {ncols} has more than {} columns",
            u32::MAX
        );
        let mut colind32 = Vec::with_capacity(colind.len());
        let mut scratch: Vec<f64> = Vec::new();
        let full = nrows - nrows % SLICE;
        for first in (0..full).step_by(SLICE) {
            let (lo, hi) = (rowptr[first], rowptr[first + SLICE]);
            scratch.clear();
            scratch.extend_from_slice(&vals[lo..hi]);
            for_each_slice_entry(&rowptr, first, |stream, csr| {
                vals[lo + stream] = scratch[csr];
                colind32.push(colind[lo + csr] as u32);
            });
        }
        colind32.extend(colind[rowptr[full]..].iter().map(|&c| c as u32));
        Self {
            nrows,
            ncols,
            rowptr,
            colind: colind32,
            vals,
        }
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
        let (slices, rest) = y.as_chunks_mut::<SLICE>();
        for (k, ys) in slices.iter_mut().enumerate() {
            *ys = self.slice_product(k * SLICE, x);
        }
        let full = self.nrows - rest.len();
        for (k, yi) in rest.iter_mut().enumerate() {
            let (lo, hi) = (self.rowptr[full + k], self.rowptr[full + k + 1]);
            *yi = row_sum(0.0, &self.vals[lo..hi], &self.colind[lo..hi], x);
        }
    }

    /// The four row sums of the slice starting at row `first`.
    #[inline]
    fn slice_product(&self, first: usize, x: &[f64]) -> [f64; SLICE] {
        let (len, lockstep) = slice_shape(&self.rowptr, first);
        let lo = self.rowptr[first];
        let mut tail = lo + SLICE * lockstep;
        let (lock_vals, _) = self.vals[lo..tail].as_chunks::<SLICE>();
        let (lock_cols, _) = self.colind[lo..tail].as_chunks::<SLICE>();
        let mut acc = [0.0f64; SLICE];
        for (v, c) in lock_vals.iter().zip(lock_cols) {
            for r in 0..SLICE {
                acc[r] += v[r] * x[c[r] as usize];
            }
        }
        for r in 0..SLICE {
            let end = tail + len[r] - lockstep;
            acc[r] = row_sum(acc[r], &self.vals[tail..end], &self.colind[tail..end], x);
            tail = end;
        }
        acc
    }
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
        let s = SlicedCsr::from_csr(a.clone());
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
        SlicedCsr::from_csr(a.clone()).spmv(&x, &mut y);
        assert_eq!(y, a.spmv_alloc(&x));
    }
}
