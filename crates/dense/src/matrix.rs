//! Column-major dense matrix and column-block views.
//!
//! The solver stores the Krylov basis as one wide matrix
//! `Q ∈ R^{n×(m+1)}` and repeatedly needs two disjoint column blocks of it
//! at the same time: the already-orthogonalized prefix `Q_{1:j−1}`
//! (read-only) and the new panel `V_j` (mutable).  [`Matrix::split_at_col`]
//! provides exactly that without copies, because a column block of a
//! column-major matrix is contiguous in memory.

use std::ops::Range;

/// An owned, column-major, `f64` dense matrix with `lda == nrows`.
///
/// [`Matrix::zeros`] starts column 0 on a 64-byte cache line, and with
/// `nrows` a multiple of 8 every column: where the heap happens to put a
/// Krylov basis would otherwise move the tiled kernels' time by ±10 %
/// from one allocation history to the next.  Equality compares the
/// entries only.
#[derive(Debug, Clone)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    /// The entries are `data[offset..]`; the leading words only align them.
    offset: usize,
    data: Vec<f64>,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols) && self.data() == other.data()
    }
}

/// Bytes per cache line, the alignment of [`Matrix::zeros`].
const LINE: usize = 64;

/// A read-only view of a contiguous column block of a [`Matrix`].
#[derive(Debug, Clone, Copy)]
pub struct MatView<'a> {
    nrows: usize,
    ncols: usize,
    data: &'a [f64],
}

/// A mutable view of a contiguous column block of a [`Matrix`].
#[derive(Debug)]
pub struct MatViewMut<'a> {
    nrows: usize,
    ncols: usize,
    data: &'a mut [f64],
}

impl Matrix {
    /// An `nrows × ncols` matrix of zeros, its first entry on a cache line.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let words = LINE / size_of::<f64>();
        let mut data = vec![0.0; nrows * ncols + words - 1];
        let offset = (LINE - data.as_ptr() as usize % LINE) % LINE / size_of::<f64>();
        data.truncate(offset + nrows * ncols);
        Self {
            nrows,
            ncols,
            offset,
            data,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a column-major data vector.
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "from_col_major: data length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Self {
            nrows,
            ncols,
            offset: 0,
            data,
        }
    }

    /// Build a matrix from a row-major nested array (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut m = Self::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The underlying column-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data[self.offset..]
    }

    /// Mutable access to the underlying column-major storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data[self.offset..]
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(
            j < self.ncols,
            "column index {j} out of bounds {}",
            self.ncols
        );
        &self.data()[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(
            j < self.ncols,
            "column index {j} out of bounds {}",
            self.ncols
        );
        let n = self.nrows;
        &mut self.data_mut()[j * n..(j + 1) * n]
    }

    /// Read-only view of the whole matrix.
    pub fn view(&self) -> MatView<'_> {
        MatView {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data(),
        }
    }

    /// Mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> MatViewMut<'_> {
        MatViewMut {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data_mut(),
        }
    }

    /// Read-only view of the column block `cols`.
    pub fn cols(&self, cols: Range<usize>) -> MatView<'_> {
        assert!(cols.end <= self.ncols, "column range out of bounds");
        MatView {
            nrows: self.nrows,
            ncols: cols.end - cols.start,
            data: &self.data()[cols.start * self.nrows..cols.end * self.nrows],
        }
    }

    /// Mutable view of the column block `cols`.
    pub fn cols_mut(&mut self, cols: Range<usize>) -> MatViewMut<'_> {
        assert!(cols.end <= self.ncols, "column range out of bounds");
        let nrows = self.nrows;
        MatViewMut {
            nrows,
            ncols: cols.end - cols.start,
            data: &mut self.data_mut()[cols.start * nrows..cols.end * nrows],
        }
    }

    /// Split the matrix into the column blocks `[0, j)` (read-only) and
    /// `[j, ncols)` (mutable).  This is the access pattern of block
    /// Gram–Schmidt: orthogonalize the trailing panel against the leading
    /// basis in place.
    pub fn split_at_col(&mut self, j: usize) -> (MatView<'_>, MatViewMut<'_>) {
        assert!(
            j <= self.ncols,
            "split column {j} out of bounds {}",
            self.ncols
        );
        let nrows = self.nrows;
        let ncols = self.ncols;
        let (head, tail) = self.data_mut().split_at_mut(j * nrows);
        (
            MatView {
                nrows,
                ncols: j,
                data: head,
            },
            MatViewMut {
                nrows,
                ncols: ncols - j,
                data: tail,
            },
        )
    }

    /// Copy of the column block `cols` as an owned matrix.
    pub fn cols_owned(&self, cols: Range<usize>) -> Matrix {
        self.cols(cols).to_owned_matrix()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Entry-wise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.nrows, other.nrows, "sub: row mismatch");
        assert_eq!(self.ncols, other.ncols, "sub: col mismatch");
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_col_major(self.nrows, self.ncols, data)
    }

    /// Entry-wise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.nrows, other.nrows, "add: row mismatch");
        assert_eq!(self.ncols, other.ncols, "add: col mismatch");
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_col_major(self.nrows, self.ncols, data)
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in self.data_mut() {
            *x *= alpha;
        }
    }

    /// Maximum absolute entry (`max |a_ij|`), 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data().iter().fold(0.0, |acc, &x| acc.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        &self.data()[j * self.nrows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        let n = self.nrows;
        &mut self.data_mut()[j * n + i]
    }
}

impl<'a> MatView<'a> {
    /// Construct a view from a raw column-major slice.
    pub fn from_slice(nrows: usize, ncols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_slice: length mismatch");
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The backing column-major slice.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.ncols, "column index out of bounds");
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Sub-view of columns `cols` of this view.
    pub fn cols(&self, cols: Range<usize>) -> MatView<'a> {
        assert!(cols.end <= self.ncols, "column range out of bounds");
        MatView {
            nrows: self.nrows,
            ncols: cols.end - cols.start,
            data: &self.data[cols.start * self.nrows..cols.end * self.nrows],
        }
    }

    /// Deep copy into an owned [`Matrix`].
    pub fn to_owned_matrix(&self) -> Matrix {
        Matrix::from_col_major(self.nrows, self.ncols, self.data.to_vec())
    }
}

impl<'a> MatViewMut<'a> {
    /// Construct a mutable view from a raw column-major slice.
    pub fn from_slice(nrows: usize, ncols: usize, data: &'a mut [f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_slice: length mismatch");
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The backing column-major slice.
    pub fn data(&self) -> &[f64] {
        self.data
    }

    /// Mutable access to the backing column-major slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.ncols, "column index out of bounds");
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.ncols, "column index out of bounds");
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Set entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = value;
    }

    /// Reborrow as a read-only view.
    pub fn as_view(&self) -> MatView<'_> {
        MatView {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data,
        }
    }

    /// Reborrow a mutable sub-view of columns `cols`.
    pub fn cols_mut(&mut self, cols: Range<usize>) -> MatViewMut<'_> {
        assert!(cols.end <= self.ncols, "column range out of bounds");
        let nrows = self.nrows;
        MatViewMut {
            nrows,
            ncols: cols.end - cols.start,
            data: &mut self.data[cols.start * nrows..cols.end * nrows],
        }
    }

    /// Deep copy into an owned [`Matrix`].
    pub fn to_owned_matrix(&self) -> Matrix {
        Matrix::from_col_major(self.nrows, self.ncols, self.data.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_start_on_a_cache_line_and_compare_by_entries() {
        for (nrows, ncols) in [(0, 0), (1, 1), (7, 3), (64, 5), (25_600, 2)] {
            let m = Matrix::zeros(nrows, ncols);
            assert_eq!(m.data().as_ptr() as usize % LINE, 0, "{nrows} x {ncols}");
            assert_eq!(m.data().len(), nrows * ncols);
            let plain = Matrix::from_col_major(nrows, ncols, vec![0.0; nrows * ncols]);
            assert_eq!(m, plain);
            assert_eq!(m.clone(), m);
        }
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.nrows(), 3);
        assert_eq!(z.ncols(), 2);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn indexing_is_column_major() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn columns_are_contiguous() {
        let m = Matrix::from_fn(4, 3, |i, j| (10 * j + i) as f64);
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn col_block_views() {
        let m = Matrix::from_fn(3, 4, |i, j| (j * 3 + i) as f64);
        let v = m.cols(1..3);
        assert_eq!(v.ncols(), 2);
        assert_eq!(v.get(0, 0), 3.0);
        assert_eq!(v.get(2, 1), 8.0);
        let sub = v.cols(1..2);
        assert_eq!(sub.get(0, 0), 6.0);
    }

    #[test]
    fn split_at_col_gives_disjoint_blocks() {
        let mut m = Matrix::from_fn(2, 4, |i, j| (j * 2 + i) as f64);
        let (head, mut tail) = m.split_at_col(2);
        assert_eq!(head.ncols(), 2);
        assert_eq!(tail.ncols(), 2);
        assert_eq!(head.get(0, 1), 2.0);
        assert_eq!(tail.get(0, 0), 4.0);
        tail.set(1, 1, 99.0);
        assert_eq!(m[(1, 3)], 99.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn add_sub_scale_max_abs() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        let c = a.add(&b).sub(&b);
        assert_eq!(c, a);
        let mut d = a.clone();
        d.scale(2.0);
        assert_eq!(d[(1, 1)], 8.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cols_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.cols(1..3);
    }
}
