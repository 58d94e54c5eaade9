//! Compressed sparse row (CSR) matrices and the SpMV kernel.

/// A `(row, col, value)` entry used to assemble a [`Csr`] matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value.
    pub val: f64,
}

/// Compressed sparse row matrix with `f64` values.
///
/// Invariants: `rowptr.len() == nrows + 1`, `rowptr` is non-decreasing,
/// column indices within each row are sorted and unique, and every column
/// index is `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Assemble a CSR matrix from triplets; duplicate `(row, col)` entries
    /// are summed.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[Triplet]) -> Self {
        for t in triplets {
            assert!(
                t.row < nrows && t.col < ncols,
                "triplet ({}, {}) out of bounds for {}x{}",
                t.row,
                t.col,
                nrows,
                ncols
            );
        }
        // Count entries per row.
        let mut counts = vec![0usize; nrows];
        for t in triplets {
            counts[t.row] += 1;
        }
        let mut rowptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            rowptr[i + 1] = rowptr[i] + counts[i];
        }
        let nnz = rowptr[nrows];
        let mut colind = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut next = rowptr.clone();
        for t in triplets {
            let p = next[t.row];
            colind[p] = t.col;
            vals[p] = t.val;
            next[t.row] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_rowptr = vec![0usize; nrows + 1];
        let mut out_colind = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        for i in 0..nrows {
            let lo = rowptr[i];
            let hi = rowptr[i + 1];
            let mut row: Vec<(usize, f64)> = colind[lo..hi]
                .iter()
                .copied()
                .zip(vals[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < row.len() {
                let col = row[k].0;
                let mut acc = 0.0;
                while k < row.len() && row[k].0 == col {
                    acc += row[k].1;
                    k += 1;
                }
                out_colind.push(col);
                out_vals.push(acc);
            }
            out_rowptr[i + 1] = out_colind.len();
        }
        Self {
            nrows,
            ncols,
            rowptr: out_rowptr,
            colind: out_colind,
            vals: out_vals,
        }
    }

    /// Build a CSR matrix directly from its raw arrays.
    ///
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone
    /// `rowptr`, out-of-range column index).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length mismatch");
        assert_eq!(colind.len(), vals.len(), "colind/vals length mismatch");
        assert_eq!(*rowptr.last().unwrap(), colind.len(), "rowptr end mismatch");
        for w in rowptr.windows(2) {
            assert!(w[0] <= w[1], "rowptr must be non-decreasing");
        }
        for &c in &colind {
            assert!(c < ncols, "column index {c} out of bounds {ncols}");
        }
        Self {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Decompose the matrix into its raw arrays
    /// `(nrows, ncols, rowptr, colind, vals)` without copying — the inverse
    /// of [`Csr::from_raw`], used by consumers that transform the storage
    /// in place (e.g. the distributed assembly's column remap).
    pub fn into_raw(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.nrows, self.ncols, self.rowptr, self.colind, self.vals)
    }

    /// The `n × n` identity matrix in CSR form.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colind: (0..n).collect(),
            vals: vec![1.0; n],
        }
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

    /// Row pointer array (length `nrows + 1`).
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column index array.
    pub fn colind(&self) -> &[usize] {
        &self.colind
    }

    /// Value array.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array (pattern is fixed).
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The `(colind, vals)` pairs of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.rowptr[i];
        let hi = self.rowptr[i + 1];
        (&self.colind[lo..hi], &self.vals[lo..hi])
    }

    /// The diagonal of the matrix (zeros where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows.min(self.ncols)];
        for (i, entry) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals.iter()) {
                if *c == i {
                    *entry = *v;
                }
            }
        }
        d
    }

    /// Sparse matrix–vector product `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        let rowptr = &self.rowptr;
        let colind = &self.colind;
        let vals = &self.vals;
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = rowptr[i];
            let hi = rowptr[i + 1];
            let mut acc = 0.0;
            for p in lo..hi {
                acc += vals[p] * x[colind[p]];
            }
            *yi = acc;
        }
    }

    /// `y = A·x` returning a freshly allocated vector.
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Transpose (used by scaling and by symmetry checks in tests).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.colind {
            counts[c] += 1;
        }
        let mut rowptr = vec![0usize; self.ncols + 1];
        for i in 0..self.ncols {
            rowptr[i + 1] = rowptr[i] + counts[i];
        }
        let mut colind = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = rowptr.clone();
        for i in 0..self.nrows {
            let (cols, rvals) = self.row(i);
            for (c, v) in cols.iter().zip(rvals) {
                let p = next[*c];
                colind[p] = i;
                vals[p] = *v;
                next[*c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colind,
            vals,
        }
    }

    /// Extract the sub-matrix of rows `row_start..row_end` (all columns),
    /// keeping global column indices.  This is how a 1D block-row
    /// distribution stores its local part.
    pub fn row_block(&self, row_start: usize, row_end: usize) -> Csr {
        assert!(
            row_start <= row_end && row_end <= self.nrows,
            "row block out of range"
        );
        let lo = self.rowptr[row_start];
        let hi = self.rowptr[row_end];
        let rowptr: Vec<usize> = self.rowptr[row_start..=row_end]
            .iter()
            .map(|p| p - lo)
            .collect();
        Csr {
            nrows: row_end - row_start,
            ncols: self.ncols,
            rowptr,
            colind: self.colind[lo..hi].to_vec(),
            vals: self.vals[lo..hi].to_vec(),
        }
    }

    /// Whether the sparsity pattern and values are numerically symmetric to
    /// within `tol` (used to classify the SuiteSparse surrogates).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.rowptr != self.rowptr || t.colind != self.colind {
            return false;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(a, b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    /// Dense copy (for small-matrix tests only).
    pub fn to_dense(&self) -> dense::Matrix {
        let mut m = dense::Matrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                m[(i, *c)] += *v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        Csr::from_triplets(
            3,
            3,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 2.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: -1.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: -1.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 2.0,
                },
                Triplet {
                    row: 1,
                    col: 2,
                    val: -1.0,
                },
                Triplet {
                    row: 2,
                    col: 1,
                    val: -1.0,
                },
                Triplet {
                    row: 2,
                    col: 2,
                    val: 2.0,
                },
            ],
        )
    }

    #[test]
    fn assembly_sorts_and_sums_duplicates() {
        let a = Csr::from_triplets(
            2,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 1,
                    val: 1.0,
                },
                Triplet {
                    row: 0,
                    col: 0,
                    val: 2.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: 3.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 5.0,
                },
            ],
        );
        assert_eq!(a.nnz(), 3);
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, 4.0]);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.spmv_alloc(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_large_matches_dense() {
        // Random-ish banded matrix, compare against dense product.
        let n = 500;
        let mut trip = Vec::new();
        for i in 0..n {
            for d in -2i64..=2 {
                let j = i as i64 + d;
                if j >= 0 && (j as usize) < n {
                    trip.push(Triplet {
                        row: i,
                        col: j as usize,
                        val: ((i * 3 + j as usize) % 7) as f64 - 3.0,
                    });
                }
            }
        }
        let a = Csr::from_triplets(n, n, &trip);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y = a.spmv_alloc(&x);
        let ad = a.to_dense();
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += ad[(i, j)] * x[j];
            }
            assert!((y[i] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_spmv_is_copy() {
        let a = Csr::identity(10);
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(a.spmv_alloc(&x), x);
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(small().diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn transpose_of_symmetric_matrix_is_identical() {
        let a = small();
        assert_eq!(a.transpose(), a);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_round_trip_nonsymmetric() {
        let a = Csr::from_triplets(
            2,
            3,
            &[
                Triplet {
                    row: 0,
                    col: 2,
                    val: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: 4.0,
                },
            ],
        );
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.transpose(), a);
        assert!(!a.is_symmetric(0.0));
    }

    #[test]
    fn row_block_keeps_global_columns() {
        let a = small();
        let b = a.row_block(1, 3);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 3);
        let (cols, vals) = b.row(0);
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[-1.0, 2.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        Csr::from_triplets(
            2,
            2,
            &[Triplet {
                row: 2,
                col: 0,
                val: 1.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "rowptr must be non-decreasing")]
    fn from_raw_validates_rowptr() {
        Csr::from_raw(3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let a = Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![3.0, 4.0]);
        assert_eq!(a.diagonal(), vec![3.0, 4.0]);
    }
}
