//! Row/column scaling applied to the SuiteSparse matrices in Section VI.
//!
//! The paper scales "the columns and then rows of the matrices by the
//! maximum nonzero entries in the columns and rows (hence, all the resulting
//! matrices are non-symmetric)".  This equilibration keeps the monomial
//! s-step basis from overflowing and is applied before the matrix-powers
//! kernel runs.

use crate::csr::Csr;

/// Scale the columns of `a` by the reciprocal of their maximum absolute
/// entry, then the rows of the column-scaled matrix likewise, and return
/// the scaled matrix.
///
/// Columns or rows whose maximum entry is zero are left unscaled.
pub fn scale_rows_cols_by_max(a: &Csr) -> Csr {
    let nrows = a.nrows();
    let ncols = a.ncols();
    // Column maxima.
    let mut col_max = vec![0.0f64; ncols];
    for i in 0..nrows {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            col_max[*c] = col_max[*c].max(v.abs());
        }
    }
    let col_scale: Vec<f64> = col_max
        .iter()
        .map(|&m| if m > 0.0 { 1.0 / m } else { 1.0 })
        .collect();
    // Apply column scaling, then compute row maxima of the column-scaled
    // matrix and apply row scaling.
    let mut scaled = a.clone();
    let rowptr = scaled.rowptr().to_vec();
    let colind = scaled.colind().to_vec();
    let vals = scaled.vals_mut();
    for i in 0..nrows {
        let row = rowptr[i]..rowptr[i + 1];
        for p in row.clone() {
            vals[p] *= col_scale[colind[p]];
        }
        let row_vals = &mut vals[row];
        let m = row_vals.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let s = if m > 0.0 { 1.0 / m } else { 1.0 };
        for v in row_vals {
            *v *= s;
        }
    }
    scaled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Triplet;
    use crate::stencil::laplace2d_5pt;

    #[test]
    fn scaled_matrix_has_unit_row_maxima() {
        let a = laplace2d_5pt(6, 6);
        let s = scale_rows_cols_by_max(&a);
        for i in 0..s.nrows() {
            let (_, vals) = s.row(i);
            let m = vals.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            assert!((m - 1.0).abs() < 1e-14, "row {i} max {m}");
        }
    }

    #[test]
    fn scaling_makes_symmetric_matrix_nonsymmetric() {
        // As noted in the paper, the two-sided max scaling destroys symmetry
        // whenever the row/column maxima differ (true for the SuiteSparse
        // matrices; a constant-coefficient Laplacian is the degenerate case
        // where all maxima coincide and symmetry happens to survive).
        let a = Csr::from_triplets(
            2,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 4.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 9.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: 2.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    val: 2.0,
                },
            ],
        );
        assert!(a.is_symmetric(0.0));
        let s = scale_rows_cols_by_max(&a);
        assert!(!s.is_symmetric(1e-14));
    }

    #[test]
    fn scaling_factors_reproduce_scaled_matrix() {
        let a = Csr::from_triplets(
            2,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    val: 4.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    val: 2.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    val: 8.0,
                },
            ],
        );
        let s = scale_rows_cols_by_max(&a);
        // Check S[i][j] == (A[i][j] * col_scale[j]) * row_scale[i].
        let (row_scale, col_scale) = max_scale_factors(&a);
        let ad = a.to_dense();
        let sd = s.to_dense();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(sd[(i, j)], ad[(i, j)] * col_scale[j] * row_scale[i]);
            }
        }
    }

    #[test]
    fn zero_rows_and_columns_are_left_alone() {
        let a = Csr::from_triplets(
            3,
            3,
            &[Triplet {
                row: 0,
                col: 0,
                val: 5.0,
            }],
        );
        let s = scale_rows_cols_by_max(&a);
        let (row_scale, col_scale) = max_scale_factors(&a);
        assert_eq!(s.to_dense()[(0, 0)], 1.0);
        assert_eq!(row_scale[1], 1.0);
        assert_eq!(col_scale[2], 1.0);
        assert_eq!(s.nnz(), 1);
    }

    /// The factors the scaling applies, worked out on the dense matrix:
    /// the column maxima first, then the row maxima of the column-scaled
    /// matrix; `(row, col)`.
    fn max_scale_factors(a: &Csr) -> (Vec<f64>, Vec<f64>) {
        let d = a.to_dense();
        let inv = |m: f64| if m > 0.0 { 1.0 / m } else { 1.0 };
        let col: Vec<f64> = (0..a.ncols())
            .map(|j| inv((0..a.nrows()).fold(0.0, |m: f64, i| m.max(d[(i, j)].abs()))))
            .collect();
        let row = (0..a.nrows())
            .map(|i| inv((0..a.ncols()).fold(0.0, |m: f64, j| m.max((d[(i, j)] * col[j]).abs()))))
            .collect();
        (row, col)
    }
}
