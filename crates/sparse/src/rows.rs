//! Streaming row access to sparse matrices — the *row provider* interface
//! of the distributed assembly path.
//!
//! The paper's experiments run at scales where no rank can hold the global
//! matrix, so a distributed matrix must be assembled from rows produced
//! on demand rather than from a replicated CSR.  A [`RowSource`] yields any
//! row of the operator independently of the others; generators (stencils,
//! SuiteSparse surrogates, a streaming Matrix Market reader) implement it
//! directly, and a replicated [`Csr`] implements it trivially so the
//! replicated construction path becomes a special case of the streamed one.
//!
//! Rows must be emitted with **strictly increasing column indices and no
//! duplicates** — the invariant [`Csr`] itself maintains — so that a matrix
//! assembled row-by-row ([`assemble`]) is bitwise identical to one built
//! from the equivalent triplet set.
//!
//! Every consumer reads a source in two passes, counting and then filling
//! exactly-sized arrays.  [`RowSource::row_len`] is the counting pass: a
//! source that knows its row lengths (a [`Csr`], the stencils, the
//! SuiteSparse surrogates) answers it without generating a value, so the
//! generator runs once per entry, in the filling pass.  The two consumers
//! are [`assemble_rows`] (a [`Csr`]) and
//! [`SlicedCsr::from_rows`](crate::SlicedCsr::from_rows) (the operator
//! format of the distributed product, built straight from the rows).

use crate::csr::Csr;

/// A matrix whose rows can be produced on demand, one at a time, without
/// materializing the whole operator.
///
/// `emit_row` must append the entries of row `i` in strictly increasing
/// column order (no duplicate columns), exactly the per-row invariant of
/// [`Csr`].  Implementations must be deterministic: emitting the same row
/// twice yields the same entries, which lets consumers make a cheap
/// counting pass before an exactly-sized filling pass.
pub trait RowSource {
    /// Global number of rows.
    fn nrows(&self) -> usize;

    /// Global number of columns.
    fn ncols(&self) -> usize;

    /// Append the `(column, value)` entries of row `i` to `cols`/`vals`
    /// (sorted by column, no duplicates).
    fn emit_row(&self, i: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>);

    /// The number of entries [`emit_row`](Self::emit_row) appends for row
    /// `i`.  The default emits the row and counts it; sources that know the
    /// length without generating the values override it.
    fn row_len(&self, i: usize) -> usize {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        self.emit_row(i, &mut cols, &mut vals);
        cols.len()
    }
}

impl<S: RowSource + ?Sized> RowSource for &S {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn emit_row(&self, i: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        (**self).emit_row(i, cols, vals)
    }
    fn row_len(&self, i: usize) -> usize {
        (**self).row_len(i)
    }
}

/// A replicated CSR matrix is trivially a row source (row slices are copied
/// out verbatim, so assembly from it is bitwise lossless).
impl RowSource for Csr {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }
    fn emit_row(&self, i: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let (c, v) = self.row(i);
        cols.extend_from_slice(c);
        vals.extend_from_slice(v);
    }
    fn row_len(&self, i: usize) -> usize {
        self.rowptr()[i + 1] - self.rowptr()[i]
    }
}

/// Assemble the full matrix from a row source in two passes (count, then
/// fill into exactly-sized arrays).
///
/// For the stencil generators this is the assembly path of the public
/// constructors, so `assemble(&Laplace2d5ptRows { nx, ny })` is *the same
/// object* as [`crate::laplace2d_5pt`]`(nx, ny)` — bitwise.
pub fn assemble<S: RowSource>(source: &S) -> Csr {
    assemble_rows(source, 0..source.nrows())
}

/// Assemble the row block `rows` of a row source (columns stay global) in
/// two passes — count through [`RowSource::row_len`], then fill into
/// exactly-sized arrays.  [`assemble`] is the full-range case.
pub fn assemble_rows<S: RowSource>(source: &S, rows: std::ops::Range<usize>) -> Csr {
    assert!(
        rows.end <= source.nrows(),
        "row block {}..{} out of bounds for {} rows",
        rows.start,
        rows.end,
        source.nrows()
    );
    let nloc = rows.end - rows.start;
    let mut rowptr = Vec::with_capacity(nloc + 1);
    rowptr.push(0usize);
    // Counting pass.
    let mut nnz = 0usize;
    for i in rows.clone() {
        nnz += source.row_len(i);
        rowptr.push(nnz);
    }
    // Filling pass into exact allocations.
    let mut cols = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (i, &end) in rows.zip(&rowptr[1..]) {
        source.emit_row(i, &mut cols, &mut vals);
        assert_eq!(cols.len(), end, "row {i}: row_len disagrees with emit_row");
    }
    Csr::from_raw(nloc, source.ncols(), rowptr, cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Triplet;

    #[test]
    fn csr_round_trips_through_its_own_rows() {
        let a = Csr::from_triplets(
            3,
            4,
            &[
                Triplet {
                    row: 0,
                    col: 3,
                    val: 1.5,
                },
                Triplet {
                    row: 2,
                    col: 0,
                    val: -2.0,
                },
                Triplet {
                    row: 2,
                    col: 2,
                    val: 4.0,
                },
            ],
        );
        assert_eq!(assemble(&a), a);
        // Through a reference too (the blanket impl).
        assert_eq!(assemble(&&a), a);
    }

    #[test]
    fn row_len_is_the_emitted_length_for_every_source() {
        use crate::stencil::{
            Elasticity3dRows, Laplace2d5ptRows, Laplace2d9ptRows, Laplace3d7ptRows,
        };
        use crate::suitelike::{spec_by_name, SuiteLikeRows};
        let geer = spec_by_name("ML_Geer").unwrap();
        let ecology = spec_by_name("ecology2").unwrap();
        let ragged = Csr::from_triplets(
            5,
            5,
            &[(0, 4), (0, 1), (2, 2), (4, 0), (4, 3), (4, 0)].map(|(row, col)| Triplet {
                row,
                col,
                val: 1.0,
            }),
        );
        let sources: Vec<(&str, Box<dyn RowSource>)> = vec![
            ("5pt", Box::new(Laplace2d5ptRows { nx: 7, ny: 5 })),
            ("9pt", Box::new(Laplace2d9ptRows { nx: 6, ny: 4 })),
            (
                "7pt",
                Box::new(Laplace3d7ptRows {
                    nx: 4,
                    ny: 3,
                    nz: 3,
                }),
            ),
            (
                "elasticity",
                Box::new(Elasticity3dRows {
                    nx: 3,
                    ny: 2,
                    nz: 2,
                }),
            ),
            ("ML_Geer", Box::new(SuiteLikeRows::new(geer, Some(300), 3))),
            (
                "ecology2",
                Box::new(SuiteLikeRows::new(ecology, Some(97), 3)),
            ),
            ("csr", Box::new(ragged)),
        ];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for (name, source) in &sources {
            for i in 0..source.nrows() {
                cols.clear();
                vals.clear();
                source.emit_row(i, &mut cols, &mut vals);
                assert_eq!(source.row_len(i), cols.len(), "{name} row {i}");
            }
        }
    }

    #[test]
    fn empty_rows_are_preserved() {
        let a = Csr::from_triplets(
            4,
            4,
            &[Triplet {
                row: 1,
                col: 1,
                val: 7.0,
            }],
        );
        let b = assemble(&a);
        assert_eq!(b, a);
        assert_eq!(b.row(0).0.len(), 0);
        assert_eq!(b.row(3).0.len(), 0);
    }
}
