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
/// two passes — count, then fill into exactly-sized arrays.  This is the
/// per-rank assembly step of the streamed distributed construction
/// (`distsim::DistCsr::from_row_source`); [`assemble`] is the full-range
/// special case.
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
    let mut scratch_c = Vec::new();
    let mut scratch_v = Vec::new();
    // Counting pass.
    let mut nnz = 0usize;
    for i in rows.clone() {
        scratch_c.clear();
        scratch_v.clear();
        source.emit_row(i, &mut scratch_c, &mut scratch_v);
        nnz += scratch_c.len();
        rowptr.push(nnz);
    }
    // Filling pass into exact allocations.
    let mut cols = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for i in rows {
        source.emit_row(i, &mut cols, &mut vals);
    }
    assert_eq!(
        cols.len(),
        nnz,
        "row source emitted different entry counts on the two passes"
    );
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
