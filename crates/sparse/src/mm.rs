//! Minimal Matrix Market (`.mtx`) I/O.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` formats, which covers the
//! SuiteSparse matrices the paper uses.  Symmetric files are expanded to
//! full storage on read (as Trilinos does when it ingests them).
//!
//! Two readers are provided:
//!
//! * [`read_matrix_market`] materializes the whole matrix (what a
//!   single-rank run wants);
//! * [`read_matrix_market_row_block`] streams the file once and keeps only
//!   the entries of a contiguous row range — the per-rank path of the
//!   streamed distributed assembly.  A rank reading its own block needs
//!   `O(nnz(block))` memory regardless of the file size, and the block it
//!   reads is bitwise identical to `read_matrix_market(..).row_block(..)`.
//!
//! Coordinate files carry entries in arbitrary order, so "seeking" a row
//! block still scans every data line; what the streaming reader avoids is
//! *storing* anything outside the requested rows.

use crate::csr::{Csr, Triplet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::ops::Range;
use std::path::Path;

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a Matrix Market file or uses an unsupported variant.
    Format(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Format(msg) => write!(f, "Matrix Market format error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Header and size information of a Matrix Market file (everything a rank
/// needs to build its partition before streaming its row block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmInfo {
    /// Global number of rows.
    pub nrows: usize,
    /// Global number of columns.
    pub ncols: usize,
    /// Number of stored entries in the file (before symmetric expansion).
    pub stored_entries: usize,
    /// Field type: `"real"`, `"integer"` or `"pattern"`.
    pub field: String,
    /// Symmetry: `"general"` or `"symmetric"`.
    pub symmetry: String,
}

impl MmInfo {
    /// Whether the file stores only one triangle (entries are mirrored on
    /// read).
    pub fn is_symmetric(&self) -> bool {
        self.symmetry == "symmetric"
    }
}

/// Parser state after the header and size lines have been consumed.
struct MmParser<R: BufRead> {
    lines: std::io::Lines<R>,
    info: MmInfo,
}

impl<R: BufRead> MmParser<R> {
    fn new(reader: R) -> Result<Self, MmError> {
        let mut lines = reader.lines();
        // Header line.
        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break line;
                    }
                }
                None => return Err(MmError::Format("empty file".into())),
            }
        };
        let header_lower = header.to_lowercase();
        if !header_lower.starts_with("%%matrixmarket") {
            return Err(MmError::Format("missing %%MatrixMarket header".into()));
        }
        let tokens: Vec<&str> = header_lower.split_whitespace().collect();
        if tokens.len() < 5 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
            return Err(MmError::Format(format!("unsupported header: {header}")));
        }
        let field = tokens[3];
        if field != "real" && field != "pattern" && field != "integer" {
            return Err(MmError::Format(format!("unsupported field type: {field}")));
        }
        let symmetry = tokens[4];
        if symmetry != "general" && symmetry != "symmetric" {
            return Err(MmError::Format(format!("unsupported symmetry: {symmetry}")));
        }
        // Size line (skipping comments).
        let size_line = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    let t = line.trim();
                    if t.is_empty() || t.starts_with('%') {
                        continue;
                    }
                    break line;
                }
                None => return Err(MmError::Format("missing size line".into())),
            }
        };
        let dims: Vec<usize> = size_line
            .split_whitespace()
            .map(|t| t.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|e| MmError::Format(format!("bad size line: {e}")))?;
        if dims.len() != 3 {
            return Err(MmError::Format("size line must have 3 fields".into()));
        }
        Ok(Self {
            lines,
            info: MmInfo {
                nrows: dims[0],
                ncols: dims[1],
                stored_entries: dims[2],
                field: field.to_string(),
                symmetry: symmetry.to_string(),
            },
        })
    }

    /// Stream every stored entry to `sink` as 0-based `(row, col, value)`
    /// (symmetric mirroring is the caller's concern), validating bounds and
    /// the entry count.
    fn for_each_entry(self, mut sink: impl FnMut(usize, usize, f64)) -> Result<MmInfo, MmError> {
        let info = self.info;
        let pattern = info.field == "pattern";
        let mut read = 0usize;
        for line in self.lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let i: usize = it
                .next()
                .ok_or_else(|| MmError::Format("missing row index".into()))?
                .parse()
                .map_err(|e| MmError::Format(format!("bad row index: {e}")))?;
            let j: usize = it
                .next()
                .ok_or_else(|| MmError::Format("missing col index".into()))?
                .parse()
                .map_err(|e| MmError::Format(format!("bad col index: {e}")))?;
            let v: f64 = match it.next() {
                Some(tok) => tok
                    .parse()
                    .map_err(|e| MmError::Format(format!("bad value: {e}")))?,
                None => {
                    if pattern {
                        1.0
                    } else {
                        return Err(MmError::Format("missing value".into()));
                    }
                }
            };
            if i == 0 || j == 0 || i > info.nrows || j > info.ncols {
                return Err(MmError::Format(format!("entry ({i}, {j}) out of bounds")));
            }
            sink(i - 1, j - 1, v);
            read += 1;
        }
        if read != info.stored_entries {
            return Err(MmError::Format(format!(
                "expected {} entries, found {read}",
                info.stored_entries
            )));
        }
        Ok(info)
    }
}

/// Read only the header and size line of a Matrix Market file — what each
/// rank needs to derive the row partition before streaming its own block.
pub fn read_matrix_market_info(path: &Path) -> Result<MmInfo, MmError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_info_from(BufReader::new(file))
}

/// Header/size reader over any buffered input.
fn read_matrix_market_info_from<R: BufRead>(reader: R) -> Result<MmInfo, MmError> {
    Ok(MmParser::new(reader)?.info)
}

/// Read a Matrix Market coordinate file into CSR form.
pub fn read_matrix_market(path: &Path) -> Result<Csr, MmError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Read Matrix Market data from any buffered reader.
fn read_matrix_market_from<R: BufRead>(reader: R) -> Result<Csr, MmError> {
    let parser = MmParser::new(reader)?;
    let symmetric = parser.info.is_symmetric();
    let mut triplets = Vec::with_capacity(if symmetric {
        2 * parser.info.stored_entries
    } else {
        parser.info.stored_entries
    });
    let info = parser.for_each_entry(|i, j, v| {
        triplets.push(Triplet {
            row: i,
            col: j,
            val: v,
        });
        if symmetric && i != j {
            triplets.push(Triplet {
                row: j,
                col: i,
                val: v,
            });
        }
    })?;
    Ok(Csr::from_triplets(info.nrows, info.ncols, &triplets))
}

/// Stream a Matrix Market file and keep only the rows `rows` (0-based,
/// half-open), returned as a CSR block of `rows.len()` rows with **global**
/// column indices — the storage the 1D block-row distribution wants.
///
/// Peak memory is `O(nnz(block))`, independent of the file's total entry
/// count; the result is bitwise identical to
/// `read_matrix_market(path)?.row_block(rows.start, rows.end)`.
pub fn read_matrix_market_row_block(path: &Path, rows: Range<usize>) -> Result<Csr, MmError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_row_block_from(BufReader::new(file), rows)
}

/// Streaming row-block reader over any buffered input.
fn read_matrix_market_row_block_from<R: BufRead>(
    reader: R,
    rows: Range<usize>,
) -> Result<Csr, MmError> {
    let parser = MmParser::new(reader)?;
    let info = &parser.info;
    if rows.start > rows.end || rows.end > info.nrows {
        return Err(MmError::Format(format!(
            "row block {}..{} out of bounds for {} rows",
            rows.start, rows.end, info.nrows
        )));
    }
    let symmetric = info.is_symmetric();
    let ncols = info.ncols;
    let (lo, hi) = (rows.start, rows.end);
    let mut triplets = Vec::new();
    parser.for_each_entry(|i, j, v| {
        if (lo..hi).contains(&i) {
            triplets.push(Triplet {
                row: i - lo,
                col: j,
                val: v,
            });
        }
        // A symmetric file stores one triangle; the mirrored entry may land
        // in this block even when the stored one does not.
        if symmetric && i != j && (lo..hi).contains(&j) {
            triplets.push(Triplet {
                row: j - lo,
                col: i,
                val: v,
            });
        }
    })?;
    Ok(Csr::from_triplets(hi - lo, ncols, &triplets))
}

/// Write a CSR matrix as a `matrix coordinate real general` Matrix Market
/// file.
pub fn write_matrix_market(path: &Path, a: &Csr) -> Result<(), MmError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by the two-stage GMRES reproduction")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            writeln!(w, "{} {} {:.17e}", i + 1, c + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::laplace2d_5pt;
    use std::io::Cursor;

    #[test]
    fn parses_general_real_file() {
        let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 4\n1 1 2.0\n2 2 3.0\n3 3 4.0\n1 3 -1.0\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.to_dense()[(0, 2)], -1.0);
    }

    #[test]
    fn symmetric_files_are_expanded() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 -1.0\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.to_dense()[(0, 1)], -1.0);
        assert_eq!(a.to_dense()[(1, 0)], -1.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn pattern_files_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.to_dense()[(0, 1)], 1.0);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(read_matrix_market_from(Cursor::new("not a header\n1 1 0\n")).is_err());
        assert!(read_matrix_market_from(Cursor::new(
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n"
        ))
        .is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_matrix_market_from(Cursor::new(short)).unwrap_err();
        assert!(err.to_string().contains("expected 2 entries"));
    }

    #[test]
    fn rejects_out_of_bounds_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market_from(Cursor::new(text)).is_err());
    }

    #[test]
    fn info_reports_header_without_reading_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n% c\n5 5 7\n";
        let info = read_matrix_market_info_from(Cursor::new(text)).unwrap();
        assert_eq!(info.nrows, 5);
        assert_eq!(info.ncols, 5);
        assert_eq!(info.stored_entries, 7);
        assert_eq!(info.field, "real");
        assert!(info.is_symmetric());
    }

    #[test]
    fn row_block_matches_full_read_row_block() {
        let a = laplace2d_5pt(6, 5);
        let mut text = format!(
            "%%MatrixMarket matrix coordinate real general\n{} {} {}\n",
            a.nrows(),
            a.ncols(),
            a.nnz()
        );
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                text.push_str(&format!("{} {} {v:.17e}\n", i + 1, c + 1));
            }
        }
        for (lo, hi) in [(0usize, 30usize), (7, 19), (12, 12), (29, 30)] {
            let block = read_matrix_market_row_block_from(Cursor::new(&text), lo..hi).unwrap();
            assert_eq!(block, a.row_block(lo, hi), "block {lo}..{hi}");
        }
    }

    #[test]
    fn symmetric_row_block_gets_mirrored_entries() {
        // Only the lower triangle is stored; the block owning row 0 must
        // still see the (0, 1) entry.
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 -1.0\n3 3 4.0\n";
        let block = read_matrix_market_row_block_from(Cursor::new(text), 0..1).unwrap();
        assert_eq!(block.nrows(), 1);
        let (cols, vals) = block.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, -1.0]);
    }

    #[test]
    fn row_block_out_of_bounds_is_an_error() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n";
        assert!(read_matrix_market_row_block_from(Cursor::new(text), 0..3).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let a = laplace2d_5pt(5, 4);
        let dir = std::env::temp_dir().join("two_stage_gmres_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("laplace.mtx");
        write_matrix_market(&path, &a).unwrap();
        let b = read_matrix_market(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }
}
