//! 1D block-row partitioning and halo analysis.
//!
//! The paper distributes matrices and vectors "among MPI processes in 1D
//! block row format".  This module computes the contiguous row ranges owned
//! by each rank (balanced either by rows or by nonzeros — the latter is what
//! a graph partitioner like ParMETIS effectively achieves for the stencil
//! and stencil-like matrices used in the evaluation) and, for a given local
//! row block, the set of non-owned columns whose values must be received
//! from neighbouring ranks before a local SpMV (the "halo"/ghost exchange).

use crate::csr::Csr;
use crate::rows::RowSource;

/// A 1D block-row partition of `n` rows over `nranks` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// `offsets[r]..offsets[r+1]` is the row range owned by rank `r`.
    pub offsets: Vec<usize>,
}

impl RowPartition {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of rows.
    pub fn nrows(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Row range `[start, end)` owned by rank `r`.
    pub fn range(&self, r: usize) -> (usize, usize) {
        (self.offsets[r], self.offsets[r + 1])
    }

    /// Number of rows owned by rank `r`.
    pub fn local_rows(&self, r: usize) -> usize {
        self.offsets[r + 1] - self.offsets[r]
    }

    /// The rank that owns global row `i`.
    ///
    /// Well-defined even when some ranks own empty ranges (repeated
    /// offsets): the returned rank's range always *contains* `i` —
    /// `binary_search` would be ambiguous about which of the equal offsets
    /// it lands on, which matters because the halo planner must never
    /// attribute a ghost column to a rank that owns nothing.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.nrows(), "row {i} out of range");
        // Index of the last offset ≤ i: that rank's range is non-empty at i.
        self.offsets.partition_point(|&o| o <= i) - 1
    }
}

/// Partition `n` rows over `nranks` ranks into contiguous blocks of nearly
/// equal row counts.
pub fn block_row_partition(n: usize, nranks: usize) -> RowPartition {
    assert!(nranks >= 1, "need at least one rank");
    let ranges = parkit::chunk_ranges(n, nranks);
    let mut offsets = Vec::with_capacity(nranks + 1);
    offsets.push(0);
    let mut covered = 0;
    for r in &ranges {
        covered = r.end;
        offsets.push(r.end);
    }
    // `chunk_ranges` never produces more chunks than rows; pad empty ranks.
    while offsets.len() < nranks + 1 {
        offsets.push(covered);
    }
    RowPartition { offsets }
}

/// Partition rows so each rank owns (approximately) the same number of
/// nonzeros; this is the load balance a graph partitioner would deliver for
/// the matrices in the paper's evaluation.
pub fn nnz_balanced_partition(a: &Csr, nranks: usize) -> RowPartition {
    // The per-row counts of a CSR are just row-pointer differences; the
    // partitioning logic is shared with the streamed path.
    let counts: Vec<usize> = (0..a.nrows())
        .map(|i| a.rowptr()[i + 1] - a.rowptr()[i])
        .collect();
    nnz_balanced_partition_from_counts(&counts, nranks)
}

/// One cheap streaming pass over a [`RowSource`]: the number of nonzeros of
/// every row, without materializing any of them beyond a reused scratch
/// buffer.  Peak memory is `O(n)` for the counts plus `O(max row nnz)`
/// scratch — this is the counting pass that lets a distributed solve derive
/// an nnz-balanced [`RowPartition`] *before* any rank assembles its block
/// (`distsim::DistCsr::from_row_source` then streams exactly the rows the
/// derived partition assigns it).
pub fn nnz_counting_pass(source: &impl RowSource) -> Vec<usize> {
    let n = source.nrows();
    let mut counts = Vec::with_capacity(n);
    let mut scratch_c = Vec::new();
    let mut scratch_v = Vec::new();
    for i in 0..n {
        scratch_c.clear();
        scratch_v.clear();
        source.emit_row(i, &mut scratch_c, &mut scratch_v);
        counts.push(scratch_c.len());
    }
    counts
}

/// Build an nnz-balanced contiguous block-row partition from per-row
/// nonzero counts (as produced by [`nnz_counting_pass`] or a CSR's row
/// pointers): blocks close when the running count crosses the next
/// multiple of `total/nranks`.
pub fn nnz_balanced_partition_from_counts(counts: &[usize], nranks: usize) -> RowPartition {
    assert!(nranks >= 1, "need at least one rank");
    let n = counts.len();
    let total: usize = counts.iter().sum();
    let target = (total as f64 / nranks as f64).max(1.0);
    let mut offsets = vec![0usize];
    let mut acc = 0usize;
    let mut next_target = target;
    for (i, &c) in counts.iter().enumerate() {
        acc += c;
        // Close the block when the running nnz crosses the next target, but
        // never create more than nranks blocks.
        if (acc as f64) >= next_target && offsets.len() < nranks {
            offsets.push(i + 1);
            next_target += target;
        }
    }
    while offsets.len() < nranks + 1 {
        offsets.push(n);
    }
    RowPartition { offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{laplace2d_5pt, laplace3d_7pt};

    #[test]
    fn block_partition_covers_all_rows() {
        let p = block_row_partition(103, 8);
        assert_eq!(p.nranks(), 8);
        assert_eq!(p.nrows(), 103);
        let mut total = 0;
        for r in 0..8 {
            total += p.local_rows(r);
        }
        assert_eq!(total, 103);
    }

    #[test]
    fn more_ranks_than_rows_leaves_empty_ranks() {
        let p = block_row_partition(3, 5);
        assert_eq!(p.nranks(), 5);
        assert_eq!(p.nrows(), 3);
        assert_eq!(p.local_rows(4), 0);
    }

    #[test]
    fn owner_is_consistent_with_ranges() {
        let p = block_row_partition(100, 7);
        for r in 0..7 {
            let (lo, hi) = p.range(r);
            for i in lo..hi {
                assert_eq!(p.owner(i), r, "row {i}");
            }
        }
    }

    #[test]
    fn owner_skips_empty_middle_ranks() {
        // Rank 1 owns nothing (offsets repeat): every row must be
        // attributed to a rank whose range actually contains it.
        let p = RowPartition {
            offsets: vec![0, 2, 2, 4],
        };
        for i in 0..4 {
            let r = p.owner(i);
            let (lo, hi) = p.range(r);
            assert!(
                (lo..hi).contains(&i),
                "row {i} attributed to empty rank {r}"
            );
        }
        assert_eq!(p.owner(2), 2);
        // Trailing empty ranks as produced by block_row_partition.
        let q = block_row_partition(3, 5);
        for i in 0..3 {
            let (lo, hi) = q.range(q.owner(i));
            assert!((lo..hi).contains(&i));
        }
    }

    #[test]
    fn nnz_balanced_partition_balances_within_tolerance() {
        let a = laplace3d_7pt(12, 12, 12);
        let p = nnz_balanced_partition(&a, 6);
        assert_eq!(p.nrows(), a.nrows());
        let mut sizes = Vec::new();
        for r in 0..6 {
            let (lo, hi) = p.range(r);
            let nnz = a.rowptr()[hi] - a.rowptr()[lo];
            sizes.push(nnz);
        }
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 1.5, "imbalance {sizes:?}");
    }

    #[test]
    fn counting_pass_matches_csr_row_pointers() {
        let a = laplace2d_5pt(9, 7);
        let counts = nnz_counting_pass(&a);
        assert_eq!(counts.len(), a.nrows());
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, a.rowptr()[i + 1] - a.rowptr()[i]);
        }
        // And the partition derived from the streamed counts is identical
        // to the one derived from the assembled matrix.
        for nranks in [1, 3, 8] {
            assert_eq!(
                nnz_balanced_partition_from_counts(&counts, nranks),
                nnz_balanced_partition(&a, nranks)
            );
        }
    }

    #[test]
    fn streamed_nnz_partition_balances_the_suitelike_surrogate() {
        // The ROADMAP item: derive an nnz-balanced partition from one cheap
        // counting pass over a RowSource (no global assembly), and keep the
        // per-rank nnz imbalance within 1.2x on the SuiteSparse surrogate.
        let spec = crate::suitelike::SUITE_SPARSE_SET
            .iter()
            .find(|s| s.name == "atmosmodl")
            .unwrap();
        let rows = crate::suitelike::SuiteLikeRows::new(spec, Some(4_000), 7);
        let counts = nnz_counting_pass(&rows);
        let total: usize = counts.iter().sum();
        for nranks in [2, 4, 8] {
            let p = nnz_balanced_partition_from_counts(&counts, nranks);
            assert_eq!(p.nranks(), nranks);
            assert_eq!(p.nrows(), rows.nrows());
            let mean = total as f64 / nranks as f64;
            for r in 0..nranks {
                let (lo, hi) = p.range(r);
                let nnz: usize = counts[lo..hi].iter().sum();
                assert!(
                    nnz as f64 <= 1.2 * mean,
                    "rank {r}/{nranks}: nnz {nnz} vs mean {mean:.0} (> 1.2x)"
                );
            }
        }
    }

    #[test]
    fn counting_pass_handles_empty_rows_and_single_rank() {
        use crate::csr::Triplet;
        let a = Csr::from_triplets(
            5,
            5,
            &[
                Triplet {
                    row: 1,
                    col: 0,
                    val: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 2,
                    val: 2.0,
                },
                Triplet {
                    row: 4,
                    col: 4,
                    val: 3.0,
                },
            ],
        );
        assert_eq!(nnz_counting_pass(&a), vec![0, 2, 0, 0, 1]);
        let p = nnz_balanced_partition_from_counts(&nnz_counting_pass(&a), 1);
        assert_eq!(p.offsets, vec![0, 5]);
        // All-empty matrix still partitions.
        let p0 = nnz_balanced_partition_from_counts(&[0, 0, 0], 2);
        assert_eq!(p0.nrows(), 3);
        assert_eq!(p0.nranks(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        block_row_partition(10, 0);
    }
}
