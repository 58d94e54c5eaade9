//! 1D block-row partitioning.
//!
//! The paper distributes matrices and vectors "among MPI processes in 1D
//! block row format".  This module computes the contiguous row ranges owned
//! by each rank, with nearly equal row counts per rank.

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

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        block_row_partition(10, 0);
    }
}
