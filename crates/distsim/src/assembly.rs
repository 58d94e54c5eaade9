//! Streamed per-rank matrix assembly: the halo-exchange planner and the
//! two passes that turn a rank's rows into its operator, shared by every
//! [`DistCsr`](crate::DistCsr) constructor.
//!
//! The replicated construction path (`DistCsr::from_global`) needs the full
//! matrix on every rank — `O(nnz)` per rank — which is the top scaling
//! blocker for simulating the paper's problem sizes.  The streamed path
//! inverts the dependency: each rank produces (or reads) only its own row
//! block with *global* column indices, `O(nnz/P)`, and the pieces of the
//! exchange plan that used to be derived from replicated knowledge are
//! negotiated with two all-gathers of halo-sized metadata:
//!
//! 1. every rank locally derives its **ghost list** (the sorted non-owned
//!    global columns its rows reference) and groups it by owning rank —
//!    that is the receive plan, no communication needed;
//! 2. ghost-list lengths are all-gathered (one word per rank), then the
//!    ghost lists themselves, padded to the longest (`O(P·max_halo)` words
//!    — halo-sized, not matrix-sized);
//! 3. each rank scans the other ranks' ghost lists for indices it owns —
//!    that is the send plan, and because every list is sorted the send
//!    order matches the receiver's ghost order by construction.
//!
//! The rows are read twice.  `scan_rows` (pass 1) counts the entries and
//! collects the ghost list; on a rank that owns every column it only asks
//! [`RowSource::row_len`], so a generator produces no value in it.  After
//! the plan, `sliced_local_block` (pass 2) hands the rows to
//! [`SlicedCsr::from_rows`] with the `[owned | ghost]` column map, which
//! puts each row in normal form (sorted, duplicates summed in order, as
//! `Csr::from_triplets` would) and writes it in slice order into arrays of
//! the counted size.  No intermediate `Csr` and no `usize` column array is
//! built.  Both passes are deterministic and independent of how the rows
//! were produced, so a streamed matrix is **bitwise identical** to a
//! replicated one (`tests/assembly_properties.rs` pins this, including SpMV
//! results and `CommStats` counts).

use crate::comm::Communicator;
use sparse::{RowPartition, RowSource, SlicedCsr};
use std::ops::Range;

/// Ghost values to receive from one peer: they land in
/// `ghost[start..start + len]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecvBlock {
    pub(crate) peer: usize,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// Owned `x` entries one peer needs: local indices into this rank's block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SendBlock {
    pub(crate) peer: usize,
    pub(crate) local_indices: Vec<usize>,
}

/// The static halo-exchange plan of one rank: which ghost values to receive
/// from whom, and which owned values to send to whom, for every SpMV on the
/// same matrix.
#[derive(Debug, PartialEq, Eq)]
pub struct HaloPlan {
    /// Global indices of the ghost columns (sorted ascending).
    pub(crate) ghost_globals: Vec<usize>,
    pub(crate) recv: Vec<RecvBlock>,
    pub(crate) send: Vec<SendBlock>,
}

impl HaloPlan {
    /// Number of ghost values this rank imports per SpMV (the analytic
    /// halo-volume term of the performance model, in words).
    pub fn recv_words(&self) -> usize {
        self.ghost_globals.len()
    }

    /// Number of owned values this rank exports per SpMV (counted by
    /// `CommStats` as sent point-to-point words).
    pub fn send_words(&self) -> usize {
        self.send.iter().map(|b| b.local_indices.len()).sum()
    }

    /// Number of peers this rank receives from per SpMV.
    pub fn recv_neighbors(&self) -> usize {
        self.recv.len()
    }

    /// Number of peers this rank sends to per SpMV (the per-rank message
    /// count of the halo exchange).
    #[cfg(test)]
    fn send_neighbors(&self) -> usize {
        self.send.len()
    }

    /// The sorted global indices of the ghost columns.
    pub fn ghost_globals(&self) -> &[usize] {
        &self.ghost_globals
    }
}

/// Derive the halo-exchange plan from this rank's ghost list alone.
///
/// Collective: every rank of `comm` must call it (construction-time
/// synchronization), with `ghost_globals` sorted, duplicate-free and
/// disjoint from the caller's own row range.  Costs **two all-gathers** of
/// halo-sized metadata on multi-rank groups and nothing on a single rank.
pub fn plan_halo_exchange(
    comm: &dyn Communicator,
    part: &RowPartition,
    ghost_globals: Vec<usize>,
) -> HaloPlan {
    let rank = comm.rank();
    let (lo, hi) = part.range(rank);
    // Hard check (O(halo)): the recv plan's block contiguity and the send
    // order both depend on sortedness; violating it silently would scatter
    // ghost values into the wrong slots.
    assert!(
        ghost_globals.windows(2).all(|w| w[0] < w[1]),
        "ghost list must be sorted and duplicate-free"
    );

    // Receive plan: ghosts grouped by owning rank (ghosts are sorted by
    // global index and ownership is monotone, so groups are contiguous).
    let mut recv: Vec<RecvBlock> = Vec::new();
    for (pos, &g) in ghost_globals.iter().enumerate() {
        assert!(
            !(lo..hi).contains(&g),
            "owned column {g} listed as ghost on rank {rank}"
        );
        let owner = part.owner(g);
        match recv.last_mut() {
            Some(block) if block.peer == owner => block.len += 1,
            _ => recv.push(RecvBlock {
                peer: owner,
                start: pos,
                len: 1,
            }),
        }
    }

    if comm.size() == 1 {
        assert!(
            ghost_globals.is_empty(),
            "a single rank owns every column; ghosts are impossible"
        );
        return HaloPlan {
            ghost_globals,
            recv,
            send: Vec::new(),
        };
    }

    // Send plan: all-gather the ghost lists (lengths first, then the lists
    // padded to the longest) and keep the indices this rank owns.  Every
    // list is sorted, so each send block's local indices are ascending —
    // exactly the order the receiving rank's ghost buffer expects.
    let nranks = comm.size();
    let mut counts = vec![0.0f64; nranks];
    comm.allgather(&[ghost_globals.len() as f64], &mut counts);
    let max_ghosts = counts.iter().fold(0.0f64, |a, &b| a.max(b)) as usize;
    let mut send = Vec::new();
    if max_ghosts > 0 {
        let mut send_buf = vec![-1.0f64; max_ghosts];
        for (slot, &g) in send_buf.iter_mut().zip(&ghost_globals) {
            *slot = g as f64;
        }
        let mut recv_buf = vec![0.0f64; max_ghosts * nranks];
        comm.allgather(&send_buf, &mut recv_buf);
        for peer in 0..nranks {
            if peer == rank {
                continue;
            }
            let peer_len = counts[peer] as usize;
            let peer_list = &recv_buf[peer * max_ghosts..peer * max_ghosts + peer_len];
            let needed: Vec<usize> = peer_list
                .iter()
                .map(|&g| g as usize)
                .filter(|&g| (lo..hi).contains(&g))
                .map(|g| g - lo)
                .collect();
            if !needed.is_empty() {
                send.push(SendBlock {
                    peer,
                    local_indices: needed,
                });
            }
        }
    }

    HaloPlan {
        ghost_globals,
        recv,
        send,
    }
}

/// Pass 1 of the assembly: the number of entries rows `rows` of `source`
/// emit, and their ghost list — the sorted, duplicate-free columns outside
/// `owned` they reference.  When `owned` spans every column there can be
/// no ghost, and the count is [`RowSource::row_len`]'s alone.
pub(crate) fn scan_rows<S: RowSource + ?Sized>(
    source: &S,
    rows: Range<usize>,
    owned: Range<usize>,
) -> (usize, Vec<usize>) {
    if owned == (0..source.ncols()) {
        return (rows.map(|i| source.row_len(i)).sum(), Vec::new());
    }
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    let mut ghosts = Vec::new();
    // Sorted and unique up to here: the list is merged down whenever it
    // doubles, so it stays halo-sized.
    let mut unique = 0;
    let mut nnz = 0;
    for i in rows {
        cols.clear();
        vals.clear();
        source.emit_row(i, &mut cols, &mut vals);
        nnz += cols.len();
        ghosts.extend(cols.iter().filter(|c| !owned.contains(c)));
        if ghosts.len() > 2 * unique + 1024 {
            ghosts.sort_unstable();
            ghosts.dedup();
            unique = ghosts.len();
        }
    }
    ghosts.sort_unstable();
    ghosts.dedup();
    (nnz, ghosts)
}

/// Pass 2 of the assembly: rows `rows` of `source` as the rank's operator,
/// global column `c` stored as `c − owned.start` when the rank owns it and
/// as `owned.len()` plus its position in `ghosts` otherwise.  `nnz` is
/// [`scan_rows`]'s count.
pub(crate) fn sliced_local_block<S: RowSource + ?Sized>(
    source: &S,
    rows: Range<usize>,
    owned: Range<usize>,
    nnz: usize,
    ghosts: &[usize],
) -> SlicedCsr {
    let nloc = owned.len();
    let map = |c: usize| {
        let local = if owned.contains(&c) {
            c - owned.start
        } else {
            nloc + ghosts
                .binary_search(&c)
                .expect("ghost column missing from halo list")
        };
        local as u32
    };
    SlicedCsr::from_rows(source, rows, nloc + ghosts.len(), nnz, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialComm;
    use crate::thread::run_ranks;
    use sparse::{block_row_partition, laplace2d_5pt, Csr, Triplet};

    #[test]
    fn serial_plan_is_empty() {
        let part = block_row_partition(10, 1);
        let comm = SerialComm::new();
        let plan = plan_halo_exchange(comm.as_ref(), &part, Vec::new());
        assert_eq!(plan.recv_words(), 0);
        assert_eq!(plan.send_words(), 0);
        assert_eq!(plan.recv_neighbors(), 0);
        assert_eq!(plan.send_neighbors(), 0);
    }

    #[test]
    fn negotiated_send_plan_mirrors_the_recv_plans() {
        // 5-pt Laplacian on a 6x6 grid over 3 ranks: interior rank talks to
        // both neighbours, edge ranks to one.
        let a = laplace2d_5pt(6, 6);
        let part = block_row_partition(a.nrows(), 3);
        let plans = run_ranks(3, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let (_, ghosts) = scan_rows(&a, lo..hi, lo..hi);
            let plan = plan_halo_exchange(comm.as_ref(), &part, ghosts);
            (
                plan.recv_words(),
                plan.send_words(),
                plan.recv_neighbors(),
                plan.send_neighbors(),
            )
        });
        // Each boundary between adjacent ranks exchanges one grid row (6
        // values) each way.
        assert_eq!(plans[0], (6, 6, 1, 1));
        assert_eq!(plans[1], (12, 12, 2, 2));
        assert_eq!(plans[2], (6, 6, 1, 1));
        // Conservation: total words received == total words sent.
        let recv_total: usize = plans.iter().map(|p| p.0).sum();
        let send_total: usize = plans.iter().map(|p| p.1).sum();
        assert_eq!(recv_total, send_total);
    }

    /// Both passes over a local block (global rows `lo..`, global columns),
    /// as `DistCsr::from_partitioned` runs them: the block in row form and
    /// its ghost list.
    fn assemble_block(local: &Csr, lo: usize) -> (Csr, Vec<usize>) {
        let (rows, owned) = (0..local.nrows(), lo..lo + local.nrows());
        let (nnz, ghosts) = scan_rows(local, rows.clone(), owned.clone());
        let sliced = sliced_local_block(local, rows, owned, nnz, &ghosts);
        (sliced.to_csr(), ghosts)
    }

    #[test]
    fn normalize_sorts_rows_and_sums_duplicates() {
        // A 2-row local block (global rows 2..4 of a 6-column matrix) with
        // unsorted columns and a duplicate entry.
        let local = Csr::from_raw(
            2,
            6,
            vec![0, 3, 5],
            vec![5, 2, 0, 3, 3],
            vec![1.0, 2.0, 4.0, 8.0, 16.0],
        );
        let (norm, ghosts) = assemble_block(&local, 2);
        assert_eq!(ghosts, vec![0, 5]);
        assert_eq!(norm.nrows(), 2);
        assert_eq!(norm.ncols(), 4); // 2 owned + 2 ghost columns
        let (c0, v0) = norm.row(0);
        // global 2 -> 0 (owned), global 0 -> 2 (ghost 0), global 5 -> 3.
        assert_eq!(c0, &[0, 2, 3]);
        assert_eq!(v0, &[2.0, 4.0, 1.0]);
        let (c1, v1) = norm.row(1);
        assert_eq!(c1, &[1]);
        assert_eq!(v1, &[24.0]); // duplicates summed
    }

    #[test]
    #[should_panic(expected = "listed as ghost")]
    fn owned_column_in_ghost_list_is_rejected() {
        let part = block_row_partition(4, 1);
        let comm = SerialComm::new();
        plan_halo_exchange(comm.as_ref(), &part, vec![1]);
    }

    /// The replicated path's normalization: remap every entry of `local`
    /// (global rows `lo..`) as a triplet and let `Csr::from_triplets` sort
    /// and merge.
    fn from_triplets_remap(local: &Csr, lo: usize, ghosts: &[usize]) -> Csr {
        let nloc = local.nrows();
        let mut triplets = Vec::new();
        for row in 0..nloc {
            let (cols, vals) = local.row(row);
            for (&c, &val) in cols.iter().zip(vals) {
                let col = if (lo..lo + nloc).contains(&c) {
                    c - lo
                } else {
                    nloc + ghosts.binary_search(&c).unwrap()
                };
                triplets.push(Triplet { row, col, val });
            }
        }
        Csr::from_triplets(nloc, nloc + ghosts.len(), &triplets)
    }

    #[test]
    fn normalize_matches_from_triplets_remap() {
        // The replicated path's normalization (triplet remap + from_triplets)
        // and the streamed path's must produce identical storage.
        let a = laplace2d_5pt(5, 5);
        let (lo, hi) = (10, 15);
        let local = a.row_block(lo, hi);
        let (streamed, ghosts) = assemble_block(&local, lo);
        assert_eq!(streamed, from_triplets_remap(&local, lo, &ghosts));
    }

    #[test]
    fn rows_kept_as_they_are_match_rows_that_are_sorted_and_merged() {
        // Global rows 4..8 of a 12-column matrix.  Rows 0 and 3 stay
        // strictly increasing under the remap and are kept as they are; row
        // 1 is sorted by global column but its ghost 1 precedes the owned 5,
        // so the remap unsorts it; row 2 holds column 6 twice — and the
        // merge makes row 3 move down by one entry.
        let local = Csr::from_raw(
            4,
            12,
            vec![0, 3, 6, 9, 12],
            vec![4, 6, 9, 1, 5, 10, 6, 6, 7, 5, 7, 11],
            (1..=12).map(f64::from).collect(),
        );
        let (norm, ghosts) = assemble_block(&local, 4);
        assert_eq!(ghosts, vec![1, 9, 10, 11]);
        assert_eq!(norm, from_triplets_remap(&local, 4, &ghosts));
        assert_eq!(norm.row(0), (&[0, 2, 5][..], &[1.0, 2.0, 3.0][..]));
        assert_eq!(norm.row(1), (&[1, 4, 6][..], &[5.0, 4.0, 6.0][..]));
        assert_eq!(norm.row(2), (&[2, 3][..], &[15.0, 9.0][..]));
        assert_eq!(norm.row(3), (&[1, 3, 7][..], &[10.0, 11.0, 12.0][..]));
    }
}
