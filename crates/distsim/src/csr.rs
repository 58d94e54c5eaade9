//! The 1D block-row distributed CSR matrix with halo-exchange SpMV.
//!
//! The paper distributes matrices "among MPI processes in 1D block row
//! format"; before each local SpMV a rank must receive the ghost entries of
//! `x` its off-diagonal couplings reference (the neighborhood exchange of
//! the matrix-powers kernel).
//!
//! Construction is **streamed**: a rank supplies only its own row block —
//! from a [`RowSource`] generator ([`DistCsr::from_row_source`]) or an
//! already-assembled local block with global columns
//! ([`DistCsr::from_partitioned`], e.g. from
//! `sparse::mm::read_matrix_market_row_block`) — so peak per-rank
//! memory is `O(nnz/P + halo)` instead of `O(nnz)`
//! (`crates/distsim/tests/streamed_assembly_memory.rs` enforces this with
//! an allocation-tracking harness).  The halo/recv/send plan is negotiated
//! by the shared planner in [`crate::assembly`];
//! [`DistCsr::from_global`] remains as a thin wrapper that streams the rows
//! of a replicated matrix through the same path, so every replicated call
//! site exercises the streamed code and the two constructions are bitwise
//! identical.  Every constructor reads its rows in the two passes of
//! [`crate::assembly`] and writes them straight into the operator format:
//! no intermediate `Csr` is built on any path.  [`DistCsr::spmv`] executes
//! the plan with point-to-point messages (counted in
//! [`CommStats`](crate::CommStats)) and then runs the purely local SpMV.
//! [`DistCsr::spmm`] does the same for a block of `k` vectors: one halo
//! message per peer carrying all `k` columns' ghosts, then one pass of the
//! local product over the block.  That is the matrix-powers step of a
//! block of right-hand sides.
//!
//! The normalized local block is held in one form only, the
//! slice-interleaved [`SlicedCsr`] with 32-bit column indices (12 bytes per
//! nonzero instead of CSR's 16, four rows in flight per stream); its
//! product is bit for bit `Csr::spmv`'s, so nothing downstream can tell.

use crate::assembly::{plan_halo_exchange, scan_rows, sliced_local_block, HaloPlan};
use crate::comm::Communicator;
use sparse::{Csr, RowPartition, RowSource, SlicedCsr};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Buffers of the halo exchange, sized by the first product and reused by
/// every later one.
#[derive(Debug, Default)]
struct HaloScratch {
    /// Each column of `x` extended by its ghost values: `[owned | ghost]`.
    x_ext: Vec<f64>,
    /// The owned values one peer needs, packed for sending.
    payload: Vec<f64>,
}

/// A CSR matrix distributed over a communicator in 1D block-row layout.
#[derive(Debug)]
pub struct DistCsr {
    comm: Arc<dyn Communicator>,
    global_rows: usize,
    row_offset: usize,
    /// Local row block; columns `0..local_rows` are owned, columns
    /// `local_rows..` are ghosts in the order of `plan.ghost_globals`.
    local: SlicedCsr,
    plan: HaloPlan,
    /// Untouched on a single rank, which multiplies `x` where it lies.
    scratch: Mutex<HaloScratch>,
}

impl DistCsr {
    /// Build the distributed matrix from this rank's **local row block**
    /// (rows `part.range(comm.rank())`, columns still global), e.g. from
    /// `sparse::mm::read_matrix_market_row_block`.
    ///
    /// Collective: every rank must call it (the halo plan is negotiated
    /// with two halo-sized all-gathers; see [`crate::assembly`]).  Rows
    /// with unsorted or duplicate columns are normalized exactly as
    /// `Csr::from_triplets` would.
    pub fn from_partitioned(
        comm: Arc<dyn Communicator>,
        part: &RowPartition,
        local_block: Csr,
    ) -> Self {
        assert_eq!(
            local_block.ncols(),
            part.nrows(),
            "the local block must carry global column indices (ncols = {})",
            part.nrows()
        );
        let rows = 0..local_block.nrows();
        Self::assemble(comm, part, &local_block, rows)
    }

    /// Build the distributed matrix by streaming this rank's rows from a
    /// [`RowSource`] — a stencil/surrogate generator or any operator that
    /// can produce rows on demand.  The rows are read in the two passes of
    /// [`crate::assembly`]; the global matrix is never materialized
    /// anywhere.
    pub fn from_row_source<S: RowSource>(
        comm: Arc<dyn Communicator>,
        part: &RowPartition,
        source: &S,
    ) -> Self {
        let n = part.nrows();
        assert_eq!(source.nrows(), n, "partition does not cover the matrix");
        assert_eq!(
            source.ncols(),
            n,
            "1D block-row distribution needs a square operator"
        );
        let (lo, hi) = part.range(comm.rank());
        Self::assemble(comm, part, source, lo..hi)
    }

    /// The one assembly path: rows `rows` of `source` are this rank's block
    /// (global rows `part.range(comm.rank())`, global columns).  Pass 1
    /// counts them and finds the ghosts, the plan is negotiated, pass 2
    /// lays them out.
    fn assemble<S: RowSource + ?Sized>(
        comm: Arc<dyn Communicator>,
        part: &RowPartition,
        source: &S,
        rows: Range<usize>,
    ) -> Self {
        assert_eq!(
            part.nranks(),
            comm.size(),
            "partition has {} ranks but the communicator has {}",
            part.nranks(),
            comm.size()
        );
        let rank = comm.rank();
        let (lo, hi) = part.range(rank);
        assert_eq!(
            rows.len(),
            hi - lo,
            "rank {rank} owns rows {lo}..{hi} but the local block has {} rows",
            rows.len()
        );
        let (nnz, ghosts) = scan_rows(source, rows.clone(), lo..hi);
        let plan = plan_halo_exchange(comm.as_ref(), part, ghosts);
        let local = sliced_local_block(source, rows, lo..hi, nnz, plan.ghost_globals());
        Self {
            comm,
            global_rows: part.nrows(),
            row_offset: lo,
            local,
            plan,
            scratch: Mutex::default(),
        }
    }

    /// Build the distributed matrix from the replicated global matrix `a`
    /// and the row partition `part` (one entry per rank of `comm`).
    ///
    /// Thin wrapper over [`DistCsr::from_row_source`]: the replicated
    /// matrix acts as the row provider for this rank's block, so every
    /// call site exercises the streamed assembly path and produces exactly
    /// the storage and exchange plan a streamed construction would.
    pub fn from_global(comm: Arc<dyn Communicator>, a: &Csr, part: &RowPartition) -> Self {
        assert_eq!(
            part.nrows(),
            a.nrows(),
            "partition does not cover the matrix"
        );
        Self::from_row_source(comm, part, a)
    }

    /// The communicator this matrix lives on.
    pub fn comm(&self) -> &Arc<dyn Communicator> {
        &self.comm
    }

    /// Global row count.
    pub fn global_rows(&self) -> usize {
        self.global_rows
    }

    /// First global row owned by this rank.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// The local row block (columns `0..local_rows()` owned, then ghosts)
    /// in its operator format; [`SlicedCsr::to_csr`] gives row access.
    pub fn local_matrix(&self) -> &SlicedCsr {
        &self.local
    }

    /// Rows owned by this rank.
    pub fn local_rows(&self) -> usize {
        self.local.nrows()
    }

    /// The halo-exchange plan (ghost list, per-peer send/receive volumes) —
    /// what the performance model's message-volume terms are validated
    /// against.
    pub fn halo_plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// Distributed `y = A·x` on the local blocks: halo exchange
    /// (point-to-point, counted) followed by the local SpMV.  A halo message
    /// a [`GuardedComm`](crate::GuardedComm) writes off poisons its ghost
    /// values with NaN, which the next Gram reduce sees as a breakdown.
    pub fn spmv(&self, x_local: &[f64], y_local: &mut [f64]) {
        self.spmm(1, x_local, y_local, None);
    }

    /// Distributed `Y = A·X` for a block of `k` vectors, or
    /// `Y = A·X − θ·U` with `shift = Some((θ, U))`: `x_local`, `y_local`
    /// and `U` are the `nloc × k` local blocks, column-major.  Column `j` is
    /// bit for bit [`spmv`](Self::spmv) of column `j` (then `y −= θ·u`); see
    /// [`SlicedCsr::spmm`].  The halo exchange sends one message per peer
    /// carrying the `k` columns' values one after the other, so `k`
    /// products cost the messages of one and the words of `k`.  A message
    /// a [`GuardedComm`](crate::GuardedComm) writes off poisons the ghosts
    /// of every column it carried.
    pub fn spmm(
        &self,
        k: usize,
        x_local: &[f64],
        y_local: &mut [f64],
        shift: Option<(f64, &[f64])>,
    ) {
        let nloc = self.local.nrows();
        assert_eq!(x_local.len(), k * nloc, "spmm: x length mismatch");
        assert_eq!(y_local.len(), k * nloc, "spmm: y length mismatch");
        if self.comm.size() == 1 {
            let _span = trace::span("spmv", "local", &[("rows", nloc as u64)]);
            self.local.spmm(k, x_local, y_local, shift);
            return;
        }
        let comm = self.comm.as_ref();
        let mut scratch = self.scratch.lock().expect("halo scratch poisoned");
        let HaloScratch { x_ext, payload } = &mut *scratch;
        // Post all sends first (mailboxes are non-blocking), then receive.
        {
            let _span = trace::span(
                "spmv",
                "halo_pack_send",
                &[("peers", self.plan.send.len() as u64)],
            );
            for block in &self.plan.send {
                payload.clear();
                for q in 0..k {
                    let x = &x_local[q * nloc..(q + 1) * nloc];
                    payload.extend(block.local_indices.iter().map(|&i| x[i]));
                }
                comm.send(block.peer, payload);
            }
        }
        let ncols = self.local.ncols();
        x_ext.resize(k * ncols, 0.0);
        for q in 0..k {
            x_ext[q * ncols..q * ncols + nloc].copy_from_slice(&x_local[q * nloc..(q + 1) * nloc]);
        }
        {
            let _span = trace::span(
                "spmv",
                "halo_wait",
                &[("peers", self.plan.recv.len() as u64)],
            );
            for block in &self.plan.recv {
                let data = comm.recv_halo(block.peer, k * block.len);
                for q in 0..k {
                    let at = q * ncols + nloc + block.start;
                    let ghosts = &mut x_ext[at..at + block.len];
                    match &data {
                        Some(data) => {
                            ghosts.copy_from_slice(&data[q * block.len..(q + 1) * block.len])
                        }
                        None => ghosts.fill(f64::NAN),
                    }
                }
            }
        }
        let _span = trace::span("spmv", "local", &[("rows", nloc as u64)]);
        self.local.spmm(k, x_ext, y_local, shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialComm;
    use crate::thread::run_ranks;
    use sparse::{block_row_partition, laplace2d_5pt, laplace2d_9pt, Laplace2d9ptRows};

    #[test]
    fn serial_dist_csr_is_the_global_matrix() {
        let a = laplace2d_9pt(8, 8);
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(SerialComm::new(), &a, &part);
        assert_eq!(dist.global_rows(), a.nrows());
        assert_eq!(dist.row_offset(), 0);
        assert_eq!(
            dist.local_matrix().to_csr(),
            a,
            "serial local block is the matrix"
        );
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y = vec![0.0; a.nrows()];
        dist.spmv(&x, &mut y);
        assert_eq!(y, a.spmv_alloc(&x));
    }

    #[test]
    fn distributed_spmv_matches_serial_on_laplace2d_9pt() {
        let a = laplace2d_9pt(13, 11);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 19) as f64) * 0.25 - 1.0).collect();
        let y_ref = a.spmv_alloc(&x);
        for nranks in [2usize, 3, 5] {
            let part = block_row_partition(n, nranks);
            let pieces = run_ranks(nranks, |comm| {
                let rank = comm.rank();
                let (lo, hi) = part.range(rank);
                let dist = DistCsr::from_global(comm, &a, &part);
                let mut y = vec![0.0; hi - lo];
                dist.spmv(&x[lo..hi], &mut y);
                (lo, y)
            });
            let mut y = vec![0.0; n];
            for (lo, block) in &pieces {
                y[*lo..lo + block.len()].copy_from_slice(block);
            }
            for (p, q) in y.iter().zip(&y_ref) {
                assert!((p - q).abs() < 1e-13, "nranks {nranks}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn streamed_construction_from_a_generator_matches_from_global() {
        // The headline property: a rank building its block straight from
        // the stencil row source (never holding the global matrix) gets
        // bitwise the same local matrix, ghosts and SpMV as the replicated
        // path.
        let (nx, ny) = (12, 9);
        let source = Laplace2d9ptRows { nx, ny };
        let a = laplace2d_9pt(nx, ny);
        let n = a.nrows();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 11 % 23) as f64) * 0.17 - 1.5)
            .collect();
        for nranks in [1usize, 3, 4] {
            let part = block_row_partition(n, nranks);
            let pairs = run_ranks(nranks, |comm| {
                let (lo, hi) = part.range(comm.rank());
                let replicated = DistCsr::from_global(comm.clone(), &a, &part);
                let streamed = DistCsr::from_row_source(comm, &part, &source);
                assert_eq!(
                    streamed.local_matrix(),
                    replicated.local_matrix(),
                    "local blocks must be bitwise identical"
                );
                assert_eq!(streamed.halo_plan(), replicated.halo_plan());
                let mut y_s = vec![0.0; hi - lo];
                let mut y_r = vec![0.0; hi - lo];
                streamed.spmv(&x[lo..hi], &mut y_s);
                replicated.spmv(&x[lo..hi], &mut y_r);
                (y_s, y_r)
            });
            for (y_s, y_r) in pairs {
                assert_eq!(y_s, y_r, "nranks {nranks}: SpMV must be bitwise equal");
            }
        }
    }

    #[test]
    fn from_partitioned_accepts_a_preassembled_block() {
        let a = laplace2d_5pt(8, 8);
        let n = a.nrows();
        let part = block_row_partition(n, 4);
        let results = run_ranks(4, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let block = a.row_block(lo, hi); // global columns
            let dist = DistCsr::from_partitioned(comm.clone(), &part, block);
            let reference = DistCsr::from_global(comm, &a, &part);
            dist.local_matrix() == reference.local_matrix()
                && dist.halo_plan() == reference.halo_plan()
        });
        assert!(results.into_iter().all(|same| same));
    }

    #[test]
    fn halo_exchange_message_counts_match_the_stencil_neighborhood() {
        // 5-point stencil, block rows: interior ranks talk to exactly the
        // two neighboring ranks, one message each way per SpMV.
        let a = laplace2d_5pt(12, 12);
        let n = a.nrows();
        let nranks = 4;
        let part = block_row_partition(n, nranks);
        let stats = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let dist = DistCsr::from_global(comm.clone(), &a, &part);
            let x = vec![1.0; hi - lo];
            let mut y = vec![0.0; hi - lo];
            let before = comm.stats().snapshot();
            dist.spmv(&x, &mut y);
            (rank, comm.stats().snapshot().since(&before))
        });
        for (rank, delta) in stats {
            let neighbors = if rank == 0 || rank == nranks - 1 {
                1
            } else {
                2
            };
            assert_eq!(delta.p2p_messages, neighbors, "rank {rank}");
            assert_eq!(delta.allreduces, 0, "SpMV must not use global reductions");
            // One grid row (12 values) exchanged per neighbor.
            assert_eq!(delta.p2p_words, neighbors * 12, "rank {rank}");
        }
    }

    #[test]
    fn repeated_spmv_reuses_the_plan() {
        let a = laplace2d_5pt(10, 10);
        let n = a.nrows();
        let part = block_row_partition(n, 2);
        let results = run_ranks(2, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let dist = DistCsr::from_global(comm, &a, &part);
            let mut x: Vec<f64> = (lo..hi).map(|i| i as f64).collect();
            let mut y = vec![0.0; hi - lo];
            // Power-iteration style repeated products.
            for _ in 0..3 {
                dist.spmv(&x, &mut y);
                std::mem::swap(&mut x, &mut y);
            }
            (lo, x)
        });
        // Serial reference.
        let mut x_ref: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for _ in 0..3 {
            x_ref = a.spmv_alloc(&x_ref);
        }
        for (lo, block) in &results {
            for (k, v) in block.iter().enumerate() {
                assert!((v - x_ref[lo + k]).abs() < 1e-10 * x_ref[lo + k].abs().max(1.0));
            }
        }
    }
}
