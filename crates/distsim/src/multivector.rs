//! The 1D block-row distributed multivector (the Krylov basis).
//!
//! Each rank owns a contiguous block of rows of a global `n × c` matrix,
//! stored as a local column-major [`dense::Matrix`].  The fused kernels the
//! block orthogonalization schemes call are implemented here, each
//! documenting its global-reduction count — [`proj_and_gram`] is *the*
//! single-reduce fusion (projection coefficients and Gram matrix in one
//! all-reduce) that BCGS-PIP and the two-stage scheme are built on, and
//! [`update_and_gram`] is its dual for the second synchronization of the
//! two-sync reorthogonalization schemes (vector update fused with the next
//! panel's inner products, still one all-reduce and one pass over the
//! panel).
//!
//! [`proj_and_gram`]: DistMultiVector::proj_and_gram
//! [`update_and_gram`]: DistMultiVector::update_and_gram

use crate::comm::Communicator;
use crate::guard::Screen;
use crate::sketch::SketchOp;
use dense::{MatView, Matrix};
use std::ops::Range;
use std::sync::Arc;

/// A dense multivector distributed over a communicator in 1D block-row
/// layout.
#[derive(Debug, Clone)]
pub struct DistMultiVector {
    comm: Arc<dyn Communicator>,
    global_rows: usize,
    row_offset: usize,
    local: Matrix,
}

impl DistMultiVector {
    /// Distribute `full` (the same global matrix passed on every rank) in
    /// block-row layout: rank `r` keeps the rows
    /// [`sparse::block_row_partition`]`(nrows, size)` gives it.  On a
    /// single rank the local block is the whole matrix.
    pub fn from_matrix(comm: Arc<dyn Communicator>, full: Matrix) -> Self {
        let n = full.nrows();
        if comm.size() == 1 {
            return Self {
                comm,
                global_rows: n,
                row_offset: 0,
                local: full,
            };
        }
        let (lo, hi) = sparse::block_row_partition(n, comm.size()).range(comm.rank());
        let mut local = Matrix::zeros(hi - lo, full.ncols());
        for j in 0..full.ncols() {
            local.col_mut(j).copy_from_slice(&full.col(j)[lo..hi]);
        }
        Self {
            comm,
            global_rows: n,
            row_offset: lo,
            local,
        }
    }

    /// An all-zero distributed multivector from an explicit layout
    /// (`local_rows` rows starting at global row `row_offset` on this rank).
    pub fn zeros(
        comm: Arc<dyn Communicator>,
        global_rows: usize,
        local_rows: usize,
        row_offset: usize,
        cols: usize,
    ) -> Self {
        assert!(
            row_offset + local_rows <= global_rows,
            "local block [{row_offset}, {}) exceeds {global_rows} global rows",
            row_offset + local_rows
        );
        Self {
            comm,
            global_rows,
            row_offset,
            local: Matrix::zeros(local_rows, cols),
        }
    }

    /// The communicator this multivector lives on.
    pub fn comm(&self) -> &Arc<dyn Communicator> {
        &self.comm
    }

    /// Global row count.
    pub fn global_rows(&self) -> usize {
        self.global_rows
    }

    /// Rows owned by this rank.
    pub fn local_rows(&self) -> usize {
        self.local.nrows()
    }

    /// First global row owned by this rank.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Number of columns (replicated on every rank).
    pub fn local_cols_count(&self) -> usize {
        self.local.ncols()
    }

    /// The local row block.
    pub fn local(&self) -> &Matrix {
        &self.local
    }

    /// Mutable access to the local row block.
    pub fn local_mut(&mut self) -> &mut Matrix {
        &mut self.local
    }

    /// Read-only view of the local rows of columns `cols`.
    pub fn local_cols(&self, cols: Range<usize>) -> MatView<'_> {
        self.local.cols(cols)
    }

    /// Gram matrix `G = VᵀV` of the global columns `cols`.
    /// **1 global reduce** of `s²` words.
    pub fn gram(&self, cols: Range<usize>) -> Matrix {
        let mut g = dense::gram(&self.local.cols(cols));
        let s = g.nrows();
        self.comm
            .allreduce_screened(g.data_mut(), Screen::Gram { offset: 0, s });
        g
    }

    /// Projection coefficients `P = Q_prevᵀ·V_new` of the global columns.
    /// **1 global reduce** of `k·s` words.
    pub fn proj(&self, prev: Range<usize>, new: Range<usize>) -> Matrix {
        assert!(prev.end <= new.start, "prev must precede new");
        let mut p = dense::gemm_tn(&self.local.cols(prev), &self.local.cols(new));
        self.comm.allreduce_sum(p.data_mut());
        p
    }

    /// Fused `P = Q_prevᵀ·V_new` **and** `G = V_newᵀ·V_new` with a
    /// **single global reduce** of `k·s + s²` words — the one-reduce fusion
    /// of BCGS-PIP (Fig. 4a of the paper) and of both stages of the
    /// two-stage scheme.
    pub fn proj_and_gram(&self, prev: Range<usize>, new: Range<usize>) -> (Matrix, Matrix) {
        assert!(prev.end <= new.start, "prev must precede new");
        let k = prev.end - prev.start;
        let s = new.end - new.start;
        let _span = trace::span("mv", "proj_and_gram", &[("k", k as u64), ("s", s as u64)]);
        let p_local = dense::gemm_tn(&self.local.cols(prev), &self.local.cols(new.clone()));
        let g_local = dense::gram(&self.local.cols(new));
        let mut buf = Vec::with_capacity(k * s + s * s);
        buf.extend_from_slice(p_local.data());
        buf.extend_from_slice(g_local.data());
        self.comm
            .allreduce_screened(&mut buf, Screen::Gram { offset: k * s, s });
        let p = Matrix::from_col_major(k, s, buf[..k * s].to_vec());
        let g = Matrix::from_col_major(s, s, buf[k * s..].to_vec());
        (p, g)
    }

    /// BCGS vector update `V_new ← V_new − Q_prev·P` (local, no
    /// communication).
    pub fn update(&mut self, prev: Range<usize>, new: Range<usize>, p: &Matrix) {
        assert!(prev.end <= new.start, "prev must precede new");
        let s = new.end - new.start;
        let (head, mut tail) = self.local.split_at_col(new.start);
        let q = head.cols(prev);
        let mut v = tail.cols_mut(0..s);
        dense::gemm_nn_minus(&mut v, &q, p);
    }

    /// Fused BCGS update **and** re-projection: applies
    /// `W = V_new − Q_prev·P` in place and returns `Q_prevᵀ·W` with a
    /// **single global reduce** of `k·s` words, the reduce [`proj`] makes.
    ///
    /// Column-wise CGS2 runs its first update and its reorthogonalization
    /// projection through this call, so `Q_prev` is swept once for both.
    /// Locally the pass is [`dense::fused_update_proj`], bit for bit
    /// [`update`] followed by [`proj`].
    ///
    /// [`proj`]: Self::proj
    /// [`update`]: Self::update
    pub fn update_and_proj(&mut self, prev: Range<usize>, new: Range<usize>, p: &Matrix) -> Matrix {
        assert!(prev.end <= new.start, "prev must precede new");
        let s = new.end - new.start;
        let (head, mut tail) = self.local.split_at_col(new.start);
        let q = head.cols(prev);
        let mut v = tail.cols_mut(0..s);
        let mut c = dense::fused_update_proj(&mut v, &q, p);
        self.comm.allreduce_sum(c.data_mut());
        c
    }

    /// Fused BCGS update **and** re-projection inner products: applies
    /// `W = V_new − Q_prev·P` in place and returns
    /// `(C, G) = (Q_prevᵀ·W, Wᵀ·W)` with a **single global reduce** of
    /// `k·s + s²` words.
    ///
    /// This is the dual of [`proj_and_gram`]: where that kernel fuses the
    /// two inner products *before* an update, this one fuses the update
    /// with the inner products the *next* Cholesky needs, so the two-sync
    /// reorthogonalization schemes (BCGS-IRO-2S / BCGS-PIP2, and the
    /// two-stage scheme's shifted second-stage path) touch each row of the
    /// panel once per synchronization instead of twice.  Locally the pass
    /// is [`dense::fused_update_proj_gram`].
    ///
    /// With an empty `prev` the update is a no-op and `C` is `0×s`; the
    /// call is **routed** to the dedicated symmetric [`dense::gram`] kernel
    /// instead of the fused pass (still one reduce, of `s²` words).  The
    /// routing decision depends only on the shape (`k == 0`), never on
    /// timing, so repeated runs stay bitwise-identical.  For `k > 0` the
    /// fused single pass is unconditionally the faster formulation: it
    /// moves `n·(k + 2s)` words where the separate sweeps move
    /// `n·(2k + 3s)`.
    ///
    /// [`proj_and_gram`]: Self::proj_and_gram
    /// [`gram`]: Self::gram
    pub fn update_and_gram(
        &mut self,
        prev: Range<usize>,
        new: Range<usize>,
        p: &Matrix,
    ) -> (Matrix, Matrix) {
        assert!(prev.end <= new.start, "prev must precede new");
        let k = prev.end - prev.start;
        let s = new.end - new.start;
        let _span = trace::span("mv", "update_and_gram", &[("k", k as u64), ("s", s as u64)]);
        let (head, mut tail) = self.local.split_at_col(new.start);
        let q = head.cols(prev);
        let mut v = tail.cols_mut(0..s);
        let (c_local, g_local) = if k == 0 {
            (Matrix::zeros(0, s), dense::gram(&v.as_view()))
        } else {
            dense::fused_update_proj_gram(&mut v, &q, p)
        };
        let mut buf = Vec::with_capacity(k * s + s * s);
        buf.extend_from_slice(c_local.data());
        buf.extend_from_slice(g_local.data());
        self.comm
            .allreduce_screened(&mut buf, Screen::Gram { offset: k * s, s });
        let c = Matrix::from_col_major(k, s, buf[..k * s].to_vec());
        let g = Matrix::from_col_major(s, s, buf[k * s..].to_vec());
        (c, g)
    }

    /// Sketched panel `S·V` of the global columns `cols`.  **1 global
    /// reduce** of [`SketchOp::reduce_words`]`(s)` words (the slot table —
    /// Θ(c·s)).  The result is replicated and, because every slot of the
    /// exchange has exactly one owning rank, **bitwise identical across
    /// rank and thread counts** for a fixed seed.
    pub fn sketch(&self, op: &SketchOp, cols: Range<usize>) -> Matrix {
        assert_eq!(
            op.global_rows(),
            self.global_rows,
            "sketch operator was realized for a different row dimension"
        );
        let s = cols.end - cols.start;
        let _span = trace::span("mv", "sketch", &[("c", op.rows() as u64), ("s", s as u64)]);
        let mut buf = vec![0.0; op.slots() * s];
        op.fill_slots(&mut buf, &self.local.cols(cols), self.row_offset);
        self.comm.allreduce_sum(&mut buf);
        op.combine_slots(&buf, s)
    }

    /// Triangular normalization `V ← V·R⁻¹` of the columns `cols` (local,
    /// no communication).
    pub fn scale_right(&mut self, cols: Range<usize>, r: &Matrix) {
        let mut v = self.local.cols_mut(cols);
        dense::trsm_right_upper(&mut v, r);
    }

    /// Scale column `col` by `alpha` (local, no communication).
    pub fn scale_col(&mut self, col: usize, alpha: f64) {
        dense::scal(alpha, self.local.col_mut(col));
    }

    /// Global 2-norm of column `col`.  **1 global reduce** of one word
    /// (two words when guarded — the duplicated-word screen — but still a
    /// single reduction); `NaN` when the guards poisoned it.
    pub fn norm2(&self, col: usize) -> f64 {
        let c = self.local.col(col);
        let mut sq = [dense::dot(c, c)];
        if !self.comm.allreduce_screened(&mut sq, Screen::Norms) {
            return f64::NAN;
        }
        sq[0].max(0.0).sqrt()
    }

    /// Gather the full global matrix onto every rank (one allgather; test
    /// helper — O(n·c) words).
    ///
    /// Requires every rank to own the same number of rows or the layouts
    /// produced by [`from_matrix`](Self::from_matrix)/`block_row_partition`; rows are
    /// reassembled by each rank's `row_offset`.
    #[cfg(test)]
    fn gather_global(&self) -> Matrix {
        let size = self.comm.size();
        if size == 1 {
            return self.local.clone();
        }
        let cols = self.local.ncols();
        // Ship (row_offset, local_rows, data...) padded to a common length.
        let mut counts = vec![0.0; size];
        self.comm
            .allgather(&[self.local.nrows() as f64], &mut counts);
        let max_rows = counts.iter().fold(0.0f64, |a, &b| a.max(b)) as usize;
        let mut send = vec![0.0; 2 + max_rows * cols];
        send[0] = self.row_offset as f64;
        send[1] = self.local.nrows() as f64;
        for j in 0..cols {
            send[2 + j * max_rows..2 + j * max_rows + self.local.nrows()]
                .copy_from_slice(self.local.col(j));
        }
        let mut recv = vec![0.0; send.len() * size];
        self.comm.allgather(&send, &mut recv);
        let mut full = Matrix::zeros(self.global_rows, cols);
        for r in 0..size {
            let block = &recv[r * send.len()..(r + 1) * send.len()];
            let offset = block[0] as usize;
            let rows = block[1] as usize;
            for j in 0..cols {
                full.col_mut(j)[offset..offset + rows]
                    .copy_from_slice(&block[2 + j * max_rows..2 + j * max_rows + rows]);
            }
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialComm;
    use crate::thread::run_ranks;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 17 + j * 29) % 37) as f64 * 0.21 - 2.0 + if i % (j + 2) == 1 { 1.0 } else { 0.0 }
        })
    }

    #[test]
    fn serial_kernels_match_dense_references() {
        let v = test_matrix(200, 8);
        let mv = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let g = mv.gram(2..6);
        let g_ref = dense::gram(&v.cols(2..6));
        assert_eq!(g, g_ref);
        let p = mv.proj(0..3, 3..7);
        let p_ref = dense::gemm_tn(&v.cols(0..3), &v.cols(3..7));
        assert_eq!(p, p_ref);
        let (p2, g2) = mv.proj_and_gram(0..3, 3..7);
        assert_eq!(p2, p_ref);
        assert_eq!(g2, dense::gram(&v.cols(3..7)));
    }

    #[test]
    fn proj_and_gram_is_one_reduce_and_proj_plus_gram_is_two() {
        let v = test_matrix(150, 6);
        let mv = DistMultiVector::from_matrix(SerialComm::new(), v);
        let before = mv.comm().stats().snapshot();
        let _ = mv.proj_and_gram(0..2, 2..5);
        assert_eq!(mv.comm().stats().snapshot().since(&before).allreduces, 1);
        let before = mv.comm().stats().snapshot();
        let _ = mv.proj(0..2, 2..5);
        let _ = mv.gram(2..5);
        assert_eq!(mv.comm().stats().snapshot().since(&before).allreduces, 2);
    }

    #[test]
    fn update_and_gram_is_one_reduce_and_matches_separate_kernels() {
        let v = test_matrix(300, 8);
        let p_seed = {
            let mv = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            mv.proj(0..3, 3..7)
        };
        // Fused path: exactly one allreduce of k·s + s² words.
        let mut fused = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let before = fused.comm().stats().snapshot();
        let (c, g) = fused.update_and_gram(0..3, 3..7, &p_seed);
        let delta = fused.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1, "update_and_gram must be one reduce");
        assert_eq!(delta.allreduce_words, 3 * 4 + 4 * 4);
        // Separate path: update (0 reduces) + proj + gram (2 reduces).
        let mut sep = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let before = sep.comm().stats().snapshot();
        sep.update(0..3, 3..7, &p_seed);
        let c_ref = sep.proj(0..3, 3..7);
        let g_ref = sep.gram(3..7);
        let delta = sep.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "separate path costs two reduces");
        // Same updated panel, same inner products (to rounding: the fused
        // accumulation is row-blocked).
        assert_eq!(fused.local(), sep.local(), "updated panels must agree");
        for j in 0..4 {
            for i in 0..3 {
                assert!((c[(i, j)] - c_ref[(i, j)]).abs() < 1e-12 * c_ref.max_abs().max(1.0));
            }
            for i in 0..4 {
                assert!((g[(i, j)] - g_ref[(i, j)]).abs() < 1e-12 * g_ref.max_abs().max(1.0));
            }
        }
    }

    #[test]
    fn update_and_proj_is_one_reduce_and_bitwise_update_then_proj() {
        let mut fused = DistMultiVector::from_matrix(SerialComm::new(), test_matrix(300, 7));
        let mut separate = fused.clone();
        let p = Matrix::from_fn(6, 1, |i, _| 0.3 - 0.1 * i as f64);
        let before = fused.comm().stats().snapshot();
        let c = fused.update_and_proj(0..6, 6..7, &p);
        let delta = fused.comm().stats().snapshot().since(&before);
        assert_eq!((delta.allreduces, delta.allreduce_words), (1, 6));
        separate.update(0..6, 6..7, &p);
        assert_eq!(c, separate.proj(0..6, 6..7));
        assert_eq!(fused.local(), separate.local());
    }

    #[test]
    fn update_and_gram_with_empty_prev_is_gram() {
        let v = test_matrix(150, 5);
        let mut mv = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let before = mv.comm().stats().snapshot();
        let (c, g) = mv.update_and_gram(0..0, 0..5, &Matrix::zeros(0, 5));
        assert_eq!(mv.comm().stats().snapshot().since(&before).allreduces, 1);
        assert_eq!(c.nrows(), 0);
        assert_eq!(c.ncols(), 5);
        let g_ref = mv.gram(0..5);
        for j in 0..5 {
            for i in 0..5 {
                assert!((g[(i, j)] - g_ref[(i, j)]).abs() < 1e-12 * g_ref.max_abs());
            }
        }
        assert_eq!(mv.local(), &v, "empty-prev update must not modify V");
    }

    #[test]
    fn update_and_gram_matches_across_rank_counts() {
        let n = 203; // deliberately not divisible by the rank count
        let v = test_matrix(n, 7);
        let mut serial = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let p = serial.proj(0..3, 3..7);
        let (c_ref, g_ref) = serial.update_and_gram(0..3, 3..7, &p);
        for nranks in [2usize, 3, 4] {
            let results = run_ranks(nranks, |comm| {
                let mut mv = DistMultiVector::from_matrix(comm, v.clone());
                let before = mv.comm().stats().snapshot();
                let (c, g) = mv.update_and_gram(0..3, 3..7, &p);
                let reduces = mv.comm().stats().snapshot().since(&before).allreduces;
                (c, g, reduces, mv.gather_global())
            });
            for (c, g, reduces, full) in &results {
                assert_eq!(*reduces, 1, "one reduce on every rank count");
                for j in 0..4 {
                    for i in 0..3 {
                        assert!((c[(i, j)] - c_ref[(i, j)]).abs() < 1e-10 * c_ref.max_abs());
                    }
                    for i in 0..4 {
                        assert!((g[(i, j)] - g_ref[(i, j)]).abs() < 1e-10 * g_ref.max_abs());
                    }
                }
                for j in 0..7 {
                    for i in 0..n {
                        assert!((full[(i, j)] - serial.local()[(i, j)]).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_kernels_match_serial_to_rounding() {
        let n = 203; // deliberately not divisible by the rank count
        let v = test_matrix(n, 7);
        let serial = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let g_ref = serial.gram(0..7);
        let p_ref = serial.proj(0..3, 3..7);
        for nranks in [2usize, 3, 4] {
            let results = run_ranks(nranks, |comm| {
                let mv = DistMultiVector::from_matrix(comm, v.clone());
                (mv.gram(0..7), mv.proj(0..3, 3..7), mv.norm2(1))
            });
            for (g, p, norm) in &results {
                for j in 0..7 {
                    for i in 0..7 {
                        assert!((g[(i, j)] - g_ref[(i, j)]).abs() < 1e-10 * g_ref.max_abs());
                    }
                }
                for j in 0..4 {
                    for i in 0..3 {
                        assert!((p[(i, j)] - p_ref[(i, j)]).abs() < 1e-10 * p_ref.max_abs());
                    }
                }
                assert!((norm - serial.norm2(1)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn update_and_scale_right_are_local_and_correct() {
        let v = test_matrix(120, 6);
        let mut mv = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let p = mv.proj(0..2, 2..5);
        let before = mv.comm().stats().snapshot();
        mv.update(0..2, 2..5, &p);
        let r = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.0, 1.5, -0.5], &[0.0, 0.0, 3.0]]);
        mv.scale_right(2..5, &r);
        mv.scale_col(5, 2.0);
        assert_eq!(
            mv.comm().stats().snapshot().since(&before).allreduces,
            0,
            "update/scale must not communicate"
        );
        // Reference: same operations densely.
        let mut reference = v.clone();
        let q = reference.cols_owned(0..2);
        let mut block = reference.cols_mut(2..5);
        dense::gemm_nn_minus(&mut block, &q.view(), &p);
        dense::trsm_right_upper(&mut block, &r);
        dense::scal(2.0, reference.col_mut(5));
        assert_eq!(mv.local(), &reference);
    }

    #[test]
    fn from_matrix_partitions_like_block_row_partition() {
        // 2 rows on 3 ranks leaves the last rank an empty block.
        for (n, nranks) in [(101usize, 3usize), (2, 3)] {
            let v = test_matrix(n, 3);
            let parts = run_ranks(nranks, |comm| {
                let mv = DistMultiVector::from_matrix(comm, v.clone());
                (mv.row_offset(), mv.local().clone())
            });
            let reference = sparse::block_row_partition(n, nranks);
            let mut covered = 0;
            for (rank, (offset, local)) in parts.iter().enumerate() {
                let (lo, hi) = reference.range(rank);
                assert_eq!((*offset, offset + local.nrows()), (lo, hi));
                assert_eq!(*offset, covered);
                for j in 0..3 {
                    assert_eq!(
                        local.col(j),
                        &v.col(j)[lo..hi],
                        "rank {rank} keeps its rows"
                    );
                }
                covered += local.nrows();
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn gather_global_round_trips() {
        let n = 57;
        let v = test_matrix(n, 4);
        let results = run_ranks(3, |comm| {
            let mv = DistMultiVector::from_matrix(comm, v.clone());
            mv.gather_global()
        });
        for full in results {
            assert_eq!(full, v);
        }
    }
}
