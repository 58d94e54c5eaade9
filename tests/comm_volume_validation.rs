//! Cross-validation of the all-reduce schedule's counts and **volume**
//! terms against traffic actually measured by the `distsim` communicator
//! statistics:
//!
//! * the `allreduce((k + s)·s)` term of the fused BCGS-PIP kernels equals
//!   the words `proj_and_gram` / `update_and_gram` actually reduce;
//! * [`OrthoKind::reduce_schedule`] — the reduces (its length) and words
//!   (its sum) a full restart cycle of each scheme issues — equals the
//!   measured `allreduces` / `allreduce_words` of running that scheme end
//!   to end, and the paper's closed forms (Table II) agree with its length;
//! * the SpMV halo exchange of the 9-point Laplacian moves the stencil's
//!   literal terms (`2·nx` ghost words from 2 neighbours per interior rank),
//!   in the negotiated halo plan and in what `CommStats` records per SpMV;
//! * a `k`-wide block product (`DistCsr::spmm`, one per block step of the
//!   matrix-powers kernel) sends one message per peer carrying `k·ghosts`
//!   words, alone and over a whole block solve.

use blockortho::{make_orthogonalizer, OrthoKind};
use dense::Matrix;
use distsim::{run_ranks, CommStatsSnapshot, DistCsr, DistMultiVector, SerialComm};
use sparse::{block_row_partition, Laplace2d9ptRows};
use ssgmres::{GmresConfig, Identity, SStepGmres};

/// Reduce count of one cycle: the length of the schedule.
fn reduces(kind: OrthoKind, m: usize, s: usize, k: usize) -> usize {
    kind.reduce_schedule(m, s, k).len()
}

/// Reduced words of one cycle: the sum of the schedule.
fn words(kind: OrthoKind, m: usize, s: usize, k: usize) -> usize {
    kind.reduce_schedule(m, s, k).iter().sum()
}

/// The paper's per-cycle reduce counts in closed form — the oracle the
/// schedule is checked against (the two-stage form holds for `bs` a
/// multiple of `s`).
fn closed_form_reduces(kind: OrthoKind, m: usize, s: usize, k: usize) -> usize {
    match kind {
        OrthoKind::Cgs2 => 3 * k * m,
        OrthoKind::Bcgs2CholQr2 => 5 * (m / s),
        OrthoKind::BcgsPip2 | OrthoKind::RandCholQr => 2 * (m / s),
        OrthoKind::BcgsPip => m / s,
        OrthoKind::TwoStage { big_panel: bs } | OrthoKind::TwoStageSketched { big_panel: bs } => {
            m / s + m.div_ceil(bs)
        }
    }
}

/// Well-conditioned basis so no scheme takes a breakdown detour (which
/// would legitimately spend extra reduces).  Seeded Gaussian columns stay
/// benign at the 244 columns of a k = 4, m = 60 cycle; a short periodic
/// pattern repeats columns there and trips the sketched rank screen.
fn test_basis(n: usize, cols: usize) -> dense::Matrix {
    testmat::random_dense(n, cols, 17)
}

/// The second step sizes of the validation grid (the paper's Table II sweep
/// and the values between).
const BS_GRID: [usize; 7] = [5, 10, 15, 20, 30, 40, 60];

/// Every scheme of the validation grid: the one-stage kinds once, both
/// two-stage kinds at every `bs` of [`BS_GRID`].  Each is the `k = 1` kind;
/// `k` is applied by `for_block_width` where the cycle runs.
fn grid() -> Vec<OrthoKind> {
    let mut kinds = vec![
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::BcgsPip,
        OrthoKind::RandCholQr,
    ];
    for big_panel in BS_GRID {
        kinds.push(OrthoKind::TwoStage { big_panel });
        kinds.push(OrthoKind::TwoStageSketched { big_panel });
    }
    kinds
}

/// Run one `k`-wide restart cycle of `kind` — the residual block, then
/// `m / s` panels of `k·s` columns, the schedule `SStepGmres::solve_block`
/// drives — and return the communication of everything after the residual
/// block (which is identical for every scheme; the schedule leaves it out
/// as cycle setup).
fn measured_cycle(kind: OrthoKind, m: usize, s: usize, k: usize) -> CommStatsSnapshot {
    let total = k * (m + 1);
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), test_basis(500, total));
    let mut r = dense::Matrix::zeros(total, total);
    let mut ortho = make_orthogonalizer(kind.for_block_width(k), total);
    ortho.orthogonalize_panel(&mut basis, 0..k, &mut r).unwrap();
    let before = basis.comm().stats().snapshot();
    let mut col = k;
    while col < total {
        ortho
            .orthogonalize_panel(&mut basis, col..col + k * s, &mut r)
            .unwrap();
        col += k * s;
    }
    ortho.finish(&mut basis, &mut r).unwrap();
    assert_eq!(
        ortho.fallback_count(),
        0,
        "{kind:?}: basis must stay benign"
    );
    basis.comm().stats().snapshot().since(&before)
}

#[test]
fn fused_kernel_reduce_volume_matches_the_pip_model_term() {
    // The schedule lists one all-reduce of (k + s)·s words per BCGS-PIP
    // call; both fused kernels must reduce exactly that.
    let v = test_basis(250, 12);
    for (k, s) in [(1usize, 5usize), (3, 4), (6, 6), (0, 5), (7, 1)] {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let before = basis.comm().stats().snapshot();
        let p = {
            let (p, _g) = basis.proj_and_gram(0..k, k..k + s);
            p
        };
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1);
        assert_eq!(
            delta.allreduce_words,
            (k + s) * s,
            "proj_and_gram k={k} s={s}"
        );
        let before = basis.comm().stats().snapshot();
        let _ = basis.update_and_gram(0..k, k..k + s, &p);
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1);
        assert_eq!(
            delta.allreduce_words,
            (k + s) * s,
            "update_and_gram k={k} s={s}"
        );
    }
}

#[test]
fn measured_cycle_reduce_words_match_the_analytic_volumes() {
    // Run every scheme through a full cycle on the distsim substrate and
    // compare the measured all-reduce count and words against the schedule.
    for m in [20usize, 60] {
        let mut pairs: Vec<_> = grid().into_iter().map(|kind| (kind, 5)).collect();
        pairs.push((OrthoKind::Cgs2, 1));
        for (kind, s) in pairs {
            let delta = measured_cycle(kind, m, s, 1);
            assert_eq!(
                delta.allreduces,
                reduces(kind, m, s, 1),
                "{kind:?} m={m} reduce count"
            );
            assert_eq!(
                delta.allreduce_words,
                words(kind, m, s, 1),
                "{kind:?} m={m} reduce volume"
            );
        }
    }
}

#[test]
fn measured_block_cycle_reduce_words_match_the_analytic_volumes() {
    // The block generalization of the cycle volumes: a k-wide block cycle
    // runs k·s-column panels over a k·(m + 1)-column basis, with
    // `OrthoKind::for_block_width` scaling the two-stage flush threshold.
    // For k ∈ {1, 2, 4} the measured reduce counts and words must equal the
    // schedule's — exactly, not approximately — and the counts must be
    // identical across k.
    let s = 5;
    for m in [20usize, 60] {
        for k in [1usize, 2, 4] {
            for kind in grid() {
                let delta = measured_cycle(kind, m, s, k);
                assert_eq!(
                    delta.allreduces,
                    reduces(kind, m, s, k),
                    "{kind:?} m={m} k={k} reduce count"
                );
                assert_eq!(
                    delta.allreduces,
                    reduces(kind, m, s, 1),
                    "{kind:?} m={m} k={k}: count must be k-independent"
                );
                assert_eq!(
                    delta.allreduce_words,
                    words(kind, m, s, k),
                    "{kind:?} m={m} k={k} reduce volume"
                );
            }
        }
    }
}

#[test]
fn two_stage_with_bs_equal_to_s_is_priced_as_bcgs_pip2() {
    // "With bs = s the scheme degenerates to one-stage BCGS-PIP2"
    // (`blockortho::two_stage`): every panel is flushed at once, so the
    // schedule must carry BCGS-PIP2's 2 reduces per panel.
    for (m, s) in [(60usize, 5usize), (20, 5), (60, 4), (60, 1)] {
        let two_stage = reduces(OrthoKind::TwoStage { big_panel: s }, m, s, 1);
        assert_eq!(two_stage, 2 * (m / s), "m={m} s={s}");
        assert_eq!(two_stage, reduces(OrthoKind::BcgsPip2, m, s, 1));
    }
}

#[test]
fn reduce_counts_match_closed_forms() {
    let m = 60;
    let s = 5;
    for kind in [
        OrthoKind::Cgs2,
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::BcgsPip,
        OrthoKind::TwoStage { big_panel: 60 },
        OrthoKind::TwoStage { big_panel: 20 },
        OrthoKind::TwoStage { big_panel: 5 },
        OrthoKind::RandCholQr,
        OrthoKind::TwoStageSketched { big_panel: 20 },
    ] {
        for k in [1usize, 2, 4] {
            assert_eq!(
                reduces(kind, m, s, k),
                closed_form_reduces(kind, m, s, k),
                "{kind:?} at k = {k}"
            );
        }
    }
}

#[test]
fn block_reduce_count_is_width_independent_for_panel_schemes() {
    // The batched-solver headline in closed form: the reduce count of
    // every panel-blocked scheme is flat in k (only column-wise CGS2
    // pays per column), while the words scale superlinearly.
    let m = 60;
    let s = 5;
    for kind in [
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::TwoStage { big_panel: 20 },
        OrthoKind::TwoStageSketched { big_panel: 20 },
    ] {
        let base = reduces(kind, m, s, 1);
        for k in [2usize, 4, 8] {
            assert_eq!(reduces(kind, m, s, k), base, "{kind:?} at k = {k}");
            assert!(
                words(kind, m, s, k) >= k * words(kind, m, s, 1),
                "{kind:?} at k = {k}: words must grow at least linearly"
            );
        }
    }
    assert_eq!(
        reduces(OrthoKind::Cgs2, m, 1, 4),
        4 * reduces(OrthoKind::Cgs2, m, 1, 1)
    );
}

#[test]
fn sketch_closed_form_matches_the_operator_and_the_measured_words() {
    // The schedule's sketch reduce (`rows·nnz·s` slot words) must agree with
    // both the realized operator's own accounting (SketchOp::reduce_words)
    // and the words a standalone sketched-panel reduce actually moves
    // through CommStats.
    use distsim::{SketchConfig, SketchOp, SKETCH_NNZ_PER_ROW};
    let n = 300;
    let total_cols = 21;
    let cfg = SketchConfig::default();
    let op = SketchOp::for_basis(&cfg, n, total_cols);
    for s in [1usize, 4, 5, 8] {
        assert_eq!(
            op.rows() * SKETCH_NNZ_PER_ROW * s,
            op.reduce_words(s),
            "closed form vs operator, s={s}"
        );
        // RandCholQr's first reduce of its first panel is that sketch.
        assert_eq!(
            OrthoKind::RandCholQr.reduce_schedule(total_cols - 1, s, 1)[0],
            op.reduce_words(s),
            "schedule vs operator, s={s}"
        );
        let v = test_basis(n, total_cols);
        let basis = DistMultiVector::from_matrix(SerialComm::new(), v);
        let before = basis.comm().stats().snapshot();
        let sv = basis.sketch(&op, 0..s);
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1, "sketch is one allreduce, s={s}");
        assert_eq!(
            delta.allreduce_words,
            op.rows() * SKETCH_NNZ_PER_ROW * s,
            "measured words vs closed form, s={s}"
        );
        assert_eq!((sv.nrows(), sv.ncols()), (op.rows(), s));
    }
}

#[test]
fn spmv_halo_volume_and_neighbors_match_problem_spec() {
    // 9-pt Laplacian, block rows aligned with grid lines: an interior rank
    // imports one grid line from each of its 2 neighbours (2·nx halo
    // words), an edge rank half that; both the negotiated halo plan and
    // the words CommStats measures during a real SpMV must say so.
    let nx = 40;
    let nranks = 4; // 10 whole grid lines per rank
    let rows = Laplace2d9ptRows { nx, ny: nx };
    let part = block_row_partition(nx * nx, nranks);
    let measured = run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let dist = DistCsr::from_row_source(comm.clone(), &part, &rows);
        let x = vec![1.0; hi - lo];
        let mut y = vec![0.0; hi - lo];
        let before = comm.stats().snapshot();
        dist.spmv(&x, &mut y);
        let delta = comm.stats().snapshot().since(&before);
        (
            dist.halo_plan().recv_words(),
            dist.halo_plan().recv_neighbors(),
            dist.halo_plan().send_words(),
            delta.p2p_words,
            delta.p2p_messages,
        )
    });
    let mut recv_total = 0;
    let mut sent_total = 0;
    for (rank, (recv_words, neighbors, send_words, p2p_words, p2p_msgs)) in
        measured.iter().enumerate()
    {
        let interior = rank > 0 && rank < nranks - 1;
        // One neighbour, and one imported grid line, per side.
        let sides = if interior { 2 } else { 1 };
        assert_eq!(*recv_words, sides * nx, "rank {rank}");
        assert_eq!(*neighbors, sides, "rank {rank}");
        // CommStats counts words at the sender: one SpMV sends exactly the
        // planned halo, in exactly one message per neighbor.
        assert_eq!(*p2p_words, *send_words, "rank {rank}");
        assert_eq!(*p2p_msgs, *neighbors, "rank {rank}");
        recv_total += recv_words;
        sent_total += p2p_words;
    }
    // Conservation: every imported ghost word was sent by its owner.
    assert_eq!(recv_total, sent_total);
}

#[test]
fn block_spmm_halo_is_one_message_per_peer_of_k_columns_of_ghosts() {
    // The k-wide closed forms on the layout of the test above: per block
    // product, messages = peers and words = k·ghosts (k·2·nx on an interior
    // rank, k·nx on an edge rank).
    let nx = 40;
    let nranks = 4;
    let rows = Laplace2d9ptRows { nx, ny: nx };
    let part = block_row_partition(nx * nx, nranks);
    for k in [1usize, 2, 4, 7] {
        let measured = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let dist = DistCsr::from_row_source(comm.clone(), &part, &rows);
            let x = vec![1.0; k * (hi - lo)];
            let mut y = vec![0.0; k * (hi - lo)];
            let before = comm.stats().snapshot();
            dist.spmm(k, &x, &mut y, None);
            let delta = comm.stats().snapshot().since(&before);
            (dist.halo_plan().recv_neighbors(), delta)
        });
        for (rank, (peers, delta)) in measured.iter().enumerate() {
            let interior = rank > 0 && rank < nranks - 1;
            let ghosts = if interior { 2 * nx } else { nx };
            assert_eq!(delta.p2p_messages, *peers, "k = {k}, rank {rank}");
            assert_eq!(delta.p2p_words, k * ghosts, "k = {k}, rank {rank}");
            assert_eq!(delta.allreduces, 0, "k = {k}, rank {rank}");
        }
    }
}

#[test]
fn a_block_solve_sends_one_halo_message_per_peer_per_block_step() {
    // k = 3 right-hand sides on 2 ranks, full cycles and no deflation
    // (tolerance out of reach): every product is a block product of all
    // three columns — the MPK's block steps and the residual refreshes —
    // so messages = spmv_count / k per peer and words = spmv_count·ghosts.
    let nx = 24;
    let k = 3;
    let rows = Laplace2d9ptRows { nx, ny: nx };
    let part = block_row_partition(nx * nx, 2);
    let solver = SStepGmres::new(GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-30,
        max_restarts: 2,
        ..GmresConfig::default()
    });
    let results = run_ranks(2, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let dist = DistCsr::from_row_source(comm, &part, &rows);
        let b = Matrix::from_fn(hi - lo, k, |i, j| ((lo + i) * (j + 2) % 7) as f64 - 3.0);
        let mut x = Matrix::zeros(hi - lo, k);
        let r = solver.solve_block(&dist, &Identity, &b, &mut x);
        (dist.halo_plan().send_words(), r)
    });
    for (rank, (ghosts, r)) in results.iter().enumerate() {
        assert_eq!(r.restarts, 2, "rank {rank}");
        assert!(r.deflation_order.is_empty(), "rank {rank}");
        assert_eq!(r.spmv_count % k, 0, "rank {rank}");
        assert_eq!(r.comm_total.p2p_messages, r.spmv_count / k, "rank {rank}");
        assert_eq!(r.comm_total.p2p_words, r.spmv_count * ghosts, "rank {rank}");
    }
}
