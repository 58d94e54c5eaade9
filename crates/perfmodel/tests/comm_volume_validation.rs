//! Cross-validation of the all-reduce schedule's counts and **volume**
//! terms against traffic actually measured by the `distsim` communicator
//! statistics:
//!
//! * the `allreduce((k + s)·s)` term of the fused BCGS-PIP kernels equals
//!   the words `proj_and_gram` / `update_and_gram` actually reduce;
//! * [`ortho_reduce_count`] and [`ortho_cycle_words`] — the reduces and
//!   words the schedule lists for a full restart cycle of each scheme —
//!   equal the measured `allreduces` / `allreduce_words` of running that
//!   scheme end to end;
//! * the SpMV halo exchange of the 9-point Laplacian moves the stencil's
//!   literal terms (`2·nx` ghost words from 2 neighbours per interior rank),
//!   in the negotiated halo plan and in what `CommStats` records per SpMV.

use blockortho::{make_orthogonalizer, OrthoKind};
use distsim::{run_ranks, CommStatsSnapshot, DistCsr, DistMultiVector, SerialComm};
use perfmodel::{
    block_ortho_cycle_words, block_ortho_reduce_count, ortho_cycle_words, ortho_reduce_count,
    SchemeKind,
};
use sparse::{block_row_partition, Laplace2d9ptRows};

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

/// Every scheme of the validation grid at restart length `m` and block
/// width `k`, each with its orthogonalizer: the one-stage kinds once, both
/// two-stage kinds at every `bs` of [`BS_GRID`].
fn grid(m: usize, k: usize) -> Vec<(OrthoKind, SchemeKind)> {
    // rows = rows_per_col (8, the default) · total_cols.
    let (rows, nnz) = (8 * k * (m + 1), 4);
    let mut pairs = vec![
        (OrthoKind::Bcgs2CholQr2, SchemeKind::Bcgs2CholQr2),
        (OrthoKind::BcgsPip2, SchemeKind::BcgsPip2),
        (OrthoKind::RandCholQr, SchemeKind::RandCholQr { rows, nnz }),
    ];
    for bs in BS_GRID {
        pairs.push((
            OrthoKind::TwoStage { big_panel: bs }.for_block_width(k),
            SchemeKind::TwoStage { bs },
        ));
        pairs.push((
            OrthoKind::TwoStageSketched { big_panel: bs }.for_block_width(k),
            SchemeKind::TwoStageSketched { bs, rows, nnz },
        ));
    }
    pairs
}

/// Run one `k`-wide restart cycle of `kind` — the residual block, then
/// `m / s` panels of `k·s` columns, the schedule `SStepGmres::solve_block`
/// drives — and return the communication of everything after the residual
/// block (which is identical for every scheme; the model folds it into
/// cycle setup).
fn measured_cycle(kind: OrthoKind, m: usize, s: usize, k: usize) -> CommStatsSnapshot {
    let total = k * (m + 1);
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), test_basis(500, total));
    let mut r = dense::Matrix::zeros(total, total);
    let mut ortho = make_orthogonalizer(kind, total);
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
        let mut pairs: Vec<_> = grid(m, 1).into_iter().map(|(o, c)| (o, c, 5)).collect();
        pairs.push((OrthoKind::Cgs2, SchemeKind::StandardCgs2, 1));
        for (kind, scheme, s) in pairs {
            let delta = measured_cycle(kind, m, s, 1);
            assert_eq!(
                delta.allreduces,
                ortho_reduce_count(scheme, m, s),
                "{scheme:?} m={m} reduce count"
            );
            assert_eq!(
                delta.allreduce_words,
                ortho_cycle_words(scheme, m, s),
                "{scheme:?} m={m} reduce volume"
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
    // model's — exactly, not approximately — and the counts must be
    // identical across k.
    let s = 5;
    for m in [20usize, 60] {
        for k in [1usize, 2, 4] {
            for (kind, scheme) in grid(m, k) {
                let delta = measured_cycle(kind, m, s, k);
                assert_eq!(
                    delta.allreduces,
                    block_ortho_reduce_count(scheme, m, s, k),
                    "{scheme:?} m={m} k={k} reduce count"
                );
                assert_eq!(
                    delta.allreduces,
                    block_ortho_reduce_count(scheme, m, s, 1),
                    "{scheme:?} m={m} k={k}: count must be k-independent"
                );
                assert_eq!(
                    delta.allreduce_words,
                    block_ortho_cycle_words(scheme, m, s, k),
                    "{scheme:?} m={m} k={k} reduce volume"
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
        let two_stage = ortho_reduce_count(SchemeKind::TwoStage { bs: s }, m, s);
        assert_eq!(two_stage, 2 * (m / s), "m={m} s={s}");
        assert_eq!(two_stage, ortho_reduce_count(SchemeKind::BcgsPip2, m, s));
    }
}

#[test]
fn sketch_closed_form_matches_the_operator_and_the_measured_words() {
    // The schedule's sketch_reduce_words must agree with both the realized
    // operator's own accounting (SketchOp::reduce_words) and the words a
    // standalone sketched-panel reduce actually moves through CommStats.
    use distsim::{SketchConfig, SketchOp, SKETCH_NNZ_PER_ROW};
    let n = 300;
    let total_cols = 21;
    let cfg = SketchConfig::default();
    let op = SketchOp::for_basis(&cfg, n, total_cols);
    for s in [1usize, 4, 5, 8] {
        assert_eq!(
            perfmodel::sketch_reduce_words(op.rows(), SKETCH_NNZ_PER_ROW, s),
            op.reduce_words(s),
            "closed form vs operator, s={s}"
        );
        let v = test_basis(n, total_cols);
        let basis = DistMultiVector::from_matrix(SerialComm::new(), v);
        let before = basis.comm().stats().snapshot();
        let sv = basis.sketch(&op, 0..s);
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 1, "sketch is one allreduce, s={s}");
        assert_eq!(
            delta.allreduce_words,
            perfmodel::sketch_reduce_words(op.rows(), SKETCH_NNZ_PER_ROW, s),
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
