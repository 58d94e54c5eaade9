//! Block/single-RHS equivalence battery.
//!
//! `SStepGmres::solve` is a zero-copy k = 1 call into the one cycle engine
//! behind `solve_block`, so a scalar solve and a one-column block solve of
//! the same system run the identical kernel calls, reduces, and branches:
//! solution bits, every per-cycle history, and the full communication
//! ledger (`CommStatsSnapshot` implements `PartialEq`) must match exactly —
//! the adapter projects nothing away and copies nothing in.  The battery
//! pins that across orthogonalization schemes, basis strategies, step
//! policies, detection guards, and simulated rank counts
//! (`DISTSIM_TEST_RANKS`, comma-separated, extends the sweep like the
//! other distributed batteries).

mod common;

use common::ranks_under_test;
use distsim::{run_ranks, Communicator, DistCsr, GuardedComm, SerialComm};
use sparse::{block_row_partition, laplace2d_9pt, Csr};
use ssgmres::{
    BasisStrategy, GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult, StepPolicy,
};
use std::sync::Arc;
use std::time::Duration;

fn rhs_for(a: &Csr, seed: usize) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

/// The full bitwise contract between a scalar solve and the k = 1 block
/// solve of the same system: solution, counts, every history, and both
/// communication ledgers.
fn assert_block_matches_scalar(
    tag: &str,
    x_scalar: &[f64],
    scalar: &SolveResult,
    x_block: &[f64],
    block: &SolveResult,
) {
    assert_eq!(x_scalar, x_block, "{tag}: solution bits diverge");
    assert_eq!(scalar.converged, block.converged, "{tag}: converged");
    assert_eq!(scalar.col_converged, block.col_converged, "{tag}");
    assert_eq!(scalar.iterations, block.iterations, "{tag}: iterations");
    assert_eq!(scalar.restarts, block.restarts, "{tag}: restarts");
    assert_eq!(scalar.final_relres.len(), 1, "{tag}: one column");
    assert_eq!(
        scalar.final_relres[0].to_bits(),
        block.final_relres[0].to_bits(),
        "{tag}: final relres bits"
    );
    assert_eq!(
        scalar.relres_history, block.relres_history,
        "{tag}: relres history"
    );
    assert_eq!(scalar.deflated_at, block.deflated_at, "{tag}: deflation");
    assert_eq!(scalar.deflation_order, block.deflation_order, "{tag}");
    assert_eq!(scalar.spmv_count, block.spmv_count, "{tag}: spmv count");
    assert_eq!(
        scalar.precond_count, block.precond_count,
        "{tag}: precond count"
    );
    assert_eq!(scalar.rescues, block.rescues, "{tag}: rescues");
    assert_eq!(scalar.breakdown, block.breakdown, "{tag}: breakdown");
    assert_eq!(
        scalar.ortho_fallbacks, block.ortho_fallbacks,
        "{tag}: fallbacks"
    );
    assert_eq!(
        scalar.comm_total, block.comm_total,
        "{tag}: total communication ledger"
    );
    assert_eq!(
        scalar.comm_ortho, block.comm_ortho,
        "{tag}: ortho communication ledger"
    );
    // Step, shifts and per-cycle ortho traffic are fields of the record.
    assert_eq!(
        scalar.health_history, block.health_history,
        "{tag}: cycle health"
    );
    for h in &block.health_history {
        assert_eq!(
            h.kappa_per_col,
            vec![h.kappa_est],
            "{tag}: kappa aggregates its only column"
        );
    }
}

#[test]
fn k1_block_solve_is_bitwise_the_scalar_solve_on_every_scheme() {
    let a = laplace2d_9pt(18, 18);
    let b = rhs_for(&a, 0);
    for ortho in [
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::TwoStage { big_panel: 30 },
        OrthoKind::RandCholQr,
        OrthoKind::TwoStageSketched { big_panel: 10 },
    ] {
        for basis in [BasisStrategy::Monomial, BasisStrategy::adaptive()] {
            let tag = format!("{ortho:?}/{basis:?}");
            let config = GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-9,
                ortho,
                basis: basis.clone(),
                ..GmresConfig::default()
            };
            let solver = SStepGmres::new(config);
            let (x_scalar, scalar) = solver.solve_serial(&a, &b);
            assert!(scalar.converged, "{tag}: {:?}", scalar.breakdown);
            let (x_block, block) = solver.solve_block_serial(&a, std::slice::from_ref(&b));
            assert_block_matches_scalar(&tag, &x_scalar, &scalar, x_block.col(0), &block);
            assert_eq!(block.deflated_at, vec![Some(block.restarts)], "{tag}");
            assert_eq!(block.deflation_order, vec![0], "{tag}");
        }
    }
}

#[test]
fn k1_equivalence_survives_auto_stepping_and_guards() {
    // Auto step policy exercises the controller/health plumbing; a guarded
    // communicator routes the norm reduce through the guarded path — the
    // block solver must follow both bitwise at k = 1.
    let a = laplace2d_9pt(16, 16);
    let b = rhs_for(&a, 3);
    let config = GmresConfig {
        restart: 24,
        step_size: 6,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 12 },
        step_policy: StepPolicy::Auto,
        ..GmresConfig::default()
    };
    // Each solve on a fresh guarded serial communicator.
    let guarded = || {
        let comm = GuardedComm::wrap(SerialComm::new(), Duration::from_secs(5));
        DistCsr::from_global(comm, &a, &block_row_partition(a.nrows(), 1))
    };
    let solver = SStepGmres::new(config);
    let mut x_scalar = vec![0.0; a.nrows()];
    let scalar = solver.solve(&guarded(), &Identity, &b, &mut x_scalar);
    assert!(scalar.converged, "{:?}", scalar.breakdown);
    let bm = dense::Matrix::from_col_major(a.nrows(), 1, b.clone());
    let mut x_block = dense::Matrix::zeros(a.nrows(), 1);
    let block = solver.solve_block(&guarded(), &Identity, &bm, &mut x_block);
    assert_block_matches_scalar("auto+guards", &x_scalar, &scalar, x_block.col(0), &block);
    assert_eq!(scalar.faults_detected, block.faults_detected);
    assert_eq!(scalar.faults_recovered, block.faults_recovered);
}

#[test]
fn k1_equivalence_is_bitwise_on_every_rank_count() {
    let (nx, ny) = (18, 18);
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let b = rhs_for(&a, 2);
    let config = GmresConfig {
        restart: 24,
        step_size: 4,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 24 },
        ..GmresConfig::default()
    };
    for nranks in ranks_under_test(&[2, 3]) {
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let solver = SStepGmres::new(config.clone());
            let mut x_scalar = vec![0.0; hi - lo];
            let scalar = solver.solve(&dist, &Identity, &b[lo..hi], &mut x_scalar);
            let mut bm = dense::Matrix::zeros(hi - lo, 1);
            bm.col_mut(0).copy_from_slice(&b[lo..hi]);
            let mut x_block = dense::Matrix::zeros(hi - lo, 1);
            let block = solver.solve_block(&dist, &Identity, &bm, &mut x_block);
            (x_scalar, scalar, x_block, block)
        });
        for (rank, (x_scalar, scalar, x_block, block)) in outcomes.iter().enumerate() {
            assert!(scalar.converged, "nranks {nranks} rank {rank}");
            assert_block_matches_scalar(
                &format!("nranks {nranks} rank {rank}"),
                x_scalar,
                scalar,
                x_block.col(0),
                block,
            );
        }
    }
}

#[test]
fn scalar_solve_continues_from_a_nonzero_initial_guess() {
    // The scalar entry point hands `x_local` to the engine as a view: a
    // nonzero guess must be read (not zeroed) and updated in place.  One
    // capped cycle from zero, then one more capped cycle from its own `x`
    // through scalar `solve` and through k = 1 `solve_block`: same bits,
    // and a residual strictly below the first cycle's (a zeroed guess
    // would reproduce the first cycle instead).
    let a = laplace2d_9pt(18, 18);
    let n = a.nrows();
    let b = rhs_for(&a, 4);
    let solver = SStepGmres::new(GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-12,
        max_restarts: 1,
        ortho: OrthoKind::TwoStage { big_panel: 20 },
        ..GmresConfig::default()
    });
    let relres = |x: &[f64]| {
        let ax = a.spmv_alloc(x);
        let rn: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum();
        let bn: f64 = b.iter().map(|v| v * v).sum();
        (rn / bn).sqrt()
    };
    for nranks in [1usize, 2] {
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let mut x_first = vec![0.0; hi - lo];
            let first = solver.solve(&dist, &Identity, &b[lo..hi], &mut x_first);
            assert!(!first.converged && first.restarts == 1, "cap must bind");
            let mut x_scalar = x_first.clone();
            let scalar = solver.solve(&dist, &Identity, &b[lo..hi], &mut x_scalar);
            let bm = dense::Matrix::from_col_major(hi - lo, 1, b[lo..hi].to_vec());
            let mut x_block = dense::Matrix::from_col_major(hi - lo, 1, x_first.clone());
            let block = solver.solve_block(&dist, &Identity, &bm, &mut x_block);
            (x_first, x_scalar, scalar, x_block, block)
        });
        let (mut x_first, mut x_cont) = (Vec::new(), Vec::new());
        for (rank, (xf, x_scalar, scalar, x_block, block)) in outcomes.iter().enumerate() {
            assert_block_matches_scalar(
                &format!("continued, nranks {nranks} rank {rank}"),
                x_scalar,
                scalar,
                x_block.col(0),
                block,
            );
            x_first.extend_from_slice(xf);
            x_cont.extend_from_slice(x_scalar);
        }
        assert!(
            relres(&x_cont) < relres(&x_first),
            "nranks {nranks}: continuation {} must improve on {}",
            relres(&x_cont),
            relres(&x_first)
        );
    }
}

#[test]
fn wide_block_schedule_is_rank_count_invariant() {
    // Beyond k = 1: across rank counts the solve follows the same
    // contract the scalar solver pins in `distributed_equivalence.rs` —
    // the cycle-granular *schedule* (restart count, step history,
    // per-column history lengths, deflation order and deflation cycles)
    // is exactly reproduced because it derives only from replicated
    // reduce results with order-of-magnitude margins, while solution and
    // residual values agree to reduction-reordering accuracy (summation
    // order inside an allreduce legitimately depends on the rank count,
    // which can also move the panel-granular in-cycle early exit).
    let a = laplace2d_9pt(16, 16);
    let bs: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(&a, j)).collect();
    assert_wide_block_schedule_is_rank_count_invariant(&a, &bs);
}

#[test]
fn wide_block_schedule_is_rank_count_invariant_on_generic_rhs() {
    // `rhs_for`'s right-hand sides are 17-periodic in the row index and
    // drive the k·s-wide monomial panels to the edge of the first stage's
    // Cholesky bound (the solver's early flush carries those cycles).
    // Generic right-hand sides cover the plain regime: no panel is refused
    // and no remedial pass runs.
    let a = laplace2d_9pt(16, 16);
    let bs: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            (0..a.nrows())
                .map(|i| {
                    (0.37 * i as f64 + 1.3 * j as f64).sin() + ((i * i + 3 * j) % 11) as f64 * 0.1
                })
                .collect()
        })
        .collect();
    assert_wide_block_schedule_is_rank_count_invariant(&a, &bs);
}

fn assert_wide_block_schedule_is_rank_count_invariant(a: &Csr, bs: &[Vec<f64>]) {
    let n = a.nrows();
    let config = GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 20 },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config.clone());
    let (x_serial, r_serial) = solver.solve_block_serial(a, bs);
    assert!(r_serial.converged, "{:?}", r_serial.breakdown);
    for nranks in ranks_under_test(&[2, 3]) {
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, a, &part);
            let mut bm = dense::Matrix::zeros(hi - lo, 3);
            let mut x = dense::Matrix::zeros(hi - lo, 3);
            for (j, b) in bs.iter().enumerate() {
                bm.col_mut(j).copy_from_slice(&b[lo..hi]);
            }
            let block = SStepGmres::new(config.clone()).solve_block(&dist, &Identity, &bm, &mut x);
            (lo, x, block)
        });
        let mut x_dist = dense::Matrix::zeros(n, 3);
        for (lo, x, block) in &outcomes {
            assert!(block.converged, "nranks {nranks}");
            assert_eq!(block.deflated_at, r_serial.deflated_at, "nranks {nranks}");
            assert_eq!(
                block.deflation_order, r_serial.deflation_order,
                "nranks {nranks}: deflation order must be deterministic"
            );
            assert_eq!(block.restarts, r_serial.restarts, "nranks {nranks}");
            assert_eq!(block.steps(), r_serial.steps(), "nranks {nranks}");
            for (j, (hd, hs)) in block
                .relres_history
                .iter()
                .zip(&r_serial.relres_history)
                .enumerate()
            {
                assert_eq!(
                    hd.len(),
                    hs.len(),
                    "nranks {nranks} col {j}: history length"
                );
                assert!(
                    hd.last().unwrap() <= &1e-8,
                    "nranks {nranks} col {j}: final relres {}",
                    hd.last().unwrap()
                );
            }
            for j in 0..3 {
                x_dist.col_mut(j)[*lo..lo + x.nrows()].copy_from_slice(x.col(j));
            }
        }
        for (p, q) in x_dist.data().iter().zip(x_serial.data()) {
            assert!(
                (p - q).abs() < 1e-6,
                "nranks {nranks}: distributed and serial block solutions differ: {p} vs {q}"
            );
        }
        // And the assembled distributed solution is a genuine solve.
        for (j, b_col) in bs.iter().enumerate() {
            let ax = a.spmv_alloc(x_dist.col(j));
            let rn: f64 = ax
                .iter()
                .zip(b_col)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b_col.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                rn / bn < 1e-7,
                "nranks {nranks} col {j}: relres {}",
                rn / bn
            );
        }
    }
}
