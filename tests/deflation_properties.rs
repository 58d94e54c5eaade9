//! Property battery for per-column deflation in the block solver.
//!
//! The load-bearing claim: each restart cycle of `solve_block` is a pure
//! function of `(active residual block, x, A, b, config)` — deflating a
//! column therefore leaves the survivors' trajectories **bitwise**
//! unchanged versus a solve that never carried the deflated column from
//! the deflation cycle onward.  The battery verifies it constructively:
//!
//! 1. run a full block solve where one column gets a loose absolute
//!    target (so it deflates strictly first),
//! 2. replay the pre-deflation prefix by capping `max_restarts` at the
//!    recorded deflation cycle (bitwise the same cycles, so its output is
//!    the survivors' warm state at the deflation boundary),
//! 3. continue the survivors alone, warm-started from that state —
//!    and require the continued solve to land on the full solve's
//!    survivor columns bit for bit.
//!
//! Determinism of the deflation *schedule* is pinned separately: the
//! order and cycle at which columns deflate derive only from replicated
//! reduce results, so they are invariant across simulated rank counts
//! (`DISTSIM_TEST_RANKS` extends the sweep; `tests/block_equivalence.rs`
//! pins the rank axis as well).

mod common;

use common::ranks_under_test;
use distsim::{run_ranks, Communicator, DistCsr};
use proptest::prelude::*;
use sparse::{block_row_partition, laplace2d_9pt, Csr};
use ssgmres::{BlockOptions, GmresConfig, Identity, OrthoKind, SStepGmres};
use std::sync::Arc;

fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn dist_for(a: &Csr) -> DistCsr {
    let part = block_row_partition(a.nrows(), 1);
    DistCsr::from_global(distsim::SerialComm::new(), a, &part)
}

fn pack(n: usize, cols: &[&[f64]]) -> dense::Matrix {
    let mut m = dense::Matrix::zeros(n, cols.len());
    for (j, c) in cols.iter().enumerate() {
        m.col_mut(j).copy_from_slice(c);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn deflating_a_column_leaves_survivors_bitwise_unchanged(
        nx in 12usize..17,
        k in 2usize..5,
        loose in 0usize..4,
        s in 3usize..6,
        scheme in 0usize..2,
    ) {
        let loose = loose % k;
        let a = laplace2d_9pt(nx, nx);
        let n = a.nrows();
        let dist = dist_for(&a);
        let bs: Vec<Vec<f64>> = (0..k).map(|j| rhs_for(n, j)).collect();
        let b = pack(n, &bs.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Column `loose` deflates strictly first (one cycle reaches a
        // 0.5·‖b‖ target by a wide margin); the others run deep.
        let targets: Vec<f64> = (0..k)
            .map(|j| if j == loose { 0.5 * norm(&bs[j]) } else { 1e-10 * norm(&bs[j]) })
            .collect();
        let opts = BlockOptions { abs_targets: Some(targets.clone()) };
        let config = GmresConfig {
            restart: 20,
            step_size: s,
            tol: 1e-10,
            ortho: if scheme == 0 {
                OrthoKind::TwoStage { big_panel: 20 }
            } else {
                OrthoKind::BcgsPip2
            },
            ..GmresConfig::default()
        };
        let solver = SStepGmres::new(config.clone());

        // 1. The full solve, with deflation.
        let mut x_full = dense::Matrix::zeros(n, k);
        let full = solver.solve_block_with(&dist, &Identity, &b, &mut x_full, &opts);
        prop_assert!(full.converged, "{:?}", full.breakdown);
        prop_assert_eq!(full.deflation_order.first(), Some(&loose));
        let c = full.deflated_at[loose].expect("loose column deflates");
        prop_assert!(c < full.restarts, "deflation must happen mid-solve");

        // 2. Replay the pre-deflation prefix: identical config capped at
        //    the deflation cycle reruns the identical cycles, so its x is
        //    the warm state at the boundary.
        let capped = SStepGmres::new(GmresConfig { max_restarts: c, ..config.clone() });
        let mut x_warm = dense::Matrix::zeros(n, k);
        let _ = capped.solve_block_with(&dist, &Identity, &b, &mut x_warm, &opts);

        // 3. Continue the survivors alone from the warm state.
        let survivors: Vec<usize> = (0..k).filter(|&j| j != loose).collect();
        let b_cont = pack(n, &survivors.iter().map(|&j| bs[j].as_slice()).collect::<Vec<_>>());
        let mut x_cont = pack(n, &survivors.iter().map(|&j| x_warm.col(j)).collect::<Vec<_>>());
        let cont_opts = BlockOptions {
            abs_targets: Some(survivors.iter().map(|&j| targets[j]).collect()),
        };
        let cont = solver.solve_block_with(&dist, &Identity, &b_cont, &mut x_cont, &cont_opts);
        prop_assert!(cont.converged, "{:?}", cont.breakdown);

        // The survivor columns are bitwise those of the full solve...
        for (p, &j) in survivors.iter().enumerate() {
            prop_assert_eq!(x_cont.col(p), x_full.col(j));
        }
        // ...and so is their post-deflation schedule.
        prop_assert_eq!(cont.restarts, full.restarts - c);
        for (p, &j) in survivors.iter().enumerate() {
            prop_assert_eq!(
                cont.relres_history[p].len(),
                full.relres_history[j].len() - c
            );
        }
    }
}

#[test]
fn deflation_schedule_is_deterministic_across_rank_counts() {
    let (nx, ny) = (14, 14);
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let bs: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(n, j)).collect();
    let targets = vec![1e-9 * norm(&bs[0]), 0.5 * norm(&bs[1]), 1e-6 * norm(&bs[2])];
    let config = GmresConfig {
        restart: 18,
        step_size: 4,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 18 },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config.clone());
    let b_ser = pack(n, &bs.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let opts = BlockOptions {
        abs_targets: Some(targets.clone()),
    };
    let mut x_ser = dense::Matrix::zeros(n, 3);
    let serial = solver.solve_block_with(&dist_for(&a), &Identity, &b_ser, &mut x_ser, &opts);
    assert!(serial.converged, "{:?}", serial.breakdown);
    assert!(
        !serial.deflation_order.is_empty(),
        "the loose column must deflate mid-solve"
    );
    for nranks in ranks_under_test(&[2, 3]) {
        let part = block_row_partition(n, nranks);
        let schedules = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let bm = pack(hi - lo, &bs.iter().map(|c| &c[lo..hi]).collect::<Vec<_>>());
            let mut x = dense::Matrix::zeros(hi - lo, 3);
            let r = SStepGmres::new(config.clone()).solve_block_with(
                &dist,
                &Identity,
                &bm,
                &mut x,
                &BlockOptions {
                    abs_targets: Some(targets.clone()),
                },
            );
            (r.converged, r.deflation_order, r.deflated_at, r.restarts)
        });
        for (rank, (converged, order, at, restarts)) in schedules.iter().enumerate() {
            assert!(*converged, "nranks {nranks} rank {rank}");
            assert_eq!(
                order, &serial.deflation_order,
                "nranks {nranks} rank {rank}: deflation order"
            );
            assert_eq!(
                at, &serial.deflated_at,
                "nranks {nranks} rank {rank}: deflation cycles"
            );
            assert_eq!(restarts, &serial.restarts, "nranks {nranks} rank {rank}");
        }
    }
}
