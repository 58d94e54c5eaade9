//! Fault-tolerance battery: the fault-injection communicator, the
//! detection guards, and the solver's recovery ladder, exercised through
//! full distributed solves on simulated (thread) ranks.
//!
//! The contracts pinned here:
//!
//! * **Transparency** — a [`FaultyComm`] driven by the empty plan is
//!   *bitwise* invisible: identical solutions and identical communication
//!   statistics (every counter) on every rank count, across a
//!   property sweep of solver configurations.
//! * **Zero-fault guard cost** — enabling every guard adds **zero global
//!   reductions** and leaves the solve bitwise unchanged; the guards ride
//!   on widened payloads only, exactly one duplicated word per active
//!   column of a norm reduce and two header words per halo frame.
//! * **In-place recovery** — a single corrupted Gram contribution, a
//!   failed collective, or a duplicated halo message is detected and
//!   repaired *in place*: the guarded solve is bitwise identical to its
//!   fault-free twin.
//! * **Rollback recovery** — a dropped or over-stalled halo message
//!   poisons the cycle; the solver rolls back and still converges.
//! * **Silent-error demonstration** — the same norm-reduce bit flip that
//!   makes the *unguarded* solver report convergence with a wrong answer
//!   is caught and repaired by the duplicated-word guard, for one
//!   right-hand side and for a block of two.
//! * **A long-lived guarded communicator** — a second solve on the same
//!   [`GuardedComm`] reports only its own faults.
//!
//! Rank counts sweep `DISTSIM_TEST_RANKS` (comma-separated) like the other
//! distributed batteries.

mod common;

use common::ranks_under_test;
use dense::Matrix;
use distsim::{
    run_ranks, Communicator, DistCsr, FaultKind, FaultPlan, FaultyComm, GuardedComm, OpKind, Target,
};
use proptest::prelude::*;
use sparse::{block_row_partition, laplace2d_9pt, Csr};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Guards on, with a halo patience no fault-free exchange comes near.
const GUARDED: Option<Duration> = Some(Duration::from_secs(5));

/// Run `body` on every rank with its rows `lo..hi` of `a`, assembled over
/// a communicator wrapped in a [`FaultyComm`] driven by `plan` and, outside
/// that, in a [`GuardedComm`] whose halo patience is `guards` (`None` =
/// unguarded).
fn on_ranks<T: Send>(
    a: &Csr,
    nranks: usize,
    guards: Option<Duration>,
    plan: Option<&FaultPlan>,
    body: impl Fn(&DistCsr, Range<usize>) -> T + Send + Sync,
) -> Vec<T> {
    let part = block_row_partition(a.nrows(), nranks);
    run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let comm: Arc<dyn Communicator> = match plan {
            Some(p) => FaultyComm::wrap(comm, p.clone()),
            None => comm,
        };
        let comm: Arc<dyn Communicator> = match guards {
            Some(patience) => GuardedComm::wrap(comm, patience),
            None => comm,
        };
        body(&DistCsr::from_global(comm, a, &part), lo..hi)
    })
}

/// Run one distributed solve, optionally under guards and a fault plan
/// (see [`on_ranks`]).  Returns each rank's local solution block and its
/// [`SolveResult`].
fn solve_dist(
    a: &Csr,
    b: &[f64],
    nranks: usize,
    config: &GmresConfig,
    guards: Option<Duration>,
    plan: Option<&FaultPlan>,
) -> Vec<(Vec<f64>, SolveResult)> {
    on_ranks(a, nranks, guards, plan, |dist, rows| {
        let mut x = vec![0.0; rows.len()];
        let result = SStepGmres::new(config.clone()).solve(dist, &Identity, &b[rows], &mut x);
        (x, result)
    })
}

/// Stitch per-rank solution blocks back into a global vector (the ranks
/// own consecutive row blocks in rank order).
fn gather(pieces: &[(Vec<f64>, SolveResult)]) -> Vec<f64> {
    pieces.iter().flat_map(|(x, _)| x.iter().copied()).collect()
}

/// True relative residual `‖b − A·x‖ / ‖b‖` (the solves start from x = 0).
fn true_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let num: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, axi)| (bi - axi) * (bi - axi))
        .sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den).sqrt()
}

/// A right-hand side normalized to unit norm, so every rank's local
/// squared-norm contribution stays well inside `[2⁻⁶³, 2)` where the
/// exponent-bit flips of the silent-error scenarios behave predictably.
fn unit_rhs(a: &Csr) -> Vec<f64> {
    let mut b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    for v in &mut b {
        *v /= norm;
    }
    b
}

/// Flip exponent bit 62 of the (1,0) Gram entry, word `s + 1` behind the
/// `s`-word projection prefix, in rank 0's contribution to the first panel
/// Gram reduce.
fn gram_flip_plan(s: usize) -> FaultPlan {
    FaultPlan::none().with(
        Target::nth(OpKind::Allreduce, 0)
            .on_rank(0)
            .in_phase("ortho")
            .with_min_words(s * s),
        FaultKind::BitFlip {
            word: Some(s + 1),
            bit: 62,
        },
    )
}

/// Flip exponent bit 58 of word 0 in every rank's contribution to the
/// cycle-1 residual-norm reduce.
fn norm_flip_plan() -> FaultPlan {
    FaultPlan::none().with(
        Target::nth(OpKind::Allreduce, 1).in_phase("residual"),
        FaultKind::BitFlip {
            word: Some(0),
            bit: 58,
        },
    )
}

fn base_config() -> GmresConfig {
    GmresConfig {
        restart: 16,
        step_size: 4,
        tol: 1e-8,
        max_iters: 20_000,
        ortho: OrthoKind::BcgsPip2,
        ..GmresConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A `FaultyComm` with the empty plan is bitwise the inner
    /// communicator: same solutions, same solver statistics, and the same
    /// `CommStats` snapshot, counter for counter — across solver
    /// configurations and the rank sweep.
    #[test]
    fn empty_fault_plan_is_bitwise_transparent(
        s in 2usize..6,
        restart in 12usize..24,
        two_stage in 0usize..2,
    ) {
        let a = laplace2d_9pt(14, 14);
        let b = unit_rhs(&a);
        let config = GmresConfig {
            restart,
            step_size: s,
            tol: 1e-7,
            max_iters: 20_000,
            ortho: if two_stage == 1 {
                OrthoKind::TwoStage { big_panel: restart }
            } else {
                OrthoKind::BcgsPip2
            },
            ..GmresConfig::default()
        };
        let plan = FaultPlan::none();
        for nranks in ranks_under_test(&[2, 3]) {
            let plain = solve_dist(&a, &b, nranks, &config, None, None);
            let wrapped = solve_dist(&a, &b, nranks, &config, None, Some(&plan));
            for (rank, ((xp, rp), (xw, rw))) in plain.iter().zip(&wrapped).enumerate() {
                prop_assert!(
                    xp == xw,
                    "rank {}/{}: solutions must be bitwise equal",
                    rank,
                    nranks
                );
                prop_assert_eq!(rp.iterations, rw.iterations);
                prop_assert_eq!(rp.converged, rw.converged);
                prop_assert!(
                    rp.comm_total == rw.comm_total,
                    "rank {}/{}: comm stats must match",
                    rank,
                    nranks
                );
                prop_assert_eq!(rw.faults_detected, 0);
            }
        }
    }
}

#[test]
fn guards_at_zero_faults_add_zero_reductions_and_stay_bitwise() {
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let config = base_config();
    for nranks in ranks_under_test(&[2, 3]) {
        let off = solve_dist(&a, &b, nranks, &config, None, None);
        let on = solve_dist(&a, &b, nranks, &config, GUARDED, None);
        for (rank, ((xo, ro), (xg, rg))) in off.iter().zip(&on).enumerate() {
            assert!(rg.converged, "rank {rank}/{nranks}");
            assert_eq!(
                xo, xg,
                "rank {rank}/{nranks}: guards at zero faults must not perturb the solve"
            );
            assert_eq!(ro.iterations, rg.iterations);
            // The whole point of structure-exploiting guards — wider
            // payloads, **zero** additional global reductions or messages.
            assert_eq!(
                ro.comm_total.allreduces, rg.comm_total.allreduces,
                "rank {rank}/{nranks}: guards must add zero reductions"
            );
            assert_eq!(ro.comm_total.p2p_messages, rg.comm_total.p2p_messages);
            // The words, exactly: each residual-norm reduce (the initial
            // one, then one per cycle) carries its one active column's
            // word twice, and each halo frame adds a sequence number and a
            // checksum.  Gram reduces travel as they are.
            let norm_reduces = 1 + rg.relres_history[0].len();
            assert_eq!(
                rg.comm_total.allreduce_words - ro.comm_total.allreduce_words,
                norm_reduces,
                "rank {rank}/{nranks}: one duplicated word per norm reduce"
            );
            assert_eq!(
                rg.comm_total.p2p_words - ro.comm_total.p2p_words,
                2 * rg.comm_total.p2p_messages,
                "rank {rank}/{nranks}: two header words per halo frame"
            );
            assert_eq!(rg.comm_total.allreduce_retries, 0);
            assert_eq!(rg.faults_detected, 0);
            assert!(rg.fault_events.is_empty());
        }
    }
}

#[test]
fn gram_bitflip_is_detected_and_repaired_in_place() {
    // A single flipped exponent bit in one rank's contribution to the
    // first panel Gram reduce (word s+1 = the (1,0) entry of the Gram
    // block behind the s-word projection prefix) breaks the bitwise
    // symmetry the screen checks.  The guard retries the reduce from the
    // saved clean contributions, so the repaired solve is bitwise the
    // fault-free one.
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let s = 4usize;
    let config = base_config();
    let guards = GUARDED;
    let plan = gram_flip_plan(s);
    for nranks in ranks_under_test(&[2, 3]) {
        if nranks < 2 {
            continue;
        }
        let clean = solve_dist(&a, &b, nranks, &config, guards, None);
        let faulted = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
        for (rank, ((xc, _), (xf, rf))) in clean.iter().zip(&faulted).enumerate() {
            assert!(rf.converged, "rank {rank}/{nranks}");
            assert!(
                rf.faults_detected >= 1,
                "rank {rank}/{nranks}: the flip must be detected"
            );
            assert!(rf.faults_recovered >= 1);
            assert_eq!(rf.faults_unrecovered, 0);
            assert!(rf.comm_total.allreduce_retries >= 1, "repair = a retry");
            assert_eq!(
                xc, xf,
                "rank {rank}/{nranks}: in-place repair must be bitwise exact"
            );
        }
    }
}

#[test]
fn failed_collective_is_retried_and_bitwise_repaired() {
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let s = 4usize;
    let config = base_config();
    let guards = GUARDED;
    // A transient failure of a Gram reduce: NaN on every rank, caught by
    // the finiteness screen, repaired by one retry.
    let plan = FaultPlan::none().with(
        Target::nth(OpKind::Allreduce, 1)
            .in_phase("ortho")
            .with_min_words(s * s),
        FaultKind::OpFail,
    );
    let nranks = 2;
    let clean = solve_dist(&a, &b, nranks, &config, guards, None);
    let faulted = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    for (rank, ((xc, _), (xf, rf))) in clean.iter().zip(&faulted).enumerate() {
        assert!(rf.converged, "rank {rank}");
        assert!(rf.faults_detected >= 1);
        assert!(rf.faults_recovered >= 1);
        assert_eq!(rf.faults_unrecovered, 0);
        assert_eq!(xc, xf, "rank {rank}: retry must restore the exact sum");
    }
}

#[test]
fn norm_flip_false_convergence_is_caught_by_the_duplicated_word_guard() {
    // The one truly *silent* failure mode: flip exponent bit 58 of every
    // rank's contribution to the cycle-1 residual-norm reduce.  The
    // squared norm collapses by 2⁻⁶⁴, the unguarded solver believes it
    // converged and returns a wrong answer without any breakdown.  The
    // duplicated-word guard sees the two halves of the payload disagree,
    // retries, and the guarded solve converges for real.
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    // One solver configuration; the guarded runs wrap the communicator.
    let unguarded = base_config();
    let guarded = base_config();
    let guards = GUARDED;
    let plan = norm_flip_plan();
    let nranks = 2;
    // Sanity: fault-free, the solve needs more than one cycle, so the
    // targeted reduce (end of cycle 1) is not already converged.
    let reference = solve_dist(&a, &b, nranks, &unguarded, None, None);
    assert!(reference[0].1.restarts > 1, "scenario needs >1 cycle");

    let silent = solve_dist(&a, &b, nranks, &unguarded, None, Some(&plan));
    let x_silent = gather(&silent);
    assert!(
        silent[0].1.converged,
        "the unguarded solver must *believe* it converged"
    );
    assert!(silent[0].1.breakdown.is_none(), "and see no breakdown");
    let relres_silent = true_relres(&a, &b, &x_silent);
    assert!(
        relres_silent > 1e2 * unguarded.tol,
        "…while the answer is silently wrong: true relres {relres_silent:e}"
    );

    let caught = solve_dist(&a, &b, nranks, &guarded, guards, Some(&plan));
    let x_caught = gather(&caught);
    for (rank, (_, r)) in caught.iter().enumerate() {
        assert!(r.converged, "rank {rank}");
        assert!(r.faults_detected >= 1, "rank {rank}: flip must be detected");
        assert_eq!(r.faults_unrecovered, 0);
    }
    let relres_caught = true_relres(&a, &b, &x_caught);
    assert!(
        relres_caught <= 10.0 * guarded.tol,
        "guarded solve must converge for real: true relres {relres_caught:e}"
    );
}

#[test]
fn norm_flip_false_convergence_is_caught_by_the_duplicated_word_guard_for_two_rhs() {
    // The same flip at k = 2 hits column 0's word of a reduce that carries
    // both columns' squared norms.  Unguarded, column 0 deflates on the
    // collapsed norm with a wrong answer; guarded, the duplicated halves
    // disagree, the reduce is retried, and both columns converge for real.
    let a = laplace2d_9pt(16, 16);
    let b0 = unit_rhs(&a);
    let b1 = (b0.iter().enumerate()).map(|(i, v)| if i % 2 == 0 { *v } else { -v });
    let b = [b0.clone(), b1.collect()];
    let solve_block = |config: &GmresConfig, guards, plan| {
        on_ranks(&a, 2, guards, plan, |dist, rows| {
            let b_local = Matrix::from_fn(rows.len(), 2, |i, j| b[j][rows.start + i]);
            let mut x = Matrix::zeros(rows.len(), 2);
            let result =
                SStepGmres::new(config.clone()).solve_block(dist, &Identity, &b_local, &mut x);
            (x, result)
        })
    };
    let gather_col = |pieces: &[(Matrix, SolveResult)], j: usize| -> Vec<f64> {
        pieces.iter().flat_map(|(x, _)| x.col(j).to_vec()).collect()
    };
    // One solver configuration; the guarded runs wrap the communicator.
    let unguarded = base_config();
    let guarded = base_config();
    let plan = norm_flip_plan();
    let reference = solve_block(&unguarded, None, None);
    assert!(reference[0].1.restarts > 1, "scenario needs >1 cycle");

    let silent = solve_block(&unguarded, None, Some(&plan));
    assert!(
        silent[0].1.converged,
        "the unguarded solver must *believe* it converged"
    );
    let relres_silent = true_relres(&a, &b[0], &gather_col(&silent, 0));
    assert!(
        relres_silent > 1e2 * unguarded.tol,
        "…while column 0 is silently wrong: true relres {relres_silent:e}"
    );

    let caught = solve_block(&guarded, GUARDED, Some(&plan));
    for (rank, (_, r)) in caught.iter().enumerate() {
        assert!(r.converged, "rank {rank}");
        assert!(r.faults_detected >= 1, "rank {rank}: flip must be detected");
        assert_eq!(r.faults_unrecovered, 0);
    }
    for (j, bj) in b.iter().enumerate() {
        let relres_caught = true_relres(&a, bj, &gather_col(&caught, j));
        assert!(
            relres_caught <= 10.0 * guarded.tol,
            "column {j}: guarded solve must converge for real: true relres {relres_caught:e}"
        );
    }
}

#[test]
fn a_guarded_communicator_reports_each_solve_its_own_faults() {
    // Two solves on one guarded communicator: the first meets a Gram flip
    // and repairs it in place, the second runs fault-free.  The guards'
    // counters and log outlive the first solve; the second still reports
    // zero faults, and its solution is bitwise the fault-free one.
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let s = 4usize;
    let config = base_config();
    let guards = GUARDED;
    let plan = gram_flip_plan(s);
    let nranks = 2;
    let clean = solve_dist(&a, &b, nranks, &config, guards, None);
    let solves = on_ranks(&a, nranks, guards, Some(&plan), |dist, rows| {
        let solver = SStepGmres::new(config.clone());
        let mut x = vec![0.0; rows.len()];
        let first = solver.solve(dist, &Identity, &b[rows.clone()], &mut x);
        x.fill(0.0);
        let second = solver.solve(dist, &Identity, &b[rows], &mut x);
        (first, x, second)
    });
    for (rank, ((first, x, second), (xc, _))) in solves.iter().zip(&clean).enumerate() {
        assert!(first.faults_detected >= 1, "rank {rank}: the flip is seen");
        assert_eq!(first.faults_unrecovered, 0);
        assert!(second.converged, "rank {rank}");
        assert_eq!(
            second.faults_detected, 0,
            "rank {rank}: the first solve's faults are not the second's"
        );
        assert!(second.fault_events.is_empty());
        assert_eq!(x, xc, "rank {rank}: the second solve is the fault-free one");
    }
}

#[test]
fn dropped_halo_message_rolls_back_the_cycle_and_converges() {
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let config = base_config();
    let guards = Some(Duration::from_millis(100));
    // Swallow rank 0's first matrix-powers halo message: the receiver
    // times out, poisons its ghosts, and the NaN cascades into a Gram
    // breakdown — the cycle rolls back and the solve still converges.
    let plan = FaultPlan::none().with(
        Target::nth(OpKind::Send, 0).on_rank(0).in_phase("mpk"),
        FaultKind::DropMessage,
    );
    let nranks = 2;
    let faulted = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    let x = gather(&faulted);
    let detected: usize = faulted.iter().map(|(_, r)| r.faults_detected).sum();
    assert!(detected >= 1, "the lost message must be detected");
    assert!(
        faulted
            .iter()
            .flat_map(|(_, r)| &r.fault_events)
            .any(|e| e.guard.starts_with("halo")),
        "detection must come from a halo guard"
    );
    for (rank, (_, r)) in faulted.iter().enumerate() {
        assert!(r.converged, "rank {rank}");
    }
    let relres = true_relres(&a, &b, &x);
    assert!(relres <= 10.0 * config.tol, "true relres {relres:e}");
}

#[test]
fn duplicated_halo_message_is_discarded_exactly() {
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let config = base_config();
    let guards = GUARDED;
    let plan = FaultPlan::none().with(
        Target::nth(OpKind::Send, 0).on_rank(0).in_phase("mpk"),
        FaultKind::DuplicateMessage,
    );
    let nranks = 2;
    let clean = solve_dist(&a, &b, nranks, &config, guards, None);
    let faulted = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    let detected: usize = faulted.iter().map(|(_, r)| r.faults_detected).sum();
    let unrecovered: usize = faulted.iter().map(|(_, r)| r.faults_unrecovered).sum();
    assert!(detected >= 1, "the duplicate must be seen");
    assert_eq!(unrecovered, 0);
    for (rank, ((xc, rc), (xf, rf))) in clean.iter().zip(&faulted).enumerate() {
        assert!(rf.converged, "rank {rank}");
        assert_eq!(rc.iterations, rf.iterations);
        assert_eq!(
            xc, xf,
            "rank {rank}: a discarded duplicate must leave the solve bitwise unchanged"
        );
    }
}

#[test]
fn stalled_halo_link_times_out_poisons_and_recovers() {
    // The stall outlives the halo patience: the receiver writes the
    // message off (guarded timeout instead of a hang — the configurable
    // recv-timeout satellite), the poisoned cycle rolls back, and the
    // stale frame that eventually arrives is discarded by its sequence
    // number.
    let a = laplace2d_9pt(16, 16);
    let b = unit_rhs(&a);
    let config = base_config();
    let guards = Some(Duration::from_millis(80));
    let plan = FaultPlan::none().with(
        Target::nth(OpKind::Send, 0).on_rank(0).in_phase("mpk"),
        FaultKind::Stall { millis: 250 },
    );
    let nranks = 2;
    let faulted = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    let x = gather(&faulted);
    let detected: usize = faulted.iter().map(|(_, r)| r.faults_detected).sum();
    assert!(detected >= 1, "the overdue message must be written off");
    for (rank, (_, r)) in faulted.iter().enumerate() {
        assert!(r.converged, "rank {rank}");
    }
    let relres = true_relres(&a, &b, &x);
    assert!(relres <= 10.0 * config.tol, "true relres {relres:e}");
}

#[test]
fn seeded_campaign_solves_replay_bitwise() {
    // The same seed must reproduce the same faults and therefore the same
    // solve, bit for bit — the replayability contract campaigns rely on.
    let a = laplace2d_9pt(14, 14);
    let b = unit_rhs(&a);
    let config = base_config();
    let guards = GUARDED;
    let plan = FaultPlan::from_seed(
        0x5eed_cafe,
        distsim::FaultRates {
            bitflip: 0.02,
            ..Default::default()
        },
    );
    let nranks = 2;
    let first = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    let second = solve_dist(&a, &b, nranks, &config, guards, Some(&plan));
    for (rank, ((xa, ra), (xb, rb))) in first.iter().zip(&second).enumerate() {
        assert_eq!(xa, xb, "rank {rank}: replay must be bitwise");
        assert_eq!(ra.iterations, rb.iterations);
        assert_eq!(ra.faults_detected, rb.faults_detected);
        assert_eq!(ra.faults_recovered, rb.faults_recovered);
        assert_eq!(&ra.comm_total, &rb.comm_total);
    }
}
