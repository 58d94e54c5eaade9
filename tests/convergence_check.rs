//! The convergence check of the cycle engine under the two-stage scheme.
//!
//! With `bs = m` no column is final until the cycle's one flush, so the
//! engine estimates each active residual after every panel from the
//! stage-1 basis and, when the estimate carried one more panel says the
//! cycle is about to converge, flushes the pending big panel there; the
//! check on the final columns then decides.  These tests pin what that
//! buys (the one-stage iteration count), what it must not cost (no extra
//! flush away from convergence), that it reads only replicated data (the
//! same decisions on any rank count), and the Hessenberg representation of
//! a column that was flushed before the next panel started from it.

mod common;

use common::{ranks_under_test, thread_lock};
use distsim::{run_ranks, DistCsr};
use perfmodel::{block_ortho_reduce_count, SchemeKind};
use sparse::{block_row_partition, laplace2d_9pt, suitelike, suitesparse_surrogate, Csr};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult};

/// The benchmark's solver settings: restart 60, s = 5, tol 1e-6.
const M: usize = 60;
const S: usize = 5;
const TOL: f64 = 1e-6;

fn config(restart: usize, ortho: OrthoKind) -> GmresConfig {
    GmresConfig {
        restart,
        step_size: S,
        tol: TOL,
        ortho,
        ..GmresConfig::default()
    }
}

fn two_stage() -> GmresConfig {
    config(M, OrthoKind::TwoStage { big_panel: M })
}

/// The ML_Geer surrogate (70 nonzeros per row) at `n` rows: converges well
/// inside one cycle.
fn geer(n: usize) -> Csr {
    let spec = suitelike::spec_by_name("ML_Geer").expect("ML_Geer is in the set");
    suitesparse_surrogate(spec, Some(n), 1)
}

/// `b = A·x*` with `x* = 1 + 0.1·u`, `u` a fixed pseudo-random vector in
/// `[0, 1)`: the shape of the benchmark's right-hand sides.
fn rhs(a: &Csr) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let x: Vec<f64> = (0..a.nrows())
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1.0 + 0.1 * (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    a.spmv_alloc(&x)
}

/// What the check decided in each cycle: its ortho all-reduces and the
/// columns it used.
fn decisions(r: &SolveResult) -> Vec<(usize, usize)> {
    (r.health_history.iter())
        .map(|h| (h.comm_ortho.allreduces, h.usable_cols))
        .collect()
}

#[test]
fn two_stage_takes_the_one_stage_iterations_at_bs_equal_m() {
    let _lock = thread_lock();
    for (name, a) in [
        ("laplace2d_9pt(48)", laplace2d_9pt(48, 48)),
        ("ML_Geer n = 4000", geer(4000)),
    ] {
        let b = rhs(&a);
        let (_, pip2) = SStepGmres::new(config(M, OrthoKind::BcgsPip2)).solve_serial(&a, &b);
        let (_, two) = SStepGmres::new(two_stage()).solve_serial(&a, &b);
        assert!(
            pip2.converged && two.converged,
            "{name}: {:?}",
            two.breakdown
        );
        assert_eq!(
            two.iterations, pip2.iterations,
            "{name}: two-stage must stop where PIP2 stops"
        );
        assert!(
            two.comm_ortho.allreduces < pip2.comm_ortho.allreduces,
            "{name}: {} vs {} ortho all-reduces",
            two.comm_ortho.allreduces,
            pip2.comm_ortho.allreduces
        );
    }
}

#[test]
fn the_flush_trigger_never_fires_away_from_convergence() {
    let _lock = thread_lock();
    let a = laplace2d_9pt(64, 64);
    let (_, r) = SStepGmres::new(two_stage()).solve_serial(&a, &rhs(&a));
    assert!(r.converged, "{:?}", r.breakdown);
    let (last, full) = r.health_history.split_last().expect("a cycle ran");
    assert!(!full.is_empty(), "the solve must need more than one cycle");
    // A full cycle: the residual block's panel, which the model leaves out,
    // then the modelled MPK panels and the one flush at the cycle's end.
    let per_cycle = 1 + block_ortho_reduce_count(SchemeKind::TwoStage { bs: M }, M, S, 1);
    for (i, h) in full.iter().enumerate() {
        assert_eq!(h.comm_ortho.allreduces, per_cycle, "cycle {i}");
    }
    // The last: the residual panel and its MPK panels, the flush the
    // trigger asked for, and at most one more (a flush whose check did not
    // agree, or an early flush on a refused panel).
    let last_iters = r.iterations - full.len() * M;
    let panels = 1 + last_iters.div_ceil(S);
    let reduces = last.comm_ortho.allreduces;
    assert!(
        (panels + 1..=panels + 2).contains(&reduces),
        "last cycle: {reduces} reduces for {panels} panels"
    );
}

#[test]
fn the_flush_trigger_decides_the_same_on_every_rank_count() {
    let _lock = thread_lock();
    for (name, a) in [
        ("laplace2d_9pt(64)", laplace2d_9pt(64, 64)),
        ("ML_Geer n = 4000", geer(4000)),
    ] {
        let b = rhs(&a);
        let (_, serial) = SStepGmres::new(two_stage()).solve_serial(&a, &b);
        assert!(serial.converged, "{name}: {:?}", serial.breakdown);
        for nranks in ranks_under_test(&[3]) {
            let part = block_row_partition(a.nrows(), nranks);
            let per_rank = run_ranks(nranks, |comm| {
                let (lo, hi) = part.range(comm.rank());
                let dist = DistCsr::from_global(comm, &a, &part);
                let mut x = vec![0.0; hi - lo];
                SStepGmres::new(two_stage()).solve(&dist, &Identity, &b[lo..hi], &mut x)
            });
            for r in &per_rank {
                assert!(r.converged, "{name}, {nranks} ranks");
                assert_eq!(r.iterations, serial.iterations, "{name}, {nranks} ranks");
                assert_eq!(r.comm_ortho, serial.comm_ortho, "{name}, {nranks} ranks");
                assert_eq!(decisions(r), decisions(&serial), "{name}, {nranks} ranks");
            }
        }
    }
}

#[test]
fn a_big_panel_flushed_before_the_next_panel_starts_is_read_as_final() {
    // With bs < m the next panel starts from the last column of a big
    // panel that was just flushed: that column is Q_c itself, not the
    // pre-processed vector the flush's T factor represents.  One full
    // cycle of two-stage must then reach PIP2's residual on every split of
    // the cycle into big panels, bs = m included.
    let _lock = thread_lock();
    let a = geer(4000);
    let b = rhs(&a);
    for m in [30, 40] {
        let one_cycle = |ortho| {
            let r = SStepGmres::new(GmresConfig {
                tol: 1e-30,
                max_restarts: 1,
                ..config(m, ortho)
            })
            .solve_serial(&a, &b)
            .1;
            assert_eq!(r.breakdown, None, "m = {m}, {ortho:?}");
            assert_eq!(r.iterations, m, "m = {m}, {ortho:?}");
            r.final_relres[0]
        };
        let pip2 = one_cycle(OrthoKind::BcgsPip2);
        for bs in [10, 15, 20, m] {
            let two = one_cycle(OrthoKind::TwoStage { big_panel: bs });
            assert!(
                two <= 1.01 * pip2 && pip2 <= 1.01 * two,
                "m = {m}, bs = {bs}: relres {two:e} vs PIP2 {pip2:e}"
            );
        }
    }
}
