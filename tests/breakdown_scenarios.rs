//! Breakdown-scenario battery: engineered near-rank-deficient panels run
//! through **every** orthogonalization scheme, plus solver-level scenarios
//! where the matrix-powers basis collapses.
//!
//! The contract pinned here: an orthogonalizer either succeeds to its
//! documented orthogonality (O(ε) for every reorthogonalized scheme, the
//! `c·ε·κ²` envelope for single-pass BCGS-PIP), or *reports* what happened
//! — an `OrthoError`, or a remedial-fallback event with per-stage detail.
//! It never silently returns garbage.  On top sit determinism properties:
//! the `StepPolicy::Auto` controller's decisions (realized step schedule,
//! verdicts, rescues) are stable across simulated rank counts (including
//! the `DISTSIM_TEST_RANKS` CI sweep), because every signal it reads is
//! replicated.

mod common;

use blockortho::{make_orthogonalizer, OrthoError, OrthoKind};
use common::{ranks_under_test, rhs_ones};
use dense::Matrix;
use distsim::{run_ranks, Communicator, DistCsr, DistMultiVector, SerialComm};
use proptest::prelude::*;
use sparse::{block_row_partition, elasticity3d, laplace2d_9pt};
use ssgmres::{
    BasisStrategy, CycleVerdict, GmresConfig, Identity, OrthoKind as SolverOrthoKind, SStepGmres,
    SolveResult, StepPolicy,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Panel-level battery
// ---------------------------------------------------------------------------

const ALL_SCHEMES: &[OrthoKind] = &[
    OrthoKind::Bcgs2CholQr2,
    OrthoKind::BcgsPip2,
    OrthoKind::BcgsPip,
    OrthoKind::TwoStage { big_panel: 12 },
    OrthoKind::TwoStage { big_panel: 8 },
    OrthoKind::RandCholQr,
    OrthoKind::TwoStageSketched { big_panel: 12 },
    OrthoKind::TwoStageSketched { big_panel: 8 },
    OrthoKind::Cgs2,
];

/// A deterministic well-conditioned base panel.
fn base_matrix(n: usize, c: usize) -> Matrix {
    Matrix::from_fn(n, c, |i, j| {
        ((i * 23 + j * 7) % 31) as f64 * 0.08 - 1.1 + if (i + 2 * j) % 11 == 0 { 1.8 } else { 0.0 }
    })
}

/// Drive a matrix panel-by-panel through a scheme.  On success returns the
/// final basis and the number of distinct fallback episodes the scheme
/// reported.
fn run_panels(kind: OrthoKind, v: &Matrix, panel: usize) -> Result<(Matrix, usize), OrthoError> {
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
    let mut r = Matrix::zeros(v.ncols(), v.ncols());
    let mut scheme = make_orthogonalizer(kind, v.ncols());
    let mut start = 0;
    while start < v.ncols() {
        let end = (start + panel).min(v.ncols());
        scheme.orthogonalize_panel(&mut basis, start..end, &mut r)?;
        start = end;
    }
    scheme.finish(&mut basis, &mut r)?;
    Ok((basis.local().clone(), scheme.fallback_count()))
}

/// The battery check: success means the scheme's documented orthogonality
/// was delivered; anything else must have been reported.
fn check_scenario(name: &str, v: &Matrix, panel: usize) {
    let kappa = dense::cond_2(&v.view());
    for &kind in ALL_SCHEMES {
        match run_panels(kind, v, panel) {
            Err(_) => {
                // Reported: the solver sees the error and reacts.  Never a
                // silent failure.
            }
            Ok((q, fallbacks)) => {
                let err = dense::orthogonality_error(&q.view());
                if fallbacks > 0 {
                    // The remedial path ran AND was reported; the result it
                    // returned must still be a usable orthonormal basis.
                    assert!(
                        err < 1e-8,
                        "{name} / {kind:?}: remediated result is garbage (err {err:.2e})"
                    );
                } else if matches!(kind, OrthoKind::BcgsPip) {
                    // Single-pass PIP's documented envelope is c*eps*kappa^2.
                    let envelope = 1e3 * f64::EPSILON * kappa * kappa;
                    assert!(
                        err < envelope.max(1e-10),
                        "{name} / {kind:?}: error {err:.2e} exceeds the eps*kappa^2 \
                         envelope {envelope:.2e} (kappa {kappa:.2e})"
                    );
                } else {
                    // Reorthogonalized schemes that claim success without a
                    // fallback must deliver O(eps) orthogonality.
                    assert!(
                        err < 1e-10,
                        "{name} / {kind:?}: silent garbage — claimed success \
                         with orthogonality error {err:.2e} (kappa {kappa:.2e})"
                    );
                }
            }
        }
    }
}

#[test]
fn duplicated_krylov_directions_are_never_silent() {
    // Column 7 duplicates column 2 exactly — the panel the matrix-powers
    // kernel produces when the Krylov space stalls.
    let mut v = base_matrix(300, 12);
    for i in 0..300 {
        let x = v[(i, 2)];
        v[(i, 7)] = x;
    }
    check_scenario("duplicated-direction", &v, 4);
}

#[test]
fn nearly_duplicated_directions_are_never_silent() {
    // Column 10 = column 3 + O(1e-14) noise: numerically rank deficient
    // without being exactly singular.
    let mut v = base_matrix(300, 12);
    for i in 0..300 {
        let x = v[(i, 3)];
        v[(i, 10)] = x + 1e-14 * ((i % 17) as f64 - 8.0);
    }
    check_scenario("nearly-duplicated-direction", &v, 4);
}

#[test]
fn kappa_near_inverse_epsilon_panels_are_never_silent() {
    // kappa ~ 1/eps: at (and beyond) the edge of numerical full rank.
    for kappa in [1e12, 1e15, 1e16] {
        let v = testmat::logscaled_matrix(300, 12, kappa, 5);
        check_scenario(&format!("logscaled kappa={kappa:.0e}"), &v, 4);
    }
}

#[test]
fn zero_columns_are_never_silent() {
    let mut v = base_matrix(250, 12);
    for i in 0..250 {
        v[(i, 9)] = 0.0;
    }
    check_scenario("zero-column", &v, 4);
    // Zero column at a panel start, too.
    let mut v = base_matrix(250, 12);
    for i in 0..250 {
        v[(i, 4)] = 0.0;
    }
    check_scenario("zero-column-at-panel-start", &v, 4);
}

#[test]
fn single_column_panels_are_never_silent() {
    // The s = 1 degeneration every scheme must support (the rescue floor).
    let mut v = base_matrix(200, 8);
    for i in 0..200 {
        let x = v[(i, 1)];
        v[(i, 6)] = x;
    }
    check_scenario("duplicated-direction s=1", &v, 1);
}

// ---------------------------------------------------------------------------
// Solver-level scenarios
// ---------------------------------------------------------------------------

#[test]
fn solver_reports_or_converges_for_every_scheme_and_policy_on_elasticity_s12() {
    // elasticity3d at s = 12: the monomial panel is decisively rank
    // deficient (s = 8 now sits on the knife edge of the SIMD Gram
    // kernels' last ulps).  Whatever the scheme and step policy, the solver must
    // either converge or carry an explicit breakdown report — a completed
    // SolveResult with `converged == false` and no explanation would be a
    // silent failure.
    let a = elasticity3d(5, 5, 5);
    let b = rhs_ones(&a);
    for scheme in [
        SolverOrthoKind::Bcgs2CholQr2,
        SolverOrthoKind::BcgsPip2,
        SolverOrthoKind::TwoStage { big_panel: 32 },
    ] {
        let mut fixed_converged = false;
        for policy in [StepPolicy::Fixed, StepPolicy::Auto] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 32,
                step_size: 12,
                tol: 1e-8,
                max_iters: 20_000,
                ortho: scheme,
                basis: BasisStrategy::Monomial,
                step_policy: policy.clone(),
                ..GmresConfig::default()
            });
            let (x, r) = solver.solve_serial(&a, &b);
            if r.converged {
                let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
                assert!(
                    err < 1e-4,
                    "{scheme:?}/{policy:?}: converged to a wrong answer (err {err:.2e})"
                );
            } else {
                assert!(
                    r.breakdown.is_some() || r.iterations >= 20_000,
                    "{scheme:?}/{policy:?}: silent non-convergence: {r:?}"
                );
                // The health reports must show what went wrong.
                assert!(
                    r.health_history
                        .iter()
                        .any(|h| h.verdict == CycleVerdict::Breakdown),
                    "{scheme:?}/{policy:?}: no breakdown verdict recorded"
                );
            }
            if matches!(policy, StepPolicy::Fixed) {
                fixed_converged = r.converged;
            }
            // Auto must rescue the canonical two-stage scenario outright.
            // Whether the rescue is *needed* sits on the rank-deficiency
            // knife edge (it hinges on the last ulps of the Gram kernels),
            // so the step-shrink count is only pinned when Fixed actually
            // failed; convergence is pinned unconditionally.
            if matches!(scheme, SolverOrthoKind::TwoStage { .. })
                && matches!(policy, StepPolicy::Auto)
            {
                assert!(r.converged, "Auto + two-stage must rescue: {r:?}");
                if !fixed_converged {
                    assert!(r.rescues >= 1, "Fixed broke down but Auto never shrank");
                }
            }
        }
    }
}

#[test]
fn auto_with_sketched_ortho_holds_full_step_where_plain_two_stage_halves() {
    // Monomial basis on a 9-pt Laplacian at s = 10: the panel's condition
    // number grows exponentially in s, crossing the Cholesky-on-Gram
    // crossover while the panel stays numerically full rank.  The plain
    // two-stage first stage records remedial episodes there, so the Auto
    // controller halves the step; the sketched schemes draw their factor
    // from the sketch QR instead of the squared Gram, record no episodes,
    // and hold the full step at the same per-panel reduce count (that
    // count parity is pinned in `blockortho`'s tests and
    // `tests/comm_volume_validation.rs`).
    let a = laplace2d_9pt(16, 16);
    let b = rhs_ones(&a);
    let run = |ortho: SolverOrthoKind| {
        let solver = SStepGmres::new(GmresConfig {
            restart: 24,
            step_size: 10,
            tol: 1e-8,
            max_iters: 20_000,
            ortho,
            basis: BasisStrategy::Monomial,
            step_policy: StepPolicy::Auto,
            ..GmresConfig::default()
        });
        solver.solve_serial(&a, &b)
    };
    let (x_plain, plain) = run(SolverOrthoKind::TwoStage { big_panel: 24 });
    assert!(plain.converged, "{plain:?}");
    let err = x_plain
        .iter()
        .map(|v| (v - 1.0).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-4, "plain two-stage converged to a wrong answer");
    assert!(
        plain.rescues >= 1,
        "the scenario must force the plain first stage into a rescue: {plain:?}"
    );
    for ortho in [
        SolverOrthoKind::RandCholQr,
        SolverOrthoKind::TwoStageSketched { big_panel: 24 },
    ] {
        let (x, r) = run(ortho);
        assert!(r.converged, "{ortho:?}: {r:?}");
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        assert!(
            err < 1e-4,
            "{ortho:?}: converged to a wrong answer ({err:.2e})"
        );
        assert!(
            r.rescues < plain.rescues,
            "{ortho:?}: {} rescues, expected fewer than the plain two-stage's {}",
            r.rescues,
            plain.rescues
        );
        assert_eq!(r.rescues, 0, "{ortho:?}: expected to hold the full step");
        assert!(
            r.steps().iter().all(|&s| s == 10),
            "{ortho:?}: step halved anyway: {:?}",
            r.steps()
        );
    }
}

#[test]
fn step_size_equal_to_restart_edge_works_under_both_policies() {
    // s = restart: one matrix-powers panel spans the whole cycle.  Both
    // policies must handle it; with clean cycles Auto realizes the same
    // steps as Fixed.  (s = 6 keeps the monomial panel solvable — at
    // s = 12 the panel is rank deficient by construction, which is the
    // rescue scenario above, not the edge-shape scenario here.)
    let a = laplace2d_9pt(12, 12);
    let b = rhs_ones(&a);
    let run = |policy: StepPolicy| {
        SStepGmres::new(GmresConfig {
            restart: 6,
            step_size: 6,
            tol: 1e-8,
            ortho: SolverOrthoKind::BcgsPip2,
            step_policy: policy,
            ..GmresConfig::default()
        })
        .solve_serial(&a, &b)
    };
    let (x_fixed, r_fixed) = run(StepPolicy::Fixed);
    let (x_auto, r_auto) = run(StepPolicy::Auto);
    assert!(r_fixed.converged, "{r_fixed:?}");
    assert!(r_auto.converged, "{r_auto:?}");
    assert!(r_fixed.steps().iter().all(|&s| s == 6));
    if r_auto.rescues == 0 {
        assert_eq!(x_fixed, x_auto, "healthy Auto must match Fixed bitwise");
        assert_eq!(r_fixed.steps(), r_auto.steps());
    }
}

// ---------------------------------------------------------------------------
// Determinism of the Auto controller's decisions
// ---------------------------------------------------------------------------

/// The decision trace of a solve: per-cycle (step, verdict, #shifts) up to
/// the point where the rescue configuration is reached, plus convergence.
///
/// What is deliberately *not* compared: shift values (reduction order, and
/// thus the last ulps of harvested Ritz values, legitimately differs
/// across thread/rank counts) and anything after the first cycle that runs
/// with harvested shifts or drives the residual near the tolerance.  A
/// rescued cycle converges violently (1e-1 → 1e-15 within a few columns),
/// so *which column* makes its panel degenerate — and therefore that
/// cycle's verdict and everything after it — is genuinely chaotic in the
/// last ulps.  The deterministic property pinned here is the part the
/// controller owns: collapse detection, the halve cascade, and the
/// re-harvest configuration (same steps, same verdicts, same shift counts)
/// — plus that every configuration converges regardless of how the
/// post-rescue luck falls.
fn decision_trace(r: &SolveResult) -> (Vec<(usize, Option<CycleVerdict>, usize)>, bool) {
    let mut cycles = Vec::new();
    for h in &r.health_history {
        let shifts = h.shifts.len();
        let rescued = shifts > 0;
        let near_tol = matches!(h.relres, Some(v) if v < 1e-10);
        if rescued || near_tol {
            // Step and shift count were decided *before* this cycle ran —
            // still deterministic; the cycle's outcome is not.
            cycles.push((h.step, None, shifts));
            break;
        }
        cycles.push((h.step, Some(h.verdict), shifts));
    }
    (cycles, r.converged)
}

fn auto_config(restart: usize, s: usize) -> GmresConfig {
    GmresConfig {
        restart,
        step_size: s,
        tol: 1e-8,
        max_iters: 20_000,
        // big_panel < restart keeps `finalized` advancing so the in-cycle
        // convergence estimate exits a cycle before fully converged
        // directions make its last panels linearly dependent.  Near the
        // convergence floor that "lucky breakdown" hinges on the last ulps
        // of reduction order, which *is* rank-count dependent — the
        // decisions pinned here are the rescue decisions, not luck.
        ortho: SolverOrthoKind::TwoStage { big_panel: 8 },
        basis: BasisStrategy::Monomial,
        step_policy: StepPolicy::Auto,
        ..GmresConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn auto_decisions_agree_across_ranks_and_rescue_across_rank_counts(
        nx in 4usize..6,
        s in 6usize..9,
    ) {
        // Every health signal the controller consumes is replicated, so
        // within one distributed run ALL ranks must take bitwise-identical
        // decisions — a single diverging rank would change its collective
        // sequence and deadlock a real MPI run.  Across *different* rank
        // counts the reduction order differs in the last ulps, which can
        // legitimately move the exact panel where an exponentially growing
        // basis condition number crosses the Cholesky threshold; what must
        // hold is that the initial collapse detection, the first shrink
        // target, and convergence agree with the serial run.
        let a = elasticity3d(nx, nx, nx);
        let n = a.nrows();
        let b = rhs_ones(&a);
        let config = auto_config(32, s);
        let (_, serial) = SStepGmres::new(config.clone()).solve_serial(&a, &b);
        let (serial_trace, serial_conv) = decision_trace(&serial);
        prop_assert!(serial_conv, "serial run must converge");
        for nranks in ranks_under_test(&[2, 3]) {
            let part = block_row_partition(n, nranks);
            let records = run_ranks(nranks, |comm| {
                let (lo, hi) = part.range(comm.rank());
                let comm_dyn: Arc<dyn Communicator> = comm;
                let dist = DistCsr::from_global(comm_dyn, &a, &part);
                let mut x = vec![0.0; hi - lo];
                let r = SStepGmres::new(config.clone()).solve(&dist, &Identity, &b[lo..hi], &mut x);
                // The full decision record, shift values included — within
                // one run these are replicated and must match bitwise.
                (
                    r.steps(),
                    r.shifts(),
                    r.health_history
                        .iter()
                        .map(|h| (h.verdict, h.fallbacks, h.stagnated, h.usable_cols))
                        .collect::<Vec<_>>(),
                    r.rescues,
                    r.converged,
                    decision_trace(&r),
                )
            });
            for (rank, rec) in records.iter().enumerate() {
                prop_assert!(
                    rec == &records[0],
                    "nranks {nranks}: rank {rank} diverged from rank 0 within the same run"
                );
            }
            let (_, _, _, rescues, converged, (trace, _)) = &records[0];
            prop_assert!(*converged, "nranks {nranks} must converge");
            // Initial detection matches serial when cycle 0 is far beyond
            // the conditioning threshold.  A `None` verdict in either first
            // entry means that run was already rescued or at the
            // convergence floor in cycle 0 — the knife-edge regime where
            // the last ulps of reduction order legitimately decide — so
            // the comparison is skipped there.
            let knife_edge = matches!(trace.first(), Some((_, None, _)))
                || matches!(serial_trace.first(), Some((_, None, _)));
            prop_assert!(
                knife_edge || trace.first() == serial_trace.first(),
                "nranks {nranks}: first-cycle decision diverged: {trace:?} vs {serial_trace:?}"
            );
            // If serial needed a rescue, so does every rank count, with
            // the same first shrink target.
            if serial.rescues > 0 {
                prop_assert!(*rescues > 0, "nranks {nranks}: rescue missing");
                prop_assert_eq!(records[0].0[1], serial.steps()[1]);
            }
        }
    }
}
