//! Cross-crate integration tests: full GMRES solves on the paper's problem
//! classes with every orthogonalization scheme and preconditioner
//! combination, checking solutions against the known exact answer.

mod common;

use common::rhs_ones;
use sparse::{
    elasticity3d, laplace2d_5pt, laplace2d_9pt, laplace3d_7pt, scale_rows_cols_by_max,
    suitesparse_surrogate, Csr, SUITE_SPARSE_SET,
};
use ssgmres::{
    standard_gmres_config, BasisStrategy, GmresConfig, MulticolorGaussSeidel, OrthoKind, SStepGmres,
};

fn max_err(x: &[f64]) -> f64 {
    x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max)
}

#[test]
fn every_scheme_solves_every_model_problem() {
    let problems: Vec<(&str, Csr)> = vec![
        ("laplace2d_5pt", laplace2d_5pt(20, 20)),
        ("laplace2d_9pt", laplace2d_9pt(18, 18)),
        ("laplace3d_7pt", laplace3d_7pt(8, 8, 8)),
        ("elasticity3d", elasticity3d(5, 5, 5)),
    ];
    let schemes = [
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::TwoStage { big_panel: 30 },
    ];
    for (name, a) in &problems {
        let b = rhs_ones(a);
        for scheme in schemes {
            let solver = SStepGmres::new(GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-9,
                ortho: scheme,
                ..GmresConfig::default()
            });
            let (x, result) = solver.solve_serial(a, &b);
            assert!(result.converged, "{name} with {scheme:?}: {result:?}");
            assert!(
                max_err(&x) < 1e-6,
                "{name} with {scheme:?}: max error {}",
                max_err(&x)
            );
        }
    }
}

#[test]
fn standard_and_sstep_gmres_agree_on_solution() {
    let a = laplace2d_9pt(16, 16);
    let b = rhs_ones(&a);
    let (x_std, r_std) = SStepGmres::new(GmresConfig {
        restart: 30,
        tol: 1e-10,
        ..standard_gmres_config()
    })
    .solve_serial(&a, &b);
    let (x_ss, r_ss) = SStepGmres::new(GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-10,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    })
    .solve_serial(&a, &b);
    assert!(r_std.converged && r_ss.converged);
    for (p, q) in x_std.iter().zip(&x_ss) {
        assert!((p - q).abs() < 1e-7, "solutions diverge: {p} vs {q}");
    }
}

#[test]
fn preconditioners_compose_with_every_scheme() {
    let a = laplace2d_5pt(22, 22);
    let b = rhs_ones(&a);
    let gs = MulticolorGaussSeidel::new(&a, 2);
    let mc = MulticolorGaussSeidel::new(&a, 1);
    let preconds: [(&str, &dyn ssgmres::Preconditioner); 2] = [("gs", &gs), ("multicolor", &mc)];
    for scheme in [OrthoKind::BcgsPip2, OrthoKind::TwoStage { big_panel: 30 }] {
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ortho: scheme,
            ..GmresConfig::default()
        });
        let (_, unpreconditioned) = solver.solve_serial(&a, &b);
        for (name, p) in preconds {
            let (x, result) = solver.solve_serial_preconditioned(&a, &b, p);
            assert!(result.converged, "{name} with {scheme:?}");
            assert!(max_err(&x) < 1e-5, "{name} with {scheme:?}");
            assert!(
                result.iterations <= unpreconditioned.iterations,
                "{name} with {scheme:?} should not need more iterations"
            );
        }
    }
}

#[test]
fn scaled_suitesparse_surrogates_converge_with_two_stage() {
    // The paper's SuiteSparse experiments: row/column scaled, non-symmetric.
    for spec in SUITE_SPARSE_SET.iter().take(3) {
        let raw = suitesparse_surrogate(spec, Some(2_000), 9);
        let a = scale_rows_cols_by_max(&raw);
        let b = rhs_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 60,
            step_size: 5,
            tol: 1e-6,
            max_iters: 30_000,
            ortho: OrthoKind::TwoStage { big_panel: 60 },
            ..GmresConfig::default()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{}: {result:?}", spec.name);
        assert!(max_err(&x) < 1e-3, "{}: max err {}", spec.name, max_err(&x));
    }
}

#[test]
fn zero_shift_newton_is_bitwise_identical_to_monomial() {
    // A Newton basis with no shifts (or all-zero shifts) applies theta = 0
    // to every column, which the matrix-powers kernel skips entirely — the
    // full solve must be bitwise identical to the monomial solve: same
    // solution bits, same residual history, same communication counts.
    let a = laplace2d_9pt(18, 18);
    let b = rhs_ones(&a);
    let run = |basis: BasisStrategy| {
        SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            basis,
            ..GmresConfig::default()
        })
        .solve_serial(&a, &b)
    };
    let (x_mono, r_mono) = run(BasisStrategy::Monomial);
    for basis in [
        BasisStrategy::Newton { shifts: vec![] },
        BasisStrategy::Newton {
            shifts: vec![0.0, 0.0, 0.0],
        },
    ] {
        let (x, r) = run(basis.clone());
        assert!(r.converged && r_mono.converged);
        assert_eq!(x, x_mono, "{basis:?}: solution bits diverge");
        assert_eq!(r.iterations, r_mono.iterations, "{basis:?}");
        assert_eq!(r.restarts, r_mono.restarts, "{basis:?}");
        assert_eq!(r.relres_history, r_mono.relres_history, "{basis:?}");
        assert_eq!(r.final_relres, r_mono.final_relres, "{basis:?}");
        assert_eq!(r.comm_total, r_mono.comm_total, "{basis:?}");
        assert_eq!(r.comm_ortho, r_mono.comm_ortho, "{basis:?}");
    }
}

#[test]
fn adaptive_solve_matches_scheduled_replay_bitwise() {
    // The adaptive policy's entire effect must flow through the shifts it
    // harvests: replaying its recorded per-cycle shift schedule through
    // BasisStrategy::Scheduled reproduces the solve bitwise (solution,
    // residual history, communication counts).
    let a0 = laplace2d_5pt(20, 20);
    let a = scale_rows_cols_by_max(&a0);
    let b = rhs_ones(&a);
    let config = GmresConfig {
        restart: 24,
        step_size: 6,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 24 },
        basis: BasisStrategy::adaptive(),
        ..GmresConfig::default()
    };
    let (x_ad, r_ad) = SStepGmres::new(config.clone()).solve_serial(&a, &b);
    assert!(r_ad.converged, "{r_ad:?}");
    assert!(
        r_ad.shifts().iter().any(|s| !s.is_empty()),
        "adaptive run must have harvested shifts at least once: {:?}",
        r_ad.shifts()
    );
    // First cycle is the monomial warm-up.
    assert!(r_ad.shifts()[0].is_empty());
    let (x_replay, r_replay) = SStepGmres::new(GmresConfig {
        basis: BasisStrategy::Scheduled {
            per_cycle: r_ad.shifts(),
        },
        ..config
    })
    .solve_serial(&a, &b);
    assert_eq!(x_replay, x_ad, "replayed solution bits diverge");
    assert_eq!(r_replay.iterations, r_ad.iterations);
    assert_eq!(r_replay.restarts, r_ad.restarts);
    assert_eq!(r_replay.relres_history, r_ad.relres_history);
    assert_eq!(r_replay.shifts(), r_ad.shifts());
    assert_eq!(r_replay.comm_total, r_ad.comm_total);
    assert_eq!(r_replay.comm_ortho, r_ad.comm_ortho);
}

#[test]
fn newton_shifts_leave_the_communication_structure_unchanged() {
    // The shifted matrix-powers kernel applies theta locally after the halo
    // exchange, and shift harvesting runs on the replicated Hessenberg —
    // so against a fixed iteration budget the Newton and adaptive bases
    // must produce exactly the communication counts of the monomial basis.
    let a = laplace2d_5pt(16, 16);
    let b = rhs_ones(&a);
    let run = |basis: BasisStrategy| {
        SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-30, // never converges: both runs use the full budget
            max_restarts: 3,
            ortho: OrthoKind::TwoStage { big_panel: 20 },
            basis,
            ..GmresConfig::default()
        })
        .solve_serial(&a, &b)
        .1
    };
    let mono = run(BasisStrategy::Monomial);
    let newton = run(BasisStrategy::Newton {
        shifts: vec![6.0, 2.0, 4.0, 1.0, 7.0],
    });
    let adaptive = run(BasisStrategy::adaptive());
    assert_eq!(mono.iterations, newton.iterations);
    assert_eq!(mono.iterations, adaptive.iterations);
    assert_eq!(
        mono.comm_total, newton.comm_total,
        "fixed Newton shifts changed communication"
    );
    assert_eq!(
        mono.comm_total, adaptive.comm_total,
        "adaptive harvesting changed communication"
    );
    assert_eq!(mono.comm_ortho, newton.comm_ortho);
    assert_eq!(mono.comm_ortho, adaptive.comm_ortho);
}

#[test]
fn adaptive_basis_condition_number_beats_monomial_at_s8() {
    // The acceptance pin behind BENCH_basis.json: for s = 8 on the 2-D
    // Laplace stencil, the harvested adaptive Newton basis has strictly
    // lower measured condition number than the monomial basis.  This runs
    // the same pipeline as `bench --bin basis_compare`: a monomial warm-up
    // solve harvests Ritz shifts, and the resulting basis is measured with
    // the Jacobi-SVD condition number.
    let a = laplace2d_5pt(24, 24);
    let b = rhs_ones(&a);
    let s = 8;
    let warmup = SStepGmres::new(GmresConfig {
        restart: 24,
        step_size: s,
        tol: 1e-30,
        max_restarts: 1,
        ortho: OrthoKind::TwoStage { big_panel: 24 },
        basis: BasisStrategy::adaptive(),
        ..GmresConfig::default()
    })
    .solve_serial(&a, &b)
    .1;
    let shifts = warmup.last_harvest.expect("warm-up harvest must succeed");
    assert!(shifts.len() <= s);
    let v0 = b.clone();
    let kappa_mono = ssgmres::shifts::basis_condition_number(&a, &[], s, &v0);
    let kappa_newton = ssgmres::shifts::basis_condition_number(&a, &shifts, s, &v0);
    assert!(
        kappa_newton < kappa_mono,
        "adaptive Newton basis must beat monomial at s=8: {kappa_newton:.3e} vs {kappa_mono:.3e}"
    );
    // The gap must be substantive (the monomial basis degrades
    // exponentially in s; Leja shifts keep the growth polynomial).
    assert!(
        kappa_newton < 0.5 * kappa_mono,
        "expected a substantive conditioning gain: {kappa_newton:.3e} vs {kappa_mono:.3e}"
    );
}

#[test]
fn adaptive_basis_converges_on_the_papers_problem_classes() {
    // The adaptive Newton basis must not regress convergence anywhere the
    // monomial basis works, including at step sizes beyond the paper's
    // conservative s = 5 where the monomial basis begins to strain.  (The
    // adaptive warm-up cycle is monomial, so step sizes where even one
    // monomial panel collapses — laplace2d at s = 16, elasticity3d at
    // s ≥ 9 — need the warm-up shift-oracle pattern below or the
    // step-shrink controller instead.)
    for (name, a, s) in [
        ("laplace2d_9pt", laplace2d_9pt(16, 16), 5),
        ("laplace2d_9pt", laplace2d_9pt(16, 16), 8),
        ("elasticity3d", elasticity3d(5, 5, 5), 5),
    ] {
        let b = rhs_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 32,
            step_size: s,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 32 },
            basis: BasisStrategy::adaptive(),
            ..GmresConfig::default()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{name} s={s}: {result:?}");
        assert!(max_err(&x) < 1e-5, "{name} s={s}: {}", max_err(&x));
    }
}

#[test]
fn warmup_shift_oracle_rescues_step_sizes_the_monomial_basis_cannot_run() {
    // laplace2d_9pt at s = 16: the monomial matrix-powers panel is
    // decisively rank deficient, so the plain solve dies.  Harvesting
    // shifts from a short s = 4 warm-up cycle (SolveResult::last_harvest)
    // and running fixed Newton shifts at s = 16 converges — the Newton
    // basis opens a step size the monomial basis cannot reach at all.
    // (The Laplace spectrum is spread enough that the harvest keeps a full
    // complement of distinct shifts; elasticity3d's clustered Ritz values
    // dedupe down to a handful, which is the step-shrink controller's
    // territory — see tests/controller_equivalence.rs.)
    let a = laplace2d_9pt(16, 16);
    let b = rhs_ones(&a);
    let s = 16;
    let monomial = SStepGmres::new(GmresConfig {
        restart: 32,
        step_size: s,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 32 },
        basis: BasisStrategy::Monomial,
        ..GmresConfig::default()
    })
    .solve_serial(&a, &b)
    .1;
    assert!(
        !monomial.converged && monomial.breakdown.is_some(),
        "premise: monomial s=16 must break down on laplace2d_9pt(16,16): {monomial:?}"
    );
    let warmup = SStepGmres::new(GmresConfig {
        restart: 24,
        step_size: 4,
        tol: 1e-30,
        max_restarts: 1,
        ortho: OrthoKind::TwoStage { big_panel: 24 },
        basis: BasisStrategy::Adaptive { max_shifts: s },
        ..GmresConfig::default()
    })
    .solve_serial(&a, &b)
    .1;
    let shifts = warmup.last_harvest.expect("warm-up harvest");
    let (x, newton) = SStepGmres::new(GmresConfig {
        restart: 32,
        step_size: s,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 32 },
        basis: BasisStrategy::Newton { shifts },
        ..GmresConfig::default()
    })
    .solve_serial(&a, &b);
    assert!(newton.converged, "{newton:?}");
    assert!(max_err(&x) < 1e-5, "max err {}", max_err(&x));
}

#[test]
fn reduce_counts_follow_the_papers_ordering_end_to_end() {
    // End-to-end synchronization counts (the paper's core performance claim),
    // measured on real solves of the same problem with identical tolerances.
    let a = laplace2d_9pt(20, 20);
    let b = rhs_ones(&a);
    let run = |ortho, step| {
        let cfg = if step == 1 {
            GmresConfig {
                restart: 30,
                tol: 1e-8,
                ..standard_gmres_config()
            }
        } else {
            GmresConfig {
                restart: 30,
                step_size: step,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            }
        };
        SStepGmres::new(cfg).solve_serial(&a, &b).1
    };
    let standard = run(OrthoKind::Cgs2, 1);
    let bcgs2 = run(OrthoKind::Bcgs2CholQr2, 5);
    let pip2 = run(OrthoKind::BcgsPip2, 5);
    let two_stage = run(OrthoKind::TwoStage { big_panel: 30 }, 5);
    let per_iter = |r: &ssgmres::SolveResult| r.comm_ortho.allreduces as f64 / r.iterations as f64;
    assert!(per_iter(&two_stage) < per_iter(&pip2));
    assert!(per_iter(&pip2) < per_iter(&bcgs2));
    assert!(per_iter(&bcgs2) < per_iter(&standard) + 1.0);
    // Standard GMRES: 3 reduces per iteration; two-stage: ~(1/s + 1/bs).
    assert!((per_iter(&standard) - 3.0).abs() < 0.5);
    assert!(per_iter(&two_stage) < 0.5);
}
