//! Property-based tests (proptest) of the core numerical invariants the
//! paper's analysis relies on.

use blockortho::{orthogonalize_matrix, OrthoKind};
use dense::{cond_2, orthogonality_error, Matrix};
use proptest::prelude::*;
use testmat::{glued_matrix, logscaled_matrix, GluedSpec};

/// QR reconstruction check: `‖Q·R − V‖_max ≤ tol·‖V‖_max`.
fn reconstructs(q: &Matrix, r: &Matrix, v: &Matrix, tol: f64) -> bool {
    let back = dense::gemm_nn(q, r);
    let scale = v.max_abs().max(1.0);
    back.sub(v).max_abs() <= tol * scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_schemes_factorize_well_conditioned_panels(
        seed in 0u64..1_000,
        kappa_exp in 0u32..6,
        s in 2usize..6,
        panels in 2usize..5,
    ) {
        let kappa = 10f64.powi(kappa_exp as i32);
        let n = 300;
        let v = glued_matrix(
            &GluedSpec {
                nrows: n,
                panel_cols: s,
                num_panels: panels,
                panel_cond: kappa,
                glue_cond: 10.0,
            },
            seed,
        );
        for kind in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 2 * s },
        ] {
            let (q, r) = orthogonalize_matrix(kind, &v, s).expect("well-conditioned input must not break down");
            prop_assert!(orthogonality_error(&q.view()) < 1e-11, "{kind:?}");
            prop_assert!(reconstructs(&q, &r, &v, 1e-9), "{kind:?}");
            // R upper triangular with positive diagonal.
            for j in 0..v.ncols() {
                prop_assert!(r[(j, j)] > 0.0);
                for i in (j + 1)..v.ncols() {
                    prop_assert!(r[(i, j)] == 0.0);
                }
            }
        }
    }

    #[test]
    fn cholqr_error_grows_with_condition_number_squared(
        seed in 0u64..1_000,
        kappa_exp in 1u32..7,
    ) {
        // Bound (2) of the paper: ‖I − Q̂ᵀQ̂‖ ≲ c₁·κ(V)².
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = logscaled_matrix(400, 5, kappa, seed);
        let mut basis = distsim::DistMultiVector::from_matrix(distsim::SerialComm::new(), v.clone());
        if blockortho::kernels::cholqr(&mut basis, 0..5).is_ok() {
            let err = orthogonality_error(&basis.local().cols(0..5));
            let bound = 100.0 * 5.0 * (400.0 * 5.0 + 30.0) * f64::EPSILON * kappa * kappa;
            prop_assert!(err <= bound.max(1e-14), "err {err} vs bound {bound}");
        }
    }

    #[test]
    fn householder_qr_is_unconditionally_orthogonal(
        seed in 0u64..1_000,
        kappa_exp in 0u32..14,
    ) {
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = logscaled_matrix(200, 4, kappa, seed);
        let (q, r) = dense::householder_qr(&v);
        prop_assert!(orthogonality_error(&q.view()) < 1e-12);
        prop_assert!(reconstructs(&q, &r, &v, 1e-10));
    }

    #[test]
    fn glued_matrices_have_prescribed_conditioning(
        seed in 0u64..1_000,
        panel_exp in 1u32..5,
        glue_exp in 1u32..4,
    ) {
        let spec = GluedSpec {
            nrows: 300,
            panel_cols: 4,
            num_panels: 3,
            panel_cond: 10f64.powi(panel_exp as i32),
            glue_cond: 10f64.powi(glue_exp as i32),
        };
        let v = glued_matrix(&spec, seed);
        let overall = cond_2(&v.view());
        let expect = spec.panel_cond * spec.glue_cond;
        prop_assert!(overall / expect > 0.2 && overall / expect < 5.0,
            "overall {overall} vs expected {expect}");
        for p in 0..3 {
            let kappa = cond_2(&v.cols(p * 4..(p + 1) * 4));
            prop_assert!(kappa / spec.panel_cond > 0.3 && kappa / spec.panel_cond < 3.0);
        }
    }

    #[test]
    fn two_sync_schemes_keep_o_eps_orthogonality_below_the_crossover(
        seed in 0u64..1_000,
        kappa_exp in 1u32..7,
        s in 3usize..6,
    ) {
        // The regime of the paper's Fig. 5 / Carson & Ma's analysis where
        // BCGS-PIP2-class schemes are guaranteed O(ε) orthogonality:
        // κ(V)² · ε < 1, i.e. κ(V) up to ~1e7 here.  Both the two-stage
        // scheme and BCGS-PIP2 must stay at machine-precision loss of
        // orthogonality across the whole bracket — this is the stability
        // envelope the performance comparison silently relies on, pinned
        // as a regression.
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = glued_matrix(
            &GluedSpec {
                nrows: 320,
                panel_cols: s,
                num_panels: 4,
                panel_cond: kappa,
                glue_cond: 10.0,
            },
            seed,
        );
        let overall = cond_2(&v.view());
        for kind in [
            OrthoKind::TwoStage { big_panel: 2 * s },
            OrthoKind::TwoStage { big_panel: 4 * s },
            OrthoKind::BcgsPip2,
        ] {
            let (q, r) = orthogonalize_matrix(kind, &v, s)
                .expect("below the crossover no scheme may break down");
            let err = orthogonality_error(&q.view());
            // O(ε) envelope, independent of κ in this regime.
            prop_assert!(
                err < 1e-11,
                "{kind:?}: ‖I − QᵀQ‖ = {err:.2e} at κ(V) = {overall:.2e}"
            );
            prop_assert!(reconstructs(&q, &r, &v, 1e-8), "{kind:?}");
        }
    }

    #[test]
    fn single_pass_loss_of_orthogonality_grows_at_most_kappa_squared(
        seed in 0u64..1_000,
        kappa_exp in 1u32..8,
    ) {
        // The single-pass baseline (one BCGS-PIP sweep, no second stage)
        // follows the ‖I − QᵀQ‖ ≲ c·ε·κ(V)² envelope — the bound (2)-class
        // behaviour the two-sync schemes are built to escape.  On exactly
        // log-spaced singular values κ is prescribed, so the envelope can
        // be asserted sharply; the two-sync schemes must beat the single
        // pass by the κ² factor wherever the single pass degrades.
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = logscaled_matrix(400, 5, kappa, seed);
        let mut basis =
            distsim::DistMultiVector::from_matrix(distsim::SerialComm::new(), v.clone());
        if blockortho::kernels::bcgs_pip(&mut basis, 0..0, 0..5).is_ok() {
            let err_single = orthogonality_error(&basis.local().cols(0..5));
            let envelope = (1e3 * f64::EPSILON * kappa * kappa).max(1e-14);
            prop_assert!(
                err_single <= envelope,
                "single pass: {err_single:.2e} vs c·ε·κ² = {envelope:.2e}"
            );
            if kappa <= 1e7 {
                // Same matrix through the reorthogonalized schemes: O(ε).
                for kind in [OrthoKind::BcgsPip2, OrthoKind::TwoStage { big_panel: 5 }] {
                    let (q, _) = orthogonalize_matrix(kind, &v, 5).expect("in-regime");
                    let err = orthogonality_error(&q.view());
                    prop_assert!(err < 1e-11, "{kind:?}: {err:.2e} at κ = {kappa:.1e}");
                }
            }
        }
    }

    #[test]
    fn sketched_schemes_keep_o_eps_orthogonality_across_the_full_kappa_bracket(
        seed in 0u64..1_000,
        kappa_exp in 1u32..13,
        s in 3usize..6,
    ) {
        // The sketched family's headline property (arXiv 2503.16717): the
        // panel factor comes from a backward-stable QR of the sketched
        // panel, so — unlike the CholQR-family kernels, whose Gram
        // factorization squares κ — the loss of orthogonality stays O(ε)
        // across the whole κ ∈ [10, 1e12] bracket, glued and log-scaled
        // alike, without any remedial fallback being required.
        let kappa = 10f64.powi(kappa_exp as i32);
        let glued = glued_matrix(
            &GluedSpec {
                nrows: 320,
                panel_cols: s,
                num_panels: 4,
                panel_cond: kappa,
                glue_cond: 10.0,
            },
            seed,
        );
        let logscaled = logscaled_matrix(400, 4 * s, kappa, seed);
        for v in [&glued, &logscaled] {
            for kind in [
                OrthoKind::RandCholQr,
                OrthoKind::TwoStageSketched { big_panel: 2 * s },
            ] {
                let (q, r) = orthogonalize_matrix(kind, v, s)
                    .expect("numerically full-rank input must not break down");
                let err = orthogonality_error(&q.view());
                prop_assert!(
                    err < 1e-11,
                    "{kind:?}: ‖I − QᵀQ‖ = {err:.2e} at κ = {kappa:.1e}"
                );
                prop_assert!(reconstructs(&q, &r, v, 1e-7), "{kind:?} at κ = {kappa:.1e}");
            }
        }
    }

    #[test]
    fn unsketched_single_pass_still_obeys_the_kappa_squared_envelope(
        seed in 0u64..1_000,
        kappa_exp in 1u32..8,
        s in 3usize..6,
    ) {
        // Adding the sketched family must not have touched the unsketched
        // kernels: a single BCGS-PIP pass keeps following the c·ε·κ²
        // envelope (bound (2)-class behaviour) on log-scaled panels.
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = logscaled_matrix(400, s, kappa, seed);
        let mut basis =
            distsim::DistMultiVector::from_matrix(distsim::SerialComm::new(), v.clone());
        if blockortho::kernels::bcgs_pip(&mut basis, 0..0, 0..s).is_ok() {
            let err = orthogonality_error(&basis.local().cols(0..s));
            let envelope = (1e3 * f64::EPSILON * kappa * kappa).max(1e-14);
            prop_assert!(
                err <= envelope,
                "single pass: {err:.2e} vs c·ε·κ² = {envelope:.2e} at κ = {kappa:.1e}"
            );
        }
    }

    #[test]
    fn spmv_is_linear(
        seed in 0u64..1_000,
        nx in 4usize..12,
        alpha in -3.0f64..3.0,
    ) {
        // A(αx + y) = αAx + Ay for the stencil operators.
        let a = sparse::laplace2d_9pt(nx, nx);
        let n = a.nrows();
        let x = testmat::random_unit_vector(n, seed);
        let y = testmat::random_unit_vector(n, seed + 1);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(p, q)| alpha * p + q).collect();
        let lhs = a.spmv_alloc(&combo);
        let ax = a.spmv_alloc(&x);
        let ay = a.spmv_alloc(&y);
        for i in 0..n {
            let rhs = alpha * ax[i] + ay[i];
            prop_assert!((lhs[i] - rhs).abs() < 1e-10 * (1.0 + rhs.abs()));
        }
    }

    #[test]
    fn newton_basis_conditioning_dominates_monomial_for_large_s(
        seed in 0u64..1_000,
        nx in 12usize..20,
        s in 6usize..10,
    ) {
        // On a stencil with known spectrum (2-D Laplacian: eigenvalues
        // λ_{ij} = 4 − 2cos(iπ/(nx+1)) − 2cos(jπ/(nx+1))), Leja-ordered
        // exact-spectrum shifts must keep the matrix-powers basis at least
        // as well conditioned as the monomial basis for every s ≥ 6 — the
        // regime where the monomial basis degrades exponentially.
        let a = sparse::laplace2d_5pt(nx, nx);
        let v0 = testmat::random_unit_vector(a.nrows(), seed);
        let lam = |k: usize| {
            2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (nx + 1) as f64).cos()
        };
        let mut spectrum = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                spectrum.push((lam(i) + lam(j), 0.0));
            }
        }
        let shifts = ssgmres::shifts::newton_shifts(&spectrum, s, 1e-6)
            .expect("Laplace spectrum yields shifts");
        let kappa_mono = ssgmres::shifts::basis_condition_number(&a, &[], s, &v0);
        let kappa_newton = ssgmres::shifts::basis_condition_number(&a, &shifts, s, &v0);
        prop_assert!(
            kappa_newton <= kappa_mono,
            "s={s} nx={nx}: κ(newton) {kappa_newton:.3e} > κ(monomial) {kappa_mono:.3e}"
        );
    }

    #[test]
    fn two_stage_orthogonality_stays_o_eps_under_both_bases(
        seed in 0u64..1_000,
        s in 6usize..9,
    ) {
        // The two-stage scheme's O(ε) loss of orthogonality must hold
        // whichever basis feeds it: run the MPK + two-stage interleaving on
        // the Laplace stencil under the monomial basis and under
        // exact-spectrum Leja shifts, and check ‖I − QᵀQ‖ after finish.
        let nx = 14;
        let a = sparse::laplace2d_5pt(nx, nx);
        let m = 3 * s;
        let lam = |k: usize| {
            2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (nx + 1) as f64).cos()
        };
        let mut spectrum = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                spectrum.push((lam(i) + lam(j), 0.0));
            }
        }
        let newton_shifts = ssgmres::shifts::newton_shifts(&spectrum, s, 1e-6).unwrap();
        for basis in [vec![], newton_shifts.clone()] {
            let mut mv = distsim::DistMultiVector::from_matrix(
                distsim::SerialComm::new(),
                Matrix::zeros(a.nrows(), m + 1),
            );
            let v0 = testmat::random_unit_vector(a.nrows(), seed);
            mv.local_mut().col_mut(0).copy_from_slice(&v0);
            let mut r = Matrix::zeros(m + 1, m + 1);
            let mut ts = blockortho::TwoStage::new(m + 1, m + 1);
            use blockortho::BlockOrthogonalizer;
            ts.orthogonalize_panel(&mut mv, 0..1, &mut r).expect("column 0");
            let mut cols = 1usize;
            while cols < m + 1 {
                let k = s.min(m + 1 - cols);
                for t in 0..k {
                    let input = mv.local().col(cols - 1 + t).to_vec();
                    let mut next = a.spmv_alloc(&input);
                    let theta = ssgmres::basis::shift(&basis, cols - 1 + t);
                    if theta != 0.0 {
                        for (wi, ui) in next.iter_mut().zip(&input) {
                            *wi -= theta * ui;
                        }
                    }
                    mv.local_mut().col_mut(cols + t).copy_from_slice(&next);
                }
                ts.orthogonalize_panel(&mut mv, cols..cols + k, &mut r)
                    .unwrap_or_else(|e| panic!("{basis:?}: panel {cols}: {e}"));
                cols += k;
            }
            ts.finish(&mut mv, &mut r)
                .unwrap_or_else(|e| panic!("{basis:?}: finish: {e}"));
            let err = orthogonality_error(&mv.local().cols(0..m + 1));
            prop_assert!(
                err < 1e-11,
                "{basis:?} s={s}: two-stage loss of orthogonality {err:.2e} not O(ε)"
            );
        }
    }

    #[test]
    fn sketched_variants_stay_clean_beyond_the_shifted_cholqr_crossover(
        seed in 0u64..1_000,
        kappa_exp in 9u32..13,
    ) {
        // At κ ≥ 1e9 a log-scaled panel drives the plain two-stage first
        // stage into its shifted-CholQR remedial path; the sketched
        // variants must absorb the same panel with zero fallback episodes
        // at the same per-panel reduce count, still landing at O(ε).
        use blockortho::make_orthogonalizer;
        let kappa = 10f64.powi(kappa_exp as i32);
        let v = logscaled_matrix(400, 8, kappa, seed);
        let run = |kind: OrthoKind| {
            let mut basis = distsim::DistMultiVector::from_matrix(
                distsim::SerialComm::new(),
                v.clone(),
            );
            let mut r = Matrix::zeros(8, 8);
            let mut scheme = make_orthogonalizer(kind, 8);
            scheme.orthogonalize_panel(&mut basis, 0..8, &mut r).expect("panel");
            scheme.finish(&mut basis, &mut r).expect("finish");
            (
                orthogonality_error(&basis.local().cols(0..8)),
                scheme.fallback_count(),
            )
        };
        let (err_plain, episodes_plain) = run(OrthoKind::TwoStage { big_panel: 8 });
        prop_assert!(err_plain < 1e-11, "the remedy itself must still work");
        for kind in [
            OrthoKind::RandCholQr,
            OrthoKind::TwoStageSketched { big_panel: 8 },
        ] {
            let (err, episodes) = run(kind);
            // Whether the plain Cholesky on the κ²-conditioned Gram
            // survives at a given κ is seed-dependent; the pinned claim is
            // the paper's: *where* the plain first stage records remedial
            // episodes, the sketched variants record strictly fewer (none)
            // at the same per-panel reduce count — and they stay at O(ε)
            // unconditionally.
            if episodes_plain > 0 {
                prop_assert!(
                    episodes == 0,
                    "{kind:?}: {episodes} episodes at κ = {kappa:.1e}, expected none"
                );
            }
            prop_assert!(err < 1e-11, "{kind:?}: {err:.2e} at κ = {kappa:.1e}");
        }
    }

    #[test]
    fn gmres_residual_never_increases_across_restarts(
        nx in 8usize..16,
        s in 1usize..6,
    ) {
        let a = sparse::laplace2d_5pt(nx, nx);
        let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
        let config = ssgmres::GmresConfig {
            restart: 10,
            step_size: s.min(10),
            tol: 1e-10,
            max_restarts: 6,
            ortho: if s == 1 { ssgmres::OrthoKind::Cgs2 } else { ssgmres::OrthoKind::BcgsPip2 },
            ..ssgmres::GmresConfig::default()
        };
        let (_, result) = ssgmres::SStepGmres::new(config).solve_serial(&a, &b);
        // GMRES minimizes the residual over a growing space each cycle; the
        // final relative residual can never exceed 1.  (A Cholesky breakdown
        // report is allowed: on these small systems the Krylov space is often
        // exhausted near convergence — the "lucky breakdown" — and the solver
        // truncates the cycle; the residual bound must still hold.)
        prop_assert!(result.final_relres[0] <= 1.0 + 1e-12);
    }
}
