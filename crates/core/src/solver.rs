//! The restarted s-step GMRES solver (Fig. 1 / Fig. 5 of the paper): its
//! configuration, its report type, and the single-RHS entry points.
//!
//! The restart loop itself lives in [`crate::block`]; [`SStepGmres::solve`]
//! wraps its slices as `nloc × 1` views and runs that loop at `k = 1`.

use crate::basis::BasisStrategy;
use crate::block::BlockOptions;
use crate::control::{CycleHealth, StepPolicy};
use crate::precond::{Identity, Preconditioner};
use crate::report::CycleTiming;
use blockortho::OrthoKind;
use dense::{MatView, MatViewMut};
use distsim::{CommStatsSnapshot, DistCsr, GuardEvent, SerialComm};
use sparse::{block_row_partition, RowSource};

/// Configuration of the (s-step) GMRES solver.
#[derive(Debug, Clone)]
pub struct GmresConfig {
    /// Restart length `m` (the paper uses 60).
    pub restart: usize,
    /// Step size `s` of the matrix-powers kernel (`1` = standard GMRES; the
    /// paper's conservative default is 5).
    pub step_size: usize,
    /// Convergence tolerance on the relative residual `‖b − A·x‖ / ‖r₀‖`
    /// (the paper uses 1e-6).
    pub tol: f64,
    /// Hard cap on the total number of iterations (basis vectors generated).
    pub max_iters: usize,
    /// Hard cap on the number of restart cycles.
    pub max_restarts: usize,
    /// Block orthogonalization scheme.
    pub ortho: OrthoKind,
    /// Krylov basis policy of the matrix-powers kernel (fixed monomial or
    /// Newton shifts, adaptive Ritz harvesting, or a replayed schedule).
    pub basis: BasisStrategy,
    /// Step-size policy: [`StepPolicy::Fixed`] (the default, bitwise the
    /// pre-controller solver), the self-rescuing [`StepPolicy::Auto`], or
    /// a replayed [`StepPolicy::Scheduled`] step schedule.
    pub step_policy: StepPolicy,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self {
            restart: 60,
            step_size: 5,
            tol: 1e-6,
            max_iters: 500_000,
            max_restarts: usize::MAX,
            ortho: OrthoKind::BcgsPip2,
            basis: BasisStrategy::Monomial,
            step_policy: StepPolicy::Fixed,
        }
    }
}

/// Configuration matching the paper's "standard GMRES + CGS2" baseline.
pub fn standard_gmres_config() -> GmresConfig {
    GmresConfig {
        step_size: 1,
        ortho: OrthoKind::Cgs2,
        ..GmresConfig::default()
    }
}

/// Outcome of a solve — the one report type of every entry point.
///
/// Per-column quantities hold one entry per right-hand side, indexed by
/// *original* column; a single-RHS [`SStepGmres::solve`] is the `k = 1`
/// block solve, so its vectors have length one.
#[derive(Debug, Clone, Default)]
pub struct SolveResult {
    /// Whether **every** column's residual dropped below its target.
    pub converged: bool,
    /// Per-column convergence flags.
    pub col_converged: Vec<bool>,
    /// Total number of Krylov basis vectors generated (the paper's "# iters";
    /// `k_active · s` per MPK panel of a block solve).
    pub iterations: usize,
    /// Number of restart cycles performed.
    pub restarts: usize,
    /// Final true relative residual `‖b_j − A·x_j‖ / ‖r₀_j‖` per column
    /// (`0.0` for an identically zero right-hand side).
    pub final_relres: Vec<f64>,
    /// Breakdown diagnostic, if an orthogonalization breakdown occurred.
    pub breakdown: Option<String>,
    /// Number of sparse matrix–vector products performed.
    pub spmv_count: usize,
    /// Number of preconditioner applications performed.
    pub precond_count: usize,
    /// Communication performed by the whole solve (this rank).
    pub comm_total: CommStatsSnapshot,
    /// Communication attributable to block orthogonalization only: the
    /// merge of every cycle's [`CycleHealth::comm_ortho`].
    pub comm_ortho: CommStatsSnapshot,
    /// True relative residual per column after each restart cycle the
    /// column was **active** in (a deflated column's history simply stops
    /// growing).
    pub relres_history: Vec<Vec<f64>>,
    /// Number of completed restart cycles after which each column left the
    /// active block (`Some(0)` = converged before the first cycle; `None` =
    /// still active when the solve ended).
    pub deflated_at: Vec<Option<usize>>,
    /// Original column indices in the order they deflated.  Within one
    /// cycle, columns deflate in ascending column order — the order is
    /// deterministic and bitwise-reproducible across thread and rank
    /// counts because the residual norms it is derived from are.
    pub deflation_order: Vec<usize>,
    /// The most recent successful Ritz-shift harvest (recorded for every
    /// strategy; only [`BasisStrategy::Adaptive`] acts on it).  Lets a
    /// short warm-up solve serve as a shift oracle for a later fixed-shift
    /// [`BasisStrategy::Newton`] run.  Harvesting runs while the active
    /// block is one column wide (see the [`crate::block`] module docs).
    pub last_harvest: Option<Vec<f64>>,
    /// Total shifted-CholQR fallbacks the orthogonalization took across all
    /// cycles (nonzero only for schemes with a remedial path; distinct
    /// episodes — a big-panel fallback over an already-remediated panel is
    /// not counted twice).
    pub ortho_fallbacks: usize,
    /// What each started cycle decided and counted, in cycle order: step,
    /// shifts, orthogonalization traffic, per-column panel condition
    /// estimates from the R diagonal (`kappa_per_col`, aggregated into
    /// `kappa_est` over the columns that survived the cycle's deflation
    /// check), per-stage fallback events, breakdown message, residual,
    /// stagnation flag, and verdict.  Bitwise reproducible, so solves that
    /// should agree compare it with `==`.  Recorded for every policy; only
    /// [`StepPolicy::Auto`] acts on it.
    pub health_history: Vec<CycleHealth>,
    /// Number of step-shrink rescues [`StepPolicy::Auto`] took (0 under
    /// `Fixed`/`Scheduled`).
    pub rescues: usize,
    /// What the clock measured in each started cycle (entry `c` belongs to
    /// `health_history[c]`): wall time per [`crate::Phase`] and — when the
    /// [`trace`] layer is enabled — the cycle's synchronization share
    /// measured from `"comm"`-category spans.
    pub cycle_timings: Vec<CycleTiming>,
    /// Every fault the detection guards caught during the solve, in
    /// detection order (empty when guards are disabled).
    pub fault_events: Vec<GuardEvent>,
    /// Faults detected by the guards across the whole solve.
    pub faults_detected: usize,
    /// Of those, faults recovered — in place (successful collective retry,
    /// discarded duplicate) or by the cycle-rollback ladder.
    pub faults_recovered: usize,
    /// Faults that defeated every rung of the recovery ladder.  A solve
    /// can still report `converged` with these at zero only if recovery
    /// truly succeeded everywhere.
    pub faults_unrecovered: usize,
}

impl SolveResult {
    /// Effective step size of each started cycle — the schedule
    /// [`StepPolicy::Scheduled`] takes.  Replayed together with
    /// [`shifts`](Self::shifts) it reproduces the solve bitwise.
    pub fn steps(&self) -> Vec<usize> {
        self.health_history.iter().map(|h| h.step).collect()
    }

    /// Newton shifts in effect for each started cycle (empty = monomial) —
    /// the schedule [`BasisStrategy::Scheduled`] takes.
    pub fn shifts(&self) -> Vec<Vec<f64>> {
        let cycles = self.health_history.iter();
        cycles.map(|h| h.shifts.clone()).collect()
    }
}

/// The restarted s-step GMRES solver.
#[derive(Debug, Clone)]
pub struct SStepGmres {
    config: GmresConfig,
}

impl SStepGmres {
    /// Create a solver with the given configuration.
    pub fn new(config: GmresConfig) -> Self {
        assert!(config.restart >= 1, "restart length must be at least 1");
        assert!(config.step_size >= 1, "step size must be at least 1");
        assert!(
            config.step_size <= config.restart,
            "step size cannot exceed the restart length"
        );
        // `!(tol > 0)` also refuses NaN, against which no residual compares
        // as converged.
        assert!(
            config.tol > 0.0,
            "tolerance must be positive, got {}",
            config.tol
        );
        // Refuses a zero big panel.
        config.ortho.for_block_width(1);
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GmresConfig {
        &self.config
    }

    /// Solve `A·x = b` on a single rank, starting from `x = 0`, without a
    /// preconditioner.  Returns the solution and the solve statistics.
    ///
    /// `a` is any [`RowSource`] — a `Csr`, or a row provider (stencil or
    /// surrogate generator) from which the operator is streamed without a
    /// global matrix ever being assembled.
    pub fn solve_serial<S: RowSource>(&self, a: &S, b: &[f64]) -> (Vec<f64>, SolveResult) {
        self.solve_serial_preconditioned(a, b, &Identity)
    }

    /// Solve `A·x = b` on a single rank with a right preconditioner.
    pub fn solve_serial_preconditioned<S: RowSource>(
        &self,
        a: &S,
        b: &[f64],
        precond: &dyn Preconditioner,
    ) -> (Vec<f64>, SolveResult) {
        let comm = SerialComm::new();
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_row_source(comm, &part, a);
        let mut x = vec![0.0; a.nrows()];
        let result = self.solve(&dist, precond, b, &mut x);
        (x, result)
    }

    /// Solve `A·x = b` on the communicator `a` lives on (build `a` with
    /// [`DistCsr::from_row_source`] to stream this rank's rows from a row
    /// provider, so no rank materializes the global matrix).
    ///
    /// `b_local` and `x_local` are the local blocks of the right-hand side
    /// and the solution (used as the initial guess and overwritten).  The
    /// slices are viewed in place as `nloc × 1` blocks and handed to the
    /// cycle engine of [`crate::block`]: this is its `k = 1` case.
    pub fn solve(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &[f64],
        x_local: &mut [f64],
    ) -> SolveResult {
        let nloc = a.local_matrix().nrows();
        assert_eq!(b_local.len(), nloc, "rhs length mismatch");
        assert_eq!(x_local.len(), nloc, "solution length mismatch");
        self.solve_views(
            a,
            precond,
            MatView::from_slice(nloc, 1, b_local),
            MatViewMut::from_slice(nloc, 1, x_local),
            &BlockOptions::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::MulticolorGaussSeidel;
    use crate::report::Phase;
    use sparse::{laplace2d_5pt, laplace2d_9pt, laplace3d_7pt, Csr};

    fn relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.spmv_alloc(x);
        let rn: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        rn / bn
    }

    fn rhs_for_ones(a: &Csr) -> Vec<f64> {
        // Right-hand side such that the solution is the vector of all ones
        // (as the paper does).
        a.spmv_alloc(&vec![1.0; a.nrows()])
    }

    #[test]
    fn standard_gmres_solves_laplace() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 40,
            tol: 1e-8,
            ..standard_gmres_config()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-7);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sstep_gmres_matches_standard_iteration_count_roughly() {
        let a = laplace2d_5pt(24, 24);
        let b = rhs_for_ones(&a);
        let std_result = SStepGmres::new(GmresConfig {
            restart: 30,
            tol: 1e-6,
            ..standard_gmres_config()
        })
        .solve_serial(&a, &b)
        .1;
        let sstep_result = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-6,
            ortho: OrthoKind::BcgsPip2,
            ..GmresConfig::default()
        })
        .solve_serial(&a, &b)
        .1;
        assert!(std_result.converged && sstep_result.converged);
        // s-step rounds iteration counts up to the panel granularity, so it
        // may do up to s-1 extra iterations per cycle; it must not need
        // substantially more work than standard GMRES.
        let ratio = sstep_result.iterations as f64 / std_result.iterations as f64;
        assert!(
            ratio < 1.25,
            "s-step used {} iterations vs standard {}",
            sstep_result.iterations,
            std_result.iterations
        );
    }

    #[test]
    fn all_ortho_schemes_converge_to_the_same_solution() {
        let a = laplace2d_9pt(16, 16);
        let b = rhs_for_ones(&a);
        for ortho in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 30 },
            OrthoKind::TwoStage { big_panel: 10 },
        ] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            });
            let (x, result) = solver.solve_serial(&a, &b);
            assert!(result.converged, "{ortho:?}: {result:?}");
            assert!(
                relres(&a, &x, &b) < 1e-7,
                "{ortho:?}: relres {}",
                relres(&a, &x, &b)
            );
        }
    }

    #[test]
    fn two_stage_reduces_ortho_synchronizations() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let run = |ortho| {
            SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-6,
                ortho,
                ..GmresConfig::default()
            })
            .solve_serial(&a, &b)
            .1
        };
        let pip2 = run(OrthoKind::BcgsPip2);
        let two_stage = run(OrthoKind::TwoStage { big_panel: 20 });
        let bcgs2 = run(OrthoKind::Bcgs2CholQr2);
        assert!(pip2.converged && two_stage.converged && bcgs2.converged);
        // Reduce counts per iteration must be ordered:
        // two-stage < BCGS-PIP2 < BCGS2-CholQR2.
        let per_iter = |r: &SolveResult| r.comm_ortho.allreduces as f64 / r.iterations as f64;
        assert!(
            per_iter(&two_stage) < per_iter(&pip2),
            "two-stage {} vs pip2 {}",
            per_iter(&two_stage),
            per_iter(&pip2)
        );
        assert!(
            per_iter(&pip2) < per_iter(&bcgs2),
            "pip2 {} vs bcgs2 {}",
            per_iter(&pip2),
            per_iter(&bcgs2)
        );
    }

    #[test]
    fn preconditioning_reduces_iteration_count() {
        let a = laplace2d_5pt(24, 24);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ..GmresConfig::default()
        });
        let plain = solver.solve_serial(&a, &b).1;
        let gs = MulticolorGaussSeidel::new(&a, 2);
        let (xp, precond_result) = solver.solve_serial_preconditioned(&a, &b, &gs);
        assert!(plain.converged && precond_result.converged);
        assert!(
            precond_result.iterations < plain.iterations,
            "preconditioned {} vs plain {}",
            precond_result.iterations,
            plain.iterations
        );
        assert!(relres(&a, &xp, &b) < 1e-7);
    }

    #[test]
    fn multicolor_gauss_seidel_also_works_on_3d_problem() {
        let a = laplace3d_7pt(8, 8, 8);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-7,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let gs = MulticolorGaussSeidel::new(&a, 1);
        let (x, result) = solver.solve_serial_preconditioned(&a, &b, &gs);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn streamed_row_provider_solve_matches_replicated_solve_bitwise() {
        // The solver fed by a row provider (no global matrix anywhere) must
        // reproduce the replicated-construction solve exactly: identical
        // local operator => identical arithmetic => identical solution.
        let rows = sparse::Laplace2d9ptRows { nx: 14, ny: 14 };
        let a = laplace2d_9pt(14, 14);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let (x_rep, r_rep) = solver.solve_serial(&a, &b);
        let (x_str, r_str) = solver.solve_serial(&rows, &b);
        assert!(r_rep.converged && r_str.converged);
        assert_eq!(r_rep.iterations, r_str.iterations);
        assert_eq!(x_rep, x_str, "solutions must be bitwise identical");
        assert_eq!(r_rep.comm_total, r_str.comm_total);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplace2d_5pt(10, 10);
        let b = vec![0.0; 100];
        let (x, result) = SStepGmres::new(GmresConfig::default()).solve_serial(&a, &b);
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_nan_initial_guess_is_never_reported_as_converged() {
        // The NaN poisons the residual norm, which must stay NaN rather
        // than read as a zero residual that ends the solve before it starts.
        let a = laplace2d_5pt(10, 10);
        let b = rhs_for_ones(&a);
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(SerialComm::new(), &a, &part);
        let mut x = vec![0.0; a.nrows()];
        x[3] = f64::NAN;
        let result = SStepGmres::new(GmresConfig::default()).solve(&dist, &Identity, &b, &mut x);
        assert!(!result.converged, "{result:?}");
        assert!(result.final_relres[0].is_nan(), "{:?}", result.final_relres);
        assert!(result.breakdown.is_some());
    }

    #[test]
    fn an_infinite_or_overflowing_rhs_is_never_reported_as_converged() {
        // ‖r₀‖ = ∞ would make the relative target tol·∞ = ∞, which every
        // residual meets.  A column without a finite reference must end
        // unconverged, with a breakdown that names it.
        let a = laplace2d_9pt(12, 12);
        let n = a.nrows();
        let good = rhs_for_ones(&a);
        let mut inf = good.clone();
        inf[7] = f64::INFINITY;
        let huge = vec![1e300; n]; // its squared norm overflows
        for ortho in [
            OrthoKind::Cgs2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 20 },
        ] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            });
            for bad in [&inf, &huge] {
                let (x, r) = solver.solve_serial(&a, bad);
                assert!(!r.converged && !r.col_converged[0], "{ortho:?}: {r:?}");
                assert_eq!(r.iterations, 0, "{ortho:?}");
                assert!(x.iter().all(|&v| v == 0.0), "{ortho:?}");
                let msg = r.breakdown.as_deref().unwrap_or_default();
                assert!(msg.contains("column 0"), "{ortho:?}: {msg}");

                // In a block of two, the good column still solves.
                let (_, r) = solver.solve_block_serial(&a, &[good.clone(), bad.clone()]);
                assert!(!r.converged, "{ortho:?}: {r:?}");
                assert_eq!(r.col_converged, vec![true, false], "{ortho:?}");
                let msg = r.breakdown.as_deref().unwrap_or_default();
                assert!(msg.starts_with("column 1 has initial residual"), "{msg}");
            }
        }
    }

    #[test]
    fn an_underflowing_rhs_is_never_reported_as_converged() {
        // Every square of 1e-310 underflows, so ‖b‖ reads 0 although b ≠ 0:
        // `0 ≤ tol·0` would end the solve before it starts, with x = 0.
        let a = laplace2d_9pt(12, 12);
        let n = a.nrows();
        let good = rhs_for_ones(&a);
        let tiny = vec![1e-310; n];
        let solver = SStepGmres::new(GmresConfig::default());
        let (x, r) = solver.solve_serial(&a, &tiny);
        assert!(!r.converged && !r.col_converged[0], "{r:?}");
        assert_eq!(r.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
        let msg = r.breakdown.as_deref().unwrap_or_default();
        assert_eq!(
            msg,
            "column 0: initial residual norm underflows; rescale the right-hand side"
        );

        // In a block of two, the good column still solves.
        let (_, r) = solver.solve_block_serial(&a, &[good.clone(), tiny.clone()]);
        assert!(!r.converged, "{r:?}");
        assert_eq!(r.col_converged, vec![true, false]);
        let msg = r.breakdown.as_deref().unwrap_or_default();
        assert!(
            msg.starts_with("column 1: initial residual norm underflows"),
            "{msg}"
        );

        // On two ranks where the tiny entries all sit on rank 1, rank 0's
        // count is 0 and the sum-reduce still retires the column there too.
        let part = block_row_partition(n, 2);
        let mut b = vec![0.0; n];
        b[n - 3] = 1e-310;
        let verdicts = distsim::run_ranks(2, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let dist = DistCsr::from_global(comm, &a, &part);
            let mut x = vec![0.0; hi - lo];
            let r = solver.solve(&dist, &Identity, &b[lo..hi], &mut x);
            (r.converged, r.breakdown)
        });
        for (converged, breakdown) in verdicts {
            assert!(!converged);
            assert!(breakdown.unwrap_or_default().contains("underflows"));
        }

        // A truly zero right-hand side still converges at once, after the
        // one count reduce.
        let (_, r) = solver.solve_serial(&a, &vec![0.0; n]);
        assert!(r.converged && r.breakdown.is_none(), "{r:?}");
        assert_eq!(r.comm_total.allreduces, 2, "the norm and the count");
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplace2d_5pt(30, 30);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-14,
            max_iters: 40,
            ..GmresConfig::default()
        });
        let (_, result) = solver.solve_serial(&a, &b);
        assert!(!result.converged);
        assert!(result.iterations <= 40 + 5);
    }

    #[test]
    fn nonsymmetric_matrix_converges() {
        // Row/column scaled Laplacian (non-symmetric, as in the paper's
        // SuiteSparse experiments).
        let a0 = laplace2d_5pt(18, 18);
        let (a, _, _) = sparse::scale_rows_cols_by_max(&a0);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 40,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 40 },
            ..GmresConfig::default()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn invalid_config_is_rejected() {
        // Every row must be refused by `new`, before any rank has reduced
        // anything, with a message naming what is wrong.
        let base = GmresConfig::default;
        let rows = [
            (
                "step size cannot exceed",
                GmresConfig {
                    restart: 4,
                    step_size: 8,
                    ..base()
                },
            ),
            (
                "tolerance must be positive",
                GmresConfig {
                    tol: f64::NAN,
                    ..base()
                },
            ),
            (
                "tolerance must be positive",
                GmresConfig { tol: 0.0, ..base() },
            ),
            (
                "tolerance must be positive",
                GmresConfig {
                    tol: -1e-6,
                    ..base()
                },
            ),
            (
                "big panel size must be at least 1",
                GmresConfig {
                    ortho: OrthoKind::TwoStage { big_panel: 0 },
                    ..base()
                },
            ),
            (
                "big panel size must be at least 1",
                GmresConfig {
                    ortho: OrthoKind::TwoStageSketched { big_panel: 0 },
                    ..base()
                },
            ),
        ];
        for (expected, config) in rows {
            let shown = format!("{config:?}");
            let panic = std::panic::catch_unwind(|| SStepGmres::new(config))
                .expect_err(&format!("accepted {shown}"));
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or(panic.downcast_ref::<&str>().copied()).unwrap_or("");
            assert!(msg.contains(expected), "{shown}: panicked with {msg:?}");
        }
    }

    #[test]
    fn every_cycle_gets_a_time_breakdown() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let (_, r) = solver.solve_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.cycle_timings.len(), r.restarts);
        for (c, t) in r.cycle_timings.iter().enumerate() {
            assert!(t.total_ns > 0);
            // The lap pattern partitions the cycle body: the phase buckets
            // must account for the whole cycle (finish() charges the tail,
            // so the sum matches the total exactly).
            assert_eq!(t.segments_ns(), t.total_ns);
            assert!(t[Phase::Mpk] > 0, "cycle {c} recorded no MPK time");
            assert!(t[Phase::Ortho] > 0, "cycle {c} recorded no ortho time");
            assert!(t.sync_ns <= t.total_ns);
            assert_eq!(t.compute_ns(), t.total_ns - t.sync_ns);
        }
    }

    #[test]
    fn every_cycle_gets_a_health_report_and_a_step_entry() {
        let a = laplace2d_5pt(16, 16);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 20 },
            ..GmresConfig::default()
        });
        let (_, r) = solver.solve_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.health_history.len(), r.restarts);
        assert_eq!(r.rescues, 0);
        for h in &r.health_history {
            assert_eq!(h.step, 5, "Fixed never moves");
            assert!(h.shifts.is_empty(), "monomial basis");
            assert!(h.kappa_est.is_finite() && h.kappa_est >= 1.0);
            assert_eq!(h.fallbacks, 0);
            assert!(h.breakdown.is_none());
            assert_eq!(h.verdict, crate::control::CycleVerdict::Clean);
        }
    }
}
