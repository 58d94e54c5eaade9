//! The restart-cycle engine: restarted s-step GMRES for a block of `k`
//! right-hand sides, where one matrix-powers pass, one orthogonalization,
//! and one all-reduce serve all `k` at once.
//!
//! This is the only restart loop in the crate.  [`SStepGmres::solve_block`]
//! (and [`SStepGmres::solve_block_with`], which adds [`BlockOptions`]) runs
//! it on an `nloc × k` block; the single-RHS [`SStepGmres::solve`] wraps its
//! slices as `nloc × 1` views and runs the same loop at `k = 1`.  Those
//! three take a [`DistCsr`]; [`SStepGmres::solve_serial`],
//! [`SStepGmres::solve_serial_preconditioned`] and
//! [`SStepGmres::solve_block_serial`] are the single-rank sugar that builds
//! one from any [`RowSource`] first — six entry points in all.  The loop is a
//! sequence of phases — residual → MPK panel → ortho panel → Hessenberg
//! check → ortho finish → projected solve → update → health/controller —
//! each a method of the per-solve state whose body runs inside the one
//! bracket `Solve::phase`: the bracket tags the rank thread for fault
//! plans, opens the phase's trace span and charges its time bucket, all
//! under the same [`Phase::label`], so the three cannot drift apart.
//!
//! The paper's premise is that synchronization dominates s-step GMRES at
//! scale, so every reduce must do more work.  The block loop pushes that
//! one axis further: the Krylov basis is built for a **block** `B` of `k`
//! columns (the structure of `bgmres`/`bfgmres` in phist), interleaved so
//! block step `t` occupies basis columns `t·k .. (t+1)·k`.  A block step is
//! one [`DistCsr::spmm`]: one pass over `A` and one halo message per peer
//! for all `k` columns.  Each MPK panel then carries `k·s` columns through
//! the *unchanged* [`blockortho`] schemes and fused
//! `proj_and_gram`/`update_and_gram` kernels — the
//! per-cycle reduce **count** is independent of `k` (panel cadence is
//! preserved by [`blockortho::OrthoKind::for_block_width`]) while each
//! reduce carries the k-scaled payload.  Reduces are paid per *batch*, not
//! per RHS.
//!
//! **The single-RHS case.**  Two selections are made on the *observed*
//! active width, not on the entry point: one active column solves its
//! projected problem by Givens rotations against `β·e₁`
//! ([`HessenbergRecovery::least_squares`]) rather than the banded QR, and
//! harvests Ritz shifts from its (then square) Hessenberg block.  A block
//! that deflates down to one column takes the same branches.
//! `tests/block_equivalence.rs` pins that scalar `solve` and a one-column
//! `solve_block` agree bit for bit, histories and both
//! [`CommStatsSnapshot`] ledgers included.
//!
//! **Deflation.**  Convergence is tracked per column ("On the backward
//! stability of s-step GMRES", arXiv 2409.03079, motivates the per-column
//! residual bookkeeping).  A column whose true residual meets its target
//! leaves the active block at the restart boundary; subsequent cycles run
//! with the narrower block (smaller panels, smaller reduces), and each
//! restart cycle is a pure function of the surviving columns' residuals —
//! so deflating a column leaves the survivors' iterates bitwise unchanged
//! versus a solve that never carried the deflated column from that cycle
//! on (pinned by `tests/deflation_properties.rs`).
//!
//! **Convergence check.**  After every panel the engine estimates each
//! active column's residual from the projected problem over all accepted
//! columns.  On final columns (every one-stage scheme, and a two-stage
//! cycle right after a flush) the estimate is the check: the cycle ends
//! when every column meets its target.  With a two-stage big panel pending
//! — all of the cycle at `bs = m` — the Hessenberg block is recovered from
//! the first-stage `R` in stored-basis coordinates (see
//! [`crate::hessenberg`]).  That basis is well conditioned but not
//! orthonormal (Carson & Ma, arXiv 2409.03079, tie the accuracy of s-step
//! GMRES to the conditioning of the basis it is recovered from), so the
//! estimate only *triggers*: when every estimate, carried one more panel
//! at the rate of the last one (`est · min(1, est / est_prev)`, the rate
//! measured since the last check on final columns), meets its target, the
//! engine completes the big panel now through
//! [`BlockOrthogonalizer::finish`] and the check on the final columns that
//! follows decides.  The flush runs in the [`Phase::Ortho`] bracket and
//! marks a `converge_flush` trace instant.  Away from convergence the
//! trigger does not fire and a cycle keeps its one flush; near it the
//! two-stage scheme stops where a one-stage scheme would, instead of
//! running to the end of the big panel.  Everything it reads is
//! replicated, so every rank takes the same decision.
//!
//! **The last big panel.**  The two-stage flush the cycle's last panel
//! triggers only factors its big panel.  `ortho_finish` takes the panel
//! ([`BlockOrthogonalizer::take_factored_panel`]) before it calls
//! `finish`, and the update folds its stage-2 factor into the projected
//! solution ([`blockortho::fold_factored`]), so `Q̂·Y′ = Q·Y` is formed
//! from the stored columns and no `n`-row TRSM normalizes them.
//!
//! **Early flush.**  A monomial panel grows fast — a `k·s`-wide one
//! fastest — and the two-stage scheme's first stage projects it against
//! columns that are only pre-processed.  [`blockortho::two_stage`] therefore
//! answers a refused first-stage panel by completing the second stage on
//! the pending big panel and taking the panel again, instead of ending
//! the cycle on a breakdown that rounding — and with it the rank count —
//! decides.
//!
//! Scope notes for wide blocks (`k > 1`): adaptive Ritz harvesting
//! operates only once the active block has narrowed to one column (the
//! band Hessenberg of a wide block is not in the Hessenberg form the
//! double-shift QR eigensolver consumes); `Newton`/`Scheduled` shifts
//! apply per block step for every width.  Detection guards screen Gram and
//! norm reduces and check halo frames for any width, but the full
//! poison/rollback ladder is exercised at one active column.
//!
//! **Guards.**  The engine holds no guard state: a solve is guarded when
//! its matrix lives on a [`distsim::GuardedComm`], and the engine reaches
//! the guards' counters and event log only through
//! [`Communicator::guards`], reading the counters as a delta from the
//! solve's start.  A non-finite projected solution is never applied to
//! `x`, guarded or not.

use crate::basis::{self, BasisStrategy};
use crate::control::{self, CycleHealth, StepController, StepDecision};
use crate::hessenberg::HessenbergRecovery;
use crate::precond::{Identity, Preconditioner};
use crate::report::{Phase, PhaseClock};
use crate::shifts;
use crate::solver::{GmresConfig, SStepGmres, SolveResult};
use blockortho::{fold_factored, make_orthogonalizer, BlockOrthogonalizer, OrthoError};
use dense::{MatView, MatViewMut, Matrix};
use distsim::{
    fault, CommStatsSnapshot, Communicator, DistCsr, DistMultiVector, GuardCounts, GuardedComm,
    Screen, SerialComm,
};
use sparse::{block_row_partition, RowSource};
use std::ops::Range;

/// Per-solve options of the block path that have no [`crate::GmresConfig`]
/// equivalent.
#[derive(Debug, Clone, Default)]
pub struct BlockOptions {
    /// Absolute per-column convergence targets on `‖b_j − A·x_j‖₂`.
    ///
    /// `None` (the default) uses the relative target per column:
    /// `tol · ‖r₀_j‖`.  Explicit targets make a continued solve comparable
    /// to a warm-started one — the deflation property tests use them to
    /// align thresholds across runs.
    pub abs_targets: Option<Vec<f64>>,
}

impl SStepGmres {
    /// Solve `A·X = B` for a block of right-hand sides on the communicator
    /// `a` lives on.
    ///
    /// `b_local` and `x_local` are the local row blocks of `B` and `X`
    /// (`nloc × k`; `x_local` is the initial guess and is overwritten).
    /// One MPK pass, one orthogonalization panel, and one all-reduce serve
    /// all `k` columns; converged columns deflate out at restart
    /// boundaries.
    pub fn solve_block(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &Matrix,
        x_local: &mut Matrix,
    ) -> SolveResult {
        self.solve_block_with(a, precond, b_local, x_local, &BlockOptions::default())
    }

    /// [`solve_block`](Self::solve_block) with explicit [`BlockOptions`].
    pub fn solve_block_with(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &Matrix,
        x_local: &mut Matrix,
        opts: &BlockOptions,
    ) -> SolveResult {
        self.solve_views(a, precond, b_local.view(), x_local.view_mut(), opts)
    }

    /// The engine behind every entry point, on borrowed views so the
    /// single-RHS adapters pass their slices through without a copy.
    pub(crate) fn solve_views(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: MatView<'_>,
        x_local: MatViewMut<'_>,
        opts: &BlockOptions,
    ) -> SolveResult {
        let mut solve = Solve::start(self.config(), a, precond, b_local, x_local, opts);
        solve.run();
        solve.finish()
    }

    /// Solve `A·X = B` on a single rank from `X = 0`, without a
    /// preconditioner.  `a` is any [`RowSource`] (a `Csr`, or a row provider
    /// the operator is streamed from); `b_cols` holds one right-hand side
    /// per entry.  Returns the solution block (`n × k`) and the solve
    /// statistics.
    pub fn solve_block_serial<S: RowSource>(
        &self,
        a: &S,
        b_cols: &[Vec<f64>],
    ) -> (Matrix, SolveResult) {
        let comm = SerialComm::new();
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_row_source(comm, &part, a);
        let b = cols_to_matrix(a.nrows(), b_cols);
        let mut x = Matrix::zeros(a.nrows(), b_cols.len());
        let result = self.solve_block(&dist, &Identity, &b, &mut x);
        (x, result)
    }
}

/// State of one solve, carried across its restart cycles.
struct Solve<'a> {
    config: &'a GmresConfig,
    a: &'a DistCsr,
    precond: &'a dyn Preconditioner,
    b: MatView<'a>,
    x: MatViewMut<'a>,
    stats_start: CommStatsSnapshot,
    /// Guard counters when the solve began (all zero when unguarded).
    fault_start: GuardCounts,
    /// The report under construction: counters and histories accumulate in
    /// place, [`Solve::finish`] fills in the verdict.
    report: SolveResult,

    // Per-column state, indexed by *original* column.
    residuals: Vec<Vec<f64>>,
    r0_norms: Vec<f64>,
    gammas: Vec<f64>,
    targets: Vec<f64>,
    /// Columns still in the active block, in ascending original order.
    active: Vec<usize>,

    // Policy state.  The controller observes every cycle's health (all
    // signals are replicated, so its decisions cost no communication).
    /// The shifts of the next cycle's Krylov basis (empty = monomial).
    current_basis: Vec<f64>,
    controller: StepController,
    /// Aggregate (max over active columns) relative residual per cycle: the
    /// block-level signal stagnation detection runs on.
    agg_relres_history: Vec<f64>,
    consecutive_breakdowns: usize,
    no_progress_cycles: usize,
    /// Why columns left the block before the first cycle (their initial
    /// residual norm was not finite), `None` when none did.
    retired: Option<String>,

    // Reusable buffers; `basis`/`r_factor` are re-sized at the top of a
    // cycle when deflation has narrowed the active block.
    basis: DistMultiVector,
    r_factor: Matrix,
    /// A block of preconditioned vectors.
    z: Vec<f64>,
}

/// State of one restart cycle.
struct Cycle {
    index: usize,
    step: usize,
    /// Active block width the cycle started with.
    ka: usize,
    /// Newton shifts the cycle started with (a harvest replaces the
    /// solve's before the cycle closes).
    shifts: Vec<f64>,
    /// Communicator traffic of the cycle's `Ortho` phases so far.
    comm_ortho: CommStatsSnapshot,
    /// Per-cycle wall-time breakdown: plain clock reads, always on.
    clock: PhaseClock,
    _span: trace::Span,
    ortho: Box<dyn BlockOrthogonalizer>,
    /// The stored columns the orthogonalizer factored but left
    /// unnormalized, taken before `finish`; the update folds them in.
    factored: Option<Range<usize>>,
    hess: HessenbergRecovery,
    /// Basis columns filled and accepted by the orthogonalizer.
    cols: usize,
    /// The last stage-1 residual estimate of each active column, which sets
    /// the rate the next one is carried forward at; `None` before the first
    /// and after every check on final columns.
    estimates: Option<Vec<f64>>,
    breakdown: Option<String>,
    /// Guard counters when the cycle began (all zero when guards are off).
    fault_base: GuardCounts,
}

/// What the convergence check after a panel concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// The estimate on final columns meets every active target.
    Converged,
    /// The stage-1 estimate will meet them within a panel: complete the
    /// pending big panel now and check again on final columns.
    Flush,
    /// Keep extending the basis.
    Continue,
}

impl Cycle {
    /// Leading basis columns whose R-factor entries are final.
    fn finalized(&self) -> usize {
        self.ortho
            .finalized_cols()
            .unwrap_or(self.cols)
            .min(self.cols)
    }
}

impl<'a> Solve<'a> {
    fn start(
        config: &'a GmresConfig,
        a: &'a DistCsr,
        precond: &'a dyn Preconditioner,
        b: MatView<'a>,
        x: MatViewMut<'a>,
        opts: &BlockOptions,
    ) -> Self {
        let nloc = a.local_matrix().nrows();
        let kb = b.ncols();
        assert!(kb >= 1, "block solve needs at least one right-hand side");
        assert_eq!(b.nrows(), nloc, "rhs row count mismatch");
        assert_eq!(x.nrows(), nloc, "solution row count mismatch");
        assert_eq!(x.ncols(), kb, "solution column count mismatch");
        if let Some(t) = &opts.abs_targets {
            assert_eq!(t.len(), kb, "one absolute target per column");
        }
        let stats_start = a.comm().stats().snapshot();
        let fault_start = guard_counts(a);
        // The big buffers first, ahead of the residual vectors: the measured
        // solve time moves by ~15 % with the allocator's relative placement
        // of these buffers (CHANGES.md, Issue 14), and this is the order the
        // benchmark baseline was recorded with.
        let (basis, r_factor) = cycle_buffers(a, kb * (config.restart + 1));
        let mut solve = Solve {
            config,
            a,
            precond,
            b,
            x,
            stats_start,
            fault_start,
            report: SolveResult {
                col_converged: vec![false; kb],
                relres_history: vec![Vec::new(); kb],
                deflated_at: vec![None; kb],
                ..SolveResult::default()
            },
            residuals: vec![Vec::new(); kb],
            r0_norms: Vec::new(),
            gammas: vec![0.0; kb],
            targets: Vec::new(),
            active: (0..kb).collect(),
            current_basis: config.basis.initial_basis(),
            controller: StepController::new(
                config.step_policy.clone(),
                config.step_size,
                config.restart,
            ),
            agg_relres_history: Vec::new(),
            consecutive_breakdowns: 0,
            no_progress_cycles: 0,
            retired: None,
            basis,
            r_factor,
            z: Vec::new(),
        };
        // r₀ with the initial guess `x`: outside any cycle, so it tags
        // itself.
        fault::set_phase(Phase::Residual.label());
        solve.refresh_residuals();
        solve.r0_norms = solve.gammas.clone();
        solve.targets = match &opts.abs_targets {
            Some(t) => t.clone(),
            None => solve.r0_norms.iter().map(|&r0| config.tol * r0).collect(),
        };
        solve.retire_unusable_references();
        solve
    }

    /// Columns whose initial residual norm gives no reference to converge
    /// against leave the block unconverged before the first cycle, and the
    /// breakdown names them ahead of any later one; the other columns solve
    /// on.
    ///
    /// - A norm that is not finite — an infinite entry in `b`, squares that
    ///   overflow, a NaN initial guess: `tol·∞ = ∞` would read as met.
    /// - A norm of exactly 0 over a residual with nonzero entries — squares
    ///   that underflow: `0 ≤ tol·0` would read as met.  One sum-all-reduce
    ///   of each zero-norm column's count of nonzero entries tells it from
    ///   a truly zero residual, which converges at once as before.  Solves
    ///   without a zero-norm column make no such reduce.
    fn retire_unusable_references(&mut self) {
        let r0 = &self.r0_norms;
        let mut notes = Vec::new();
        let nonfinite: Vec<usize> = (self.active.iter().copied())
            .filter(|&j| !r0[j].is_finite())
            .collect();
        if !nonfinite.is_empty() {
            let named: Vec<String> = (nonfinite.iter())
                .map(|&j| format!("column {j} has initial residual norm {}", r0[j]))
                .collect();
            notes.push(format!(
                "{}: no finite convergence reference",
                named.join(", ")
            ));
        }
        let zero: Vec<usize> = (self.active.iter().copied())
            .filter(|&j| r0[j] == 0.0)
            .collect();
        let mut underflowing = Vec::new();
        if !zero.is_empty() {
            let mut nonzeros: Vec<f64> = (zero.iter())
                .map(|&j| self.residuals[j].iter().filter(|&&v| v != 0.0).count() as f64)
                .collect();
            self.a.comm().allreduce_sum(&mut nonzeros);
            underflowing = (zero.iter().zip(&nonzeros))
                .filter(|&(_, &count)| count > 0.0)
                .map(|(&j, _)| j)
                .collect();
        }
        for &j in &underflowing {
            notes.push(format!(
                "column {j}: initial residual norm underflows; rescale the right-hand side"
            ));
        }
        if !notes.is_empty() {
            self.retired = Some(notes.join("; "));
        }
        self.active
            .retain(|j| !nonfinite.contains(j) && !underflowing.contains(j));
    }

    /// The restart loop.
    fn run(&mut self) {
        let config = self.config;
        'outer: while self.report.restarts < config.max_restarts
            && self.report.iterations < config.max_iters
        {
            // Columns at target leave the block at the restart boundary
            // (an identically zero right-hand side before the first cycle);
            // the sweep after the loop catches the last cycle's.
            self.deflate_converged();
            if self.active.is_empty() {
                break;
            }
            let mut cy = self.begin_cycle();
            // The residual block is the first panel, so every scheme sees
            // its panels starting at column 0.
            let ka = cy.ka;
            if let Err(e) = self.ortho_panel(&mut cy, ka) {
                self.fatal_first_panel(cy, e);
                break 'outer;
            }
            let total = ka * (config.restart + 1);
            // Cleared when a flush the convergence check asked for broke
            // down: the cycle then ends on what was final before it.
            let mut finish_pending = true;
            while cy.cols < total && self.report.iterations < config.max_iters {
                let sb = cy.step.min((total - cy.cols) / ka); // block steps this panel
                self.mpk_panel(&mut cy, sb);
                if let Err(e) = self.ortho_panel(&mut cy, sb * ka) {
                    // Abandon this cycle; use what has been finalized.
                    let msg = format!("panel {}..{}: {e}", cy.cols, cy.cols + sb * ka);
                    self.panel_breakdown(&mut cy, msg);
                    self.consecutive_breakdowns += 1;
                    break;
                }
                self.consecutive_breakdowns = 0;
                // An estimate only: the true residuals below re-verify it.
                let mut check = self.hessenberg_check(&mut cy);
                if check == Check::Flush {
                    finish_pending = self.converge_flush(&mut cy);
                    if !finish_pending {
                        break;
                    }
                    check = self.hessenberg_check(&mut cy);
                }
                if check == Check::Converged {
                    break;
                }
            }
            let k_use = self.ortho_finish(&mut cy, finish_pending);
            if k_use == 0 {
                if self.abandon_cycle(cy) {
                    break 'outer;
                }
                continue;
            }
            self.no_progress_cycles = 0;
            let mut y = self.solve_projected(&mut cy, k_use);
            self.update(&mut cy, k_use, &mut y);
            let relres = self.residual(&mut cy);
            // Cycle health.  The deflation check runs *first*: a column
            // that just met its target is excluded from the κ aggregate
            // (when survivors remain), so the Auto policy never rescues on
            // a deflated column's stale conditioning.
            let survivors: Vec<bool> = self
                .active
                .iter()
                .map(|&j| self.gammas[j] > self.targets[j])
                .collect();
            let (_, poisoned) = self.close_cycle(cy, k_use, &survivors, Some(relres));
            if let Some(guards) = self.guards() {
                // Verdict on this cycle's poisoned operations: the true
                // residual just recomputed is the ground truth.  A finite
                // norm means the rollback ladder absorbed the damage; a
                // non-finite one means the corruption reached state we
                // could not rebuild.
                let all_finite = self.active.iter().all(|&j| self.gammas[j].is_finite());
                guards.resolve_poisoned(poisoned, all_finite);
            }
            if self.consecutive_breakdowns >= 3 {
                break;
            }
            self.keep_rescue_shifts();
        }
        self.deflate_converged();
    }

    /// Close the report: the verdict, the guards' final word, and the
    /// whole-solve totals.
    fn finish(self) -> SolveResult {
        let guards = self.guards();
        let mut report = self.report;
        let converged = report.col_converged.iter().all(|&c| c);
        fault::set_phase("");
        if let Some(guards) = guards {
            // Any poisoned operations still pending (e.g. the solve ran out
            // of cycles mid-rollback) get their verdict from the outcome.
            let pending = guards.counts().since(&self.fault_start).poisoned;
            if pending > 0 {
                guards.resolve_poisoned(pending, converged);
            }
            let c = guards.counts().since(&self.fault_start);
            report.fault_events = guards.events_since(&self.fault_start);
            report.faults_detected = c.detected;
            report.faults_recovered = c.recovered;
            report.faults_unrecovered = c.unrecovered;
        }
        report.converged = converged;
        if let Some(retired) = self.retired {
            report.breakdown = Some(match report.breakdown {
                Some(later) => format!("{retired}; then {later}"),
                None => retired,
            });
        }
        report.final_relres = (self.gammas.iter().zip(&self.r0_norms))
            .map(|(&g, &r0)| if r0 == 0.0 { 0.0 } else { g / r0 })
            .collect();
        report.comm_total = self.a.comm().stats().snapshot().since(&self.stats_start);
        let cycles = report.health_history.iter();
        report.comm_ortho = cycles.fold(CommStatsSnapshot::default(), |sum, h| {
            sum.merge(&h.comm_ortho)
        });
        report.rescues = self.controller.shrinks();
        report
    }

    // ----- phases, in cycle order ------------------------------------------

    /// The bracket every phase body runs in, and the one place a phase is
    /// named: tags the rank thread for fault plans, opens the phase's
    /// `"solver"` span, runs `body`, and charges the cycle with the time
    /// since the previous phase ended — for [`Phase::Ortho`] also with the
    /// communicator traffic of the body.
    fn phase<T>(
        &mut self,
        cy: &mut Cycle,
        phase: Phase,
        span_args: &[(&'static str, u64)],
        body: impl FnOnce(&mut Self, &mut Cycle) -> T,
    ) -> T {
        let name = phase.label();
        fault::set_phase(name);
        let comm_before = (phase == Phase::Ortho).then(|| self.a.comm().stats().snapshot());
        let out = {
            let _span = trace::span("solver", name, span_args);
            body(self, cy)
        };
        if let Some(before) = comm_before {
            let spent = self.a.comm().stats().snapshot().since(&before);
            cy.comm_ortho = cy.comm_ortho.merge(&spent);
        }
        cy.clock.lap(phase);
        out
    }

    /// True residuals `b_j − A·x_j` of the active columns and their norms
    /// (one reduce of `active.len()` words).  Over a guarded communicator a
    /// corrupted or lost halo frame poisons a residual with NaN, so the
    /// norm guard downstream trips.
    ///
    /// The block's one product lands in basis columns `ka..2·ka`: residuals
    /// are refreshed before the first cycle and after the update, when the
    /// basis holds nothing the solve still reads, and the next cycle
    /// overwrites it.
    fn refresh_residuals(&mut self) {
        let ka = self.active.len();
        if ka > 0 {
            let basis = self.basis.local_mut();
            let x = self.x.as_view();
            let (j0, j1) = (self.active[0], self.active[ka - 1]);
            let split = j1 - j0 + 1 != ka;
            if split {
                // Deflation split the active columns: gather them first.
                for (p, &j) in self.active.iter().enumerate() {
                    basis.col_mut(p).copy_from_slice(x.col(j));
                }
            }
            let (gathered, mut ax) = basis.split_at_col(ka);
            let xs = if split {
                gathered.data()
            } else {
                x.cols(j0..j1 + 1).data()
            };
            self.a.spmm(ka, xs, ax.cols_mut(0..ka).data_mut(), None);
            self.report.spmv_count += ka;
            for (p, &j) in self.active.iter().enumerate() {
                let b = self.b.col(j).iter();
                self.residuals[j] = b.zip(ax.col(p)).map(|(bi, axi)| bi - axi).collect();
            }
        }
        let fresh = block_norms(&self.residuals, &self.active, self.a.comm().as_ref());
        for (&j, norm) in self.active.iter().zip(fresh) {
            self.gammas[j] = norm;
        }
    }

    /// Remove converged columns from the active block, in ascending
    /// original order, recording when and in what order they left.
    fn deflate_converged(&mut self) {
        let (gammas, targets, report) = (&self.gammas, &self.targets, &mut self.report);
        self.active.retain(|&j| {
            let converged = gammas[j] <= targets[j];
            if converged {
                report.deflated_at[j] = Some(report.restarts);
                report.deflation_order.push(j);
                report.col_converged[j] = true;
            }
            !converged
        });
    }

    /// Open a cycle: select its basis and effective step (both end up in
    /// the cycle's health record, which is what `BasisStrategy::Scheduled`
    /// and `StepPolicy::Scheduled` replay), size the buffers for the active
    /// width, and load the scaled residual block into columns `0..ka`.
    fn begin_cycle(&mut self) -> Cycle {
        let config = self.config;
        let index = self.report.health_history.len();
        let ka = self.active.len();
        let total = ka * (config.restart + 1);
        if self.basis.local_cols_count() != total {
            // Deflation narrowed the block since the last cycle.
            (self.basis, self.r_factor) = cycle_buffers(self.a, total);
        }
        if let BasisStrategy::Scheduled { per_cycle } = &config.basis {
            self.current_basis = BasisStrategy::scheduled_basis(per_cycle, index);
        }
        let step = self.controller.step_for_cycle(index);
        let mut cy = Cycle {
            index,
            step,
            ka,
            shifts: self.current_basis.clone(),
            comm_ortho: CommStatsSnapshot::default(),
            fault_base: guard_counts(self.a),
            clock: PhaseClock::start(),
            _span: trace::span(
                "solver",
                "cycle",
                &[("cycle", index as u64), ("step", step as u64)],
            ),
            ortho: make_orthogonalizer(config.ortho.for_block_width(ka), total),
            factored: None,
            hess: HessenbergRecovery::with_block_width(total, ka),
            cols: 0,
            estimates: None,
            breakdown: None,
        };
        self.phase(&mut cy, Phase::Other, &[], |s, _| {
            s.r_factor.data_mut().fill(0.0);
            for (p, &j) in s.active.iter().enumerate() {
                s.basis
                    .local_mut()
                    .col_mut(p)
                    .copy_from_slice(&s.residuals[j]);
                s.basis.scale_col(p, 1.0 / s.gammas[j]);
            }
        });
        cy
    }

    /// Matrix-powers kernel: `sb` block steps, i.e. `ka·sb` new basis
    /// columns behind the accepted prefix.
    fn mpk_panel(&mut self, cy: &mut Cycle, sb: usize) {
        let ka = cy.ka;
        let span_args = [("start", cy.cols as u64), ("k", (sb * ka) as u64)];
        self.phase(cy, Phase::Mpk, &span_args, |s, cy| {
            let finalized = cy.finalized();
            for t in 0..sb {
                // The block step's inputs are the `ka` columns before its
                // outputs.
                let input = cy.cols - ka + t * ka;
                if t == 0 {
                    // The panel-start block had already been handed to the
                    // orthogonalizer.
                    for q in 0..ka {
                        cy.hess.mark_submitted_input(input + q, finalized);
                    }
                }
                // One product for the block step, straight into its basis
                // columns, with the step's shift folded into the row write.
                let (done, mut rest) = s.basis.local_mut().split_at_col(input + ka);
                let u = done.cols(input..input + ka).data();
                let z = s.precond.apply_block(u, ka, &mut s.z);
                s.report.precond_count += ka;
                let theta = basis::shift(&s.current_basis, input / ka);
                let shift = (theta != 0.0).then_some((theta, u));
                s.a.spmm(ka, z, rest.cols_mut(0..ka).data_mut(), shift);
                s.report.spmv_count += ka;
            }
            s.report.iterations += sb * ka;
        });
    }

    /// Hand basis columns `cols..cols + width` to the orthogonalizer; on
    /// success they join the cycle's accepted prefix.
    fn ortho_panel(&mut self, cy: &mut Cycle, width: usize) -> Result<(), OrthoError> {
        let span_args = [("start", cy.cols as u64), ("cols", width as u64)];
        self.phase(cy, Phase::Ortho, &span_args, |s, cy| {
            let new = cy.cols..cy.cols + width;
            cy.ortho
                .orthogonalize_panel(&mut s.basis, new, &mut s.r_factor)?;
            cy.cols += width;
            Ok(())
        })
    }

    /// Convergence estimate over every accepted column.  On final columns
    /// it is the verdict: whether every active column's projected residual
    /// meets its target.  With columns still pending it is a stage-1
    /// estimate and only a trigger: [`Check::Flush`] when every estimate,
    /// carried one more panel at the rate of the last one, meets its target.
    fn hessenberg_check(&mut self, cy: &mut Cycle) -> Check {
        let (cols, ka) = (cy.cols, cy.ka);
        self.phase(cy, Phase::Hess, &[("cols", cols as u64)], |s, cy| {
            if cols < 2 * ka {
                return Check::Continue;
            }
            let (_, estimates) = s.projected_solve(cy, cols - ka);
            let targets = s.active.iter().map(|&j| s.targets[j]);
            let final_cols = cy.finalized() == cols;
            let met = if final_cols {
                // A new stored basis starts behind these columns, and with
                // it a new rate.
                cy.estimates = None;
                targets.zip(&estimates).all(|(target, &est)| est <= target)
            } else {
                let last = cy.estimates.as_deref().unwrap_or(&estimates);
                let met = (targets.zip(&estimates).zip(last))
                    .all(|((target, &est), &before)| est * (est / before).min(1.0) <= target);
                cy.estimates = Some(estimates);
                met
            };
            match (met, final_cols) {
                (false, _) => Check::Continue,
                (true, true) => Check::Converged,
                (true, false) => Check::Flush,
            }
        })
    }

    /// The flush a [`Check::Flush`] asks for: complete the pending big panel
    /// now, so that the check on final columns can decide.  Returns whether
    /// it succeeded.
    fn converge_flush(&mut self, cy: &mut Cycle) -> bool {
        let pending = (cy.cols - cy.finalized()) as u64;
        self.phase(cy, Phase::Ortho, &[("cols", pending)], |s, cy| {
            trace::instant("solver", "converge_flush", &[("cols", pending)]);
            s.complete_ortho(cy)
        })
    }

    /// Complete delayed orthogonalization (unless a flush of this cycle
    /// already broke down: `flush` false), except the normalization of a
    /// factored panel, which the update folds into the projected solution
    /// instead.  Returns the number of usable MPK inputs (`0` = nothing to
    /// update the solution from).
    fn ortho_finish(&mut self, cy: &mut Cycle, flush: bool) -> usize {
        self.phase(cy, Phase::Ortho, &[], |s, cy| {
            cy.factored = cy.ortho.take_factored_panel();
            if flush {
                s.complete_ortho(cy);
            }
        });
        self.report.ortho_fallbacks += cy.ortho.fallback_count();
        cy.finalized().saturating_sub(cy.ka)
    }

    /// Recover the Hessenberg block over the `k_use` usable inputs, harvest
    /// Ritz shifts from it, and solve the projected least-squares problem.
    fn solve_projected(&mut self, cy: &mut Cycle, k_use: usize) -> Matrix {
        self.phase(cy, Phase::Hess, &[("cols", k_use as u64)], |s, cy| {
            let (y, _) = s.projected_solve(cy, k_use);
            s.harvest_shifts(cy, k_use);
            y
        })
    }

    /// Solution update `x_j ← x_j + M⁻¹·(Q_{0..k_use}·y_j)`, formed from
    /// the stored basis: a factored panel's columns hold `Q̂`, so `Y` is
    /// folded first and `Q̂·Y′ = Q·Y` costs no `n`-row TRSM.
    fn update(&mut self, cy: &mut Cycle, k_use: usize, y: &mut Matrix) {
        self.phase(cy, Phase::Update, &[("cols", k_use as u64)], |s, cy| {
            if let Some(cols) = cy.factored.clone() {
                let coeffs = (cy.ortho.stored_basis_coeffs())
                    .expect("a factored panel's relation is its stored-basis coefficients");
                fold_factored(coeffs, cols, y);
            }
            // A poisoned cycle can smuggle NaN into the projected solution
            // without tripping the Cholesky; never let it reach x, where it
            // would be unrecoverable — skip the update and let the
            // breakdown verdict shrink the step instead.
            if y.data().iter().all(|v| v.is_finite()) {
                let (nloc, ka) = (s.a.local_rows(), cy.ka);
                // Q·Y for all active columns in one row-panel-blocked pass
                // over the basis.
                let mut qy = vec![0.0; nloc * ka];
                dense::gemm_nn_plus(
                    &mut MatViewMut::from_slice(nloc, ka, &mut qy),
                    &s.basis.local_cols(0..k_use),
                    y,
                );
                let z = s.precond.apply_block(&qy, ka, &mut s.z);
                s.report.precond_count += ka;
                for (p, &j) in s.active.iter().enumerate() {
                    let zp = &z[p * nloc..(p + 1) * nloc];
                    for (xi, zi) in s.x.col_mut(j).iter_mut().zip(zp) {
                        *xi += zi;
                    }
                }
            } else {
                let msg = "projected solution non-finite (poisoned cycle); update skipped";
                s.note_breakdown(cy, msg.to_string());
                s.consecutive_breakdowns += 1;
            }
            s.report.restarts += 1;
        });
    }

    /// True residuals for the next cycle / convergence verification.
    /// Returns the cycle's block-level relative residual.
    fn residual(&mut self, cy: &mut Cycle) -> f64 {
        self.phase(cy, Phase::Residual, &[], |s, _| {
            s.refresh_residuals();
            for &j in &s.active {
                s.report.relres_history[j].push(s.gammas[j] / s.r0_norms[j]);
            }
            let agg = aggregate_relres(&s.gammas, &s.r0_norms, &s.active);
            s.agg_relres_history.push(agg);
            agg
        })
    }

    /// Health report, controller decision, and time breakdown of a finished
    /// cycle.  Every signal is local or replicated (R-factor diagonal,
    /// fallback events, residuals already reduced), so this costs zero
    /// additional global reductions.  Returns the decision and the number
    /// of operations the cycle left poisoned, for the caller's verdict.
    fn close_cycle(
        &mut self,
        mut cy: Cycle,
        usable_cols: usize,
        survivors: &[bool],
        relres: Option<f64>,
    ) -> (StepDecision, usize) {
        let (health, faults) = self.cycle_health(&mut cy, usable_cols, survivors, relres);
        let decision = self.controller.observe(&health);
        self.report.health_history.push(health);
        if decision.shrunk() {
            trace::instant(
                "solver",
                "step_shrink",
                &[("cycle", cy.index as u64), ("step", cy.step as u64)],
            );
        }
        self.report.cycle_timings.push(cy.clock.finish());
        (decision, faults.poisoned)
    }

    // ----- cycle exits that produce no update --------------------------------

    /// The residual block itself could not be normalized; no step size
    /// rescues this.  Record the cycle's health for observability (the
    /// controller is not consulted) — the caller stops the solve.
    fn fatal_first_panel(&mut self, mut cy: Cycle, e: OrthoError) {
        self.panel_breakdown(&mut cy, format!("initial block: {e}"));
        let all_active = vec![true; cy.ka];
        let (health, faults) = self.cycle_health(&mut cy, 0, &all_active, None);
        if let Some(guards) = self.guards() {
            // Whatever was poisoned this cycle stays unrecovered.
            guards.resolve_poisoned(faults.poisoned, false);
        }
        self.report.health_history.push(health);
        self.report.cycle_timings.push(cy.clock.finish());
    }

    /// Nothing usable was generated in this cycle: without an update the
    /// next cycle would start from the same residual, so give up after
    /// repeated empty cycles — unless the Auto policy can still rescue by
    /// shrinking the step.  Returns whether the solve gives up.
    fn abandon_cycle(&mut self, cy: Cycle) -> bool {
        self.no_progress_cycles += 1;
        let all_active = vec![true; cy.ka];
        let (decision, poisoned) = self.close_cycle(cy, 0, &all_active, None);
        let giving_up = !decision.shrunk()
            && (self.no_progress_cycles >= 2 || self.consecutive_breakdowns >= 3);
        if let Some(guards) = self.guards() {
            // The abandoned cycle *is* the rollback rung of the ladder:
            // poisoned payloads were discarded with the cycle and the next
            // one restarts from the last good residual — unless the solver
            // is giving up entirely.
            guards.resolve_poisoned(poisoned, !giving_up);
        }
        if giving_up {
            return true;
        }
        // An empty cycle yields no Hessenberg to harvest from; the adaptive
        // policy retries the next cycle with the monomial basis (the shifts
        // may be what broke the panel).
        if matches!(self.config.basis, BasisStrategy::Adaptive { .. }) {
            self.current_basis.clear();
        }
        self.keep_rescue_shifts();
        self.report.restarts += 1;
        false
    }

    // ----- helpers ---------------------------------------------------------------

    /// The detection guards of the communicator the solve runs on.
    fn guards(&self) -> Option<&'a GuardedComm> {
        self.a.comm().guards()
    }

    /// A panel the orthogonalizer refused ends the cycle's panel loop; its
    /// message replaces the diagnostic of any earlier cycle.
    fn panel_breakdown(&mut self, cy: &mut Cycle, msg: String) {
        self.report.breakdown = Some(msg.clone());
        cy.breakdown = Some(msg);
    }

    /// Run the orthogonalizer's delayed work on everything pending; a
    /// failure is the cycle's breakdown.  Returns whether it succeeded.
    fn complete_ortho(&mut self, cy: &mut Cycle) -> bool {
        let done = cy.ortho.finish(&mut self.basis, &mut self.r_factor);
        if let Err(e) = &done {
            self.note_breakdown(cy, format!("finish: {e}"));
            self.consecutive_breakdowns += 1;
        }
        done.is_ok()
    }

    /// Record a late-cycle breakdown unless one is already on record.
    fn note_breakdown(&mut self, cy: &mut Cycle, msg: String) {
        self.report.breakdown.get_or_insert_with(|| msg.clone());
        cy.breakdown.get_or_insert(msg);
    }

    /// Recover the Hessenberg block over `k` inputs and solve the projected
    /// least-squares problem; returns `(Y, residual estimates)`.  One active
    /// column keeps the Givens solve against `β·e₁`; wider blocks take the
    /// banded QR with the residual block's R-factor coordinates.
    fn projected_solve(&self, cy: &mut Cycle, k: usize) -> (Matrix, Vec<f64>) {
        let finalized = cy.finalized();
        cy.hess.rewind(finalized);
        cy.hess.recover_upto(
            k,
            &self.r_factor,
            cy.ortho.stored_basis_coeffs(),
            &self.current_basis,
        );
        if cy.ka == 1 {
            let (y, estimate) = cy.hess.least_squares(k, self.gammas[self.active[0]]);
            (Matrix::from_col_major(k, 1, y), vec![estimate])
        } else {
            let rhs = block_ls_rhs(&self.r_factor, &self.active, &self.gammas, k, cy.ka);
            cy.hess.block_least_squares(k, &rhs)
        }
    }

    /// Harvest Ritz shifts from this cycle's Hessenberg block.  The block
    /// is replicated (recovered from the replicated R factor), so every
    /// rank computes identical shifts with zero extra communication; only
    /// the adaptive policy acts on the result, but the harvest is recorded
    /// for every strategy so a warm-up solve can serve as a shift oracle.
    /// Harvesting consumes a square Hessenberg block, so it runs while the
    /// active block is one column wide.
    fn harvest_shifts(&mut self, cy: &Cycle, k_use: usize) {
        // The harvest cap follows the *requested* step size even when a
        // rescue shrank the effective one — exactly the manual warm-up
        // oracle's shape, so a reduced-step cycle yields enough shifts to
        // probe back up to the requested step.
        let s_req = self.config.step_size;
        let (max_shifts, min_h) = match self.config.basis {
            BasisStrategy::Adaptive { max_shifts } => (max_shifts, shifts::ADAPTIVE_MIN_HESSENBERG),
            _ => (0, 2),
        };
        let cap = if max_shifts == 0 { s_req } else { max_shifts };
        let harvest = if cy.ka == 1 && k_use >= min_h {
            shifts::harvest_newton_shifts(&cy.hess, k_use, cap)
        } else {
            None
        };
        if let Some(h) = &harvest {
            self.report.last_harvest = Some(h.clone());
        }
        if matches!(self.config.basis, BasisStrategy::Adaptive { .. }) {
            self.current_basis = harvest.unwrap_or_default();
        }
    }

    /// Once an Auto rescue is active, keep the most recent harvested Newton
    /// shifts in effect for strategies that would otherwise re-run the
    /// basis that broke (the automated form of the README's warm-up shift
    /// oracle).  Adaptive re-harvests on its own and Scheduled must replay
    /// verbatim, so both are left alone; non-Auto policies never activate a
    /// rescue.
    fn keep_rescue_shifts(&mut self) {
        let fixed_basis = matches!(
            self.config.basis,
            BasisStrategy::Monomial | BasisStrategy::Newton { .. }
        );
        if !fixed_basis || !self.controller.rescue_active() {
            return;
        }
        if let Some(shifts) = self.report.last_harvest.as_ref().filter(|s| !s.is_empty()) {
            self.current_basis = shifts.clone();
        }
    }

    /// Assemble the cycle's [`CycleHealth`] from its raw signals (taking
    /// the cycle's shifts and orthogonalization traffic), with the guard
    /// activity attributable to it.
    fn cycle_health(
        &self,
        cy: &mut Cycle,
        usable_cols: usize,
        survivors: &[bool],
        relres: Option<f64>,
    ) -> (CycleHealth, GuardCounts) {
        let faults = guard_counts(self.a).since(&cy.fault_base);
        let blocks_done = (cy.finalized() / cy.ka).min(cy.step + 1);
        let kappa_per_col = control::block_r_diag_condition(&self.r_factor, cy.ka, blocks_done);
        let kappa_est = control::active_kappa_max(&kappa_per_col, survivors);
        let fallbacks = cy.ortho.fallback_count();
        let stagnated = relres.is_some() && control::residual_stagnated(&self.agg_relres_history);
        // Poisoned operations have no final verdict at assessment time (the
        // rollback has not been retried yet), so the health report treats
        // them as unrecovered: the controller must react to the damage
        // *this* cycle.
        let faults_unrecovered = faults.poisoned + faults.unrecovered;
        let verdict = control::assess_cycle(
            cy.breakdown.is_some(),
            usable_cols,
            kappa_est,
            fallbacks,
            stagnated,
            faults_unrecovered,
        );
        let health = CycleHealth {
            step: cy.step,
            shifts: std::mem::take(&mut cy.shifts),
            comm_ortho: cy.comm_ortho,
            usable_cols,
            kappa_est,
            fallbacks,
            fallback_events: cy.ortho.fallback_events().to_vec(),
            breakdown: cy.breakdown.clone(),
            relres,
            stagnated,
            kappa_per_col,
            verdict,
            faults_detected: faults.detected,
            faults_recovered: faults.recovered,
            faults_unrecovered,
        };
        (health, faults)
    }
}

/// The Krylov basis and its replicated R factor, both `total` columns
/// wide.
fn cycle_buffers(a: &DistCsr, total: usize) -> (DistMultiVector, Matrix) {
    let nloc = a.local_matrix().nrows();
    let basis = DistMultiVector::zeros(
        a.comm().clone(),
        a.global_rows(),
        nloc,
        a.row_offset(),
        total,
    );
    (basis, Matrix::zeros(total, total))
}

/// The guard counters of `a`'s communicator (all zero when unguarded).
fn guard_counts(a: &DistCsr) -> GuardCounts {
    a.comm()
        .guards()
        .map(GuardedComm::counts)
        .unwrap_or_default()
}

/// Pack per-column right-hand sides into the `nloc × k` local block.
fn cols_to_matrix(nloc: usize, cols: &[Vec<f64>]) -> Matrix {
    assert!(!cols.is_empty(), "block solve needs at least one column");
    let mut b = Matrix::zeros(nloc, cols.len());
    for (j, c) in cols.iter().enumerate() {
        assert_eq!(c.len(), nloc, "rhs length mismatch in column {j}");
        b.col_mut(j).copy_from_slice(c);
    }
    b
}

/// Global 2-norms of the active residual columns in **one** all-reduce of
/// `active.len()` words (twice that when guarded: the duplicated-word
/// screen); all `NaN` when the guards poisoned the reduce.  The reduced
/// sums are non-negative by construction, so their roots are taken as they
/// are: a NaN in a residual stays NaN in its norm.
fn block_norms(residuals: &[Vec<f64>], active: &[usize], comm: &dyn Communicator) -> Vec<f64> {
    let mut sq: Vec<f64> = active
        .iter()
        .map(|&j| dense::dot(&residuals[j], &residuals[j]))
        .collect();
    if !comm.allreduce_screened(&mut sq, Screen::Norms) {
        return vec![f64::NAN; sq.len()];
    }
    sq.iter().map(|v| v.sqrt()).collect()
}

/// Block-level relative residual of a cycle: the max over active columns
/// (`gamma / r0` itself at one active column), `NaN` if any column's is.
fn aggregate_relres(gammas: &[f64], r0_norms: &[f64], active: &[usize]) -> f64 {
    let mut agg = f64::NEG_INFINITY;
    for &j in active {
        let v = gammas[j] / r0_norms[j];
        if v.is_nan() {
            return f64::NAN;
        }
        agg = agg.max(v);
    }
    agg
}

/// Right-hand sides of the projected block least-squares problem:
/// column `p` is `γ_p · S[:, p]` zero-padded to `k_inputs + ka` rows, with
/// `S` the leading `ka × ka` block of the R factor (the residual block's
/// coordinates in the orthonormal basis).
fn block_ls_rhs(
    r_factor: &Matrix,
    active: &[usize],
    gammas: &[f64],
    k_inputs: usize,
    ka: usize,
) -> Matrix {
    let mut rhs = Matrix::zeros(k_inputs + ka, ka);
    for (p, &j) in active.iter().enumerate() {
        let g = gammas[j];
        for i in 0..ka {
            rhs[(i, p)] = g * r_factor[(i, p)];
        }
    }
    rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GmresConfig;
    use blockortho::OrthoKind;
    use sparse::{laplace2d_5pt, laplace2d_9pt, Csr};

    fn rhs_for(a: &Csr, seed: usize) -> Vec<f64> {
        (0..a.nrows())
            .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
            .collect()
    }

    fn block_relres(a: &Csr, x: &Matrix, b: &[Vec<f64>], j: usize) -> f64 {
        let ax = a.spmv_alloc(x.col(j));
        let rn: f64 = ax
            .iter()
            .zip(&b[j])
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b[j].iter().map(|v| v * v).sum::<f64>().sqrt();
        rn / bn
    }

    #[test]
    fn block_solve_converges_every_column_on_every_scheme() {
        let a = laplace2d_9pt(16, 16);
        let b: Vec<Vec<f64>> = (0..4).map(|j| rhs_for(&a, j)).collect();
        for ortho in [
            OrthoKind::BcgsPip2,
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::TwoStage { big_panel: 30 },
            OrthoKind::TwoStageSketched { big_panel: 10 },
        ] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            });
            let (x, r) = solver.solve_block_serial(&a, &b);
            assert!(r.converged, "{ortho:?}: {:?}", r.breakdown);
            assert!(r.col_converged.iter().all(|&c| c), "{ortho:?}");
            for j in 0..4 {
                assert!(
                    block_relres(&a, &x, &b, j) < 1e-7,
                    "{ortho:?} column {j}: {}",
                    block_relres(&a, &x, &b, j)
                );
            }
        }
    }

    #[test]
    fn reduce_count_per_cycle_is_independent_of_block_width() {
        // The headline: reduces are paid per batch, not per RHS.  Force
        // full cycles (tiny tolerance, fixed restarts) so the per-cycle
        // schedule is identical, then compare counts at k = 1 and k = 4.
        let a = laplace2d_5pt(20, 20);
        let run = |k: usize| {
            let b: Vec<Vec<f64>> = (0..k).map(|j| rhs_for(&a, j)).collect();
            let solver = SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-30,
                max_restarts: 4,
                ortho: OrthoKind::TwoStage { big_panel: 20 },
                ..GmresConfig::default()
            });
            let (_, r) = solver.solve_block_serial(&a, &b);
            assert_eq!(r.restarts, 4);
            r
        };
        let r1 = run(1);
        let r4 = run(4);
        assert_eq!(
            r1.comm_total.allreduces, r4.comm_total.allreduces,
            "per-batch reduce count must not scale with k"
        );
        assert_eq!(r1.comm_ortho.allreduces, r4.comm_ortho.allreduces);
        assert_eq!(r4.iterations, 4 * r1.iterations, "k columns per block step");
        // The payload axis is what scales instead.
        assert!(
            r4.comm_ortho.allreduce_words > 3 * r1.comm_ortho.allreduce_words,
            "k=4 words {} vs k=1 words {}",
            r4.comm_ortho.allreduce_words,
            r1.comm_ortho.allreduce_words
        );
    }

    #[test]
    fn converged_columns_deflate_and_survivors_finish() {
        let a = laplace2d_9pt(14, 14);
        // Column 1 gets a loose absolute target: it deflates early.
        let b: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(&a, j)).collect();
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-9,
            ortho: OrthoKind::BcgsPip2,
            ..GmresConfig::default()
        });
        let b0: f64 = b[1].iter().map(|v| v * v).sum::<f64>().sqrt();
        let opts = BlockOptions {
            abs_targets: Some(vec![1e-9 * b0, 0.5 * b0, 1e-9 * b0]),
        };
        let comm = SerialComm::new();
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(comm, &a, &part);
        let bm = cols_to_matrix(a.nrows(), &b);
        let mut x = Matrix::zeros(a.nrows(), 3);
        let r = solver.solve_block_with(&dist, &Identity, &bm, &mut x, &opts);
        assert!(r.converged, "{:?}", r.breakdown);
        assert_eq!(r.deflation_order.first(), Some(&1), "loose column first");
        let d1 = r.deflated_at[1].expect("column 1 deflated");
        assert!(d1 < r.restarts, "column 1 must leave before the end");
        // Its history stopped growing at deflation.
        assert_eq!(r.relres_history[1].len(), d1);
        assert!(r.relres_history[0].len() >= r.relres_history[1].len());
    }

    #[test]
    fn early_flush_carries_a_wide_block_past_a_refused_panel() {
        // k = 3, s = 5, bs = m: the fourth 15-wide monomial panel of the
        // first cycle is refused by the first stage (the three pre-processed
        // panels before it have drifted too far from orthonormal).  The
        // two-stage scheme flushes its second stage and takes the panel
        // again: the cycle keeps all 60 columns and reports no breakdown,
        // and no column of the basis is generated twice.
        let a = laplace2d_9pt(16, 16);
        let b: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(&a, j)).collect();
        let (x, r) = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 20 },
            ..GmresConfig::default()
        })
        .solve_block_serial(&a, &b);
        assert!(r.converged, "{:?}", r.breakdown);
        assert_eq!(r.breakdown, None);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.health_history[0].usable_cols, 60);
        assert_eq!(r.spmv_count, r.iterations + 3 * (r.restarts + 1));
        for j in 0..3 {
            assert!(block_relres(&a, &x, &b, j) < 1e-8, "col {j}");
        }
    }

    #[test]
    fn zero_block_returns_immediately() {
        let a = laplace2d_5pt(10, 10);
        let b = vec![vec![0.0; 100], vec![0.0; 100]];
        let (x, r) = SStepGmres::new(GmresConfig::default()).solve_block_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(x.data().iter().all(|&v| v == 0.0));
        assert_eq!(r.final_relres, vec![0.0, 0.0]);
        // Converged before the first cycle, like a zero column in a mixed
        // block.
        assert_eq!(r.deflated_at, vec![Some(0), Some(0)]);
        assert_eq!(r.deflation_order, vec![0, 1]);
    }

    #[test]
    fn mixed_zero_and_nonzero_columns_work() {
        let a = laplace2d_5pt(12, 12);
        let b = vec![vec![0.0; 144], rhs_for(&a, 1)];
        let (x, r) = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ..GmresConfig::default()
        })
        .solve_block_serial(&a, &b);
        assert!(r.converged, "{:?}", r.breakdown);
        assert_eq!(r.deflated_at[0], Some(0), "zero column deflates up front");
        assert!(x.col(0).iter().all(|&v| v == 0.0));
        assert!(block_relres(&a, &x, &b, 1) < 1e-7);
    }

    #[test]
    fn streamed_block_solve_matches_replicated_bitwise() {
        let rows = sparse::Laplace2d9ptRows { nx: 12, ny: 12 };
        let a = laplace2d_9pt(12, 12);
        let b: Vec<Vec<f64>> = (0..2).map(|j| rhs_for(&a, j)).collect();
        let solver = SStepGmres::new(GmresConfig {
            restart: 24,
            step_size: 4,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 24 },
            ..GmresConfig::default()
        });
        let (x_rep, r_rep) = solver.solve_block_serial(&a, &b);
        let (x_str, r_str) = solver.solve_block_serial(&rows, &b);
        assert!(r_rep.converged && r_str.converged);
        assert_eq!(x_rep.data(), x_str.data(), "bitwise identical blocks");
        assert_eq!(r_rep.comm_total, r_str.comm_total);
    }
}
