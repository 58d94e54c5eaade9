//! Per-cycle step-size control for the s-step solver.
//!
//! The monomial (and even a badly shifted Newton) matrix-powers basis can
//! collapse at the *requested* step size — elasticity3d at `s = 8` breaks
//! down in the very first panel — and "On the backward stability of s-step
//! GMRES" (arXiv 2409.03079) shows the attainable accuracy is governed by
//! the per-cycle basis conditioning.  Both mean an ill-conditioned panel is
//! a **runtime signal to react to**, not a configuration error.  This
//! module automates the manual warm-up shift oracle of [`crate::basis`]:
//!
//! * every restart cycle produces a [`CycleHealth`] report built entirely
//!   from *replicated* data (the recovered R factor's diagonal, the
//!   orthogonalizer's [`FallbackEvent`]s, the true-residual history), so
//!   monitoring costs **zero additional global reductions**;
//! * under [`StepPolicy::Auto`] the [`StepController`] **halves** the
//!   effective step on a breakdown cycle (down to `s = 1`, where the
//!   solver degenerates to safe standard GMRES panels), lets the solver
//!   re-harvest Newton shifts from the surviving reduced-step cycle, and
//!   **probes back up** (doubling, capped at the requested `s`) after two
//!   consecutive clean cycles;
//! * [`StepPolicy::Fixed`] (the default) never deviates from the
//!   configured step — it is pinned bitwise-identical to the pre-controller
//!   solver — and [`StepPolicy::Scheduled`] replays a recorded
//!   [`crate::SolveResult::steps`] schedule verbatim, which is how the test
//!   suite proves Auto's decisions cost nothing: an Auto solve replayed
//!   through `Scheduled` steps + `Scheduled` shifts is bitwise identical,
//!   communication counts included.
//!
//! `tests/controller_equivalence.rs` holds those three pins
//! (`fixed_is_the_default_policy_and_replays_through_scheduled`,
//! `auto_with_all_healthy_signals_is_bitwise_identical_to_fixed`,
//! `auto_rescue_replays_bitwise_through_scheduled_steps_and_shifts`), so at
//! equal realized step sizes Auto's reduce and word counts are exactly a
//! controller-less solve's.  `tests/breakdown_scenarios.rs` feeds engineered
//! near-rank-deficient panels (duplicated Krylov directions, `κ ≈ 1/ε`,
//! zero columns, the `s = restart` edge) through every orthogonalization
//! kind: each one succeeds to its documented orthogonality or reports an
//! error or a fallback, never silently.  Auto's decisions are the same on
//! every rank of a distributed run
//! (`auto_decisions_agree_across_ranks_and_rescue_across_rank_counts`).
//! The `robustness` binary runs the rescue end to end and records it in
//! `BENCH_robustness.json`: elasticity3d at a requested `s = 12`, where
//! `Fixed` breaks down, converges under `Auto` with no oracle.

use blockortho::FallbackEvent;
use dense::Matrix;
use distsim::CommStatsSnapshot;

/// How the solver chooses the effective matrix-powers step size per cycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StepPolicy {
    /// Every cycle runs at the configured [`crate::GmresConfig::step_size`]
    /// (bitwise-identical to the solver before the controller existed).
    #[default]
    Fixed,
    /// Monitor per-cycle health and shrink/regrow the effective step
    /// (see [`StepController`]).
    Auto,
    /// Replay a recorded per-cycle step schedule: cycle `c` runs at
    /// `per_cycle[c]` (the last entry is reused past the end; entries are
    /// clamped to `[1, restart]`).  Feeding a previous solve's
    /// [`crate::SolveResult::steps`] back through this variant, together
    /// with [`crate::BasisStrategy::Scheduled`] for its
    /// [`shifts`](crate::SolveResult::shifts), reproduces that solve
    /// bitwise.
    Scheduled {
        /// Effective step per restart cycle.
        per_cycle: Vec<usize>,
    },
}

// Thresholds of the self-rescuing step policy.  Every cycle is assessed
// with them, whatever the policy, so `health_history` reads the same
// everywhere; only [`StepPolicy::Auto`] acts on the verdict.

/// Floor for the effective step size: standard GMRES panels, the safest
/// configuration the s-step solver degenerates to.
const MIN_STEP: usize = 1;
/// Consecutive clean cycles required before probing the step back up (one
/// doubling per probe, capped at the requested step).
const GROW_AFTER: usize = 2;
/// R-diagonal condition estimate above which a cycle is *distressed*: the
/// panel is approaching the `O(1/sqrt(eps))` Cholesky bound and a probe
/// upward would likely break.
const KAPPA_THRESHOLD: f64 = 1e8;
/// Number of completed cycles over which residual stagnation is measured.
const STAGNATION_WINDOW: usize = 4;
/// A cycle is *stagnated* when the relative residual failed to drop below
/// this factor times its value [`STAGNATION_WINDOW`] cycles ago (less than
/// 10% total progress).  Stagnation shrinks the step: per the
/// backward-stability analysis, a better-conditioned (shorter) basis raises
/// the attainable accuracy.
const STAGNATION_FACTOR: f64 = 0.9;

/// Classification of one restart cycle's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleVerdict {
    /// No breakdown, no remedial fallbacks, conditioning within bounds,
    /// residual still making progress.
    Clean,
    /// Usable but strained: the orthogonalizer needed remedial passes, the
    /// R-diagonal condition estimate exceeded the threshold, or the
    /// residual stagnated.  The controller will not probe upward out of a
    /// distressed state.
    Distressed,
    /// The cycle broke down (an orthogonalization error, or no usable
    /// columns were produced).  The controller shrinks the step.
    Breakdown,
}

/// What one restart cycle decided and counted, assembled by the solver
/// from replicated data only (no additional communication).  A cycle's
/// index is its position in [`crate::SolveResult::health_history`].
///
/// Every field is bitwise reproducible across runs, thread counts and
/// traced/untraced solves — wall times live in [`crate::CycleTiming`] — so
/// two solves that should agree are compared with `==` on this type.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleHealth {
    /// Effective step size the cycle ran at.
    pub step: usize,
    /// Newton shifts in effect for the cycle (empty = monomial basis).
    pub shifts: Vec<f64>,
    /// Communication the cycle's block orthogonalization performed (this
    /// rank): every panel plus the delayed `finish`.
    pub comm_ortho: CommStatsSnapshot,
    /// Usable basis columns the cycle produced (`k_use`; 0 = empty cycle).
    pub usable_cols: usize,
    /// Condition estimate of the cycle's Krylov panel: the ratio of the
    /// largest to smallest |diagonal| of the finalized R factor (a cheap
    /// lower bound on the basis condition number; `inf` after a breakdown
    /// that left no finalized columns).
    pub kappa_est: f64,
    /// Distinct remedial-fallback episodes the orthogonalizer took this
    /// cycle (the deduplicated [`blockortho::BlockOrthogonalizer::fallback_count`]).
    pub fallbacks: usize,
    /// Per-stage detail of each remedial episode (stage, panel, shift).
    pub fallback_events: Vec<FallbackEvent>,
    /// The orthogonalization breakdown message, if the cycle hit one.
    pub breakdown: Option<String>,
    /// True relative residual after the cycle's solution update (`None`
    /// for an empty cycle, which performs no update).
    pub relres: Option<f64>,
    /// Whether the residual history qualified as stagnated at this cycle.
    pub stagnated: bool,
    /// Per-column condition estimates of the cycle's interleaved R factor
    /// (one entry per column active when the cycle started — a single one
    /// for a single-RHS solve; see [`block_r_diag_condition`]).
    /// `kappa_est` aggregates these with
    /// [`active_kappa_max`] over the columns that *survive* the cycle's
    /// deflation check, so the Auto policy never shrinks or blocks a probe
    /// on a deflated column's stale conditioning.
    pub kappa_per_col: Vec<f64>,
    /// Faults the detection guards caught during this cycle (zero when
    /// guards are disabled).
    pub faults_detected: usize,
    /// Of those, faults recovered in place (successful collective retry,
    /// discarded duplicate halo message).
    pub faults_recovered: usize,
    /// Faults that exhausted in-place recovery this cycle and reached the
    /// rollback ladder as poisoned payloads.  A cycle with any of these is
    /// never [`CycleVerdict::Clean`].
    pub faults_unrecovered: usize,
    /// The overall classification (see [`assess_cycle`]).
    pub verdict: CycleVerdict,
}

/// Classify a cycle from its raw signals.
pub fn assess_cycle(
    broke_down: bool,
    usable_cols: usize,
    kappa_est: f64,
    fallbacks: usize,
    stagnated: bool,
    faults_unrecovered: usize,
) -> CycleVerdict {
    // NaN condition estimates count as over the threshold.
    let kappa_bad = kappa_est > KAPPA_THRESHOLD || kappa_est.is_nan();
    if broke_down || usable_cols == 0 {
        CycleVerdict::Breakdown
    } else if fallbacks > 0 || kappa_bad || stagnated || faults_unrecovered > 0 {
        CycleVerdict::Distressed
    } else {
        CycleVerdict::Clean
    }
}

/// Whether the relative-residual history is stagnating: the latest value
/// failed to drop below `STAGNATION_FACTOR` times the value
/// `STAGNATION_WINDOW` completed cycles earlier (non-finite values count as
/// stagnation).
pub fn residual_stagnated(relres_history: &[f64]) -> bool {
    if relres_history.len() < STAGNATION_WINDOW + 1 {
        return false;
    }
    let last = relres_history[relres_history.len() - 1];
    let bound = STAGNATION_FACTOR * relres_history[relres_history.len() - 1 - STAGNATION_WINDOW];
    // "Did not improve" — a NaN residual (either side) is stagnation too.
    !matches!(last.partial_cmp(&bound), Some(std::cmp::Ordering::Less))
}

/// Per-column condition estimates of a cycle's Krylov basis from the R
/// factor's diagonal: `max |R_ii| / min |R_ii|` per right-hand-side column.
/// Replicated input, so every rank computes the identical values with no
/// communication.
///
/// The solver interleaves its `block_width` right-hand-side columns:
/// column `j` of the block occupies basis columns `j`, `block_width + j`,
/// `2·block_width + j`, … so its per-column conditioning is the
/// max/min ratio over exactly those diagonal entries of `R`, scanned over
/// the leading `blocks` diagonal blocks (at `block_width = 1`, the leading
/// `blocks` diagonal entries).
pub fn block_r_diag_condition(r: &Matrix, block_width: usize, blocks: usize) -> Vec<f64> {
    assert!(block_width >= 1, "block width must be at least 1");
    let mut out = Vec::with_capacity(block_width);
    for j in 0..block_width {
        if blocks == 0 {
            out.push(f64::INFINITY);
            continue;
        }
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for i in 0..blocks {
            let d = r[(i * block_width + j, i * block_width + j)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        out.push(if lo == 0.0 || !lo.is_finite() || !hi.is_finite() {
            f64::INFINITY
        } else {
            hi / lo
        });
    }
    out
}

/// Aggregate per-column condition estimates into the scalar `kappa_est`
/// the [`StepController`] acts on: the **max over still-active columns**.
///
/// Columns deflated out of the block (converged) are masked out so their
/// stale conditioning cannot push the Auto policy into a rescue; when no
/// column remains active (the block just finished), every column's estimate
/// participates — a column converging *this* cycle is this cycle's honest
/// data, not stale data.
pub fn active_kappa_max(per_col: &[f64], active: &[bool]) -> f64 {
    assert_eq!(per_col.len(), active.len(), "mask length mismatch");
    let over_active = per_col
        .iter()
        .zip(active)
        .filter(|(_, &a)| a)
        .map(|(&k, _)| k)
        .fold(f64::NEG_INFINITY, f64::max);
    if over_active > f64::NEG_INFINITY {
        over_active
    } else {
        per_col.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// What the controller decided after observing a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepDecision {
    /// Keep the current effective step.
    Hold,
    /// Halve the effective step for the next cycle (breakdown rescue or
    /// stagnation relief).
    Shrink {
        /// Step the observed cycle ran at.
        from: usize,
        /// Step the next cycle will run at.
        to: usize,
    },
    /// Probe the effective step back up for the next cycle.
    Grow {
        /// Step the observed cycle ran at.
        from: usize,
        /// Step the next cycle will run at.
        to: usize,
    },
}

impl StepDecision {
    /// Whether this decision shrank the step.
    pub fn shrunk(&self) -> bool {
        matches!(self, StepDecision::Shrink { .. })
    }
}

/// Per-solve state of the step policy.
///
/// [`StepController::step_for_cycle`] yields the effective step for the
/// cycle about to start; [`StepController::observe`] consumes the finished
/// cycle's [`CycleHealth`] and updates the state.  For `Fixed` and
/// `Scheduled` policies `observe` is a no-op returning
/// [`StepDecision::Hold`], so the pre-controller solver behavior is
/// preserved exactly.
#[derive(Debug, Clone)]
pub struct StepController {
    policy: StepPolicy,
    /// The configured (requested) step size — the probe ceiling.
    requested: usize,
    /// Restart length (schedule entries are clamped to it).
    restart: usize,
    /// Current effective step (Auto only).
    s_eff: usize,
    /// Consecutive clean cycles since the last shrink/grow (Auto only).
    clean_streak: usize,
    /// Number of shrink decisions taken.
    shrinks: usize,
    /// True once any shrink has happened; the solver keeps rescue shifts
    /// active from then on.
    rescue_active: bool,
}

impl StepController {
    /// Create the controller for a solve with the given configured step
    /// size and restart length.
    pub fn new(policy: StepPolicy, requested: usize, restart: usize) -> Self {
        Self {
            policy,
            requested,
            restart,
            s_eff: requested,
            clean_streak: 0,
            shrinks: 0,
            rescue_active: false,
        }
    }

    /// Effective step size for cycle `cycle` (0-based).
    pub fn step_for_cycle(&self, cycle: usize) -> usize {
        match &self.policy {
            StepPolicy::Fixed => self.requested,
            StepPolicy::Auto => self.s_eff,
            StepPolicy::Scheduled { per_cycle } => {
                let raw = per_cycle
                    .get(cycle)
                    .or(per_cycle.last())
                    .copied()
                    .unwrap_or(self.requested);
                raw.clamp(1, self.restart)
            }
        }
    }

    /// True once any rescue (shrink) has happened in this solve.
    pub fn rescue_active(&self) -> bool {
        self.rescue_active
    }

    /// Number of shrink decisions taken so far.
    pub fn shrinks(&self) -> usize {
        self.shrinks
    }

    /// Observe a finished cycle and decide the next cycle's step.
    pub fn observe(&mut self, health: &CycleHealth) -> StepDecision {
        if !matches!(self.policy, StepPolicy::Auto) {
            return StepDecision::Hold;
        }
        match health.verdict {
            CycleVerdict::Breakdown => {
                self.clean_streak = 0;
                self.shrink(health.step)
            }
            CycleVerdict::Distressed => {
                self.clean_streak = 0;
                if health.stagnated {
                    // Conditioning-limited progress: a shorter basis raises
                    // the attainable accuracy (arXiv 2409.03079).
                    self.shrink(health.step)
                } else {
                    StepDecision::Hold
                }
            }
            CycleVerdict::Clean => {
                self.clean_streak += 1;
                if self.s_eff < self.requested && self.clean_streak >= GROW_AFTER {
                    let from = self.s_eff;
                    self.s_eff = (self.s_eff * 2).min(self.requested);
                    self.clean_streak = 0;
                    StepDecision::Grow {
                        from,
                        to: self.s_eff,
                    }
                } else {
                    StepDecision::Hold
                }
            }
        }
    }

    fn shrink(&mut self, from: usize) -> StepDecision {
        if self.s_eff <= MIN_STEP {
            return StepDecision::Hold;
        }
        self.s_eff = (self.s_eff / 2).max(MIN_STEP);
        self.shrinks += 1;
        self.rescue_active = true;
        StepDecision::Shrink {
            from,
            to: self.s_eff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(step: usize, verdict: CycleVerdict, stagnated: bool) -> CycleHealth {
        CycleHealth {
            step,
            shifts: Vec::new(),
            comm_ortho: CommStatsSnapshot::default(),
            usable_cols: if verdict == CycleVerdict::Breakdown {
                0
            } else {
                step
            },
            kappa_est: 1.0,
            fallbacks: 0,
            fallback_events: Vec::new(),
            breakdown: None,
            relres: Some(0.5),
            stagnated,
            kappa_per_col: Vec::new(),
            faults_detected: 0,
            faults_recovered: 0,
            faults_unrecovered: 0,
            verdict,
        }
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut c = StepController::new(StepPolicy::Fixed, 8, 30);
        assert_eq!(c.step_for_cycle(0), 8);
        assert_eq!(
            c.observe(&health(8, CycleVerdict::Breakdown, false)),
            StepDecision::Hold
        );
        assert_eq!(c.step_for_cycle(1), 8);
        assert!(!c.rescue_active());
    }

    #[test]
    fn auto_halves_on_breakdown_down_to_one_then_holds() {
        let mut c = StepController::new(StepPolicy::Auto, 8, 30);
        assert_eq!(
            c.observe(&health(8, CycleVerdict::Breakdown, false)),
            StepDecision::Shrink { from: 8, to: 4 }
        );
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Breakdown, false)),
            StepDecision::Shrink { from: 4, to: 2 }
        );
        assert_eq!(
            c.observe(&health(2, CycleVerdict::Breakdown, false)),
            StepDecision::Shrink { from: 2, to: 1 }
        );
        assert_eq!(
            c.observe(&health(1, CycleVerdict::Breakdown, false)),
            StepDecision::Hold
        );
        assert_eq!(c.shrinks(), 3);
        assert!(c.rescue_active());
    }

    #[test]
    fn auto_probes_back_up_after_consecutive_clean_cycles() {
        let mut c = StepController::new(StepPolicy::Auto, 8, 30);
        c.observe(&health(8, CycleVerdict::Breakdown, false));
        assert_eq!(c.step_for_cycle(1), 4);
        // One clean cycle is not enough (grow_after = 2).
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Clean, false)),
            StepDecision::Hold
        );
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Clean, false)),
            StepDecision::Grow { from: 4, to: 8 }
        );
        assert_eq!(c.step_for_cycle(3), 8);
        // At the requested step, clean cycles keep holding.
        assert_eq!(
            c.observe(&health(8, CycleVerdict::Clean, false)),
            StepDecision::Hold
        );
    }

    #[test]
    fn distress_resets_the_clean_streak_and_blocks_probing() {
        let mut c = StepController::new(StepPolicy::Auto, 8, 30);
        c.observe(&health(8, CycleVerdict::Breakdown, false));
        c.observe(&health(4, CycleVerdict::Clean, false));
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Distressed, false)),
            StepDecision::Hold
        );
        // The streak restarted: one clean cycle must not grow yet.
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Clean, false)),
            StepDecision::Hold
        );
        assert_eq!(
            c.observe(&health(4, CycleVerdict::Clean, false)),
            StepDecision::Grow { from: 4, to: 8 }
        );
    }

    #[test]
    fn stagnation_shrinks_even_without_breakdown() {
        let mut c = StepController::new(StepPolicy::Auto, 8, 30);
        assert_eq!(
            c.observe(&health(8, CycleVerdict::Distressed, true)),
            StepDecision::Shrink { from: 8, to: 4 }
        );
    }

    #[test]
    fn scheduled_policy_replays_and_clamps() {
        let c = StepController::new(
            StepPolicy::Scheduled {
                per_cycle: vec![8, 4, 4, 100, 0],
            },
            8,
            30,
        );
        assert_eq!(c.step_for_cycle(0), 8);
        assert_eq!(c.step_for_cycle(1), 4);
        assert_eq!(c.step_for_cycle(3), 30); // clamped to restart
        assert_eq!(c.step_for_cycle(4), 1); // clamped up to 1
        assert_eq!(c.step_for_cycle(9), 1); // last entry reused past the end
    }

    #[test]
    fn assessment_maps_signals_to_verdicts() {
        assert_eq!(
            assess_cycle(true, 5, 1.0, 0, false, 0),
            CycleVerdict::Breakdown
        );
        assert_eq!(
            assess_cycle(false, 0, 1.0, 0, false, 0),
            CycleVerdict::Breakdown
        );
        assert_eq!(
            assess_cycle(false, 5, 1.0, 1, false, 0),
            CycleVerdict::Distressed
        );
        assert_eq!(
            assess_cycle(false, 5, 1e9, 0, false, 0),
            CycleVerdict::Distressed
        );
        assert_eq!(
            assess_cycle(false, 5, f64::INFINITY, 0, false, 0),
            CycleVerdict::Distressed
        );
        assert_eq!(
            assess_cycle(false, 5, 1.0, 0, true, 0),
            CycleVerdict::Distressed
        );
        assert_eq!(
            assess_cycle(false, 5, 1e3, 0, false, 0),
            CycleVerdict::Clean
        );
        // An unrecovered fault is never a clean cycle: the controller must
        // not probe the step up off the back of a poisoned rollback.
        assert_eq!(
            assess_cycle(false, 5, 1e3, 0, false, 1),
            CycleVerdict::Distressed
        );
    }

    #[test]
    fn stagnation_detector_needs_a_full_window() {
        assert!(!residual_stagnated(&[0.5, 0.49]));
        // 5 entries, window 4: 0.49 vs 0.9 * 0.5 — no real progress.
        assert!(residual_stagnated(&[0.5, 0.5, 0.5, 0.5, 0.49]));
        assert!(!residual_stagnated(&[0.5, 0.4, 0.3, 0.2, 0.1]));
        // Non-finite residuals count as stagnation.
        assert!(residual_stagnated(&[0.5, 0.5, 0.5, 0.5, f64::NAN]));
    }

    #[test]
    fn block_r_diag_condition_reads_interleaved_columns() {
        // 2-wide block over 3 diagonal blocks: column 0 owns diagonal
        // entries 0, 2, 4 and column 1 owns 1, 3, 5.
        let mut r = Matrix::identity(6);
        r[(2, 2)] = 1e-3; // block 1, column 0
        r[(5, 5)] = 1e-6; // block 2, column 1
        let per_col = block_r_diag_condition(&r, 2, 3);
        assert_eq!(per_col, vec![1e3, 1e6]);
        // Width 1 scans the whole leading diagonal.
        assert_eq!(block_r_diag_condition(&r, 1, 6), vec![1e6]);
        // Zero blocks: no information, infinite estimate.
        assert_eq!(
            block_r_diag_condition(&r, 2, 0),
            vec![f64::INFINITY, f64::INFINITY]
        );
    }

    #[test]
    fn active_kappa_max_masks_deflated_columns() {
        // A deflated column's huge stale estimate must not drive rescues.
        assert_eq!(
            active_kappa_max(&[1e12, 2.0, 3.0], &[false, true, true]),
            3.0
        );
        assert_eq!(active_kappa_max(&[1e12, 2.0], &[true, true]), 1e12);
        // All columns finished this cycle: their own data still counts.
        assert_eq!(active_kappa_max(&[5.0, 7.0], &[false, false]), 7.0);
    }

    #[test]
    fn r_diag_condition_estimates_from_the_diagonal() {
        let mut r = Matrix::identity(4);
        r[(2, 2)] = 1e-6;
        let r_diag_condition = |r: &Matrix, cols| block_r_diag_condition(r, 1, cols)[0];
        assert_eq!(r_diag_condition(&r, 2), 1.0);
        assert_eq!(r_diag_condition(&r, 4), 1e6);
        r[(3, 3)] = 0.0;
        assert_eq!(r_diag_condition(&r, 4), f64::INFINITY);
        assert_eq!(r_diag_condition(&r, 0), f64::INFINITY);
    }
}
