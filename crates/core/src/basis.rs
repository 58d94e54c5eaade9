//! Krylov basis choice for the matrix-powers kernel.
//!
//! The paper uses the monomial basis (`v_{k+1} = A·v_k`) for all its
//! experiments, noting that Newton or Chebyshev bases could reduce the
//! condition number of the generated s-step basis.  We implement the
//! monomial and (shifted) Newton bases.  A cycle's basis is its shift list
//! (empty = monomial), and [`shift`] reads the per-column shift `θ_k` off it
//! so the Hessenberg recovery can account for it (`A·u_k = w_{k+1} +
//! θ_k·u_k`).
//!
//! The monomial basis is fine at the paper's `s = 5`, but its condition
//! number grows like the power iteration's: beyond `s ≈ 6` it degrades
//! exponentially, first as remedial fallbacks of the orthogonalizer
//! (`SolveResult::ortho_fallbacks`), then as Cholesky breakdowns.  An
//! empty Newton shift list is bitwise the monomial basis
//! (`tests/solver_cross_crate.rs::zero_shift_newton_is_bitwise_identical_to_monomial`),
//! and harvesting shifts reads only the replicated Hessenberg matrix, so a
//! basis changes no communication count for the same iterations.
//!
//! Every solve records the shifts each cycle used
//! ([`crate::SolveResult::shifts`]) and its most recent harvest, used or
//! not ([`crate::SolveResult::last_harvest`]).  Replaying the first through
//! [`BasisStrategy::Scheduled`] reproduces the solve bitwise
//! (`adaptive_solve_matches_scheduled_replay_bitwise`).  The second makes a
//! **warm-up shift oracle**: where even one monomial panel at the target
//! `s` collapses (the 9-point Laplacian at `s = 16`), one cheap adaptive
//! cycle at `s = 4` harvests shifts, and a solve with
//! `Newton { shifts }` at the target `s` converges
//! (`warmup_shift_oracle_rescues_step_sizes_the_monomial_basis_cannot_run`;
//! both in `tests/solver_cross_crate.rs`).  The oracle needs a spread
//! spectrum: on elasticity3d the clustered Ritz values dedupe to a handful
//! of shifts, and the step controller of [`crate::control`] is the rescue
//! instead.  `bench --bin basis_compare` sweeps the three bases over `s`
//! into `BENCH_basis.json`.

/// The shift `θ_k` applied when generating basis column `k+1` from column
/// `k`: the shift list cycled over the columns, `0` for the monomial basis
/// (an empty list).
pub fn shift(shifts: &[f64], k: usize) -> f64 {
    if shifts.is_empty() {
        0.0
    } else {
        shifts[k % shifts.len()]
    }
}

/// How the solver chooses the Krylov basis across restart cycles.
///
/// A cycle's shift list is the *mechanism* ([`shift`] reads which shift is
/// applied to which column); `BasisStrategy` is the *policy* that selects
/// it — in particular [`BasisStrategy::Adaptive`], which starts monomial and
/// re-harvests Leja-ordered Ritz shifts from the recovered Hessenberg
/// matrix after every restart (see [`crate::shifts`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BasisStrategy {
    /// Monomial basis in every cycle.
    #[default]
    Monomial,
    /// Newton basis with a fixed shift list in every cycle (empty shifts
    /// degenerate to the monomial basis, bitwise).
    Newton {
        /// The shift values `θ_k`, cycled over the basis columns.
        shifts: Vec<f64>,
    },
    /// Monomial warm-up cycle, then Newton shifts harvested from the most
    /// recent cycle's Hessenberg matrix, re-harvested after every restart.
    /// Falls back to monomial whenever the recovered Hessenberg block has
    /// fewer than four columns (the Ritz values are then too crude to help)
    /// or the eigensolve fails.
    Adaptive {
        /// Cap on the number of shifts kept (`0` = the solver's step size
        /// `s`, so the shift list cycles once per matrix-powers panel).
        max_shifts: usize,
    },
    /// Replay a recorded per-cycle shift schedule: cycle `c` uses
    /// `per_cycle[c]` (the last entry is reused past the end; an empty
    /// entry means monomial).  Feeding a previous adaptive solve's
    /// [`crate::SolveResult::shifts`] back through this variant
    /// reproduces that solve bitwise — the property the cross-crate
    /// regression tests pin — and lets offline-computed shift schedules be
    /// injected.
    Scheduled {
        /// Shifts per restart cycle.
        per_cycle: Vec<Vec<f64>>,
    },
}

impl BasisStrategy {
    /// The adaptive policy with one shift per matrix-powers step.
    pub fn adaptive() -> Self {
        BasisStrategy::Adaptive { max_shifts: 0 }
    }

    /// The shifts of the first restart cycle under this strategy.
    pub(crate) fn initial_basis(&self) -> Vec<f64> {
        match self {
            BasisStrategy::Monomial | BasisStrategy::Adaptive { .. } => Vec::new(),
            BasisStrategy::Newton { shifts } => shifts.clone(),
            BasisStrategy::Scheduled { per_cycle } => Self::scheduled_basis(per_cycle, 0),
        }
    }

    /// The shifts a [`BasisStrategy::Scheduled`] run uses in cycle `c`.
    pub(crate) fn scheduled_basis(per_cycle: &[Vec<f64>], c: usize) -> Vec<f64> {
        per_cycle
            .get(c)
            .or(per_cycle.last())
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_has_zero_shifts() {
        let shifts = BasisStrategy::Monomial.initial_basis();
        for k in 0..10 {
            assert_eq!(shift(&shifts, k), 0.0);
        }
    }

    #[test]
    fn newton_cycles_shifts() {
        let shifts = [1.0, 2.0, 3.0];
        assert_eq!(shift(&shifts, 0), 1.0);
        assert_eq!(shift(&shifts, 2), 3.0);
        assert_eq!(shift(&shifts, 3), 1.0);
    }

    #[test]
    fn empty_newton_shift_list_degenerates_to_monomial() {
        let empty = BasisStrategy::Newton { shifts: vec![] };
        assert_eq!(
            empty.initial_basis(),
            BasisStrategy::Monomial.initial_basis()
        );
    }
}
