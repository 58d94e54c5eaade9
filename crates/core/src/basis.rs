//! Krylov basis choice for the matrix-powers kernel.
//!
//! The paper uses the monomial basis (`v_{k+1} = A·v_k`) for all its
//! experiments, noting that Newton or Chebyshev bases could reduce the
//! condition number of the generated s-step basis.  We implement the
//! monomial and (shifted) Newton bases; the change-of-basis information is
//! exposed as a per-column shift `θ_k` so the Hessenberg recovery can
//! account for it (`A·u_k = w_{k+1} + θ_k·u_k`).

/// The polynomial basis generated by the matrix-powers kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum KrylovBasis {
    /// Monomial basis: `w_{k+1} = A·u_k`.
    #[default]
    Monomial,
    /// Newton basis: `w_{k+1} = (A − θ_k·I)·u_k` with the given shifts
    /// (typically Leja-ordered Ritz values).  Shifts are cycled if the
    /// basis is longer than the shift list.
    Newton {
        /// The shift values `θ_k`.
        shifts: Vec<f64>,
    },
}

/// How the solver chooses the Krylov basis across restart cycles.
///
/// [`KrylovBasis`] is the per-cycle *mechanism* (which shift is applied to
/// which column); `BasisStrategy` is the *policy* that selects it — in
/// particular [`BasisStrategy::Adaptive`], which starts monomial and
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

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BasisStrategy::Monomial => "monomial",
            BasisStrategy::Newton { .. } => "newton",
            BasisStrategy::Adaptive { .. } => "adaptive",
            BasisStrategy::Scheduled { .. } => "scheduled",
        }
    }

    /// The basis used by the first restart cycle under this strategy.
    pub(crate) fn initial_basis(&self) -> KrylovBasis {
        match self {
            BasisStrategy::Monomial | BasisStrategy::Adaptive { .. } => KrylovBasis::Monomial,
            BasisStrategy::Newton { shifts } => KrylovBasis::Newton {
                shifts: shifts.clone(),
            },
            BasisStrategy::Scheduled { per_cycle } => Self::scheduled_basis(per_cycle, 0),
        }
    }

    /// The basis a [`BasisStrategy::Scheduled`] run uses in cycle `c`.
    pub(crate) fn scheduled_basis(per_cycle: &[Vec<f64>], c: usize) -> KrylovBasis {
        let shifts = match per_cycle.get(c).or(per_cycle.last()) {
            Some(s) => s.clone(),
            None => Vec::new(),
        };
        if shifts.is_empty() {
            KrylovBasis::Monomial
        } else {
            KrylovBasis::Newton { shifts }
        }
    }
}

impl KrylovBasis {
    /// The shift `θ_k` applied when generating basis column `k+1` from
    /// column `k` (0 for the monomial basis).
    pub fn shift(&self, k: usize) -> f64 {
        match self {
            KrylovBasis::Monomial => 0.0,
            KrylovBasis::Newton { shifts } => {
                if shifts.is_empty() {
                    0.0
                } else {
                    shifts[k % shifts.len()]
                }
            }
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KrylovBasis::Monomial => "monomial",
            KrylovBasis::Newton { .. } => "newton",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_has_zero_shifts() {
        let b = KrylovBasis::Monomial;
        for k in 0..10 {
            assert_eq!(b.shift(k), 0.0);
        }
        assert_eq!(b.label(), "monomial");
    }

    #[test]
    fn newton_cycles_shifts() {
        let b = KrylovBasis::Newton {
            shifts: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(b.shift(0), 1.0);
        assert_eq!(b.shift(2), 3.0);
        assert_eq!(b.shift(3), 1.0);
        assert_eq!(b.label(), "newton");
    }

    #[test]
    fn empty_newton_shift_list_degenerates_to_monomial() {
        let b = KrylovBasis::Newton { shifts: vec![] };
        assert_eq!(b.shift(5), 0.0);
    }
}
