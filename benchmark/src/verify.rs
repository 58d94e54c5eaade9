//! Out-of-band verification of every solve.
//!
//! The solver's `converged` flag reflects its own recurrence, so it is not
//! trusted alone: the benchmark recomputes `‖b − A·x‖₂ / ‖b‖₂` with the
//! serial `Csr::spmv` on the gathered solution, outside the timed region.
//! A panic inside a solve is caught and counted as a failed operation, so
//! that it costs one operation and not the run.

use dense::Matrix;
use sparse::Csr;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A verified solve may exceed the tolerance by this factor: the solver
/// stops on `‖r‖ ≤ tol·‖r₀‖` of a residual it recomputes itself, which
/// differs from this recomputation only by rounding.
pub const SLACK: f64 = 1.5;

/// `‖b − A·x‖₂ / ‖b‖₂`.
pub fn true_relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let r2: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, yi)| (bi - yi) * (bi - yi))
        .sum();
    let b2: f64 = b.iter().map(|bi| bi * bi).sum();
    (r2 / b2).sqrt()
}

/// Check every column of a gathered solution; `Err` says why the
/// operation failed.
pub fn check_solution(
    a: &Csr,
    x: &Matrix,
    b: &Matrix,
    converged: bool,
    tol: f64,
) -> Result<(), String> {
    if !converged {
        return Err("solver returned converged == false".into());
    }
    for j in 0..b.ncols() {
        let relres = true_relres(a, x.col(j), b.col(j));
        if relres.is_nan() || relres > SLACK * tol {
            return Err(format!(
                "column {j}: true relative residual {relres:e} exceeds {SLACK}·{tol:e}"
            ));
        }
    }
    Ok(())
}

/// Run `f`, turning a panic into `Err(message)`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".into());
        format!("panicked: {msg}")
    })
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.reasons.push(format!("{what}: {why}"));
        }
    }
}

/// Counts that must repeat bit for bit for a given seed, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExactCounts(pub BTreeMap<String, u64>);

impl ExactCounts {
    /// Record `value` under `name`; `Err` if an earlier round recorded
    /// another value.
    pub fn observe(&mut self, name: String, value: u64) -> Result<(), String> {
        match self.0.get(&name) {
            Some(&seen) if seen != value => Err(format!(
                "exact count {name} was {seen} in an earlier round and is {value} now"
            )),
            _ => {
                self.0.insert(name, value);
                Ok(())
            }
        }
    }
}

/// What a pass found out about how far its own numbers can be trusted.
#[derive(Debug, Default)]
pub struct Findings {
    pub tally: Tally,
    pub exact: ExactCounts,
    /// Exact counts that changed between solves of one variant, and
    /// anything else that makes the run's numbers untrustworthy.
    pub problems: Vec<String>,
}

impl Findings {
    /// The rank group itself went down: the pass is lost, and says so.
    pub fn lost(why: String) -> Findings {
        let mut findings = Findings::default();
        findings.tally.record("rank group", Err(why));
        findings
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }

    /// Why the pass is not correct, one line per reason.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.tally.reasons.iter().chain(&self.problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_or_unconverged_solution_fails() {
        let a = sparse::laplace2d_5pt(6, 6);
        let x = Matrix::from_fn(36, 1, |i, _| 1.0 + i as f64);
        let mut b = Matrix::zeros(36, 1);
        a.spmv(x.col(0), b.col_mut(0));
        assert!(check_solution(&a, &x, &b, true, 1e-6).is_ok());
        assert!(check_solution(&a, &x, &b, false, 1e-6).is_err());
        let mut off = x.clone();
        off.col_mut(0)[3] += 1e-3;
        assert!(check_solution(&a, &off, &b, true, 1e-6).is_err());
        off.col_mut(0)[3] = f64::NAN;
        assert!(check_solution(&a, &off, &b, true, 1e-6).is_err());
    }

    #[test]
    fn a_panic_is_a_failed_operation() {
        let mut tally = Tally::default();
        tally.record("ok", guarded(|| ()));
        tally.record("boom", guarded(|| panic!("boom {}", 7)));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.reasons[0].contains("boom 7"));
    }

    #[test]
    fn exact_counts_must_repeat() {
        let mut c = ExactCounts::default();
        assert!(c.observe("iters".into(), 5).is_ok());
        assert!(c.observe("iters".into(), 5).is_ok());
        assert!(c.observe("iters".into(), 6).is_err());
    }
}
