//! The bit pins of the orthogonalization kinds, stated once for every
//! SIMD level a pin binary runs at.
//!
//! For each [`OrthoKind`] a 64-bit hash covers what the scheme hands the
//! solver: `Q`, `R`, the fallback events (stage, columns, shift bits), the
//! stored-basis relation and the all-reduce count and words in
//! `CommStats`.  The cases:
//! - [`solver_fed_panels`]: random panels fed as the solver feeds them
//!   (the `k`-column residual block, then `m / s` panels of `k·s`
//!   columns; k ∈ {1, 4}, m = 20, s = 5), before and after `finish`;
//! - [`ill_conditioned_panels`]: κ = 1e10 and κ = 1e15 panels, alone and
//!   behind a benign one, and a panel with a duplicated column, where the
//!   remedial paths run (a kind that refuses a panel pins its
//!   `OrthoError`);
//! - [`serial_solve`]: one `solve_serial` per kind on
//!   `laplace2d_9pt(18, 18)` — the solution, the iteration count and the
//!   solve's total communication;
//! - [`standard_gmres_solve`]: the same solve as standard GMRES (s = 1,
//!   CGS2);
//! - [`block_solve_of_two`]: one `solve_block_serial` per kind of two
//!   right-hand sides on the same operator.
//!
//! A pin binary sets its SIMD level (the override is process-global, so
//! each level has a binary of its own) and passes each case its expected
//! hashes.  A change that is meant to keep the arithmetic leaves every
//! hash as it is.

use blockortho::{make_orthogonalizer, BlockOrthogonalizer, OrthoError, OrthoKind};
use dense::Matrix;
use distsim::{CommStatsSnapshot, DistMultiVector, SerialComm};
use sparse::laplace2d_9pt;
use ssgmres::{standard_gmres_config, GmresConfig, SStepGmres, SolveResult};
use std::ops::Range;

/// The seven kinds, in the order every pin table lists them.
const KINDS: [OrthoKind; 7] = [
    OrthoKind::Cgs2,
    OrthoKind::Bcgs2CholQr2,
    OrthoKind::BcgsPip,
    OrthoKind::BcgsPip2,
    OrthoKind::TwoStage { big_panel: 10 },
    OrthoKind::RandCholQr,
    OrthoKind::TwoStageSketched { big_panel: 10 },
];

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Bits(u64);

impl Bits {
    fn new() -> Self {
        Bits(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|x| self.word(x.to_bits()));
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.nrows() as u64);
        self.floats(m.data());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(b as u64));
    }

    fn stats(&mut self, s: &CommStatsSnapshot) {
        self.word(s.allreduces as u64);
        self.word(s.allreduce_words as u64);
    }

    fn scheme(&mut self, scheme: &dyn BlockOrthogonalizer) {
        for e in scheme.fallback_events() {
            self.text(&format!("{:?}", e.stage));
            self.word(e.cols.start as u64);
            self.word(e.cols.end as u64);
            self.word(e.shift.to_bits());
        }
        self.word(scheme.fallback_count() as u64);
        match scheme.finalized_cols() {
            Some(c) => self.word(c as u64 + 1),
            None => self.word(0),
        }
        match scheme.stored_basis_coeffs() {
            Some(c) => self.matrix(c),
            None => self.word(0),
        }
    }

    /// A solve's outcome: the solution, the iterations, whether it
    /// converged and its total communication.
    fn solve(&mut self, x: &[f64], result: &SolveResult) {
        self.floats(x);
        self.word(result.iterations as u64);
        self.word(result.converged as u64);
        self.stats(&result.comm_total);
    }
}

/// Consecutive column ranges of the given widths, from column 0.
fn panels(widths: &[usize]) -> Vec<Range<usize>> {
    let mut start = 0;
    (widths.iter())
        .map(|w| {
            start += w;
            start - w..start
        })
        .collect()
}

/// Feed `v` to a fresh `kind` scheme panel by panel, then `finish`; hash
/// the state after the last panel and after `finish`, or the error.
fn run_panels(kind: OrthoKind, v: &Matrix, panels: &[Range<usize>]) -> u64 {
    let mut h = Bits::new();
    let mut scheme = make_orthogonalizer(kind, v.ncols());
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
    let mut r = Matrix::zeros(v.ncols(), v.ncols());
    let mut outcome: Result<(), OrthoError> = Ok(());
    for panel in panels {
        outcome = scheme.orthogonalize_panel(&mut basis, panel.clone(), &mut r);
        if outcome.is_err() {
            break;
        }
    }
    if outcome.is_ok() {
        h.matrix(basis.local());
        h.matrix(&r);
        h.scheme(scheme.as_ref());
        outcome = scheme.finish(&mut basis, &mut r);
    }
    match outcome {
        Ok(()) => {
            h.matrix(basis.local());
            h.matrix(&r);
            h.scheme(scheme.as_ref());
        }
        Err(e) => h.text(&format!("{e:?}")),
    }
    h.stats(&basis.comm().stats().snapshot());
    h.0
}

/// Assert that every kind's hash is the expected one, printing the whole
/// table of what the kinds gave when one moved.
fn check(what: &str, expected: [u64; 7], got: impl Fn(OrthoKind) -> u64) {
    let got: Vec<u64> = KINDS.iter().map(|&kind| got(kind)).collect();
    let table: Vec<String> = KINDS
        .iter()
        .zip(&got)
        .map(|(kind, h)| format!("{kind:?}: {h:#018x}"))
        .collect();
    assert_eq!(
        got,
        expected,
        "{what}: the bits of some kind moved\n{}",
        table.join("\n")
    );
}

/// The `m = 20`, `s = 5` configuration every pinned solve runs.
fn solver(ortho: OrthoKind) -> SStepGmres {
    SStepGmres::new(GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-8,
        ortho,
        ..GmresConfig::default()
    })
}

/// Random panels fed as the solver feeds them; `expected` holds the
/// hashes at k = 1, then at k = 4.
pub fn solver_fed_panels(expected: [[u64; 7]; 2]) {
    let (m, s) = (20, 5);
    for (k, expected) in [1, 4].into_iter().zip(expected) {
        let total = k * (m + 1);
        let v = testmat::random_dense(300, total, 40 + k as u64);
        let mut widths = vec![k];
        widths.resize(1 + m / s, k * s);
        let panels = panels(&widths);
        check(&format!("k = {k}"), expected, |kind| {
            run_panels(kind.for_block_width(k), &v, &panels)
        });
    }
}

/// Ill-conditioned and rank-deficient panels; `expected` holds the
/// hashes of κ = 1e10 alone, behind a benign panel, κ = 1e15 alone,
/// behind a benign panel, and the duplicated column, in that order.
pub fn ill_conditioned_panels(expected: [[u64; 7]; 5]) {
    let good = testmat::random_dense(400, 4, 9);
    // `bad` behind the benign panel, so the two-stage kinds have a big
    // panel pending when the first stage meets it.
    let behind = |bad: &Matrix| {
        Matrix::from_fn(
            400,
            12,
            |i, j| {
                if j < 4 {
                    good[(i, j)]
                } else {
                    bad[(i, j - 4)]
                }
            },
        )
    };
    let mut dup = testmat::random_dense(400, 8, 3);
    for i in 0..400 {
        let x = dup[(i, 1)];
        dup[(i, 6)] = x;
    }
    let k10 = testmat::logscaled_matrix(400, 8, 1e10, 7);
    let k15 = testmat::logscaled_matrix(400, 8, 1e15, 7);
    let cases = [
        ("kappa 1e10 panel alone", k10.clone(), panels(&[8])),
        (
            "kappa 1e10 panel behind a benign one",
            behind(&k10),
            panels(&[4, 8]),
        ),
        ("kappa 1e15 panel alone", k15.clone(), panels(&[8])),
        (
            "kappa 1e15 panel behind a benign one",
            behind(&k15),
            panels(&[4, 8]),
        ),
        ("a duplicated column", dup, panels(&[4, 4])),
    ];
    for ((what, v, panels), expected) in cases.into_iter().zip(expected) {
        check(what, expected, |kind| run_panels(kind, &v, &panels));
    }
}

/// One `solve_serial` per kind on `laplace2d_9pt(18, 18)`.
pub fn serial_solve(expected: [u64; 7]) {
    let a = laplace2d_9pt(18, 18);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    check("laplace2d_9pt(18, 18) solve", expected, |kind| {
        let (x, result) = solver(kind).solve_serial(&a, &b);
        let mut h = Bits::new();
        h.solve(&x, &result);
        h.0
    });
}

/// The same solve as standard GMRES (s = 1, CGS2).
pub fn standard_gmres_solve(expected: u64) {
    let a = laplace2d_9pt(18, 18);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let solver = SStepGmres::new(GmresConfig {
        restart: 20,
        tol: 1e-8,
        ..standard_gmres_config()
    });
    let (x, result) = solver.solve_serial(&a, &b);
    let mut h = Bits::new();
    h.solve(&x, &result);
    assert_eq!(
        h.0, expected,
        "standard GMRES (s = 1, CGS2): the bits moved, to {:#018x}",
        h.0
    );
}

/// One `solve_block_serial` per kind of two right-hand sides on
/// `laplace2d_9pt(18, 18)`.
pub fn block_solve_of_two(expected: [u64; 7]) {
    let a = laplace2d_9pt(18, 18);
    let n = a.nrows();
    let b: Vec<Vec<f64>> = (0..2)
        .map(|j| {
            let x_star: Vec<f64> = (0..n)
                .map(|i| 1.0 + 0.1 * ((i * 7 + j * 13) % 17) as f64 / 17.0)
                .collect();
            a.spmv_alloc(&x_star)
        })
        .collect();
    check(
        "laplace2d_9pt(18, 18) block solve, k = 2",
        expected,
        |kind| {
            let (x, result) = solver(kind).solve_block_serial(&a, &b);
            let mut h = Bits::new();
            h.solve(x.data(), &result);
            h.0
        },
    );
}
