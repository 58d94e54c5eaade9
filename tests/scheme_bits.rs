//! Every orthogonalization kind's output, pinned to the bit.
//!
//! For each [`OrthoKind`] a 64-bit hash covers what the scheme hands the
//! solver: `Q`, `R`, the fallback events (stage, columns, shift bits), the
//! stored-basis relation and the all-reduce count and words in
//! `CommStats` —
//! - on random panels fed as the solver feeds them (the `k`-column
//!   residual block, then `m / s` panels of `k·s` columns; k ∈ {1, 4},
//!   m = 20, s = 5), before and after `finish`;
//! - on κ = 1e10 and κ = 1e15 panels, alone and behind a benign one, and
//!   on a panel with a duplicated column, where the remedial paths run
//!   (a kind that refuses a panel pins its `OrthoError`);
//! - and one `solve_serial` on `laplace2d_9pt(18, 18)`: the solution, the
//!   iteration count and the solve's total communication.
//!
//! The kernels run at the scalar SIMD level, so the hashes do not depend
//! on the host.  The override is process-global, which is why these tests
//! have a binary of their own; every test sets the same level.  A change
//! that is meant to keep the arithmetic leaves every hash as it is.

use blockortho::{make_orthogonalizer, BlockOrthogonalizer, OrthoError, OrthoKind};
use dense::{Matrix, SimdLevel};
use distsim::{CommStatsSnapshot, DistMultiVector, SerialComm};
use sparse::laplace2d_9pt;
use ssgmres::{GmresConfig, SStepGmres};
use std::ops::Range;

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

fn scalar() {
    dense::set_simd_override(Some(SimdLevel::Scalar));
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

#[test]
fn solver_fed_panels_keep_their_bits() {
    scalar();
    let (m, s) = (20, 5);
    for (k, expected) in [
        (
            1,
            [
                0xa4651237af44aa6a,
                0x7c8076def7076487,
                0xeecf5122bb701ef4,
                0x9b39af30a6ae8aab,
                0xb1567f5ad9b7d81d,
                0x801476810887059c,
                0x7796d740f6557f84,
            ],
        ),
        (
            4,
            [
                0xfa06cead0aea49c2,
                0x00a498c50a3135bb,
                0xabb9ae61aef8d4a0,
                0xc35770dec7acc8a0,
                0xcec7046dd68bed7b,
                0x478f5700a0f3d43e,
                0xc651d338a2e6de9d,
            ],
        ),
    ] {
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

#[test]
fn ill_conditioned_panels_keep_their_outcome() {
    scalar();
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
        (
            "kappa 1e10 panel alone",
            k10.clone(),
            panels(&[8]),
            [
                0x815aea3d0583d7cb,
                0xe3e635659cfb4769,
                0x704038fe63043c31,
                0x507cd7c6b43946db,
                0x16f8360bf9924ef7,
                0xd1dcd101d60094cf,
                0x6ec8f5b47a1ccfa0,
            ],
        ),
        (
            "kappa 1e10 panel behind a benign one",
            behind(&k10),
            panels(&[4, 8]),
            [
                0xa115fe3adbe454f7,
                0x8f923900920d186c,
                0x22ea23db5558b8bf,
                0xc82413d4c6d916c1,
                0xde4c8413983512e8,
                0x5fd8353794e8e11f,
                0x00fdc0cb9876208f,
            ],
        ),
        (
            "kappa 1e15 panel alone",
            k15.clone(),
            panels(&[8]),
            [
                0xb973c373f8affacb,
                0x211e46fa82a07cab,
                0xad784a9348a97173,
                0x1344c631ce941199,
                0xe88cf6f2c9e86b94,
                0xd28fe9dd87f42d0e,
                0xb2a74d267e26917b,
            ],
        ),
        (
            "kappa 1e15 panel behind a benign one",
            behind(&k15),
            panels(&[4, 8]),
            [
                0xedffb622400c3157,
                0xccca4a9577b24dae,
                0xf178b789028c4280,
                0x6ff2b404b090ca5b,
                0xc8d86fcdfeccef09,
                0xf9eae84a683c4042,
                0x2a12e3ef3837c7e0,
            ],
        ),
        (
            "a duplicated column",
            dup,
            panels(&[4, 4]),
            [
                0x1752990c3d5f1f27,
                0xe27492748e3fb0e2,
                0xc23e760f8f83f8e7,
                0xe503cf50febca3c5,
                0xf8696165b2067fd3,
                0x016ef2b2be7117b0,
                0x7117cdbe115da74d,
            ],
        ),
    ];
    for (what, v, panels, expected) in cases {
        check(what, expected, |kind| run_panels(kind, &v, &panels));
    }
}

#[test]
fn one_serial_solve_keeps_its_bits() {
    scalar();
    let a = laplace2d_9pt(18, 18);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    check(
        "laplace2d_9pt(18, 18) solve",
        [
            0x2f9c68627810ee80,
            0x808339ada919d54d,
            0xaaaebe1c39357e75,
            0x56ba55ca5394013d,
            0x2c55ef88776eb57d,
            0x59b1abe461cb0caf,
            0xb9fd61042ca77a8f,
        ],
        |kind| {
            let solver = SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-8,
                ortho: kind,
                ..GmresConfig::default()
            });
            let (x, result) = solver.solve_serial(&a, &b);
            let mut h = Bits::new();
            h.floats(&x);
            h.word(result.iterations as u64);
            h.word(result.converged as u64);
            h.stats(&result.comm_total);
            h.0
        },
    );
}
