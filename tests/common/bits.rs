//! The bit pins of the orthogonalization kinds: a stable 64-bit hash of
//! what a scheme or a solve hands its caller, and the drivers that feed a
//! scheme panel by panel.

use blockortho::{make_orthogonalizer, BlockOrthogonalizer, OrthoError, OrthoKind};
use dense::Matrix;
use distsim::{CommStatsSnapshot, DistMultiVector, SerialComm};
use ssgmres::SolveResult;
use std::ops::Range;

/// The seven kinds, in the order every pin table lists them.
pub const KINDS: [OrthoKind; 7] = [
    OrthoKind::Cgs2,
    OrthoKind::Bcgs2CholQr2,
    OrthoKind::BcgsPip,
    OrthoKind::BcgsPip2,
    OrthoKind::TwoStage { big_panel: 10 },
    OrthoKind::RandCholQr,
    OrthoKind::TwoStageSketched { big_panel: 10 },
];

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
pub struct Bits(pub u64);

impl Bits {
    pub fn new() -> Self {
        Bits(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|x| self.word(x.to_bits()));
    }

    pub fn matrix(&mut self, m: &Matrix) {
        self.word(m.nrows() as u64);
        self.floats(m.data());
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(b as u64));
    }

    pub fn stats(&mut self, s: &CommStatsSnapshot) {
        self.word(s.allreduces as u64);
        self.word(s.allreduce_words as u64);
    }

    pub fn scheme(&mut self, scheme: &dyn BlockOrthogonalizer) {
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
    pub fn solve(&mut self, x: &[f64], result: &SolveResult) {
        self.floats(x);
        self.word(result.iterations as u64);
        self.word(result.converged as u64);
        self.stats(&result.comm_total);
    }
}

/// Consecutive column ranges of the given widths, from column 0.
pub fn panels(widths: &[usize]) -> Vec<Range<usize>> {
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
pub fn run_panels(kind: OrthoKind, v: &Matrix, panels: &[Range<usize>]) -> u64 {
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
pub fn check(what: &str, expected: [u64; 7], got: impl Fn(OrthoKind) -> u64) {
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
