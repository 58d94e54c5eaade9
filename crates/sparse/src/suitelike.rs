//! Synthetic surrogates for the SuiteSparse matrices used in the paper.
//!
//! The evaluation (Table IV, Fig. 9) uses seven matrices from the
//! SuiteSparse Matrix Collection.  Those files are not redistributable with
//! this repository, so we generate *surrogates* that match the properties
//! the experiments actually exercise — dimension, average nonzeros per row,
//! symmetry class and rough conditioning — so the SpMV cost, the
//! orthogonalization workload and the MPK condition-number growth are
//! representative.  The [`crate::mm`] reader can load the real files when
//! they are available, and the experiment harness will use them instead.
//!
//! Each surrogate is a banded random matrix: row `i` couples to a fixed set
//! of pseudo-random neighbour offsets (the same for every row, so the
//! pattern resembles a stencil/graph Laplacian with long-range connections)
//! plus a dominant diagonal.  The `spd` flag symmetrizes the values and
//! shifts the diagonal to make the matrix positive definite; otherwise a
//! mild skew term keeps it non-symmetric.

use crate::csr::Csr;
use crate::rows::{assemble, RowSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Specification of a SuiteSparse-like synthetic matrix.
#[derive(Debug, Clone)]
pub struct SuiteLikeSpec {
    /// Name (matches the SuiteSparse name it stands in for).
    pub name: &'static str,
    /// Dimension `n`.
    pub n: usize,
    /// Target average nonzeros per row.
    pub nnz_per_row: f64,
    /// Whether the surrogate should be symmetric positive definite.
    pub spd: bool,
    /// Short description quoted from the paper's Table IV.
    pub description: &'static str,
}

/// The seven matrices of Table IV plus the two extra matrices of Fig. 9,
/// with the dimensions and densities reported in the paper (scaled-down
/// dimensions can be requested at generation time).
pub const SUITE_SPARSE_SET: &[SuiteLikeSpec] = &[
    SuiteLikeSpec {
        name: "atmosmodl",
        n: 1_489_752,
        nnz_per_row: 6.9,
        spd: false,
        description: "CFD, numerically non-symmetric",
    },
    SuiteLikeSpec {
        name: "dielFilterV2real",
        n: 1_157_456,
        nnz_per_row: 41.9,
        spd: false,
        description: "Electromagnetics, symmetric indefinite",
    },
    SuiteLikeSpec {
        name: "ecology2",
        n: 999_999,
        nnz_per_row: 5.0,
        spd: true,
        description: "Circuit, SPD",
    },
    SuiteLikeSpec {
        name: "ML_Geer",
        n: 1_504_002,
        nnz_per_row: 73.7,
        spd: false,
        description: "Structural, numerically non-symmetric",
    },
    SuiteLikeSpec {
        name: "thermal2",
        n: 1_228_045,
        nnz_per_row: 7.0,
        spd: true,
        description: "Unstructured thermal FEM, SPD",
    },
    SuiteLikeSpec {
        name: "HTC_336_4438",
        n: 226_340,
        nnz_per_row: 3.5,
        spd: false,
        description: "Fig. 9 matrix with ill-conditioned MPK basis",
    },
    SuiteLikeSpec {
        name: "Ga41As41H72",
        n: 268_096,
        nnz_per_row: 68.6,
        spd: false,
        description: "Fig. 9 matrix with ill-conditioned MPK basis",
    },
];

/// Streaming row source for a SuiteSparse-like surrogate.
///
/// Every row is generated independently from a per-row RNG seeded by
/// `(seed, row)`, so any row can be produced on demand in any order — the
/// property the streamed distributed assembly
/// (`distsim::DistCsr::from_row_source`) needs to build a rank's block
/// without materializing the global matrix.  The pattern offsets are drawn
/// once at construction (they are shared by all rows, like a stencil with
/// long-range couplings).
#[derive(Debug, Clone)]
pub struct SuiteLikeRows {
    n: usize,
    spd: bool,
    seed: u64,
    offsets: Vec<i64>,
}

impl SuiteLikeRows {
    /// Build the row source for `spec`, optionally overriding the dimension
    /// (the paper-scale dimensions are large; tests and laptop runs pass a
    /// smaller `n_override`).
    pub fn new(spec: &SuiteLikeSpec, n_override: Option<usize>, seed: u64) -> Self {
        let n = n_override.unwrap_or(spec.n);
        assert!(n >= 8, "surrogate dimension too small");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
        // Off-diagonal couplings per row (pattern offsets shared by all rows).
        let offdiag_per_row = (spec.nnz_per_row.round() as usize).saturating_sub(1).max(2);
        let mut offsets: Vec<i64> = Vec::with_capacity(offdiag_per_row + 1);
        if spec.spd {
            // Symmetric pattern: mirrored ± offsets, half short-range
            // (stencil-like), half long-range (unstructured fill).
            let half = offdiag_per_row.div_ceil(2).max(1);
            for k in 0..half {
                let d = if k % 2 == 0 {
                    1 + (k / 2) as i64
                } else {
                    let span = (n / 7).max(2) as u64;
                    (rng.random::<u64>() % span) as i64 + 2
                };
                offsets.push(d);
                offsets.push(-d);
            }
        } else {
            for k in 0..offdiag_per_row {
                if k % 2 == 0 {
                    let short = 1 + (k / 2) as i64;
                    offsets.push(if k % 4 == 0 { -short } else { short });
                } else {
                    let span = (n / 7).max(2) as u64;
                    let r = (rng.random::<u64>() % span) as i64 + 2;
                    offsets.push(if k % 4 == 1 { r } else { -r });
                }
            }
        }
        offsets.sort_unstable();
        offsets.dedup();
        Self {
            n,
            spd: spec.spd,
            seed,
            offsets,
        }
    }
}

impl RowSource for SuiteLikeRows {
    fn nrows(&self) -> usize {
        self.n
    }
    fn ncols(&self) -> usize {
        self.n
    }
    fn emit_row(&self, i: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let n = self.n;
        // Per-row generator: splitmix-style mixing of (seed, row) so rows
        // are independent and reproducible in any order.
        let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.seed ^ 0x5eed_0001;
        h ^= h >> 31;
        let mut rng = StdRng::seed_from_u64(h);
        let below = cols.len();
        let mut row_abs_sum = 0.0;
        let mut diag_at = below;
        for &d in &self.offsets {
            let j = i as i64 + d;
            if j < 0 || j as usize >= n {
                continue;
            }
            let j = j as usize;
            let mag: f64 = 0.1 + 0.9 * rng.random::<f64>();
            let val = if self.spd {
                // Symmetric value determined by the unordered pair (i, j).
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                let h = (a
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(b.wrapping_mul(0x85EB_CA6B))) as u64;
                -(0.1 + 0.9 * ((h % 1000) as f64 / 1000.0))
            } else {
                // Non-symmetric: random magnitude with a skew sign pattern.
                if d > 0 {
                    -mag
                } else {
                    -0.8 * mag
                }
            };
            row_abs_sum += val.abs();
            if d < 0 {
                diag_at += 1;
            }
            cols.push(j);
            vals.push(val);
        }
        // Diagonal: dominant for SPD (guarantees positive definiteness);
        // mildly dominant otherwise so GMRES converges without a
        // preconditioner on the surrogate, as it does on the originals.
        let diag = if self.spd {
            row_abs_sum + 1.0
        } else {
            row_abs_sum * (1.05 + 0.1 * rng.random::<f64>())
        };
        // The offsets are ascending, so entries below the diagonal came
        // first; splice the diagonal in between to keep the row sorted.
        cols.insert(diag_at, i);
        vals.insert(diag_at, diag);
        debug_assert!(cols[below..].windows(2).all(|w| w[0] < w[1]));
    }
    /// The in-range offsets plus the diagonal; no RNG is drawn.
    fn row_len(&self, i: usize) -> usize {
        let in_range = |&&d: &&i64| (0..self.n as i64).contains(&(i as i64 + d));
        1 + self.offsets.iter().filter(in_range).count()
    }
}

/// Generate a surrogate for `spec`, optionally overriding the dimension
/// (the paper-scale dimensions are large; tests and laptop runs pass a
/// smaller `n_override`).
///
/// This is [`rows::assemble`](crate::rows::assemble) over
/// [`SuiteLikeRows`], so a replicated surrogate and a streamed per-rank
/// block of the same spec/seed agree bitwise.
pub fn suitesparse_surrogate(spec: &SuiteLikeSpec, n_override: Option<usize>, seed: u64) -> Csr {
    assemble(&SuiteLikeRows::new(spec, n_override, seed))
}

/// Find a spec by (SuiteSparse) name.
pub fn spec_by_name(name: &str) -> Option<&'static SuiteLikeSpec> {
    SUITE_SPARSE_SET.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_contains_the_papers_matrices() {
        for name in [
            "atmosmodl",
            "dielFilterV2real",
            "ecology2",
            "ML_Geer",
            "thermal2",
            "HTC_336_4438",
            "Ga41As41H72",
        ] {
            assert!(spec_by_name(name).is_some(), "{name} missing");
        }
        assert!(spec_by_name("does_not_exist").is_none());
    }

    #[test]
    fn surrogate_has_requested_dimension_and_density() {
        let spec = spec_by_name("atmosmodl").unwrap();
        let a = suitesparse_surrogate(spec, Some(5_000), 1);
        assert_eq!(a.nrows(), 5_000);
        let density = a.nnz() as f64 / a.nrows() as f64;
        assert!(
            (density - spec.nnz_per_row).abs() < 2.5,
            "density {density} vs target {}",
            spec.nnz_per_row
        );
    }

    #[test]
    fn spd_surrogate_is_symmetric_positive_definite() {
        let spec = spec_by_name("ecology2").unwrap();
        let a = suitesparse_surrogate(spec, Some(200), 3);
        assert!(a.is_symmetric(1e-12));
        let vals = dense::sym_eigvals(&a.to_dense());
        assert!(vals[0] > 0.0, "min eigenvalue {}", vals[0]);
    }

    #[test]
    fn nonsymmetric_surrogate_is_nonsymmetric_and_nonsingular() {
        let spec = spec_by_name("atmosmodl").unwrap();
        let a = suitesparse_surrogate(spec, Some(200), 4);
        assert!(!a.is_symmetric(1e-12));
        // Diagonal dominance implies nonsingularity.
        let d = a.diagonal();
        for (i, &di) in d.iter().enumerate() {
            let (cols, vals) = a.row(i);
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(c, _)| **c != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(di > off * 0.999, "row {i} not dominant");
        }
    }

    #[test]
    fn surrogate_is_seed_deterministic() {
        let spec = spec_by_name("thermal2").unwrap();
        let a = suitesparse_surrogate(spec, Some(300), 7);
        let b = suitesparse_surrogate(spec, Some(300), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn rows_can_be_emitted_out_of_order_and_match_the_assembled_matrix() {
        let spec = spec_by_name("atmosmodl").unwrap();
        let src = SuiteLikeRows::new(spec, Some(300), 11);
        let a = suitesparse_surrogate(spec, Some(300), 11);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        // Visit rows backwards: each must match the assembled matrix exactly.
        for i in (0..300).rev() {
            cols.clear();
            vals.clear();
            src.emit_row(i, &mut cols, &mut vals);
            let (rc, rv) = a.row(i);
            assert_eq!(cols, rc, "row {i} pattern");
            assert_eq!(vals, rv, "row {i} values");
        }
    }

    #[test]
    fn dense_surrogates_have_more_nnz_per_row() {
        let geer = suitesparse_surrogate(spec_by_name("ML_Geer").unwrap(), Some(2_000), 5);
        let eco = suitesparse_surrogate(spec_by_name("ecology2").unwrap(), Some(2_000), 5);
        assert!(geer.nnz() > 5 * eco.nnz());
    }
}
