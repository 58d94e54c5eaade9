//! # testmat — synthetic test matrices for the numerical study
//!
//! The paper's Section VI measures orthogonality errors and condition
//! numbers on synthetic inputs whose conditioning can be controlled exactly:
//!
//! * **logscaled matrices** (Fig. 6): `V = X Σ Yᵀ` with random orthonormal
//!   `X ∈ R^{n×s}`, `Y ∈ R^{s×s}` and `Σ = diag(logspace(0, −log₁₀κ, s))`,
//!   so that `κ(V)` is exactly the requested value;
//! * **glued matrices** (Figs. 7–8): block matrices whose panels each have a
//!   prescribed condition number while the condition number of the
//!   accumulated matrix `V_{1:j}` grows geometrically panel by panel —
//!   the classic stress test for block Gram–Schmidt stability;
//! * random orthonormal panels and general random matrices as building
//!   blocks.
//!
//! Each generator takes an explicit RNG seed so the "min/avg/max over ten
//! seeds" curves of the paper are reproducible.

#![forbid(unsafe_code)]

pub mod glued;
pub mod logscaled;
pub mod random;

pub use glued::{glued_matrix, GluedSpec};
pub use logscaled::{logscaled_matrix, logspace_singular_values};
pub use random::{random_dense, random_orthonormal, random_unit_vector};

#[cfg(test)]
mod tests {
    use super::*;
    use dense::cond_2;

    #[test]
    fn generators_compose() {
        let v = logscaled_matrix(500, 5, 1e8, 42);
        let kappa = cond_2(&v.view());
        assert!(kappa > 1e7 && kappa < 1e9, "kappa = {kappa}");
        let g = glued_matrix(
            &GluedSpec {
                nrows: 400,
                panel_cols: 4,
                num_panels: 3,
                panel_cond: 1e4,
                glue_cond: 1e2,
            },
            7,
        );
        assert_eq!(g.nrows(), 400);
        assert_eq!(g.ncols(), 12);
    }
}
