//! # ssgmres — standard and s-step GMRES with pluggable block orthogonalization
//!
//! The solver crate of the two-stage GMRES reproduction.  It implements the
//! restarted GMRES(m) family of the paper (Fig. 1 / Fig. 5):
//!
//! * **standard GMRES** — step size `s = 1` with column-wise CGS2
//!   orthogonalization (the "GMRES + CGS2" baseline of Table III);
//! * **s-step GMRES** — a matrix-powers kernel generates `s` Krylov vectors
//!   per outer step (monomial or Newton basis — including the **adaptive**
//!   Newton basis of [`shifts`], which harvests Leja-ordered Ritz shifts
//!   after every restart), which are then handed to one of the block
//!   orthogonalization schemes of the [`blockortho`] crate (BCGS2 with
//!   CholQR2, BCGS-PIP2, or the **two-stage** scheme);
//! * right preconditioning with the local preconditioner of the paper's
//!   Fig. 13 (block Jacobi with multicolor Gauss–Seidel).
//!
//! The solver operates on the distributed substrate of [`distsim`]
//! (block-row [`distsim::DistCsr`] matrix, [`distsim::DistMultiVector`]
//! Krylov basis) so every global reduction is recorded and the same code
//! path runs single-rank or multi-rank.
//!
//! There is one restart loop — the cycle engine of [`block`], written for a
//! block of `k` right-hand sides — and one report type, [`SolveResult`].
//! [`solver`] holds the configuration, the report, and the single-RHS entry
//! points, which are zero-copy `k = 1` calls into the engine.  There are six
//! entry points: [`SStepGmres::solve`], [`SStepGmres::solve_block`] and
//! [`SStepGmres::solve_block_with`] take a [`distsim::DistCsr`] (build it
//! with `DistCsr::from_row_source` to stream a rank's rows), and
//! [`SStepGmres::solve_serial`], [`SStepGmres::solve_serial_preconditioned`]
//! and [`SStepGmres::solve_block_serial`] are single-rank sugar over any
//! [`sparse::RowSource`].  [`basis`] /
//! [`shifts`] choose the matrix-powers basis, [`control`] the per-cycle step
//! size, [`hessenberg`] recovers the projected problem, and [`report`]
//! names the phases of a cycle and holds the per-cycle clock and the JSON
//! form of the report.
//!
//! ```
//! use sparse::laplace2d_5pt;
//! use ssgmres::{GmresConfig, SStepGmres};
//!
//! let a = laplace2d_5pt(30, 30);
//! let b = vec![1.0; a.nrows()];
//! let config = GmresConfig {
//!     restart: 30,
//!     step_size: 5,
//!     tol: 1e-8,
//!     ..GmresConfig::default()
//! };
//! let (solution, result) = SStepGmres::new(config).solve_serial(&a, &b);
//! assert!(result.converged);
//! assert_eq!(solution.len(), a.nrows());
//! ```

#![forbid(unsafe_code)]

pub mod basis;
pub mod block;
pub mod control;
pub mod hessenberg;
pub mod precond;
pub mod report;
pub mod shifts;
pub mod solver;

pub use basis::BasisStrategy;
pub use block::BlockOptions;
pub use control::{CycleHealth, CycleVerdict, StepController, StepDecision, StepPolicy};
pub use hessenberg::HessenbergRecovery;
pub use precond::{Identity, MulticolorGaussSeidel, Preconditioner};
pub use report::{CycleTiming, Phase};
pub use solver::{standard_gmres_config, GmresConfig, SStepGmres, SolveResult};
// Fault-injection and detection-guard surface, re-exported so solver users
// wrap a communicator in faults and guards without naming `distsim`
// directly.
pub use distsim::{
    FaultEvent, FaultKind, FaultPlan, FaultRates, FaultyComm, GuardCounts, GuardEvent, GuardedComm,
    Target,
};

// Re-export the orthogonalization selector (and the per-stage fallback
// detail surfaced in CycleHealth) so downstream users configure the solver
// and read its health reports without importing blockortho directly.
pub use blockortho::{FallbackEvent, FallbackStage, OrthoKind};
