//! # perfmodel — analytic GPU-cluster performance model
//!
//! The paper's performance results were measured on the Summit and Vortex
//! clusters (IBM Power9 + NVIDIA V100, Spectrum MPI).  This crate replaces
//! that testbed with an analytic model so the *shape* of every performance
//! table and figure can be regenerated on any machine:
//!
//! * [`machine`] — roofline-style machine description (GPU memory bandwidth
//!   and flop rate, kernel-launch overhead, all-reduce latency/bandwidth,
//!   point-to-point link parameters) with presets for a Summit node
//!   (6 V100 per node) and a Vortex node (4 V100 per node);
//! * [`kernels`] — per-kernel cost functions (tall-skinny GEMM, TRSM, SpMV,
//!   dot/axpy, all-reduce, halo exchange) built on the roofline of the
//!   machine description;
//! * [`ortho_cost`] — one restart cycle of each block orthogonalization
//!   scheme (BCGS2+CholQR2, BCGS-PIP2, two-stage, column-wise CGS2 and the
//!   sketched kinds) as **one list of all-reduce steps** in the order the
//!   `blockortho` crate issues them; reduce count, reduced words and
//!   modelled time are the length, the word sum and the cost sum of that
//!   list, and the two-stage flush is decided by the predicate `TwoStage`
//!   itself calls ([`blockortho::two_stage::flush_due`]).
//!   `tests/comm_volume_validation.rs` checks counts and words against
//!   `CommStats` measured by running the schemes;
//! * [`solver_cost`] — full solver time estimates (SpMV + preconditioner +
//!   orthogonalization + small redundant work) used by the Table II/III/IV
//!   and Fig. 10–13 harness binaries.
//!
//! The model is calibrated to the orders of magnitude reported in the paper
//! (per-iteration times of a fraction of a millisecond on a few hundred
//! GPUs), but the reproduction targets *relative* behaviour: which scheme
//! wins, by what factor, and how the gap changes with node count.

#![forbid(unsafe_code)]

pub mod kernels;
pub mod machine;
pub mod ortho_cost;
pub mod solver_cost;

pub use kernels::KernelCosts;
pub use machine::MachineModel;
pub use ortho_cost::{
    block_ortho_cycle_words, block_ortho_reduce_count, ortho_cycle_cost, ortho_cycle_words,
    ortho_reduce_count, sketch_reduce_words, OrthoBreakdown, SchemeKind,
};
pub use solver_cost::{solver_time, ProblemSpec, SolverTimes};
