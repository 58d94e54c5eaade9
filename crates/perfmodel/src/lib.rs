//! # perfmodel — the per-scheme all-reduce schedule
//!
//! The paper's performance argument is a count: how many global
//! all-reduces, of how many words, each block orthogonalization scheme
//! issues per restart cycle.  [`ortho_cost`] states one restart cycle of
//! each scheme (BCGS2+CholQR2, BCGS-PIP2, two-stage, column-wise CGS2 and
//! the sketched kinds) as **one list of all-reduce steps** in the order the
//! `blockortho` crate issues them; the reduce count and the reduced words
//! are the length and the word sum of that list, and the two-stage flush is
//! decided by the predicate `TwoStage` itself calls
//! ([`blockortho::two_stage::flush_due`]).
//!
//! Both are exact, not estimates: `tests/comm_volume_validation.rs` asserts
//! them against the `CommStats` measured by running the schemes on the
//! `distsim` substrate.  Time is not modelled here; the measured seconds
//! live in `SolveResult::cycle_timings` and the repository's `benchmark/`.

#![forbid(unsafe_code)]

pub mod ortho_cost;

pub use ortho_cost::{
    block_ortho_cycle_words, block_ortho_reduce_count, ortho_cycle_words, ortho_reduce_count,
    sketch_reduce_words, SchemeKind,
};
