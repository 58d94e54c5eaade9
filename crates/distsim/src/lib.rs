//! # distsim — a simulated distributed-memory runtime
//!
//! The paper's contribution is communication-avoidance: the two-stage
//! scheme performs **one global reduction per s-step panel** (plus one per
//! big panel), versus five for BCGS2 + CholQR2.  Validating that claim
//! requires a substrate that actually *executes and counts* collective
//! operations.  This crate provides one, small enough to reason about and
//! faithful enough that the same solver code runs unchanged on a single
//! rank or on a simulated multi-rank group:
//!
//! * [`Communicator`] — the object-safe collective-communication interface
//!   (`allreduce_sum`, `broadcast`, `allgather`, point-to-point
//!   `send`/`recv`, `barrier`), always held as `Arc<dyn Communicator>`;
//! * [`SerialComm`] — the zero-cost single-rank communicator (collectives
//!   are no-ops that still count, so serial runs audit the same reduction
//!   structure as distributed ones);
//! * [`run_ranks`] — launch an `n`-rank group on scoped threads with
//!   barrier-synchronized, deterministically combined collectives and
//!   FIFO-mailbox point-to-point messaging.  Each rank runs its kernels on
//!   its own thread, as the paper runs one MPI rank per GPU: rank threads
//!   are the workspace's only parallelism;
//! * [`CommStats`] / [`CommStatsSnapshot`] — per-communicator operation and
//!   word counters; `stats().snapshot()`, [`CommStatsSnapshot::since`] and
//!   [`CommStatsSnapshot::merge`] are how the tests, benches and the
//!   performance model audit the paper's reduction counts;
//! * [`DistMultiVector`] — the 1D block-row distributed Krylov basis with
//!   the fused kernels the orthogonalization schemes need (`gram`, `proj`,
//!   `proj_and_gram`, `update`, `scale_right`, ...), each documenting how
//!   many global reductions it performs;
//! * [`DistCsr`] — a 1D block-row distributed CSR matrix whose SpMV does
//!   the neighborhood (halo) exchange with point-to-point messages, as the
//!   paper's MPI runs do, and whose block product `spmm` serves all `k`
//!   columns of a block step with one message per peer and one pass over
//!   the operator.  Construction is **streamed**
//!   ([`DistCsr::from_row_source`] / [`DistCsr::from_partitioned`]): each
//!   rank materializes only its own row block — `O(nnz/P + halo)` peak
//!   memory — and the exchange plan is negotiated by the [`assembly`]
//!   planner; [`DistCsr::from_global`] is a thin wrapper streaming a
//!   replicated matrix through the same path;
//! * [`FaultyComm`] / [`FaultPlan`] — a deterministic fault-injection
//!   wrapper over any communicator that acts on what a solve puts on the
//!   wire, all-reduce contributions and halo sends (bit-flips,
//!   dropped/duplicated messages, transient all-reduce failures, stalls),
//!   seeded and bitwise replayable;
//! * [`GuardedComm`] — the same kind of wrapper for low-overhead detection
//!   guards (Gram-symmetry screening, duplicated norm words, sequenced and
//!   checksummed halo frames) with bounded collective retry and
//!   NaN-poisoning for cycle-level rollback.  A wrapped communicator runs
//!   every guard; its one setting is the halo receive patience.  An
//!   unwrapped communicator runs no guard code.
//!
//! Determinism: collective reductions combine per-rank contributions in
//! rank order, so a given rank count always produces bitwise-identical
//! results; serial and multi-rank runs agree to rounding (the summation
//! *order* differs, the reduction *structure* does not).

#![forbid(unsafe_code)]

pub mod assembly;
pub mod comm;
pub mod csr;
pub mod fault;
pub mod guard;
pub mod multivector;
pub mod serial;
pub mod sketch;
pub mod stats;
pub mod thread;

pub use assembly::{plan_halo_exchange, HaloPlan};
pub use comm::{default_recv_timeout, CommError, Communicator};
pub use csr::DistCsr;
pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultRates, FaultyComm, Injection, OpKind, Target,
};
pub use guard::{GuardCounts, GuardEvent, GuardedComm, Screen};
pub use multivector::DistMultiVector;
pub use serial::SerialComm;
pub use sketch::{SketchConfig, SketchOp, SKETCH_NNZ_PER_ROW};
pub use stats::{CommStats, CommStatsSnapshot};
pub use thread::{run_ranks, ThreadComm};
