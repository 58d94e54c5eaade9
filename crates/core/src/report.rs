//! What a solve reports about its restart cycles, and under which names.
//!
//! A phase of the restart cycle is named **once**, by [`Phase`]: its
//! [`label`](Phase::label) is the `distsim::fault` tag fault plans target,
//! the name of the phase's `"solver"` trace span, the index of its time
//! bucket and the `<label>_ns` key of the JSON report.  The cycle engine
//! states it in one bracket (`Solve::phase` in [`crate::block`]).
//!
//! A cycle is recorded in exactly two places, aligned by position in
//! [`SolveResult`]:
//!
//! * [`SolveResult::health_history`] ([`crate::CycleHealth`]) — what the
//!   cycle **decided and counted**: step, shifts, usable columns,
//!   conditioning, fallbacks, orthogonalization traffic, verdict.  Bitwise
//!   reproducible across runs, thread counts and traced/untraced solves,
//!   which is why the equivalence batteries compare it with `==`.
//! * [`SolveResult::cycle_timings`] ([`CycleTiming`]) — what the **clock
//!   measured**: wall time per phase from plain monotonic clock reads, so
//!   the breakdown is always on and costs a handful of `Instant::now()`
//!   calls per cycle (no tracing required, no extra reductions, no
//!   perturbation of the arithmetic).  With the [`trace`] layer enabled it
//!   also carries the cycle's synchronization time, a delta of
//!   [`trace::thread_category_ns`]`("comm")` across the cycle.
//!
//! [`SolveResult::write_json`] zips the two by index into one `cycles`
//! array.

use crate::control::CycleVerdict;
use crate::solver::SolveResult;
use distsim::CommStatsSnapshot;
use std::ops::Index;
use std::time::Instant;
use trace::JsonWriter;

/// A phase of the restart cycle, in the paper's cost-model vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Matrix-powers kernel: preconditioner applications, SpMVs (including
    /// their halo exchange), Newton shifts, and basis-column stores.
    Mpk,
    /// Block orthogonalization: every `orthogonalize_panel` call (column 0
    /// included) plus the delayed-reorthogonalization `finish`.
    Ortho,
    /// Hessenberg recovery, Ritz-shift harvesting, and the projected
    /// least-squares solves (both the in-cycle estimates and the final one).
    Hess,
    /// Solution update `x ← x + M⁻¹·(Q·y)`.
    Update,
    /// True-residual recomputation and its global norm.
    Residual,
    /// Everything else: cycle setup, health assembly, controller decisions.
    Other,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// Every phase, in bucket order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mpk,
        Phase::Ortho,
        Phase::Hess,
        Phase::Update,
        Phase::Residual,
        Phase::Other,
    ];

    /// The phase's one name: fault tag, span name, and JSON key stem.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Mpk => "mpk",
            Phase::Ortho => "ortho",
            Phase::Hess => "hess",
            Phase::Update => "update",
            Phase::Residual => "residual",
            Phase::Other => "other",
        }
    }
}

/// Wall-clock breakdown of one restart cycle (all durations nanoseconds).
///
/// The phase buckets partition the cycle body: they account for every
/// instant between the cycle's first and last clock read, so their sum is
/// `total_ns` exactly.  Index with a [`Phase`]: `timing[Phase::Ortho]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleTiming {
    /// Time charged to each phase, in [`Phase::ALL`] order.
    pub phase_ns: [u64; Phase::COUNT],
    /// Whole-cycle wall time (first to last clock read of the cycle).
    pub total_ns: u64,
    /// Time spent inside `"comm"`-category trace spans on this thread
    /// during the cycle — the solver's sync-vs-compute attribution.
    /// Exactly 0 when tracing is disabled or compiled out.
    pub sync_ns: u64,
}

impl Index<Phase> for CycleTiming {
    type Output = u64;

    fn index(&self, phase: Phase) -> &u64 {
        &self.phase_ns[phase as usize]
    }
}

impl CycleTiming {
    /// Sum of the phase buckets (equals `total_ns`).
    pub fn segments_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// `total_ns − sync_ns`: the cycle's compute share under the tracing
    /// layer's sync attribution (equals `total_ns` when tracing is off).
    pub fn compute_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.sync_ns)
    }
}

/// Accumulates one cycle's [`CycleTiming`] with the *lap* pattern: every
/// [`lap`](PhaseClock::lap) charges the time since the previous lap (or
/// construction) to one phase, so the buckets partition the cycle body with
/// no gaps and no double counting.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    start: Instant,
    last: Instant,
    sync0: u64,
    timing: CycleTiming,
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        let now = Instant::now();
        PhaseClock {
            start: now,
            last: now,
            sync0: trace::thread_category_ns("comm"),
            timing: CycleTiming::default(),
        }
    }

    /// Charge the time since the previous lap to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.timing.phase_ns[phase as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Close the cycle: charge any tail to [`Phase::Other`], stamp
    /// `total_ns` and the `"comm"`-span delta, and return the record.
    pub(crate) fn finish(mut self) -> CycleTiming {
        self.lap(Phase::Other);
        self.timing.total_ns = self.last.duration_since(self.start).as_nanos() as u64;
        self.timing.sync_ns = trace::thread_category_ns("comm").saturating_sub(self.sync0);
        self.timing
    }
}

fn write_comm(w: &mut JsonWriter, key: &str, comm: &CommStatsSnapshot) {
    w.key(key)
        .begin_object()
        .field("allreduces", comm.allreduces)
        .field("allreduce_words", comm.allreduce_words)
        .field("p2p_messages", comm.p2p_messages)
        .field("p2p_words", comm.p2p_words)
        .end_object();
}

impl SolveResult {
    /// Write the report as members of the object open in `w`: the
    /// whole-solve scalars, then one `cycles[]` row per started cycle that
    /// joins its [`crate::CycleHealth`] and its [`CycleTiming`] (one
    /// `<label>_ns` key per [`Phase`]).  Non-finite floats are written as
    /// `null`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("converged", self.converged)
            .field("iterations", self.iterations)
            .field("restarts", self.restarts)
            .field("spmv_count", self.spmv_count)
            .field("precond_count", self.precond_count)
            .field("ortho_fallbacks", self.ortho_fallbacks)
            .field("rescues", self.rescues)
            .field("breakdown", self.breakdown.as_deref())
            .field("faults_detected", self.faults_detected)
            .field("faults_recovered", self.faults_recovered)
            .field("faults_unrecovered", self.faults_unrecovered);
        w.key("final_relres").begin_array();
        for &relres in &self.final_relres {
            w.value(relres);
        }
        w.end_array();
        write_comm(w, "comm_total", &self.comm_total);
        write_comm(w, "comm_ortho", &self.comm_ortho);
        w.key("cycles").begin_array();
        let cycles = self.health_history.iter().zip(&self.cycle_timings);
        for (cycle, (h, t)) in cycles.enumerate() {
            w.begin_object().field("cycle", cycle).field("step", h.step);
            for phase in Phase::ALL {
                w.field(&format!("{}_ns", phase.label()), t[phase]);
            }
            w.field("total_ns", t.total_ns).field("sync_ns", t.sync_ns);
            w.key("shifts").begin_array();
            for &shift in &h.shifts {
                w.value(shift);
            }
            w.end_array()
                .field("ortho_allreduces", h.comm_ortho.allreduces)
                .field("ortho_allreduce_words", h.comm_ortho.allreduce_words)
                .field("usable_cols", h.usable_cols)
                .field("kappa_est", h.kappa_est)
                .field("fallbacks", h.fallbacks)
                .field("breakdown", h.breakdown.as_deref())
                .field("relres", h.relres)
                .field("stagnated", h.stagnated)
                .field(
                    "verdict",
                    match h.verdict {
                        CycleVerdict::Clean => "clean",
                        CycleVerdict::Distressed => "distressed",
                        CycleVerdict::Breakdown => "breakdown",
                    },
                )
                .field("faults_detected", h.faults_detected)
                .field("faults_recovered", h.faults_recovered)
                .field("faults_unrecovered", h.faults_unrecovered)
                .end_object();
        }
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_total() {
        let mut clock = PhaseClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.lap(Phase::Mpk);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.lap(Phase::Ortho);
        clock.lap(Phase::Ortho);
        let t = clock.finish();
        assert!(t[Phase::Mpk] >= 1_000_000, "mpk lap: {}", t[Phase::Mpk]);
        assert!(t[Phase::Ortho] >= 500_000, "ortho: {}", t[Phase::Ortho]);
        assert_eq!(t[Phase::Hess], 0, "a phase that never ran owns no time");
        // The laps partition the cycle: finish() charges the tail, so the
        // buckets sum to the total exactly.
        assert_eq!(t.segments_ns(), t.total_ns);
        assert_eq!(t.compute_ns(), t.total_ns - t.sync_ns);
    }

    #[test]
    fn phase_labels_are_distinct_and_all_is_in_bucket_order() {
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::COUNT);
        for (bucket, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase as usize, bucket);
        }
    }
}
