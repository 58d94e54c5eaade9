//! Per-communicator instrumentation of collective and point-to-point
//! traffic.
//!
//! Every [`Communicator`](crate::Communicator) owns a [`CommStats`] whose
//! counters are bumped by each operation — including on the serial
//! communicator, where the operations are no-ops but the *counts* are the
//! quantity the paper's analysis is built on.  Counters are atomic so a
//! `&self` communicator behind an `Arc` can record them; reads are
//! [`snapshot`](CommStats::snapshot)s, and phase attribution is done by
//! differencing snapshots ([`CommStatsSnapshot::since`]) and accumulating
//! deltas ([`CommStatsSnapshot::merge`]).  A snapshot is eleven relaxed
//! loads into a `Copy` struct: no lock, no allocation.
//!
//! The paper's claims are counts of global reduces, so the tests audit
//! counts, not estimates.  A phase is audited by taking a snapshot before
//! it and `since` after it: a two-stage panel shows one all-reduce.  The
//! solver reports per-solve totals the same way
//! (`SolveResult::comm_total`, `comm_ortho`).  Matrix construction spends
//! two halo-sized all-gathers (see [`crate::assembly`]), so a solve-phase
//! audit snapshots after it.  At the repository root,
//! `tests/comm_volume_validation.rs` checks `OrthoKind::reduce_schedule`
//! (count and words of every all-reduce of a restart cycle) against these
//! counters for every kind, and the SpMV halo's point-to-point words
//! against the 9-point stencil's literal terms.
//! `tests/distributed_equivalence.rs` checks that the two-stage count is
//! the same on 1 and 4 ranks.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Live operation counters of one communicator (one rank).
#[derive(Debug, Default)]
pub struct CommStats {
    allreduces: AtomicUsize,
    allreduce_words: AtomicUsize,
    broadcasts: AtomicUsize,
    broadcast_words: AtomicUsize,
    allgathers: AtomicUsize,
    allgather_words: AtomicUsize,
    p2p_messages: AtomicUsize,
    p2p_words: AtomicUsize,
    barriers: AtomicUsize,
    allreduce_retries: AtomicUsize,
    allreduce_retry_words: AtomicUsize,
}

impl CommStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one all-reduce of `words` `f64` words.
    pub fn record_allreduce(&self, words: usize) {
        self.allreduces.fetch_add(1, Ordering::Relaxed);
        self.allreduce_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Record one broadcast of `words` `f64` words.
    pub fn record_broadcast(&self, words: usize) {
        self.broadcasts.fetch_add(1, Ordering::Relaxed);
        self.broadcast_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Record one all-gather contributing `words` `f64` words.
    pub fn record_allgather(&self, words: usize) {
        self.allgathers.fetch_add(1, Ordering::Relaxed);
        self.allgather_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Record one point-to-point message of `words` `f64` words (counted
    /// at the sender).
    pub fn record_p2p(&self, words: usize) {
        self.p2p_messages.fetch_add(1, Ordering::Relaxed);
        self.p2p_words.fetch_add(words, Ordering::Relaxed);
    }

    /// Record one barrier.
    pub fn record_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one **retried** all-reduce of `words` `f64` words.
    ///
    /// Retries (a fault-recovery re-execution of a collective that already
    /// happened) are tallied separately from [`record_allreduce`] so the
    /// reduce-count audits the tests pin — "this kernel is one global
    /// reduction" — stay exact even when the fault-tolerance layer had to
    /// repeat an operation.
    ///
    /// [`record_allreduce`]: Self::record_allreduce
    pub fn record_allreduce_retry(&self, words: usize) {
        self.allreduce_retries.fetch_add(1, Ordering::Relaxed);
        self.allreduce_retry_words
            .fetch_add(words, Ordering::Relaxed);
    }

    /// A consistent point-in-time copy of the counters.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        CommStatsSnapshot {
            allreduces: self.allreduces.load(Ordering::Relaxed),
            allreduce_words: self.allreduce_words.load(Ordering::Relaxed),
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
            broadcast_words: self.broadcast_words.load(Ordering::Relaxed),
            allgathers: self.allgathers.load(Ordering::Relaxed),
            allgather_words: self.allgather_words.load(Ordering::Relaxed),
            p2p_messages: self.p2p_messages.load(Ordering::Relaxed),
            p2p_words: self.p2p_words.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            allreduce_retries: self.allreduce_retries.load(Ordering::Relaxed),
            allreduce_retry_words: self.allreduce_retry_words.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counter values; differences of snapshots attribute
/// communication to solver phases.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    /// Number of all-reduces (the paper's "global reductions").
    pub allreduces: usize,
    /// Total `f64` words all-reduced.
    pub allreduce_words: usize,
    /// Number of broadcasts.
    pub broadcasts: usize,
    /// Total `f64` words broadcast.
    pub broadcast_words: usize,
    /// Number of all-gathers.
    pub allgathers: usize,
    /// Total `f64` words contributed to all-gathers.
    pub allgather_words: usize,
    /// Number of point-to-point messages sent (halo exchange).
    pub p2p_messages: usize,
    /// Total `f64` words sent point-to-point.
    pub p2p_words: usize,
    /// Number of explicit barriers.
    pub barriers: usize,
    /// Number of **retried** all-reduces (fault-recovery re-executions;
    /// counted separately so `allreduces` stays the paper's audit count).
    pub allreduce_retries: usize,
    /// Total `f64` words all-reduced by retries.
    pub allreduce_retry_words: usize,
}

impl CommStatsSnapshot {
    /// The operations performed between `earlier` and this snapshot.
    pub fn since(&self, earlier: &CommStatsSnapshot) -> CommStatsSnapshot {
        CommStatsSnapshot {
            allreduces: self.allreduces - earlier.allreduces,
            allreduce_words: self.allreduce_words - earlier.allreduce_words,
            broadcasts: self.broadcasts - earlier.broadcasts,
            broadcast_words: self.broadcast_words - earlier.broadcast_words,
            allgathers: self.allgathers - earlier.allgathers,
            allgather_words: self.allgather_words - earlier.allgather_words,
            p2p_messages: self.p2p_messages - earlier.p2p_messages,
            p2p_words: self.p2p_words - earlier.p2p_words,
            barriers: self.barriers - earlier.barriers,
            allreduce_retries: self.allreduce_retries - earlier.allreduce_retries,
            allreduce_retry_words: self.allreduce_retry_words - earlier.allreduce_retry_words,
        }
    }

    /// Field-wise sum (accumulate phase deltas).
    pub fn merge(&self, other: &CommStatsSnapshot) -> CommStatsSnapshot {
        CommStatsSnapshot {
            allreduces: self.allreduces + other.allreduces,
            allreduce_words: self.allreduce_words + other.allreduce_words,
            broadcasts: self.broadcasts + other.broadcasts,
            broadcast_words: self.broadcast_words + other.broadcast_words,
            allgathers: self.allgathers + other.allgathers,
            allgather_words: self.allgather_words + other.allgather_words,
            p2p_messages: self.p2p_messages + other.p2p_messages,
            p2p_words: self.p2p_words + other.p2p_words,
            barriers: self.barriers + other.barriers,
            allreduce_retries: self.allreduce_retries + other.allreduce_retries,
            allreduce_retry_words: self.allreduce_retry_words + other.allreduce_retry_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_since_and_merge_are_fieldwise() {
        let stats = CommStats::new();
        stats.record_allreduce(25);
        let a = stats.snapshot();
        stats.record_allreduce(5);
        stats.record_broadcast(3);
        stats.record_allgather(7);
        stats.record_p2p(11);
        stats.record_barrier();
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.allreduces, 1);
        assert_eq!(d.allreduce_words, 5);
        assert_eq!(d.broadcasts, 1);
        assert_eq!(d.broadcast_words, 3);
        assert_eq!(d.allgathers, 1);
        assert_eq!(d.allgather_words, 7);
        assert_eq!(d.p2p_messages, 1);
        assert_eq!(d.p2p_words, 11);
        assert_eq!(d.barriers, 1);
        let m = a.merge(&d);
        assert_eq!(m, b);
    }

    #[test]
    fn retries_do_not_inflate_the_reduce_audit() {
        let stats = CommStats::new();
        stats.record_allreduce(10);
        stats.record_allreduce_retry(10);
        stats.record_allreduce_retry(10);
        let s = stats.snapshot();
        assert_eq!(s.allreduces, 1, "retries must not count as reduces");
        assert_eq!(s.allreduce_words, 10);
        assert_eq!(s.allreduce_retries, 2);
        assert_eq!(s.allreduce_retry_words, 20);
        // since/merge are field-wise over the retry counters too.
        let before = CommStatsSnapshot::default();
        assert_eq!(s.since(&before), s);
        assert_eq!(before.merge(&s), s);
    }

    #[test]
    fn default_snapshot_is_zero() {
        let z = CommStatsSnapshot::default();
        assert_eq!(z.allreduces, 0);
        assert_eq!(z, z.merge(&CommStatsSnapshot::default()));
    }
}
