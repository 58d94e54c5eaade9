//! The object-safe communicator interface.

use crate::guard::{GuardedComm, Screen};
use crate::stats::CommStats;
use std::time::Duration;

/// A diagnosable communication failure.
///
/// The simulated runtime historically had exactly two failure modes: panic
/// or hang.  A hang is the worst outcome for a test suite — an injected (or
/// real) rank stall used to block `recv` forever.  [`Communicator::recv_timeout`]
/// turns that into this error, carrying enough context (who was waiting, on
/// whom, for how long) to diagnose the stall from the message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A blocking receive gave up waiting.
    RecvTimeout {
        /// The rank that was waiting.
        rank: usize,
        /// The rank it was waiting on.
        from: usize,
        /// How long it waited before giving up.
        waited: Duration,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RecvTimeout { rank, from, waited } => write!(
                f,
                "rank {rank}: recv from rank {from} timed out after {:.1}s \
                 (peer stalled, message dropped, or mismatched op order)",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Default patience of a plain [`Communicator::recv`] on the thread-backed
/// communicator, overridable through the `DISTSIM_RECV_TIMEOUT_MS`
/// environment variable.  Generous enough that no legitimate exchange ever
/// trips it; small enough that a stalled rank surfaces as a diagnosable
/// panic instead of a hung test run.
pub fn default_recv_timeout() -> Duration {
    let ms = std::env::var("DISTSIM_RECV_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(30_000);
    Duration::from_millis(ms)
}

/// Collective and point-to-point communication among a fixed group of
/// ranks, modeled on the MPI subset the paper's solver needs.
///
/// Implementations are held as `Arc<dyn Communicator>` and shared freely;
/// every operation takes `&self`.  All collectives are *blocking* and must
/// be called by every rank of the group in the same order with compatible
/// arguments (as in MPI); the thread-backed implementation asserts this.
///
/// Every operation is recorded in [`stats`](Communicator::stats) — on the
/// single-rank [`SerialComm`](crate::SerialComm) the data movement is a
/// no-op but the counts are identical to a multi-rank run, which is what
/// lets a serial run audit the paper's reduction counts.
pub trait Communicator: Send + Sync + std::fmt::Debug {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn size(&self) -> usize;

    /// Element-wise global sum of `buf` across all ranks; every rank
    /// receives the result in place.  One global reduction.
    fn allreduce_sum(&self, buf: &mut [f64]);

    /// Re-execute an all-reduce as a fault-recovery **retry**.  The data
    /// movement is identical to [`allreduce_sum`](Self::allreduce_sum), but
    /// the operation is recorded in the separate retry counters of
    /// [`CommStats`] so the reduce-count audits stay exact.  Collective:
    /// every rank that retries must do so together, in the same order.
    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        self.allreduce_sum(buf);
    }

    /// [`allreduce_sum`](Self::allreduce_sum) of a payload whose healthy
    /// shape `screen` describes.  Returns `false` when a
    /// [`GuardedComm`] gave up on the payload and poisoned it with NaN;
    /// every other communicator runs the plain reduce and returns `true`.
    fn allreduce_screened(&self, buf: &mut [f64], screen: Screen) -> bool {
        let _ = screen;
        self.allreduce_sum(buf);
        true
    }

    /// Replace `buf` on every rank with its contents on rank `root`.
    fn broadcast(&self, root: usize, buf: &mut [f64]);

    /// Gather `send` from every rank into `recv` in rank order.  Every rank
    /// must pass the same `send` length and `recv.len() == size() *
    /// send.len()`.
    fn allgather(&self, send: &[f64], recv: &mut [f64]);

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Post `data` to rank `to` (non-blocking, FIFO per sender/receiver
    /// pair).  Used for the halo exchange of the distributed SpMV.
    fn send(&self, to: usize, data: &[f64]);

    /// Receive the next message from rank `from` (blocking; on the
    /// thread-backed communicator, bounded by [`default_recv_timeout`] and
    /// panicking with a [`CommError`] diagnosis when it expires).
    fn recv(&self, from: usize) -> Vec<f64>;

    /// Receive the next message from rank `from`, waiting at most
    /// `timeout`.  The default implementation delegates to the blocking
    /// [`recv`](Self::recv) (appropriate for implementations that cannot
    /// stall); the thread-backed communicator honors the bound and returns
    /// [`CommError::RecvTimeout`] with rank/op context when it expires.
    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        let _ = timeout;
        Ok(self.recv(from))
    }

    /// Receive one halo message of `words` values from rank `from`.
    /// `None` means a [`GuardedComm`] wrote the message off and the caller
    /// poisons the ghosts it carried; every other communicator is the
    /// blocking [`recv`](Self::recv), panicking on a length mismatch.
    fn recv_halo(&self, from: usize, words: usize) -> Option<Vec<f64>> {
        let data = self.recv(from);
        assert_eq!(
            data.len(),
            words,
            "halo exchange: peer {from} sent {} values, expected {words}",
            data.len()
        );
        Some(data)
    }

    /// The detection guards' state when this is a [`GuardedComm`]: the
    /// solver's handle on their counters and event log.  A wrapped
    /// communicator runs every guard; any other runs none.
    fn guards(&self) -> Option<&GuardedComm> {
        None
    }

    /// This rank's communication counters.
    fn stats(&self) -> &CommStats;
}
