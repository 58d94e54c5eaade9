//! Communicator decorators the benchmark passes into the real solver.
//!
//! * [`LatencyComm`] makes synchronization cost felt: every collective
//!   spin-waits `α + β·words` before it delegates.  The delay is a stated
//!   model of an interconnect, not a network measurement.
//! * [`TimedComm`] records one span per collective, send and receive with
//!   its word count, under whatever span the caller has open.
//!
//! Both delegate `stats()`, so the solver's own `CommStats` ledger keeps
//! counting exactly what it counts without them.

use crate::spans;
use distsim::{CommError, CommStats, Communicator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delays every collective by `alpha + beta·words` (point-to-point
/// messages pass through untouched).
#[derive(Debug)]
pub struct LatencyComm {
    inner: Arc<dyn Communicator>,
    alpha: Duration,
    beta_per_word: Duration,
}

impl LatencyComm {
    pub fn wrap(
        inner: Arc<dyn Communicator>,
        alpha: Duration,
        beta_per_word: Duration,
    ) -> Arc<dyn Communicator> {
        Arc::new(Self {
            inner,
            alpha,
            beta_per_word,
        })
    }

    /// Spin, not sleep: a sleep would hand the core to the scheduler and
    /// add its wake-up jitter (tens of µs) to a 500 µs model.
    fn delay(&self, words: usize) {
        let _span = spans::open(INJECTED_DELAY, words as u64);
        let wait = self.alpha + self.beta_per_word * words as u32;
        let start = Instant::now();
        while start.elapsed() < wait {
            std::hint::spin_loop();
        }
    }
}

impl Communicator for LatencyComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.delay(buf.len());
        self.inner.allreduce_sum(buf);
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        self.delay(buf.len());
        self.inner.allreduce_sum_retry(buf);
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        self.delay(buf.len());
        self.inner.broadcast(root, buf);
    }

    fn allgather(&self, send: &[f64], recv: &mut [f64]) {
        self.delay(recv.len());
        self.inner.allgather(send, recv);
    }

    fn barrier(&self) {
        self.delay(0);
        self.inner.barrier();
    }

    fn send(&self, to: usize, data: &[f64]) {
        self.inner.send(to, data);
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        self.inner.recv(from)
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        self.inner.recv_timeout(from, timeout)
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}

/// Span names [`TimedComm`] records.  Those in [`COLLECTIVES`] are the
/// operations every rank enters together.
pub const ALLREDUCE: &str = "distsim.allreduce";
pub const ALLREDUCE_RETRY: &str = "distsim.allreduce_retry";
pub const BROADCAST: &str = "distsim.broadcast";
pub const ALLGATHER: &str = "distsim.allgather";
pub const BARRIER: &str = "distsim.barrier";
pub const SEND: &str = "distsim.send";
pub const RECV: &str = "distsim.recv";
pub const COLLECTIVES: [&str; 5] = [ALLREDUCE, ALLREDUCE_RETRY, BROADCAST, ALLGATHER, BARRIER];
/// Span of the [`LatencyComm`] spin inside a collective.
pub const INJECTED_DELAY: &str = "bench.injected_delay";

/// Records a span around every operation of the wrapped communicator.
#[derive(Debug)]
pub struct TimedComm {
    inner: Arc<dyn Communicator>,
}

impl TimedComm {
    pub fn wrap(inner: Arc<dyn Communicator>) -> Arc<dyn Communicator> {
        Arc::new(Self { inner })
    }
}

impl Communicator for TimedComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let _span = spans::open(ALLREDUCE, buf.len() as u64);
        self.inner.allreduce_sum(buf);
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        let _span = spans::open(ALLREDUCE_RETRY, buf.len() as u64);
        self.inner.allreduce_sum_retry(buf);
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        let _span = spans::open(BROADCAST, buf.len() as u64);
        self.inner.broadcast(root, buf);
    }

    fn allgather(&self, send: &[f64], recv: &mut [f64]) {
        let _span = spans::open(ALLGATHER, recv.len() as u64);
        self.inner.allgather(send, recv);
    }

    fn barrier(&self) {
        let _span = spans::open(BARRIER, 0);
        self.inner.barrier();
    }

    fn send(&self, to: usize, data: &[f64]) {
        let _span = spans::open(SEND, data.len() as u64);
        self.inner.send(to, data);
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        let _span = spans::open(RECV, 0);
        self.inner.recv(from)
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        let _span = spans::open(RECV, 0);
        self.inner.recv_timeout(from, timeout)
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}
