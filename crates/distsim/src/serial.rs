//! The zero-cost single-rank communicator.

use crate::comm::Communicator;
use crate::stats::CommStats;
use std::sync::Arc;

/// A communicator over a group of exactly one rank.
///
/// All collectives are data-movement no-ops, but they are still recorded in
/// [`CommStats`], so a serial run exhibits exactly the reduction structure
/// (and counts) of a distributed one — the property the reduction-count
/// tests rely on.
#[derive(Debug, Default)]
pub struct SerialComm {
    stats: CommStats,
}

impl SerialComm {
    /// Create a single-rank communicator, ready to be passed to
    /// [`DistMultiVector`](crate::DistMultiVector) and
    /// [`DistCsr`](crate::DistCsr) constructors.
    #[allow(clippy::new_ret_no_self)] // the API trades in Arc<dyn Communicator>
    pub fn new() -> Arc<dyn Communicator> {
        Arc::new(SerialComm {
            stats: CommStats::new(),
        })
    }
}

impl Communicator for SerialComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let _span = trace::span("comm", "allreduce", &[("words", buf.len() as u64)]);
        self.stats.record_allreduce(buf.len());
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        let _span = trace::span("comm", "allreduce_retry", &[("words", buf.len() as u64)]);
        self.stats.record_allreduce_retry(buf.len());
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        assert_eq!(root, 0, "serial communicator has only rank 0");
        let _span = trace::span("comm", "broadcast", &[("words", buf.len() as u64)]);
        self.stats.record_broadcast(buf.len());
    }

    fn allgather(&self, send: &[f64], recv: &mut [f64]) {
        assert_eq!(
            recv.len(),
            send.len(),
            "serial allgather: recv must hold exactly one contribution"
        );
        let _span = trace::span("comm", "allgather", &[("words", send.len() as u64)]);
        recv.copy_from_slice(send);
        self.stats.record_allgather(send.len());
    }

    fn barrier(&self) {
        let _span = trace::span("comm", "barrier", &[]);
        self.stats.record_barrier();
    }

    fn send(&self, to: usize, _data: &[f64]) {
        panic!("serial communicator has no peer rank {to} to send to");
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        panic!("serial communicator has no peer rank {from} to receive from");
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_are_counted_noops() {
        let comm = SerialComm::new();
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.size(), 1);
        let mut buf = [1.0, 2.0, 3.0];
        comm.allreduce_sum(&mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
        let mut one = [4.5];
        comm.allreduce_sum(&mut one);
        assert_eq!(one, [4.5]);
        comm.broadcast(0, &mut buf);
        let mut out = [0.0; 3];
        comm.allgather(&buf, &mut out);
        assert_eq!(out, buf);
        comm.barrier();
        let s = comm.stats().snapshot();
        assert_eq!(s.allreduces, 2);
        assert_eq!(s.allreduce_words, 4);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.allgathers, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.p2p_messages, 0);
    }

    #[test]
    #[should_panic(expected = "no peer rank")]
    fn p2p_on_serial_comm_panics() {
        SerialComm::new().send(1, &[1.0]);
    }
}
