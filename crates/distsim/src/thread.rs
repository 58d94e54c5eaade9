//! Thread-backed rank groups: [`run_ranks`] and [`ThreadComm`].
//!
//! Each simulated rank is one scoped thread holding an
//! `Arc<dyn Communicator>` backed by a shared collective-state block.
//! Collectives are barrier-synchronized: every rank deposits its
//! contribution, the last arrival combines them **in rank order** (so a
//! given rank count is bitwise deterministic across runs), and no rank can
//! start the next collective before every rank has picked up the current
//! result.  Point-to-point messages go through FIFO mailboxes, one queue
//! per (sender, receiver) pair, which is exactly the ordering guarantee the
//! halo exchange of [`DistCsr`](crate::DistCsr) needs.

use crate::comm::{default_recv_timeout, CommError, Communicator};
use crate::stats::CommStats;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which collective a rank is participating in; used to assert that every
/// rank of the group issues the same sequence of collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollKind {
    AllreduceSum,
    Broadcast { root: usize },
    Allgather,
    Barrier,
}

/// State of the collective rendezvous shared by all ranks of a group.
#[derive(Debug)]
struct CollState {
    /// Completed collective rounds (generation counter).
    round: u64,
    /// Ranks that have deposited a contribution this round.
    arrived: usize,
    /// Ranks that still have to pick up the result of the finished round.
    departed: usize,
    /// The collective being executed this round.
    kind: Option<CollKind>,
    /// Per-rank contributions, indexed by rank.
    contributions: Vec<Vec<f64>>,
    /// Combined result of the finished round.
    result: Vec<f64>,
}

/// One receiver's mailboxes: a FIFO queue per sender.
#[derive(Debug)]
struct Mailbox {
    queues: Mutex<Vec<VecDeque<Vec<f64>>>>,
    cvar: Condvar,
}

/// State shared by every rank of one [`run_ranks`] group.
#[derive(Debug)]
pub(crate) struct Shared {
    nranks: usize,
    coll: Mutex<CollState>,
    coll_cvar: Condvar,
    mailboxes: Vec<Mailbox>,
}

impl Shared {
    fn new(nranks: usize) -> Self {
        Self {
            nranks,
            coll: Mutex::new(CollState {
                round: 0,
                arrived: 0,
                departed: 0,
                kind: None,
                contributions: vec![Vec::new(); nranks],
                result: Vec::new(),
            }),
            coll_cvar: Condvar::new(),
            mailboxes: (0..nranks)
                .map(|_| Mailbox {
                    queues: Mutex::new(vec![VecDeque::new(); nranks]),
                    cvar: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Combine the contributions of a finished round in rank order.
    fn combine(kind: CollKind, contributions: &[Vec<f64>]) -> Vec<f64> {
        match kind {
            CollKind::AllreduceSum => {
                let len = contributions[0].len();
                let mut result = vec![0.0; len];
                for c in contributions {
                    assert_eq!(c.len(), len, "allreduce_sum: buffer length mismatch");
                    for (acc, x) in result.iter_mut().zip(c) {
                        *acc += x;
                    }
                }
                result
            }
            CollKind::Broadcast { root } => contributions[root].clone(),
            CollKind::Allgather => {
                let len = contributions[0].len();
                let mut result = Vec::with_capacity(len * contributions.len());
                for c in contributions {
                    assert_eq!(c.len(), len, "allgather: contribution length mismatch");
                    result.extend_from_slice(c);
                }
                result
            }
            CollKind::Barrier => Vec::new(),
        }
    }

    /// Execute one collective for `rank`; blocks until every rank of the
    /// group has participated, then writes the combined result into `out`.
    fn collective(&self, rank: usize, kind: CollKind, contribution: &[f64], out: &mut [f64]) {
        let mut st = self.coll.lock().expect("collective state poisoned");
        // Wait for every rank to have picked up the previous round's result.
        while st.departed != 0 {
            st = self.coll_cvar.wait(st).expect("collective state poisoned");
        }
        if st.arrived == 0 {
            st.kind = Some(kind);
        } else {
            assert_eq!(
                st.kind,
                Some(kind),
                "rank {rank} issued a different collective than the rest of the group"
            );
        }
        st.contributions[rank].clear();
        st.contributions[rank].extend_from_slice(contribution);
        st.arrived += 1;
        let my_round = st.round;
        if st.arrived == self.nranks {
            st.result = Self::combine(kind, &st.contributions);
            st.departed = self.nranks;
            st.arrived = 0;
            st.round += 1;
            self.coll_cvar.notify_all();
        } else {
            while st.round == my_round {
                st = self.coll_cvar.wait(st).expect("collective state poisoned");
            }
        }
        out.copy_from_slice(&st.result[..out.len()]);
        st.departed -= 1;
        if st.departed == 0 {
            self.coll_cvar.notify_all();
        }
    }

    fn post(&self, from: usize, to: usize, data: Vec<f64>) {
        let mailbox = &self.mailboxes[to];
        let mut queues = mailbox.queues.lock().expect("mailbox poisoned");
        queues[from].push_back(data);
        mailbox.cvar.notify_all();
    }

    /// Take the next message from `from`'s queue, waiting at most
    /// `timeout`; `Err` carries the who/whom/how-long diagnosis.
    fn take_timeout(
        &self,
        from: usize,
        me: usize,
        timeout: Duration,
    ) -> Result<Vec<f64>, CommError> {
        let deadline = Instant::now() + timeout;
        let mailbox = &self.mailboxes[me];
        let mut queues = mailbox.queues.lock().expect("mailbox poisoned");
        loop {
            if let Some(msg) = queues[from].pop_front() {
                return Ok(msg);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::RecvTimeout {
                    rank: me,
                    from,
                    waited: timeout,
                });
            }
            let (guard, _) = mailbox
                .cvar
                .wait_timeout(queues, deadline - now)
                .expect("mailbox poisoned");
            queues = guard;
        }
    }
}

/// One rank's endpoint of a thread-backed rank group.
#[derive(Debug)]
pub struct ThreadComm {
    rank: usize,
    shared: Arc<Shared>,
    stats: CommStats,
    /// Patience of a plain `recv` (from `DISTSIM_RECV_TIMEOUT_MS`, read
    /// once at construction); a stalled peer surfaces as a diagnosable
    /// panic instead of a hung run.
    recv_timeout: Duration,
}

impl ThreadComm {
    fn new(rank: usize, shared: Arc<Shared>) -> Self {
        Self {
            rank,
            shared,
            stats: CommStats::new(),
            recv_timeout: default_recv_timeout(),
        }
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.nranks
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let _span = trace::span("comm", "allreduce", &[("words", buf.len() as u64)]);
        self.stats.record_allreduce(buf.len());
        let contribution = buf.to_vec();
        self.shared
            .collective(self.rank, CollKind::AllreduceSum, &contribution, buf);
    }

    fn allreduce_sum_retry(&self, buf: &mut [f64]) {
        let _span = trace::span("comm", "allreduce_retry", &[("words", buf.len() as u64)]);
        self.stats.record_allreduce_retry(buf.len());
        let contribution = buf.to_vec();
        self.shared
            .collective(self.rank, CollKind::AllreduceSum, &contribution, buf);
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        assert!(root < self.size(), "broadcast root {root} out of range");
        let _span = trace::span("comm", "broadcast", &[("words", buf.len() as u64)]);
        self.stats.record_broadcast(buf.len());
        let contribution = buf.to_vec();
        self.shared
            .collective(self.rank, CollKind::Broadcast { root }, &contribution, buf);
    }

    fn allgather(&self, send: &[f64], recv: &mut [f64]) {
        assert_eq!(
            recv.len(),
            send.len() * self.size(),
            "allgather: recv must hold one contribution per rank"
        );
        let _span = trace::span("comm", "allgather", &[("words", send.len() as u64)]);
        self.stats.record_allgather(send.len());
        self.shared
            .collective(self.rank, CollKind::Allgather, send, recv);
    }

    fn barrier(&self) {
        let _span = trace::span("comm", "barrier", &[]);
        self.stats.record_barrier();
        self.shared
            .collective(self.rank, CollKind::Barrier, &[], &mut []);
    }

    fn send(&self, to: usize, data: &[f64]) {
        assert!(to < self.size(), "send: rank {to} out of range");
        assert_ne!(to, self.rank, "send: cannot message self");
        let _span = trace::span(
            "comm",
            "send",
            &[("peer", to as u64), ("words", data.len() as u64)],
        );
        self.stats.record_p2p(data.len());
        self.shared.post(self.rank, to, data.to_vec());
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        match self.recv_timeout(from, self.recv_timeout) {
            Ok(msg) => msg,
            Err(e) => panic!("{e}"),
        }
    }

    fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Vec<f64>, CommError> {
        assert!(from < self.size(), "recv: rank {from} out of range");
        assert_ne!(from, self.rank, "recv: cannot message self");
        let _span = trace::span("comm", "recv", &[("peer", from as u64)]);
        self.shared.take_timeout(from, self.rank, timeout)
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

/// Run `f` once per rank on `nranks` scoped threads, each with its own
/// [`ThreadComm`] endpoint of a fresh group, and return the per-rank
/// results in rank order.
///
/// The closure may capture references to the caller's data (the group runs
/// inside `std::thread::scope`).  A panic on any rank propagates to the
/// caller after the scope unwinds.
pub fn run_ranks<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Arc<dyn Communicator>) -> T + Send + Sync,
{
    assert!(nranks >= 1, "need at least one rank");
    let shared = Arc::new(Shared::new(nranks));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let f = &f;
                scope.spawn(move || {
                    if trace::enabled() {
                        trace::set_thread_label(&format!("rank {rank}"));
                    }
                    let comm: Arc<dyn Communicator> = Arc::new(ThreadComm::new(rank, shared));
                    f(comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sums_across_ranks() {
        for nranks in [1usize, 2, 4, 7] {
            let results = run_ranks(nranks, |comm| {
                let mut buf = vec![comm.rank() as f64 + 1.0, 10.0];
                comm.allreduce_sum(&mut buf);
                buf
            });
            let expect0 = (nranks * (nranks + 1) / 2) as f64;
            for r in &results {
                assert_eq!(r[0], expect0);
                assert_eq!(r[1], 10.0 * nranks as f64);
            }
        }
    }

    #[test]
    fn allreduce_is_deterministic_in_rank_order() {
        // Values chosen so floating-point summation order matters; the
        // rank-ordered combine must give the same bits on every run.
        let run = || {
            run_ranks(3, |comm| {
                let vals = [1.0e16, 1.0, -1.0e16];
                let mut buf = [vals[comm.rank()]];
                comm.allreduce_sum(&mut buf);
                buf[0]
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x == a[0]));
    }

    #[test]
    fn broadcast_takes_roots_value() {
        let results = run_ranks(4, |comm| {
            let mut buf = vec![comm.rank() as f64; 3];
            comm.broadcast(2, &mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let results = run_ranks(3, |comm| {
            let send = [comm.rank() as f64, -(comm.rank() as f64)];
            let mut recv = vec![0.0; 6];
            comm.allgather(&send, &mut recv);
            recv
        });
        for r in results {
            assert_eq!(r, vec![0.0, -0.0, 1.0, -1.0, 2.0, -2.0]);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_interleave() {
        // Stress the round draining logic: many collectives in a row with
        // rank-dependent timing.
        let results = run_ranks(4, |comm| {
            let mut acc = 0.0;
            for i in 0..200 {
                if (i + comm.rank()) % 3 == 0 {
                    std::thread::yield_now();
                }
                let mut buf = [comm.rank() as f64 + i as f64];
                comm.allreduce_sum(&mut buf);
                acc += buf[0];
            }
            acc
        });
        assert!(results.iter().all(|&x| x == results[0]));
    }

    #[test]
    fn p2p_is_fifo_per_pair() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, &[1.0]);
                comm.send(1, &[2.0, 3.0]);
                Vec::new()
            } else {
                let first = comm.recv(0);
                let second = comm.recv(0);
                vec![first, second]
            }
        });
        assert_eq!(results[1], vec![vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn stats_are_per_rank() {
        let counts = run_ranks(3, |comm| {
            let mut buf = [comm.rank() as f64];
            comm.allreduce_sum(&mut buf);
            if comm.rank() == 0 {
                comm.send(1, &[5.0]);
            }
            if comm.rank() == 1 {
                comm.recv(0);
            }
            comm.barrier();
            comm.stats().snapshot()
        });
        for (rank, s) in counts.iter().enumerate() {
            assert_eq!(s.allreduces, 1);
            assert_eq!(s.barriers, 1);
            assert_eq!(s.p2p_messages, usize::from(rank == 0));
        }
    }

    #[test]
    fn recv_timeout_surfaces_a_stall_as_a_diagnosable_error() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 1 {
                // Rank 0 never sends: the bounded receive must give up and
                // say who was waiting on whom.
                let err = comm
                    .recv_timeout(0, Duration::from_millis(50))
                    .expect_err("no message is coming");
                let msg = err.to_string();
                assert!(msg.contains("rank 1"), "missing waiter context: {msg}");
                assert!(msg.contains("from rank 0"), "missing peer context: {msg}");
                true
            } else {
                false
            }
        });
        assert_eq!(results, vec![false, true]);
    }

    #[test]
    fn recv_timeout_returns_a_message_that_arrives_in_time() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(1, &[7.5]);
                Vec::new()
            } else {
                comm.recv_timeout(0, Duration::from_secs(5))
                    .expect("message arrives well within the bound")
            }
        });
        assert_eq!(results[1], vec![7.5]);
    }

    #[test]
    fn allreduce_retry_counts_separately_and_still_reduces() {
        let results = run_ranks(3, |comm| {
            let mut buf = [comm.rank() as f64 + 1.0];
            comm.allreduce_sum(&mut buf);
            let first = buf[0];
            let mut again = [comm.rank() as f64 + 1.0];
            comm.allreduce_sum_retry(&mut again);
            (first, again[0], comm.stats().snapshot())
        });
        for (first, retried, s) in &results {
            assert_eq!(*first, 6.0);
            assert_eq!(*retried, 6.0, "a retry is a real re-execution");
            assert_eq!(s.allreduces, 1, "the audit count must not inflate");
            assert_eq!(s.allreduce_retries, 1);
            assert_eq!(s.allreduce_retry_words, 1);
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rank_panic_propagates() {
        run_ranks(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 returns immediately; no collective is pending, so the
            // scope unwinds cleanly.
        });
    }
}
