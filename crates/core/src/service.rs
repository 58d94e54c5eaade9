//! Asynchronous batched-solve front-end over the block solver.
//!
//! Many workloads (time steppers with several tracer fields, uncertainty
//! sweeps, multiple linearization points) issue independent solves against
//! the **same** operator.  Solved one at a time, each pays the full
//! per-cycle synchronization bill of s-step GMRES; batched into a block,
//! the bill is paid once — [`SStepGmres::solve_block`] keeps the per-cycle
//! reduce *count* independent of the number of right-hand sides.
//!
//! [`BatchedSolver`] is the queueing layer that turns the former call
//! pattern into the latter: callers [`submit`](BatchedSolver::submit)
//! individual right-hand sides and block on a [`SolveTicket`]; a worker
//! thread accumulates requests that arrive within a linger window (up to
//! [`BatchConfig::max_batch`]) into one block right-hand side, runs a
//! single block solve, and resolves every ticket with its own column of
//! the solution.  [`BatchedSolve::batch_reduces`] reports the all-reduce
//! count of the whole batch so callers can observe the amortization
//! (`bench --bin batched` pins it: a full batch of 4 costs the same
//! number of reduces as a batch of 1).
//!
//! The implementation is std-only (`Mutex` + `Condvar` + `mpsc`), matching
//! the zero-dependency discipline of the workspace.

use crate::precond::{Identity, Preconditioner};
use crate::solver::{GmresConfig, SStepGmres};
use dense::Matrix;
use distsim::{DistCsr, SerialComm};
use sparse::{block_row_partition, Csr};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Batching policy of a [`BatchedSolver`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum right-hand sides folded into one block solve.
    pub max_batch: usize,
    /// How long the worker lingers after the first request of a batch,
    /// waiting for more arrivals before solving.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            linger: Duration::from_millis(2),
        }
    }
}

/// One caller's share of a batched solve.
#[derive(Debug, Clone)]
pub struct BatchedSolve {
    /// The solution column for the submitted right-hand side.
    pub x: Vec<f64>,
    /// Whether this column's residual met the solver tolerance.
    pub converged: bool,
    /// Final true relative residual of this column.
    pub final_relres: f64,
    /// Per-cycle relative residual history of this column.
    pub relres_history: Vec<f64>,
    /// Number of right-hand sides the batch carried.
    pub batch_size: usize,
    /// All-reduce calls the **whole batch** performed — shared by every
    /// column, not multiplied by `batch_size`.
    pub batch_reduces: usize,
    /// Sequence number of the batch within this solver's lifetime.
    pub batch_id: usize,
    /// This request's column within the batch.
    pub column: usize,
}

/// Handle returned by [`BatchedSolver::submit`]; blocks until the batch
/// containing the request has been solved.
pub struct SolveTicket {
    rx: mpsc::Receiver<BatchedSolve>,
}

impl SolveTicket {
    /// Block until the batch resolves and return this request's column.
    pub fn wait(self) -> BatchedSolve {
        self.rx
            .recv()
            .expect("batched solver worker terminated before resolving the ticket")
    }
}

struct Request {
    b: Vec<f64>,
    tx: mpsc::Sender<BatchedSolve>,
}

#[derive(Default)]
struct Shared {
    pending: VecDeque<Request>,
    shutdown: bool,
    batches: usize,
    columns: usize,
}

/// Accumulates single right-hand-side solve requests against one operator
/// and serves them through block solves.  See the module docs.
pub struct BatchedSolver {
    shared: Arc<(Mutex<Shared>, Condvar)>,
    worker: Option<JoinHandle<()>>,
    n: usize,
}

impl BatchedSolver {
    /// Spawn a batched solver for `A·x = b` requests against `a`, solved
    /// with the given GMRES configuration, without preconditioning.
    pub fn new(a: Csr, config: GmresConfig, batch: BatchConfig) -> Self {
        Self::with_preconditioner(a, config, batch, Box::new(Identity))
    }

    /// [`new`](Self::new) with a right preconditioner applied to every
    /// batch.
    fn with_preconditioner(
        a: Csr,
        config: GmresConfig,
        batch: BatchConfig,
        precond: Box<dyn Preconditioner>,
    ) -> Self {
        assert!(batch.max_batch >= 1, "max_batch must be at least 1");
        let n = a.nrows();
        let shared = Arc::new((Mutex::new(Shared::default()), Condvar::new()));
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("batched-gmres".into())
            .spawn(move || worker_loop(worker_shared, a, config, batch, precond))
            .expect("spawn batched solver worker");
        Self {
            shared,
            worker: Some(worker),
            n,
        }
    }

    /// Enqueue one right-hand side.  Returns immediately; the returned
    /// ticket blocks until the batch containing it has been solved.
    pub fn submit(&self, b: Vec<f64>) -> SolveTicket {
        self.submit_all(vec![b]).pop().expect("one ticket per rhs")
    }

    /// Enqueue several right-hand sides **atomically**: all of them enter
    /// the queue under one lock, so (up to `max_batch`) they land in the
    /// same batch in submission order — the deterministic entry point the
    /// tests and benches use.
    pub fn submit_all(&self, bs: Vec<Vec<f64>>) -> Vec<SolveTicket> {
        assert!(!bs.is_empty(), "submit_all needs at least one rhs");
        let (lock, cvar) = &*self.shared;
        let mut tickets = Vec::with_capacity(bs.len());
        let mut state = lock.lock().expect("batched solver lock poisoned");
        assert!(!state.shutdown, "batched solver is shutting down");
        for b in bs {
            assert_eq!(b.len(), self.n, "rhs length must match the operator");
            let (tx, rx) = mpsc::channel();
            state.pending.push_back(Request { b, tx });
            tickets.push(SolveTicket { rx });
        }
        drop(state);
        cvar.notify_one();
        tickets
    }

    /// `(batches solved, total right-hand sides served)` so far.
    pub fn stats(&self) -> (usize, usize) {
        let state = self.shared.0.lock().expect("batched solver lock poisoned");
        (state.batches, state.columns)
    }
}

impl Drop for BatchedSolver {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.shared;
            let mut state = lock.lock().expect("batched solver lock poisoned");
            state.shutdown = true;
            cvar.notify_one();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    shared: Arc<(Mutex<Shared>, Condvar)>,
    a: Csr,
    config: GmresConfig,
    batch: BatchConfig,
    precond: Box<dyn Preconditioner>,
) {
    // The distributed operator is assembled once, not per batch.
    let comm = SerialComm::new();
    let part = block_row_partition(a.nrows(), 1);
    let dist = DistCsr::from_global(comm, &a, &part);
    let solver = SStepGmres::new(config);
    let n = a.nrows();
    let (lock, cvar) = &*shared;
    let mut batch_id = 0usize;
    loop {
        let requests = {
            let mut state = lock.lock().expect("batched solver lock poisoned");
            // Wait for work (or shutdown with a drained queue).
            while state.pending.is_empty() && !state.shutdown {
                state = cvar.wait(state).expect("batched solver lock poisoned");
            }
            if state.pending.is_empty() {
                return; // shutdown
            }
            // Linger for co-batchable arrivals unless already full or
            // shutting down (drain immediately on shutdown).
            let deadline = std::time::Instant::now() + batch.linger;
            while state.pending.len() < batch.max_batch && !state.shutdown {
                let now = std::time::Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (next, timeout) = cvar
                    .wait_timeout(state, remaining)
                    .expect("batched solver lock poisoned");
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
            let take = state.pending.len().min(batch.max_batch);
            state.pending.drain(..take).collect::<Vec<_>>()
        };
        let k = requests.len();
        let mut b = Matrix::zeros(n, k);
        for (j, req) in requests.iter().enumerate() {
            b.col_mut(j).copy_from_slice(&req.b);
        }
        let mut x = Matrix::zeros(n, k);
        let result = solver.solve_block(&dist, precond.as_ref(), &b, &mut x);
        {
            // Account the batch before resolving tickets so stats() is
            // current by the time any caller observes its result.
            let mut state = lock.lock().expect("batched solver lock poisoned");
            state.batches += 1;
            state.columns += k;
        }
        for (j, req) in requests.iter().enumerate() {
            // A dropped ticket (caller gave up) is not an error.
            let _ = req.tx.send(BatchedSolve {
                x: x.col(j).to_vec(),
                converged: result.col_converged[j],
                final_relres: result.final_relres[j],
                relres_history: result.relres_history[j].clone(),
                batch_size: k,
                batch_reduces: result.comm_total.allreduces,
                batch_id,
                column: j,
            });
        }
        batch_id += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::laplace2d_9pt;

    fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
            .collect()
    }

    fn config() -> GmresConfig {
        GmresConfig {
            restart: 24,
            step_size: 4,
            tol: 1e-8,
            ..GmresConfig::default()
        }
    }

    #[test]
    fn batched_submissions_share_one_solve() {
        let a = laplace2d_9pt(14, 14);
        let n = a.nrows();
        let solver = BatchedSolver::new(
            a.clone(),
            config(),
            BatchConfig {
                max_batch: 4,
                linger: Duration::from_millis(50),
            },
        );
        let tickets = solver.submit_all((0..4).map(|j| rhs_for(n, j)).collect());
        let results: Vec<BatchedSolve> = tickets.into_iter().map(SolveTicket::wait).collect();
        // One batch, four columns, identical shared reduce bill.
        assert!(results.iter().all(|r| r.batch_id == results[0].batch_id));
        assert!(results.iter().all(|r| r.batch_size == 4));
        assert!(results
            .iter()
            .all(|r| r.batch_reduces == results[0].batch_reduces));
        for (j, r) in results.iter().enumerate() {
            assert_eq!(r.column, j);
            assert!(r.converged, "column {j}");
            let ax = a.spmv_alloc(&r.x);
            let b = rhs_for(n, j);
            let res: f64 = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(res / bn < 1e-7, "column {j}: {}", res / bn);
        }
        assert_eq!(solver.stats(), (1, 4));
    }

    #[test]
    fn single_submission_matches_the_direct_solve() {
        let a = laplace2d_9pt(12, 12);
        let n = a.nrows();
        let b = rhs_for(n, 0);
        let solver = BatchedSolver::new(
            a.clone(),
            config(),
            BatchConfig {
                max_batch: 4,
                linger: Duration::from_millis(1),
            },
        );
        let got = solver.submit(b.clone()).wait();
        let (want_x, want) = SStepGmres::new(config()).solve_serial(&a, &b);
        assert_eq!(got.x, want_x, "bitwise identical to the scalar solve");
        assert_eq!(got.relres_history, want.relres_history[0]);
        assert_eq!(got.batch_size, 1);
    }

    #[test]
    fn batches_larger_than_max_batch_split() {
        let a = laplace2d_9pt(10, 10);
        let n = a.nrows();
        let solver = BatchedSolver::new(
            a,
            config(),
            BatchConfig {
                max_batch: 2,
                linger: Duration::from_millis(20),
            },
        );
        let tickets = solver.submit_all((0..5).map(|j| rhs_for(n, j)).collect());
        let results: Vec<BatchedSolve> = tickets.into_iter().map(SolveTicket::wait).collect();
        assert!(results.iter().all(|r| r.converged));
        assert!(results.iter().all(|r| r.batch_size <= 2));
        let (batches, columns) = solver.stats();
        assert_eq!(columns, 5);
        assert!(
            batches >= 3,
            "five columns at max_batch 2 need >= 3 batches"
        );
    }
}
