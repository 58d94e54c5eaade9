//! Helpers shared by the integration-test binaries (`mod common;` in each).
#![allow(dead_code)] // every binary uses a subset

use sparse::Csr;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// File-level lock for process-global state.  `parkit`'s thread-count
/// override and the `trace` enable flag are process globals and the tests of
/// one binary run on parallel threads: every test that runs a solve holds
/// this lock, so that one test's `set_num_threads` sweep (or trace toggle)
/// cannot change the lane count — and with it the reduction order — between
/// two solves another test compares.  Dropping the guard restores the
/// automatic thread count, also when an assertion unwinds.
pub fn thread_lock() -> ThreadLock {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ThreadLock(guard)
}

/// Guard of [`thread_lock`].
pub struct ThreadLock(MutexGuard<'static, ()>);

impl Drop for ThreadLock {
    fn drop(&mut self) {
        parkit::set_num_threads(0);
    }
}

/// Rank counts to sweep: `defaults` plus any from `DISTSIM_TEST_RANKS`
/// (comma-separated), the hook the CI test matrix drives.
pub fn ranks_under_test(defaults: &[usize]) -> Vec<usize> {
    let mut ranks = defaults.to_vec();
    if let Ok(spec) = std::env::var("DISTSIM_TEST_RANKS") {
        for tok in spec.split(',') {
            if let Ok(r) = tok.trim().parse::<usize>() {
                if r >= 1 && !ranks.contains(&r) {
                    ranks.push(r);
                }
            }
        }
    }
    ranks
}

/// Right-hand side whose solution is the vector of all ones (as the paper
/// does).
pub fn rhs_ones(a: &Csr) -> Vec<f64> {
    a.spmv_alloc(&vec![1.0; a.nrows()])
}
