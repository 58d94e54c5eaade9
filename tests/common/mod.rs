//! Helpers shared by the integration-test binaries (`mod common;` in each).
#![allow(dead_code)] // every binary uses a subset

pub mod bits;

use sparse::Csr;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// File-level lock for the `trace` enable flag, a process global: the
/// tests of one binary run on parallel threads, so every test that toggles
/// tracing or reads what it recorded holds this lock.
pub fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
