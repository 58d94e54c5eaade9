//! # parkit — the serial names the time-to-solution benchmark compiles against
//!
//! Each simulated rank (`distsim::run_ranks`) runs its kernels on its own
//! thread, and that is the only parallelism in the workspace.  These three
//! functions keep the benchmark under `benchmark/` building; nothing else
//! depends on this crate.
//!
//! ```
//! parkit::set_num_threads(4); // does nothing
//! assert_eq!(parkit::pool_lanes(), 1);
//! let mut seen = Vec::new();
//! parkit::parallel_for_range(10, |lo, hi| seen.push((lo, hi)));
//! assert_eq!(seen, [(0, 10)]);
//! ```

#![forbid(unsafe_code)]

/// Does nothing: there is no pool to size.
pub fn set_num_threads(_n: usize) {}

/// Calls `body(0, len)` once, on the calling thread.
pub fn parallel_for_range<F>(len: usize, mut body: F)
where
    F: FnMut(usize, usize),
{
    body(0, len);
}

/// Always 1: every kernel runs on the thread that calls it.
pub fn pool_lanes() -> usize {
    1
}
