//! # parkit — lightweight data-parallel primitives
//!
//! This crate provides the minimal data-parallel substrate used by every
//! compute kernel in the two-stage GMRES reproduction: chunked parallel
//! `for` loops over index ranges and mutable slices, and chunk-ordered
//! parallel reductions.  It is deliberately small — the kernels in this
//! workspace only need "split the rows into `p` contiguous chunks and run
//! them on `p` threads" style parallelism.
//!
//! Design points (following the HPC-Rust guidance used for this project):
//!
//! * **Persistent worker pool.**  Workers are spawned once (lazily, on the
//!   first parallel call) and parallel regions are dispatched to them with
//!   a generation-counted protocol (see the `pool` module) — inside the
//!   GMRES inner loop a kernel launch costs a few atomic stores plus
//!   targeted `unpark`s of exactly the participating lanes, instead of an
//!   OS thread spawn or a full-pool broadcast.  Chunks are pre-assigned to
//!   lanes in deterministic contiguous ownership bands (with stealing for
//!   balance), so the same lane touches the same row ranges across
//!   successive kernel calls and panels stay hot in its core's cache.
//!   A nested or concurrent submission (e.g. from simulated `distsim`
//!   ranks) that finds the pool busy runs its chunks inline on the
//!   submitting thread, so any thread may open a parallel region at any
//!   time and there is one dispatch path, not two.
//! * **Deterministic chunking.**  A given `(len, nthreads)` pair always
//!   produces the same chunk boundaries, and reductions combine per-chunk
//!   partials in chunk order, so results do not depend on which pool lane
//!   ran which chunk and runs are reproducible.  Band ownership and
//!   stealing move *execution*, never chunk identity.
//! * **Configurable thread count.**  The number of chunks a region is split
//!   into defaults to the available parallelism and can be overridden with
//!   the `TWOSTAGE_NUM_THREADS` environment variable or programmatically
//!   via [`set_num_threads`]; the pool itself is sized once at first use
//!   ([`pool_lanes`] reports it).
//!
//! ```
//! use parkit::{parallel_for_chunks, parallel_reduce_chunks};
//!
//! let mut v = vec![0.0f64; 1000];
//! parallel_for_chunks(&mut v, |chunk, offset| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (offset + i) as f64;
//!     }
//! });
//! let sum =
//!     parallel_reduce_chunks(&v, 0.0, |chunk, _| chunk.iter().sum::<f64>(), |a, b| a + b);
//! assert_eq!(sum, v.iter().sum::<f64>());
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

mod chunk;
mod config;
mod parallel;
mod pool;
mod reduce;

pub use chunk::{chunk_ranges, ChunkRange};
pub use config::{max_threads, num_threads_for, num_threads_for_bytes, set_num_threads};
pub use parallel::{
    parallel_for_chunks, parallel_for_range, parallel_for_range_bytes, parallel_zip_chunks,
};
pub use pool::pool_lanes;
pub use reduce::{parallel_reduce_chunks, parallel_reduce_ranges_bytes};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut v = vec![0.0f64; 1000];
        parallel_for_chunks(&mut v, |chunk, offset| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as f64;
            }
        });
        let sum =
            parallel_reduce_chunks(&v, 0.0, |chunk, _| chunk.iter().sum::<f64>(), |a, b| a + b);
        assert_eq!(sum, v.iter().sum::<f64>());
    }
}
