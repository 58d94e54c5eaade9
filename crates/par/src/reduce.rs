//! Parallel reductions.
//!
//! All reductions use the deterministic chunking from [`crate::chunk_ranges`]
//! and combine the per-chunk partial results in chunk order, so the result of
//! a floating-point reduction does not depend on thread scheduling (it may
//! still differ from a purely serial left-to-right sum because the partials
//! are combined tree-style; that difference is within the usual rounding
//! bounds and is deterministic run to run).
//!
//! One code path computes per-chunk partials on the pool and folds them in
//! chunk order: [`parallel_reduce_chunks`] (slices) and
//! [`parallel_reduce_ranges_bytes`] (the blocked `dense` kernels'
//! Gram/GEMM accumulations) both run it.

use crate::chunk::chunk_ranges;
use crate::config::{num_threads_for, num_threads_for_bytes};
use crate::pool::{run_chunks, SendPtr};

/// Parallel reduction over contiguous index sub-ranges of `0..len`, with
/// the chunk count derived from cache geometry.
///
/// `map_range(start, end)` produces one partial result per chunk; the
/// partials are combined with `combine` in chunk order starting from
/// `identity`.  This is the reduction primitive the row-blocked matrix
/// kernels use: the body indexes shared column-major storage by global row
/// range rather than receiving a flat slice.  `bytes_per_item` is the
/// number of bytes one index of `0..len` traverses (for a row-blocked panel
/// kernel, 8 bytes per column touched), and each chunk covers at least the
/// byte grain documented on [`num_threads_for_bytes`].  Deterministic for a fixed
/// `(len, bytes_per_item, max_threads)` triple.
pub fn parallel_reduce_ranges_bytes<T, M, C>(
    len: usize,
    bytes_per_item: usize,
    identity: T,
    map_range: M,
    combine: C,
) -> T
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    reduce_ranges_nthreads(
        len,
        num_threads_for_bytes(len, bytes_per_item),
        identity,
        map_range,
        combine,
    )
}

fn reduce_ranges_nthreads<T, M, C>(
    len: usize,
    nthreads: usize,
    identity: T,
    map_range: M,
    combine: C,
) -> T
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if nthreads <= 1 {
        if len == 0 {
            return identity;
        }
        return combine(identity, map_range(0, len));
    }
    let ranges = chunk_ranges(len, nthreads);
    let mut partials: Vec<Option<T>> = Vec::with_capacity(ranges.len());
    partials.resize_with(ranges.len(), || None);
    let slots = SendPtr(partials.as_mut_ptr());
    run_chunks(ranges.len(), &|i| {
        let r = ranges[i];
        // SAFETY: each chunk index writes exactly its own slot.
        let slot = unsafe { &mut *slots.get().add(i) };
        *slot = Some(map_range(r.start, r.end));
    });
    let mut acc = identity;
    for p in partials {
        acc = combine(acc, p.expect("parallel reduce: missing chunk partial"));
    }
    acc
}

/// Parallel reduction over contiguous chunks of a read-only slice.
///
/// `map_chunk(chunk, offset)` produces one partial result per chunk; the
/// partials are combined in chunk order.
pub fn parallel_reduce_chunks<T, U, M, C>(data: &[U], identity: T, map_chunk: M, combine: C) -> T
where
    T: Send,
    U: Sync,
    M: Fn(&[U], usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let len = data.len();
    reduce_ranges_nthreads(
        len,
        num_threads_for(len),
        identity,
        |start, end| map_chunk(&data[start..end], start),
        combine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunked_sum(data: &[f64]) -> f64 {
        parallel_reduce_chunks(
            data,
            0.0,
            |chunk, _| chunk.iter().sum::<f64>(),
            |a, b| a + b,
        )
    }

    #[test]
    fn reduce_chunks_matches_iter_sum() {
        let data: Vec<f64> = (0..50_000).map(|i| (i % 17) as f64 * 0.25).collect();
        let expect: f64 = data.iter().sum();
        let got = chunked_sum(&data);
        assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn reduce_chunks_offsets_are_correct() {
        let data = vec![1.0f64; 10_000];
        // Sum of global indices computed via offsets must equal n*(n-1)/2.
        let got = parallel_reduce_chunks(
            &data,
            0.0f64,
            |chunk, offset| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, _)| (offset + i) as f64)
                    .sum::<f64>()
            },
            |a, b| a + b,
        );
        let n = 10_000f64;
        assert_eq!(got, n * (n - 1.0) / 2.0);
    }

    #[test]
    fn reduce_ranges_covers_whole_range_in_order() {
        // Collect the visited ranges; combined in chunk order they must
        // tile 0..len exactly.
        let tiles = parallel_reduce_ranges_bytes(
            12_345,
            8,
            Vec::new(),
            |start, end| vec![(start, end)],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(tiles.first().unwrap().0, 0);
        assert_eq!(tiles.last().unwrap().1, 12_345);
        for w in tiles.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be adjacent and ordered");
        }
    }

    #[test]
    fn reduce_ranges_empty_is_identity() {
        let r =
            parallel_reduce_ranges_bytes(0, 8, 42i32, |_, _| panic!("must not run"), |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn parallel_sum_is_deterministic() {
        let data: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 * 1e-3)
            .collect();
        let a = chunked_sum(&data);
        let b = chunked_sum(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn max_reduction_works() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 31) % 997) as f64).collect();
        let expect = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let got = parallel_reduce_chunks(
            &data,
            f64::NEG_INFINITY,
            |chunk, _| chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            f64::max,
        );
        assert_eq!(got, expect);
    }
}
