//! Parallel `for` loops over mutable slices and index ranges.
//!
//! All loops dispatch through the persistent worker pool in
//! [`crate::pool`]: the data is split with the deterministic
//! [`crate::chunk_ranges`] and each chunk index is claimed by one pool lane.
//! Which *thread* runs a chunk is dynamic; *what* a chunk computes is fixed
//! by its index, so results are independent of scheduling.

use crate::chunk::chunk_ranges;
use crate::config::{num_threads_for, num_threads_for_bytes};
use crate::pool::{run_chunks, SendPtr};

/// Run `body(chunk, offset)` over contiguous chunks of `data` in parallel.
///
/// `offset` is the index of the first element of `chunk` within `data`, so
/// bodies can compute global indices.  The chunking is deterministic (see
/// [`crate::chunk_ranges`]) and the call returns once every chunk has been
/// processed.
pub fn parallel_for_chunks<T, F>(data: &mut [T], body: F)
where
    T: Send,
    F: Fn(&mut [T], usize) + Sync,
{
    let len = data.len();
    let nthreads = num_threads_for(len);
    if nthreads <= 1 {
        body(data, 0);
        return;
    }
    let ranges = chunk_ranges(len, nthreads);
    let base = SendPtr(data.as_mut_ptr());
    run_chunks(ranges.len(), &|i| {
        let r = ranges[i];
        // SAFETY: chunk ranges are disjoint and within `data`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        body(chunk, r.start);
    });
}

/// Run `body(start, end)` over contiguous sub-ranges of `0..len` in parallel.
///
/// Useful when the body indexes several shared read-only arrays rather than
/// a single mutable slice (e.g. SpMV reading the matrix and writing disjoint
/// rows of the output through raw chunking done by the caller).
pub fn parallel_for_range<F>(len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    for_range_nthreads(len, num_threads_for(len), body)
}

/// [`parallel_for_range`] with the chunk count derived from cache geometry
/// (`bytes_per_item` = bytes one index traverses; see
/// [`num_threads_for_bytes`]).  Used by the row-blocked `dense` kernels so
/// chunk sizes track the memory actually streamed rather than the lane
/// count.
pub fn parallel_for_range_bytes<F>(len: usize, bytes_per_item: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    for_range_nthreads(len, num_threads_for_bytes(len, bytes_per_item), body)
}

fn for_range_nthreads<F>(len: usize, nthreads: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if nthreads <= 1 {
        if len > 0 {
            body(0, len);
        }
        return;
    }
    let ranges = chunk_ranges(len, nthreads);
    run_chunks(ranges.len(), &|i| {
        let r = ranges[i];
        body(r.start, r.end);
    });
}

/// Run `body(out_chunk, in_chunk, offset)` over aligned chunks of an output
/// and an input slice of equal length.
///
/// Panics if the two slices have different lengths.
pub fn parallel_zip_chunks<T, U, F>(out: &mut [T], input: &[U], body: F)
where
    T: Send,
    U: Sync,
    F: Fn(&mut [T], &[U], usize) + Sync,
{
    assert_eq!(
        out.len(),
        input.len(),
        "parallel_zip_chunks: slice lengths differ"
    );
    let len = out.len();
    let nthreads = num_threads_for(len);
    if nthreads <= 1 {
        body(out, input, 0);
        return;
    }
    let ranges = chunk_ranges(len, nthreads);
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(ranges.len(), &|i| {
        let r = ranges[i];
        // SAFETY: chunk ranges are disjoint and within `out`.
        let out_chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        body(out_chunk, &input[r.start..r.end], r.start);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_chunks_visits_every_element_once() {
        let mut v = vec![0u32; 10_000];
        parallel_for_chunks(&mut v, |chunk, _| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn for_chunks_offsets_are_global_indices() {
        let mut v = vec![0usize; 5_000];
        parallel_for_chunks(&mut v, |chunk, offset| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = offset + i;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn for_range_covers_whole_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        parallel_for_range(12_345, |start, end| {
            counter.fetch_add(end - start, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 12_345);
    }

    #[test]
    fn for_range_empty_is_noop() {
        parallel_for_range(0, |_, _| panic!("must not be called"));
    }

    #[test]
    fn zip_chunks_aligns_input_and_output() {
        let input: Vec<f64> = (0..3000).map(|i| i as f64).collect();
        let mut out = vec![0.0f64; 3000];
        parallel_zip_chunks(&mut out, &input, |o, i, _| {
            for (a, b) in o.iter_mut().zip(i) {
                *a = 2.0 * b;
            }
        });
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, 2.0 * i as f64);
        }
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn zip_chunks_rejects_mismatched_lengths() {
        let mut out = vec![0.0f64; 3];
        parallel_zip_chunks(&mut out, &[1.0f64, 2.0], |_, _, _| {});
    }

    #[test]
    fn nested_regions_complete() {
        // A body that itself opens a parallel region must not deadlock: the
        // inner submission finds the pool busy and runs inline.
        let _guard = crate::config::test_override_lock();
        crate::set_num_threads(4);
        let mut outer = vec![0.0f64; 8192];
        parallel_for_chunks(&mut outer, |chunk, offset| {
            let mut inner = vec![0usize; 4096];
            parallel_for_chunks(&mut inner, |c, o| {
                for (i, x) in c.iter_mut().enumerate() {
                    *x = o + i;
                }
            });
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as f64 + inner[0] as f64;
            }
        });
        crate::set_num_threads(0);
        for (i, &x) in outer.iter().enumerate() {
            assert_eq!(x, i as f64);
        }
    }
}
