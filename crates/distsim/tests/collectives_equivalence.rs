//! Integration tests of the distsim substrate itself: the serial and the
//! thread-backed communicators must be observationally equivalent — same
//! collective results, same operation counts — and the distributed CSR's
//! halo-exchange SpMV must reproduce the serial SpMV exactly.

use distsim::{run_ranks, DistCsr, DistMultiVector, SerialComm};
use sparse::{block_row_partition, laplace2d_9pt};

#[test]
fn serial_and_thread_collectives_produce_identical_results() {
    // The same reduction executed on SerialComm and on 1..=4 thread ranks
    // (with the data partitioned so the global content is identical) must
    // agree; rank-order combination makes the multi-rank result value
    // deterministic, and the single-rank thread group must match SerialComm
    // bitwise.
    let data: Vec<f64> = (0..240)
        .map(|i| ((i * 37 % 101) as f64) * 0.173 - 5.0)
        .collect();

    let serial = SerialComm::new();
    let mut serial_buf = vec![0.0; 3];
    for (i, x) in data.iter().enumerate() {
        serial_buf[i % 3] += x;
    }
    serial.allreduce_sum(&mut serial_buf);

    for nranks in [1usize, 2, 4] {
        let part = block_row_partition(data.len(), nranks);
        let results = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let mut buf = vec![0.0; 3];
            for (i, x) in data[lo..hi].iter().enumerate() {
                buf[(lo + i) % 3] += x;
            }
            comm.allreduce_sum(&mut buf);
            buf
        });
        for r in &results {
            for (a, b) in r.iter().zip(&serial_buf) {
                if nranks == 1 {
                    assert_eq!(a, b, "single thread rank must match SerialComm bitwise");
                } else {
                    assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "nranks {nranks}");
                }
            }
        }
    }
}

#[test]
fn comm_stats_count_exactly_the_collectives_issued() {
    for nranks in [1usize, 4] {
        let snapshots = run_ranks(nranks, |comm| {
            let before = comm.stats().snapshot();
            let mut buf = vec![1.0; 7];
            comm.allreduce_sum(&mut buf);
            comm.allreduce_sum(&mut buf[..2]);
            let mut one = [1.0];
            comm.allreduce_sum(&mut one);
            assert_eq!(one, [nranks as f64]);
            comm.broadcast(0, &mut buf[..4]);
            let send = [comm.rank() as f64; 2];
            let mut recv = vec![0.0; 2 * comm.size()];
            comm.allgather(&send, &mut recv);
            comm.barrier();
            comm.stats().snapshot().since(&before)
        });
        for s in snapshots {
            assert_eq!(s.allreduces, 3);
            assert_eq!(s.allreduce_words, 7 + 2 + 1);
            assert_eq!(s.broadcasts, 1);
            assert_eq!(s.broadcast_words, 4);
            assert_eq!(s.allgathers, 1);
            assert_eq!(s.allgather_words, 2);
            assert_eq!(s.barriers, 1);
        }
    }
}

#[test]
fn multivector_reduction_counts_are_rank_count_independent() {
    // The defining property of the substrate: the number of global
    // reductions a kernel performs must not depend on the rank count.
    let full = dense::Matrix::from_fn(96, 6, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
    let count_with = |nranks: usize| -> usize {
        let counts = run_ranks(nranks, |comm| {
            let before_owner = comm.clone();
            let mv = DistMultiVector::from_matrix(comm, full.clone());
            let before = before_owner.stats().snapshot();
            let _ = mv.gram(0..6);
            let _ = mv.proj(0..2, 2..5);
            let _ = mv.proj_and_gram(0..2, 2..5);
            let _ = mv.norm2(0);
            before_owner.stats().snapshot().since(&before).allreduces
        });
        assert!(counts.iter().all(|&c| c == counts[0]));
        counts[0]
    };
    let serial = {
        let comm = SerialComm::new();
        let mv = DistMultiVector::from_matrix(comm.clone(), full.clone());
        let before = comm.stats().snapshot();
        let _ = mv.gram(0..6);
        let _ = mv.proj(0..2, 2..5);
        let _ = mv.proj_and_gram(0..2, 2..5);
        let _ = mv.norm2(0);
        comm.stats().snapshot().since(&before).allreduces
    };
    assert_eq!(serial, 4, "one reduce per kernel call");
    assert_eq!(count_with(1), serial);
    assert_eq!(count_with(3), serial);
    assert_eq!(count_with(4), serial);
}

#[test]
fn dist_csr_halo_spmv_matches_serial_spmv_on_laplace2d_9pt() {
    let a = laplace2d_9pt(15, 9);
    let n = a.nrows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 13 % 29) as f64) * 0.31 - 2.0)
        .collect();
    let y_ref = a.spmv_alloc(&x);
    for nranks in [1usize, 2, 3, 4] {
        let part = block_row_partition(n, nranks);
        let pieces = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let dist = DistCsr::from_global(comm, &a, &part);
            assert_eq!(dist.row_offset(), lo);
            assert_eq!(dist.local_rows(), hi - lo);
            let mut y = vec![0.0; hi - lo];
            dist.spmv(&x[lo..hi], &mut y);
            (lo, y)
        });
        let mut y = vec![0.0; n];
        for (lo, block) in &pieces {
            y[*lo..lo + block.len()].copy_from_slice(block);
        }
        for (p, q) in y.iter().zip(&y_ref) {
            assert!(
                (p - q).abs() <= 1e-12 * q.abs().max(1.0),
                "nranks {nranks}: {p} vs {q}"
            );
        }
    }
}
