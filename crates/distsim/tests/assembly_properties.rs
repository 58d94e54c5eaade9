//! Property tests of the streamed assembly path on awkward partitions.
//!
//! Every constructor of [`DistCsr`] — replicated (`from_global`, which
//! streams through `from_row_source`) and from a pre-assembled local block
//! (`from_partitioned`) — must produce the same
//! object: bitwise-identical local matrices and halo plans, bitwise-equal
//! SpMV results, and identical `CommStats` traffic.  The properties sample
//! the partition edge cases the planner has to survive: prime dimensions
//! (maximally unbalanced block rows), more ranks than rows (empty ranks),
//! one row per rank, and ranks whose rows hold zero nonzeros.  One more
//! test pins that a sampled fault plan never reaches assembly.
//!
//! The rank counts swept can be extended from the environment
//! (`DISTSIM_TEST_RANKS=6,8`, comma-separated) — CI runs a ranks sweep on
//! top of the defaults; the proptest shim is deterministic, so any failure
//! reported in CI reproduces locally from the printed case values.

use distsim::{run_ranks, Communicator, DistCsr, FaultPlan, FaultRates, FaultyComm};
use proptest::prelude::*;
use sparse::{block_row_partition, laplace2d_9pt, Csr, Triplet};
use std::sync::Arc;

/// Rank counts to sweep: defaults plus any from `DISTSIM_TEST_RANKS`.
fn ranks_under_test() -> Vec<usize> {
    let mut ranks = vec![1usize, 2, 3, 5];
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

/// Deterministic banded test matrix with pseudo-random off-diagonals; rows
/// in `empty_rows` are left completely empty (zero stored entries).
fn banded_matrix(n: usize, seed: u64, empty_rows: std::ops::Range<usize>) -> Csr {
    let mut t = Vec::new();
    for i in 0..n {
        if empty_rows.contains(&i) {
            continue;
        }
        let h = |j: usize| {
            let mut x = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                ^ seed;
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 40) as f64 / 16_777_216.0 - 0.5
        };
        t.push(Triplet {
            row: i,
            col: i,
            val: 4.0 + h(0),
        });
        // A short band plus one long-range coupling, clipped to the matrix.
        for (k, d) in [1usize, 2, n / 3 + 1].into_iter().enumerate() {
            if d == 0 {
                continue;
            }
            if i >= d {
                t.push(Triplet {
                    row: i,
                    col: i - d,
                    val: h(2 * k + 1),
                });
            }
            if i + d < n {
                t.push(Triplet {
                    row: i,
                    col: i + d,
                    val: h(2 * k + 2),
                });
            }
        }
    }
    Csr::from_triplets(n, n, &t)
}

/// Build the same distributed matrix through both constructors on
/// every rank, assert they are bitwise identical (storage, halo plan, SpMV
/// result, per-SpMV `CommStats` traffic), and return the assembled global
/// SpMV result for an end-to-end check against the serial product.
fn assert_constructors_agree(a: &Csr, nranks: usize) {
    assert_constructors_agree_with_part(a, &block_row_partition(a.nrows(), nranks));
}

fn assert_constructors_agree_with_part(a: &Csr, part: &sparse::RowPartition) {
    let n = a.nrows();
    let nranks = part.nranks();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 17 % 31) as f64) * 0.23 - 2.1)
        .collect();
    let pieces = run_ranks(nranks, |comm| {
        let rank = comm.rank();
        let (lo, hi) = part.range(rank);
        let replicated = DistCsr::from_global(comm.clone(), a, part);
        let partitioned = DistCsr::from_partitioned(comm.clone(), part, a.row_block(lo, hi));
        assert_eq!(
            partitioned.local_matrix(),
            replicated.local_matrix(),
            "rank {rank}: partitioned vs replicated local block"
        );
        assert_eq!(
            partitioned.halo_plan(),
            replicated.halo_plan(),
            "rank {rank}"
        );
        // SpMV: bitwise-equal outputs and identical message traffic.
        let mut y_rep = vec![0.0; hi - lo];
        let mut y_par = vec![0.0; hi - lo];
        let s0 = comm.stats().snapshot();
        replicated.spmv(&x[lo..hi], &mut y_rep);
        let d_rep = comm.stats().snapshot().since(&s0);
        let s1 = comm.stats().snapshot();
        partitioned.spmv(&x[lo..hi], &mut y_par);
        let d_par = comm.stats().snapshot().since(&s1);
        assert_eq!(y_par, y_rep, "rank {rank}: SpMV must be bitwise equal");
        assert_eq!(d_par, d_rep, "rank {rank}: identical CommStats per SpMV");
        (lo, y_rep, replicated.local_matrix().nnz())
    });
    // End-to-end: the distributed product matches the serial one (to
    // rounding — local column remap changes the accumulation order).
    let y_ref = a.spmv_alloc(&x);
    let mut nnz_total = 0;
    for (lo, y, nnz_local) in &pieces {
        nnz_total += nnz_local;
        for (k, v) in y.iter().enumerate() {
            let r = y_ref[lo + k];
            assert!(
                (v - r).abs() <= 1e-12 * r.abs().max(1.0),
                "row {}: {v} vs {r}",
                lo + k
            );
        }
    }
    assert_eq!(nnz_total, a.nnz(), "local blocks must partition the nnz");
}

#[test]
fn empty_middle_rank_partition_attributes_ghosts_to_the_real_owner() {
    // offsets [0, 3, 3, 6]: rank 1 owns nothing, and the band couplings of
    // rows 2 and 3 reach across the empty rank's boundary.  The planner
    // must attribute those ghosts to the ranks that actually own them
    // (attributing one to the empty rank would leave a recv without a
    // matching send and deadlock the halo exchange).
    let a = banded_matrix(6, 9, 0..0);
    let part = sparse::RowPartition {
        offsets: vec![0, 3, 3, 6],
    };
    assert_constructors_agree_with_part(&a, &part);
}

#[test]
fn a_sampled_fault_plan_leaves_the_assembled_halo_plan_alone() {
    // A fault plan acts on what a solve puts on the wire — all-reduce
    // contributions and halo sends — never on the two all-gathers that
    // negotiate the halo plan.  Wrapped before `from_global`, as every
    // campaign cell wraps it, a sampled plan must neither fail assembly
    // nor change any rank's send or receive plan.
    let a = laplace2d_9pt(16, 16);
    let part = block_row_partition(a.nrows(), 2);
    let halo_words = |plan: Option<&FaultPlan>| {
        run_ranks(2, |comm| {
            let comm: Arc<dyn Communicator> = match plan {
                Some(plan) => FaultyComm::wrap(comm, plan.clone()),
                None => comm,
            };
            let dist = DistCsr::from_global(comm, &a, &part);
            let halo = dist.halo_plan();
            (halo.send_words(), halo.recv_words())
        })
    };
    let clean = halo_words(None);
    assert!(clean.iter().all(|&(send, recv)| send > 0 && recv > 0));
    let opfail = FaultRates {
        opfail: 0.5,
        ..FaultRates::default()
    };
    let bitflip = FaultRates {
        bitflip: 0.3,
        ..FaultRates::default()
    };
    let plans = (0..20)
        .map(|seed| FaultPlan::from_seed(seed, opfail))
        .chain((0..40).map(|seed| FaultPlan::from_seed(seed, bitflip)));
    for plan in plans {
        assert_eq!(halo_words(Some(&plan)), clean, "{plan:?}");
    }
}

#[test]
fn matrix_market_row_blocks_feed_the_partitioned_constructor() {
    // The production path for real SuiteSparse files: each rank streams its
    // own row block from the .mtx file (never reading the whole matrix into
    // memory) and hands it to `from_partitioned`; the result must be
    // bitwise identical to the replicated construction.
    let a = banded_matrix(57, 42, 0..0);
    let dir = std::env::temp_dir().join(format!(
        "two_stage_gmres_assembly_mm_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("banded.mtx");
    sparse::write_matrix_market(&path, &a).unwrap();
    // Values round-trip through the "%.17e" text form exactly (17
    // significant digits are enough for f64), so the file-fed construction
    // stays bitwise comparable.
    let a = sparse::read_matrix_market(&path).unwrap();
    let nranks = 3;
    let info = sparse::read_matrix_market_info(&path).unwrap();
    let part = block_row_partition(info.nrows, nranks);
    let same = run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let block = sparse::read_matrix_market_row_block(&path, lo..hi).unwrap();
        let from_file = DistCsr::from_partitioned(comm.clone(), &part, block);
        let reference = DistCsr::from_global(comm, &a, &part);
        from_file.local_matrix() == reference.local_matrix()
            && from_file.halo_plan() == reference.halo_plan()
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(same.into_iter().all(|s| s));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn constructors_agree_on_prime_dimensions(
        seed in 0u64..1_000,
        prime_idx in 0usize..6,
    ) {
        // Prime n: block rows are maximally uneven and never align with the
        // rank count.
        let n = [13usize, 17, 23, 31, 41, 53][prime_idx];
        let a = banded_matrix(n, seed, 0..0);
        for nranks in ranks_under_test() {
            assert_constructors_agree(&a, nranks);
        }
    }

    #[test]
    fn constructors_agree_with_more_ranks_than_rows(
        seed in 0u64..1_000,
        n in 2usize..6,
    ) {
        // More ranks than rows: trailing ranks own empty row ranges and
        // must still participate in the construction-time collectives.
        let a = banded_matrix(n, seed, 0..0);
        assert_constructors_agree(&a, n + 3);
    }

    #[test]
    fn constructors_agree_with_one_row_per_rank(
        seed in 0u64..1_000,
        n in 2usize..8,
    ) {
        // nranks == n: every rank owns exactly one row, so almost every
        // matrix entry is a ghost reference.
        let a = banded_matrix(n, seed, 0..0);
        assert_constructors_agree(&a, n);
    }

    #[test]
    fn constructors_agree_when_a_rank_owns_zero_nonzeros(
        seed in 0u64..1_000,
        nranks in 2usize..5,
    ) {
        // Empty a full rank's worth of rows: that rank has no entries, no
        // ghosts, and nothing to send, but still joins the planner
        // collectives and the SpMV must stay consistent around it.
        let n = 7 * nranks;
        let part = block_row_partition(n, nranks);
        let (lo, hi) = part.range(1);
        let a = banded_matrix(n, seed, lo..hi);
        let local_nnz = a.rowptr()[hi] - a.rowptr()[lo];
        prop_assert!(local_nnz == 0, "rank 1 must own zero nonzeros");
        assert_constructors_agree(&a, nranks);
    }
}
