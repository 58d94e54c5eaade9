//! `DistCsr::spmm` is `spmv` column by column, in one halo exchange.
//!
//! Every column of a `k`-wide product — shifted (`y −= θ·u`) or not — must
//! be the bits of `spmv` of that column followed by the same subtraction,
//! on hostile inputs (±0, ±∞, NaN) at `k` ∈ {1, 2, 3, 4, 7} and on 1 to 3
//! ranks, where the ghosts of all `k` columns travel in one message per
//! peer.  A halo frame the guards write off must poison the ghosts of every
//! column it carried.

use distsim::{
    run_ranks, Communicator, DistCsr, FaultKind, FaultPlan, FaultyComm, GuardedComm, OpKind, Target,
};
use sparse::{block_row_partition, laplace2d_9pt, Csr};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic values with about one entry in seven drawn from ±0, ±∞
/// and NaN.
fn hostile(len: usize, seed: u64) -> Vec<f64> {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    (0..len as u64)
        .map(|i| {
            let h =
                (i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let h = h ^ (h >> 31);
            match h % 35 {
                k if (k as usize) < SPECIAL.len() => SPECIAL[k as usize],
                _ => (h >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// On every rank of `nranks`, compare `spmm` against `spmv` per column for
/// every width and shift.
fn check(name: &str, a: &Csr, nranks: usize) {
    let part = block_row_partition(a.nrows(), nranks);
    run_ranks(nranks, |comm| {
        let rank = comm.rank();
        let dist = DistCsr::from_global(comm, a, &part);
        let nloc = dist.local_rows();
        for k in [1usize, 2, 3, 4, 7] {
            let seed = (100 * rank + k) as u64;
            let x = hostile(k * nloc, seed);
            let u = hostile(k * nloc, seed + 50);
            for shift in [None, Some((0.75, &u[..])), Some((-3.0, &u[..]))] {
                let mut y = vec![f64::NAN; k * nloc];
                dist.spmm(k, &x, &mut y, shift);
                let mut y_ref = vec![f64::NAN; k * nloc];
                for q in 0..k {
                    let col = q * nloc..(q + 1) * nloc;
                    dist.spmv(&x[col.clone()], &mut y_ref[col.clone()]);
                    if let Some((theta, u)) = shift {
                        for (yi, ui) in y_ref[col.clone()].iter_mut().zip(&u[col]) {
                            *yi -= theta * ui;
                        }
                    }
                }
                assert_eq!(
                    bits(&y),
                    bits(&y_ref),
                    "{name}: rank {rank}/{nranks}, k = {k}, shift {:?}",
                    shift.map(|s| s.0)
                );
            }
        }
    });
}

#[test]
fn every_spmm_column_is_the_bits_of_spmv_of_that_column() {
    // 99 rows: slices plus three rows left over on one rank.
    let lap = laplace2d_9pt(11, 9);
    let geer = sparse::suitelike::spec_by_name("ML_Geer").unwrap();
    let geer = sparse::suitesparse_surrogate(geer, Some(103), 9);
    for nranks in 1..=3 {
        check("laplace 9pt", &lap, nranks);
        check("ML_Geer", &geer, nranks);
    }
}

#[test]
fn a_written_off_halo_frame_poisons_the_ghosts_of_every_column() {
    // Rank 0's first halo frame has a bit flipped in flight; rank 1's
    // guards reject it, and every row of rank 1 that reads a ghost from
    // rank 0 turns NaN in all three columns.  Nothing else does.
    let a = laplace2d_9pt(8, 8);
    let part = block_row_partition(a.nrows(), 2);
    let k = 3;
    let results = run_ranks(2, |comm| {
        let flip = FaultKind::BitFlip {
            word: Some(5),
            bit: 40,
        };
        let plan = FaultPlan::none().with(Target::nth(OpKind::Send, 0).on_rank(0), flip);
        let guarded = GuardedComm::wrap(FaultyComm::wrap(comm, plan), Duration::from_secs(5));
        let dist = DistCsr::from_global(guarded.clone() as Arc<dyn Communicator>, &a, &part);
        let nloc = dist.local_rows();
        let x: Vec<f64> = (0..k * nloc).map(|i| 1.0 + i as f64 * 0.01).collect();
        let mut y = vec![0.0; k * nloc];
        dist.spmm(k, &x, &mut y, None);
        let local = dist.local_matrix().to_csr();
        let reads_ghost: Vec<bool> = (0..nloc)
            .map(|i| local.row(i).0.iter().any(|&c| c >= nloc))
            .collect();
        (guarded.rank(), y, reads_ghost, guarded.counts().poisoned)
    });
    for (rank, y, reads_ghost, poisoned) in results {
        let nloc = reads_ghost.len();
        assert!(reads_ghost.iter().any(|&g| g), "rank {rank} reads no ghost");
        for q in 0..k {
            for (i, &ghost) in reads_ghost.iter().enumerate() {
                let v = y[q * nloc + i];
                let poisoned_row = rank == 1 && ghost;
                assert_eq!(
                    v.is_nan(),
                    poisoned_row,
                    "rank {rank}, column {q}, row {i}: {v}"
                );
            }
        }
        assert_eq!(poisoned, usize::from(rank == 1), "rank {rank}");
    }
}
