//! Property battery for the distributed sketch operator: the sketched
//! panel must be **bitwise identical** across rank counts (the slot
//! exchange gives every slot exactly one owner, so the rank-ordered reduce
//! only ever adds exact zeros), and every [`DistMultiVector::sketch`]
//! reduce must cost exactly **one allreduce** of the word count
//! `SketchOp::reduce_words` predicts (the sketch reduce
//! `OrthoKind::reduce_schedule` lists; that join is pinned in
//! `tests/comm_volume_validation.rs`).
//!
//! Extra rank counts come from `DISTSIM_TEST_RANKS` (comma-separated) —
//! CI sweeps it.

use dense::Matrix;
use distsim::{run_ranks, DistMultiVector, SerialComm, SketchConfig, SketchOp};
use proptest::prelude::*;

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

/// Deterministic dense test panel with a few exact zeros (the -0.0 guard
/// in the slot fill is what keeps zero entries partition-invariant).
fn test_panel(n: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, cols, |i, j| {
        let mut x = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            ^ seed;
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if x.is_multiple_of(11) {
            0.0
        } else {
            (x >> 40) as f64 / 16_777_216.0 - 0.5
        }
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    let mut out = Vec::with_capacity(m.nrows() * m.ncols());
    for j in 0..m.ncols() {
        out.extend(m.col(j).iter().map(|x| x.to_bits()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sketch_is_bitwise_identical_across_rank_counts(
        seed in 0u64..1_000,
        n in 40usize..200,
        s in 1usize..7,
    ) {
        let cols = s + 2;
        let v = test_panel(n, cols, seed);
        let op = SketchOp::for_basis(
            &SketchConfig { rows_per_col: 4, seed },
            n,
            cols,
        );
        let serial = {
            let basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
            basis.sketch(&op, 0..s)
        };
        let reference = bits(&serial);
        for nranks in ranks_under_test() {
            let results = run_ranks(nranks, |comm| {
                let basis = DistMultiVector::from_matrix(comm, v.clone());
                let before = basis.comm().stats().snapshot();
                let sv = basis.sketch(&op, 0..s);
                let delta = basis.comm().stats().snapshot().since(&before);
                (bits(&sv), delta.allreduces, delta.allreduce_words)
            });
            for (b, reduces, words) in results {
                prop_assert_eq!(&b, &reference);
                prop_assert_eq!(reduces, 1);
                prop_assert_eq!(words, op.reduce_words(s));
            }
        }
    }
}

#[test]
fn operator_is_reconstructed_identically_on_every_rank() {
    // Every rank realizes the operator from (seed, n, c) alone: two ranks
    // of the same group building it independently must agree, and the
    // sketch of a multivector whose content is zero is exactly zero (no
    // -0.0 leakage from the sign flips).
    let n = 150;
    let op = SketchOp::new(n, 32, 42);
    let results = run_ranks(4, |comm| {
        let local_op = SketchOp::new(n, 32, 42);
        let (lo, hi) = sparse::block_row_partition(n, comm.size()).range(comm.rank());
        let basis = DistMultiVector::zeros(comm, n, hi - lo, lo, 6);
        let sv = basis.sketch(&local_op, 0..3);
        let mut all_plus_zero = true;
        for j in 0..3 {
            for &x in sv.col(j) {
                all_plus_zero &= x.to_bits() == 0.0f64.to_bits();
            }
        }
        (local_op.rows(), local_op.reduce_words(3), all_plus_zero)
    });
    for (rows, words, all_plus_zero) in results {
        assert_eq!(rows, op.rows());
        assert_eq!(words, op.reduce_words(3));
        assert!(all_plus_zero, "zero panel must sketch to exactly +0.0");
    }
}
