//! The one-pass assembly against a naive oracle.
//!
//! `DistCsr` builds a rank's operator straight from its rows: one counting
//! pass that finds the ghosts, the negotiated halo plan, and one pass that
//! maps each row to `[owned | ghost]` columns, puts it in normal form and
//! writes it in slice order.  The oracle here does each step the plain
//! way — emit every row, collect and sort the ghosts, remap entry by entry,
//! sort and merge any row the remap leaves out of order — and hands the
//! resulting `Csr` to `SlicedCsr::from_csr`, whose layout rule
//! `sparse::sliced`'s unit test pins entry by entry.  Both constructors
//! (`from_row_source` and `from_partitioned`) must produce exactly that
//! operator and the plan the planner derives from the oracle's ghost list.
//!
//! Covered: the 5-point and 9-point stencils, both surrogate classes
//! (non-symmetric and SPD), a `Csr` from an unsorted triplet list with
//! duplicates, a raw block whose rows are unsorted, repeat a column or are
//! empty, row counts that are not a multiple of the slice height, and 1 to
//! 5 ranks.  On every rank past the first a stencil row couples to the rank
//! before it, whose columns become ghosts that the remap puts *after* the
//! owned ones: those rows must be re-sorted.

use distsim::{plan_halo_exchange, run_ranks, DistCsr};
use sparse::{
    block_row_partition, Csr, Laplace2d5ptRows, Laplace2d9ptRows, RowSource, SlicedCsr,
    SuiteLikeRows, Triplet,
};

/// Rows `lo..hi` of `source` in `[owned | ghost]` columns, each in normal
/// form, and the sorted ghost list — computed the plain way.
fn oracle_block<S: RowSource>(source: &S, lo: usize, hi: usize) -> (Csr, Vec<usize>) {
    let rows: Vec<Vec<(usize, f64)>> = (lo..hi)
        .map(|i| {
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            source.emit_row(i, &mut cols, &mut vals);
            cols.into_iter().zip(vals).collect()
        })
        .collect();
    let mut ghosts: Vec<usize> = rows
        .iter()
        .flatten()
        .map(|&(c, _)| c)
        .filter(|c| !(lo..hi).contains(c))
        .collect();
    ghosts.sort_unstable();
    ghosts.dedup();
    let nloc = hi - lo;
    let remap = |c: usize| {
        if (lo..hi).contains(&c) {
            c - lo
        } else {
            nloc + ghosts.iter().position(|&g| g == c).unwrap()
        }
    };
    let (mut rowptr, mut colind, mut vals) = (vec![0], Vec::new(), Vec::new());
    for row in &rows {
        let mut mapped: Vec<(usize, f64)> = row.iter().map(|&(c, v)| (remap(c), v)).collect();
        if mapped.windows(2).all(|w| w[0].0 < w[1].0) {
            colind.extend(mapped.iter().map(|e| e.0));
            vals.extend(mapped.iter().map(|e| e.1));
        } else {
            mapped.sort_by_key(|e| e.0);
            let mut k = 0;
            while k < mapped.len() {
                let col = mapped[k].0;
                let mut sum = 0.0;
                while k < mapped.len() && mapped[k].0 == col {
                    sum += mapped[k].1;
                    k += 1;
                }
                colind.push(col);
                vals.push(sum);
            }
        }
        rowptr.push(colind.len());
    }
    let block = Csr::from_raw(nloc, nloc + ghosts.len(), rowptr, colind, vals);
    (block, ghosts)
}

/// Both constructors on every rank of `1..=5` ranks must give the oracle's
/// operator and plan, and the same SpMV bits.
fn check<S: RowSource + Sync>(name: &str, source: &S) {
    let n = source.nrows();
    for nranks in 1..=5 {
        let part = block_row_partition(n, nranks);
        let resorted = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let (oracle, ghosts) = oracle_block(source, lo, hi);
            let expected_plan = plan_halo_exchange(comm.as_ref(), &part, ghosts);
            let streamed = DistCsr::from_row_source(comm.clone(), &part, source);
            let block = sparse::assemble_rows(source, lo..hi);
            let partitioned = DistCsr::from_partitioned(comm.clone(), &part, block);
            for (how, dist) in [("streamed", &streamed), ("partitioned", &partitioned)] {
                let at = format!("{name}, {how}, rank {}/{nranks}", comm.rank());
                assert_eq!(dist.local_matrix(), &SlicedCsr::from_csr(&oracle), "{at}");
                assert_eq!(dist.local_matrix().to_csr(), oracle, "{at}");
                assert_eq!(dist.halo_plan(), &expected_plan, "{at}");
            }
            // Rows the remap leaves out of order: an owned column behind a
            // ghost of a lower rank.
            (0..hi - lo)
                .filter(|&i| {
                    let (mut cols, mut vals) = (Vec::new(), Vec::new());
                    source.emit_row(lo + i, &mut cols, &mut vals);
                    cols.iter().any(|&c| c < lo) && cols.iter().any(|c| (lo..hi).contains(c))
                })
                .count()
        });
        if nranks > 1 && name.starts_with("laplace") {
            assert!(
                resorted.iter().sum::<usize>() > 0,
                "{name}: no row has a ghost before an owned column"
            );
        }
    }
}

#[test]
fn the_five_point_stencil_matches_the_oracle() {
    // 35 rows: 8 slices and 3 rows left over.
    check("laplace 5pt", &Laplace2d5ptRows { nx: 7, ny: 5 });
}

#[test]
fn the_nine_point_stencil_matches_the_oracle() {
    // 42 rows: 10 slices and 2 rows left over.
    check("laplace 9pt", &Laplace2d9ptRows { nx: 6, ny: 7 });
}

#[test]
fn both_surrogate_classes_match_the_oracle() {
    let geer = sparse::suitelike::spec_by_name("ML_Geer").unwrap();
    check("ML_Geer", &SuiteLikeRows::new(geer, Some(101), 5));
    let ecology = sparse::suitelike::spec_by_name("ecology2").unwrap();
    check("ecology2", &SuiteLikeRows::new(ecology, Some(57), 5));
}

#[test]
fn a_matrix_from_unsorted_triplets_with_duplicates_matches_the_oracle() {
    let n = 23;
    let mut triplets = Vec::new();
    for i in (0..n).rev() {
        for (d, val) in [(7usize, -0.5), (0, 4.0), (n - 3, 0.25), (1, -1.0), (0, 0.5)] {
            let col = (i + d) % n;
            triplets.push(Triplet { row: i, col, val });
        }
    }
    check("triplets", &Csr::from_triplets(n, n, &triplets));
}

#[test]
fn a_raw_block_with_unsorted_repeated_and_empty_rows_matches_the_oracle() {
    // Row i (of 18) holds columns (i + 11) % 18, i, (i + 5) % 18 and i
    // again, out of order; every fourth row is empty.
    let n = 18;
    let (mut rowptr, mut colind, mut vals) = (vec![0], Vec::new(), Vec::new());
    for i in 0..n {
        if i % 4 != 2 {
            for (k, col) in [(i + 11) % n, i, (i + 5) % n, i].into_iter().enumerate() {
                colind.push(col);
                vals.push([1.5, -0.0, 0.125, 2.0][k] * (i + 1) as f64);
            }
        }
        rowptr.push(colind.len());
    }
    check("raw", &Csr::from_raw(n, n, rowptr, colind, vals));
}
