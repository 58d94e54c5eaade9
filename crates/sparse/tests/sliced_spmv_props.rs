//! `SlicedCsr` is `Csr` re-laid, nothing else: its product returns the
//! bits of the reference `Csr::spmv` on ragged matrices (empty rows,
//! length-1 rows, slices whose shortest row is empty, row counts on every
//! side of the slice height) and hostile inputs (±0, ±∞, NaN), the
//! conversion round-trips, and every column of the block product `spmm`,
//! shifted or not, is the bits of `spmv` of that column.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparse::{Csr, SlicedCsr};

fn below(rng: &mut StdRng, bound: usize) -> usize {
    (rng.random::<u64>() % bound as u64) as usize
}

/// A matrix with ragged rows: about one row in eight empty, one in four of
/// length 1, the rest up to `max_len` long; about one value in eight a
/// signed zero.
fn ragged(nrows: usize, ncols: usize, max_len: usize, rng: &mut StdRng) -> Csr {
    let mut rowptr = vec![0];
    let (mut colind, mut vals) = (Vec::new(), Vec::new());
    for _ in 0..nrows {
        let len = match below(rng, 8) {
            0 => 0,
            1 | 2 => 1,
            _ => below(rng, max_len + 1),
        };
        let mut cols: Vec<usize> = (0..len).map(|_| below(rng, ncols)).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            colind.push(c);
            vals.push(match below(rng, 16) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.random::<f64>() * 4.0 - 2.0,
            });
        }
        rowptr.push(colind.len());
    }
    Csr::from_raw(nrows, ncols, rowptr, colind, vals)
}

/// A vector with about one entry in six drawn from ±0, ±∞ and NaN.
fn hostile(len: usize, rng: &mut StdRng) -> Vec<f64> {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    (0..len)
        .map(|_| match below(rng, 30) {
            k if k < SPECIAL.len() => SPECIAL[k],
            _ => rng.random::<f64>() * 2.0 - 1.0,
        })
        .collect()
}

/// The two products of `a·x`, as bit patterns.
fn product_bits(a: &Csr, sliced: &SlicedCsr, x: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let mut y = vec![f64::NAN; a.nrows()];
    let mut y_sliced = vec![f64::NAN; a.nrows()];
    a.spmv(x, &mut y);
    sliced.spmv(x, &mut y_sliced);
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    (bits(y), bits(y_sliced))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliced_spmv_returns_the_bits_of_csr_spmv(
        q in 0usize..40,
        r in 0usize..4,
        ncols in 1usize..60,
        max_len in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ragged(4 * q + r, ncols, max_len, &mut rng);
        let sliced = SlicedCsr::from_csr(&a);
        prop_assert_eq!(
            (sliced.nrows(), sliced.ncols(), sliced.nnz()),
            (a.nrows(), a.ncols(), a.nnz())
        );
        prop_assert_eq!(sliced.to_csr(), a.clone());
        let x = hostile(ncols, &mut rng);
        let (y, y_sliced) = product_bits(&a, &sliced, &x);
        prop_assert_eq!(y_sliced, y);
    }
}

#[test]
fn row_counts_around_the_slice_height_and_a_slice_with_an_empty_row() {
    let mut rng = StdRng::seed_from_u64(18);
    // 9001 rows = 2250 slices + 1 row.
    for nrows in [0usize, 1, 3, 4, 5, 9001] {
        let a = ragged(nrows, 37, 9, &mut rng);
        let sliced = SlicedCsr::from_csr(&a);
        assert_eq!(sliced.to_csr(), a, "{nrows} rows");
        let x = hostile(37, &mut rng);
        let (y, y_sliced) = product_bits(&a, &sliced, &x);
        assert_eq!(y_sliced, y, "{nrows} rows");
    }
    // Lengths 3, 0, 2, 1: the lockstep part is empty, every entry a tail.
    let a = Csr::from_raw(
        4,
        3,
        vec![0, 3, 3, 5, 6],
        vec![0, 1, 2, 0, 2, 1],
        vec![1.0, -2.0, 3.0, -0.0, 5.0, f64::INFINITY],
    );
    let sliced = SlicedCsr::from_csr(&a);
    assert_eq!(sliced.to_csr(), a);
    let (y, y_sliced) = product_bits(&a, &sliced, &[-0.0, 0.0, f64::NAN]);
    assert_eq!(y_sliced, y);
}

#[test]
#[should_panic(expected = "32-bit column indices")]
fn more_columns_than_a_u32_can_index_is_refused() {
    // No entries: only the shape is too wide.
    let wide = Csr::from_raw(1, u32::MAX as usize + 1, vec![0, 0], Vec::new(), Vec::new());
    SlicedCsr::from_csr(&wide);
}

/// `spmm` of `k` columns, as bit patterns, and the reference: `spmv` of
/// each column, then `y −= θ·u` entry by entry when shifted.
fn block_product_bits(
    sliced: &SlicedCsr,
    k: usize,
    x: &[f64],
    shift: Option<(f64, &[f64])>,
) -> (Vec<u64>, Vec<u64>) {
    let (m, n) = (sliced.nrows(), sliced.ncols());
    let mut y = vec![f64::NAN; k * m];
    sliced.spmm(k, x, &mut y, shift);
    let mut y_ref = vec![f64::NAN; k * m];
    for q in 0..k {
        let col = &mut y_ref[q * m..(q + 1) * m];
        sliced.spmv(&x[q * n..(q + 1) * n], col);
        if let Some((theta, u)) = shift {
            for (yi, ui) in col.iter_mut().zip(&u[q * m..(q + 1) * m]) {
                *yi -= theta * ui;
            }
        }
    }
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    (bits(y), bits(y_ref))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_spmm_column_is_the_bits_of_spmv(
        q in 0usize..30,
        r in 0usize..4,
        ncols in 1usize..50,
        max_len in 1usize..12,
        k in 1usize..9,
        shifted in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ragged(4 * q + r, ncols, max_len, &mut rng);
        let sliced = SlicedCsr::from_csr(&a);
        let x = hostile(k * ncols, &mut rng);
        let u = hostile(k * a.nrows(), &mut rng);
        let shift = (shifted == 1).then_some((rng.random::<f64>() * 4.0 - 2.0, &u[..]));
        let (y, y_ref) = block_product_bits(&sliced, k, &x, shift);
        prop_assert_eq!(y, y_ref);
    }
}

#[test]
fn spmm_takes_every_width_through_the_four_column_sweeps() {
    // Widths up to 9 cover one, two and three sweeps with every remainder.
    let mut rng = StdRng::seed_from_u64(44);
    let a = ragged(4 * 25 + 3, 31, 9, &mut rng);
    let sliced = SlicedCsr::from_csr(&a);
    for k in 0..=9 {
        let x = hostile(k * 31, &mut rng);
        let u = hostile(k * a.nrows(), &mut rng);
        for shift in [None, Some((-0.5, &u[..]))] {
            let (y, y_ref) = block_product_bits(&sliced, k, &x, shift);
            assert_eq!(y, y_ref, "k = {k}, shifted: {}", shift.is_some());
        }
    }
}
