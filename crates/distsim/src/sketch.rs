//! Seeded, rank-deterministic sparse sketch operator for distributed
//! multivectors.
//!
//! A [`SketchOp`] is a fixed random matrix `S ∈ R^{c×n}` in the
//! CountSketch/sparse-sign family: each of the `c` sketch rows is the
//! signed sum of [`SKETCH_NNZ_PER_ROW`] sampled global rows, scaled by
//! `1/√nnz`.  The sample table is derived *per sketch row* from a seeded
//! `rand_shim` stream keyed on the global row count, so every rank
//! reconstructs the identical operator from `(seed, n, c)` alone — no
//! setup communication, no dependence on the partition.
//!
//! Applying `S` to a column panel of a [`crate::DistMultiVector`] is local except
//! for **one small allreduce** (Θ(c·s) words, counted in [`CommStats`]
//! like every collective): each rank fills the slots of the samples it
//! owns, the reduce merges the slot table, and every rank then combines
//! the slots into the replicated `c×s` sketched panel `S·V` in a fixed
//! order.  Because every slot has exactly one owning rank the reduce adds
//! each value to zeros only, which makes the sketched panel **bitwise
//! identical across rank counts and thread counts** — a stronger guarantee
//! than the to-rounding agreement of the Gram kernels, and the property
//! `crates/distsim/tests/sketch_properties.rs` pins.
//!
//! [`CommStats`]: crate::stats::CommStats

use rand::{rngs::StdRng, SeedableRng};

/// Nonzero samples per sketch row.  Four signed samples per row is the
/// usual sparse-sign operating point (Tropp et al.); the slot-exchange
/// payload grows linearly in this constant.
pub const SKETCH_NNZ_PER_ROW: usize = 4;

/// Configuration surface of the sketched orthogonalization family: how
/// many sketch rows to allocate per basis column, and the seed of the
/// operator.  Wired through `GmresConfig` so solver runs are replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Sketch rows allocated per basis column (`c = rows_per_col · cols`).
    /// Higher values tighten the embedding distortion `~√(cols/c)` at the
    /// cost of a proportionally larger (but still tiny) allreduce.
    pub rows_per_col: usize,
    /// Seed of the sketch operator.  Fixing it makes every sketched run
    /// bitwise replayable.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self {
            rows_per_col: 8,
            seed: 0x5EED_C0DE_2024,
        }
    }
}

/// A realized sparse sketch operator `S ∈ R^{c×n}` (see module docs).
#[derive(Debug, Clone)]
pub struct SketchOp {
    global_rows: usize,
    rows: usize,
    seed: u64,
    scale: f64,
    /// `(global_row, sign)` per slot, `SKETCH_NNZ_PER_ROW` slots per
    /// sketch row, row-major by sketch row.
    samples: Vec<(usize, f64)>,
}

impl SketchOp {
    /// Realize the operator with `rows` sketch rows over `global_rows`
    /// input rows from `seed`.  Deterministic: the same arguments produce
    /// the same operator on every rank and platform.
    pub fn new(global_rows: usize, rows: usize, seed: u64) -> Self {
        assert!(global_rows >= 1, "sketch needs at least one input row");
        assert!(rows >= 1, "sketch needs at least one sketch row");
        let mut samples = Vec::with_capacity(rows * SKETCH_NNZ_PER_ROW);
        for j in 0..rows {
            // One independent stream per sketch row, keyed on the row index
            // and the input dimension so different layouts decorrelate.
            let mut rng = StdRng::seed_from_u64(
                seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (global_rows as u64).rotate_left(32),
            );
            for _ in 0..SKETCH_NNZ_PER_ROW {
                let w = rng.next_u64();
                let row = ((w >> 1) % global_rows as u64) as usize;
                let sign = if w & 1 == 0 { 1.0 } else { -1.0 };
                samples.push((row, sign));
            }
        }
        Self {
            global_rows,
            rows,
            seed,
            scale: 1.0 / (SKETCH_NNZ_PER_ROW as f64).sqrt(),
            samples,
        }
    }

    /// Size the operator for a basis of `total_cols` columns over
    /// `global_rows` rows: `c = rows_per_col · total_cols` sketch rows, so
    /// the whole-basis embedding distortion is `~√(1/rows_per_col)`.
    pub fn for_basis(config: &SketchConfig, global_rows: usize, total_cols: usize) -> Self {
        let rows = config.rows_per_col.max(1) * total_cols.max(1);
        Self::new(global_rows, rows, config.seed)
    }

    /// Number of sketch rows `c`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension `n` the operator was realized for.
    pub fn global_rows(&self) -> usize {
        self.global_rows
    }

    /// The seed the operator was realized from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Slots in the exchange payload (`c · SKETCH_NNZ_PER_ROW`).
    pub fn slots(&self) -> usize {
        self.rows * SKETCH_NNZ_PER_ROW
    }

    /// Words one sketched-panel allreduce moves for an `s`-column panel —
    /// the sketch reduce `OrthoKind::reduce_schedule` lists.
    pub fn reduce_words(&self, s: usize) -> usize {
        self.slots() * s
    }

    /// Fill the slot table for the local row block `local` (whose first
    /// row is global row `row_offset`) of an `s`-column panel into `buf`
    /// (length `slots()·s`, column-major by panel column).  Serial by
    /// design: the fill must not depend on the compute pool width.
    pub(crate) fn fill_slots(
        &self,
        buf: &mut [f64],
        local: &dense::MatView<'_>,
        row_offset: usize,
    ) {
        let s = local.ncols();
        let slots = self.slots();
        debug_assert_eq!(buf.len(), slots * s);
        let local_rows = local.nrows();
        for (slot, &(row, sign)) in self.samples.iter().enumerate() {
            if row < row_offset || row >= row_offset + local_rows {
                continue;
            }
            let i = row - row_offset;
            for col in 0..s {
                let v = local.col(col)[i];
                // Avoid writing -0.0: a negative-zero slot would flip to
                // +0.0 when other ranks' zeros are added, breaking the
                // bitwise partition-invariance guarantee.
                buf[col * slots + slot] = if v == 0.0 { 0.0 } else { sign * v };
            }
        }
    }

    /// Combine a reduced slot table into the replicated `c×s` sketched
    /// panel, summing each sketch row's slots in fixed slot order.
    pub(crate) fn combine_slots(&self, buf: &[f64], s: usize) -> dense::Matrix {
        let slots = self.slots();
        debug_assert_eq!(buf.len(), slots * s);
        dense::Matrix::from_fn(self.rows, s, |j, col| {
            let base = col * slots + j * SKETCH_NNZ_PER_ROW;
            let mut acc = 0.0;
            for t in 0..SKETCH_NNZ_PER_ROW {
                acc += buf[base + t];
            }
            acc * self.scale
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_is_deterministic_and_seed_sensitive() {
        let a = SketchOp::new(100, 16, 7);
        let b = SketchOp::new(100, 16, 7);
        assert_eq!(a.samples, b.samples);
        let c = SketchOp::new(100, 16, 8);
        assert_ne!(a.samples, c.samples);
        for &(row, sign) in &a.samples {
            assert!(row < 100);
            assert!(sign == 1.0 || sign == -1.0);
        }
    }

    #[test]
    fn for_basis_sizes_rows_per_column() {
        let cfg = SketchConfig {
            rows_per_col: 6,
            seed: 1,
        };
        let op = SketchOp::for_basis(&cfg, 500, 13);
        assert_eq!(op.rows(), 78);
        assert_eq!(op.slots(), 78 * SKETCH_NNZ_PER_ROW);
        assert_eq!(op.reduce_words(5), 78 * SKETCH_NNZ_PER_ROW * 5);
    }

    #[test]
    fn sketch_preserves_norms_approximately() {
        // JL property smoke test: ‖S·x‖ ≈ ‖x‖ for a dense vector.
        let n = 400;
        let op = SketchOp::new(n, 128, 3);
        let x = dense::Matrix::from_fn(n, 1, |i, _| ((i * 37 + 11) % 83) as f64 * 0.07 - 2.5);
        let mut buf = vec![0.0; op.slots()];
        op.fill_slots(&mut buf, &x.cols(0..1), 0);
        let sx = op.combine_slots(&buf, 1);
        let norm_x = dense::nrm2(x.col(0));
        let norm_sx = dense::nrm2(sx.col(0));
        let ratio = norm_sx / norm_x;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sketched norm off by {ratio}× (c=128)"
        );
    }
}
