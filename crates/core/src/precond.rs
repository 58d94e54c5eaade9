//! Local (communication-free) preconditioners.
//!
//! The paper applies the preconditioner inside the matrix-powers kernel,
//! "with neighborhood communication and preconditioner in sequence", and in
//! Fig. 13 uses a local Gauss–Seidel preconditioner — block Jacobi across
//! ranks with multicolor Gauss–Seidel sweeps inside each rank's diagonal
//! block.  That is [`MulticolorGaussSeidel`], the one preconditioner here
//! beside [`Identity`]: it acts on the *local* part of a vector only and
//! never communicates, exactly like its Trilinos/Ifpack2 counterpart in
//! the paper's runs.

use sparse::{greedy_coloring, Coloring, Csr};

/// A right preconditioner `M⁻¹` applied to local vectors.
pub trait Preconditioner: Send + Sync {
    /// `out = M⁻¹·input` (both are local blocks of global vectors).
    fn apply(&self, input: &[f64], out: &mut [f64]);

    /// `M⁻¹` applied to each of the `k` columns of `input` (column-major,
    /// local blocks one after another).  The result lies in `out`, or is
    /// `input` itself for a preconditioner that leaves vectors as they
    /// are.  The default applies [`apply`](Self::apply) column by column.
    fn apply_block<'a>(&self, input: &'a [f64], k: usize, out: &'a mut Vec<f64>) -> &'a [f64] {
        assert!(k >= 1, "apply_block needs at least one column");
        let n = input.len() / k;
        out.resize(input.len(), 0.0);
        for q in 0..k {
            let col = q * n..(q + 1) * n;
            self.apply(&input[col.clone()], &mut out[col]);
        }
        out
    }
}

/// The identity preconditioner (unpreconditioned GMRES).
#[derive(Debug, Default)]
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, input: &[f64], out: &mut [f64]) {
        out.copy_from_slice(input);
    }

    /// The input itself: no copy.
    fn apply_block<'a>(&self, input: &'a [f64], _k: usize, _out: &'a mut Vec<f64>) -> &'a [f64] {
        input
    }
}

/// Block Jacobi across ranks with multicolor Gauss–Seidel sweeps inside
/// the local diagonal block: rows of the same color are updated together
/// (in parallel on a GPU; here the colors reproduce the iteration order
/// and operation count of the Kokkos-Kernels smoother used in Fig. 13).
#[derive(Debug)]
pub struct MulticolorGaussSeidel {
    local: Csr,
    coloring: Coloring,
    inv_diag: Vec<f64>,
    sweeps: usize,
}

impl MulticolorGaussSeidel {
    /// Build from the rank's local matrix (columns outside `0..local_rows`
    /// — i.e. ghost couplings — are dropped, which is exactly the block-
    /// Jacobi approximation).  `sweeps` forward sweeps, color by color, are
    /// applied per preconditioner application.
    pub fn new(local: &Csr, sweeps: usize) -> Self {
        assert!(sweeps >= 1, "need at least one sweep");
        let n = local.nrows();
        let mut triplets = Vec::new();
        for i in 0..n {
            let (cols, vals) = local.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c < n {
                    triplets.push(sparse::Triplet {
                        row: i,
                        col: c,
                        val: v,
                    });
                }
            }
        }
        let local_block = Csr::from_triplets(n, n, &triplets);
        let coloring = greedy_coloring(&local_block);
        let inv_diag = local_block
            .diagonal()
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Self {
            local: local_block,
            coloring,
            inv_diag,
            sweeps,
        }
    }

    /// Number of colors the local block required.
    pub fn num_colors(&self) -> usize {
        self.coloring.num_colors()
    }
}

impl Preconditioner for MulticolorGaussSeidel {
    fn apply(&self, input: &[f64], out: &mut [f64]) {
        let n = self.local.nrows();
        assert_eq!(input.len(), n, "multicolor GS: length mismatch");
        for o in out.iter_mut() {
            *o = 0.0;
        }
        for _ in 0..self.sweeps {
            for color_rows in &self.coloring.rows_by_color {
                // All rows of one color are independent; update them from the
                // current state of `out`.
                for &i in color_rows {
                    let (cols, vals) = self.local.row(i);
                    let mut acc = input[i];
                    for (&c, &v) in cols.iter().zip(vals) {
                        if c != i {
                            acc -= v * out[c];
                        }
                    }
                    out[i] = acc * self.inv_diag[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::laplace2d_5pt;

    fn residual_norm(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.spmv_alloc(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn identity_copies_input() {
        let p = Identity;
        let x = vec![1.0, -2.0, 3.0];
        let mut y = vec![0.0; 3];
        p.apply(&x, &mut y);
        assert_eq!(x, y);
        let mut unused = Vec::new();
        assert!(std::ptr::eq(p.apply_block(&x, 1, &mut unused), &x[..]));
        assert!(unused.is_empty(), "no copy is made");
    }

    #[test]
    fn apply_block_is_apply_per_column() {
        let a = laplace2d_5pt(6, 6);
        let gs = MulticolorGaussSeidel::new(&a, 2);
        let block: Vec<f64> = (0..3 * 36).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let mut out = Vec::new();
        let z = gs.apply_block(&block, 3, &mut out).to_vec();
        for (q, col) in block.chunks(36).enumerate() {
            let mut one = vec![0.0; 36];
            gs.apply(col, &mut one);
            assert_eq!(z[q * 36..(q + 1) * 36], one[..], "column {q}");
        }
    }

    #[test]
    fn more_gs_sweeps_reduce_residual_further() {
        let a = laplace2d_5pt(8, 8);
        let b: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 * 0.1).collect();
        let mut prev = f64::INFINITY;
        for sweeps in [1, 2, 4, 8] {
            let gs = MulticolorGaussSeidel::new(&a, sweeps);
            let mut x = vec![0.0; 64];
            gs.apply(&b, &mut x);
            let r = residual_norm(&a, &x, &b);
            assert!(r < prev, "sweeps {sweeps}: {r} >= {prev}");
            prev = r;
        }
    }

    #[test]
    fn multicolor_gs_is_gauss_seidel_in_color_order() {
        // Multicolor Gauss–Seidel is exactly Gauss–Seidel with the rows
        // visited color by color; verify against a straightforward reference
        // sweep in that ordering.
        let a = laplace2d_5pt(12, 12);
        let b: Vec<f64> = (0..144)
            .map(|i| ((i * 5) % 11) as f64 * 0.2 - 1.0)
            .collect();
        let mc = MulticolorGaussSeidel::new(&a, 2);
        assert_eq!(mc.num_colors(), 2);
        let mut x_mc = vec![0.0; 144];
        mc.apply(&b, &mut x_mc);
        // Reference: same sweeps, same visiting order, naive implementation.
        let coloring = sparse::greedy_coloring(&a);
        let diag = a.diagonal();
        let mut x_ref = vec![0.0; 144];
        for _ in 0..2 {
            for rows in &coloring.rows_by_color {
                for &i in rows {
                    let (cols, vals) = a.row(i);
                    let mut acc = b[i];
                    for (&c, &v) in cols.iter().zip(vals) {
                        if c != i {
                            acc -= v * x_ref[c];
                        }
                    }
                    x_ref[i] = acc / diag[i];
                }
            }
        }
        for (p, q) in x_mc.iter().zip(&x_ref) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn gauss_seidel_error_contracts_in_energy_norm() {
        // Gauss–Seidel is convergent in the A-norm for SPD matrices: the
        // error after more sweeps must be smaller in the energy norm.
        let a = laplace2d_5pt(10, 10);
        let x_exact: Vec<f64> = (0..100).map(|i| ((i * 3) % 7) as f64 * 0.5 - 1.0).collect();
        let b = a.spmv_alloc(&x_exact);
        let energy = |x: &[f64]| {
            let e: Vec<f64> = x.iter().zip(&x_exact).map(|(p, q)| p - q).collect();
            let ae = a.spmv_alloc(&e);
            e.iter().zip(&ae).map(|(p, q)| p * q).sum::<f64>().sqrt()
        };
        let mut prev = f64::INFINITY;
        for sweeps in [1usize, 2, 4, 8] {
            let mc = MulticolorGaussSeidel::new(&a, sweeps);
            let mut x = vec![0.0; 100];
            mc.apply(&b, &mut x);
            let e = energy(&x);
            assert!(e < prev, "sweeps {sweeps}: energy error {e} >= {prev}");
            prev = e;
        }
    }

    #[test]
    fn ghost_couplings_are_ignored() {
        // A local block whose rows reference ghost columns (index >= nrows):
        // the preconditioners must drop them rather than panic.
        let local = Csr::from_triplets(
            2,
            4,
            &[
                sparse::Triplet {
                    row: 0,
                    col: 0,
                    val: 2.0,
                },
                sparse::Triplet {
                    row: 0,
                    col: 3,
                    val: -1.0,
                }, // ghost
                sparse::Triplet {
                    row: 1,
                    col: 1,
                    val: 2.0,
                },
                sparse::Triplet {
                    row: 1,
                    col: 2,
                    val: -1.0,
                }, // ghost
            ],
        );
        let gs = MulticolorGaussSeidel::new(&local, 1);
        let mut out = vec![0.0; 2];
        gs.apply(&[2.0, 4.0], &mut out);
        assert_eq!(out, vec![1.0, 2.0]);
    }
}
