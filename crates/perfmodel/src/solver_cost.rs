//! Full solver time estimates (the rows of Tables II–IV and Fig. 13).

use crate::kernels::KernelCosts;
use crate::machine::MachineModel;
use crate::ortho_cost::{ortho_cycle_cost, SchemeKind};

/// Description of a linear-system workload (per the paper's tables).
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// Problem name (e.g. "Laplace2D", "atmosmodl").
    pub name: String,
    /// Global number of unknowns.
    pub n: usize,
    /// Global number of matrix nonzeros.
    pub nnz: usize,
    /// Average ghost values imported per rank per SpMV (halo volume).
    pub halo_words_per_rank: usize,
    /// Average number of neighbour ranks per rank.
    pub neighbors_per_rank: usize,
}

impl ProblemSpec {
    /// A 2D Laplace problem on an `nx × nx` grid with the given stencil
    /// width (5 or 9 points), distributed over `nranks` ranks in block rows.
    pub fn laplace2d(nx: usize, stencil: usize, nranks: usize) -> Self {
        let n = nx * nx;
        let nnz = n * stencil - if stencil == 5 { 4 * nx } else { 6 * nx + 4 };
        // 1D block-row distribution of a 2D grid: each interior rank imports
        // one (5-pt) or one (9-pt) grid line from each of its two neighbours.
        Self {
            name: format!("Laplace2D-{stencil}pt-{nx}x{nx}"),
            n,
            nnz,
            halo_words_per_rank: if nranks > 1 { 2 * nx } else { 0 },
            neighbors_per_rank: if nranks > 1 { 2 } else { 0 },
        }
    }

    /// A generic problem from its size and density (used for the SuiteSparse
    /// surrogates of Table IV, where the halo is estimated from the row
    /// density).
    pub fn from_density(name: &str, n: usize, nnz_per_row: f64, nranks: usize) -> Self {
        let nnz = (n as f64 * nnz_per_row) as usize;
        // Unstructured matrices partitioned by a graph partitioner: assume a
        // surface-to-volume halo of ~2·sqrt(local rows) rows' worth of
        // couplings spread over a handful of neighbours.
        let local = n / nranks.max(1);
        let halo = if nranks > 1 {
            (2.0 * (local as f64).sqrt()) as usize
        } else {
            0
        };
        Self {
            name: name.to_string(),
            n,
            nnz,
            halo_words_per_rank: halo,
            neighbors_per_rank: if nranks > 1 { 4.min(nranks - 1) } else { 0 },
        }
    }
}

/// Modeled solver times (seconds), split the way the paper's tables are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverTimes {
    /// Time in the sparse matrix–vector products (and halo exchanges).
    pub spmv: f64,
    /// Time in the preconditioner applications.
    pub precond: f64,
    /// Time in block orthogonalization.
    pub ortho: f64,
    /// Remaining time (small replicated solves, vector updates, residual
    /// computations).
    pub other: f64,
}

impl SolverTimes {
    /// Total time-to-solution.
    pub fn total(&self) -> f64 {
        self.spmv + self.precond + self.ortho + self.other
    }
}

/// Model the time-to-solution of a GMRES solve.
///
/// * `scheme` — orthogonalization scheme (and, for the standard scheme, the
///   implied step size 1);
/// * `s` — step size of the matrix-powers kernel (ignored for the standard
///   scheme);
/// * `m` — restart length;
/// * `iterations` — total iteration count of the solve (from the paper or
///   from running the actual solver);
/// * `gs_sweeps` — Gauss–Seidel sweeps per preconditioner application
///   (0 = unpreconditioned).
#[allow(clippy::too_many_arguments)]
pub fn solver_time(
    scheme: SchemeKind,
    problem: &ProblemSpec,
    machine: &MachineModel,
    nranks: usize,
    s: usize,
    m: usize,
    iterations: usize,
    gs_sweeps: usize,
) -> SolverTimes {
    assert!(nranks >= 1, "need at least one rank");
    let local_rows = problem.n / nranks;
    let local_nnz = problem.nnz / nranks;
    let costs = KernelCosts::new(machine, local_rows, nranks);
    // Per-iteration SpMV + preconditioner.
    let t_spmv_once = costs.spmv(
        local_nnz,
        problem.halo_words_per_rank,
        problem.neighbors_per_rank,
    );
    let t_precond_once = if gs_sweeps > 0 {
        gs_sweeps as f64 * costs.gs_sweep(local_nnz)
    } else {
        0.0
    };
    let spmv = iterations as f64 * t_spmv_once;
    let precond = iterations as f64 * t_precond_once;
    // Orthogonalization: per restart cycle of m vectors, scaled by the
    // number of cycles actually executed.
    let cycles = iterations as f64 / m as f64;
    let ortho_cycle = ortho_cycle_cost(scheme, &costs, m, s);
    let ortho = cycles * ortho_cycle.total();
    // Other work per cycle: residual recomputation (1 SpMV + axpy + norm),
    // solution update (GEMV over m columns + axpy), replicated least squares.
    let t_other_cycle = t_spmv_once
        + 2.0 * costs.axpy()
        + costs.dot_local()
        + costs.allreduce(1)
        + costs.gemm_update(m, 1)
        + (m * m * m) as f64 / 5.0e9;
    let other = cycles * t_other_cycle;
    SolverTimes {
        spmv,
        precond,
        ortho,
        other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_N: usize = 2000 * 2000;

    fn table3_times(scheme: SchemeKind, nodes: usize, iterations: usize) -> SolverTimes {
        let machine = MachineModel::summit_node();
        let nranks = nodes * machine.gpus_per_node;
        let problem = ProblemSpec::laplace2d(2000, 9, nranks);
        solver_time(scheme, &problem, &machine, nranks, 5, 60, iterations, 0)
    }

    #[test]
    fn problem_specs_have_expected_sizes() {
        let p = ProblemSpec::laplace2d(2000, 9, 24);
        assert_eq!(p.n, PAPER_N);
        assert!((p.nnz as f64 / p.n as f64) > 8.9 && (p.nnz as f64 / p.n as f64) <= 9.0);
        let q = ProblemSpec::from_density("atmosmodl", 1_489_752, 6.9, 96);
        assert!((q.nnz as f64 / q.n as f64 - 6.9).abs() < 0.01);
        assert!(q.halo_words_per_rank > 0);
    }

    #[test]
    fn table_iii_ordering_holds_on_32_nodes() {
        // Who wins and in which order (Table III, 32 nodes): standard is the
        // slowest, two-stage the fastest.
        let iters = 60_300;
        let std = table3_times(SchemeKind::StandardCgs2, 32, 60_251);
        let bcgs2 = table3_times(SchemeKind::Bcgs2CholQr2, 32, 60_255);
        let pip2 = table3_times(SchemeKind::BcgsPip2, 32, 60_255);
        let two = table3_times(SchemeKind::TwoStage { bs: 60 }, 32, iters);
        assert!(two.ortho < pip2.ortho);
        assert!(pip2.ortho < bcgs2.ortho);
        assert!(bcgs2.ortho < std.ortho);
        assert!(two.total() < pip2.total());
        assert!(pip2.total() < bcgs2.total());
        assert!(bcgs2.total() < std.total());
    }

    #[test]
    fn ortho_speedup_factors_are_in_the_papers_range() {
        // Paper, 32 nodes: ortho speedup of s-step over standard ≈ 2.1×, of
        // two-stage over standard ≈ 5.4×.  The model should land within a
        // factor ~2 of those ratios.
        let std = table3_times(SchemeKind::StandardCgs2, 32, 60_251);
        let bcgs2 = table3_times(SchemeKind::Bcgs2CholQr2, 32, 60_255);
        let two = table3_times(SchemeKind::TwoStage { bs: 60 }, 32, 60_300);
        let s_bcgs2 = std.ortho / bcgs2.ortho;
        let s_two = std.ortho / two.ortho;
        assert!(
            s_bcgs2 > 1.3 && s_bcgs2 < 5.0,
            "bcgs2 ortho speedup {s_bcgs2}"
        );
        assert!(
            s_two > 2.5 && s_two < 12.0,
            "two-stage ortho speedup {s_two}"
        );
        assert!(s_two > s_bcgs2);
    }

    #[test]
    fn spmv_time_is_scheme_independent() {
        let a = table3_times(SchemeKind::StandardCgs2, 8, 10_000);
        let b = table3_times(SchemeKind::TwoStage { bs: 60 }, 8, 10_000);
        assert!((a.spmv - b.spmv).abs() < 1e-12);
    }

    #[test]
    fn strong_scaling_reduces_per_node_work_but_not_latency() {
        // Total time decreases with node count but the ortho fraction grows
        // (Fig. 10's message).
        let std1 = table3_times(SchemeKind::StandardCgs2, 1, 60_251);
        let std32 = table3_times(SchemeKind::StandardCgs2, 32, 60_251);
        assert!(std32.total() < std1.total());
        let frac1 = std1.ortho / std1.total();
        let frac32 = std32.ortho / std32.total();
        assert!(frac32 > frac1, "ortho fraction must grow with node count");
    }

    #[test]
    fn preconditioner_adds_cost_but_preserves_ordering() {
        let machine = MachineModel::summit_node();
        let nranks = 96;
        let problem = ProblemSpec::laplace2d(2000, 9, nranks);
        let with_gs =
            |scheme, iters| solver_time(scheme, &problem, &machine, nranks, 5, 60, iters, 2);
        let std = with_gs(SchemeKind::StandardCgs2, 20_000);
        let two = with_gs(SchemeKind::TwoStage { bs: 60 }, 20_000);
        assert!(std.precond > 0.0 && two.precond > 0.0);
        assert!(two.total() < std.total());
    }

    #[test]
    fn table_ii_shape_bs_sweep_improves_total_time() {
        // Table II: on 4 Vortex GPUs, growing bs from 5 to 60 reduces the
        // orthogonalization and total times monotonically.
        let machine = MachineModel::vortex_node();
        let nranks = 4;
        let problem = ProblemSpec::laplace2d(2000, 5, nranks);
        let mut prev = f64::INFINITY;
        for bs in [5usize, 20, 40, 60] {
            let t = solver_time(
                SchemeKind::TwoStage { bs },
                &problem,
                &machine,
                nranks,
                5,
                60,
                60_300,
                0,
            );
            assert!(t.ortho < prev, "bs {bs}");
            prev = t.ortho;
        }
    }
}
