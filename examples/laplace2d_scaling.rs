//! A distributed solve of the 9-point 2D Laplace problem (the workload of
//! the paper's Table III) on 4 simulated ranks, printing each rank's
//! iteration count and orthogonalization all-reduces.
//!
//! Run with `cargo run --release --example laplace2d_scaling`.

use distsim::{run_ranks, Communicator, DistCsr};
use sparse::{block_row_partition, laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres};
use std::sync::Arc;

fn main() {
    let nx = 120;
    // Each rank assembles only its own row block straight from the stencil
    // row source (streamed assembly, O(nnz/P + halo) peak per rank); the
    // replicated matrix is built once here only to form the right-hand side.
    let rows = Laplace2d9ptRows { nx, ny: nx };
    let a = laplace2d_9pt(nx, nx);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let nranks = 4;
    let part = block_row_partition(a.nrows(), nranks);
    println!("Distributed solve of 2D Laplace {nx}x{nx} on {nranks} simulated ranks...");
    let results = run_ranks(nranks, |comm| {
        let rank = comm.rank();
        let (lo, hi) = part.range(rank);
        let comm_dyn: Arc<dyn Communicator> = comm.clone();
        let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
        let mut x = vec![0.0; hi - lo];
        let solver = SStepGmres::new(GmresConfig {
            restart: 60,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 60 },
            ..GmresConfig::default()
        });
        let result = solver.solve(&dist, &Identity, &b[lo..hi], &mut x);
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        (
            rank,
            result.converged,
            result.iterations,
            result.comm_ortho.allreduces,
            err,
        )
    });
    for (rank, converged, iters, reduces, err) in &results {
        println!(
            "  rank {rank}: converged={converged} iters={iters} ortho-reduces={reduces} max|x-1|={err:.2e}"
        );
    }
    assert!(
        results.iter().all(|r| r.1),
        "distributed solve must converge"
    );
}
