//! s-step GMRES with the local Gauss–Seidel preconditioner of the paper's
//! Fig. 13 (block Jacobi across ranks, multicolor Gauss–Seidel inside each
//! block), against the unpreconditioned solve.
//!
//! Run with `cargo run --release --example preconditioned_sstep`.

use sparse::laplace2d_9pt;
use ssgmres::{GmresConfig, MulticolorGaussSeidel, OrthoKind, Preconditioner, SStepGmres};

fn main() {
    let nx = 150;
    let a = laplace2d_9pt(nx, nx);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let solver = SStepGmres::new(GmresConfig {
        restart: 60,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 60 },
        ..GmresConfig::default()
    });

    println!("2D Laplace (9-pt) {nx}x{nx}, s-step GMRES with the two-stage orthogonalization\n");
    println!(
        "{:<34} {:>8} {:>8} {:>12} {:>10}",
        "preconditioner", "iters", "restarts", "relres", "converged"
    );

    let mc = MulticolorGaussSeidel::new(&a, 2);
    let preconds: [(&str, &dyn Preconditioner); 2] = [
        ("none", &ssgmres::Identity),
        ("multicolor Gauss-Seidel (2)", &mc),
    ];
    let mut baseline_iters = 0usize;
    for (label, p) in preconds {
        let (x, result) = solver.solve_serial_preconditioned(&a, &b, p);
        if baseline_iters == 0 {
            baseline_iters = result.iterations;
        }
        let max_err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        println!(
            "{:<34} {:>8} {:>8} {:>12.2e} {:>10}   (max |x-1| = {:.1e}, {:.1}x fewer iters)",
            label,
            result.iterations,
            result.restarts,
            result.final_relres[0],
            result.converged,
            max_err,
            baseline_iters as f64 / result.iterations as f64,
        );
    }
    println!(
        "\nAs in the paper's Fig. 13, the preconditioner reduces the iteration count while the\n\
         per-iteration orthogonalization advantage of the two-stage scheme is unchanged."
    );
    println!("Multicolor Gauss-Seidel used {} colors.", mc.num_colors());
}
