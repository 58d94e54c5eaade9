//! Quickstart: solve a 2D Laplace system with s-step GMRES and the
//! two-stage block orthogonalization, and compare it against standard
//! GMRES.
//!
//! Run with `cargo run --release --example quickstart`.

use sparse::laplace2d_5pt;
use ssgmres::{standard_gmres_config, GmresConfig, OrthoKind, SStepGmres};

fn main() {
    // A 200x200 2D Laplace problem with the solution fixed to all ones.
    let nx = 200;
    let a = laplace2d_5pt(nx, nx);
    let x_true = vec![1.0; a.nrows()];
    let b = a.spmv_alloc(&x_true);
    println!(
        "Problem: 2D Laplace {nx}x{nx} ({} unknowns, {} nonzeros)",
        a.nrows(),
        a.nnz()
    );

    // Standard GMRES(60) with column-wise CGS2 — the paper's baseline.
    let standard = SStepGmres::new(GmresConfig {
        restart: 60,
        tol: 1e-8,
        ..standard_gmres_config()
    });
    let (x_std, res_std) = standard.solve_serial(&a, &b);

    // s-step GMRES(60) with s = 5 and the two-stage orthogonalization
    // (bs = m) — the paper's contribution.
    let two_stage = SStepGmres::new(GmresConfig {
        restart: 60,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 60 },
        ..GmresConfig::default()
    });
    let (x_two, res_two) = two_stage.solve_serial(&a, &b);

    let max_err = |x: &[f64]| {
        x.iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
    };
    println!(
        "\n{:<28} {:>10} {:>14} {:>14} {:>12}",
        "solver", "# iters", "ortho reduces", "final relres", "max |x-1|"
    );
    println!(
        "{:<28} {:>10} {:>14} {:>14.2e} {:>12.2e}",
        "standard GMRES + CGS2",
        res_std.iterations,
        res_std.comm_ortho.allreduces,
        res_std.final_relres[0],
        max_err(&x_std)
    );
    println!(
        "{:<28} {:>10} {:>14} {:>14.2e} {:>12.2e}",
        "s-step GMRES + two-stage",
        res_two.iterations,
        res_two.comm_ortho.allreduces,
        res_two.final_relres[0],
        max_err(&x_two)
    );
    let reduction = res_std.comm_ortho.allreduces as f64 / res_two.comm_ortho.allreduces as f64;
    println!(
        "\nBoth converge to the same solution; the two-stage scheme needed {reduction:.1}x fewer \
         global reductions for orthogonalization — the quantity that dominates at scale (paper, Table III)."
    );
}
