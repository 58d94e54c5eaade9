//! Solve SuiteSparse-like workloads (the Table IV set) with every
//! orthogonalization variant and report iteration counts and
//! synchronization counts.
//!
//! If you have the real SuiteSparse matrices as Matrix Market files, pass a
//! path: `cargo run --release --example suitesparse_like -- path/to/matrix.mtx`
//! — otherwise the built-in synthetic surrogates are used.

use sparse::{
    read_matrix_market, scale_rows_cols_by_max, suitesparse_surrogate, Csr, SUITE_SPARSE_SET,
};
use ssgmres::{standard_gmres_config, GmresConfig, OrthoKind, SStepGmres};

fn solve_all(name: &str, a: &Csr) {
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    println!(
        "\n{name}: n = {}, nnz/n = {:.1}",
        a.nrows(),
        a.nnz() as f64 / a.nrows() as f64
    );
    println!(
        "  {:<22} {:>8} {:>14} {:>12} {:>10}",
        "variant", "iters", "ortho reduces", "relres", "converged"
    );
    let variants: [(&str, GmresConfig); 4] = [
        (
            "standard CGS2",
            GmresConfig {
                restart: 60,
                tol: 1e-6,
                max_iters: 60_000,
                ..standard_gmres_config()
            },
        ),
        (
            "s-step BCGS2-CholQR2",
            GmresConfig {
                restart: 60,
                step_size: 5,
                tol: 1e-6,
                max_iters: 60_000,
                ortho: OrthoKind::Bcgs2CholQr2,
                ..GmresConfig::default()
            },
        ),
        (
            "s-step BCGS-PIP2",
            GmresConfig {
                restart: 60,
                step_size: 5,
                tol: 1e-6,
                max_iters: 60_000,
                ortho: OrthoKind::BcgsPip2,
                ..GmresConfig::default()
            },
        ),
        (
            "s-step two-stage",
            GmresConfig {
                restart: 60,
                step_size: 5,
                tol: 1e-6,
                max_iters: 60_000,
                ortho: OrthoKind::TwoStage { big_panel: 60 },
                ..GmresConfig::default()
            },
        ),
    ];
    for (label, config) in variants {
        let (_, result) = SStepGmres::new(config).solve_serial(a, &b);
        println!(
            "  {:<22} {:>8} {:>14} {:>12.2e} {:>10}",
            label,
            result.iterations,
            result.comm_ortho.allreduces,
            result.final_relres[0],
            result.converged
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        for path in &args {
            match read_matrix_market(std::path::Path::new(path)) {
                Ok(raw) => {
                    let a = scale_rows_cols_by_max(&raw);
                    solve_all(path, &a);
                }
                Err(e) => eprintln!("could not read {path}: {e}"),
            }
        }
        return;
    }
    // No files given: use the synthetic surrogates at a laptop-friendly size.
    let n = 8_000;
    for spec in SUITE_SPARSE_SET.iter().take(5) {
        let raw = suitesparse_surrogate(spec, Some(n), 7);
        let a = scale_rows_cols_by_max(&raw);
        solve_all(
            &format!("{} (surrogate, {})", spec.name, spec.description),
            &a,
        );
    }
}
