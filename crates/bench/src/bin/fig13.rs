//! Fig. 13 — time breakdown of s-step GMRES with a local Gauss–Seidel
//! preconditioner (block Jacobi with multicolor Gauss–Seidel in each
//! block), 2D Laplace (the paper's n = 2000²), bs = m.
//!
//! Real solves of a scaled-down problem on this host, with and without the
//! preconditioner: iteration counts, and the measured MPK (SpMV plus
//! preconditioner), ortho and total seconds of each preconditioned solve
//! with its speedups over standard GMRES, as the paper's figure annotates.
//!
//! With `--matrix <path.mtx>` the solves run on that file instead of the
//! built-in stencil (streamed via `load_matrix_streamed`).

use bench::cli;
use bench::{scale, timed_solve, Scale, SolveSecs, Table};
use sparse::{laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{standard_gmres_config, GmresConfig, MulticolorGaussSeidel, OrthoKind, SStepGmres};

fn main() {
    let args = cli::begin("fig13", true);
    let nx_small = match scale() {
        Scale::Paper => 300usize,
        Scale::Small => 120usize,
    };
    let s = 5;
    let m = 60;
    let gs_sweeps = 2;

    // For the built-in problem the unpreconditioned solves stream the
    // operator from the stencil row source; the replicated matrix is kept
    // for the right-hand side and the (local-block) Gauss–Seidel
    // preconditioner.  With `--matrix` the loaded file is used for both.
    let (name, a, stencil) = match args.load_matrix() {
        Some((name, a)) => (name, a, None),
        None => (
            format!("2D Laplace {nx_small}x{nx_small}"),
            laplace2d_9pt(nx_small, nx_small),
            Some(Laplace2d9ptRows {
                nx: nx_small,
                ny: nx_small,
            }),
        ),
    };
    println!("matrix {name} ({} rows, {} nnz)", a.nrows(), a.nnz());
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let gs = MulticolorGaussSeidel::new(&a, gs_sweeps);
    let mut header = vec![
        "variant",
        "iters (no precond)",
        "iters (GS precond)",
        "colors",
        "converged",
    ];
    header.extend(SolveSecs::HEADER);
    let mut table = Table::new(&header);
    let mut baseline = None;
    let variants: [(&str, Option<OrthoKind>); 4] = [
        ("standard", None),
        ("s-step", Some(OrthoKind::Bcgs2CholQr2)),
        ("bcgs-pip2", Some(OrthoKind::BcgsPip2)),
        ("two-stage", Some(OrthoKind::TwoStage { big_panel: m })),
    ];
    for (label, ortho) in &variants {
        let config = match ortho {
            None => GmresConfig {
                restart: m,
                tol: 1e-6,
                ..standard_gmres_config()
            },
            Some(kind) => GmresConfig {
                restart: m,
                step_size: s,
                tol: 1e-6,
                ortho: *kind,
                ..GmresConfig::default()
            },
        };
        let solver = SStepGmres::new(config);
        let (_, plain) = match &stencil {
            Some(rows) => solver.solve_serial(rows, &b),
            None => solver.solve_serial(&a, &b),
        };
        let (_, precond, secs) = timed_solve(|| solver.solve_serial_preconditioned(&a, &b, &gs));
        let baseline = *baseline.get_or_insert(secs);
        let mut row = vec![
            label.to_string(),
            format!("{}", plain.iterations),
            format!("{}", precond.iterations),
            format!("{}", gs.num_colors()),
            if precond.converged { "yes" } else { "NO" }.into(),
        ];
        row.extend(secs.cells(&baseline));
        table.push(row);
    }
    table.print(&format!(
        "Fig. 13: measured solves, {name}, multicolor Gauss-Seidel ({gs_sweeps} sweeps); times of the preconditioned solve"
    ));

    println!(
        "\nExpected shape (paper Fig. 13): the preconditioner adds a scheme-independent cost per\n\
         iteration, so the orthogonalization speedups persist while the total-time speedups are\n\
         somewhat diluted relative to the unpreconditioned runs."
    );
    args.finish();
}
