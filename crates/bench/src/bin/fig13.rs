//! Fig. 13 — time-per-iteration breakdown of s-step GMRES with a local
//! Gauss–Seidel preconditioner (block Jacobi with multicolor Gauss–Seidel in
//! each block), 2D Laplace n = 2000², bs = m.
//!
//! Part 1 verifies on a scaled-down problem that the multicolor
//! Gauss–Seidel-preconditioned solver converges in fewer iterations for
//! every orthogonalization variant; part 2 prints the modeled per-iteration
//! breakdown (SpMV, preconditioner, orthogonalization) with the speedups
//! over standard GMRES annotated as in the paper's figure.
//!
//! With `--matrix <path.mtx>` part 1 runs on that file instead of the
//! built-in stencil (streamed via `load_matrix_streamed`), and
//! `--partition block|nnz` selects the row partition for the report line
//! printed before the solves.

use bench::cli;
use bench::{print_table, scale, speedup, Scale};
use perfmodel::{solver_time, MachineModel, ProblemSpec, SchemeKind};
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

    // --- Part 1: real solves with and without the preconditioner. ---
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
    let report_ranks = 4;
    let part = cli::partition_rows(&a, args.partition, report_ranks);
    println!(
        "matrix {name} ({} rows, {} nnz), {} partition over {report_ranks} ranks: per-rank nnz {:?}, imbalance {:.2}",
        a.nrows(),
        a.nnz(),
        args.partition.label(),
        cli::per_rank_nnz(&a, &part),
        cli::partition_imbalance(&a, &part),
    );
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let gs = MulticolorGaussSeidel::new(&a, gs_sweeps);
    let mut measured = Vec::new();
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
        let (_, precond) = solver.solve_serial_preconditioned(&a, &b, &gs);
        measured.push(vec![
            label.to_string(),
            format!("{}", plain.iterations),
            format!("{}", precond.iterations),
            format!("{}", gs.num_colors()),
            if precond.converged {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print_table(
        &format!("Fig. 13 (part 1): measured solves, {name}, multicolor Gauss-Seidel ({gs_sweeps} sweeps)"),
        &["variant", "iters (no precond)", "iters (GS precond)", "colors", "converged"],
        &measured,
    );

    // --- Part 2: modeled per-iteration breakdown at the paper's scale. ---
    let machine = MachineModel::summit_node();
    let nranks = 16 * machine.gpus_per_node;
    let problem = ProblemSpec::laplace2d(2000, 9, nranks);
    let schemes: [(&str, SchemeKind); 4] = [
        ("standard", SchemeKind::StandardCgs2),
        ("s-step", SchemeKind::Bcgs2CholQr2),
        ("bcgs-pip2", SchemeKind::BcgsPip2),
        ("two-stage", SchemeKind::TwoStage { bs: m }),
    ];
    let times: Vec<_> = schemes
        .iter()
        .map(|(_, scheme)| solver_time(*scheme, &problem, &machine, nranks, s, m, m, gs_sweeps))
        .collect();
    let baseline = &times[0];
    let mut rows = Vec::new();
    for ((label, _), t) in schemes.iter().zip(&times) {
        let per_iter = 1.0e3 / m as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", t.spmv * per_iter),
            format!("{:.3}", t.precond * per_iter),
            format!("{:.3}", t.ortho * per_iter),
            format!("{:.3}", t.total() * per_iter),
            speedup(baseline.ortho, t.ortho),
            speedup(baseline.total(), t.total()),
        ]);
    }
    print_table(
        "Fig. 13 (part 2): modeled time per iteration (ms) with Gauss-Seidel preconditioning, 96 GPUs",
        &[
            "variant",
            "SpMV (ms)",
            "precond (ms)",
            "Ortho (ms)",
            "Total (ms)",
            "ortho speedup",
            "total speedup",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper Fig. 13): the preconditioner adds a scheme-independent cost per\n\
         iteration, so the orthogonalization speedups persist while the total-time speedups are\n\
         somewhat diluted relative to the unpreconditioned runs."
    );
    args.finish();
}
