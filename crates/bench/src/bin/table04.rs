//! Table IV — solve times of the four solver variants for the 3D model
//! problems and the SuiteSparse matrices (the paper ran it on 16 Summit
//! nodes, 96 GPUs).
//!
//! Real (scaled-down) solves of the generated surrogates on this host:
//! iteration and reduce counts, convergence, and the measured MPK, ortho
//! and total seconds of each variant with its speedups over standard GMRES
//! on the same matrix.
//!
//! With `--matrix <path.mtx>` the whole surrogate set is replaced by the
//! real operator from the file.

use bench::{scale, timed_solve, Scale, SolveSecs, Table};
use sparse::{
    elasticity3d, laplace3d_7pt, scale_rows_cols_by_max, suitesparse_surrogate, Csr,
    SUITE_SPARSE_SET,
};
use ssgmres::{standard_gmres_config, GmresConfig, OrthoKind, SStepGmres};

fn workloads(args: &bench::cli::Args) -> Vec<(String, Csr)> {
    // A real Matrix Market operator replaces the whole surrogate set.
    if let Some(loaded) = args.load_matrix() {
        return vec![loaded];
    }
    let small_grid = match scale() {
        Scale::Paper => 40usize,
        Scale::Small => 14usize,
    };
    let small_n = match scale() {
        Scale::Paper => 50_000usize,
        Scale::Small => 4_000usize,
    };
    let mut out = vec![
        (
            "Laplace3D".to_string(),
            laplace3d_7pt(small_grid, small_grid, small_grid),
        ),
        (
            "Elasticity3D".to_string(),
            elasticity3d(small_grid / 2, small_grid / 2, small_grid / 2),
        ),
    ];
    for name in [
        "atmosmodl",
        "dielFilterV2real",
        "ecology2",
        "ML_Geer",
        "thermal2",
    ] {
        let spec = SUITE_SPARSE_SET.iter().find(|s| s.name == name).unwrap();
        let raw = suitesparse_surrogate(spec, Some(small_n), 5);
        let (scaled, _, _) = scale_rows_cols_by_max(&raw);
        out.push((spec.name.to_string(), scaled));
    }
    out
}

fn main() {
    let args = bench::cli::begin("table04", true);
    let s = 5;
    let m = 60;
    let variants: [(&str, Option<OrthoKind>); 4] = [
        ("standard", None),
        ("s-step", Some(OrthoKind::Bcgs2CholQr2)),
        ("bcgs-pip2", Some(OrthoKind::BcgsPip2)),
        ("two-stage", Some(OrthoKind::TwoStage { big_panel: 60 })),
    ];

    let workloads = workloads(&args);
    let mut header = vec![
        "matrix",
        "n (small)",
        "variant",
        "# iters",
        "ortho reduces",
        "converged",
    ];
    header.extend(SolveSecs::HEADER);
    let mut table = Table::new(&header);
    for (name, a) in &workloads {
        let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
        let m = m.min(a.nrows());
        let s = s.min(m);
        let mut baseline = None;
        for (label, ortho) in &variants {
            let config = match ortho {
                None => GmresConfig {
                    restart: m,
                    tol: 1e-6,
                    max_iters: 30_000,
                    ..standard_gmres_config()
                },
                Some(kind) => {
                    // Clamp the second-stage panel to the restart length so
                    // tiny --matrix operators stay valid configurations.
                    let kind = match *kind {
                        OrthoKind::TwoStage { big_panel } => OrthoKind::TwoStage {
                            big_panel: big_panel.min(m),
                        },
                        other => other,
                    };
                    GmresConfig {
                        restart: m,
                        step_size: s,
                        tol: 1e-6,
                        max_iters: 30_000,
                        ortho: kind,
                        ..GmresConfig::default()
                    }
                }
            };
            let (_, result, secs) = timed_solve(|| SStepGmres::new(config).solve_serial(a, &b));
            let baseline = *baseline.get_or_insert(secs);
            let mut row = vec![
                name.clone(),
                format!("{}", a.nrows()),
                label.to_string(),
                format!("{}", result.iterations),
                format!("{}", result.comm_ortho.allreduces),
                if result.converged { "yes" } else { "NO" }.into(),
            ];
            row.extend(secs.cells(&baseline));
            table.push(row);
        }
    }
    table.print(if args.matrix.is_some() {
        "Table IV: measured solves on the Matrix Market operator"
    } else {
        "Table IV: measured solves on scaled-down surrogates"
    });
    println!(
        "\nExpected shape (paper Table IV): orthogonalization speedups over standard GMRES of\n\
         ~1.8-2.8x (s-step), ~3.5-5.2x (BCGS-PIP2) and ~5.4-9x (two-stage), with total-time\n\
         speedups of ~1.3-1.8x, ~1.8-2.5x and ~2.2-2.9x on 96 GPUs, where the all-reduce\n\
         latency the s-step schemes save is large; denser matrices (dielFilterV2real, ML_Geer)\n\
         spend relatively more time in SpMV, so their total speedups are at the lower end."
    );
    args.finish();
}
