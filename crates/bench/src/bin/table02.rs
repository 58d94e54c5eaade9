//! Table II — time-to-solution of the two-stage approach for different
//! values of the second step size `bs` (2D Laplace; the paper ran it on 4
//! V100 GPUs on Vortex).
//!
//! Real solves of a scaled-down 2D Laplace problem on this host: iteration
//! counts, orthogonalization reduce counts, and the measured MPK, ortho and
//! total seconds of each variant with its speedup over standard GMRES.
//!
//! On the built-in problem the binary asserts the shape it can check
//! exactly: every row converges, and the two-stage ortho reduces fall
//! strictly as `bs` grows.  No assertion depends on a timing.

use bench::{scale, timed_solve, Scale, SolveSecs, Table};
use sparse::{laplace2d_5pt, Csr, Laplace2d5ptRows};
use ssgmres::{standard_gmres_config, GmresConfig, OrthoKind, SStepGmres};

fn main() {
    let args = bench::cli::begin("table02", true);
    let nx_small = match scale() {
        Scale::Paper => 400usize,
        Scale::Small => 160usize,
    };
    let m = 60;
    let s = 5;
    // The measured part runs either the built-in 2D Laplace surrogate or a
    // real Matrix Market file (`--matrix`), with the solution pinned to all
    // ones in both cases so the error column stays meaningful.
    let (name, a): (String, Csr) = match args.load_matrix() {
        Some(loaded) => loaded,
        None => (
            format!("2D Laplace {nx_small}x{nx_small}"),
            laplace2d_5pt(nx_small, nx_small),
        ),
    };
    let m = m.min(a.nrows());
    let s = s.min(m);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);

    let mut measured = Vec::new();
    let mut run = |label: String, config: GmresConfig| {
        let solver = SStepGmres::new(config);
        let (x, result, secs) = timed_solve(|| match &args.matrix {
            // File mode keeps the replicated matrix it already streamed in.
            Some(_) => solver.solve_serial(&a, &b),
            // Surrogate mode streams the operator from its row provider, so
            // no global matrix is materialized for the solve itself.
            None => solver.solve_serial(
                &Laplace2d5ptRows {
                    nx: nx_small,
                    ny: nx_small,
                },
                &b,
            ),
        });
        let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        measured.push((label, result, secs, err));
    };
    run(
        "GMRES (standard, CGS2)".into(),
        GmresConfig {
            restart: m,
            tol: 1e-6,
            ..standard_gmres_config()
        },
    );
    run(
        "s-step (BCGS2-CholQR2)".into(),
        GmresConfig {
            restart: m,
            step_size: s,
            tol: 1e-6,
            ortho: OrthoKind::Bcgs2CholQr2,
            ..GmresConfig::default()
        },
    );
    for bs in [5usize, 20, 40, 60] {
        let bs = bs.min(m);
        run(
            format!("two-stage bs={bs}"),
            GmresConfig {
                restart: m,
                step_size: s,
                tol: 1e-6,
                ortho: OrthoKind::TwoStage { big_panel: bs },
                ..GmresConfig::default()
            },
        );
    }
    let baseline = measured[0].2;
    let mut header = vec![
        "variant",
        "# iters",
        "ortho reduces",
        "final relres",
        "max |x-1|",
        "converged",
    ];
    header.extend(SolveSecs::HEADER);
    let mut table = Table::new(&header);
    for (label, result, secs, err) in &measured {
        let mut row = vec![
            label.clone(),
            format!("{}", result.iterations),
            format!("{}", result.comm_ortho.allreduces),
            format!("{:.1e}", result.final_relres[0]),
            format!("{err:.1e}"),
            if result.converged { "yes" } else { "NO" }.into(),
        ];
        row.extend(secs.cells(&baseline));
        table.push(row);
    }
    table.print(&format!(
        "Table II: measured solves of {name} (solution = all ones)"
    ));
    println!(
        "\nExpected shape (paper Table II): ortho reduces, and with them ortho time, fall\n\
         as bs grows, with the best total time at bs = m = 60; MPK time is essentially unchanged."
    );
    // The surrogate's shape, asserted on counts only.  A `--matrix` file may
    // clamp bs to m, which repeats the last rows.
    if args.matrix.is_none() {
        assert!(
            measured.iter().all(|(_, result, _, _)| result.converged),
            "every Table II row must converge"
        );
        // The two-stage rows are the last four, in increasing bs.
        let reduces: Vec<usize> = measured[measured.len() - 4..]
            .iter()
            .map(|(_, result, _, _)| result.comm_ortho.allreduces)
            .collect();
        assert!(
            reduces.windows(2).all(|w| w[1] < w[0]),
            "two-stage ortho reduces must fall strictly with bs: {reduces:?}"
        );
    }
    args.finish();
}
