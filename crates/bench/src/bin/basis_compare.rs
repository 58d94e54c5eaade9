//! Basis-comparison experiment: monomial vs. fixed Newton vs. adaptive
//! Newton bases across step sizes `s ∈ {2, 4, 6, 8, 10}` on the 2-D Laplace
//! stencil and the SuiteSparse-like surrogates, writing `BENCH_basis.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin basis_compare          # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin basis_compare   # CI mode
//! cargo run -p bench --release --bin basis_compare -- --matrix A.mtx
//! ```
//!
//! With `--matrix <path.mtx>` the sweep runs on that file instead of the
//! built-in problems (streamed through `read_matrix_market_row_block`, so
//! only one row block is ever materialized per pass).
//!
//! Per (matrix, s, basis) the experiment records:
//!
//! * `kappa` — condition number of the column-normalized `s+1`-column
//!   matrix-powers basis ([`ssgmres::shifts::basis_condition_number`],
//!   Jacobi SVD) under the shifts that basis actually uses;
//! * `iterations` / `restarts` / `converged` — a full two-stage solve;
//! * `ortho_fallbacks` — shifted-CholQR remedial passes the two-stage
//!   orthogonalization had to take (a conditioning distress signal);
//! * `allreduces_total` / `allreduces_ortho` — reduction counts of the
//!   solve.  Shifts add none (they are applied locally; harvesting reads
//!   the replicated Hessenberg), so a basis moves them only through the
//!   iterations and two-stage flushes its solve takes.
//!
//! The headline acceptance check (asserted here and pinned as a regression
//! in `tests/solver_cross_crate.rs`): at `s = 8` on the 2-D Laplace stencil
//! the adaptive Newton basis has strictly lower `kappa` than monomial.
//! The expected shape: monomial `kappa` grows by orders of magnitude with
//! `s`, while newton and adaptive stay orders of magnitude below it at
//! large `s`; at `s ≤ 4` the shifts buy nothing on the stencil.  Every
//! value is deterministic: CI reruns the full mode and diffs the file
//! against the committed one.

use bench::Table;
use sparse::{laplace2d_5pt, scale_rows_cols_by_max, suitesparse_surrogate, Csr, SUITE_SPARSE_SET};
use ssgmres::{BasisStrategy, GmresConfig, OrthoKind, SStepGmres};
use trace::JsonWriter;

bench::table_row! {
    struct Row {
        matrix: String,
        n: usize,
        s: usize,
        basis: &'static str,
        kappa: f64,
        iterations: usize,
        restarts: usize,
        converged: bool,
        ortho_fallbacks: usize,
        allreduces_total: usize,
        allreduces_ortho: usize,
        num_shifts: usize,
    }
}

fn config(s: usize, restart: usize, basis: BasisStrategy, max_iters: usize) -> GmresConfig {
    GmresConfig {
        restart,
        step_size: s,
        tol: 1e-6,
        max_iters,
        ortho: OrthoKind::TwoStage { big_panel: restart },
        basis,
        ..GmresConfig::default()
    }
}

/// Harvest fixed Newton shifts from a short warm-up cycle at a conservative
/// step size (the monomial warm-up must itself survive, so it runs at
/// `min(s, 4)`), capped at `s` shifts.
fn warmup_shifts(a: &Csr, b: &[f64], s: usize, restart: usize) -> Option<Vec<f64>> {
    let warm = SStepGmres::new(GmresConfig {
        max_restarts: 1,
        tol: 1e-30,
        ..config(
            s.min(4),
            restart,
            BasisStrategy::Adaptive { max_shifts: s },
            10_000,
        )
    })
    .solve_serial(a, b)
    .1;
    warm.last_harvest
}

fn run_matrix(rows: &mut Vec<Row>, name: &str, a: &Csr, svals: &[usize], max_iters: usize) {
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let solve = |s, restart, basis| {
        SStepGmres::new(config(s, restart, basis, max_iters))
            .solve_serial(a, &b)
            .1
    };
    for &s in svals {
        let restart = 30.max(3 * s);
        // Each run with the shifts its basis used (none: monomial).
        let mut runs = vec![(
            "monomial",
            Vec::new(),
            solve(s, restart, BasisStrategy::Monomial),
        )];
        // Fixed Newton shifts from a warm-up oracle.  When the oracle
        // yields nothing (warm-up breakdown, or every Ritz value deduped
        // to zero) a "newton" row would be a bitwise duplicate of the
        // monomial one under a misleading label — skip it instead.
        match warmup_shifts(a, &b, s, restart) {
            Some(fixed) if !fixed.is_empty() => {
                let shifts = fixed.clone();
                runs.push((
                    "newton",
                    fixed,
                    solve(s, restart, BasisStrategy::Newton { shifts }),
                ));
            }
            _ => eprintln!("  {name}: s={s} warm-up harvest failed; skipping the newton row"),
        }
        // Adaptive: in-solver re-harvesting after every restart.
        let adaptive = solve(s, restart, BasisStrategy::adaptive());
        runs.push((
            "adaptive",
            adaptive.last_harvest.clone().unwrap_or_default(),
            adaptive,
        ));
        for (basis, shifts, result) in runs {
            let num_shifts = shifts.len();
            rows.push(Row {
                matrix: name.to_string(),
                n: a.nrows(),
                s,
                basis,
                kappa: ssgmres::shifts::basis_condition_number(a, &shifts, s, &b),
                iterations: result.iterations,
                restarts: result.restarts,
                converged: result.converged,
                ortho_fallbacks: result.ortho_fallbacks,
                allreduces_total: result.comm_total.allreduces,
                allreduces_ortho: result.comm_ortho.allreduces,
                num_shifts,
            });
        }
        eprintln!("  {name}: s={s} done");
    }
}

fn main() {
    let args = bench::cli::begin("basis_compare", true);
    let quick = bench::quick();
    let svals: &[usize] = if quick { &[2, 8] } else { &[2, 4, 6, 8, 10] };
    let (lap_nx, surrogate_n, max_iters) = if quick {
        (30usize, Some(1_200usize), 10_000usize)
    } else {
        (40, Some(2_000), 30_000)
    };
    let mut rows = Vec::new();

    if let Some((name, a)) = args.load_matrix() {
        // File mode: sweep the provided matrix only, streamed from disk.
        eprintln!("matrix {name} ({} rows, {} nnz) ...", a.nrows(), a.nnz());
        let file_svals: Vec<usize> = svals
            .iter()
            .copied()
            .filter(|&s| 3 * s <= a.nrows())
            .collect();
        run_matrix(&mut rows, &name, &a, &file_svals, max_iters);
    } else {
        eprintln!("2-D Laplace stencil ({lap_nx}x{lap_nx}) ...");
        let lap = laplace2d_5pt(lap_nx, lap_nx);
        run_matrix(&mut rows, "laplace2d_5pt", &lap, svals, max_iters);

        let surrogate_names: &[&str] = if quick {
            &["atmosmodl"]
        } else {
            &["atmosmodl", "ecology2", "thermal2"]
        };
        for name in surrogate_names {
            if let Some(spec) = SUITE_SPARSE_SET.iter().find(|s| s.name == *name) {
                eprintln!("suitelike surrogate {name} ...");
                let raw = suitesparse_surrogate(spec, surrogate_n, 9);
                let a = scale_rows_cols_by_max(&raw);
                run_matrix(&mut rows, name, &a, svals, max_iters);
            }
        }
    }

    let table = Table::of(&rows);
    table.print("basis comparison: monomial vs newton vs adaptive");
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "basis_compare")
        .field("quick", quick)
        .key("results");
    table.write_json(&mut w);
    w.end_object();
    bench::emit("BENCH_basis.json", &w.finish());
    eprintln!("wrote BENCH_basis.json ({} rows)", rows.len());

    // Headline acceptance check: s = 8 on the Laplace stencil, the adaptive
    // Newton basis must be strictly better conditioned than monomial.
    let find = |basis: &str| {
        rows.iter()
            .find(|r| r.matrix == "laplace2d_5pt" && r.s == 8 && r.basis == basis)
            .map(|r| r.kappa)
    };
    if let (Some(mono), Some(adaptive)) = (find("monomial"), find("adaptive")) {
        println!(
            "\nheadline: s=8 laplace2d kappa(monomial) = {}, kappa(adaptive) = {} ({:.1}x lower)",
            bench::sci(mono),
            bench::sci(adaptive),
            mono / adaptive
        );
        assert!(
            adaptive < mono,
            "acceptance: adaptive basis must be strictly better conditioned at s=8 on laplace2d"
        );
    }
    args.finish();
}
