//! Sketch-stability experiment: κ × s × scheme sweep over the
//! orthogonalization family, writing `BENCH_sketch.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin sketch                      # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin sketch        # CI mode
//! cargo run -p bench --release --bin sketch -- --matrix A.mtx
//! ```
//!
//! Each row orthogonalizes one engineered basis — log-scaled singular
//! values or a glued matrix at a target κ — panel-by-panel through one
//! scheme, and records the loss of orthogonality `‖I − QᵀQ‖`, the
//! reconstruction error of `Q·R`, the number of **distinct fallback
//! episodes**, and the measured reduce count/volume.  The acceptance
//! assertions run on the built-in sweep and pin the headline of the
//! sketched family (arXiv 2503.16717):
//!
//! * the sketched schemes (`rand-cholqr`, `two-stage-sketch`) hold `O(ε)`
//!   orthogonality over the whole κ bracket up to `1e12` — far beyond the
//!   `~1/√ε` crossover where Cholesky-on-Gram factorizations break;
//! * wherever the plain two-stage records remedial fallback episodes, the
//!   sketched variants record strictly fewer (none);
//! * they do so at **identical reduce counts per cycle**: the sketched
//!   two-stage spends exactly the plain two-stage's benign-case reduce
//!   schedule at every κ, and RandCholQR exactly BCGS-PIP2's.
//!
//! With `--matrix <path.mtx>` the sweep instead runs on the monomial
//! Krylov basis of that operator (the panel an s-step solver actually
//! produces).

use bench::cli;
use bench::Table;
use blockortho::{make_orthogonalizer, OrthoError, OrthoKind};
use dense::Matrix;
use distsim::{run_ranks, DistMultiVector, SerialComm};
use sparse::Csr;
use trace::JsonWriter;

const QUICK_KAPPAS: &[f64] = &[1e2, 1e10];
const FULL_KAPPAS: &[f64] = &[1e2, 1e6, 1e9, 1e10, 1e12];

bench::table_row! {
    struct Row {
        input: String,
        kappa: f64,
        n: usize,
        cols: usize,
        s: usize,
        scheme: &'static str,
        ok: bool,
        orthogonality_error: f64,
        reconstruction_error: f64,
        episodes: usize,
        fallback_events: usize,
        allreduces: usize,
        allreduce_words: usize,
    }
}

/// The scheme grid at one step size: plain vs sketched, both families.
fn schemes(s: usize) -> [OrthoKind; 4] {
    [
        OrthoKind::BcgsPip2,
        OrthoKind::TwoStage { big_panel: 2 * s },
        OrthoKind::TwoStageSketched { big_panel: 2 * s },
        OrthoKind::RandCholQr,
    ]
}

/// Drive `v` panel-by-panel through `kind` on a serial communicator and
/// measure everything the battery pins.
fn run_cell(input: &str, kappa: f64, v: &Matrix, s: usize, kind: OrthoKind) -> Row {
    let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
    let mut r = Matrix::zeros(v.ncols(), v.ncols());
    let mut scheme = make_orthogonalizer(kind, v.ncols());
    let before = basis.comm().stats().snapshot();
    let mut outcome: Result<(), OrthoError> = Ok(());
    let mut start = 0;
    while start < v.ncols() {
        let end = (start + s).min(v.ncols());
        if let Err(e) = scheme.orthogonalize_panel(&mut basis, start..end, &mut r) {
            outcome = Err(e);
            break;
        }
        start = end;
    }
    if outcome.is_ok() {
        outcome = scheme.finish(&mut basis, &mut r);
    }
    let delta = basis.comm().stats().snapshot().since(&before);
    let (orthogonality_error, reconstruction_error) = if outcome.is_ok() {
        let q = basis.local();
        let back = dense::gemm_nn(q, &r);
        let mut recon = 0.0f64;
        for j in 0..v.ncols() {
            for i in 0..v.nrows() {
                recon = recon.max((back[(i, j)] - v[(i, j)]).abs());
            }
        }
        (
            dense::orthogonality_error(&q.cols(0..v.ncols())),
            recon / v.max_abs(),
        )
    } else {
        (f64::NAN, f64::NAN)
    };
    Row {
        input: input.to_string(),
        kappa,
        n: v.nrows(),
        cols: v.ncols(),
        s,
        scheme: kind.label(),
        ok: outcome.is_ok(),
        orthogonality_error,
        reconstruction_error,
        episodes: scheme.fallback_count(),
        fallback_events: scheme.fallback_events().len(),
        allreduces: delta.allreduces,
        allreduce_words: delta.allreduce_words,
    }
}

/// Monomial Krylov basis `[b, Ab, A²b, …]` of a loaded operator, each
/// column normalized — the panel shape an s-step solver actually hands to
/// the orthogonalizer, with its naturally exploding condition number.
fn monomial_basis(a: &Csr, cols: usize) -> Matrix {
    let n = a.nrows();
    let mut v = Matrix::zeros(n, cols);
    let mut col = a.spmv_alloc(&vec![1.0; n]);
    for j in 0..cols {
        let norm = dense::nrm2(&col);
        let scale = if norm > 0.0 { 1.0 / norm } else { 1.0 };
        for i in 0..n {
            v[(i, j)] = col[i] * scale;
        }
        if j + 1 < cols {
            let prev: Vec<f64> = (0..n).map(|i| v[(i, j)]).collect();
            col = a.spmv_alloc(&prev);
        }
    }
    v
}

/// Distributed spot-check: the sketched two-stage on 2 simulated ranks
/// must realize the identical operator on every rank, spend the same
/// reduce schedule as the serial run, and land at the same orthogonality.
/// A basis the scheme refuses (a loaded operator's monomial basis can be
/// numerically rank deficient) is an `Err` with the breakdown, for the
/// caller to record.
fn distributed_check(v: &Matrix, s: usize) -> Result<(usize, f64), String> {
    let kind = OrthoKind::TwoStageSketched { big_panel: 2 * s };
    let serial = run_cell("spot", 0.0, v, s, kind);
    if !serial.ok {
        return Err("the serial reference run broke down".to_string());
    }
    let nranks = 2;
    let results = run_ranks(nranks, |comm| -> Result<_, OrthoError> {
        let mut basis = DistMultiVector::from_matrix(comm, v.clone());
        let mut r = Matrix::zeros(v.ncols(), v.ncols());
        let mut scheme = make_orthogonalizer(kind, v.ncols());
        let before = basis.comm().stats().snapshot();
        let mut start = 0;
        while start < v.ncols() {
            let end = (start + s).min(v.ncols());
            // A breakdown is decided on replicated data, so every rank
            // leaves the schedule at the same collective.
            scheme.orthogonalize_panel(&mut basis, start..end, &mut r)?;
            start = end;
        }
        scheme.finish(&mut basis, &mut r)?;
        let delta = basis.comm().stats().snapshot().since(&before);
        Ok((delta.allreduces, scheme.fallback_count(), r.max_abs()))
    });
    for (rank, result) in results.iter().enumerate() {
        let (reduces, episodes, rmax) = result
            .as_ref()
            .map_err(|e| format!("rank {rank} of {nranks}: {e}"))?;
        assert_eq!(
            *reduces, serial.allreduces,
            "distributed reduce schedule diverged from serial"
        );
        assert_eq!(*episodes, serial.episodes, "episode count diverged");
        assert!(rmax.is_finite());
    }
    Ok((serial.allreduces, serial.orthogonality_error))
}

fn main() {
    let args = cli::begin("sketch", true);
    let quick = bench::quick();
    let mut rows = Vec::new();
    let dist_summary: (String, Result<(usize, f64), String>);

    let svals: &[usize] = if quick { &[4] } else { &[4, 8] };

    if let Some((name, a)) = args.load_matrix() {
        // File mode: the sweep runs on the operator's monomial Krylov
        // basis; κ is whatever the operator produces (recorded per row).
        let cols = 24.min(a.nrows());
        eprintln!(
            "matrix {name} ({} rows, {} nnz): monomial basis of {cols} columns ...",
            a.nrows(),
            a.nnz()
        );
        let v = monomial_basis(&a, cols);
        let kappa = dense::cond_2(&v.view());
        for &s in svals {
            for kind in schemes(s) {
                rows.push(run_cell(&name, kappa, &v, s, kind));
            }
        }
        let outcome = distributed_check(&v, svals[0]);
        match &outcome {
            Ok((reduces, err)) => {
                eprintln!("  distributed: {reduces} allreduces, orthogonality {err:.2e}")
            }
            Err(breakdown) => eprintln!("  distributed: breakdown: {breakdown}"),
        }
        dist_summary = (name, outcome);
    } else {
        // Built-in engineered bracket: log-scaled singular values and glued
        // matrices at each target κ.  Glued inputs stay in the quick sweep:
        // they are where the plain two-stage *records episodes* (on the
        // log-scaled inputs it reports a breakdown error instead), which
        // the fewer-episodes premise below needs.
        let n = 400;
        let cols = 24;
        let kappas = if quick { QUICK_KAPPAS } else { FULL_KAPPAS };
        for &kappa in kappas {
            eprintln!("kappa {kappa:.0e} ...");
            for &s in svals {
                let log = testmat::logscaled_matrix(n, cols, kappa, 7);
                for kind in schemes(s) {
                    rows.push(run_cell("logscaled", kappa, &log, s, kind));
                }
                {
                    let glued = testmat::glued_matrix(
                        &testmat::GluedSpec {
                            nrows: n,
                            panel_cols: s,
                            num_panels: cols / s,
                            panel_cond: kappa / 10.0,
                            glue_cond: 10.0,
                        },
                        11,
                    );
                    for kind in schemes(s) {
                        rows.push(run_cell("glued", kappa, &glued, s, kind));
                    }
                }
            }
        }

        // Distributed spot-check at the headline κ.
        let spot = testmat::logscaled_matrix(n, cols, 1e10, 7);
        let (reduces, err) = distributed_check(&spot, svals[0])
            .expect("the sketched two-stage must take the headline basis on 2 ranks");
        eprintln!("  distributed: {reduces} allreduces, orthogonality {err:.2e}");
        dist_summary = ("logscaled@1e10".to_string(), Ok((reduces, err)));

        // ---- Acceptance assertions (built-in sweep only) ----
        // (a) Sketched cells deliver O(ε) orthogonality over the whole
        //     bracket, with sound reconstructions.
        let o_eps = 100.0 * f64::EPSILON;
        for r in rows
            .iter()
            .filter(|r| r.scheme == "rand-cholqr" || r.scheme == "two-stage-sketch")
        {
            assert!(
                r.ok,
                "{}/{} κ={:.0e}: sketched cell errored",
                r.input, r.scheme, r.kappa
            );
            assert!(
                r.orthogonality_error <= o_eps,
                "{}/{} κ={:.0e}: ‖I − QᵀQ‖ = {:.2e} exceeds 100ε",
                r.input,
                r.scheme,
                r.kappa,
                r.orthogonality_error
            );
            assert!(
                r.reconstruction_error < 1e-8,
                "{}/{} κ={:.0e}: reconstruction error {:.2e}",
                r.input,
                r.scheme,
                r.kappa,
                r.reconstruction_error
            );
        }
        // (b) Wherever the plain two-stage records fallback episodes, the
        //     sketched variants record strictly fewer.
        let mut plain_episode_cells = 0;
        for plain in rows
            .iter()
            .filter(|r| r.scheme == "two-stage" && r.episodes > 0)
        {
            plain_episode_cells += 1;
            for sketched in rows.iter().filter(|r| {
                (r.scheme == "two-stage-sketch" || r.scheme == "rand-cholqr")
                    && r.input == plain.input
                    && r.kappa == plain.kappa
                    && r.s == plain.s
            }) {
                assert!(
                    sketched.episodes < plain.episodes,
                    "{}/κ={:.0e}/s={}: {} has {} episodes vs plain {}",
                    plain.input,
                    plain.kappa,
                    plain.s,
                    sketched.scheme,
                    sketched.episodes,
                    plain.episodes
                );
            }
        }
        assert!(
            plain_episode_cells > 0,
            "premise: the bracket must force the plain two-stage into fallbacks somewhere"
        );
        // (c) Identical reduce counts per cycle: each sketched scheme
        //     matches its plain counterpart's *benign* reduce schedule at
        //     every κ (the plain schemes spend extra reduces when their
        //     remedial paths run — the sketched ones never do).
        for (sketched, plain) in [
            ("two-stage-sketch", "two-stage"),
            ("rand-cholqr", "bcgs-pip2"),
        ] {
            for s in svals {
                let benign = rows
                    .iter()
                    .find(|r| r.scheme == plain && r.s == *s && r.kappa == 1e2 && r.episodes == 0)
                    .expect("benign plain cell");
                for r in rows.iter().filter(|r| r.scheme == sketched && r.s == *s) {
                    assert_eq!(
                        r.allreduces, benign.allreduces,
                        "{}/κ={:.0e}/s={}: reduce count diverged from the plain schedule",
                        r.input, r.kappa, r.s
                    );
                }
            }
        }
        println!(
            "\nheadline: sketched schemes hold ≤ 100ε orthogonality across κ ∈ [1e2, 1e12] \
             with zero fallback episodes, at the plain schemes' benign reduce schedule \
             ({plain_episode_cells} plain-fallback cells beaten)"
        );
    }

    let table = Table::of(&rows);
    table.print("sketch: κ × s × scheme stability sweep");
    let (name, outcome) = dist_summary;
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "sketch")
        .field("quick", quick)
        .key("distributed")
        .begin_object()
        .field("input", name)
        .field("nranks", 2usize)
        .field("ok", outcome.is_ok());
    match outcome {
        Ok((reduces, err)) => w
            .field("allreduces", reduces)
            .field("orthogonality_error", err),
        Err(breakdown) => w.field("breakdown", breakdown),
    };
    w.end_object().key("results");
    table.write_json(&mut w);
    w.end_object();
    bench::emit("BENCH_sketch.json", &w.finish());
    eprintln!("wrote BENCH_sketch.json ({} rows)", rows.len());
    args.finish();
}
