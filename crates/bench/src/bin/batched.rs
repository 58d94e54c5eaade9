//! Block-solve experiment: reduces are paid per **block**, not per
//! right-hand side.  Writes `BENCH_batched.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin batched               # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin batched # CI mode
//! ```
//!
//! Three sections, each with hard acceptance assertions:
//!
//! * **equivalence** — a one-column `solve_block` is bitwise the scalar
//!   `solve`: solution bits, residual history, and the full
//!   communication ledger (count *and* words).
//! * **scaling** — with the tolerance floored so every width runs the
//!   same fixed number of full cycles, the total all-reduce **count** of
//!   a k = 4 block solve equals the k = 1 count exactly (the ≤ 1.05×
//!   acceptance bound is met with ratio 1.0); only the per-call payload
//!   grows.  The measured ortho reduce count is also joined against
//!   the length of `OrthoKind::reduce_schedule`.
//! * **service** — four right-hand sides solved as one `solve_block`
//!   share a reduce bill far below the sum of four independent solves
//!   (the JSON object keeps its `service` key).

use bench::Table;
use sparse::{laplace2d_9pt, Csr};
use ssgmres::{GmresConfig, OrthoKind, SStepGmres};
use trace::JsonWriter;

fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

bench::table_row! {
    /// One block width of the scaling sweep.
    struct Scaling {
        k: usize,
        restarts: usize,
        iterations: usize,
        allreduces: usize,
        allreduce_words: usize,
        ortho_allreduces: usize,
        ortho_allreduce_words: usize,
        words_per_call: f64,
    }
}

fn scaling_config(restart: usize, s: usize, big_panel: usize) -> GmresConfig {
    GmresConfig {
        restart,
        step_size: s,
        // Floored tolerance: no width ever converges early, so every run
        // executes exactly `max_restarts` identical full cycles and the
        // reduce schedules are directly comparable.  Three cycles keeps
        // every width above the noise floor (deeper, the residual block
        // degenerates and fallback reorthogonalizations would honestly —
        // but distractingly — add reduces).
        tol: 1e-30,
        max_restarts: 3,
        ortho: OrthoKind::TwoStage { big_panel },
        ..GmresConfig::default()
    }
}

fn run_scaling(
    a: &Csr,
    widths: &[usize],
    restart: usize,
    s: usize,
    big_panel: usize,
) -> Vec<Scaling> {
    let config = scaling_config(restart, s, big_panel);
    let cycles = config.max_restarts;
    let mut rows = Vec::new();
    for &k in widths {
        let b: Vec<Vec<f64>> = (0..k).map(|j| rhs_for(a.nrows(), j)).collect();
        let solver = SStepGmres::new(config.clone());
        let (_, r) = solver.solve_block_serial(a, &b);
        assert_eq!(
            r.restarts, cycles,
            "k={k}: the floored tolerance must force exactly {cycles} cycles"
        );
        assert_eq!(
            r.ortho_fallbacks, 0,
            "k={k}: the schedule comparison requires a fallback-free run"
        );
        // Join against the schedule: per cycle the solver spends the
        // scheduled panel reduces plus the first-stage reduce of the
        // initial residual block (the schedule's "cycle setup").
        let scheduled = OrthoKind::TwoStage { big_panel }
            .reduce_schedule(restart, s, k)
            .len();
        assert_eq!(
            r.comm_ortho.allreduces,
            cycles * (scheduled + 1),
            "k={k}: measured ortho reduces vs the schedule"
        );
        // Everything outside orthogonalization is one k-word norm reduce
        // per cycle plus the initial residual norm.
        assert_eq!(
            r.comm_total.allreduces,
            r.comm_ortho.allreduces + cycles + 1,
            "k={k}: non-ortho reduces are one norm per cycle + setup"
        );
        rows.push(Scaling {
            k,
            restarts: r.restarts,
            iterations: r.iterations,
            allreduces: r.comm_total.allreduces,
            allreduce_words: r.comm_total.allreduce_words,
            ortho_allreduces: r.comm_ortho.allreduces,
            ortho_allreduce_words: r.comm_ortho.allreduce_words,
            words_per_call: r.comm_total.allreduce_words_per_call(),
        });
    }
    rows
}

fn main() {
    let args = bench::cli::begin("batched", false);
    let quick = bench::quick();
    // restart 20 on the 24x24 grid keeps the widest block's basis
    // (k·(m+1) columns of a block Krylov space with correlated columns)
    // comfortably clear of the shifted-CholQR fallback threshold at every
    // width; smaller grids saturate the space and trip fallbacks.  The
    // sweep is seconds even in full mode, so quick mode runs it whole.
    let (nx, restart, s, big_panel) = (24, 20, 5, 20);
    let a = laplace2d_9pt(nx, nx);
    let n = a.nrows();

    // --- Section 1: k = 1 bitwise equivalence (the adoption contract). ---
    let eq_config = GmresConfig {
        restart,
        step_size: s,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel },
        ..GmresConfig::default()
    };
    let b0 = rhs_for(n, 0);
    let solver = SStepGmres::new(eq_config.clone());
    let (x_scalar, scalar) = solver.solve_serial(&a, &b0);
    assert!(scalar.converged, "scalar solve must converge");
    let (x_block, block) = solver.solve_block_serial(&a, std::slice::from_ref(&b0));
    assert_eq!(x_scalar, x_block.col(0), "k=1 solution bits");
    assert_eq!(scalar.relres_history, block.relres_history, "k=1 history");
    assert_eq!(scalar.comm_total, block.comm_total, "k=1 total comm ledger");
    assert_eq!(scalar.comm_ortho, block.comm_ortho, "k=1 ortho comm ledger");
    let equivalent = true;

    // --- Section 2: reduce-count scaling in the block width. ---
    let widths: &[usize] = &[1, 2, 4];
    let rows = run_scaling(&a, widths, restart, s, big_panel);
    let r1 = rows.iter().find(|r| r.k == 1).expect("k=1 row");
    let r4 = rows.iter().find(|r| r.k == 4).expect("k=4 row");
    let ratio = r4.allreduces as f64 / r1.allreduces as f64;
    // The acceptance headline: k = 4 costs the k = 1 reduce count — the
    // bound is <= 1.05x, the measurement is exactly 1.0x.
    assert!(
        ratio <= 1.05,
        "k=4 reduce count must stay within 1.05x of k=1 (got {ratio})"
    );
    assert_eq!(
        r4.allreduces, r1.allreduces,
        "per-batch reduce count must not scale with k"
    );
    for r in &rows {
        assert_eq!(r.allreduces, r1.allreduces, "k={}: count must be flat", r.k);
        assert_eq!(
            r.iterations,
            r.k * r1.iterations,
            "k={}: k columns per block step",
            r.k
        );
    }
    assert!(
        r4.words_per_call > 3.0 * r1.words_per_call,
        "the payload axis must carry the scaling instead"
    );

    // --- Section 3: one four-RHS block solve amortizes the bill. ---
    let block_solver = SStepGmres::new(GmresConfig {
        restart,
        step_size: s,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel },
        ..GmresConfig::default()
    });
    let block_k = 4usize;
    let block_bs: Vec<Vec<f64>> = (0..block_k).map(|j| rhs_for(n, j)).collect();
    // Independent baseline: each rhs solved alone.
    let mut individual_reduces = 0usize;
    for b in &block_bs {
        let (_, r) = block_solver.solve_serial(&a, b);
        assert!(r.converged);
        individual_reduces += r.comm_total.allreduces;
    }
    let (_, joint) = block_solver.solve_block_serial(&a, &block_bs);
    assert!(joint.col_converged.iter().all(|&c| c));
    let batch_reduces = joint.comm_total.allreduces;
    assert!(
        batch_reduces * 2 < individual_reduces,
        "the block bill ({batch_reduces}) must amortize far below {block_k} \
         independent solves ({individual_reduces})"
    );

    // --- Report. ---
    let amortization = individual_reduces as f64 / batch_reduces as f64;
    let table = Table::of(&rows);
    table.print("batched: reduce counts across block widths");
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "batched")
        .field("quick", quick)
        .key("problem")
        .begin_object()
        .field("matrix", "laplace2d_9pt")
        .field("n", n)
        .field("restart", restart)
        .field("s", s)
        .field("big_panel", big_panel)
        .end_object()
        .field("k1_bitwise_equivalent", equivalent)
        .field("reduce_ratio_k4_vs_k1", ratio)
        .key("scaling");
    table.write_json(&mut w);
    w.key("service")
        .begin_object()
        .field("batch_size", block_k)
        .field("batch_reduces", batch_reduces)
        .field("individual_reduces", individual_reduces)
        .field("amortization", amortization)
        .end_object()
        .end_object();
    bench::emit("BENCH_batched.json", &w.finish());
    eprintln!(
        "wrote BENCH_batched.json (reduce ratio k4/k1 = {ratio:.3}, four-RHS block amortization = {amortization:.2}x)"
    );
    args.finish();
}
