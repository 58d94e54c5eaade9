//! End-to-end observability profile: proves the tracing layer is free and
//! joins the orthogonalization traffic it measures against the scheme's own
//! all-reduce schedule ([`OrthoKind::reduce_schedule`]).
//!
//! ```sh
//! cargo run -p bench --release --bin profile                    # full run
//! BENCH_QUICK=1 cargo run -p bench --release --bin profile      # CI mode
//! cargo run -p bench --release --bin profile -- --trace t.json  # custom path
//! ```
//!
//! The run has four parts, each with hard assertions:
//!
//! 1. **Zero-cost check** — the same two-stage solve with tracing disabled
//!    and enabled must be bitwise identical (solution, iteration counts,
//!    and every `CommStats` counter, per-peer p2p tallies included), with
//!    zero extra reductions and every span balanced.
//! 2. **Per-rank timeline** — a 4-rank solve on the `distsim` substrate
//!    records one labelled lane per rank (allreduce waits, halo pack/send,
//!    p2p receives), written as Chrome trace-event JSON for
//!    <https://ui.perfetto.dev>.
//! 3. **Schedule-vs-measured words** — the words the tracing run measures for
//!    one orthogonalization cycle must equal the sum of
//!    [`OrthoKind::reduce_schedule`] exactly (counts against its length).
//! 4. **Sync-vs-compute attribution** — every cycle's phase breakdown must
//!    sum to within 5% of its measured wall time, the cycle's `"comm"` span
//!    time bounds its sync share, and the traced solve's own JSON report
//!    ([`SolveResult::write_json`]) validates.
//!
//! Outputs: `BENCH_profile.json` (the traced solve's report — whole-solve
//! scalars and one `cycles[]` row per restart cycle — beside the aggregated
//! span table and the schedule join) and the timeline (`TRACE_profile.json`
//! unless overridden with `--trace`).

use bench::{Cell, Table};
use blockortho::make_orthogonalizer;
use distsim::{run_ranks, Communicator, DistCsr, SerialComm};
use sparse::{block_row_partition, laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{CycleTiming, GmresConfig, Identity, OrthoKind, Phase, SStepGmres, SolveResult};
use std::sync::Arc;
use std::time::Instant;
use trace::JsonWriter;

/// Assert that two solves of the same problem are indistinguishable: same
/// bits in the solution, same work, same communication — counter by
/// counter, per-peer tallies included.
fn assert_solves_identical(tag: &str, x0: &[f64], r0: &SolveResult, x1: &[f64], r1: &SolveResult) {
    assert_eq!(x0, x1, "{tag}: solutions must be bitwise identical");
    assert_eq!(r0.iterations, r1.iterations, "{tag}: iterations");
    assert_eq!(r0.restarts, r1.restarts, "{tag}: restarts");
    assert_eq!(r0.spmv_count, r1.spmv_count, "{tag}: spmv count");
    assert_eq!(r0.relres_history, r1.relres_history, "{tag}: residuals");
    assert_eq!(r0.comm_total, r1.comm_total, "{tag}: total comm stats");
    assert_eq!(r0.comm_ortho, r1.comm_ortho, "{tag}: ortho comm stats");
    assert_eq!(
        r0.comm_total.allreduces, r1.comm_total.allreduces,
        "{tag}: tracing must not add reductions"
    );
}

/// Check the acceptance bound on one cycle's breakdown: the phase buckets
/// must sum to within 5% of the measured cycle wall time.
fn assert_breakdown_sums(tag: &str, timings: &[CycleTiming]) {
    for (cycle, t) in timings.iter().enumerate() {
        let total = t.total_ns.max(1);
        let diff = t.segments_ns().abs_diff(t.total_ns);
        assert!(
            diff as f64 <= 0.05 * total as f64,
            "{tag}: cycle {cycle} breakdown sums to {} ns but measured {} ns",
            t.segments_ns(),
            t.total_ns
        );
        assert!(
            t.sync_ns <= t.total_ns,
            "{tag}: cycle {cycle} sync {} ns exceeds total {} ns",
            t.sync_ns,
            t.total_ns
        );
    }
}

fn main() {
    let mut args = bench::cli::begin("profile", false);
    args.trace
        .get_or_insert_with(|| "TRACE_profile.json".into());
    let quick = bench::quick();
    let nx = if quick { 48 } else { 96 };
    let (m, s, bs) = (60usize, 5usize, 30usize);
    let a = laplace2d_9pt(nx, nx);
    let n = a.nrows();
    let b = a.spmv_alloc(&vec![1.0; n]);
    let config = GmresConfig {
        restart: m,
        step_size: s,
        tol: 1e-10,
        ortho: OrthoKind::TwoStage { big_panel: bs },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config.clone());
    // Both runs use the same pool width so "identical" means identical.
    parkit::set_num_threads(2.min(parkit::pool_lanes()));

    // --- Part 1: the disabled path must be provably free. ---
    eprintln!("part 1: tracing-disabled vs tracing-enabled solve ({nx}x{nx} 9-pt Laplace) ...");
    trace::set_enabled(false);
    trace::clear();
    let t0 = Instant::now();
    let (x_off, r_off) = solver.solve_serial(&a, &b);
    let secs_off = t0.elapsed().as_secs_f64();
    assert!(r_off.converged, "baseline solve must converge: {r_off:?}");
    assert!(
        r_off.cycle_timings.iter().all(|t| t.sync_ns == 0),
        "sync attribution must be exactly 0 with tracing disabled"
    );

    args.start_tracing();
    let t0 = Instant::now();
    let (x_on, r_on) = solver.solve_serial(&a, &b);
    let secs_on = t0.elapsed().as_secs_f64();
    assert_solves_identical("serial", &x_off, &r_off, &x_on, &r_on);
    let stats = trace::stats();
    assert_eq!(stats.open_spans, 0, "all spans must be balanced");
    assert!(stats.events > 0, "the enabled run must record spans");
    assert!(
        r_on.cycle_timings.iter().any(|t| t.sync_ns > 0),
        "the enabled run must attribute sync time"
    );
    eprintln!(
        "  identical: {} iterations, {} allreduces, solve {:.3}s off / {:.3}s on",
        r_on.iterations, r_on.comm_total.allreduces, secs_off, secs_on
    );

    // --- Part 2: per-rank timeline on the distsim substrate. ---
    let nranks = 4usize.min(n);
    eprintln!("part 2: {nranks}-rank distributed solve for the per-rank timeline ...");
    let rows = Laplace2d9ptRows { nx, ny: nx };
    let part = block_row_partition(n, nranks);
    let per_rank = run_ranks(nranks, |comm| {
        let rank = comm.rank();
        let (lo, hi) = part.range(rank);
        let comm_dyn: Arc<dyn Communicator> = comm;
        let dist = DistCsr::from_row_source(comm_dyn.clone(), &part, &rows);
        let mut x = vec![0.0; hi - lo];
        let result = SStepGmres::new(config.clone()).solve(&dist, &Identity, &b[lo..hi], &mut x);
        (result.converged, comm_dyn.stats().snapshot())
    });
    for (rank, (converged, snap)) in per_rank.iter().enumerate() {
        assert!(converged, "rank {rank} must converge");
        if nranks > 1 {
            assert!(
                !snap.p2p_peers.is_empty(),
                "rank {rank} must have per-peer p2p tallies"
            );
        }
    }
    assert_eq!(trace::stats().open_spans, 0, "rank spans must be balanced");

    // --- Part 3: measured ortho words vs the all-reduce schedule. ---
    eprintln!("part 3: one orthogonalization cycle vs the reduce schedule ...");
    let kind = OrthoKind::TwoStage { big_panel: bs };
    let v = dense::Matrix::from_fn(300.max(3 * (m + 1)), m + 1, |i, j| {
        ((i * 7 + j * 3) % 13) as f64 * 0.2 + if i == j { 3.0 } else { 0.0 }
    });
    let mut basis = distsim::DistMultiVector::from_matrix(SerialComm::new(), v);
    let mut r = dense::Matrix::zeros(m + 1, m + 1);
    let mut ortho = make_orthogonalizer(kind, m + 1);
    ortho.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
    let before = basis.comm().stats().snapshot();
    let mut col = 1;
    while col < m + 1 {
        ortho
            .orthogonalize_panel(&mut basis, col..col + s, &mut r)
            .unwrap();
        col += s;
    }
    ortho.finish(&mut basis, &mut r).unwrap();
    let delta = basis.comm().stats().snapshot().since(&before);
    let schedule = kind.reduce_schedule(m, s, 1);
    let predicted_words: usize = schedule.iter().sum();
    let predicted_reduces = schedule.len();
    assert_eq!(
        delta.allreduce_words, predicted_words,
        "measured cycle words must match the schedule's sum"
    );
    assert_eq!(
        delta.allreduces, predicted_reduces,
        "measured cycle reduces must match the schedule's length"
    );

    // --- Part 4: per-cycle breakdown and the final report. ---
    eprintln!("part 4: per-cycle sync-vs-compute breakdown ...");
    assert_breakdown_sums("disabled", &r_off.cycle_timings);
    assert_breakdown_sums("enabled", &r_on.cycle_timings);

    let timeline = trace::collect();
    let spans = timeline.merged_spans();
    let comm_span_ns = timeline.category_ns("comm");
    let total_sync_ns: u64 = r_on.cycle_timings.iter().map(|t| t.sync_ns).sum();
    assert!(
        total_sync_ns <= comm_span_ns,
        "solver sync attribution ({total_sync_ns} ns) cannot exceed all comm span time ({comm_span_ns} ns)"
    );

    let mut header = vec!["cycle", "step"];
    header.extend(Phase::ALL.iter().map(|p| p.label()));
    header.extend(["sync", "total", "reduces", "kappa"]);
    let mut cycles = Table::new(&header);
    let pct = |part: u64, total: u64| format!("{:.0}%", 100.0 * part as f64 / total.max(1) as f64);
    for (cycle, (h, t)) in (r_on.health_history.iter().zip(&r_on.cycle_timings)).enumerate() {
        let mut row = vec![cycle.to_string(), h.step.to_string()];
        row.extend(Phase::ALL.iter().map(|&p| pct(t[p], t.total_ns)));
        row.extend([
            pct(t.sync_ns, t.total_ns),
            format!("{:.2}ms", t.total_ns as f64 / 1e6),
            h.comm_ortho.allreduces.to_string(),
            bench::sci(h.kappa_est),
        ]);
        cycles.push(row);
    }
    cycles.print("per-cycle time breakdown (share of cycle wall time)");

    let mut span_table = Table::new(&["cat", "name", "count", "total_ns", "max_ns"]);
    for row in &spans {
        span_table.push([
            Cell::from(row.cat.as_str()),
            row.name.as_str().into(),
            row.count.into(),
            row.total_ns.into(),
            row.max_ns.into(),
        ]);
    }
    let total_ns: u64 = r_on.cycle_timings.iter().map(|t| t.total_ns).sum();
    let sync_fraction = total_sync_ns as f64 / total_ns.max(1) as f64;
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "profile")
        .field("quick", quick)
        .key("problem")
        .begin_object()
        .field("n", n)
        .field("m", m)
        .field("s", s)
        .field("big_panel", bs)
        .end_object()
        .field("sync_fraction", sync_fraction);
    r_on.write_json(&mut w);
    w.key("spans");
    span_table.write_json(&mut w);
    w.key("model_vs_measured")
        .begin_object()
        .field("ortho_cycle_words_measured", delta.allreduce_words)
        .field("ortho_cycle_words_predicted", predicted_words)
        .field("ortho_cycle_reduces_measured", delta.allreduces)
        .field("ortho_cycle_reduces_predicted", predicted_reduces)
        .field("solve_secs_measured", secs_on)
        .end_object()
        .end_object();
    bench::emit("BENCH_profile.json", &w.finish());
    eprintln!(
        "wrote BENCH_profile.json ({} cycles, {} span kinds, sync fraction {:.1}%)",
        r_on.cycle_timings.len(),
        spans.len(),
        100.0 * sync_fraction
    );

    args.finish();
    parkit::set_num_threads(0);
}
