//! Tier-1 battery for the tracing layer's core contract: observability is
//! **free**.  With tracing disabled a solve must be bitwise identical to an
//! untraced one — solution bits, iteration counts, and every `CommStats`
//! counter, p2p messages and words included — and enabling it must add
//! spans, not communication: zero extra reductions, every span balanced,
//! across thread-pool widths and simulated rank counts (extendable via
//! `DISTSIM_TEST_RANKS=6,8` as in the other sweep batteries).

mod common;

use common::{ranks_under_test, rhs_ones, thread_lock};
use distsim::{run_ranks, Communicator, DistCsr};
use sparse::{block_row_partition, laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult};
use std::sync::Arc;

fn config() -> GmresConfig {
    GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    }
}

fn assert_identical(tag: &str, x0: &[f64], r0: &SolveResult, x1: &[f64], r1: &SolveResult) {
    assert_eq!(x0, x1, "{tag}: solutions must be bitwise identical");
    assert_eq!(r0.iterations, r1.iterations, "{tag}: iterations");
    assert_eq!(r0.relres_history, r1.relres_history, "{tag}: residuals");
    // CommStatsSnapshot equality covers every counter, p2p included, so
    // this is also the zero-extra-reductions assertion.
    assert_eq!(r0.comm_total, r1.comm_total, "{tag}: comm stats");
    assert_eq!(r0.comm_ortho, r1.comm_ortho, "{tag}: ortho comm stats");
}

#[test]
fn toggling_tracing_keeps_serial_solves_bitwise_identical() {
    let _guard = thread_lock();
    let a = laplace2d_9pt(18, 18);
    let b = rhs_ones(&a);
    let solver = SStepGmres::new(config());

    trace::set_enabled(false);
    let (x_off, r_off) = solver.solve_serial(&a, &b);
    assert!(r_off.converged);
    assert!(
        r_off.cycle_timings.iter().all(|t| t.sync_ns == 0),
        "sync attribution must be exactly 0 with tracing disabled"
    );

    trace::set_enabled(true);
    let (x_on, r_on) = solver.solve_serial(&a, &b);
    trace::set_enabled(false);
    assert_identical("disabled vs enabled", &x_off, &r_off, &x_on, &r_on);

    // And back off again: enabling must leave no residue in the solver.
    let (x_off2, r_off2) = solver.solve_serial(&a, &b);
    assert_identical("disabled after enabled", &x_off, &r_off, &x_off2, &r_off2);
}

#[test]
fn toggling_tracing_keeps_distributed_solves_bitwise_identical() {
    let _guard = thread_lock();
    let (nx, ny) = (16, 16);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let b = rhs_ones(&a);
    let nranks = 3;
    let part = block_row_partition(n, nranks);
    let run = || {
        run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_row_source(comm_dyn.clone(), &part, &rows);
            let mut x = vec![0.0; hi - lo];
            let result = SStepGmres::new(config()).solve(&dist, &Identity, &b[lo..hi], &mut x);
            (x, result, comm_dyn.stats().snapshot())
        })
    };

    trace::set_enabled(false);
    let off = run();
    trace::set_enabled(true);
    let on = run();
    trace::set_enabled(false);

    for (rank, ((x0, r0, s0), (x1, r1, s1))) in off.iter().zip(&on).enumerate() {
        assert!(r0.converged, "rank {rank}");
        assert_identical(&format!("rank {rank}"), x0, r0, x1, r1);
        // The whole endpoint's traffic — halo p2p included — must be
        // identical counter for counter.
        assert_eq!(s0, s1, "rank {rank}: endpoint comm stats");
        if nranks > 1 {
            assert!(
                s0.p2p_messages > 0,
                "rank {rank}: halo exchange must send messages"
            );
        }
    }
}

#[test]
fn spans_balance_across_thread_and_rank_sweeps() {
    let _guard = thread_lock();
    let a = laplace2d_9pt(14, 14);
    let b = rhs_ones(&a);
    let rows = Laplace2d9ptRows { nx: 14, ny: 14 };
    let n = a.nrows();

    for threads in [1usize, 4] {
        parkit::set_num_threads(threads);
        trace::clear();
        trace::set_enabled(true);
        let (_, result) = SStepGmres::new(config()).solve_serial(&a, &b);
        trace::set_enabled(false);
        assert!(result.converged, "threads {threads}");
        let stats = trace::stats();
        assert!(stats.events > 0, "threads {threads}: no spans recorded");
        assert_eq!(
            stats.open_spans, 0,
            "threads {threads}: unbalanced spans left open"
        );
    }

    for nranks in ranks_under_test(&[1, 2, 4]) {
        let part = block_row_partition(n, nranks);
        trace::clear();
        trace::set_enabled(true);
        let results = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
            let mut x = vec![0.0; hi - lo];
            SStepGmres::new(config())
                .solve(&dist, &Identity, &b[lo..hi], &mut x)
                .converged
        });
        trace::set_enabled(false);
        assert!(results.iter().all(|&c| c), "nranks {nranks}");
        let stats = trace::stats();
        assert_eq!(
            stats.open_spans, 0,
            "nranks {nranks}: unbalanced spans left open"
        );
    }
}

#[test]
fn chrome_timeline_validates_and_has_one_lane_per_rank() {
    let _guard = thread_lock();
    let (nx, ny) = (12, 12);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let b = rhs_ones(&a);
    let nranks = 3;
    let part = block_row_partition(a.nrows(), nranks);

    trace::clear();
    trace::set_enabled(true);
    run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let comm_dyn: Arc<dyn Communicator> = comm;
        let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
        let mut x = vec![0.0; hi - lo];
        SStepGmres::new(config()).solve(&dist, &Identity, &b[lo..hi], &mut x);
    });
    trace::set_enabled(false);

    let timeline = trace::collect();
    let json = timeline.to_chrome_json();
    trace::validate_json(&json).expect("chrome trace JSON must be syntactically valid");
    for rank in 0..nranks {
        let label = format!("\"rank {rank}\"");
        assert!(json.contains(&label), "timeline is missing lane {label}");
    }
    // The rank lanes must actually contain comm spans (allreduce waits and
    // the halo exchange p2p), not just their thread-name metadata.
    assert!(
        timeline.category_ns("comm") > 0,
        "no comm span time recorded"
    );
    assert!(
        timeline
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.cat == "comm" && e.name == "send"),
        "halo exchange must record p2p send spans"
    );
}

#[test]
fn cycle_timings_partition_every_cycle() {
    let _guard = thread_lock();
    let a = laplace2d_9pt(16, 16);
    let b = rhs_ones(&a);
    trace::set_enabled(true);
    let (_, result) = SStepGmres::new(config()).solve_serial(&a, &b);
    trace::set_enabled(false);
    assert!(result.converged);
    assert_eq!(
        result.cycle_timings.len(),
        result.health_history.len(),
        "one timing record per started cycle"
    );
    for (c, t) in result.cycle_timings.iter().enumerate() {
        assert!(t.total_ns > 0);
        assert_eq!(
            t.segments_ns(),
            t.total_ns,
            "cycle {c}: phase buckets must partition the cycle"
        );
        assert!(t.sync_ns <= t.total_ns, "cycle {c}: sync exceeds total");
        assert_eq!(t.compute_ns(), t.total_ns - t.sync_ns);
    }
}

#[test]
fn sync_time_is_zero_untraced_and_attributed_per_rank_when_traced() {
    // The trace enable flag is process-global; the lock keeps another
    // test's toggle out of these two solves.
    let _guard = thread_lock();
    let (nx, ny) = (12, 12);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let b = rhs_ones(&a);
    let nranks = 2;
    let part = block_row_partition(a.nrows(), nranks);
    let run = || {
        run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
            let mut x = vec![0.0; hi - lo];
            SStepGmres::new(config()).solve(&dist, &Identity, &b[lo..hi], &mut x)
        })
    };

    trace::set_enabled(false);
    for (rank, r) in run().iter().enumerate() {
        assert!(r.converged, "rank {rank}");
        assert!(
            r.cycle_timings.iter().all(|t| t.sync_ns == 0),
            "rank {rank}: no comm span closes untraced, so no cycle may own sync time"
        );
    }
    trace::clear();
    trace::set_enabled(true);
    let traced = run();
    trace::set_enabled(false);
    for (rank, r) in traced.iter().enumerate() {
        for (c, t) in r.cycle_timings.iter().enumerate() {
            // Every cycle reduces (ortho, residual norm) and exchanges halos.
            assert!(t.sync_ns > 0, "rank {rank} cycle {c}: no sync time");
            assert!(t.sync_ns <= t.total_ns, "rank {rank} cycle {c}");
        }
    }
    // Sync time is attributed from closed comm spans, so the solve's total
    // cannot exceed the comm span time the trace recorded.
    let sync_ns: u64 = traced
        .iter()
        .flat_map(|r| &r.cycle_timings)
        .map(|t| t.sync_ns)
        .sum();
    let comm_ns = trace::collect().category_ns("comm");
    assert!(
        sync_ns <= comm_ns,
        "attributed sync {sync_ns} ns exceeds the recorded comm span time {comm_ns} ns"
    );
}

/// The `(start, cols)` arguments of a span recorded with those two.
fn start_cols(e: &trace::Event) -> (u64, u64) {
    (e.args[0].1, e.args[1].1)
}

#[test]
fn end_of_cycle_flush_runs_no_trsm_of_its_width() {
    // A cycle's last big panel is factored, never normalized: the solution
    // update folds its stage-2 factor into the projected solution, so in a
    // cycle that ran to its end no `n`-row TRSM as wide as that flush
    // follows it — neither inside the flush nor in `finish`.  Tracing
    // still changes no bit of the solve.
    let _guard = thread_lock();
    let a = laplace2d_9pt(30, 30);
    let m = 40;
    for k in [1, 4] {
        let b: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..a.nrows())
                    .map(|i| ((i * 7 + j * 13) % 17) as f64 * 0.25 - 2.0)
                    .collect()
            })
            .collect();
        for bs in [m, 20] {
            let tag = format!("k = {k}, bs = {bs}");
            let solver = SStepGmres::new(GmresConfig {
                restart: m,
                step_size: 5,
                tol: 1e-9,
                ortho: OrthoKind::TwoStage { big_panel: bs },
                ..GmresConfig::default()
            });
            trace::set_enabled(false);
            let (x_plain, plain) = solver.solve_block_serial(&a, &b);
            trace::clear();
            trace::set_thread_label(&tag);
            trace::set_enabled(true);
            let (x_traced, traced) = solver.solve_block_serial(&a, &b);
            trace::set_enabled(false);
            assert!(traced.converged, "{tag}");
            assert_eq!(x_plain.data(), x_traced.data(), "{tag}: solution bits");
            assert_eq!(plain.iterations, traced.iterations, "{tag}: iterations");
            let bits = |r: &SolveResult| {
                r.final_relres
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&plain), bits(&traced), "{tag}: true residuals");

            let timeline = trace::collect();
            let lane = timeline.threads.iter().find(|t| t.label == tag).unwrap();
            assert_eq!(lane.dropped, 0, "{tag}: the ring overflowed");
            let mut events = lane.events.clone();
            events.sort_by_key(|e| e.ts_ns);
            let spans = |name: &'static str| {
                events.iter().filter(move |e| {
                    e.name == name && matches!(e.kind, trace::EventKind::Span { .. })
                })
            };
            let mut full_cycles = 0;
            for cycle in spans("cycle") {
                let trace::EventKind::Span { dur_ns } = cycle.kind else {
                    unreachable!()
                };
                let within =
                    |e: &&trace::Event| (cycle.ts_ns..=cycle.ts_ns + dur_ns).contains(&e.ts_ns);
                let ka = spans("stage1_panel")
                    .filter(within)
                    .find(|e| start_cols(e).0 == 0)
                    .map(|e| start_cols(e).1)
                    .expect("the residual block is a panel");
                let total = ka * (m as u64 + 1);
                let Some(last) = spans("stage2_flush")
                    .filter(within)
                    .find(|e| start_cols(e).0 + start_cols(e).1 == total)
                else {
                    continue;
                };
                full_cycles += 1;
                let width = start_cols(last).1;
                let late_trsm = spans("trsm")
                    .filter(within)
                    .filter(|e| e.ts_ns >= last.ts_ns && e.args[1] == ("s", width))
                    .count();
                assert_eq!(
                    late_trsm, 0,
                    "{tag}: a {width}-wide TRSM after the final flush"
                );
            }
            assert!(full_cycles > 0, "{tag}: no cycle ran to its end");
        }
    }
}
