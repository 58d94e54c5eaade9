//! The per-cycle report: a cycle is recorded in `health_history` (what it
//! decided and counted) and `cycle_timings` (what the clock measured), and
//! `SolveResult::write_json` joins the two.  Pinned here: the per-cycle
//! orthogonalization traffic adds up to the whole-solve ledger exactly, on
//! one and several ranks and for scalar and block solves, and the JSON form
//! is well formed, complete and `null` where a float is not finite.

use distsim::{run_ranks, CommStatsSnapshot, Communicator, DistCsr};
use sparse::{block_row_partition, laplace2d_9pt};
use ssgmres::{
    CycleHealth, CycleTiming, CycleVerdict, GmresConfig, Identity, OrthoKind, Phase, SStepGmres,
    SolveResult,
};
use std::sync::Arc;
use trace::JsonWriter;

fn config() -> GmresConfig {
    GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 20 },
        ..GmresConfig::default()
    }
}

fn rhs(n: usize, j: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (0.37 * i as f64 + 1.3 * j as f64).sin() + ((i * i + 3 * j) % 11) as f64 * 0.1)
        .collect()
}

/// The solve's report on every rank, for `k` right-hand sides.
fn solve(nranks: usize, k: usize) -> Vec<SolveResult> {
    let a = laplace2d_9pt(14, 14);
    let n = a.nrows();
    let part = block_row_partition(n, nranks);
    run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let comm_dyn: Arc<dyn Communicator> = comm;
        let dist = DistCsr::from_global(comm_dyn, &a, &part);
        let mut b = dense::Matrix::zeros(hi - lo, k);
        for j in 0..k {
            b.col_mut(j).copy_from_slice(&rhs(n, j)[lo..hi]);
        }
        let mut x = dense::Matrix::zeros(hi - lo, k);
        SStepGmres::new(config()).solve_block(&dist, &Identity, &b, &mut x)
    })
}

fn report_json(r: &SolveResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    r.write_json(&mut w);
    w.end_object();
    w.finish()
}

#[test]
fn per_cycle_ortho_traffic_adds_up_to_the_solve_ledger() {
    for nranks in [1usize, 3] {
        for k in [1usize, 4] {
            for (rank, r) in solve(nranks, k).iter().enumerate() {
                let tag = format!("nranks {nranks} k {k} rank {rank}");
                assert!(r.converged, "{tag}: {:?}", r.breakdown);
                assert_eq!(r.breakdown, None, "{tag}");
                let per_cycle = (r.health_history.iter())
                    .fold(CommStatsSnapshot::default(), |sum, h| {
                        sum.merge(&h.comm_ortho)
                    });
                assert_eq!(per_cycle, r.comm_ortho, "{tag}: calls and words");
                assert!(
                    r.health_history.iter().all(|h| h.comm_ortho.allreduces > 0),
                    "{tag}: every cycle orthogonalizes"
                );
                // Checked against the other ledger: what a clean solve
                // reduces outside orthogonalization is the residual norm,
                // once up front and once per cycle, `active` words each
                // time — so the bracket charged `Ortho` with exactly the
                // orthogonalizer's collectives and no other phase's.
                assert_eq!(
                    r.comm_total.allreduces - r.comm_ortho.allreduces,
                    r.restarts + 1,
                    "{tag}"
                );
                assert_eq!(r.comm_ortho.p2p_messages, 0, "{tag}: halos are MPK's");
            }
        }
    }
}

#[test]
fn json_report_joins_both_records_cycle_by_cycle() {
    let r = solve(1, 1).remove(0);
    assert!(r.restarts >= 2, "premise: more than one cycle");
    let json = report_json(&r);
    trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));
    let cycles = r.steps().len();
    assert_eq!(json.matches("{\"cycle\": ").count(), cycles, "{json}");
    for phase in Phase::ALL {
        let key = format!("\"{}_ns\": ", phase.label());
        assert_eq!(json.matches(&key).count(), cycles, "{key} once per cycle");
    }
    for key in [
        "\"converged\": true",
        "\"comm_total\": ",
        "\"comm_ortho\": ",
        "\"shifts\": []",
        "\"ortho_allreduces\": ",
        "\"verdict\": \"clean\"",
    ] {
        assert!(json.contains(key), "missing {key}:\n{json}");
    }
}

#[test]
fn json_report_writes_non_finite_floats_as_null() {
    // A cycle whose first panel broke down: no finalized column, no update.
    let broken = CycleHealth {
        step: 5,
        shifts: vec![0.5, f64::NAN],
        comm_ortho: CommStatsSnapshot::default(),
        usable_cols: 0,
        kappa_est: f64::INFINITY,
        fallbacks: 0,
        fallback_events: Vec::new(),
        breakdown: Some("initial block: \"rank deficient\"".to_string()),
        relres: Some(f64::NAN),
        stagnated: false,
        kappa_per_col: vec![f64::INFINITY],
        faults_detected: 0,
        faults_recovered: 0,
        faults_unrecovered: 0,
        verdict: CycleVerdict::Breakdown,
    };
    let r = SolveResult {
        breakdown: broken.breakdown.clone(),
        health_history: vec![broken],
        cycle_timings: vec![CycleTiming::default()],
        ..SolveResult::default()
    };
    let json = report_json(&r);
    trace::validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));
    for key in [
        "\"kappa_est\": null",
        "\"relres\": null",
        "\"shifts\": [5e-1, null]",
        "\"verdict\": \"breakdown\"",
        r#""breakdown": "initial block: \"rank deficient\"""#,
    ] {
        assert!(json.contains(key), "missing {key}:\n{json}");
    }
}
