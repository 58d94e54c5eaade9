//! Fault-injection campaign: seeded faults (kind × rate × phase) against
//! the guarded s-step solver, plus the headline SDC demonstrations,
//! writing `BENCH_faults.json`.
//!
//! ```sh
//! cargo run -p bench --release --bin faults                    # full campaign
//! BENCH_QUICK=1 cargo run -p bench --release --bin faults      # CI mode
//! cargo run -p bench --release --bin faults -- --matrix A.mtx
//! ```
//!
//! The headline cells run at `s = 8` on elasticity3d (the paper's hard
//! problem) across 2 simulated ranks:
//!
//! * **sdc-gram** — a single flipped exponent bit in one rank's
//!   contribution to the first panel Gram all-reduce.  The guarded solver
//!   detects it (bitwise-symmetry screen), retries the reduce from the
//!   saved clean contributions, and converges **bit-for-bit identical** to
//!   the fault-free solve: zero iteration overhead.
//! * **sdc-norm** — the same single-bit SDC aimed at the *initial*
//!   residual-norm reduce (the 1×1 Gram of r₀).  The corrupted reference
//!   norm collapses by ~2⁻⁵¹², silently rescaling both the relative
//!   convergence target and the first basis vector; the unguarded solver
//!   *returns a wrong answer while reporting success* — `converged`, final
//!   relres under the tolerance, true residual ~150 orders of magnitude
//!   above it.  The duplicated-word guard catches the disagreeing halves,
//!   retries, and converges for real.
//!
//! On top: guard overhead at zero faults (noise-floor minimum over
//! interleaved repeated solves, asserted `< 5%`), a seeded
//! `kind × rate × phase` campaign grid with
//! detection/recovery bookkeeping (`by_guard` counts each row's
//! detections per guard), and a bitwise replay check — every
//! campaign cell is reproducible from its seed alone.  Each kind's rate
//! comes from a census of the operations it can reach in the fault-free
//! solve, so its sparsest cell expects 2 (then 8) injections; a phase the
//! kind cannot reach is skipped, and every kind must inject somewhere.
//!
//! With `--matrix <path.mtx>` the campaign grid runs on that matrix
//! instead (headline cells need the built-in problem and are skipped).

use bench::{cli, Table};
use distsim::{
    run_ranks, Communicator, DistCsr, FaultEvent, FaultKind, FaultPlan, FaultRates, FaultyComm,
    GuardEvent, GuardedComm, OpKind, SerialComm, Target,
};
use sparse::{block_row_partition, elasticity3d, Csr, RowPartition};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult, StepPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::JsonWriter;

const NRANKS: usize = 2;

/// Halo patience of the guarded cells: short, so a dropped-message cell
/// pays milliseconds, not seconds.
const HALO_TIMEOUT: Duration = Duration::from_millis(100);

fn config(s: usize) -> GmresConfig {
    GmresConfig {
        restart: 32.max(3 * s),
        step_size: s,
        tol: 1e-6,
        max_iters: 6_000,
        ortho: OrthoKind::BcgsPip2,
        step_policy: StepPolicy::Auto,
        ..GmresConfig::default()
    }
}

/// One distributed solve over `NRANKS` simulated ranks, guarded or not,
/// optionally under a fault plan.  Returns the gathered solution, rank 0's
/// result (every replicated counter is identical across ranks), every
/// rank's injected faults, and whether all ranks converged.
struct Cell {
    x: Vec<f64>,
    r: SolveResult,
    events: Vec<FaultEvent>,
    converged_all: bool,
}

fn run_cell(
    a: &Csr,
    b: &[f64],
    conf: &GmresConfig,
    part: &RowPartition,
    guarded: bool,
    plan: Option<&FaultPlan>,
) -> Cell {
    let pieces = run_ranks(NRANKS, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let faulty = plan.map(|p| FaultyComm::wrap(comm.clone(), p.clone()));
        let comm: Arc<dyn Communicator> = match &faulty {
            Some(fc) => fc.clone(),
            None => comm,
        };
        let comm: Arc<dyn Communicator> = if guarded {
            GuardedComm::wrap(comm, HALO_TIMEOUT)
        } else {
            comm
        };
        let dist = DistCsr::from_global(comm, a, part);
        let mut x = vec![0.0; hi - lo];
        let r = SStepGmres::new(conf.clone()).solve(&dist, &Identity, &b[lo..hi], &mut x);
        let events = faulty.map_or_else(Vec::new, |f| f.events());
        (lo, x, r, events)
    });
    let mut x = vec![0.0; a.nrows()];
    let mut events = Vec::new();
    let mut converged_all = true;
    for (lo, piece, r, rank_events) in &pieces {
        x[*lo..lo + piece.len()].copy_from_slice(piece);
        events.extend_from_slice(rank_events);
        converged_all &= r.converged;
    }
    let r = pieces.into_iter().next().expect("rank 0").2;
    Cell {
        x,
        r,
        events,
        converged_all,
    }
}

/// True relative residual `‖b − A·x‖ / ‖b‖` (solves start from x = 0).
fn true_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let num: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, axi)| (bi - axi) * (bi - axi))
        .sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den).sqrt()
}

/// Right-hand side normalized to unit norm so every rank's squared-norm
/// contribution sits in `[2⁻⁶³, 2)`, where clearing exponent bit 58
/// collapses the value by 2⁻⁶⁴ — the deterministic silent-SDC scenario.
fn unit_rhs(a: &Csr) -> Vec<f64> {
    let mut b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    for v in &mut b {
        *v /= norm;
    }
    b
}

/// Sampled rates that inject fault kind `kind` at `rate` per reachable
/// operation.
fn rates_of(kind: &str, rate: f64) -> FaultRates {
    let mut rates = FaultRates {
        stall_millis: 2,
        ..FaultRates::default()
    };
    match kind {
        "bitflip" => rates.bitflip = rate,
        "opfail" => rates.opfail = rate,
        "drop" => rates.drop = rate,
        "duplicate" => rates.duplicate = rate,
        "stall" => rates.stall = rate,
        _ => unreachable!("unknown fault kind {kind}"),
    }
    rates
}

/// Detections per guard, as `guard:count` pairs in guard-name order
/// (`-` when no guard fired): which guard caught what.
fn by_guard(events: &[GuardEvent]) -> String {
    let mut counts = BTreeMap::new();
    for e in events {
        *counts.entry(e.guard).or_insert(0usize) += 1;
    }
    if counts.is_empty() {
        return "-".to_string();
    }
    let pairs: Vec<String> = counts.iter().map(|(g, n)| format!("{g}:{n}")).collect();
    pairs.join(" ")
}

bench::table_row! {
    /// One seeded campaign cell: its plan and what the guarded solve did.
    struct Trial {
        kind: &'static str,
        rate: f64,
        phase: &'static str,
        seed: u64,
        expected: f64,
        injected: usize,
        detected: usize,
        by_guard: String,
        recovered: usize,
        unrecovered: usize,
        retries: usize,
        converged: bool,
        iterations: usize,
        iteration_overhead: isize,
        relres: f64,
    }
}

fn main() {
    let args = cli::begin("faults", true);
    let quick = bench::quick();

    // Campaign matrix: elasticity3d (headline) or the provided file.
    let (name, a, s, headline) = match args.load_matrix() {
        Some((name, a)) => {
            let s = 8.min(a.nrows() / 4).max(2);
            (name, a, s, false)
        }
        None => ("elasticity3d".to_string(), elasticity3d(5, 5, 5), 8, true),
    };
    let b = unit_rhs(&a);
    let part = block_row_partition(a.nrows(), NRANKS);
    let per_rank = cli::per_rank_nnz(&a, &part);
    let imbalance = cli::partition_imbalance(&a, &part);
    eprintln!(
        "matrix {name} ({} rows, {} nnz), s = {s}, {NRANKS} ranks: per-rank nnz {per_rank:?}, imbalance {imbalance:.2}",
        a.nrows(),
        a.nnz(),
    );

    let conf = config(s);
    let (unguarded, guarded) = (false, true);

    // ---- Baselines: fault-free, guards off vs. on ---------------------
    let base_un = run_cell(&a, &b, &conf, &part, unguarded, None);
    let base_g = run_cell(&a, &b, &conf, &part, guarded, None);
    assert!(base_un.converged_all, "fault-free baseline must converge");
    assert!(base_g.converged_all);
    assert_eq!(
        base_un.x, base_g.x,
        "guards at zero faults must be bitwise transparent"
    );
    let added_reductions =
        base_g.r.comm_total.allreduces as isize - base_un.r.comm_total.allreduces as isize;
    assert_eq!(added_reductions, 0, "guards must add zero reductions");
    assert_eq!(base_g.r.faults_detected, 0);
    eprintln!(
        "baseline: {} iterations, {} reductions (guards add {added_reductions}), bitwise transparent",
        base_g.r.iterations, base_g.r.comm_total.allreduces
    );

    // ---- Guard overhead at zero faults (serial timing) ----------------
    // The solve is only a few milliseconds, so the estimator has to be
    // robust to scheduler/cache noise: warm up both paths, time the two
    // variants back to back in interleaved pairs (so slow phases of the
    // machine hit both equally), and take the median of the per-pair
    // ratios.  Each side assembles its matrix once; the guarded one lives
    // on one guarded communicator across every solve.
    let runs = if quick { 25 } else { 41 };
    let whole = block_row_partition(a.nrows(), 1);
    let serial_un = DistCsr::from_global(SerialComm::new(), &a, &whole);
    let serial_g = DistCsr::from_global(
        GuardedComm::wrap(SerialComm::new(), HALO_TIMEOUT),
        &a,
        &whole,
    );
    let solver = SStepGmres::new(conf.clone());
    let solve_serial = |dist: &DistCsr| solver.solve(dist, &Identity, &b, &mut vec![0.0; b.len()]);
    for _ in 0..3 {
        solve_serial(&serial_un);
        solve_serial(&serial_g);
    }
    let mut t_un = Vec::with_capacity(runs);
    let mut t_g = Vec::with_capacity(runs);
    let mut ratios = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = solve_serial(&serial_un);
        let dt_un = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let rg = solve_serial(&serial_g);
        let dt_g = t1.elapsed().as_secs_f64();
        assert_eq!(r.iterations, rg.iterations);
        t_un.push(dt_un);
        t_g.push(dt_g);
        ratios.push(dt_g / dt_un);
    }
    let med_un = t_un.iter().copied().fold(f64::INFINITY, f64::min);
    let med_g = t_g.iter().copied().fold(f64::INFINITY, f64::min);
    ratios.sort_by(f64::total_cmp);
    let overhead_ratio = ratios[runs / 2];
    eprintln!(
        "guard overhead at zero faults: min {:.2} ms guarded vs {:.2} ms unguarded (paired-median ratio {overhead_ratio:.3})",
        med_g * 1e3,
        med_un * 1e3
    );
    // Only enforce the budget on the built-in problem: a user-supplied
    // matrix can be small enough that the solve is all timer noise.
    if headline {
        assert!(
            overhead_ratio < 1.05,
            "guard overhead at zero faults must stay below 5% (measured {:.1}%)",
            (overhead_ratio - 1.0) * 100.0
        );
    }

    // ---- Report, part 1: everything known before the fault cells -----
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "faults")
        .field("quick", quick)
        .field("matrix", &name)
        .field("n", a.nrows())
        .field("s", s)
        .field("nranks", NRANKS);
    w.key("partition")
        .begin_object()
        .key("per_rank_nnz")
        .begin_array();
    for nnz in &per_rank {
        w.value(nnz);
    }
    w.end_array().field("imbalance", imbalance).end_object();
    w.key("baseline")
        .begin_object()
        .field("iterations", base_g.r.iterations)
        .field("reductions", base_g.r.comm_total.allreduces)
        .field("guards_added_reductions", added_reductions)
        .field("guards_bitwise_transparent", true)
        .end_object();
    w.key("overhead")
        .begin_object()
        .field("runs", runs)
        .field("unguarded_ms", med_un * 1e3)
        .field("guarded_ms", med_g * 1e3)
        .field("ratio", overhead_ratio)
        .field("asserted_below", 1.05)
        .end_object();

    // ---- Headline SDC cells (built-in matrix only) --------------------
    if headline {
        assert!(
            base_g.r.restarts > 1,
            "headline premise: the solve must take more than one cycle"
        );

        // Cell A — sdc-gram: flip exponent bit 62 of word 9 (the (1,0)
        // off-diagonal of the 8×8 Gram block behind the 8-word projection
        // prefix) in rank 0's contribution to the first panel Gram reduce.
        let plan_gram = FaultPlan::none().with(
            Target::nth(OpKind::Allreduce, 0)
                .on_rank(0)
                .in_phase("ortho")
                .with_min_words(s * s + 1),
            FaultKind::BitFlip {
                word: Some(s + 1),
                bit: 62,
            },
        );
        let gram_un = run_cell(&a, &b, &conf, &part, unguarded, Some(&plan_gram));
        let gram_g = run_cell(&a, &b, &conf, &part, guarded, Some(&plan_gram));
        assert!(!gram_g.events.is_empty(), "the flip must fire");
        assert!(
            gram_g.r.faults_detected >= 1,
            "sdc-gram: the symmetry screen must detect the flip"
        );
        assert!(gram_g.r.faults_recovered >= 1);
        assert_eq!(gram_g.r.faults_unrecovered, 0);
        assert!(gram_g.converged_all);
        assert_eq!(
            gram_g.x, base_g.x,
            "sdc-gram: in-place repair must be bitwise exact"
        );
        assert_eq!(
            gram_g.r.iterations, base_g.r.iterations,
            "sdc-gram: repaired solve must pay zero iteration overhead"
        );
        let gram_un_relres = true_relres(&a, &b, &gram_un.x);
        eprintln!(
            "sdc-gram: guarded detected {} / recovered {} (0 iteration overhead, bitwise repair); \
             unguarded: converged {}, {} iterations (+{} vs fault-free), true relres {:.2e}",
            gram_g.r.faults_detected,
            gram_g.r.faults_recovered,
            gram_un.converged_all,
            gram_un.r.iterations,
            gram_un.r.iterations as isize - base_un.r.iterations as isize,
            gram_un_relres
        );

        // Cell B — sdc-norm: clear the top exponent bit (62) of every
        // rank's contribution to the *initial* residual-norm reduce (the
        // 1×1 Gram of r₀).  Each squared partial collapses by 2⁻¹⁰²⁴, so
        // the reference norm ‖r₀‖ — which both sets the relative
        // convergence target and scales the first basis vector — shrinks
        // by ~2⁻⁵¹².  The unguarded solve runs on into overflow territory
        // yet every *reported* diagnostic stays believable: `converged`,
        // final relres just under the tolerance — while the returned
        // answer is wrong by ~150 orders of magnitude.
        let plan_norm = FaultPlan::none().with(
            Target::nth(OpKind::Allreduce, 0).in_phase("residual"),
            FaultKind::BitFlip {
                word: Some(0),
                bit: 62,
            },
        );
        let norm_un = run_cell(&a, &b, &conf, &part, unguarded, Some(&plan_norm));
        let norm_un_relres = true_relres(&a, &b, &norm_un.x);
        // Silence: the solver *reports* success — converged, with a final
        // relative residual just under the tolerance — while the answer is
        // wrong by orders of magnitude.  (Unguarded, there is no fault
        // diagnostic of any kind; the breakdown record only ever mentions
        // the usual numerical rescue of the rank-deficient s = 8 panels.)
        assert!(
            norm_un.converged_all,
            "sdc-norm: the unguarded solver must *believe* it converged"
        );
        assert!(
            norm_un.r.final_relres[0] <= conf.tol,
            "sdc-norm: the reported residual must claim success"
        );
        assert!(
            norm_un_relres > 1e2 * conf.tol,
            "sdc-norm: the unguarded answer must be wrong (true relres {norm_un_relres:.2e})"
        );
        let norm_g = run_cell(&a, &b, &conf, &part, guarded, Some(&plan_norm));
        let norm_g_relres = true_relres(&a, &b, &norm_g.x);
        assert!(norm_g.r.faults_detected >= 1);
        assert!(norm_g.converged_all);
        assert!(
            norm_g_relres <= 10.0 * conf.tol,
            "sdc-norm: the guarded solve must converge for real"
        );
        eprintln!(
            "sdc-norm: unguarded silently 'converged' at true relres {norm_un_relres:.2e}; \
             guarded detected {} and finished at true relres {norm_g_relres:.2e}",
            norm_g.r.faults_detected
        );

        // Bitwise replay of a headline cell from its (explicit) plan.
        let norm_g2 = run_cell(&a, &b, &conf, &part, guarded, Some(&plan_norm));
        assert_eq!(norm_g.x, norm_g2.x, "headline cell must replay bitwise");
        assert_eq!(norm_g.r.iterations, norm_g2.r.iterations);

        w.key("headline")
            .begin_object()
            .field("matrix", &name)
            .field("s", s)
            .field("nranks", NRANKS);
        w.key("sdc_gram")
            .begin_object()
            .field("injected", gram_g.events.len())
            .field("detected", gram_g.r.faults_detected)
            .field("recovered", gram_g.r.faults_recovered)
            .field("unrecovered", gram_g.r.faults_unrecovered)
            .field("converged", gram_g.converged_all)
            .field("iteration_overhead", 0usize)
            .field("repair_bitwise", true)
            .field("unguarded_converged", gram_un.converged_all)
            .field(
                "unguarded_iter_overhead",
                gram_un.r.iterations as isize - base_un.r.iterations as isize,
            )
            .field("unguarded_relres", gram_un_relres)
            .end_object();
        w.key("sdc_norm")
            .begin_object()
            .field("detected", norm_g.r.faults_detected)
            .field("converged", norm_g.converged_all)
            .field("guarded_relres", norm_g_relres)
            .field("unguarded_converged", norm_un.converged_all)
            .field("unguarded_silent", true)
            .field("unguarded_relres", norm_un_relres)
            .field("wrong_answer", true)
            .end_object();
        w.field("replay_bitwise", true).end_object();
    }

    // ---- Seeded campaign grid: kind × rate × phase --------------------
    // Census of the operations a plan can reach in the fault-free guarded
    // solve: a zero-length stall on every one records it as an event.
    let zero_stalls = FaultRates {
        stall: 1.0,
        ..FaultRates::default()
    };
    let census_plan = FaultPlan::from_seed(0, zero_stalls);
    let census = run_cell(&a, &b, &conf, &part, guarded, Some(&census_plan));
    assert_eq!(census.x, base_g.x, "zero-length stalls change nothing");
    const WIRE: &[OpKind] = &[OpKind::Allreduce, OpKind::Send];
    // Each kind with the operations it acts on.
    let kinds: [(&str, &[OpKind]); 5] = [
        ("bitflip", WIRE),
        ("opfail", &[OpKind::Allreduce]),
        ("drop", &[OpKind::Send]),
        ("duplicate", &[OpKind::Send]),
        ("stall", WIRE),
    ];
    let all_phases: &[Option<&'static str>] = &[None, Some("ortho"), Some("mpk")];
    let phases = if quick { &all_phases[..1] } else { all_phases };
    // Census operations of the kinds `ops` in `phase` (`None` = any),
    // summed over the ranks.
    let reachable = |ops: &[OpKind], phase: Option<&str>| {
        let hit = |e: &&FaultEvent| ops.contains(&e.op) && phase.is_none_or(|p| p == e.phase);
        census.events.iter().filter(hit).count()
    };
    // A kind's rate is set so that its sparsest cell (a phase with no
    // reachable operation cannot inject and is skipped) expects this many
    // injections; every other cell of the kind expects more.
    let expect: &[f64] = if quick { &[8.0] } else { &[2.0, 8.0] };

    let mut rows = Vec::new();
    for (ki, &(kind, ops)) in kinds.iter().enumerate() {
        let sparsest = all_phases
            .iter()
            .map(|&p| reachable(ops, p))
            .filter(|&n| n > 0)
            .min()
            .expect("every kind reaches some operation");
        for (ri, &e) in expect.iter().enumerate() {
            let rate = e / sparsest as f64;
            for (pi, &phase) in phases.iter().enumerate() {
                let ops_in_phase = reachable(ops, phase);
                if ops_in_phase == 0 {
                    continue;
                }
                let seed = 0xFA17_0000_u64 + (ki as u64) * 1000 + (ri as u64) * 100 + pi as u64;
                let mut plan = FaultPlan::from_seed(seed, rates_of(kind, rate));
                plan.rate_phase = phase;
                let cell = run_cell(&a, &b, &conf, &part, guarded, Some(&plan));
                rows.push(Trial {
                    kind,
                    rate,
                    phase: phase.unwrap_or("any"),
                    seed,
                    expected: rate * ops_in_phase as f64,
                    injected: cell.events.len(),
                    detected: cell.r.faults_detected,
                    by_guard: by_guard(&cell.r.fault_events),
                    recovered: cell.r.faults_recovered,
                    unrecovered: cell.r.faults_unrecovered,
                    retries: cell.r.comm_total.allreduce_retries,
                    converged: cell.converged_all,
                    iterations: cell.r.iterations,
                    iteration_overhead: cell.r.iterations as isize - base_g.r.iterations as isize,
                    relres: true_relres(&a, &b, &cell.x),
                });
            }
        }
        assert!(
            rows.iter().any(|t| t.kind == kind && t.injected > 0),
            "{kind}: no campaign cell injected a fault"
        );
    }

    // Bitwise replay of one seeded campaign cell: the first kind's
    // any-phase cell at the lowest rate.
    let replay_row = &rows[0];
    let replay_plan =
        FaultPlan::from_seed(replay_row.seed, rates_of(replay_row.kind, replay_row.rate));
    let first = run_cell(&a, &b, &conf, &part, guarded, Some(&replay_plan));
    let second = run_cell(&a, &b, &conf, &part, guarded, Some(&replay_plan));
    assert_eq!(
        first.x, second.x,
        "a seeded campaign cell must replay bitwise"
    );
    assert_eq!(first.r.comm_total, second.r.comm_total);
    assert_eq!(first.events, second.events);
    eprintln!(
        "replay: seed {:#x} reproduced bitwise ({} injections)",
        replay_row.seed,
        first.events.len()
    );

    // ---- Report -------------------------------------------------------
    let table = Table::of(&rows);
    table.print("faults: seeded injection campaign (guards on)");
    w.key("campaign");
    table.write_json(&mut w);
    w.field("replay_bitwise", true).end_object();
    bench::emit("BENCH_faults.json", &w.finish());
    eprintln!("wrote BENCH_faults.json ({} campaign cells)", rows.len());
    args.finish();
}
