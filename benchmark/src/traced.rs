//! The traced pass: one recorded solve per variant, then the layer
//! replay.  Every per-layer metric comes from here; no end-to-end metric
//! does.

use crate::comm;
use crate::json::Value;
use crate::layers::{self, Cycle, DenseRates};
use crate::run::{on_ranks, problem_info, Gather, Report, Rounds, Session, Solved};
use crate::spans::{self, Span};
use crate::stats::{median, Summary};
use crate::verify::Findings;
use crate::workload::{build_global, Rank, SolveStats, Spec, Variant, RESTART, STEP};
use blockortho::{make_orthogonalizer, OrthoKind};
use perfmodel::{block_ortho_reduce_count, SchemeKind};
use std::time::Instant;

/// The spans of this many rounds of the layer replay go to the trace file;
/// later rounds only add samples to the medians (a 30 s pass replays some
/// workloads sixty times, which is 50 000 spans saying the same thing).
const REPLAYS_KEPT: usize = 3;

/// Untraced and traced `two_stage` solves are alternated this many times;
/// their medians give `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 5;

/// What `TimedComm` saw during one solve.
#[derive(Default)]
struct CommSeen {
    allreduce_calls: u64,
    allreduce_words: u64,
    collective_s: f64,
    injected_s: f64,
    p2p_msgs: u64,
    p2p_words: u64,
    recv_wait_s: f64,
}

impl CommSeen {
    fn from_spans(spans: &[Span]) -> CommSeen {
        let mut seen = CommSeen::default();
        for s in spans {
            let dur = s.dur_ns() as f64 * 1e-9;
            match s.name.as_str() {
                comm::INJECTED_DELAY => seen.injected_s += dur,
                comm::SEND => {
                    seen.p2p_msgs += 1;
                    seen.p2p_words += s.words;
                }
                comm::RECV => seen.recv_wait_s += dur,
                name if comm::COLLECTIVES.contains(&name) => {
                    seen.collective_s += dur;
                    if name == comm::ALLREDUCE {
                        seen.allreduce_calls += 1;
                        seen.allreduce_words += s.words;
                    }
                }
                _ => {}
            }
        }
        seen
    }
}

struct Traced {
    metrics: Vec<(String, &'static str, Summary)>,
    findings: Findings,
    spans: Vec<Span>,
    replays: usize,
}

/// The traced pass of one workload: the report and every span recorded.
pub fn run_traced(spec: &Spec, seed: u64, rounds: Rounds, quick: bool) -> (Report, Vec<Span>) {
    parkit::set_num_threads(1);
    // The program's own tracer stays off: spans are the benchmark's.
    trace::set_enabled(false);
    let global = build_global(spec, seed);
    let gather = Gather::new(&global);
    let out = on_ranks(spec, &global, |rank| {
        traced_body(rank, spec, &gather, rounds, quick)
    })
    .unwrap_or_else(|why| Traced {
        metrics: Vec::new(),
        findings: Findings::lost(why),
        spans: Vec::new(),
        replays: 0,
    });
    let nloc = global.part.local_rows(0);
    let (nnz, rows) = (global.a.nnz(), global.a.nrows());
    let mut info = problem_info(spec, &global);
    info.extend([
        ("replays", out.replays.into()),
        (
            "basis_bytes_computed",
            (8 * nloc * spec.rhs_cols * (RESTART + 1)).into(),
        ),
        ("csr_bytes_computed", (12 * nnz + 8 * (rows + 1)).into()),
    ]);
    let report = Report {
        workload: spec.name,
        seed,
        findings: out.findings,
        metrics: out.metrics,
        samples: Vec::new(),
        info: Value::obj(info),
    };
    (report, out.spans)
}

/// The orthogonalization schemes the replay times: the four variants and
/// the sketched two-stage.
fn replay_kinds() -> Vec<(&'static str, Option<Variant>, OrthoKind)> {
    let mut kinds: Vec<_> = Variant::ALL
        .iter()
        .map(|&v| (v.name(), Some(v), v.ortho()))
        .collect();
    kinds.push((
        "two_stage_sk",
        None,
        OrthoKind::TwoStageSketched { big_panel: RESTART },
    ));
    kinds
}

fn scheme_of(variant: Variant) -> SchemeKind {
    match variant {
        Variant::Std => SchemeKind::StandardCgs2,
        Variant::Bcgs2 => SchemeKind::Bcgs2CholQr2,
        Variant::Pip2 => SchemeKind::BcgsPip2,
        Variant::TwoStage => SchemeKind::TwoStage { bs: RESTART },
    }
}

/// A solve with the recorder on, and what `TimedComm` saw during it.
struct Recorded {
    solved: Solved,
    seen: CommSeen,
}

fn recorded_solve(session: &mut Session<'_>, variant: Variant) -> Option<Recorded> {
    let mark = spans::mark();
    spans::set_enabled(session.rank.raw.rank() == 0);
    let solved = session.solve(variant);
    spans::set_enabled(false);
    let solved = solved?;
    let seen = CommSeen::from_spans(&spans::since(mark));
    // The decorator and the solver's own ledger count the same calls.
    let ledger = &solved.stats.comm;
    if (seen.allreduce_calls, seen.allreduce_words)
        != (ledger.allreduces as u64, ledger.allreduce_words as u64)
    {
        session.findings.problems.push(format!(
            "{}: TimedComm saw {} all-reduces of {} words, CommStats {} of {}",
            variant.name(),
            seen.allreduce_calls,
            seen.allreduce_words,
            ledger.allreduces,
            ledger.allreduce_words
        ));
    }
    Some(Recorded { solved, seen })
}

/// Part (A): the recorded solves.
struct Solves {
    /// The last recorded solve of each variant, in the order of
    /// [`Variant::ALL`].
    recorded: Vec<Option<Recorded>>,
    /// Seconds of the untraced and the recorded `two_stage` solves that
    /// were alternated.
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
}

/// One recorded solve per variant.  `two_stage` alternates with untraced
/// solves of itself, which prices the recorder.
fn recorded_solves(session: &mut Session<'_>, quick: bool) -> Solves {
    let mut solves = Solves {
        recorded: Vec::new(),
        plain_s: Vec::new(),
        traced_s: Vec::new(),
    };
    for variant in Variant::ALL {
        let priced = variant == Variant::TwoStage;
        let mut last = None;
        for _ in 0..if priced && !quick { OVERHEAD_PAIRS } else { 1 } {
            if priced {
                solves
                    .plain_s
                    .extend(session.solve(variant).map(|s| s.seconds));
            }
            if let Some(rec) = recorded_solve(session, variant) {
                if priced {
                    solves.traced_s.push(rec.solved.seconds);
                }
                last = Some(rec);
            }
        }
        solves.recorded.push(last);
    }
    solves
}

/// Part (B): the layer replay.
struct Replays {
    /// Rank 0 only: triad GB/s, dispatch µs, and the kernel rates.
    host: Option<(f64, f64)>,
    dense: Option<DenseRates>,
    /// Replayed cycles of each of [`replay_kinds`].
    cycles: Vec<Vec<Cycle>>,
    /// Replayed cycles of two-stage with the flush left to `finish`.
    split: Vec<Cycle>,
    rounds: usize,
    problems: Vec<String>,
}

/// Only rank 0 records and probes; the cycle replay is collective because
/// its SpMVs exchange halos.
fn layer_replay(
    session: &Session<'_>,
    spec: &Spec,
    solves: &Solves,
    window: Instant,
    rounds: Rounds,
    quick: bool,
) -> Replays {
    let rank = session.rank;
    let rank0 = rank.raw.rank() == 0;
    let kb = spec.rhs_cols;
    spans::set_enabled(rank0);
    rank.raw.barrier();
    let host = rank0.then(|| {
        let _root = spans::open("replay:host", 0);
        (layers::triad_gbs(quick), layers::dispatch_us())
    });
    let dense = rank0.then(|| {
        layers::dense_rates(
            rank.local_rows(),
            RESTART / 2 * kb,
            STEP * kb,
            RESTART * kb,
            if quick { 2 } else { 5 },
        )
    });
    rank.raw.barrier();
    let kinds = replay_kinds();
    // Every rank must replay the same number of columns, and only rank 0
    // holds the solves: it tells the others how far each first cycle went.
    let mut first_cycle_cols: Vec<f64> = solves
        .recorded
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.solved.stats.first_cycle_cols) as f64)
        .collect();
    first_cycle_cols.resize(Variant::ALL.len(), 0.0);
    rank.raw.broadcast(0, &mut first_cycle_cols);
    let limit = |variant: Variant, width: usize| {
        let at = Variant::ALL.iter().position(|&v| v == variant);
        width + first_cycle_cols[at.expect("a variant")] as usize
    };
    let mut out = Replays {
        host,
        dense,
        cycles: kinds.iter().map(|_| Vec::new()).collect(),
        split: Vec::new(),
        rounds: 0,
        problems: Vec::new(),
    };
    loop {
        let round_start = Instant::now();
        let keep = out.rounds < REPLAYS_KEPT;
        for ((label, variant, kind), into) in kinds.iter().zip(&mut out.cycles) {
            // `std` solves the columns of a block one after another.
            let width = if *variant == Some(Variant::Std) {
                1
            } else {
                kb
            };
            let step = variant.map_or(STEP, Variant::step);
            // The sketched scheme has no solve of its own; it goes as far
            // as `two_stage`.
            let cols = limit(variant.unwrap_or(Variant::TwoStage), width);
            match layers::replay_cycle(rank, label, step, width, cols, keep, &|total| {
                make_orthogonalizer(kind.for_block_width(width), total)
            }) {
                Ok(cycle) => into.push(cycle),
                Err(why) => out.problems.push(why),
            }
        }
        // The two-stage scheme again with the flush left to `finish`, so
        // that the stages can be timed apart from outside: the same panels
        // and the same one flush over all columns.
        let cols = limit(Variant::TwoStage, kb);
        match layers::replay_cycle(rank, "two_stage_split", STEP, kb, cols, keep, &|total| {
            let never = total + 1;
            make_orthogonalizer(OrthoKind::TwoStage { big_panel: never }, never)
        }) {
            Ok(cycle) => out.split.push(cycle),
            Err(why) => out.problems.push(why),
        }
        out.rounds += 1;
        let more = rounds.more(out.rounds, window, round_start.elapsed().as_secs_f64());
        if !session.agree(more) {
            break;
        }
    }
    spans::set_enabled(false);
    out
}

fn traced_body(
    rank: &Rank,
    spec: &Spec,
    gather: &Gather<'_>,
    rounds: Rounds,
    quick: bool,
) -> Option<Traced> {
    let window = Instant::now();
    let mut session = Session::new(rank, gather);
    // Warm-up round, untraced.
    for variant in Variant::ALL {
        session.solve(variant);
    }
    let solves = recorded_solves(&mut session, quick);
    let replays = layer_replay(&session, spec, &solves, window, rounds, quick);
    if rank.raw.rank() != 0 {
        return None;
    }
    let metrics = layer_metrics(rank, spec.rhs_cols, &solves, &replays);
    let mut findings = session.findings;
    findings.problems.extend(replays.problems);
    Some(Traced {
        metrics,
        findings,
        spans: spans::take(),
        replays: replays.rounds,
    })
}

/// The per-layer metrics, in the order of `BENCHMARK.json`.  Rank 0.
fn layer_metrics(
    rank: &Rank,
    kb: usize,
    solves: &Solves,
    replays: &Replays,
) -> Vec<(String, &'static str, Summary)> {
    let (triad, dispatch) = replays.host.expect("rank 0 probed the host");
    let dense = replays.dense.as_ref().expect("rank 0 timed the kernels");
    let cycles = &replays.cycles;
    let two_stage = Variant::ALL
        .iter()
        .position(|&v| v == Variant::TwoStage)
        .expect("two_stage is a variant");
    let med =
        |cycles: &[Cycle], f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    // What `TimedComm` saw, and what the solver reported, for variant `v`.
    let seen = |v: usize, f: fn(&CommSeen) -> f64| {
        solves.recorded[v].as_ref().map_or(f64::NAN, |r| f(&r.seen))
    };
    let stat = |v: usize, f: fn(&SolveStats) -> usize| {
        solves.recorded[v]
            .as_ref()
            .map_or(f64::NAN, |r| f(&r.solved.stats) as f64)
    };

    let mut metrics: Vec<(String, &'static str, Summary)> = Vec::new();
    let mut put = |name: String, unit: &'static str, value: f64| {
        metrics.push((name, unit, Summary::single(value)));
    };
    let each = |stem: &str| {
        Variant::ALL
            .iter()
            .enumerate()
            .map(move |(v, variant)| (v, format!("{stem}.{}", variant.name())))
            .collect::<Vec<_>>()
    };

    put("host.triad_gbs".into(), "GB/s", triad);
    put("host.lanes".into(), "count", parkit::pool_lanes() as f64);
    put("par.dispatch_us".into(), "us", dispatch);
    for (name, unit, value) in [
        ("gram_s5_gflops", "GFLOP/s", dense.gram_s_gflops),
        ("gram_bs60_gflops", "GFLOP/s", dense.gram_bs_gflops),
        ("gemm_tn_s5_gflops", "GFLOP/s", dense.gemm_tn_s_gflops),
        ("gemm_nn_minus_s5_gbs", "GB/s", dense.gemm_nn_minus_s_gbs),
        ("trsm_s5_gbs", "GB/s", dense.trsm_s_gbs),
        ("trsm_bs60_gbs", "GB/s", dense.trsm_bs_gbs),
        ("fused_upg_s5_gbs", "GB/s", dense.fused_upg_s_gbs),
        ("read_bw_frac", "ratio", dense.best_read_gbs / triad),
        ("write_bw_frac", "ratio", dense.best_write_gbs / triad),
    ] {
        put(format!("dense.{name}"), unit, value);
    }

    // SpMV as the two-stage replay ran it.
    let spmv_s = median(
        &cycles[two_stage]
            .iter()
            .flat_map(|c| c.spmv_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    let local = rank.dist.local_matrix();
    let (nnz, nloc) = (local.nnz() as f64, local.nrows() as f64);
    put("sparse.spmv_us".into(), "us", spmv_s * 1e6);
    put(
        "sparse.spmv_gbs".into(),
        "GB/s",
        (12.0 * nnz + 16.0 * nloc) / spmv_s * 1e-9,
    );
    put(
        "sparse.spmv_gflops".into(),
        "GFLOP/s",
        2.0 * nnz / spmv_s * 1e-9,
    );

    for (v, name) in each("distsim.allreduce_calls") {
        put(name, "count", seen(v, |s| s.allreduce_calls as f64));
    }
    for (v, name) in each("distsim.allreduce_words") {
        put(name, "count", seen(v, |s| s.allreduce_words as f64));
    }
    for (v, name) in each("distsim.collective_s") {
        put(name, "s", seen(v, |s| s.collective_s));
    }
    for (v, name) in each("distsim.injected_s") {
        put(name, "s", seen(v, |s| s.injected_s));
    }
    put(
        "distsim.p2p_msgs".into(),
        "count",
        seen(two_stage, |s| s.p2p_msgs as f64),
    );
    put(
        "distsim.p2p_words".into(),
        "count",
        seen(two_stage, |s| s.p2p_words as f64),
    );
    put(
        "distsim.recv_wait_s".into(),
        "s",
        seen(two_stage, |s| s.recv_wait_s),
    );

    for (v, name) in each("ortho.cycle_s") {
        put(name, "s", med(&cycles[v], Cycle::ortho_s));
    }
    let sketched = cycles.last().expect("the sketched kind is replayed");
    put(
        "ortho.cycle_s.two_stage_sk".into(),
        "s",
        med(sketched, Cycle::ortho_s),
    );
    let stage1_s = med(&replays.split, |c| c.panels_s);
    let stage2_s = med(&replays.split, |c| c.finish_s);
    let n = rank.local_rows();
    let panel = STEP * kb;
    let split_cols = replays.split.first().map_or(kb, |c| c.cols);
    let stage1_flops: f64 = (kb..split_cols)
        .step_by(panel)
        .map(|prev| layers::pip_flops(n, prev, panel))
        .sum();
    let stage2_flops = layers::pip_flops(n, 0, split_cols);
    put("ortho.stage1_s".into(), "s", stage1_s);
    put("ortho.stage2_s".into(), "s", stage2_s);
    put(
        "ortho.stage1_gflops".into(),
        "GFLOP/s",
        stage1_flops / stage1_s * 1e-9,
    );
    put(
        "ortho.stage2_gflops".into(),
        "GFLOP/s",
        stage2_flops / stage2_s * 1e-9,
    );
    let all_cycles = || cycles.iter().flatten().chain(&replays.split);
    put(
        "ortho.fallbacks".into(),
        "count",
        all_cycles().map(|c| c.fallbacks).sum::<usize>() as f64,
    );
    put(
        "ortho.loss_of_orth".into(),
        "ratio",
        all_cycles().map(|c| c.loss_of_orth).fold(0.0, f64::max),
    );

    for (v, name) in each("core.iters") {
        put(name, "count", stat(v, |s| s.iters));
    }
    let restarts = stat(two_stage, |s| s.restarts);
    let spmv_count = stat(two_stage, |s| s.spmv);
    put("core.restarts.two_stage".into(), "count", restarts);
    put("core.spmv_count.two_stage".into(), "count", spmv_count);
    let traced_solve_s = median(&solves.traced_s);
    let attributed = spmv_s * spmv_count
        + med(&cycles[two_stage], Cycle::ortho_s) * restarts
        + seen(two_stage, |s| s.collective_s);
    put(
        "core.unattributed_frac.two_stage".into(),
        "ratio",
        1.0 - attributed / traced_solve_s,
    );

    let counts_match = Variant::ALL.iter().enumerate().all(|(v, &variant)| {
        let width = if variant == Variant::Std { 1 } else { kb };
        !cycles[v].is_empty()
            && cycles[v].iter().all(|c| {
                let steps = c.cols / width - 1;
                c.allreduces
                    == block_ortho_reduce_count(scheme_of(variant), steps, variant.step(), width)
            })
    });
    put(
        "perfmodel.reduce_count_match".into(),
        "count",
        if counts_match { 1.0 } else { 0.0 },
    );
    put(
        "trace.overhead_frac".into(),
        "ratio",
        traced_solve_s / median(&solves.plain_s) - 1.0,
    );
    metrics
}
