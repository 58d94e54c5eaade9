//! Kernel baseline benchmark: times the four hot BLAS-3 kernels (blocked
//! vs. retained naive formulations), the fused update+Gram pass, Gram and
//! TRSM at the wide stage-2 flush shapes, the stage-1 update at its widest
//! `lap2d_k4` shape, the SpMV on the two benchmark
//! operators (reference `Csr::spmv` vs. the `SlicedCsr` operator format,
//! asserted bit-identical), and one s-step GMRES iteration
//! across panel shapes and thread counts, then
//! writes `BENCH_kernels.json` — the perf trajectory every later PR is
//! measured against.
//!
//! ```sh
//! cargo run -p bench --release --bin kernels          # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin kernels   # CI mode
//! ```
//!
//! Reported per row: wall seconds (best of repetitions), GF/s against the
//! kernel's flop model, the minimum bytes the kernel must move, the thread
//! count, and a speedup column: single-thread blocked `gram`/`gemm_tn`
//! rows are measured against the naive reference, multi-thread blocked
//! rows against the 1-thread blocked time of the same kernel and shape
//! (the multithread scaling signature), and fused rows against the
//! separate blocked sweeps.  The naive update and TRSM time a libm `fma`
//! call per element, so their 1-thread blocked rows carry no speedup.
//! `TWOSTAGE_NUM_THREADS` is overridden internally per row.
//!
//! With `BENCH_SCALING_CHECK=1` the binary exits non-zero if the fused
//! pass is slower than the separate sweeps at any thread count, or — on
//! machines with ≥ 2 hardware threads — if the widest-thread blocked
//! `gram`/`gemm_tn` rows fail to beat their 1-thread times.  On a single
//! hardware thread real scaling is impossible, so the check instead bounds
//! pool dispatch overhead.

use bench::Table;
use dense::Matrix;
use ssgmres::{GmresConfig, OrthoKind, SStepGmres};
use std::hint::black_box;
use std::time::Instant;
use trace::JsonWriter;

bench::table_row! {
    /// One measured configuration.
    struct Row {
        kernel: &'static str,
        variant: &'static str,
        n: usize,
        s: usize,
        k: usize,
        threads: usize,
        secs: f64,
        gflops: f64,
        bytes_moved: u64,
        /// What `speedup` is measured against (absent for baseline rows).
        baseline: Option<&'static str>,
        /// `baseline_secs / secs` for the same shape and thread count.
        speedup: Option<f64>,
    }
}

/// What one call of a kernel at one shape costs: its flop model and the
/// minimum bytes it must move.
#[derive(Clone, Copy)]
struct Cost {
    kernel: &'static str,
    n: usize,
    s: usize,
    k: usize,
    flops: f64,
    bytes: u64,
}

impl Cost {
    /// The row of `variant` at `threads` taking `secs`, measured against
    /// `baseline` (its name and seconds) when there is one.
    fn row(
        &self,
        variant: &'static str,
        threads: usize,
        secs: f64,
        baseline: Option<(&'static str, f64)>,
    ) -> Row {
        Row {
            kernel: self.kernel,
            variant,
            n: self.n,
            s: self.s,
            k: self.k,
            threads,
            secs,
            gflops: self.flops / secs * 1e-9,
            bytes_moved: self.bytes,
            baseline: baseline.map(|(name, _)| name),
            speedup: baseline.map(|(_, base_secs)| base_secs / secs),
        }
    }
}

/// A BLAS-3 kernel at one shape: its cost, then its naive and its blocked
/// call, each on a scratch copy of the input panel.
type Kernel<'a> = (Cost, &'a dyn Fn(&mut Matrix), &'a dyn Fn(&mut Matrix));

/// Best-of-k wall time of `f`, with one untimed warmup call.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The kernels whose naive reference runs one `f64::mul_add` per element,
/// a libm call in a build without compile-time FMA: their naive time
/// measures that call, not the blocking.
const LIBM_FMA_NAIVE: [&str; 2] = ["gemm_nn_minus", "trsm_right_upper"];

/// Time every kernel's naive call at one thread, then its blocked call at
/// each thread count: 1-thread blocked rows are measured against the naive
/// call (except [`LIBM_FMA_NAIVE`]'s, which get none), multithread ones
/// against the 1-thread blocked call.  A call runs on
/// a copy of `v`, restored outside the timed region (at the flush shapes the
/// copy takes as long as the call).
fn time_kernels(
    rows: &mut Vec<Row>,
    v: &Matrix,
    reps: usize,
    thread_counts: &[usize],
    kernels: &[Kernel],
) {
    let mut w = v.clone();
    let mut time = |call: &dyn Fn(&mut Matrix)| {
        let mut best = f64::INFINITY;
        for _ in 0..=reps {
            w.data_mut().copy_from_slice(v.data());
            let t0 = Instant::now();
            call(&mut w);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    parkit::set_num_threads(1);
    let mut baselines = Vec::new();
    for (cost, naive, _) in kernels {
        let secs = time(*naive);
        rows.push(cost.row("naive", 1, secs, None));
        baselines.push((!LIBM_FMA_NAIVE.contains(&cost.kernel)).then_some(("naive", secs)));
    }
    for &t in thread_counts {
        parkit::set_num_threads(t);
        for ((cost, _, blocked), baseline) in kernels.iter().zip(&mut baselines) {
            let secs = time(*blocked);
            rows.push(cost.row("blocked", t, secs, *baseline));
            if t == 1 {
                *baseline = Some(("blocked_1thread", secs));
            }
        }
    }
    parkit::set_num_threads(0);
}

fn panel(n: usize, s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, s, |i, j| {
        ((i * 7 + j * 13 + seed * 29) % 101) as f64 * 0.01 - 0.5
            + if i % (j + 2) == 0 { 0.75 } else { 0.0 }
    })
}

/// Upper-triangular, comfortably conditioned normalization factor.
fn upper(s: usize) -> Matrix {
    Matrix::from_fn(s, s, |i, j| {
        if i > j {
            0.0
        } else if i == j {
            1.5 + i as f64 * 0.1
        } else {
            ((i + 2 * j) % 5) as f64 * 0.1 - 0.2
        }
    })
}

/// Benchmark the four kernels plus the fused pass on one `n×s` shape.
fn bench_shape(rows: &mut Vec<Row>, n: usize, s: usize, reps: usize, thread_counts: &[usize]) {
    let v = panel(n, s, 1);
    let q = panel(n, s, 2);
    let r = upper(s);
    let p = Matrix::from_fn(s, s, |i, j| ((i + j) % 7) as f64 * 0.05 - 0.1);
    let (nf, sf) = (n as f64, s as f64);
    // `panels` n×s panels of 8-byte words are the bytes a call must move.
    let cost = |kernel, k, flops, panels: usize| Cost {
        kernel,
        n,
        s,
        k,
        flops,
        bytes: (8 * n * panels * s) as u64,
    };
    let gram = cost("gram", 0, nf * sf * (sf + 1.0), 1);
    let tn = cost("gemm_tn", s, 2.0 * nf * sf * sf, 2);
    let upd = cost("gemm_nn_minus", s, 2.0 * nf * sf * sf, 3);
    let trsm = cost("trsm_right_upper", 0, nf * sf * (sf + 1.0), 2);
    // The naive calls are the pre-blocking formulations.
    time_kernels(
        rows,
        &v,
        reps,
        thread_counts,
        &[
            (
                gram,
                &|w| drop(black_box(dense::naive_gram(&w.view()))),
                &|w| drop(black_box(dense::gram(&w.view()))),
            ),
            (
                tn,
                &|w| drop(black_box(dense::naive_gemm_tn(&q.view(), &w.view()))),
                &|w| drop(black_box(dense::gemm_tn(&q.view(), &w.view()))),
            ),
            (
                upd,
                &|w| dense::naive_gemm_nn_minus(&mut w.view_mut(), &q.view(), &p),
                &|w| dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p),
            ),
            (
                trsm,
                &|w| dense::naive_trsm_right_upper(&mut w.view_mut(), &r),
                &|w| dense::trsm_right_upper(&mut w.view_mut(), &r),
            ),
        ],
    );
    // Fused update + [Q W]ᵀW pass vs. the three separate sweeps.
    let fused = Cost {
        kernel: "fused_update_proj_gram",
        flops: upd.flops + tn.flops + gram.flops,
        ..upd
    };
    for &t in thread_counts {
        parkit::set_num_threads(t);
        let fused_s = time_best(reps, || {
            let mut w = v.clone();
            black_box(dense::fused_update_proj_gram(
                &mut w.view_mut(),
                &q.view(),
                &p,
            ));
        });
        let separate_s = time_best(reps, || {
            let mut w = v.clone();
            dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
            black_box(dense::gemm_tn(&q.view(), &w.view()));
            black_box(dense::gram(&w.view()));
        });
        rows.push(fused.row(
            "fused",
            t,
            fused_s,
            Some(("separate_blocked_sweeps", separate_s)),
        ));
    }
    parkit::set_num_threads(0);
}

/// Gram and TRSM at a stage-2 flush shape — the `bs`-wide panels the
/// two-stage scheme actually hands these kernels (`bs = m` columns per
/// right-hand side), far wider than the `s ≤ 16` stage-1 shapes above.
fn bench_flush_shape(
    rows: &mut Vec<Row>,
    n: usize,
    s: usize,
    reps: usize,
    thread_counts: &[usize],
) {
    let v = panel(n, s, 1);
    // A Cholesky factor has no structural zeros; `upper`'s would send four
    // tiles in five down the zero-skipping path.
    let r = Matrix::from_fn(s, s, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => ((i + 2 * j) % 5) as f64 * 0.1 - 0.25,
        std::cmp::Ordering::Equal => 1.5 + i as f64 * 0.1,
        std::cmp::Ordering::Greater => 0.0,
    });
    let cost = |kernel, panels: usize| Cost {
        kernel,
        n,
        s,
        k: 0,
        flops: n as f64 * s as f64 * (s as f64 + 1.0),
        bytes: (8 * n * panels * s) as u64,
    };
    time_kernels(
        rows,
        &v,
        reps,
        thread_counts,
        &[
            (
                cost("gram", 1),
                &|w| drop(black_box(dense::naive_gram(&w.view()))),
                &|w| drop(black_box(dense::gram(&w.view()))),
            ),
            (
                cost("trsm_right_upper", 2),
                &|w| dense::naive_trsm_right_upper(&mut w.view_mut(), &r),
                &|w| dense::trsm_right_upper(&mut w.view_mut(), &r),
            ),
        ],
    );
}

/// The stage-1 update `V ← V − Q·R` at its widest in `lap2d_k4`: a panel of
/// `s = 20` columns (5 steps × 4 right-hand sides) against the `k = 224`
/// columns orthogonalized before it in the cycle.  Its coefficients are
/// projections, free of zeros like the solver's, so the whole update takes
/// the streaming kernel rather than the zero-skipping sweep.
fn bench_stage1_update(
    rows: &mut Vec<Row>,
    (n, s, k): (usize, usize, usize),
    reps: usize,
    thread_counts: &[usize],
) {
    let v = panel(n, s, 1);
    let q = panel(n, k, 2);
    let p = Matrix::from_fn(k, s, |i, j| ((i + 2 * j) % 5) as f64 * 0.1 - 0.25);
    let cost = Cost {
        kernel: "gemm_nn_minus",
        n,
        s,
        k,
        flops: 2.0 * n as f64 * k as f64 * s as f64,
        bytes: (8 * n * (k + 2 * s)) as u64,
    };
    time_kernels(
        rows,
        &v,
        reps,
        thread_counts,
        &[(
            cost,
            &|w| dense::naive_gemm_nn_minus(&mut w.view_mut(), &q.view(), &p),
            &|w| dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p),
        )],
    );
}

/// SpMV on one operator: the reference `Csr::spmv` against the
/// slice-interleaved `SlicedCsr::spmv` `DistCsr` runs, at one thread.  Bytes
/// are the benchmark's model (`sparse.spmv_gbs`): 12 B per nonzero (value +
/// 32-bit index) and 16 B per row (row pointer + output).  The two outputs
/// must agree bit for bit; no timing is asserted.
fn bench_spmv(rows: &mut Vec<Row>, kernel: &'static str, a: sparse::Csr, reps: usize) {
    let (n, nnz) = (a.nrows(), a.nnz());
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut y_csr, mut y_sliced) = (vec![0.0; n], vec![0.0; n]);
    parkit::set_num_threads(1);
    let csr_s = time_best(reps, || a.spmv(black_box(&x), &mut y_csr));
    let sliced = sparse::SlicedCsr::from_csr(a);
    let sliced_s = time_best(reps, || sliced.spmv(black_box(&x), &mut y_sliced));
    parkit::set_num_threads(0);
    assert!(
        y_csr
            .iter()
            .zip(&y_sliced)
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        "{kernel}: SlicedCsr::spmv must return the bits of Csr::spmv"
    );
    let cost = Cost {
        kernel,
        n,
        s: 0,
        k: 0,
        flops: 2.0 * nnz as f64,
        bytes: (12 * nnz + 16 * n) as u64,
    };
    rows.push(cost.row("csr", 1, csr_s, None));
    rows.push(cost.row("sliced", 1, sliced_s, Some(("csr", csr_s))));
    for (variant, secs) in [("csr", csr_s), ("sliced", sliced_s)] {
        eprintln!(
            "  {kernel} {variant}: {:.0} us, {:.1} GB/s",
            secs * 1e6,
            cost.bytes as f64 / secs * 1e-9
        );
    }
}

/// Time one s-step GMRES iteration (basis vector) end to end: a bounded
/// two-stage solve on a 2D Laplacian, normalized by iterations performed.
fn bench_gmres_iteration(rows: &mut Vec<Row>, quick: bool, thread_counts: &[usize]) {
    let m = if quick { 60 } else { 120 };
    let a = sparse::laplace2d_9pt(m, m);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let config = GmresConfig {
        restart: 30,
        step_size: 5,
        max_restarts: 1,
        tol: 1e-30,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config);
    // Dominant per-iteration work: one SpMV + orthogonalization sweeps.
    let cost = Cost {
        kernel: "sstep_gmres_iteration",
        n: a.nrows(),
        s: 5,
        k: 30,
        flops: 2.0 * a.nnz() as f64,
        bytes: (16 * a.nnz()) as u64,
    };
    for &t in thread_counts {
        parkit::set_num_threads(t);
        let mut iters = 1usize;
        let secs = time_best(if quick { 2 } else { 4 }, || {
            let (_, result) = solver.solve_serial(&a, &b);
            iters = result.iterations.max(1);
        });
        rows.push(cost.row("two_stage", t, secs / iters as f64, None));
    }
    parkit::set_num_threads(0);
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// `BENCH_SCALING_CHECK=1`: assert the two fixed bug signatures stay fixed.
///
/// * The fused pass must not be slower than the separate blocked sweeps
///   (`speedup >= 1.0`) at every thread count that fits the hardware.
///   Rows with more software threads than hardware threads measure pool
///   mechanics under oversubscription, where scheduler jitter dominates
///   both sides of the ratio; they are reported but not checked.
/// * On ≥ 2 hardware threads, the widest-thread blocked `gram` and
///   `gemm_tn` rows must beat their 1-thread blocked baselines
///   (`speedup > 1.0`).  On one hardware thread scaling is physically
///   impossible, so instead pool dispatch overhead must stay bounded
///   (multithread time ≤ 2.5× the 1-thread time).
fn scaling_check(rows: &[Row]) -> Result<(), String> {
    let hw = hardware_threads();
    for r in rows {
        if r.kernel == "fused_update_proj_gram" && r.threads <= hw {
            let sp = r.speedup.unwrap_or(f64::NAN);
            if sp.is_nan() || sp < 1.0 {
                return Err(format!(
                    "fused_update_proj_gram at n={} s={} threads={} is slower than the \
                     separate sweeps: speedup {sp:.3} < 1.0 (hardware_threads={hw})",
                    r.n, r.s, r.threads
                ));
            }
        }
    }
    let multicore = hw >= 2;
    // Judge scaling at the widest thread count the hardware can actually
    // run in parallel; on one core fall back to the widest measured row
    // and only bound its overhead.
    let check_t = rows
        .iter()
        .filter(|r| r.variant == "blocked" && (!multicore || r.threads <= hw))
        .map(|r| r.threads)
        .max()
        .unwrap_or(1);
    if check_t < 2 {
        return Ok(());
    }
    for r in rows {
        if r.variant != "blocked"
            || r.threads != check_t
            || r.baseline != Some("blocked_1thread")
            || !matches!(r.kernel, "gram" | "gemm_tn")
        {
            continue;
        }
        let sp = r.speedup.unwrap_or(f64::NAN);
        if multicore {
            if sp.is_nan() || sp <= 1.0 {
                return Err(format!(
                    "{} at n={} s={} does not scale: {}-thread speedup {sp:.3} ≤ 1.0 \
                     vs 1-thread blocked (hardware_threads={hw})",
                    r.kernel, r.n, r.s, r.threads
                ));
            }
        } else if sp.is_nan() || sp < 1.0 / 2.5 {
            return Err(format!(
                "{} at n={} s={}: pool dispatch overhead out of bounds on a single \
                 hardware thread: {}-thread time is {:.2}× the 1-thread time (limit 2.5×)",
                r.kernel,
                r.n,
                r.s,
                r.threads,
                1.0 / sp
            ));
        }
    }
    Ok(())
}

fn main() {
    let args = bench::cli::begin("kernels", false);
    let quick = bench::quick();
    let reps = if quick { 3 } else { 10 };
    // Thread sweep: 1 plus powers of two up to the pool width, so the
    // row-parallel TRSM's scaling is visible in the JSON on multi-core
    // machines (on a single hardware thread the >1 rows exercise the pool
    // mechanism under oversubscription).
    let lanes = parkit::pool_lanes();
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t <= lanes.min(8) {
        thread_counts.push(t);
        t *= 2;
    }
    let shapes: &[(usize, usize)] = if quick {
        &[(200_000, 8)]
    } else {
        &[(200_000, 8), (50_000, 4), (100_000, 16)]
    };
    let mut rows = Vec::new();
    for &(n, s) in shapes {
        eprintln!("benchmarking {n}x{s} panels ...");
        bench_shape(&mut rows, n, s, reps, &thread_counts);
    }
    // The stage-2 flush shapes of the benchmark's own solves: lap2d_t1
    // (n = 25 600, bs = 60) and lap2d_k4 (n = 14 400, bs = 4·60).
    let flush_shapes: &[(usize, usize)] = if quick {
        &[(25_600, 60)]
    } else {
        &[(25_600, 60), (14_400, 240)]
    };
    for &(n, s) in flush_shapes {
        eprintln!("benchmarking {n}x{s} flush panels ...");
        bench_flush_shape(&mut rows, n, s, reps, &thread_counts);
    }
    eprintln!("benchmarking the widest lap2d_k4 stage-1 update ...");
    bench_stage1_update(&mut rows, (14_400, 20, 224), reps, &thread_counts);
    // The benchmark's two operators at their `geer_t1`/`lap2d_t1` sizes.
    eprintln!("benchmarking SpMV ...");
    let geer = sparse::suitelike::spec_by_name("ML_Geer").expect("ML_Geer is in the set");
    let geer = sparse::suitesparse_surrogate(geer, Some(40_000), 1);
    bench_spmv(&mut rows, "spmv_ml_geer", geer, 10 * reps);
    bench_spmv(
        &mut rows,
        "spmv_laplace2d_9pt",
        sparse::laplace2d_9pt(160, 160),
        10 * reps,
    );
    eprintln!("benchmarking one s-step GMRES iteration ...");
    bench_gmres_iteration(&mut rows, quick, &thread_counts);

    let table = Table::of(&rows);
    table.print("kernel baselines");
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "kernels")
        .field("quick", quick)
        .field("pool_lanes", parkit::pool_lanes())
        .field("hardware_threads", hardware_threads())
        .field("simd", dense::simd_label())
        .field("tile", dense::TILE)
        .field("row_block", dense::ROW_BLOCK)
        .key("results");
    table.write_json(&mut w);
    w.end_object();
    bench::emit("BENCH_kernels.json", &w.finish());
    eprintln!("wrote BENCH_kernels.json ({} rows)", rows.len());

    // Headline acceptance numbers on the 200k×8 shape.
    let headline = |kernel: &str| {
        rows.iter()
            .find(|r| {
                r.kernel == kernel
                    && r.variant == "blocked"
                    && r.n == 200_000
                    && r.threads == 1
                    && r.baseline == Some("naive")
            })
            .and_then(|r| r.speedup)
    };
    if let (Some(g), Some(tn)) = (headline("gram"), headline("gemm_tn")) {
        println!("\nheadline single-thread speedups on 200000x8: gram {g:.2}x, gemm_tn {tn:.2}x");
    }
    if matches!(
        std::env::var("BENCH_SCALING_CHECK").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    ) {
        match scaling_check(&rows) {
            Ok(()) => eprintln!(
                "scaling check passed (hardware_threads={}, simd={})",
                hardware_threads(),
                dense::simd_label()
            ),
            Err(msg) => {
                eprintln!("scaling check FAILED: {msg}");
                args.finish();
                std::process::exit(1);
            }
        }
    }
    args.finish();
}
