//! Kernel baseline benchmark: times the four hot BLAS-3 kernels (blocked
//! vs. retained naive formulations), the fused update+Gram pass, Gram and
//! TRSM at the wide stage-2 flush shapes, the `lap2d_k4` Gram and the
//! stage-1 projection and update shapes of `lap2d_k4`, standard GMRES and
//! an `s = 5` panel on every SIMD level the host has, the SpMV on the two
//! benchmark operators (reference `Csr::spmv` vs. the `SlicedCsr` operator
//! format, asserted bit-identical), the block product `DistCsr::spmm` at
//! one and four columns, the assembly of the ML_Geer surrogate
//! (`DistCsr::from_global`), and one s-step GMRES iteration
//! across panel shapes, then writes `BENCH_kernels.json` — the perf
//! trajectory every later PR is measured against.  Every kernel runs on
//! the calling thread, as it does inside each simulated rank.
//!
//! ```sh
//! cargo run -p bench --release --bin kernels          # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin kernels   # CI mode
//! ```
//!
//! Reported per row: wall seconds (best of repetitions), GF/s against the
//! kernel's flop model, the minimum bytes the kernel must move, and a
//! speedup column: blocked `gram`/`gemm_tn` rows are measured against the
//! naive reference, fused rows against the separate blocked sweeps, and a
//! SIMD-level row against the level below it.  The naive update and TRSM
//! time a libm `fma` call per element, so their blocked rows carry no
//! speedup.  The calls a speedup compares alternate inside every
//! repetition; a dense kernel runs each time on a copy of its input
//! restored outside the timed region.
//!
//! With `BENCH_SCALING_CHECK=1` the binary exits non-zero if the fused
//! pass is slower than the separate sweeps on any shape.

use bench::Table;
use dense::{Matrix, SimdLevel};
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
        secs: f64,
        gflops: f64,
        bytes_moved: u64,
        /// What `speedup` is measured against (absent for baseline rows).
        baseline: Option<&'static str>,
        /// `baseline_secs / secs` for the same shape.
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
    /// The row of `variant` taking `secs`, measured against `baseline`
    /// (its name and seconds) when there is one.
    fn row(&self, variant: &'static str, secs: f64, baseline: Option<(&'static str, f64)>) -> Row {
        Row {
            kernel: self.kernel,
            variant,
            n: self.n,
            s: self.s,
            k: self.k,
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

/// Best-of-`reps` of the seconds `timed(0)` … `timed(count − 1)` report,
/// each call timing its own work.  The calls alternate inside every round,
/// so a noisy stretch of the shared host hits them alike.  The first round
/// is a warmup and is not kept.
fn best_alternated(reps: usize, count: usize, mut timed: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; count];
    for round in 0..=reps {
        for (i, b) in best.iter_mut().enumerate() {
            let secs = timed(i);
            if round > 0 {
                *b = b.min(secs);
            }
        }
    }
    best
}

/// [`best_alternated`] of `call(0, ·)` … `call(count − 1, ·)`, each on a
/// copy of `v` restored outside the timed region (at the flush shapes the
/// copy takes as long as the call).
fn time_alternated(
    v: &Matrix,
    reps: usize,
    count: usize,
    call: &dyn Fn(usize, &mut Matrix),
) -> Vec<f64> {
    let mut w = v.clone();
    best_alternated(reps, count, |i| {
        w.data_mut().copy_from_slice(v.data());
        let t0 = Instant::now();
        call(i, &mut w);
        t0.elapsed().as_secs_f64()
    })
}

/// Time every kernel's naive and blocked call (alternated), the blocked
/// one measured against the naive one (except [`LIBM_FMA_NAIVE`]'s, which
/// get none).  All naive rows come first.
fn time_kernels(rows: &mut Vec<Row>, v: &Matrix, reps: usize, kernels: &[Kernel]) {
    let mut blocked_rows = Vec::new();
    for (cost, naive, blocked) in kernels {
        let calls = [naive, blocked];
        let [naive_s, blocked_s] = time_alternated(v, reps, 2, &|i, w| calls[i](w))[..] else {
            unreachable!("two calls, two times")
        };
        rows.push(cost.row("naive", naive_s, None));
        let baseline = (!LIBM_FMA_NAIVE.contains(&cost.kernel)).then_some(("naive", naive_s));
        blocked_rows.push(cost.row("blocked", blocked_s, baseline));
    }
    rows.append(&mut blocked_rows);
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
fn bench_shape(rows: &mut Vec<Row>, n: usize, s: usize, reps: usize) {
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
    let [fused_s, separate_s] = time_alternated(&v, reps, 2, &|i, w| {
        if i == 0 {
            black_box(dense::fused_update_proj_gram(
                &mut w.view_mut(),
                &q.view(),
                &p,
            ));
        } else {
            dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
            black_box(dense::gemm_tn(&q.view(), &w.view()));
            black_box(dense::gram(&w.view()));
        }
    })[..] else {
        unreachable!("two calls, two times")
    };
    rows.push(fused.row(
        "fused",
        fused_s,
        Some(("separate_blocked_sweeps", separate_s)),
    ));
}

/// Gram and TRSM at a stage-2 flush shape — the `bs`-wide panels the
/// two-stage scheme actually hands these kernels (`bs = m` columns per
/// right-hand side), far wider than the `s ≤ 16` stage-1 shapes above.
fn bench_flush_shape(rows: &mut Vec<Row>, n: usize, s: usize, reps: usize) {
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

/// The stage-1 shapes on every SIMD level this host has: the projection
/// (`gemm_tn`) and update (`gemm_nn_minus`) of an `s`-column panel against
/// the `k` columns before it — `lap2d_k4`'s widest (s = 20: 5 steps × 4
/// right-hand sides, against 224 columns), standard GMRES's last column on
/// `lap2d_t1` (s = 1 against 30) and an `s = 5` panel's widest there
/// (against 60), whose ragged columns take `dot4` and the one-column
/// update — plus the stage-2 Gram of `lap2d_k4`'s 14 400×240 flush panel.
/// The update's coefficients are free of zeros, like the solver's
/// projections, so it takes the streaming kernels throughout.  Each row's
/// variant is its level and its baseline the level below, so an AVX-512
/// row reads as its speedup over AVX2.  `gemm_nn_minus`, `dot4` and the
/// ragged tiles have no AVX-512 body, so those `avx512` rows run the AVX2
/// one and read about 1.0.
fn bench_backends(rows: &mut Vec<Row>, reps: usize) {
    let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&level| {
            dense::set_simd_override(Some(level));
            let available = dense::simd_level() == level;
            dense::set_simd_override(None);
            available
        })
        .collect();
    let mut per_level = |cost: Cost, input: &Matrix, call: &dyn Fn(&mut Matrix)| {
        let secs = time_alternated(input, reps, levels.len(), &|i, w| {
            dense::set_simd_override(Some(levels[i]));
            call(w);
        });
        dense::set_simd_override(None);
        let mut below = None;
        for (&level, &t) in levels.iter().zip(&secs) {
            rows.push(cost.row(level.label(), t, below));
            below = Some((level.label(), t));
        }
    };
    let (n, flush) = (14_400, 240);
    let gram = Cost {
        kernel: "gram",
        n,
        s: flush,
        k: 0,
        flops: n as f64 * flush as f64 * (flush as f64 + 1.0),
        bytes: (8 * n * flush) as u64,
    };
    per_level(gram, &panel(n, flush, 1), &|w| {
        drop(black_box(dense::gram(&w.view())))
    });
    for (n, s, k) in [(14_400, 20, 224), (25_600, 1, 30), (25_600, 5, 60)] {
        let v = panel(n, s, 1);
        let q = panel(n, k, 2);
        let p = Matrix::from_fn(k, s, |i, j| ((i + 2 * j) % 5) as f64 * 0.1 - 0.25);
        let tn = Cost {
            kernel: "gemm_tn",
            n,
            s,
            k,
            flops: 2.0 * n as f64 * k as f64 * s as f64,
            bytes: (8 * n * (k + s)) as u64,
        };
        let upd = Cost {
            kernel: "gemm_nn_minus",
            bytes: (8 * n * (k + 2 * s)) as u64,
            ..tn
        };
        per_level(tn, &v, &|w| {
            drop(black_box(dense::gemm_tn(&q.view(), &w.view())))
        });
        per_level(upd, &v, &|w| {
            dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p)
        });
    }
}

/// Doubles per row of the buffer swept before every timed sparse product:
/// the 61 columns of a `lap2d_t1` cycle's basis (restart 60 plus the
/// residual).
const BASIS_COLS: usize = 61;

/// Read and write every entry of `basis`, as the orthogonalization does
/// between two panels, so that a timed product finds the caches the way a
/// solve leaves them rather than the way the previous product did.
fn sweep_basis(basis: &mut [f64]) {
    for v in basis.iter_mut() {
        *v += 1.0;
    }
    black_box(basis);
}

/// SpMV on one operator: the reference `Csr::spmv` against the
/// slice-interleaved `SlicedCsr::spmv` `DistCsr` runs.  Bytes
/// are the benchmark's model (`sparse.spmv_gbs`): 12 B per nonzero (value +
/// 32-bit index) and 16 B per row (row pointer + output).  The two
/// products alternate inside every repetition, each behind a sweep of a
/// basis-sized buffer.  Their outputs must agree bit for bit; no timing is
/// asserted.
fn bench_spmv(rows: &mut Vec<Row>, kernel: &'static str, a: sparse::Csr, reps: usize) {
    let (n, nnz) = (a.nrows(), a.nnz());
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut y_csr, mut y_sliced) = (vec![0.0; n], vec![0.0; n]);
    let sliced = sparse::SlicedCsr::from_csr(&a);
    let mut basis = vec![0.0; n * BASIS_COLS];
    let [csr_s, sliced_s] = best_alternated(reps, 2, |i| {
        sweep_basis(&mut basis);
        let t0 = Instant::now();
        match i {
            0 => a.spmv(black_box(&x), &mut y_csr),
            _ => sliced.spmv(black_box(&x), &mut y_sliced),
        }
        t0.elapsed().as_secs_f64()
    })[..] else {
        unreachable!("two products, two times")
    };
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
    rows.push(cost.row("csr", csr_s, None));
    rows.push(cost.row("sliced", sliced_s, Some(("csr", csr_s))));
    for (variant, secs) in [("csr", csr_s), ("sliced", sliced_s)] {
        eprintln!(
            "  {kernel} {variant}: {:.0} us, {:.1} GB/s",
            secs * 1e6,
            cost.bytes as f64 / secs * 1e-9
        );
    }
}

/// The block product `DistCsr::spmm` the matrix-powers kernel runs per
/// block step, on one rank, at one and at four columns (alternated, each
/// behind a basis sweep).  The four-column row's speedup is against four
/// one-column products.  Bytes: 12 B per nonzero, 8 B per row pointer and
/// 8 B per output entry.
fn bench_spmm(rows: &mut Vec<Row>, a: &sparse::Csr, reps: usize) {
    const WIDTHS: [usize; 2] = [1, 4];
    let (n, nnz) = (a.nrows(), a.nnz());
    let part = sparse::block_row_partition(n, 1);
    let dist = distsim::DistCsr::from_global(distsim::SerialComm::new(), a, &part);
    let x: Vec<f64> = (0..4 * n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; 4 * n];
    let mut basis = vec![0.0; n * BASIS_COLS];
    let secs = best_alternated(reps, WIDTHS.len(), |i| {
        let k = WIDTHS[i];
        sweep_basis(&mut basis);
        let t0 = Instant::now();
        dist.spmm(k, black_box(&x[..k * n]), &mut y[..k * n], None);
        t0.elapsed().as_secs_f64()
    });
    for (&k, &t) in WIDTHS.iter().zip(&secs) {
        let cost = Cost {
            kernel: "spmm_laplace2d_9pt",
            n,
            s: 0,
            k,
            flops: 2.0 * (k * nnz) as f64,
            bytes: (12 * nnz + 8 * n + 8 * k * n) as u64,
        };
        let baseline = (k > 1).then_some(("k1_per_column", k as f64 * secs[0]));
        rows.push(cost.row("sliced", t, baseline));
        eprintln!("  spmm k={k}: {:.0} us", t * 1e6);
    }
}

/// `DistCsr::from_global` of a replicated operator on one rank: the
/// assembly `setup_s` pays on `geer_t1`.  Bytes: the operator it writes,
/// 12 B per nonzero and 8 B per row pointer.
fn bench_assembly(rows: &mut Vec<Row>, kernel: &'static str, a: &sparse::Csr, reps: usize) {
    let (n, nnz) = (a.nrows(), a.nnz());
    let part = sparse::block_row_partition(n, 1);
    let secs = time_best(reps, || {
        let dist = distsim::DistCsr::from_global(distsim::SerialComm::new(), a, &part);
        assert_eq!(dist.local_matrix().nnz(), nnz);
        black_box(dist);
    });
    let cost = Cost {
        kernel,
        n,
        s: 0,
        k: 0,
        flops: 0.0,
        bytes: (12 * nnz + 8 * (n + 1)) as u64,
    };
    rows.push(cost.row("from_global", secs, None));
    eprintln!("  {kernel}: {:.1} ms", secs * 1e3);
}

/// Time one s-step GMRES iteration (basis vector) end to end: a bounded
/// two-stage solve on a 2D Laplacian, normalized by iterations performed.
fn bench_gmres_iteration(rows: &mut Vec<Row>, quick: bool) {
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
    let mut iters = 1usize;
    let secs = time_best(if quick { 2 } else { 4 }, || {
        let (_, result) = solver.solve_serial(&a, &b);
        iters = result.iterations.max(1);
    });
    rows.push(cost.row("two_stage", secs / iters as f64, None));
}

/// `BENCH_SCALING_CHECK=1`: the fused pass must not be slower than the
/// separate blocked sweeps (`speedup >= 1.0`) on any shape.
fn fused_check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        if r.kernel == "fused_update_proj_gram" {
            let sp = r.speedup.unwrap_or(f64::NAN);
            if sp.is_nan() || sp < 1.0 {
                return Err(format!(
                    "fused_update_proj_gram at n={} s={} is slower than the separate \
                     sweeps: speedup {sp:.3} < 1.0",
                    r.n, r.s
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let args = bench::cli::begin("kernels", false);
    let quick = bench::quick();
    let reps = if quick { 3 } else { 10 };
    let shapes: &[(usize, usize)] = if quick {
        &[(200_000, 8)]
    } else {
        &[(200_000, 8), (50_000, 4), (100_000, 16)]
    };
    let mut rows = Vec::new();
    for &(n, s) in shapes {
        eprintln!("benchmarking {n}x{s} panels ...");
        bench_shape(&mut rows, n, s, reps);
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
        bench_flush_shape(&mut rows, n, s, reps);
    }
    eprintln!("benchmarking the stage-1 shapes on every SIMD level ...");
    bench_backends(&mut rows, reps);
    // The benchmark's two operators at their `geer_t1`/`lap2d_t1` sizes.
    eprintln!("benchmarking SpMV ...");
    let geer = sparse::suitelike::spec_by_name("ML_Geer").expect("ML_Geer is in the set");
    let geer = sparse::suitesparse_surrogate(geer, Some(40_000), 1);
    bench_spmv(&mut rows, "spmv_ml_geer", geer.clone(), 10 * reps);
    bench_spmv(
        &mut rows,
        "spmv_laplace2d_9pt",
        sparse::laplace2d_9pt(160, 160),
        10 * reps,
    );
    // The `lap2d_k4` operator, at the block widths of its solves.
    bench_spmm(&mut rows, &sparse::laplace2d_9pt(120, 120), 10 * reps);
    eprintln!("benchmarking assembly ...");
    bench_assembly(&mut rows, "assemble_ml_geer", &geer, reps);
    eprintln!("benchmarking one s-step GMRES iteration ...");
    bench_gmres_iteration(&mut rows, quick);

    let table = Table::of(&rows);
    table.print("kernel baselines");
    let mut w = JsonWriter::new();
    w.begin_object()
        .field("bench", "kernels")
        .field("quick", quick)
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
                    && r.baseline == Some("naive")
            })
            .and_then(|r| r.speedup)
    };
    if let (Some(g), Some(tn)) = (headline("gram"), headline("gemm_tn")) {
        println!("\nheadline speedups on 200000x8: gram {g:.2}x, gemm_tn {tn:.2}x");
    }
    if matches!(
        std::env::var("BENCH_SCALING_CHECK").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    ) {
        match fused_check(&rows) {
            Ok(()) => eprintln!("fused check passed (simd={})", dense::simd_label()),
            Err(msg) => {
                eprintln!("fused check FAILED: {msg}");
                args.finish();
                std::process::exit(1);
            }
        }
    }
    args.finish();
}
