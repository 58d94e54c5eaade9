//! Layer replay: each layer timed from outside, through the crates' public
//! functions, at the shapes one restart cycle of the workload uses.
//!
//! Every bytes-moved and flop figure here is *computed* from array sizes
//! (it ignores cache misses), never read from a hardware counter.

use crate::spans::{self, Span};
use crate::stats::median;
use crate::workload::{Rank, RESTART};
use blockortho::BlockOrthogonalizer;
use dense::Matrix;
use distsim::DistMultiVector;
use std::hint::black_box;
use std::time::Instant;

/// Span names of the replay.
pub const SPMV: &str = "sparse.spmv";
pub const PANEL: &str = "ortho.panel";
pub const FINISH: &str = "ortho.finish";

fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// STREAM triad `a = b + q·c` in this process, in GB/s (24 bytes per
/// element, computed).  Three 64 MiB arrays: well past the 4 MiB L2, and as
/// far past the last-level cache as a host whose L3 is a 260 MiB slice
/// shared with other tenants allows.
pub fn triad_gbs(quick: bool) -> f64 {
    let len = if quick { 1 << 20 } else { 8 << 20 };
    let _span = spans::open("host.triad", 3 * len as u64);
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let times: Vec<f64> = (0..5)
        .map(|rep| {
            let q = 1.0 + rep as f64;
            secs(|| {
                for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                    *ai = bi + q * ci;
                }
                black_box(&mut a);
            })
        })
        .collect();
    24.0 * len as f64 / median(&times) * 1e-9
}

/// Median cost in µs of an empty `parallel_for_range` split over 2 lanes.
/// Leaves the pool at the 1 lane per rank the solves use.
pub fn dispatch_us() -> f64 {
    let _span = spans::open("par.dispatch", 0);
    parkit::set_num_threads(2);
    // 2048 items is the smallest range `parkit` splits in two.
    let call = || {
        parkit::parallel_for_range(2048, |lo, hi| {
            black_box((lo, hi));
        })
    };
    for _ in 0..200 {
        call();
    }
    let times: Vec<f64> = (0..2000).map(|_| secs(call)).collect();
    parkit::set_num_threads(1);
    median(&times) * 1e6
}

/// The `dense::blas3` kernels at the two panel widths a cycle uses.
pub struct DenseRates {
    pub gram_s_gflops: f64,
    pub gram_bs_gflops: f64,
    pub gemm_tn_s_gflops: f64,
    pub gemm_nn_minus_s_gbs: f64,
    pub trsm_s_gbs: f64,
    pub trsm_bs_gbs: f64,
    pub fused_upg_s_gbs: f64,
    /// Best computed GB/s of the kernels that only read the tall operands.
    pub best_read_gbs: f64,
    /// Best computed GB/s of the kernels that also write a tall operand.
    pub best_write_gbs: f64,
}

fn filled(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 13 + salt) % 23) as f64 * 0.04 - 0.4
    })
}

/// Time the kernels on `n` rows: `s` new columns against `prev` previous
/// ones (a mid-cycle panel), and the `bs`-column flush.
pub fn dense_rates(n: usize, prev: usize, s: usize, bs: usize, reps: usize) -> DenseRates {
    let _root = spans::open("replay:dense", 0);
    let q = filled(n, prev, 1);
    let v0 = filled(n, s, 2);
    let w0 = filled(n, bs, 3);
    let p = Matrix::from_fn(prev, s, |i, j| ((i + 2 * j) % 7) as f64 * 0.01);
    let upper = |k: usize| {
        Matrix::from_fn(k, k, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 0.01,
            std::cmp::Ordering::Equal => 1.0 + 0.1 * i as f64,
            std::cmp::Ordering::Greater => 0.0,
        })
    };
    let (r_s, r_bs) = (upper(s), upper(bs));
    let timed = |name: &str, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let _span = spans::open(name, 0);
                secs(&mut *f)
            })
            .collect();
        median(&samples)
    };
    // An in-place kernel starts every repetition from the same panel; the
    // copy is outside the timed call.
    let timed_in_place = |name: &str, src: &Matrix, f: &mut dyn FnMut(&mut Matrix)| {
        let mut work = src.clone();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                work.data_mut().copy_from_slice(src.data());
                let _span = spans::open(name, 0);
                secs(|| f(&mut work))
            })
            .collect();
        median(&samples)
    };
    let (nf, kf, sf, bf) = (n as f64, prev as f64, s as f64, bs as f64);
    let gram_s = timed("dense.gram_s", &mut || {
        drop(black_box(dense::gram(&v0.view())))
    });
    let gram_bs = timed("dense.gram_bs", &mut || {
        drop(black_box(dense::gram(&w0.view())))
    });
    let gemm_tn = timed("dense.gemm_tn_s", &mut || {
        drop(black_box(dense::gemm_tn(&q.view(), &v0.view())))
    });
    let gemm_nn = timed_in_place("dense.gemm_nn_minus_s", &v0, &mut |v| {
        dense::gemm_nn_minus(&mut v.view_mut(), &q.view(), &p)
    });
    let trsm_s = timed_in_place("dense.trsm_s", &v0, &mut |v| {
        dense::trsm_right_upper(&mut v.view_mut(), &r_s)
    });
    let trsm_bs = timed_in_place("dense.trsm_bs", &w0, &mut |w| {
        dense::trsm_right_upper(&mut w.view_mut(), &r_bs)
    });
    let fused = timed_in_place("dense.fused_upg_s", &v0, &mut |v| {
        drop(black_box(dense::fused_update_proj_gram(
            &mut v.view_mut(),
            &q.view(),
            &p,
        )))
    });
    let gb = |words_per_row: f64, t: f64| 8.0 * nf * words_per_row / t * 1e-9;
    let gemm_nn_minus_s_gbs = gb(kf + 2.0 * sf, gemm_nn);
    let trsm_s_gbs = gb(2.0 * sf, trsm_s);
    let trsm_bs_gbs = gb(2.0 * bf, trsm_bs);
    let fused_upg_s_gbs = gb(kf + 2.0 * sf, fused);
    DenseRates {
        gram_s_gflops: nf * sf * (sf + 1.0) / gram_s * 1e-9,
        gram_bs_gflops: nf * bf * (bf + 1.0) / gram_bs * 1e-9,
        gemm_tn_s_gflops: 2.0 * nf * kf * sf / gemm_tn * 1e-9,
        gemm_nn_minus_s_gbs,
        trsm_s_gbs,
        trsm_bs_gbs,
        fused_upg_s_gbs,
        best_read_gbs: gb(sf, gram_s)
            .max(gb(bf, gram_bs))
            .max(gb(kf + sf, gemm_tn)),
        best_write_gbs: gemm_nn_minus_s_gbs
            .max(trsm_s_gbs)
            .max(trsm_bs_gbs)
            .max(fused_upg_s_gbs),
    }
}

/// One replayed restart cycle.
pub struct Cycle {
    /// Basis columns filled, the first panel included.
    pub cols: usize,
    /// Duration of each SpMV (halo exchange included), in seconds.
    pub spmv_s: Vec<f64>,
    /// Self time of the `orthogonalize_panel` calls: their spans minus the
    /// collectives inside them.
    pub panels_s: f64,
    /// Self time of `finish`.
    pub finish_s: f64,
    /// All-reduces of the cycle after the residual column, the count
    /// `perfmodel::ortho_reduce_count` predicts.
    pub allreduces: usize,
    pub fallbacks: usize,
    /// `‖I − QᵀQ‖_F` of the finished basis.
    pub loss_of_orth: f64,
}

impl Cycle {
    pub fn ortho_s(&self) -> f64 {
        self.panels_s + self.finish_s
    }
}

/// Replay the first restart cycle of a solve of `rank`'s system the way
/// the solver runs it: `kb` normalised right-hand sides as the first panel,
/// then `step` SpMVs per column from the stored basis and one
/// `orthogonalize_panel` per panel, then `finish`.  `make` builds the
/// orthogonalizer for the `kb·(RESTART + 1)` columns of a full cycle; the
/// replay fills `cols_limit` of them, as many as the solve's own first
/// cycle did (a cycle the solver ended at convergence has nothing
/// meaningful beyond that: the Krylov space is numerically exhausted and
/// the next panel breaks down).  With `keep_spans` off the spans are
/// dropped once the cycle's times are taken from them.  Collective.
pub fn replay_cycle(
    rank: &Rank,
    label: &str,
    step: usize,
    kb: usize,
    cols_limit: usize,
    keep_spans: bool,
    make: &dyn Fn(usize) -> Box<dyn BlockOrthogonalizer>,
) -> Result<Cycle, String> {
    let total = kb * (RESTART + 1);
    let cols_limit = cols_limit.min(total);
    let nloc = rank.local_rows();
    let dist = &rank.dist;
    let comm = dist.comm().clone();
    let mut basis = DistMultiVector::zeros(
        comm.clone(),
        dist.global_rows(),
        nloc,
        dist.row_offset(),
        total,
    );
    // The root covers the whole replay, so that the norms before the
    // cycle and the Gram matrix after it have a parent as well.
    let mark = spans::mark();
    let root = spans::open(&format!("replay:{label}"), 0);
    for j in 0..kb {
        basis
            .local_mut()
            .col_mut(j)
            .copy_from_slice(rank.b_local.col(j));
        let norm = basis.norm2(j);
        basis.scale_col(j, 1.0 / norm);
    }
    let mut r = Matrix::zeros(total, total);
    let mut ortho = make(total);
    let mut z = vec![0.0; nloc];
    let mut w = vec![0.0; nloc];
    let panel = |ortho: &mut Box<dyn BlockOrthogonalizer>,
                 basis: &mut DistMultiVector,
                 r: &mut Matrix,
                 cols: std::ops::Range<usize>| {
        let _span = spans::open(PANEL, cols.len() as u64);
        ortho
            .orthogonalize_panel(basis, cols.clone(), r)
            .map_err(|e| format!("replay {label}: panel {cols:?}: {e}"))
    };
    panel(&mut ortho, &mut basis, &mut r, 0..kb)?;
    let before = comm.stats().snapshot();
    let mut spmv_s = Vec::new();
    let mut cols = kb;
    while cols < cols_limit {
        let width = step.min((cols_limit - cols) / kb) * kb;
        for input in cols - kb..cols - kb + width {
            z.copy_from_slice(basis.local().col(input));
            {
                let _span = spans::open(SPMV, 0);
                spmv_s.push(secs(|| dist.spmv(&z, &mut w)));
            }
            basis.local_mut().col_mut(input + kb).copy_from_slice(&w);
        }
        panel(&mut ortho, &mut basis, &mut r, cols..cols + width)?;
        cols += width;
    }
    {
        let _span = spans::open(FINISH, 0);
        ortho
            .finish(&mut basis, &mut r)
            .map_err(|e| format!("replay {label}: finish: {e}"))?;
    }
    let allreduces = comm.stats().snapshot().since(&before).allreduces;
    let self_s = |spans: &[Span], name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 * 1e-9)
            .sum::<f64>()
    };
    let mut gram = basis.gram(0..cols);
    for i in 0..cols {
        gram[(i, i)] -= 1.0;
    }
    drop(root);
    let recorded = spans::since(mark);
    if !keep_spans {
        spans::discard_since(mark);
    }
    Ok(Cycle {
        cols,
        spmv_s,
        panels_s: self_s(&recorded, PANEL),
        finish_s: self_s(&recorded, FINISH),
        allreduces,
        fallbacks: ortho.fallback_count(),
        loss_of_orth: dense::frobenius_norm(&gram),
    })
}

/// Flops of one BCGS-PIP pass over `s` new columns against `k` previous
/// ones on `n` rows (computed): the fused projection and Gram
/// `2n(k+s)s`, the update `2nks`, the normalisation `ns²`.  Stage 1 is this
/// summed over the `s`-wide panels of a cycle, stage 2 the one flush.
pub fn pip_flops(n: usize, k: usize, s: usize) -> f64 {
    let (n, k, s) = (n as f64, k as f64, s as f64);
    2.0 * n * (k + s) * s + 2.0 * n * k * s + n * s * s
}
