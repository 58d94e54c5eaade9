//! # bench — experiment harness for the paper's tables and figures
//!
//! One binary per table/figure of the evaluation section (run with
//! `cargo run -p bench --release --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig06` | Fig. 6 — CholQR2 orthogonality error vs. κ(V) |
//! | `fig07` | Fig. 7 — BCGS-PIP2 condition number / error on glued matrices |
//! | `fig08` | Fig. 8 — two-stage condition number / error on glued matrices |
//! | `fig09` | Fig. 9 — condition growth of MPK-generated bases |
//! | `table02` | Table II — time-to-solution vs. second step size `bs` |
//! | `table04` | Table IV — solve times for 3D model problems & SuiteSparse surrogates |
//! | `fig13` | Fig. 13 — solve times with a Gauss–Seidel preconditioner |
//! | `basis_compare` | Extension — monomial vs. Newton vs. adaptive basis conditioning (`BENCH_basis.json`) |
//! | `kernels` | Kernel baselines — blocked vs. naive BLAS-3 (`BENCH_kernels.json`) |
//! | `profile` | Observability — traced solve, per-cycle sync-vs-compute breakdown, schedule-vs-measured words (`BENCH_profile.json`, `TRACE_profile.json`) |
//! | `faults` | Robustness — seeded fault-injection campaign: detection/recovery grid, guard overhead, silent-SDC headline (`BENCH_faults.json`) |
//! | `robustness` | Robustness — fixed vs. self-rescuing step policy on the hard matrices (`BENCH_robustness.json`) |
//! | `sketch` | Extension — κ × s × scheme stability sweep of the sketched orthogonalization family (`BENCH_sketch.json`) |
//! | `batched` | Extension — block right-hand sides: k = 1 equivalence, flat reduce count across widths, service amortization (`BENCH_batched.json`) |
//!
//! Every binary opens with [`cli::begin`]: it accepts `--trace <out.json>`
//! and then writes a Chrome trace-event timeline of the run (open at
//! <https://ui.perfetto.dev>), and rejects arguments it does not know.  The
//! seven JSON-writing binaries read `BENCH_QUICK` through [`quick`] and
//! write their artifact through [`trace::JsonWriter`] and [`emit`].
//!
//! Every binary prints a plain-text table with the same rows/series as the
//! paper and accepts the environment variable `REPRO_SCALE` (default
//! `small`) — set `REPRO_SCALE=paper` to run the numerical studies at the
//! paper's full problem sizes (slower).
//!
//! The seconds `table02`, `table04` and `fig13` print are measured on the
//! host that runs them ([`timed_solve`]).  Table III and Figs. 10–12 are
//! measured by the repository's `benchmark/` package: per-variant
//! time-to-solution (`tts_*_s`) and the traced ortho stages
//! (`ortho.stage1_s`/`stage2_s`), beside the per-layer numbers under them.
//! Kernel timings live in `--bin kernels`.

#![forbid(unsafe_code)]

use ssgmres::{Phase, SolveResult};
use std::time::Instant;

pub mod cli;

/// Experiment scale selected through the `REPRO_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes (default) — minutes on a laptop.
    Small,
    /// The paper's problem sizes where feasible.
    Paper,
}

/// Read the experiment scale from `REPRO_SCALE`.
pub fn scale() -> Scale {
    match std::env::var("REPRO_SCALE").as_deref() {
        Ok("paper") | Ok("PAPER") | Ok("full") => Scale::Paper,
        _ => Scale::Small,
    }
}

/// CI mode of the JSON-writing binaries: `BENCH_QUICK` ∈ {`1`, `true`,
/// `yes`} selects the reduced sweep.
pub fn quick() -> bool {
    matches!(
        std::env::var("BENCH_QUICK").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

/// The one exit of every JSON artifact: check `text` with
/// [`trace::validate_json`], then write it to `path` (exit status 1 when
/// the file cannot be written).
pub fn emit(path: impl AsRef<std::path::Path>, text: &str) {
    let path = path.as_ref();
    if let Err(e) = trace::validate_json(text) {
        panic!("{}: refusing to write malformed JSON: {e}", path.display());
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Pretty-print a table: a header row followed by data rows, with columns
/// padded to a common width.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(ncols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate().take(ncols) {
            line.push_str(&format!("{:>width$}  ", cell, width = widths[c]));
        }
        line
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a number in scientific notation with two significant digits
/// (how the paper's figures label their axes).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.2e}")
    }
}

/// Format seconds to a tenth of a millisecond (the scaled-down solves of
/// Table IV take a few milliseconds).
fn secs(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a speedup factor the way the paper annotates its tables.
fn speedup(baseline: f64, value: f64) -> String {
    format!("{:.1}x", baseline / value)
}

/// What the clock measured for one solve, in seconds: the wall time of the
/// solve call, and what its restart cycles charged to the matrix-powers
/// kernel (SpMVs and preconditioner) and to orthogonalization
/// (`SolveResult::cycle_timings`).
#[derive(Debug, Clone, Copy)]
pub struct SolveSecs {
    /// Seconds in [`Phase::Mpk`].
    pub mpk: f64,
    /// Seconds in [`Phase::Ortho`].
    pub ortho: f64,
    /// Wall seconds of the solve call.
    pub total: f64,
}

impl SolveSecs {
    /// Column names of [`cells`](Self::cells).
    pub const HEADER: [&'static str; 5] = [
        "MPK (s)",
        "Ortho (s)",
        "Total (s)",
        "ortho speedup",
        "total speedup",
    ];

    /// The measured cells of a table row: the three times, then the ortho
    /// and total speedups over `baseline` (the standard-GMRES row).
    pub fn cells(&self, baseline: &SolveSecs) -> [String; 5] {
        [
            secs(self.mpk),
            secs(self.ortho),
            secs(self.total),
            speedup(baseline.ortho, self.ortho),
            speedup(baseline.total, self.total),
        ]
    }
}

/// Run `solve` and return its output with what the clock measured.
pub fn timed_solve<X>(solve: impl FnOnce() -> (X, SolveResult)) -> (X, SolveResult, SolveSecs) {
    let t0 = Instant::now();
    let (x, result) = solve();
    let total = t0.elapsed().as_secs_f64();
    let phase_secs = |p| result.cycle_timings.iter().map(|t| t[p]).sum::<u64>() as f64 * 1e-9;
    let secs = SolveSecs {
        mpk: phase_secs(Phase::Mpk),
        ortho: phase_secs(Phase::Ortho),
        total,
    };
    (x, result, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_small() {
        // The test environment does not set REPRO_SCALE.
        if std::env::var("REPRO_SCALE").is_err() {
            assert_eq!(scale(), Scale::Small);
        }
    }

    #[test]
    fn formatters_produce_expected_strings() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(1.234e-8).contains('e'));
        assert_eq!(secs(1.23456), "1.2346");
        assert_eq!(speedup(10.0, 5.0), "2.0x");
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["only-one".into()]],
        );
    }
}
