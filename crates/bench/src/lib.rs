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
//! | `faults` | Robustness — seeded fault-injection campaign: detection/recovery grid, guard overhead, silent-SDC headline (`BENCH_faults.json`) |
//! | `robustness` | Robustness — fixed vs. self-rescuing step policy on the hard matrices (`BENCH_robustness.json`) |
//! | `sketch` | Extension — κ × s × scheme stability sweep of the sketched orthogonalization family (`BENCH_sketch.json`) |
//! | `batched` | Extension — block right-hand sides: k = 1 equivalence, flat reduce count across widths, four-RHS block amortization (`BENCH_batched.json`) |
//!
//! Every binary opens with [`cli::begin`]: it accepts `--trace <out.json>`
//! and then writes a Chrome trace-event timeline of the run (open at
//! <https://ui.perfetto.dev>), and rejects arguments it does not know.  The
//! six JSON-writing binaries read `BENCH_QUICK` through [`quick`] and
//! write their artifact through [`trace::JsonWriter`] and [`emit`]; the
//! rows of an artifact are a [`Table`] written by [`Table::write_json`].
//!
//! Every binary prints its results as a plain-text [`Table`]
//! ([`Table::print`]).  The figure and table binaries keep the paper's rows,
//! series and column names; a JSON-writing binary declares its row type once
//! with [`table_row!`], and prints the same rows under the JSON keys.
//! Binaries accept the environment variable `REPRO_SCALE` (default
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
use std::fmt;
use std::time::Instant;
use trace::{JsonValue, JsonWriter};

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

/// One cell of a [`Table`] row.  Each kind has one JSON rule (the
/// [`JsonWriter`]'s) and one text rule ([`Display`](fmt::Display)).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An escaped JSON string; as is in the text table.
    Str(String),
    /// An unsigned integer.
    Uint(u64),
    /// A signed integer.
    Int(isize),
    /// The shortest exponent form that parses back to the same bits, `null`
    /// when not finite; [`sci`] in the text table.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// An absent optional value: `null`, and `-` in the text table.
    Null,
}

macro_rules! cell_from {
    ($($t:ty => $variant:ident $(as $cast:ty)?),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::$variant(v $(as $cast)?)
            }
        }
    )*};
}
cell_from!(String => Str, usize => Uint as u64, u64 => Uint, isize => Int, f64 => Float, bool => Bool);

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_string())
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::Null, Into::into)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(v) => f.write_str(v),
            Cell::Uint(v) => write!(f, "{v}"),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(v) => f.write_str(&sci(*v)),
            Cell::Bool(v) => write!(f, "{v}"),
            Cell::Null => f.write_str("-"),
        }
    }
}

impl JsonValue for Cell {
    fn push_json(&self, out: &mut String) {
        match self {
            Cell::Str(v) => v.push_json(out),
            Cell::Uint(v) => v.push_json(out),
            Cell::Int(v) => v.push_json(out),
            Cell::Float(v) => v.push_json(out),
            Cell::Bool(v) => v.push_json(out),
            Cell::Null => None::<bool>.push_json(out),
        }
    }
}

/// A row type declared with [`table_row!`]: its field names are its
/// [`Table`] columns.
pub trait TableRow {
    /// The field names, in declaration order.
    const KEYS: &'static [&'static str];
    /// The fields' values, in [`KEYS`](Self::KEYS) order.
    fn cells(&self) -> Vec<Cell>;
}

/// Declare a row struct and its [`TableRow`] columns at once: each field's
/// name is its column key, and its type converts into a [`Cell`].
///
/// ```
/// bench::table_row! {
///     struct Run { matrix: String, iterations: usize, relres: f64 }
/// }
/// let runs = [Run { matrix: "lap".into(), iterations: 12, relres: 1e-7 }];
/// let table = bench::Table::of(&runs);
/// table.print("runs");
/// ```
#[macro_export]
macro_rules! table_row {
    (
        $(#[$meta:meta])*
        struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        struct $name {
            $($(#[$field_meta])* $field: $ty),*
        }

        impl $crate::TableRow for $name {
            const KEYS: &'static [&'static str] = &[$(stringify!($field)),*];
            fn cells(&self) -> Vec<$crate::Cell> {
                vec![$($crate::Cell::from(::std::clone::Clone::clone(&self.$field))),*]
            }
        }
    };
}

/// A results table: ordered column keys and rows of typed cells, printed as
/// text by [`print`](Self::print) and written as a JSON array of row objects
/// by [`write_json`](Self::write_json).
#[derive(Debug, Clone)]
pub struct Table {
    keys: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with columns `keys`.
    pub fn new(keys: &[&'static str]) -> Self {
        Table {
            keys: keys.to_vec(),
            rows: Vec::new(),
        }
    }

    /// One row per element of `rows`.
    pub fn of<R: TableRow>(rows: &[R]) -> Self {
        let mut table = Table::new(R::KEYS);
        for row in rows {
            table.push(row.cells());
        }
        table
    }

    /// Append a row.  Panics unless it has one cell per column.
    pub fn push<C: Into<Cell>>(&mut self, cells: impl IntoIterator<Item = C>) {
        let row: Vec<Cell> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.keys.len(),
            "a row needs one cell per column {:?}",
            self.keys
        );
        self.rows.push(row);
    }

    /// Print the table under `title`: the keys as a header line, then one
    /// line per row, each column right-aligned to a common width.
    pub fn print(&self, title: &str) {
        let text: Vec<Vec<String>> = (self.rows.iter())
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.keys.iter().map(|k| k.len()).collect();
        for row in &text {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[&str]| -> String {
            (cells.iter().zip(&widths))
                .map(|(cell, &width)| format!("{cell:>width$}  "))
                .collect()
        };
        println!("\n== {title} ==");
        println!("{}", line(&self.keys));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &text {
            println!(
                "{}",
                line(&row.iter().map(String::as_str).collect::<Vec<_>>())
            );
        }
    }

    /// Write the rows as a JSON array of objects, one member per column.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for row in &self.rows {
            w.begin_object();
            for (key, cell) in self.keys.iter().zip(row) {
                w.field(key, cell);
            }
            w.end_object();
        }
        w.end_array();
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

    crate::table_row! {
        struct Probe {
            name: String,
            n: usize,
            shift: isize,
            x: f64,
            ok: bool,
            baseline: Option<&'static str>,
        }
    }

    fn probes() -> [Probe; 2] {
        [
            Probe {
                name: "quote\" backslash\\ newline\n nul\u{0} é".into(),
                n: 36,
                shift: -3,
                x: f64::NAN,
                ok: true,
                baseline: None,
            },
            Probe {
                name: "plain".into(),
                n: 0,
                shift: 7,
                x: 0.1 + 0.2,
                ok: false,
                baseline: Some("naive"),
            },
        ]
    }

    #[test]
    fn table_json_is_what_the_writer_writes_field_by_field() {
        let rows = probes();
        let mut expected = JsonWriter::new();
        expected.begin_object().key("results").begin_array();
        for r in &rows {
            expected
                .begin_object()
                .field("name", &r.name)
                .field("n", r.n)
                .field("shift", r.shift)
                .field("x", r.x)
                .field("ok", r.ok)
                .field("baseline", r.baseline)
                .end_object();
        }
        expected.end_array().end_object();
        let expected = expected.finish();

        let mut w = JsonWriter::new();
        w.begin_object().key("results");
        Table::of(&rows).write_json(&mut w);
        w.end_object();
        let text = w.finish();
        assert_eq!(text, expected);
        assert!(text.contains(r#""x": null"#) && text.contains(r#""baseline": null"#));
        assert!(text.contains(r#""shift": -3"#));
        trace::validate_json(&text).unwrap_or_else(|e| panic!("{text}\nrejected: {e}"));
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn a_row_with_the_wrong_number_of_cells_panics() {
        let mut table = Table::new(&["a", "b"]);
        table.push(["1"]);
    }

    #[test]
    fn an_empty_table_prints_and_writes_an_empty_array() {
        let table = Table::new(&["a", "b"]);
        table.print("empty");
        let mut w = JsonWriter::new();
        table.write_json(&mut w);
        assert_eq!(w.finish(), "[]\n");
        Table::new(&[]).print("no columns");
    }

    #[test]
    fn cells_print_by_one_text_rule() {
        let cells: Vec<String> = probes()[1].cells().iter().map(Cell::to_string).collect();
        assert_eq!(cells, ["plain", "0", "7", "3.00e-1", "false", "naive"]);
        assert_eq!(Cell::Null.to_string(), "-");
    }
}
