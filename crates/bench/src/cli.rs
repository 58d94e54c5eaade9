//! Shared command-line plumbing for the experiment binaries: real Matrix
//! Market inputs (streamed through [`sparse::mm::read_matrix_market_row_block`])
//! and nnz-balanced row partitions (derived with
//! [`sparse::nnz_counting_pass`]), so the binaries run the paper's actual
//! SuiteSparse matrices instead of the built-in surrogates when a file is
//! available.
//!
//! ```sh
//! cargo run -p bench --release --bin basis_compare -- --matrix path/to/A.mtx
//! cargo run -p bench --release --bin robustness  -- --matrix A.mtx --partition nnz
//! ```

use sparse::{
    block_row_partition, mm, nnz_balanced_partition_from_counts, nnz_counting_pass, Csr,
    RowPartition,
};
use std::path::{Path, PathBuf};

/// How the distributed experiments partition rows across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionKind {
    /// Equal row counts per rank (the historical default).
    #[default]
    Block,
    /// Nonzero-balanced boundaries from a cheap counting pass
    /// ([`sparse::nnz_counting_pass`]).
    Nnz,
}

impl PartitionKind {
    /// Label used in tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionKind::Block => "block",
            PartitionKind::Nnz => "nnz",
        }
    }
}

/// An experiment binary's parsed command line.  [`begin`] hands it out
/// together with the obligation to call [`Args::finish`] at the end of
/// `main`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// The binary's name, for its error messages.
    bin: &'static str,
    /// A Matrix Market file to run instead of the built-in problems.
    pub matrix: Option<PathBuf>,
    /// Row-partition strategy for the distributed checks.
    pub partition: PartitionKind,
    /// Where to write a Chrome trace-event timeline of the run
    /// (`--trace out.json`; open at <https://ui.perfetto.dev>).
    pub trace: Option<PathBuf>,
}

/// Parse `--trace <out.json>` and, when the binary takes them
/// (`matrix_flags`), `--matrix <path.mtx>` and `--partition <block|nnz>`.
/// Anything else is an error, so typos fail loudly instead of silently
/// running the default problem set.
fn parse_args<I: Iterator<Item = String>>(mut args: I, matrix_flags: bool) -> Result<Args, String> {
    let mut out = Args::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--matrix" if matrix_flags => {
                let path = args.next().ok_or("--matrix requires a path argument")?;
                out.matrix = Some(PathBuf::from(path));
            }
            "--partition" if matrix_flags => {
                let kind = args.next().ok_or("--partition requires block|nnz")?;
                out.partition = match kind.as_str() {
                    "block" => PartitionKind::Block,
                    "nnz" => PartitionKind::Nnz,
                    other => return Err(format!("unknown partition kind '{other}' (block|nnz)")),
                };
            }
            "--trace" => {
                let path = args.next().ok_or("--trace requires a path argument")?;
                out.trace = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// The usage line of binary `bin`.
fn usage(bin: &str, matrix_flags: bool) -> String {
    let matrix = if matrix_flags {
        " [--matrix <path.mtx>] [--partition block|nnz]"
    } else {
        ""
    };
    format!("usage: {bin}{matrix} [--trace out.json]")
}

/// The one preamble of every experiment binary: parse the process's
/// command line (exit status 2 with `bin`'s usage line on an error) and
/// start tracing when `--trace` was given.
#[must_use = "call `finish()` at the end of main to write the --trace timeline"]
pub fn begin(bin: &'static str, matrix_flags: bool) -> Args {
    let mut args = parse_args(std::env::args().skip(1), matrix_flags).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        eprintln!("{}", usage(bin, matrix_flags));
        std::process::exit(2);
    });
    args.bin = bin;
    args.start_tracing();
    args
}

impl Args {
    /// The `--matrix` file, when one was given, read by
    /// [`load_matrix_streamed`]; a file that cannot be read ends the run
    /// with exit status 2.
    pub fn load_matrix(&self) -> Option<(String, Csr)> {
        let path = self.matrix.as_ref()?;
        Some(load_matrix_streamed(path).unwrap_or_else(|e| {
            eprintln!("{}: {e}", self.bin);
            std::process::exit(2);
        }))
    }

    /// Turn the tracing layer on (with a generous ring) when `--trace` was
    /// given.  [`begin`] has already done this; `profile`, which runs an
    /// untraced solve first, calls it again where its traced part starts.
    pub fn start_tracing(&self) {
        if self.trace.is_none() {
            return;
        }
        trace::set_capacity(1 << 20);
        trace::set_enabled(true);
        trace::set_thread_label("main");
    }

    /// Stop tracing and write the recorded timeline as Chrome trace-event
    /// JSON to the `--trace` path.
    pub fn finish(self) {
        let Some(path) = &self.trace else { return };
        trace::set_enabled(false);
        let timeline = trace::collect();
        let stats = trace::stats();
        crate::emit(path, &timeline.to_chrome_json());
        eprintln!(
            "wrote {} ({} events on {} threads, {} dropped) — open at https://ui.perfetto.dev",
            path.display(),
            stats.events,
            timeline.threads.len(),
            stats.dropped
        );
    }
}

/// Load a Matrix Market file through the **streaming** row-block reader
/// (one pass over the file, `O(nnz)` peak memory, symmetric files
/// mirrored).  Returns the file stem as the experiment's matrix name.
pub fn load_matrix_streamed(path: &Path) -> Result<(String, Csr), String> {
    let info = mm::read_matrix_market_info(path)
        .map_err(|e| format!("{}: cannot read header: {e}", path.display()))?;
    let a = mm::read_matrix_market_row_block(path, 0..info.nrows)
        .map_err(|e| format!("{}: cannot stream rows: {e}", path.display()))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "matrix".to_string());
    Ok((name, a))
}

/// Build the row partition for `nranks` ranks with the chosen strategy.
/// The nnz-balanced path runs the counting pass over the matrix as a
/// [`sparse::RowSource`], the same derivation the distributed constructors
/// use.
pub fn partition_rows(a: &Csr, kind: PartitionKind, nranks: usize) -> RowPartition {
    match kind {
        PartitionKind::Block => block_row_partition(a.nrows(), nranks),
        PartitionKind::Nnz => {
            let counts = nnz_counting_pass(&a);
            nnz_balanced_partition_from_counts(&counts, nranks)
        }
    }
}

/// Per-rank nonzero counts under a partition.
pub fn per_rank_nnz(a: &Csr, part: &RowPartition) -> Vec<usize> {
    (0..part.nranks())
        .map(|r| {
            let (lo, hi) = part.range(r);
            (lo..hi).map(|i| a.row(i).0.len()).sum()
        })
        .collect()
}

/// Largest per-rank nonzero count divided by the ideal `nnz / nranks`.
pub fn partition_imbalance(a: &Csr, part: &RowPartition) -> f64 {
    let per_rank = per_rank_nnz(a, part);
    let total: usize = per_rank.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / part.nranks() as f64;
    per_rank.iter().copied().max().unwrap_or(0) as f64 / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], matrix_flags: bool) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()), matrix_flags)
    }

    #[test]
    fn parses_both_flags_in_any_order() {
        let parsed = parse(&["--partition", "nnz", "--matrix", "a.mtx"], true).unwrap();
        assert_eq!(parsed.partition, PartitionKind::Nnz);
        assert_eq!(parsed.matrix.as_deref(), Some(Path::new("a.mtx")));
        assert_eq!(parse(&[], true).unwrap(), Args::default());
    }

    #[test]
    fn rejects_unknown_arguments_and_kinds() {
        assert!(parse(&["--oops"], true).is_err());
        assert!(parse(&["--partition", "fancy"], true).is_err());
        assert!(parse(&["--matrix"], true).is_err());
        assert!(parse(&["--trace"], false).is_err());
        assert!(parse(&["--matrix", "a.mtx"], false).is_err());
        assert!(parse(&["--partition", "nnz"], false).is_err());
    }

    #[test]
    fn parses_the_trace_flag_in_both_parsers() {
        let full = parse(&["--trace", "out.json", "--partition", "nnz"], true).unwrap();
        assert_eq!(full.trace.as_deref(), Some(Path::new("out.json")));
        assert_eq!(full.partition, PartitionKind::Nnz);
        let only = parse(&["--trace", "t.json"], false).unwrap();
        assert_eq!(only.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(parse(&[], false).unwrap(), Args::default());
    }

    #[test]
    fn usage_names_exactly_the_accepted_flags() {
        assert_eq!(usage("fig06", false), "usage: fig06 [--trace out.json]");
        assert_eq!(
            usage("sketch", true),
            "usage: sketch [--matrix <path.mtx>] [--partition block|nnz] [--trace out.json]"
        );
    }

    #[test]
    fn nnz_partition_balances_a_skewed_matrix() {
        // Rows 0..20 dense-ish, the rest nearly empty: block partitioning
        // puts all the work on rank 0, nnz partitioning spreads it.
        let n = 80;
        let mut triplets = Vec::new();
        for i in 0..n {
            let width = if i < 20 { 20 } else { 1 };
            for k in 0..width {
                triplets.push(sparse::Triplet {
                    row: i,
                    col: (i + k) % n,
                    val: 1.0 + k as f64,
                });
            }
        }
        let a = Csr::from_triplets(n, n, &triplets);
        let block = partition_rows(&a, PartitionKind::Block, 4);
        let nnz = partition_rows(&a, PartitionKind::Nnz, 4);
        assert!(partition_imbalance(&a, &nnz) < partition_imbalance(&a, &block));
        assert!(partition_imbalance(&a, &nnz) <= 1.5);
        let per_rank = per_rank_nnz(&a, &nnz);
        assert_eq!(per_rank.iter().sum::<usize>(), a.nnz());
    }
}
