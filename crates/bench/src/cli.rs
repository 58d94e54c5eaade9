//! Shared command-line plumbing for the experiment binaries: real Matrix
//! Market inputs, streamed through [`sparse::mm::read_matrix_market_row_block`],
//! so the binaries run the paper's actual SuiteSparse matrices instead of
//! the built-in surrogates when a file is available.  Distributed runs
//! split rows with [`sparse::block_row_partition`].
//!
//! ```sh
//! cargo run -p bench --release --bin basis_compare -- --matrix path/to/A.mtx
//! ```

use sparse::{mm, Csr, RowPartition};
use std::path::{Path, PathBuf};

/// An experiment binary's parsed command line.  [`begin`] hands it out
/// together with the obligation to call [`Args::finish`] at the end of
/// `main`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// The binary's name, for its error messages.
    bin: &'static str,
    /// A Matrix Market file to run instead of the built-in problems.
    pub matrix: Option<PathBuf>,
    /// Where to write a Chrome trace-event timeline of the run
    /// (`--trace out.json`; open at <https://ui.perfetto.dev>).
    pub trace: Option<PathBuf>,
}

/// Parse `--trace <out.json>` and, when the binary takes them
/// (`matrix_flags`), `--matrix <path.mtx>`.
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
        " [--matrix <path.mtx>]"
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
    if args.trace.is_some() {
        trace::set_capacity(1 << 20);
        trace::set_enabled(true);
        trace::set_thread_label("main");
    }
    args
}

impl Args {
    /// The `--matrix` file, when one was given, read by
    /// [`load_matrix_streamed`]; a file that cannot be read, or is not
    /// square, ends the run with exit status 2.
    pub fn load_matrix(&self) -> Option<(String, Csr)> {
        let path = self.matrix.as_ref()?;
        Some(load_matrix_streamed(path).unwrap_or_else(|e| {
            eprintln!("{}: {e}", self.bin);
            std::process::exit(2);
        }))
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
/// mirrored).  Returns the file stem as the experiment's matrix name.  A
/// non-square file is an error: every experiment solves `A x = b`.
pub fn load_matrix_streamed(path: &Path) -> Result<(String, Csr), String> {
    let info = mm::read_matrix_market_info(path)
        .map_err(|e| format!("{}: cannot read header: {e}", path.display()))?;
    if info.nrows != info.ncols {
        return Err(format!(
            "{}: matrix is {}x{}, the solvers need a square one",
            path.display(),
            info.nrows,
            info.ncols
        ));
    }
    let a = mm::read_matrix_market_row_block(path, 0..info.nrows)
        .map_err(|e| format!("{}: cannot stream rows: {e}", path.display()))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "matrix".to_string());
    Ok((name, a))
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
        let parsed = parse(&["--trace", "t.json", "--matrix", "a.mtx"], true).unwrap();
        assert_eq!(parsed.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(parsed.matrix.as_deref(), Some(Path::new("a.mtx")));
        assert_eq!(parse(&[], true).unwrap(), Args::default());
    }

    #[test]
    fn rejects_unknown_arguments_and_kinds() {
        assert!(parse(&["--oops"], true).is_err());
        assert!(parse(&["--partition", "nnz"], true).is_err());
        assert!(parse(&["--matrix"], true).is_err());
        assert!(parse(&["--trace"], false).is_err());
        assert!(parse(&["--matrix", "a.mtx"], false).is_err());
    }

    #[test]
    fn parses_the_trace_flag_in_both_parsers() {
        let full = parse(&["--trace", "out.json"], true).unwrap();
        assert_eq!(full.trace.as_deref(), Some(Path::new("out.json")));
        let only = parse(&["--trace", "t.json"], false).unwrap();
        assert_eq!(only.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(parse(&[], false).unwrap(), Args::default());
    }

    #[test]
    fn usage_names_exactly_the_accepted_flags() {
        assert_eq!(usage("fig06", false), "usage: fig06 [--trace out.json]");
        assert_eq!(
            usage("sketch", true),
            "usage: sketch [--matrix <path.mtx>] [--trace out.json]"
        );
    }
}
