//! File-fixture test of the command-line plumbing: the committed
//! `laplace_6x6.mtx` is driven through the `cli` helpers and through the
//! actual binaries (`CARGO_BIN_EXE_*`), checking that they accept
//! `--matrix`, run the streamed reader end to end, write JSON artifacts
//! that validate whatever the file is called, and all reject an argument
//! or a matrix file they cannot use.

use bench::cli;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("laplace_6x6.mtx")
}

/// A unique scratch directory (the binaries write their JSON to the cwd).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "two_stage_gmres_matrix_flags_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn streamed_loader_reproduces_the_generator_bitwise() {
    let (name, a) = cli::load_matrix_streamed(&fixture()).expect("fixture must load");
    assert_eq!(name, "laplace_6x6");
    let reference = sparse::laplace2d_5pt(6, 6);
    assert_eq!(a.nrows(), reference.nrows());
    assert_eq!(a.nnz(), reference.nnz());
    for i in 0..a.nrows() {
        assert_eq!(a.row(i), reference.row(i), "row {i} differs");
    }
}

/// Run `exe` on `matrix` in quick mode inside `dir` and return the artifact
/// it wrote, checked to be well-formed JSON.
fn run_in(dir: &Path, exe: &str, tag: &str, matrix: &Path, expect_artifact: &str) -> String {
    let output = Command::new(exe)
        .args(["--matrix", matrix.to_str().unwrap()])
        .env("BENCH_QUICK", "1")
        .current_dir(dir)
        .output()
        .expect("binary must launch");
    assert!(
        output.status.success(),
        "{tag} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(dir.join(expect_artifact))
        .unwrap_or_else(|e| panic!("{tag}: missing {expect_artifact}: {e}"));
    trace::validate_json(&json)
        .unwrap_or_else(|e| panic!("{tag}: {expect_artifact} is not valid JSON ({e}):\n{json}"));
    json
}

fn run_binary(exe: &str, tag: &str, expect_artifact: &str, expect_content: &str) {
    let dir = scratch(tag);
    let json = run_in(&dir, exe, tag, &fixture(), expect_artifact);
    assert!(
        json.contains(expect_content),
        "{tag}: {expect_artifact} does not mention {expect_content}:\n{json}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The matrix name reaches the artifacts as a JSON string: a file stem with
/// a quote or a backslash in it must arrive escaped, not break the document.
#[test]
fn hostile_matrix_names_still_yield_valid_json() {
    let dir = scratch("hostile");
    for (stem, escaped) in [("lap\"6", r#""lap\"6""#), ("lap\\6x", r#""lap\\6x""#)] {
        let matrix = dir.join(format!("{stem}.mtx"));
        std::fs::copy(fixture(), &matrix).expect("copy the fixture under a hostile name");
        for (exe, tag, artifact) in [
            (
                env!("CARGO_BIN_EXE_robustness"),
                "robustness",
                "BENCH_robustness.json",
            ),
            (
                env!("CARGO_BIN_EXE_basis_compare"),
                "basis_compare",
                "BENCH_basis.json",
            ),
            (env!("CARGO_BIN_EXE_faults"), "faults", "BENCH_faults.json"),
            (env!("CARGO_BIN_EXE_sketch"), "sketch", "BENCH_sketch.json"),
        ] {
            let json = run_in(&dir, exe, tag, &matrix, artifact);
            assert!(
                json.contains(escaped),
                "{tag}: {artifact} must carry the escaped name {escaped}:\n{json}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn basis_compare_accepts_the_matrix_flag() {
    run_binary(
        env!("CARGO_BIN_EXE_basis_compare"),
        "basis_compare",
        "BENCH_basis.json",
        "laplace_6x6",
    );
}

#[test]
fn robustness_accepts_the_matrix_flag() {
    run_binary(
        env!("CARGO_BIN_EXE_robustness"),
        "robustness",
        "BENCH_robustness.json",
        "laplace_6x6",
    );
}

#[test]
fn faults_accepts_the_matrix_flag() {
    run_binary(
        env!("CARGO_BIN_EXE_faults"),
        "faults",
        "BENCH_faults.json",
        "laplace_6x6",
    );
}

#[test]
fn fig13_accepts_the_matrix_flag() {
    // fig13 prints tables instead of writing JSON: check the stdout report.
    let dir = scratch("fig13");
    let output = Command::new(env!("CARGO_BIN_EXE_fig13"))
        .args(["--matrix", fixture().to_str().unwrap()])
        .env("BENCH_QUICK", "1")
        .current_dir(&dir)
        .output()
        .expect("binary must launch");
    assert!(
        output.status.success(),
        "fig13 failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("laplace_6x6"),
        "fig13 must run the provided matrix:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table02_accepts_the_matrix_and_trace_flags() {
    // table02 prints tables instead of writing JSON, so drive it with
    // --trace too and check the timeline artifact it leaves behind.
    let dir = scratch("table02");
    let output = Command::new(env!("CARGO_BIN_EXE_table02"))
        .args([
            "--matrix",
            fixture().to_str().unwrap(),
            "--trace",
            "table02_trace.json",
        ])
        .env("BENCH_QUICK", "1")
        .current_dir(&dir)
        .output()
        .expect("binary must launch");
    assert!(
        output.status.success(),
        "table02 failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("laplace_6x6"),
        "table02 must run the provided matrix:\n{stdout}"
    );
    let trace_json = std::fs::read_to_string(dir.join("table02_trace.json"))
        .expect("table02 must write the --trace timeline");
    trace::validate_json(&trace_json).expect("timeline must be valid JSON");
    assert!(
        trace_json.contains("\"traceEvents\""),
        "timeline must be Chrome trace-event JSON"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table04_accepts_the_matrix_flag() {
    // table04 prints tables instead of writing JSON: check the stdout report.
    let dir = scratch("table04");
    let output = Command::new(env!("CARGO_BIN_EXE_table04"))
        .args(["--matrix", fixture().to_str().unwrap()])
        .env("BENCH_QUICK", "1")
        .current_dir(&dir)
        .output()
        .expect("binary must launch");
    assert!(
        output.status.success(),
        "table04 failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("laplace_6x6"),
        "table04 must run the provided matrix:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every binary, and whether it takes `--matrix`.
const ALL_BINARIES: [(&str, &str, bool); 13] = [
    ("basis_compare", env!("CARGO_BIN_EXE_basis_compare"), true),
    ("batched", env!("CARGO_BIN_EXE_batched"), false),
    ("faults", env!("CARGO_BIN_EXE_faults"), true),
    ("fig06", env!("CARGO_BIN_EXE_fig06"), false),
    ("fig07", env!("CARGO_BIN_EXE_fig07"), false),
    ("fig08", env!("CARGO_BIN_EXE_fig08"), false),
    ("fig09", env!("CARGO_BIN_EXE_fig09"), false),
    ("fig13", env!("CARGO_BIN_EXE_fig13"), true),
    ("kernels", env!("CARGO_BIN_EXE_kernels"), false),
    ("robustness", env!("CARGO_BIN_EXE_robustness"), true),
    ("sketch", env!("CARGO_BIN_EXE_sketch"), true),
    ("table02", env!("CARGO_BIN_EXE_table02"), true),
    ("table04", env!("CARGO_BIN_EXE_table04"), true),
];

/// Every binary opens with `cli::begin`: an unknown argument ends the run
/// with status 2, the binary's name and its usage line, before any work.
#[test]
fn binaries_reject_bad_flags() {
    let dir = scratch("oops");
    for (name, exe, takes_matrix) in ALL_BINARIES {
        let output = Command::new(exe)
            .args(["--oops"])
            .current_dir(&dir)
            .output()
            .expect("binary must launch");
        assert_eq!(output.status.code(), Some(2), "{name}: exit status");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{name}: unknown argument '--oops'"))
                && stderr.contains(&format!("usage: {name} ")),
            "{name}: stderr must name the binary and its usage:\n{stderr}"
        );
        assert_eq!(
            stderr.contains("--matrix"),
            takes_matrix,
            "{name}: the usage line offers --matrix exactly where the binary takes it"
        );
        let output = Command::new(exe)
            .args(["--matrix"])
            .current_dir(&dir)
            .output()
            .expect("binary must launch");
        assert_eq!(output.status.code(), Some(2), "{name}: bare --matrix");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr).contains("requires a path"),
            takes_matrix,
            "{name}: --matrix is parsed exactly where the usage line offers it"
        );
    }
    let left_behind = std::fs::read_dir(&dir).expect("scratch dir").count();
    assert_eq!(left_behind, 0, "a rejected command line must write nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-square or empty file cannot be solved: every `--matrix` binary
/// refuses it with status 2 and a message naming the file and its shape,
/// before it runs anything or writes an artifact.
#[test]
fn non_square_and_empty_matrix_files_are_rejected_before_any_work() {
    let dir = scratch("non_square");
    let header = "%%MatrixMarket matrix coordinate real general\n";
    let files = [
        ("wide.mtx", "2 3 3\n1 1 1.0\n2 2 2.0\n1 3 0.5\n", "2x3"),
        ("empty.mtx", "0 0 0\n", "0x0"),
    ];
    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).expect("create the run dir");
    for (file, body, shape) in files {
        let matrix = dir.join(file);
        std::fs::write(&matrix, format!("{header}{body}")).expect("write the matrix file");
        for (name, exe, _) in ALL_BINARIES.iter().filter(|b| b.2) {
            let output = Command::new(exe)
                .args(["--matrix", matrix.to_str().unwrap()])
                .env("BENCH_QUICK", "1")
                .current_dir(&run_dir)
                .output()
                .expect("binary must launch");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{name} on {file}: exit status\n{stderr}"
            );
            assert!(
                stderr.contains(file) && stderr.contains(shape),
                "{name}: stderr must name {file} and its shape {shape}:\n{stderr}"
            );
        }
    }
    let left_behind = std::fs::read_dir(&run_dir).expect("run dir").count();
    assert_eq!(left_behind, 0, "a rejected matrix file must write nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed full-mode artifacts at the repository root stay
/// well-formed (the binaries validate what they write; a hand edit is not
/// written by a binary).
#[test]
fn committed_bench_artifacts_are_valid_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in [
        "basis",
        "batched",
        "faults",
        "kernels",
        "robustness",
        "sketch",
    ] {
        let path = root.join(format!("BENCH_{name}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        trace::validate_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
