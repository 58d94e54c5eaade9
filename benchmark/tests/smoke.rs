//! Runs the whole benchmark at `--quick` size and checks that what it
//! prints and writes is what `BENCHMARK.json` promises.

use std::path::Path;
use std::process::Command;
use tts_bench::contract::{Contract, Metric};
use tts_bench::json::Value;

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The metrics of one pass are exactly `expected`, in order, with the
/// stated units and finite values.
fn check_metrics(pass: &Value, expected: &[Metric], what: &str) {
    let metrics = pass
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_else(|| panic!("{what}: no metrics"));
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, want, "{what}: metric names");
    for ((name, value), metric) in metrics.iter().zip(expected) {
        assert!(well_named(name), "{what}: bad metric name {name:?}");
        assert_eq!(
            value.get("unit").and_then(Value::as_str),
            Some(metric.unit.as_str()),
            "{what}: unit of {name}"
        );
        let x = value.get("value").and_then(Value::as_f64);
        assert!(
            x.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number: {value}"
        );
    }
    assert_eq!(
        pass.get("ops_failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}: failed operations: {}",
        pass.get("failures").unwrap_or(&Value::Null)
    );
    assert_eq!(pass.get("correct"), Some(&Value::Bool(true)), "{what}");
}

/// Every span has a parent in the file or is the root of a solve or
/// replay.
fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    trace::validate_json(&text).expect("trace file is JSON");
    let doc = Value::parse(&text).unwrap();
    let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
    assert!(!spans.is_empty(), "{}: no spans", path.display());
    let ids: std::collections::HashSet<u64> = spans
        .iter()
        .map(|s| s.get("id").and_then(Value::as_f64).unwrap() as u64)
        .collect();
    for span in spans {
        let name = span.get("name").and_then(Value::as_str).unwrap();
        match span.get("parent").and_then(Value::as_f64) {
            Some(parent) => assert!(ids.contains(&(parent as u64)), "{name}: dangling parent"),
            None => assert!(
                name.starts_with("solve:") || name.starts_with("replay:"),
                "{name}: a root that is neither a solve nor a replay"
            ),
        }
    }
}

#[test]
fn quick_run_prints_what_benchmark_json_lists() {
    let contract = Contract::load();
    for name in contract
        .workloads
        .iter()
        .chain(contract.end_to_end.iter().map(|m| &m.name))
        .chain(contract.per_layer.iter().map(|m| &m.name))
    {
        assert!(well_named(name), "BENCHMARK.json: bad name {name:?}");
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_tts-bench"))
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "--quick exited with {status}");

    let text = std::fs::read_to_string(out.join("result.json")).expect("result.json written");
    trace::validate_json(&text).expect("result.json is JSON");
    let result = Value::parse(&text).unwrap();
    assert!(result.get("host").is_some());
    let workloads = result.get("workloads").and_then(Value::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, contract.workloads, "workload names");
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        check_metrics(
            w.get("e2e").unwrap(),
            &contract.end_to_end,
            &format!("{name} e2e"),
        );
        check_metrics(
            w.get("layers").unwrap(),
            &contract.per_layer,
            &format!("{name} layers"),
        );
        check_trace(&out.join(format!("trace_{name}.json")));
    }

    // A result compared with itself is within every bound.
    let path = out.join("result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tts-bench"))
        .arg("--compare")
        .args([&path, &path])
        .status()
        .unwrap();
    assert!(status.success(), "--compare of a file with itself failed");
}
