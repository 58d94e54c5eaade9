//! The `host` block of `result.json`: what the numbers were measured on.

use crate::json::Value;
use crate::workload::{specs, BETA_NS_PER_WORD, RESTART, STEP, TOL};
use std::process::Command;

/// Size in bytes of cache `index` of cpu0 as `/sys` reports it (`"4096K"`,
/// `"260M"`).
pub fn cache_bytes(index: usize) -> Option<u64> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let text = std::fs::read_to_string(path).ok()?;
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host, solver settings and delay model of a run.
pub fn host_json(seed: u64, quick: bool) -> Value {
    let cache = |index| cache_bytes(index).map_or(Value::Null, Value::from);
    Value::obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("l2_bytes", cache(2)),
        ("l3_bytes", cache(3)),
        ("dense_simd", Value::str(dense::simd_label())),
        ("rustc", Value::str(rustc_version())),
        ("seed", seed.into()),
        ("quick", quick.into()),
        ("restart", RESTART.into()),
        ("step", STEP.into()),
        ("tol", TOL.into()),
        (
            "latency_comm",
            Value::Arr(
                specs(quick)
                    .iter()
                    .filter(|s| !s.alpha.is_zero())
                    .map(|s| {
                        Value::obj([
                            ("workload", Value::str(s.name)),
                            ("alpha_us", (s.alpha.as_secs_f64() * 1e6).into()),
                            ("beta_ns_per_word", BETA_NS_PER_WORD.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "bytes_moved",
            Value::str("computed from array sizes, not measured"),
        ),
    ])
}
