//! `BENCHMARK.json` as the benchmark reads it: the names it must print
//! and the bound of each end-to-end metric.

use crate::json::Value;

/// The file at the repository root, fixed into the binary at build time so
/// that `--compare` applies the bounds this benchmark was built with.
pub const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median a metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Contract {
    pub fn load() -> Contract {
        Contract::parse(TEXT).expect("BENCHMARK.json is well formed")
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = Value::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
