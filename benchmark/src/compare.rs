//! `--compare <a.json> <b.json>`: is run B no worse than run A?
//!
//! One row per (workload, end-to-end metric) with both medians, the
//! relative change and the bound of `BENCHMARK.json`.  A row is a *breach*
//! when B's median is worse than A's by more than the bound, and
//! *unresolved* when it is not but either run's quartile range is wider
//! than the bound, so that "no worse" is not shown either.  Counts marked
//! exact must be equal when both runs used the same seed.

use crate::contract::{Contract, Metric};
use crate::json::Value;
use crate::stats::Summary;

/// Differences of `setup_s` below this are ignored: at a few milliseconds
/// of set-up, a fifth more or less is the scheduler, not the program.
const SETUP_FLOOR_S: f64 = 0.005;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// Share by which `b` is worse than `a` (negative when it is better).
fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better.as_str() {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

pub fn judge(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if metric.name == "setup_s" && (b.median - a.median).abs() < SETUP_FLOOR_S {
        return Verdict::Ok;
    }
    if worse_by(metric, a.median, b.median) > bound {
        Verdict::Breach
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn workloads(result: &Value) -> Result<&[Value], String> {
    result
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a result file: no `workloads` list".to_string())
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(true)` when nothing is breached and every
/// exact count agrees.
pub fn compare(path_a: &str, path_b: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    let seed = |r: &Value| {
        r.get("host")
            .and_then(|h| h.get("seed"))
            .and_then(Value::as_f64)
    };
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut clean = true;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<16} missing from {path_b}");
            clean = false;
            continue;
        };
        let summary = |w: &Value, metric: &str| {
            w.get("e2e")
                .and_then(|p| p.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(Summary::from_json)
        };
        for metric in &contract.end_to_end {
            let (Some(sa), Some(sb)) = (summary(wa, &metric.name), summary(wb, &metric.name))
            else {
                println!("{name:<16} {:<18} missing", metric.name);
                clean = false;
                continue;
            };
            let verdict = judge(metric, &sa, &sb);
            println!(
                "{name:<16} {:<18} {:>12.6} {:>12.6} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                sa.median,
                sb.median,
                100.0 * worse_by(metric, sa.median, sb.median),
                100.0 * metric.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                    Verdict::Breach => "BREACH",
                }
            );
            clean &= verdict != Verdict::Breach;
        }
        for pass in ["e2e", "layers"] {
            let failed = |w: &Value| {
                w.get(pass)
                    .and_then(|p| p.get("ops_failed"))
                    .and_then(Value::as_f64)
            };
            if failed(wa) != Some(0.0) || failed(wb) != Some(0.0) {
                println!("{name:<16} {pass}: failed operations");
                clean = false;
            }
            if !same_seed {
                continue;
            }
            let exact = |w: &Value| w.get(pass).and_then(|p| p.get("exact")).cloned();
            if exact(wa) != exact(wb) {
                println!("{name:<16} {pass}: exact counts differ");
                clean = false;
            }
        }
    }
    if !same_seed {
        println!("seeds differ: exact counts not compared");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: &str, bound: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    fn summary(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            n: 9,
        }
    }

    #[test]
    fn verdicts() {
        let tts = metric("tts_std_s", "lower", 0.10);
        let tight = |m| summary(m, 0.01 * m);
        assert_eq!(judge(&tts, &tight(1.0), &tight(1.05)), Verdict::Ok);
        assert_eq!(judge(&tts, &tight(1.0), &tight(0.5)), Verdict::Ok);
        assert_eq!(judge(&tts, &tight(1.0), &tight(1.2)), Verdict::Breach);
        assert_eq!(
            judge(&tts, &summary(1.0, 0.1), &tight(1.05)),
            Verdict::Unresolved
        );
        let rate = metric("rate", "higher", 0.10);
        assert_eq!(judge(&rate, &tight(1.0), &tight(0.8)), Verdict::Breach);
        assert_eq!(judge(&rate, &tight(1.0), &tight(1.5)), Verdict::Ok);
        // Milliseconds of set-up are below the floor whatever the ratio.
        let setup = metric("setup_s", "lower", 0.15);
        assert_eq!(judge(&setup, &tight(0.004), &tight(0.008)), Verdict::Ok);
        assert_eq!(judge(&setup, &tight(0.1), &tight(0.2)), Verdict::Breach);
    }
}
