//! Command line of the benchmark; see `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use tts_bench::compare::compare;
use tts_bench::contract::Contract;
use tts_bench::host::{cache_bytes, host_json};
use tts_bench::json::Value;
use tts_bench::run::{run_e2e, Report, Rounds};
use tts_bench::traced::run_traced;
use tts_bench::workload::specs;

const USAGE: &str = "usage: tts-bench [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--quick] [--out <dir>]\n       tts-bench --compare <a.json> <b.json>";

/// A run that has not finished by now is hung (a rank died inside a
/// collective and its peer waits for it); the driver allows 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn pass_name(traced: bool) -> &'static str {
    if traced {
        "layers"
    } else {
        "e2e"
    }
}

fn write(path: &Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// One pass of one workload in this process.  Prints every metric with its
/// unit, writes `<out>/<workload>.<pass>.json` (and the trace), and ends
/// with the line the driver reads.
fn run_one(args: &Args, name: &str, traced: bool, contract: &Contract) -> Result<bool, String> {
    let spec = specs(args.quick)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or(format!("no workload named {name}"))?;
    let rounds = if args.quick {
        Rounds::Fixed(2)
    } else {
        Rounds::Seconds(args.seconds.unwrap_or(contract.run_seconds))
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("tts-bench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!(
        "# {name} ({} pass, seed {}): L2 {} B, L3 {} B",
        pass_name(traced),
        args.seed,
        cache_bytes(2).unwrap_or(0),
        cache_bytes(3).unwrap_or(0)
    );
    let report: Report = if traced {
        let (report, spans) = run_traced(&spec, args.seed, rounds, args.quick);
        let trace = Value::obj([
            ("workload", Value::str(name)),
            ("seed", args.seed.into()),
            (
                "spans",
                Value::Arr(spans.iter().map(|s| s.to_json()).collect()),
            ),
        ]);
        write(&args.out.join(format!("trace_{name}.json")), &trace)?;
        report
    } else {
        run_e2e(&spec, args.seed, rounds)
    };
    println!("# sizes and settings: {}", report.info);
    report.print();
    write(
        &args.out.join(format!("{name}.{}.json", pass_name(traced))),
        &report.to_json(),
    )?;
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// Every workload, both passes, each in a child process of its own, so
/// that `peak_rss_mb` and the state of the thread pool are per workload;
/// then `<out>/result.json`.
fn run_all(args: &Args, contract: &Contract) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in &contract.workloads {
        let mut entry = vec![("name".to_string(), Value::str(name))];
        for traced in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
            all_correct &= status.success();
            let path = args.out.join(format!("{name}.{}.json", pass_name(traced)));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e} (child exited with {status})", path.display()))?;
            entry.push((pass_name(traced).to_string(), Value::parse(&text)?));
        }
        workloads.push(Value::Obj(entry));
    }
    let result = Value::obj([
        ("host", host_json(args.seed, args.quick)),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = args.out.join("result.json");
    write(&path, &result)?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let contract = Contract::load();
        if let Some((a, b)) = &args.compare {
            return compare(a, b, &contract);
        }
        match (&args.workload, args.trace) {
            (Some(name), traced) => run_one(&args, name, traced.unwrap_or(false), &contract),
            (None, None) => run_all(&args, &contract),
            (None, Some(_)) => Err("--trace needs --workload".into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("tts-bench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
