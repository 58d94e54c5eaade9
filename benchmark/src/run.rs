//! The timed pass: set-up, one warm-up round, then timed rounds with
//! tracing off.

use crate::json::Value;
use crate::spans;
use crate::stats::Summary;
use crate::verify::{check_solution, guarded, Findings};
use crate::workload::{build_global, solve, Global, Rank, SolveStats, Spec, Variant, TOL};
use dense::Matrix;
use distsim::run_ranks;
use std::sync::Mutex;
use std::time::Instant;

/// How many timed rounds a run makes.
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    /// As many as end within this many seconds of the warm-up's start, and
    /// at least [`MIN_ROUNDS`].
    Seconds(f64),
    /// Exactly this many (`--quick`).
    Fixed(usize),
}

pub const MIN_ROUNDS: usize = 3;

impl Rounds {
    /// Whether to start another round after `done` of them, the last of
    /// which took `last_s`, in a window that opened at `window`.
    pub fn more(self, done: usize, window: Instant, last_s: f64) -> bool {
        match self {
            Rounds::Fixed(n) => done < n,
            Rounds::Seconds(s) => done < MIN_ROUNDS || window.elapsed().as_secs_f64() + last_s <= s,
        }
    }
}

/// `setup_s` is the median of at least this many full set-ups, and of as
/// many more (up to [`MAX_SETUPS`]) as fit in [`SETUP_BUDGET_S`]: a set-up
/// of a few milliseconds needs the larger sample to give a steady median.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 40;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What a pass reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub findings: Findings,
    /// `(name, unit, summary)` in the order of `BENCHMARK.json`.
    pub metrics: Vec<(String, &'static str, Summary)>,
    /// The raw timings behind the summaries, by metric name.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Sizes and settings, for the reader.
    pub info: Value,
}

/// `{name: [samples]}`, the raw timings behind the summaries.
fn samples_json(named: &[(String, Vec<f64>)]) -> Value {
    Value::obj(named.iter().map(|(name, xs)| {
        (
            name.clone(),
            Value::Arr(xs.iter().map(|&x| x.into()).collect()),
        )
    }))
}

impl Report {
    pub fn correct(&self) -> bool {
        self.findings.correct()
    }

    /// The line the driver reads.
    pub fn contract_line(&self) -> Value {
        Value::obj([
            ("correct", self.correct().into()),
            ("attempted", self.findings.tally.attempted.into()),
            ("failed", self.findings.tally.failed.into()),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, unit, s)| {
                    (
                        name.clone(),
                        Value::obj([("value", s.median.into()), ("unit", Value::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// Everything, for `result.json` and `--compare`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("seed", self.seed.into()),
            ("correct", self.correct().into()),
            ("ops_total", self.findings.tally.attempted.into()),
            ("ops_failed", self.findings.tally.failed.into()),
            (
                "failures",
                Value::Arr(self.findings.failures().map(Value::str).collect()),
            ),
            (
                "metrics",
                Value::obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, s)| (name.clone(), s.to_json(unit))),
                ),
            ),
            (
                "exact",
                Value::obj(
                    self.findings
                        .exact
                        .0
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into())),
                ),
            ),
            ("samples", samples_json(&self.samples)),
            ("info", self.info.clone()),
        ])
    }

    pub fn print(&self) {
        for (name, unit, s) in &self.metrics {
            // Six decimals, or an exponent where those would all be zeros.
            let fixed = s.median == 0.0 || s.median.abs() >= 1e-3;
            let value = if fixed {
                format!("{:.6}", s.median)
            } else {
                format!("{:.3e}", s.median)
            };
            if s.n > 1 {
                println!(
                    "{name:<40} {value:>14} {unit:<8} q1 {:.6} q3 {:.6} n {}",
                    s.q1, s.q3, s.n
                );
            } else {
                println!("{name:<40} {value:>14} {unit}");
            }
        }
        // Table III's speed-up columns, for the reader.  Not metrics: a
        // change that only speeds up CGS2 would make them "worse".
        let median_of = |name: &str| {
            let found = self.metrics.iter().find(|(n, _, _)| n == name);
            found.map(|(_, _, s)| s.median)
        };
        if let Some(std_s) = median_of("tts_std_s") {
            for variant in ["two_stage", "pip2", "bcgs2"] {
                if let Some(s) = median_of(&format!("tts_{variant}_s")) {
                    println!("# tts_std_s / tts_{variant}_s = {:.2}", std_s / s);
                }
            }
        }
        println!(
            "{:<40} {:>14} ops ({} failed)",
            "ops_total", self.findings.tally.attempted, self.findings.tally.failed
        );
        for why in self.findings.failures() {
            println!("FAILED {why}");
        }
    }
}

/// A solve as rank 0 sees it, verified.
pub struct Solved {
    pub seconds: f64,
    pub stats: SolveStats,
}

/// Where the ranks put their blocks of the solution for verification.
pub struct Gather<'a> {
    pub global: &'a Global,
    pub x: Mutex<Matrix>,
}

impl<'a> Gather<'a> {
    pub fn new(global: &'a Global) -> Self {
        Gather {
            global,
            x: Mutex::new(Matrix::zeros(global.b.nrows(), global.b.ncols())),
        }
    }
}

/// One rank's side of a pass: its solves, and on rank 0 what they showed.
pub struct Session<'a> {
    pub rank: &'a Rank,
    gather: &'a Gather<'a>,
    x_local: Matrix,
    pub findings: Findings,
}

impl<'a> Session<'a> {
    pub fn new(rank: &'a Rank, gather: &'a Gather<'a>) -> Self {
        Session {
            rank,
            gather,
            x_local: Matrix::zeros(rank.local_rows(), rank.b_local.ncols()),
            findings: Findings::default(),
        }
    }

    /// One operation: `variant` solved from zero between two barriers,
    /// timed, then gathered and verified outside the timed region, its
    /// counts checked against earlier solves of the variant.  Collective;
    /// `Some` on rank 0 when the solve did not panic.
    pub fn solve(&mut self, variant: Variant) -> Option<Solved> {
        let rank = self.rank;
        rank.raw.barrier();
        let start = Instant::now();
        let outcome = {
            let _root = spans::open(&format!("solve:{}", variant.name()), 0);
            guarded(|| solve(rank, variant, &mut self.x_local))
        };
        rank.raw.barrier();
        let seconds = start.elapsed().as_secs_f64();
        {
            let mut x = self.gather.x.lock().expect("gather buffer poisoned");
            for j in 0..self.x_local.ncols() {
                x.col_mut(j)[rank.lo..rank.hi].copy_from_slice(self.x_local.col(j));
            }
        }
        rank.raw.barrier();
        if rank.raw.rank() != 0 {
            return None;
        }
        let global = self.gather.global;
        let x = self.gather.x.lock().expect("gather buffer poisoned");
        let verdict = outcome
            .as_ref()
            .map_err(String::clone)
            .and_then(|stats| check_solution(&global.a, &x, &global.b, stats.converged, TOL));
        self.findings.tally.record(variant.name(), verdict);
        let stats = outcome.ok()?;
        for (name, value) in exact_counts_of(variant, &stats) {
            if let Err(why) = self.findings.exact.observe(name, value) {
                self.findings.problems.push(why);
            }
        }
        Some(Solved { seconds, stats })
    }

    /// Rank 0 decides whether the pass goes on and tells the others.
    pub fn agree(&self, more: bool) -> bool {
        let mut word = [if more { 1.0 } else { 0.0 }];
        self.rank.raw.broadcast(0, &mut word);
        word[0] != 0.0
    }
}

/// The solver's own counts for one variant, by metric name.
fn exact_counts_of(variant: Variant, stats: &SolveStats) -> Vec<(String, u64)> {
    let v = variant.name();
    let count = |stem: &str, value: usize| (format!("{stem}.{v}"), value as u64);
    vec![
        count("core.iters", stats.iters),
        count("core.restarts", stats.restarts),
        count("core.spmv_count", stats.spmv),
        count("distsim.allreduce_calls", stats.comm.allreduces),
        count("distsim.allreduce_words", stats.comm.allreduce_words),
        count("distsim.p2p_msgs", stats.comm.p2p_messages),
        count("distsim.p2p_words", stats.comm.p2p_words),
    ]
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Spawn the workload's ranks, assemble each one's share and run `body`
/// on it; the result is rank 0's.  A panic that takes the rank group down
/// is the `Err`.
pub fn on_ranks<T: Send>(
    spec: &Spec,
    global: &Global,
    body: impl Fn(&Rank) -> Option<T> + Send + Sync,
) -> Result<T, String> {
    let mut per_rank =
        guarded(|| run_ranks(spec.ranks, |raw| body(&Rank::assemble(raw, spec, global))))?;
    Ok(per_rank.swap_remove(0).expect("rank 0 reports"))
}

/// Sizes and settings of a workload, for the `info` of a report.
pub fn problem_info(spec: &Spec, global: &Global) -> Vec<(&'static str, Value)> {
    vec![
        ("rows", global.a.nrows().into()),
        ("nnz", global.a.nnz().into()),
        ("ranks", spec.ranks.into()),
        ("rhs_cols", spec.rhs_cols.into()),
        ("alpha_us", (spec.alpha.as_secs_f64() * 1e6).into()),
    ]
}

/// The timed pass of one workload.
pub fn run_e2e(spec: &Spec, seed: u64, rounds: Rounds) -> Report {
    // One lane per rank thread: every kernel runs inline on its rank.
    parkit::set_num_threads(1);
    trace::set_enabled(false);
    let mut setups = Vec::new();
    let budget = Instant::now();
    while setups.len() + 1 < MIN_SETUPS
        || (setups.len() + 1 < MAX_SETUPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let global = build_global(spec, seed);
        run_ranks(spec.ranks, |raw| drop(Rank::assemble(raw, spec, &global)));
        setups.push(start.elapsed().as_secs_f64());
    }
    // The last set-up is the one the rounds run on.
    let start = Instant::now();
    let global = build_global(spec, seed);
    let gather = Gather::new(&global);
    let outcome = on_ranks(spec, &global, |rank| {
        let setup_s = start.elapsed().as_secs_f64();
        timed_rounds(rank, &gather, rounds).map(|(seconds, findings)| (setup_s, seconds, findings))
    });
    let (setup_s, seconds, mut findings) = outcome.unwrap_or_else(|why| {
        let nothing = vec![Vec::new(); Variant::ALL.len()];
        (f64::NAN, nothing, Findings::lost(why))
    });
    setups.push(setup_s);

    let mut samples = vec![("setup_s".to_string(), setups)];
    // `BENCHMARK.json` lists the variants in the reverse of the round order.
    for (variant, seconds) in Variant::ALL.iter().zip(&seconds).rev() {
        if seconds.is_empty() {
            findings
                .problems
                .push(format!("{}: no solve completed", variant.name()));
            continue;
        }
        samples.push((format!("tts_{}_s", variant.name()), seconds.clone()));
    }
    let mut metrics: Vec<_> = samples
        .iter()
        .map(|(name, xs)| (name.clone(), "s", Summary::of(xs)))
        .collect();
    metrics.push((
        "peak_rss_mb".to_string(),
        "MB",
        Summary::single(peak_rss_mb()),
    ));
    let mut info = problem_info(spec, &global);
    info.push(("rounds", seconds[0].len().into()));
    Report {
        workload: spec.name,
        seed,
        findings,
        metrics,
        samples,
        info: Value::obj(info),
    }
}

/// Warm-up round, then timed rounds; each runs every variant once, so
/// drift of the host hits all four alike.  Collective.  On rank 0, the
/// seconds of each timed solve per variant, and what the solves showed.
fn timed_rounds(
    rank: &Rank,
    gather: &Gather<'_>,
    rounds: Rounds,
) -> Option<(Vec<Vec<f64>>, Findings)> {
    let mut session = Session::new(rank, gather);
    let mut seconds = vec![Vec::new(); Variant::ALL.len()];
    let window = Instant::now();
    let mut round = 0usize; // round 0 is the warm-up; `round` timed ones are done
    loop {
        let round_start = Instant::now();
        for (slot, &variant) in Variant::ALL.iter().enumerate() {
            if let Some(solved) = session.solve(variant) {
                if round > 0 {
                    seconds[slot].push(solved.seconds);
                }
            }
        }
        let more = rounds.more(round, window, round_start.elapsed().as_secs_f64());
        if !session.agree(more) {
            break;
        }
        round += 1;
    }
    (rank.raw.rank() == 0).then_some((seconds, session.findings))
}
