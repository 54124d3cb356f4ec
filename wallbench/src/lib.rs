//! # nlidb-wallbench — the wall-clock benchmark
//!
//! One command runs a named workload for a number of seconds, checks
//! every answer against an oracle computed outside the timed region,
//! and prints each metric by name with its unit and sample count; the
//! last line of standard output is one JSON object. `--trace 0`
//! measures the end-to-end metrics with no tracing; `--trace 1` is a
//! separate run that records the benchmark's own spans around each
//! call into a layer's public functions and reports per-layer metrics.
//!
//! Workloads (rationale next to each definition):
//! * `ask-families` — [`ask::ASK_FAMILIES`]
//! * `ask-scaled` — [`ask::ASK_SCALED`]
//!
//! The traced run of either also measures the `serve` and `dialogue`
//! layers through a serving probe ([`probe::probe_serve`]).

use std::time::{Duration, Instant};

use nlidb_core::pipeline::Answer;
use nlidb_core::InterpretError;
use nlidb_engine::ResultSet;

pub mod ask;
pub mod order;
pub mod probe;
pub mod replicate;
pub mod spans;
pub mod stats;

/// Seed of every generated database (domain `i` uses `DB_SEED + i`,
/// as `nlidb_benchdata::all_domains` does).
pub const DB_SEED: u64 = 42;

/// Training examples per domain for the learned families.
pub const TRAIN_N: usize = 60;

/// Set-ups timed in every run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Longest a traced run keeps decomposing questions while waiting for
/// enough `execute` samples (a run that stops short fails its tail
/// check instead of overrunning its time limit).
pub const PROBE_CAP: Duration = Duration::from_secs(90);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Run seed: decides visiting order only.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value rests on.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` observations.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What one run measured and whether its checks held.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations whose outcome disagreed with the oracle.
    pub failed: u64,
    /// Reasons the run's own checks failed (empty when correct).
    pub problems: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Human-readable lines, then the JSON result as the last line.
    pub fn render(&self, args: &Args) -> String {
        let mut out = format!(
            "workload={} seed={} trace={} nproc={}\n",
            args.workload,
            args.seed,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<34} {:>14.4} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("  CHECK FAILED: {p}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What an ask returned, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Executed answer: the SQL text and its rows.
    Answer {
        /// Rendered SQL.
        sql: String,
        /// Result rows.
        result: ResultSet,
    },
    /// No answer, with the pipeline's reason.
    Refused(String),
}

impl Outcome {
    /// Reduce an ask's result.
    pub fn of(r: &Result<Answer, InterpretError>) -> Outcome {
        match r {
            Ok(a) => Outcome::Answer {
                sql: a.sql.clone(),
                result: a.result.clone(),
            },
            Err(e) => Outcome::Refused(e.to_string()),
        }
    }

    /// Whether `r` is this outcome, without cloning it.
    pub fn matches(&self, r: &Result<Answer, InterpretError>) -> bool {
        match (self, r) {
            (Outcome::Answer { sql, result }, Ok(a)) => *sql == a.sql && *result == a.result,
            (Outcome::Refused(why), Err(e)) => *why == e.to_string(),
            _ => false,
        }
    }

    /// Whether this is an answer.
    pub fn answered(&self) -> bool {
        matches!(self, Outcome::Answer { .. })
    }
}

/// Rows rendered the way the serving runtime renders them in a
/// completion (`col=value` cells joined by `, `).
pub fn render_rows(result: &ResultSet) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .zip(&result.columns)
                .map(|(v, c)| format!("{c}={v}"))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Build a workload's set-up [`SETUP_REPEATS`] times back to back,
/// timing each build; each earlier build is dropped before the next
/// starts. Returns the last build and the seconds of every build.
pub fn time_setups<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up is built"), times)
}

/// The end-to-end metrics every workload reports, from its latency
/// samples and counts. Adds a problem when the p99 has too few samples
/// beyond it.
pub fn end_to_end(
    result: &mut RunResult,
    (setup_s, setups): (f64, usize),
    latencies: &stats::Samples,
    wall: Duration,
    correct: u64,
    answered: u64,
) {
    let s = latencies.summary();
    if !s.tail_ok() {
        result.problems.push(format!(
            "only {} samples beyond p99 (need {})",
            s.beyond_p99,
            stats::MIN_TAIL_SAMPLES
        ));
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        result
            .problems
            .push("no VmHWM in /proc/self/status".to_string());
        0.0
    });
    let n = result.attempted;
    let share = |k: u64| if n == 0 { 0.0 } else { k as f64 / n as f64 };
    result.metrics.extend([
        Metric::new("setup_s", setup_s, "s", setups),
        Metric::new("ask_p50_us", s.p50, "us", s.count),
        Metric::new("ask_p99_us", s.p99, "us", s.count),
        Metric::new("asks_per_s", n as f64 / wall.as_secs_f64(), "1/s", s.count),
        Metric::new("exec_accuracy", share(correct), "share", n as usize),
        Metric::new("answered_share", share(answered), "share", n as usize),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ]);
}

/// Write the traced run's spans to `.bench_trace/<workload>-seed<seed>.jsonl`
/// under the working directory; a write failure fails the run.
pub fn write_trace(rec: &spans::Recorder, args: &Args, result: &mut RunResult) {
    let path = std::path::Path::new(".bench_trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = rec.write_jsonl(&path) {
        result
            .problems
            .push(format!("could not write {}: {e}", path.display()));
    }
}
