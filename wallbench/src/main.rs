//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload ask-families --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `ask-families`, `ask-scaled`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). The exit code is 0 only when
//! every check held, 2 on a bad command line.

use std::process::ExitCode;
use std::time::Duration;

use nlidb_wallbench::{ask, Args};

const USAGE: &str =
    "usage: wallbench --workload <ask-families|ask-scaled> --seed <n> --seconds <n> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["ask-families", "ask-scaled"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "ask-families" => ask::run(&ask::ASK_FAMILIES, &args),
        _ => ask::run(&ask::ASK_SCALED, &args),
    };
    print!("{}", result.render(&args));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
