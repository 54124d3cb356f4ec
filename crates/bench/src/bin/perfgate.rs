//! Render the perf-drift baseline: per-stage profiles, the
//! clean-vs-faulted diff, the full metric/counter export for the
//! seeded retail stream, and execute-span cost bucketed by plan
//! shape — every number a logical-tick cost, so the output is a pure
//! function of the seed and `scripts/check_perf_drift.py` can compare
//! it byte-for-byte against `scripts/perf_baseline_seed42.txt`. Any
//! mismatch is a semantic change in pipeline work, never noise.
//!
//! ```text
//! cargo run --release -p nlidb-bench --bin perfgate            # seed 42
//! cargo run --release -p nlidb-bench --bin perfgate -- --seed 7
//! ```

use std::env;
use std::process::exit;

use nlidb_bench::experiments::{faulted_regime_plan, traced_serve_run};
use nlidb_benchdata::FaultPlan;
use nlidb_obs::{attr_cost_breakdown, Profile, ProfileDiff};

const N: usize = 120;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => 42,
        [flag, value] if flag == "--seed" => value.parse().unwrap_or_else(|_| {
            eprintln!("--seed wants an integer, got {value:?}");
            exit(2);
        }),
        _ => {
            eprintln!("usage: perfgate [--seed <u64>]");
            exit(2);
        }
    };

    let plan = faulted_regime_plan(seed, N);
    let (_, c_m, c_obs) = traced_serve_run(seed, N, FaultPlan::none());
    let (_, f_m, f_obs) = traced_serve_run(seed, N, plan);
    let clean = Profile::from_traces(&c_obs.sink.traces());
    let faulted = Profile::from_traces(&f_obs.sink.traces());
    c_m.export_into(&c_obs.registry);
    f_m.export_into(&f_obs.registry);

    let mut shape_text = String::new();
    for bucket in attr_cost_breakdown(&c_obs.sink.traces(), "execute", "plan_shape") {
        shape_text.push_str(&bucket.export_line());
    }

    print!(
        "perfgate seed={seed} n={N}\n\
         == profile clean ==\n{}\
         == profile faulted ==\n{}\
         == diff faulted-clean ==\n{}\
         == metrics clean ==\n{}\
         == metrics faulted ==\n{}\
         == execute cost by plan shape ==\n{shape_text}",
        clean.export_text(),
        faulted.export_text(),
        ProfileDiff::between(&clean, &faulted).export_text(),
        c_obs.registry.report().export_text(),
        f_obs.registry.report().export_text()
    );
}
