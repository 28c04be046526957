//! Run one benchmark workload in this process and print its report as
//! one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--workdir <dir>]
//! ```
//!
//! `perfbench/run.py` builds this binary, runs it in a fresh process per
//! workload and turns the report into the benchmark's result line.

use bingo_perfbench::{
    per_layer_metrics, run_workload, Params, Report, Size, END_TO_END, TABLE, WORKLOADS,
};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
         [--workdir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut params = Params {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        workdir: PathBuf::from(".bench_work"),
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => {
                seed_given = true;
                value.parse().map(|s| params.seed = s).is_ok()
            }
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| params.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    params.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--workdir" => {
                params.workdir = PathBuf::from(value);
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }

    let Some(name) = workload else {
        return usage("--workload is required");
    };
    if !seed_given {
        return usage("--seed is required");
    }
    let Some(report) = run_workload(&name, &params) else {
        return usage(&format!("unknown workload {name}"));
    };
    println!("{}", report_json(&report, &params));
    ExitCode::SUCCESS
}

/// The full report of one run as JSON.
fn report_json(r: &Report, params: &Params) -> Value {
    let unit_map = |names: &[(&str, &str)], values: &std::collections::BTreeMap<&str, f64>| {
        let entries = names
            .iter()
            .map(|&(name, unit)| {
                let metric = json!({ "value": values[name], "unit": unit });
                (name.to_string(), metric)
            })
            .collect();
        Value::Object(entries)
    };
    let (correct, check) = match &r.check {
        Ok(what) => (true, what.clone()),
        Err(why) => (false, why.clone()),
    };
    json!({
        "workload": r.workload,
        "seed": r.seed,
        "seconds": params.seconds,
        "trace": params.trace,
        "rounds": r.rounds,
        "correct": correct,
        "check": check,
        "attempted": r.attempted,
        "failed": r.failed,
        "round_ms": r.round_ms,
        "end_to_end": unit_map(&END_TO_END, &r.e2e),
        "per_layer": if params.trace { per_layer_json(r) } else { Value::Null },
        "table": if params.trace { unit_map(&TABLE, &r.layers) } else { Value::Null },
        "profile": if params.trace { r.profile.to_json() } else { Value::Null },
        "notes": r.notes,
        "host": {
            "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "busy_threads": r.busy_threads,
            "git_commit": std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
            "rustc": std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        },
    })
}

/// The machine-readable per-layer metrics as `{name: {value, unit}}`.
fn per_layer_json(r: &Report) -> Value {
    let entries = per_layer_metrics(r)
        .into_iter()
        .map(|(name, value, unit)| (name, json!({ "value": value, "unit": unit })))
        .collect();
    Value::Object(entries)
}
