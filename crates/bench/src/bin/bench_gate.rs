//! The CI bench-regression gate.
//!
//! ```text
//! cargo run --release -p bingo-bench --bin bench_gate [-- FLAGS]
//!
//!   --smoke          run the reduced smoke sizes (fast CI runs)
//!   --update         re-record the selected mode's section (smoke with
//!                    --smoke, else full) of each BENCH_<scenario>.json,
//!                    keeping the file's other section as it was
//!   --only LIST      run a subset of scenarios: a comma-separated list
//!                    of (crawl | classify | pipeline | recovery |
//!                    serve | scale | scale10m | dist), e.g. `--only
//!                    crawl,serve`; repeatable. Unknown or empty lists
//!                    are usage errors listing the valid names.
//!   --out DIR        artifact directory (default target/bench_gate)
//! ```
//!
//! Each scenario runs twice; the deterministic telemetry (metrics
//! snapshot + event log) of the two runs must match byte for byte.
//! Reports are then compared against the checked-in baselines with
//! per-metric tolerances; each baseline section carries the CPU
//! calibration of the machine that recorded it, which scales the wall
//! metrics. Every report also records host facts (cores, per-leg
//! threads), ungated. Exit code 0 = pass, 1 = regression or
//! determinism failure, 2 = usage/setup error.

use bingo_bench::gate::{
    baseline_file, calibrate_cpu_ms, check_determinism, default_out_dir, diff_reports,
    load_baseline, markdown_diff_table, merge_baseline_section, run_classify_scenario,
    run_crawl_scenario, run_dist_scenario, run_pipeline_scenario, run_recovery_scenario,
    run_scale10m_scenario, run_scale_scenario, run_serve_scenario, write_run_artifacts, GateMode,
    MetricDiff, MetricSpec, ScenarioRun, CLASSIFY_SPECS, CRAWL_SPECS, DIST_SPECS, PIPELINE_SPECS,
    RECOVERY_SPECS, SCALE10M_SPECS, SCALE_SPECS, SERVE_SPECS,
};
use std::path::{Path, PathBuf};

struct Scenario {
    name: &'static str,
    specs: &'static [MetricSpec],
    run: fn(GateMode) -> ScenarioRun,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "crawl",
        specs: CRAWL_SPECS,
        run: run_crawl_scenario,
    },
    Scenario {
        name: "classify",
        specs: CLASSIFY_SPECS,
        run: run_classify_scenario,
    },
    Scenario {
        name: "pipeline",
        specs: PIPELINE_SPECS,
        run: run_pipeline_scenario,
    },
    Scenario {
        name: "recovery",
        specs: RECOVERY_SPECS,
        run: run_recovery_scenario,
    },
    Scenario {
        name: "serve",
        specs: SERVE_SPECS,
        run: run_serve_scenario,
    },
    Scenario {
        name: "scale",
        specs: SCALE_SPECS,
        run: run_scale_scenario,
    },
    Scenario {
        name: "scale10m",
        specs: SCALE10M_SPECS,
        run: run_scale10m_scenario,
    },
    Scenario {
        name: "dist",
        specs: DIST_SPECS,
        run: run_dist_scenario,
    },
];

fn main() {
    let mut smoke = false;
    let mut update = false;
    let mut only: Vec<String> = Vec::new();
    let mut out_dir = default_out_dir();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--update" => update = true,
            "--only" => match args.next() {
                Some(list) => {
                    let before = only.len();
                    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                        if SCENARIOS.iter().any(|s| s.name == name) {
                            only.push(name.to_string());
                        } else {
                            eprintln!(
                                "--only: unknown scenario {name:?} (expected a comma-separated \
                                 list of: {})",
                                SCENARIOS
                                    .iter()
                                    .map(|s| s.name)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            );
                            std::process::exit(2);
                        }
                    }
                    // An --only whose list trims away entirely ("", " , ")
                    // must not fall through to "no filter = run everything".
                    if only.len() == before {
                        eprintln!(
                            "--only: no scenario names in {list:?} (expected a comma-separated \
                             list of: {})",
                            SCENARIOS
                                .iter()
                                .map(|s| s.name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    }
                }
                None => {
                    eprintln!(
                        "--only requires a scenario name (one of: {})",
                        SCENARIOS
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_gate [--smoke] [--update] [--only SCENARIO] [--out DIR]");
                std::process::exit(2);
            }
        }
    }

    let calib_ms = calibrate_cpu_ms();
    eprintln!("cpu calibration: {calib_ms:.1} ms");
    let mode = if smoke {
        GateMode::Smoke
    } else {
        GateMode::Full
    };

    let selected: Vec<&Scenario> = SCENARIOS
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|n| n == s.name))
        .collect();

    let mut failures: Vec<String> = Vec::new();
    // Structured per-metric diffs plus the scenario/mode runs that
    // failed — for the $GITHUB_STEP_SUMMARY table and the telemetry
    // copies under out_dir/failed/.
    let mut diffs: Vec<MetricDiff> = Vec::new();
    let mut failed_runs: Vec<String> = Vec::new();
    for scenario in &selected {
        let label = format!("{}.{}", scenario.name, mode.key());
        eprintln!("running {label} (twice, for determinism) ...");
        let started = std::time::Instant::now();
        let first = (scenario.run)(mode);
        let second = (scenario.run)(mode);
        eprintln!(
            "  {label}: {:.1}s wall for both runs",
            started.elapsed().as_secs_f64()
        );
        let determinism = check_determinism(&label, &first.evidence, &second.evidence);
        if !determinism.is_empty() {
            failed_runs.push(label.clone());
        }
        failures.extend(determinism);
        if let Err(e) = write_run_artifacts(&out_dir, scenario.name, mode, &first) {
            eprintln!(
                "warning: could not write artifacts to {}: {e}",
                out_dir.display()
            );
        }

        let baseline = load_baseline(Path::new("."), scenario.name);
        let path = baseline_file(scenario.name);
        if update {
            let doc = merge_baseline_section(baseline, mode, first.report, calib_ms);
            match serde_json::to_string_pretty(&doc) {
                Ok(text) => {
                    if let Err(e) = std::fs::write(&path, text + "\n") {
                        eprintln!("error: could not write baseline {path}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("baseline recorded: {path} ({})", mode.key());
                }
                Err(e) => {
                    eprintln!("error: could not serialize baseline {path}: {e}");
                    std::process::exit(2);
                }
            }
            continue;
        }

        let recorded = baseline
            .as_ref()
            .and_then(|b| b.get(mode.key()))
            .and_then(|section| Some((section, section.get("calibration_ms")?.as_f64()?)));
        let Some((section, base_calib)) = recorded else {
            failures.push(format!(
                "{label}: {path} has no \"{}\" section with a calibration_ms (record it with \
                 --update{} --only {})",
                mode.key(),
                if smoke { " --smoke" } else { "" },
                scenario.name
            ));
            failed_runs.push(label);
            continue;
        };
        // < 1 means this machine is slower than the baseline recorder.
        let calib_scale = (base_calib / calib_ms).clamp(0.05, 20.0);
        let run_diffs = diff_reports(&label, section, &first.report, scenario.specs, calib_scale);
        if run_diffs.iter().any(|d| !d.ok) {
            failed_runs.push(label);
        }
        failures.extend(run_diffs.iter().filter_map(MetricDiff::failure_line));
        diffs.extend(run_diffs);
    }

    if update {
        eprintln!("baselines updated; artifacts in {}", out_dir.display());
        if !failures.is_empty() {
            eprintln!("\nDETERMINISM FAILURES (baselines NOT trustworthy):");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    if failures.is_empty() {
        eprintln!("bench gate: PASS ({} scenario(s))", selected.len());
    } else {
        eprintln!("bench gate: FAIL");
        for f in &failures {
            eprintln!("  - {f}");
        }
        failed_runs.sort();
        failed_runs.dedup();
        publish_step_summary(&failures, &diffs, &failed_runs);
        stage_failed_telemetry(&out_dir, &failed_runs);
        std::process::exit(1);
    }
}

/// On gate failure under GitHub Actions, append the per-metric
/// baseline-vs-actual diff table (plus the raw failure lines) to the
/// job's step summary. A no-op when `$GITHUB_STEP_SUMMARY` is unset
/// (local runs).
fn publish_step_summary(failures: &[String], diffs: &[MetricDiff], failed_runs: &[String]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut body = String::from("## Bench gate: FAIL\n\n");
    for f in failures {
        body.push_str(&format!("- `{f}`\n"));
    }
    // Show the full metric table only for runs that failed; passing
    // scenarios would drown the signal.
    let shown: Vec<MetricDiff> = diffs
        .iter()
        .filter(|d| failed_runs.iter().any(|r| r == &d.scenario))
        .cloned()
        .collect();
    if !shown.is_empty() {
        body.push_str("\n### Baseline vs actual\n\n");
        body.push_str(&markdown_diff_table(&shown));
    }
    body.push_str(
        "\nTelemetry of the failing scenario(s) is uploaded as the `bench-gate-failed` artifact.\n",
    );
    use std::io::Write;
    match std::fs::OpenOptions::new().append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("warning: could not write step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not open step summary {path}: {e}"),
    }
}

/// Copy the offending scenario runs' telemetry (report, metrics
/// snapshot, event log) into `out_dir/failed/` so CI can upload just
/// the failures as a dedicated artifact.
fn stage_failed_telemetry(out_dir: &Path, failed_runs: &[String]) {
    if failed_runs.is_empty() {
        return;
    }
    let failed_dir = out_dir.join("failed");
    if let Err(e) = std::fs::create_dir_all(&failed_dir) {
        eprintln!("warning: could not create {}: {e}", failed_dir.display());
        return;
    }
    for run in failed_runs {
        for suffix in ["report.json", "metrics.json", "events.jsonl", "spill.json"] {
            let name = format!("{run}.{suffix}");
            let src = out_dir.join(&name);
            if src.is_file() {
                if let Err(e) = std::fs::copy(&src, failed_dir.join(&name)) {
                    eprintln!("warning: could not copy {}: {e}", src.display());
                }
            }
        }
    }
    eprintln!(
        "failing-scenario telemetry staged in {}",
        failed_dir.display()
    );
}
