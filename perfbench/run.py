#!/usr/bin/env python3
"""Build and run one workload of the BINGO! benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]

Run from the repository root. Builds the benchmark package in
`perfbench/` (release profile, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in a fresh process and
prints, as the last line of standard output, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics. With
`--trace 1` the workload runs twice, untraced and traced, each in its
own process; the metrics are the per-layer metrics of the traced run
plus `tracing.overhead_pct`, the traced run's median round time over the
untraced one's. The traced run also prints the per-layer table and
writes its spans to `.bench_work/spans/`. Full reports of every run go
to `.bench_work/reports/`.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["focused_crawl", "spill_crawl", "portal_serve", "dist_crawl"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def git_commit():
    # Only this checkout's own repository: a plain copy may sit inside
    # another one.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def run_once(binary, args, trace, host_env):
    """Run the workload in a fresh process; return its report."""
    workdir = os.path.join(ROOT, ".bench_work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=host_env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{args.workload} exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    reports = os.path.join(workdir, "reports")
    os.makedirs(reports, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{trace}.json"
    with open(os.path.join(reports, name), "w") as f:
        json.dump(report, f, indent=1)
    return report


def print_summary(report):
    host = report["host"]
    print(f"workload {report['workload']}  seed {report['seed']}  rounds {report['rounds']}  "
          f"check: {'ok' if report['correct'] else 'FAILED'} - {report['check']}")
    print(f"host: {host['available_parallelism']} cores, {host['busy_threads']} busy threads, "
          f"{host['profile']} build, {host['rustc']}, commit {host['git_commit']}")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']}")


def print_table(traced, overhead_pct):
    """The per-layer table: every layer's busy and self time per round,
    its share of the wall time, then the layer metrics."""
    prof = traced["profile"]
    rounds = max(traced["rounds"], 1)
    wall = prof["wall_ms"]
    print("per-layer profile (per round; wall = summed root spans of the busy threads)")
    print(f"  {'layer':<26} {'calls':>9} {'busy ms':>11} {'self ms':>11} {'self share':>10}")
    parents = {r["layer"]: r["parent"] for r in prof["layers"]}
    for row in prof["layers"]:
        depth = 0
        parent = row["parent"]
        while parent is not None:
            depth += 1
            parent = parents.get(parent)
        name = "  " * depth + row["layer"]
        share = row["self_ms"] / wall if wall else 0.0
        print(f"  {name:<26} {row['calls'] / rounds:>9.0f} {row['busy_ms'] / rounds:>11.2f} "
              f"{row['self_ms'] / rounds:>11.2f} {share:>10.1%}")
    unattributed = prof["unattributed_ms"]
    print(f"  {'unattributed_ms':<26} {'':>9} {'':>11} {unattributed / rounds:>11.2f} "
          f"{(unattributed / wall if wall else 0.0):>10.1%}")
    print(f"  {'wall_ms':<26} {'':>9} {wall / rounds:>11.2f}")
    print(f"  tracing overhead: {overhead_pct:+.2f}% of the untraced median round time")
    print("layer metrics (per round):")
    for name, m in traced["table"].items():
        if m["value"]:
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    host_env = dict(os.environ,
                    PERFBENCH_GIT_COMMIT=git_commit(),
                    PERFBENCH_RUSTC=command_output(["rustc", "--version"]))
    plain = run_once(binary, args, 0, host_env)
    print_summary(plain)
    runs = [plain]
    if args.trace:
        traced = run_once(binary, args, 1, host_env)
        runs.append(traced)
        overhead = (traced["round_ms"] / plain["round_ms"] - 1.0) * 100.0
        print_table(traced, overhead)
        metrics = dict(traced["per_layer"])
        metrics["tracing.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = plain["end_to_end"]
    correct = all(r["correct"] for r in runs)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] + (0 if r["correct"] else 1) for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
