#!/usr/bin/env python3
"""Build and run the LCWS benchmark for one workload.

    python3 perfbench/run.py --workload fib|flood|pbbs|ingress \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/` twice, plain and
with `--features trace`, under $CARGO_TARGET_DIR (default `.bench_build`),
then:

* `--trace 0`: one untraced run of S seconds, printing every end-to-end
  metric of BENCHMARK.json;
* `--trace 1`: an untraced `--layers` run and a traced `--layers` run of
  S/2 seconds each, merged into every per-layer metric of BENCHMARK.json
  (`<comp>.trace_overhead` is the traced median over the untraced one).

`BENCHMARK.json` lists fib, pbbs and ingress; flood is a diagnostic
workload (see perfbench/README.md) that runs the same way.

The last line of standard output is the JSON result. A run that exceeds
its deadline, crashes, or misses a metric is reported with
`"correct": false` and exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fib", "flood", "pbbs", "ingress")
COMPS = ("ws", "uslcws", "signal", "half")
# Budget for the measured runs, counted from the end of the builds.
DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target_dir, traced):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if traced:
        cmd += ["--features", "trace"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(target_dir, "release", "lcws-perfbench")


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, args, deadline):
    """Run one measurement; returns its parsed result line or None."""
    left = deadline - time.monotonic()
    if left <= 0:
        log("no time left for " + " ".join(args))
        return None
    try:
        proc = subprocess.run(
            [binary] + args, capture_output=True, text=True, timeout=left, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)}: killed at the {DEADLINE_S:.0f} s deadline")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{' '.join(args)}: exit {proc.returncode}, no result line")
        return None
    if proc.returncode != 0:
        log(f"{' '.join(args)}: exit {proc.returncode}")
        result["correct"] = False
    return result


def finish(results, metrics, expected):
    attempted = sum(r["attempted"] for r in results if r) or 1
    failed = sum(r["failed"] for r in results if r)
    correct = bool(results) and all(r and r["correct"] for r in results)
    if not all(results):
        failed += 1
    missing = [m for m in expected if m not in metrics]
    if missing:
        log("missing metrics: " + ", ".join(missing))
        correct = False
    metrics = {m: metrics[m] for m in expected if m in metrics}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        log("the program's sources (crates/) are not next to perfbench/; nothing to measure")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        plain = build(os.path.join(target, "plain"), traced=False)
        traced = build(os.path.join(target, "traced"), traced=True)
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    has_git = os.path.isdir(os.path.join(ROOT, ".git"))
    print("meta.build " + json.dumps({
        "rustc": tool_version(["rustc", "--version"]),
        "git_describe": tool_version(["git", "describe", "--always", "--dirty"])
        if has_git else "not a git checkout",
    }))

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        r = run_binary(plain, common + ["--seconds", str(args.seconds)], deadline)
        expected = [m["name"] for m in spec["end_to_end"]]
        return finish([r], r["metrics"] if r else {}, expected)

    half = str(args.seconds / 2)
    r_plain = run_binary(plain, common + ["--seconds", half, "--layers"], deadline)
    r_traced = run_binary(traced, common + ["--seconds", half, "--layers"], deadline)
    metrics = {}
    for r in (r_plain, r_traced):
        if r:
            metrics.update(r["metrics"])
    for c in COMPS:
        untraced = metrics.pop(f"{c}.untraced_ms", None)
        traced_ms = metrics.pop(f"{c}.traced_ms", None)
        if untraced and traced_ms and untraced["value"] > 0:
            metrics[f"{c}.trace_overhead"] = {
                "value": traced_ms["value"] / untraced["value"], "unit": "ratio"
            }
    expected = [m["name"] for m in spec["per_layer"]]
    return finish([r_plain, r_traced], metrics, expected)


if __name__ == "__main__":
    sys.exit(main())
