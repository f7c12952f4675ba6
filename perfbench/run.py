#!/usr/bin/env python3
"""Builds the whole-run benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results DIR]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the library from src/ plus the smst_perfbench binary) as a
Release build in .bench_build/perfbench; later runs only check that the
build is up to date. Build output goes to standard error.

The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. The full record of the run (host,
compiler, build type, commit, seed, failures, and for traced runs the
wake-shape histogram and spans) is written to
DIR/<workload>-seed<N>-trace<T>.json, DIR defaulting to .bench_results.
compare.py compares two such directories.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "smst_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}: run from a full "
             "checkout of the repository")
    cache = BUILD_DIR / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    if cache.is_file() and home not in cache.read_text().splitlines():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout path
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "smst_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")


def commit_id():
    """The checkout's git commit, or 'unknown' when it is not a git tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--results", default=str(ROOT / ".bench_results"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(record), "--commit", commit_id()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"smst_perfbench exited with code {run.returncode}")

    lines = run.stdout.splitlines()
    if not lines:
        fail("smst_perfbench printed no result")
    try:
        got = list(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        fail(f"smst_perfbench's last line is not a result: {lines[-1]!r}")
    want = expected_metrics(args.trace)
    if sorted(got) != sorted(want):
        fail(f"metrics {got} do not match BENCHMARK.json's {want}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
