#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with Cargo into ``$CARGO_TARGET_DIR``
(default ``.bench_build``).  Its last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, is checked
against ``BENCHMARK.json`` -- every metric named there for the mode
(``end_to_end`` untraced, ``per_layer`` traced) must be printed with the
declared unit, and nothing else -- and printed again as the last line.
The exit code is non-zero when the build fails, any check fails, or the
output does not match ``BENCHMARK.json``.  Other flags (``--record``,
``--tamper-fingerprint``) are passed to the binary unchanged.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary bounds its own run time; this only guards against a hang.
RUN_TIMEOUT_S = 175


def declared_metrics(traced):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def problems_with(result, declared):
    """Every way `result` departs from the result contract."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
        return problems
    printed = result["metrics"]
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"metric {name} is declared but not printed")
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"metric {name} is printed but not declared")
    for name in sorted(set(printed) & set(declared)):
        entry = printed[name]
        if entry.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, declared {declared[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metric {name} has non-numeric value {value!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    return problems


def main(argv):
    passthrough = "--record" in argv
    traced = False
    if "--trace" in argv:
        index = argv.index("--trace")
        traced = index + 1 < len(argv) and argv[index + 1] == "1"
    try:
        declared = None if passthrough else declared_metrics(traced)
    except (OSError, KeyError, ValueError) as e:
        print(f"benchmark: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "repo-benchmark")
    try:
        run = subprocess.run(
            [binary, *argv], env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if passthrough:
        sys.stdout.write(run.stdout)
        return run.returncode

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        problems = problems_with(result, declared)
    except (IndexError, ValueError, TypeError) as e:
        print(f"benchmark: unreadable result ({e}); exit code {run.returncode}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    if problems:
        if set(result) != RESULT_KEYS:
            return 1
        result["correct"] = False
    print(json.dumps(result))
    if run.returncode != 0:
        return run.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
