#!/usr/bin/env python3
"""Self-test of the benchmark's own output.  Run from the repository root:

    python3 benchmark/selftest.py

It checks, on the quickest workload (paper-sweep, about two minutes in all):

1. an untraced and a traced run exit 0 and print exactly the metrics that
   BENCHMARK.json declares for the mode, with the declared units (run.py
   enforces this too; here its printed output is checked independently),
   and the traced run writes a trace holding spans, per-name span totals,
   the workload's reason and the layer-interaction table;
2. a run whose expected fingerprints are deliberately altered
   (--tamper-fingerprint) exits non-zero and reports failed results;
3. in a directory holding only BENCHMARK.json and the benchmark's files,
   the command exits non-zero without printing a result.

The slice-percentile sample count (at least ten samples beyond p95) is
checked by every run itself: a run with too few fails its gate.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD = "paper-sweep"


def run(extra, cwd=REPO_ROOT):
    args = [sys.executable, os.path.join("benchmark", "run.py"),
            "--workload", WORKLOAD, "--seed", "1", "--seconds", "1", *extra]
    done = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def expect(condition, what):
    condition = bool(condition)
    print(("ok   " if condition else "FAIL ") + what)
    return condition


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    passed = True
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = run(["--trace", trace])
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
        passed &= expect(code == 0 and result["correct"], f"--trace {trace} run passes its checks")
        passed &= expect(printed == declared, f"--trace {trace} prints exactly the {section} metrics and units")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    trace_file = os.path.join(REPO_ROOT, target, "trace", f"{WORKLOAD}-seed1.json")
    with open(trace_file, encoding="utf-8") as f:
        written = json.load(f)
    passed &= expect(
        written["spans"] and written["span_totals"] and written["why"]
        and len(written["interactions"]) == 14 and written["metrics"],
        "the traced run writes spans, totals, the reason and the interaction table",
    )

    code, result = run(["--trace", "0", "--tamper-fingerprint"])
    passed &= expect(
        code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
        "an altered expected fingerprint makes the command fail",
    )

    isolated = os.path.join(REPO_ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(isolated, "benchmark"),
                    ignore=shutil.ignore_patterns("target"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), isolated)
    code, result = run(["--trace", "0"], cwd=isolated)
    shutil.rmtree(isolated)
    passed &= expect(code != 0 and result is None,
                     "without the simulator's sources the command fails and prints no result")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
