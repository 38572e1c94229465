#!/usr/bin/env python3
"""Runs scripts/check_bench_regression.py on synthetic BENCH files: an
unchanged copy and in-threshold growth must pass, while growth past the
threshold and any growth of a zero baseline must fail.

Usage: test_check_bench_regression.py [path/to/check_bench_regression.py]
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = (sys.argv[1] if len(sys.argv) > 1 else
          os.path.join(HERE, "..", "..", "scripts", "check_bench_regression.py"))

BASELINE = {"topk_miss_count": 0, "sketch_max_error_pct": 0.0, "makespan_s": 100.0}
METRICS = ["topk_miss_count", "sketch_max_error_pct", "makespan_s"]


def gate(directory, fresh):
    base_path = os.path.join(directory, "base.json")
    fresh_path = os.path.join(directory, "fresh.json")
    with open(base_path, "w", encoding="utf-8") as f:
        json.dump(BASELINE, f)
    with open(fresh_path, "w", encoding="utf-8") as f:
        json.dump(fresh, f)
    command = [sys.executable, SCRIPT, "--baseline", base_path, "--fresh", fresh_path]
    for metric in METRICS:
        command += ["--metric", metric]
    return subprocess.run(command, capture_output=True, text=True).returncode


def main():
    cases = [
        ("unchanged copy", {}, 0),
        ("in-threshold growth", {"makespan_s": 120.0}, 0),
        ("shrinkage", {"makespan_s": 50.0}, 0),
        ("5 top-k misses on a zero baseline", {"topk_miss_count": 5}, 1),
        ("40% sketch error on a zero baseline", {"sketch_max_error_pct": 40.0}, 1),
        ("growth past the threshold", {"makespan_s": 130.0}, 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for label, change, expected in cases:
            code = gate(directory, {**BASELINE, **change})
            verdict = "ok" if code == expected else "FAIL"
            print(f"{verdict:4} {label}: exit {code}, expected {expected}")
            failures += code != expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
