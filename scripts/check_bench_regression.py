#!/usr/bin/env python3
"""Bench regression gate: compares a freshly produced BENCH_<name>.json
against the committed baseline in bench/baselines/ and fails when any of
the named metrics regressed (grew) by more than the threshold.

The simulation benches are deterministic, so genuine drift in a makespan
metric means the code got slower, not the machine. The default 25%
threshold leaves room for intentional scenario tweaks while still
catching order-of-magnitude mistakes; shrinkage (faster) never fails.
A metric whose baseline is zero (e.g. a miss count) must stay zero.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_workflow.json \
      --fresh BENCH_workflow.json --metric dag_makespan_s [--metric ...]
"""
import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--metric", action="append", required=True,
                        help="metric that must not grow past the threshold "
                             "(repeatable)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional growth (default 0.25)")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)

    failed = False
    for metric in args.metric:
        if metric not in baseline:
            print(f"FAIL {metric}: missing from baseline {args.baseline}")
            failed = True
            continue
        if metric not in fresh:
            print(f"FAIL {metric}: missing from fresh {args.fresh}")
            failed = True
            continue
        base, now = float(baseline[metric]), float(fresh[metric])
        if base <= 0:
            # Growth against zero has no ratio, and skipping the metric
            # would gate nothing: a zero baseline must stay zero.
            verdict = "FAIL" if now > base else "ok"
            print(f"{verdict:4} {metric}: baseline={base:.6g} fresh={now:.6g} "
                  f"(zero baseline: must not grow)")
            if now > base:
                failed = True
            continue
        growth = (now - base) / base
        verdict = "FAIL" if growth > args.threshold else "ok"
        print(f"{verdict:4} {metric}: baseline={base:.6g} fresh={now:.6g} "
              f"growth={growth:+.1%} (threshold +{args.threshold:.0%})")
        if growth > args.threshold:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
