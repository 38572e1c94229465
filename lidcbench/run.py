#!/usr/bin/env python3
"""The LIDC benchmark: build, run one workload, check, report.

Run from the root of a checkout:

  python3 lidcbench/run.py --workload control_plane --seed 1 --seconds 20 --trace 0

The first run configures and builds lidcbench (and the LIDC libraries
from ../src) into $CARGO_TARGET_DIR/lidcbench, or .bench_build/lidcbench
when that is unset; later runs only rebuild what changed. Build output
goes to stderr. The last line of stdout is the result object:

  {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

preceded by a "provenance {...}" line (build type, compiler, nproc, seed,
round counts, sim fingerprint). A failed check exits 1 without a result.

Two more modes:

  python3 lidcbench/run.py --compare BASE.jsonl NEW.jsonl
      Gates NEW against BASE: each file holds result lines of repeated
      runs; medians are compared with the bounds in BENCHMARK.json.
  python3 lidcbench/run.py --selftest
      Shows the gate rejects an injected regression on every end-to-end
      metric (zero baselines included), and that the program is
      deterministic per seed and differs across seeds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lidcbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    try:
        return configure_and_build()
    except OSError as error:  # e.g. cmake missing
        print("lidcbench: %s" % error, file=sys.stderr)
        return None


def configure_and_build():
    out = build_dir()
    binary = os.path.join(out, "lidcbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", out, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0 or not os.path.exists(binary):
        return None
    return binary


def run_benchmark(args):
    binary = build()
    if binary is None:
        print("lidcbench: build failed", file=sys.stderr)
        return 1
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", results]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("lidcbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or not result["correct"]:
        print("lidcbench: malformed or incorrect result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


# --- the regression gate ------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(base_runs, new_runs, spec):
    """Returns the regressions of NEW against BASE as readable strings.

    Each run is a result object. A metric regresses when NEW's median is
    worse than BASE's median by more than the metric's bound (a share of
    BASE's median). A zero baseline means "must stay zero": any move in
    the worse direction regresses — it is never skipped. The count of
    failed jobs is gated the same way with a zero bound.
    """
    regressions = []
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    for name, better, bound in gates + [("failed", "lower", 0.0)]:
        def values(runs):
            if name == "failed":
                return [r["failed"] / max(1, r["attempted"]) for r in runs]
            return [r["metrics"][name]["value"] for r in runs]
        base = statistics.median(values(base_runs))
        new = statistics.median(values(new_runs))
        worse = new - base if better == "lower" else base - new
        if worse > abs(base) * bound:
            regressions.append("%s: %.6g -> %.6g (%s is better, bound %.0f%%)"
                               % (name, base, new, better, bound * 100))
    return regressions


def read_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                runs.append(json.loads(line))
    return runs


def selftest():
    spec = load_spec()
    failures = []

    # 1. The gate passes an unchanged copy and rejects an injected
    #    regression on every end-to-end metric, zero baselines included.
    def synthetic(scale, zero_metric=None):
        runs = []
        for i in range(10):
            metrics = {}
            for m in spec["end_to_end"]:
                value = 0.0 if m["name"] == zero_metric else 100.0 * (1 + 0.001 * i)
                metrics[m["name"]] = {"value": value * scale.get(m["name"], 1.0),
                                      "unit": m["unit"]}
            runs.append({"correct": True, "attempted": 1000,
                         "failed": scale.get("failed", 0), "metrics": metrics})
        return runs

    base = synthetic({})
    if compare(base, synthetic({}), spec):
        failures.append("gate flags an unchanged copy")
    for m in spec["end_to_end"] + [{"name": "failed", "better": "lower", "bound": 0.0}]:
        name = m["name"]
        if name == "failed":
            injected = synthetic({"failed": 1})
        else:
            factor = 1 + 2 * m["bound"] if m["better"] == "lower" else 1 - 2 * m["bound"]
            injected = synthetic({name: factor})
        flagged = compare(base, injected, spec)
        if not any(f.startswith(name + ":") for f in flagged):
            failures.append("gate misses a regression of %s" % name)
        if m["better"] == "lower" and name != "failed":
            # The same metric with a zero baseline must stay zero.
            zero_base = synthetic({}, zero_metric=name)
            bumped = synthetic({}, zero_metric=name)
            for run in bumped:
                run["metrics"][name]["value"] = 1e-9
            if not any(f.startswith(name + ":") for f in compare(zero_base, bumped, spec)):
                failures.append("gate skips the zero baseline of %s" % name)

    # 2. Determinism: one seed gives one simulation across processes and
    #    between traced and untraced runs; another seed gives another.
    binary = build()
    if binary is None:
        failures.append("build failed")
    else:
        out = os.path.join(build_dir(), "results")
        os.makedirs(out, exist_ok=True)

        def fingerprint(workload, seed, trace):
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--out", out],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return None
            provenance = json.loads(proc.stdout.splitlines()[0].split(" ", 1)[1])
            return provenance["sim_fingerprint"]

        for workload in [w["name"] for w in spec["workloads"]]:
            a = fingerprint(workload, 1, 0)
            b = fingerprint(workload, 1, 1)
            c = fingerprint(workload, 2, 0)
            if None in (a, b, c):
                failures.append("%s: a run failed" % workload)
            elif a != b:
                failures.append("%s: traced and untraced runs of one seed differ" % workload)
            elif a == c:
                failures.append("%s: two seeds give the same simulation" % workload)

    for failure in failures:
        print("SELFTEST FAILED: " + failure, file=sys.stderr)
    if not failures:
        print("selftest passed: gate rejects every injected regression; "
              "runs are deterministic per seed and differ across seeds")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        regressions = compare(read_runs(args.compare[0]), read_runs(args.compare[1]),
                              load_spec())
        for line in regressions:
            print("REGRESSION " + line)
        return 1 if regressions else 0
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
