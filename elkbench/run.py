#!/usr/bin/env python3
"""The repository benchmark: builds elkbench from source, runs one workload.

Run from the root of a checkout:

  python3 elkbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints the run's tables, then as its last line one JSON
      object with "correct", "attempted", "failed" and "metrics" (the
      end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
      ones with --trace 1; a traced run also writes a Chrome trace to
      <build>/traces/).
  python3 elkbench/run.py --self-check [--runs N] [--seconds S]
      Steadiness check: two sets of N runs per workload (seeds 1..N each
      time); prints median and quartiles of every end-to-end metric and
      fails if a spread or the shift between the sets exceeds its bound.
  python3 elkbench/run.py --test
      Builds and runs the benchmark's own unit tests.
  python3 elkbench/run.py --record
      Rewrites elkbench/reference.txt, the recorded digests the runs
      check against (serve digests for seeds 0-40).

The build goes to $CARGO_TARGET_DIR/elkbench, or .bench_build/elkbench
when that variable is unset. See elkbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.txt"
WORKLOADS = ("compile_fig17", "serve_chip", "serve_cluster")
# Seeds whose serve digests reference.txt records; a run with another
# seed checks its serves against each other only, and says so.
RECORDED_SEEDS = range(0, 41)
BUILD_JOBS = 2
RUN_TIMEOUT_S = 175
# Metrics that are simulated (or ratios of simulated times): they must
# repeat exactly for one seed.
EXACT_PREFIXES = ("sim_", "roofline_frac", "speedup_")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / base / "elkbench").resolve()


def build(target):
    """Configures and builds @target; exits 2 with the log on failure."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS),
                  "--target", target])
    with open(log_path, "w") as log:
        for cmd in steps:
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.flush()
                sys.stderr.write("elkbench: build failed (%s)\n" % " ".join(cmd))
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(2)
    return out / target


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """One run of @binary; returns the parsed result line (or exits)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", str(REFERENCE)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("elkbench: %s timed out\n" % workload)
        sys.exit(3)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("elkbench: %s exited with %d\n" % (workload,
                                                          proc.returncode))
        sys.exit(proc.returncode or 4)
    result = json.loads(lines[-1])
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        sys.stderr.write("elkbench: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(result["metrics"]), sorted(wanted)))
        sys.exit(5)
    if echo:
        print("\n".join(lines[:-1]))
    return result, lines[-1]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_check(args):
    spec = load_spec()
    binary = build("elkbench")
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    ok = True
    for w in WORKLOADS:
        sets = []
        for _ in range(2):
            runs = []
            for s in seeds:
                result, _ = run_once(binary, w, s, seconds, 0, echo=False)
                if not result["correct"]:
                    print("%s seed %d: incorrect output" % (w, s))
                    ok = False
                runs.append(result["metrics"])
            sets.append(runs)
        print("\n== %s: %d runs per set, %d s each ==" % (w, len(seeds), seconds))
        print("  %-20s %12s %12s %12s %8s %8s %8s  %s" % (
            "metric", "median A", "q1 A", "q3 A", "spread", "shift",
            "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name]["value"] for r in sets[0]]
            b = [r[name]["value"] for r in sets[1]]
            q1, med_a, q3 = quartiles(a)
            med_b = statistics.median(b)
            spread = (q3 - q1) / med_a if med_a else float("inf")
            shift = abs(med_b - med_a) / med_a if med_a else float("inf")
            verdict = "ok"
            if spread > bound:
                verdict = "SPREAD"
            if shift > bound:
                verdict = "SHIFT"
            if name.startswith(EXACT_PREFIXES) and a != b:
                verdict = "NOT EXACT"
            if verdict != "ok":
                ok = False
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f  %s" % (
                name, med_a, q1, q3, spread, shift, bound, verdict))
            if not name.startswith(EXACT_PREFIXES):
                print("      A: %s\n      B: %s" % (
                    " ".join("%.4g" % v for v in a),
                    " ".join("%.4g" % v for v in b)))
    print("\nself-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record():
    binary = build("elkbench")
    seeds = ",".join(str(s) for s in RECORDED_SEEDS)
    lines = ["# Reference digests the benchmark checks its outputs against.",
             "# Regenerate with: python3 elkbench/run.py --record"]
    for w in WORKLOADS:
        cmd = [str(binary), "--record", "--workload", w, "--seeds", seeds]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines += out.stdout.strip().split("\n")
    body = sorted(set(lines[2:]))
    REFERENCE.write_text("\n".join(lines[:2] + body) + "\n")
    print("wrote %s (%d digests)" % (REFERENCE, len(body)))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--test", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    if args.self_check:
        return self_check(args)
    if args.test:
        return subprocess.run([str(build("elkbench_test"))]).returncode
    if args.record:
        return record()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build("elkbench")
    _, line = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
