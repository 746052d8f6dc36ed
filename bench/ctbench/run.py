#!/usr/bin/env python3
"""Builds ctbench from this checkout and runs one benchmark workload.

  python3 bench/ctbench/run.py --workload NAME --seed N --seconds T \
      --trace 0|1 [--save FILE]
  python3 bench/ctbench/run.py --self-check

Run from anywhere inside a source checkout. The first call configures
and builds bench/ctbench (Release) under $CARGO_TARGET_DIR/ctbench,
default .bench_build/ctbench at the repository root; later calls only
rebuild what changed.

A run prints ctbench's tables and then, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a traced run, whose Chrome trace lands
next to the build). setup_s and setup_wall_s are medians over
SETUP_SAMPLES fresh processes. --save writes ctbench's full result file
(quartiles, sample counts, bounds) for bench/ctbench/compare.py.

--self-check builds, runs `ctbench --self-check`, validates its traces
with tools/trace_check.py, and checks that BENCHMARK.json names only
workloads and metrics (with their units) that ctbench produces.

Exit status 0 when every job passed its correctness checks.
"""

import argparse
import fcntl
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ctbench"


def build():
    """Configures (once) and builds ctbench; returns the binary path."""
    if not (ROOT / "src" / "job" / "job.h").is_file():
        fail(f"no repository sources under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Concurrent runs in one checkout share the build: serialize it.
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append([cmake, "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append([cmake, "--build", str(out), "-j", "4"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return out / "ctbench"


def ctbench(binary, args):
    """Runs ctbench; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_workload(args):
    binary = build()
    spec = load_benchmark()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    flags = [f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}"]
    if args.trace:
        trace = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        flags.append(f"--trace={trace}")
    code, lines = ctbench(binary, flags)
    result = last_json(lines)
    if result is None:
        fail(f"ctbench exited {code} without a result")
    for line in lines[:-1]:
        print(line)

    if not args.trace:
        # Cold start is per process: take the median over fresh ones.
        keys = ("setup_s", "setup_wall_s")
        setups = {k: [result["metrics"][k]["value"]] for k in keys}
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = ctbench(binary, [f"--workload={args.workload}",
                                           f"--seed={args.seed}",
                                           "--setup-only"])
            cold = last_json(lines)
            result["attempted"] += 1
            if code != 0 or cold is None or not cold["correct"]:
                result["failed"] += 1
                result["correct"] = False
                result["errors"].append("a --setup-only process failed")
                continue
            for k in keys:
                setups[k].append(cold[k])
        for k in keys:
            result["metrics"][k].update(value=statistics.median(setups[k]),
                                        n=len(setups[k]))

    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(result, f, sort_keys=True)
            f.write("\n")
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    line = {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def self_check():
    binary = build()
    spec = load_benchmark()
    ok = True
    trace_dir = build_dir() / "self-check"
    trace_dir.mkdir(exist_ok=True)
    code, lines = ctbench(binary, ["--self-check", f"--trace-dir={trace_dir}"])
    print("\n".join(lines))
    ok &= code == 0
    traces = [str(trace_dir / f"{w['name']}.json") for w in spec["workloads"]]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "trace_check.py")]
                          + traces, timeout=RUN_TIMEOUT_S)
    ok &= proc.returncode == 0

    for w in spec["workloads"]:
        code, _ = ctbench(binary, [f"--workload={w['name']}", "--setup-only"])
        if code != 0:
            print(f"run.py: workload {w['name']} does not run")
            ok = False
    code, lines = ctbench(binary, ["--workload=plan-k4", "--jobs=5",
                                   f"--trace={build_dir() / 'catalogue.json'}"])
    produced = (last_json(lines) or {}).get("metrics", {})
    for m in spec["end_to_end"] + spec["per_layer"]:
        got = produced.get(m["name"], {}).get("unit")
        if got != m["unit"]:
            print(f"run.py: BENCHMARK.json metric {m['name']} [{m['unit']}] "
                  f"but ctbench reports {got}")
            ok = False
    print(f"run.py self-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2017)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write ctbench's full result JSON here")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
