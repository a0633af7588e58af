#!/usr/bin/env python3
"""End-to-end benchmark runner for hido (see perfbench/README.md).

    python3 perfbench/run.py --workload detect-100k --seed 1 --seconds 15 --trace 0

Builds the hido libraries, `hido-gen` and the `perfbench` binary from source
into .bench_build/, generates the workload's input with
`hido-gen subspace --seed <seed>`, then starts fresh `perfbench` processes
one after another until --seconds have passed (at least three). Each
process runs the workload once; this script reports the median of every
metric over the processes. With --trace 1 it alternates untraced and traced
processes instead and reports the per-layer table of the traced ones.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# name -> (perfbench mode, rows, dims, inputs per run). Dims set how much
# of a run is ingest (60) versus search and cube counting (20); see
# README.md. A run generates about one input per process it will start
# (process i reads input i mod inputs), because Detect's cost varies by
# input as much as by host noise.
WORKLOADS = {
    "detect-100k": ("detect", 100_000, 60, 4),
    "ensemble-100k": ("ensemble", 100_000, 20, 5),
    "serve-50k": ("serve", 50_000, 60, 3),
}

MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150


def fail(message):
    """Exits non-zero without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Configures once, then builds incrementally; logs stay in BUILD_DIR."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed (are the hido sources here?)")
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                          stdout=log, stderr=log).returncode:
            fail(f"build failed; see {log_path}")


def make_inputs(workload, seed, scale):
    """Generates the run's inputs (CSV + .truth) in parallel, reusing the
    copies an earlier run with the same seed made. Input i uses generator
    seed seed * 1000 + i, so runs with neighbouring seeds share no input."""
    _, rows, dims, count = WORKLOADS[workload]
    rows = max(200, int(rows * scale))
    input_root = os.path.join(BUILD_DIR, "inputs")
    run_dir = os.path.join(input_root, f"{workload}-r{rows}-s{seed}")
    paths = [os.path.join(run_dir, f"{i}.csv") for i in range(count)]
    if all(os.path.exists(p + ".truth") for p in paths):
        return paths
    shutil.rmtree(input_root, ignore_errors=True)  # keep one run's inputs
    os.makedirs(run_dir)
    gens = [subprocess.Popen(
                [os.path.join(BUILD_DIR, "hido-gen"), "subspace",
                 "--rows", str(rows), "--dims", str(dims),
                 "--seed", str(seed * 1000 + i), "--out", path],
                stdout=subprocess.DEVNULL)
            for i, path in enumerate(paths)]
    if any([gen.wait() != 0 for gen in gens]):  # wait for every one
        fail("hido-gen failed")
    return paths


def run_process(mode, input_path, work_dir, trace, serve_seconds, corrupt):
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), mode, "--input", input_path,
           "--work-dir", work_dir, "--seconds", f"{serve_seconds:.3f}"]
    if trace:
        cmd.append("--trace")
    if corrupt:
        cmd += ["--corrupt", corrupt]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} process timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{mode} process exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(work_dir, "report.txt"), "rb") as f:
        result["report"] = f.read()
    return result


def work_cost(mode, metrics):
    """Seconds of the span-wrapped work in one process: set-up plus Detect
    (serve: set-up, which holds its fits; its timed slices are fixed)."""
    if mode == "serve":
        return metrics["setup_s"]
    return metrics["setup_s"] + metrics["detect_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py); the benchmark never sets them.
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the input rows by this factor")
    parser.add_argument("--corrupt", choices=("report", "response"),
                        help="damage one output to prove the oracle fails")
    args = parser.parse_args()
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        fail("--seconds must be positive and --scale in (0, 1]")

    end_to_end, per_layer = load_spec()
    build()
    mode = WORKLOADS[args.workload][0]
    inputs = make_inputs(args.workload, args.seed, args.scale)
    # Serve: each process's timed slices take an eighth of --seconds; its
    # set-up, oracle and warm-up take about twice as long.
    serve_seconds = args.seconds / 8

    # Untraced: at least MIN_PROCESSES, and more until --seconds are used
    # up (serve: exactly MIN_PROCESSES). Traced: untraced/traced pairs.
    wanted = 1 if args.trace else MIN_PROCESSES
    work = os.path.join(BUILD_DIR, "work", args.workload)
    runs, pairs = [], []
    start = time.monotonic()
    while True:
        input_path = inputs[len(runs) % len(inputs)]
        plain = run_process(mode, input_path, work + "-plain", False,
                            serve_seconds, args.corrupt)
        runs.append(plain)
        if args.trace:
            traced = run_process(mode, input_path, work + "-traced", True,
                                 serve_seconds, args.corrupt)
            pairs.append((plain, traced))
        if len(runs) >= wanted and (
                mode == "serve" or time.monotonic() - start >= args.seconds):
            break

    attempted = sum(r["attempted"] for r in runs + [t for _, t in pairs])
    failed = sum(r["failed"] for r in runs + [t for _, t in pairs])
    # The traced process must produce the untraced one's report exactly.
    failed += sum(p["report"] != t["report"] for p, t in pairs)

    if args.trace:
        layers = {name: statistics.median(t["layers"][name] for _, t in pairs)
                  for name in per_layer if name != "trace_overhead_frac"}
        layers["trace_overhead_frac"] = statistics.median(
            work_cost(mode, t["metrics"]) / work_cost(mode, p["metrics"]) - 1
            for p, t in pairs)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": statistics.median(
                              r["metrics"][name] for r in runs),
                          "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
