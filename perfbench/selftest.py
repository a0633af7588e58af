#!/usr/bin/env python3
"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at 5% of its input size, untraced and traced, and
checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit, with no failed operation. Then checks that the
oracles catch damage: one corrupted report row (detect and ensemble) and
one corrupted server response (serve) must each count as a failure. Last,
a directory holding only BENCHMARK.json and perfbench/ must make run.py
exit non-zero without a result line. Exits non-zero on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(workload, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--scale", "0.05", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(done, label):
    if done.returncode != 0:
        sys.exit(f"FAIL {label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {label}: result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace, names in expected.items():
            label = f"{workload} --trace {trace}"
            result = result_of(run(workload, "--trace", trace), label)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != names:
                sys.exit(f"FAIL {label}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(names))}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                sys.exit(f"FAIL {label}: non-numeric value")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                sys.exit(f"FAIL {label}: {result['attempted']} attempted, "
                         f"{result['failed']} failed")
            print(f"ok   {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")

    corruptions = {"detect-100k": "report", "ensemble-100k": "report",
                   "serve-50k": "response"}
    for workload, damage in corruptions.items():
        label = f"{workload} --corrupt {damage}"
        result = result_of(run(workload, "--trace", "0", "--corrupt", damage),
                           label)
        if result["correct"] or result["failed"] < 1:
            sys.exit(f"FAIL {label}: the damage went unnoticed")
        print(f"ok   {label}: {result['failed']} failed, as it must")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(workloads[0], "--trace", "0", cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        sys.exit("FAIL bare directory: run.py did not fail cleanly")
    print("ok   bare directory: exit", done.returncode, "and no result line")
    print("selftest passed")


if __name__ == "__main__":
    main()
