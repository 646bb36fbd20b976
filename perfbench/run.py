#!/usr/bin/env python3
"""Build the real-clock benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and passes its output through: the last line is one JSON
object with the keys correct, attempted, failed and metrics. With
--workload all it runs every workload in turn and prints a table of every
metric, plus the lazy/naive step_s_p50 ratio (reported, not gated).

The build uses dune at the root of the checkout this script sits in. It
exits non-zero, without printing a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["train-resnet-naive", "train-resnet-lazy", "infer-lenet-lazy"]
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def build():
    # dune's shared cache lives outside the checkout; keep the build inside.
    done = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/main.exe"],
        stdout=sys.stderr,
        cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run(workload, seed, seconds, trace):
    """Run one workload; return its stdout lines, or exit on failure."""
    try:
        done = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} failed with exit code {done.returncode}")
    json.loads(lines[-1])
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    if a.workload != "all":
        print("\n".join(run(a.workload, a.seed, a.seconds, a.trace)))
        return
    results = {}
    for w in WORKLOADS:
        lines = run(w, a.seed, a.seconds, a.trace)
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
    if a.trace == 0:
        naive = results["train-resnet-naive"]["metrics"]["step_s_p50"]["value"]
        lazy = results["train-resnet-lazy"]["metrics"]["step_s_p50"]["value"]
        print(f"lazy/naive step_s_p50 ratio (train-resnet): {lazy / naive:.4f}")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
