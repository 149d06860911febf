#!/usr/bin/env python3
"""Build the benchmark suite from source, run one workload, print one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/suite.exe with dune
into .bench_build/, runs the one workload, echoes the suite's report, and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics (the
traced pass) for --trace 1. It exits non-zero, printing no result, when the
repository sources are missing or the build fails, and non-zero after the
result line when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = [
    "sim-treiber",
    "sim-treiber-obs",
    "sim-snark-waitfree",
    "sim-skiplist-read",
    "native-msqueue",
]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    for candidate in sorted(Path.home().glob(".opam/*/bin/dune")):
        return str(candidate)
    fail("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not (ROOT / needed).exists():
            fail(f"{needed} is missing: run from a checkout of the whole repository")
    dune = find_dune()
    # The compilers sit beside dune in an opam switch. The shared dune
    # cache lives outside the checkout: keep every build artefact inside.
    env = dict(os.environ, DUNE_CACHE="disabled",
               PATH=os.pathsep.join([str(Path(dune).parent), os.environ.get("PATH", "")]))
    cmd = [dune, "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
           "--cache=disabled", "perfbench/suite.exe"]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return BUILD_DIR / "default" / "perfbench" / "suite.exe"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    exe = build()
    out = BUILD_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"suite did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    if not out.exists():
        fail(f"suite exited with code {done.returncode} and wrote no results")

    result = json.loads(out.read_text())["workloads"][0]
    metrics = result["per_layer" if args.trace else "end_to_end"]
    # error_rate is reported through "failed"/"attempted" instead: as a
    # metric it would read 0 on every healthy run.
    metrics.pop("error_rate", None)
    correct = result["correct"] and done.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
