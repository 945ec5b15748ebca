#!/usr/bin/env python3
"""Pipeline benchmark for the gpar library: builds gpar_pipeline, runs one workload.

    python3 perfbench/run.py --workload {mine,serve,churn} --seed N \\
        --seconds S --trace {0,1}

Everything it builds or writes stays under <repo root>/.bench_build/perfbench:
the first run configures and builds the library and gpar_pipeline with CMake,
later runs rebuild only what changed. gpar_pipeline's JSON result is the last
line of stdout; build logs and its summary go to stderr. Exits
non-zero without printing a result when the sources are missing, the build
or gpar_pipeline fails, or the result does not carry exactly the metrics
BENCHMARK.json declares; exits 1 after printing a result whose outputs were
wrong or whose operations failed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("mine", "serve", "churn")
# Head room past --seconds for the set-ups and the end-of-run checks.
SETUP_AND_CHECK_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def step(cmd, env):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no gpar sources (CMakeLists.txt and src/) in {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake is not on PATH")
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step([cmake, "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release", *generator], env)
    # At most two compile jobs keep the build's memory small.
    jobs = min(len(os.sched_getaffinity(0)), 2)
    step([cmake, "--build", str(BUILD), "--target", "gpar_pipeline",
          "-j", str(jobs)], env)
    return BUILD / "gpar_pipeline"


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    if not trace:
        unmeasured = [n for n, m in result["metrics"].items()
                      if m["value"] <= 0]
        if unmeasured:
            fail(f"end-to-end metrics without a measurement: {unmeasured}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = build()
    workdir = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    timeout = args.seconds + SETUP_AND_CHECK_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"gpar_pipeline ran past {timeout:g}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"gpar_pipeline exited with code {done.returncode}")
    result = json.loads(lines[-1])
    check(result, args.trace == 1)
    print(lines[-1], flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
