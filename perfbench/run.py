#!/usr/bin/env python3
"""Build and run the service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload road-p2p --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source into .bench_build (the
first run configures and compiles; later runs only re-check), then runs
one workload. The benchmark's report goes to stdout; its last line is the
JSON result. Build output goes to stderr. The exit code is the
benchmark's: non-zero on a build failure, a wrong answer or a Theorem 3.2
violation.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("road-p2p", "sssp-full", "road-churn")
# Environment per workload. road-p2p runs the engine on one worker (see
# perfbench/src/road_p2p.cpp); OMP_NUM_THREADS must be set before the
# OpenMP runtime starts, so it is set for the whole process.
WORKLOAD_ENV = {"road-p2p": {"OMP_NUM_THREADS": "1", "RS_THREADS": "1"}}


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    env = dict(os.environ, **WORKLOAD_ENV.get(args.workload, {}))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
