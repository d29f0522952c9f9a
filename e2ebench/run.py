#!/usr/bin/env python3
"""Build the end-to-end benchmark, prepare its model cache, run one workload.

    python3 e2ebench/run.py --workload release-cifar-affine --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The build, the zoo model cache and the traces
live under .bench_build/. Build and preparation output goes to stderr, so
the last line on stdout is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CACHE = os.path.join(BUILD, "zoo")
WORKLOADS = ("release-cifar-affine", "serve-mixed")
CACHED_MODELS = ("mnist_tanh_tiny.dnnv", "cifar_relu_tiny.dnnv")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then (re)builds the benchmark binary."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2e_bench")


def prepare(binary):
    """Trains the tiny zoo models when the cache is cold (never timed)."""
    if all(os.path.exists(os.path.join(CACHE, m)) for m in CACHED_MODELS):
        return
    subprocess.run([binary, "--prepare", "--cache", CACHE],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        binary = build()
        prepare(binary)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build or preparation failed: {err}", file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--cache", CACHE, "--workdir", work,
             "--trace-dir", os.path.join(BUILD, "traces")],
            timeout=RUN_TIMEOUT_S, check=False)
        return result.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
