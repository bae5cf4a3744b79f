#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 benchmark/run.py --workload fig9_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The harness and the simulator libraries
it links are built with CMake (Release) under $CARGO_TARGET_DIR, default
`.bench_build`; build output goes to stderr. The harness prints every metric
by name with its unit, then one JSON object as the last line of stdout, and
exits non-zero if any output fails verification. See README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the harness; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release", *generator]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "sirius_benchmark",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "sirius_benchmark")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "sirius_benchmark")
    exe = build(build_dir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    # Checkpoint files go to a directory of this process's own, so
    # concurrent runs never share a path.
    scratch = tempfile.mkdtemp(prefix="ckpt-", dir=build_dir)
    try:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
