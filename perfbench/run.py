#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline-b4 --seed 1 --seconds 30 --trace 0

The binary (perfbench/*.cpp over the libraries in src/) is built in Release
mode under .bench_build/perfbench; the first run builds it, later runs only
check that it is up to date.  Standard output is a few '#' header lines and,
last, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the span and counter tree of the traced pass is also written
to .bench_build/traces/<workload>-seed<seed>.json.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
WORKLOADS = ("offline-b4", "online-b4", "faults-b4")


def build():
    """Configures (once) and builds the binary; returns its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(OUT_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-1 over the sources the binary is built from."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_root = os.path.join(OUT_DIR, "work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(OUT_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    print(f"# commit={commit()} source_sha1={source_digest()}", flush=True)
    # A run repeats a fixed amount of work sized to take --seconds on a quiet
    # host; twice that plus two minutes is the most it may take.
    timeout_s = 2 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
