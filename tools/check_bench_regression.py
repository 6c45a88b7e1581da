#!/usr/bin/env python3
"""Compare a bench baseline JSON against a freshly generated one.

The bench drivers (bench_online_admission, bench_fault_tolerance, ...) emit
machine-readable baselines with --baseline-json; the blessed copies live in
bench/*_baseline.json.  This checker re-runs a bench (or takes a
pre-generated file) and verifies that every DETERMINISTIC field still
matches the blessed baseline:

  * timing fields (wall_ms, anything *_ms) are machine-dependent and
    only sanity-checked: finite, and strictly positive where the baseline
    is positive;
  * every other number must match within a tight relative tolerance
    (default 1e-9 — the values are deterministic, the tolerance only
    absorbs printf round-tripping);
  * strings/bools must match exactly.

Google Benchmark JSON (bench_lp_solver --baseline-json, which writes
--benchmark_out) is recognised by its top-level `context` and `benchmarks`
keys.  The `context` object describes the host and is skipped; in each
run, `real_time`, `cpu_time` and `iterations` (the timing loop count) are
timing fields, and `family_index` is ignored, because a
--benchmark_filter run renumbers it.  The counters (simplex_iters,
factorizations, profit, ...) must match like any deterministic field.

Arrays of objects are joined on their identifying keys (requests, rate,
batch_size, ...) rather than by position, so reordering is not a diff; an
array whose rows do not have unique keys is compared by position instead.
With --allow-subset the current run may cover only some of the baseline's
rows (e.g. the --benchmark_filter slice of bench_lp_solver in CI) — extra
baseline rows are then skipped, but every row the current run DID produce
must still match.

Usage (standalone, from the repo root):

  # compare a pre-generated file
  tools/check_bench_regression.py \
      --baseline bench/online_admission_baseline.json \
      --current /tmp/online_admission_now.json

  # or let the checker drive the bench itself
  tools/check_bench_regression.py \
      --baseline bench/online_admission_baseline.json \
      --bench build/bench/bench_online_admission

Registered as the `bench`-labeled ctest (see the top-level CMakeLists.txt);
documented in docs/TUNING.md.
"""

import argparse
import json
import math
import shlex
import subprocess
import sys
import tempfile

# Keys that identify a row inside an array of objects, in priority order.
ID_KEYS = ("requests", "rate", "batch_size", "arrivals", "name")

# Fields whose values depend on the machine and load, not the algorithm.
TIMING_SUFFIXES = ("_ms", "_seconds", "_sec")
TIMING_KEYS = {"wall_ms", "threads"}


# Google Benchmark runs: the timing loop's count and times, and the family
# number a filtered run assigns afresh.
GBENCH_TIMING_KEYS = {"real_time", "cpu_time", "iterations"}
GBENCH_IGNORED_KEYS = {"family_index"}


def is_timing_key(key: str) -> bool:
    return key in TIMING_KEYS or key.endswith(TIMING_SUFFIXES)


def is_gbench(doc) -> bool:
    return isinstance(doc, dict) and "context" in doc and "benchmarks" in doc


def row_key(obj: dict):
    return tuple((k, obj[k]) for k in ID_KEYS if k in obj)


def unique_row_keys(rows: list) -> bool:
    """True when every row is an object with a non-empty ID key and no two
    rows share one: only then can rows be joined by key."""
    keys = [row_key(x) if isinstance(x, dict) else () for x in rows]
    return all(keys) and len(set(keys)) == len(keys)


class Comparator:
    def __init__(self, rel_tol: float, allow_subset: bool, gbench: bool):
        self.rel_tol = rel_tol
        self.allow_subset = allow_subset
        self.timing_keys = GBENCH_TIMING_KEYS if gbench else set()
        self.ignored_keys = GBENCH_IGNORED_KEYS if gbench else set()
        self.errors = []
        self.checked = 0
        self.skipped_rows = 0

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def compare(self, path: str, baseline, current) -> None:
        if isinstance(baseline, dict) and isinstance(current, dict):
            self.compare_dict(path, baseline, current)
        elif isinstance(baseline, list) and isinstance(current, list):
            self.compare_list(path, baseline, current)
        elif isinstance(baseline, bool) or isinstance(current, bool):
            # bool is an int subclass: handle before the numeric branch.
            self.checked += 1
            if baseline is not current:
                self.fail(path, f"expected {baseline}, got {current}")
        elif isinstance(baseline, (int, float)) and isinstance(current, (int, float)):
            self.compare_number(path, float(baseline), float(current))
        else:
            self.checked += 1
            if baseline != current:
                self.fail(path, f"expected {baseline!r}, got {current!r}")

    def compare_number(self, path: str, baseline: float, current: float) -> None:
        key = path.rsplit(".", 1)[-1]
        if key in self.ignored_keys:
            return
        self.checked += 1
        if is_timing_key(key) or key in self.timing_keys:
            if not math.isfinite(current) or (baseline > 0 and current <= 0):
                self.fail(path, f"timing value {current} fails the sanity check")
            return
        if not math.isclose(baseline, current, rel_tol=self.rel_tol, abs_tol=self.rel_tol):
            self.fail(path, f"expected {baseline!r}, got {current!r}")

    def compare_dict(self, path: str, baseline: dict, current: dict) -> None:
        for key, base_value in baseline.items():
            if key not in current:
                self.fail(f"{path}.{key}", "missing from current run")
                continue
            self.compare(f"{path}.{key}", base_value, current[key])
        for key in current:
            if key not in baseline:
                self.fail(f"{path}.{key}", "not present in the baseline "
                          "(regenerate the blessed file to add fields)")

    def compare_list(self, path: str, baseline: list, current: list) -> None:
        keyed = (baseline and current
                 and unique_row_keys(baseline) and unique_row_keys(current))
        if not keyed:
            # Positional comparison: scalar arrays, and traces whose rows
            # repeat their ID keys (every per_batch row of a batch-1 replay
            # has arrivals=1), which a keyed join would collapse into one.
            if len(baseline) != len(current):
                self.fail(path, f"length {len(baseline)} vs {len(current)}")
                return
            for i, (b, c) in enumerate(zip(baseline, current)):
                self.compare(f"{path}[{i}]", b, c)
            return
        current_by_key = {row_key(x): x for x in current}
        for row in baseline:
            key = row_key(row)
            label = ",".join(f"{k}={v}" for k, v in key)
            if key not in current_by_key:
                if self.allow_subset:
                    self.skipped_rows += 1
                    continue
                self.fail(f"{path}[{label}]", "row missing from current run "
                          "(use --allow-subset for partial sweeps)")
                continue
            self.compare(f"{path}[{label}]", row, current_by_key.pop(key))
        for key in current_by_key:
            label = ",".join(f"{k}={v}" for k, v in key)
            self.fail(f"{path}[{label}]", "row not present in the baseline")


def load_json(path: str, role: str):
    """Reads one input; a missing or malformed file is a usage error (a
    clean diagnostic and exit code 2), never a traceback."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.stderr.write(
            f"check_bench_regression: cannot read {role} file: {e}\n")
    except json.JSONDecodeError as e:
        sys.stderr.write(
            f"check_bench_regression: {role} file {path} is not valid "
            f"JSON: {e}\n")
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="blessed baseline JSON (bench/*_baseline.json)")
    parser.add_argument("--current",
                        help="pre-generated JSON from the same bench")
    parser.add_argument("--bench",
                        help="bench binary to run (writes --current itself)")
    parser.add_argument("--bench-args", default="",
                        help="extra flags for --bench, one shell-quoted string")
    parser.add_argument("--allow-subset", action="store_true",
                        help="current may cover only some baseline rows")
    parser.add_argument("--rel-tol", type=float, default=1e-9,
                        help="relative tolerance for deterministic numbers")
    args = parser.parse_args()
    if bool(args.current) == bool(args.bench):
        parser.error("exactly one of --current / --bench is required")

    current_path = args.current
    if args.bench:
        current_path = tempfile.mktemp(suffix=".json", prefix="bench_current_")
        cmd = [args.bench, *shlex.split(args.bench_args),
               "--baseline-json", current_path]
        print("running:", " ".join(cmd), flush=True)
        run = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            sys.stderr.write(f"bench exited with {run.returncode}\n")
            return 1

    baseline = load_json(args.baseline, "baseline")
    if baseline is None:
        return 2
    current = load_json(current_path, "current")
    if current is None:
        return 2

    gbench = is_gbench(baseline)
    if gbench:
        baseline.pop("context")
        if isinstance(current, dict):
            current.pop("context", None)
    comparator = Comparator(args.rel_tol, args.allow_subset, gbench)
    comparator.compare("$", baseline, current)
    for error in comparator.errors:
        sys.stderr.write(f"REGRESSION: {error}\n")
    if comparator.errors:
        sys.stderr.write(f"check_bench_regression: FAILED "
                         f"({len(comparator.errors)} mismatches, "
                         f"{comparator.checked} fields checked)\n")
        return 1
    subset = (f", {comparator.skipped_rows} baseline rows skipped"
              if comparator.skipped_rows else "")
    print(f"check_bench_regression: OK "
          f"({comparator.checked} fields checked{subset})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
