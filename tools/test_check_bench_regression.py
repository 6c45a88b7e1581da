#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py.

Runs the checker as a subprocess (the same way ctest and CI invoke it) and
asserts on exit codes and diagnostics: a missing or malformed input file is
a clean usage error (exit 2, no traceback), a field mismatch or an extra
key is a regression (exit 1), --allow-subset skips absent rows but still
checks the rows that are present, and rows whose ID keys repeat are
compared by position.

Registered as the `tooling`-labeled ctest (see the top-level
CMakeLists.txt): ctest -L tooling.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")

BASELINE = {
    "bench": "shard",
    "rows": [
        {"requests": 100, "profit": 10.5, "accepted": 42, "wall_ms": 12.0},
        {"requests": 200, "profit": 21.25, "accepted": 77, "wall_ms": 30.0},
    ],
}

# A per-batch trace: rows share their ID key, so only their position
# identifies them.
DUPLICATE_KEYS = {
    "bench": "online",
    "per_batch": [
        {"arrivals": 1, "iterations": 16},
        {"arrivals": 1, "iterations": 9},
        {"arrivals": 1, "iterations": 14},
    ],
}


def run_checker(*args):
    return subprocess.run([sys.executable, CHECKER, *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def test_identical_files_pass(self):
        baseline = self.write("baseline.json", BASELINE)
        current = self.write("current.json", BASELINE)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("OK", run.stdout)

    def test_missing_baseline_file_is_clean_usage_error(self):
        current = self.write("current.json", BASELINE)
        missing = os.path.join(self.dir.name, "no_such_baseline.json")
        run = run_checker("--baseline", missing, "--current", current)
        self.assertEqual(run.returncode, 2)
        self.assertIn("cannot read baseline file", run.stderr)
        self.assertNotIn("Traceback", run.stderr)

    def test_missing_current_file_is_clean_usage_error(self):
        baseline = self.write("baseline.json", BASELINE)
        missing = os.path.join(self.dir.name, "no_such_current.json")
        run = run_checker("--baseline", baseline, "--current", missing)
        self.assertEqual(run.returncode, 2)
        self.assertIn("cannot read current file", run.stderr)
        self.assertNotIn("Traceback", run.stderr)

    def test_malformed_json_is_clean_usage_error(self):
        baseline = self.write("baseline.json", "{not json")
        current = self.write("current.json", BASELINE)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 2)
        self.assertIn("not valid JSON", run.stderr)
        self.assertNotIn("Traceback", run.stderr)

    def test_extra_key_in_current_fails(self):
        baseline = self.write("baseline.json", BASELINE)
        mutated = json.loads(json.dumps(BASELINE))
        mutated["surprise"] = 1
        current = self.write("current.json", mutated)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 1)
        self.assertIn("not present in the baseline", run.stderr)

    def test_deterministic_field_mismatch_fails(self):
        baseline = self.write("baseline.json", BASELINE)
        mutated = json.loads(json.dumps(BASELINE))
        mutated["rows"][0]["profit"] = 10.6
        current = self.write("current.json", mutated)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 1)
        self.assertIn("REGRESSION", run.stderr)
        self.assertIn("profit", run.stderr)

    def test_timing_fields_are_only_sanity_checked(self):
        baseline = self.write("baseline.json", BASELINE)
        mutated = json.loads(json.dumps(BASELINE))
        mutated["rows"][0]["wall_ms"] = 999.0  # machine-dependent: tolerated
        current = self.write("current.json", mutated)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_missing_row_fails_without_allow_subset(self):
        baseline = self.write("baseline.json", BASELINE)
        subset = json.loads(json.dumps(BASELINE))
        del subset["rows"][1]
        current = self.write("current.json", subset)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 1)
        self.assertIn("row missing from current run", run.stderr)

    def test_allow_subset_skips_missing_rows_but_checks_present_ones(self):
        baseline = self.write("baseline.json", BASELINE)
        subset = json.loads(json.dumps(BASELINE))
        del subset["rows"][1]
        current = self.write("current.json", subset)
        run = run_checker("--baseline", baseline, "--current", current,
                          "--allow-subset")
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("1 baseline rows skipped", run.stdout)

        # A mismatch in a row the subset DID produce still fails.
        subset["rows"][0]["accepted"] = 43
        current = self.write("current2.json", subset)
        run = run_checker("--baseline", baseline, "--current", current,
                          "--allow-subset")
        self.assertEqual(run.returncode, 1)
        self.assertIn("accepted", run.stderr)

    def test_rows_join_on_id_keys_not_position(self):
        baseline = self.write("baseline.json", BASELINE)
        reordered = json.loads(json.dumps(BASELINE))
        reordered["rows"].reverse()
        current = self.write("current.json", reordered)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_duplicate_row_keys_self_compare_checks_every_row(self):
        # Every trace row repeats its ID key (arrivals=1): a keyed join would
        # collapse them into one row and report the rest as missing.
        baseline = self.write("baseline.json", DUPLICATE_KEYS)
        current = self.write("current.json", DUPLICATE_KEYS)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 0, run.stderr)
        self.assertIn("(7 fields checked)", run.stdout)

    def test_drifted_duplicate_key_row_fails(self):
        baseline = self.write("baseline.json", DUPLICATE_KEYS)
        mutated = json.loads(json.dumps(DUPLICATE_KEYS))
        mutated["per_batch"][1]["iterations"] = 10
        current = self.write("current.json", mutated)
        run = run_checker("--baseline", baseline, "--current", current)
        self.assertEqual(run.returncode, 1)
        self.assertIn("$.per_batch[1].iterations", run.stderr)

    def test_requires_exactly_one_input_source(self):
        baseline = self.write("baseline.json", BASELINE)
        run = run_checker("--baseline", baseline)
        self.assertEqual(run.returncode, 2)
        self.assertIn("exactly one of --current / --bench", run.stderr)


if __name__ == "__main__":
    unittest.main()
