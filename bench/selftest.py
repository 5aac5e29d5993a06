#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

- Every workload, untraced and traced, prints every metric that
  BENCHMARK.json names, with its unit, and passes its own checks.
- Two traced runs of one seed report identical work counters.
- A planted wrong expected value (a Betti total, a recorded digest)
  drives fail_ratio above 0.

Takes about a minute.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"corpus_sweep": 5, "ladder_verify": 1, "cli_mix": 10}
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    """Run bench/run.py in a child process; (result object, stdout)."""
    argv = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "0",
        "--trace", str(trace),
        "--items", str(TINY[workload]),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (workload, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def bench_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError("run.main exited %d" % code)
    return json.loads(out.getvalue().strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_result(self, result, stdout, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))
            line = r"(?m)^%s\s+\S+ %s$" % (re.escape(spec["name"]), re.escape(spec["unit"]))
            self.assertRegex(stdout, line)
        self.assertRegex(stdout, r"(?m)^fail_ratio\s+0\.0+ ratio")

    def test_workloads(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(TINY))
        for name in TINY:
            with self.subTest(workload=name):
                result, stdout = bench(name, 0)
                self.check_result(result, stdout, SPEC["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                first, stdout = bench(name, 1)
                self.check_result(first, stdout, SPEC["per_layer"])
                second, _ = bench(name, 1)
                counts = {
                    k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"
                }
                again = {
                    k: second["metrics"][k]["value"] for k in counts
                }
                self.assertEqual(counts, again)


class PlantedFailures(unittest.TestCase):
    def argv(self, workload, items=None):
        argv = ["--workload", workload, "--seed", "0", "--seconds", "0"]
        if items:
            argv += ["--items", str(items)]
        return argv

    def assert_fails(self, result):
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_wrong_betti_total(self):
        original = workloads.symbol_totals

        def off_by_one(set_sizes):
            totals = original(set_sizes)
            return totals[:-1] + (totals[-1] + 1,)

        workloads.symbol_totals = off_by_one
        try:
            self.assert_fails(bench_in_process(self.argv("cli_mix", 5)))
        finally:
            workloads.symbol_totals = original

    def test_wrong_ladder_digest(self):
        golden = workloads.GOLDEN["ladder_verify"]
        original = golden["K2_7"]
        golden["K2_7"] = "0" * 64
        try:
            self.assert_fails(bench_in_process(self.argv("ladder_verify", 1)))
        finally:
            golden["K2_7"] = original

    def test_wrong_cli_digest(self):
        golden = workloads.GOLDEN["cli_mix"]
        original = golden["0"]
        golden["0"] = "0" * 64
        try:
            self.assert_fails(bench_in_process(self.argv("cli_mix")))
        finally:
            golden["0"] = original


if __name__ == "__main__":
    unittest.main()
