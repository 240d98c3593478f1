"""Tests of the benchmark's own checks (run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

These run in a second and need no build. The end-to-end smoke test of
every workload is `python3 perfbench/run.py --smoke`; set PERFBENCH_SMOKE=1
to run it from here as well (it builds the program on first use).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(metrics):
    return {"metrics": {n: {"value": v, "unit": u, "lo": lo, "hi": hi, "n": 1}
                        for n, (v, u, lo, hi) in metrics.items()}}


class RecordTest(unittest.TestCase):
    def test_complete_record_passes(self):
        r = record({"a_us": (2.0, "us", 1.0, 3.0)})
        self.assertEqual(run.check_record(r, {"a_us": "us"}), [])

    def test_missing_extra_and_wrong_unit(self):
        r = record({"a_us": (2.0, "ms", 1.0, 3.0), "b": (1.0, "s", 1.0, 1.0)})
        problems = run.check_record(r, {"a_us": "us", "c": "s"})
        self.assertIn("missing metric c", problems)
        self.assertIn("unexpected metric b", problems)
        self.assertTrue(any(p.startswith("unit of a_us") for p in problems))

    def test_inverted_interval_is_rejected(self):
        # The reported failure mode: lo above the point, hi below it.
        r = record({"p50": (318.0, "us", 328.0, 310.0)})
        self.assertTrue(any("interval of p50" in p
                            for p in run.check_record(r, {"p50": "us"})))

    def test_non_finite_is_rejected(self):
        r = record({"x": (float("nan"), "us", 0.0, 1.0)})
        self.assertEqual(run.check_record(r, {"x": "us"}), ["non-finite x"])


class DeterminismTest(unittest.TestCase):
    def test_equal_outputs_pass_and_changed_ones_are_named(self):
        a = record({"fix_error_mean_m": (10.04, "m", 10.04, 10.04),
                    "cpu_us_per_fix": (140.0, "us", 139.0, 141.0)})
        b = record({"fix_error_mean_m": (10.04, "m", 10.04, 10.04),
                    "cpu_us_per_fix": (150.0, "us", 149.0, 151.0)})
        self.assertEqual(run.determinism_problems(a, b), [])
        c = record({"fix_error_mean_m": (10.05, "m", 10.05, 10.05)})
        problems = run.determinism_problems(a, c)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("fix_error_mean_m"))


class StandaloneTest(unittest.TestCase):
    def test_fails_fast_without_program_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark.
        with tempfile.TemporaryDirectory() as d:
            subprocess.run(["cp", os.path.join(run.ROOT, "BENCHMARK.json"),
                            d], check=True)
            subprocess.run(["cp", "-r", run.HERE, d], check=True)
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "replay_core", "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run every workload")
class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        done = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                               "--smoke"], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=1800)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(last, {"smoke_failures": 0}, done.stdout)


if __name__ == "__main__":
    unittest.main()
