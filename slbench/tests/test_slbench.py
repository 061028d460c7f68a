"""Tests of the benchmark itself: strict CLI, repeatable exact counters,
and complete metric output.

    python3 slbench/tests/test_slbench.py      # from the repository root

Builds the benchmark first (same build directory as slbench/run.py).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

WORKLOADS = ["serve-read", "churn-write", "mega-burst"]


class BenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.binary = run.build()

    def bench(self, *args):
        return subprocess.run([self.binary, *args], capture_output=True,
                              text=True, timeout=120)

    def small(self, workload, seed, trace="0"):
        p = self.bench("--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", trace, "--size", "small")
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        fingerprint = [l for l in lines if l.startswith("fingerprint ")]
        self.assertEqual(len(fingerprint), 1, p.stdout)
        return json.loads(fingerprint[0][len("fingerprint "):]), json.loads(lines[-1])


class CliTest(BenchTest):
    GOOD = ["--workload", "serve-read", "--seed", "1", "--seconds", "1",
            "--trace", "0"]

    def with_value(self, flag, value):
        args = list(self.GOOD)
        args[args.index(flag) + 1] = value
        return args

    def assert_usage_error(self, args):
        p = self.bench(*args)
        self.assertEqual(p.returncode, 2, (args, p.stdout, p.stderr))
        self.assertIn("usage:", p.stderr)
        self.assertEqual(p.stdout, "")

    def test_rejects_bad_numbers(self):
        for flag, value in [
                ("--seed", "-1"), ("--seed", "abc"), ("--seed", "1.5"),
                ("--seed", ""), ("--seed", " 1"), ("--seed", "+1"),
                ("--seed", "18446744073709551616"),
                ("--seconds", "0"), ("--seconds", "-5"), ("--seconds", "3601"),
                ("--seconds", "99999999999999999999999"), ("--seconds", "1x"),
                ("--trace", "2"), ("--trace", "yes")]:
            with self.subTest(flag=flag, value=value):
                self.assert_usage_error(self.with_value(flag, value))

    def test_rejects_unknown_workload_and_flags(self):
        self.assert_usage_error(self.with_value("--workload", "serve_read"))
        self.assert_usage_error(self.GOOD + ["--readers", "3"])
        self.assert_usage_error(self.GOOD + ["--seed", "2"])  # repeated
        self.assert_usage_error(self.GOOD + ["--size"])  # missing value
        self.assert_usage_error(self.GOOD[:-2])  # --trace missing
        self.assert_usage_error([])

    def test_accepts_largest_seed(self):
        p = self.bench(*self.with_value("--seed", "18446744073709551615"),
                       "--size", "small")
        self.assertEqual(p.returncode, 0, p.stderr)


class FingerprintTest(BenchTest):
    def test_exact_counters_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, result = self.small(workload, 7)
                second, _ = self.small(workload, 7)
                self.assertEqual(first, second)
                self.assertTrue(result["correct"])
                self.assertGreater(first["recomputes"], 0)

    def test_seed_changes_inputs(self):
        a, _ = self.small("churn-write", 7)
        b, _ = self.small("churn-write", 8)
        self.assertNotEqual(a["digest"], b["digest"])


class MetricsTest(BenchTest):
    def test_every_declared_metric_is_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in [("0", "end_to_end"), ("1", "per_layer")]:
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result = self.small(workload, 3, trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
