#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 e2e_bench/test_run.py

Run from the repository root.  Builds and runs the C++ self-tests
(selftest.cc: percentile rule, checks against corrupted histograms,
tracer, JSON writer), checks that a whole run's output parses as the
result object BENCHMARK.json promises, and that the benchmark refuses
a tree holding only BENCHMARK.json and this directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                        or os.path.join(ROOT, ".bench_build"))


def run_bench(cwd, workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2e_bench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def test_cpp_selftests(self):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], check=True,
                           capture_output=True)
        built = subprocess.run(["cmake", "--build", BUILD, "--target",
                                "e2e_selftest"], capture_output=True,
                               text=True)
        if built.returncode != 0:
            self.skipTest("e2e_selftest not built (googletest missing?)")
        subprocess.run([os.path.join(BUILD, "e2e_selftest")], check=True)

    def test_output_parses_with_result_keys(self):
        proc = run_bench(ROOT, "pauli_ablation", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)
        record = json.loads(lines[-2])["record"]
        self.assertEqual(record["pool_size"], min(4, os.cpu_count()))
        self.assertEqual(record["seed"], 5)
        for key in ("git_rev", "hardware_concurrency", "dense_kernel_isa",
                    "frame_kernel_isa"):
            self.assertIn(key, record)

    def test_refuses_tree_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "e2e_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run_bench(tmp, "paper_small", 0, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
