#!/usr/bin/env python3
"""tools/bench_compare.py against fixture runs, without Google Benchmark.

Each case builds a scratch build directory whose `bench_*` executables are
shell scripts printing a fixture JSON from tests/inputs/bench_compare/,
and a scratch baselines directory, then checks the exit status and what
is left in the baselines.

Run: python3 tests/bench_compare_test.py (from any directory).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")
FIXTURES = os.path.join(ROOT, "tests", "inputs", "bench_compare")


def fixture(name):
    return os.path.join(FIXTURES, name)


class BenchCompare(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench-compare-")
        self.build = os.path.join(self.dir, "build")
        self.baselines = os.path.join(self.dir, "baselines")
        os.makedirs(self.build)
        os.makedirs(self.baselines)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def binary(self, name, prints):
        """A fake bench binary that prints fixture \\p prints."""
        path = os.path.join(self.build, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#!/bin/sh\ncat '{fixture(prints)}'\n")
        os.chmod(path, 0o755)

    def baseline(self, name, content):
        shutil.copy(fixture(content), os.path.join(self.baselines, name))

    def run_tool(self, *extra):
        proc = subprocess.run(
            [sys.executable, TOOL, self.build, "--baselines", self.baselines,
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    def read_baseline(self, name):
        with open(os.path.join(self.baselines, name), encoding="utf-8") as fh:
            return fh.read()

    def test_slowdown_inside_tolerance_passes(self):
        self.binary("bench_x", "within.json")
        self.baseline("BENCH_x.json", "base.json")
        code, out = self.run_tool()
        self.assertEqual(code, 0, out)
        self.assertIn("BM_A", out)

    def test_slowdown_beyond_tolerance_fails(self):
        self.binary("bench_x", "slower.json")
        self.baseline("BENCH_x.json", "base.json")
        code, out = self.run_tool()
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)
        # A looser tolerance admits the same run.
        code, out = self.run_tool("--tolerance", "2.5")
        self.assertEqual(code, 0, out)

    def test_row_missing_on_either_side_fails(self):
        self.binary("bench_x", "missing_row.json")
        self.baseline("BENCH_x.json", "base.json")
        code, out = self.run_tool()
        self.assertEqual(code, 1, out)
        self.assertIn("only in baseline", out)

        self.binary("bench_x", "base.json")
        self.baseline("BENCH_x.json", "missing_row.json")
        code, out = self.run_tool()
        self.assertEqual(code, 1, out)
        self.assertIn("only in fresh run", out)

    def test_binary_or_baseline_alone_fails(self):
        self.binary("bench_x", "base.json")
        self.baseline("BENCH_x.json", "base.json")
        self.binary("bench_y", "base.json")
        code, out = self.run_tool()
        self.assertEqual(code, 1, out)
        self.assertIn("no baseline", out)

        os.remove(os.path.join(self.build, "bench_y"))
        self.baseline("BENCH_z.json", "base.json")
        code, out = self.run_tool()
        self.assertEqual(code, 1, out)
        self.assertIn("BENCH_z.json: no binary", out)

    def test_update_rewrites_every_baseline(self):
        self.binary("bench_x", "slower.json")
        self.binary("bench_y", "within.json")
        self.baseline("BENCH_x.json", "base.json")
        self.baseline("BENCH_z.json", "base.json")
        code, out = self.run_tool("--update")
        self.assertEqual(code, 0, out)
        with open(fixture("slower.json"), encoding="utf-8") as fh:
            self.assertEqual(self.read_baseline("BENCH_x.json"), fh.read())
        with open(fixture("within.json"), encoding="utf-8") as fh:
            self.assertEqual(self.read_baseline("BENCH_y.json"), fh.read())
        self.assertEqual(sorted(os.listdir(self.baselines)),
                         ["BENCH_x.json", "BENCH_y.json"])
        code, out = self.run_tool()
        self.assertEqual(code, 0, out)

    def refused(self, *fresh):
        """--update over bench_0.. printing \\p fresh must exit 2 and leave
        every baseline as it was."""
        for i, name in enumerate(fresh):
            self.binary(f"bench_{i}", name)
            self.baseline(f"BENCH_{i}.json", "base.json")
        code, out = self.run_tool("--update")
        self.assertEqual(code, 2, out)
        with open(fixture("base.json"), encoding="utf-8") as fh:
            base = fh.read()
        for i in range(len(fresh)):
            self.assertEqual(self.read_baseline(f"BENCH_{i}.json"), base)
        return out

    def test_update_refuses_an_empty_run(self):
        out = self.refused("within.json", "empty.json")
        self.assertIn("no comparable benchmarks", out)

    def test_update_refuses_mixed_cpu_counts(self):
        out = self.refused("within.json", "other_cpus.json")
        self.assertIn("num_cpus", out)

    def test_update_refuses_mixed_dates(self):
        out = self.refused("within.json", "other_date.json")
        self.assertIn("date", out)


if __name__ == "__main__":
    unittest.main()
