#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny size.

    python3 perfbench/test_perfbench.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each finite and with the declared unit; that every output check
passed; that the traced run's self times account for its traced wall time;
and that the metrics run.py declares exact repeat bit-for-bit across two
runs with one seed. It also checks that the benchmark refuses to run, with
no result line, when the library sources are absent.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def bench(workload, trace, seed=7, root=ROOT):
    """Runs one tiny workload; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


def result(workload, trace, seed=7):
    code, lines = bench(workload, trace, seed)
    assert code == 0 and lines, "%s trace=%d exited %d" % (workload, trace,
                                                           code)
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, outcome, declared):
        self.assertEqual(set(outcome), {"correct", "attempted", "failed",
                                        "metrics"})
        self.assertTrue(outcome["correct"])
        self.assertGreaterEqual(outcome["attempted"], 1)
        self.assertEqual(outcome["failed"], 0)
        metrics = outcome["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            entry = metrics[m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(entry["value"]), m["name"])

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for workload in names:
            with self.subTest(workload=workload):
                plain = result(workload, 0)
                self.check_metrics(plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"],
                                       0, m["name"])
                traced = result(workload, 1)
                self.check_metrics(traced, SPEC["per_layer"])
                metrics = traced["metrics"]
                self.assertAlmostEqual(
                    metrics["trace.accounted_frac"]["value"], 1.0, places=6)
                self.assertEqual(metrics["failed_frac"]["value"], 0.0)
                self.assertEqual(metrics["seq.bases_copied"]["value"], 0.0)

    def test_exact_counts_repeat(self):
        for workload, exact in run.EXACT.items():
            with self.subTest(workload=workload):
                first = result(workload, 1, seed=3)["metrics"]
                second = result(workload, 1, seed=3)["metrics"]
                for name in exact:
                    self.assertEqual(repr(first[name]["value"]),
                                     repr(second[name]["value"]), name)

    def test_refuses_without_sources(self):
        isolated = os.path.join(run.build_dir(), "selftest-isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pim-fig1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=isolated, capture_output=True, text=True, timeout=180,
            env=env)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
