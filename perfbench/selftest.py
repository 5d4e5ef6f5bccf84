"""Self-test of the benchmark: every workload at minimal length.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the metrics the code emits,
that each workload prints every end-to-end and per-layer metric with its
unit and passes the oracle, that call counts repeat exactly between two
traced runs with one seed, and that a corrupted output makes fail_ratio
non-zero on every workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import metrics
import run
from workloads import Campaign, Context, Files, Tensor

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


class Declared(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        # campaign runs on request only; see README.md.
        self.assertEqual([w["name"] for w in spec["workloads"]], ["files", "tensor"])
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, metrics.PER_LAYER)


class Workloads(unittest.TestCase):
    def check_result(self, line, names):
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual({k: m["unit"] for k, m in line["metrics"].items()}, names)

    def run_workload(self, name):
        report, line = bench(name, 0)
        self.check_result(line, {k: v[0] for k, v in metrics.END_TO_END.items()})
        for m in line["metrics"].values():
            self.assertGreater(m["value"], 0)
        text = "\n".join(report)
        self.assertIn("latency_tail_s", text)
        self.assertIn("fail_ratio = 0 ", text)
        self.assertIn('"git_commit"', text)

        first = bench(name, 1)[1]
        second = bench(name, 1)[1]
        self.check_result(first, metrics.PER_LAYER)
        self.assertIn("trace.overhead_pct", first["metrics"])
        for key, m in first["metrics"].items():
            if key.startswith(("linalg.", "frames.")) and key.endswith(".calls"):
                self.assertEqual(m["value"], second["metrics"][key]["value"], key)

    def test_campaign(self):
        self.run_workload("campaign")

    def test_files(self):
        self.run_workload("files")

    def test_tensor(self):
        self.run_workload("tensor")


class Corrupted(unittest.TestCase):
    """A perturbed output handed to the oracle must count as a failure."""

    def fail_ratio(self, workload):
        work = ROOT / ".perfbench" / f"selftest-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            args = argparse.Namespace(seed=7, seconds=0, trace=0)
            result = run.run(args, Context(ROOT, 7, work), workload)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertFalse(result["line"]["correct"])
        return result["fail_ratio"]

    def test_perturbed_tensor_bound(self):
        class Perturbed(Tensor):
            @staticmethod
            def _pipeline(ff, case):
                bounds, *rest = Tensor._pipeline(ff, case)
                bounds = dataclasses.replace(bounds, lower=bounds.lower * (1 + 1e-6))
                return (bounds, *rest)

        self.assertGreater(self.fail_ratio(Perturbed()), 0)

    def test_perturbed_check_bound(self):
        class Perturbed(Files):
            def _check(self, ctx, data, proc):
                summary = json.loads(proc.stdout)
                summary["upper"] *= 1 + 1e-6
                proc = dataclasses.replace(proc, stdout=json.dumps(summary).encode())
                return Files._check(self, ctx, data, proc)

        self.assertGreater(self.fail_ratio(Perturbed()), 0)

    def test_altered_verify_report(self):
        class Altered(Campaign):
            def cycle(self, ctx, data, tracer, index):
                ops = Campaign.cycle(self, ctx, data, tracer, index)
                ops[0].output = ops[0].output.replace(b'"passes": 25', b'"passes": 25 ', 1)
                return ops

        self.assertGreater(self.fail_ratio(Altered()), 0)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    unittest.main()
