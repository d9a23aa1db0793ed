#!/usr/bin/env python3
"""Smoke tests of the benchmark: a tiny run of each workload.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout.
"""

import json
import os
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, cwd=ROOT):
    """One tiny run: (exit code, stdout lines)."""
    out = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.splitlines()


def digest(lines):
    return next(l.split()[1] for l in lines if l.startswith("digest:"))


class Smoke(unittest.TestCase):

    def check_result(self, lines, metrics):
        result = json.loads(lines[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w)
                self.assertEqual(code, 0)
                self.assertTrue(lines[0].startswith("host: "))
                self.check_result(lines, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    value = json.loads(lines[-1])["metrics"][m["name"]]["value"]
                    self.assertGreater(value, 0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, trace=1)
                self.assertEqual(code, 0)
                self.check_result(lines, SPEC["per_layer"])
                self.assertTrue(any(l.startswith("trace: ") for l in lines))

    def test_seed_reproduces_its_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, first = run(w, seed=5)
                _, again = run(w, seed=5)
                self.assertEqual(digest(first), digest(again))

    def test_other_seed_other_corpus(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = run(w, seed=5)
                _, b = run(w, seed=6)
                self.assertNotEqual(digest(a), digest(b))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(WORKLOADS[0], cwd=d)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
