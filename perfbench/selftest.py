"""Self-tests of the host-cost benchmark (about two minutes).

    python3 perfbench/selftest.py

Not collected by the repository's pytest run: the benchmark lives
outside ``tests/`` and runs whole simulations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Short windows: enough virtual time for every point to complete work.
SHORT_WARMUP_NS = 20_000.0
SHORT_MEASURE_NS = 30_000.0


def short_points(repro, name):
    return [(pname, n, net, drv, SHORT_WARMUP_NS, SHORT_MEASURE_NS)
            for pname, n, net, drv, _w, _m in
            workloads.workload_points(repro, name)]


def digests(repro, name, seed, reference=None):
    records = [workloads.run_point(repro, point, seed, workloads.Spans(),
                                   reference)
               for point in short_points(repro, name)]
    for rec in records:
        if not rec["ok"] and reference is None:
            raise AssertionError("%s failed: %s" % (rec["name"],
                                                    rec["errors"]))
    return records


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=300)


class DigestTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.repro = workloads.import_repro()

    def test_same_seed_same_digests_other_seed_differs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = [r["digest"] for r in digests(self.repro, name, 3)]
                again = [r["digest"] for r in digests(self.repro, name, 3)]
                other = [r["digest"] for r in digests(self.repro, name, 4)]
                self.assertEqual(first, again)
                for a, b in zip(first, other):
                    self.assertNotEqual(a, b)

    def test_reference_mismatch_fails_the_point(self):
        name = "incast_congested"
        good = digests(self.repro, name, 3)
        reference = {r["name"]: r["outputs"] for r in good}
        self.assertTrue(all(r["reference"] == "match" for r in
                            digests(self.repro, name, 3, reference)))
        bad = json.loads(json.dumps(reference))
        bad[good[0]["name"]]["ops"] += 1
        records = digests(self.repro, name, 3, bad)
        self.assertFalse(records[0]["ok"])
        self.assertEqual(records[0]["reference"], "mismatch")
        self.assertTrue(records[1]["ok"])

    def test_stored_reference_covers_every_workload(self):
        with open(workloads.REFERENCE_FILE) as fh:
            table = json.load(fh)
        self.assertEqual(sorted(table), sorted(workloads.WORKLOADS))
        for name, seeds in table.items():
            points = [p[0] for p in workloads.workload_points(self.repro,
                                                              name)]
            for seed, outputs in seeds.items():
                self.assertEqual(sorted(outputs), sorted(points),
                                 "%s seed %s" % (name, seed))


class CommandTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def check_metrics(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            # The human-readable table names every metric with its unit.
            self.assertTrue(any(line.split()[:1] == [name]
                                and line.split()[-1] == unit
                                for line in lines[:-1]), name)
        return result

    def test_every_end_to_end_metric_printed_with_unit(self):
        proc = run_bench("--workload", "incast_congested", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
        result = self.check_metrics(proc, self.spec["end_to_end"])
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)
        self.assertIn("failed_frac", proc.stdout)

    def test_every_per_layer_metric_printed_with_unit(self):
        proc = run_bench("--workload", "incast_congested", "--seed", "0",
                         "--seconds", "1", "--trace", "1")
        self.check_metrics(proc, self.spec["per_layer"])
        trace = os.path.join(HERE, "out", "incast_congested-seed0.trace.json")
        with open(trace) as fh:
            self.assertTrue(json.load(fh)["spans"])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = run_bench("--workload", "flock_shared_qp", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
