"""Tests of run.py's checks: BENCHMARK.json against the benchmark contract and
the driver's metric table, and the reshaping of a driver result.

    python3 perfbench/run.py --selftest     (builds, then runs these too)
    cd perfbench && python3 -m unittest test_run
"""

import copy
import json
import os
import subprocess
import unittest

import run


def spec():
    return run.load_spec()


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"]
                                               for m in s["end_to_end"])}])

    def test_names_and_units_charset(self):
        s = spec()
        for group in ("end_to_end", "per_layer", "workloads"):
            for m in s[group]:
                self.assertRegex(m["name"], run.NAME_RE)
                if "unit" in m:
                    self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_check_names_flags_mismatch(self):
        s = spec()
        listed = {"workloads": [w["name"] for w in s["workloads"]],
                  "end_to_end": s["end_to_end"], "per_layer": s["per_layer"]}
        self.assertEqual(run.check_names(s, listed), [])
        broken = copy.deepcopy(listed)
        broken["per_layer"][0] = {"name": "crypto.renamed", "unit": "us"}
        self.assertTrue(run.check_names(s, broken))
        bad = copy.deepcopy(s)
        bad["per_layer"][0]["name"] = "crypto/slash"
        self.assertTrue(run.check_names(bad, listed))


class DriverTableTest(unittest.TestCase):
    """Every name the driver prints is the one BENCHMARK.json declares."""

    def test_driver_lists_benchmark_json(self):
        driver = os.path.join(run.build_dir(), "perfbench_driver")
        if not os.path.exists(driver):
            self.skipTest("driver not built; run.py --selftest builds it")
        listed = json.loads(subprocess.run(
            [driver, "--list-metrics"], check=True, stdout=subprocess.PIPE,
            text=True).stdout)
        self.assertEqual(run.check_names(spec(), listed), [])


class ReshapeTest(unittest.TestCase):
    def result(self, group):
        return {"correct": True, "attempted": 12, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in spec()[group]}}

    def test_end_to_end_line(self):
        final = run.reshape(self.result("end_to_end"), spec(), trace=False)
        self.assertEqual(list(final),
                         ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(final["metrics"]),
                         [m["name"] for m in spec()["end_to_end"]])

    def test_per_layer_line(self):
        final = run.reshape(self.result("per_layer"), spec(), trace=True)
        self.assertEqual(len(final["metrics"]), len(spec()["per_layer"]))

    def test_wrong_group_or_unit_rejected(self):
        with self.assertRaises(ValueError):
            run.reshape(self.result("per_layer"), spec(), trace=False)
        result = self.result("end_to_end")
        result["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.reshape(result, spec(), trace=False)


if __name__ == "__main__":
    unittest.main()
