"""The perf ledger's row builder (tools/run_benches.py) turns
google-benchmark JSON into rows of seconds with their spread, runs each
benchmark family apart, and its CPU clock reads a process's threads in
nanoseconds."""
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
from run_benches import cpu_seconds, families, family_filter, gbench_rows  # noqa: E402


def run(name, real_time, unit, rep, items=None):
    b = {"name": name, "run_name": name, "run_type": "iteration", "repetitions": 3,
         "repetition_index": rep, "threads": 1, "iterations": 10,
         "real_time": real_time, "cpu_time": real_time, "time_unit": unit}
    if items is not None:
        b["items_per_second"] = items
    return b


def aggregate(name, stat, real_time, unit):
    return {"name": f"{name}_{stat}", "run_name": name, "run_type": "aggregate",
            "repetitions": 3, "threads": 1, "aggregate_name": stat, "iterations": 3,
            "real_time": real_time, "cpu_time": real_time, "time_unit": unit,
            "items_per_second": 1.0}


DUMP = {
    "context": {"num_cpus": 4, "library_build_type": "debug"},
    "benchmarks": [
        run("BM_FullSite/RR", 12.0, "ms", 0, items=4.0e6),
        run("BM_FullSite/RR", 10.0, "ms", 1, items=5.0e6),
        run("BM_FullSite/RR", 11.0, "ms", 2, items=4.5e6),
        aggregate("BM_FullSite/RR", "mean", 11.0, "ms"),
        aggregate("BM_FullSite/RR", "median", 11.0, "ms"),
        aggregate("BM_FullSite/RR", "stddev", 1.0, "ms"),
        run("BM_SiteConstruction", 700.0, "us", 0),
        run("BM_SiteConstruction", 500.0, "us", 1),
        run("BM_SiteConstruction", 900.0, "us", 2),
        aggregate("BM_SiteConstruction", "cv", 0.2, "us"),
        run("BM_Agg/real_time/threads:4", 300.0, "ns", 0, items=1.0e7),
        run("BM_Agg/real_time/threads:4", 100.0, "ns", 1, items=3.0e7),
        run("BM_Agg/real_time/threads:4", 200.0, "ns", 2, items=2.0e7),
        aggregate("BM_Agg/real_time/threads:4", "median", 200.0, "ns"),
    ],
}


class GbenchRows(unittest.TestCase):
    def setUp(self):
        self.rows = gbench_rows(DUMP)

    def assertRow(self, name, unit, median, low, high):
        r = self.rows[name]
        self.assertEqual(r["unit"], unit)
        self.assertEqual(r["reps"], 3)
        for key, want in (("median", median), ("min", low), ("max", high)):
            self.assertAlmostEqual(r[key], want, delta=want * 1e-12, msg=f"{name} {key}")

    def test_times_are_seconds_whatever_the_time_unit(self):
        self.assertRow("BM_FullSite/RR", "s", 11e-3, 10e-3, 12e-3)
        self.assertRow("BM_SiteConstruction", "s", 700e-6, 500e-6, 900e-6)
        self.assertRow("BM_Agg/real_time/threads:4", "s", 200e-9, 100e-9, 300e-9)

    def test_items_per_second_is_its_own_row(self):
        self.assertRow("BM_FullSite/RR/items_per_second", "1/s", 4.5e6, 4.0e6, 5.0e6)
        self.assertRow("BM_Agg/real_time/threads:4/items_per_second", "1/s", 2e7, 1e7, 3e7)
        self.assertNotIn("BM_SiteConstruction/items_per_second", self.rows)

    def test_aggregate_rows_are_ignored(self):
        self.assertEqual(sorted(self.rows), [
            "BM_Agg/real_time/threads:4", "BM_Agg/real_time/threads:4/items_per_second",
            "BM_FullSite/RR", "BM_FullSite/RR/items_per_second", "BM_SiteConstruction"])

    def test_rows_carry_only_the_schema_fields(self):
        for name, r in self.rows.items():
            self.assertEqual(set(r), {"unit", "median", "min", "max", "reps"}, name)


class Families(unittest.TestCase):
    LISTED = ["BM_ScaleClients/5000/iterations:1/repeats:3/real_time",
              "BM_ScaleClients/50000/iterations:1/repeats:3/real_time",
              "BM_ScaleShards/4/iterations:1/repeats:10/real_time",
              "BM_ScaleClientsSerial/5000/iterations:1",
              "BM_FullSite/DRR2_TTLSK", "BM_FullSite/DRR2_TTLSK_obs",
              "BM_SiteConstruction"]

    def test_a_family_is_the_name_before_the_first_slash(self):
        self.assertEqual(families(self.LISTED), [
            "BM_ScaleClients", "BM_ScaleShards", "BM_ScaleClientsSerial", "BM_FullSite",
            "BM_SiteConstruction"])

    def test_each_filter_selects_its_own_family_only(self):
        selected = {f: [n for n in self.LISTED if re.search(family_filter(f), n)]
                    for f in families(self.LISTED)}
        self.assertEqual(selected, {
            "BM_ScaleClients": self.LISTED[0:2],
            "BM_ScaleShards": [self.LISTED[2]],
            "BM_ScaleClientsSerial": [self.LISTED[3]],
            "BM_FullSite": ["BM_FullSite/DRR2_TTLSK", "BM_FullSite/DRR2_TTLSK_obs"],
            "BM_SiteConstruction": ["BM_SiteConstruction"]})


class CpuSeconds(unittest.TestCase):
    def test_grows_across_a_busy_loop(self):
        before = cpu_seconds(os.getpid())
        self.assertGreater(before, 0.0)
        x = 0
        for i in range(200000):
            x += i * i
        self.assertGreater(x, 0)
        self.assertGreater(cpu_seconds(os.getpid()), before)


if __name__ == "__main__":
    unittest.main()
