"""Tests of the benchmark's reduction code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import resource
import sys
import unittest
from types import SimpleNamespace

sys.dont_write_bytecode = True
import reduce  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(reduce.nearest_rank(samples, 0.9), 90)
        self.assertEqual(reduce.nearest_rank(samples, 0.5), 50)
        self.assertEqual(reduce.nearest_rank([7.0], 0.9), 7.0)
        self.assertEqual(reduce.nearest_rank([3, 1, 2], 0.9), 3)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(reduce.beyond(100, 0.9), 10)
        self.assertEqual(reduce.beyond(99, 0.9), 9)
        self.assertEqual(reduce.beyond(150, 0.9), 15)
        self.assertTrue(reduce.class_row(list(range(100)))["p90_supported"])
        row = reduce.class_row(list(range(99)))
        self.assertFalse(row["p90_supported"])
        self.assertEqual(row["beyond_p90"], 9)

    def test_class_row(self):
        row = reduce.class_row([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual(row["p50"], 3.0)
        self.assertEqual(row["p90"], 5.0)
        self.assertEqual(row["n"], 5)


class GeometricMean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(reduce.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(reduce.geomean([5.0]), 5.0)
        self.assertAlmostEqual(reduce.geomean(iter([1.0, 10.0, 100.0])), 10.0)

    def test_one_class_doubling_moves_four_class_mean_by_19_percent(self):
        base = reduce.geomean([1.0, 2.0, 3.0, 4.0])
        slow = reduce.geomean([2.0, 2.0, 3.0, 4.0])
        self.assertAlmostEqual(slow / base, 2 ** 0.25)
        self.assertGreater(slow / base, 1.189)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            reduce.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            reduce.geomean([])


class SubWindows(unittest.TestCase):
    def test_rows_per_window(self):
        samples = [(1.0, "a", 2.0), (1.5, "b", 8.0), (2.0, "a", 4.0),
                   (3.0, "a", 3.0), (3.5, "b", 12.0)]
        marks = [(0.0, 0.0), (2.0, 30.0), (4.0, 40.0)]
        rows = reduce.window_rows(samples, marks, ["a", "b"])
        self.assertEqual(len(rows), 2)
        self.assertAlmostEqual(rows[0]["latency_p50_ms"], math.sqrt(3.0 * 8.0))
        self.assertAlmostEqual(rows[0]["latency_p90_ms"], math.sqrt(4.0 * 8.0))
        self.assertAlmostEqual(rows[0]["throughput_ops_s"], 1.5)
        self.assertAlmostEqual(rows[0]["cpu_ms_per_op"], 10.0)
        self.assertAlmostEqual(rows[1]["latency_p50_ms"], 6.0)
        self.assertAlmostEqual(rows[1]["cpu_ms_per_op"], 5.0)

    def test_window_missing_a_class_is_skipped(self):
        samples = [(1.0, "a", 2.0), (3.0, "a", 3.0), (3.5, "b", 12.0)]
        marks = [(0.0, 0.0), (2.0, 1.0), (4.0, 2.0)]
        rows = reduce.window_rows(samples, marks, ["a", "b"])
        self.assertIsNone(rows[0])
        med = reduce.median_of_windows(rows)
        self.assertAlmostEqual(med["latency_p50_ms"], 6.0)
        self.assertIsNone(reduce.median_of_windows([None]))

    def test_median_over_windows(self):
        rows = [{"x": 1.0}, {"x": 100.0}, {"x": 3.0}]
        self.assertEqual(reduce.median_of_windows(rows), {"x": 3.0})


class CpuAccounting(unittest.TestCase):
    def test_rusage_of_a_reaped_child(self):
        ru = SimpleNamespace(ru_utime=0.25, ru_stime=0.0125, ru_maxrss=20480)
        self.assertAlmostEqual(reduce.rusage_cpu_ms(ru), 262.5)
        self.assertAlmostEqual(reduce.rusage_peak_mb(ru), 20.0)

    def test_rusage_from_wait4(self):
        pid = os.fork()
        if pid == 0:
            deadline = resource.getrusage(resource.RUSAGE_SELF).ru_utime + 0.05
            while resource.getrusage(resource.RUSAGE_SELF).ru_utime < deadline:
                pass
            os._exit(0)
        _, status, ru = os.wait4(pid, 0)
        self.assertEqual(os.waitstatus_to_exitcode(status), 0)
        self.assertGreaterEqual(reduce.rusage_cpu_ms(ru), 50.0)
        self.assertGreater(reduce.rusage_peak_mb(ru), 0.0)

    STAT = ("4242 (systolize (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
            "{utime} {stime} 0 0 20 0 3 0 12345 1000000 500 18446744073709551615")

    def test_proc_stat_delta(self):
        before = self.STAT.format(utime=100, stime=20)
        after = self.STAT.format(utime=150, stime=45)
        self.assertEqual(reduce.proc_cpu_ticks(before), 120)
        self.assertAlmostEqual(reduce.proc_cpu_ms(before, after, 100), 750.0)

    def test_proc_stat_of_this_process(self):
        with open(f"/proc/{os.getpid()}/stat") as f:
            self.assertGreaterEqual(reduce.proc_cpu_ticks(f.read()), 0)

    def test_vm_hwm(self):
        status = "Name:\tsystolize\nVmPeak:\t  99999 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 5000 kB\n"
        self.assertAlmostEqual(reduce.vm_hwm_mb(status), 10.0)
        with self.assertRaises(ValueError):
            reduce.vm_hwm_mb("Name:\tx\n")


class HostNoise(unittest.TestCase):
    def test_steal_share(self):
        before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
        after = "cpu  200 0 100 1500 10 0 5 185 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
        # total ticks grew 1000 (guest columns excluded), steal grew 150
        self.assertAlmostEqual(reduce.steal_share(before, after), 0.15)
        self.assertEqual(reduce.steal_share(before, before), 0.0)
        after0 = after.replace("cpu0 1 2 3 4 5 6 7 8", "cpu0 11 2 3 4 5 6 7 18")
        self.assertAlmostEqual(reduce.steal_share(before, after0, "cpu0"), 0.5)

    def test_steal_share_of_this_host(self):
        with open("/proc/stat") as f:
            text = f.read()
        self.assertEqual(reduce.steal_share(text, text), 0.0)
        steal, total = reduce.cpu_line_ticks(text)
        self.assertLessEqual(steal, total)

    def test_loadavg(self):
        self.assertAlmostEqual(reduce.loadavg1("1.54 0.92 0.89 2/107 24734\n"), 1.54)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 0, "parent": -1, "op": 7, "name": "op", "start": 0.0, "end": 100.0},
            {"id": 1, "parent": 0, "op": 7, "name": "a", "start": 10.0, "end": 30.0},
            {"id": 2, "parent": 0, "op": 7, "name": "b", "start": 25.0, "end": 50.0},
            {"id": 3, "parent": 2, "op": 7, "name": "a", "start": 30.0, "end": 35.0},
        ]
        st = reduce.self_times(spans)
        self.assertAlmostEqual(st[(7, "op")], 60.0)  # children cover 10..50
        self.assertAlmostEqual(st[(7, "b")], 20.0)
        self.assertAlmostEqual(st[(7, "a")], 25.0)   # 20 + 5, summed per name

    def test_covered(self):
        self.assertEqual(reduce.covered([]), 0.0)
        self.assertEqual(reduce.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertTrue(math.isclose(reduce.covered([(0, 10), (2, 3)]), 10.0))


class Manifest(unittest.TestCase):
    """BENCHMARK.json, expected.json and the code name the same things."""

    def test_names_agree(self):
        import json
        from pathlib import Path
        import layers
        import run
        import workloads
        here = Path(__file__).resolve().parent
        doc = json.loads((here.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         layers.PER_LAYER)
        expected = json.loads((here / "expected.json").read_text())
        for name, classes in workloads.WORKLOADS.items():
            self.assertEqual(sorted(c.name for c in classes), sorted(expected[name]))


if __name__ == "__main__":
    unittest.main()
