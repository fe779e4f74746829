"""Checks of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([7.0], 0.9), 7.0)
        self.assertEqual(benchlib.percentile([3, 1, 2], 0.5), 2)

    def test_ten_beyond(self):
        # p90 of 100 samples leaves exactly 10 above it; of 99 only 9.
        self.assertEqual(benchlib.beyond(100, 0.9), 10)
        self.assertTrue(benchlib.supported(100, 0.9))
        self.assertFalse(benchlib.supported(99, 0.9))
        self.assertTrue(benchlib.supported(20, 0.5))
        self.assertFalse(benchlib.supported(19, 0.5))
        self.assertFalse(benchlib.supported(999, 0.99))
        self.assertTrue(benchlib.supported(1000, 0.99))

    def test_empty(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)

    def test_quartile_spread(self):
        self.assertAlmostEqual(benchlib.quartile_spread([10.0] * 4), 0.0)
        # quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5.
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 10)), 1.0)


class HeavyMix(unittest.TestCase):
    def test_cycle(self):
        cycle = benchlib.mix(["a", "b", "c"], ["H", "K"])
        self.assertEqual(cycle, ["a", "b", "c", "a", "H",
                                 "b", "c", "a", "b", "K"])
        self.assertEqual(len(cycle) % benchlib.HEAVY_EVERY, 0)
        self.assertEqual(cycle.count("H") + cycle.count("K"),
                         len(cycle) // benchlib.HEAVY_EVERY)

    def test_p90_is_heavy_median(self):
        # 110 jobs: 88 light ones (1.0..1.87) and 22 heavy (3.0..3.21).
        cycle = benchlib.mix(list(range(8)), ["h0", "h1"])
        light = iter(1.0 + 0.01 * i for i in range(88))
        heavy = iter(3.0 + 0.01 * i for i in range(22))
        walls = [next(heavy) if isinstance(k, str) else next(light)
                 for k in cycle * 11]
        self.assertTrue(benchlib.supported(len(walls), 0.9))
        heavy_walls = sorted(w for w in walls if w >= 3.0)
        self.assertEqual(benchlib.percentile(walls, 0.9),
                         benchlib.percentile(heavy_walls, 0.5))


class DueTimeLatency(unittest.TestCase):
    def test_synthetic_schedule(self):
        # Events every 10 capture seconds from t=1000, paced at 100x
        # from wall time 50: event k is due at 50 + 0.1 k.
        times = [1000.0 + 10.0 * k for k in range(100)]
        wall_t0, rate = 50.0, 100.0
        self.assertAlmostEqual(
            benchlib.due_time(wall_t0, 1000.0, rate, times[30]), 53.0)
        # A window ending at t1=1300 closes with the event at 1300 (due
        # 53.0); one ending at 1305 with the event at 1310 (due 53.1).
        rounds = [(1300.0, 53.25), (1305.0, 53.5), (5000.0, 99.0)]
        lat = benchlib.round_latencies(rounds, times, wall_t0, 1000.0, rate)
        self.assertEqual(len(lat), 2)  # no event closes t1=5000
        self.assertAlmostEqual(lat[0][1], 0.25)
        self.assertAlmostEqual(lat[1][1], 0.4)

    def test_closing_event(self):
        times = [1.0, 2.0, 2.0, 3.0]
        self.assertEqual(benchlib.closing_event(times, 2.0), 1)
        self.assertEqual(benchlib.closing_event(times, 2.5), 3)
        self.assertIsNone(benchlib.closing_event(times, 3.5))

    def test_backlog_excluded(self):
        # Set-up leaves a backlog that drains linearly into a steady
        # 0.1 s / 0.2 s alternation.
        backlog = [2.0, 1.6, 1.2, 0.8, 0.45]
        steady = [0.1, 0.2] * 20
        self.assertEqual(benchlib.steady_from(backlog + steady), 5)
        self.assertEqual(benchlib.steady_from(steady), 0)


class StatusParsing(unittest.TestCase):
    STATUS = ("Name:\twantraffic_moni\nVmPeak:\t  412340 kB\n"
              "VmHWM:\t   21560 kB\nVmRSS:\t   20012 kB\nThreads:\t3\n")

    def test_vmhwm(self):
        self.assertEqual(benchlib.parse_status_kb(self.STATUS, "VmHWM"),
                         21560)
        self.assertEqual(benchlib.parse_status_kb(self.STATUS, "VmRSS"),
                         20012)

    def test_missing_or_malformed(self):
        with self.assertRaises(ValueError):
            benchlib.parse_status_kb("VmRSS:\t1 kB\n", "VmHWM")
        with self.assertRaises(ValueError):
            benchlib.parse_status_kb("VmHWM:\t12 MB\n", "VmHWM")


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        names = ["job", "a", "b"]
        # job [0, 100] with a [10, 40] holding b [20, 30], and b [50, 60].
        spans = [[0, -1, 0, 100], [1, 0, 10, 40], [2, 1, 20, 30],
                 [2, 0, 50, 60]]
        selfs = benchlib.self_times(names, spans)
        self.assertAlmostEqual(selfs["job"], 60e-9)
        self.assertAlmostEqual(selfs["a"], 20e-9)
        self.assertAlmostEqual(selfs["b"], 20e-9)
        self.assertAlmostEqual(benchlib.coverage(names, spans, "job"), 0.4)
        self.assertEqual(benchlib.span_seconds(names, spans, "b"),
                         [10e-9, 10e-9])


if __name__ == "__main__":
    unittest.main()
