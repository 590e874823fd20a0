"""Self-tests of the benchmark's arithmetic on hand-made inputs.

    python3 perfbench/test_stats.py

run.py runs them before every measurement and refuses to report on failure.
"""

import math
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        values = list(range(1, 201))  # 200 samples: p95 = 190, 10 beyond
        self.assertEqual(stats.percentile(values, 0.95), 190)
        with self.assertRaises(stats.Refused):
            stats.percentile(values[:199], 0.95)  # only 9 would lie beyond

    def test_p50_of_twenty(self):
        values = [float(v) for v in range(20, 0, -1)]  # unsorted input
        self.assertEqual(stats.percentile(values, 0.5), 10.0)
        with self.assertRaises(stats.Refused):
            stats.percentile(values[:19], 0.5)

    def test_out_of_range_quantile(self):
        with self.assertRaises(stats.Refused):
            stats.percentile(list(range(100)), 1.0)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(stats.Refused):
            stats.median([])


class MeanTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([1.0, 10.0, 100.0]), 10.0)
        self.assertAlmostEqual(stats.geomean([5.0]), 5.0)

    def test_geomean_refuses_non_positive(self):
        with self.assertRaises(stats.Refused):
            stats.geomean([2.0, 0.0])
        with self.assertRaises(stats.Refused):
            stats.geomean([])

    def test_mean_and_ratio(self):
        self.assertEqual(stats.mean([1, 2, 3, 4]), 2.5)
        self.assertEqual(stats.ratio(3, 4), 0.75)
        with self.assertRaises(stats.Refused):
            stats.ratio(1, 0)


class SelfTimeTest(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(stats.union_length([(0, 4), (2, 6), (8, 9)]), 7)
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(5, 6), (0, 10)]), 10)

    def test_self_time_subtracts_union_of_children(self):
        parent = (0.0, 100.0)
        children = [(10.0, 30.0), (20.0, 30.0), (70.0, 10.0)]  # 10..50 and 70..80
        self.assertEqual(stats.self_time(parent, children), 50.0)

    def test_self_time_clips_children_to_parent(self):
        parent = (10.0, 10.0)
        children = [(5.0, 10.0), (18.0, 10.0), (30.0, 5.0)]  # 10..15 and 18..20
        self.assertEqual(stats.self_time(parent, children), 3.0)

    def test_self_time_without_children(self):
        self.assertEqual(stats.self_time((3.0, 7.0), []), 7.0)

    def test_within_keeps_same_thread_children(self):
        tune = ["tune", 1, 0.0, 100.0]
        spans = [tune, ["pfs.run", 1, 5.0, 10.0], ["pfs.run", 2, 5.0, 10.0],
                 ["pfs.run", 1, 150.0, 10.0]]
        self.assertEqual(stats.within(tune, spans), [spans[1]])
        self.assertTrue(math.isclose(
            stats.self_time(tune[2:4], [s[2:4] for s in stats.within(tune, spans)]), 90.0))


if __name__ == "__main__":
    unittest.main()
