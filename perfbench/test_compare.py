"""Tests of compare.py: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import io
import os
import tempfile
import unittest

import compare

QPS = {"name": "qps", "better": "higher", "bound": 0.1}
LATENCY = {"name": "p50_us", "better": "lower", "bound": 0.1}
SPEC = {"workloads": [{"name": "interactive"}], "end_to_end": [QPS]}


def pairs(name, before, after):
    return [({name: x}, {name: y}) for x, y in zip(before, after)]


def run(side_first, seed, qps, correct=True):
    """One untraced run record as read_runs returns it."""
    return {"workload": "interactive", "seed": seed, "started": 10.0 * seed + side_first,
            "correct": correct, "metrics": {"qps": qps} if correct is not None else None}


def interleaved(before, after, after_correct=None):
    """Runs of seeds 0.. made back to back, alternating which side goes first."""
    a_runs, b_runs = [], []
    for seed, (x, y) in enumerate(zip(before, after)):
        b_first = seed % 2
        ok = True if after_correct is None else after_correct[seed]
        a_runs.append(run(b_first, seed, x))
        b_runs.append(run(1 - b_first, seed, y, ok))
    return a_runs, b_runs


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        p = pairs("qps", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                  [120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
        self.assertEqual(compare.verdict(QPS, p)[3], "better")

    def test_loss_beyond_the_bound_is_worse(self):
        p = pairs("p50_us", [100] * 10, [115] * 10)
        self.assertEqual(compare.verdict(LATENCY, p)[3], "worse")

    def test_small_change_with_narrow_spread_is_unchanged(self):
        p = pairs("p50_us", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                  [101, 102, 100, 101, 103, 99, 101, 102, 100, 101])
        self.assertEqual(compare.verdict(LATENCY, p)[3], "unchanged")

    def test_drift_shared_by_both_runs_of_a_pair_cancels(self):
        # The host runs 40% faster in the second half; each pair sees the
        # same host speed, so the per-pair change is what is judged.
        speed = [1.0] * 5 + [1.4] * 5
        p = pairs("qps", [100 * s for s in speed], [101 * s for s in speed])
        self.assertEqual(compare.verdict(QPS, p)[3], "unchanged")

    def test_wide_spread_of_pair_changes_is_unresolved(self):
        p = pairs("p50_us", [100] * 10, [60, 140, 70, 130, 80, 120, 90, 110, 100, 100])
        self.assertEqual(compare.verdict(LATENCY, p)[3], "unresolved")


class PairingTest(unittest.TestCase):
    def test_interleaved_runs_pair_by_seed(self):
        a, b = interleaved([1, 2, 3, 4], [5, 6, 7, 8])
        got = compare.pair_runs(a, b)
        self.assertEqual(got, [({"qps": x}, {"qps": y}) for x, y in [(1, 5), (2, 6), (3, 7), (4, 8)]])

    def test_runs_made_side_by_side_are_refused(self):
        a = [run(0, s, 1) for s in range(4)]
        b = [{**run(0, s, 1), "started": 100.0 + s} for s in range(4)]
        with self.assertRaisesRegex(ValueError, "back to back"):
            compare.pair_runs(a, b)

    def test_one_side_always_first_is_refused(self):
        a = [run(0, s, 1) for s in range(4)]
        b = [run(1, s, 1) for s in range(4)]
        with self.assertRaisesRegex(ValueError, "alternate"):
            compare.pair_runs(a, b)


class CorrectnessTest(unittest.TestCase):
    def compare(self, before, after):
        out = io.StringIO()
        return compare.compare(SPEC, before, after, out), out.getvalue()

    def test_an_incorrect_after_run_fails(self):
        a, b = interleaved([100] * 4, [150] * 4, after_correct=[True, False, True, True])
        code, text = self.compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("FAILED: 1 of 4 AFTER runs incorrect", text)

    def test_a_crashed_after_run_fails(self):
        a, b = interleaved([100] * 4, [150] * 4, after_correct=[True, True, None, True])
        code, text = self.compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("FAILED", text)

    def test_a_workload_missing_on_one_side_fails(self):
        a, _ = interleaved([100] * 4, [100] * 4)
        code, text = self.compare(a, [])
        self.assertEqual(code, 1)
        self.assertIn("FAILED: no AFTER runs", text)

    def test_correct_equal_runs_pass(self):
        a, b = interleaved([100] * 4, [100] * 4)
        self.assertEqual(self.compare(a, b)[0], 0)


class ReadRunsTest(unittest.TestCase):
    def test_reads_runs_and_counts_one_without_a_result(self):
        text = (
            '{"perfbench_run": {"workload": "interactive", "seed": 3, "trace": 0, '
            '"started_unix": 5.5}}\n'
            '{"perfbench": {"workload": "interactive"}}\n'
            '{"correct": true, "attempted": 5, "failed": 0, '
            '"metrics": {"qps": {"value": 7.5, "unit": "1/s"}}}\n'
            '{"perfbench_run": {"workload": "interactive", "seed": 4, "trace": 1, '
            '"started_unix": 6.5}}\n'
            '{"correct": true, "attempted": 5, "failed": 0, '
            '"metrics": {"cache.hit_rate": {"value": 0.5, "unit": "frac"}}}\n'
            '{"perfbench_run": {"workload": "updates", "seed": 5, "trace": 0, '
            '"started_unix": 7.5}}\n'
        )
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.txt")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            self.assertEqual(compare.read_runs(d), [
                {"workload": "interactive", "seed": 3, "started": 5.5, "correct": True,
                 "metrics": {"qps": 7.5}},
                {"workload": "updates", "seed": 5, "started": 7.5, "correct": False,
                 "metrics": None},
            ])


if __name__ == "__main__":
    unittest.main()
