#!/usr/bin/env python3
"""Tests of compare.py's verdict rules.

    python3 bench/e2e/test_compare.py
"""
import contextlib
import io
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave the source tree as it was
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BOUND = 0.25


def run(workload, seed, started, value, digest="d0", failed=0, **fp):
    fingerprint = {"nproc": 4, "git_sha": "a"}
    fingerprint.update(fp)
    return {"workload": workload, "seed": seed, "started_unix_us": started,
            "smoke": False, "attempted": 100,
            "failed": failed, "output_digest": digest,
            "fingerprint": fingerprint,
            "metrics": {"setup_s": {"value": value}}}


def compare_sets(base_values, change_values, **change_kw):
    base = [run("w", i, 2 * i, v) for i, v in enumerate(base_values)]
    change = [run("w", i, 2 * i + 1, v, **change_kw)
              for i, v in enumerate(change_values)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = compare.report_compare(
            base, change,
            [{"name": "setup_s", "better": "lower", "bound": BOUND}])
    return status, out.getvalue()


class Verdicts(unittest.TestCase):
    def test_same_commit_setup_noise_is_unresolved_not_regressed(self):
        # Two sets of one commit, drawn like pipeline setup_s measured on a
        # shared 4-vCPU VM (about 4.3 ms, quartiles 4.0-5.7 ms): the second
        # set's median is more than the bound above the first's, but so is
        # each set's spread.
        first = [0.0040, 0.0057, 0.0041, 0.0043, 0.0060,
                 0.0039, 0.0043, 0.0052, 0.0040, 0.0058]
        second = [0.0057, 0.0043, 0.0058, 0.0060, 0.0041,
                  0.0056, 0.0040, 0.0059, 0.0055, 0.0061]
        self.assertGreater(compare.spread(first), BOUND)
        self.assertGreater(compare.quartiles(second)[1],
                           (1 + BOUND) * compare.quartiles(first)[1])
        verdict, _ = compare.judge(first, second, False, BOUND)
        self.assertEqual(verdict, "unresolved")
        status, text = compare_sets(first, second)
        self.assertEqual(status, 0)
        self.assertNotIn("REGRESSED", text)

    def test_steady_metric_worse_by_more_than_bound_regresses(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        change = [1.30, 1.31, 1.29, 1.32, 1.28]
        self.assertEqual(compare.judge(base, change, False, BOUND)[0],
                         "REGRESSED")
        self.assertEqual(compare_sets(base, change)[0], 1)

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(compare.judge([1.0], [0.5], False, BOUND),
                         ("same", 1))
        base5 = [1.00, 1.01, 0.99, 1.02, 0.98]
        self.assertEqual(compare.judge(base5, [0.5] * 5, False, BOUND)[0],
                         "same")
        status, text = compare_sets(base5, [0.5] * 5)
        self.assertIn("insufficient pairs", text)
        base10 = base5 * 2
        self.assertEqual(compare.judge(base10, [0.5] * 10, False, BOUND),
                         ("gain", 10))
        # Nine wins of ten still count; eight do not.
        self.assertEqual(
            compare.judge(base10, [0.5] * 9 + [1.5], False, BOUND)[0], "gain")
        self.assertNotEqual(
            compare.judge(base10, [0.5] * 8 + [1.5] * 2, False, BOUND)[0],
            "gain")

    def test_gain_needs_a_gap_wider_than_the_base_spread(self):
        base = [1.0, 1.1, 0.9, 1.05, 0.95] * 2
        change = [v - 0.01 for v in base]  # wins every pair, by a hair
        self.assertEqual(compare.judge(base, change, False, BOUND)[0], "same")

    def test_higher_is_better(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(
            compare.judge(base, [70.0, 71.0, 69.0, 70.5, 69.5], True,
                          BOUND)[0], "REGRESSED")


class Checks(unittest.TestCase):
    def test_digests_must_agree_per_seed(self):
        status, text = compare_sets([1.0] * 3, [1.0] * 3, digest="d1")
        self.assertEqual(status, 1)
        self.assertIn("DIFFER", text)

    def test_fail_frac_must_not_rise(self):
        status, text = compare_sets([1.0] * 3, [1.0] * 3, failed=1)
        self.assertEqual(status, 1)
        self.assertIn("ROSE", text)

    def test_fingerprint_ignores_only_the_sha(self):
        a = run("w", 1, 0, 1.0)
        self.assertEqual(compare.fingerprint(a),
                         compare.fingerprint(run("w", 1, 0, 1.0, git_sha="b")))
        self.assertNotEqual(compare.fingerprint(a),
                            compare.fingerprint(run("w", 1, 0, 1.0, nproc=8)))


if __name__ == "__main__":
    unittest.main()
