"""Tests for the steadiness check's math: python3 -m unittest discover -s perfbench"""

import unittest

from steady import agree, shift, spread


class SteadyMath(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        # statistics.quantiles(range 1..9, n=4) gives 2.5, 5, 7.5.
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 1.0)
        self.assertEqual(spread([5, 5, 5, 5]), 0.0)

    def test_shift_is_two_sided(self):
        self.assertAlmostEqual(shift(100, 110), 0.10)
        self.assertAlmostEqual(shift(100, 90), 0.10)

    def test_agree(self):
        steady = [[100, 101, 99, 100, 102], [101, 100, 100, 99, 101]]
        self.assertEqual(agree(steady, 0.1), (True, []))
        worse = [[100, 101, 99, 100, 102], [130, 131, 129, 130, 132]]
        ok, why = agree(worse, 0.1)
        self.assertFalse(ok)
        self.assertIn("medians differ", why[0])
        # A set better by more than the bound is drift too.
        better = [[100, 101, 99, 100, 102], [70, 71, 69, 70, 72]]
        ok, why = agree(better, 0.1)
        self.assertFalse(ok)
        self.assertIn("medians differ", why[0])
        noisy = [[50, 100, 150, 100, 60], [100, 100, 100, 100, 100]]
        ok, why = agree(noisy, 0.1)
        self.assertFalse(ok)
        self.assertIn("set 1 spread", why[0])


if __name__ == "__main__":
    unittest.main()
