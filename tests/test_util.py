import numpy as np

from tabctx.util import finite_mean


def test_finite_mean_of_labels_at_both_float_limits():
    # numpy's pairwise partial sums reach +inf and -inf, and inf + -inf is NaN;
    # the mean is taken again at a scale where the sums stay finite
    assert finite_mean(np.repeat([1.7e308, -1.7e308], 160)) == 0.0
    assert finite_mean([1.7e308, 1.7e308, -1.7e308, -1.7e308] * 4 + [3.0]) == 3.0 / 17
    assert finite_mean([1.0, 2.0, 4.0]) == np.mean([1.0, 2.0, 4.0])
