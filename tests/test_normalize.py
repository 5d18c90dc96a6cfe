import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabctx import normalize as nz
from conftest import make_dataset


def fit(values, mode):
    return nz.fit_column("c", np.asarray(values, dtype=float), mode)


def norm(stats, v):
    return float(nz.apply_array(stats, [v])[0])


def test_quantile_knots_are_sorted_sample():
    s = fit([4, 1, 3, 2], nz.MODE_QUANTILE)
    assert s.quantile_knots.tolist() == [1, 2, 3, 4]
    assert not s.degenerate


def test_constant_column_standard_degenerate():
    s = fit([5, 5, 5], nz.MODE_STANDARD)
    assert s.mean == 5 and s.stddev == 0 and s.degenerate


def test_all_missing_column_normalizes_to_half():
    s = fit([np.nan, np.nan], nz.MODE_QUANTILE)
    assert s.degenerate
    assert norm(s, 123.0) == 0.5
    assert norm(s, float("nan")) == 0.5


def test_quantile_median_and_clamp():
    s = fit([1, 2, 3, 4, 5], nz.MODE_QUANTILE)
    assert norm(s, 3.0) == 0.5
    assert norm(s, 100.0) == 1.0
    assert norm(s, -100.0) == 0.0


def test_standard_arithmetic():
    s = nz.ColumnStats("c", nz.MODE_STANDARD, degenerate=False, mean=10.0, stddev=2.0)
    assert norm(s, 14.0) == 2.0


def test_degenerate_standard_maps_to_zero():
    s = fit([7, 7], nz.MODE_STANDARD)
    assert norm(s, 99.0) == 0.0


def test_minmax_clamps():
    s = fit([0, 10], nz.MODE_MINMAX)
    assert norm(s, 5.0) == 0.5
    assert norm(s, -1.0) == 0.0
    assert norm(s, 11.0) == 1.0


@pytest.mark.parametrize("mode", [nz.MODE_STANDARD, nz.MODE_MINMAX])
def test_column_near_the_float_limit_keeps_a_finite_spread(mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = fit([1.5e308, -1.5e308, 0.0, 1.0], mode)
        top, one, zero = nz.apply_array(s, [1.5e308, 1.0, 0.0])
    assert not s.degenerate
    if mode == nz.MODE_STANDARD:
        assert 0.0 < s.stddev < np.inf
        assert zero < one < top and one - zero < top - one
    else:
        assert s.vmax - s.vmin < np.inf
        assert top == 1.0


@pytest.mark.parametrize("mode", [nz.MODE_STANDARD, nz.MODE_MINMAX])
def test_standard_and_minmax_give_the_same_values_at_any_scale(mode):
    col = np.array([1.5, -2.25, 3.0, 0.0, 0.75, np.nan])
    queries = np.array([-3.0, 0.5, 2.0, 4.0])
    expected = [nz.apply_array(fit(col, mode), v).tobytes() for v in (col, queries)]
    for k in (400, 498, 520, 1021):
        s = fit(np.ldexp(col, k), mode)
        assert [nz.apply_array(s, np.ldexp(v, k)).tobytes() for v in (col, queries)] == expected


def test_none_mode_is_identity():
    s = fit([1, 2, 3], nz.MODE_NONE)
    assert norm(s, 42.0) == 42.0


def test_none_mode_scales_columns_from_2_to_the_500():
    below = np.ldexp(np.nextafter(1.0, 0.0), 500)
    assert fit([-below, 1.0], nz.MODE_NONE).exponent == 0
    assert norm(fit([-below, 1.0], nz.MODE_NONE), 3.5) == 3.5
    s = fit([np.ldexp(1.0, 500), 1.0], nz.MODE_NONE)
    assert s.exponent == 1 and norm(s, 3.5) == 1.75


def test_knot_cap():
    s = nz.fit_column("c", np.arange(5000, dtype=float), nz.MODE_QUANTILE)
    assert len(s.quantile_knots) == 1000
    assert s.quantile_knots[0] == 0 and s.quantile_knots[-1] == 4999


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=50),
       finite_floats, finite_floats,
       st.sampled_from([nz.MODE_QUANTILE, nz.MODE_MINMAX]))
def test_monotone_and_bounded(train, v1, v2, mode):
    s = fit(train, mode)
    lo, hi = sorted([v1, v2])
    a, b = norm(s, lo), norm(s, hi)
    assert a <= b
    assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0


def test_train_only_dependence():
    d1 = make_dataset(num={"a": [1, 2, 3, 100]}, label=[0, 0, 1, 1], task="regression")
    d2 = make_dataset(num={"a": [1, 2, 3, -999]}, label=[0, 0, 1, 1], task="regression")
    s1 = nz.fit_stats(d1, [0, 1, 2])["a"]
    s2 = nz.fit_stats(d2, [0, 1, 2])["a"]
    assert s1.quantile_knots.tolist() == s2.quantile_knots.tolist()

