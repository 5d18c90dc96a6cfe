import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tabctx import metrics as mt
from oracles import pairwise_auroc


def test_auroc_perfect_ranking():
    assert mt.auroc_binary([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0


def test_auroc_all_ties():
    assert mt.auroc_binary([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auroc_mixed_case_matches_pairwise_count():
    # brute force over the 4 positive-negative pairs: 3 wins, 1 loss
    labels, scores = [1, 0, 1, 0], [0.7, 0.6, 0.4, 0.3]
    assert pairwise_auroc(labels, scores) == 0.75
    assert mt.auroc_binary(labels, scores) == 0.75


def test_auroc_single_class_is_missing():
    assert mt.auroc_binary([1, 1], [0.5, 0.6]) is None
    assert mt.auroc(["a", "a"], [[1, 0], [1, 0]], ("a", "b")) is None


def test_auroc_multiclass_macro():
    labels = ["a", "b", "c", "a"]
    P = [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.6, 0.3, 0.1]]
    per_class = [pairwise_auroc([l == c for l in labels], [p[i] for p in P])
                 for i, c in enumerate(("a", "b", "c"))]
    assert mt.auroc(labels, P, ("a", "b", "c")) == pytest.approx(np.mean(per_class), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(0, 1, allow_nan=False)), min_size=2, max_size=60))
def test_auroc_equals_pairwise_oracle(pairs):
    y = [p[0] for p in pairs]
    s = [p[1] for p in pairs]
    expected = pairwise_auroc(y, s)
    got = mt.auroc_binary(y, s)
    if expected is None:
        assert got is None
    else:
        assert abs(got - expected) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-50, 50)), min_size=4, max_size=40))
def test_auroc_monotone_transform_invariance(pairs):
    # scores on a coarse grid so the exp transform stays injective in floats
    y = [p[0] for p in pairs]
    s = [p[1] / 10.0 for p in pairs]
    base = mt.auroc_binary(y, s)
    transformed = mt.auroc_binary(y, [math.exp(0.5 * v) + 3 for v in s])
    if base is None:
        assert transformed is None
    else:
        assert abs(base - transformed) <= 1e-12


def test_nmae_examples():
    assert mt.nmae([1, 3], [1, 3]) == 0.0
    assert mt.nmae([1, 3], [2, 2]) == 0.5
    assert mt.nmae([10], [12]) == pytest.approx(0.2, abs=1e-12)
    assert mt.nmae([1, -1], [0, 0]) is None
    assert mt.nmae([2.2250738585e-313], [1.0]) is None  # the ratio overflows


def test_nmae_is_defined_for_labels_near_the_float_maximum():
    # the labels' plain sum overflows a float, their mean does not
    assert mt.nmae([1.7e308, 1.7e308, 2.0], [1.7e308, 1.7e308, 2.0]) == 0.0
    y = [1.7e308, 1.7e308, 1.6e308, 2.0]
    est = [1.6e308, 1.7e308, 1.5e308, 3.0]
    value = mt.nmae(y, est)
    assert value is not None and value > 0.0
    assert value == mt.nmae(np.ldexp(y, -524), np.ldexp(est, -524))


# Scaling by c is exact enough only on zero or normal values whose products
# with c stay normal (c >= 0.001): a subnormal loses bits when scaled.
SCALABLE = st.floats(-100, 100, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) >= 1e-300)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(SCALABLE, SCALABLE), min_size=1, max_size=30), st.floats(0.001, 1000))
@example(pairs=[(2.2250738585e-313, 1.0)], c=1.0)  # subnormal label mean
def test_nmae_scale_equivariance(pairs, c):
    y = [p[0] for p in pairs]
    est = [p[1] for p in pairs]
    # a label mean that cancels much larger labels keeps their rounding
    # errors, which the scaling changes: labels [1.0, -0.99999999] at c = 0.3
    assume(abs(sum(y)) >= 0.01 * len(y) * max(map(abs, y)))
    base = mt.nmae(y, est)
    scaled = mt.nmae([c * v for v in y], [c * v for v in est])
    if base is None or scaled is None:
        return
    assert abs(base - scaled) <= 1e-12 * max(1.0, base)


def test_minmax_examples():
    assert mt.minmax_normalize([0.8, 0.9, 1.0]) == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
    assert mt.minmax_normalize([0.1, 0.3], higher_better=False) == [1.0, 0.0]
    assert mt.minmax_normalize([0.4, 0.4, 0.4]) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        mt.minmax_normalize([0.5])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-200, 200).map(lambda k: k / 4.0), min_size=2, max_size=10, unique=True),
       st.sampled_from([0.5, 1.0, 2.0, 8.0]), st.integers(-20, 20).map(lambda k: k / 2.0))
def test_minmax_affine_invariance(vals, a, b):
    # dyadic inputs keep a*v+b exact, so invariance holds to full precision
    base = mt.minmax_normalize(vals)
    moved = mt.minmax_normalize([a * v + b for v in vals])
    assert np.allclose(base, moved, atol=1e-12)


def test_power_law_noiseless_recovery():
    d_c, alpha = 100.0, 0.1
    pts = [(D, (d_c / D) ** alpha) for D in (1e2, 1e3, 1e4, 1e5)]
    fit = mt.fit_power_law(pts)
    assert abs(fit.alpha - alpha) <= 1e-9
    assert abs(fit.d_c - d_c) / d_c <= 1e-9


def test_power_law_two_points_exact():
    fit = mt.fit_power_law([(10, 0.5), (1000, 0.1)])
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_law_rejects_nonpositive():
    with pytest.raises(ValueError):
        mt.fit_power_law([(1, 1), (2, 0)])
    with pytest.raises(ValueError):
        mt.fit_power_law([(1.0, 0.5)])


def test_power_law_flat_slope_flagged():
    fit = mt.fit_power_law([(10, 0.5), (100, 0.5), (1000, 0.5)])
    assert fit.degenerate and fit.d_c is None


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 1e6), st.floats(-2, 2).filter(lambda a: abs(a) > 1e-3),
       st.integers(0, 10_000))
def test_power_law_round_trip(d_c, alpha, seed):
    sizes = [10.0 * 4 ** k for k in range(5)]
    pts = [(D, (d_c / D) ** alpha) for D in sizes]
    if any(not (0 < l < 1e300) for _, l in pts):
        return
    fit = mt.fit_power_law(pts)
    assert abs(fit.alpha - alpha) <= 1e-9 * max(1.0, abs(alpha))
    assert abs(fit.d_c - d_c) / d_c <= 1e-6


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 10.0), st.lists(st.floats(-1e-6, 1e-6), min_size=2, max_size=5),
       st.floats(1.0, 1e4))
@example(0.3, [0.0, 1e-7 / 0.3, 2e-7 / 0.3], 1000.0)  # rising: d_c overflowed
@example(0.3, [0.0, -1e-8 / 0.3, -2e-8 / 0.3], 1000.0)  # falling: d_c underflowed to 0
def test_power_law_near_flat_never_raises(loss, rel_steps, first_size):
    pts = [(first_size * 10 ** k, loss * (1 + r)) for k, r in enumerate(rel_steps)]
    fit = mt.fit_power_law(pts)
    assert fit.d_c is None or (math.isfinite(fit.d_c) and fit.d_c > 0)
    assert fit.degenerate == (fit.d_c is None)
