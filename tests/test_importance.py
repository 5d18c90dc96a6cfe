import numpy as np
import pytest

from tabctx import importance as imp
from tabctx.util import rng_for
from conftest import make_dataset
from oracles import exhaustive_tree_score


def test_pearson_perfect_linear_regression():
    d = make_dataset(num={"f": [1, 2, 3]}, label=[2, 4, 6], task="regression")
    assert imp.pearson_importance(d, [0, 1, 2])["f"] == pytest.approx(1.0, abs=1e-12)


def test_pearson_sign_dropped():
    d = make_dataset(num={"f": [1, 2, 3]}, label=[6, 4, 2], task="regression")
    assert imp.pearson_importance(d, [0, 1, 2])["f"] == pytest.approx(1.0, abs=1e-12)


def test_pearson_constant_feature_zero():
    d = make_dataset(num={"f": [7, 7, 7]}, label=[1, 2, 3], task="regression")
    assert imp.pearson_importance(d, [0, 1, 2])["f"] == 0.0


def test_pearson_categorical_indicator_match():
    d = make_dataset(cat={"f": ["a", "a", "b", "b"]}, label=["p", "p", "q", "q"])
    assert imp.pearson_importance(d, [0, 1, 2, 3])["f"] == pytest.approx(1.0, abs=1e-12)


def test_pearson_scale_invariance():
    rng = rng_for(0, "scale")
    x = rng.normal(size=40)
    y = 2 * x + rng.normal(size=40)
    d1 = make_dataset(num={"f": x}, label=y, task="regression")
    d2 = make_dataset(num={"f": 1000.0 * x}, label=y, task="regression")
    w1 = imp.pearson_importance(d1, range(40))["f"]
    w2 = imp.pearson_importance(d2, range(40))["f"]
    assert abs(w1 - w2) <= 1e-12


def test_pearson_missing_pairs_skipped():
    d = make_dataset(num={"f": [1, np.nan, 3, np.nan]}, label=[1, 9, 3, 9], task="regression")
    assert imp.pearson_importance(d, range(4))["f"] == pytest.approx(1.0, abs=1e-12)


def test_pps_threshold_split_scores_high():
    rng = rng_for(1, "threshold")
    x = rng.normal(size=200)
    y = (x > 0).astype(int)
    d = make_dataset(num={"f": x}, label=[str(v) for v in y])
    assert imp.pps_importance(d, range(200), seed=0)["f"] >= 0.95


def test_pps_feature_equal_to_label_scores_one():
    # 16 distinct values, each repeated 16 times, so every fold sees all of them
    rng = rng_for(2, "ident")
    base = np.repeat(np.arange(16, dtype=float), 16)
    x = base[rng.permutation(len(base))]
    d = make_dataset(num={"f": x}, label=x, task="regression")
    score = imp.pps_importance(d, range(len(x)), seed=0)["f"]
    assert abs(score - 1.0) <= 1e-9


def test_pps_permuted_labels_score_zero():
    # Regression form: a noise tree cannot beat the median baseline out of
    # fold. (The classification formula compares weighted F1 against a
    # single-class baseline, which chance-level balanced output exceeds, so
    # the near-zero property is inherent to regression only.)
    for seed in range(5):
        rng = rng_for(seed, "perm")
        x = rng.normal(size=240)
        y = rng.permutation(np.abs(x) + 0.5 * rng.normal(size=240))
        d = make_dataset(num={"f": x}, label=y, task="regression")
        assert imp.pps_importance(d, range(240), seed=0)["f"] < 0.05


def test_pps_categorical_determined_label():
    tokens = ["a", "b", "c", "d"] * 30
    y = {"a": "p", "b": "q", "c": "p", "d": "q"}
    d = make_dataset(cat={"f": tokens}, label=[y[t] for t in tokens])
    assert imp.pps_importance(d, range(120), seed=0)["f"] >= 0.95


def test_pps_deterministic():
    rng = rng_for(4, "det")
    x = rng.normal(size=60)
    y = x ** 2 + 0.1 * rng.normal(size=60)
    d = make_dataset(num={"f": x}, label=y, task="regression")
    a = imp.pps_importance(d, range(60), seed=11)
    b = imp.pps_importance(d, range(60), seed=11)
    assert a == b


def test_pps_matches_exhaustive_tree_search():
    for seed in range(6):
        rng = rng_for(seed, "oracle-mini")
        n = int(rng.integers(40, 120))
        x = np.round(rng.normal(size=n), 1)
        if seed % 2:
            y = np.sin(x) + 0.2 * rng.normal(size=n)
            d = make_dataset(num={"f": x}, label=y, task="regression")
            n_classes = None
            yv = y
        else:
            yv = (x + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
            d = make_dataset(num={"f": x}, label=[str(v) for v in yv])
            n_classes = 2
        got = imp.pps_importance(d, range(n), seed=7)["f"]
        want = exhaustive_tree_score(x, yv.astype(float) if n_classes is None else yv,
                                     n_classes, seed=7)
        assert abs(got - want) <= 1e-9, f"seed {seed}: {got} vs {want}"


def test_pps_preconditions():
    d = make_dataset(num={"f": [1, 2, 3]}, label=[1, 2, 3], task="regression")
    with pytest.raises(ValueError):
        imp.pps_importance(d, [0, 1, 2], cv_folds=1)
    with pytest.raises(ValueError):
        imp.pps_importance(d, [0, 1], cv_folds=4)


def test_feature_weights_validation():
    with pytest.raises(ValueError):
        imp.FeatureWeights(pearson={"a": 0.5}, pps={"b": 0.5})
    with pytest.raises(ValueError):
        imp.FeatureWeights(pearson={"a": 1.5}, pps={"a": 0.5})
