import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from tabctx import importance as imp
from tabctx.util import kfold_indices, rng_for, subseed
from conftest import make_dataset
from oracles import (categorical_tree_reference, depth_tables_reference, exhaustive_tree_score,
                     pearson_dense_reference, pps_per_fold_sort_reference,
                     segment_costs_reg_reference)


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


def test_regression_pps_scales_labels_near_the_float_maximum():
    # six labels of 1.7e308 at x = 0.5: the tree costs of the labels as given
    # overflow a float, those of the same table times 2**-524 do not
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=200)
    y = 2.0 * x + rng.normal(scale=0.1, size=200)
    x[:6], y[:6] = 0.5, 1.7e308
    rows = np.arange(200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = imp.pps_importance(make_dataset(num={"x": x}, label=y, task="regression"), rows)
        small = imp.pps_importance(make_dataset(num={"x": x}, label=np.ldexp(y, -524),
                                                task="regression"), rows)
    assert {k: v.hex() for k, v in huge.items()} == {k: v.hex() for k, v in small.items()}


def test_pearson_scale_invariance():
    rng = rng_for(0, "scale")
    x = rng.normal(size=40)
    y = 2 * x + rng.normal(size=40)
    d1 = make_dataset(num={"f": x}, label=y, task="regression")
    d2 = make_dataset(num={"f": 1000.0 * x}, label=y, task="regression")
    w1 = imp.pearson_importance(d1, range(40))["f"]
    w2 = imp.pearson_importance(d2, range(40))["f"]
    assert abs(w1 - w2) <= 1e-12


def test_pearson_of_a_huge_column_equals_its_unscaled_weight():
    # x * 2**600 squares past the float limit; scaled by a power of two it
    # gives x's correlation bit for bit
    rng = rng_for(1, "huge-pearson")
    x = rng.normal(size=60)
    y = x + rng.normal(size=60)
    for task, label in (("regression", y), ("classification", [str(v) for v in y > 0])):
        w = [imp.pearson_importance(make_dataset(num={"f": f}, label=label, task=task), range(60))["f"]
             for f in (x, np.ldexp(x, 600))]
        assert w[0] > 0.5 and w[0].hex() == w[1].hex()


def test_pearson_of_a_huge_label_equals_its_unscaled_weight():
    # labels of about 1.3e154 and more square past the float limit
    rng = rng_for(1, "huge-pearson")
    x = rng.normal(size=60)
    y = x + rng.normal(size=60)
    w, w_exact, w_1e160 = (imp.pearson_importance(make_dataset(num={"f": x}, label=label, task="regression"),
                                                  range(60))["f"]
                           for label in (y, np.ldexp(y, 600), y * 1e160))
    assert w > 0.5 and w_exact.hex() == w.hex()
    assert w_1e160 == pytest.approx(w, rel=1e-12)


def test_pearson_missing_pairs_skipped():
    d = make_dataset(num={"f": [1, np.nan, 3, np.nan]}, label=[1, 9, 3, 9], task="regression")
    assert imp.pearson_importance(d, range(4))["f"] == pytest.approx(1.0, abs=1e-12)


def _pearson_table(task: str, n: int, n_classes: int, absent: bool, huge: bool, seed: int):
    """``n`` training rows, then 5 rows that hold a category the training rows
    lack, and with ``absent`` a class they lack too. Categorical columns hold
    1, 2, 3, 5, 6, 7 and 13 categories; ``gap_class`` is missing on every
    row of class 0."""
    rng = rng_for(seed, "pearson-dense")
    y = rng.integers(0, n_classes, n)
    num = {"full": y + rng.normal(size=n), "const": np.full(n, 3.0),
           "gaps": np.where(rng.random(n) < 0.3, np.nan, y * rng.normal(size=n)),
           "gap_class": np.where(y == 0, np.nan, y + rng.normal(size=n))}
    cat = {}
    for k in (1, 2, 3, 5, 6, 7, 13):
        codes = (y + rng.integers(0, k, n)) % k
        codes[:k] = np.arange(k)
        cat[f"c{k}"] = [f"t{c:02d}" for c in codes]
    num = {name: np.concatenate([v, rng.normal(size=5)]) for name, v in num.items()}
    cat = {name: v + ["zz"] * 5 for name, v in cat.items()}
    if task == "classification":
        label = [f"y{c}" for c in y] + ["absent" if absent else "y0"] * 5
    else:
        label = np.concatenate([y + rng.normal(size=n), np.zeros(5)]) * (2.0 ** 600 if huge else 1.0)
    return make_dataset(num=num, cat=cat, label=label, task=task)


@settings(max_examples=40, deadline=None)
@given(task=st.sampled_from(["classification", "regression"]), n=st.integers(13, 400),
       n_classes=st.integers(1, 7), absent=st.booleans(), huge=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(task="classification", n=60_000, n_classes=3, absent=False, huge=False, seed=0)
def test_pearson_matches_dense_reference(task, n, n_classes, absent, huge, seed):
    # float.hex equality with the whole-matrix formula: the indicator and
    # label operands keep their layout, the square sums their order
    d = _pearson_table(task, n, n_classes, absent, huge, seed)
    got, want = imp.pearson_importance(d, range(n)), pearson_dense_reference(d, range(n))
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_pearson_holds_one_indicator_matrix_at_a_time():
    # transient peak of a 50k-row pool: one 13-column indicator matrix and
    # two label matrices (the shared one and that of a column with gaps); a
    # squared copy of F, a column-selected copy of F or the previous
    # feature's F would each add another indicator matrix
    n, n_classes, k = 50_000, 3, 13
    rng = rng_for(0, "pearson-memory")
    y = rng.integers(0, n_classes, n)
    x = np.where(rng.random(n) < 0.1, np.nan, y + rng.normal(size=n))
    d = make_dataset(num={"x": x}, cat={c: [f"t{v:02d}" for v in (y + rng.integers(0, k, n)) % k]
                                        for c in ("a", "b")},
                     label=[f"y{v}" for v in y])
    budget = n * k * 8 + 2 * n * n_classes * 8 + 2 * 2 ** 20
    imp.pearson_importance(d, range(n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        imp.pearson_importance(d, range(n))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)


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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regression=st.booleans())
def test_pps_matches_per_fold_sort_reference(seed, regression):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 160))
    gappy = rng.normal(size=n)
    gappy[rng.random(n) < 0.3] = np.nan
    cols = {"wide": rng.normal(size=n) * 1e3,
            "tied": np.round(rng.normal(size=n)),  # long runs of equal values
            "gappy": gappy,
            "signed_zero": rng.choice([-0.0, 0.0, 1.0], size=n),  # -0.0 == 0.0 ties
            "one_fold_finite": np.where(np.arange(n) < n // 5, rng.normal(size=n), np.nan)}
    cats = {"token": rng.choice(["a", "b", "c", "d", "e"], size=n)}
    if regression:
        d = make_dataset(num=cols, cat=cats, label=cols["tied"] + rng.normal(size=n), task="regression")
    else:
        d = make_dataset(num=cols, cat=cats, label=[str(v) for v in rng.integers(0, 3, size=n)])
    fold_seed = int(rng.integers(100))
    got = imp.pps_importance(d, range(n), seed=fold_seed)
    want = pps_per_fold_sort_reference(d, range(n), seed=fold_seed)
    assert {k: float.hex(v) for k, v in got.items()} == {k: float.hex(v) for k, v in want.items()}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 5))
def test_classification_pps_matches_per_fold_reference(seed, n_classes):
    # the count tables against one tree per fold on gathered rows; one class
    # only makes the naive F1 1 and every score 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 160))
    table_rows = n + int(rng.integers(0, 20))
    rows = np.sort(rng.choice(table_rows, size=n, replace=False))
    fold_seed = int(rng.integers(100))
    folds = kfold_indices(n, 4, subseed(fold_seed, "pps-folds"))
    labels = rng.integers(0, n_classes, size=table_rows)
    in_fold = [np.isin(np.arange(table_rows), rows[f]) for f in folds]
    gappy = rng.normal(size=table_rows)
    gappy[rng.random(table_rows) < 0.3] = np.nan
    num = {"fold_only": np.where(in_fold[0], rng.normal(size=table_rows), np.nan),  # fold 0 trains on none
           "far_apart": rng.choice([0.0, 1.0, 1e3], size=table_rows),  # empty quantile bins
           "signed_zero": rng.choice([-0.0, 0.0, 1.0], size=table_rows),  # -0.0 == 0.0 ties
           "gappy": gappy,
           "noisy_label": labels + rng.normal(size=table_rows)}
    token = rng.choice(["a", "b", "c", ds.MISSING_TOKEN], size=table_rows).astype(object)
    token[in_fold[1]] = np.where(rng.random(in_fold[1].sum()) < 0.3, "only_in_fold_1", token[in_fold[1]])
    token[rows[0]] = "once"
    cat = {"token": token, "from_label": np.where(rng.random(table_rows) < 0.8, labels, 0)}
    d = make_dataset(num=num, cat=cat, label=[f"y{v}" for v in labels])
    got = imp.pps_importance(d, rows, seed=fold_seed)
    want = pps_per_fold_sort_reference(d, rows, seed=fold_seed)
    assert {k: float.hex(v) for k, v in got.items()} == {k: float.hex(v) for k, v in want.items()}
    if len(set(labels[rows].tolist())) == 1:
        assert set(got.values()) == {0.0}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


# few distinct values force heavy label ties; wide floats exercise the even-size mean
labels_strategy = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=80),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=80))


@settings(max_examples=200, deadline=None)
@given(labels_strategy, st.lists(st.integers(0, 80), max_size=10))
@example([-0.0], [])  # np.median gives 0.0
@example([-0.0, -0.0, 1.0, -0.0], [2])
@example([-5e-324, -0.0], [])  # np.median gives -0.0
def test_segment_costs_match_per_segment_median(labels, cuts):
    # odd and even segment sizes, and empty segments from repeated boundaries
    y = np.asarray(labels, dtype=np.float64)
    pos = np.asarray(sorted([0, len(y)] + [min(c, len(y)) for c in cuts]), dtype=np.int64)
    got = imp._segment_costs_reg(y, pos)
    want = segment_costs_reg_reference(y, pos)
    assert np.array_equal(_bits(got), _bits(want))
    medians = imp._segment_costs_fast(y, pos)[2]
    for i, j in zip(*np.triu_indices(len(pos), 1)):
        if pos[j] > pos[i]:
            assert _bits(medians[i, j]) == _bits(np.median(y[pos[i]:pos[j]]))


def test_segment_costs_on_a_large_tied_fold():
    rng = rng_for(5, "seg-ties")
    x = np.round(rng.normal(size=3000), 1)
    y = np.round(rng.normal(size=3000), 1)
    order = np.argsort(x, kind="stable")
    pos = np.concatenate([[0], np.searchsorted(x[order], imp.quantile_candidates(x), side="right"),
                          [len(x)]]).astype(np.int64)
    got = imp._segment_costs_reg(y[order], pos)
    assert np.array_equal(_bits(got), _bits(segment_costs_reg_reference(y[order], pos)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_categorical_tree_matches_token_reference(data):
    # the vocabulary may hold the missing token; a category can be absent from
    # the training rows yet present in the pool codes
    vocab = data.draw(st.lists(st.sampled_from([ds.MISSING_TOKEN, "a", "b", "c", "d", "e", "f"]),
                               min_size=1, max_size=7, unique=True))
    tokens = np.asarray(data.draw(st.lists(st.sampled_from(vocab), min_size=2, max_size=50)),
                        dtype=object)
    n = len(tokens)
    n_classes = data.draw(st.sampled_from([None, 2, 3]))
    if n_classes is None:
        y = np.asarray(data.draw(st.lists(st.integers(-2, 2).map(float) | st.floats(-100, 100),
                                          min_size=n, max_size=n)))
    else:
        y = np.asarray(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)),
                       dtype=np.int64)
    train = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    train[data.draw(st.integers(0, n - 1))] = True
    lookup, codes = np.unique(tokens, return_inverse=True)
    yt = y[train]
    if n_classes is None:
        by_code = imp._categorical_reg(codes[train], yt, len(lookup))
    else:
        by_code = imp._categorical_cls(np.bincount(codes[train] * n_classes + yt,
                                                   minlength=len(lookup) * n_classes
                                                   ).reshape(len(lookup), n_classes))
    # no tree value equals this fallback: the rest leaf never empties
    reference = categorical_tree_reference(tokens[train], yt, n_classes,
                                           math.nan if n_classes is None else -1)
    want = [reference(t) for t in lookup]
    if n_classes is None:
        assert np.array_equal(_bits(by_code), _bits(want))
    else:
        assert by_code.tolist() == want


def test_pps_categorical_matches_reference_tree():
    for seed in range(8):
        rng = rng_for(seed, "cat-oracle")
        n = int(rng.integers(30, 90))
        vocab = [ds.MISSING_TOKEN, "a", "b", "c", "d", "e"][: int(rng.integers(2, 7))]
        tokens = np.asarray([vocab[i] for i in rng.integers(0, len(vocab), n)], dtype=object)
        tokens[0] = "rare"  # one row only: absent from the training rows of its fold
        effect = {t: float(rng.normal()) for t in set(tokens.tolist())}
        score = np.asarray([effect[t] for t in tokens]) + 0.5 * rng.normal(size=n)
        if seed % 2:
            y = np.round(score, 1)
            d = make_dataset(cat={"f": tokens}, label=y, task="regression")
            n_classes = None
        else:
            y = (score > 0).astype(np.int64)
            d = make_dataset(cat={"f": tokens}, label=[str(v) for v in y])
            n_classes = 2
            y = np.asarray([d.class_labels.index(str(v)) for v in y], dtype=np.int64)
        got = imp.pps_importance(d, range(n), seed=3)["f"]
        want = exhaustive_tree_score(tokens, y, n_classes, seed=3)
        assert abs(got - want) <= 1e-9, f"seed {seed}: {got} vs {want}"


def test_weights_ignore_categories_absent_from_training_rows():
    # the table's vocabulary holds tokens that only the other rows carry
    # ("aa" sorts before the training tokens, "zz" after); the scores equal,
    # bit for bit, those of a table of the training rows alone
    for seed in range(4):
        rng = rng_for(seed, "absent-categories")
        n, n_train = 90, 60
        tokens = np.asarray([f"t{i}" for i in rng.integers(0, 4, n)], dtype=object)
        tokens[n_train:][rng.random(n - n_train) < 0.5] = "aa"
        tokens[n_train::7] = "zz"
        x = rng.normal(size=n)
        for task in ("classification", "regression"):
            label = ([str(v) for v in rng.integers(0, 3, n)] if task == "classification"
                     else np.round(rng.normal(size=n), 1))
            full = make_dataset(num={"x": x}, cat={"f": tokens}, label=label, task=task)
            alone = ds.Dataset(full.schema, {"x": x[:n_train], "f": tokens[:n_train],
                                             "target": np.asarray(label)[:n_train]},
                               task, class_labels=full.class_labels)
            assert len(full.vocabulary("f")) > len(alone.vocabulary("f"))
            rows = np.arange(n_train)
            for score in (imp.pearson_importance, lambda d, r: imp.pps_importance(d, r, seed=seed)):
                got, want = score(full, rows), score(alone, rows)
                assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_pps_preconditions():
    d = make_dataset(num={"f": [1, 2, 3]}, label=[1, 2, 3], task="regression")
    with pytest.raises(ValueError):
        imp.pps_importance(d, [0, 1, 2], cv_folds=1)
    with pytest.raises(ValueError):
        imp.pps_importance(d, [0, 1], cv_folds=4)


def _exact_only():
    """Patch that sends every regression tree down the exact-cost path: no
    decision wins by more than an infinite error bound."""
    fast = imp._segment_costs_fast

    def infinite_bound(y_sorted, pos):
        C, _, medians = fast(y_sorted, pos)
        return C, np.inf, medians

    return mock.patch.object(imp, "_segment_costs_fast", infinite_bound)


def _mirror_case(half_labels, half_cuts):
    """Labels and cuts symmetric about the middle, with an even number of
    boundaries (each cut in 1 .. h - 1 of the first half is mirrored):
    whatever the root decides, its mirror image costs exactly the same
    (integer labels add exactly)."""
    h = len(half_labels)
    y = np.concatenate([half_labels, half_labels[::-1]]).astype(np.float64)
    cuts = sorted(set(half_cuts) | {2 * h - c for c in half_cuts})
    xs = np.arange(2 * h, dtype=np.float64)
    return xs, y, xs[np.asarray(cuts, dtype=np.int64) - 1]


@st.composite
def regression_trees(draw):
    """(xs, y, thresholds, tied): a ``_reg_tree`` input; ``tied`` marks the
    families whose exact costs tie on the decision path."""
    family = draw(st.sampled_from(["tied", "constant", "duplicated", "mirror", "offset"]))
    if family == "mirror":
        h = draw(st.integers(2, 40))
        half = np.asarray(draw(st.lists(st.integers(-3, 3), min_size=h, max_size=h)))
        return *_mirror_case(half, draw(st.lists(st.integers(1, h - 1), min_size=1, max_size=12))), True
    n = draw(st.integers(2, 120))
    x = np.asarray(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)), dtype=np.float64)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if family == "tied":
        y = rng.integers(-3, 4, size=n).astype(np.float64)
    elif family == "constant":
        y = np.full(n, draw(st.floats(-1e6, 1e6, allow_nan=False)))
    elif family == "duplicated":
        y = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
    else:
        y = 1e6 + 1e-3 * rng.normal(size=n)
    order = np.argsort(x, kind="stable")
    return x[order], y[order], imp.quantile_candidates(x), family == "constant"


@settings(max_examples=300, deadline=None)
@given(regression_trees())
def test_numeric_tree_equals_exact_cost_tree(case):
    xs, y, thresholds, tied = case
    fallback = float(np.median(y))
    with mock.patch.object(imp, "_segment_costs_reg", wraps=imp._segment_costs_reg) as exact:
        got = imp._reg_tree(xs, y, thresholds, fallback)
    with _exact_only():
        want = imp._reg_tree(xs, y, thresholds, fallback)
    assert np.array_equal(_bits(got), _bits(want))
    if tied:
        assert exact.call_count == 1


@settings(max_examples=200, deadline=None)
@given(labels_strategy | st.lists(st.floats(-1e-3, 1e-3).map(lambda v: 1e6 + v), min_size=1, max_size=80),
       st.lists(st.integers(0, 80), max_size=10))
def test_fast_segment_costs_within_their_bound(labels, cuts):
    y = np.asarray(labels, dtype=np.float64)
    pos = np.asarray(sorted([0, len(y)] + [min(c, len(y)) for c in cuts]), dtype=np.int64)
    fast, bound, _ = imp._segment_costs_fast(y, pos)
    exact = imp._segment_costs_reg(y, pos)
    assert np.array_equal(np.isinf(fast), np.isinf(exact))
    finite = np.isfinite(exact)
    assert np.all(np.abs(fast[finite] - exact[finite]) <= bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 52), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_tree_from_partial_tables_equals_full_dp(bins, seed, regression, use_bound):
    # cost matrices as the fitters make them: regression costs from the rank
    # tables with their error bound, and tie-heavy integer class-count costs;
    # the root reads only row 0 and the last column of the last table
    rng = np.random.default_rng(seed)
    if regression:
        n = int(rng.integers(bins, 8 * bins + 1))
        y = np.round(rng.normal(size=n), 1)
        pos = np.concatenate([[0], np.sort(rng.integers(0, n + 1, bins - 1)), [n]]).astype(np.int64)
        C, bound, _ = imp._segment_costs_fast(y, pos)
    else:
        counts = rng.integers(0, 3, (bins, 3))
        cum = np.zeros((bins + 1, 3), dtype=np.int64)
        np.cumsum(counts, axis=0, out=cum[1:])
        C, bound = imp._segment_costs_cls(cum), 0.25
    bound = bound if use_bound else None
    tables = imp._depth_tables(C)
    want = depth_tables_reference(C, imp.TREE_DEPTH)
    assert len(tables) == imp.TREE_DEPTH
    for got, full in zip(tables[:-1], want):
        assert np.array_equal(got, full)
    assert np.array_equal(tables[-1][0], want[-2][0])
    assert np.array_equal(tables[-1][:, -1], want[-2][:, -1])
    assert imp._boundaries(C, tables, bound) == imp._boundaries(C, want, bound)


def test_mirror_case_ties_at_the_root():
    xs, y, thresholds = _mirror_case(np.array([0, 3, -1, 2, 2, 0]), [2, 4])
    pos = np.concatenate([[0], np.searchsorted(xs, thresholds, side="right"), [len(xs)]])
    assert pos.tolist() == [0, 2, 4, 8, 10, 12]
    C = imp._segment_costs_reg(y, pos)
    assert C[0, 1] == C[4, 5] and C[0, 3] == C[2, 5]


def test_pps_fast_costs_match_exact_costs_bit_for_bit():
    # relevant and noise features as in the llm-reg benchmark table
    rng = rng_for(7, "reg-table")
    n = 3000
    X = rng.uniform(-1.0, 1.0, size=(n, 8))
    y = (10.0 + 3.0 * np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 + X[:, 2] * X[:, 3] + 0.5 * X[:, 4]
         + 0.1 * rng.normal(size=n))
    d = make_dataset(num={f"x{j}": X[:, j] for j in range(8)}, label=y, task="regression")
    rows = rng.permutation(n)[:2500]
    with mock.patch.object(imp, "_segment_costs_reg", wraps=imp._segment_costs_reg) as exact:
        got = imp.pps_importance(d, rows, seed=5)
    assert exact.call_count == 0  # no decision on this table is close
    with _exact_only():
        want = imp.pps_importance(d, rows, seed=5)
    assert {k: float.hex(v) for k, v in got.items()} == {k: float.hex(v) for k, v in want.items()}
    assert got["x0"] > 0.5
