import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from tabctx import normalize as nz
from tabctx import retrieval as rt
from tabctx.importance import IMPORTANCE_MODES
from conftest import make_dataset
from oracles import random_mixed_dataset, retrieval_oracle


def pool_for(d, rows, cfg, pearson=None, pps=None):
    w = None
    if pearson is not None:
        w = {"pearson": pearson, "pps": pps or pearson}
    return rt.build_pool(d, rows, cfg, weights=w)


def feature_distance(pool, query, feature):
    """One feature's distances from the query to every pool row."""
    values = rt._query_values(pool, [query], feature)
    return rt._feature_distances(pool, feature, values, np.arange(pool.size))[0]


def test_categorical_distance_indicator():
    d = make_dataset(cat={"c": ["red", "blue"]}, label=["a", "b"])
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform")
    pool = rt.build_pool(d, [0, 1], cfg)
    dist = feature_distance(pool, {"c": "red"}, "c")
    assert dist.tolist() == [0.0, 1.0]


def test_numeric_rescale_arithmetic():
    # normalized pool values 0.5/0.0/1.0 against query 0.5: raw [0,.5,.5] -> [0,1,1]
    d = make_dataset(num={"x": [1.0, 0.0, 2.0]}, label=[0, 0, 1], task="regression")
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform", numeric_norm="minmax")
    pool = rt.build_pool(d, [0, 1, 2], cfg)
    dist = feature_distance(pool, {"x": 1.0}, "x")
    assert dist.tolist() == [0.0, 1.0, 1.0]


def test_constant_numeric_column_zero_distance():
    d = make_dataset(num={"x": [3.0, 3.0, 3.0]}, label=[0, 1, 0], task="regression")
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform")
    pool = rt.build_pool(d, [0, 1, 2], cfg)
    assert feature_distance(pool, {"x": 9.0}, "x").tolist() == [0.0, 0.0, 0.0]


def test_missing_numeric_distance_is_one():
    d = make_dataset(num={"x": [1.0, np.nan, 3.0]}, label=[0, 1, 0], task="regression")
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform")
    pool = rt.build_pool(d, [0, 1, 2], cfg)
    dist = feature_distance(pool, {"x": 1.0}, "x")
    assert dist[1] == 1.0
    assert feature_distance(pool, {"x": np.nan}, "x").tolist() == [1.0, 1.0, 1.0]


def test_rescale_off_keeps_raw():
    d = make_dataset(num={"x": [0.0, 10.0]}, label=[0, 1], task="regression")
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = rt.build_pool(d, [0, 1], cfg)
    assert feature_distance(pool, {"x": 4.0}, "x").tolist() == [4.0, 6.0]


def row_distance(per_feature, w):
    D = np.asarray(per_feature, dtype=np.float64)
    squared = D * D
    return rt._row_distances(lambda j: squared[..., j].copy(), D.shape[:-1],
                             [np.asarray(w, dtype=np.float64)])[0]


def test_aggregate_examples():
    assert row_distance([[0.3, 0.4]], [1.0, 1.0])[0] == pytest.approx(0.5, abs=1e-12)
    assert row_distance([[0.0, 0.0]], [1.0, 1.0])[0] == 0.0
    assert row_distance([[0.8, 0.9]], [0.25, 0.0])[0] == pytest.approx(0.4, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20),
       st.floats(0, 5), st.floats(0, 5))
def test_aggregate_bound(rows, w1, w2):
    w = np.asarray([w1, w2])
    agg = row_distance(rows, w)
    assert np.all(agg >= 0)
    assert np.all(agg <= np.sqrt(w.sum()) + 1e-12)


def summed_bits(n_features, shape, seed):
    """The kernel's row distances and ``np.sqrt(np.sum(S * w, axis=-1))`` for
    random squared distances S and two weight vectors, as int64 bits. Values
    span many binades, with exact zeros and ones, so the order of the
    additions shows in the last bits; one weight vector holds -0.0."""
    rng = np.random.default_rng(seed)
    S = rng.random((*shape, n_features)) * 10.0 ** rng.integers(-6, 7, (*shape, n_features))
    S[rng.random(S.shape) < 0.1] = 0.0
    S[rng.random(S.shape) < 0.1] = 1.0
    w = [rng.random(n_features) * 10.0 ** rng.integers(-3, 4, n_features) for _ in range(2)]
    w[1][rng.random(n_features) < 0.2] = -0.0
    asked = []
    got = rt._row_distances(lambda j: asked.append(j) or S[..., j].copy(), shape, w)
    assert sorted(asked) == list(range(n_features))  # each column is made once
    want = [np.sqrt(np.sum(S * v, axis=-1)) for v in w]
    return [g.view(np.int64) for g in got], [x.view(np.int64) for x in want]


@settings(max_examples=80, deadline=None)
@given(n_features=st.integers(1, 300), n_queries=st.integers(1, 3), n_rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(n_features=7, n_queries=1, n_rows=3, seed=0)
@example(n_features=8, n_queries=2, n_rows=3, seed=1)
@example(n_features=128, n_queries=1, n_rows=5, seed=2)
@example(n_features=129, n_queries=2, n_rows=2, seed=3)
@example(n_features=300, n_queries=3, n_rows=4, seed=4)
def test_row_distances_equal_numpy_sum_bits(n_features, n_queries, n_rows, seed):
    got, want = summed_bits(n_features, (n_queries, n_rows), seed)
    assert all(np.array_equal(g, x) for g, x in zip(got, want))


def test_row_distances_equal_numpy_sum_bits_for_every_width():
    for n_features in [*range(301), 512, 1000]:
        got, want = summed_bits(n_features, (2, 3), n_features)
        assert all(np.array_equal(g, x) for g, x in zip(got, want)), n_features


def masked_rescale_reference(raw, rescale):
    """Per-feature distances from the (queries, rows) absolute differences by
    min-max over each query's finite values, with masked reductions; every
    non-finite entry gives 1."""
    raw = raw.copy()
    present = np.isfinite(raw)
    if rescale:
        lo = np.minimum.reduce(raw, axis=1, where=present, initial=np.inf, keepdims=True)
        hi = np.maximum.reduce(raw, axis=1, where=present, initial=-np.inf, keepdims=True)
        with np.errstate(invalid="ignore"):
            raw -= lo
        raw /= np.where(hi > lo, hi - lo, 1.0)
    raw[~present] = 1.0
    return raw


SPECIAL = [np.nan, np.inf, -np.inf, 1.5e308, -1.5e308, 1e308, 0.0, -0.0, 1.0, 2.5, -3.0, 1e-300]


@settings(max_examples=60, deadline=None)
@given(column=st.lists(st.sampled_from(SPECIAL) | st.floats(-1e6, 1e6), min_size=1, max_size=12),
       queries=st.lists(st.sampled_from([None, *SPECIAL]) | st.floats(-1e6, 1e6),
                        min_size=1, max_size=5),
       norm=st.sampled_from(nz.MODES), rescale=st.booleans())
@example(column=[1.5e308, -1.5e308, 0.0, np.nan, np.inf], queries=[1.5e308, np.nan, 1.0, None],
         norm="none", rescale=True)
@example(column=[np.nan, 2.0, np.nan], queries=[np.nan, 0.0], norm="none", rescale=True)
def test_rescale_bounds_equal_masked_reduce(column, queries, norm, rescale):
    d = make_dataset(num={"x": column}, label=np.zeros(len(column)), task="regression")
    cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform", numeric_norm=norm,
                             distance_minmax_rescale=rescale)
    pool = rt.build_pool(d, range(len(column)), cfg)
    block = [{} if v is None else {"x": v} for v in queries]
    with np.errstate(invalid="ignore", over="ignore"):
        qv = nz.apply_array(pool.stats["x"], [np.nan if v is None else v for v in queries])
        raw = np.abs(pool.normalized["x"][None, :] - qv[:, None])
    got = rt._feature_distances(pool, "x", rt._query_values(pool, block, "x"), np.arange(pool.size))
    want = masked_rescale_reference(raw, rescale)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("column, query", [([1.5e308, -1.5e308, 0.0, np.nan, 1.0], -1.5e308),
                                           ([1e160, -1e160, 0.0, 2.0], -1e160)])
@pytest.mark.parametrize("rescale", [True, False])
def test_huge_cells_rank_under_no_normalization(column, query, rescale):
    # the distances overflow a float unless the column is scaled
    d = make_dataset(num={"x": column}, label=np.zeros(len(column)), task="regression")
    cfg = rt.RetrievalConfig(quota=len(column), importance_mode="uniform", numeric_norm="none",
                             distance_minmax_rescale=rescale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = rt.retrieve(rt.build_pool(d, range(len(column)), cfg), {"x": query})
    dist = dict(zip(ctx.indices.tolist(), ctx.distances.tolist()))
    assert dist[1] == 0.0 and dist[0] > dist[2]


@pytest.mark.parametrize("norm", ["standard", "none"])
@pytest.mark.parametrize("mode", ["uniform", "dual"])
def test_far_query_ranks_without_overflow(norm, mode):
    # without the rescale a far query's squared distances overflow a float;
    # every row is then equally far, so the row index breaks the tie
    d = make_dataset(num={"x": [0.0, 1.0, 2.0, 3.0], "y": [0.0, 1.0, 2.0, 3.0]},
                     label=np.zeros(4), task="regression")
    cfg = rt.RetrievalConfig(quota=2, importance_mode=mode, numeric_norm=norm,
                             distance_minmax_rescale=False)
    pool = pool_for(d, range(4), cfg, pearson={"x": 1.0, "y": 1.0})
    near = {"x": 1.0, "y": 2.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for far, capped in (({"x": 1e200}, False), ({"x": 1.7e308, "y": 1.7e308}, True)):
            ctx = rt.retrieve(pool, far)
            assert ctx.indices.tolist() == [0, 1]
            assert np.isfinite(ctx.distances).all() and ctx.distances[0] == ctx.distances[1] > 1e199
            assert (ctx.distances[0] == np.finfo(np.float64).max) == capped
            # a query ranked in the same block keeps the bits it has alone
            [sel] = rt.select_block(pool, [far, near], (2,))
            [alone] = rt.select_block(pool, [near], (2,))
            assert sel.positions[1].tolist() == alone.positions[0].tolist()
            assert sel.distances[1].tobytes() == alone.distances[0].tobytes()


def dual_test_dataset():
    # feature "a" ranks rows 0..15 nearest, feature "b" ranks rows 16..31 nearest
    a = np.concatenate([np.arange(16.0), 1000 + np.arange(16.0)])
    b = np.concatenate([1000 + np.arange(16.0), np.arange(16.0)])
    return make_dataset(num={"a": a, "b": b}, label=np.zeros(32), task="regression")


def test_dual_quota_split_disjoint_rankings():
    d = dual_test_dataset()
    cfg = rt.RetrievalConfig(quota=8, importance_mode="dual", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = pool_for(d, range(32), cfg, pearson={"a": 1.0, "b": 0.0}, pps={"a": 0.0, "b": 1.0})
    ctx = rt.retrieve(pool, {"a": 0.0, "b": 0.0})
    tags = dict(zip(ctx.indices.tolist(), ctx.provenance))
    assert sum(1 for t in ctx.provenance if t == rt.TAG_PEARSON) == 4
    assert sum(1 for t in ctx.provenance if t == rt.TAG_PPS) == 4
    assert all(tags[i] == rt.TAG_PEARSON for i in range(4))
    assert all(tags[i] == rt.TAG_PPS for i in range(16, 20))


def test_dual_identical_rankings_dedup_and_top_up():
    d = make_dataset(num={"a": np.arange(10.0)}, label=np.zeros(10), task="regression")
    cfg = rt.RetrievalConfig(quota=4, importance_mode="dual", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = pool_for(d, range(10), cfg, pearson={"a": 1.0}, pps={"a": 1.0})
    ctx = rt.retrieve(pool, {"a": 0.0})
    assert ctx.indices.tolist() == [0, 1, 2, 3]
    assert ctx.provenance.count(rt.TAG_PEARSON) == 2
    assert ctx.provenance.count(rt.TAG_MERGED) == 2


def test_quota_saturation_returns_everything():
    d = make_dataset(num={"a": [5.0, 1.0, 3.0]}, label=np.zeros(3), task="regression")
    cfg = rt.RetrievalConfig(quota=50, importance_mode="uniform", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = rt.build_pool(d, range(3), cfg)
    ctx = rt.retrieve(pool, {"a": 0.0})
    assert len(ctx) == 3
    assert ctx.indices.tolist() == [1, 2, 0]  # ascending |a - 0|
    with pytest.raises(ValueError, match="quota"):
        rt.retrieve(pool, {"a": 0.0}, 0)


def test_match_constraint_soundness():
    d = make_dataset(num={"x": np.arange(12.0)},
                     cat={"g": ["u", "v"] * 6},
                     label=np.zeros(12), task="regression")
    cfg = rt.RetrievalConfig(quota=4, importance_mode="uniform", match_constraints=("g",))
    pool = rt.build_pool(d, range(12), cfg)
    ctx = rt.retrieve(pool, {"x": 5.0, "g": "v"})
    assert len(ctx) == 4
    assert all(d.column("g")[i] == "v" for i in ctx.indices)


def test_constraint_filtering_can_empty_pool():
    d = make_dataset(cat={"g": ["u", "u"]}, label=["a", "b"])
    cfg = rt.RetrievalConfig(quota=2, importance_mode="uniform", match_constraints=("g",))
    pool = rt.build_pool(d, [0, 1], cfg)
    ctx = rt.retrieve(pool, {"g": "zzz"})
    assert len(ctx) == 0


def test_category_absent_from_pool_rows_matches_none():
    # "w" is a token of the table but of no pool row: it has a code, and no
    # pool row carries it
    d = make_dataset(num={"x": np.arange(8.0)}, cat={"g": ["u", "v"] * 3 + ["w", "w"]},
                     label=np.zeros(8), task="regression")
    assert d.code("g", "w") == 2
    pool = rt.build_pool(d, range(6), rt.RetrievalConfig(quota=3, importance_mode="uniform"))
    assert feature_distance(pool, {"x": 1.0, "g": "w"}, "g").tolist() == [1.0] * 6
    assert len(rt.retrieve(pool, {"x": 1.0, "g": "w"})) == 3
    cfg = rt.RetrievalConfig(quota=3, importance_mode="uniform", match_constraints=("g",))
    assert len(rt.retrieve(rt.build_pool(d, range(6), cfg), {"x": 1.0, "g": "w"})) == 0


def test_pool_keeps_sorted_rows_and_sorts_others():
    d = make_dataset(num={"x": np.arange(8.0)}, label=np.zeros(8), task="regression")
    cfg = rt.RetrievalConfig(quota=3, importance_mode="uniform")
    rows = np.asarray([1, 2, 2, 5])
    assert rt.build_pool(d, rows, cfg).rows is rows
    assert rt.build_pool(d, [5, 2, 1, 2], cfg).rows.tolist() == [1, 2, 2, 5]


def test_match_constraint_must_be_a_categorical_feature():
    d = make_dataset(num={"x": np.arange(6.0)}, cat={"g": ["u", "v"] * 3}, label=np.zeros(6),
                     task="regression")
    for constraints, named in ((("x",), "'x'"), (("g", "h"), "'h'"), (("target",), "'target'")):
        cfg = rt.RetrievalConfig(quota=2, importance_mode="uniform", match_constraints=constraints)
        with pytest.raises(ValueError, match=f"match constraint.*{named}.*not a categorical feature"):
            rt.build_pool(d, range(6), cfg)


def test_self_retrieval_duplicate_row():
    rng = np.random.default_rng(0)
    x = rng.normal(size=30)
    d = make_dataset(num={"x": x}, cat={"c": ["a"] * 30}, label=np.zeros(30), task="regression")
    cfg = rt.RetrievalConfig(quota=3, importance_mode="uniform")
    pool = rt.build_pool(d, range(30), cfg)
    query = {"x": float(x[7]), "c": "a"}
    ctx = rt.retrieve(pool, query)
    assert 7 in ctx.indices.tolist()
    assert ctx.distances[ctx.indices.tolist().index(7)] == 0.0


def test_retrieve_random_determinism():
    rows = np.arange(100, 200)
    a = rt.retrieve_random(rows, 8, seed=5)
    b = rt.retrieve_random(rows, 8, seed=5)
    assert np.array_equal(a.indices, b.indices)
    assert len(set(a.indices.tolist())) == 8
    assert a.indices.tolist() == sorted(a.indices.tolist())
    assert set(a.indices.tolist()) <= set(rows.tolist())
    full = rt.retrieve_random(rows, 200, seed=5)
    assert full.indices.tolist() == rows.tolist()


def test_uniform_mode_reproduces_equal_weight_brute_force():
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=40), rng.normal(size=40)
    d = make_dataset(num={"x1": x1, "x2": x2}, label=np.zeros(40), task="regression")
    cfg = rt.RetrievalConfig(quota=6, importance_mode="uniform", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = rt.build_pool(d, range(40), cfg)
    q = {"x1": 0.3, "x2": -0.2}
    ctx = rt.retrieve(pool, q)
    brute = sorted(range(40), key=lambda i: (np.hypot(x1[i] - 0.3, x2[i] + 0.2), i))[:6]
    assert ctx.indices.tolist() == brute


@pytest.mark.parametrize("mode", ["dual", "pearson_only", "pps_only", "uniform"])
def test_matches_naive_oracle_small(mode):
    for seed in (11, 12, 13):
        d = random_mixed_dataset(seed)
        n = d.n_rows
        rng = np.random.default_rng(seed + 1000)
        train = np.sort(rng.choice(n, size=max(5, int(n * 0.7)), replace=False))
        feats = [c.name for c in d.feature_columns]
        pw = {f: float(rng.uniform(0, 1)) for f in feats}
        sw = {f: float(rng.uniform(0, 1)) for f in feats}
        cfg = rt.RetrievalConfig(quota=int(rng.integers(1, 12)), importance_mode=mode)
        pool = pool_for(d, train, cfg, pearson=pw, pps=sw)
        query = d.feature_row(int(rng.choice([i for i in range(n) if i not in set(train.tolist())] or [0])))
        got = rt.retrieve(pool, query)
        want = retrieval_oracle(d, train, query, cfg, pw, sw)
        assert got.indices.tolist() == [r for r, _, _ in want]
        assert list(got.provenance) == [t for _, _, t in want]
        # a per-call quota overrides only the pool's context size
        quota = int(rng.integers(1, 12))
        got = rt.retrieve(pool, query, quota)
        want = retrieval_oracle(d, train, query, replace(cfg, quota=quota), pw, sw)
        assert got.indices.tolist() == [r for r, _, _ in want]
        assert list(got.provenance) == [t for _, _, t in want]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), mode=st.sampled_from(IMPORTANCE_MODES), constrain=st.booleans(),
       sizes=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       norms=st.lists(st.sampled_from(nz.MODES), max_size=10))
def test_multi_size_retrieve_matches_oracle_at_every_size(seed, mode, constrain, sizes, norms):
    d = random_mixed_dataset(seed, max_rows=60)
    rng = np.random.default_rng(seed)
    n = d.n_rows
    train = np.sort(rng.choice(n, size=max(5, int(n * 0.7)), replace=False))
    feats = [c.name for c in d.feature_columns]
    pw = {f: float(rng.uniform(0, 1)) for f in feats}
    sw = {f: float(rng.uniform(0, 1)) for f in feats}
    constraints = tuple(d.categorical_features[:1]) if constrain else ()
    # per-feature normalization overrides for the leading numerical features
    per_feature = dict(zip(d.numerical_features, norms))
    cfg = rt.RetrievalConfig(importance_mode=mode, match_constraints=constraints,
                             per_feature_norm=per_feature)
    pool = pool_for(d, train, cfg, pearson=pw, pps=sw)
    assert {f: pool.stats[f].mode for f in per_feature} == per_feature
    query = d.feature_row(int(rng.integers(n)))
    sizes = (*sizes, 1, len(train) + 3)  # one row, and more rows than the pool holds
    got = rt.retrieve(pool, query, sizes)
    assert len(got) == len(sizes)
    for size, ctx in zip(sizes, got):
        want = retrieval_oracle(d, train, query, replace(cfg, quota=size), pw, sw)
        assert ctx.indices.tolist() == [r for r, _, _ in want]
        assert list(ctx.provenance) == [t for _, _, t in want]
        assert ctx.distances.tolist() == pytest.approx([v for _, v, _ in want], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mode", ["dual", "uniform"])
def test_ties_at_the_cut_off_break_by_row_index(mode):
    # the 22 pool rows with an even index are identical and tie at distance 0:
    # more rows tie at the cut-off than every context size but the last takes
    x = np.where(np.arange(48) % 2 == 0, 1.0, np.arange(48) + 10.0)
    g = ["u" if i % 2 == 0 else "v" for i in range(48)]
    d = make_dataset(num={"x": x}, cat={"g": g}, label=np.zeros(48), task="regression")
    train = np.arange(3, 48)
    w = {"x": 1.0, "g": 0.5}
    cfg = rt.RetrievalConfig(importance_mode=mode)
    pool = pool_for(d, train, cfg, pearson=w, pps=w)
    query = {"x": 1.0, "g": "u"}
    sizes = (1, 2, 5, 8, 30)
    for size, ctx in zip(sizes, rt.retrieve(pool, query, sizes)):
        want = retrieval_oracle(d, train, query, replace(cfg, quota=size), w, w)
        assert ctx.indices.tolist() == [r for r, _, _ in want]
        assert list(ctx.provenance) == [t for _, _, t in want]
    assert rt.retrieve(pool, query, 5).indices.tolist() == [4, 6, 8, 10, 12]


def test_multi_size_entries_equal_single_size_calls():
    d = random_mixed_dataset(4)
    feats = [c.name for c in d.feature_columns]
    cfg = rt.RetrievalConfig(importance_mode="dual", match_constraints=("cat0",))
    pool = pool_for(d, np.arange(0, d.n_rows, 2), cfg, pearson={f: i / len(feats) for i, f in enumerate(feats)},
                    pps={f: 1.0 / (1 + i) for i, f in enumerate(feats)})
    query = d.feature_row(1)
    for size, ctx in zip((7, 2, 7, 40), rt.retrieve(pool, query, (7, 2, 7, 40))):
        one = rt.retrieve(pool, query, size)
        assert ctx.indices.tolist() == one.indices.tolist()
        assert ctx.distances.tolist() == one.distances.tolist()
        assert ctx.provenance == one.provenance
    with pytest.raises(ValueError, match="quota"):
        rt.retrieve(pool, query, (4, 0))
    with pytest.raises(ValueError, match="quota"):
        rt.retrieve(pool, query, ())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), mode=st.sampled_from(IMPORTANCE_MODES),
       sizes=st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
def test_block_rows_equal_lone_retrieve(seed, mode, sizes):
    d = random_mixed_dataset(seed, max_rows=150)
    rng = np.random.default_rng(seed)
    n = d.n_rows
    train = np.sort(rng.choice(n, size=max(5, int(n * 0.7)), replace=False))
    feats = [c.name for c in d.feature_columns]
    pw = {f: float(rng.uniform(0, 1)) for f in feats}
    sw = {f: float(rng.uniform(0, 1)) for f in feats}
    pool = pool_for(d, train, rt.RetrievalConfig(importance_mode=mode), pearson=pw, pps=sw)
    step = rt.block_size(pool)
    assert step == rt.BLOCK_PAIRS // len(train)
    # rows with missing cells, and a query with no values at all, over a
    # full block and an uneven last one
    queries = [d.feature_row(i % n) for i in range(step + step // 2)] + [{}]
    sizes = (*sizes, len(train) + 3)
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        selections = rt.select_block(pool, block, sizes)
        for i, query in enumerate(block):
            for sel, ctx in zip(selections, rt.retrieve(pool, query, sizes)):
                assert pool.rows[sel.positions[i]].tolist() == ctx.indices.tolist()
                assert sel.distances[i].view(np.int64).tolist() == ctx.distances.view(np.int64).tolist()
                assert tuple(rt.TAGS[t] for t in sel.tags[i]) == ctx.provenance
    with pytest.raises(ValueError, match="block"):
        rt.select_block(pool, queries[:step + 1], sizes)


def test_match_constraints_rank_one_query_per_block():
    d = random_mixed_dataset(4)
    cfg = rt.RetrievalConfig(importance_mode="uniform", match_constraints=("cat0",))
    pool = rt.build_pool(d, np.arange(d.n_rows), cfg)
    assert rt.block_size(pool) == 1
    with pytest.raises(ValueError, match="block"):
        rt.select_block(pool, [d.feature_row(0), d.feature_row(1)], (3,))


def slab_dataset():
    """48 rows: missing cells in "x", an infinite cell in "y" (kept under
    the "none" normalization, so the rescale takes the masked bounds), a
    column "z" that a far query overflows, and two categorical features."""
    rng = np.random.default_rng(5)
    x = np.round(rng.normal(size=48), 1)
    x[rng.random(48) < 0.2] = np.nan
    y = rng.normal(size=48)
    y[[7, 30]] = np.inf, np.nan
    z = rng.normal(size=48) * 1e3
    return make_dataset(num={"x": x, "y": y, "z": z},
                        cat={"g": ["u", "v"] * 24, "c": rng.choice(["a", "b", "c", ""], 48)},
                        label=np.zeros(48), task="regression")


@pytest.mark.parametrize("mode", ["dual", "uniform", "pearson_only"])
@pytest.mark.parametrize("rescale", [True, False])
@pytest.mark.parametrize("constraints", [(), ("g",)])
def test_slab_boundaries_change_no_bit(monkeypatch, mode, rescale, constraints):
    d = slab_dataset()
    train = np.arange(2, 44)
    cfg = rt.RetrievalConfig(importance_mode=mode, distance_minmax_rescale=rescale,
                             match_constraints=constraints,
                             per_feature_norm={"y": "none", "z": "standard"})
    w = {"x": 0.7, "y": 0.2, "z": 1.3, "g": 0.5, "c": 0.9}
    pool = pool_for(d, train, cfg, pearson=w, pps={f: 1.0 / (1 + v) for f, v in w.items()})
    # rows with missing cells, no values at all, a far query (its squares
    # overflow without the rescale), an infinite one, and a token no row holds
    queries = [d.feature_row(i) for i in (0, 1, 7, 30, 45, 46)] + [
        {}, {"x": 1e200, "z": -1e300, "g": "v"}, {"y": np.inf, "g": "u"}, {"g": "zzz", "x": 0.0}]
    sizes = (1, 5, 12, 60)
    step = rt.block_size(pool)
    # the default budget ranks a block of several queries in one slab
    default = []
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        selections = rt.select_block(pool, block, sizes)
        default += [[(sel.positions[i], sel.distances[i], sel.tags[i]) for sel in selections]
                    for i in range(len(block))]
    monkeypatch.setattr(rt, "BLOCK_PAIRS", 6)
    assert -(-len(train) // rt.BLOCK_PAIRS) >= 7 and rt.block_size(pool) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query, want in zip(queries, default):
            for got, (positions, distances, tags) in zip(rt.select_block(pool, [query], sizes), want):
                assert got.positions[0].tolist() == positions.tolist()
                assert got.distances[0].tobytes() == distances.tobytes()
                assert got.tags[0].tolist() == tags.tolist()
    if constraints:  # the "zzz" query has no eligible row
        assert [len(positions) for positions, _, _ in default[-1]] == [0] * len(sizes)


def test_dual_retrieve_peak_stays_a_few_pool_columns():
    # the row distances span the pool; the per-feature columns and running
    # sums span one slab, so the peak does not grow with the feature count
    n = 200_000
    rng = np.random.default_rng(0)
    num = {f"x{i}": rng.normal(size=n) for i in range(12)}
    num["x0"][rng.random(n) < 0.05] = np.nan
    cat = {f"c{j}": rng.choice([f"t{i}" for i in range(3 + 3 * j)], n) for j in range(4)}
    d = make_dataset(num=num, cat=cat, label=np.zeros(n), task="regression")
    feats = [c.name for c in d.feature_columns]
    pool = pool_for(d, np.arange(n), rt.RetrievalConfig(importance_mode="dual", numeric_norm="standard"),
                    pearson={f: 1.0 / (1 + i) for i, f in enumerate(feats)},
                    pps={f: 0.1 * (i + 1) for i, f in enumerate(feats)})
    query = d.feature_row(7)
    rt.retrieve(pool, query, (16, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rt.retrieve(pool, query, (16, 64))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # two row-distance arrays, the partition copies and the merged ranking:
    # about 5.3 arrays of n float64; ranking every row at once took about 12
    assert peak < 6 * 8 * n


def test_row_distances_hold_no_surplus_buffers():
    # the kernel keeps no buffers for reuse, so its peak is the deepest stack of
    # running sums plus one more column: the one being made, or a popped sum
    # still referenced until the next column is made
    n = 100_000
    for n_features in (1, 3, 12, 16, 100, 300):
        vectors = [np.linspace(0.1, 1.0, n_features), np.linspace(1.0, 0.1, n_features)]
        depth = deepest = 0
        for op in rt._summation_order(0, n_features):
            depth += 1 if op is not None else -1
            deepest = max(deepest, depth)
        for n_vectors in (1, 2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sums = rt._row_distances(lambda j: np.full((1, n), 1.0 + j), (1, n),
                                         vectors[:n_vectors])
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(sums) == n_vectors
            # half a column covers the arrays' and lists' own overhead
            assert peak < (deepest * n_vectors + 1.5) * 8 * n, (n_features, n_vectors, peak / (8 * n))


def test_none_categorical_query_is_the_missing_token():
    d = make_dataset(num={"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
                     cat={"g": ["", "None", "u", "", "None", "u"]},
                     label=np.zeros(6), task="regression")
    for constraints in ((), ("g",)):
        cfg = rt.RetrievalConfig(quota=3, importance_mode="uniform", match_constraints=constraints)
        pool = rt.build_pool(d, range(6), cfg)
        assert feature_distance(pool, {"g": None}, "g").tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        a, b = rt.retrieve(pool, {"g": None}), rt.retrieve(pool, {})
        assert a.indices.tolist() == b.indices.tolist()
        assert a.distances.tolist() == b.distances.tolist()
    assert a.indices.tolist() == [0, 3]
    # a None cell in an in-memory Dataset is the missing token too
    d = ds.Dataset([ds.ColumnSchema("g", ds.KIND_CATEGORICAL),
                    ds.ColumnSchema("y", ds.KIND_NUMERICAL, ds.ROLE_LABEL)],
                   {"g": [None, "u", ""], "y": [0.0, 1.0, 2.0]}, ds.TASK_REGRESSION)
    assert d.column("g").tolist() == ["", "u", ""]
    cfg = rt.RetrievalConfig(quota=2, importance_mode="uniform", match_constraints=("g",))
    assert rt.retrieve(rt.build_pool(d, range(3), cfg), {"g": None}).indices.tolist() == [0, 2]


@pytest.mark.parametrize("n_queries", [1, 255, 256, 300])  # uint8 and uint16 query keys
def test_top_orders_as_a_stable_argsort(n_queries):
    rng = np.random.default_rng(n_queries)
    for n_rows in (1, 7, 40):
        # four distinct distances, so most rows tie with others of their query
        distances = rng.choice([0.0, 0.5, 1.0, np.inf], size=(n_queries, n_rows))
        want = np.argsort(distances, axis=1, kind="stable")
        for k in range(1, n_rows + 3):
            assert np.array_equal(rt._top(distances, k), want[:, :k]), (n_rows, k)
