"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line (visible with ``pytest -s``)
and pins its tolerance and runtime budget as constants. Reference behavior
comes from the independent brute-force implementations in ``oracles.py``.
"""
import csv
import math
import time

import numpy as np
import pytest

from tabctx import cli
from tabctx import dataset as ds
from tabctx import metrics as mt
from tabctx import retrieval as rt
from tabctx import synthgen as sg
from tabctx.importance import pps_importance
from tabctx.predictors import EndpointConfig, LlmClient, PromptTemplate, fit_prompt, knn_predict, serialize_prompt
from tabctx.util import dump_json, rng_for, subseed
from conftest import make_dataset
from llm_stub import stub_server
from oracles import (exhaustive_tree_score, nearest_neighbor_index, pairwise_auroc,
                     random_mixed_dataset, retrieval_oracle)

EXACT = 0.0
TOL_AUROC = 1e-12
TOL_METRIC = 1e-12
TOL_PPS = 1e-9
TOL_POWERLAW_CLEAN = 1e-9
TOL_POWERLAW_NOISY = 0.05
BUDGET_RETRIEVAL_S = 60.0
BUDGET_AUROC_S = 60.0
BUDGET_PPS_S = 120.0
BUDGET_POWERLAW_S = 60.0
BUDGET_SCALING_S = 300.0
BUDGET_ABLATION_S = 120.0


def test_c01_retrieval_matches_brute_force_on_100_datasets():
    start = time.time()
    modes = ("dual", "pearson_only", "pps_only", "uniform")
    norms = ("quantile", "standard", "none")
    checked = 0
    for seed in range(100):
        d = random_mixed_dataset(seed, max_rows=200, max_features=10)
        rng = np.random.default_rng(10_000 + seed)
        n = d.n_rows
        train = np.sort(rng.choice(n, size=max(6, int(n * 0.7)), replace=False))
        holdout = [i for i in range(n) if i not in set(train.tolist())]
        feats = [c.name for c in d.feature_columns]
        pw = {f: float(rng.uniform(0, 1)) for f in feats}
        sw = {f: float(rng.uniform(0, 1)) for f in feats}
        constraints = ()
        cats = d.categorical_features
        if cats and rng.random() < 0.3:
            constraints = (cats[int(rng.integers(len(cats)))],)
        cfg = rt.RetrievalConfig(
            quota=int(rng.integers(1, 41)),
            importance_mode=modes[seed % 4],
            numeric_norm=norms[seed % 3],
            distance_minmax_rescale=bool(seed % 2),
            match_constraints=constraints,
        )
        pool = rt.build_pool(d, train, cfg, weights={"pearson": pw, "pps": sw})
        query = d.feature_row(int(rng.choice(holdout))) if holdout else d.feature_row(0)
        if rng.random() < 0.3 and d.numerical_features:
            query[d.numerical_features[0]] = math.nan
        got = rt.retrieve(pool, query)
        want = retrieval_oracle(d, train, query, cfg, pw, sw)
        assert got.indices.tolist() == [r for r, _, _ in want], f"seed {seed}"
        assert list(got.provenance) == [t for _, _, t in want], f"seed {seed}"
        # distances agree up to summation order inside the weighted norm
        np.testing.assert_allclose(got.distances, [dist for _, dist, _ in want],
                                   rtol=1e-12, atol=1e-300, err_msg=f"seed {seed}")
        checked += 1
    elapsed = time.time() - start
    assert checked == 100 and elapsed < BUDGET_RETRIEVAL_S
    print(f"\nACCEPTANCE 1 PASS: retrieval equals brute-force re-derivation on "
          f"{checked}/100 datasets ({elapsed:.1f}s)")


def test_c02_auroc_matches_pairwise_oracle_on_1000_instances():
    start = time.time()
    rng = rng_for(0, "auroc-instances")
    for i in range(1000):
        n_pos = int(rng.integers(1, 20))
        n_neg = int(rng.integers(1, 20))
        y = [True] * n_pos + [False] * n_neg
        scores = (rng.integers(0, 101, size=n_pos + n_neg) / 100).tolist()
        want = pairwise_auroc(y, scores)
        got = mt.auroc_binary(y, scores)
        assert abs(got - want) <= TOL_AUROC, f"instance {i}"
        transformed = mt.auroc_binary(y, [math.exp(v) - 0.5 for v in scores])
        assert abs(transformed - got) <= TOL_AUROC, f"instance {i} transform"
    elapsed = time.time() - start
    assert elapsed < BUDGET_AUROC_S
    print(f"\nACCEPTANCE 2 PASS: AUROC equals the pairwise win-fraction oracle and is "
          f"monotone-transform invariant on 1000 instances ({elapsed:.1f}s)")


def test_c03_tree_score_matches_exhaustive_search_on_50_datasets():
    start = time.time()
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(40, 301))
        support = np.sort(rng.normal(size=int(rng.integers(5, 51))))
        x = rng.choice(support, size=n)
        if seed % 2:
            y = np.sin(2 * x) + 0.3 * rng.standard_normal(n)
        else:
            y = (x + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
        if rng.random() < 0.3:
            x = x.copy()
            x[rng.random(n) < 0.1] = np.nan
        if seed % 2:
            d = make_dataset(num={"f": x}, label=y, task=ds.TASK_REGRESSION)
            n_classes, yv = None, y
        else:
            d = make_dataset(num={"f": x}, label=[str(v) for v in y])
            n_classes, yv = 2, y
        got = pps_importance(d, range(n), seed=31)["f"]
        want = exhaustive_tree_score(x, yv.astype(float) if n_classes is None else yv,
                                     n_classes, seed=31)
        assert abs(got - want) <= TOL_PPS, f"seed {seed}: {got} vs {want}"
    elapsed = time.time() - start
    assert elapsed < BUDGET_PPS_S
    print(f"\nACCEPTANCE 3 PASS: tree score equals exhaustive quantile-split-tree "
          f"search on 50/50 datasets ({elapsed:.1f}s)")


def test_c04_power_law_round_trip():
    start = time.time()
    sizes = np.logspace(1, 10, 24)
    for seed in range(20):
        rng = rng_for(seed, "plaw-noise")
        alpha = float(rng.uniform(0.25, 2.0)) * (1 if rng.random() < 0.5 else -1)
        d_c = float(10 ** rng.uniform(-2, 2))
        clean = [(float(D), float((d_c / D) ** alpha)) for D in sizes]
        fit = mt.fit_power_law(clean)
        assert abs(fit.alpha - alpha) <= TOL_POWERLAW_CLEAN * max(1.0, abs(alpha))
        assert abs(fit.d_c - d_c) / d_c <= TOL_POWERLAW_CLEAN
        noisy = [(D, L * math.exp(0.01 * rng.standard_normal())) for D, L in clean]
        nfit = mt.fit_power_law(noisy)
        assert abs(nfit.alpha - alpha) / abs(alpha) <= TOL_POWERLAW_NOISY
        assert abs(nfit.d_c - d_c) / d_c <= TOL_POWERLAW_NOISY
    elapsed = time.time() - start
    assert elapsed < BUDGET_POWERLAW_S
    print(f"\nACCEPTANCE 4 PASS: power-law fit inverts 20 noiseless instances exactly "
          f"and noisy ones within 5% ({elapsed:.1f}s)")


def test_c05_scaling_rag_improves_with_pool_size_and_beats_random():
    start = time.time()
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    n_seeds = 10
    rag_err = {s: [] for s in sizes}
    rnd_auroc = {s: [] for s in sizes}
    rag_auroc = {s: [] for s in sizes}
    for seed in range(n_seeds):
        train = sg.generate_toy(sg.ToySpec("circle", 0.1, 4096, seed=seed))
        test = sg.generate_toy(sg.ToySpec("circle", 0.1, 512, seed=1000 + seed))
        subsets = sg.generate_scaling_pools(np.arange(4096), sizes, seed=seed)
        queries = [test.feature_row(i) for i in range(test.n_rows)]
        labels = list(test.labels())
        for size, subset in zip(sizes, subsets):
            cfg = rt.RetrievalConfig(quota=16, importance_mode="dual")
            pool = rt.build_pool(train, subset, cfg)
            probs = [knn_predict(rt.retrieve(pool, q), train, None).class_probabilities
                     for q in queries]
            a = mt.auroc(labels, probs, train.class_labels)
            rag_err[size].append(1.0 - a)
            rag_auroc[size].append(a)
            probs = [knn_predict(rt.retrieve_random(subset, 16, subseed(seed, "rand", size, i)),
                                 train, None).class_probabilities for i in range(test.n_rows)]
            rnd_auroc[size].append(mt.auroc(labels, probs, train.class_labels))

    for a, b in zip(sizes[:-1], sizes[1:]):
        diff = np.asarray(rag_err[b]) - np.asarray(rag_err[a])
        se = float(diff.std(ddof=1) / math.sqrt(n_seeds))
        assert diff.mean() <= se, f"error rose from {a} to {b} beyond one standard error"
    for s in sizes:
        if s >= 256:
            assert np.mean(rag_auroc[s]) >= np.mean(rnd_auroc[s]), f"random won at pool size {s}"
    elapsed = time.time() - start
    assert elapsed < BUDGET_SCALING_S
    print(f"\nACCEPTANCE 5 PASS: retrieval error non-increasing in pool size within one "
          f"standard error and beats random selection at sizes >= 256 ({elapsed:.1f}s)")


def test_c06_dual_quota_split_contract():
    # rankings engineered to be disjoint: feature "a" favors rows 0..127,
    # feature "b" favors rows 128..255
    a = np.concatenate([np.arange(128.0), 100_000 + np.arange(128.0)])
    b = np.concatenate([100_000 + np.arange(128.0), np.arange(128.0)])
    d = make_dataset(num={"a": a, "b": b}, label=np.zeros(256), task=ds.TASK_REGRESSION)
    cfg = rt.RetrievalConfig(quota=128, importance_mode="dual", numeric_norm="none",
                             distance_minmax_rescale=False)
    pool = rt.build_pool(d, range(256), cfg,
                         weights={"pearson": {"a": 1.0, "b": 0.0}, "pps": {"a": 0.0, "b": 1.0}})
    ctx = rt.retrieve(pool, {"a": 0.0, "b": 0.0})
    assert len(ctx) == 128
    by_tag = {}
    for idx, tag in zip(ctx.indices.tolist(), ctx.provenance):
        by_tag.setdefault(tag, set()).add(idx)
    assert by_tag.get(rt.TAG_PEARSON) == set(range(64))
    assert by_tag.get(rt.TAG_PPS) == set(range(128, 192))
    assert rt.TAG_MERGED not in by_tag
    print("\nACCEPTANCE 6 PASS: quota 128 with disjoint rankings selects exactly "
          "64 + 64 rows with correct provenance tags")


def _with_noise_feature(toy: ds.Dataset, scale: float, seed: int) -> ds.Dataset:
    rng = rng_for(seed, "noise-feature")
    schema = [ds.ColumnSchema("x1", ds.KIND_NUMERICAL), ds.ColumnSchema("x2", ds.KIND_NUMERICAL),
              ds.ColumnSchema("junk", ds.KIND_NUMERICAL),
              ds.ColumnSchema("label", ds.KIND_CATEGORICAL, ds.ROLE_LABEL)]
    cols = {"x1": toy.column("x1"), "x2": toy.column("x2"),
            "junk": scale * rng.standard_normal(toy.n_rows), "label": toy.labels()}
    return ds.Dataset(schema, cols, ds.TASK_CLASSIFICATION, ("0", "1"))


def test_c07_feature_weighting_beats_uniform_under_injected_noise():
    start = time.time()
    gaps = []
    for seed in range(10):
        train = _with_noise_feature(sg.generate_toy(sg.ToySpec("circle", 0.1, 512, seed=seed)),
                                    1000.0, seed)
        test = _with_noise_feature(sg.generate_toy(sg.ToySpec("circle", 0.1, 128, seed=500 + seed)),
                                   1000.0, 500 + seed)
        scores = {}
        for mode in ("dual", "uniform"):
            cfg = rt.RetrievalConfig(quota=16, importance_mode=mode)
            pool = rt.build_pool(train, np.arange(train.n_rows), cfg)
            labels, probs = [], []
            for i in range(test.n_rows):
                ctx = rt.retrieve(pool, test.feature_row(i))
                labels.append(test.labels()[i])
                probs.append(knn_predict(ctx, train, None).class_probabilities)
            scores[mode] = mt.auroc(labels, probs, ("0", "1"))
        gaps.append(scores["dual"] - scores["uniform"])
    elapsed = time.time() - start
    assert float(np.mean(gaps)) > 0.0, f"gaps {gaps}"
    assert elapsed < BUDGET_ABLATION_S
    print(f"\nACCEPTANCE 7 PASS: full weighting beats unweighted aggregation under an "
          f"injected large-scale noise feature, mean AUROC gap {np.mean(gaps):+.4f} ({elapsed:.1f}s)")


def test_c08_boundary_grid_reproduces_nearest_neighbor_partition():
    for seed in range(20):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(5, 31))
        pts = rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 3.0))
        labels = [str(int(v)) for v in rng.integers(0, 2, size=n)]
        if len(set(labels)) == 1:
            labels[0] = "1" if labels[0] == "0" else "0"
        d = make_dataset(num={"x1": pts[:, 0], "x2": pts[:, 1]}, label=labels)
        cfg = rt.RetrievalConfig(quota=1, importance_mode="uniform", numeric_norm="none",
                                 distance_minmax_rescale=False)
        pool = rt.build_pool(d, np.arange(n), cfg)
        grid = sg.boundary_grid(pool, resolution=8)
        xs = np.linspace(grid.x_range[0], grid.x_range[1], 8)
        ys = np.linspace(grid.y_range[0], grid.y_range[1], 8)
        for iy, gy in enumerate(ys):
            for ix, gx in enumerate(xs):
                nn = nearest_neighbor_index(pts, (gx, gy))
                want = tuple(1.0 if c == d.labels()[nn] else 0.0 for c in d.class_labels)
                assert tuple(grid.probabilities[iy, ix]) == want, f"seed {seed} cell {ix},{iy}"
    print("\nACCEPTANCE 8 PASS: single-neighbor boundary grids are cell-exact against "
          "the brute-force nearest-neighbor partition on 20 training sets")


def test_c09_metric_contracts():
    assert mt.nmae([1, 3], [1, 3]) == EXACT
    assert abs(mt.nmae([1, 3], [2, 2]) - 0.5) <= TOL_METRIC
    assert abs(mt.nmae([10], [12]) - 0.2) <= TOL_METRIC
    base = mt.nmae([1.0, 3.0, -2.0], [2.0, 2.5, -1.0])
    scaled = mt.nmae([2.0, 6.0, -4.0], [4.0, 5.0, -2.0])
    assert abs(base - scaled) <= TOL_METRIC
    assert mt.minmax_normalize([0.8, 0.9, 1.0]) == [0.0, 0.5, 1.0]
    assert mt.minmax_normalize([0.1, 0.3], higher_better=False) == [1.0, 0.0]
    assert mt.minmax_normalize([0.7, 0.7]) == [1.0, 1.0]
    vals = [0.25, 0.5, 1.0, -0.75]
    moved = [4.0 * v + 3.0 for v in vals]
    for u, v in zip(mt.minmax_normalize(vals), mt.minmax_normalize(moved)):
        assert abs(u - v) <= TOL_METRIC
    print("\nACCEPTANCE 9 PASS: normalized-error arithmetic, scale equivariance, and "
          "min-max affine invariance hold to 1e-12")


def test_c10_cli_reruns_are_byte_identical(tmp_path):
    d = sg.generate_toy(sg.ToySpec("circle", 0.2, 80, seed=4))
    ds.save_table(d, tmp_path / "toy.csv")
    ds.save_schema(d.schema, d.task, tmp_path / "toy.schema.json")
    config = {
        "seed": 11,
        "output_dir": str(tmp_path / "unused"),
        "datasets": [{"id": "toy", "table": str(tmp_path / "toy.csv"),
                      "schema": str(tmp_path / "toy.schema.json"),
                      "split": {"ratios": [0.8, 0.1, 0.1], "seed": 2}}],
        "retrieval": {"importance_mode": "dual"},
        "context_sizes": [4, 8],
        "predictors": [{"id": "knn", "type": "knn"}],
    }
    dump_json(tmp_path / "config.json", config)
    assert cli.main(["run", str(tmp_path / "config.json"), "-o", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", str(tmp_path / "config.json"), "-o", str(tmp_path / "r2")]) == 0
    for fname in ("predictions.csv", "metrics.json"):
        b1 = (tmp_path / "r1" / fname).read_bytes()
        b2 = (tmp_path / "r2" / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between identical runs"
    print("\nACCEPTANCE 10 PASS: identical configs reproduce byte-identical "
          "predictions.csv and metrics.json")


def test_c11_llm_client_conformance():
    features = [f"col{i}" for i in range(6)]
    rows = [({f: float(i * 10 + j) for j, f in enumerate(features)}, "yes" if i % 2 else "no")
            for i in range(128)]
    query = {f: -1.0 for f in features}
    tmpl = PromptTemplate(token_budget=16384)

    a = serialize_prompt(tmpl, rows, query, features, "label")
    b = serialize_prompt(tmpl, rows, query, features, "label")
    assert a.encode("utf-8") == b.encode("utf-8")

    wide_rows = [({f: "v" * 120 for f in features}, "yes") for _ in range(128)]
    full = serialize_prompt(tmpl, wide_rows, query, features, "label")
    assert math.ceil(len(full) / tmpl.chars_per_token) > 16384
    text, used = fit_prompt(tmpl, wide_rows, query, features, "label")
    assert used < 128
    assert math.ceil(len(text) / tmpl.chars_per_token) <= 16384
    with pytest.raises(ValueError, match="budget"):
        fit_prompt(PromptTemplate(token_budget=16), [], {f: "w" * 900 for f in features}, features, "label")

    with stub_server() as (state, url):
        cfg = EndpointConfig(base_url=url, model="stub", retry_backoff=0.01,
                             timeout=5.0, concurrency=4, max_retries=2)
        client = LlmClient(cfg, api_key="k")

        state.script = [(200, "unsure"), (200, "also unsure")]
        rec = client.predict("p", ds.TASK_CLASSIFICATION, ("yes", "no"), 0.0, 0, 4)
        assert rec.class_probabilities == (0.5, 0.5) and rec.flag == "parse_failure"

        state.script = [(200, "roughly 13.5 I think")]
        rec = client.predict("p", ds.TASK_REGRESSION, (), 0.0, 0, 4)
        assert rec.point_estimate == 13.5

        state.script = [(500, "x"), (200, "no")]
        rec = client.predict("p", ds.TASK_CLASSIFICATION, ("yes", "no"), 0.0, 0, 4)
        assert rec.class_probabilities == (0.0, 1.0) and rec.flag is None

        state.script = [(500, "x")] * 6
        rec = client.predict("p", ds.TASK_REGRESSION, (), 7.5, 0, 4)
        assert rec.flag == "transport_error" and rec.point_estimate == 7.5

        state.script = []
        state.default = (200, "yes")
        state.delay = 0.05
        state.max_in_flight = 0
        jobs = [{"prompt": f"p{i}", "task": ds.TASK_CLASSIFICATION, "class_labels": ("yes", "no"),
                 "context_mean": 0.0, "row_index": i, "context_size": 4} for i in range(16)]
        recs = client.predict_many(jobs)
        assert [r.row_index for r in recs] == list(range(16))
        assert 2 <= state.max_in_flight <= 4
    print("\nACCEPTANCE 11 PASS: prompt determinism, 16384-token truncation, parse "
          "fallbacks, retries, and bounded concurrency verified against a stub server")
