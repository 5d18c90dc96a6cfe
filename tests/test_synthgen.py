from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from tabctx import metrics as mt
from tabctx import normalize as nz
from tabctx import retrieval as rt
from tabctx import synthgen as sg
from tabctx.predictors import knn_predict
from tabctx.importance import IMPORTANCE_MODES
from conftest import make_dataset
from oracles import boundary_grid_reference, nearest_neighbor_index, write_grid_reference


def euclid_config(quota):
    # raw values, no rescale, equal weights: the aggregate distance is Euclidean
    return rt.RetrievalConfig(quota=quota, importance_mode="uniform",
                              numeric_norm="none", distance_minmax_rescale=False)


def test_circle_noiseless_geometry():
    d = sg.generate_toy(sg.ToySpec("circle", 0.0, 16, seed=1))
    r = np.hypot(d.column("x1"), d.column("x2"))
    lab = d.labels()
    assert np.all(np.abs(r[lab == "0"] - 1.0) <= 1e-12)
    assert np.all(np.abs(r[lab == "1"] - 0.5) <= 1e-12)


def test_toy_determinism_and_balance():
    a = sg.generate_toy(sg.ToySpec("moon", 0.2, 16, seed=9))
    b = sg.generate_toy(sg.ToySpec("moon", 0.2, 16, seed=9))
    assert np.array_equal(a.column("x1"), b.column("x1"))
    assert np.array_equal(a.column("x2"), b.column("x2"))
    assert list(a.labels()).count("0") == 8 and list(a.labels()).count("1") == 8


def test_moon_noiseless_on_half_circles():
    d = sg.generate_toy(sg.ToySpec("moon", 0.0, 20, seed=3))
    pts = np.column_stack([d.column("x1"), d.column("x2")])
    lab = d.labels()
    upper = pts[lab == "0"]
    assert np.all(np.abs(np.hypot(upper[:, 0], upper[:, 1]) - 1.0) <= 1e-12)
    lower = pts[lab == "1"]  # satisfies (x-1)^2 + (0.5-y)^2 = 1
    assert np.all(np.abs(np.hypot(lower[:, 0] - 1.0, lower[:, 1] - 0.5) - 1.0) <= 1e-12)


def test_linear_rotation_is_linearly_separable():
    # independent check: a perceptron must reach zero errors on separable data
    for seed in range(4):
        d = sg.generate_toy(sg.ToySpec("linear_rotation", 0.3, 60, seed=seed))
        X = np.column_stack([d.column("x1"), d.column("x2")])
        y = np.where(d.labels() == "1", 1.0, -1.0)
        w = np.zeros(2)
        for _ in range(2000):
            errs = 0
            for xi, yi in zip(X, y):
                if yi * (w @ xi) <= 0:
                    w += yi * xi
                    errs += 1
            if errs == 0:
                break
        assert errs == 0, f"seed {seed} not separable"


def test_toy_spec_validation():
    with pytest.raises(ValueError):
        sg.ToySpec("square", 0.1, 16, 0)
    with pytest.raises(ValueError):
        sg.ToySpec("circle", 1.5, 16, 0)
    with pytest.raises(ValueError):
        sg.ToySpec("circle", 0.1, 1, 0)


def test_all_coordinates_finite():
    for shape in sg.SHAPES:
        d = sg.generate_toy(sg.ToySpec(shape, 0.3, 33, seed=2))
        assert np.all(np.isfinite(d.column("x1"))) and np.all(np.isfinite(d.column("x2")))
        assert list(d.labels()).count("0") == 17  # odd size: class 0 takes the extra


def test_scaling_pools_nested_and_deterministic():
    rows = np.arange(100)
    a = sg.generate_scaling_pools(rows, [16, 64], seed=4)
    b = sg.generate_scaling_pools(rows, [16, 64], seed=4)
    assert set(a[0].tolist()) <= set(a[1].tolist())
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    full = sg.generate_scaling_pools(rows, [100], seed=4)
    assert np.array_equal(full[0], rows)
    with pytest.raises(ValueError):
        sg.generate_scaling_pools(rows, [64, 16], seed=0)
    with pytest.raises(ValueError):
        sg.generate_scaling_pools(rows, [101], seed=0)


def test_noiseless_circle_perfectly_classified():
    train = sg.generate_toy(sg.ToySpec("circle", 0.0, 64, seed=0))
    test = sg.generate_toy(sg.ToySpec("circle", 0.0, 64, seed=1))
    cfg = euclid_config(quota=3)
    pool = rt.build_pool(train, np.arange(train.n_rows), cfg)
    labels, probs = [], []
    for i in range(test.n_rows):
        q = {"x1": float(test.column("x1")[i]), "x2": float(test.column("x2")[i])}
        ctx = rt.retrieve(pool, q)
        rec = knn_predict(ctx, train, None, row_index=i)
        labels.append(test.labels()[i])
        probs.append(rec.class_probabilities)
    assert mt.auroc(labels, probs, train.class_labels) == 1.0


def test_boundary_grid_matches_voronoi_three_points():
    d = sg.generate_toy(sg.ToySpec("linear_rotation", 0.2, 3, seed=5))
    pts = np.column_stack([d.column("x1"), d.column("x2")])
    cfg = euclid_config(quota=1)
    pool = rt.build_pool(d, np.arange(3), cfg)
    grid = sg.boundary_grid(pool, resolution=3)
    xs = np.linspace(grid.x_range[0], grid.x_range[1], 3)
    ys = np.linspace(grid.y_range[0], grid.y_range[1], 3)
    for iy, gy in enumerate(ys):
        for ix, gx in enumerate(xs):
            nn = nearest_neighbor_index(pts, (gx, gy))
            want = tuple(1.0 if c == d.labels()[nn] else 0.0 for c in d.class_labels)
            assert tuple(grid.probabilities[iy, ix]) == want


def test_boundary_grid_margin_and_shape():
    d = sg.generate_toy(sg.ToySpec("circle", 0.0, 16, seed=0))
    cfg = euclid_config(quota=1)
    pool = rt.build_pool(d, np.arange(16), cfg)
    grid = sg.boundary_grid(pool, resolution=(4, 5))
    x = d.column("x1")
    span = x.max() - x.min()
    assert grid.x_range[0] == pytest.approx(x.min() - 0.1 * span)
    assert grid.x_range[1] == pytest.approx(x.max() + 0.1 * span)
    assert grid.probabilities.shape == (5, 4, 2)


def test_boundary_grid_requires_two_numeric_features():
    d = make_dataset(num={"a": [1.0, 2.0]}, label=["x", "y"])
    cfg = euclid_config(quota=1)
    pool = rt.build_pool(d, [0, 1], cfg)
    with pytest.raises(ValueError, match="2 numerical"):
        sg.boundary_grid(pool, resolution=2)
    r = make_dataset(num={"a": [1.0, 2.0, 3.0], "b": [0.0, 1.0, 0.5]}, label=[1.0, 2.0, 3.0],
                     task=ds.TASK_REGRESSION)
    with pytest.raises(ValueError, match="classification"):
        sg.boundary_grid(rt.build_pool(r, [0, 1, 2], cfg), resolution=2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 400), mode=st.sampled_from(IMPORTANCE_MODES),
       norm=st.sampled_from(nz.MODES), rescale=st.booleans(),
       quota=st.sampled_from([1, 2, 3, 8, 15, 500]), nx=st.integers(1, 9), ny=st.integers(1, 9))
# 300 rows give 27-cell blocks, which split the 8-cell grid rows unevenly
@example(seed=1, n=300, mode="dual", norm="quantile", rescale=True, quota=7, nx=8, ny=9)
@example(seed=2, n=300, mode="uniform", norm="none", rescale=False, quota=16, nx=8, ny=9)
def test_boundary_grid_matches_per_cell_reference(seed, n, mode, norm, rescale, quota, nx, ny):
    rng = np.random.default_rng(seed)
    pts = np.round(rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0), 1)
    dups = rng.integers(0, n, size=n // 5)
    pts[(dups + 1) % n] = pts[dups]  # duplicated points tie at every cell
    labels = [str(v) for v in rng.integers(0, 3, size=n)]
    d = make_dataset(num={"x1": pts[:, 0], "x2": pts[:, 1]}, label=labels)
    cfg = rt.RetrievalConfig(quota=quota, importance_mode=mode, numeric_norm=norm,
                             distance_minmax_rescale=rescale)
    pool = rt.build_pool(d, np.arange(n), cfg)
    got = sg.boundary_grid(pool, (nx, ny)).probabilities
    want = boundary_grid_reference(pool, (nx, ny))
    assert got.shape == want.shape == (ny, nx, len(d.class_labels))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_export_files(tmp_path):
    d = sg.generate_toy(sg.ToySpec("circle", 0.1, 12, seed=0))
    cfg = euclid_config(quota=2)
    pool = rt.build_pool(d, np.arange(12), cfg)
    grid = sg.boundary_grid(pool, resolution=4)
    sg.write_grid(grid, tmp_path / "g.csv", tmp_path / "g.json")
    import csv, json
    with open(tmp_path / "g.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "p_0", "p_1"]
    assert len(rows) == 1 + 16
    header = json.loads((tmp_path / "g.json").read_text())
    assert header["resolution"] == [4, 4]


def test_write_grid_matches_the_csv_writer_reference(tmp_path):
    rng = np.random.default_rng(3)
    # repeats, both zeros, 1.0 and reprs in exponent form; cells are told apart by their bytes
    values = np.array([0.0, -0.0, 1.0, 0.25, 1 / 3, 1e-05, 2.5e-300, 7e22])
    probs = rng.choice(values, size=(3, 5, 3))
    probs[0, :2] = probs[0, 2]  # a row with repeated cells
    probs[1, :2] = [[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0]]  # equal cells with different bytes
    grid = sg.BoundaryGrid((-1.5, 2e-07), (0.1, 3.0), (5, 3), ("a,b", 'say "hi"', "c"), probs)
    for g in (grid, replace(grid, probabilities=np.asfortranarray(probs))):
        sg.write_grid(g, tmp_path / "g.csv", tmp_path / "g.json")
        write_grid_reference(g, tmp_path / "ref.csv")
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "g.csv").read_bytes().startswith(b'x,y,"p_a,b","p_say ""hi""",p_c\r\n')
