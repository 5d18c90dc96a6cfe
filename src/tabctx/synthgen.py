"""Deterministic 2-D toy datasets and decision-boundary grid export.

Shape constructions (constants are fixed here for reproducibility, they are
configuration rather than claims about any external generator):

* circle: class 0 on a radius-1.0 circle, class 1 on a radius-0.5 circle,
  angles evenly spaced, plus isotropic Gaussian noise with stddev = noise.
* moon: two interleaving half circles (the usual two-moons layout) with the
  same noise model.
* linear_rotation: two clusters on either side of a hyperplane through the
  origin whose direction is drawn from the seed. Offsets along the class
  axis keep their sign (the noise term is folded away from the boundary),
  so jitter never flips a label.

``boundary_grid`` gives each grid cell the context ``retrieve`` would give
it and the kNN vote ``knn_predict`` would give that context, but ranks the
cells ``retrieval.block_size(pool)`` at a time and counts the votes of a
whole block at once.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from .predictors import class_shares
from .retrieval import ContextPool, block_size, select_block
from .util import dump_json, rng_for

SHAPES = ("circle", "moon", "linear_rotation")

CIRCLE_OUTER_RADIUS = 1.0
CIRCLE_INNER_RADIUS = 0.5
BLOB_AXIS_OFFSET = 1.0
BLOB_TANGENT_SPREAD = 0.5
GRID_MARGIN = 0.1


@dataclass(frozen=True)
class ToySpec:
    shape: str
    noise: float = 0.0
    n_train: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if self.n_train < 2:
            raise ValueError("need at least 2 points (one per class)")


def _circle_points(n0: int, n1: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    t0 = np.linspace(0, 2 * math.pi, n0, endpoint=False)
    t1 = np.linspace(0, 2 * math.pi, n1, endpoint=False)
    pts = np.concatenate([
        CIRCLE_OUTER_RADIUS * np.column_stack([np.cos(t0), np.sin(t0)]),
        CIRCLE_INNER_RADIUS * np.column_stack([np.cos(t1), np.sin(t1)]),
    ])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return pts + noise * rng.standard_normal(pts.shape), labels


def _moon_points(n0: int, n1: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    t0 = np.linspace(0, math.pi, n0)
    t1 = np.linspace(0, math.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 1.0 - np.sin(t1) - 0.5])
    pts = np.concatenate([upper, lower])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return pts + noise * rng.standard_normal(pts.shape), labels


def _rotated_blob_points(n0: int, n1: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    theta = rng.uniform(0, 2 * math.pi)
    axis = np.array([math.cos(theta), math.sin(theta)])
    tangent = np.array([-axis[1], axis[0]])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    side = np.where(labels == 0, -1.0, 1.0)
    along = side * (BLOB_AXIS_OFFSET + noise * np.abs(rng.standard_normal(n0 + n1)))
    across = BLOB_TANGENT_SPREAD * rng.standard_normal(n0 + n1) + noise * rng.standard_normal(n0 + n1)
    pts = along[:, None] * axis[None, :] + across[:, None] * tangent[None, :]
    return pts, labels


def generate_toy(spec: ToySpec) -> ds.Dataset:
    """Two numerical features x1/x2 and a binary categorical label, balanced
    (class 0 takes the extra point for odd sizes), deterministic per seed."""
    rng = rng_for(spec.seed, "toy", spec.shape)
    n0 = (spec.n_train + 1) // 2
    n1 = spec.n_train - n0
    maker = {"circle": _circle_points, "moon": _moon_points,
             "linear_rotation": _rotated_blob_points}[spec.shape]
    pts, labels = maker(n0, n1, spec.noise, rng)
    schema = [ds.ColumnSchema("x1", ds.KIND_NUMERICAL), ds.ColumnSchema("x2", ds.KIND_NUMERICAL),
              ds.ColumnSchema("label", ds.KIND_CATEGORICAL, ds.ROLE_LABEL)]
    columns = {"x1": pts[:, 0], "x2": pts[:, 1],
               "label": ds.Coded(np.asarray(["0", "1"], dtype=object), labels.astype(np.int32))}
    return ds.Dataset(schema, columns, ds.TASK_CLASSIFICATION, class_labels=("0", "1"))


def generate_scaling_pools(train_rows, sizes, seed: int) -> list[np.ndarray]:
    """Nested training subsets: one seeded shuffle, prefixes per size."""
    rows = np.asarray(train_rows, dtype=np.int64)
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if sizes and sizes[-1] > len(rows):
        raise ValueError(f"size {sizes[-1]} exceeds pool of {len(rows)}")
    perm = rng_for(seed, "scaling-subsets").permutation(rows)
    return [np.sort(perm[:s]) for s in sizes]


@dataclass(frozen=True)
class BoundaryGrid:
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: tuple[int, int]
    class_labels: tuple[str, ...]
    probabilities: np.ndarray  # (ny, nx, n_classes), row-major over (y, x)


def boundary_grid(pool: ContextPool, resolution: int | tuple[int, int] = 100) -> BoundaryGrid:
    """kNN class probabilities at every cell center of a grid covering the
    training bounding box with a 10% margin, with the pool's config and
    quota; needs a classification dataset with exactly 2 numerical features."""
    d = pool.dataset
    feats = d.numerical_features
    if len(feats) != 2 or d.categorical_features:
        raise ValueError("boundary grids need exactly 2 numerical features")
    if d.task != ds.TASK_CLASSIFICATION:
        raise ValueError("boundary grids need a classification dataset")
    fx, fy = feats
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nx, ny = resolution
    if min(nx, ny) < 1:
        raise ValueError(f"resolution must be at least 1 cell per axis, not {min(nx, ny)}")

    def axis_range(name):
        col = d.column(name)[pool.rows]
        lo, hi = float(np.min(col)), float(np.max(col))
        margin = GRID_MARGIN * (hi - lo)
        return lo - margin, hi + margin

    x_range, y_range = axis_range(fx), axis_range(fy)
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    gx, gy = xs.tolist(), ys.tolist()
    labels = d.class_codes[pool.rows]
    probs = np.empty((nx * ny, len(d.class_labels)))
    step = block_size(pool)
    for start in range(0, nx * ny, step):
        # cells are made block by block: a dict per cell for the whole grid
        # at once raised the verb's peak memory by about 2 MB
        cells = [{fx: gx[i % nx], fy: gy[i // nx]} for i in range(start, min(start + step, nx * ny))]
        sel, = select_block(pool, cells, (pool.cfg.quota,))
        probs[start:start + step] = class_shares(labels[sel.positions], len(d.class_labels))
    return BoundaryGrid(x_range, y_range, (nx, ny), d.class_labels, probs.reshape(ny, nx, -1))


def write_grid(grid: BoundaryGrid, csv_path: str | Path, json_path: str | Path) -> None:
    """CSV of (x, y, p_<class>...) cell centers in row-major order plus a JSON
    header with ranges and resolution; plotting happens elsewhere."""
    nx, ny = grid.resolution
    x_text = [repr(v) for v in np.linspace(grid.x_range[0], grid.x_range[1], nx).tolist()]
    ys = np.linspace(grid.y_range[0], grid.y_range[1], ny)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x", "y"] + [f"p_{c}" for c in grid.class_labels])  # labels may need quotes
        for y, row in zip(ys.tolist(), np.ascontiguousarray(grid.probabilities, dtype=np.float64)):
            # one text per distinct cell, told apart by its bytes; float reprs need no quotes
            _, first, inverse = np.unique(row.view((np.void, 8 * row.shape[1])), return_index=True,
                                          return_inverse=True)
            ends = [f",{y!r}," + ",".join(map(repr, c)) + "\r\n" for c in row[first].tolist()]  # csv's "\r\n"
            fh.writelines(map(str.__add__, x_text, [ends[i] for i in inverse.ravel().tolist()]))
    dump_json(json_path, {"x_range": list(grid.x_range), "y_range": list(grid.y_range),
                          "resolution": list(grid.resolution),
                          "class_labels": list(grid.class_labels)})
