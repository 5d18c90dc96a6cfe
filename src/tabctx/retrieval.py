"""Context-row retrieval over a mixed-type training pool.

Per-feature distances: categorical features use an inequality indicator
over the table's integer codes (the missing token is an ordinary category,
and an absent or ``None`` query value is the missing token; a token the
pool's rows lack matches none of them); numerical features take the
absolute difference of normalized values and are then min-max rescaled per
query across the eligible pool, so the nearest row sits at 0 and the
farthest at 1. A missing numerical value on either side yields distance
1 (degenerate all-missing columns normalize to a constant instead, so
they contribute 0). Feature distances aggregate into a row distance via
``sqrt(sum(d_i^2 * w_i))``.

Selection ranks by the mode's measures (``importance.MEASURES``). Two: the
ceil(quota/2) nearest rows under the Pearson-weighted ranking, plus the
floor(quota/2) nearest under the tree-score ranking minus duplicates, topped
up from a merged ranking (per-row minimum of the two distances) until the
quota or the eligible pool is exhausted. One: its nearest rows, each tagged
``pearson-half`` or ``pps-half``; none: unit weights, tagged ``merged``.
All orderings break ties by (distance, row index). One call ranks the query
once and selects a context for every requested size from the same candidates.

Block ranking: ``select_block`` ranks a block of queries over ``(queries,
rows)`` arrays (distances, per-query rescale, row distances, partial
selection and the dual rule), and ``retrieve`` is its one-query case, so
every query gets the same context whatever block it is ranked in. A block
holds at most ``BLOCK_PAIRS`` (query, pool row) pairs; with match
constraints each query has its own eligible rows, so a block holds one
query.

Slabs: the same budget bounds the rows ranked at once. Eligible rows are
taken in slabs of at most ``BLOCK_PAIRS // queries`` rows; each slab's
feature distances and running sums are made and dropped in turn, and only
the row distances (one ``(queries, rows)`` array per weight vector) span
the pool. Under the min-max rescale a first pass takes each query's bounds
slab by slab (min and max are exact in any order), and the far-query shift
below takes each feature's largest distance slab by slab. Each row's sum is
its own and the rescale is elementwise, so no bit depends on the slabs. A
pool that fits in one slab is ranked in one pass with no bounds pass; so is
every block of several queries, as it holds at most ``BLOCK_PAIRS`` pairs.

Row distances are summed column by column: each feature's ``(queries,
rows)`` squared distances are made once and added into running sums, one
per weight vector, in the order numpy's pairwise summation adds the last
axis of a contiguous array (``_summation_order``). The bits are those of
``np.sqrt(np.sum(S * w, axis=-1))`` over the stacked ``(queries, rows,
features)`` array, which is never built. That order is numpy's, not an API:
``tests/golden.json`` records the numpy version its digests were made
with, and ``tests/test_retrieval.py`` checks the sums against ``np.sum``
bit for bit.

A far query, one whose squared distances overflow a float (possible only
without the min-max rescale), is ranked with its feature distances scaled
by the power of two ``util.headroom`` picks, and its reported
distances are capped at the float maximum. Equal capped distances keep the
row-index order. Queries whose squares are finite keep their bits.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dataset as ds
from . import normalize as nz
from .importance import IMPORTANCE_MODES, MEASURES, pearson_importance, pps_importance
from .util import headroom, rng_for

TAG_PEARSON = "pearson-half"
TAG_PPS = "pps-half"
TAG_MERGED = "merged"
TAGS = (TAG_PEARSON, TAG_PPS, TAG_MERGED)

# The one budget of (query, pool row) pairs that bounds a ranking step: a
# block holds at most this many pairs on a small pool, which amortizes
# per-call overhead over many queries, and a large pool is ranked in slabs of
# at most BLOCK_PAIRS // queries rows, so the per-feature columns and running
# sums stay small; only each weight vector's row distances span every row.
BLOCK_PAIRS = 32768


@dataclass(frozen=True)
class RetrievalConfig:
    quota: int = 128
    importance_mode: str = "dual"
    numeric_norm: str = nz.MODE_QUANTILE
    per_feature_norm: dict = field(default_factory=dict)
    distance_minmax_rescale: bool = True
    match_constraints: tuple[str, ...] = ()

    def __post_init__(self):
        if self.quota < 1:
            raise ValueError("quota must be at least 1")
        if self.importance_mode not in IMPORTANCE_MODES:
            raise ValueError(f"unknown importance mode {self.importance_mode!r}")
        for mode in (self.numeric_norm, *self.per_feature_norm.values()):
            if mode not in nz.MODES:
                raise ValueError(f"unknown normalization mode {mode!r}")
        if isinstance(self.match_constraints, str):  # tuple() would split it into letters
            raise ValueError(f"match_constraints must be a list of feature names, "
                             f"not {self.match_constraints!r}")
        object.__setattr__(self, "match_constraints", tuple(self.match_constraints))


@dataclass(frozen=True)
class RetrievedContext:
    indices: np.ndarray
    distances: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        dist = np.asarray(self.distances, dtype=np.float64)
        if len(idx) != len(set(idx.tolist())):
            raise ValueError("duplicate rows in retrieved context")
        if len(dist) and (not np.all(np.isfinite(dist)) or dist.min() < 0):
            raise ValueError("context distances must be finite and nonnegative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", dist)

    def __len__(self):
        return len(self.indices)


class ContextPool:
    """Immutable retrieval index over the training rows of a dataset. Built by
    ``build_pool``: ``rows`` come sorted, and each categorical feature keeps
    its rows' codes from the dataset (``Dataset.codes``), so a code means the
    same token in the pool, in the query and in the feature weights."""

    def __init__(self, dataset: ds.Dataset, rows: np.ndarray, cfg: RetrievalConfig,
                 stats: dict[str, nz.ColumnStats], weights: dict[str, dict[str, float]]):
        self.dataset = dataset
        self.rows = rows
        self.size = len(rows)
        self.cfg = cfg
        self.stats = stats
        self.weights = weights  # the mode's measures, in MEASURES order
        self.features = [c.name for c in dataset.feature_columns]
        # per feature, the pool rows' normalized numbers or categorical codes
        self.normalized = {name: nz.apply_array(stats[name], dataset.column(name)[rows])
                           for name in dataset.numerical_features}
        self.codes = {name: dataset.codes(name)[rows] for name in dataset.categorical_features}
        # one weight vector per measure; all ones when the mode has none
        self.vectors = ([np.asarray([w[f] for f in self.features]) for w in weights.values()]
                        or [np.ones(len(self.features))])


def build_pool(dataset: ds.Dataset, train_rows, cfg: RetrievalConfig,
               weights: dict[str, dict[str, float]] | None = None) -> ContextPool:
    """Fit normalization stats on the training rows. ``weights``, as
    ``{"pearson": ..., "pps": ...}``, holds scores already fitted on these rows
    (they depend on the rows alone); a measure of ``MEASURES[mode]`` that the
    dict lacks is fitted and added to it. The pool keeps exactly the mode's
    measures. A match constraint must name a categorical feature."""
    rows = np.asarray(train_rows, dtype=np.int64)
    if (rows[1:] < rows[:-1]).any():  # sorted rows are kept as given, not copied
        rows = np.sort(rows)
    if len(rows) == 0:
        raise ValueError("context pool must be non-empty")
    bad = [name for name in cfg.match_constraints if name not in dataset.categorical_features]
    if bad:
        raise ValueError(f"match constraint(s) {', '.join(map(repr, bad))} "
                         f"not a categorical feature")
    stats = nz.fit_stats(dataset, rows, mode=cfg.numeric_norm, overrides=cfg.per_feature_norm)
    weights = {} if weights is None else weights
    measures = MEASURES[cfg.importance_mode]
    for m in measures:
        if m not in weights:  # each fitter is read by its name at call time, which a tracer rebinds
            weights[m] = {"pearson": pearson_importance, "pps": pps_importance}[m](dataset, rows)
    return ContextPool(dataset, rows, cfg, stats, {m: weights[m] for m in measures})


def _query_values(pool: ContextPool, queries: Sequence[dict], feature: str) -> np.ndarray:
    """Each query's value of one feature as the pool holds it: its code for a
    categorical feature, its normalized number for a numerical one."""
    if feature in pool.codes:
        return np.asarray([pool.dataset.code(feature, query.get(feature)) for query in queries])
    raw_q = [query.get(feature, math.nan) for query in queries]
    return nz.apply_array(pool.stats[feature], [math.nan if v is None else float(v) for v in raw_q])


def _gaps(pool: ContextPool, feature: str, values: np.ndarray, rows: np.ndarray | slice
          ) -> np.ndarray:
    """(queries, rows) absolute differences of one numerical feature."""
    with np.errstate(invalid="ignore"):  # inf - inf is a missing distance
        raw = pool.normalized[feature][rows][None, :] - values[:, None]
    return np.abs(raw, out=raw)


def _bounds(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query's (lo, hi) over its present (finite) entries of ``raw``.
    fmin/fmax skip NaN, so they give the masked bounds unless an infinite
    distance reaches hi; then ``raw`` takes the masked reduce."""
    lo = np.fmin.reduce(raw, axis=1, initial=np.inf, keepdims=True)
    hi = np.fmax.reduce(raw, axis=1, initial=-np.inf, keepdims=True)
    if (hi == np.inf).any():
        present = np.isfinite(raw)
        lo = np.minimum.reduce(raw, axis=1, where=present, initial=np.inf, keepdims=True)
        hi = np.maximum.reduce(raw, axis=1, where=present, initial=-np.inf, keepdims=True)
    return lo, hi


def _feature_distances(pool: ContextPool, feature: str, values: np.ndarray,
                       rows: np.ndarray | slice, bounds=None) -> np.ndarray:
    """(queries, rows) distances for one feature; ``values`` come from
    ``_query_values`` and ``rows`` index the pool's rows. Under the min-max
    rescale, ``bounds`` are each query's (lo, hi) over every eligible row,
    or None when ``rows`` are all of them."""
    if feature in pool.codes:
        return (pool.codes[feature][rows][None, :] != values[:, None]).astype(np.float64)
    raw = _gaps(pool, feature, values, rows)
    if not pool.cfg.distance_minmax_rescale:
        raw[~np.isfinite(raw)] = 1.0
        return raw
    # when hi == lo every present value is lo, and (lo - lo) / 1 gives the 0
    lo, hi = _bounds(raw) if bounds is None else bounds
    with np.errstate(invalid="ignore"):  # inf - inf only on missing entries
        raw -= lo
    raw /= np.where(hi > lo, hi - lo, 1.0)
    # a present entry is now in [0, 1] and a missing one NaN or inf, which fmin makes 1
    return np.fmin(raw, 1.0, out=raw)


def _summation_order(lo: int, n: int) -> list[int | None]:
    """numpy's pairwise summation of the terms ``lo .. lo + n - 1`` as a
    postfix program: an int pushes that term, ``None`` replaces the top two
    sums by their sum. Under 8 terms numpy adds in order; up to 128 it keeps
    8 strided lanes, combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    and adds the rest in order; above that it adds two halves split at a
    multiple of 8. Each lane is summed before the next starts."""
    def in_order(terms):
        terms = list(terms)
        return terms[:1] + [x for j in terms[1:] for x in (j, None)]

    if n < 8:
        return in_order(range(lo, lo + n))
    if n <= 128:
        end = lo + n - n % 8
        r = [in_order(range(lo + i, end, 8)) for i in range(8)]
        lanes = (r[0] + r[1] + [None] + r[2] + r[3] + [None, None]
                 + r[4] + r[5] + [None] + r[6] + r[7] + [None, None, None])
        return lanes + [x for j in range(end, lo + n) for x in (j, None)]
    half = n // 2 - n // 2 % 8
    return _summation_order(lo, half) + _summation_order(lo + half, n - half) + [None]


def _row_distances(squared_column, shape: tuple[int, ...], vectors: Sequence[np.ndarray],
                   out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """``sqrt(sum_j S_j * w[j])`` of the given shape for each weight vector
    ``w``, where ``squared_column(j)`` returns a new array of feature ``j``'s
    squared distances; written into ``out`` when given. Each column is made
    once and its terms go into running sums in ``_summation_order``, the
    order ``np.sum(S * w, axis=-1)`` adds a contiguous last axis, so the bits
    are the same, but the stacked ``(..., features)`` array ``S`` is never
    built. No buffer is kept for reuse: each term is a new array but the last
    vector's, which takes the column's buffer, and a popped sum is added into
    the one below it and dropped."""
    *first, last = vectors
    stack: list[list[np.ndarray]] = []
    for op in _summation_order(0, len(last)):
        if op is None:
            for s, t in zip(stack[-2], stack.pop()):
                s += t
        else:
            column = squared_column(op)
            stack.append([column * w[op] for w in first] + [np.multiply(column, last[op], out=column)])
    sums, = stack or [[np.zeros(shape) for _ in vectors]]  # no features: all at distance 0
    out = sums if out is None else out
    for s, o in zip(sums, out):
        s += 0.0  # numpy's sum starts from 0.0, which turns a -0.0 total into 0.0
        np.sqrt(s, out=o)
    return list(out)


def _eligible_rows(pool: ContextPool, query: dict) -> np.ndarray:
    mask = np.ones(pool.size, dtype=bool)
    for name in pool.cfg.match_constraints:
        mask &= pool.codes[name] == pool.dataset.code(name, query.get(name))
    return np.flatnonzero(mask)


def _top(distances: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` nearest rows of each query (one row of ``distances``
    per query), sorted by (distance, position); rows tied with the k-th distance
    are sorted too, as in a full sort. The candidates, in position order, are
    sorted stably by distance, then in a block by query as 8- or 16-bit keys."""
    n_queries, n_rows = distances.shape
    k = min(k, n_rows)
    if k <= 0:
        return np.empty((n_queries, 0), dtype=np.int64)
    cut = np.partition(distances, k - 1, axis=1)[:, k - 1:k]
    candidates = (distances <= cut).ravel().nonzero()[0]
    query, pos = np.divmod(candidates, n_rows)
    order = np.argsort(distances.take(candidates), kind="stable")
    if n_queries > 1:  # a lone query's candidates need no sort by query
        order = order[np.argsort(query[order].astype(np.min_scalar_type(n_queries)), kind="stable")]
    return pos[order][query.searchsorted(np.arange(n_queries))[:, None] + np.arange(k)]


class Selection(NamedTuple):
    """One context size's pick for a block of queries, one row per query:
    ``positions`` index ``pool.rows``, ``tags`` index ``TAGS``; each row is
    sorted by (distance, row index)."""
    positions: np.ndarray
    distances: np.ndarray
    tags: np.ndarray


def block_size(pool: ContextPool) -> int:
    """Most queries ``select_block`` takes at once on this pool: as many as
    fit ``BLOCK_PAIRS`` (query, pool row) pairs, at least one (a larger pool
    is ranked in slabs), and one when match constraints give each query its
    own rows."""
    return 1 if pool.cfg.match_constraints else max(1, BLOCK_PAIRS // pool.size)


def retrieve(pool: ContextPool, query: dict, quota: int | Sequence[int] | None = None
             ) -> RetrievedContext | tuple[RetrievedContext, ...]:
    """Select the supporting rows for the query row. ``quota`` is one
    context size (default ``pool.cfg.quota``) and gives a RetrievedContext,
    or a sequence of sizes and gives a tuple of contexts in that order, all
    selected from one ranking of the pool. Everything else comes from the
    pool's config."""
    single = quota is None or isinstance(quota, (int, np.integer))
    sizes = (pool.cfg.quota if quota is None else int(quota),) if single else tuple(map(int, quota))
    contexts = tuple(RetrievedContext(pool.rows[sel.positions[0]], sel.distances[0],
                                      tuple(TAGS[t] for t in sel.tags[0].tolist()))
                     for sel in select_block(pool, [query], sizes))
    return contexts[0] if single else contexts


def select_block(pool: ContextPool, queries: Sequence[dict], sizes: Sequence[int]
                 ) -> tuple[Selection, ...]:
    """Rank a block of queries, in slabs of rows on a large pool, and select
    a context of every size for each, by the pool's config. A block holds at
    most ``block_size(pool)`` queries."""
    sizes = tuple(sizes)
    if not sizes or min(sizes) < 1:
        raise ValueError("quota must be at least 1")
    if len(queries) > block_size(pool):
        raise ValueError(f"a block holds at most {block_size(pool)} queries on this pool")
    cfg = pool.cfg
    eligible = _eligible_rows(pool, queries[0]) if cfg.match_constraints else np.arange(pool.size)
    n_queries, n_rows = len(queries), len(eligible)
    step = max(1, BLOCK_PAIRS // n_queries)
    slabs = [slice(a, min(a + step, n_rows)) for a in range(0, max(n_rows, 1), step)]

    def pool_rows(slab):
        # every row is eligible without constraints: a slice reads the columns without a copy
        return eligible[slab] if cfg.match_constraints else slab

    values = [_query_values(pool, queries, f) for f in pool.features]
    bounds = [None] * len(pool.features)  # None: taken from the one slab's own distances
    if cfg.distance_minmax_rescale and len(slabs) > 1:
        for j, f in enumerate(pool.features):
            if f in pool.normalized:
                lows, highs = zip(*(_bounds(_gaps(pool, f, values[j], pool_rows(s))) for s in slabs))
                bounds[j] = np.fmin.reduce(lows), np.fmax.reduce(highs)

    def squared_column(j, slab):
        d = _feature_distances(pool, pool.features[j], values[j], pool_rows(slab), bounds[j])
        if shift is not None:
            np.ldexp(d, -shift, out=d)
        return np.multiply(d, d, out=d)

    def row_sums():
        """Each weight vector's (queries, rows) distances, summed slab by slab."""
        if len(slabs) == 1:
            return _row_distances(lambda j: squared_column(j, slabs[0]), (n_queries, n_rows), vectors)
        sums = [np.empty((n_queries, n_rows)) for _ in vectors]
        for slab in slabs:
            _row_distances(lambda j: squared_column(j, slab), (n_queries, slab.stop - slab.start),
                           vectors, [s[:, slab] for s in sums])
        return sums

    def reported(dist):
        """The distances of each query scaled back by its shift, capped at the float maximum."""
        if shift is None:
            return dist
        with np.errstate(over="ignore"):
            return np.minimum(np.ldexp(dist, shift), np.finfo(np.float64).max)

    vectors = pool.vectors
    shift = None
    with np.errstate(over="ignore", invalid="ignore"):  # a far query's squares overflow
        sums = row_sums()
    # rescaled distances are at most 1, so only unrescaled ones can overflow
    if not cfg.distance_minmax_rescale and not all(np.isfinite(s.max(initial=0.0)) for s in sums):
        # rank each far query with its distances scaled by a power of two, which
        # is exact, so that their squares and sums stay finite; other queries keep shift 0
        far = ~(np.max([s.max(axis=1, initial=0.0) for s in sums], axis=0) < np.inf)
        largest = np.max([_feature_distances(pool, f, values[j], pool_rows(s)).max(axis=1, initial=0.0)
                          for j, f in enumerate(pool.features) for s in slabs], axis=0)
        shift = np.where(far, [headroom(0.0, v) for v in largest.tolist()], 0)[:, None]
        sums = row_sums()
    d_primary, d_secondary = sums[0], sums[-1]  # one array for a single ranking
    K = max(sizes)

    block = np.arange(n_queries)[:, None]
    if len(sums) == 1:  # a single ranking takes the tag of its one measure, or merged with none
        tag = TAGS.index({(): TAG_MERGED, ("pearson",): TAG_PEARSON, ("pps",): TAG_PPS}[tuple(pool.weights)])
        top = _top(d_primary, K)
        dist = reported(d_primary[block, top])
        tags = np.full(top.shape, tag, dtype=np.int8)
        return tuple(Selection(eligible[top[:, :s]], dist[:, :s], tags[:, :s]) for s in sizes)

    top_primary = _top(d_primary, (K + 1) // 2)
    top_secondary = _top(d_secondary, K // 2)
    top_merged = None
    out = []
    for s in sizes:
        target = min(s, n_rows)
        pick_p, pick_s = top_primary[:, :(s + 1) // 2], top_secondary[:, :s // 2]
        chosen = np.zeros((n_queries, n_rows), dtype=bool)
        chosen[block, pick_p] = True
        new_s = ~chosen[block, pick_s]
        chosen[block, pick_s] = True
        need = target - pick_p.shape[1] - new_s.sum(axis=1, keepdims=True)
        # columns: the Pearson picks, the PPS picks, then the merged ranking;
        # a column that is not picked gets distance inf
        pos = [pick_p, pick_s]
        dist = [d_primary[block, pick_p], np.where(new_s, d_secondary[block, pick_s], np.inf)]
        if need.any():
            if top_merged is None:
                # depth K is enough: at most len(chosen) of the first `target`
                # merged rows are already chosen
                d_merged = np.minimum(d_primary, d_secondary)
                top_merged = _top(d_merged, K)
            new_m = ~chosen[block, top_merged]
            new_m &= np.cumsum(new_m, axis=1) <= need
            pos.append(top_merged)
            dist.append(np.where(new_m, d_merged[block, top_merged], np.inf))
        pos, dist = np.concatenate(pos, axis=1), np.concatenate(dist, axis=1)
        # exactly `target` columns per query are picked, and they sort first
        order = np.lexsort((pos, dist), axis=1)[:, :target]
        tags = (order >= pick_p.shape[1]).astype(np.int8) + (order >= pick_p.shape[1] + pick_s.shape[1])
        out.append(Selection(eligible[pos[block, order]], reported(dist[block, order]), tags))
    return tuple(out)


def retrieve_random(rows: np.ndarray, quota: int, seed: int) -> RetrievedContext:
    """Baseline policy: uniform sample without replacement from the training
    rows, given sorted as ``build_pool`` keeps them; needs no pool."""
    take = min(quota, len(rows))
    picked = np.sort(rng_for(seed, "random-context").choice(rows, size=take, replace=False))
    return RetrievedContext(picked, np.zeros(take), (TAG_MERGED,) * take)


def context_trace(ctx: RetrievedContext, query_index: int) -> dict:
    return {"query": int(query_index),
            "selected": ctx.indices.tolist(),
            "distances": [float(d) for d in ctx.distances],
            "provenance": list(ctx.provenance)}
