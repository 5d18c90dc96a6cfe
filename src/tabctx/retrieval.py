"""Context-row retrieval over a mixed-type training pool.

Per-feature distances: categorical features use an inequality indicator
over integer codes (the missing token is an ordinary category, and an absent
or ``None`` query value is the missing token); numerical features take the
absolute difference of normalized values and are then min-max rescaled per
query across the eligible pool, so the nearest row sits at 0 and the
farthest at 1. A missing numerical value on either side yields distance
1 (degenerate all-missing columns normalize to a constant instead, so
they contribute 0). Feature distances aggregate into a row distance via
``sqrt(sum(d_i^2 * w_i))``.

Dual-importance selection: the ceil(quota/2) nearest rows under the
Pearson-weighted ranking, plus the floor(quota/2) nearest under the
tree-score ranking minus duplicates, topped up from a merged ranking
(per-row minimum of the two distances) until the quota or the eligible
pool is exhausted. All orderings break ties by (distance, row index).
One call ranks the query once and selects a context for every requested
size from the same candidates.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import dataset as ds
from . import normalize as nz
from .importance import IMPORTANCE_MODES, FeatureWeights, pearson_importance, pps_importance
from .util import rng_for

TAG_PEARSON = "pearson-half"
TAG_PPS = "pps-half"
TAG_MERGED = "merged"


@dataclass(frozen=True)
class RetrievalConfig:
    quota: int = 128
    importance_mode: str = "dual"
    numeric_norm: str = nz.MODE_QUANTILE
    per_feature_norm: dict = field(default_factory=dict)
    distance_minmax_rescale: bool = True
    match_constraints: tuple[str, ...] = ()
    pps_folds: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.quota < 1:
            raise ValueError("quota must be at least 1")
        if self.importance_mode not in IMPORTANCE_MODES:
            raise ValueError(f"unknown importance mode {self.importance_mode!r}")
        if self.numeric_norm not in nz.MODES:
            raise ValueError(f"unknown normalization mode {self.numeric_norm!r}")
        for mode in self.per_feature_norm.values():
            if mode not in nz.MODES:
                raise ValueError(f"unknown normalization mode {mode!r}")
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
    ``build_pool``: ``rows`` come sorted, and ``codes`` are over those rows."""

    def __init__(self, dataset: ds.Dataset, rows: np.ndarray, cfg: RetrievalConfig,
                 stats: dict[str, nz.ColumnStats],
                 pearson_weights: dict[str, float] | None,
                 pps_weights: dict[str, float] | None,
                 codes: dict[str, tuple[dict[str, int], np.ndarray]]):
        self.dataset = dataset
        self.rows = rows
        self.cfg = cfg
        self.stats = stats
        self.pearson_weights = pearson_weights
        self.pps_weights = pps_weights
        self.features = [c.name for c in dataset.feature_columns]
        self.feature_kinds = {c.name: c.kind for c in dataset.feature_columns}
        self._norm_cols = {}
        for name in dataset.numerical_features:
            self._norm_cols[name] = nz.apply_array(stats[name], dataset.column(name)[self.rows])
        # per categorical feature: token -> code map, and the code of each pool row
        self._code_of = {name: lookup for name, (lookup, _) in codes.items()}
        self._codes = {name: c for name, (_, c) in codes.items()}

    @property
    def size(self) -> int:
        return len(self.rows)

    def normalized(self, feature: str) -> np.ndarray:
        return self._norm_cols[feature]

    def codes(self, feature: str) -> np.ndarray:
        return self._codes[feature]

    def query_code(self, query: dict, feature: str) -> int:
        """Code of the query's token for a categorical feature. An absent or
        ``None`` value is the missing token; a token the pool never saw is -1,
        which matches no row."""
        return self._code_of[feature].get(ds.category_token(query.get(feature)), -1)

    def weight_vectors(self) -> tuple[np.ndarray, np.ndarray | None]:
        mode = self.cfg.importance_mode
        if mode == "uniform":
            return np.ones(len(self.features)), None
        if mode == "pearson_only":
            return np.asarray([self.pearson_weights[f] for f in self.features]), None
        if mode == "pps_only":
            return np.asarray([self.pps_weights[f] for f in self.features]), None
        return (np.asarray([self.pearson_weights[f] for f in self.features]),
                np.asarray([self.pps_weights[f] for f in self.features]))

    def train_label_mean(self) -> float:
        return float(np.mean(np.asarray(self.dataset.labels()[self.rows], dtype=np.float64)))


def build_pool(dataset: ds.Dataset, train_rows, cfg: RetrievalConfig,
               weights: FeatureWeights | None = None) -> ContextPool:
    """Fit normalization stats and importance weights on the training rows.
    Only the measures the config's mode consumes are computed; pass
    ``weights`` to reuse precomputed scores."""
    rows = np.sort(np.asarray(train_rows, dtype=np.int64))
    if len(rows) == 0:
        raise ValueError("context pool must be non-empty")
    stats = nz.fit_stats(dataset, rows, mode=cfg.numeric_norm, overrides=cfg.per_feature_norm)
    codes = {name: ds.category_codes(dataset.column(name)[rows].tolist())
             for name in dataset.categorical_features}
    pearson = pps = None
    if weights is not None:
        pearson, pps = dict(weights.pearson), dict(weights.pps)
    else:
        mode = cfg.importance_mode
        cat_codes = {name: c for name, (_, c) in codes.items()}
        if mode in ("dual", "pearson_only"):
            pearson = pearson_importance(dataset, rows, cat_codes)
        if mode in ("dual", "pps_only"):
            pps = pps_importance(dataset, rows, cv_folds=cfg.pps_folds, seed=cfg.seed, codes=cat_codes)
    return ContextPool(dataset, rows, cfg, stats, pearson, pps, codes)


def feature_distance(pool: ContextPool, query: dict, feature: str,
                     eligible: np.ndarray | None = None) -> np.ndarray:
    """Distance vector from the query to every (eligible) pool row for one feature."""
    if feature not in pool.feature_kinds:
        raise KeyError(f"unknown feature {feature!r}")
    rows = slice(None) if eligible is None else eligible

    if pool.feature_kinds[feature] == ds.KIND_CATEGORICAL:
        return (pool.codes(feature)[rows] != pool.query_code(query, feature)).astype(np.float64)

    qraw = query.get(feature, math.nan)
    qv = nz.apply(pool.stats[feature], float(qraw) if qraw is not None else math.nan)
    raw = np.abs(pool.normalized(feature)[rows] - qv)
    present = np.isfinite(raw)
    vals = raw[present]
    if len(vals) and pool.cfg.distance_minmax_rescale:
        lo, hi = vals.min(), vals.max()
        vals = np.zeros(len(vals)) if hi == lo else (vals - lo) / (hi - lo)
    out = np.ones(len(raw))
    out[present] = vals
    return out


def aggregate(per_feature: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row distance: sqrt of the weighted sum of squared feature distances."""
    D = np.asarray(per_feature, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if D.ndim != 2 or D.shape[1] != len(w):
        raise ValueError(f"distance matrix has {D.shape[1] if D.ndim == 2 else '?'} columns, "
                         f"weights have {len(w)}")
    if len(w) and w.min() < 0:
        raise ValueError("weights must be nonnegative")
    return _row_distance(D * D, w)


def _row_distance(squared: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Summed along the rows of a C-contiguous (rows, features) array: another
    # layout or a matrix product adds in another order and changes the bits.
    return np.sqrt(np.sum(squared * w[None, :], axis=1))


def _eligible_rows(pool: ContextPool, query: dict, constraints) -> np.ndarray:
    mask = np.ones(pool.size, dtype=bool)
    for name in constraints:
        if pool.feature_kinds.get(name) != ds.KIND_CATEGORICAL:
            raise KeyError(f"match constraint {name!r} is not a categorical feature")
        mask &= pool.codes(name) == pool.query_code(query, name)
    return np.flatnonzero(mask)


def _top(distances: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` nearest rows, sorted by (distance, row index).
    Every row tied with the k-th distance is sorted too, so the row index
    breaks ties at the cut-off as a full sort would."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k < len(distances):
        cut = np.partition(distances, k - 1)[k - 1]
        candidates = np.flatnonzero(distances <= cut)
    else:
        candidates = np.arange(len(distances))
    return candidates[np.lexsort((rows[candidates], distances[candidates]))][:k]


def retrieve(pool: ContextPool, query: dict, quota: int | Sequence[int] | None = None
             ) -> RetrievedContext | tuple[RetrievedContext, ...]:
    """Select the supporting rows for the query row. ``quota`` is one
    context size (default ``pool.cfg.quota``) and gives a RetrievedContext,
    or a sequence of sizes and gives a tuple of contexts in that order, all
    selected from one ranking of the pool. Everything else comes from the
    pool's config."""
    single = quota is None or isinstance(quota, (int, np.integer))
    sizes = (pool.cfg.quota if quota is None else int(quota),) if single else tuple(map(int, quota))
    if not sizes or min(sizes) < 1:
        raise ValueError("quota must be at least 1")
    contexts = _select(pool, query, sizes)
    return contexts[0] if single else contexts


def _select(pool: ContextPool, query: dict, sizes: tuple[int, ...]) -> tuple[RetrievedContext, ...]:
    cfg = pool.cfg
    eligible = _eligible_rows(pool, query, cfg.match_constraints)
    if len(eligible) == 0:
        return (RetrievedContext(np.empty(0, dtype=np.int64), np.empty(0), ()),) * len(sizes)
    rows = pool.rows[eligible]

    D = (np.column_stack([feature_distance(pool, query, f, eligible) for f in pool.features])
         if pool.features else np.zeros((len(rows), 0)))
    squared = D * D
    del D  # only the squares are used from here on; freeing D lowers the peak memory
    w_primary, w_secondary = pool.weight_vectors()
    d_primary = _row_distance(squared, w_primary)
    K = max(sizes)

    if cfg.importance_mode != "dual":
        tag = {"pearson_only": TAG_PEARSON, "pps_only": TAG_PPS, "uniform": TAG_MERGED}[cfg.importance_mode]
        order = _top(d_primary, rows, K)
        return tuple(RetrievedContext(rows[order[:s]], d_primary[order[:s]], (tag,) * min(s, len(order)))
                     for s in sizes)

    d_secondary = _row_distance(squared, w_secondary)
    top_primary = _top(d_primary, rows, (K + 1) // 2).tolist()
    top_secondary = _top(d_secondary, rows, K // 2).tolist()
    merged = None
    contexts = []
    for s in sizes:
        target = min(s, len(rows))
        chosen: dict[int, tuple[float, str]] = {}
        for p in top_primary[:(s + 1) // 2]:
            chosen[p] = (d_primary[p], TAG_PEARSON)
        for p in top_secondary[:s // 2]:
            chosen.setdefault(p, (d_secondary[p], TAG_PPS))
        if len(chosen) < target:
            if merged is None:
                # depth K is enough: at most len(chosen) of the first `target`
                # merged rows are already chosen
                d_merged = np.minimum(d_primary, d_secondary)
                merged = d_merged, _top(d_merged, rows, K).tolist()
            d_merged, top_merged = merged
            for p in top_merged:
                if p not in chosen:
                    chosen[p] = (d_merged[p], TAG_MERGED)
                    if len(chosen) == target:
                        break
        picks = sorted(chosen.items(), key=lambda kv: (kv[1][0], rows[kv[0]]))
        contexts.append(RetrievedContext(rows[[p for p, _ in picks]],
                                         np.asarray([v[0] for _, v in picks]),
                                         tuple(v[1] for _, v in picks)))
    return tuple(contexts)


def retrieve_random(pool: ContextPool, quota: int, seed: int) -> RetrievedContext:
    """Baseline policy: uniform sample without replacement from the pool."""
    take = min(quota, pool.size)
    picked = np.sort(rng_for(seed, "random-context").choice(pool.rows, size=take, replace=False))
    return RetrievedContext(picked, np.zeros(take), (TAG_MERGED,) * take)


def context_trace(ctx: RetrievedContext, query_index: int) -> dict:
    return {"query": int(query_index),
            "selected": ctx.indices.tolist(),
            "distances": [float(d) for d in ctx.distances],
            "provenance": list(ctx.provenance)}
