"""Feature relevance scoring on the training pool.

Two measures per feature:

* ``pearson_importance`` captures linear relationships as the maximum
  absolute Pearson correlation over indicator encodings (categorical
  features are one-hot encoded, classification labels use per-class
  indicators).
* ``pps_importance`` captures non-linear relationships: a depth-limited
  decision tree on the single feature is scored under k-fold cross
  validation against a naive baseline, clipped at zero.

Single-feature tree contract (the exact fitting semantics, needed for
reproducibility):

* Candidate thresholds are the quantiles of the non-missing training
  values at 2% steps (0.02 .. 0.98), deduplicated. A split sends
  ``x <= t`` left.
* Rows are ordered by stable sort on the feature value; a leaf's cost is
  ``np.sum(np.abs(y - np.median(y)))`` over that ordering (regression) or
  the count of rows not in the leaf's majority class, ties to the lowest
  class index (classification). An empty leaf costs 0.
* The fitted tree is the global minimizer of total training cost over all
  trees of depth ``TREE_DEPTH``. Ties are resolved by preferring a leaf
  over an equal-cost split, then the smallest candidate threshold,
  applied recursively from the root.
* Empty leaves and rows with a missing feature value predict the fold's
  global label median (regression) or modal class (classification).
* Categorical features split one-vs-rest on a single category per level,
  chosen greedily with strict-improvement stopping; candidate categories
  are scanned in sorted token order.

How the contract is computed (the results are the same bits as the direct
per-leaf formulas, which ``tests/oracles.py`` keeps as references):

* Regression segment medians come from order statistics, not one
  ``np.median`` per segment. The fold's labels are ranked once (stable
  sort), an int32 table counts, for every boundary, the rows before it at
  each rank, and a vectorized binary search over all segments finds the
  lower and upper middle ranks. An odd segment's median is its middle value;
  an even one's is the mean of the two, as ``np.median`` takes it. Each
  segment's absolute-deviation sum is still one ``np.sum`` over it.
* Categorical trees work on the int32 category codes over the sorted
  vocabulary of the training rows (``Dataset.codes_over``), so code order is
  sorted token order. Classification costs come from one ``bincount`` of
  (code, class) pairs per fold, as integer counts; regression costs from
  code masks. A tree predicts through one code -> value array.

Scores compare out-of-fold tree predictions with out-of-fold naive
predictions (fold-train median / most frequent class):
``max(0, 1 - MAE_tree / MAE_naive)`` for regression and
``max(0, (F1w_tree - F1w_naive) / (1 - F1w_naive))`` for classification,
with weighted F1; a perfect naive baseline scores 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .util import kfold_indices, subseed

IMPORTANCE_MODES = ("dual", "pearson_only", "pps_only", "uniform")

TREE_DEPTH = 4
DEFAULT_CV_FOLDS = 4
QUANTILE_STEP = 0.02
_QUANTILES = np.linspace(QUANTILE_STEP, 1.0 - QUANTILE_STEP, int(round(1.0 / QUANTILE_STEP)) - 1)


# ---------------------------------------------------------------------------
# Pearson


def _max_abs_corr(F: np.ndarray, L: np.ndarray) -> float:
    n = F.shape[0]
    if n < 2:
        return 0.0
    Fc = F - F.mean(axis=0)
    Lc = L - L.mean(axis=0)
    sf = np.sqrt((Fc ** 2).sum(axis=0))
    sl = np.sqrt((Lc ** 2).sum(axis=0))
    keep_f = sf > 0
    keep_l = sl > 0
    if not keep_f.any() or not keep_l.any():
        return 0.0
    R = (Fc[:, keep_f].T @ Lc[:, keep_l]) / np.outer(sf[keep_f], sl[keep_l])
    return float(min(1.0, np.max(np.abs(R))))


def _label_matrix(d: ds.Dataset, rows: np.ndarray) -> np.ndarray:
    if d.task == ds.TASK_REGRESSION:
        return np.asarray(d.labels()[rows], dtype=np.float64).reshape(-1, 1)
    return (d.class_codes()[rows][:, None] == np.arange(len(d.class_labels))).astype(np.float64)


def _indicator_matrix(codes: np.ndarray) -> np.ndarray:
    """One indicator column per category code, in code order."""
    return (codes[:, None] == np.arange(codes.max() + 1)).astype(np.float64)


def pearson_importance(d: ds.Dataset, train_rows,
                       codes: dict[str, np.ndarray] | None = None) -> dict[str, float]:
    """Per-feature weight in [0, 1]: max |r| over indicator encodings.
    Undefined correlations (constant columns, fewer than 2 pairs) score 0.
    ``codes`` maps each categorical feature to its codes over ``train_rows``
    as ``Dataset.codes_over`` gives them; they are encoded here if absent."""
    rows = np.asarray(train_rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValueError("training rows must be non-empty")
    out: dict[str, float] = {}
    labels = _label_matrix(d, rows)
    for col in d.feature_columns:
        if col.kind == ds.KIND_NUMERICAL:
            vals = d.column(col.name)[rows]
            keep = np.isfinite(np.asarray(vals, dtype=np.float64))
            if keep.sum() < 2:
                out[col.name] = 0.0
                continue
            F = np.asarray(vals, dtype=np.float64)[keep].reshape(-1, 1)
            L = labels[keep]
        else:
            F = _indicator_matrix(codes[col.name] if codes is not None
                                  else d.codes_over(col.name, rows).codes)
            L = labels
        out[col.name] = _max_abs_corr(F, L)
    return out


# ---------------------------------------------------------------------------
# Single-feature trees


def quantile_candidates(values: np.ndarray) -> np.ndarray:
    return np.unique(np.quantile(values, _QUANTILES))


def _leaf_value_reg(y: np.ndarray, fallback: float) -> float:
    return float(np.median(y)) if len(y) else fallback


def _leaf_value_cls(codes: np.ndarray, n_classes: int, fallback: int) -> int:
    if len(codes) == 0:
        return fallback
    return int(np.argmax(np.bincount(codes, minlength=n_classes)))


def _segment_medians(y_sorted: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.median(y_sorted[a:b])`` for each non-empty segment (a, b) in
    zip(lo, hi), bit for bit, without partitioning a single segment."""
    n = len(y_sorted)
    order = np.argsort(y_sorted, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # below[j, v]: rows before boundary j whose rank is < v
    ends = np.unique(np.concatenate([lo, hi]))
    below = np.zeros((len(ends), n + 1), dtype=np.int32)
    seen = np.zeros(n, dtype=np.int32)
    start = 0
    for j, end in enumerate(ends):
        seen[rank[start:end]] = 1
        np.cumsum(seen, out=below[j, 1:])
        start = end
    size = hi - lo
    first = np.tile(np.searchsorted(ends, lo), 2)
    last = np.tile(np.searchsorted(ends, hi), 2)
    # the k-th smallest rank in a segment is v - 1 for the least v with k + 1
    # of the segment's ranks below it; binary search for both middle k at once
    need = np.concatenate([(size - 1) // 2, size // 2]) + 1
    low, high = np.zeros(len(need), dtype=np.int64), np.full(len(need), n, dtype=np.int64)
    while np.any(high - low > 1):
        mid = (low + high) // 2
        enough = below[last, mid] - below[first, mid] >= need
        high = np.where(enough, mid, high)
        low = np.where(enough, low, mid)
    middle = y_sorted[order[high - 1]].reshape(2, -1)
    # np.median takes the mean of the two middle values; they coincide when the size is odd
    return np.where(size % 2 == 1, middle[0], (middle[0] + middle[1]) / 2)


def _segment_costs_reg(y_sorted: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Leaf cost of every segment y_sorted[pos[i]:pos[j]], i < j; inf on and
    below the diagonal. Each sum stays one np.sum over its segment, so the
    rounding, and with it the tree chosen on near-ties, is unchanged."""
    b = len(pos)
    C = np.full((b, b), np.inf)
    i, j = np.triu_indices(b, 1)
    C[i, j] = 0.0
    full = pos[j] > pos[i]
    i, j = i[full], j[full]
    for ii, jj, med in zip(i, j, _segment_medians(y_sorted, pos[i], pos[j])):
        C[ii, jj] = float(np.sum(np.abs(y_sorted[pos[ii]:pos[jj]] - med)))
    return C


def _segment_costs_cls(codes_sorted: np.ndarray, pos: np.ndarray, n_classes: int) -> np.ndarray:
    pref = np.zeros((n_classes, len(codes_sorted) + 1), dtype=np.int64)
    for c in range(n_classes):
        pref[c, 1:] = np.cumsum(codes_sorted == c)
    P = pref[:, pos]
    counts = P[:, None, :] - P[:, :, None]
    sizes = pos[None, :] - pos[:, None]
    C = (sizes - counts.max(axis=0)).astype(np.float64)
    C[np.tril_indices_from(C)] = np.inf
    return C


def _depth_tables(C: np.ndarray) -> list[np.ndarray]:
    tables = [C]
    M = C
    for _ in range(TREE_DEPTH):
        S = np.min(M[:, :, None] + M[None, :, :], axis=1)
        M = np.minimum(C, S)
        tables.append(M)
    return tables


def _extract_boundaries(C, tables, i, j, d, out):
    if d == 0 or tables[d][i, j] == C[i, j]:
        return
    target = tables[d][i, j]
    prev = tables[d - 1]
    for k in range(i + 1, j):
        if prev[i, k] + prev[k, j] == target:
            _extract_boundaries(C, tables, i, k, d - 1, out)
            out.append(k)
            _extract_boundaries(C, tables, k, j, d - 1, out)
            return
    raise AssertionError("optimal split has no witness")


@dataclass
class _NumericTree:
    thresholds: np.ndarray
    leaf_values: np.ndarray
    fallback: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.full(len(x), self.fallback, dtype=self.leaf_values.dtype)
        seen = np.isfinite(x)
        if seen.any():
            idx = np.searchsorted(self.thresholds, x[seen], side="left")
            out[seen] = self.leaf_values[idx]
        return out


def fit_numeric_tree(xs: np.ndarray, ysrt: np.ndarray, thresholds: np.ndarray,
                     n_classes: int | None, fallback) -> _NumericTree:
    """Optimal depth-limited quantile tree on one numeric feature; ``xs`` must
    be finite and in stable-sorted order, ``ysrt`` in the same order.
    Classification when n_classes is given (ysrt holds class codes)."""
    pos = np.concatenate([[0], np.searchsorted(xs, thresholds, side="right"), [len(xs)]]).astype(np.int64)
    if n_classes is None:
        C = _segment_costs_reg(ysrt, pos)
    else:
        C = _segment_costs_cls(ysrt, pos, n_classes)
    tables = _depth_tables(C)
    chosen: list[int] = []
    _extract_boundaries(C, tables, 0, len(pos) - 1, TREE_DEPTH, chosen)
    bounds = np.asarray([thresholds[k - 1] for k in chosen], dtype=np.float64)
    edges = [0] + [pos[k] for k in chosen] + [len(xs)]
    leaves = []
    for a, b in zip(edges[:-1], edges[1:]):
        seg = ysrt[a:b]
        if n_classes is None:
            leaves.append(_leaf_value_reg(seg, fallback))
        else:
            leaves.append(_leaf_value_cls(seg.astype(np.int64), n_classes, fallback))
    dtype = np.float64 if n_classes is None else np.int64
    return _NumericTree(bounds, np.asarray(leaves, dtype=dtype), fallback)


def _l1_cost(y: np.ndarray) -> float:
    return float(np.sum(np.abs(y - np.median(y)))) if len(y) else 0.0


def fit_categorical_tree(codes: np.ndarray, y: np.ndarray, n_codes: int,
                         n_classes: int | None, fallback) -> np.ndarray:
    """Greedy one-vs-rest tree on category codes (0 .. n_codes - 1, in
    sorted token order); returns the predicted value for every code.
    Classification when n_classes is given (y holds class codes)."""
    present = np.flatnonzero(np.bincount(codes, minlength=n_codes))
    if n_classes is None:
        iso_cost = {int(c): _l1_cost(y[codes == c]) for c in present}

        def step_costs(isolated, cand):
            base = sum(iso_cost[k] for k in isolated)
            rest = ~np.isin(codes, isolated)
            return np.asarray([base + iso_cost[int(c)] + _l1_cost(y[rest & (codes != c)])
                               for c in cand])

        current = _l1_cost(y)
    else:
        counts = np.bincount(codes * n_classes + y, minlength=n_codes * n_classes
                             ).reshape(n_codes, n_classes)
        iso_cost = counts.sum(axis=1) - counts.max(axis=1)

        def step_costs(isolated, cand):
            rest = counts.sum(axis=0) - counts[isolated].sum(axis=0) - counts[cand]
            return iso_cost[isolated].sum() + iso_cost[cand] + rest.sum(axis=1) - rest.max(axis=1)

        current = len(y) - counts.sum(axis=0).max()
    isolated: list[int] = []
    for _ in range(TREE_DEPTH):
        cand = np.setdiff1d(present, isolated)
        if len(cand) == 0:
            break
        costs = step_costs(isolated, cand)
        k = int(np.argmin(costs))
        if not costs[k] < current:
            break
        isolated.append(int(cand[k]))
        current = costs[k]
    rest = y[~np.isin(codes, isolated)]
    if n_classes is None:
        values = np.full(n_codes, _leaf_value_reg(rest, fallback))
        for c in isolated:
            values[c] = _leaf_value_reg(y[codes == c], fallback)
    else:
        values = np.full(n_codes, _leaf_value_cls(rest, n_classes, fallback), dtype=np.int64)
        values[isolated] = counts[isolated].argmax(axis=1)
    return values


# ---------------------------------------------------------------------------
# Scoring


def weighted_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    n = len(y_true)
    total = 0.0
    for c in range(n_classes):
        support = int(np.sum(y_true == c))
        if support == 0:
            continue
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = support - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        total += support / n * f1
    return total


def _score_from_folds(y, tree_preds, naive_preds, n_classes: int | None) -> float:
    if n_classes is None:
        mae_naive = float(np.mean(np.abs(naive_preds - y)))
        if mae_naive == 0.0:
            return 0.0
        mae_tree = float(np.mean(np.abs(tree_preds - y)))
        return max(0.0, 1.0 - mae_tree / mae_naive)
    f1_naive = weighted_f1(y, naive_preds, n_classes)
    if f1_naive >= 1.0:
        return 0.0
    f1_tree = weighted_f1(y, tree_preds, n_classes)
    return max(0.0, (f1_tree - f1_naive) / (1.0 - f1_naive))


def _pps_single(values: np.ndarray, y: np.ndarray, folds: list[np.ndarray],
                n_classes: int | None, numeric: bool) -> float:
    """Score of one feature: ``values`` are the raw numbers of a numerical
    feature or the category codes of a categorical one."""
    n = len(y)
    tree_preds = np.empty(n, dtype=np.float64 if n_classes is None else np.int64)
    naive_preds = np.empty_like(tree_preds)
    if numeric:
        x = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(x)
        if not finite.any():
            return 0.0
        thresholds = quantile_candidates(x[finite])
        # a stable sort of a subset is the subset's subsequence of the stable
        # sort of all rows, so every fold reads its order from this one
        order_all = np.argsort(x, kind="stable")
    for val_idx in folds:
        val_mask = np.zeros(n, dtype=bool)
        val_mask[val_idx] = True
        yt = y[~val_mask]
        if n_classes is None:
            fallback = float(np.median(yt))
        else:
            fallback = int(np.argmax(np.bincount(yt, minlength=n_classes)))
        naive_preds[val_mask] = fallback
        if numeric:
            fit_rows = ~val_mask & finite
            if not fit_rows.any() or len(thresholds) == 0:
                tree_preds[val_mask] = fallback
            else:
                order = order_all[fit_rows[order_all]]
                tree = fit_numeric_tree(x[order], y[order], thresholds, n_classes, fallback)
                tree_preds[val_mask] = tree.predict(x[val_mask])
        else:
            by_code = fit_categorical_tree(values[~val_mask], yt, int(values.max()) + 1,
                                           n_classes, fallback)
            tree_preds[val_mask] = by_code[values[val_mask]]
    return _score_from_folds(y, tree_preds, naive_preds, n_classes)


def pps_importance(d: ds.Dataset, train_rows, cv_folds: int = DEFAULT_CV_FOLDS,
                   seed: int = 0, codes: dict[str, np.ndarray] | None = None) -> dict[str, float]:
    """Cross-validated tree-vs-naive score per feature, clipped to [0, 1].
    ``codes`` maps each categorical feature to its codes over ``train_rows``
    as ``Dataset.codes_over`` gives them; they are encoded here if absent."""
    rows = np.asarray(train_rows, dtype=np.int64)
    if cv_folds < 2:
        raise ValueError("cv_folds must be at least 2")
    if len(rows) < cv_folds:
        raise ValueError("need at least cv_folds training rows")
    folds = kfold_indices(len(rows), cv_folds, subseed(seed, "pps-folds"))
    if d.task == ds.TASK_REGRESSION:
        y = np.asarray(d.labels()[rows], dtype=np.float64)
        n_classes = None
    else:
        y = d.class_codes()[rows]
        n_classes = len(d.class_labels)
    out = {}
    for col in d.feature_columns:
        if col.kind == ds.KIND_NUMERICAL:
            values, numeric = d.column(col.name)[rows], True
        else:
            values = codes[col.name] if codes is not None else d.codes_over(col.name, rows).codes
            numeric = False
        out[col.name] = float(min(1.0, _pps_single(values, y, folds, n_classes, numeric)))
    return out
