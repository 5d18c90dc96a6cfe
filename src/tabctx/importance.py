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
  ``np.median`` per segment. The fold's labels are ranked once (one
  argsort; the order among equal labels changes no median and no bound
  below) and cut into buckets of ``_RANK_BUCKET`` ranks. Two small tables
  hold, for every boundary and bucket, the count and the label sum of the
  rows before the boundary with a rank below the bucket. A vectorized binary
  search over all segments finds the bucket of each middle rank, and a scan
  of that bucket the rank itself. An odd segment's median is its middle
  value; an even one's is the mean of the two, as ``np.median`` takes it.
* The DP first runs on fast costs. A segment's fast cost is its label sum
  minus twice the sum of its lower half (the (size + 1) // 2 smallest
  labels, read from the tables and the scanned bucket), plus the median
  when the size is odd. This is sum |y - m| in exact arithmetic, and it
  costs O(segments * ``_RANK_BUCKET``) after the tables.
* Error bound. Let u = 2**-53, gamma_k = k u / (1 - k u), n the fold's
  rows, A = sum |y| and M = max |y| over the fold, and g = gamma_(4n + 64).
  A sum in which every term passes through at most k additions is off by at
  most gamma_k times the sum of the terms' magnitudes. Each table entry
  passes a label through at most 2n + ``_RANK_BUCKET`` additions, so it is
  off by at most g A; with the differences, the bucket scan and the last
  additions, a fast cost is within 13 g A + g M of the real sum |y - m|.
  The exact cost, one ``np.sum`` of the rounded ``|y - m|``, is within
  gamma_(size) (A + n M). The DP adds at most ``TREE_DEPTH`` times per leaf,
  which moves a fast or an exact entry by at most 2.1 g (A + n M) per leaf.
  So an entry that sums at most L leaves is within L * lam of the entry the
  exact costs give, with lam = g (17 A + 5 n M); the code doubles g to cover
  the rounding of lam itself.
* Fallback. ``_decided`` walks the path ``_extract_boundaries`` takes on
  the fast tables. At depth d the entries compared sum at most 2**d
  leaves, so the tree is accepted only if the leaf beats the best split, or
  the best split beats the leaf and every other split, by more than
  2**(d + 1) * lam. Then the exact costs take every decision the same way,
  and the tree is the one they give. Otherwise, as on every equal-cost tie
  (a leaf against an equal-cost split, constant labels), the whole (fold,
  feature) reruns the DP on ``_segment_costs_reg``, which keeps one
  ``np.sum`` per segment. Leaf values are ``np.median`` of the chosen
  segments either way.
* Categorical trees work on the table's int32 category codes over its
  sorted vocabulary (``Dataset.codes``), so code order is sorted token order;
  a category the training rows lack is never a candidate. Classification
  costs come from one ``bincount`` of (code, class) pairs per fold, as
  integer counts; regression costs from code masks. A tree predicts through
  one code -> value array.

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
_UNIT = 2.0 ** -53
_RANK_BUCKET = 16


# ---------------------------------------------------------------------------
# Pearson


def _max_abs_corr(F: np.ndarray, L: np.ndarray) -> float:
    """Largest |r| between a column of F and a column of L; centres F in
    place, which saves a copy the size of F."""
    n = F.shape[0]
    if n < 2:
        return 0.0
    F -= F.mean(axis=0)
    Lc = L - L.mean(axis=0)
    sf = np.sqrt((F ** 2).sum(axis=0))
    sl = np.sqrt((Lc ** 2).sum(axis=0))
    keep_f = sf > 0
    keep_l = sl > 0
    if not keep_f.any() or not keep_l.any():
        return 0.0
    R = (F[:, keep_f].T @ Lc[:, keep_l]) / np.outer(sf[keep_f], sl[keep_l])
    return float(min(1.0, np.max(np.abs(R))))


def _label_matrix(d: ds.Dataset, rows: np.ndarray) -> np.ndarray:
    if d.task == ds.TASK_REGRESSION:
        return np.asarray(d.labels()[rows], dtype=np.float64).reshape(-1, 1)
    return (d.class_codes()[rows][:, None] == np.arange(len(d.class_labels))).astype(np.float64)


def _indicator_matrix(codes: np.ndarray) -> np.ndarray:
    """One indicator column per category code, in code order."""
    return (codes[:, None] == np.arange(codes.max() + 1)).astype(np.float64)


def pearson_importance(d: ds.Dataset, train_rows) -> dict[str, float]:
    """Per-feature weight in [0, 1]: max |r| over indicator encodings, one
    column per category the training rows hold, in code order.
    Undefined correlations (constant columns, fewer than 2 pairs) score 0."""
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
            F = _indicator_matrix(np.unique(d.codes(col.name)[rows], return_inverse=True)[1])
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


def _segment_halves(y_sorted: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """For each non-empty segment (a, b) in zip(lo, hi): ``np.median(y_sorted[a:b])``,
    bit for bit, then the sum of its (b - a + 1) // 2 smallest labels and the
    sum of all its labels, rounded as the module docstring bounds. No single
    segment is partitioned."""
    n = len(y_sorted)
    # any order by value serves: how equal labels are ordered changes no
    # middle value, and the lower half's sum only within its bound
    order = np.argsort(y_sorted)
    ranked = y_sorted[order]
    w = _RANK_BUCKET
    buckets = -(-n // w)
    # count[j, c], total[j, c]: rows before boundary ends[j] whose rank is
    # below c * w, and the sum of their labels
    ends = np.unique(np.concatenate([lo, hi]))
    between = np.repeat(np.arange(len(ends) + 1), np.diff(ends, prepend=0, append=n))
    cell = between[order] * buckets + np.arange(n) // w
    count = np.zeros((len(ends), buckets + 1), dtype=np.int64)
    total = np.zeros((len(ends), buckets + 1))
    for table, weights in ((count, None), (total, ranked)):
        table[:, 1:] = np.bincount(cell, weights, minlength=len(ends) * buckets
                                   )[:len(ends) * buckets].reshape(len(ends), buckets)
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
    size = hi - lo
    a, b = np.tile(lo, 2), np.tile(hi, 2)
    first, last = np.searchsorted(ends, a), np.searchsorted(ends, b)
    # the k-th smallest rank in a segment lies in the bucket before the least
    # c with k + 1 of the segment's ranks below c * w; binary search for both
    # middle k at once, then scan that bucket's ranks in order
    need = np.concatenate([(size - 1) // 2, size // 2]) + 1
    low, high = np.zeros(len(need), dtype=np.int64), np.full(len(need), buckets, dtype=np.int64)
    while np.any(high - low > 1):
        mid = (low + high) // 2
        enough = count[last, mid] - count[first, mid] >= need
        high = np.where(enough, mid, high)
        low = np.where(enough, low, mid)
    c = high - 1
    ranks = c[:, None] * w + np.arange(w)
    rows = order[np.minimum(ranks, n - 1)]
    inside = (ranks < n) & (rows >= a[:, None]) & (rows < b[:, None])
    seen = np.cumsum(inside, axis=1) + (count[last, c] - count[first, c])[:, None]
    hit = np.argmax(seen >= need[:, None], axis=1)
    middle = ranked[ranks[np.arange(len(need)), hit]].reshape(2, -1)
    # np.median takes the mean of the two middle values; they coincide when the size is odd
    med = np.where(size % 2 == 1, middle[0], (middle[0] + middle[1]) / 2)
    # the lower half ends at the lower middle rank, the first len(lo) searches
    s = len(lo)
    upto = inside[:s] & (np.arange(w) <= hit[:s, None])
    lower = ((total[last[:s], c[:s]] - total[first[:s], c[:s]])
             + np.sum(np.where(upto, y_sorted[rows[:s]], 0.0), axis=1))
    return med, lower, total[last[:s], buckets] - total[first[:s], buckets]


def _segments(pos: np.ndarray):
    """A cost table with 0 for every segment pos[i]:pos[j], i < j, and inf on
    and below the diagonal, and the (i, j) of the non-empty segments."""
    b = len(pos)
    C = np.full((b, b), np.inf)
    i, j = np.triu_indices(b, 1)
    C[i, j] = 0.0
    full = pos[j] > pos[i]
    return C, i[full], j[full]


def _segment_costs_reg(y_sorted: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Leaf cost of every segment y_sorted[pos[i]:pos[j]], i < j; inf on and
    below the diagonal. Each sum is one np.sum over its segment: the exact
    costs, whose rounding decides the tree on near-ties."""
    C, i, j = _segments(pos)
    for ii, jj, med in zip(i, j, _segment_halves(y_sorted, pos[i], pos[j])[0]):
        C[ii, jj] = float(np.sum(np.abs(y_sorted[pos[ii]:pos[jj]] - med)))
    return C


def _segment_costs_fast(y_sorted: np.ndarray, pos: np.ndarray):
    """``_segment_costs_reg`` up to rounding, from rank-bucket prefix sums:
    a segment's cost is its label sum minus twice its lower half's sum, plus
    the median when its size is odd (the lower half then holds the median).
    Also returns the per-leaf error bound of the module docstring."""
    n = len(y_sorted)
    C, i, j = _segments(pos)
    med, lower, total = _segment_halves(y_sorted, pos[i], pos[j])
    C[i, j] = (total - 2 * lower) + np.where((pos[j] - pos[i]) % 2 == 1, med, 0.0)
    k = 4 * n + 64
    g = 2 * k * _UNIT / (1 - k * _UNIT)
    return C, g * (17 * float(np.sum(np.abs(y_sorted))) + 5 * n * float(np.max(np.abs(y_sorted))))


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


def _decided(C, tables, bound, i, j, d) -> bool:
    """True if every decision ``_extract_boundaries`` takes from (i, j, d)
    wins by more than twice the error bound of the entries it compares,
    ``2**d * bound`` for a sum of at most 2**d leaves: the leaf against the
    best split, and the first best split k against every other k."""
    if d == 0 or j - i < 2:
        return True
    splits = tables[d - 1][i, i + 1:j] + tables[d - 1][i + 1:j, j]
    k = int(np.argmin(splits))
    margin = 2 ** (d + 1) * bound
    if not abs(C[i, j] - splits[k]) > margin:
        return False
    if C[i, j] < splits[k]:
        return True
    if len(splits) > 1 and not np.min(np.delete(splits, k)) - splits[k] > margin:
        return False
    k += i + 1
    return _decided(C, tables, bound, i, k, d - 1) and _decided(C, tables, bound, k, j, d - 1)


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
        C, bound = _segment_costs_fast(ysrt, pos)
        tables = _depth_tables(C)
        if not _decided(C, tables, bound, 0, len(pos) - 1, TREE_DEPTH):
            C = _segment_costs_reg(ysrt, pos)
            tables = _depth_tables(C)
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
                   seed: int = 0) -> dict[str, float]:
    """Cross-validated tree-vs-naive score per feature, clipped to [0, 1]."""
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
        numeric = col.kind == ds.KIND_NUMERICAL
        values = d.column(col.name)[rows] if numeric else d.codes(col.name)[rows]
        out[col.name] = float(min(1.0, _pps_single(values, y, folds, n_classes, numeric)))
    return out
