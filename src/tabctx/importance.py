"""Feature relevance scoring on the training pool.

``MEASURES`` maps each importance mode to the measures it ranks by, in order
(``dual``: Pearson, then PPS; ``uniform``: none; ``weights.json`` writes null
for a measure the mode does not rank by). Two measures per feature:

* ``pearson_importance`` captures linear relationships as the maximum
  absolute Pearson correlation over indicator encodings (categorical
  features are one-hot encoded, classification labels use per-class
  indicators).
* ``pps_importance`` captures non-linear relationships: a depth-limited
  decision tree on the single feature is scored under ``CV_FOLDS``-fold
  cross validation on a fixed partition of the training rows against a
  naive baseline, clipped at zero.

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
  are scanned in sorted token order. Isolating the last category left
  never strictly lowers the cost, so the rest leaf always keeps training
  rows: only numeric leaves can be empty.

How the contract is computed (the results are the same bits as the direct
per-leaf formulas, which ``tests/oracles.py`` keeps as references):

* Pearson holds one feature's matrix at a time and copies none. A
  categorical feature's indicator matrix ``F`` is built by one scatter and
  centred in place. The label matrix is centred once per call, without its
  zero-norm columns, and shared by every feature that pairs all rows; a
  numerical column with missing cells centres the labels of its finite rows.
  The weights keep the bits of the dense formula (``pearson_dense_reference``),
  whose product multiplies the Fortran-ordered copies that numpy's boolean
  index on axis 1 makes. So ``F`` and the label matrix are Fortran-ordered
  and ``F.T @ Lc`` takes them whole: OpenBLAS rounds the product differently
  for a C-ordered operand or when it is split by columns. Column square sums
  come from C-ordered blocks of two or three columns, because numpy sums a
  C-ordered block of two or more columns row by row, as it does the whole
  C-ordered matrix, but a single column pairwise; a one-column matrix keeps
  its pairwise sum. Column means need no such care: the indicator columns
  sum 0/1 values, which is exact in any order.
* Regression segment medians come from order statistics, not one
  ``np.median`` per segment. The fold's labels are ranked by one argsort
  in each ``_segment_halves`` call, so once per numerical feature and fold,
  and once more when that fold's tree is refitted on exact costs (the order
  among equal labels changes no median and no bound below), and cut into
  buckets of ``_RANK_BUCKET`` ranks. Two small tables hold, for every
  boundary and bucket, the count and the label sum of the rows before the
  boundary with a rank below the bucket. A vectorized binary
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
* Fallback. ``_boundaries`` walks the fast tables once. At depth d the
  entries compared sum at most 2**d leaves, so a decision stands only if the
  leaf beats the best split, or the best split beats the leaf and every other
  split, by more than 2**(d + 1) * lam. If every decision on the path stands,
  the exact costs take each one the same way, and the tree is the one they
  give. Otherwise, as on every equal-cost tie (a leaf against an equal-cost
  split, constant labels), the walk stops and the whole (fold, feature)
  reruns the DP on ``_segment_costs_reg``, which keeps one ``np.sum`` per
  segment. Leaf values are the medians of the chosen segments from the fast
  tables either way (the same bits).
* The folds, each fold's fallback and the naive predictions' F1 or MAE are
  computed once per ``pps_importance`` call, not per feature.
* Classification trees need no sort. The thresholds put a row in the same
  bin, ``searchsorted(thresholds, x, side="left")``, whichever fold it is
  in; missing rows get a bin of their own. One ``bincount`` over (fold,
  bin, class) gives every fold's training class counts per bin, as the
  total minus that fold's slice. Their cumulative sum over bins is the
  prefix count a stable sort of the fold's rows gives at each candidate
  boundary, so the costs and leaf argmaxes are the same integers.
* Categorical trees work on the table's int32 category codes over its
  sorted vocabulary (``Dataset.codes``), so code order is sorted token order;
  a category the training rows lack is never a candidate. Classification
  costs come from the same kind of table over (fold, code, class);
  regression costs from code masks.
* Each fold's tree predicts through one row of a (fold, bin or code) ->
  value table, read at every row's own fold and cell. The weighted F1 comes
  from one (true, predicted) count table, with the integer counts and the
  float arithmetic of the per-class formula.

Scores compare out-of-fold tree predictions with out-of-fold naive
predictions (fold-train median / most frequent class):
``max(0, 1 - MAE_tree / MAE_naive)`` for regression and
``max(0, (F1w_tree - F1w_naive) / (1 - F1w_naive))`` for classification,
with weighted F1; a perfect naive baseline scores 0. Regression labels
whose largest magnitude reaches 2**500 are scaled first, as Pearson's are
(``_scaled``), so that the tree costs stay finite; the scores are ratios of
errors, and the exact scaling changes none.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .util import headroom, kfold_indices, subseed

MEASURES = {"dual": ("pearson", "pps"), "pearson_only": ("pearson",), "pps_only": ("pps",), "uniform": ()}
IMPORTANCE_MODES = tuple(MEASURES)

TREE_DEPTH = 4
CV_FOLDS = 4
QUANTILE_STEP = 0.02
_QUANTILES = np.linspace(QUANTILE_STEP, 1.0 - QUANTILE_STEP, int(round(1.0 / QUANTILE_STEP)) - 1)
_UNIT = 2.0 ** -53
_RANK_BUCKET = 16


# ---------------------------------------------------------------------------
# Pearson


def _square_sums(A: np.ndarray) -> np.ndarray:
    """``(A ** 2).sum(axis=0)`` as a C-ordered ``A`` gives it, bit for bit, for
    either layout of ``A``: its squares are summed in C-ordered blocks of two
    or three columns. See the module docstring."""
    k = A.shape[1]
    out = np.empty(k)
    bounds = [*range(0, max(k - 1, 1), 2), k]
    for a, b in zip(bounds, bounds[1:]):
        out[a:b] = np.multiply(A[:, a:b], A[:, a:b], order="C").sum(axis=0)
    return out


def _max_abs_corr(F: np.ndarray, Lc: np.ndarray, sl: np.ndarray) -> float:
    """Largest |r| between a column of F, Fortran-ordered, and a column of
    ``Lc``, from ``_centred_labels`` with norms ``sl``; centres F in place,
    which saves a copy the size of F."""
    if F.shape[0] < 2 or Lc.shape[1] == 0:
        return 0.0
    F -= F.mean(axis=0)
    sf = np.sqrt(_square_sums(F))
    # an indicator matrix over the categories the rows hold is constant only
    # when it has one column, and a numerical F has one column
    if not sf.all():
        return 0.0
    R = (F.T @ Lc) / np.outer(sf, sl)
    return float(min(1.0, np.max(np.abs(R))))


def _scaled(a: np.ndarray) -> np.ndarray:
    """``a``, a float64 array the caller owns, scaled in place by the exact
    power of two ``util.headroom`` picks. Neither r nor a PPS score depends on
    scale; the scaling keeps ``a ** 2`` and sums of ``a`` finite for cells of
    2**500 and more, and leaves smaller arrays as given."""
    exponent = headroom(float(a.min()), float(a.max()))
    return np.ldexp(a, -exponent, out=a) if exponent else a


def _indicator_matrix(codes: np.ndarray) -> np.ndarray:
    """One indicator column per code ``codes`` holds, in code order,
    Fortran-ordered."""
    present, dense = np.unique(codes, return_inverse=True)
    F = np.zeros((len(codes), len(present)), order="F")
    F[np.arange(len(codes)), dense] = 1.0
    return F


def _centred_labels(d: ds.Dataset, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The label matrix of ``labels`` (scaled regression labels, which are
    centred in place, or class codes), centred, without its zero-norm columns
    and Fortran-ordered, and the norms of the columns it keeps."""
    if d.task == ds.TASK_REGRESSION:
        L = labels.reshape(-1, 1)
    else:
        L = _indicator_matrix(labels)
    L -= L.mean(axis=0)
    sl = np.sqrt(_square_sums(L))
    keep = sl > 0
    return (L, sl) if keep.all() else (np.asfortranarray(L[:, keep]), sl[keep])


def _numerical_weight(d: ds.Dataset, values: np.ndarray, labels: np.ndarray, shared) -> float:
    """``_max_abs_corr`` over the rows where ``values``, a float64 array the
    caller owns, is finite; a column with no missing cell uses the
    ``shared`` label matrix of all rows."""
    keep = np.isfinite(values)
    if keep.all():
        return _max_abs_corr(_scaled(values.reshape(-1, 1)), *shared)
    if keep.sum() < 2:
        return 0.0
    return _max_abs_corr(_scaled(values[keep].reshape(-1, 1)), *_centred_labels(d, labels[keep]))


def pearson_importance(d: ds.Dataset, train_rows) -> dict[str, float]:
    """Per-feature weight in [0, 1]: max |r| over indicator encodings, one
    column per category the training rows hold, in code order.
    Undefined correlations (constant columns, fewer than 2 pairs) score 0."""
    rows = np.asarray(train_rows, dtype=np.int64)
    if len(rows) == 0:
        raise ValueError("training rows must be non-empty")
    if d.task == ds.TASK_REGRESSION:
        labels = _scaled(np.asarray(d.labels()[rows], dtype=np.float64))
        shared = _centred_labels(d, labels.copy())
    else:
        labels = d.class_codes[rows]
        shared = _centred_labels(d, labels)
    # each feature's matrix is built in the call that uses it, so only one
    # is live at a time
    return {col.name: _numerical_weight(d, d.column(col.name)[rows], labels, shared)
            if col.kind == ds.KIND_NUMERICAL
            else _max_abs_corr(_indicator_matrix(d.codes(col.name)[rows]), *shared)
            for col in d.feature_columns}


# ---------------------------------------------------------------------------
# Single-feature trees


def quantile_candidates(values: np.ndarray) -> np.ndarray:
    return np.unique(np.quantile(values, _QUANTILES))


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
    # np.median is np.mean of the middle value or the two middle values, a
    # sum that starts at 0.0 (so a -0.0 middle gives 0.0)
    med = np.where(size % 2 == 1, 0.0 + middle[0], (0.0 + middle[0] + middle[1]) / 2)
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
    Also returns the per-leaf error bound of the module docstring and every
    non-empty segment's median (``np.median`` bits) at its (i, j)."""
    n = len(y_sorted)
    C, i, j = _segments(pos)
    med, lower, total = _segment_halves(y_sorted, pos[i], pos[j])
    C[i, j] = (total - 2 * lower) + np.where((pos[j] - pos[i]) % 2 == 1, med, 0.0)
    medians = np.zeros_like(C)
    medians[i, j] = med
    k = 4 * n + 64
    g = 2 * k * _UNIT / (1 - k * _UNIT)
    bound = g * (17 * float(np.sum(np.abs(y_sorted))) + 5 * n * float(np.max(np.abs(y_sorted))))
    return C, bound, medians


def _segment_costs_cls(cum: np.ndarray) -> np.ndarray:
    """Leaf cost of every run of bins i .. j - 1, i < j, from ``cum[k]``, the
    class counts of the rows in bins below k: the rows outside the run's
    majority class, as integers. inf on and below the diagonal."""
    counts = cum.T[:, None, :] - cum.T[:, :, None]
    C = (counts.sum(axis=0) - counts.max(axis=0)).astype(np.float64)
    C[np.tril_indices_from(C)] = np.inf
    return C


def _depth_tables(C: np.ndarray) -> list[np.ndarray]:
    """``tables[d][i, j]``: the least cost of bins i .. j - 1 under a tree of
    depth at most d, for the entries ``_boundaries`` reads. Tables below depth
    ``TREE_DEPTH - 1`` are whole; at that depth only the root reads them, in
    row 0 and the last column, so only those are built (inf elsewhere)."""
    tables = [C]
    for _ in range(TREE_DEPTH - 2):
        M = tables[-1]
        tables.append(np.minimum(C, np.min(M[:, :, None] + M[None, :, :], axis=1)))
    M = tables[-1]
    top = np.full_like(C, np.inf)
    top[0] = np.minimum(C[0], np.min(M[0][:, None] + M, axis=0))
    top[:, -1] = np.minimum(C[:, -1], np.min(M + M[:, -1], axis=1))
    tables.append(top)
    return tables


def _boundaries(C: np.ndarray, tables: list[np.ndarray], bound: float | None = None
                ) -> list[int] | None:
    """The fitted tree's inner boundaries, ascending: boundary k separates
    bin k - 1 from bin k, at threshold ``thresholds[k - 1]``. From the root,
    a node keeps its leaf unless a split is strictly cheaper, and then takes
    the first cheapest split. Given the per-leaf error ``bound`` of the
    module docstring, returns None as soon as a decision at depth d wins by
    no more than ``2**(d + 1) * bound``: the leaf against the best split, or
    the best split against every other split."""
    chosen: list[int] = []
    nodes = [(0, len(C) - 1, TREE_DEPTH)]
    while nodes:
        i, j, d = nodes.pop()
        if d == 0 or j - i < 2:
            continue
        splits = tables[d - 1][i, i + 1:j] + tables[d - 1][i + 1:j, j]
        k = int(np.argmin(splits))
        split = splits[k] < C[i, j]
        if bound is not None:
            margin = 2 ** (d + 1) * bound
            if not abs(C[i, j] - splits[k]) > margin:
                return None
            if split and len(splits) > 1 and not np.min(np.delete(splits, k)) - splits[k] > margin:
                return None
        if split:
            k += i + 1
            chosen.append(k)
            nodes += [(i, k, d - 1), (k, j, d - 1)]
    return sorted(chosen)


def _reg_tree(xs: np.ndarray, ysrt: np.ndarray, thresholds: np.ndarray, fallback) -> np.ndarray:
    """Each bin's leaf value in the regression tree on finite, stable-sorted
    ``xs`` with labels ``ysrt`` in the same order; an empty leaf gets
    ``fallback``."""
    pos = np.concatenate([[0], np.searchsorted(xs, thresholds, side="right"), [len(xs)]]).astype(np.int64)
    C, bound, medians = _segment_costs_fast(ysrt, pos)
    chosen = _boundaries(C, _depth_tables(C), bound)
    if chosen is None:
        C = _segment_costs_reg(ysrt, pos)
        chosen = _boundaries(C, _depth_tables(C))
    edges = np.asarray([0, *chosen, len(pos) - 1])
    a, b = edges[:-1], edges[1:]
    return np.repeat(np.where(pos[b] > pos[a], medians[a, b], fallback), np.diff(edges))


def _cls_tree(counts: np.ndarray, fallback: int) -> np.ndarray:
    """Each bin's leaf class in the classification tree from
    ``counts[bin, class]``, the training rows' class counts per bin; an
    empty leaf gets ``fallback``."""
    cum = np.zeros((len(counts) + 1, counts.shape[1]), dtype=np.int64)
    np.cumsum(counts, axis=0, out=cum[1:])
    C = _segment_costs_cls(cum)
    edges = np.asarray([0, *_boundaries(C, _depth_tables(C)), len(counts)])
    leaves = cum[edges[1:]] - cum[edges[:-1]]
    return np.repeat(np.where(leaves.any(axis=1), leaves.argmax(axis=1), fallback), np.diff(edges))


def _l1_cost(y: np.ndarray) -> float:
    return float(np.sum(np.abs(y - np.median(y)))) if len(y) else 0.0


def _isolate(present: np.ndarray, step_costs, current) -> list[int]:
    """The greedy one-vs-rest choice: at most ``TREE_DEPTH`` times, isolate
    the candidate code whose ``step_costs`` is least (the first in code order
    on ties), while it is strictly below the current cost."""
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
    return isolated


def _categorical_cls(counts: np.ndarray) -> np.ndarray:
    """The classification tree's class for every code, from
    ``counts[code, class]``, the training rows' class counts per code."""
    total = counts.sum(axis=0)
    iso_cost = counts.sum(axis=1) - counts.max(axis=1)

    def step_costs(isolated, cand):
        rest = total - counts[isolated].sum(axis=0) - counts[cand]
        return iso_cost[isolated].sum() + iso_cost[cand] + rest.sum(axis=1) - rest.max(axis=1)

    isolated = _isolate(np.flatnonzero(counts.sum(axis=1)), step_costs, total.sum() - total.max())
    values = np.full(len(counts), np.argmax(total - counts[isolated].sum(axis=0)), dtype=np.int64)
    values[isolated] = counts[isolated].argmax(axis=1)
    return values


def _categorical_reg(codes: np.ndarray, y: np.ndarray, n_codes: int) -> np.ndarray:
    """The regression tree's median for every code (0 .. n_codes - 1), from
    the training rows' codes and labels."""
    present = np.flatnonzero(np.bincount(codes, minlength=n_codes))
    iso_cost = {int(c): _l1_cost(y[codes == c]) for c in present}

    def step_costs(isolated, cand):
        base = sum(iso_cost[k] for k in isolated)
        rest = ~np.isin(codes, isolated)
        return np.asarray([base + iso_cost[int(c)] + _l1_cost(y[rest & (codes != c)])
                           for c in cand])

    isolated = _isolate(present, step_costs, _l1_cost(y))
    values = np.full(n_codes, float(np.median(y[~np.isin(codes, isolated)])))
    for c in isolated:
        values[c] = np.median(y[codes == c])
    return values


# ---------------------------------------------------------------------------
# Scoring


def weighted_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    """Support-weighted mean of the per-class F1, from one (true, predicted)
    count table."""
    n = len(y_true)
    confusion = np.bincount(np.asarray(y_true, dtype=np.int64) * n_classes + y_pred,
                            minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    supports, tps, predicted = (v.tolist() for v in (confusion.sum(axis=1), np.diag(confusion),
                                                     confusion.sum(axis=0)))
    total = 0.0
    for support, tp, pred in zip(supports, tps, predicted):
        if support == 0:
            continue
        fp = pred - tp
        fn = support - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        total += support / n * f1
    return total


def _quality(y: np.ndarray, preds: np.ndarray, n_classes: int | None) -> float:
    """MAE (regression) or weighted F1 (classification) of ``preds``."""
    if n_classes is None:
        return float(np.mean(np.abs(preds - y)))
    return weighted_f1(y, preds, n_classes)


@dataclass
class _Folds:
    """The cross validation every feature shares: the labels (class codes
    for classification), each row's validation fold, each fold's fallback
    (fold-train median or modal class) and the naive predictions' quality."""
    y: np.ndarray
    n_classes: int | None
    fold_of: np.ndarray
    fallback: np.ndarray
    naive: float

    def score(self, tree_preds: np.ndarray) -> float:
        tree = _quality(self.y, tree_preds, self.n_classes)
        if self.n_classes is None:
            return 0.0 if self.naive == 0.0 else max(0.0, 1.0 - tree / self.naive)
        return 0.0 if self.naive >= 1.0 else max(0.0, (tree - self.naive) / (1.0 - self.naive))


def _pps_single(values: np.ndarray, numeric: bool, cv: _Folds) -> float:
    """Score of one feature: ``values`` are the raw numbers of a numerical
    feature or the category codes of a categorical one."""
    y, fold_of, n_folds = cv.y, cv.fold_of, len(cv.fallback)
    if numeric:
        x = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(x)
        if not finite.any():
            return 0.0
        thresholds = quantile_candidates(x[finite])
        # a row's bin is the same in every fold; missing values get the last one
        n_cells = len(thresholds) + 2
        cells = np.where(finite, np.searchsorted(thresholds, x, side="left"), n_cells - 1)
    else:
        n_cells = int(values.max()) + 1
        cells = values
    # table[f, cell]: fold f's tree prediction for a row in this cell
    table = np.repeat(cv.fallback[:, None], n_cells, axis=1)
    if cv.n_classes is not None:
        k = cv.n_classes
        counts = np.bincount((fold_of * n_cells + cells) * k + y, minlength=n_folds * n_cells * k
                             ).reshape(n_folds, n_cells, k)
        # fold f's training counts: every row's minus its own validation rows'
        for f, train in enumerate(counts.sum(axis=0) - counts):
            if numeric:
                table[f, :-1] = _cls_tree(train[:-1], cv.fallback[f])
            else:
                table[f] = _categorical_cls(train)
    elif numeric:
        # a stable sort of a subset is the subset's subsequence of the stable
        # sort of all rows, so every fold reads its order from this one
        order_all = np.argsort(x, kind="stable")
        for f in range(n_folds):
            fit_rows = (fold_of != f) & finite
            if fit_rows.any():
                order = order_all[fit_rows[order_all]]
                table[f, :-1] = _reg_tree(x[order], y[order], thresholds, cv.fallback[f])
    else:
        for f in range(n_folds):
            train = fold_of != f
            table[f] = _categorical_reg(values[train], y[train], n_cells)
    return cv.score(table[fold_of, cells])


def pps_importance(d: ds.Dataset, train_rows, seed: int = 0) -> dict[str, float]:
    """Cross-validated tree-vs-naive score per feature, clipped to [0, 1]."""
    rows = np.asarray(train_rows, dtype=np.int64)
    fold_of = np.empty(len(rows), dtype=np.int64)
    for f, val_idx in enumerate(kfold_indices(len(rows), CV_FOLDS, subseed(seed, "pps-folds"))):
        fold_of[val_idx] = f
    if d.task == ds.TASK_REGRESSION:
        y = _scaled(np.asarray(d.labels()[rows], dtype=np.float64))
        n_classes = None
        fallback = np.asarray([np.median(y[fold_of != f]) for f in range(CV_FOLDS)])
    else:
        y = d.class_codes[rows].astype(np.int64)
        n_classes = len(d.class_labels)
        counts = np.bincount(fold_of * n_classes + y, minlength=CV_FOLDS * n_classes
                             ).reshape(CV_FOLDS, n_classes)
        fallback = np.argmax(counts.sum(axis=0) - counts, axis=1)
    cv = _Folds(y, n_classes, fold_of, fallback, _quality(y, fallback[fold_of], n_classes))
    out = {}
    for col in d.feature_columns:
        numeric = col.kind == ds.KIND_NUMERICAL
        values = d.column(col.name)[rows] if numeric else d.codes(col.name)[rows]
        out[col.name] = float(min(1.0, _pps_single(values, numeric, cv)))
    return out
