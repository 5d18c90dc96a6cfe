"""Independent brute-force reference implementations used to check the
library. These re-derive results from raw data with plain loops and their
own arithmetic; they share only documented definitions (candidate quantile
grids, fold assignment, tie-break rules) with the code under test.
"""
from __future__ import annotations

import csv
import math
from functools import lru_cache

import numpy as np

from tabctx import dataset as ds
from tabctx.util import headroom, kfold_indices, subseed

MISSING = float("nan")


# ---------------------------------------------------------------------------
# Table loading: the whole table as Python rows, one cell at a time


def parse_cell(text: str) -> float:
    """A numerical cell: ``float`` of its text, NaN if that fails or is not finite."""
    try:
        v = float(text)
    except ValueError:
        return math.nan
    return v if math.isfinite(v) else math.nan


def load_dataset_reference(table_file, schema_file) -> ds.Dataset:
    """Read the whole table with one ``csv.reader``, row by row, parse each
    numerical cell on its own, and build the Dataset from token and number
    lists. Errors carry the loader's messages."""
    schema, task = ds.load_schema(schema_file)
    names = [c.name for c in schema]
    with open(table_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{table_file}: header: {exc}") from None
        if header is None:
            raise ValueError(f"{table_file}: empty table")
        if header != names:
            j = next(j for j in range(max(len(header), len(names)))
                     if j >= len(header) or j >= len(names) or header[j] != names[j])
            got = header[j] if j < len(header) else None
            want = names[j] if j < len(names) else None
            raise ValueError(f"{table_file}: header {header} does not match schema columns {names}: "
                             f"column {j + 1} is {got!r}, schema says {want!r}")
        rows = []
        while True:
            try:
                cells = next(reader, None)
            except csv.Error as exc:
                raise ValueError(f"{table_file}: data row {len(rows) + 1}: {exc}") from None
            if cells is None:
                break
            if len(cells) != len(names):
                where = (f"no cell for column {names[len(cells)]!r}" if len(cells) < len(names)
                         else f"extra cells after column {names[-1]!r}")
                raise ValueError(f"{table_file}: data row {len(rows) + 1} has {len(cells)} "
                                 f"cells, expected {len(names)} ({where})")
            rows.append(cells)
    if not rows:
        raise ValueError(f"{table_file}: empty table")

    columns, coerced = {}, {}
    for j, col in enumerate(schema):
        cells = [r[j] for r in rows]
        if col.kind == ds.KIND_NUMERICAL:
            columns[col.name] = np.asarray([parse_cell(c) for c in cells], dtype=np.float64)
            coerced[col.name] = sum(1 for c, v in zip(cells, columns[col.name]) if c and math.isnan(v))
        else:
            columns[col.name] = np.asarray(cells, dtype=object)
    try:
        return ds.Dataset(schema, columns, task, coerced_cells=coerced)
    except ValueError as exc:
        raise ValueError(f"{table_file}: {exc}") from None


# ---------------------------------------------------------------------------
# Retrieval pipeline re-derivation


def _oracle_normalizer(values: list[float], mode: str):
    """Build a scalar normalization function from training values only."""
    finite = sorted(v for v in values if np.isfinite(v))
    n = len(finite)
    if mode == "none":
        return lambda v: v
    if n == 0:
        const = 0.0 if mode == "standard" else 0.5
        return lambda v: const
    if finite[0] == finite[-1]:
        const = 0.0 if mode == "standard" else 0.5
        return lambda v: const
    if mode == "quantile":
        if n > 1000:
            pick = np.round(np.linspace(0, n - 1, 1000)).astype(int)
            knots = np.asarray(finite)[pick]
        else:
            knots = np.asarray(finite)
        grid = np.linspace(0.0, 1.0, len(knots))
        return lambda v: float(np.interp(v, knots, grid)) if np.isfinite(v) else MISSING
    if mode == "standard":
        mean = float(np.mean(finite))
        std = float(np.std(finite))
        return lambda v: (v - mean) / std if np.isfinite(v) else MISSING
    lo, hi = finite[0], finite[-1]
    return lambda v: min(1.0, max(0.0, (v - lo) / (hi - lo))) if np.isfinite(v) else MISSING


def retrieval_oracle(d: ds.Dataset, train_rows, query: dict, cfg,
                     pearson_w: dict[str, float], pps_w: dict[str, float]):
    """Naive recomputation of the whole retrieval pipeline. Returns
    [(global_row, distance, tag)] in the final context order."""
    rows = sorted(int(r) for r in train_rows)

    eligible = []
    for r in rows:
        if all(str(d.column(c)[r]) == str(query.get(c, "")) for c in cfg.match_constraints):
            eligible.append(r)
    if not eligible:
        return []

    feats = d.feature_columns
    normalizers = {}
    for col in feats:
        if col.kind == ds.KIND_NUMERICAL:
            mode = cfg.per_feature_norm.get(col.name, cfg.numeric_norm)
            normalizers[col.name] = _oracle_normalizer([float(d.column(col.name)[r]) for r in rows], mode)

    dist = {}
    for col in feats:
        if col.kind == ds.KIND_CATEGORICAL:
            qv = str(query.get(col.name, ""))
            dist[col.name] = [0.0 if str(d.column(col.name)[r]) == qv else 1.0 for r in eligible]
            continue
        nrm = normalizers[col.name]
        qraw = query.get(col.name, MISSING)
        qn = nrm(float(qraw))
        raw = []
        for r in eligible:
            xn = nrm(float(d.column(col.name)[r]))
            raw.append(abs(xn - qn) if np.isfinite(xn) and np.isfinite(qn) else MISSING)
        present = [v for v in raw if np.isfinite(v)]
        out = []
        for v in raw:
            if not np.isfinite(v):
                out.append(1.0)
            elif not cfg.distance_minmax_rescale:
                out.append(v)
            elif min(present) == max(present):
                out.append(0.0)
            else:
                out.append((v - min(present)) / (max(present) - min(present)))
        dist[col.name] = out

    names = [c.name for c in feats]

    def agg(weights: dict[str, float]):
        out = []
        for i in range(len(eligible)):
            vec = np.asarray([dist[f][i] for f in names])
            w = np.asarray([weights[f] for f in names])
            out.append(float(np.sqrt(np.sum(vec * vec * w))))
        return out

    mode = cfg.importance_mode
    if mode != "dual":
        weights = ({f: 1.0 for f in names} if mode == "uniform"
                   else pearson_w if mode == "pearson_only" else pps_w)
        dd = agg(weights)
        tag = {"pearson_only": "pearson-half", "pps_only": "pps-half", "uniform": "merged"}[mode]
        order = sorted(range(len(eligible)), key=lambda i: (dd[i], eligible[i]))
        take = order[:min(cfg.quota, len(eligible))]
        return [(eligible[i], dd[i], tag) for i in sorted(take, key=lambda i: (dd[i], eligible[i]))]

    d_p = agg(pearson_w)
    d_s = agg(pps_w)
    k_p = (cfg.quota + 1) // 2
    k_s = cfg.quota - k_p
    target = min(cfg.quota, len(eligible))
    rank_p = sorted(range(len(eligible)), key=lambda i: (d_p[i], eligible[i]))
    rank_s = sorted(range(len(eligible)), key=lambda i: (d_s[i], eligible[i]))
    chosen = {}
    for i in rank_p[:k_p]:
        chosen[i] = (d_p[i], "pearson-half")
    for i in rank_s[:k_s]:
        if i not in chosen:
            chosen[i] = (d_s[i], "pps-half")
    if len(chosen) < target:
        d_m = [min(a, b) for a, b in zip(d_p, d_s)]
        for i in sorted(range(len(eligible)), key=lambda i: (d_m[i], eligible[i])):
            if i not in chosen:
                chosen[i] = (d_m[i], "merged")
                if len(chosen) == target:
                    break
    picks = sorted(chosen.items(), key=lambda kv: (kv[1][0], eligible[kv[0]]))
    return [(eligible[i], v[0], v[1]) for i, v in picks]


def boundary_grid_reference(pool, resolution) -> np.ndarray:
    """Grid probabilities, (ny, nx, classes), from one ``retrieve`` and one
    ``knn_predict`` per cell, in the grid's own cell order and axes."""
    from tabctx.predictors import knn_predict
    from tabctx.retrieval import retrieve

    d = pool.dataset
    fx, fy = d.numerical_features
    nx, ny = resolution
    axes = []
    for name, n in ((fx, nx), (fy, ny)):
        col = d.column(name)[pool.rows]
        lo, hi = float(np.min(col)), float(np.max(col))
        axes.append(np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), n))
    xs, ys = axes
    probs = np.empty((ny, nx, len(d.class_labels)))
    for iy, gy in enumerate(ys):
        for ix, gx in enumerate(xs):
            ctx = retrieve(pool, {fx: gx, fy: gy})
            probs[iy, ix, :] = knn_predict(ctx, d, None).class_probabilities
    return probs


def write_grid_reference(grid, csv_path) -> None:
    """The grid CSV written with one ``csv.writer`` row per cell and one
    ``repr`` per probability."""
    nx, ny = grid.resolution
    xs = np.linspace(grid.x_range[0], grid.x_range[1], nx)
    ys = np.linspace(grid.y_range[0], grid.y_range[1], ny)
    x_text = [repr(v) for v in xs.tolist()]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"] + [f"p_{c}" for c in grid.class_labels])
        for y, row in zip(ys.tolist(), grid.probabilities):
            y_text = repr(y)
            writer.writerows([x, y_text] + [repr(p) for p in cell]
                             for x, cell in zip(x_text, row.tolist()))


# ---------------------------------------------------------------------------
# Pearson: the dense indicator formula


def _dense_scaled(a: np.ndarray) -> np.ndarray:
    exponent = headroom(float(a.min()), float(a.max()))
    return np.ldexp(a, -exponent) if exponent else a


def _dense_max_abs_corr(F: np.ndarray, L: np.ndarray) -> float:
    n = F.shape[0]
    if n < 2:
        return 0.0
    F = F - F.mean(axis=0)
    Lc = L - L.mean(axis=0)
    sf = np.sqrt((F ** 2).sum(axis=0))
    sl = np.sqrt((Lc ** 2).sum(axis=0))
    keep_f = sf > 0
    keep_l = sl > 0
    if not keep_f.any() or not keep_l.any():
        return 0.0
    R = (F[:, keep_f].T @ Lc[:, keep_l]) / np.outer(sf[keep_f], sl[keep_l])
    return float(min(1.0, np.max(np.abs(R))))


def pearson_dense_reference(d: ds.Dataset, train_rows) -> dict[str, float]:
    """Pearson weights from whole C-ordered matrices: the ``==``/``astype``
    indicator of the training rows' categories (or classes), the label
    matrix centred per feature, both squared whole, and the product of the
    nonzero-norm columns as numpy's boolean index on axis 1 copies them.
    Columns and labels of 2**500 and more are scaled by the power of two
    ``util.headroom`` picks; a numerical feature pairs its finite rows."""
    rows = np.asarray(train_rows, dtype=np.int64)
    if d.task == ds.TASK_REGRESSION:
        labels = _dense_scaled(np.asarray(d.labels()[rows], dtype=np.float64).reshape(-1, 1))
    else:
        labels = (d.class_codes[rows][:, None] == np.arange(len(d.class_labels))).astype(np.float64)
    out = {}
    for col in d.feature_columns:
        if col.kind == ds.KIND_NUMERICAL:
            vals = np.asarray(d.column(col.name)[rows], dtype=np.float64)
            keep = np.isfinite(vals)
            if keep.sum() < 2:
                out[col.name] = 0.0
                continue
            F = _dense_scaled(vals[keep].reshape(-1, 1))
            L = labels[keep]
        else:
            codes = np.unique(d.codes(col.name)[rows], return_inverse=True)[1]
            F = (codes[:, None] == np.arange(codes.max() + 1)).astype(np.float64)
            L = labels
        out[col.name] = _dense_max_abs_corr(F, L)
    return out


# ---------------------------------------------------------------------------
# Exhaustive single-feature quantile tree search


def _oracle_candidates(values: np.ndarray, step: float) -> np.ndarray:
    n_steps = int(round(1.0 / step)) - 1
    return np.unique(np.quantile(values, np.linspace(step, 1.0 - step, n_steps)))


def _oracle_tree(x: np.ndarray, y: np.ndarray, thresholds: np.ndarray, depth: int,
                 n_classes: int | None, fallback):
    """Exhaustive search over all depth-limited trees: every node tries every
    candidate threshold, preferring a leaf on cost ties and the smallest
    threshold otherwise."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    pos = [0] + [int(np.searchsorted(xs, t, side="right")) for t in thresholds] + [len(xs)]

    @lru_cache(maxsize=None)
    def leaf_cost(i, j):
        seg = ys[pos[i]:pos[j]]
        if len(seg) == 0:
            return 0.0
        if n_classes is None:
            return float(np.sum(np.abs(seg - np.median(seg))))
        counts = np.bincount(seg.astype(np.int64), minlength=n_classes)
        return float(len(seg) - counts.max())

    @lru_cache(maxsize=None)
    def best_cost(i, j, dep):
        c = leaf_cost(i, j)
        if dep == 0:
            return c
        for k in range(i + 1, j):
            c = min(c, best_cost(i, k, dep - 1) + best_cost(k, j, dep - 1))
        return c

    bounds: list[int] = []

    def build(i, j, dep):
        if dep == 0 or best_cost(i, j, dep) == leaf_cost(i, j):
            return
        target = best_cost(i, j, dep)
        for k in range(i + 1, j):
            if best_cost(i, k, dep - 1) + best_cost(k, j, dep - 1) == target:
                build(i, k, dep - 1)
                bounds.append(k)
                build(k, j, dep - 1)
                return
        raise AssertionError("unreachable")

    build(0, len(pos) - 1, depth)
    edges = [0] + [pos[k] for k in bounds] + [len(xs)]
    leaves = []
    for a, b in zip(edges[:-1], edges[1:]):
        seg = ys[a:b]
        if len(seg) == 0:
            leaves.append(fallback)
        elif n_classes is None:
            leaves.append(float(np.median(seg)))
        else:
            leaves.append(int(np.argmax(np.bincount(seg.astype(np.int64), minlength=n_classes))))
    tvals = [float(thresholds[k - 1]) for k in bounds]

    def predict(v):
        if not np.isfinite(v):
            return fallback
        idx = 0
        while idx < len(tvals) and v > tvals[idx]:
            idx += 1
        return leaves[idx]

    return predict


def segment_costs_reg_reference(y_sorted: np.ndarray, pos) -> np.ndarray:
    """Regression leaf cost of every segment y_sorted[pos[i]:pos[j]], i < j,
    with one np.median per segment; inf on and below the diagonal."""
    b = len(pos)
    C = np.full((b, b), np.inf)
    for i in range(b - 1):
        for j in range(i + 1, b):
            seg = y_sorted[pos[i]:pos[j]]
            C[i, j] = 0.0 if len(seg) == 0 else float(np.sum(np.abs(seg - np.median(seg))))
    return C


def depth_tables_reference(C: np.ndarray, depth: int) -> list[np.ndarray]:
    """Every min-plus table of the tree DP, whole: ``tables[d][i, j]`` is the
    least cost of bins i .. j - 1 under a tree of depth at most d."""
    tables = [C]
    M = C
    for _ in range(depth):
        M = np.minimum(C, np.min(M[:, :, None] + M[None, :, :], axis=1))
        tables.append(M)
    return tables


def categorical_tree_reference(tokens: np.ndarray, y: np.ndarray, n_classes: int | None,
                               fallback, depth: int = 4):
    """Greedy one-vs-rest categorical tree on string tokens: each level
    isolates the category (scanned in sorted token order) that strictly
    lowers the total leaf cost most. Returns a token -> prediction function;
    a token unseen in training goes to the rest leaf."""
    def cost(v):
        if len(v) == 0:
            return 0.0
        if n_classes is None:
            return float(np.sum(np.abs(v - np.median(v))))
        return float(len(v) - np.bincount(v.astype(np.int64), minlength=n_classes).max())

    def leaf(v):
        if len(v) == 0:
            return fallback
        if n_classes is None:
            return float(np.median(v))
        return int(np.argmax(np.bincount(v.astype(np.int64), minlength=n_classes)))

    cats = sorted(set(tokens.tolist()))
    iso_cost = {c: cost(y[tokens == c]) for c in cats}
    isolated: list[str] = []
    rest = np.ones(len(tokens), dtype=bool)
    current = cost(y)
    for _ in range(depth):
        best, best_cost = None, current
        for c in cats:
            if c in isolated:
                continue
            total = sum(iso_cost[k] for k in isolated) + iso_cost[c] + cost(y[rest & (tokens != c)])
            if total < best_cost:
                best, best_cost = c, total
        if best is None:
            break
        isolated.append(best)
        rest &= tokens != best
        current = best_cost
    values = {c: leaf(y[tokens == c]) for c in isolated}
    rest_value = leaf(y[rest])
    return lambda token: values.get(token, rest_value)


def fit_prompt_reference(serialize, tmpl, rows, query, features, label_name, token_budget):
    """Drop context rows from the far end, re-rendering the whole prompt
    after each drop, until its token estimate, ceil(characters /
    chars_per_token), fits; (text, rows kept) or None if the bare query
    overflows."""
    kept = list(rows)
    while True:
        text = serialize(tmpl, kept, query, features, label_name)
        if math.ceil(len(text) / tmpl.chars_per_token) <= token_budget:
            return text, len(kept)
        if not kept:
            return None
        kept.pop()


def _oracle_f1w(y_true, y_pred, n_classes):
    n = len(y_true)
    total = 0.0
    for c in range(n_classes):
        sup = sum(1 for t in y_true if t == c)
        if sup == 0:
            continue
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sup - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += sup / n * f1
    return total


def exhaustive_tree_score(x: np.ndarray, y: np.ndarray, n_classes: int | None,
                          cv_folds: int = 4, seed: int = 0, depth: int = 4,
                          step: float = 0.02) -> float:
    """Cross-validated naive-normalized score where the tree at each fold is
    found by exhaustive search (numerical x) or by the greedy token tree
    (categorical x, an object array of tokens). Fold assignment reuses the library's public
    helper (it is input plumbing, not the code path under test)."""
    n = len(y)
    folds = kfold_indices(n, cv_folds, subseed(seed, "pps-folds"))
    categorical = x.dtype == object
    if not categorical:
        finite = np.isfinite(x)
        if finite.sum() == 0:
            return 0.0
        thresholds = _oracle_candidates(x[finite], step)
    tree_preds, naive_preds = [None] * n, [None] * n
    for val_idx in folds:
        val = set(int(i) for i in val_idx)
        tr = [i for i in range(n) if i not in val]
        yt = y[tr]
        if n_classes is None:
            fallback = float(np.median(yt))
        else:
            fallback = int(np.argmax(np.bincount(yt.astype(np.int64), minlength=n_classes)))
        xt = x[tr]
        if categorical:
            predict = categorical_tree_reference(xt, yt, n_classes, fallback, depth)
        elif not np.isfinite(xt).any() or len(thresholds) == 0:
            predict = lambda v: fallback  # noqa: E731
        else:
            ft = np.isfinite(xt)
            predict = _oracle_tree(xt[ft], yt[ft], thresholds, depth, n_classes, fallback)
        for i in val:
            tree_preds[i] = predict(x[i] if categorical else float(x[i]))
            naive_preds[i] = fallback
    return _oracle_score(y, tree_preds, naive_preds, n_classes)


def _oracle_score(y, tree_preds, naive_preds, n_classes: int | None) -> float:
    """The naive-normalized score of out-of-fold tree predictions."""
    if n_classes is None:
        mae_naive = float(np.mean([abs(p - t) for p, t in zip(naive_preds, y)]))
        if mae_naive == 0.0:
            return 0.0
        mae_tree = float(np.mean([abs(p - t) for p, t in zip(tree_preds, y)]))
        return max(0.0, 1.0 - mae_tree / mae_naive)
    f1n = _oracle_f1w(list(y), list(naive_preds), n_classes)
    if f1n >= 1.0:
        return 0.0
    f1t = _oracle_f1w(list(y), list(tree_preds), n_classes)
    return max(0.0, (f1t - f1n) / (1.0 - f1n))


def pps_per_fold_sort_reference(d: ds.Dataset, train_rows, cv_folds: int = 4,
                                seed: int = 0) -> dict[str, float]:
    """PPS of each feature with one tree per fold fitted on that fold's
    gathered training rows: a numerical feature's finite rows stable-sorted on
    their own (classification counts from their own ``bincount``), a
    categorical feature's codes and labels. The per-fold fits go through the
    library's private fitters; the folds, the predictions (numeric bins from
    ``searchsorted``) and the scores do not."""
    from tabctx import importance as imp

    rows = np.asarray(train_rows, dtype=np.int64)
    n = len(rows)
    folds = kfold_indices(n, cv_folds, subseed(seed, "pps-folds"))
    if d.task == ds.TASK_REGRESSION:
        y, n_classes = np.asarray(d.labels()[rows], dtype=np.float64), None
    else:
        y = np.asarray([d.class_labels.index(v) for v in d.labels()[rows]], dtype=np.int64)
        n_classes = len(d.class_labels)
    out = {}
    for col in d.feature_columns:
        name = col.name
        numeric = col.kind == ds.KIND_NUMERICAL
        if numeric:
            x = np.asarray(d.column(name)[rows], dtype=np.float64)
            if not np.isfinite(x).any():
                out[name] = 0.0
                continue
            thresholds = imp.quantile_candidates(x[np.isfinite(x)])
        else:
            codes = np.asarray(d.codes(name)[rows], dtype=np.int64)
            n_codes = int(codes.max()) + 1
        tree_preds = np.empty(n, dtype=y.dtype)
        naive_preds = np.empty_like(tree_preds)
        for val_idx in folds:
            val = np.zeros(n, dtype=bool)
            val[val_idx] = True
            yt = y[~val]
            fallback = (float(np.median(yt)) if n_classes is None
                        else int(np.argmax(np.bincount(yt, minlength=n_classes))))
            naive_preds[val] = fallback
            if not numeric:
                if n_classes is None:
                    by_code = imp._categorical_reg(codes[~val], yt, n_codes)
                else:
                    by_code = imp._categorical_cls(np.bincount(
                        codes[~val] * n_classes + yt, minlength=n_codes * n_classes
                    ).reshape(n_codes, n_classes))
                tree_preds[val] = by_code[codes[val]]
                continue
            xt = x[~val]
            ft = np.isfinite(xt)
            if not ft.any() or len(thresholds) == 0:
                tree_preds[val] = fallback
                continue
            order = np.argsort(xt[ft], kind="stable")
            xs, ys = xt[ft][order], yt[ft][order]
            if n_classes is None:
                by_bin = imp._reg_tree(xs, ys, thresholds, fallback)
            else:
                bins = np.searchsorted(thresholds, xs, side="left")
                by_bin = imp._cls_tree(np.bincount(bins * n_classes + ys,
                                                   minlength=(len(thresholds) + 1) * n_classes
                                                   ).reshape(-1, n_classes), fallback)
            xv = x[val]
            seen = np.isfinite(xv)
            preds = np.full(len(xv), fallback, dtype=y.dtype)
            preds[seen] = by_bin[np.searchsorted(thresholds, xv[seen], side="left")]
            tree_preds[val] = preds
        out[name] = float(min(1.0, _oracle_score(y, tree_preds, naive_preds, n_classes)))
    return out


# ---------------------------------------------------------------------------
# Pairwise AUROC and nearest-neighbor partitions


def pairwise_auroc(y, scores) -> float | None:
    pos = [s for t, s in zip(y, scores) if t]
    neg = [s for t, s in zip(y, scores) if not t]
    if not pos or not neg:
        return None
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def nearest_neighbor_index(points: np.ndarray, q) -> int:
    """Index of the Euclidean-nearest training point, ties to the lowest index."""
    best, best_d2 = 0, float("inf")
    for i, p in enumerate(points):
        d2 = float(np.sum((np.asarray(p) - np.asarray(q)) ** 2))
        if d2 < best_d2:
            best, best_d2 = i, d2
    return best


# ---------------------------------------------------------------------------
# Random mixed-type dataset generation for oracle sweeps


def random_mixed_dataset(seed: int, max_rows: int = 200, max_features: int = 10):
    """Random dataset with numerical and categorical features, missing cells,
    duplicated rows, and coarse values that force distance ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, max_rows + 1))
    n_num = int(rng.integers(0, max_features))
    n_cat = int(rng.integers(0 if n_num else 1, max_features - n_num + 1))
    task = ds.TASK_CLASSIFICATION if rng.random() < 0.5 else ds.TASK_REGRESSION

    schema, columns = [], {}
    for i in range(n_num):
        name = f"num{i}"
        vals = rng.normal(size=n) * float(rng.uniform(0.5, 20))
        if rng.random() < 0.5:
            vals = np.round(vals, int(rng.integers(0, 3)))
        if rng.random() < 0.4:
            vals[rng.random(n) < 0.15] = np.nan
        schema.append(ds.ColumnSchema(name, ds.KIND_NUMERICAL))
        columns[name] = vals
    for i in range(n_cat):
        name = f"cat{i}"
        cats = [f"c{j}" for j in range(int(rng.integers(2, 6)))]
        if rng.random() < 0.3:
            cats.append("")
        schema.append(ds.ColumnSchema(name, ds.KIND_CATEGORICAL))
        columns[name] = np.asarray([cats[int(j)] for j in rng.integers(0, len(cats), n)], dtype=object)

    if task == ds.TASK_CLASSIFICATION:
        k = int(rng.integers(2, 4))
        tokens = [f"y{j}" for j in range(k)]
        schema.append(ds.ColumnSchema("target", ds.KIND_CATEGORICAL, ds.ROLE_LABEL))
        columns["target"] = np.asarray([tokens[int(j)] for j in rng.integers(0, k, n)], dtype=object)
    else:
        schema.append(ds.ColumnSchema("target", ds.KIND_NUMERICAL, ds.ROLE_LABEL))
        columns["target"] = rng.normal(size=n)

    # duplicate a few rows so exact ties exercise the tie-break rule
    dups = rng.integers(0, n, size=max(1, n // 10))
    for name in columns:
        col = columns[name]
        col[(dups + 1) % n] = col[dups]

    return ds.Dataset(schema, columns, task)
