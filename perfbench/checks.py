"""Output checks for each workload, recomputed apart from the program.

They run after each round, outside its timed region, and follow the rules
documented in the ``tabctx`` module docstrings: quantile normalization over
at most 1000 knots, per-query min-max rescale of numerical distances, the
weights in ``weights.json``, ``sqrt(sum(d_i^2 * w_i))`` aggregation, the
dual-quota selection and the (distance, row index) order. Nothing is
compared with a stored copy of earlier output.

Each check returns ``(operations, failed, problems)``: operations are the
prediction rows or grid cells a round must produce; a row flagged
``transport_error`` or ``parse_failure``, or one missing because its dataset
failed, is a failed operation; problems are mismatches in rows that did not
fail.
"""
from __future__ import annotations

import collections
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stub import reply_for

FAILED_FLAGS = {"transport_error", "parse_failure"}
KNOT_CAP = 1000
SAMPLED_QUERIES = 3
SAMPLED_CELLS = 64


@dataclass
class TableData:
    """The generated table as the benchmark wrote it."""
    X: np.ndarray          # numerical features, NaN where missing
    cats: np.ndarray       # categorical tokens, "" where missing
    labels: np.ndarray
    num_names: list[str]
    cat_names: list[str]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _prediction_rows(out: Path, expected: int) -> tuple[list[dict], int, list[str]]:
    """Rows that did not fail, the failed count and manifest problems."""
    problems = [f"dataset {k!r} status {v['status']}: {v.get('error')}"
                for k, v in _load_json(out / "manifest.json")["datasets"].items()
                if v["status"] != "ok"]
    rows = _read_csv(out / "predictions.csv")
    if len(rows) > expected:
        problems.append(f"{len(rows)} prediction rows, expected {expected}")
    good = [r for r in rows if r["flag"] not in FAILED_FLAGS]
    return good, expected - len(good), problems


def _traces(out: Path) -> dict[tuple, list[int]]:
    with open(out / "traces.jsonl", encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    return {(t["policy"], t["train_size"], t["context_size"], t["query"]): t["selected"]
            for t in recs}


# ---------------------------------------------------------------------------
# Brute-force retrieval


def _quantile_normalize(pool_vals: np.ndarray, query_val: float) -> tuple[np.ndarray, float]:
    vals = np.sort(pool_vals[np.isfinite(pool_vals)])
    if len(vals) == 0 or vals[0] == vals[-1]:
        return np.full(len(pool_vals), 0.5), 0.5
    if len(vals) > KNOT_CAP:
        vals = vals[np.round(np.linspace(0, len(vals) - 1, KNOT_CAP)).astype(np.int64)]
    grid = np.linspace(0.0, 1.0, len(vals))
    return np.interp(pool_vals, vals, grid), float(np.interp(query_val, vals, grid))


def _distance_matrix(pool_num: np.ndarray, pool_cat: np.ndarray, q_num, q_cat) -> np.ndarray:
    """Per-feature distances of every pool row to the query, schema order
    (numerical features first in the generated schemas)."""
    cols = []
    for j in range(pool_num.shape[1]):
        norm, qn = _quantile_normalize(pool_num[:, j], float(q_num[j]))
        raw = np.abs(norm - qn)
        out = np.ones(len(raw))
        present = np.isfinite(raw)
        if present.any():
            v = raw[present]
            lo, hi = v.min(), v.max()
            out[present] = 0.0 if hi == lo else (v - lo) / (hi - lo)
        cols.append(out)
    for j in range(pool_cat.shape[1]):
        cols.append((pool_cat[:, j] != q_cat[j]).astype(np.float64))
    return np.column_stack(cols)


def _aggregate(D: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(D * D * w[None, :], axis=1))


def _nearest(d: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    return np.lexsort((rows, d))[:k]


def _dual_context(D: np.ndarray, rows: np.ndarray, w_p: np.ndarray, w_s: np.ndarray,
                  quota: int) -> list[int]:
    d_p, d_s = _aggregate(D, w_p), _aggregate(D, w_s)
    target = min(quota, len(rows))
    chosen: dict[int, float] = {}
    for p in _nearest(d_p, rows, (quota + 1) // 2):
        chosen[p] = d_p[p]
    for p in _nearest(d_s, rows, quota - (quota + 1) // 2):
        chosen.setdefault(p, d_s[p])
    if len(chosen) < target:
        merged = np.minimum(d_p, d_s)
        for p in _nearest(merged, rows, len(rows)):
            if len(chosen) == target:
                break
            chosen.setdefault(p, merged[p])
    return [int(rows[p]) for p in sorted(chosen, key=lambda p: (chosen[p], rows[p]))]


def _pairwise_auroc(labels: np.ndarray, P: np.ndarray, class_order: list[str]) -> float | None:
    """One-vs-rest over the classes present, each pair of a positive and a
    negative scoring 1 when ordered right and 1/2 when tied."""
    vals = []
    for i, c in enumerate(class_order):
        pos, neg = P[labels == c, i], P[labels != c, i]
        if len(pos) and len(neg):
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            vals.append(wins / (len(pos) * len(neg)))
    return sum(vals) / len(vals) if len(vals) >= 2 else None


# ---------------------------------------------------------------------------
# Workload checks


def check_scaling(out: Path, data: TableData, train: np.ndarray, test: np.ndarray, seed: int,
                  sizes, ctx_sizes) -> tuple[int, int, list[str]]:
    from tabctx import generate_scaling_pools
    from tabctx.util import subseed

    expected = len(test) * len(sizes) * 2 * len(ctx_sizes)
    rows, failed, problems = _prediction_rows(out, expected)
    traces = _traces(out)
    weights = _load_json(out / "weights.json")["cls"]
    features = data.num_names + data.cat_names
    # Pool membership comes from the program's public seeded split and
    # subset functions; the ranking inside each pool is recomputed here.
    pools = dict(zip(sorted(sizes), generate_scaling_pools(train, sorted(sizes),
                                                           subseed(seed, "subsets", "cls"))))
    rng = np.random.default_rng([seed, 99])
    for size, pool in pools.items():
        w = weights[f"rag/n{size}"]
        w_p = np.asarray([w["pearson"][f] for f in features])
        w_s = np.asarray([w["pps"][f] for f in features])
        for q in rng.choice(test, size=SAMPLED_QUERIES, replace=False):
            D = _distance_matrix(data.X[pool], data.cats[pool], data.X[q], data.cats[q])
            for c in ctx_sizes:
                want = _dual_context(D, pool, w_p, w_s, c)
                got = traces.get(("rag", size, c, int(q)))
                if got != want:
                    problems.append(f"rag n{size} c{c} query {q}: context {got} != brute force {want}")
        for c in ctx_sizes:
            for q in test:
                got = traces.get(("random", size, c, int(q)), [])
                if (len(got) != min(c, size) or len(set(got)) != len(got)
                        or not np.isin(got, pool).all()):
                    problems.append(f"random n{size} c{c} query {q}: bad context")

    class_order = list(dict.fromkeys(data.labels.tolist()))
    groups = collections.defaultdict(list)
    for r in rows:
        key = (r["policy"], int(r["train_size"]), int(r["context_size"]), int(r["row_index"]))
        sel = traces[key]
        probs = [float(p) for p in r["probs"].split("|")]
        labs = data.labels[sel]
        want = [int(np.sum(labs == c)) / len(sel) for c in class_order]
        if probs != want or int(r["context_used"]) != len(sel):
            problems.append(f"knn {key}: probabilities {probs} != label shares {want}")
        groups[key[:3] + (r["predictor"],)].append((int(r["row_index"]), probs))
    for m in _load_json(out / "metrics.json")["metrics"]:
        key = (m["policy"], m["train_size"], m["context_size"], m["predictor"])
        if len(groups[key]) != m["n_test"]:
            continue  # the score covers failed rows
        idx, P = zip(*groups[key])
        want = _pairwise_auroc(data.labels[list(idx)], np.asarray(P), class_order)
        if m["metric"] != "auroc" or want is None or abs(m["value"] - want) > 1e-12:
            problems.append(f"auroc {key}: {m['value']} != pairwise {want}")
    return expected, failed, problems


def _value_template(prompts: list[str], data: TableData, test: np.ndarray) -> str | None:
    """How the prompt wraps a number: the text around the shortest
    round-trip form of the first feature in some prompt's query line."""
    if not prompts:
        return None
    first_field = prompts[0].rsplit("\n", 1)[-1].split(", ")[0]
    text = first_field.split(": ", 1)[-1]
    for q in test:
        rep = repr(float(data.X[q, 0]))
        if rep in text:
            return text.replace(rep, "{}", 1)
    return None


def check_llm_reg(out: Path, data: TableData, test: np.ndarray, ctx_sizes, prompts: list[str],
                  preamble: str, budget: int, chars_per_token: float) -> tuple[int, int, list[str]]:
    expected = len(test) * len(ctx_sizes) * 3
    rows, failed, problems = _prediction_rows(out, expected)
    traces = {(c, q): sel for (_, _, c, q), sel in _traces(out).items()}
    preds = {(r["predictor"], int(r["context_size"]), int(r["row_index"])): r for r in rows}
    template = _value_template(prompts, data, test)
    if template is None:
        if any(kind == "llm" for kind, _, _ in preds):
            problems.append("cannot find how the prompts render numbers")
        return expected, failed, problems

    def value(v) -> str:
        return "" if math.isnan(v) else template.format(repr(float(v)))

    def fields(i: int) -> str:
        return ", ".join(f"{n}: {value(data.X[i, j])}" for j, n in enumerate(data.num_names))

    def prompt_with(lines: list[str], query: str) -> str:
        return f"{preamble}\n\n" + "\n".join(lines) + f"\n{query}"

    def fits(text: str) -> bool:
        return math.ceil(len(text) / chars_per_token) <= budget

    def estimate(kind, c, q):
        r = preds.get((kind, c, q))
        return None if r is None else float(r["estimate"])

    wanted_prompts = collections.Counter()
    for q in map(int, test):
        query = fields(q) + ", y:"
        for c in ctx_sizes:
            sel = traces[(c, q)]
            lines = [f"{fields(i)}, y: {value(data.labels[i])}" for i in sel]
            used = len(lines)
            while used > 0 and not fits(prompt_with(lines[:used], query)):
                used -= 1
            prompt = prompt_with(lines[:used], query)
            knn, llm, ens = (estimate(k, c, q) for k in ("knn", "llm", "ens"))
            if llm is not None:
                wanted_prompts[prompt] += 1
            mean = float(np.mean(data.labels[sel]))
            if knn is not None and not math.isclose(knn, mean, rel_tol=1e-12):
                problems.append(f"knn c{c} row {q}: {knn} != context label mean {mean}")
            if llm is not None and (llm != float(reply_for(prompt))
                                    or int(preds[("llm", c, q)]["context_used"]) != used):
                problems.append(f"llm c{c} row {q}: {llm} != stub reply {reply_for(prompt)}")
            if None not in (knn, llm, ens) and not math.isclose(ens, (knn + llm) / 2, rel_tol=1e-12):
                problems.append(f"ens c{c} row {q}: {ens} != member mean {(knn + llm) / 2}")
    received = collections.Counter(prompts)
    if received != wanted_prompts:
        problems.append(f"stub received {sum((received - wanted_prompts).values())} prompts that "
                        f"are not the maximal in-budget prompt, and missed "
                        f"{sum((wanted_prompts - received).values())}")

    y = {int(q): float(data.labels[q]) for q in test}
    for m in _load_json(out / "metrics.json")["metrics"]:
        got = [(y[int(r["row_index"])], float(r["estimate"])) for r in rows
               if r["predictor"] == m["predictor"] and int(r["context_size"]) == m["context_size"]]
        if len(got) != m["n_test"]:
            continue  # the score covers failed rows
        truth = np.asarray([t for t, _ in got])
        want = float(np.mean(np.abs(np.asarray([e for _, e in got]) - truth))) / abs(truth.mean())
        if m["metric"] != "nmae" or not math.isclose(m["value"], want, rel_tol=1e-9):
            problems.append(f"nmae {m['predictor']} c{m['context_size']}: {m['value']} != {want}")
    return expected, failed, problems


def check_boundary(out: Path, toy, seed: int, resolution: int, quota: int) -> tuple[int, int, list[str]]:
    expected = resolution * resolution
    with open(out / "grid.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = np.asarray([[float(v) for v in row] for row in reader])
    problems = []
    if len(cells) > expected:
        problems.append(f"{len(cells)} grid cells, expected {expected}")
    P = cells[:, 2:]
    bad = np.flatnonzero(np.abs(P.sum(axis=1) - 1.0) > 1e-9)
    if len(bad):
        problems.append(f"{len(bad)} cells whose probabilities do not sum to 1")

    class_order = [h[2:] for h in header[2:]]
    pts = np.column_stack([toy.column("x1"), toy.column("x2")])
    labels = toy.labels()
    rows = np.arange(len(pts))
    no_cats = np.empty((len(pts), 0), dtype=str)
    for i in np.random.default_rng([seed, 98]).choice(len(cells), SAMPLED_CELLS, replace=False):
        D = _distance_matrix(pts, no_cats, cells[i, :2], [])
        labs = labels[_nearest(_aggregate(D, np.ones(2)), rows, quota)]
        want = [int(np.sum(labs == c)) / len(labs) for c in class_order]
        if P[i].tolist() != want:
            problems.append(f"cell {i}: {P[i].tolist()} != nearest-row shares {want}")
    return expected, expected - len(cells), problems
