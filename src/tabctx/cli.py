"""Benchmark orchestration and the command-line interface.

Verbs: run, compare, ablate, boundary, scaling, fit-powerlaw,
validate-config. A run is driven by one declarative JSON config; CLI flags
override scalar fields. Sub-seeds of the run seed give the split (unless a
dataset sets its own), the training subsets, the random policy and the prompt
order; the PPS folds are fixed, so the feature weights depend on a training
subset's rows alone. The manifest records the config and the split seeds, not
the sub-seeds. Reruns with deterministic predictors are byte-identical apart
from manifest timestamps.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated, NamedTuple, get_type_hints

import numpy as np

from . import dataset as ds
from . import metrics as mt
from . import normalize as nz
from .importance import IMPORTANCE_MODES
from .predictors import (FLAG_PROMPT_OVERFLOW, EndpointConfig, LlmClient,
                         PredictionRecord, PromptOverflowError, PromptTemplate,
                         context_rows_for_prompt, ensemble, fallback_record,
                         fit_prompt, ingest_predictions, knn_predict, url_problem)
from .retrieval import RetrievalConfig, build_pool, context_trace, retrieve, retrieve_random
from .synthgen import SHAPES, ToySpec, boundary_grid, generate_scaling_pools, generate_toy, write_grid
from .util import ConfigError, dump_json, finite_mean, fmt_float, load_json, subseed

log = logging.getLogger(__name__)

ABLATION_VARIANTS = {
    "full": {},
    "NoFeatImp": {"importance_mode": "uniform"},
    "NoNorm": {"numeric_norm": "none", "distance_minmax_rescale": False},
    "NoCorr": {"importance_mode": "pps_only"},
    "NoPPS": {"importance_mode": "pearson_only"},
}

PREDICTIONS_HEADER = ["dataset", "policy", "train_size", "context_size", "predictor",
                      "row_index", "context_used", "flag", "estimate", "probs"]

DEFAULT_SPLIT_RATIOS = (0.8, 0.1, 0.1)
# the specs of the config sections held as dicts; a predictor's or policy's type picks its other keys
_SPLIT_SPEC = {"ratios": list[float], "seed": int, "file": str}
_PROMPT_SPEC = {"file" if k == "layout" else k: t for k, t in get_type_hints(PromptTemplate).items()}
_PREDICTOR_SPECS = {"knn": {}, "external": {"path": str}, "ensemble": {"members": list[str]},
                    "llm": get_type_hints(EndpointConfig)}
_POLICY_SPECS = {"rag": get_type_hints(RetrievalConfig), "random": {}}


def _by_type(specs: dict):
    """The spec of a predictor or policy entry, whose type (``rag`` when left out) picks its keys."""
    return lambda entry: {"id": str, "type": str, **specs.get(str(entry.get("type", "rag")), {})}


@dataclass
class DatasetEntry:
    id: str
    table: str
    schema: str
    split: Annotated[dict, _SPLIT_SPEC] = field(default_factory=lambda: {"ratios": list(DEFAULT_SPLIT_RATIOS)})
    train_cap: int = ds.DEFAULT_TRAIN_CAP
    test_cap: int = ds.DEFAULT_TEST_CAP


@dataclass
class RunConfig:
    datasets: list[DatasetEntry]
    predictors: list[Annotated[dict, _by_type(_PREDICTOR_SPECS)]]
    retrieval: Annotated[dict, RetrievalConfig] = field(default_factory=dict)
    policies: list[Annotated[dict, _by_type(_POLICY_SPECS)]] = field(default_factory=lambda: [{"id": "rag"}])
    context_sizes: list[int] | None = None
    train_sizes: list[int] | None = None
    seed: int = 0
    output_dir: str = "run_out"
    write_traces: bool = False
    prompt: Annotated[dict, _PROMPT_SPEC] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        raw = load_json(path, cls)
        return cls(datasets=[DatasetEntry(**e) for e in raw.pop("datasets")], **raw)

    def to_dict(self) -> dict:
        return {**vars(self), "datasets": [vars(e) for e in self.datasets]}


def _repeats(values: list) -> list:
    """Each value given more than once, in first-seen order."""
    return [v for i, v in enumerate(values) if values.count(v) > 1 and values.index(v) == i]


def validate_config(cfg: RunConfig) -> list[str]:
    """Collect every problem up front; run() refuses to start on a non-empty list."""
    problems = []
    if not cfg.datasets:
        problems.append("no datasets configured")
    if not cfg.predictors:
        problems.append("no predictors configured")
    for key in ("context_sizes", "train_sizes"):
        if (sizes := getattr(cfg, key)) is None:
            continue
        if not sizes or min(sizes) < 1:
            problems.append(f"{key} must be a non-empty list of integers, each at least 1")
        elif repeated := _repeats(sizes):
            problems.append(f"{key} repeats {', '.join(map(str, repeated))}")
    problems += [f"duplicate dataset id {i!r}" for i in _repeats([e.id for e in cfg.datasets])]
    schemas = []  # (entry, columns) of each schema that loads
    for e in cfg.datasets:
        for p, kind in ((e.table, "table"), (e.schema, "schema")):
            if not Path(p).is_file():
                problems.append(f"dataset {e.id!r}: {kind} path {p!r} does not exist")
        if Path(e.schema).is_file():
            try:
                schemas.append((e, ds.load_schema(e.schema)[0]))
            except (OSError, ValueError) as exc:
                problems += [f"dataset {e.id!r}: {p}" for p in getattr(exc, "problems", [exc])]
        if "file" in e.split:
            try:
                ds.load_split_file(e.split["file"])  # its row range is checked against the table
            except (OSError, ValueError) as exc:
                problems += [f"dataset {e.id!r}: {p}" for p in getattr(exc, "problems", [exc])]
        ratios = e.split.get("ratios", DEFAULT_SPLIT_RATIOS)
        if not (len(ratios) == 3 and min(ratios) >= 0 and abs(sum(ratios) - 1.0) <= 1e-9):
            problems.append(f"dataset {e.id!r}: split ratios must be three numbers, each at least 0, "
                            f"that sum to 1")
        problems += [f"dataset {e.id!r}: {key} must be an integer of at least 1"
                     for key in ("train_cap", "test_cap") if getattr(e, key) < 1]
    try:
        _prompt_template(cfg)
    except (OSError, TypeError, ValueError) as exc:
        problems.append(f"prompt: {exc}")
    sections = []  # (where, raw section, its resolved config) of each retrieval section that resolves
    try:
        sections.append(("retrieval", cfg.retrieval, _resolve_retrieval(cfg.retrieval, {})))
    except (TypeError, ValueError) as exc:
        problems.append(f"retrieval config: {exc}")
    ids = []
    for p in cfg.predictors:
        pid, ptype = p.get("id"), p.get("type")
        if not pid or ptype not in _PREDICTOR_SPECS:
            problems.append(f"bad predictor entry {p}")
            continue
        if ptype == "external" and not Path(p.get("path", "")).is_file():
            problems.append(f"predictor {pid!r}: prediction file missing")
        if ptype == "llm":
            if not p.get("base_url"):
                problems.append(f"predictor {pid!r}: llm endpoint needs base_url")
            elif problem := url_problem(str(p["base_url"])):
                problems.append(f"predictor {pid!r}: llm {problem}")
            try:
                _endpoint({"base_url": "", **p})  # the URL is checked above
            except ConfigError as exc:
                problems += [f"predictor {pid!r}: llm {q}" for q in exc.problems]
        if ptype == "ensemble" and (not p.get("members") or any(m not in ids for m in p["members"])):
            problems.append(f"predictor {pid!r}: members must be previously defined ids")
        ids.append(pid)
    problems += [f"duplicate predictor id {pid!r}" for pid in _repeats(ids)]
    pol_ids = [_policy_id(pol) for pol in cfg.policies]
    problems += [f"duplicate policy id {pid!r}" for pid in _repeats(pol_ids)]
    if "external" in pol_ids:  # _process_dataset files ingested prediction rows under it
        problems.append("policy id 'external' is reserved for external prediction rows")
    for pol in cfg.policies:
        pol_type = pol.get("type", "rag")
        if pol_type not in ("rag", "random"):
            problems.append(f"bad policy entry {pol}")
        elif "quota" in pol:
            problems.append(f"policy {_policy_id(pol)!r}: quota cannot be set per policy; "
                            f"set the context sizes with context_sizes")
        elif pol_type == "rag" and sections:  # once the base section resolves
            try:
                sections.append((f"policy {_policy_id(pol)!r}", pol, _resolve_retrieval(cfg.retrieval, pol)))
            except (TypeError, ValueError) as exc:
                problems.append(f"policy {_policy_id(pol)!r}: {exc}")
    # each feature name a section sets must be a feature of every schema, of the kind its key needs
    for e, columns in schemas:
        features = {kind: [c.name for c in columns if c.role == ds.ROLE_FEATURE and c.kind == kind]
                    for kind in (ds.KIND_CATEGORICAL, ds.KIND_NUMERICAL)}
        for where, raw, rc in sections:
            for key, kind, names in (("match_constraints", ds.KIND_CATEGORICAL, rc.match_constraints),
                                     ("per_feature_norm", ds.KIND_NUMERICAL, rc.per_feature_norm)):
                problems += [f"dataset {e.id!r}: {where} {key} names {n!r}, which is not a {kind} "
                             f"feature in {e.schema}" for n in names if key in raw and n not in features[kind]]
    return problems


def _policy_id(pol: dict) -> str:
    return pol.get("id", pol.get("type", "rag"))


def _resolve_retrieval(base: dict, overrides: dict) -> RetrievalConfig:
    merged = {**base, **{k: v for k, v in overrides.items() if k not in ("id", "type")}}
    return RetrievalConfig(**merged)


def _endpoint(p: dict) -> EndpointConfig:
    """The endpoint settings of an ``llm`` predictor entry."""
    return EndpointConfig(**{k: v for k, v in p.items() if k not in ("id", "type")})


def _context_sizes(cfg: RunConfig) -> list[int]:
    """``context_sizes`` when the config gives them, else ``retrieval.quota``
    (itself defaulting to ``RetrievalConfig.quota``)."""
    if cfg.context_sizes is None:
        return [_resolve_retrieval(cfg.retrieval, {}).quota]
    if "quota" in cfg.retrieval:
        log.warning("retrieval.quota %s is ignored: context_sizes %s sets the context sizes",
                    cfg.retrieval["quota"], cfg.context_sizes)
    return cfg.context_sizes


def _load_split(entry: DatasetEntry, d: ds.Dataset, run_seed: int) -> ds.SplitAssignment:
    spec = entry.split
    if "file" in spec:
        return ds.load_split_file(spec["file"], d.n_rows, entry.train_cap, entry.test_cap)
    seed = spec.get("seed", subseed(run_seed, "split", entry.id))
    return ds.make_split(d, tuple(spec.get("ratios", DEFAULT_SPLIT_RATIOS)), seed,
                         entry.train_cap, entry.test_cap)


def _prompt_template(cfg: RunConfig) -> PromptTemplate:
    kwargs = {k: v for k, v in cfg.prompt.items() if k != "file"}
    if cfg.prompt.get("file"):
        return PromptTemplate.from_file(cfg.prompt["file"], **kwargs)
    return PromptTemplate(**kwargs)


def _score_records(d: ds.Dataset, records: list[PredictionRecord],
                   dataset_id: str, predictor_id: str) -> dict:
    """The metric report of ``records``, as ``metrics.json`` lists it."""
    if d.task == ds.TASK_CLASSIFICATION:
        labels = [d.class_labels[d.class_codes[r.row_index]] for r in records]
        P = [r.class_probabilities for r in records]
        value = mt.auroc(labels, P, d.class_labels)
        kind = mt.METRIC_AUROC
    else:
        labels = [float(d.labels()[r.row_index]) for r in records]
        value = mt.nmae(labels, [r.point_estimate for r in records])
        kind = mt.METRIC_NMAE
    flag = None if value is not None else "undefined"
    return {"dataset": dataset_id, "predictor": predictor_id, "metric": kind, "value": value,
            "n_test": len(records), "flag": flag}


def _prediction_row(dataset_id, policy_id, train_size, ctx_size, rec: PredictionRecord) -> list:
    probs = "" if rec.class_probabilities is None else "|".join(repr(float(p)) for p in rec.class_probabilities)
    est = "" if rec.point_estimate is None else fmt_float(rec.point_estimate)
    return [dataset_id, policy_id, str(train_size), str(ctx_size), rec.predictor_id,
            str(rec.row_index), str(rec.context_size), rec.flag or "", est, probs]


@contextmanager
def _stage(what: str):
    """Log ``what`` and the wall time of the block at INFO when it ends."""
    start = time.perf_counter()
    yield
    log.info("%s: %.3f s", what, time.perf_counter() - start)


class DatasetResult(NamedTuple):
    """One dataset's sweep: prediction rows and metric reports in output order,
    ``weights.json`` and ``traces.jsonl`` entries, and manifest facts."""
    pred_rows: list[list]
    reports: list[dict]
    weights: dict[str, dict]
    traces: list[dict]
    info: dict


def _contexts(cfg: RunConfig, entry_id: str, d: ds.Dataset, pol: dict, train_size: int,
              subset: np.ndarray, test_rows: list[int], fitted: dict) -> tuple[dict, dict | None]:
    """Each test row's contexts under the policy, one per context size, and its
    pool's weights (None when it has none, null for a measure it does not rank
    by). ``fitted`` holds the weights already fitted on ``subset``, shared by
    every policy. The pool lives only here, so it is freed before prediction."""
    scope = f"{entry_id} {_policy_id(pol)} n{train_size}"
    if pol.get("type", "rag") == "random":
        with _stage(f"{scope} retrieve"):
            return {row: tuple(retrieve_random(subset, size, subseed(
                cfg.seed, "random-policy", entry_id, train_size, size, row))
                for size in cfg.context_sizes) for row in test_rows}, None
    rcfg = _resolve_retrieval(cfg.retrieval, pol)
    with _stage(f"{scope} weights"):
        pool = build_pool(d, subset, rcfg, fitted)
    weights = dict.fromkeys(("pearson", "pps")) | pool.weights if any(pool.weights.values()) else None
    with _stage(f"{scope} retrieve"):
        return {row: retrieve(pool, d.feature_row(row), tuple(cfg.context_sizes))
                for row in test_rows}, weights


def _process_dataset(cfg: RunConfig, entry: DatasetEntry) -> DatasetResult:
    """One dataset's full sweep."""
    with _stage(f"{entry.id} load"):
        d = ds.load_dataset(entry.table, entry.schema)
    with _stage(f"{entry.id} split"):
        split = _load_split(entry, d, cfg.seed)
    test_rows = split.test.tolist()
    out = DatasetResult([], [], {}, [], {
        "n_rows": d.n_rows, "n_train": len(split.train), "n_test": len(test_rows),
        "split_seed": split.seed,
        "coerced_cells": {name: n for name, n in d.coerced_cells.items() if n}})

    def emit(recs: list[PredictionRecord], predictor_id: str, *scope) -> None:
        """Rows and a report for ``recs``; ``scope`` is (policy, train size, context size) or none."""
        pol_id, train_size, ctx_size = scope or ("external", 0, 0)
        out.pred_rows.extend(_prediction_row(entry.id, pol_id, train_size, ctx_size, r) for r in recs)
        out.reports.append({**_score_records(d, recs, entry.id, predictor_id),
                            **dict(zip(("policy", "train_size", "context_size"), scope))})

    external = {p["id"]: ingest_predictions(p["path"], d, p["id"], valid_rows=test_rows)
                for p in cfg.predictors if p["type"] == "external"}
    for pid, recs in external.items():
        emit(recs, pid)

    sizes = sorted(cfg.train_sizes or [len(split.train)])
    subsets = generate_scaling_pools(split.train, sizes, subseed(cfg.seed, "subsets", entry.id))
    tmpl = _prompt_template(cfg)
    for train_size, subset in zip(sizes, subsets):
        fitted: dict[str, dict] = {}  # the weights on this subset, by measure
        # the regression stand-in for an empty context (subset rows are sorted)
        fallback_mean = finite_mean(d.labels()[subset]) if d.task == ds.TASK_REGRESSION else None
        for pol in cfg.policies:
            pol_id = _policy_id(pol)
            by_row, weights = _contexts(cfg, entry.id, d, pol, train_size, subset, test_rows, fitted)
            if weights:
                out.weights[f"{pol_id}/n{train_size}"] = weights
            for i, ctx_size in enumerate(cfg.context_sizes):
                contexts = {row: by_size[i] for row, by_size in by_row.items()}
                if cfg.write_traces:
                    out.traces.extend({"dataset": entry.id, "policy": pol_id, "train_size": train_size,
                                       "context_size": ctx_size, **context_trace(c, r)}
                                      for r, c in contexts.items())
                records: dict[str, list[PredictionRecord]] = dict(external)
                for p in cfg.predictors:
                    if p["type"] == "external":
                        continue
                    with _stage(f"{entry.id} {pol_id} n{train_size} c{ctx_size} predict/{p['id']}"):
                        if p["type"] == "knn":
                            recs = [knn_predict(contexts[r], d, fallback_mean, p["id"], r)
                                    for r in test_rows]
                        elif p["type"] == "llm":
                            recs = _llm_records(p, d, fallback_mean, contexts, test_rows, tmpl, cfg.seed)
                        else:
                            recs = ensemble([records[m] for m in p["members"]], p["id"])
                    records[p["id"]] = recs
                    emit(recs, p["id"], pol_id, train_size, ctx_size)
    return out


def _llm_records(p: dict, d: ds.Dataset, fallback_mean: float | None, contexts, test_rows,
                 tmpl: PromptTemplate, run_seed: int) -> list[PredictionRecord]:
    client = LlmClient(_endpoint(p))
    features = [c.name for c in d.feature_columns]
    label_name = d.label_column.name
    jobs, overflowed = [], {}
    for row in test_rows:
        seed = subseed(run_seed, "prompt-order", row) if tmpl.shuffle_context else None
        rows_lab = context_rows_for_prompt(contexts[row], d, shuffle_seed=seed)
        try:
            text, used = fit_prompt(tmpl, rows_lab, d.feature_row(row), features, label_name)
        except PromptOverflowError:
            text, used = None, 0
        ctx_labels = [float(v) for _, v in rows_lab[:used]] if d.task == ds.TASK_REGRESSION else []
        ctx_mean = finite_mean(ctx_labels) if ctx_labels else fallback_mean
        if text is None:
            overflowed[row] = fallback_record(d.task, d.class_labels, ctx_mean, row, 0,
                                              p["id"], FLAG_PROMPT_OVERFLOW)
            continue
        jobs.append({"prompt": text, "task": d.task, "class_labels": d.class_labels,
                     "context_mean": ctx_mean, "row_index": row, "context_size": used})
    answered = iter(client.predict_many(jobs, predictor_id=p["id"]))
    return [overflowed.get(row) or next(answered) for row in test_rows]


def _checked(cfg: RunConfig) -> RunConfig:
    """The config with its context sizes resolved; raises ConfigError before
    any work on a bad config."""
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    return replace(cfg, context_sizes=_context_sizes(cfg))


def _sweep(cfg: RunConfig) -> tuple[dict[str, DatasetResult], dict[str, str]]:
    """({id: result}, {id: error}) over the datasets in order."""
    results, errors = {}, {}
    for entry in cfg.datasets:
        try:
            results[entry.id] = _process_dataset(cfg, entry)
        except Exception as exc:  # noqa: BLE001 - one dataset must not sink the run
            errors[entry.id] = f"{type(exc).__name__}: {exc}"
    return results, errors


def run(cfg: RunConfig, output_dir: str | Path | None = None) -> Path:
    cfg = _checked(cfg)
    out = Path(output_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # before the sweep, so an -o that cannot be made wastes no work
    started = time.time()
    results, errors = _sweep(cfg)
    with _stage(f"write {out}"):
        _write_run(cfg, out, results, errors, started)
    return out


def _flag_counts(pred_rows: list[list]) -> dict[str, dict[str, int]]:
    """{predictor: {flag: count}} over the flagged prediction rows."""
    who, what = PREDICTIONS_HEADER.index("predictor"), PREDICTIONS_HEADER.index("flag")
    counts: dict[str, dict[str, int]] = {}
    for row in pred_rows:
        if row[what]:
            per = counts.setdefault(row[who], {})
            per[row[what]] = per.get(row[what], 0) + 1
    return counts


def _write_run(cfg: RunConfig, out: Path, results: dict[str, DatasetResult],
               errors: dict[str, str], started: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTIONS_HEADER)
        writer.writerows(r for res in results.values() for r in res.pred_rows)

    reports = [r for res in results.values() for r in res.reports]
    dump_json(out / "metrics.json", {"metrics": reports})
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "predictor", "policy", "train_size", "context_size",
                         "metric", "value", "n_test", "flag"])
        for r in reports:
            writer.writerow([r["dataset"], r["predictor"], r.get("policy", ""),
                             r.get("train_size", ""), r.get("context_size", ""),
                             r["metric"], fmt_float(r["value"]), r["n_test"], r["flag"] or ""])

    weights = {i: res.weights for i, res in results.items() if res.weights}
    if weights:
        dump_json(out / "weights.json", weights)
    if cfg.write_traces:
        with open(out / "traces.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(t) + "\n" for res in results.values() for t in res.traces)

    manifest = {
        "config": cfg.to_dict(),
        "seed_scheme": "blake2b(root:tag) sub-seeds",
        "datasets": {e.id: ({"status": "ok", **results[e.id].info,
                             "flags": _flag_counts(results[e.id].pred_rows)} if e.id in results
                            else {"status": "error", "error": errors[e.id]})
                     for e in cfg.datasets},
        "started_at": started,
        "finished_at": time.time(),
    }
    dump_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# compare / ablate / scaling


@dataclass
class _Report:  # the keys of one metrics.json report, a spec for load_json only
    dataset: str
    predictor: str
    metric: str
    value: float | None
    policy: str = ""
    train_size: int = 0
    context_size: int = 0
    n_test: int = 0
    flag: str | None = None


def _collect_metrics(paths) -> list[dict]:
    rows = []
    for p in paths:
        p = Path(p)
        mfile = p / "metrics.json" if p.is_dir() else p
        label = p.name if p.is_dir() else p.stem
        for r in load_json(mfile, {"metrics": list[_Report]}, ("metrics",))["metrics"]:
            key = ":".join([label, r["predictor"], str(r.get("policy", "")),
                            str(r.get("train_size", "")), str(r.get("context_size", ""))])
            rows.append({**r, "method": key})
    return rows


def compare(paths, target: str | None = None, baseline: str | None = None) -> dict:
    """Per-dataset comparison across methods found in the metric files.
    Gap orientation makes positive always mean the target is better; ties
    count as neither outperformed."""
    rows = _collect_metrics(paths)
    if not rows:
        raise ValueError("no metrics found")
    methods = sorted({r["method"] for r in rows})
    by_ds: dict[str, dict[str, dict]] = {}
    for r in rows:
        if r["value"] is not None:
            by_ds.setdefault(r["dataset"], {})[r["method"]] = r

    normalized = {}
    for dset, per_method in sorted(by_ds.items()):
        ms = sorted(per_method)
        if len(ms) < 2:
            continue
        higher = per_method[ms[0]]["metric"] == mt.METRIC_AUROC
        vals = mt.minmax_normalize([per_method[m]["value"] for m in ms], higher_better=higher)
        normalized[dset] = dict(zip(ms, vals))

    out = {"methods": methods, "normalized": normalized}
    if target and baseline:
        gaps = []
        for dset, per_method in sorted(by_ds.items()):
            if target in per_method and baseline in per_method:
                t, b = per_method[target]["value"], per_method[baseline]["value"]
                gap = (t - b) if per_method[target]["metric"] == mt.METRIC_AUROC else (b - t)
                gaps.append({"dataset": dset, "gap": gap})
        if not gaps:
            raise ValueError("target and baseline share no datasets")
        gaps.sort(key=lambda g: (-g["gap"], g["dataset"]))
        wins = sum(1 for g in gaps if g["gap"] > 0)
        out.update({"target": target, "baseline": baseline, "gaps": gaps,
                    "fraction_outperformed": wins / len(gaps)})
    return out


def _policy_part(res: DatasetResult, pol_id: str) -> DatasetResult:
    """One dataset's result as a run with ``pol_id`` as its only policy gives it."""
    return DatasetResult([r for r in res.pred_rows if r[1] in (pol_id, "external")],
                         [r for r in res.reports if r.get("policy", pol_id) == pol_id],
                         {k: w for k, w in res.weights.items() if k.rpartition("/")[0] == pol_id},
                         [t for t in res.traces if t["policy"] == pol_id], res.info)


def ablate(cfg: RunConfig, output_dir: str | Path) -> Path:
    """One sweep with the full policy and its four reduced variants as policies,
    so they share each dataset's load, split and weights; then one run
    directory per variant and a normalized side-by-side table."""
    out = Path(output_dir)
    cfg = _checked(replace(cfg, policies=[{"id": name, "type": "rag", **overrides}
                                          for name, overrides in ABLATION_VARIANTS.items()]))
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    results, errors = _sweep(cfg)
    for name, overrides in ABLATION_VARIANTS.items():
        vcfg = replace(cfg, retrieval={**cfg.retrieval, **overrides},
                       policies=[{"id": name, "type": "rag"}])
        with _stage(f"write {out / name}"):
            _write_run(vcfg, out / name, {k: _policy_part(v, name) for k, v in results.items()},
                       errors, started)
    dump_json(out / "ablation.json", compare([out / name for name in ABLATION_VARIANTS]))
    return out


def _median_errors(run_dir: Path) -> dict[tuple[str, int, str], list[tuple[int, float]]]:
    """(policy, context_size, predictor) -> [(train_size, median error across datasets)]."""
    grouped: dict = {}
    for r in _collect_metrics([run_dir]):
        if r["value"] is None or "train_size" not in r:
            continue
        err = 1.0 - r["value"] if r["metric"] == mt.METRIC_AUROC else r["value"]
        key = (r["policy"], r["context_size"], r["predictor"])
        grouped.setdefault(key, {}).setdefault(r["train_size"], []).append(err)
    return {key: sorted((size, float(np.median(v))) for size, v in per_size.items())
            for key, per_size in grouped.items()}


def fit_run_dir(run_dir: str | Path) -> dict:
    """Power-law fit of median error against train size for each
    ``policy/predictor/c<context_size>`` group of a run's metrics. Groups
    with fewer than 2 positive-error points record why instead of a fit."""
    fits = {}
    for (policy, ctx_size, predictor), pts in sorted(_median_errors(Path(run_dir)).items()):
        usable = [(d, l) for d, l in pts if l > 0]
        fits[f"{policy}/{predictor}/c{ctx_size}"] = (
            mt.fit_power_law(usable).to_dict() if len(usable) >= 2
            else {"error": "fewer than 2 positive-error points", "points": pts})
    return fits


def scaling(cfg: RunConfig, sizes: list[int], output_dir: str | Path) -> Path:
    """Sweep nested training-pool sizes for the retrieval policy and the
    random baseline, then fit the error-vs-size power law per group."""
    out = Path(output_dir)
    vcfg = replace(cfg, train_sizes=sorted(sizes),
                   policies=[{"id": "rag", "type": "rag"}, {"id": "random", "type": "random"}])
    run(vcfg, out)
    dump_json(out / "fits.json", fit_run_dir(out))
    return out


# ---------------------------------------------------------------------------
# argparse wiring


def _add_run_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", "-o", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--traces", action="store_true")
    p.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"), default="WARNING",
                   help="log to stderr at this level; INFO gives each stage and its wall time")


def _load_config(args) -> RunConfig:
    """The config file with any command-line overrides the verb takes."""
    cfg = RunConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "output_dir", None) is not None:
        cfg.output_dir = args.output_dir
    if getattr(args, "traces", False):
        cfg.write_traces = True
    return cfg


def _parse_sizes(text: str) -> list[int]:
    """The comma-separated ``--sizes`` entries as integers, each at least 1
    and given once."""
    sizes = []
    for entry in text.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ConfigError([f"--sizes entry {entry!r} is not an integer"]) from None
    problems = [f"--sizes entry {s} is below 1" for s in sizes if s < 1]
    if repeated := _repeats(sizes):
        problems.append(f"--sizes repeats {', '.join(map(str, repeated))}")
    if problems:
        raise ConfigError(problems)
    return sizes


def _print_json(payload, path: str | None) -> int:
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tabctx",
                                     description="Context retrieval benchmark harness for tabular data")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark config")
    p_run.add_argument("config")
    _add_run_overrides(p_run)

    p_val = sub.add_parser("validate-config", help="check a config without running it")
    p_val.add_argument("config")

    p_cmp = sub.add_parser("compare", help="per-dataset comparison of metric files")
    p_cmp.add_argument("paths", nargs="+")
    p_cmp.add_argument("--target", default=None)
    p_cmp.add_argument("--baseline", default=None)
    p_cmp.add_argument("--out", default=None)

    p_abl = sub.add_parser("ablate", help="run the retrieval ablation variants")
    p_abl.add_argument("config")
    _add_run_overrides(p_abl)

    p_sca = sub.add_parser("scaling", help="training-size sweep plus power-law fit")
    p_sca.add_argument("config")
    p_sca.add_argument("--sizes", required=True, help="comma-separated ascending pool sizes")
    _add_run_overrides(p_sca)

    p_fit = sub.add_parser("fit-powerlaw", help="fit (size, error) points")
    points = p_fit.add_mutually_exclusive_group(required=True)
    points.add_argument("--points", help="JSON file of [D, L] pairs")
    points.add_argument("--run-dir", help="run directory to pull median errors from")
    p_fit.add_argument("--out", default=None)

    p_bnd = sub.add_parser("boundary", help="export a decision-boundary grid for a toy dataset")
    p_bnd.add_argument("--shape", choices=SHAPES, default="circle")
    p_bnd.add_argument("--noise", type=float, default=0.1)
    p_bnd.add_argument("--n-train", type=int, default=64)
    p_bnd.add_argument("--seed", type=int, default=0)
    p_bnd.add_argument("--resolution", type=int, default=100)
    p_bnd.add_argument("--quota", type=int, default=16)
    p_bnd.add_argument("--importance-mode", choices=IMPORTANCE_MODES, default="dual")
    p_bnd.add_argument("--numeric-norm", choices=nz.MODES, default="quantile")
    p_bnd.add_argument("--no-rescale", action="store_true")
    p_bnd.add_argument("--output-dir", "-o", default="boundary_out")

    args = parser.parse_args(argv)
    if not hasattr(args, "log_level"):
        return _dispatch(args)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package = logging.getLogger("tabctx")
    package.addHandler(handler)
    package.setLevel(args.log_level)
    try:
        return _dispatch(args)
    finally:
        package.removeHandler(handler)
        package.setLevel(logging.NOTSET)


def _dispatch(args) -> int:
    """Run the verb. Bad input, an OSError or ValueError, is one ``error:``
    line on stderr per problem (a ConfigError lists them) and exit 1."""
    try:
        if args.verb == "compare":
            return _print_json(compare(args.paths, args.target, args.baseline), args.out)
        if args.verb == "fit-powerlaw":
            return _print_json(mt.fit_power_law(load_json(args.points, list[list[float]])).to_dict()
                               if args.points else fit_run_dir(args.run_dir), args.out)
        if args.verb == "boundary":
            spec = ToySpec(args.shape, args.noise, args.n_train, args.seed)
            d = generate_toy(spec)
            rcfg = RetrievalConfig(quota=args.quota, importance_mode=args.importance_mode,
                                   numeric_norm=args.numeric_norm,
                                   distance_minmax_rescale=not args.no_rescale)
            pool = build_pool(d, np.arange(d.n_rows), rcfg)
            grid = boundary_grid(pool, args.resolution)
            out = Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_grid(grid, out / "grid.csv", out / "grid.json")
            print(f"grid written: {out}")
            return 0
        cfg = _load_config(args)
        if args.verb == "validate-config":
            problems = validate_config(cfg)
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            print("config ok" if not problems else f"{len(problems)} problem(s)")
            return 1 if problems else 0
        if args.verb == "run":
            print(f"run complete: {run(cfg)}")
        elif args.verb == "ablate":
            print(f"ablation complete: {ablate(cfg, args.output_dir or 'ablation_out')}")
        else:
            sizes = _parse_sizes(args.sizes)
            print(f"scaling sweep complete: {scaling(cfg, sizes, args.output_dir or 'scaling_out')}")
        return 0
    except (OSError, ValueError) as exc:
        print("\n".join(f"error: {p}" for p in getattr(exc, "problems", [exc])), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
