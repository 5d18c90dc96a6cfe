"""In-memory spans around calls into the public functions of each tabctx layer.

``install`` replaces each traced function wherever a loaded ``tabctx``
module binds it (``cli`` imports ``retrieve`` by name, for example), so
moving a function between modules loses no span. A function that no longer
exists is skipped and reports 0 calls. Spans are kept in a list and only
summarised when the traced round ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

# (module, qualified name) of every traced call site.
TRACED = [
    ("dataset", "load_dataset"),
    ("dataset", "make_split"),
    ("normalize", "fit_stats"),
    ("importance", "pearson_importance"),
    ("importance", "pps_importance"),
    ("retrieval", "build_pool"),
    ("retrieval", "retrieve"),
    ("retrieval", "retrieve_random"),
    ("predictors", "knn_predict"),
    ("predictors", "context_rows_for_prompt"),
    ("predictors", "fit_prompt"),
    ("predictors", "serialize_prompt"),
    ("predictors", "LlmClient.predict_many"),
    ("predictors", "LlmClient.complete"),
    ("predictors", "ensemble"),
    ("metrics", "auroc"),
    ("metrics", "nmae"),
    ("metrics", "fit_power_law"),
    ("synthgen", "generate_scaling_pools"),
    ("synthgen", "boundary_grid"),
    ("cli", "run"),
    ("cli", "main"),
]


def _retrieve_extra(args, result):
    pool, query = args[0], args[1]
    key = (id(pool), tuple((k, repr(v)) for k, v in sorted(query.items())))
    return {"rows": pool.size, "key": key}


def _fit_prompt_extra(args, result):
    return {"offered": len(args[1]), "kept": result[1]}


EXTRAS = {"retrieval.retrieve": _retrieve_extra, "predictors.fit_prompt": _fit_prompt_extra}


class Tracer:
    """Collects [name, start, end, parent index, extra] spans; a parent is
    the innermost open span on the same thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            with lock:
                idx = len(spans)
                spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra_fn is not None:
                span[4] = extra_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "tabctx" or n.startswith("tabctx.")]
        for mod_name, qual in TRACED:
            home = sys.modules.get(f"tabctx.{mod_name}")
            if home is None:
                continue
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(f"{mod_name}.{qual}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per function name: calls, total seconds, self seconds, per-call
        seconds, and the extras. Self time subtracts the durations of direct
        children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, extra) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                      "extras": []})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["durations"].append(end - start)
            if extra is not None:
                s["extras"].append(extra)
        return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """Turn a span summary into the per-layer metric values of one round
    (stub request counts and process figures are added by the caller)."""
    def get(name, key):
        s = summary.get(name)
        return s[key] if s else 0

    def p50_ms(name):
        s = summary.get(name)
        return statistics.median(s["durations"]) * 1000.0 if s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    retrieve_extras = summary.get("retrieval.retrieve", {}).get("extras", [])
    fit_extras = summary.get("predictors.fit_prompt", {}).get("extras", [])
    return {
        "dataset.load_dataset.s": get("dataset.load_dataset", "s"),
        "dataset.make_split.s": get("dataset.make_split", "s"),
        "normalize.fit_stats.s": get("normalize.fit_stats", "s"),
        "importance.pearson_importance.s": get("importance.pearson_importance", "s"),
        "importance.pps_importance.s": get("importance.pps_importance", "s"),
        "importance.pps_importance.calls": get("importance.pps_importance", "calls"),
        "retrieval.build_pool.calls": get("retrieval.build_pool", "calls"),
        "retrieval.build_pool.self_s": get("retrieval.build_pool", "self_s"),
        "retrieval.retrieve.calls": get("retrieval.retrieve", "calls"),
        "retrieval.retrieve.s": get("retrieval.retrieve", "s"),
        "retrieval.retrieve.ms_p50": p50_ms("retrieval.retrieve"),
        "retrieval.retrieve.rows_scanned": sum(e["rows"] for e in retrieve_extras),
        "retrieval.retrieve.calls_per_query": ratio(len(retrieve_extras),
                                                    len({e["key"] for e in retrieve_extras})),
        "retrieval.retrieve_random.s": get("retrieval.retrieve_random", "s"),
        "predictors.knn_predict.s": get("predictors.knn_predict", "s"),
        "predictors.context_rows_for_prompt.s": get("predictors.context_rows_for_prompt", "s"),
        "predictors.fit_prompt.s": get("predictors.fit_prompt", "s"),
        "predictors.fit_prompt.ms_p50": p50_ms("predictors.fit_prompt"),
        "predictors.serialize_prompt.calls_per_fit": ratio(get("predictors.serialize_prompt", "calls"),
                                                           get("predictors.fit_prompt", "calls")),
        "predictors.fit_prompt.rows_kept_ratio": ratio(sum(e["kept"] for e in fit_extras),
                                                       sum(e["offered"] for e in fit_extras)),
        "predictors.LlmClient.predict_many.s": get("predictors.LlmClient.predict_many", "s"),
        "predictors.LlmClient.complete.ms_p50": p50_ms("predictors.LlmClient.complete"),
        "predictors.ensemble.s": get("predictors.ensemble", "s"),
        "metrics.score.s": sum(get(f"metrics.{f}", "s") for f in ("auroc", "nmae", "fit_power_law")),
        "synthgen.generate_scaling_pools.s": get("synthgen.generate_scaling_pools", "s"),
        "synthgen.boundary_grid.self_s": get("synthgen.boundary_grid", "self_s"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
