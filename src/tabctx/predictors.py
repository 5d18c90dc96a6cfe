"""Turn retrieved context rows into predictions.

Includes the built-in nearest-neighbor predictor, prompt serialization with
a character-based token budget, a completion-endpoint client with bounded
concurrency and retries, ingestion of externally produced prediction files,
and probability-averaging ensembles.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from . import dataset as ds
from .retrieval import RetrievedContext
from .util import finite_mean, rng_for

FLAG_PARSE_FAILURE = "parse_failure"
FLAG_TRANSPORT_ERROR = "transport_error"
FLAG_PROMPT_OVERFLOW = "prompt_overflow"

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class PredictionRecord:
    row_index: int
    task: str
    predictor_id: str
    context_size: int
    class_probabilities: tuple[float, ...] | None = None
    point_estimate: float | int | None = None
    flag: str | None = None

    def __post_init__(self):
        if self.task == ds.TASK_CLASSIFICATION:
            probs = self.class_probabilities
            if probs is None:
                raise ValueError("classification record needs probabilities")
            if not (min(probs) >= 0 and abs(sum(probs) - 1.0) <= 1e-9):  # NaN fails both
                raise ValueError(f"invalid probability vector {probs}")
        else:
            if self.point_estimate is None or not math.isfinite(self.point_estimate):
                raise ValueError("regression record needs a finite estimate")


def class_shares(codes: np.ndarray, n_classes: int) -> np.ndarray:
    """The kNN vote: the share of each class among the class codes along the
    last axis (one context per row), as its count over the context length."""
    counts = np.stack([np.count_nonzero(codes == c, axis=-1) for c in range(n_classes)], axis=-1)
    return counts / codes.shape[-1]


def knn_predict(ctx: RetrievedContext, d: ds.Dataset, fallback_mean: float | None,
                predictor_id: str = "knn", row_index: int = -1) -> PredictionRecord:
    """Unweighted vote over the context labels of ``d``; an empty context
    falls back to a uniform distribution (classification) or
    ``fallback_mean``, the training label mean (regression)."""
    if len(ctx) == 0:
        return fallback_record(d.task, d.class_labels, fallback_mean, row_index, 0,
                               predictor_id, None)
    if d.task == ds.TASK_CLASSIFICATION:
        probs = tuple(class_shares(d.class_codes[ctx.indices], len(d.class_labels)).tolist())
        return PredictionRecord(row_index, d.task, predictor_id, len(ctx), class_probabilities=probs)
    est = finite_mean(d.labels()[ctx.indices])
    return PredictionRecord(row_index, d.task, predictor_id, len(ctx), point_estimate=est)


# ---------------------------------------------------------------------------
# Prompt serialization


@dataclass(frozen=True)
class PromptTemplate:
    """The whole prompt section of a run config: its fields are the
    ``prompt.*`` keys, with ``file`` (read by ``from_file``) in place of
    ``layout``. ``token_budget`` caps each prompt's token estimate, and
    ``shuffle_context`` shuffles the context rows from a seed per test row."""
    preamble: str = "Predict the label of the final row from the labeled rows above it."
    layout: str = "{preamble}\n\n{rows}\n{query}"
    anonymize: bool = False
    chars_per_token: float = 4.0
    token_budget: int = 16384
    shuffle_context: bool = False

    def __post_init__(self):
        _rows_fields(self.layout)
        if not (isinstance(self.chars_per_token, int | float) and self.chars_per_token > 0):
            raise ValueError(f"chars_per_token must be a number above 0, not {self.chars_per_token!r}")
        if not (type(self.token_budget) is int and self.token_budget >= 1):
            raise ValueError("token_budget must be an integer of at least 1")

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "PromptTemplate":
        return cls(layout=Path(path).read_text(encoding="utf-8"), **kwargs)


def _rows_fields(layout: str) -> int:
    """How many times the layout inserts the context rows. Each must be a
    plain ``{rows}``, so the prompt's length grows with the rows' text alone.
    Any field but ``{preamble}``, ``{rows}`` and ``{query}`` is rejected."""
    count = 0
    for _, field, spec, conversion in string.Formatter().parse(layout):
        if field is None:
            continue
        name = re.match(r"[^.[]*", field)[0]  # the name before any attribute or index
        if name not in ("preamble", "rows", "query"):
            raise ValueError(f"prompt layout field {{{field}}} is unknown: a layout names "
                             f"{{preamble}}, {{rows}} and {{query}}, and prints any other text "
                             f"as written")
        if name == "rows":
            if field != "rows" or spec or conversion:
                raise ValueError(f"prompt layout field {{{field}}} must be a plain {{rows}}")
            count += 1
    return count


def _format_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return "" if math.isnan(v) else repr(float(v))
    return str(v)


def _row_lines(tmpl: PromptTemplate, rows: list[tuple[dict, object]], query: dict,
               features: list[str], label_name: str) -> tuple[list[str], str]:
    """One "name: value" line per context row with its label, and the query
    line with an empty answer."""
    names = {f: f"f{i + 1}" for i, f in enumerate(features)} if tmpl.anonymize else {f: f for f in features}
    label = "label" if tmpl.anonymize else label_name
    lines = []
    for feats, y in rows:
        pairs = ", ".join(f"{names[f]}: {_format_value(feats[f])}" for f in features)
        lines.append(f"{pairs}, {label}: {_format_value(y)}")
    qpairs = ", ".join(f"{names[f]}: {_format_value(query.get(f, math.nan))}" for f in features)
    return lines, f"{qpairs}, {label}:"


def _compose(tmpl: PromptTemplate, lines: list[str], query_line: str) -> str:
    return tmpl.layout.format(preamble=tmpl.preamble, rows="\n".join(lines), query=query_line)


def serialize_prompt(tmpl: PromptTemplate, rows: list[tuple[dict, object]],
                     query: dict, features: list[str], label_name: str) -> str:
    """Deterministic rendering: preamble, one "name: value" line per context
    row with its label, then the query row with an empty answer slot."""
    return _compose(tmpl, *_row_lines(tmpl, rows, query, features, label_name))


def _tokens(length: int, chars_per_token: float) -> int:
    """The token estimate of a text of ``length`` characters."""
    return math.ceil(length / chars_per_token)


class PromptOverflowError(ValueError):
    pass


def fit_prompt(tmpl: PromptTemplate, rows: list[tuple[dict, object]], query: dict,
               features: list[str], label_name: str) -> tuple[str, int]:
    """Render within ``tmpl.token_budget``, keeping the longest nearest-first
    prefix of the context rows (rows are ordered nearest first). Raises
    PromptOverflowError if the bare query overflows. The cut comes from the
    lengths of the row lines, so the prompt is rendered once."""
    lines, query_line = _row_lines(tmpl, rows, query, features, label_name)
    bare = len(_compose(tmpl, [], query_line))
    per_copy = _rows_fields(tmpl.layout)
    # joined[k]: length of the first k lines joined by newlines, plus one
    joined = [0, *accumulate(len(line) + 1 for line in lines)]
    kept = len(lines)
    while _tokens(bare + per_copy * max(joined[kept] - 1, 0), tmpl.chars_per_token) > tmpl.token_budget:
        if kept == 0:
            raise PromptOverflowError("query row alone exceeds the token budget")
        kept -= 1
    return _compose(tmpl, lines[:kept], query_line), kept


def context_rows_for_prompt(ctx: RetrievedContext, d: ds.Dataset,
                            shuffle_seed: int | None = None) -> list[tuple[dict, object]]:
    """Context rows of ``d`` as (features, label) pairs, nearest first;
    optionally shuffled for prompting experiments."""
    order = np.arange(len(ctx))
    if shuffle_seed is not None:
        order = rng_for(shuffle_seed, "context-order").permutation(len(ctx))
    return [(d.feature_row(int(ctx.indices[i])), d.labels()[int(ctx.indices[i])]) for i in order]


# ---------------------------------------------------------------------------
# Completion-endpoint client


class TransportError(RuntimeError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str = "default"
    api_key_env: str = "TABCTX_API_KEY"
    timeout: float = 60.0
    max_retries: int = 2
    concurrency: int = 4
    max_output_tokens: int = 64
    chat: bool = True
    retry_backoff: float = 0.2


def url_problem(base_url: str) -> str | None:
    """Why the client cannot post to ``base_url``, or None when it is an
    http:// or https:// URL with a host. ``validate_config`` and
    ``LlmClient.complete`` both apply this one rule."""
    url = urlsplit(base_url)
    if url.scheme in ("http", "https") and url.netloc:
        return None
    return f"base_url {base_url!r} is not an http:// or https:// URL with a host"


def parse_class(completion: str, class_labels: tuple[str, ...]) -> str | None:
    """Case-insensitive exact match after stripping whitespace, quotes, and
    trailing punctuation. Anything looser risks false positives."""
    cleaned = completion.strip().strip("\"'").rstrip(".!").strip().casefold()
    for c in class_labels:
        if cleaned == c.casefold():
            return c
    return None


def parse_number(completion: str) -> float | int | None:
    """The first number in the completion, an int when written as one; None
    when there is none or it is not a finite float."""
    m = _NUMBER_RE.search(completion)
    if not m or not math.isfinite(float(m.group(0))):
        return None
    text = m.group(0)
    if re.fullmatch(r"[-+]?\d+", text):
        return int(text)
    return float(text)


def fallback_record(task: str, class_labels: tuple[str, ...], context_mean: float | None,
                    row_index: int, context_size: int, predictor_id: str,
                    flag: str | None) -> PredictionRecord:
    """Stand-in when there is no context or no usable answer: a uniform
    distribution (classification) or ``context_mean`` (regression)."""
    if task == ds.TASK_CLASSIFICATION:
        k = len(class_labels)
        return PredictionRecord(row_index, task, predictor_id, context_size,
                                class_probabilities=(1.0 / k,) * k, flag=flag)
    return PredictionRecord(row_index, task, predictor_id, context_size,
                            point_estimate=context_mean, flag=flag)


class LlmClient:
    """Minimal JSON completion client: temperature 0, bounded retries with
    jittered backoff, and a bounded number of in-flight requests. Each
    request opens its own connection through ``urllib.request``, which is
    imported on the first request."""

    def __init__(self, cfg: EndpointConfig, api_key: str | None = None):
        self.cfg = cfg
        self.api_key = api_key
        self._gate = threading.BoundedSemaphore(max(1, cfg.concurrency))
        self._rng = rng_for(0, "retry-jitter")
        self._rng_lock = threading.Lock()

    def _headers(self) -> dict:
        key = self.api_key if self.api_key is not None else os.environ.get(self.cfg.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, prompt: str) -> dict:
        if self.cfg.chat:
            return {"model": self.cfg.model,
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": 0,
                    "max_tokens": self.cfg.max_output_tokens}
        return {"model": self.cfg.model, "prompt": prompt, "temperature": 0,
                "max_tokens": self.cfg.max_output_tokens}

    def _sleep_before_retry(self, attempt: int) -> None:
        with self._rng_lock:
            jitter = float(self._rng.uniform(0.0, self.cfg.retry_backoff))
        time.sleep(self.cfg.retry_backoff * attempt + jitter)

    def _post(self, body: bytes) -> bytes:
        """One POST of ``body`` to the endpoint; the response body."""
        from urllib.request import Request, urlopen
        req = Request(self.cfg.base_url, data=body, headers=self._headers(), method="POST")
        with urlopen(req, timeout=self.cfg.timeout) as resp:
            return resp.read()

    def complete(self, prompt: str) -> str:
        """The completion text. Connection errors, timeouts, 429 and 5xx
        responses are retried; any other failure, and running out of
        attempts, raises TransportError, which a base_url that fails
        ``url_problem`` raises before any request."""
        from http.client import HTTPException
        from urllib.error import HTTPError
        problem = url_problem(self.cfg.base_url)
        if problem:
            raise TransportError(f"endpoint request failed: {problem}")
        body = json.dumps(self._payload(prompt), allow_nan=False).encode("utf-8")
        last: Exception | str | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep_before_retry(attempt)
            try:
                with self._gate:
                    reply = self._post(body)
            except HTTPError as exc:  # an OSError, so it is caught first
                exc.close()
                if exc.code == 429 or exc.code >= 500:
                    last = f"HTTP {exc.code}"
                    continue
                raise TransportError(f"endpoint request failed: HTTP {exc.code}") from exc
            except (OSError, HTTPException) as exc:
                last = exc
                continue
            except ValueError as exc:  # a request urllib rejects, e.g. a bad header
                raise TransportError(f"endpoint request failed: {exc}") from exc
            try:
                choice = json.loads(reply)["choices"][0]
                text = choice["message"]["content"] if "message" in choice else choice["text"]
            except (ValueError, LookupError, TypeError) as exc:
                raise TransportError(f"endpoint request failed: {exc!r}") from exc
            if not isinstance(text, str):
                raise TransportError(f"endpoint returned no completion text: {choice!r}")
            return text
        raise TransportError(f"endpoint failed after {self.cfg.max_retries + 1} attempts: {last}")

    def predict(self, prompt: str, task: str, class_labels: tuple[str, ...],
                context_mean: float, row_index: int, context_size: int,
                predictor_id: str = "llm") -> PredictionRecord:
        """One prediction. Unparseable classification output is re-asked once,
        then falls back to a uniform distribution; unparseable regression
        output falls back to the context label mean. Transport failures are
        recorded on the row and do not abort the run."""
        try:
            completion = self.complete(prompt)
            if task == ds.TASK_CLASSIFICATION:
                match = parse_class(completion, class_labels)
                if match is None:
                    match = parse_class(self.complete(prompt), class_labels)
                if match is not None:
                    probs = tuple(1.0 if c == match else 0.0 for c in class_labels)
                    return PredictionRecord(row_index, task, predictor_id, context_size,
                                            class_probabilities=probs)
            else:
                est = parse_number(completion)
                if est is not None:
                    return PredictionRecord(row_index, task, predictor_id, context_size,
                                            point_estimate=est)
            flag = FLAG_PARSE_FAILURE
        except TransportError:
            flag = FLAG_TRANSPORT_ERROR
        return fallback_record(task, class_labels, context_mean, row_index, context_size,
                               predictor_id, flag)

    def predict_many(self, jobs: list[dict], predictor_id: str = "llm") -> list[PredictionRecord]:
        """Run predict() for each job dict concurrently (bounded by the
        configured concurrency); results keep job order."""
        with ThreadPoolExecutor(max_workers=max(1, self.cfg.concurrency)) as pool:
            futures = [pool.submit(self.predict, predictor_id=predictor_id, **job) for job in jobs]
            return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# External predictions and ensembles


def ingest_predictions(path: str | Path, d: ds.Dataset, predictor_id: str = "external",
                       valid_rows=None) -> list[PredictionRecord]:
    """Load a prediction CSV: ``row_index,estimate`` for regression or
    ``row_index,p_<class>,...`` for classification. Probability vectors with
    sums within [0.99, 1.01] are renormalized; anything further off is an
    error, as is a row index that is out of range, not a test row, or
    repeated, and a file that leaves out any of ``valid_rows``. An error in
    a data line names the file and the line."""
    valid = None if valid_rows is None else set(int(i) for i in valid_rows)
    seen: set[int] = set()
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if d.task == ds.TASK_REGRESSION:
            if header != ["row_index", "estimate"]:
                raise ValueError(f"{path}: bad regression header {header}")
        else:
            expected = ["row_index"] + [f"p_{c}" for c in d.class_labels]
            if header[0] != "row_index" or sorted(header[1:]) != sorted(expected[1:]):
                raise ValueError(f"{path}: bad classification header {header}, expected columns {expected}")
            col_order = [header.index(f"p_{c}") for c in d.class_labels]
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                idx = int(row[0])
                _check_index(idx, d, valid, seen)
                if d.task == ds.TASK_REGRESSION:
                    rec = PredictionRecord(idx, d.task, predictor_id, 0, point_estimate=float(row[1]))
                else:
                    probs = [float(row[c]) for c in col_order]
                    if min(probs) < 0:
                        raise ValueError(f"negative probability on row {idx}")
                    total = sum(probs)
                    if not 0.99 <= total <= 1.01:
                        raise ValueError(f"probabilities on row {idx} sum to {total}")
                    rec = PredictionRecord(idx, d.task, predictor_id, 0,
                                           class_probabilities=tuple(p / total for p in probs))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            records.append(rec)
    if valid is not None and len(seen) < len(valid):
        raise ValueError(f"{path}: no prediction for test row {min(valid - seen)} "
                         f"({len(valid) - len(seen)} of {len(valid)} test rows missing)")
    return records


def _check_index(idx: int, d: ds.Dataset, valid, seen: set[int]) -> None:
    if not 0 <= idx < d.n_rows:
        raise ValueError(f"row index {idx} out of range")
    if valid is not None and idx not in valid:
        raise ValueError(f"row index {idx} is not a test row")
    if idx in seen:
        raise ValueError(f"duplicate row index {idx}")
    seen.add(idx)


def ensemble(per_predictor: list[list[PredictionRecord]],
             predictor_id: str = "ensemble") -> list[PredictionRecord]:
    """Arithmetic mean of probability vectors or point estimates. All member
    predictors must cover the same rows. fsum keeps the result independent of
    predictor order; estimates whose sum passes the float maximum are each
    divided by the member count before they are summed."""
    if not per_predictor:
        raise ValueError("ensemble needs at least one member")
    keyed = [{r.row_index: r for r in records} for records in per_predictor]
    rows = set(keyed[0])
    for m in keyed[1:]:
        if set(m) != rows:
            raise ValueError("ensemble members cover different test rows")
    out = []
    for idx in sorted(rows):
        members = [m[idx] for m in keyed]
        task = members[0].task
        size = max(m.context_size for m in members)
        if task == ds.TASK_CLASSIFICATION:
            k = len(members[0].class_probabilities)
            probs = tuple(math.fsum(m.class_probabilities[j] for m in members) / len(members)
                          for j in range(k))
            total = math.fsum(probs)
            probs = tuple(p / total for p in probs)
            out.append(PredictionRecord(idx, task, predictor_id, size, class_probabilities=probs))
        else:
            estimates = [m.point_estimate for m in members]
            try:
                est = math.fsum(estimates) / len(members)
            except OverflowError:
                est = math.fsum(e / len(members) for e in estimates)
            out.append(PredictionRecord(idx, task, predictor_id, size, point_estimate=est))
    return out
