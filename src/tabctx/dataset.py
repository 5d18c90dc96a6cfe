"""Tabular dataset loading, typed schemas, and train/validation/test splits.

Columnar storage: numerical columns are float64 arrays with NaN as the
missing marker; categorical columns are object arrays of string tokens,
where the empty string is the missing token and behaves as an ordinary
category (two missing cells compare equal).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import dump_json, load_json, rng_for

KIND_NUMERICAL = "numerical"
KIND_CATEGORICAL = "categorical"
ROLE_FEATURE = "feature"
ROLE_LABEL = "label"
ROLE_IGNORED = "ignored"
TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"

MISSING_TOKEN = ""

DEFAULT_TRAIN_CAP = 100_000
DEFAULT_TEST_CAP = 512


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    role: str = ROLE_FEATURE

    def __post_init__(self):
        if self.kind not in (KIND_NUMERICAL, KIND_CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.role not in (ROLE_FEATURE, ROLE_LABEL, ROLE_IGNORED):
            raise ValueError(f"unknown column role {self.role!r}")


class Dataset:
    """Immutable typed table with exactly one label column."""

    def __init__(self, schema: list[ColumnSchema], columns: dict[str, np.ndarray],
                 task: str, class_labels: tuple[str, ...] = ()):
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        labels = [c for c in schema if c.role == ROLE_LABEL]
        if len(labels) != 1:
            raise ValueError(f"expected exactly one label column, got {len(labels)}")
        if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise ValueError(f"unknown task {task!r}")
        if set(columns) != set(names):
            raise ValueError("column storage does not match schema names")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged columns")
        n = lengths.pop() if lengths else 0
        if n == 0:
            raise ValueError("empty table")

        label = labels[0]
        if task == TASK_CLASSIFICATION and label.kind != KIND_CATEGORICAL:
            raise ValueError("classification label column must be categorical")
        if task == TASK_REGRESSION and label.kind != KIND_NUMERICAL:
            raise ValueError("regression label column must be numerical")
        if task == TASK_REGRESSION:
            vals = np.asarray(columns[label.name], dtype=np.float64)
            if not np.all(np.isfinite(vals)):
                raise ValueError("regression label cells must be finite numbers")
        if task == TASK_CLASSIFICATION and not class_labels:
            seen: list[str] = []
            for v in columns[label.name]:
                if v not in seen:
                    seen.append(v)
            class_labels = tuple(seen)

        self.schema = list(schema)
        self.task = task
        self.class_labels = tuple(class_labels)
        self._n = n
        self._columns = {}
        for col in schema:
            raw = columns[col.name]
            if col.kind == KIND_NUMERICAL:
                self._columns[col.name] = np.asarray(raw, dtype=np.float64)
            else:
                self._columns[col.name] = np.asarray([category_token(v) for v in raw], dtype=object)

        if task == TASK_CLASSIFICATION:
            known = set(self.class_labels)
            bad = [v for v in self._columns[label.name] if v not in known]
            if bad:
                raise ValueError(f"label value {bad[0]!r} not in class_labels")

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def label_column(self) -> ColumnSchema:
        return next(c for c in self.schema if c.role == ROLE_LABEL)

    @property
    def feature_columns(self) -> list[ColumnSchema]:
        return [c for c in self.schema if c.role == ROLE_FEATURE]

    @property
    def numerical_features(self) -> list[str]:
        return [c.name for c in self.feature_columns if c.kind == KIND_NUMERICAL]

    @property
    def categorical_features(self) -> list[str]:
        return [c.name for c in self.feature_columns if c.kind == KIND_CATEGORICAL]

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def labels(self) -> np.ndarray:
        return self._columns[self.label_column.name]

    def feature_row(self, i: int) -> dict:
        return {c.name: self._columns[c.name][i] for c in self.feature_columns}


def category_token(value) -> str:
    """The categorical token of a cell or query value: ``None`` is the missing token."""
    return MISSING_TOKEN if value is None else str(value)


def category_codes(tokens: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """Encode categorical tokens over their sorted vocabulary: returns the
    token -> code map (in vocabulary order) and the int32 code of each token."""
    lookup = {t: i for i, t in enumerate(sorted(set(tokens)))}
    return lookup, np.fromiter(map(lookup.__getitem__, tokens), dtype=np.int32, count=len(tokens))


def load_schema(schema_file: str | Path) -> tuple[list[ColumnSchema], str]:
    raw = load_json(schema_file)
    cols = [ColumnSchema(c["name"], c["kind"], c.get("role", ROLE_FEATURE)) for c in raw["columns"]]
    task = raw["task"]
    return cols, task


def save_schema(schema: list[ColumnSchema], task: str, schema_file: str | Path) -> None:
    dump_json(schema_file, {
        "columns": [{"name": c.name, "kind": c.kind, "role": c.role} for c in schema],
        "task": task,
    })


def _parse_cell(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        return math.nan
    return v if math.isfinite(v) else math.nan


def load_dataset(table_file: str | Path, schema_file: str | Path) -> Dataset:
    """Read a comma-delimited UTF-8 table (header row, quoting allowed) against
    its JSON schema sidecar. Numerical cells that fail to parse become NaN.
    """
    schema, task = load_schema(schema_file)
    with open(table_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty table") from None
        if header != [c.name for c in schema]:
            raise ValueError(f"header {header} does not match schema columns")
        rows = list(reader)
    if not rows:
        raise ValueError("empty table")

    columns: dict[str, list] = {c.name: [] for c in schema}
    for r, cells in enumerate(rows):
        if len(cells) != len(schema):
            raise ValueError(f"row {r} has {len(cells)} cells, expected {len(schema)}")
        for col, cell in zip(schema, cells):
            columns[col.name].append(_parse_cell(cell) if col.kind == KIND_NUMERICAL else cell)
    return Dataset(schema, {k: np.asarray(v, dtype=object) if isinstance(v[0], str) else np.asarray(v)
                            for k, v in columns.items()}, task)


def save_table(d: Dataset, table_file: str | Path) -> None:
    """Write the table back out; a reload yields cell-identical content."""
    with open(table_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in d.schema])
        cols = [d.column(c.name) for c in d.schema]
        kinds = [c.kind for c in d.schema]
        for i in range(d.n_rows):
            row = []
            for kind, col in zip(kinds, cols):
                v = col[i]
                if kind == KIND_NUMERICAL:
                    row.append("" if math.isnan(v) else repr(float(v)))
                else:
                    row.append(v)
            writer.writerow(row)


@dataclass(frozen=True)
class SplitAssignment:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            object.__setattr__(self, name, np.asarray(sorted(set(map(int, getattr(self, name)))), dtype=np.int64))
        a, b, c = set(self.train.tolist()), set(self.validation.tolist()), set(self.test.tolist())
        if a & b or a & c or b & c:
            raise ValueError("split sets overlap")


def _downsample(idx: np.ndarray, cap: int, seed: int, tag: str) -> np.ndarray:
    if cap <= 0:
        raise ValueError("caps must be positive")
    if len(idx) <= cap:
        return idx
    picked = rng_for(seed, tag).choice(idx, size=cap, replace=False)
    return np.sort(picked)


def make_split(d: Dataset, ratios: tuple[float, float, float], seed: int,
               train_cap: int = DEFAULT_TRAIN_CAP, test_cap: int = DEFAULT_TEST_CAP) -> SplitAssignment:
    """Random split with exact floor-based sizes, then train cap and test
    downsample (uniform without replacement, all driven by the one seed)."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if d.n_rows < 3:
        raise ValueError("dataset too small to split (need at least 3 rows)")
    n = d.n_rows
    perm = rng_for(seed, "split").permutation(n)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    train, val, test = perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]
    train = _downsample(np.sort(train), train_cap, seed, "train-cap")
    test = _downsample(np.sort(test), test_cap, seed, "test-cap")
    return SplitAssignment(train=train, validation=np.sort(val), test=test, seed=seed)


def load_external_split(train, validation, test, seed: int, n_rows: int,
                        train_cap: int = DEFAULT_TRAIN_CAP, test_cap: int = DEFAULT_TEST_CAP) -> SplitAssignment:
    """Wrap externally supplied index lists, applying the same cap rules."""
    for part, name in ((train, "train"), (validation, "validation"), (test, "test")):
        arr = np.asarray(list(part), dtype=np.int64)
        if len(arr) and (arr.min() < 0 or arr.max() >= n_rows):
            raise ValueError(f"{name} indices out of range for {n_rows} rows")
    assignment = SplitAssignment(train=np.asarray(list(train), dtype=np.int64),
                                 validation=np.asarray(list(validation), dtype=np.int64),
                                 test=np.asarray(list(test), dtype=np.int64), seed=seed)
    train_idx = _downsample(assignment.train, train_cap, seed, "train-cap")
    test_idx = _downsample(assignment.test, test_cap, seed, "test-cap")
    return SplitAssignment(train=train_idx, validation=assignment.validation, test=test_idx, seed=seed)


def load_split_file(path: str | Path, n_rows: int,
                    train_cap: int = DEFAULT_TRAIN_CAP, test_cap: int = DEFAULT_TEST_CAP) -> SplitAssignment:
    raw = load_json(path)
    return load_external_split(raw["train"], raw["validation"], raw["test"],
                               int(raw.get("seed", 0)), n_rows, train_cap, test_cap)


def save_split_file(split: SplitAssignment, path: str | Path) -> None:
    dump_json(path, {"train": split.train.tolist(), "validation": split.validation.tolist(),
                     "test": split.test.tolist(), "seed": split.seed})
