"""Tabular dataset loading, typed schemas, and train/validation/test splits.

Columnar storage: numerical columns are float64 arrays with NaN as the
missing marker; categorical columns are int32 codes over their sorted
vocabulary (``Dataset.codes`` / ``Dataset.vocabulary``), the one encoding
that retrieval, the feature weights and the kNN vote read. Their tokens are
``vocabulary[codes]``; the empty string is the missing token and behaves as
an ordinary category (two missing cells compare equal).
"""
from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice, zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .util import dump_json, json_problems, load_json, rng_for

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

# load_dataset reads the table this many rows at a time
CHUNK_ROWS = 2048


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


class Coded(NamedTuple):
    """A categorical column as int32 codes over its sorted vocabulary."""
    vocabulary: np.ndarray  # object array of distinct tokens, sorted
    codes: np.ndarray       # int32, one per row


class Dataset:
    """Immutable typed table with exactly one label column.

    A categorical column is given either as a ``Coded`` column, as
    ``load_dataset`` gives it, or as tokens, which are encoded here; its
    tokens are built on the first ``column`` call. ``coerced_cells`` counts,
    per numerical column, the non-empty cells the loader turned into NaN.
    ``class_codes`` holds each row's label as its index in ``class_labels``.
    """

    def __init__(self, schema: list[ColumnSchema], columns: dict[str, np.ndarray | Coded],
                 task: str, class_labels: tuple[str, ...] = (),
                 coerced_cells: dict[str, int] | None = None):
        label = _check_schema(schema, task)
        if set(columns) != {c.name for c in schema}:
            raise ValueError("column storage does not match schema names")
        lengths = {len(v.codes) if isinstance(v, Coded) else len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged columns")
        n = lengths.pop() if lengths else 0
        if n == 0:
            raise ValueError("empty table")

        self.schema = list(schema)
        self.task = task
        self.coerced_cells = dict(coerced_cells or {})
        self.n_rows = n
        self.label_column = label
        self.feature_columns = [c for c in schema if c.role == ROLE_FEATURE]
        self.numerical_features = [c.name for c in self.feature_columns if c.kind == KIND_NUMERICAL]
        self.categorical_features = [c.name for c in self.feature_columns if c.kind == KIND_CATEGORICAL]
        self._columns: dict[str, np.ndarray] = {}  # numbers, and tokens once built
        self._coded: dict[str, Coded] = {}
        for col in schema:
            raw = columns[col.name]
            if col.kind == KIND_NUMERICAL:
                self._columns[col.name] = np.asarray(raw, dtype=np.float64)
            elif isinstance(raw, Coded):
                self._coded[col.name] = raw
            else:
                encoder = _Encoder()
                encoder.add([category_token(v) for v in raw])
                self._coded[col.name] = encoder.finish()

        self.class_labels = tuple(class_labels)
        self.class_codes = None
        if task == TASK_REGRESSION:
            bad = np.flatnonzero(~np.isfinite(self._columns[label.name]))
            if len(bad):
                raise ValueError(f"data row {bad[0] + 1}, column {label.name!r}: "
                                 f"regression label cells must be finite numbers")
            return
        vocabulary, codes = self._coded[label.name]
        if not class_labels:  # the labels in first-appearance order
            used, first = np.unique(codes, return_index=True)
            self.class_labels = tuple(vocabulary[used[np.argsort(first)]].tolist())
        index = {c: i for i, c in enumerate(self.class_labels)}
        # the smallest signed type that holds every class index and -1
        self.class_codes = np.asarray([index.get(t, -1) for t in vocabulary.tolist()],
                                      dtype=np.min_scalar_type(-len(index)))[codes]
        bad = np.flatnonzero(self.class_codes < 0)
        if len(bad):
            raise ValueError(f"data row {bad[0] + 1}, column {label.name!r}: label value "
                             f"{vocabulary[codes[bad[0]]]!r} not in class_labels")

    def column(self, name: str) -> np.ndarray:
        """Numbers (float64, NaN missing) or tokens (object array of ``str``)."""
        if name not in self._columns:
            vocabulary, codes = self._coded[name]
            self._columns[name] = vocabulary[codes]
        return self._columns[name]

    def labels(self) -> np.ndarray:
        return self.column(self.label_column.name)

    def feature_row(self, i: int) -> dict:
        return {c.name: self._cell(c.name, i) for c in self.feature_columns}

    def _cell(self, name: str, i: int):
        if name in self._columns:
            return self._columns[name][i]
        vocabulary, codes = self._coded[name]
        return vocabulary[codes[i]]

    def codes(self, name: str) -> np.ndarray:
        """A categorical column's int32 codes over its sorted vocabulary."""
        return self._coded[name].codes

    def vocabulary(self, name: str) -> np.ndarray:
        """A categorical column's distinct tokens, sorted: token ``vocabulary[c]`` has code ``c``."""
        return self._coded[name].vocabulary

    def code(self, name: str, value) -> int:
        """The code of a value's token in a categorical column (``None`` is the
        missing token), or -1 if the column never holds it."""
        token = category_token(value)
        vocabulary = self._coded[name].vocabulary
        i = int(np.searchsorted(vocabulary, token))
        return i if i < len(vocabulary) and vocabulary[i] == token else -1


def _check_schema(schema: list[ColumnSchema], task: str) -> ColumnSchema:
    """The label column of a schema for ``task``; raises ValueError unless
    the names are distinct, there is exactly one label column, and its kind
    suits the task."""
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ValueError("duplicate column names in schema")
    labels = [c for c in schema if c.role == ROLE_LABEL]
    if len(labels) != 1:
        raise ValueError(f"expected exactly one label column, got {len(labels)}")
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ValueError(f"unknown task {task!r}")
    label = labels[0]
    if task == TASK_CLASSIFICATION and label.kind != KIND_CATEGORICAL:
        raise ValueError("classification label column must be categorical")
    if task == TASK_REGRESSION and label.kind != KIND_NUMERICAL:
        raise ValueError("regression label column must be numerical")
    return label


def category_token(value) -> str:
    """The categorical token of a cell or query value: ``None`` is the missing token."""
    return MISSING_TOKEN if value is None else str(value)


def load_schema(schema_file: str | Path) -> tuple[list[ColumnSchema], str]:
    """The columns and task of a schema sidecar. Content that is not such a
    schema, or that ``_check_schema`` rejects, raises ValueError naming the
    file (and the column entry, where there is one)."""
    raw = load_json(schema_file)
    if problems := json_problems("", {"columns": list[ColumnSchema], "task": str}, raw, ("columns", "task")):
        raise ValueError(f"{schema_file}: {'; '.join(problems)}")
    cols = []
    for i, c in enumerate(raw["columns"]):
        try:
            cols.append(ColumnSchema(**c))
        except ValueError as exc:
            raise ValueError(f"{schema_file}: columns[{i}]: {exc}") from None
    try:
        _check_schema(cols, raw["task"])
    except ValueError as exc:
        raise ValueError(f"{schema_file}: {exc}") from None
    return cols, raw["task"]


def save_schema(schema: list[ColumnSchema], task: str, schema_file: str | Path) -> None:
    dump_json(schema_file, {
        "columns": [{"name": c.name, "kind": c.kind, "role": c.role} for c in schema],
        "task": task,
    })


def _parse_numbers(cells: Sequence[str]) -> tuple[np.ndarray, int]:
    """Parse numerical cells as ``float`` does; an empty cell, a cell that does
    not parse and a non-finite value are NaN. Also returns how many non-empty
    cells became NaN (the coerced cells)."""
    try:
        values = np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)
    except ValueError:
        values = np.array([_float_or_nan(c) for c in cells], dtype=np.float64)
    missing = ~np.isfinite(values)
    values[missing] = np.nan
    return values, int(np.count_nonzero(missing)) - cells.count("")


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class _Encoder:
    """Encodes one categorical column chunk by chunk into one int32 buffer
    that grows in place: codes in first-seen order while reading, remapped in
    place to the sorted vocabulary at the end."""

    def __init__(self):
        self.lookup: dict[str, int] = {}
        self.codes = np.empty(0, dtype=np.int32)

    def add(self, cells: Sequence[str]) -> None:
        lookup = self.lookup
        _extend(self.codes, np.fromiter((lookup.setdefault(c, len(lookup)) for c in cells),
                                        dtype=np.int32, count=len(cells)))

    def finish(self) -> Coded:
        vocabulary = sorted(self.lookup)
        remap = np.empty(len(vocabulary), dtype=np.int32)
        remap[[self.lookup[t] for t in vocabulary]] = np.arange(len(vocabulary), dtype=np.int32)
        # a chunk at a time, so the remap makes no column-sized temporary
        for start in range(0, len(self.codes), CHUNK_ROWS):
            part = self.codes[start:start + CHUNK_ROWS]
            part[...] = remap[part]
        return Coded(np.asarray(vocabulary, dtype=object), self.codes)


def _extend(buffer: np.ndarray, values: np.ndarray) -> None:
    """Append ``values`` to a 1-D array that owns its memory, in place: the
    memory is reallocated, so the column is never held twice."""
    start = len(buffer)
    buffer.resize(start + len(values), refcheck=False)
    buffer[start:] = values


def load_dataset(table_file: str | Path, schema_file: str | Path) -> Dataset:
    """Read a comma-delimited UTF-8 table (header row, quoting allowed) against
    its JSON schema sidecar, ``CHUNK_ROWS`` rows at a time: each chunk's rows
    fill one flat cell list, and each column is a strided slice of it that is
    appended to the column's one buffer, which grows in place (no per-chunk
    arrays, and no column held twice). Numerical cells parse with ``float``;
    those that fail to parse, or are not finite, become NaN and are counted in
    ``coerced_cells``. Categorical cells become codes as they are read. Errors
    name the file, the 1-based data row and the column, or the row and the csv
    module's message (a field over ``csv.field_size_limit()``).
    """
    schema, task = load_schema(schema_file)
    names = [c.name for c in schema]
    numbers = {c.name: np.empty(0) for c in schema if c.kind == KIND_NUMERICAL}
    encoders = {c.name: _Encoder() for c in schema if c.kind == KIND_CATEGORICAL}
    coerced = dict.fromkeys(numbers, 0)
    with open(table_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{table_file}: header: {exc}") from None
        if header is None:
            raise ValueError(f"{table_file}: empty table")
        if header != names:
            j, got, want = next((j, a, b) for j, (a, b) in enumerate(zip_longest(header, names))
                                if a != b)
            raise ValueError(f"{table_file}: header {header} does not match schema columns {names}: "
                             f"column {j + 1} is {got!r}, schema says {want!r}")
        width = len(names)
        start = 0  # data rows read so far
        while True:
            rows, cells = 0, []
            try:
                for row in islice(reader, CHUNK_ROWS):
                    rows += 1
                    if len(row) != width:
                        where = (f"no cell for column {names[len(row)]!r}" if len(row) < width
                                 else f"extra cells after column {names[-1]!r}")
                        raise ValueError(f"{table_file}: data row {start + rows} has {len(row)} "
                                         f"cells, expected {width} ({where})")
                    cells += row
            except csv.Error as exc:
                raise ValueError(f"{table_file}: data row {start + rows + 1}: {exc}") from None
            if not rows:
                break
            for j, name in enumerate(names):
                column = cells[j::width]
                if name in numbers:
                    values, n_coerced = _parse_numbers(column)
                    _extend(numbers[name], values)
                    coerced[name] += n_coerced
                else:
                    encoders[name].add(column)
            start += rows
            del cells, column
    if start == 0:
        raise ValueError(f"{table_file}: empty table")
    columns = {**numbers, **{k: v.finish() for k, v in encoders.items()}}
    try:
        return Dataset(schema, columns, task, coerced_cells=coerced)
    except ValueError as exc:
        raise ValueError(f"{table_file}: {exc}") from None


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
    """Row indices of the three split sets. Each set is kept as an int64
    array, ascending and without repeats: one that already is one is kept as
    given, any other is sorted and its repeats dropped. Sets that share a
    row raise ``ValueError``."""
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            rows = np.asarray(getattr(self, name), dtype=np.int64)
            if (rows[1:] <= rows[:-1]).any():
                # sorts and adjacent comparisons: np.unique's hash path is
                # slower on 100k rows than the sort it replaces
                rows = np.sort(rows)
                rows = rows[~_repeats(rows)]
            object.__setattr__(self, name, rows)
        train, validation, test = self.train, self.validation, self.test
        if _share_a_row(train, validation) or _share_a_row(train, test) or _share_a_row(validation, test):
            raise ValueError("split sets overlap")


def _repeats(sorted_rows: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to the one before them."""
    out = np.zeros(len(sorted_rows), dtype=bool)
    out[1:] = sorted_rows[1:] == sorted_rows[:-1]
    return out


def _share_a_row(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two ascending arrays hold a common entry: the shorter one is
    looked up in the longer one, which is neither copied nor sorted."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a):
        return False
    at = np.searchsorted(b, a)
    np.minimum(at, len(b) - 1, out=at)
    return bool((b[at] == a).any())


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


def load_split_file(path: str | Path, n_rows: int,
                    train_cap: int = DEFAULT_TRAIN_CAP, test_cap: int = DEFAULT_TEST_CAP) -> SplitAssignment:
    """A split file's sets of row indices from 0 to ``n_rows - 1``, with
    ``make_split``'s train cap and test downsample; ``seed`` is 0 when left
    out. Other content raises ``ValueError`` naming the file and the key."""
    raw = load_json(path)
    sets = ("train", "validation", "test")
    if problems := json_problems("", {**dict.fromkeys(sets, list[int]), "seed": int}, raw, sets):
        raise ValueError(f"{path}: {'; '.join(problems)}")
    for key in sets:
        for i, row in enumerate(raw[key]):
            if not 0 <= row < n_rows:
                raise ValueError(f"{path}: {key}[{i}] is {row}, not a row index "
                                 f"(an integer from 0 to {n_rows - 1})")
    seed = raw.get("seed", 0)
    try:
        split = SplitAssignment(train=raw["train"], validation=raw["validation"], test=raw["test"], seed=seed)
        return SplitAssignment(train=_downsample(split.train, train_cap, seed, "train-cap"),
                               validation=split.validation,
                               test=_downsample(split.test, test_cap, seed, "test-cap"), seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_split_file(split: SplitAssignment, path: str | Path) -> None:
    dump_json(path, {"train": split.train.tolist(), "validation": split.validation.tolist(),
                     "test": split.test.tolist(), "seed": split.seed})
