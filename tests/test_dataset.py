import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from conftest import make_dataset
from oracles import load_dataset_reference, parse_cell


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def schema_json(path, cols, task):
    ds.save_schema([ds.ColumnSchema(*c) for c in cols], task, path)


def test_load_echoes_schema(tmp_path):
    write_csv(tmp_path / "t.csv", ["f1", "f2", "y"],
              [["1.5", "red", "yes"], ["2.5", "blue", "no"]])
    schema_json(tmp_path / "s.json",
                [("f1", "numerical", "feature"), ("f2", "categorical", "feature"),
                 ("y", "categorical", "label")], "classification")
    d = ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")
    assert len(d.feature_columns) == 2
    assert d.task == "classification"
    assert d.class_labels == ("yes", "no")


def test_unparseable_numeric_becomes_missing(tmp_path):
    write_csv(tmp_path / "t.csv", ["f1", "y"], [["abc", "a"], ["2", "b"]])
    schema_json(tmp_path / "s.json", [("f1", "numerical", "feature"), ("y", "categorical", "label")],
                "classification")
    d = ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")
    assert math.isnan(d.column("f1")[0])
    assert d.column("f1")[1] == 2.0


def test_two_label_columns_rejected(tmp_path):
    write_csv(tmp_path / "t.csv", ["y1", "y2"], [["a", "b"]])
    schema_json(tmp_path / "s.json", [("y1", "categorical", "label"), ("y2", "categorical", "label")],
                "classification")
    with pytest.raises(ValueError, match="label"):
        ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")


def test_header_mismatch_and_empty_table(tmp_path):
    schema_json(tmp_path / "s.json", [("f1", "numerical", "feature"), ("y", "categorical", "label")],
                "classification")
    write_csv(tmp_path / "bad.csv", ["oops", "y"], [["1", "a"]])
    with pytest.raises(ValueError, match="header"):
        ds.load_dataset(tmp_path / "bad.csv", tmp_path / "s.json")
    write_csv(tmp_path / "empty.csv", ["f1", "y"], [])
    with pytest.raises(ValueError, match="empty"):
        ds.load_dataset(tmp_path / "empty.csv", tmp_path / "s.json")


def test_regression_label_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        make_dataset(num={"a": [1, 2]}, label=[1.0, float("nan")], task="regression")


def test_class_labels_first_appearance_order():
    d = make_dataset(num={"a": [1, 2, 3, 4]}, label=["z", "m", "z", "a"])
    assert d.class_labels == ("z", "m", "a")


def test_ignored_columns_kept_but_not_features(tmp_path):
    write_csv(tmp_path / "t.csv", ["f1", "note", "y"], [["1", "skip me", "a"], ["2", "x", "b"]])
    schema_json(tmp_path / "s.json",
                [("f1", "numerical", "feature"), ("note", "categorical", "ignored"),
                 ("y", "categorical", "label")], "classification")
    d = ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")
    assert [c.name for c in d.feature_columns] == ["f1"]
    assert d.column("note")[0] == "skip me"
    ds.save_table(d, tmp_path / "t2.csv")
    d2 = ds.load_dataset(tmp_path / "t2.csv", tmp_path / "s.json")
    assert list(d2.column("note")) == ["skip me", "x"]
    assert d2.column("f1").tolist() == [1.0, 2.0]


# NUL cannot be carried by a CSV text file; CR is dropped by universal newlines
token = st.text(alphabet=st.characters(blacklist_characters="\r\x00", blacklist_categories=("Cs",)),
                max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=32), token),
                min_size=1, max_size=30))
def test_round_trip_preserves_cells(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    d = make_dataset(num={"x": [r[0] for r in rows]},
                     cat={"c": [r[1] for r in rows]},
                     label=["a"] * len(rows))
    ds.save_table(d, tmp / "t.csv")
    ds.save_schema(d.schema, d.task, tmp / "s.json")
    d2 = ds.load_dataset(tmp / "t.csv", tmp / "s.json")
    assert np.array_equal(d.column("x"), d2.column("x"), equal_nan=True)
    assert list(d.column("c")) == list(d2.column("c"))
    assert list(d.labels()) == list(d2.labels())


def _write_cls(tmp_path, rows, header=("f1", "g", "y")):
    write_csv(tmp_path / "t.csv", list(header), rows)
    schema_json(tmp_path / "s.json", [("f1", "numerical", "feature"), ("g", "categorical", "feature"),
                                      ("y", "categorical", "label")], "classification")
    return tmp_path / "t.csv", tmp_path / "s.json"


def test_header_error_names_file_and_column(tmp_path):
    table, schema = _write_cls(tmp_path, [["1", "u", "a"]], header=("f1", "h", "y"))
    with pytest.raises(ValueError, match="header") as err:
        ds.load_dataset(table, schema)
    assert str(table) in str(err.value) and "column 2 is 'h', schema says 'g'" in str(err.value)


def test_schema_error_names_file_and_missing_keys(tmp_path):
    table, schema = _write_cls(tmp_path, [["1", "u", "a"]])
    cases = [({"columns": [{"name": "f1", "kind": "numerical"}]}, ["task"]),
             ({"task": "classification"}, ["columns"]),
             ({"task": "classification",
               "columns": [{"name": "f1", "kind": "numerical"}, {"kind": "categorical"}, {"role": "label"}]},
              ["columns[1].name", "columns[2].name", "columns[2].kind"])]
    for raw, keys in cases:
        schema.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match="missing key") as err:
            ds.load_dataset(table, schema)
        msg = str(err.value)
        assert str(schema) in msg and all(k in msg for k in keys), msg
        assert "columns[0]" not in msg


def _schema(task="classification", column=0, **change):
    """_write_cls's schema with ``change`` made to one column entry."""
    columns = [{"name": "f1", "kind": "numerical"}, {"name": "g", "kind": "categorical"},
               {"name": "y", "kind": "categorical", "role": "label"}]
    columns[column] = {**columns[column], **change}
    return {"task": task, "columns": columns}


# an explicit id names the case by its input
@pytest.mark.parametrize("raw, want", [
    (_schema(kind="text"), "columns[0]: unknown column kind 'text'"),
    (_schema(column=2, role="target"), "columns[2]: unknown column role 'target'"),
    pytest.param(_schema(name=1), "columns[0].name must be a string, not 1",
                 id="raw2-columns[0]: column name 1 is not a string"),
    (_schema(column=2, role="feature"), "expected exactly one label column, got 0"),
    (_schema("ranking"), "unknown task 'ranking'"),
    (_schema("regression"), "regression label column must be numerical"),
    ({"task": "classification", "columns": 5}, "columns must be a list, not 5"),
    pytest.param({"task": "classification", "columns": ["f1"]}, "columns[0] must be a JSON object, not 'f1'",
                 id="raw7-columns[0] is 'f1', not an object"),
    ([{"name": "f1", "kind": "numerical"}],
     "the top level must be a JSON object, not [{'kind': 'numerical', 'name': 'f1'}]"),
    (_schema(rol="label"), "unknown key columns[0].rol"),
    ({**_schema(), "version": 2}, "unknown key version"),
    ('{"task": "classification", "columns": [}', "Expecting value: line 1 column 40 (char 39)"),
])
def test_malformed_schema_content_names_the_schema_file(tmp_path, raw, want):
    table, schema = _write_cls(tmp_path, [["1", "u", "a"]])
    schema.write_text(raw if isinstance(raw, str) else json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ds.load_dataset(table, schema)
    assert str(err.value) == f"{schema}: {want}"


def test_ragged_row_error_names_file_row_and_column(tmp_path):
    table, schema = _write_cls(tmp_path, [["1", "u", "a"], ["2", "v", "b"], ["3", "w"]])
    with pytest.raises(ValueError) as err:
        ds.load_dataset(table, schema)
    msg = str(err.value)
    assert str(table) in msg and "data row 3 has 2 cells" in msg and "column 'y'" in msg
    # the row number counts across chunks
    with mock.patch.object(ds, "CHUNK_ROWS", 2), pytest.raises(ValueError, match="data row 3 "):
        ds.load_dataset(table, schema)


def test_regression_label_error_names_file_row_and_column(tmp_path):
    write_csv(tmp_path / "t.csv", ["f1", "y"], [["1", "1.5"], ["2", "2.5"], ["3", "inf"]])
    schema_json(tmp_path / "s.json", [("f1", "numerical", "feature"), ("y", "numerical", "label")],
                "regression")
    with pytest.raises(ValueError, match="finite") as err:
        ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")
    assert str(tmp_path / "t.csv") in str(err.value) and "data row 3, column 'y'" in str(err.value)


def test_label_outside_class_labels_names_row_and_column():
    # only a Dataset built with explicit class_labels can hold such a label:
    # load_dataset takes the class labels from the table itself
    schema = [ds.ColumnSchema("f1", ds.KIND_NUMERICAL), ds.ColumnSchema("y", ds.KIND_CATEGORICAL, ds.ROLE_LABEL)]
    columns = {"f1": [1.0, 2.0, 3.0], "y": ["a", "b", "c"]}
    with pytest.raises(ValueError, match="data row 3, column 'y': label value 'c' not in class_labels"):
        ds.Dataset(schema, columns, ds.TASK_CLASSIFICATION, class_labels=("a", "b"))
    coded = {"f1": columns["f1"], "y": ds.Coded(np.asarray(["a", "b", "c"], dtype=object),
                                                np.asarray([0, 2, 1], dtype=np.int32))}
    with pytest.raises(ValueError, match="data row 2, column 'y': label value 'c'"):
        ds.Dataset(schema, coded, ds.TASK_CLASSIFICATION, class_labels=("a", "b"))


def test_coerced_cells_are_counted(tmp_path):
    write_csv(tmp_path / "t.csv", ["f1", "f2", "y"],
              [["abc", "", "a"], ["inf", "1", "b"], ["2", "2", "a"], ["", "3", "b"]])
    schema_json(tmp_path / "s.json", [("f1", "numerical", "feature"), ("f2", "numerical", "feature"),
                                      ("y", "categorical", "label")], "classification")
    d = ds.load_dataset(tmp_path / "t.csv", tmp_path / "s.json")
    assert d.coerced_cells == {"f1": 2, "f2": 0}
    assert np.isnan(d.column("f1")).tolist() == [True, True, False, True]
    assert make_dataset(num={"a": [1.0, float("nan")]}, label=["a", "b"]).coerced_cells == {}


def test_dataset_codes_and_vocabulary():
    d = make_dataset(cat={"g": ["v", "", "u", "v"]}, num={"a": [1, 2, 3, 4]}, label=["q", "p", "q", "r"])
    assert d.vocabulary("g").tolist() == ["", "u", "v"]
    assert d.codes("g").tolist() == [2, 0, 1, 2] and d.codes("g").dtype == np.int32
    assert d.class_labels == ("q", "p", "r")
    assert d.class_codes.tolist() == [0, 1, 0, 2]
    many = make_dataset(num={"a": range(400)}, label=[f"c{i % 200}" for i in range(400)])
    assert many.class_codes.tolist() == [i % 200 for i in range(400)]
    assert [d.code("g", t) for t in ("", "u", "v", None)] == [0, 1, 2, 0]
    assert d.code("g", "w") == -1 and d.code("g", "a") == -1


cell_text = st.one_of(
    st.sampled_from(["", "inf", "-inf", "nan", "-nan", "NaN", "1_0", " 1.5 ", "\t2\n", "-0.0",
                     "1e400", "-1e400", "1e-400", "0x10", "abc", "1,5", "+3", ".5", "5."]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.eE+-_ infa", max_size=8),
    st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(cell_text, min_size=1, max_size=12))
def test_column_parser_equals_cell_parser(cells):
    values, coerced = ds._parse_numbers(tuple(cells))
    want = np.asarray([parse_cell(c) for c in cells], dtype=np.float64)
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert coerced == sum(1 for c, v in zip(cells, want) if c and math.isnan(v))


category = st.sampled_from(["", "a", "b", "c,d", 'say "hi"', "z"]) | token


def _write_text(tmp_path, text, cols, task):
    (tmp_path / "t.csv").write_text(text, encoding="utf-8", newline="")
    schema_json(tmp_path / "s.json", cols, task)
    return tmp_path / "t.csv", tmp_path / "s.json"


CLS3 = [("f1", "numerical", "feature"), ("g", "categorical", "feature"), ("y", "categorical", "label")]
TABLE_SCHEMAS = {"cls3": (CLS3, "classification"),
                 "cls1": ([("y", "categorical", "label")], "classification"),
                 "reg2": ([("x", "numerical", "feature"), ("y", "numerical", "label")], "regression")}
# CR, NUL, quotes, commas, newlines and fields past a small csv size limit
odd_cell = st.sampled_from(["1_0", "\u0661\u0662", " 3 ", "0x10", "a,b", 'q"t', "l\nm", "c\rd", "n\x00l",
                            "x" * 9])
number_cell = st.sampled_from(["", "1", "2.5", "-3", "1e3"]) | cell_text | odd_cell
text_cell = category | st.sampled_from(["p", "q", "r,s"]) | odd_cell


label_number = st.sampled_from(["1", "2.5", "-3", "1e3", " 4 ", "1_0"]) \
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)


def _table_rows(cols):
    # half the tables have every row whole; the rest may hold ragged rows
    whole = st.tuples(*(text_cell if kind == "categorical" else label_number if role == "label"
                        else number_cell for _, kind, role in cols)).map(list)
    ragged = st.lists(number_cell | text_cell, max_size=len(cols) + 1)
    return st.lists(whole, min_size=1, max_size=12) | st.lists(whole | ragged, max_size=12)


def _load_or_error(loader, table, schema):
    try:
        return loader(table, schema)
    except Exception as exc:  # the loader and the reference must fail alike
        return exc


@settings(max_examples=300, deadline=None)
# a quoted newline from the last row of a chunk into the next
@example(table=("cls3", [["1", "u", "a"], ["2", "v", "b"], ["3", "u", "b"], ["4", "w\nx", "a"],
                         ["5", "u", "b"]]),
         terminator="\n", cut_last=False, chunk_rows=2, field_limit=None)
# csv.reader reads a blank line as a row of no cells
@example(table=("cls1", [["a"], [], ["b"]]), terminator="\n", cut_last=False, chunk_rows=3,
         field_limit=None)
# a ragged row among whole ones, no final newline
@example(table=("cls3", [["1", "u", "a"], ["2", "v"], ["3", "w", "a"]]), terminator="\n",
         cut_last=True, chunk_rows=3, field_limit=None)
@given(st.sampled_from(sorted(TABLE_SCHEMAS)).flatmap(
           lambda k: st.tuples(st.just(k), _table_rows(TABLE_SCHEMAS[k][0]))),
       st.sampled_from(["\n", "\r\n"]), st.booleans(), st.integers(1, 3),
       st.sampled_from([None, None, None, 16, 3]))
def test_chunked_loader_equals_reference(tmp_path_factory, table, terminator, cut_last, chunk_rows,
                                         field_limit):
    # chunk boundaries anywhere (a quoted newline may cross one), CRLF or LF,
    # NUL, blank and ragged rows, a missing final newline and fields over
    # the csv size limit: the same Dataset as one csv.reader, or the same error
    key, rows = table
    cols, task = TABLE_SCHEMAS[key]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=terminator)
    writer.writerow([c[0] for c in cols])
    writer.writerows(rows)
    text = buf.getvalue().removesuffix(terminator) if cut_last else buf.getvalue()
    paths = _write_text(tmp_path_factory.mktemp("chunks"), text, cols, task)
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        with mock.patch.object(ds, "CHUNK_ROWS", chunk_rows):
            got = _load_or_error(ds.load_dataset, *paths)
        want = _load_or_error(load_dataset_reference, *paths)
    finally:
        csv.field_size_limit(old_limit)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert isinstance(got, ds.Dataset), got
    assert got.class_labels == want.class_labels and got.coerced_cells == want.coerced_cells
    if task == "classification":
        assert np.array_equal(got.class_codes, want.class_codes)
    for name, kind, _ in cols:
        if kind == "numerical":
            assert np.array_equal(got.column(name).view(np.int64), want.column(name).view(np.int64))
            continue
        assert got.column(name).tolist() == want.column(name).tolist()
        assert got.vocabulary(name).tolist() == want.vocabulary(name).tolist()
        assert np.array_equal(got.codes(name), want.codes(name)) and got.codes(name).dtype == np.int32
        assert got.vocabulary(name)[got.codes(name)].tolist() == got.column(name).tolist()
        assert [got.feature_row(i).get(name, got.labels()[i]) for i in range(got.n_rows)] \
            == want.column(name).tolist()


def test_field_over_the_csv_limit_names_file_and_row(tmp_path):
    limit = csv.field_size_limit()
    long_cell = "v" * (limit + 1)
    table, schema = _write_cls(tmp_path, [["1", "u", "a"], ["2", long_cell, "b"]])
    with pytest.raises(ValueError, match="data row 2: field larger than field limit") as err:
        ds.load_dataset(table, schema)
    assert str(table) in str(err.value)
    table, schema = _write_cls(tmp_path, [["1", "u", "a"]], header=("f1", long_cell, "y"))
    with pytest.raises(ValueError, match="header: field larger than field limit") as err:
        ds.load_dataset(table, schema)
    assert str(table) in str(err.value)


def test_numerical_cells_parse_as_float_does(tmp_path):
    # the README promises ``float``: underscores, other scripts' digits and
    # surrounding spaces parse; hexadecimal does not and is a coerced cell
    paths = _write_text(tmp_path, "x,y\n1_0,1\n\u0661\u0662,2\n 2.5 ,3\n0x10,4\n",
                        [("x", "numerical", "feature"), ("y", "numerical", "label")], "regression")
    d = ds.load_dataset(*paths)
    assert d.column("x")[:3].tolist() == [10.0, 12.0, 2.5] and math.isnan(d.column("x")[3])
    assert d.coerced_cells == {"x": 1, "y": 0}


def _mixed_table(tmp_path, n, seed=0, numerical=3, categorical=2):
    """A classification table of ``n`` data rows of one-character cells:
    digits with missing and coerced ("x") numerical cells, and letters with
    the missing token. CPython keeps one object per one-character string, so
    a chunk's cells cost only the list that holds them."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10, size=(n, numerical)).astype(str)
    x[rng.random(x.shape) < 0.05] = ""
    x[rng.random(x.shape) < 0.01] = "x"
    g = np.asarray(list("abcdefghi"))[rng.integers(0, 9, size=(n, categorical))]
    g[rng.random(g.shape) < 0.05] = ""
    y = np.asarray(list("lmh"))[rng.integers(0, 3, size=n)]
    cols = ([(f"x{j}", "numerical", "feature") for j in range(numerical)]
            + [(f"g{j}", "categorical", "feature") for j in range(categorical)]
            + [("y", "categorical", "label")])
    write_csv(tmp_path / "t.csv", [c[0] for c in cols], np.column_stack([x, g, y]).tolist())
    schema_json(tmp_path / "s.json", cols, "classification")
    return tmp_path / "t.csv", tmp_path / "s.json"


def test_load_dataset_holds_each_column_once(tmp_path):
    # each column grows in one buffer: no per-chunk arrays joined at the end
    # (about 2.1 times the returned bytes), and no remap copy. The columns
    # are those of the scaling-cls benchmark table; what is left over the
    # returned bytes is mostly Dataset's search of the label codes
    paths = _mixed_table(tmp_path, 30_000, numerical=12, categorical=4)
    ds.load_dataset(*paths)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        d = ds.load_dataset(*paths)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = (sum(d.column(c).nbytes for c in d.numerical_features)
            + sum(d.codes(c).nbytes for c in [*d.categorical_features, "y"]) + d.class_codes.nbytes)
    assert peak < 1.3 * held, (peak, held)


@pytest.mark.parametrize("n", [1, ds.CHUNK_ROWS, ds.CHUNK_ROWS + 1])
def test_loader_at_chunk_edges_equals_reference(tmp_path, n):
    got = ds.load_dataset(*_mixed_table(tmp_path, n, seed=n))
    want = load_dataset_reference(*_mixed_table(tmp_path, n, seed=n))
    assert got.n_rows == n and got.coerced_cells == want.coerced_cells
    assert got.class_labels == want.class_labels
    assert np.array_equal(got.class_codes, want.class_codes)
    for name in got.numerical_features:
        assert np.array_equal(got.column(name).view(np.int64), want.column(name).view(np.int64))
    for name in [*got.categorical_features, "y"]:
        assert got.vocabulary(name).tolist() == want.vocabulary(name).tolist()
        assert np.array_equal(got.codes(name), want.codes(name)) and got.codes(name).dtype == np.int32


def test_split_exact_fractions():
    d = make_dataset(num={"a": np.arange(100)}, label=["a", "b"] * 50)
    s = ds.make_split(d, (0.8, 0.1, 0.1), seed=3)
    assert (len(s.train), len(s.validation), len(s.test)) == (80, 10, 10)


def test_split_train_cap_applies():
    d = make_dataset(num={"a": np.arange(200_000)}, label=np.arange(200_000), task="regression")
    s = ds.make_split(d, (0.8, 0.1, 0.1), seed=0)
    assert len(s.train) == 100_000


def test_split_test_downsample_deterministic():
    d = make_dataset(num={"a": np.arange(10_000)}, label=np.arange(10_000), task="regression")
    s1 = ds.make_split(d, (0.0, 0.0, 1.0), seed=9)
    s2 = ds.make_split(d, (0.0, 0.0, 1.0), seed=9)
    assert len(s1.test) == 512
    assert np.array_equal(s1.test, s2.test)


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 200), st.integers(0, 2 ** 31 - 1))
def test_split_determinism_and_disjointness(n, seed):
    d = make_dataset(num={"a": np.arange(n)}, label=np.arange(n), task="regression")
    s1 = ds.make_split(d, (0.6, 0.2, 0.2), seed=seed)
    s2 = ds.make_split(d, (0.6, 0.2, 0.2), seed=seed)
    for part in ("train", "validation", "test"):
        assert np.array_equal(getattr(s1, part), getattr(s2, part))
    all_idx = np.concatenate([s1.train, s1.validation, s1.test])
    assert len(set(all_idx.tolist())) == len(all_idx)


def test_split_errors():
    d = make_dataset(num={"a": [1, 2]}, label=["a", "b"])
    with pytest.raises(ValueError, match="small"):
        ds.make_split(d, (0.8, 0.1, 0.1), seed=0)
    d3 = make_dataset(num={"a": [1, 2, 3]}, label=["a", "b", "a"])
    with pytest.raises(ValueError, match="sum"):
        ds.make_split(d3, (0.8, 0.1, 0.2), seed=0)


def write_split(path, train, validation, test, seed=0):
    path.write_text(json.dumps({"train": train, "validation": validation, "test": test, "seed": seed}),
                    encoding="utf-8")
    return path


def test_external_split_identity_and_errors(tmp_path):
    s = ds.load_split_file(write_split(tmp_path / "s.json", [0, 1], [2], [3]), n_rows=4)
    assert s.train.tolist() == [0, 1] and s.validation.tolist() == [2] and s.test.tolist() == [3]
    with pytest.raises(ValueError, match="overlap"):
        ds.load_split_file(write_split(tmp_path / "s.json", [0, 1], [], [1]), n_rows=4)
    with pytest.raises(ValueError, match="not a row index"):
        ds.load_split_file(write_split(tmp_path / "s.json", [0], [], [9]), n_rows=4)


def test_external_split_test_cap(tmp_path):
    test_idx = list(range(400, 1000))
    path = write_split(tmp_path / "s.json", list(range(400)), [], test_idx, seed=5)
    s1 = ds.load_split_file(path, n_rows=1000)
    s2 = ds.load_split_file(path, n_rows=1000)
    assert len(s1.test) == 512
    assert np.array_equal(s1.test, s2.test)
    assert set(s1.test.tolist()) <= set(test_idx)


def test_split_assignment_sorts_and_dedupes():
    s = ds.SplitAssignment(train=[3, 1, 1, 2], validation=[], test=np.array([7, 5, 5]), seed=0)
    assert s.train.tolist() == [1, 2, 3] and s.test.tolist() == [5, 7]
    assert s.validation.dtype == s.train.dtype == np.int64 and len(s.validation) == 0
    with pytest.raises(ValueError, match="overlap"):
        ds.SplitAssignment(train=[0], validation=[4, 2, 2], test=[2], seed=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=12), st.lists(st.integers(0, 30), max_size=12),
       st.lists(st.integers(0, 30), max_size=12))
def test_split_assignment_equals_set_semantics(train, validation, test):
    sets = [set(train), set(validation), set(test)]
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        with pytest.raises(ValueError, match="overlap"):
            ds.SplitAssignment(train=train, validation=validation, test=test, seed=0)
        return
    s = ds.SplitAssignment(train=train, validation=validation, test=test, seed=0)
    assert [s.train.tolist(), s.validation.tolist(), s.test.tolist()] == [sorted(x) for x in sets]


def test_split_assignment_keeps_ascending_rows():
    train, validation = np.arange(0, 100_000, 2), np.arange(1, 1000, 2)
    s = ds.SplitAssignment(train=train, validation=validation, test=np.asarray([100_003, 100_001]),
                           seed=0)
    assert s.train is train and s.validation is validation and s.test.tolist() == [100_001, 100_003]


def test_split_file_round_trip(tmp_path):
    s = ds.SplitAssignment(train=np.array([0, 1]), validation=np.array([2]),
                           test=np.array([3]), seed=7)
    ds.save_split_file(s, tmp_path / "split.json")
    s2 = ds.load_split_file(tmp_path / "split.json", n_rows=4)
    assert np.array_equal(s.train, s2.train) and np.array_equal(s.test, s2.test)


# an explicit id names the case by its input
@pytest.mark.parametrize("raw, want", [
    pytest.param({"validation": [], "test": [1]}, "missing key train", id="raw0-split file lacks train"),
    pytest.param({"train": 5, "validation": [], "test": [1]}, "train must be a list, not 5",
                 id="raw1-train must be a list of row indices, not 5"),
    pytest.param({"train": ["a", 0], "validation": [], "test": [1]}, "train[0] must be an integer, not 'a'",
                 id="raw2-train[0] is 'a', not a row index"),
    pytest.param({"train": [0.5, 3], "validation": [], "test": [1]}, "train[0] must be an integer, not 0.5",
                 id="raw3-train[0] is 0.5, not a row index"),
    pytest.param({"train": [0, 3], "validation": [2.0], "test": [1]},
                 "validation[0] must be an integer, not 2.0", id="raw4-validation[0] is 2.0, not a row index"),
    pytest.param({"train": [0, 3], "validation": [], "test": [1, True]}, "test[1] must be an integer, not True",
                 id="raw5-test[1] is True, not a row index"),
    ({"train": [0, 10], "validation": [], "test": [1]},
     "train[1] is 10, not a row index (an integer from 0 to 9)"),
    ({"train": [0, 3], "validation": [], "test": [1], "seed": "x"}, "seed must be an integer, not 'x'"),
    ({"train": [0, 3], "validation": [], "test": [1], "seed": 1.5}, "seed must be an integer, not 1.5"),
    ({"train": [0, 3], "validation": [], "test": [3]}, "split sets overlap"),
    ([[0, 3], [], [1]], "the top level must be a JSON object"),
    ({"train": [0, 3], "validation": [], "test": [1], "tset": [2]}, "unknown key tset"),
    ('{"train": [0, 3], "validation": [], "test": [1],}', "Expecting property name enclosed in double quotes"),
])
def test_malformed_split_file_names_the_file(tmp_path, raw, want):
    path = tmp_path / "split.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ds.load_split_file(path, n_rows=10)
    assert str(err.value).startswith(f"{path}: {want}"), err.value
