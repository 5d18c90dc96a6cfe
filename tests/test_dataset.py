import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from conftest import make_dataset
from oracles import load_dataset_reference, parse_cell


def write_csv(path, header, rows):
    import csv
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
        with pytest.raises(ValueError, match="schema lacks") as err:
            ds.load_dataset(table, schema)
        msg = str(err.value)
        assert str(schema) in msg and all(k in msg for k in keys), msg
        assert "columns[0]" not in msg


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
    assert d.class_codes().tolist() == [0, 1, 0, 2]
    many = make_dataset(num={"a": range(400)}, label=[f"c{i % 200}" for i in range(400)])
    assert many.class_codes().tolist() == [i % 200 for i in range(400)]
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(cell_text.filter(lambda c: "\r" not in c and "\x00" not in c),
                          category, st.sampled_from(["", "p", "q", "r,s"])),
                min_size=1, max_size=14),
       st.integers(1, 5))
def test_chunked_loader_equals_reference(tmp_path_factory, rows, chunk_rows):
    tmp = tmp_path_factory.mktemp("chunks")
    table, schema = _write_cls(tmp, rows)
    with mock.patch.object(ds, "CHUNK_ROWS", chunk_rows):
        got = ds.load_dataset(table, schema)
    want = load_dataset_reference(table, schema)
    assert got.class_labels == want.class_labels
    assert np.array_equal(got.column("f1").view(np.int64), want.column("f1").view(np.int64))
    for name in ("g", "y"):
        assert got.column(name).tolist() == want.column(name).tolist()
        assert got.vocabulary(name).tolist() == want.vocabulary(name).tolist()
        assert np.array_equal(got.codes(name), want.codes(name)) and got.codes(name).dtype == np.int32
        assert got.vocabulary(name)[got.codes(name)].tolist() == got.column(name).tolist()
        assert [got.feature_row(i).get(name, got.labels()[i]) for i in range(got.n_rows)] \
            == want.column(name).tolist()
    assert np.array_equal(got.class_codes(), want.class_codes())


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


def test_external_split_identity_and_errors():
    s = ds.load_external_split([0, 1], [2], [3], seed=0, n_rows=4)
    assert s.train.tolist() == [0, 1] and s.validation.tolist() == [2] and s.test.tolist() == [3]
    with pytest.raises(ValueError, match="overlap"):
        ds.load_external_split([0, 1], [], [1], seed=0, n_rows=4)
    with pytest.raises(ValueError, match="range"):
        ds.load_external_split([0], [], [9], seed=0, n_rows=4)


def test_external_split_test_cap():
    test_idx = list(range(400, 1000))
    s1 = ds.load_external_split(range(400), [], test_idx, seed=5, n_rows=1000)
    s2 = ds.load_external_split(range(400), [], test_idx, seed=5, n_rows=1000)
    assert len(s1.test) == 512
    assert np.array_equal(s1.test, s2.test)
    assert set(s1.test.tolist()) <= set(test_idx)


def test_split_file_round_trip(tmp_path):
    s = ds.SplitAssignment(train=np.array([0, 1]), validation=np.array([2]),
                           test=np.array([3]), seed=7)
    ds.save_split_file(s, tmp_path / "split.json")
    s2 = ds.load_split_file(tmp_path / "split.json", n_rows=4)
    assert np.array_equal(s.train, s2.train) and np.array_equal(s.test, s2.test)
