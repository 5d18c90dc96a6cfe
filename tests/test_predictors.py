import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabctx import dataset as ds
from tabctx import predictors as pr
from tabctx import retrieval as rt
from tabctx import synthgen as sg
from conftest import make_dataset
from oracles import fit_prompt_reference


def simple_dataset(labels, task=ds.TASK_CLASSIFICATION):
    return make_dataset(num={"x": np.arange(float(len(labels)))}, label=labels, task=task)


def ctx_of(indices):
    return rt.RetrievedContext(np.asarray(indices, dtype=np.int64),
                               np.zeros(len(indices)), (rt.TAG_MERGED,) * len(indices))


def test_knn_class_frequencies():
    d = simple_dataset(["A", "A", "B", "B"])
    rec = pr.knn_predict(ctx_of([0, 1, 2]), d, None)
    assert rec.class_probabilities == pytest.approx((2 / 3, 1 / 3))


def test_knn_regression_mean():
    d = simple_dataset([1.0, 2.0, 3.0, 4.0], task=ds.TASK_REGRESSION)
    assert pr.knn_predict(ctx_of([0, 1, 2]), d, 9.0).point_estimate == 2.0


def test_knn_empty_context_fallbacks():
    rec = pr.knn_predict(ctx_of([]), simple_dataset(["a", "b", "c", "d"]), None, row_index=5)
    assert rec.class_probabilities == (0.25, 0.25, 0.25, 0.25)
    assert (rec.row_index, rec.context_size, rec.flag) == (5, 0, None)
    d = simple_dataset([1.0, 2.0, 3.0, 6.0], task=ds.TASK_REGRESSION)
    rec = pr.knn_predict(ctx_of([]), d, 3.0)
    assert (rec.point_estimate, rec.context_size, rec.flag) == (3.0, 0, None)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, max_size=20))
def test_knn_matches_multiset_frequencies(context_labels):
    all_labels = ["u", "v", "w"] + context_labels
    d = simple_dataset(all_labels)
    idx = list(range(3, 3 + len(context_labels)))
    rec = pr.knn_predict(ctx_of(idx), d, None)
    for c, p in zip(d.class_labels, rec.class_probabilities):
        assert p == pytest.approx(context_labels.count(c) / len(context_labels), abs=1e-12)


def test_prediction_record_validation():
    for probs in ((0.6, 0.6), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            pr.PredictionRecord(0, ds.TASK_CLASSIFICATION, "p", 1, class_probabilities=probs)
    with pytest.raises(ValueError):
        pr.PredictionRecord(0, ds.TASK_REGRESSION, "p", 1, point_estimate=float("inf"))


FEATURES = ["size", "color"]


def whole_prompt(tmpl, rows, query, features, label_name):
    """The whole prompt: ``fit_prompt`` with a budget that keeps every row."""
    return pr.fit_prompt(replace(tmpl, token_budget=10**9), rows, query, features, label_name)[0]


def rows_fixture(n):
    return [({"size": float(i), "color": f"c{i % 3}"}, "yes" if i % 2 else "no") for i in range(n)]


def test_prompt_zero_rows_is_query_only():
    tmpl = pr.PromptTemplate(preamble="Guess.")
    text = whole_prompt(tmpl, [], {"size": 1.0, "color": "c1"}, FEATURES, "label")
    assert text == "Guess.\n\n\nsize: 1.0, color: c1, label:"


def test_prompt_anonymization_consistent():
    tmpl = pr.PromptTemplate(anonymize=True)
    text = whole_prompt(tmpl, rows_fixture(2), {"size": 9.0, "color": "c0"}, FEATURES, "target")
    assert "f1: 0.0" in text and "f2: c0" in text and "size" not in text and "target" not in text
    assert text.count("f1:") == 3  # two context rows plus the query


def test_prompt_byte_determinism():
    tmpl = pr.PromptTemplate()
    a = whole_prompt(tmpl, rows_fixture(5), {"size": 2.0, "color": "c2"}, FEATURES, "y")
    b = whole_prompt(tmpl, rows_fixture(5), {"size": 2.0, "color": "c2"}, FEATURES, "y")
    assert a.encode() == b.encode()


def test_prompt_truncates_farthest_rows():
    tmpl = pr.PromptTemplate()
    rows = rows_fixture(128)
    full = whole_prompt(tmpl, rows, {"size": 0.0, "color": "c0"}, FEATURES, "y")
    budget = math.ceil(len(full) / 4.0) // 2
    text, used = pr.fit_prompt(pr.PromptTemplate(token_budget=budget), rows, {"size": 0.0, "color": "c0"},
                               FEATURES, "y")
    assert used < 128
    assert math.ceil(len(text) / 4.0) <= budget
    # nearest rows survive
    assert "size: 0.0" in text and f"size: {float(used - 1)}" in text


LAYOUTS = [pr.PromptTemplate.layout, "{rows}\n---\n{preamble}\n{rows}\n{query}",
           "{preamble} {query}"]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 40), st.integers(1, 700), st.sampled_from(LAYOUTS), st.booleans(),
       st.sampled_from([4.0, 3.5, 1.0]))
def test_fit_prompt_matches_drop_one_reference(n_rows, budget, layout, anonymize, cpt):
    # the layouts insert the rows once, twice and not at all
    tmpl = pr.PromptTemplate(layout=layout, anonymize=anonymize, chars_per_token=cpt, token_budget=budget)
    rows = [({"size": i * 1.25, "color": "c" * (i % 7)}, i % 3) for i in range(n_rows)]
    query = {"size": 0.5, "color": "c1"}
    want = fit_prompt_reference(whole_prompt, tmpl, rows, query, FEATURES, "y", budget)
    if want is None:
        with pytest.raises(pr.PromptOverflowError):
            pr.fit_prompt(tmpl, rows, query, FEATURES, "y")
    else:
        assert pr.fit_prompt(tmpl, rows, query, FEATURES, "y") == want


def test_fit_prompt_renders_once(monkeypatch):
    calls = []
    render = pr._row_lines
    monkeypatch.setattr(pr, "_row_lines", lambda *a: calls.append(1) or render(*a))
    rows = rows_fixture(64)
    full = whole_prompt(pr.PromptTemplate(), rows, {"size": 0.0, "color": "c0"}, FEATURES, "y")
    for budget in (math.ceil(len(full) / 4.0) // 3, math.ceil(len(full) / 4.0)):
        calls.clear()
        tmpl = pr.PromptTemplate(token_budget=budget)
        pr.fit_prompt(tmpl, rows, {"size": 0.0, "color": "c0"}, FEATURES, "y")
        assert len(calls) == 1


@pytest.mark.parametrize("layout", ["{rows!r} {query}", "{rows:>40} {query}", "{rows[0]} {query}"])
def test_layout_rows_field_must_be_plain(layout):
    with pytest.raises(ValueError, match="plain"):
        pr.PromptTemplate(layout=layout)


@pytest.mark.parametrize("layout, field", [("{preamble}\n\n{rows}\n{query}{answer_slot}", "answer_slot"),
                                           ("{rows} {query} {}", ""), ("{rows} {label.x}", "label.x"),
                                           ("{rows_} {query}", "rows_")])
def test_layout_names_only_preamble_rows_and_query(layout, field):
    # answer text goes after {query} as plain text, as in test_template_file_placeholders
    with pytest.raises(ValueError, match=re.escape(f"prompt layout field {{{field}}} is unknown")):
        pr.PromptTemplate(layout=layout)


def test_prompt_renders_numpy_scalars_as_plain_numbers():
    d = sg.generate_toy(sg.ToySpec("circle", 0.1, 8, 0))
    query = d.feature_row(0)
    text = whole_prompt(pr.PromptTemplate(), [(d.feature_row(1), np.float64(2.5))],
                        query, ["x1", "x2"], "y")
    assert "np." not in text
    assert f"x1: {float(query['x1'])!r}" in text and "y: 2.5\n" in text


def test_prompt_query_alone_over_budget():
    tmpl = pr.PromptTemplate(token_budget=2)
    with pytest.raises(ValueError, match="budget"):
        pr.fit_prompt(tmpl, [], {"size": 1.0, "color": "c1"}, FEATURES, "y")


def test_template_file_placeholders(tmp_path):
    f = tmp_path / "tmpl.txt"
    f.write_text("PREFIX {preamble} | {rows} | {query}<ans> SUFFIX", encoding="utf-8")
    tmpl = pr.PromptTemplate.from_file(f, preamble="p!")
    text = whole_prompt(tmpl, rows_fixture(1), {"size": 1.0, "color": "c0"}, FEATURES, "y")
    assert text.startswith("PREFIX p! | ") and text.endswith("label:<ans> SUFFIX".replace("label", "y"))


def test_parse_class_and_number():
    assert pr.parse_class("yes", ("yes", "no")) == "yes"
    assert pr.parse_class(" YES. ", ("yes", "no")) == "yes"
    assert pr.parse_class("unsure", ("yes", "no")) is None
    assert pr.parse_number("The value is 42.5") == 42.5
    assert pr.parse_number("-17") == -17 and isinstance(pr.parse_number("-17"), int)
    assert pr.parse_number("1.2e-3") == 1.2e-3
    assert pr.parse_number("nothing here") is None


def write_pred_csv(path, header, rows):
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_ingest_classification(tmp_path):
    d = make_dataset(num={"x": [1, 2, 3, 4]}, label=["a", "b", "a", "b"])
    f = tmp_path / "p.csv"
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[3, 0.7, 0.3]])
    recs = pr.ingest_predictions(f, d)
    assert recs[0].row_index == 3 and recs[0].class_probabilities == (0.7, 0.3)


def test_ingest_renormalizes_within_tolerance(tmp_path):
    d = make_dataset(num={"x": [1, 2]}, label=["a", "b"])
    f = tmp_path / "p.csv"
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[0, 0.5, 0.49]])
    recs = pr.ingest_predictions(f, d)
    assert sum(recs[0].class_probabilities) == pytest.approx(1.0, abs=1e-12)
    assert recs[0].class_probabilities[0] == pytest.approx(0.5 / 0.99)


def test_ingest_rejects_bad_sums_and_indices(tmp_path):
    d = make_dataset(num={"x": [1, 2]}, label=["a", "b"])
    f = tmp_path / "bad.csv"
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[0, 0.2, 0.2]])
    with pytest.raises(ValueError, match="sum"):
        pr.ingest_predictions(f, d)
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[9, 0.5, 0.5]])
    with pytest.raises(ValueError, match="range"):
        pr.ingest_predictions(f, d)
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[1, 0.5, 0.5]])
    with pytest.raises(ValueError, match="test row"):
        pr.ingest_predictions(f, d, valid_rows=[0])
    write_pred_csv(f, ["row_index", "p_a", "p_b"], [[1, 0.5, 0.5], [0, 0.5, 0.5], [1, 0.4, 0.6]])
    with pytest.raises(ValueError, match="duplicate row index 1") as err:
        pr.ingest_predictions(f, d)
    assert str(f) in str(err.value)


def test_ingest_rejects_file_missing_test_rows(tmp_path):
    d = make_dataset(num={"x": [1, 2, 3, 4]}, label=[1.0, 2.0, 3.0, 4.0], task="regression")
    f = tmp_path / "partial.csv"
    write_pred_csv(f, ["row_index", "estimate"], [[3, 1.5], [1, 2.5]])
    with pytest.raises(ValueError, match=r"no prediction for test row 2 \(1 of 3") as err:
        pr.ingest_predictions(f, d, valid_rows=[1, 2, 3])
    assert str(f) in str(err.value)
    assert len(pr.ingest_predictions(f, d, valid_rows=[1, 3])) == 2


def test_ingest_regression(tmp_path):
    d = make_dataset(num={"x": [1, 2]}, label=[1.0, 2.0], task="regression")
    f = tmp_path / "r.csv"
    write_pred_csv(f, ["row_index", "estimate"], [[1, 3.25]])
    assert pr.ingest_predictions(f, d)[0].point_estimate == 3.25


@pytest.mark.parametrize("row, problem", [
    (["x", "0.5"], "invalid literal for int"),
    (["1", "inf"], "finite estimate"),
    (["1"], "1 fields where the header has 2"),
], ids=["row-index-x", "estimate-inf", "short-row"])
def test_ingest_error_names_file_and_line(tmp_path, row, problem):
    d = make_dataset(num={"x": [1, 2, 3]}, label=[1.0, 2.0, 3.0], task="regression")
    f = tmp_path / "r.csv"
    write_pred_csv(f, ["row_index", "estimate"], [[0, 1.5], row])
    with pytest.raises(ValueError, match=problem) as err:
        pr.ingest_predictions(f, d)
    assert str(err.value).startswith(f"{f}: line 3: ")


@pytest.mark.parametrize("reply", ["1e999", "9" * 400], ids=["inf", "400-digits"])
def test_non_finite_number_reply_is_parse_failure(monkeypatch, reply):
    from llm_stub import stub_server
    monkeypatch.setattr(pr, "RETRY_BACKOFF", 0.01)
    with stub_server() as (state, url):
        state.default = (200, f"about {reply}")
        client = pr.LlmClient(pr.EndpointConfig(base_url=url, timeout=5.0))
        rec = client.predict("p", ds.TASK_REGRESSION, (), 2.5, 4, 8)
    assert rec.flag == pr.FLAG_PARSE_FAILURE and rec.point_estimate == 2.5
    assert pr.parse_number(reply) is None


def test_import_loads_neither_requests_nor_http_modules():
    """The package runs without ``requests``, and an import that makes no
    endpoint request loads no HTTP or TLS module."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; sys.modules['requests'] = None; import tabctx.cli; "
            "print(sorted(m for m in ('http.client', 'ssl', 'urllib.request') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def rec_cls(idx, probs, pid="m"):
    return pr.PredictionRecord(idx, ds.TASK_CLASSIFICATION, pid, 4, class_probabilities=probs)


def rec_reg(idx, est, pid="m"):
    return pr.PredictionRecord(idx, ds.TASK_REGRESSION, pid, 4, point_estimate=est)


def test_ensemble_mean_and_idempotence():
    a = [rec_cls(0, (1.0, 0.0), "a")]
    b = [rec_cls(0, (0.0, 1.0), "b")]
    out = pr.ensemble([a, b])
    assert out[0].class_probabilities == (0.5, 0.5)
    same = pr.ensemble([a, a])
    assert same[0].class_probabilities == (1.0, 0.0)


def test_ensemble_regression_mean():
    members = [[rec_reg(0, 10.0)], [rec_reg(0, 20.0)], [rec_reg(0, 30.0)]]
    assert pr.ensemble(members)[0].point_estimate == 20.0


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(4))))
def test_ensemble_commutativity(perm):
    members = [[rec_cls(0, (0.1, 0.9)), rec_cls(1, (0.5, 0.5))],
               [rec_cls(0, (0.3, 0.7)), rec_cls(1, (0.2, 0.8))],
               [rec_cls(0, (0.25, 0.75)), rec_cls(1, (0.9, 0.1))],
               [rec_cls(0, (1.0, 0.0)), rec_cls(1, (0.4, 0.6))]]
    base = pr.ensemble(members)
    shuffled = pr.ensemble([members[i] for i in perm])
    for r1, r2 in zip(base, shuffled):
        assert r1.class_probabilities == r2.class_probabilities


def test_ensemble_coverage_mismatch():
    with pytest.raises(ValueError, match="cover"):
        pr.ensemble([[rec_cls(0, (1.0, 0.0))], [rec_cls(1, (1.0, 0.0))]])
