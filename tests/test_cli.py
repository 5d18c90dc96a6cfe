import csv
import importlib
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabctx import cli
from tabctx import dataset as ds
from tabctx import normalize as nz
from tabctx import retrieval as rt
from tabctx import synthgen as sg
from tabctx.importance import IMPORTANCE_MODES
from tabctx.predictors import EndpointConfig
from tabctx.util import dump_json, finite_mean, load_json
from conftest import make_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write_toy_files(tmp_path, name="toy", shape="circle", noise=0.15, n=80, seed=0):
    d = sg.generate_toy(sg.ToySpec(shape, noise, n, seed))
    ds.save_table(d, tmp_path / f"{name}.csv")
    ds.save_schema(d.schema, d.task, tmp_path / f"{name}.schema.json")
    return d


def base_config(tmp_path, **over):
    cfg = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "datasets": [{"id": "toy", "table": str(tmp_path / "toy.csv"),
                      "schema": str(tmp_path / "toy.schema.json"),
                      "split": {"ratios": [0.8, 0.1, 0.1], "seed": 3}}],
        "retrieval": {"importance_mode": "uniform"},
        "context_sizes": [4],
        "predictors": [{"id": "knn", "type": "knn"}],
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    dump_json(tmp_path / name, cfg)
    return tmp_path / name


def load_problems(path):
    """The problems ``RunConfig.from_file`` rejects the config file with."""
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_file(path)
    return err.value.problems


def test_validate_config_catches_problems(tmp_path, capsys):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path)
    cfg["datasets"][0]["schema"] = str(tmp_path / "missing.json")
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate-config", str(path)]) == 1
    zero = write_config(tmp_path, base_config(tmp_path, context_sizes=[4, 0]), "zero.json")
    assert cli.main(["validate-config", str(zero)]) == 1
    one_fold = write_config(tmp_path, base_config(tmp_path, retrieval={"pps_folds": 1}), "one_fold.json")
    assert cli.main(["validate-config", str(one_fold)]) == 1
    assert load_problems(one_fold) == [f"{one_fold}: unknown key retrieval.pps_folds"]
    twice = write_config(tmp_path, base_config(tmp_path, context_sizes=[4, 8, 4]), "twice.json")
    assert cli.main(["validate-config", str(twice)]) == 1
    assert cli.validate_config(cli.RunConfig.from_file(twice)) == ["context_sizes repeats 4"]
    # an empty training subset would leave the random policy nothing to sample
    empty = write_config(tmp_path, base_config(tmp_path, train_sizes=[0, 8]), "empty.json")
    assert cli.validate_config(cli.RunConfig.from_file(empty)) == [
        "train_sizes must be a non-empty list of integers, each at least 1"]
    # sizes that are not a list of integers are problems too, not a TypeError
    for key, sizes, want in (("context_sizes", 4, "context_sizes must be a list, not 4"),
                             ("context_sizes", [4, "8"], "context_sizes[1] must be an integer, not '8'"),
                             ("train_sizes", "10", "train_sizes must be a list, not '10'")):
        odd = write_config(tmp_path, base_config(tmp_path, **{key: sizes}), "odd.json")
        assert cli.main(["validate-config", str(odd)]) == 1
        assert load_problems(odd) == [f"{odd}: {want}"]
    duel = write_config(tmp_path, base_config(tmp_path, policies=[
        {"id": "rag", "importance_mode": "duel"}]), "duel.json")
    assert cli.main(["validate-config", str(duel)]) == 1
    assert cli.validate_config(cli.RunConfig.from_file(duel)) == [
        "policy 'rag': unknown importance mode 'duel'"]
    typo = write_config(tmp_path, base_config(tmp_path, policies=[
        {"id": "near", "type": "rag", "quotaa": 5}, {"id": "random", "type": "random"}]), "typo.json")
    assert cli.main(["validate-config", str(typo)]) == 1
    assert load_problems(typo) == [f"{typo}: unknown key policies[0].quotaa"]
    # each of these validated once and then failed or misled at run time
    (tmp_path / "odd_layout.txt").write_text("{preamble}\n{rows}\n{query}{answer}", encoding="utf-8")
    llm = [{"id": "llm", "type": "llm", "base_url": "http://127.0.0.1:9/v1/chat/completions"}]
    ratios = "dataset 'toy': split ratios must be three numbers, each at least 0, that sum to 1"
    capsys.readouterr()
    for entry, over, want in (
            ({"split": {"ratios": [1.2, -0.1, -0.1]}}, {}, ratios),
            ({"split": {"ratios": [0.5, 0.5]}}, {}, ratios),
            ({"train_cap": 0}, {}, "dataset 'toy': train_cap must be an integer of at least 1"),
            ({"test_cap": -5}, {}, "dataset 'toy': test_cap must be an integer of at least 1"),
            ({}, {"prompt": {"file": str(tmp_path / "no_layout.txt")}}, "no_layout.txt"),
            ({}, {"prompt": {"file": str(tmp_path / "odd_layout.txt")}}, "{answer} is unknown"),
            ({}, {"prompt": {"chars_per_token": 0}, "predictors": llm},
             "prompt: chars_per_token must be a number above 0, not 0"),
            ({}, {"prompt": {"chars_per_token": "4"}}, "prompt.chars_per_token must be a number, not '4'"),
            ({}, {"prompt": {"token_budget": "big"}, "predictors": llm},
             "prompt.token_budget must be an integer, not 'big'"),
            ({}, {"policies": [{"id": "random", "type": "random", "importance_mode": "bogus"}]},
             "unknown key policies[0].importance_mode"),
            ({}, {"retrieval": {"seed": 0}}, "unknown key retrieval.seed"),
            ({}, {"policies": [{"id": "rag", "seed": 3}]}, "unknown key policies[0].seed"),
            ({}, {"policies": [{"id": "rag", "pps_folds": 4}]}, "unknown key policies[0].pps_folds")):
        odd = base_config(tmp_path, **over)
        odd["datasets"][0].update(entry)
        path3 = write_config(tmp_path, odd, "odd.json")
        assert cli.main(["validate-config", str(path3)]) == 1
        if want.startswith(("prompt.", "unknown key")):  # a key or a JSON type: rejected at load
            [problem] = load_problems(path3)
            assert problem == f"{path3}: {want}"
        else:
            [problem] = cli.validate_config(cli.RunConfig.from_file(path3))
            assert want in problem, (entry, over, problem)
        assert capsys.readouterr().err == f"error: {problem}\n"
    ok = base_config(tmp_path)
    path2 = write_config(tmp_path, ok, "ok.json")
    assert cli.main(["validate-config", str(path2)]) == 0


def test_run_produces_outputs_and_is_reproducible(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "-o", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", str(path), "-o", str(tmp_path / "r2")]) == 0
    for fname in ("predictions.csv", "metrics.json", "manifest.json", "metrics.csv"):
        assert (tmp_path / "r1" / fname).is_file()
    p1 = (tmp_path / "r1" / "predictions.csv").read_bytes()
    p2 = (tmp_path / "r2" / "predictions.csv").read_bytes()
    assert p1 == p2
    m1 = (tmp_path / "r1" / "metrics.json").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.json").read_bytes()
    assert m1 == m2


def test_run_validates_before_computing(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path)
    cfg["datasets"][0]["schema"] = str(tmp_path / "nope.json")
    with pytest.raises(ValueError, match="does not exist"):
        cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert not (tmp_path / "out").exists()


def test_context_size_sweep_one_report_per_size(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, context_sizes=[2, 4, 8])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    reports = load_json(out / "metrics.json")["metrics"]
    sizes = sorted(r["context_size"] for r in reports)
    assert sizes == [2, 4, 8]


def add_bad_dataset(tmp_path, cfg):
    """A second dataset whose schema does not match its table, so it fails at load."""
    bad_schema = [ds.ColumnSchema("nope", "numerical", "feature"),
                  ds.ColumnSchema("label", "categorical", "label")]
    ds.save_schema(bad_schema, "classification", tmp_path / "bad.schema.json")
    (tmp_path / "bad.csv").write_text("a,label\n1,x\n", encoding="utf-8")
    cfg["datasets"].append({"id": "bad", "table": str(tmp_path / "bad.csv"),
                            "schema": str(tmp_path / "bad.schema.json")})
    return cfg


def test_crash_isolation_keeps_good_dataset(tmp_path):
    write_toy_files(tmp_path)
    cfg = add_bad_dataset(tmp_path, base_config(tmp_path))
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    manifest = load_json(out / "manifest.json")
    assert manifest["datasets"]["toy"]["status"] == "ok"
    assert manifest["datasets"]["bad"]["status"] == "error"
    reports = load_json(out / "metrics.json")["metrics"]
    assert {r["dataset"] for r in reports} == {"toy"}


def test_external_predictor_and_ensemble(tmp_path):
    d = write_toy_files(tmp_path)
    split = ds.make_split(d, (0.8, 0.1, 0.1), seed=3)
    with open(tmp_path / "ext.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_index", "p_0", "p_1"])
        for r in split.test:
            w.writerow([int(r), 1.0, 0.0])
    cfg = base_config(tmp_path, predictors=[
        {"id": "knn", "type": "knn"},
        {"id": "ext", "type": "external", "path": str(tmp_path / "ext.csv")},
        {"id": "both", "type": "ensemble", "members": ["knn", "ext"]},
    ])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    reports = load_json(out / "metrics.json")["metrics"]
    assert {r["predictor"] for r in reports} == {"knn", "ext", "both"}


def test_traces_and_weights_outputs(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, write_traces=True, retrieval={"importance_mode": "dual"})
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    traces = [json.loads(l) for l in (out / "traces.jsonl").read_text().splitlines()]
    assert traces and {"query", "selected", "distances", "provenance"} <= set(traces[0])
    weights = load_json(out / "weights.json")
    entry = next(iter(weights["toy"].values()))
    assert set(entry["pearson"]) == {"x1", "x2"}


def test_ablate_variant_manifests(tmp_path):
    write_toy_files(tmp_path, n=60)
    cfg = base_config(tmp_path, retrieval={})
    out = cli.ablate(cli.RunConfig.from_file(write_config(tmp_path, cfg)), tmp_path / "abl")
    for name, expected_mode in (("NoFeatImp", "uniform"), ("NoCorr", "pps_only"), ("NoPPS", "pearson_only")):
        manifest = load_json(out / name / "manifest.json")
        assert manifest["config"]["retrieval"]["importance_mode"] == expected_mode
    nonorm = load_json(out / "NoNorm" / "manifest.json")
    assert nonorm["config"]["retrieval"]["numeric_norm"] == "none"
    assert nonorm["config"]["retrieval"]["distance_minmax_rescale"] is False
    # identical split seed -> identical test rows in every variant
    rows = {}
    for name in cli.ABLATION_VARIANTS:
        with open(out / name / "predictions.csv") as fh:
            rows[name] = sorted({r["row_index"] for r in csv.DictReader(fh)})
    assert len({tuple(v) for v in rows.values()}) == 1
    assert (out / "ablation.json").is_file()


def test_compare_identical_runs_all_ties(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    cli.main(["run", str(path), "-o", str(tmp_path / "A")])
    cli.main(["run", str(path), "-o", str(tmp_path / "B")])
    res = cli.compare([tmp_path / "A", tmp_path / "B"],
                      target="A:knn:rag:64:4", baseline="B:knn:rag:64:4")
    assert all(g["gap"] == 0 for g in res["gaps"])
    assert res["fraction_outperformed"] == 0.0


def test_compare_strict_winner_and_mixed(tmp_path):
    def metrics_file(path, scores):
        dump_json(path, {"metrics": [
            {"dataset": f"d{i}", "predictor": "m", "metric": "auroc", "value": v,
             "n_test": 10, "flag": None} for i, v in enumerate(scores)]})
    metrics_file(tmp_path / "good.json", [0.9, 0.8, 0.7])
    metrics_file(tmp_path / "bad.json", [0.5, 0.5, 0.5])
    res = cli.compare([tmp_path / "good.json", tmp_path / "bad.json"],
                      target="good:m:::", baseline="bad:m:::")
    assert res["fraction_outperformed"] == 1.0
    metrics_file(tmp_path / "mixed.json", [0.6, 0.5, 0.4])
    res = cli.compare([tmp_path / "mixed.json", tmp_path / "bad.json"],
                      target="mixed:m:::", baseline="bad:m:::")
    assert res["fraction_outperformed"] == pytest.approx(1 / 3)
    gaps = [g["gap"] for g in res["gaps"]]
    assert gaps == sorted(gaps, reverse=True)


def test_compare_disjoint_datasets_error(tmp_path):
    dump_json(tmp_path / "a.json", {"metrics": [{"dataset": "d1", "predictor": "m",
                                                 "metric": "auroc", "value": 0.5, "n_test": 4, "flag": None}]})
    dump_json(tmp_path / "b.json", {"metrics": [{"dataset": "d2", "predictor": "m",
                                                 "metric": "auroc", "value": 0.5, "n_test": 4, "flag": None}]})
    with pytest.raises(ValueError, match="share no datasets"):
        cli.compare([tmp_path / "a.json", tmp_path / "b.json"],
                    target="a:m:::", baseline="b:m:::")


def test_scaling_writes_fits(tmp_path):
    write_toy_files(tmp_path, n=400, noise=0.2)
    cfg = base_config(tmp_path)
    out = cli.scaling(cli.RunConfig.from_file(write_config(tmp_path, cfg)),
                      [32, 64, 128], tmp_path / "scal")
    fits = load_json(out / "fits.json")
    assert any(k.startswith("rag/") for k in fits)
    assert any(k.startswith("random/") for k in fits)


def test_fit_run_dir_groups_and_verb_agree(tmp_path, capsys):
    def report(policy, size, value):
        return {"dataset": "a", "predictor": "knn", "metric": "nmae", "value": value, "n_test": 5,
                "flag": None, "policy": policy, "train_size": size, "context_size": 4}
    rows = [report("rag", 100, 0.5), report("rag", 1000, 0.3), report("rag", 10000, 0.18),
            report("random", 100, 0.4), report("random", 1000, 0.0)]
    dump_json(tmp_path / "metrics.json", {"metrics": rows})
    fits = cli.fit_run_dir(tmp_path)
    assert fits["rag/knn/c4"]["alpha"] > 0
    assert fits["random/knn/c4"] == {"error": "fewer than 2 positive-error points",
                                     "points": [(100, 0.4), (1000, 0.0)]}
    assert cli.main(["fit-powerlaw", "--run-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(fits))


def test_boundary_verb_writes_grid(tmp_path):
    rc = cli.main(["boundary", "--shape", "circle", "--noise", "0.1", "--n-train", "16",
                   "--resolution", "5", "--quota", "3", "--importance-mode", "uniform",
                   "-o", str(tmp_path / "bnd")])
    assert rc == 0
    assert (tmp_path / "bnd" / "grid.csv").is_file()
    assert (tmp_path / "bnd" / "grid.json").is_file()


def test_fit_powerlaw_verb(tmp_path, capsys):
    pts = [[100, 0.5], [1000, 0.3], [10000, 0.18]]
    dump_json(tmp_path / "pts.json", pts)
    rc = cli.main(["fit-powerlaw", "--points", str(tmp_path / "pts.json"),
                   "--out", str(tmp_path / "fit.json")])
    assert rc == 0
    fit = load_json(tmp_path / "fit.json")
    assert fit["alpha"] > 0 and fit["d_c"] is not None


def test_prompt_overflow_flags_rows_not_dataset(tmp_path):
    from llm_stub import stub_server
    from tabctx.predictors import PromptTemplate, fit_prompt
    d = write_toy_files(tmp_path, n=40)
    split = ds.make_split(d, (0.8, 0.1, 0.1), 3)
    bare = {int(i): math.ceil(len(fit_prompt(PromptTemplate(token_budget=10**9), [], d.feature_row(int(i)),
                                             ["x1", "x2"], "label")[0]) / 4.0)
            for i in split.test}
    budget = min(bare.values())  # only the shortest query rows fit, with no context
    over = {i for i, t in bare.items() if t > budget}
    assert over and len(over) < len(bare)
    with stub_server() as (state, url):
        state.default = (200, "1")
        cfg = base_config(tmp_path, prompt={"token_budget": budget}, predictors=[
            {"id": "llm", "type": "llm", "base_url": url, "model": "stub", "max_retries": 0}])
        out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert load_json(out / "manifest.json")["datasets"]["toy"]["status"] == "ok"
    with open(out / "predictions.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["row_index"]) for r in rows] == [int(i) for i in split.test]
    for r in rows:
        if int(r["row_index"]) in over:
            assert (r["flag"], r["context_used"], r["probs"]) == ("prompt_overflow", "0", "0.5|0.5")
        else:
            assert (r["flag"], r["probs"]) == ("", "0.0|1.0")
    assert len(state.requests) == len(bare) - len(over)


def test_llm_regression_run_writes_replies_and_label_mean_fallbacks(tmp_path):
    from llm_stub import stub_server
    from tabctx.predictors import PromptTemplate, fit_prompt
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=60)
    y = 3.0 * x + rng.normal(scale=0.1, size=60)
    note = np.where(np.arange(60) % 4 == 0, "n" * 200, "s")  # a long note overflows any budget
    d = make_dataset(num={"x": x}, cat={"note": note}, label=y, task=ds.TASK_REGRESSION)
    ds.save_table(d, tmp_path / "toy.csv")
    ds.save_schema(d.schema, d.task, tmp_path / "toy.schema.json")
    (tmp_path / "layout.txt").write_text("{preamble}\n--\n{rows}\n--\n{query}", encoding="utf-8")
    tmpl = PromptTemplate.from_file(tmp_path / "layout.txt", chars_per_token=1.0)
    split = ds.make_split(d, (0.6, 0.0, 0.4), 3)
    unbounded = replace(tmpl, token_budget=10**9)  # keeps every row
    bare = {int(i): len(fit_prompt(unbounded, [], d.feature_row(int(i)), ["x", "note"], "target")[0])
            for i in split.test}
    over = {i for i in bare if note[i] != "s"}
    budget = max(bare[i] for i in bare if i not in over) + 100  # room for two or more short rows
    assert over and len(over) < len(bare) and budget < min(bare[i] for i in over)
    with stub_server() as (state, url):
        state.default = (200, "42")
        state.script = [(200, "no idea")]
        cfg = base_config(tmp_path, retrieval={"importance_mode": "uniform", "match_constraints": ["note"]},
                          context_sizes=[8], write_traces=True,
                          prompt={"file": str(tmp_path / "layout.txt"), "chars_per_token": 1.0,
                                  "token_budget": budget},
                          predictors=[{"id": "llm", "type": "llm", "base_url": url, "max_retries": 0}])
        cfg["datasets"][0]["split"] = {"ratios": [0.6, 0.0, 0.4], "seed": 3}
        out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert load_json(out / "manifest.json")["datasets"]["toy"]["status"] == "ok"
    assert all(r["body"]["messages"][0]["content"].count("\n--\n") == 2 for r in state.requests)
    with open(out / "predictions.csv", encoding="utf-8") as fh:
        rows = {int(r["row_index"]): r for r in csv.DictReader(fh)}
    with open(out / "traces.jsonl", encoding="utf-8") as fh:
        selected = {t["query"]: t["selected"] for t in map(json.loads, fh)}
    assert sorted(rows) == sorted(bare)
    assert [r["flag"] for r in rows.values()].count("parse_failure") == 1
    for i, r in rows.items():
        used = int(r["context_used"])
        if i in over:
            assert (r["flag"], used) == ("prompt_overflow", 0)
            assert r["estimate"] == repr(finite_mean(y[split.train]))
            continue
        assert 0 < used < 8
        if r["flag"] == "parse_failure":
            assert r["estimate"] == repr(finite_mean(y[selected[i][:used]]))
        else:
            assert (r["flag"], r["estimate"]) == ("", "42")


def test_manifest_counts_flags_per_predictor(tmp_path):
    from tabctx.predictors import PromptTemplate, fit_prompt
    d = write_toy_files(tmp_path, n=40)
    split = ds.make_split(d, (0.8, 0.1, 0.1), 3)
    bare = [math.ceil(len(fit_prompt(PromptTemplate(token_budget=10**9), [], d.feature_row(int(i)),
                                     ["x1", "x2"], "label")[0]) / 4.0) for i in split.test]
    budget = min(bare)  # the longer query rows overflow; the others reach no endpoint
    over = sum(t > budget for t in bare)
    assert 0 < over < len(bare)
    cfg = base_config(tmp_path, prompt={"token_budget": budget}, predictors=[
        {"id": "knn", "type": "knn"},
        {"id": "llm", "type": "llm", "base_url": "http://127.0.0.1:9", "model": "stub",
         "max_retries": 0, "timeout": 5}])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    info = load_json(out / "manifest.json")["datasets"]["toy"]
    assert info["status"] == "ok"
    assert info["flags"] == {"llm": {"prompt_overflow": over, "transport_error": len(bare) - over}}


def test_run_with_llm_predictor_against_stub(tmp_path):
    from llm_stub import stub_server
    write_toy_files(tmp_path, n=40)
    with stub_server() as (state, url):
        state.default = (200, "1")
        cfg = base_config(tmp_path, predictors=[
            {"id": "knn", "type": "knn"},
            {"id": "llm", "type": "llm", "base_url": url, "model": "stub",
             "concurrency": 2, "max_retries": 1},
        ])
        out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    reports = load_json(out / "metrics.json")["metrics"]
    llm_rows = [r for r in reports if r["predictor"] == "llm"]
    assert llm_rows and llm_rows[0]["metric"] == "auroc"
    with open(out / "predictions.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["predictor"] == "llm"]
    assert rows and all(r["probs"] in ("0.0|1.0",) for r in rows)
    assert state.requests and state.requests[0]["body"]["temperature"] == 0


def test_retrieval_quota_sets_context_size_when_sizes_absent(tmp_path, caplog):
    write_toy_files(tmp_path)

    def sizes_of(cfg, name):
        out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg, f"{name}.json")), tmp_path / name)
        assert load_json(out / "manifest.json")["datasets"]["toy"]["status"] == "ok"
        return ({r["context_size"] for r in load_json(out / "metrics.json")["metrics"]},
                load_json(out / "manifest.json")["config"]["context_sizes"])

    only_quota = base_config(tmp_path, retrieval={"importance_mode": "uniform", "quota": 3})
    del only_quota["context_sizes"]
    assert sizes_of(only_quota, "quota") == ({3}, [3])
    neither = base_config(tmp_path)
    del neither["context_sizes"]
    assert sizes_of(neither, "default") == ({128}, [128])
    with caplog.at_level(logging.WARNING, logger="tabctx.cli"):
        both = base_config(tmp_path, retrieval={"importance_mode": "uniform", "quota": 3})
        assert sizes_of(both, "both") == ({4}, [4])
    assert "retrieval.quota 3 is ignored" in caplog.text
    # the config sets the context sizes; the run verbs take no --quota
    for verb in (["run"], ["ablate"], ["scaling", "--sizes", "8"]):
        with pytest.raises(SystemExit):
            cli.main([*verb, str(tmp_path / "both.json"), "--quota", "3"])


def test_partial_external_predictions_file_is_rejected(tmp_path):
    d = write_toy_files(tmp_path)
    test_rows = [int(r) for r in ds.make_split(d, (0.8, 0.1, 0.1), seed=3).test]
    with open(tmp_path / "ext.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_index", "p_0", "p_1"])
        w.writerows([r, 1.0, 0.0] for r in test_rows[1:])
    cfg = base_config(tmp_path, predictors=[
        {"id": "knn", "type": "knn"},
        {"id": "ext", "type": "external", "path": str(tmp_path / "ext.csv")},
        {"id": "both", "type": "ensemble", "members": ["knn", "ext"]},
    ])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    status = load_json(out / "manifest.json")["datasets"]["toy"]
    assert status["status"] == "error"
    assert str(tmp_path / "ext.csv") in status["error"]
    assert f"no prediction for test row {test_rows[0]}" in status["error"]


def count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name``, the name the calling module binds."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_ablate_loads_once_and_fits_weights_once_per_subset(tmp_path, monkeypatch):
    write_toy_files(tmp_path, noise=0.2, n=80, seed=4)
    loads = count_calls(monkeypatch, cli.ds, "load_dataset")
    pps = count_calls(monkeypatch, rt, "pps_importance")
    pearson = count_calls(monkeypatch, rt, "pearson_importance")
    cfg = base_config(tmp_path, seed=11, retrieval={}, context_sizes=[4, 8])
    cli.ablate(cli.RunConfig.from_file(write_config(tmp_path, cfg)), tmp_path / "abl")
    assert (len(loads), len(pps), len(pearson)) == (1, 1, 1)

    for calls in (loads, pps, pearson):
        calls.clear()
    cfg = base_config(tmp_path, seed=11, retrieval={}, context_sizes=[4, 8], train_sizes=[20, 40])
    cli.ablate(cli.RunConfig.from_file(write_config(tmp_path, cfg)), tmp_path / "abl2")
    assert (len(loads), len(pps), len(pearson)) == (1, 2, 2)
    assert sorted(len(args[1]) for args in pps) == [20, 40]


def test_scaling_builds_one_pool_per_training_subset(tmp_path, monkeypatch):
    # the random policy samples the subset rows and needs no pool
    write_toy_files(tmp_path, n=400, noise=0.2)
    pools = count_calls(monkeypatch, cli, "build_pool")
    cfg = base_config(tmp_path, retrieval={})
    out = cli.scaling(cli.RunConfig.from_file(write_config(tmp_path, cfg)), [32, 64, 128],
                      tmp_path / "scal")
    assert sorted(len(args[1]) for args in pools) == [32, 64, 128]
    policies = {r["policy"] for r in load_json(out / "metrics.json")["metrics"]}
    assert policies == {"rag", "random"}


def test_pool_is_freed_before_prediction(tmp_path, monkeypatch):
    write_toy_files(tmp_path)
    pools, alive = [], []
    build, knn = cli.build_pool, cli.knn_predict
    monkeypatch.setattr(cli, "build_pool", lambda *a: pools.append(weakref.ref(p := build(*a))) or p)
    monkeypatch.setattr(cli, "knn_predict",
                        lambda *a: alive.append(any(ref() is not None for ref in pools)) or knn(*a))
    cfg = base_config(tmp_path, retrieval={"importance_mode": "dual"}, train_sizes=[20, 40])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert load_json(out / "manifest.json")["datasets"]["toy"]["status"] == "ok"
    assert len(pools) == 2 and alive and not any(alive)


def test_traced_names_resolve_and_retrieve_runs_once_per_row(tmp_path):
    # perfbench's tracer wraps these names and skips any that is gone, so a
    # renamed function would silently read 0 calls in the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, qual in tracer.TRACED:
        owner = importlib.import_module(f"tabctx.{mod_name}")
        if (mod_name, qual) == ("predictors", "serialize_prompt"):  # deleted: fit_prompt renders every
            assert not hasattr(owner, qual)  # prompt, so its calls_per_fit reads 0 as it did before
            continue
        for attr in qual.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (mod_name, qual)
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, context_sizes=[2, 4], train_sizes=[20, 40],
                      policies=[{"id": "rag"}, {"id": "random", "type": "random"},
                                {"id": "near", "importance_mode": "pearson_only"}])
    path = write_config(tmp_path, cfg)
    # install() rebinds module globals for good, so the traced run gets its own process
    code = (f"import json, sys; sys.path.insert(0, {str(PERFBENCH)!r}); from tabctx import cli; "
            f"from tracer import Tracer; t = Tracer(); t.install(); "
            f"assert cli.main(['run', {str(path)!r}, '-o', {str(tmp_path / 'out')!r}]) == 0; "
            f"print(json.dumps({{k: v['calls'] for k, v in t.summary().items()}}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    n_test = load_json(tmp_path / "out" / "manifest.json")["datasets"]["toy"]["n_test"]
    # one ranking per test row, rag policy and training size serves both context sizes
    assert calls["retrieval.retrieve"] == n_test * 2 * 2
    assert calls["retrieval.retrieve_random"] == n_test * 2 * 2
    assert calls["retrieval.build_pool"] == 2 * 2
    # the near policy (pearson_only) fits Pearson once per training subset
    assert calls["importance.pearson_importance"] == 2


def test_dual_and_pps_only_policies_share_one_pps_fit(tmp_path, monkeypatch):
    write_toy_files(tmp_path)
    pps = count_calls(monkeypatch, rt, "pps_importance")
    cfg = base_config(tmp_path, retrieval={"importance_mode": "dual"}, train_sizes=[20, 40],
                      policies=[{"id": "rag", "type": "rag"},
                                {"id": "pps", "type": "rag", "importance_mode": "pps_only"}])
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert len(pps) == 2
    weights = load_json(out / "weights.json")["toy"]
    assert sorted(weights) == ["pps/n20", "pps/n40", "rag/n20", "rag/n40"]
    for n in (20, 40):
        assert weights[f"pps/n{n}"]["pearson"] is None
        assert weights[f"pps/n{n}"]["pps"] == weights[f"rag/n{n}"]["pps"] is not None
        assert weights[f"rag/n{n}"]["pearson"] is not None


def test_ablate_failing_dataset_errors_in_every_variant(tmp_path):
    write_toy_files(tmp_path)
    write_toy_files(tmp_path, name="tiny", n=6)
    cfg = add_bad_dataset(tmp_path, base_config(tmp_path, retrieval={}))
    # 3 training rows, fewer than PPS's 4 folds: PPS fails, and with it the whole sweep
    # of this dataset, also in the variants that use no PPS weights
    cfg["datasets"].append({"id": "tiny", "table": str(tmp_path / "tiny.csv"),
                            "schema": str(tmp_path / "tiny.schema.json"),
                            "split": {"ratios": [0.5, 0.0, 0.5], "seed": 1}})
    out = cli.ablate(cli.RunConfig.from_file(write_config(tmp_path, cfg)), tmp_path / "abl")
    for name in cli.ABLATION_VARIANTS:
        statuses = load_json(out / name / "manifest.json")["datasets"]
        assert statuses["toy"]["status"] == "ok"
        assert statuses["bad"]["status"] == "error"
        assert statuses["tiny"] == {"status": "error",
                                    "error": "ValueError: cannot split 3 rows into 4 folds"}
        assert {r["dataset"] for r in load_json(out / name / "metrics.json")["metrics"]} == {"toy"}
    assert (out / "ablation.json").is_file()


def test_ablate_variant_dirs_equal_single_policy_runs_with_externals(tmp_path):
    d = write_toy_files(tmp_path)
    test_rows = [int(r) for r in ds.make_split(d, (0.8, 0.1, 0.1), seed=3).test]
    with open(tmp_path / "ext.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_index", "p_0", "p_1"])
        w.writerows([r, 1.0, 0.0] for r in test_rows)
    cfg = base_config(tmp_path, retrieval={}, context_sizes=[2, 4], train_sizes=[30, 60],
                      write_traces=True,
                      predictors=[{"id": "knn", "type": "knn"},
                                  {"id": "ext", "type": "external", "path": str(tmp_path / "ext.csv")}])
    out = cli.ablate(cli.RunConfig.from_file(write_config(tmp_path, cfg)), tmp_path / "abl")
    for name, overrides in cli.ABLATION_VARIANTS.items():
        with open(out / name / "predictions.csv") as fh:
            ext = [int(r["row_index"]) for r in csv.DictReader(fh) if r["policy"] == "external"]
        assert ext == test_rows
        alone = {**cfg, "retrieval": {**cfg["retrieval"], **overrides},
                 "policies": [{"id": name, "type": "rag"}]}
        ref = cli.run(cli.RunConfig.from_file(write_config(tmp_path, alone, f"{name}.json")),
                      tmp_path / f"ref_{name}")
        for fname in ("predictions.csv", "metrics.json", "metrics.csv", "traces.jsonl", "weights.json"):
            assert (out / name / fname).is_file() == (ref / fname).is_file(), (name, fname)
            if (ref / fname).is_file():
                assert (out / name / fname).read_bytes() == (ref / fname).read_bytes(), (name, fname)


def test_unknown_config_keys_are_named(tmp_path, capsys):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, workers=2)
    cfg["datasets"][0]["cap"] = 5
    path = write_config(tmp_path, cfg)
    with pytest.raises(ValueError, match=r"workers.*datasets\[0\]\.cap"):
        cli.RunConfig.from_file(path)
    assert cli.main(["validate-config", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "workers" in err and "datasets[0].cap" in err
    assert "Traceback" not in err
    assert cli.main(["run", str(path)]) == 1
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_split_prompt_and_predictor_keys_are_named(tmp_path, capsys):
    from llm_stub import stub_server
    d = write_toy_files(tmp_path)
    cfg = base_config(tmp_path, prompt={"token_buget": 10, "token_budget": 100}, predictors=[
        {"id": "knn", "type": "knn", "k": 3},
        {"id": "llm", "type": "llm", "base_url": "http://127.0.0.1:1/v1", "retry_backoff": 0.0},
        {"id": "ens", "type": "ensemble", "members": ["knn"], "weights": [1.0]},
        {"id": "ext", "type": "external", "path": "p.csv", "members": ["knn"]}])
    cfg["datasets"][0]["split"] = {"ratio": [0.5, 0.0, 0.5]}
    path = write_config(tmp_path, cfg)
    keys = ["datasets[0].split.ratio", "prompt.token_buget", "predictors[0].k",
            "predictors[1].retry_backoff", "predictors[2].weights", "predictors[3].members"]
    assert cli.main(["validate-config", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and all(k in err for k in keys), err
    assert "prompt.token_budget" not in err and "Traceback" not in err
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert all(k in err for k in keys), err
    assert not (tmp_path / "out").exists()
    # every key the code reads is accepted
    with stub_server() as (state, url):
        state.default = (200, "1")
        cfg = base_config(tmp_path, prompt={"preamble": "rows:", "anonymize": True,
                                            "chars_per_token": 4.0, "token_budget": 4096,
                                            "shuffle_context": True}, predictors=[
            {"id": "llm", "type": "llm", "base_url": url, "model": "m", "api_key_env": "NO_KEY",
             "timeout": 5.0, "max_retries": 1, "concurrency": 2, "max_output_tokens": 8,
             "chat": False}])
        cfg["datasets"][0]["split"]["file"] = str(tmp_path / "split.json")
        ds.save_split_file(ds.make_split(d, (0.8, 0.1, 0.1), 3), tmp_path / "split.json")
        assert cli.main(["run", str(write_config(tmp_path, cfg, "all.json"))]) == 0
    body = state.requests[0]["body"]
    assert body["model"] == "m" and body["max_tokens"] == 8 and body["prompt"].startswith("rows:")


def test_policy_quota_is_rejected(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, policies=[{"id": "small", "quota": 4}, {"id": "big", "quota": 32},
                                          {"id": "random", "type": "random"}])
    del cfg["context_sizes"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate-config", str(path)]) == 1
    problems = cli.validate_config(cli.RunConfig.from_file(path))
    assert len(problems) == 2
    for pid, problem in zip(("small", "big"), problems):
        assert problem.startswith(f"policy {pid!r}: ") and "context_sizes" in problem
    with pytest.raises(ValueError, match="quota"):
        cli.run(cli.RunConfig.from_file(path))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", [["run"], ["ablate"], ["scaling", "--sizes", "8,16"]],
                         ids=["run", "ablate", "scaling"])
def test_config_problems_exit_with_message(tmp_path, capsys, verb):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, policies=[{"id": "small", "quota": 4}], context_sizes=[4, 0])
    path = write_config(tmp_path, cfg)
    assert cli.main([*verb, str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: context_sizes must be a non-empty list of integers, each at least 1\n" in err
    if verb == ["run"]:  # ablate and scaling set their own policies
        assert "error: policy 'small': quota cannot be set per policy" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_llm_base_url_needs_http_scheme(tmp_path):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, predictors=[
        {"id": "knn", "type": "knn"},
        {"id": "remote", "type": "llm", "base_url": "localhost:8000/v1"},
        {"id": "hostless", "type": "llm", "base_url": "http:///v1"},
        {"id": "local", "type": "llm", "base_url": "https://127.0.0.1:8000/v1"}])
    path = write_config(tmp_path, cfg)
    assert cli.validate_config(cli.RunConfig.from_file(path)) == [
        f"predictor {pid!r}: llm base_url {url!r} is not an http:// or https:// URL with a host"
        for pid, url in (("remote", "localhost:8000/v1"), ("hostless", "http:///v1"))]
    assert cli.main(["validate-config", str(path)]) == 1


def test_match_constraint_absent_from_one_schema_is_rejected(tmp_path):
    write_toy_files(tmp_path)
    rows = [[str(i % 7), "uv"[i % 2], "ab"[i % 3 == 0]] for i in range(40)]
    (tmp_path / "g.csv").write_text("x,g,y\n" + "".join(",".join(r) + "\n" for r in rows),
                                    encoding="utf-8")
    ds.save_schema([ds.ColumnSchema("x", "numerical"), ds.ColumnSchema("g", "categorical"),
                    ds.ColumnSchema("y", "categorical", "label")], "classification",
                   tmp_path / "g.schema.json")
    cfg = base_config(tmp_path, retrieval={"importance_mode": "uniform", "match_constraints": ["g"]})
    cfg["datasets"].append({"id": "grouped", "table": str(tmp_path / "g.csv"),
                            "schema": str(tmp_path / "g.schema.json")})
    with pytest.raises(cli.ConfigError) as err:
        cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert err.value.problems == [
        f"dataset 'toy': retrieval match_constraints names 'g', which is not a categorical feature "
        f"in {tmp_path / 'toy.schema.json'}"]
    assert not (tmp_path / "out").exists()
    cfg["datasets"].pop(0)
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg)))
    assert load_json(out / "manifest.json")["datasets"]["grouped"]["status"] == "ok"


def test_retrieval_names_are_checked_against_the_schema(tmp_path, capsys):
    write_toy_files(tmp_path)  # features x1 and x2 are numerical; label is the categorical label
    schema = tmp_path / "toy.schema.json"
    (tmp_path / "odd.schema.json").write_text('{"columns": []}', encoding="utf-8")
    for over, entry, want in (
            ({"retrieval": {"match_constraints": ["x1"]}}, {},
             f"dataset 'toy': retrieval match_constraints names 'x1', which is not a categorical "
             f"feature in {schema}"),
            ({"retrieval": {"per_feature_norm": {"label": "minmax"}}}, {},
             f"dataset 'toy': retrieval per_feature_norm names 'label', which is not a numerical "
             f"feature in {schema}"),
            ({"policies": [{"id": "near", "match_constraints": ["g"]}]}, {},
             f"dataset 'toy': policy 'near' match_constraints names 'g', which is not a categorical "
             f"feature in {schema}"),
            ({"policies": [{"id": "near", "per_feature_norm": {"x3": "standard"}}]}, {},
             f"dataset 'toy': policy 'near' per_feature_norm names 'x3', which is not a numerical "
             f"feature in {schema}"),
            ({}, {"schema": str(tmp_path / "odd.schema.json")},
             f"dataset 'toy': {tmp_path / 'odd.schema.json'}: missing key task"),
            ({"retrieval": {"match_constraints": "x1"}}, {},
             f"{tmp_path / 'names.json'}: retrieval.match_constraints must be a list, not 'x1'")):
        cfg = base_config(tmp_path, **over)
        cfg["datasets"][0].update(entry)
        path = write_config(tmp_path, cfg, "names.json")
        assert cli.main(["validate-config", str(path)]) == 1
        if want.startswith(str(path)):  # a JSON type: rejected at load
            assert load_problems(path) == [want]
        else:
            assert cli.validate_config(cli.RunConfig.from_file(path)) == [want]
        assert capsys.readouterr().err == f"error: {want}\n"
    ok = base_config(tmp_path, retrieval={"per_feature_norm": {"x2": "minmax"}},
                     policies=[{"id": "rag"}, {"id": "std", "per_feature_norm": {"x1": "standard"}}])
    assert cli.validate_config(cli.RunConfig.from_file(write_config(tmp_path, ok, "names.json"))) == []


@pytest.mark.parametrize("key, value, want, loaded", [
    ("concurrency", 0, "concurrency must be an integer of at least 1, not 0", None),
    ("concurrency", "x", "concurrency must be an integer of at least 1, not 'x'",
     "predictors[0].concurrency must be an integer, not 'x'"),
    ("max_retries", -1, "max_retries must be an integer of at least 0, not -1", None),
    ("timeout", 0, "timeout must be a finite number above 0, not 0", None),
    ("timeout", "5", "timeout must be a finite number above 0, not '5'",
     "predictors[0].timeout must be a number, not '5'"),
])
def test_endpoint_ranges_are_checked_before_the_run(tmp_path, capsys, key, value, want, loaded):
    """A value of the wrong JSON type is rejected at load, one out of range by validate_config."""
    write_toy_files(tmp_path)
    url = "http://127.0.0.1:9/v1/chat/completions"
    with pytest.raises(ValueError, match=want):
        EndpointConfig(base_url=url, **{key: value})
    cfg = base_config(tmp_path, predictors=[{"id": "llm", "type": "llm", "base_url": url, key: value}])
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate-config", str(path)]) == 1
    if loaded:
        assert load_problems(path) == [f"{path}: {loaded}"]
        assert capsys.readouterr().err == f"error: {path}: {loaded}\n"
    else:
        assert cli.validate_config(cli.RunConfig.from_file(path)) == [f"predictor 'llm': llm {want}"]
        assert capsys.readouterr().err == f"error: predictor 'llm': llm {want}\n"


def test_missing_config_keys_are_named(tmp_path, capsys):
    write_toy_files(tmp_path)
    entry = base_config(tmp_path)["datasets"][0]
    cases = {"no_predictors.json": ({"datasets": []}, ["predictors"]),
             "no_datasets.json": ({"predictors": []}, ["datasets"]),
             "no_paths.json": ({"datasets": [{"id": entry["id"]}], "predictors": []},
                               ["datasets[0].table", "datasets[0].schema"])}
    for name, (cfg, keys) in cases.items():
        path = write_config(tmp_path, cfg, name)
        assert cli.main(["validate-config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "".join(f"error: {path}: missing key {k}\n" for k in keys)
    # a file that is not JSON is named too
    path = tmp_path / "broken.json"
    path.write_text('{"datasets": }', encoding="utf-8")
    assert cli.main(["validate-config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: Expecting value: line 1 column 14 (char 13)\n"


LLM_URL = "http://127.0.0.1:9/v1/chat/completions"


def with_dataset(cfg, **change):
    return {**cfg, "datasets": [{**cfg["datasets"][0], **change}]}


# a bad value set into base_config, and the problem it is rejected with at load
BAD_VALUES = {
    "prompt-list": (lambda c: {**c, "prompt": []}, "prompt must be a JSON object, not []"),
    "predictor-string": (lambda c: {**c, "predictors": ["knn"]},
                         "predictors[0] must be a JSON object, not 'knn'"),
    "policy-string": (lambda c: {**c, "policies": ["rag"]}, "policies[0] must be a JSON object, not 'rag'"),
    "split-list": (lambda c: with_dataset(c, split=[]), "datasets[0].split must be a JSON object, not []"),
    "top-level-list": (lambda c: [], "the top level must be a JSON object, not []"),
    "seed-string": (lambda c: {**c, "seed": "x"}, "seed must be an integer, not 'x'"),
    "split-seed-float": (lambda c: with_dataset(c, split={"seed": 1.5}),
                         "datasets[0].split.seed must be an integer, not 1.5"),
    "write-traces-string": (lambda c: {**c, "write_traces": "no"},
                            "write_traces must be true or false, not 'no'"),
    "shuffle-string": (lambda c: {**c, "prompt": {"shuffle_context": "no"}},
                       "prompt.shuffle_context must be true or false, not 'no'"),
    "anonymize-int": (lambda c: {**c, "prompt": {"anonymize": 1}}, "prompt.anonymize must be true or false, not 1"),
    "concurrency-bool": (lambda c: {**c, "predictors": [{"id": "llm", "type": "llm", "base_url": LLM_URL,
                                                         "concurrency": True}]},
                         "predictors[0].concurrency must be an integer, not True"),
    "context-size-bool": (lambda c: {**c, "context_sizes": [4, True]},
                          "context_sizes[1] must be an integer, not True"),
}


@pytest.mark.parametrize("verb", ["run", "validate-config"])
@pytest.mark.parametrize("case", BAD_VALUES)
def test_values_of_the_wrong_json_type_fail_at_load(tmp_path, capsys, monkeypatch, verb, case):
    write_toy_files(tmp_path)
    monkeypatch.chdir(tmp_path)  # where run would write a config's default output dir
    change, want = BAD_VALUES[case]
    path = write_config(tmp_path, change(base_config(tmp_path)))
    before = sorted(tmp_path.iterdir())
    assert cli.main([verb, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {want}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_each_bad_value_is_one_error_line(tmp_path, capsys):
    write_toy_files(tmp_path)
    path = write_config(tmp_path, base_config(tmp_path, seed="x", write_traces="no"))
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: seed must be an integer, not 'x'",
        f"error: {path}: write_traces must be true or false, not 'no'"]
    assert not (tmp_path / "out").exists()


def test_manifest_records_coerced_cells(tmp_path):
    write_toy_files(tmp_path)
    lines = (tmp_path / "toy.csv").read_text(encoding="utf-8").splitlines()
    for i, bad in ((1, "abc"), (2, "inf")):
        lines[i] = bad + lines[i][lines[i].index(","):]
    (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, base_config(tmp_path))))
    info = load_json(out / "manifest.json")["datasets"]["toy"]
    assert info["status"] == "ok" and info["coerced_cells"] == {"x1": 2}


def test_log_level_info_logs_each_stage_and_its_time(tmp_path, capsys):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, policies=[{"id": "rag"}, {"id": "random", "type": "random"}],
                      predictors=[{"id": "knn", "type": "knn"},
                                  {"id": "ens", "type": "ensemble", "members": ["knn"]}])
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "-o", str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["run", str(path), "-o", str(tmp_path / "loud"), "--log-level", "INFO"]) == 0
    lines = capsys.readouterr().err.splitlines()
    stages = []
    for line in lines:
        head, _, seconds = line.rpartition(": ")
        assert head.startswith("INFO tabctx.cli: ") and seconds.endswith(" s")
        assert float(seconds[:-2]) >= 0
        stages.append(head.removeprefix("INFO tabctx.cli: "))
    n = load_json(tmp_path / "loud" / "manifest.json")["datasets"]["toy"]["n_train"]
    assert stages == ["toy load", "toy split",
                      f"toy rag n{n} weights", f"toy rag n{n} retrieve",
                      f"toy rag n{n} c4 predict/knn", f"toy rag n{n} c4 predict/ens",
                      f"toy random n{n} retrieve",
                      f"toy random n{n} c4 predict/knn", f"toy random n{n} c4 predict/ens",
                      f"write {tmp_path / 'loud'}"]
    for name in ("predictions.csv", "metrics.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "loud" / name).read_bytes()
    assert logging.getLogger("tabctx").handlers == []


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["scaling", str(missing), "--sizes", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


def test_non_integer_scaling_size_is_an_error_line(tmp_path, capsys):
    write_toy_files(tmp_path)
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["scaling", str(path), "--sizes", "8,x", "-o", str(tmp_path / "sc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and "Traceback" not in err
    assert not (tmp_path / "sc").exists()


HERE = Path(".")  # base_config's files, named from the working directory
BAD_ENDPOINT = {"id": "llm", "type": "llm", "base_url": LLM_URL, "concurrency": 0, "max_retries": -1, "timeout": 0}
# a bad input: the command line, the files it reads, and a part of each error line it gives, in order
BAD_INPUTS = {
    "compare-without-metrics": (["compare", "m.json"], {"m.json": {"metric": []}},
                                ["m.json: unknown key metric", "m.json: missing key metrics"]),
    "compare-missing-path": (["compare", "nope.json"], {}, ["nope.json"]),
    "fit-run-dir-metrics-not-a-list": (["fit-powerlaw", "--run-dir", "r"], {"r/metrics.json": {"metrics": 5}},
                                       [f"{Path('r', 'metrics.json')}: metrics must be a list, not 5"]),
    "compare-empty-report": (["compare", "a.json"], {"a.json": {"metrics": [{}]}},
                             [f"a.json: missing key metrics[0].{k}"
                              for k in ("dataset", "predictor", "metric", "value")]),
    "fit-run-dir-value-not-a-number": (["fit-powerlaw", "--run-dir", "r"], {"r/metrics.json": {"metrics": [
        {"dataset": "toy", "predictor": "knn", "metric": "nmae", "value": "x"}]}},
        [f"{Path('r', 'metrics.json')}: metrics[0].value must be a number, not 'x'"]),
    "fit-one-point": (["fit-powerlaw", "--points", "p.json"], {"p.json": [[1, 2]]}, ["need at least 2 points"]),
    "fit-null-in-point": (["fit-powerlaw", "--points", "p.json"], {"p.json": [[1, None], [2, 3]]},
                          ["p.json: [0][1] must be a number, not None"]),
    "fit-three-numbers": (["fit-powerlaw", "--points", "p.json"], {"p.json": [[1, 2, 3], [2, 3]]},
                          ["point [1, 2, 3] is not a [D, L] pair"]),
    "boundary-quota-0": (["boundary", "--quota", "0"], {}, ["quota must be at least 1"]),
    "boundary-resolution-0": (["boundary", "--resolution", "0"], {},
                              ["resolution must be at least 1 cell per axis, not 0"]),
    "boundary-resolution-negative": (["boundary", "--resolution", "-2"], {},
                                     ["resolution must be at least 1 cell per axis, not -2"]),
    **{f"{verb[0]}-output-below-a-file": ([*verb, "c.json", "-o", str(Path("afile", "out"))],
                                          {"c.json": base_config(HERE), "afile": ""}, [str(Path("afile", "out"))])
       for verb in (["run"], ["ablate"], ["scaling", "--sizes", "8"])},
    **{f"{verb}-split-file-key": ([verb, "c.json"], {
        "c.json": with_dataset(base_config(HERE), split={"file": "s.json"}),
        "s.json": {"train": [0, 3], "validation": [], "test": [1], "tset": [2]}},
        ["dataset 'toy': s.json: unknown key tset"]) for verb in ("validate-config", "run")},
    "endpoint-values": (["validate-config", "c.json"], {"c.json": base_config(HERE, predictors=[BAD_ENDPOINT])},
                        ["predictor 'llm': llm concurrency must be an integer of at least 1, not 0",
                         "predictor 'llm': llm max_retries must be an integer of at least 0, not -1",
                         "predictor 'llm': llm timeout must be a finite number above 0, not 0"]),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_error_line_per_problem(tmp_path, capsys, monkeypatch, case):
    """Exit 1 and one error line per problem, naming the file, flag or key,
    before any table is read and with no output left behind."""
    argv, files, want = BAD_INPUTS[case]
    write_toy_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        Path(name).parent.mkdir(exist_ok=True)
        if isinstance(content, str):
            Path(name).write_text(content, encoding="utf-8")
        else:
            dump_json(name, content)
    before = sorted(tmp_path.rglob("*"))
    loads = count_calls(monkeypatch, ds, "load_dataset")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    errors = err.splitlines()
    assert len(errors) == len(want) and "Traceback" not in err, err
    for line, part in zip(errors, want):
        assert line.startswith("error: ") and part in line, (line, part)
    assert sorted(tmp_path.rglob("*")) == before and not loads


@pytest.mark.parametrize("argv", [["fit-powerlaw"], ["fit-powerlaw", "--points", "p.json", "--run-dir", "r"]])
def test_fit_powerlaw_takes_one_source_of_points(capsys, argv):
    """Neither or both of --points and --run-dir is a usage error, as a missing --sizes is."""
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2 and "--points" in capsys.readouterr().err


def assert_one_config_error(tmp_path, capsys, cfg, *named):
    """validate-config prints one error line, naming each of ``named``, and
    run exits 1 before writing anything."""
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate-config", str(path)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and all(n in errors[0] for n in named), errors
    assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_duplicate_predictor_ids_are_rejected(tmp_path, capsys):
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, predictors=[{"id": "knn", "type": "knn"},
                                            {"id": "knn", "type": "knn"}])
    assert_one_config_error(tmp_path, capsys, cfg, "duplicate predictor id 'knn'")


def test_duplicate_policy_ids_are_rejected(tmp_path, capsys):
    write_toy_files(tmp_path)
    # a rag policy without an id takes the id "rag"
    cfg = base_config(tmp_path, policies=[{"type": "rag"}, {"id": "rag", "importance_mode": "dual"},
                                          {"id": "random", "type": "random"}])
    assert_one_config_error(tmp_path, capsys, cfg, "duplicate policy id 'rag'")


def test_policy_id_external_is_rejected(tmp_path, capsys):
    # prediction rows read from files carry the policy "external"
    write_toy_files(tmp_path)
    cfg = base_config(tmp_path, policies=[{"id": "external", "type": "rag"}])
    assert_one_config_error(tmp_path, capsys, cfg, "'external'")


def test_repeated_train_sizes_are_rejected(tmp_path, capsys):
    write_toy_files(tmp_path)
    assert_one_config_error(tmp_path, capsys, base_config(tmp_path, train_sizes=[50, 8, 50]),
                            "train_sizes repeats 50")
    path = write_config(tmp_path, base_config(tmp_path), "sweep.json")
    assert cli.main(["scaling", str(path), "--sizes", "60,60", "-o", str(tmp_path / "sc")]) == 1
    err = capsys.readouterr().err
    assert "error: --sizes repeats 60\n" in err and "Traceback" not in err
    assert not (tmp_path / "sc").exists()


def test_far_test_row_changes_no_other_row(tmp_path):
    # without normalization or the rescale, a test row far outside the pool
    # overflows its squared distances, and select_block ranks it a second time
    # with its distances scaled; no other row's output may change
    rng = np.random.default_rng(5)
    x, z = rng.normal(size=60), rng.normal(size=60)
    schema = [ds.ColumnSchema("x", "numerical"), ds.ColumnSchema("z", "numerical"),
              ds.ColumnSchema("y", "numerical", "label")]
    ds.save_schema(schema, "regression", tmp_path / "t.schema.json")
    split = ds.make_split(ds.Dataset(schema, {"x": x, "z": z, "y": x + z}, "regression"),
                          (0.6, 0.1, 0.3), 3)
    ds.save_split_file(split, tmp_path / "split.json")
    far = int(split.test[0])
    outs = {}
    for name, value in (("near", 0.5), ("far", 1e200)):
        xs = x.copy()
        xs[far] = value
        table = tmp_path / f"{name}.csv"
        ds.save_table(ds.Dataset(schema, {"x": xs, "z": z, "y": x + z}, "regression"), table)
        cfg = base_config(tmp_path, datasets=[{"id": "t", "table": str(table),
                                               "schema": str(tmp_path / "t.schema.json"),
                                               "split": {"file": str(tmp_path / "split.json")}}],
                          retrieval={"numeric_norm": "none", "distance_minmax_rescale": False},
                          context_sizes=[4, 8], write_traces=True)
        outs[name] = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg, f"{name}.json")),
                             tmp_path / name)
        assert load_json(outs[name] / "manifest.json")["datasets"]["t"]["status"] == "ok"

    def others(name):
        with open(outs[name] / "predictions.csv", encoding="utf-8") as fh:
            preds = [line for line in fh if line.split(",")[5] != str(far)]
        with open(outs[name] / "traces.jsonl", encoding="utf-8") as fh:
            traces = [line for line in fh if json.loads(line)["query"] != far]
        return preds, traces

    near_preds, near_traces = others("near")
    others_per_size = len(split.test) - 1
    assert len(near_preds) == 1 + 2 * others_per_size and len(near_traces) == 2 * others_per_size
    assert others("far") == (near_preds, near_traces)
    with open(outs["far"] / "traces.jsonl", encoding="utf-8") as fh:
        far_traces = [t for t in map(json.loads, fh) if t["query"] == far]
    assert len(far_traces) == 2
    for t in far_traces:
        assert all(math.isfinite(v) for v in t["distances"]) and max(t["distances"]) > 1e150


def test_labels_near_the_float_maximum_lose_no_dataset(tmp_path):
    # six finite labels of 1.7e308 at x = 0.5: the kNN mean of a context of
    # four of them, the training label mean, the ensemble's sum and the test
    # label mean all overflow a plain float sum; every estimate stays finite,
    # and a row whose context holds none of them is the same as with labels of 10
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=200)
    y = 2.0 * x + rng.normal(scale=0.1, size=200)
    big = list(range(6))
    x[:7] = 0.5
    test = [0, 1, 6, *range(190, 200)]
    ds.save_split_file(ds.SplitAssignment(train=np.setdiff1d(np.arange(200), test), validation=[],
                                          test=test, seed=0), tmp_path / "split.json")
    schema = [ds.ColumnSchema("x", "numerical"), ds.ColumnSchema("y", "numerical", "label")]
    ds.save_schema(schema, "regression", tmp_path / "t.schema.json")
    outs = {}
    for label in (1.7e308, 10.0):
        y[big] = label
        table = tmp_path / f"{label}.csv"
        ds.save_table(ds.Dataset(schema, {"x": x, "y": y}, "regression"), table)
        cfg = base_config(tmp_path, datasets=[{"id": "t", "table": str(table),
                                               "schema": str(tmp_path / "t.schema.json"),
                                               "split": {"file": str(tmp_path / "split.json")}}],
                          predictors=[{"id": "knn", "type": "knn"}, {"id": "knn2", "type": "knn"},
                                      {"id": "ens", "type": "ensemble", "members": ["knn", "knn2"]}],
                          write_traces=True)
        out = cli.run(cli.RunConfig.from_file(write_config(tmp_path, cfg, f"{label}.json")),
                      tmp_path / f"out{label}")
        assert load_json(out / "manifest.json")["datasets"]["t"]["status"] == "ok"
        with open(out / "predictions.csv", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        with open(out / "traces.jsonl", encoding="utf-8") as fh:
            selected = {t["query"]: set(t["selected"]) for t in map(json.loads, fh)}
        assert len(rows) == 3 * len(test)
        assert all(math.isfinite(float(r[header.index("estimate")])) for r in rows)
        outs[label] = {(r[4], int(r[5])): r for r in rows}, selected

    (huge, selected), (plain, _) = outs[1.7e308], outs[10.0]
    assert selected[6] == {2, 3, 4, 5}
    assert {float(huge[p, 6][8]) for p in ("knn", "knn2", "ens")} == {1.7e308}
    clear = [key for key in huge if not selected[key[1]] & set(big)]
    assert len(clear) >= 3 * 8
    assert [huge[k] for k in clear] == [plain[k] for k in clear]


# finite values at and near both float limits, exact zeros of both signs and
# subnormals; NaN is a missing numerical cell
EXTREME = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 1e300, -1e300, 3e150, 1e-308, 5e-324, -5e-324, 0.0, -0.0]),
    st.builds(lambda v, scale: v * scale, st.floats(-3.0, 3.0), st.sampled_from([1e300, 1e-300])))


@st.composite
def extreme_tables(draw):
    """(numerical columns, categorical columns, labels, task) of 8 to 60 rows."""
    n = draw(st.integers(8, 60))
    column = st.lists(st.one_of(EXTREME, st.just(math.nan)), min_size=n, max_size=n)
    num = {f"x{i}": draw(column) for i in range(draw(st.integers(1, 3)))}
    tokens = st.lists(st.sampled_from(["a", "b", ds.MISSING_TOKEN]), min_size=n, max_size=n)
    cat = {f"c{i}": draw(tokens) for i in range(draw(st.integers(0, 2)))}
    if draw(st.booleans()):
        return num, cat, draw(st.lists(EXTREME, min_size=n, max_size=n)), ds.TASK_REGRESSION
    return num, cat, draw(st.lists(st.sampled_from("pqr"), min_size=n, max_size=n)), ds.TASK_CLASSIFICATION


@settings(max_examples=12, deadline=None)
@given(extreme_tables())
# labels at both float limits: the partial sums of their mean overflow to +inf and -inf
@example(({"x0": [float(i) for i in range(40)]}, {}, [1.7e308, -1.7e308] * 20, ds.TASK_REGRESSION))
def test_extreme_finite_tables_lose_no_dataset(table):
    num, cat, labels, task = table
    policies = [{"id": f"{mode}-{norm}-{rescale}", "importance_mode": mode, "numeric_norm": norm,
                 "distance_minmax_rescale": rescale}
                for mode in IMPORTANCE_MODES for norm in nz.MODES for rescale in (True, False)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        d = make_dataset(num=num, cat=cat, label=labels, task=task)
        ds.save_table(d, tmp / "toy.csv")
        ds.save_schema(d.schema, task, tmp / "toy.schema.json")
        cfg = base_config(tmp, retrieval={}, context_sizes=[1, 3, 50],
                          policies=[*policies, {"id": "random", "type": "random"}],
                          predictors=[{"id": "knn", "type": "knn"}, {"id": "knn2", "type": "knn"},
                                      {"id": "ens", "type": "ensemble", "members": ["knn", "knn2"]}])
        cfg["datasets"][0]["split"] = {"ratios": [0.7, 0.0, 0.3], "seed": 3}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = cli.run(cli.RunConfig.from_file(write_config(tmp, cfg)))
        status = load_json(out / "manifest.json")["datasets"]["toy"]
        assert status["status"] == "ok", status
        with open(out / "predictions.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 3 * (len(policies) + 1) * (len(labels) - int(len(labels) * 0.7))
    for r in rows:
        cells = [r["estimate"]] if task == ds.TASK_REGRESSION else r["probs"].split("|")
        assert all(math.isfinite(float(v)) for v in cells), r


def test_benchmark_workloads_set_up_with_this_library(tmp_path, monkeypatch):
    # perfbench/ is frozen: its workloads make these set-up calls and write
    # these configs, so a library change that breaks them must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = set(sys.modules)  # workloads.py imports perfbench's checks and stub by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        for name, make in workloads.WORKLOADS.items():
            (tmp_path / name).mkdir()
            wl = make(tmp_path / name, 5, "http://127.0.0.1:9/v1/chat/completions")
            wl.setup()
            for config in (Path(a) for a in wl.argv if a.endswith(".json")):
                assert cli.validate_config(cli.RunConfig.from_file(config)) == [], (name, config)
    finally:
        for module in ("checks", "stub"):
            if module not in loaded:
                sys.modules.pop(module, None)
