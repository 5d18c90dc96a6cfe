"""The three workloads: seeded inputs, the timed set-up calls, the CLI verb.

Every input is generated here from the benchmark seed; the program only sees
the files and arguments below. Sizes are fixed so that every seed does the
same amount of work.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# scaling-cls: 125k rows -> 100k train rows (the train cap), 24 test queries.
CLS_ROWS = 125_000
CLS_SIZES = (1_000, 10_000, 100_000)
CLS_CONTEXT_SIZES = (16, 64)
CLS_TEST_CAP = 24
CLS_MISSING = 0.05
CLS_CARDINALITIES = (3, 5, 8, 12)

# llm-reg: 25k rows -> 20k train rows, 48 test queries; the 2048-token budget
# binds at 64 context rows and not at 8.
REG_ROWS = 25_000
REG_FEATURES = 12
REG_CONTEXT_SIZES = (8, 64)
REG_TEST_CAP = 48
REG_TOKEN_BUDGET = 2048
REG_CHARS_PER_TOKEN = 4.0
REG_PREAMBLE = "Predict the label of the final row from the labeled rows above it."
STUB_SERVICE_MS = 20
LLM_CONCURRENCY = 2

# boundary-grid: 256 toy points, a 150 x 150 grid of cells.
TOY_SHAPE = "moon"
TOY_NOISE = 0.2
TOY_POINTS = 256
GRID_RESOLUTION = 150
GRID_QUOTA = 16

SPLIT_RATIOS = (0.8, 0.1, 0.1)


@dataclass
class Workload:
    """A prepared workload. ``setup`` performs one repetition of the public
    set-up calls and must run before the first ``check``, which reuses the
    split it computed. ``check(out_dir, prompts)`` returns (operations,
    failed, problems) for one round's outputs."""
    argv: list[str]
    out_dir: Path
    setup: Callable[[], None]
    check: Callable[[Path, list[str]], tuple[int, int, list[str]]]
    llm_predictions: int = 0


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _float_text(values: np.ndarray, missing: np.ndarray | None = None) -> list[str]:
    """Shortest round-trip text of each float; missing cells are empty."""
    text = values.astype(str)
    if missing is not None:
        text[missing] = ""
    return text.tolist()


def _write_table(path: Path, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _write_schema(path: Path, numerical: list[str], categorical: list[str], label: str,
                  label_kind: str, task: str) -> None:
    cols = ([{"name": n, "kind": "numerical", "role": "feature"} for n in numerical]
            + [{"name": n, "kind": "categorical", "role": "feature"} for n in categorical]
            + [{"name": label, "kind": label_kind, "role": "label"}])
    path.write_text(json.dumps({"columns": cols, "task": task}, indent=2), encoding="utf-8")


def _table_setup(table: Path, schema: Path, seed: int, test_cap: int, retrieval: dict,
                 keep: dict) -> Callable[[], None]:
    """load_dataset + make_split + build_pool on the largest pool (the whole
    train split), exactly as the verb calls them."""
    from tabctx import RetrievalConfig, build_pool, load_dataset, make_split

    def setup():
        d = load_dataset(table, schema)
        split = make_split(d, SPLIT_RATIOS, seed, test_cap=test_cap)
        build_pool(d, split.train, RetrievalConfig(**retrieval))
        keep["train"], keep["test"] = split.train, split.test

    return setup


def scaling_cls(work: Path, seed: int, stub_url: str | None) -> Workload:
    rng = _rng(seed, 1)
    n = CLS_ROWS
    X = rng.standard_normal((n, 12))
    X[:, 6:9] = np.exp(X[:, 6:9])                      # skewed columns
    X[:, 9:12] = rng.integers(0, 20, size=(n, 3)) / 2.0  # many tied values
    C = np.column_stack([rng.integers(0, k, size=n) for k in CLS_CARDINALITIES])
    score = (X[:, 0] + 0.5 * X[:, 1] ** 2 - 0.7 * X[:, 2] * X[:, 3] + 0.6 * (C[:, 0] == 1)
             + 0.3 * np.log(X[:, 6]) - 0.1 * X[:, 9] + 0.5 * rng.standard_normal(n))
    y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3]))
    labels = np.asarray(["lo", "mid", "hi"])[y]
    missing = rng.random((n, 16)) < CLS_MISSING
    X[missing[:, :12]] = np.nan
    cats = np.char.add("k", C.astype(str))
    cats[missing[:, 12:]] = ""

    num_names = [f"x{i}" for i in range(12)]
    cat_names = [f"c{i}" for i in range(4)]
    table, schema, config = work / "cls.csv", work / "cls.schema.json", work / "cls.config.json"
    _write_table(table, num_names + cat_names + ["label"],
                 [_float_text(X[:, j], missing[:, j]) for j in range(12)]
                 + [cats[:, j].tolist() for j in range(4)] + [labels.tolist()])
    _write_schema(schema, num_names, cat_names, "label", "categorical", "classification")
    retrieval = {"importance_mode": "dual", "numeric_norm": "quantile"}
    out_dir = work / "scaling_out"
    config.write_text(json.dumps({
        "seed": seed, "output_dir": str(out_dir),
        "datasets": [{"id": "cls", "table": str(table), "schema": str(schema),
                      "split": {"ratios": list(SPLIT_RATIOS), "seed": seed},
                      "test_cap": CLS_TEST_CAP}],
        "retrieval": retrieval,
        "context_sizes": list(CLS_CONTEXT_SIZES),
        "predictors": [{"id": "knn", "type": "knn"}],
    }, indent=2), encoding="utf-8")
    keep: dict = {}
    setup = _table_setup(table, schema, seed, CLS_TEST_CAP, retrieval, keep)
    data = checks.TableData(X=X, cats=cats, labels=labels, num_names=num_names,
                            cat_names=cat_names)

    def check(out, prompts):
        return checks.check_scaling(out, data, keep["train"], keep["test"], seed,
                                    CLS_SIZES, CLS_CONTEXT_SIZES)

    return Workload(
        argv=["scaling", str(config), "--sizes", ",".join(map(str, CLS_SIZES)),
              "-o", str(out_dir), "--traces"],
        out_dir=out_dir, setup=setup, check=check)


def llm_reg(work: Path, seed: int, stub_url: str | None) -> Workload:
    rng = _rng(seed, 2)
    n = REG_ROWS
    X = rng.uniform(-1.0, 1.0, size=(n, REG_FEATURES))
    y = (10.0 + 3.0 * np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 + X[:, 2] * X[:, 3] + 0.5 * X[:, 4]
         + 0.1 * rng.standard_normal(n))
    num_names = [f"x{i}" for i in range(REG_FEATURES)]
    table, schema, config = work / "reg.csv", work / "reg.schema.json", work / "reg.config.json"
    _write_table(table, num_names + ["y"],
                 [_float_text(X[:, j]) for j in range(REG_FEATURES)] + [_float_text(y)])
    _write_schema(schema, num_names, [], "y", "numerical", "regression")
    retrieval = {"importance_mode": "dual", "numeric_norm": "quantile", "quota": 64}
    out_dir = work / "run_out"
    config.write_text(json.dumps({
        "seed": seed, "output_dir": str(out_dir),
        "datasets": [{"id": "reg", "table": str(table), "schema": str(schema),
                      "split": {"ratios": list(SPLIT_RATIOS), "seed": seed},
                      "test_cap": REG_TEST_CAP}],
        "retrieval": retrieval,
        "context_sizes": list(REG_CONTEXT_SIZES),
        "predictors": [
            {"id": "knn", "type": "knn"},
            {"id": "llm", "type": "llm", "base_url": stub_url, "model": "stub",
             "api_key_env": "PERFBENCH_UNSET_KEY", "concurrency": LLM_CONCURRENCY},
            {"id": "ens", "type": "ensemble", "members": ["knn", "llm"]},
        ],
        "prompt": {"preamble": REG_PREAMBLE, "token_budget": REG_TOKEN_BUDGET,
                   "chars_per_token": REG_CHARS_PER_TOKEN},
    }, indent=2), encoding="utf-8")
    keep: dict = {}
    setup = _table_setup(table, schema, seed, REG_TEST_CAP, retrieval, keep)
    data = checks.TableData(X=X, cats=np.empty((n, 0), dtype=str), labels=y,
                            num_names=num_names, cat_names=[])

    def check(out, prompts):
        return checks.check_llm_reg(out, data, keep["test"], REG_CONTEXT_SIZES, prompts,
                                    REG_PREAMBLE, REG_TOKEN_BUDGET, REG_CHARS_PER_TOKEN)

    return Workload(argv=["run", str(config), "-o", str(out_dir), "--traces"],
                    out_dir=out_dir, setup=setup, check=check,
                    llm_predictions=REG_TEST_CAP * len(REG_CONTEXT_SIZES))


def boundary_grid(work: Path, seed: int, stub_url: str | None) -> Workload:
    from tabctx import RetrievalConfig, ToySpec, build_pool, generate_toy

    spec = ToySpec(TOY_SHAPE, TOY_NOISE, TOY_POINTS, seed)
    rcfg = RetrievalConfig(quota=GRID_QUOTA, importance_mode="uniform", numeric_norm="quantile")

    def setup():
        d = generate_toy(spec)
        build_pool(d, np.arange(d.n_rows), rcfg)

    out_dir = work / "grid_out"

    def check(out, prompts):
        return checks.check_boundary(out, generate_toy(spec), seed, GRID_RESOLUTION, GRID_QUOTA)

    return Workload(
        argv=["boundary", "--shape", TOY_SHAPE, "--noise", str(TOY_NOISE),
              "--n-train", str(TOY_POINTS), "--seed", str(seed),
              "--resolution", str(GRID_RESOLUTION), "--quota", str(GRID_QUOTA),
              "--importance-mode", "uniform", "--numeric-norm", "quantile", "-o", str(out_dir)],
        out_dir=out_dir, setup=setup, check=check)


WORKLOADS = {"scaling-cls": scaling_cls, "llm-reg": llm_reg, "boundary-grid": boundary_grid}
NEEDS_STUB = {"llm-reg"}
