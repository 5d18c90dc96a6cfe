"""Golden SHA-256 digests of the CLI's output files from small seeded runs.

The runs cover `tabctx run` (the c10 config; a classification and a
regression table with rag, random and pps_only policies, four context sizes,
two train sizes, a match constraint and traces; an llm predictor and an
ensemble against the stub endpoint), `scaling`, `boundary` and `ablate`.
`manifest.json` holds timestamps and absolute paths, so it is not digested.

A change that means to alter an output re-records the digests in the same
commit and says which file changed and why:

    PYTHONPATH=src python tests/test_golden.py --record
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from tabctx import cli
from tabctx import dataset as ds
from tabctx import synthgen as sg
from tabctx.util import dump_json

sys.path.insert(0, str(Path(__file__).resolve().parent))
from llm_stub import stub_server  # noqa: E402
from oracles import random_mixed_dataset  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RUN_FILES = ("predictions.csv", "metrics.json", "metrics.csv", "traces.jsonl", "weights.json")


def _save(d: ds.Dataset, root: Path, name: str) -> dict:
    ds.save_table(d, root / f"{name}.csv")
    ds.save_schema(d.schema, d.task, root / f"{name}.schema.json")
    return {"id": name, "table": str(root / f"{name}.csv"),
            "schema": str(root / f"{name}.schema.json"),
            "split": {"ratios": [0.8, 0.1, 0.1], "seed": 2}}


def _run(root: Path, name: str, config: dict) -> Path:
    dump_json(root / f"{name}.json", {"seed": 11, "output_dir": str(root / name), **config})
    assert cli.main(["run", str(root / f"{name}.json"), "-o", str(root / name)]) == 0
    statuses = json.loads((root / name / "manifest.json").read_text(encoding="utf-8"))["datasets"]
    assert all(s["status"] == "ok" for s in statuses.values()), statuses
    return root / name


def _digests(out: Path, prefix: str, names=RUN_FILES) -> dict[str, str]:
    return {f"{prefix}/{n}": hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


def golden_digests(root: Path) -> dict[str, str]:
    """Run every golden scenario under ``root``; return {scenario/file: sha256}."""
    toy = _save(sg.generate_toy(sg.ToySpec("circle", 0.2, 80, seed=4)), root, "toy")
    big_toy = _save(sg.generate_toy(sg.ToySpec("moon", 0.2, 300, seed=1)), root, "big_toy")
    cls = _save(random_mixed_dataset(0), root, "mixed_cls")
    reg = _save(random_mixed_dataset(7), root, "mixed_reg")
    out: dict[str, str] = {}

    out.update(_digests(_run(root, "c10", {
        "datasets": [toy], "retrieval": {"importance_mode": "dual"},
        "context_sizes": [4, 8], "predictors": [{"id": "knn", "type": "knn"}]}), "c10"))

    out.update(_digests(_run(root, "mixed", {
        "datasets": [cls, reg],
        "retrieval": {"importance_mode": "dual", "match_constraints": ["cat0"]},
        "policies": [{"id": "rag", "type": "rag"}, {"id": "random", "type": "random"},
                     {"id": "pps", "type": "rag", "importance_mode": "pps_only"}],
        "context_sizes": [1, 3, 8, 20], "train_sizes": [60, 120], "write_traces": True,
        "predictors": [{"id": "knn", "type": "knn"}]}), "mixed"))

    with stub_server() as (state, url):
        state.default = (200, "1")
        out.update(_digests(_run(root, "llm", {
            "datasets": [toy], "retrieval": {"importance_mode": "dual"},
            "context_sizes": [4, 16], "prompt": {"token_budget": 150}, "write_traces": True,
            "predictors": [{"id": "knn", "type": "knn"},
                           {"id": "llm", "type": "llm", "base_url": url, "model": "stub",
                            "max_retries": 0, "concurrency": 2},
                           {"id": "ens", "type": "ensemble", "members": ["knn", "llm"]}]}), "llm"))

    base = {"seed": 11, "datasets": [big_toy], "retrieval": {"importance_mode": "dual"},
            "context_sizes": [4, 8], "predictors": [{"id": "knn", "type": "knn"}]}
    dump_json(root / "scaling.json", base)
    assert cli.main(["scaling", str(root / "scaling.json"), "--sizes", "32,64,128",
                     "-o", str(root / "scaling")]) == 0
    out.update(_digests(root / "scaling", "scaling", RUN_FILES + ("fits.json",)))

    for mode in ("dual", "uniform"):
        assert cli.main(["boundary", "--shape", "moon", "--noise", "0.2", "--n-train", "40",
                         "--resolution", "12", "--quota", "5", "--importance-mode", mode,
                         "-o", str(root / f"boundary_{mode}")]) == 0
        out.update(_digests(root / f"boundary_{mode}", f"boundary_{mode}", ("grid.csv", "grid.json")))

    dump_json(root / "ablate.json", {**base, "datasets": [toy], "retrieval": {}})
    assert cli.main(["ablate", str(root / "ablate.json"), "-o", str(root / "ablate")]) == 0
    out.update(_digests(root / "ablate", "ablate", ("ablation.json",)))
    for name in cli.ABLATION_VARIANTS:
        out.update(_digests(root / "ablate" / name, f"ablate/{name}"))
    return out


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_digests(tmp_path)
    want = golden["digests"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, (
        f"output files differ from tests/golden.json: {changed}; digests were recorded with "
        f"python {golden['python']} and numpy {golden['numpy']}, this run uses "
        f"python {_versions()['python']} and numpy {_versions()['numpy']}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({**_versions(), "digests": digests}, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
