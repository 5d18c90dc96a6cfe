"""The README's examples still work: the quick start runs, and the run
config example loads and validates with its files pointed at tmp files."""
import ast
import json
import re
from pathlib import Path

from tabctx import cli
from tabctx import dataset as ds
from tabctx import synthgen as sg

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)[1]


def test_quick_start_runs(capsys):
    exec(compile(readme_block("## Quick start", "python"), "README quick start", "exec"), {})
    probs = ast.literal_eval(capsys.readouterr().out.strip())
    assert len(probs) == 2 and abs(sum(probs) - 1.0) <= 1e-9, probs


def test_run_config_example_validates(tmp_path):
    raw = json.loads(readme_block("### Run config", "json"))
    d = sg.generate_toy(sg.ToySpec("circle", 0.1, 64, 0))
    ds.save_table(d, tmp_path / "t.csv")
    ds.save_schema(d.schema, d.task, tmp_path / "s.json")
    for entry in raw["datasets"]:
        entry.update(table=str(tmp_path / "t.csv"), schema=str(tmp_path / "s.json"))
    for p in raw["predictors"]:
        if p["type"] == "external":
            p["path"] = str(tmp_path / f"{p['id']}.csv")
            Path(p["path"]).touch()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.validate_config(cli.RunConfig.from_file(path)) == []


def test_readme_names_every_config_key():
    """The README's list of the keys read names, for each section, the keys
    the load walk accepts there, and no other."""
    text = README.read_text(encoding="utf-8").split("\nThe keys read are:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for item in text.split("\n- "):
        label, keys = item.removeprefix("- ").split(": ", 1)
        listed[re.sub(r"^an? ", "", label)] = set(re.findall(r"`([^`]+)`", keys))
    entry = {"id", "type"}
    accepted = {"top level": set(cli.RunConfig.__dataclass_fields__),
                "dataset entry": set(cli.DatasetEntry.__dataclass_fields__),
                "`split`": set(cli._SPLIT_SPEC),
                "`retrieval`": set(cli.RetrievalConfig.__dataclass_fields__),
                "`prompt`": set(cli._PROMPT_SPEC)}
    accepted |= {f"`{t}` policy": entry | set(spec) for t, spec in cli._POLICY_SPECS.items()}
    accepted |= {f"`{t}` predictor": entry | set(spec) for t, spec in cli._PREDICTOR_SPECS.items()}
    assert listed == accepted
