"""Smoke tests: each script under ``scripts/`` runs to the end against the
package in ``src/`` and prints what its docstring says."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    # pytest's warning filters do not reach a child process, so it gets its own
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_retrieval_tuning_demo_knobs_lower_nmae():
    out = run_script("retrieval_tuning_demo.py")
    cases = re.split(r"^case \d+:", out, flags=re.MULTILINE)[1:]
    assert len(cases) == 3
    for case in cases:
        # the default policy first, then the knob that fixes the case
        default, tuned = (float(v) for v in re.findall(r"nmae = ([0-9.]+)", case))
        assert tuned < default, case


def test_run_circle_scaling_small(tmp_path):
    out = run_script("run_circle_scaling.py", "--pool", "128", "--sizes", "32,64,128",
                     "--seeds", "1", "-o", str(tmp_path))
    assert f"outputs in {tmp_path}" in out
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert sorted(k.split("/")[0] for k in fits) == ["rag", "random"]
    assert (tmp_path / "run" / "predictions.csv").is_file()
