"""tabctx benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload scaling-cls --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from ``--seed`` under
``.perfbench_work/``, times the public set-up calls (``setup_s``, the median
of at least three repetitions), then repeats whole rounds of the CLI verb,
each in a fresh process, until ``--seconds`` have passed since set-up began.
Every round's outputs are checked outside its timed region. A set-up that
takes less than ``SETUP_BURST_S`` is repeated for that long before the first
round and again after every round, so its median spans the whole run rather
than one moment of a machine whose speed drifts.

``--trace 0`` reports the end-to-end metrics: median ``run_s`` and
``peak_rss_mb`` over the rounds. ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics (medians over traced rounds) plus
``trace.overhead_s``, the traced minus the untraced median ``run_s``. The
metric names and units come from ``BENCHMARK.json``. The last line of
stdout is the result; progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROUND_TIMEOUT_S = 100
# The stub listens on 127.0.0.1; keep any configured proxy out of the way.
LOCAL_ENV = {**os.environ, "NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost"}
_LOCAL_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))
MIN_SETUPS = 3
SETUP_BURST_S = 0.25


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Stub:
    """The stub completion endpoint, in its own process."""

    def __init__(self, service_ms: int):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py"), str(service_ms)],
                                     stdout=subprocess.PIPE, text=True)
        try:
            port = int(self.proc.stdout.readline())
        except BaseException:
            self.close()
            raise
        self.base = f"http://127.0.0.1:{port}"

    def drain(self) -> list[str]:
        with _LOCAL_OPENER.open(f"{self.base}/drain", timeout=30) as resp:
            return json.loads(resp.read())["prompts"]

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _run_round(src: Path, argv: list[str], trace: bool, work: Path) -> dict:
    spec, result = work / "round_spec.json", work / "round_result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"src": str(src), "argv": argv, "trace": trace,
                                "result": str(result)}), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "round.py"), str(spec)],
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, env=LOCAL_ENV)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"round failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(result.read_text(encoding="utf-8"))
    if out["exit_code"] != 0:
        raise RuntimeError(f"tabctx {argv[0]} returned {out['exit_code']}")
    return out


def _time_setup(setup, times: list[float], min_reps: int) -> None:
    """Repeat the set-up at least ``min_reps`` times and for at least
    ``SETUP_BURST_S``, appending each repetition's wall time."""
    start = time.perf_counter()
    n = 0
    while n < min_reps or time.perf_counter() - start < SETUP_BURST_S:
        t0 = time.perf_counter()
        setup()
        times.append(time.perf_counter() - t0)
        n += 1


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        if name in workloads.NEEDS_STUB:
            stub = Stub(workloads.STUB_SERVICE_MS)
        wl = workloads.WORKLOADS[name](work, seed, stub and f"{stub.base}/v1/chat/completions")
        _log(f"{name} seed {seed}: inputs ready")
        deadline = time.perf_counter() + seconds
        setup_times: list[float] = []
        if trace:
            wl.setup()  # the checks reuse its split; a traced run reports no set-up time
        else:
            _time_setup(wl.setup, setup_times, MIN_SETUPS)
        attempted = failed = 0
        problems: list[str] = []
        plain, traced = [], []
        while True:
            use_trace = trace and len(plain) > len(traced)
            shutil.rmtree(wl.out_dir, ignore_errors=True)
            res = _run_round(root / "src", wl.argv, use_trace, work)
            prompts = stub.drain() if stub else []
            res["http_requests"] = len(prompts)
            ops, bad, round_problems = wl.check(wl.out_dir, prompts)
            attempted, failed = attempted + ops, failed + bad
            problems += round_problems
            (traced if use_trace else plain).append(res)
            _log(f"round {len(plain) + len(traced)}: run_s {res['run_s']:.3f} "
                 f"rss {res['peak_rss_mb']:.1f} MB traced={use_trace}")
            if setup_times and statistics.median(setup_times) < SETUP_BURST_S:
                _time_setup(wl.setup, setup_times, 1)
            if time.perf_counter() >= deadline and (not trace or traced):
                break
    finally:
        if stub:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        _log(f"CHECK FAILED: {p}")
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        requests = statistics.median(r["http_requests"] for r in traced)
        values.update({
            "predictors.llm.http_requests": requests,
            "predictors.llm.requests_per_prediction":
                requests / wl.llm_predictions if wl.llm_predictions else 0.0,
            "process.cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "trace.overhead_s": statistics.median(r["run_s"] for r in traced)
                                - statistics.median(r["run_s"] for r in plain),
        })
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "run_s": statistics.median(r["run_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the stub, the round process and the
    # work directory are cleaned up by the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "tabctx" / "cli.py").is_file():
        print(f"error: no tabctx sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
