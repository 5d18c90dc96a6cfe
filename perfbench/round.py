"""One round of a workload: run a ``tabctx`` CLI verb in this fresh process.

Usage: python3 perfbench/round.py SPEC.json

SPEC holds ``src`` (the directory that contains the ``tabctx`` package),
``argv`` (the verb and its arguments), ``trace`` (record layer spans) and
``result`` (where to write the figures). The round's wall time covers
``cli.main`` from call to return, outputs included.

Peak resident memory is read from ``VmHWM`` in ``/proc/self/status``, the
high-water mark of this process's own address space. ``ru_maxrss`` is not
used: Linux carries it across ``exec`` from the parent that spawned the
round, so the benchmark's set-up phase would inflate it.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tabctx import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"tabctx imported from {cli.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    run_s = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": _peak_rss_kb() / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer.summary())
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
