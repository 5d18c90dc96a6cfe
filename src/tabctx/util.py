"""Shared helpers: seed derivation, deterministic JSON output, fold assignment,
and the one overflow rule.

The overflow rule: values whose largest magnitude reaches 2**500 (about
3e150) are scaled by a power of two to below it, which is exact, so that
their sums, differences and squares stay finite; ``headroom`` picks the
power. Smaller values keep theirs. Normalization, Pearson and PPS weights,
far-query ranking and regression means all follow it.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def subseed(root: int, *tags) -> int:
    """Stable 31-bit sub-seed derived from a root seed and string tags.

    Uses blake2b so the derivation is identical across platforms and runs
    (Python's hash() is salted and unusable here).
    """
    text = ":".join([str(int(root))] + [str(t) for t in tags])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def rng_for(root: int, *tags) -> np.random.Generator:
    """Named random stream; distinct tags give independent deterministic streams."""
    return np.random.default_rng(np.random.SeedSequence([int(root) & 0x7FFFFFFF, subseed(root, *tags)]))


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic k-fold partition of range(n): shuffled once, split into
    nearly equal chunks (sizes differ by at most one)."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = rng_for(seed, "kfold", n, k).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, k)]


def headroom(vmin: float, vmax: float) -> int:
    """The least e >= 0 with every |value| * 2**-e below 2**500, for
    values in [vmin, vmax]."""
    return max(0, math.frexp(max(-vmin, vmax))[1] - 500)


def finite_mean(values) -> float:
    """The mean of the values, finite when they are: ``np.mean`` when its sum
    stays finite, so such a mean keeps its bits, else the mean of the values
    scaled by the power of two that ``headroom`` picks, scaled back."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        mean = float(np.mean(x))
    if math.isfinite(mean) or not np.isfinite(x).all():
        return mean
    e = headroom(float(x.min()), float(x.max()))
    return float(np.ldexp(np.mean(np.ldexp(x, -e)), e))


def dump_json(path: str | Path, obj) -> None:
    """Write JSON with a fixed layout so reruns are byte-identical."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def fmt_float(x) -> str:
    """Canonical text form for floats in CSV output (repr round-trips exactly)."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))
