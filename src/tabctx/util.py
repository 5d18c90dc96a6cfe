"""Shared helpers: seed derivation, JSON loading with its one shape check and
deterministic output, fold assignment, and the one overflow rule.

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
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

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
    with np.errstate(over="ignore", invalid="ignore"):  # partial sums may overflow with both signs
        mean = float(np.mean(x))
    if math.isfinite(mean) or not np.isfinite(x).all():
        return mean
    e = headroom(float(x.min()), float(x.max()))
    return float(np.ldexp(np.mean(np.ldexp(x, -e)), e))


def dump_json(path: str | Path, obj) -> None:
    """Write JSON with a fixed layout so reruns are byte-identical."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def load_json(path: str | Path):
    """A JSON file's content; a syntax error raises ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


# the JSON values each plain type allows (int excludes bool), and its name in messages
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
               bool: ((bool,), "true or false"), dict: ((dict,), "a JSON object"),
               list: ((list,), "a list"), tuple: ((list,), "a list")}


def json_problems(where: str, spec, raw, required=()) -> list[str]:
    """Each problem of the JSON value ``raw`` under ``spec``, named by its path
    after ``where``: a value of a JSON type the spec does not allow (it is not
    walked further), and in an object a key the spec does not name or a
    ``required`` key it lacks. A spec is a plain type, ``list[X]``,
    ``tuple[X, ...]``, ``X | None``, a dict of specs by key, a dataclass (its
    fields; those without a default are required), or ``Annotated[dict, spec]``
    with a spec or a function of the object that gives its dict of specs."""
    if type(spec) is UnionType:  # X | None
        return [] if raw is None else json_problems(where, get_args(spec)[0], raw)
    if get_origin(spec) is Annotated:
        spec = spec.__metadata__[0]
    if isinstance(get_origin(spec) or spec, type) and not is_dataclass(spec):
        allowed, name = _JSON_TYPES[get_origin(spec) or spec]
        if type(raw) not in allowed:
            return [f"{where} must be {name}, not {reprlib.repr(raw)}"]
        if not (args := get_args(spec)):
            return []
        fits = _JSON_TYPES.get(args[0], ((),))[0]  # so an item's path is made only when it fails
        return [p for i, v in enumerate(raw) if type(v) not in fits
                for p in json_problems(f"{where}[{i}]", args[0], v)]
    if type(raw) is not dict:
        return [f"{where or 'the top level'} must be a JSON object, not {reprlib.repr(raw)}"]
    if is_dataclass(spec):
        required = [f.name for f in fields(spec) if f.default is f.default_factory is MISSING]
        spec = get_type_hints(spec, include_extras=True)
    elif callable(spec):
        spec = spec(raw)
    at = f"{where}." if where else ""
    problems = [f"unknown key {at}{k}" for k in raw if k not in spec]
    problems += [f"missing key {at}{k}" for k in required if k not in raw]
    return problems + [p for k, s in spec.items() if k in raw for p in json_problems(at + k, s, raw[k])]


def fmt_float(x) -> str:
    """Canonical text form for floats in CSV output (repr round-trips exactly)."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))
