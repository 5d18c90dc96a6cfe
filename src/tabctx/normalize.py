"""Per-column normalization statistics fitted on the context pool.

Quantile mode is an interpolated empirical CDF over a sorted knot sample
(capped at 1000 evenly spaced order statistics for larger pools). Degenerate
columns (all missing, or a single distinct value) normalize to a constant,
0.5 for the bounded modes and 0 for standard mode, for every input including
NaN, so their distance contribution between any two rows is zero.

Standard, minmax and none follow ``util``'s overflow rule: a column whose
largest finite magnitude reaches 2**500 (about 3e150) is scaled by the power
of two ``util.headroom`` picks, and its statistics and every normalized value
use the scaled numbers. A difference of two such values and
its square then stay finite, and so do the standard deviation's squares for
columns of fewer than 2**22 finite cells. Smaller columns keep their values.
The scaling is exact, so standard and minmax give the same values at any
scale, up to the rounding of values it takes below the normal range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dataset as ds
from .util import headroom

MODE_QUANTILE = "quantile"
MODE_STANDARD = "standard"
MODE_MINMAX = "minmax"
MODE_NONE = "none"
MODES = (MODE_QUANTILE, MODE_STANDARD, MODE_MINMAX, MODE_NONE)

KNOT_CAP = 1000


@dataclass(frozen=True)
class ColumnStats:
    column: str
    mode: str
    degenerate: bool
    quantile_knots: np.ndarray | None = None
    mean: float = 0.0
    stddev: float = 0.0
    vmin: float = 0.0
    vmax: float = 0.0
    # standard, minmax and none read values as v * 2**-exponent; 0 unless the
    # column's largest magnitude reaches 2**500
    exponent: int = 0

    @cached_property
    def quantile_grid(self) -> np.ndarray:
        """CDF value at each quantile knot, computed once per column."""
        return np.linspace(0.0, 1.0, len(self.quantile_knots))


def fit_column(name: str, values: np.ndarray, mode: str) -> ColumnStats:
    if mode not in MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        return ColumnStats(column=name, mode=mode, degenerate=mode != MODE_NONE)
    if mode == MODE_QUANTILE:
        knots = np.sort(vals)
        if len(knots) > KNOT_CAP:
            knots = knots[np.round(np.linspace(0, len(knots) - 1, KNOT_CAP)).astype(np.int64)]
        return ColumnStats(column=name, mode=mode, degenerate=bool(knots[0] == knots[-1]),
                           quantile_knots=knots)
    vmin, vmax = float(vals.min()), float(vals.max())
    exponent = headroom(vmin, vmax)
    if mode == MODE_NONE:
        return ColumnStats(column=name, mode=mode, degenerate=False, exponent=exponent)
    if mode == MODE_STANDARD:
        vals = np.ldexp(vals, -exponent)
        mean, std = float(np.mean(vals)), float(np.std(vals))
        return ColumnStats(column=name, mode=mode, degenerate=bool(std == 0.0),
                           mean=mean, stddev=std, exponent=exponent)
    return ColumnStats(column=name, mode=mode, degenerate=vmin == vmax,
                       vmin=math.ldexp(vmin, -exponent), vmax=math.ldexp(vmax, -exponent),
                       exponent=exponent)


def fit_stats(d: ds.Dataset, train_rows, mode: str = MODE_QUANTILE,
              overrides: dict[str, str] | None = None) -> dict[str, ColumnStats]:
    """Fit stats for every numerical feature from training rows only."""
    overrides = overrides or {}
    rows = np.asarray(train_rows, dtype=np.int64)
    return {name: fit_column(name, d.column(name)[rows], overrides.get(name, mode))
            for name in d.numerical_features}


def apply_array(stats: ColumnStats, values) -> np.ndarray:
    """Vectorized normalization. NaN propagates for non-degenerate stats; the
    degenerate constant applies to every input."""
    v = np.asarray(values, dtype=np.float64)
    if stats.mode == MODE_NONE:
        return np.ldexp(v, -stats.exponent) if stats.exponent else v.copy()
    if stats.degenerate:
        const = 0.0 if stats.mode == MODE_STANDARD else 0.5
        return np.full_like(v, const)
    if stats.mode == MODE_QUANTILE:
        return np.interp(v, stats.quantile_knots, stats.quantile_grid)
    if stats.exponent:
        v = np.ldexp(v, -stats.exponent)
    # a value far outside the fitted range overflows to +-inf, which retrieval
    # counts as missing (standard) and the clip maps to 1 or 0 (minmax)
    with np.errstate(over="ignore"):
        if stats.mode == MODE_STANDARD:
            return (v - stats.mean) / stats.stddev
        out = (v - stats.vmin) / (stats.vmax - stats.vmin)
    return np.clip(out, 0.0, 1.0)

