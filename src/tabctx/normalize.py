"""Per-column normalization statistics fitted on the context pool.

Quantile mode is an interpolated empirical CDF over a sorted knot sample
(capped at 1000 evenly spaced order statistics for larger pools). Degenerate
columns (all missing, or a single distinct value) normalize to a constant,
0.5 for the bounded modes and 0 for standard mode, for every input including
NaN, so their distance contribution between any two rows is zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dataset as ds

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

    @cached_property
    def quantile_grid(self) -> np.ndarray:
        """CDF value at each quantile knot, computed once per column."""
        return np.linspace(0.0, 1.0, len(self.quantile_knots))


def fit_column(name: str, values: np.ndarray, mode: str) -> ColumnStats:
    if mode not in MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    n = len(vals)
    if mode == MODE_NONE:
        return ColumnStats(column=name, mode=mode, degenerate=False)
    if n == 0:
        return ColumnStats(column=name, mode=mode, degenerate=True)

    srt = np.sort(vals)
    degenerate = bool(srt[0] == srt[-1])
    if mode == MODE_QUANTILE:
        if n > KNOT_CAP:
            pick = np.round(np.linspace(0, n - 1, KNOT_CAP)).astype(np.int64)
            knots = srt[pick]
        else:
            knots = srt
        return ColumnStats(column=name, mode=mode, degenerate=degenerate, quantile_knots=knots)
    if mode == MODE_STANDARD:
        mean = float(np.mean(vals))
        std = float(np.std(vals))
        return ColumnStats(column=name, mode=mode, degenerate=bool(std == 0.0),
                           mean=mean, stddev=std)
    return ColumnStats(column=name, mode=mode, degenerate=degenerate,
                       vmin=float(srt[0]), vmax=float(srt[-1]))


def fit_stats(d: ds.Dataset, train_rows, mode: str = MODE_QUANTILE,
              overrides: dict[str, str] | None = None) -> dict[str, ColumnStats]:
    """Fit stats for every numerical feature from training rows only."""
    overrides = overrides or {}
    rows = np.asarray(train_rows, dtype=np.int64)
    out = {}
    for name in d.numerical_features:
        out[name] = fit_column(name, d.column(name)[rows], overrides.get(name, mode))
    return out


def apply_array(stats: ColumnStats, values) -> np.ndarray:
    """Vectorized normalization. NaN propagates for non-degenerate stats; the
    degenerate constant applies to every input."""
    v = np.asarray(values, dtype=np.float64)
    if stats.mode == MODE_NONE:
        return v.copy()
    if stats.degenerate:
        const = 0.0 if stats.mode == MODE_STANDARD else 0.5
        return np.full_like(v, const)
    if stats.mode == MODE_QUANTILE:
        return np.interp(v, stats.quantile_knots, stats.quantile_grid)
    if stats.mode == MODE_STANDARD:
        return (v - stats.mean) / stats.stddev
    out = (v - stats.vmin) / (stats.vmax - stats.vmin)
    return np.clip(out, 0.0, 1.0)

