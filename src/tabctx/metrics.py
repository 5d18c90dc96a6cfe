"""Scoring: AUROC, normalized MAE, group-wise min-max scaling, and the
log-log power-law fit used for scaling curves."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import finite_mean

METRIC_AUROC = "auroc"
METRIC_NMAE = "nmae"


def auroc_binary(y: np.ndarray, scores: np.ndarray) -> float | None:
    """Rank-based (Mann-Whitney) AUROC; tied scores contribute one half.
    Returns None when either class is absent. NaN scores, which no predictor
    gives, rank last as one tie group."""
    y = np.asarray(y).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a tie group's rank is the mean of its 1-based positions in sorted order,
    # a half-integer, so it is exact
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(np.sum(ranks[y]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auroc(labels, prob_matrix, class_labels) -> float | None:
    """Unweighted one-vs-rest average over the classes present in the labels.
    A single-class test set has no defined value."""
    labels = np.asarray(labels, dtype=object)
    P = np.asarray(prob_matrix, dtype=np.float64)
    present = [i for i, c in enumerate(class_labels) if np.any(labels == c)]
    if len(present) < 2:
        return None
    vals = [v for i in present if (v := auroc_binary(labels == class_labels[i], P[:, i])) is not None]
    return float(np.mean(vals)) if vals else None


def nmae(labels, estimates) -> float | None:
    """Mean absolute error over the test set divided by |mean(label)|, both
    means from ``util.finite_mean``, so labels near the float maximum have
    them. Undefined (None) when the label mean is zero or not finite, or the
    ratio is not finite: a subnormal label mean can overflow it, and so can
    an estimate whose error overflows a float."""
    y = np.asarray(labels, dtype=np.float64)
    est = np.asarray(estimates, dtype=np.float64)
    if len(y) != len(est):
        raise ValueError("labels and estimates differ in length")
    denom = abs(finite_mean(y))
    if denom == 0.0 or not math.isfinite(denom):
        return None
    with np.errstate(over="ignore"):
        error = finite_mean(np.abs(est - y))
    value = error / denom
    return value if math.isfinite(value) else None


def minmax_normalize(values, higher_better: bool = True) -> list[float]:
    """Rescale one dataset's per-method scores to [0, 1] with 1 as best.
    An all-equal group maps to all ones."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least 2 methods to normalize")
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return [1.0] * len(vals)
    out = [(v - lo) / (hi - lo) for v in vals]
    return out if higher_better else [1.0 - v for v in out]


@dataclass(frozen=True)
class PowerLawFit:
    d_c: float | None
    alpha: float
    r_squared: float
    points: tuple[tuple[float, float], ...]
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {"d_c": self.d_c, "alpha": self.alpha, "r_squared": self.r_squared,
                "points": [list(p) for p in self.points], "degenerate": self.degenerate}


def fit_power_law(points) -> PowerLawFit:
    """Least squares on log L = alpha*log(d_c) - alpha*log(D). A slope within
    1e-9 of zero leaves the scale constant undefined, and so does a near-flat
    slope whose d_c = exp(intercept / alpha) overflows or underflows to 0."""
    if bad := [p for p in points if len(p) != 2]:
        raise ValueError(f"point {bad[0]!r} is not a [D, L] pair")
    pts = [(float(d), float(l)) for d, l in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    for d, l in pts:
        if d <= 0 or l <= 0:
            raise ValueError(f"points must be positive, got ({d}, {l})")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    alpha = float(-slope)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    try:
        d_c = math.exp(intercept / alpha) if abs(alpha) >= 1e-9 else 0.0
    except OverflowError:
        d_c = math.inf
    if not 0.0 < d_c < math.inf:
        return PowerLawFit(None, alpha, r2, tuple(pts), degenerate=True)
    return PowerLawFit(d_c, alpha, r2, tuple(pts))
