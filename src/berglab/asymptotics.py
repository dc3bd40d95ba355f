"""Multiplicative-law fitting for kernel and distance sweeps.

The laws compared are two-sided multiplicative ("value stays within constant
factors of C * shape(x)"), so fits happen in log space: the constant is the
geometric mean of value/shape, the residual the median absolute log ratio,
and the stability band the spread of those ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientSpanError

#: model id -> shape(x); valid for log log (1/x) > 0.5
MODELS = {
    "K1": lambda x: 1.0 / (x**2 * np.log(1.0 / x)),
    "K2": lambda x: 1.0 / (x**2 * np.log(np.log(1.0 / x))),
    "D1": lambda x: np.log(np.log(1.0 / x)),
    "D2": lambda x: np.log(1.0 / x) / np.log(np.log(1.0 / x)),
}


@dataclass(frozen=True)
class AsymptoticFit:
    model: str
    C: float
    rel_residual: float  # median |log(value / (C * shape))|
    band: tuple[float, float]  # (min, max) of value / (C * shape)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "C": self.C,
            "rel_residual": self.rel_residual,
            "band_min": self.band[0],
            "band_max": self.band[1],
        }


def _validate(samples: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.array([s[0] for s in samples], dtype=float)
    vs = np.array([s[1] for s in samples], dtype=float)
    if xs.size < 5:
        raise InsufficientSpanError("need at least 5 samples")
    if np.any(xs <= 0) or np.any(vs <= 0):
        raise InsufficientSpanError("samples must be positive")
    # x < 1 first, so the logs below stay finite; "not all >" also rejects NaN
    if not np.all(xs < 1.0) or not np.all(np.log(np.log(1.0 / xs)) > 0.5):
        raise InsufficientSpanError("x too large: need x < 1 and log log (1/x) > 0.5")
    if not np.all(np.isfinite(vs)):
        raise InsufficientSpanError("sample values must be finite")
    span = np.log(np.log(1.0 / xs.min())) - np.log(np.log(1.0 / xs.max()))
    if span <= 0.0:
        raise InsufficientSpanError("degenerate x span")
    return xs, vs


def _median(a: np.ndarray) -> float:
    """``np.median``'s arithmetic, without its first call's import of numpy.ma."""
    s = np.sort(a)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def fit_model(samples: Sequence[tuple[float, float]], model: str) -> AsymptoticFit:
    """Geometric-mean constant and log-space residual for one model."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    xs, vs = _validate(samples)
    shape = MODELS[model](xs)
    log_ratio = np.log(vs / shape)
    C = math.exp(float(np.mean(log_ratio)))
    resid = _median(np.abs(log_ratio - math.log(C)))
    ratios = vs / (C * shape)
    return AsymptoticFit(model=model, C=C, rel_residual=resid, band=(float(ratios.min()), float(ratios.max())))


def select_model(
    samples: Sequence[tuple[float, float]], candidates: Iterable[str]
) -> tuple[str, float, dict[str, AsymptoticFit]]:
    """(preferred model, residual margin, all fits).

    margin = best residual / second-best residual; "inconclusive" is left
    to the caller via margin > 0.8.
    """
    fits = {m: fit_model(samples, m) for m in candidates}
    ranked = sorted(fits.values(), key=lambda f: f.rel_residual)
    if len(ranked) < 2:
        return ranked[0].model, 0.0, fits
    second = ranked[1].rel_residual
    margin = ranked[0].rel_residual / second if second > 0 else 0.0
    return ranked[0].model, margin, fits


def linear_fit_r2(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """(slope, intercept, R^2) of an ordinary least-squares line."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
