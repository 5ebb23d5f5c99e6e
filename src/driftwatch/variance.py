"""Nuisance-variance estimators built on first differences.

All three estimators see the data only through the increments
d_i = Y_{i+1} - Y_i, so they are invariant to level shifts.  Each is one
entry of a method table: the terms it builds from first differences, how
many increments one term spans, and the factor that makes the mean squared
term unbiased for sigma^2 under i.i.d. increments:

    naive    d_i                                span 1, factor 1
    rice     d_{i+1} - d_i                      span 2, factor 1/2
    gasser   0.5 d_{i-1} + 0.5 d_{i+1} - d_i    span 3, factor 2/3

The estimate at index n is the factor times the mean squared term over the
data up to n, defined from n = span + 1 on.  ``running_estimates`` computes
it at every n; the scalar estimators return its entry at n.  The naive
estimator absorbs any drift into the estimate; the difference-based ones
annihilate locally linear drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import DriftwatchError
from .seriesgen import TimeSeries

DegenerateVarianceError = DriftwatchError


@dataclass(frozen=True)
class VarianceEstimate:
    method: str
    value: float
    n_used: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"variance estimate must be >= 0, got {self.value!r}")


# method -> (terms from rows of first differences, increments one term spans, factor)
_METHODS = {
    "naive": (lambda d: d, 1, 1.0),
    "rice": (lambda d: np.diff(d, axis=1), 2, 0.5),
    "gasser": (lambda d: 0.5 * d[:, :-2] + 0.5 * d[:, 2:] - d[:, 1:-1], 3, 2.0 / 3.0),
}


def _method(method: str):
    try:
        return _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown variance method {method!r}; choose from {sorted(_METHODS)}") from None


def min_sample(method: str) -> int:
    """Smallest n at which the estimator is defined."""
    return _method(method)[1] + 1


def _scalar(series: TimeSeries, n: int | None, method: str) -> float:
    n = len(series) if n is None else n
    if n < min_sample(method):
        raise ValueError(f"{method} variance needs n >= {min_sample(method)}, got {n}")
    return float(running_estimates(series.values[:n], method)[n - 1])


def naive_var(series: TimeSeries, n: int | None = None) -> float:
    """Mean squared first difference over i = 2..n (divisor n-1)."""
    return _scalar(series, n, "naive")


def gasser_var(series: TimeSeries, n: int | None = None) -> float:
    """Local-linear pseudo-residual estimator (2/3) * mean(eps^2) (divisor n-3)."""
    return _scalar(series, n, "gasser")


def rice_var(series: TimeSeries, n: int | None = None) -> float:
    """Half the mean squared second difference (divisor n-2)."""
    return _scalar(series, n, "rice")


def estimate_variance(series: TimeSeries, method: str, n: int | None = None) -> VarianceEstimate:
    n = len(series) if n is None else n
    return VarianceEstimate(method=method, value=_scalar(series, n, method), n_used=n)


def check_variance(est, eligible=True, first: int = 1) -> None:
    """Raise DriftwatchError at the first eligible index whose variance estimate is zero."""
    DriftwatchError.raise_first((est <= 0.0) & eligible, "variance estimate is zero", first)


def nuisance_free(statistic: float, est: VarianceEstimate) -> float:
    """Standardize a statistic on the scale of Y: statistic / sqrt(estimate)."""
    check_variance(est.value, first=est.n_used)
    return statistic / np.sqrt(est.value)


# ---------------------------------------------------------------------------
# running (prequential) estimates over all prefixes, optionally seeded with
# the increments of a prerun segment
# ---------------------------------------------------------------------------


def running_estimates(
    values: np.ndarray, method: str, prerun_increments: np.ndarray | None = None
) -> np.ndarray:
    """Variance estimate using data up to index n, for every n = 1..N.

    Entries where the estimator is undefined are NaN.  Prerun increments are
    a separate segment: they contribute their own terms but no term that
    spans the junction with the series.
    """
    terms_of, span, factor = _method(method)
    values = np.asarray(values, dtype=float)
    squeeze = values.ndim == 1
    values = np.atleast_2d(values)
    batch, N = values.shape
    p = np.zeros((batch, 0)) if prerun_increments is None else np.atleast_2d(
        np.asarray(prerun_increments, dtype=float)
    )
    if p.shape[0] == 1 and batch > 1:
        p = np.broadcast_to(p, (batch, p.shape[1]))
    # the prerun alone carries max(m_p - span + 1, 0) terms
    cnt0 = max(p.shape[1] - span + 1, 0)
    t = terms_of(p)
    head = np.sum(t * t, axis=1)

    out = np.full((batch, N), np.nan)
    # up to index span the series carries no term of its own
    if cnt0:
        out[:, :span] = (factor * head / cnt0)[:, None]
    if N > span:
        terms = terms_of(np.diff(values, axis=1))
        counts = cnt0 + np.arange(1, N - span + 1)
        out[:, span:] = factor * (head[:, None] + np.cumsum(terms * terms, axis=1)) / counts
    return out[0] if squeeze else out
