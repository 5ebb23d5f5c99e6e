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
it at every n; the scalar estimators return its entry at n; a stream adds one
term per value with the step function of ``running_step`` on a tuple of
floats, which replaced the ``RunningVariance`` state object.  The naive
estimator absorbs any drift into the estimate; the difference-based ones
annihilate locally linear drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import DriftwatchError
from .seriesgen import TimeSeries, check_count

DegenerateVarianceError = DriftwatchError


@dataclass(frozen=True)
class VarianceEstimate:
    method: str
    value: float
    n_used: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"variance estimate must be >= 0, got {self.value!r}")


# method -> (a term from ``span`` consecutive first differences, span, factor); the
# differences are floats for one term or equal-shape columns for many
_METHODS = {
    "naive": (lambda d0: d0, 1, 1.0),
    "rice": (lambda d0, d1: d1 - d0, 2, 0.5),
    "gasser": (lambda d0, d1, d2: 0.5 * d0 + 0.5 * d2 - d1, 3, 2.0 / 3.0),
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
    if not min_sample(method) <= n <= len(series):
        raise ValueError(
            f"{method} variance needs {min_sample(method)} <= n <= {len(series)}, got {n}")
    check_count("n", n)
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


def standardized(mean: float, scale: float, est: float, n: int) -> float:
    """The chart at index n from the smoother's ``mean`` there: scaled by
    ``scale`` and divided by the root of the variance estimate ``est`` (1.0
    unless standardized); raises DriftwatchError at n when ``est`` is zero.
    A NaN ``est`` gives a NaN chart."""
    if est <= 0.0:
        check_variance(est, first=n)
    return mean * scale / math.sqrt(est)


def nuisance_free(statistic: float, est: VarianceEstimate) -> float:
    """Standardize a statistic on the scale of Y: statistic / sqrt(estimate)."""
    return standardized(statistic, 1.0, est.value, est.n_used)


# ---------------------------------------------------------------------------
# running (prequential) estimates over all prefixes, optionally seeded with
# the increments of a prerun segment
# ---------------------------------------------------------------------------


_STRIP = 256  # term columns per strip of running_estimates


def _terms(method: str, d: np.ndarray, a: int = 0, b: int | None = None) -> np.ndarray:
    """Terms a..b-1 (default: every term) of the rows of first differences ``d``; term j
    takes columns j..j+span-1."""
    terms_of, span, _ = _method(method)
    b = max(d.shape[1] - span + 1, 0) if b is None else b
    return terms_of(*(d[:, a + j : b + j] for j in range(span)))


def _prerun_head(prerun_increments, method: str, batch: int) -> tuple[np.ndarray, int]:
    """Sum of squared prerun terms for each of ``batch`` rows, and the prerun's term count.

    A one-row prerun serves every row.
    """
    span = _method(method)[1]
    p = np.zeros((batch, 0)) if prerun_increments is None else np.atleast_2d(
        np.asarray(prerun_increments, dtype=float)
    )
    if p.shape[0] == 1 and batch > 1:
        p = np.broadcast_to(p, (batch, p.shape[1]))
    t = _terms(method, p)
    # the prerun alone carries max(m_p - span + 1, 0) terms
    return np.sum(t * t, axis=1), max(p.shape[1] - span + 1, 0)


def running_estimates(
    values: np.ndarray, method: str, prerun_increments: np.ndarray | None = None
) -> np.ndarray:
    """Variance estimate using data up to index n, for every n = 1..N.

    Entries where the estimator is undefined are NaN.  Prerun increments are
    a separate segment: they contribute their own terms but no term that
    spans the junction with the series.  The estimates are built in the one
    output, each step in place: the first differences go to its columns 1..,
    the terms over them to its columns span.. (the naive terms are the
    differences themselves).  Rice and gasser terms go in strips of
    ``_STRIP`` columns from the right end: term j reads the differences in
    columns j+1..j+span and is written to column j+span, so no strip
    overwrites a difference that a strip to its left still reads, and only
    one strip's terms are allocated at a time.  ``values`` is left as it is.
    """
    _, span, factor = _method(method)
    values = np.asarray(values, dtype=float)
    squeeze = values.ndim == 1
    values = np.atleast_2d(values)
    batch, N = values.shape
    head, cnt0 = _prerun_head(prerun_increments, method, batch)

    out = np.empty((batch, N))
    if N > span:
        d = np.subtract(values[:, 1:], values[:, :-1], out=out[:, 1:])
        body = out[:, span:]
        if span > 1:
            for b in range(N - span, 0, -_STRIP):
                a = max(b - _STRIP, 0)
                body[:, a:b] = _terms(method, d, a, b)
        np.square(body, out=body)
        np.cumsum(body, axis=1, out=body)
        body += head[:, None]
        body *= factor
        body /= cnt0 + np.arange(1, N - span + 1)
    # up to index span the series carries no term of its own
    out[:, :span] = (factor * head / cnt0)[:, None] if cnt0 else np.nan
    return out[0] if squeeze else out


def running_step(method: str, prerun_increments=None):
    """``running_estimates`` one value at a time, as ``(step, state)``:
    ``step(state, y, n)`` returns the state after the n-th value ``y`` and the
    estimate at n (NaN where undefined), bitwise ``running_estimates(values[:n],
    method, prerun_increments)[n - 1]`` (the same terms, summed in ``cumsum``'s
    order).  A state is a tuple of floats: the sum of squared terms, the last
    span - 1 first differences and the last value."""
    terms_of, span, factor = _method(method)
    head, cnt0 = _prerun_head(prerun_increments, method, 1)
    head = float(head[0])
    undefined = factor * head / cnt0 if cnt0 else math.nan

    def step(state, y, n):
        total, diffs, last = state
        # at n = 1 the difference is a placeholder that no term takes
        diffs = (*diffs, y - last)
        if n <= span:
            return (total, diffs[1:], y), undefined
        term = terms_of(*diffs)
        total += term * term
        return (total, diffs[1:], y), factor * (head + total) / (cnt0 + n - span)

    return step, (0.0, (0.0,) * (span - 1), 0.0)
