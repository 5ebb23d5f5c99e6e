"""The one-sided Nadaraya-Watson smoother and its scaled sequential process.

At index n the smoother is the kernel-weighted mean of the observations seen
so far, with weights K_h(t_i - t_n) over i = 1..n.  Only past and current
data enter, so the process is causal.  Three scalings turn the smoother into
a statistic with a nondegenerate limit: h N^{-3/2} for the random-walk null,
h^{1/2} N^{-3/2} for slowly vanishing drift alternatives, h N^{-1/2} for
stationary AR data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .seriesgen import TimeDesign, TimeSeries, design_times

SCALINGS = ("raw", "null_scale", "slow_alt_scale", "stationary_scale")

_ROW_BLOCK = 512  # bounds the weight-matrix working set


class DriftwatchError(ValueError):
    """Vanishing smoothing weights or a zero variance estimate at an eligible
    1-based ``index``; at an ineligible index they only keep it ineligible."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index

    @classmethod
    def raise_first(cls, bad, what: str, first: int = 1) -> None:
        """Raise at the first column of ``bad`` set in any row; column j is index first + j."""
        bad = np.asarray(bad)
        if bad.any():
            index = first + int(np.argmax(np.atleast_2d(bad).any(axis=0)))
            raise cls(f"{what} at index {index}", index=index)


DegenerateWeightsError = DriftwatchError


def check_weights(den, eligible=True, first: int = 1) -> None:
    """Raise DriftwatchError at the first eligible index whose weight sum ``den`` vanishes."""
    DriftwatchError.raise_first((den <= 0.0) & eligible, "smoothing weights vanish", first)


@dataclass(frozen=True)
class SmootherConfig:
    kernel: KernelSpec
    h: float
    scaling: str = "raw"
    design: TimeDesign | None = None

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"bandwidth must be positive, got {self.h!r}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")


def scaling_factor(cfg: SmootherConfig, N: int) -> float:
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N!r}")
    if cfg.scaling == "raw":
        return 1.0
    if cfg.scaling == "null_scale":
        return cfg.h * N**-1.5
    if cfg.scaling == "slow_alt_scale":
        return cfg.h**0.5 * N**-1.5
    return cfg.h * N**-0.5  # stationary_scale


def scaled_statistic(value: float, cfg: SmootherConfig, N: int) -> float:
    return value * scaling_factor(cfg, N)


def _weights_at(times, cfg: SmootherConfig, n: int, horizon: int) -> tuple[int, np.ndarray]:
    """Smoothing weights at current index n for records start+1..n, with ``start``.

    Without a design the observation times anchor the kernel, and only the
    support window is weighted: a record whose computed argument
    (t_i - t_n)/h falls below ``kernel.support[0]`` evaluates to an exact 0.
    That argument is nondecreasing in t_i, rounding included, so bisecting
    on it finds the window without leaving out a nonzero weight.  Rolling
    designs re-select the past time points at every current index, so they
    weight all n; fixed designs use the transformed horizon-wide times
    (identical to the plain path when the series was generated under that
    design).
    """
    if cfg.design is None:
        t_n, h = times[n - 1], cfg.h
        start = bisect_left(times, cfg.kernel.support[0], 0, n, key=lambda t: (t - t_n) / h)
        args = (np.asarray(times[start:n], dtype=float) - t_n) / h
    else:
        start = 0
        t = design_times(cfg.design, n, horizon)
        args = (t - t[-1]) / cfg.h
    return start, cfg.kernel.evaluate(args) / cfg.h


def anchored_estimate(times, values, cfg: SmootherConfig, n: int) -> float:
    """Kernel-weighted mean of records 1..n of the sequences ``times`` and ``values``.

    The one single-anchor smoother, behind ``nw_estimate`` and the streaming
    monitor; a design's horizon is ``len(times)``.  Its work is the support
    window, not n, unless a design is set.
    """
    start, w = _weights_at(times, cfg, n, len(times))
    den = w.sum()
    check_weights(den, first=n)
    return float(w @ np.asarray(values[start:n], dtype=float) / den)


def nw_estimate(series: TimeSeries, cfg: SmootherConfig, n: int) -> float:
    """Kernel-weighted mean of the first n observations, anchored at index n."""
    if not 1 <= n <= len(series):
        raise ValueError(f"need 1 <= n <= {len(series)}, got {n!r}")
    return anchored_estimate(series.times, series.values, cfg, n)


def nw_process(series: TimeSeries, cfg: SmootherConfig) -> np.ndarray:
    """The smoother at every index n = 1..N (step process on the n/N grid)."""
    num, den = _process_parts(series.times, series.values[None, :], cfg)
    check_weights(den)
    return (num / den)[0]


def _process_parts(times, values, cfg: SmootherConfig):
    """Numerators/denominator of the process for a batch of series (rows).

    Returns ``(num, den)`` with ``num`` of shape (batch, N) and ``den`` of
    shape (N,); the smoother is num/den.  Row blocks keep memory bounded.
    """
    values = np.asarray(values, dtype=float)
    N = values.shape[1]
    num = np.empty_like(values)
    den = np.empty(N)
    design = cfg.design
    if design is not None:
        # design weights vary per current index; no shared lower-triangular form
        for n in range(1, N + 1):
            _, w = _weights_at(times, cfg, n, N)
            den[n - 1] = w.sum()
            num[:, n - 1] = values[:, :n] @ w
        return num, den
    t = np.asarray(times, dtype=float)
    for start in range(0, N, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, N)
        args = (t[None, :] - t[start:stop, None]) / cfg.h
        W = cfg.kernel.evaluate(args) / cfg.h
        # causality: only i <= n contributes
        W[np.arange(1, N + 1)[None, :] > np.arange(start + 1, stop + 1)[:, None]] = 0.0
        den[start:stop] = W.sum(axis=1)
        num[:, start:stop] = values @ W.T
    return num, den
