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

_ROW_BLOCK = 256  # anchors per block of the batch smoother


class DriftwatchError(ValueError):
    """Vanishing smoothing weights or a zero variance estimate at an eligible
    1-based ``index``; at an ineligible index they only keep it ineligible."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index

    @classmethod
    def raise_first(cls, bad, what: str, first: int = 1) -> None:
        """Raise at the first column of ``bad`` set in any row; column j is index first + j."""
        if isinstance(bad, bool):  # one index: skip the array set-up
            if bad:
                raise cls(f"{what} at index {first}", index=first)
            return
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


def _window_start(times, n: int, cfg: SmootherConfig) -> int:
    """0-based first record of the kernel-support window at 1-based index n.

    A record whose computed argument (t_i - t_n)/h falls below
    ``kernel.support[0]`` evaluates to an exact 0.  That argument is
    nondecreasing in t_i, rounding included, so bisecting on it finds the
    window without leaving out a nonzero weight.  A support right of 0 gives
    the empty window, start n.
    """
    t_n, h = times[n - 1], cfg.h
    return bisect_left(times, cfg.kernel.support[0], 0, n, key=lambda t: (t - t_n) / h)


def _lag_template(cfg: SmootherConfig, N: int) -> np.ndarray:
    """Unit-time weights K(-d/h)/h for the lags d = L-1, ..., 1, 0 of the support window.

    On unit-spaced times (``_unit_spaced``) the computed (t_i - t_n)/h is
    -d/h for the lag d = n - i exactly, so every anchor's window weights are
    the last entries of this template, bit for bit.  L, at most N, is the
    window length that ``_window_start`` gives at index N.
    """
    lags = N - _window_start(range(N), N, cfg)
    return cfg.kernel.evaluate(np.arange(1.0 - lags, 1.0) / cfg.h) / cfg.h


def _weights_at(times, cfg: SmootherConfig, n: int, horizon: int) -> tuple[int, np.ndarray]:
    """Smoothing weights at current index n for records start+1..n, with ``start``.

    The kernel is anchored at the observation times or, under a fixed
    design, at the design times of the given ``horizon`` (identical to the
    observation times when the series was generated under that design), and
    only the support window (``_window_start``) is weighted.  A rolling
    design re-selects the past time points at every current index, so it
    weights all n.
    """
    design = cfg.design
    if design is not None:
        if design.mode == "rolling":
            t = design_times(design, n, horizon)
            return 0, cfg.kernel.evaluate((t - t[-1]) / cfg.h) / cfg.h
        times = design_times(design, n, horizon)
    start = _window_start(times, n, cfg)
    args = (np.asarray(times[start:n], dtype=float) - times[n - 1]) / cfg.h
    return start, cfg.kernel.evaluate(args) / cfg.h


def _window_mean(start: int, w: np.ndarray, values, n: int) -> float:
    """Mean of ``values[start:n]`` under the weights ``w`` of ``_weights_at``.

    The one single-anchor smoother, behind ``nw_estimate`` and the streaming
    monitor, which may pass its weights as a slice of ``_lag_template``
    instead; raises DriftwatchError at index n when the weights vanish.
    """
    den = float(w.sum())  # a float takes check_weights' scalar path
    check_weights(den, first=n)
    return float(w @ np.asarray(values[start:n], dtype=float) / den)


def nw_estimate(series: TimeSeries, cfg: SmootherConfig, n: int) -> float:
    """Kernel-weighted mean of the first n observations, anchored at index n."""
    if not 1 <= n <= len(series):
        raise ValueError(f"need 1 <= n <= {len(series)}, got {n!r}")
    return _window_mean(*_weights_at(series.times, cfg, n, len(series)), series.values, n)


def nw_process(series: TimeSeries, cfg: SmootherConfig) -> np.ndarray:
    """The smoother at every index n = 1..N (step process on the n/N grid)."""
    num, den = _process_parts(series.times, series.values[None, :], cfg)
    check_weights(den)
    return (num / den)[0]


def _unit_spaced(t: np.ndarray) -> bool:
    """Whether ``t`` is t_0, t_0 + 1, ... with integer t_0, so that the
    computed t_i - t_n is i - n exactly."""
    return (len(t) > 0 and float(t[0]).is_integer() and abs(t[0]) + len(t) <= 2.0**53
            and np.array_equal(t, t[0] + np.arange(len(t))))


def _process_parts(times, values, cfg: SmootherConfig):
    """Numerators/denominator of the process for a batch of series (rows).

    Returns ``(num, den)`` with ``num`` of shape (batch, N) and ``den`` of
    shape (N,); the smoother is num/den.

    Anchors go in row blocks [a, b), and a block multiplies only the columns
    [lo, b) that can carry weight, lo being the support window start of
    anchor a; weights of later records are exact zeros, so the process stays
    exactly causal.  A block's weights come from one of three sources.  On
    unit-spaced times every weight is K(-d/h)/h for a lag d of the window,
    so the kernel is evaluated once per lag (``_lag_template``) and each
    block's weights are a view of one Toeplitz template, equal bit for bit to
    the kernel at (t_i - t_n)/h.  Other times, and a fixed design's times
    ``design_times(design, N, N)``, evaluate the kernel on the block's time
    differences and zero its upper triangle.  A rolling design re-selects
    the time points at every anchor: row n holds n F^{-1}(i/n) for records
    i <= b, snapped as ``design_times`` does, minus its diagonal entry, and
    lo = 0.
    """
    values = np.asarray(values, dtype=float)
    N = values.shape[1]
    num = np.empty_like(values)
    den = np.empty(N)
    kernel, h, design = cfg.kernel, cfg.h, cfg.design
    rolling = design is not None and design.mode == "rolling"
    if design is not None and not rolling:
        times = design_times(design, N, N)
    t = np.asarray(times, dtype=float)
    unit = not rolling and _unit_spaced(t)
    if unit:
        # the weight of lag d = n - i is k[lags - 1 - d]
        k = _lag_template(cfg, N)
        lags = len(k)
        # row r holds k from column r on; in block [a, b) column c is record a - (lags - 1) + c
        B = min(_ROW_BLOCK, N)
        template = np.zeros((B, B + lags))
        for r in range(B):
            template[r, r : r + lags] = k
    for a in range(0, N, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, N)
        lo = 0 if rolling else _window_start(t, a + 1, cfg)
        if unit:
            c = lo - a + lags - 1
            W = template[: b - a, c : c + b - lo]
        else:
            if rolling:
                n = np.arange(a + 1, b + 1)[:, None]
                rolled = design.snap(n * design.ft_inverse(np.arange(1, b + 1) / n))
                diff = rolled - rolled.diagonal(a)[:, None]
            else:
                diff = t[None, lo:b] - t[a:b, None]
            W = kernel.evaluate(diff / h) / h
            # causality: only i <= n contributes
            W[np.arange(lo, b)[None, :] > np.arange(a, b)[:, None]] = 0.0
        den[a:b] = W.sum(axis=1)
        num[:, a:b] = values[:, lo:b] @ W.T
    return num, den
