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
from scipy import fft

from .kernels import KernelSpec, check_bandwidth
from .seriesgen import TimeDesign, TimeSeries, check_count, design_times

SCALINGS = ("raw", "null_scale", "slow_alt_scale", "stationary_scale")

_ROW_BLOCK = 256  # anchors per block of the batch smoother
# rows per FFT batch (CausalFilter), and per batch of calibration replicates, finite and limit,
# taken from transform to stop through buffers made once per chunk: whole-chunk arrays raised
# the peak RSS, and batch arrays made afresh and freed made glibc trim and refault its heap
FFT_ROWS = 32
EXACT = 2.0**53  # integers up to this magnitude, and their differences, are exact floats


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
        check_bandwidth(self.h)
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")


def scaling_factor(cfg: SmootherConfig, N: int) -> float:
    check_count("horizon", N, 1)
    if cfg.scaling == "raw":
        return 1.0
    if cfg.scaling == "null_scale":
        return cfg.h * N**-1.5
    if cfg.scaling == "slow_alt_scale":
        return cfg.h**0.5 * N**-1.5
    return cfg.h * N**-0.5  # stationary_scale


def scaled_statistic(value: float, cfg: SmootherConfig, N: int) -> float:
    return value * scaling_factor(cfg, N)


def _window_start(times, n: int, cfg: SmootherConfig, lo: int = 0) -> int:
    """0-based first record of the kernel-support window at 1-based index n.

    A record whose computed argument (t_i - t_n)/h falls below
    ``kernel.support[0]`` evaluates to an exact 0.  That argument is
    nondecreasing in t_i and nonincreasing in t_n, rounding included, so
    bisecting on it finds the window without leaving out a nonzero weight,
    and may begin at ``lo``, the start at an earlier index.  A support right
    of 0 gives the empty window, start n.
    """
    t_n, h = times[n - 1], cfg.h
    return bisect_left(times, cfg.kernel.support[0], lo, n, key=lambda t: (t - t_n) / h)


def lag_rows(cfg: SmootherConfig, N: int, rows: int) -> np.ndarray:
    """Toeplitz template for blocks of up to ``rows`` anchors on unit-spaced times.

    Row r holds K(-d/h)/h for the lags d = L-1, ..., 1, 0 of the support
    window from column r on, L (at most N) being the window length that
    ``_window_start`` gives at index N.  On unit-spaced times (``_unit_spaced``)
    the computed (t_i - t_n)/h is -d/h for the lag d = n - i exactly.
    """
    lags = N - _window_start(range(N), N, cfg)
    k = cfg.kernel.evaluate(np.arange(1.0 - lags, 1.0) / cfg.h) / cfg.h
    template = np.zeros((rows, rows + lags))
    for r in range(rows):
        template[r, r : r + lags] = k
    return template


def block_weights(t: np.ndarray, a: int, b: int, cfg: SmootherConfig, template=None,
                  lo: int = 0) -> tuple[int, np.ndarray]:
    """Weights ``W`` of the anchors a+1..b (rows) on the records lo+1..b, with ``lo``.

    ``t`` holds the anchor times (``anchor_times``) and ``lo`` a window start
    at an earlier anchor.  A ``lag_rows`` template, which the caller passes
    only where the windows and the record before each lie on unit-spaced
    times, gives lo = max(a + 1 - L, 0) and a view of the template, bit for
    bit the kernel at (t_i - t_n)/h.  A rolling design re-selects the time
    points at every anchor: row n holds n F^{-1}(i/n) for records i <= b,
    snapped as ``design_times`` does, minus its diagonal entry, and lo = 0.
    Other times take the kernel on t[lo:b] - t[a:b] from the support window
    start of anchor a + 1.  Weights of later records are exact zeros.
    """
    if template is not None:
        rows, cols = template.shape
        lags = cols - rows
        lo = max(a + 1 - lags, 0)
        # in block [a, b) column c of the template is record a - (lags - 1) + c
        c = lo - a + lags - 1
        return lo, template[: b - a, c : c + b - lo]
    design, h = cfg.design, cfg.h
    if design is not None and design.mode == "rolling":
        lo = 0
        n = np.arange(a + 1, b + 1)[:, None]
        rolled = design.snap(n * design.ft_inverse(np.arange(1, b + 1) / n))
        diff = rolled - rolled.diagonal(a)[:, None]
    else:
        lo = _window_start(t, a + 1, cfg, lo)
        diff = t[None, lo:b] - t[a:b, None]
    W = cfg.kernel.evaluate(diff / h) / h
    if b - a > 1:  # causality: only i <= n contributes; one anchor sees no later record
        W[np.arange(lo, b)[None, :] > np.arange(a, b)[:, None]] = 0.0
    return lo, W


def anchor_times(times, cfg: SmootherConfig, horizon: int):
    """The times the kernel is anchored at: under a fixed design its times
    placed by ``horizon``, whose first n do not depend on n, else ``times``."""
    design = cfg.design
    if design is not None and design.mode == "fixed":
        return design_times(design, horizon, horizon)
    return times


def window_mean(t: np.ndarray, values: np.ndarray, n: int, cfg: SmootherConfig, template=None,
                lo: int = 0) -> tuple[int, float]:
    """Window start and smoother at index n, from the one-anchor block
    [n - 1, n); raises DriftwatchError at n when the weights vanish."""
    lo, W = block_weights(t, n - 1, n, cfg, template, lo)
    w = W[0]
    den = float(w.sum())  # a float takes check_weights' scalar path
    check_weights(den, first=n)
    return lo, weighted_mean(w, den, values[lo:n])


def weighted_mean(w: np.ndarray, den: float, values: np.ndarray) -> float:
    """The smoother from its window's weights ``w``, their checked sum ``den``
    and the window's ``values``; a stream on unit-spaced times holds the full
    window's ``w`` and ``den``.  ``ndarray.dot`` is ``@``'s BLAS ``ddot``
    with less call overhead."""
    return float(w.dot(values) / den)


def nw_estimate(series: TimeSeries, cfg: SmootherConfig, n: int) -> float:
    """Kernel-weighted mean of the first n observations, anchored at index n."""
    check_count("n", n, 1, len(series))
    return window_mean(anchor_times(series.times, cfg, len(series)), series.values, n, cfg)[1]


def nw_process(series: TimeSeries, cfg: SmootherConfig) -> np.ndarray:
    """The smoother at every index n = 1..N (step process on the n/N grid)."""
    num, den = _process_parts(series.times, series.values[None, :], cfg)
    check_weights(den)
    return (num / den)[0]


def _unit_spaced(t: np.ndarray) -> bool:
    """Whether ``t`` is t_0, t_0 + 1, ... with integer t_0, so that the
    computed t_i - t_n is i - n exactly."""
    return (len(t) > 0 and float(t[0]).is_integer() and abs(t[0]) + len(t) <= EXACT
            and np.array_equal(t, t[0] + np.arange(len(t))))


class CausalFilter:
    """Causal convolution of rows of N columns with the lag kernel ``k``.

    Entry n of a row's result is sum_d k[d] row[n - d] over the lags d <= n,
    for n in [0, N).  The sums are the first N columns of the full linear
    convolution, taken by a real FFT of the next fast length L from
    N + len(k) - 1 on batches of ``FFT_ROWS`` rows; a row's sums do not
    depend on the rows that share its batch.  They carry FFT rounding, so an
    exact zero sum may come out as a value of order 1e-17, and entry n picks
    up rounding from the values after n.  The transform of ``k`` is taken
    once, so a caller that convolves batch after batch with one kernel
    builds one filter.

    A batch of up to ``FFT_ROWS`` rows goes through three buffers, made on
    first use and kept: the rows padded with zeros to the transform length,
    their spectrum and the inverse transform.  Its sums come back as a view
    of the last, which the next call overwrites; more rows come back in a new
    array, batch by batch.  Rows written into ``rows_in`` are transformed
    where they are.  The transforms are ``numpy.fft``'s with ``out=``, the
    pocketfft that ``scipy.fft`` runs, with the same bits.
    """

    def __init__(self, k, N: int):
        self.N = N
        self.L = fft.next_fast_len(N + max(len(k), 1) - 1, True)
        self._k_hat = np.fft.rfft(k, self.L)
        self._padded = self._spectrum = self._sums = None

    def rows_in(self, n: int) -> np.ndarray:
        """The first N columns of the first n <= FFT_ROWS rows of the padded input."""
        if self._padded is None or len(self._padded) < n:
            self._padded = np.zeros((n, self.L))
            self._spectrum = np.empty((n, self.L // 2 + 1), dtype=complex)
            self._sums = np.empty((n, self.L))
        return self._padded[:n, : self.N]

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        n = len(rows)
        if n > FFT_ROWS:
            sums = np.empty((n, self.N))
            for a in range(0, n, FFT_ROWS):
                sums[a : a + FFT_ROWS] = self(rows[a : a + FFT_ROWS])
            return sums
        padded = self.rows_in(n)
        if not np.may_share_memory(rows, padded):
            padded[...] = rows
        spectrum = np.fft.rfft(self._padded[:n], out=self._spectrum[:n])
        spectrum *= self._k_hat
        return np.fft.irfft(spectrum, self.L, out=self._sums[:n])[:, : self.N]


def whole_row_terms(cfg: SmootherConfig, N: int) -> tuple[np.ndarray, CausalFilter]:
    """``(den, sums_of)`` for rows given whole on the unit times 1..N without a design:
    the ``lag_rows`` template's exact row sums, as the banded smoother takes them, and
    the ``CausalFilter`` of its lag kernel.  Neither depends on the rows, so a caller
    that smooths batch after batch builds them once (``_process_parts(terms=...)``)."""
    template = lag_rows(cfg, N, min(_ROW_BLOCK, N))
    den = np.empty(N)
    for a in range(0, N, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, N)
        den[a:b] = block_weights(None, a, b, cfg, template)[1].sum(axis=1)
    # row 0 holds the kernel at the lags L-1, ..., 0 in its first L columns
    k = template[0, : template.shape[1] - template.shape[0]][::-1].copy()
    return den, CausalFilter(k, N)


def _process_parts(times, values, cfg: SmootherConfig, *, terms=None):
    """Numerators/denominator of the process for a batch of series (rows).

    Returns ``(num, den)`` with ``num`` of shape (batch, N) and ``den`` of
    shape (N,); the smoother is num/den.

    Anchors go in row blocks [a, b), and a block multiplies only the columns
    [lo, b) that can carry weight (``block_weights``).  On unit-spaced
    times, without a rolling design, every weight is K(-d/h)/h for a lag d
    of the window, so the kernel is evaluated once per lag and each block's
    weights are a view of one ``lag_rows`` template.  A fixed design is
    smoothed on its times ``design_times(design, N, N)`` (``anchor_times``).

    ``terms``, the ``whole_row_terms(cfg, N)`` of rows given whole on the
    unit times 1..N, says that an entry need not be computed from its prefix
    alone.  The numerator is then the causal convolution of the rows with the
    lag kernel by FFT, equal to the banded one up to FFT rounding, and up to
    ``FFT_ROWS`` rows of it are a view that the next call with these terms
    overwrites.  The denominator is the template's exact row sums, so
    vanishing weights are still exact zeros.
    """
    values = np.asarray(values, dtype=float)
    if terms is not None:
        den, sums_of = terms
        return sums_of(values), den
    N = values.shape[1]
    den = np.empty(N)
    t = np.asarray(anchor_times(times, cfg, N), dtype=float)
    template = None
    if (cfg.design is None or cfg.design.mode == "fixed") and _unit_spaced(t):
        template = lag_rows(cfg, N, min(_ROW_BLOCK, N))
    num = np.empty_like(values)
    lo = 0
    for a in range(0, N, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, N)
        lo, W = block_weights(t, a, b, cfg, template, lo)
        den[a:b] = W.sum(axis=1)
        num[:, a:b] = values[:, lo:b] @ W.T
    return num, den
