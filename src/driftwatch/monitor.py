"""Truncated sequential stopping rules over the scaled smoother statistic.

The monitor alarms at the first eligible index n with statistic > c and
truncates at the horizon N when no exceedance occurs (the no-alarm result
reports index N).  A delayed-start fraction a makes indices below floor(N a)
ineligible.  With a variance method configured, the statistic is divided by
the square root of a prequential variance estimate (data up to the current
index, optionally seeded by a prerun segment); indices where the estimator
is undefined are ineligible rather than errors.  Batch and streaming
monitors raise DriftwatchError at a degenerate eligible index they reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimator import (
    EXACT, DriftwatchError, SmootherConfig, _process_parts, anchor_times, block_weights,
    check_weights, lag_rows, nw_estimate, scaling_factor, weighted_mean, window_mean,
)
from .seriesgen import InnovationSpec, SeriesSpec, TimeSeries, check_count, generate, substream
from .variance import check_variance, min_sample, running_estimates, running_step, standardized

MonitoringError = DriftwatchError


@dataclass(frozen=True)
class MonitorConfig:
    smoother: SmootherConfig
    threshold: float
    N: int
    start_fraction: float = 0.0
    variance_method: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError(f"start_fraction must lie in [0, 1), got {self.start_fraction!r}")
        check_count("horizon", self.N, 1)
        if math.isnan(self.threshold):  # +inf stays legal: calibration runs at +inf
            raise ValueError("threshold must not be NaN")
        if self.variance_method is not None:
            min_sample(self.variance_method)  # raises on an unknown method

    @property
    def start_index(self) -> int:
        """First eligible index of the delayed start: floor(N a), at least 1."""
        return max(1, int(np.floor(self.N * self.start_fraction)))


@dataclass(frozen=True, eq=False)
class StoppingResult:
    """First-exceedance outcome; index N with alarmed=False means truncation."""

    alarm_index: int
    alarmed: bool
    trajectory: np.ndarray
    normed_time: float


def first_crossings(values: np.ndarray, c_grid, start: int = 1) -> np.ndarray:
    """Per threshold in ``c_grid``, the 1-based index j >= ``start`` of the first entry above
    it along the last axis of ``values``, else 0: the one first-crossing scan.  -inf and NaN
    entries never cross; ``values`` is overwritten by its running maximum."""
    np.copyto(values, -np.inf, where=np.isnan(values))
    values[..., : start - 1] = -np.inf
    n = values.shape[-1]
    pmax = np.maximum.accumulate(values, axis=-1, out=values).reshape(-1, n)
    idx = np.array([np.searchsorted(row, c_grid, side="right") for row in pmax])
    return np.where(idx < n, idx + 1, 0).reshape(*values.shape[:-1], -1)


def chart(num, den, values, cfg: MonitorConfig, pre_inc=None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (and standardized) statistic rows plus their eligibility masks.

    ``num`` (rows, N) and ``den`` (N,) are the smoother parts of the rows
    ``values``; prerun increments ``pre_inc`` seed the variance estimator.
    Entries that cannot be formed (weights vanishing, variance estimate
    undefined or zero) are NaN; indices before the delayed start and where
    the variance estimate is undefined are ineligible.  A row's chart stops at
    its first eligible index that exceeds the threshold or cannot be formed;
    up to there a degenerate eligible index raises DriftwatchError.  At
    threshold +inf only a degenerate index stops a row.  The chart overwrites
    ``num`` and is returned; ``den``, ``values`` and ``pre_inc`` are left as
    they are.  Besides the masks, the one block it allocates is the running
    variance, whose root divides the chart in place.
    """
    N = cfg.N
    # dividing by NaN marks the entries that cannot be formed, without a warning
    traj = np.divide(num, np.where(den > 0.0, den, np.nan), out=num)
    traj *= scaling_factor(cfg.smoother, N)
    eligible = np.zeros(traj.shape, dtype=bool)
    eligible[:, cfg.start_index - 1 :] = True
    zero = None
    if cfg.variance_method is not None:
        est = running_estimates(values, cfg.variance_method, pre_inc)
        eligible &= ~np.isnan(est)
        zero = est <= 0.0
        np.copyto(est, np.nan, where=zero)
        traj /= np.sqrt(est, out=est)

    # indices after a row's stop are never reached, as in StreamMonitor
    reached = eligible & ~(traj <= cfg.threshold)
    stop = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, N)
    checked = eligible & (np.arange(1, N + 1) <= stop[:, None])
    check_weights(den, checked)
    if zero is not None:
        check_variance(0.0, zero & checked)  # 0.0 stands for the estimate where it was zero
    return traj, eligible


def monitor_trajectory(
    series: TimeSeries, cfg: MonitorConfig, prerun: TimeSeries | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ``chart`` of one series up to the horizon."""
    N = cfg.N
    if len(series) < N:
        raise ValueError(f"series has {len(series)} observations, horizon is {N}")
    values = series.values[None, :N]
    num, den = _process_parts(series.times[:N], values, cfg.smoother)
    pre_inc = np.diff(prerun.values) if prerun is not None else None
    traj, eligible = chart(num, den, values, cfg, pre_inc)
    return traj[0], eligible[0]


def run_monitor(
    series: TimeSeries, cfg: MonitorConfig, prerun: TimeSeries | None = None
) -> StoppingResult:
    """Scan for the first eligible index with statistic > threshold."""
    traj, eligible = monitor_trajectory(series, cfg, prerun)
    idx = int(first_crossings(np.where(eligible, traj, -np.inf), [cfg.threshold])[0])
    if idx:
        return StoppingResult(idx, True, traj, idx / cfg.N)
    return StoppingResult(cfg.N, False, traj, 1.0)


def confidence_interval(
    m_hat: float, sigma_k: float, sigma_hat: float, h: float, N: int, alpha: float
) -> tuple[float, float]:
    """Asymptotic interval m_hat +/- z_{1-alpha/2} sigma_k sigma_hat N^{3/2} / h.

    ``sigma_k`` is the square root of the unit-noise limit variance at s = 1,
    ``sigma_hat`` the estimated innovation scale.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not math.isfinite(m_hat):
        raise ValueError(f"m_hat must be finite, got {m_hat!r}")
    for name, v in (("sigma_k", sigma_k), ("sigma_hat", sigma_hat), ("h", h)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    check_count("N", N, 1)
    from scipy.stats import norm  # imported here: it is the module's only user

    z = norm.ppf(1.0 - alpha / 2.0)
    half = z * sigma_k * sigma_hat * N**1.5 / h
    return (m_hat - half, m_hat + half)


def false_alarm_rate(
    cfg: MonitorConfig,
    n: int,
    reps: int,
    seed: int,
    innovations: InnovationSpec | None = None,
) -> float:
    """Monte Carlo estimate of P(statistic at index n > threshold) under the null.

    Replicates where the variance estimator is undefined at n are skipped.
    """
    check_count("reps", reps, 1)
    check_count("n", n, 1, cfg.N)
    innovations = innovations or InnovationSpec()
    # the monitor's horizon places a fixed design; the first n values do not depend on it
    spec = SeriesSpec(N=max(cfg.N, 2), innovations=innovations)
    scale = scaling_factor(cfg.smoother, cfg.N)
    hits = 0
    total = 0
    for i in range(reps):
        series = generate(spec, substream(seed, i))
        est = 1.0  # unit variance unless standardized
        if cfg.variance_method is not None:
            est = running_estimates(series.values[:n], cfg.variance_method)[n - 1]
            if np.isnan(est):
                continue
        stat = standardized(nw_estimate(series, cfg.smoother, n), scale, est, n)
        total += 1
        if stat > cfg.threshold:
            hits += 1
    return hits / total if total else 0.0


_FIRST_CAPACITY = 256  # records the stream buffers hold before they first double


class StreamMonitor:
    """Online monitor: feed (t, y) records, get an alarm dict on first exceedance.

    Each update does bounded work.  The smoother weights only the records
    within the kernel's support of the newest time (8h for Gaussian, 24h
    for Laplace, h for Epanechnikov, the part of the knot span left of 0
    for a tabulated kernel), and the running variance adds one term per
    record to a tuple of floats (``variance.running_step``, which replaced a
    ``RunningVariance`` object per record).  The weights are the one-anchor
    block of the batch smoother's weight builder (``estimator.block_weights``),
    as for ``nw_estimate``.  While the times run t_0, t_0 + 1, ... with
    integer t_0, they are a view of a one-row lag template that the monitor
    evaluates once.  Once the run holds the full window of L records (and the
    record before it, unless the run starts at the first record), they are
    the template's first L entries, held with their sum from construction on.
    After an eligible record with that window, a record at the next unit time
    is told by one comparison and costs one dot product and one division: its
    sum passed the weight check at first use.  Before that an update slices
    the template and sums the slice.  Other times, and windows that reach back
    before the current unit-spaced run, evaluate the kernel on the window,
    whose start is bisected from the last record's on.  A fixed design takes
    the window on its design times, placed once by the horizon N as
    ``run_monitor`` does.  A rolling design re-selects past time points at
    every index, so with one each update weights the whole history.  The
    records are kept in two float arrays whose capacity doubles as records
    arrive, up to the horizon; ``times`` and ``values`` return them as lists.
    """

    def __init__(self, cfg: MonitorConfig, prerun: TimeSeries | None = None):
        self.cfg = cfg
        capacity = min(cfg.N, _FIRST_CAPACITY)
        self._times, self._values = np.empty(capacity), np.empty(capacity)
        self._start_index = cfg.start_index
        self._scale = scaling_factor(cfg.smoother, cfg.N)
        # a fixed design's times for the whole horizon; None: the observation times
        self._design_times = anchor_times(None, cfg.smoother, cfg.N)
        # without a design, a one-row lag template and its lag count, the length
        # L of the full window, with that window's weights and their sum
        self._template = lag_rows(cfg.smoother, cfg.N, 1) if cfg.smoother.design is None else None
        self._lags = 0 if self._template is None else self._template.shape[1] - 1
        if self._template is not None:
            L = self._lags
            self._w = block_weights(None, L - 1, L, cfg.smoother, self._template)[1][0]
            self._den = float(self._w.sum())
        # the running variance's step function (None: unit variance) and state,
        # and the prerun increments that seed it
        self._step = self._var_state = None
        self._pre_inc = np.diff(prerun.values) if prerun is not None else None
        if cfg.variance_method is not None:
            self._step, self._var_state = running_step(cfg.variance_method, self._pre_inc)
        # without a design, the 0-based first record of the unit-spaced run
        # that the last record ends, or None
        self._run = None
        # the window start of the last record that was smoothed
        self._lo = 0
        self._last_t = None
        # the time of the next steady-state record, NaN while there is none
        self._next_t = math.nan
        self.alarmed = False
        self.n = 0

    @property
    def times(self) -> list[float]:
        """The times of the records seen, oldest first."""
        return self._times[: self.n].tolist()

    @property
    def values(self) -> list[float]:
        """The values of the records seen, oldest first."""
        return self._values[: self.n].tolist()

    def update(self, t: float, y: float) -> dict | None:
        """Ingest one observation; returns the alarm record on first exceedance.

        A non-finite or out-of-order record raises ValueError, and a record
        at a degenerate eligible index raises DriftwatchError; either way the
        record is not kept and the monitor is unchanged.
        """
        if self.alarmed or self.n >= self.cfg.N:
            return None
        t, y = float(t), float(y)
        if not (math.isfinite(t) and math.isfinite(y)):
            raise ValueError(f"stream record must be finite, got t={t!r}, y={y!r}")
        if self.n and t <= self._last_t:
            raise ValueError(f"times must be strictly increasing, got {t} after {self._last_t}")
        n = self.n + 1
        # the new variance state, kept only with the record
        var_state, est = self._var_state, 1.0  # unit variance unless standardized
        if self._step is not None:
            var_state, est = self._step(var_state, y, n)
        if n > len(self._times):
            self._times = _grown(self._times, self.cfg.N)
            self._values = _grown(self._values, self.cfg.N)
        # written past the records seen, so a record that raises below is not kept
        self._times[n - 1], self._values[n - 1] = t, y
        run, lo, mean = self._run, self._lo, None
        held = t == self._next_t
        if held:  # the steady state: the held full-window weights
            lo = n - self._lags
            mean = weighted_mean(self._w, self._den, self._values[lo:n])
        else:
            template = run = None
            if self._template is not None and abs(t) < EXACT and t.is_integer():
                run = self._run if self._run is not None and t == self._last_t + 1.0 else n - 1
                template = self._template_at(n, run)
            if n >= self._start_index and not math.isnan(est):
                lo, mean = window_mean(self._anchors, self._values, n, self.cfg.smoother,
                                       template, lo)
            # a full window of the template is the held weights, their sum now checked
            held = mean is not None and template is not None and n >= self._lags
        # in the steady state a NaN estimate (its terms overflowed) gives a NaN
        # statistic, which never alarms, as an ineligible index does not
        stat = None if mean is None else standardized(mean, self._scale, est, n)
        self._var_state, self._run, self._lo, self._last_t, self.n = var_state, run, lo, t, n
        self._next_t = t + 1.0 if held else math.nan
        if stat is not None and stat > self.cfg.threshold:
            self.alarmed = True
            return end_record(self.cfg, True, n, t, stat)
        return None

    @property
    def _anchors(self) -> np.ndarray:
        return self._times if self._design_times is None else self._design_times

    def _template_at(self, n: int, run: int | None):
        """The lag template when it weights record n, the last of the unit-spaced
        run from record ``run`` (0-based): when the run holds the window and the
        record just before it, or when the run starts at the first record."""
        if run is not None and (run == 0 or n - self._lags > run):
            return self._template
        return None

    def truncation_record(self) -> dict:
        """The record of a stream that reached its horizon N without an alarm.  Its
        statistic is the chart at N, as ``update`` computed it there, recomputed
        from the kept records (and the prerun); None where N is ineligible."""
        N, stat = self.cfg.N, None
        if self.n == N and N >= self._start_index:
            est = 1.0  # unit variance unless standardized
            if self._step is not None:  # running_step's estimate at N, bit for bit
                est = float(running_estimates(self._values[:N], self.cfg.variance_method,
                                              self._pre_inc)[N - 1])
            if not math.isnan(est):
                mean = window_mean(self._anchors, self._values, N, self.cfg.smoother,
                                   self._template_at(N, self._run))[1]
                stat = standardized(mean, self._scale, est, N)
        return end_record(self.cfg, False, N, self._last_t, stat)


def _grown(buffer: np.ndarray, limit: int) -> np.ndarray:
    """``buffer`` copied into one of twice its length, at most ``limit``."""
    out = np.empty(min(2 * len(buffer), limit))
    out[: len(buffer)] = buffer
    return out


def end_record(cfg: MonitorConfig, alarmed: bool, index: int, time: float, statistic) -> dict:
    """The record a monitor ends with, batch or stream: an alarm at ``index``, or
    truncation at the horizon.  A non-finite or missing statistic is None, and
    ``normed_time`` is index / N, 1.0 at truncation, as ``StoppingResult``'s."""
    finite = statistic is not None and math.isfinite(statistic)
    return {"alarmed": alarmed, "index": index, "time": time,
            "statistic": float(statistic) if finite else None, "threshold": cfg.threshold,
            "normed_time": index / cfg.N if alarmed else 1.0}


def format_record(record: dict) -> str:
    return json.dumps(record, allow_nan=False)
