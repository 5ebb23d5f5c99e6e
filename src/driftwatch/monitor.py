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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm

from .estimator import (
    DriftwatchError, SmootherConfig, _process_parts, anchored_estimate, check_weights, nw_estimate,
    scaling_factor,
)
from .seriesgen import InnovationSpec, SeriesSpec, TimeSeries, design_times, generate, substream
from .variance import RunningVariance, check_variance, running_estimates

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
        if self.N < 1:
            raise ValueError(f"horizon must be >= 1, got {self.N!r}")

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


def chart(num, den, values, cfg: MonitorConfig, pre_inc=None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (and standardized) statistic rows plus their eligibility masks.

    ``num`` (rows, N) and ``den`` (N,) are the smoother parts of the rows
    ``values``; prerun increments ``pre_inc`` seed the variance estimator.
    Entries that cannot be formed (weights vanishing, variance estimate
    undefined or zero) are NaN; indices before the delayed start and where
    the variance estimate is undefined are ineligible.  A row's chart stops at
    its first eligible index that exceeds the threshold or cannot be formed;
    up to there a degenerate eligible index raises DriftwatchError.  At
    threshold +inf only a degenerate index stops a row.
    """
    N = cfg.N
    # dividing by NaN marks the entries that cannot be formed, without a warning
    traj = num / np.where(den > 0.0, den, np.nan)
    traj *= scaling_factor(cfg.smoother, N)
    eligible = np.zeros(traj.shape, dtype=bool)
    eligible[:, cfg.start_index - 1 :] = True
    est = None
    if cfg.variance_method is not None:
        est = running_estimates(values, cfg.variance_method, pre_inc)
        eligible &= ~np.isnan(est)
        traj /= np.sqrt(np.where(est > 0.0, est, np.nan))

    # indices after a row's stop are never reached, as in StreamMonitor
    reached = eligible & ~(traj <= cfg.threshold)
    stop = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, N)
    checked = eligible & (np.arange(1, N + 1) <= stop[:, None])
    check_weights(den, checked)
    if est is not None:
        check_variance(est, checked)
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
    exceed = eligible & (traj > cfg.threshold)
    if np.any(exceed):
        idx = int(np.argmax(exceed)) + 1
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
    for name, v in (("sigma_k", sigma_k), ("sigma_hat", sigma_hat), ("h", h), ("N", N)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v!r}")
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
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps!r}")
    if not 1 <= n <= cfg.N:
        raise ValueError(f"need 1 <= n <= N, got n={n}")
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
        stat = nw_estimate(series, cfg.smoother, n) * scale
        check_variance(est, first=n)
        stat /= float(np.sqrt(est))
        total += 1
        if stat > cfg.threshold:
            hits += 1
    return hits / total if total else 0.0


class StreamMonitor:
    """Online monitor: feed (t, y) records, get an alarm dict on first exceedance.

    Each update does bounded work.  The smoother weights only the records
    within the kernel's support of the newest time (8h for Gaussian, 24h
    for Laplace, h for Epanechnikov, the part of the knot span left of 0
    for a tabulated kernel), and a ``RunningVariance`` adds one term per
    record.  A fixed design takes that window on its design times, placed
    once by the horizon N as ``run_monitor`` does.  A rolling design re-selects
    past time points at every index, so with one each update weights the
    whole history.  The kept ``times`` and ``values`` grow by one entry per
    record, up to the horizon.
    """

    def __init__(self, cfg: MonitorConfig, prerun: TimeSeries | None = None):
        self.cfg = cfg
        self.times: list[float] = []
        self.values: list[float] = []
        # the times the kernel is anchored at; a fixed design's first n points
        # do not depend on n, so they are placed for the whole horizon here
        self._smoother, self._anchor_times = cfg.smoother, self.times
        design = cfg.smoother.design
        if design is not None and design.mode == "fixed":
            self._anchor_times = design_times(design, cfg.N, cfg.N)
            self._smoother = replace(cfg.smoother, design=None)
        self._variance = None
        if cfg.variance_method is not None:
            pre_inc = np.diff(prerun.values) if prerun is not None else None
            self._variance = RunningVariance.start(cfg.variance_method, pre_inc)
        self.alarmed = False
        self.n = 0

    def update(self, t: float, y: float) -> dict | None:
        """Ingest one observation; returns the alarm record on first exceedance.

        A non-finite or out-of-order record raises ValueError, and a record
        at a degenerate eligible index raises DriftwatchError; either way the
        record is not kept and the monitor is unchanged.
        """
        if self.alarmed or self.n >= self.cfg.N:
            return None
        t, y = float(t), float(y)
        if not (np.isfinite(t) and np.isfinite(y)):
            raise ValueError(f"stream record must be finite, got t={t!r}, y={y!r}")
        if self.times and t <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing, got {t} after {self.times[-1]}")
        cfg = self.cfg
        n = self.n + 1
        variance = self._variance.push(y) if self._variance is not None else None
        est = 1.0 if variance is None else variance.value  # unit variance unless standardized
        self.times.append(t)
        self.values.append(y)
        stat = None
        if n >= cfg.start_index and not np.isnan(est):
            try:
                stat = anchored_estimate(self._anchor_times, self.values, self._smoother, n, cfg.N)
                check_variance(est, first=n)
            except DriftwatchError:
                del self.times[-1], self.values[-1]
                raise
            stat = stat * scaling_factor(cfg.smoother, cfg.N) / float(np.sqrt(est))
        self._variance = variance
        self.n = n
        if stat is not None and stat > cfg.threshold:
            self.alarmed = True
            return {
                "alarmed": True,
                "index": n,
                "time": float(t),
                "statistic": float(stat),
                "threshold": cfg.threshold,
            }
        return None

    def truncation_record(self) -> dict:
        return {
            "alarmed": False,
            "index": self.cfg.N,
            "time": self.times[-1] if self.times else None,
            "statistic": None,
            "threshold": self.cfg.threshold,
        }


def format_record(record: dict) -> str:
    return json.dumps(record)
