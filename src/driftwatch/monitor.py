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
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .estimator import (
    DriftwatchError, SmootherConfig, _process_parts, check_weights, nw_estimate, scaling_factor,
)
from .seriesgen import InnovationSpec, SeriesSpec, TimeSeries, generate, substream
from .variance import check_variance, running_estimates

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


@dataclass(frozen=True, eq=False)
class StoppingResult:
    """First-exceedance outcome; index N with alarmed=False means truncation."""

    alarm_index: int
    alarmed: bool
    trajectory: np.ndarray
    normed_time: float


def monitor_trajectory(
    series: TimeSeries, cfg: MonitorConfig, prerun: TimeSeries | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (and standardized) statistic sequence plus eligibility mask.

    Trajectory entries where the statistic cannot be formed (variance
    estimator undefined or zero, weights vanishing) are NaN; eligibility
    excludes indices before the delayed start and where the variance
    estimator is undefined.  Up to the first exceedance, which ends the
    chart, a degenerate eligible index raises DriftwatchError.
    """
    N = cfg.N
    if len(series) < N:
        raise ValueError(f"series has {len(series)} observations, horizon is {N}")
    num, den = _process_parts(series.times[:N], series.values[None, :N], cfg.smoother)
    traj = np.divide(num[0], den, out=np.full(N, np.nan), where=den > 0.0)
    est = np.ones(N)  # unit variance unless standardized
    if cfg.variance_method is not None:
        pre_inc = np.diff(prerun.values) if prerun is not None else None
        est = running_estimates(series.values[:N], cfg.variance_method, pre_inc)
    start = max(1, int(np.floor(N * cfg.start_fraction)))
    eligible = (np.arange(1, N + 1) >= start) & ~np.isnan(est)
    traj = traj * scaling_factor(cfg.smoother, N)
    traj = np.where(est > 0.0, traj / np.sqrt(np.where(est > 0.0, est, 1.0)), np.nan)

    # the chart stops at the first eligible index that exceeds or cannot be
    # formed; indices after it are never reached, as in StreamMonitor
    reached = eligible & ~(traj <= cfg.threshold)
    stop = int(np.argmax(reached)) + 1 if reached.any() else N
    check_weights(den[:stop], eligible[:stop])
    check_variance(est[:stop], eligible[:stop])
    return traj, eligible


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
    spec = SeriesSpec(N=max(n, 2), innovations=innovations)
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

    Keeps the full history (the smoother needs it: every past observation is
    reweighted when the anchor moves) plus incremental variance accumulators.
    """

    def __init__(self, cfg: MonitorConfig, prerun: TimeSeries | None = None):
        self.cfg = cfg
        self.times: list[float] = []
        self.values: list[float] = []
        self._pre_inc = np.diff(prerun.values) if prerun is not None else None
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
        start = max(1, int(np.floor(cfg.N * cfg.start_fraction)))
        stat = None
        if n >= start:
            values = np.array(self.values + [y])
            est = 1.0  # unit variance unless standardized
            if cfg.variance_method is not None:
                est = running_estimates(values, cfg.variance_method, self._pre_inc)[n - 1]
            if not np.isnan(est):
                series = TimeSeries(np.array(self.times + [t]), values)
                stat = nw_estimate(series, cfg.smoother, n) * scaling_factor(cfg.smoother, cfg.N)
                check_variance(est, first=n)
                stat = stat / float(np.sqrt(est))
        self.times.append(t)
        self.values.append(y)
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
