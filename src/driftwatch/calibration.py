"""Monte Carlo calibration: normed-ARL curves, threshold selection, coverage
experiments, finite-sample vs. asymptotic comparison, and finite-candidate
kernel comparison.

All replicate loops draw from hash-derived substreams (master seed,
replicate index), so results are independent of chunking and worker count.
ARL curves reuse the same replicate paths across the whole threshold grid
(common random numbers), which makes the curve exactly nondecreasing in c
per replicate, not just in expectation.
Each finite-sample replicate is the monitor's own ``monitor.chart`` at
threshold +inf: the same statistic, delayed start and degenerate-index rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm

from .estimator import SmootherConfig, _process_parts, nw_estimate, scaling_factor
from .kernels import KernelSpec, _candidate_names
from .limitsim import (
    LimitConfig,
    LimitDrift,
    _batch_null_values,
    _drift_curve,
    _null_values,
    asymptotic_normed_delay,
    sigma_k_sq,
)
from .monitor import MonitorConfig, chart
from .seriesgen import (
    GenericAlternative, InnovationSpec, SeriesSpec, TimeSeries, generate, substream,
)
from .variance import running_estimates
from ._parallel import run_chunked, chunk_bounds

_CHUNK = 512


@dataclass(frozen=True)
class FiniteSampleVariant:
    """Finite-sample statistic: horizon, bandwidth, innovations, standardization.

    ``prerun_length`` observations of an additional null segment seed the
    variance estimator (defaults to the bandwidth when a variance method is
    set, else no prerun).
    """

    N: int
    h: float
    innovations: InnovationSpec = InnovationSpec()
    variance_method: str | None = None
    prerun_length: int | None = None
    start_fraction: float = 0.0

    def resolved_prerun(self) -> int:
        if self.prerun_length is not None:
            return self.prerun_length
        return int(round(self.h)) if self.variance_method is not None else 0


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Threshold grid and the normed ARL at each threshold, plus provenance."""

    thresholds: np.ndarray
    normed_arl: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        a = np.asarray(self.normed_arl, dtype=float)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "normed_arl", a)
        if t.shape != a.shape or t.ndim != 1:
            raise ValueError("thresholds and normed_arl must be matching 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(a) < -1e-12):
            raise ValueError("normed ARL must be nondecreasing in the threshold")
        if np.any(a <= 0) or np.any(a > 1.0 + 1e-12):
            raise ValueError("normed ARL values must lie in (0, 1]")


def _stops_from_values(values: np.ndarray, c_grid: np.ndarray, normed_times: np.ndarray) -> np.ndarray:
    """First-exceedance normed times per replicate row and threshold.

    ``values`` rows are statistic trajectories with ineligible entries at
    -inf; no exceedance maps to 1 (truncation).
    """
    pmax = np.maximum.accumulate(values, axis=1)
    n_idx = values.shape[1]
    stops = np.empty((values.shape[0], len(c_grid)))
    for r in range(values.shape[0]):
        idx = np.searchsorted(pmax[r], c_grid, side="right")
        stops[r] = np.where(idx < n_idx, normed_times[np.minimum(idx, n_idx - 1)], 1.0)
    return stops


def _null_walks(innovations: InnovationSpec, N: int, seed: int, start: int, stop: int,
                *key: int) -> np.ndarray:
    """Null series of length N for replicates [start, stop), one per row.

    Row r comes from substream (seed, start + r, *key).
    """
    spec = SeriesSpec(N=N, innovations=innovations)
    walks = np.empty((stop - start, N))
    for r, i in enumerate(range(start, stop)):
        walks[r] = generate(spec, substream(seed, i, *key)).values
    return walks


def _prerun_increments(variance_method: str | None, innovations: InnovationSpec, length: int,
                       seed: int, start: int, stop: int, key: int) -> np.ndarray | None:
    """Increments of the null prerun rows (substream (seed, start + r, key)) that seed the
    variance estimator; None without a variance method or below two observations."""
    if variance_method is None or length < 2:
        return None
    return np.diff(_null_walks(innovations, length, seed, start, stop, key), axis=1)


def _null_charts(values: np.ndarray, cfg: MonitorConfig, pre: np.ndarray | None) -> np.ndarray:
    """The chart of each unit-time row at threshold +inf, -inf where ineligible."""
    num, den = _process_parts(np.arange(1.0, cfg.N + 1.0), values, cfg.smoother)
    traj, eligible = chart(num, den, values, cfg, pre)
    return np.where(eligible, traj, -np.inf)


def _finite_trajectories(variant: FiniteSampleVariant, kernel: KernelSpec, seed: int,
                         start: int, stop: int) -> np.ndarray:
    """Eligible scaled (standardized) trajectories for replicates [start, stop)."""
    smoother = SmootherConfig(kernel=kernel, h=variant.h, scaling="null_scale")
    cfg = MonitorConfig(smoother, np.inf, variant.N, variant.start_fraction, variant.variance_method)
    values = _null_walks(variant.innovations, variant.N, seed, start, stop)
    pre = _prerun_increments(variant.variance_method, variant.innovations,
                             variant.resolved_prerun(), seed, start, stop, 1)
    return _null_charts(values, cfg, pre)


def _finite_chunk(payload) -> np.ndarray:
    variant, kernel, c_grid, seed, start, stop = payload
    traj = _finite_trajectories(variant, kernel, seed, start, stop)
    N = variant.N
    return _stops_from_values(traj, c_grid, np.arange(1, N + 1) / N)


def _limit_chunk(payload) -> np.ndarray:
    cfg, c_grid, seed, start, stop, key = payload
    seeds = [substream(seed, i, *key) for i in range(start, stop)]
    vals = _batch_null_values(cfg, seeds)
    if cfg.drift is not None:
        vals += _drift_curve(cfg)
    # cells below s_min are NaN, hence never eligible
    np.copyto(vals, -np.inf, where=np.isnan(vals))
    return _stops_from_values(vals, c_grid, cfg.s_grid)


def arl_curve(
    variant: FiniteSampleVariant | LimitConfig,
    kernel: KernelSpec,
    c_grid,
    reps: int,
    seed: int,
    jobs: int = 1,
) -> CalibrationTable:
    """Normed ARL (mean normed stopping time under the null) per threshold.

    ``variant`` selects the finite-sample statistic or the sampled limit
    process; ``kernel`` overrides the kernel in either case.  The same
    replicate paths are reused across the threshold grid.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.ndim != 1 or np.any(np.diff(c_grid) <= 0):
        raise ValueError("c_grid must be a strictly increasing 1-d array")
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps!r}")
    if isinstance(variant, LimitConfig):
        cfg = replace(variant, kernel=kernel)
        payloads = [
            (cfg, c_grid, seed, a, b, ()) for a, b in chunk_bounds(reps, _CHUNK)
        ]
        chunks = run_chunked(_limit_chunk, payloads, jobs)
        meta = {
            "variant": "limit",
            "zeta": cfg.zeta,
            "grid_M": cfg.grid_M,
            "kernel": kernel.family,
            "reps": reps,
            "seed": seed,
        }
    else:
        payloads = [
            (variant, kernel, c_grid, seed, a, b) for a, b in chunk_bounds(reps, _CHUNK)
        ]
        chunks = run_chunked(_finite_chunk, payloads, jobs)
        meta = {
            "variant": "finite-sample",
            "N": variant.N,
            "h": variant.h,
            "kernel": kernel.family,
            "variance_method": variant.variance_method,
            "reps": reps,
            "seed": seed,
        }
    stops = np.concatenate(chunks, axis=0)
    return CalibrationTable(thresholds=c_grid, normed_arl=stops.mean(axis=0), meta=meta)


def critical_value_for_arl(table: CalibrationTable, target_normed_arl: float) -> float:
    """Invert the monotone threshold -> normed-ARL mapping.

    Exact table values return their threshold (rightmost match on flat
    segments); other targets interpolate linearly between the bracketing
    strictly increasing grid points.
    """
    arl = table.normed_arl
    cs = table.thresholds
    if not arl[0] <= target_normed_arl <= arl[-1]:
        raise ValueError(
            f"target {target_normed_arl} outside the achievable range [{arl[0]}, {arl[-1]}]"
        )
    exact = np.nonzero(arl == target_normed_arl)[0]
    if exact.size:
        return float(cs[exact[-1]])
    j = int(np.searchsorted(arl, target_normed_arl, side="left"))
    frac = (target_normed_arl - arl[j - 1]) / (arl[j] - arl[j - 1])
    return float(cs[j - 1] + frac * (cs[j] - cs[j - 1]))


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _coverage_chunk(payload) -> int:
    N, h, kernel, alpha, seed, start, stop, variance_method, sigma, sk = payload
    cfg = SmootherConfig(kernel=kernel, h=h, scaling="null_scale")
    scale = scaling_factor(cfg, N)
    z = norm.ppf(1.0 - alpha / 2.0)
    inno = InnovationSpec(sigma=sigma)
    values = _null_walks(inno, N, seed, start, stop)
    times = np.arange(1.0, N + 1.0)
    stats = np.array([nw_estimate(TimeSeries(times, y), cfg, N) for y in values]) * scale
    if variance_method is None:
        sig_hat = sigma
    else:
        pre = _prerun_increments(variance_method, inno, max(int(round(h)), 2), seed, start, stop, 1)
        sig_hat = np.sqrt(running_estimates(values, variance_method, pre)[:, N - 1])
    return int(np.count_nonzero(np.abs(stats) <= z * sk * sig_hat))


def coverage_sim(
    N: int,
    h: float,
    kernel: KernelSpec,
    alpha: float,
    reps: int,
    seed: int,
    variance_method: str | None = "naive",
    sigma: float = 1.0,
    jobs: int = 1,
) -> float:
    """Fraction of null replicates whose asymptotic interval covers zero.

    The interval half-width is z_{1-alpha/2} * sigma_K * sigma_hat * N^{3/2}/h
    with sigma_K the unit-noise limit standard deviation at s = 1 for
    zeta = N/h.  sigma_hat is the prequential estimate at the horizon,
    seeded by a prerun null segment of length h; with
    ``variance_method=None`` the true sigma is used instead.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    zeta = N / h
    sk = float(np.sqrt(sigma_k_sq(LimitConfig(zeta=zeta, kernel=kernel), 1.0)))
    payloads = [
        (N, h, kernel, alpha, seed, a, b, variance_method, sigma, sk)
        for a, b in chunk_bounds(reps, _CHUNK)
    ]
    counts = run_chunked(_coverage_chunk, payloads, jobs)
    return sum(counts) / reps


# ---------------------------------------------------------------------------
# finite-sample vs limit comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConservativenessReport:
    c_grid: np.ndarray
    finite_arl: np.ndarray
    limit_arl: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def gaps(self) -> np.ndarray:
        return self.finite_arl - self.limit_arl

    @property
    def frac_nonnegative(self) -> float:
        return float(np.mean(self.gaps >= 0.0))

    @property
    def mean_abs_gap(self) -> float:
        return float(np.mean(np.abs(self.gaps)))


def _brownian_paths(walks: np.ndarray, refine: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Exact Brownian paths at resolution 1/M, M = refine * N, around the scaled walk rows.

    The skeleton B(n/N) = walk_n / sqrt(N) is kept; the refine - 1 interior
    points of each cell are Brownian-bridge draws from substream (seed, i, 1).
    """
    rows, N = walks.shape
    M = refine * N
    B = np.empty((rows, M + 1))
    B[:, ::refine] = np.concatenate([np.zeros((rows, 1)), walks / np.sqrt(N)], axis=1)
    if refine > 1:
        Z = np.stack([
            np.random.default_rng(substream(seed, i, 1)).standard_normal((N, refine - 1))
            for i in range(start, stop)
        ])
        # each fraction is drawn for all N cells at once, conditioned on the
        # previous fraction and the cell's right end
        prev, right, fprev = B[:, :M:refine], B[:, refine::refine], 0.0
        for idx, fl in enumerate(np.arange(1, refine) / refine):
            var = (fl - fprev) * (1.0 - fl) / (1.0 - fprev) / N
            mean = prev + (fl - fprev) / (1.0 - fprev) * (right - prev)
            prev = mean + np.sqrt(var) * Z[:, :, idx]
            fprev = fl
            B[:, idx + 1::refine] = prev
    return B


def _coupled_chunk(payload):
    N, h, kernel, c_grid, seed, start, stop, refine, variance_method = payload
    M = refine * N
    cfg = LimitConfig(zeta=N / h, kernel=kernel, grid_M=M)
    mcfg = MonitorConfig(SmootherConfig(kernel=kernel, h=h, scaling="null_scale"), np.inf, N,
                         variance_method=variance_method)

    # finite side
    values = _null_walks(InnovationSpec(), N, seed, start, stop)
    pre = _prerun_increments(variance_method, InnovationSpec(), int(round(h)), seed, start, stop, 2)
    traj = _null_charts(values, mcfg, pre)
    fstops = _stops_from_values(traj, c_grid, np.arange(1, N + 1) / N)

    # limit side: an exact Brownian path at resolution 1/M around each walk
    B = _brownian_paths(values, refine, seed, start, stop)
    lvals = _null_values(cfg, B)
    lvals = np.where(np.isnan(lvals), -np.inf, lvals)
    lstops = _stops_from_values(lvals, c_grid, np.arange(1, M + 1) / M)
    return fstops, lstops


def conservativeness_check(
    N: int,
    h: float,
    kernel: KernelSpec,
    c_grid,
    reps: int,
    seed: int,
    variance_method: str | None = None,
    coupled: bool = True,
    min_grid: int = 2048,
    jobs: int = 1,
) -> ConservativenessReport:
    """Finite-sample vs limit normed-ARL curves on a shared threshold grid.

    ``coupled=True`` builds each Brownian limit path around the same
    innovations as the corresponding finite walk (common random numbers
    with Brownian-bridge refinement to at least ``min_grid`` points), which
    sharpens the per-threshold gap estimate without changing either
    estimand; ``coupled=False`` uses independent substreams and a
    ``min_grid``-point limit grid.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps!r}")
    zeta = N / h
    if coupled:
        refine = max(1, int(np.ceil(min_grid / N)))
        payloads = [
            (N, h, kernel, c_grid, seed, a, b, refine, variance_method)
            for a, b in chunk_bounds(reps, _CHUNK)
        ]
        results = run_chunked(_coupled_chunk, payloads, jobs)
        fstops = np.concatenate([r[0] for r in results], axis=0)
        lstops = np.concatenate([r[1] for r in results], axis=0)
        grid_M = refine * N
    else:
        variant = FiniteSampleVariant(
            N=N, h=h, innovations=InnovationSpec(), variance_method=variance_method
        )
        finite = arl_curve(variant, kernel, c_grid, reps, seed, jobs=jobs)
        cfg = LimitConfig(zeta=zeta, kernel=kernel, grid_M=min_grid)
        payloads = [
            (cfg, c_grid, seed, a, b, (3,)) for a, b in chunk_bounds(reps, _CHUNK)
        ]
        lstops = np.concatenate(run_chunked(_limit_chunk, payloads, jobs), axis=0)
        return ConservativenessReport(
            c_grid=c_grid,
            finite_arl=finite.normed_arl,
            limit_arl=lstops.mean(axis=0),
            meta={"N": N, "h": h, "zeta": zeta, "kernel": kernel.family,
                  "reps": reps, "seed": seed, "coupled": False, "grid_M": min_grid},
        )
    return ConservativenessReport(
        c_grid=c_grid,
        finite_arl=fstops.mean(axis=0),
        limit_arl=lstops.mean(axis=0),
        meta={"N": N, "h": h, "zeta": zeta, "kernel": kernel.family,
              "reps": reps, "seed": seed, "coupled": True, "grid_M": grid_M},
    )


# ---------------------------------------------------------------------------
# finite-candidate kernel comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelComparison:
    names: list[str]
    crossings: np.ndarray
    s_grid: np.ndarray
    curves: np.ndarray  # one drift curve per candidate row
    best: str


def kernel_comparison_curves(
    candidates: list[KernelSpec],
    m0: GenericAlternative,
    zeta: float,
    c: float,
    grid_M: int = 2048,
) -> KernelComparison:
    """Drift-term curves and first threshold crossings per candidate kernel.

    The reported best kernel attains the smallest crossing (first listed on
    ties).  The drift shape must make the detectability condition hold for
    every candidate, otherwise no crossing exists and 1 is reported.
    """
    if not candidates:
        raise ValueError("need at least one candidate kernel")
    names = _candidate_names(candidates)
    curves = np.empty((len(candidates), grid_M))
    crossings = np.empty(len(candidates))
    for i, k in enumerate(candidates):
        cfg = LimitConfig(zeta=zeta, kernel=k, grid_M=grid_M, drift=LimitDrift(m0, "cp1"))
        curves[i] = _drift_curve(cfg)
        crossings[i] = asymptotic_normed_delay(cfg, c)
    best = names[int(np.argmin(crossings))]
    return KernelComparison(
        names=names,
        crossings=crossings,
        s_grid=np.arange(1, grid_M + 1) / grid_M,
        curves=curves,
        best=best,
    )
