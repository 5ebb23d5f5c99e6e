"""Monte Carlo calibration: normed-ARL curves, threshold selection, coverage
experiments and the finite-sample vs. asymptotic comparison.

All replicate loops draw from hash-derived substreams (master seed,
replicate index), so results are independent of chunking and worker count.
ARL curves reuse the same replicate paths across the whole threshold grid
(common random numbers), which makes the curve exactly nondecreasing in c
per replicate, not just in expectation.
Every routine runs its replicates through one chunk driver, ``_chunked``, and
checks its threshold grid with ``_check_grid``.  A finite-sample chunk draws its
walks and prerun with ``_variant_rows`` and takes its stops with ``_variant_stops``.
Each finite-sample replicate is the monitor's own ``monitor.chart`` at
threshold +inf: the same statistic, delayed start and degenerate-index rule.
Its rows are whole walks, so the smoother numerator is their causal
convolution with the lag kernel by FFT (``estimator.whole_row_terms``).  It
equals the monitor's banded numerator to about 1e-15 of its largest value,
and the chart to about 1e-13 of a row's largest value (more where small
early weight sums divide it).  The denominator is the monitor's exact
weight sum, so a vanishing weight raises at the same index.  A chart value
that the monitor computes as an exact 0 (a flat prefix without a variance
method) may come out as a value of order 1e-17, so a stop at threshold 0
can move there.
Finite and limit chunks, and both sides of a coupled chunk, run their
replicates in batches of ``estimator.FFT_ROWS`` rows from transform to stop
(``_batched_stops``): every step works along a row, so the stops are those of
the whole chunk bit for bit, while only one batch's transforms and charts are
held at a time.  What does not depend on the paths is built once per chunk:
the lag template's exact row sums, the lag kernel and its transform for a
finite chunk (``estimator.whole_row_terms``, before the draws), and the lag
kernel, its transform, the weight mass and the ratio's denominator for a limit
chunk (``limitsim.RatioTerms``).  Each batch then goes through the same three
buffers of the chunk's ``estimator.CausalFilter``, made on first use, after the
draws: a finite batch's walks are copied into its padded input and the chart
is built in its output; a limit batch's Brownian increments are drawn into the
padded input and the ratio is formed in the output.  So no batch allocates a
transform, and the heap neither grows nor shrinks from batch to batch.  Traced
peaks: 2.01 (rows, N) float blocks for 256 finite replicates at N = 4000, where
whole-chunk transforms and charts reached 3.85, and 0.47 (rows, grid_M) blocks
for 512 limit replicates on a 2048-point grid, against about three as
whole-chunk arrays.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import (
    FFT_ROWS, SmootherConfig, _process_parts, nw_estimate, scaling_factor, whole_row_terms,
)
from .kernels import KernelSpec, check_bandwidth
from .limitsim import (
    LimitConfig, RatioTerms, _batch_null_values, _drift_curve, _null_values, sigma_k_sq,
)
from .monitor import MonitorConfig, chart, first_crossings
from .seriesgen import (
    InnovationSpec, SeriesSpec, TimeSeries, check_count, generate, innovation_rows, substream,
    walk_rows,
)
from .variance import min_sample, running_estimates

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

    def __post_init__(self):
        check_count("horizon N", self.N, 2)
        check_bandwidth(self.h)
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError(f"start_fraction must lie in [0, 1), got {self.start_fraction!r}")
        if self.prerun_length is not None:
            check_count("prerun_length", self.prerun_length)
        if self.variance_method is not None:
            min_sample(self.variance_method)  # raises on an unknown method

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
        _check_grid(t)
        if np.any(np.diff(a) < -1e-12):
            raise ValueError("normed ARL must be nondecreasing in the threshold")
        if not np.all((a > 0) & (a <= 1.0 + 1e-12)):
            raise ValueError("normed ARL values must lie in (0, 1]")


def _stops_from_values(values: np.ndarray, c_grid: np.ndarray) -> np.ndarray:
    """First-exceedance normed times j/n per replicate row of length n and threshold, 1 where
    none (truncation); ineligible entries are -inf or NaN, and ``values`` is overwritten."""
    j = first_crossings(values, c_grid)
    return np.where(j > 0, j / values.shape[1], 1.0)


def _null_walks(innovations: InnovationSpec, N: int, seed: int, start: int, stop: int,
                *key: int) -> np.ndarray:
    """Null series of length N for replicates [start, stop), one per row.

    Row r comes from substream (seed, start + r, *key) and is bit for bit the
    values of ``generate`` on that stream.
    """
    spec = SeriesSpec(N=N, innovations=innovations)
    seeds = [substream(seed, i, *key) for i in range(start, stop)]
    with suppress(ValueError):  # a GARCH variance overflows: see below
        walks = walk_rows(innovations, N, seeds)
        # a row with a non-finite value ends non-finite
        if np.isfinite(walks[:, -1]).all():
            return walks
    # a row failed: generate raises the first failing row's error, as one series does
    return np.array([generate(spec, s).values for s in seeds])


def _variant_rows(variant: FiniteSampleVariant, seed: int, start: int, stop: int,
                  key: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The variant's null walks for replicates [start, stop), and the increments of its null
    prerun rows (substream (seed, start + r, key)) that seed its variance estimator; None
    without a variance method or below two prerun observations."""
    values = _null_walks(variant.innovations, variant.N, seed, start, stop)
    length = variant.resolved_prerun()
    if variant.variance_method is None or length < 2:
        return values, None
    return values, np.diff(_null_walks(variant.innovations, length, seed, start, stop, key), axis=1)


def _null_charts(values: np.ndarray, cfg: MonitorConfig, pre: np.ndarray | None,
                 terms=None) -> np.ndarray:
    """The chart of each unit-time row at threshold +inf, -inf where ineligible; ``terms``
    is ``whole_row_terms(cfg.smoother, cfg.N)``, built here when not given."""
    terms = terms or whole_row_terms(cfg.smoother, cfg.N)
    num, den = _process_parts(np.arange(1.0, cfg.N + 1.0), values, cfg.smoother, terms=terms)
    traj, eligible = chart(num, den, values, cfg, pre)
    np.copyto(traj, -np.inf, where=~eligible)
    return traj


def _variant_stops(variant: FiniteSampleVariant, kernel: KernelSpec, c_grid: np.ndarray,
                   seed: int, start: int, stop: int, key: int) -> tuple[np.ndarray, np.ndarray]:
    """Stops on ``c_grid`` of the variant's charts for replicates [start, stop), whose
    variance estimator the prerun rows of substream key ``key`` seed, and their walks.

    The smoother's path-free terms are built before the draws; the charts then run
    in batches of ``FFT_ROWS`` rows from transform to stop (``_batched_stops``)."""
    smoother = SmootherConfig(kernel=kernel, h=variant.h, scaling="null_scale")
    cfg = MonitorConfig(smoother, np.inf, variant.N, variant.start_fraction, variant.variance_method)
    terms = whole_row_terms(smoother, variant.N)
    values, pre = _variant_rows(variant, seed, start, stop, key)

    def values_of(a, b):
        return _null_charts(values[a:b], cfg, None if pre is None else pre[a:b], terms)

    return _batched_stops(stop - start, c_grid, values_of), values


def run_chunked(worker, payloads, jobs: int = 1) -> list:
    """Apply ``worker`` to each payload, in order; fan out over worker processes when jobs > 1."""
    if jobs is None or jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


def _chunked(worker, reps: int, jobs: int, *head) -> list:
    """The one replicate driver: ``worker`` on payloads ``(*head, start, stop)`` that split
    replicates [0, reps) into chunks; results come back in chunk order for any ``jobs``
    (None or an integer <= 1 runs them in this process)."""
    check_count("reps", reps, 100)
    if jobs is not None:
        check_count("jobs", jobs, -np.inf)
    payloads = [(*head, a, min(a + _CHUNK, reps)) for a in range(0, reps, _CHUNK)]
    return run_chunked(worker, payloads, jobs)


def _mean_stops(chunks) -> np.ndarray:
    """Normed ARL per threshold: the mean stop over the replicate rows of all chunks."""
    return np.concatenate(chunks, axis=0).mean(axis=0)


def _check_grid(c_grid) -> np.ndarray:
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.ndim != 1 or not np.isfinite(c_grid).all() or np.any(np.diff(c_grid) <= 0):
        raise ValueError("c_grid must be a strictly increasing 1-d array of finite thresholds")
    if c_grid.size == 0:
        raise ValueError("c_grid has no thresholds")
    return c_grid


def _finite_chunk(payload) -> np.ndarray:
    """Stops of the variant's eligible charts for replicates [start, stop) on ``c_grid``."""
    variant, kernel, c_grid, seed, start, stop = payload
    return _variant_stops(variant, kernel, c_grid, seed, start, stop, 1)[0]


def _batched_stops(rows: int, c_grid: np.ndarray, values_of) -> np.ndarray:
    """Stops on ``c_grid`` of ``rows`` replicates, taken in batches of ``FFT_ROWS`` rows:
    ``values_of(a, b)`` gives the process values of rows [a, b).  Every step of a
    finite or limit row works along the row, so its stops do not depend on the batch;
    no more than one batch of transforms is held at a time, in the buffers of the
    chunk's path-free terms.  The first batch that raises DriftwatchError raises it,
    as the first chunk does among chunks; a vanishing weight is path-free, so it
    raises at the same index from every batch."""
    stops = np.empty((rows, len(c_grid)))
    for a in range(0, rows, FFT_ROWS):
        b = min(a + FFT_ROWS, rows)
        stops[a:b] = _stops_from_values(values_of(a, b), c_grid)
    return stops


def _limit_chunk(payload) -> np.ndarray:
    cfg, c_grid, seed, key, start, stop = payload
    seeds = [substream(seed, i, *key) for i in range(start, stop)]
    drift = None if cfg.drift is None else _drift_curve(cfg)
    terms = RatioTerms(cfg)

    def values_of(a, b):
        vals = _batch_null_values(cfg, seeds[a:b], terms)
        if drift is not None:
            vals += drift
        return vals

    return _batched_stops(stop - start, c_grid, values_of)


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
    c_grid = _check_grid(c_grid)
    check_count("seed", seed)  # here, not in the first chunk, which may be a worker's
    if isinstance(variant, LimitConfig):
        cfg = replace(variant, kernel=kernel)
        chunks = _chunked(_limit_chunk, reps, jobs, cfg, c_grid, seed, ())
        meta = {"variant": "limit", "zeta": cfg.zeta, "grid_M": cfg.grid_M,
                "kernel": kernel.family, "reps": reps, "seed": seed}
    else:
        chunks = _chunked(_finite_chunk, reps, jobs, variant, kernel, c_grid, seed)
        meta = {"variant": "finite-sample", "N": variant.N, "h": variant.h,
                "kernel": kernel.family, "variance_method": variant.variance_method,
                "reps": reps, "seed": seed}
    return CalibrationTable(thresholds=c_grid, normed_arl=_mean_stops(chunks), meta=meta)


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
    variant, kernel, alpha, sk, seed, start, stop = payload
    N, method = variant.N, variant.variance_method
    cfg = SmootherConfig(kernel=kernel, h=variant.h, scaling="null_scale")
    scale = scaling_factor(cfg, N)
    from scipy.stats import norm  # imported here: it is the module's only user

    z = norm.ppf(1.0 - alpha / 2.0)
    values, pre = _variant_rows(variant, seed, start, stop, 1)
    times = np.arange(1.0, N + 1.0)
    stats = np.array([nw_estimate(TimeSeries(times, y), cfg, N) for y in values]) * scale
    if method is None:
        sig_hat = variant.innovations.sigma
    else:
        sig_hat = np.sqrt(running_estimates(values, method, pre)[:, N - 1])
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    check_count("seed", seed)
    variant = FiniteSampleVariant(N, h, InnovationSpec(sigma=sigma), variance_method)
    variant = replace(variant, prerun_length=max(int(round(h)), 2))  # h is checked by now
    sk = float(np.sqrt(sigma_k_sq(LimitConfig(zeta=N / h, kernel=kernel), 1.0)))
    counts = _chunked(_coverage_chunk, reps, jobs, variant, kernel, alpha, sk, seed)
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
        seeds = [substream(seed, i, 1) for i in range(start, stop)]
        Z = innovation_rows(InnovationSpec(), N * (refine - 1), seeds).reshape(rows, N, refine - 1)
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
    variant, c_grid, seed, cfg, start, stop = payload
    # finite side; the prerun draws from substream key 2, since the bridges below take key 1
    fstops, values = _variant_stops(variant, cfg.kernel, c_grid, seed, start, stop, 2)

    # limit side: an exact Brownian path at resolution 1/grid_M around each walk
    refine = cfg.grid_M // variant.N
    terms = RatioTerms(cfg)

    def values_of(a, b):
        paths = _brownian_paths(values[a:b], refine, seed, start + a, start + b)
        return _null_values(cfg, paths, terms)

    return fstops, _batched_stops(stop - start, c_grid, values_of)


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
    ``min_grid``-point limit grid; ``min_grid`` is at least 64.
    """
    c_grid = _check_grid(c_grid)
    check_count("min_grid", min_grid, 64)
    check_count("seed", seed)
    variant = FiniteSampleVariant(N=N, h=h, variance_method=variance_method)
    # coupled: refine each unit cell of the walks into at least min_grid / N cells
    grid_M = int(np.ceil(min_grid / N)) * N if coupled else min_grid
    cfg = LimitConfig(zeta=N / h, kernel=kernel, grid_M=grid_M)
    if coupled:
        fchunks, lchunks = zip(*_chunked(_coupled_chunk, reps, jobs, variant, c_grid, seed, cfg))
    else:
        fchunks = _chunked(_finite_chunk, reps, jobs, variant, kernel, c_grid, seed)
        lchunks = _chunked(_limit_chunk, reps, jobs, cfg, c_grid, seed, (3,))
    return ConservativenessReport(
        c_grid=c_grid,
        finite_arl=_mean_stops(fchunks),
        limit_arl=_mean_stops(lchunks),
        meta={"N": N, "h": h, "zeta": cfg.zeta, "kernel": kernel.family,
              "reps": reps, "seed": seed, "coupled": bool(coupled), "grid_M": grid_M},
    )
