"""Asymptotic objects: Brownian paths, kernel-weighted limit processes,
limit variances, deterministic drift terms, and limit stopping times.

The null limit of the scaled smoother at normed time s is the ratio

    M(s) = sigma * int_0^s K(zeta (r - s)) B(r) dr / (zeta int_0^s K(zeta (r - s)) dr)

with B standard Brownian motion and zeta the horizon-to-bandwidth ratio.
Under slowly vanishing alternatives a deterministic drift term

    mu(s) = int_0^s K(zeta (r - s)) M0(zeta (r - theta)) dr
            / (zeta^{3/2} int_0^s K(zeta (r - s)) dr)

is added, with M0(x) = int_0^x m0 and theta = 0 under cp1.  Designs replace
the kernel factor by its design-transformed argument; a fixed design, which
moves the data off the walk's unit times, also turns M0 into an integral over
normed time (``_drift_inner``).

Every quadrature limit object integrates over one kernel window: the one
design-aware ``window_integral`` gives int_0^s w(r) g(r) dr for the kernel
factor w above (design-transformed under a design) and any g.  Without a
design each call builds one integrand, r -> k(zeta (r - s)) g(r), that calls
the kernel's scalar evaluator k (``KernelSpec.scalar``) directly, and
``sigma_k_sq``'s inner rule u -> u w(u) calls the same w.  A drift's g calls
the shape's scalar evaluator (``scalar_integral``), directly or through
``integral``'s float branch.  The evaluators return what a one-element array
would, so every ``quad`` result is what it was when each point went through
``KernelSpec.evaluate``.

Paths are discretized on the grid {j / grid_M}; the weighted Brownian
integrals use the trapezoid rule on the same grid, evaluated for all anchor
points at once: through the FFT causal convolution (``estimator.causal_sums``,
which calibration's null charts share) for stationary kernel arguments,
and through the batch smoother's row blocks under a design.  Below
s_min = 4 / grid_M the discretization is too coarse to be meaningful and
process values are NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.optimize import brentq

from .estimator import SmootherConfig, _process_parts, causal_sums
from .kernels import KernelSpec, _quad
from .monitor import first_crossings
from .seriesgen import (
    GenericAlternative, TimeDesign, check_count, seed_sequence, write_two_columns,
)

S_MIN_CELLS = 4  # process values start at s = S_MIN_CELLS / grid_M
OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class LimitDrift:
    """Drift shape and change-point model for the limit objects.

    cp1 keeps no change-point parameter (the limit is change-point free);
    cp2 shifts the drift by zeta * theta.  theta = 1 is allowed as the
    boundary case of a change at the very horizon (zero drift).
    """

    m0: GenericAlternative
    cp_model: str = "cp1"
    theta: float | None = None

    def __post_init__(self):
        if self.cp_model == "cp1":
            pass
        elif self.cp_model == "cp2":
            if self.theta is None or not (0.0 < self.theta <= 1.0):
                raise ValueError("cp2 limit drift needs theta in (0, 1]")
        else:
            raise ValueError(f"cp_model must be 'cp1' or 'cp2', got {self.cp_model!r}")


@dataclass(frozen=True)
class LimitConfig:
    zeta: float
    kernel: KernelSpec
    sigma: float = 1.0
    grid_M: int = 2048
    drift: LimitDrift | None = None
    design: TimeDesign | None = None

    def __post_init__(self):
        if not 1.0 <= self.zeta < np.inf:
            raise ValueError(f"zeta must be finite and >= 1, got {self.zeta!r}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        check_count("grid_M", self.grid_M, 64)
        if self.design is not None and self.drift is not None:
            if self.design.mode == "rolling" and self.drift.cp_model != "cp1":
                raise ValueError("rolling designs pair with the cp1 change-point model")
            if self.design.mode == "fixed" and self.drift.cp_model != "cp2":
                raise ValueError("fixed designs pair with the cp2 change-point model")

    @property
    def s_min(self) -> float:
        return S_MIN_CELLS / self.grid_M

    @property
    def s_grid(self) -> np.ndarray:
        return np.arange(1, self.grid_M + 1) / self.grid_M


def _bm_paths(grid_M: int, seeds) -> np.ndarray:
    """Standard Brownian paths on {j/grid_M}, one row per seed; column 0 is B(0) = 0.

    Row i draws its grid_M increments from one stream, the one ``seeds[i]``
    stands for, so it equals ``sample_bm(grid_M, seeds[i])`` bit for bit.
    The increments are drawn into the rows, scaled and summed in place: the
    rows are the only array the builder allocates.
    """
    check_count("grid_M", grid_M, 1)
    paths = np.zeros((len(seeds), grid_M + 1))
    inc = paths[:, 1:]
    for row, seed in zip(inc, seeds):
        np.random.default_rng(seed_sequence(seed)).standard_normal(out=row)
    inc *= np.sqrt(1.0 / grid_M)
    np.cumsum(inc, axis=1, out=inc)
    return paths


def sample_bm(grid_M: int, seed) -> np.ndarray:
    """Standard Brownian path on {j/grid_M}, j = 0..grid_M; B(0) = 0.

    The row of ``_bm_paths`` for this seed: the same stream, the same bits.
    """
    return _bm_paths(grid_M, [seed])[0]


# ---------------------------------------------------------------------------
# weight functions (design-aware kernel factor)
# ---------------------------------------------------------------------------


def _weight_fn(cfg: LimitConfig, s, g=None):
    """r -> K(arg(r, s)) g(r) with the design-transformed argument, g = 1 when omitted.

    Without a design this is one closure over the kernel's scalar evaluator
    (and ``g``), for float r and s; under one, ``s`` may be an array.
    """
    K, zeta = cfg.kernel, cfg.zeta
    design = cfg.design
    if design is None:
        k = K.scalar
        if g is None:
            return lambda r: k(zeta * (r - s))
        return lambda r: k(zeta * (r - s)) * g(r)
    if design.mode == "rolling":
        def w(r):
            return K.evaluate(zeta * s * (design.ft_inverse(np.asarray(r, dtype=float) / s) - 1.0))
    else:
        fs = design.ft_inverse(s)

        def w(r):
            return K.evaluate(zeta * (design.ft_inverse(np.asarray(r, dtype=float)) - fs))
    return w if g is None else lambda r: w(r) * g(r)


def _weight_breaks(cfg: LimitConfig, s: float) -> list[float]:
    # the r-values where K(zeta (r - s)) kinks; closed-form only without a design
    return [] if cfg.design is not None else [s + z / cfg.zeta for z in cfg.kernel.breakpoints()]


def window_integral(cfg: LimitConfig, s: float, g=None, breaks=()) -> float:
    """int_0^s w(r) g(r) dr for the (design-transformed) kernel factor w, g = 1 when
    omitted, on panels cut at the kernel's kinks and at ``breaks``, the kinks of g."""
    return _quad(_weight_fn(cfg, s, g), 0.0, s, _weight_breaks(cfg, s) + list(breaks))


def _weight_mass(cfg: LimitConfig, s: float) -> float:
    """int_0^s of the (design-transformed) kernel factor; raises if it is not positive."""
    mass = window_integral(cfg, s)
    if mass <= 0.0:
        raise ValueError(f"weight mass vanishes at s = {s}")
    return mass


def limit_weight_integral(kernel: KernelSpec, zeta: float, s: float) -> float:
    """Continuum weight mass zeta * int_0^s K(zeta (r - s)) dr.

    This is the limit of ``kernels.weight_sum`` over an equidistant design
    1..n at t_now = n when n, h -> infinity with n/h -> zeta.
    """
    cfg = LimitConfig(zeta=zeta, kernel=kernel)
    if not 0 < s <= 1:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    return zeta * window_integral(cfg, s)


# ---------------------------------------------------------------------------
# trapezoid machinery on the path grid
# ---------------------------------------------------------------------------


def _num_den(cfg: LimitConfig, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid numerator/denominator of the ratio for stacked paths.

    ``paths`` has shape (batch, M+1) with column 0 at r = 0, where every
    path is 0 (Brownian paths and drift integrals start there).  Returns
    num (batch, M) and den (M,) on s = j/M, j = 1..M.  Without a design the
    kernel arguments are stationary, and the sums over r = 0..s are one FFT
    convolution per path batch.  With one, the sums over r = 1/M..s are the
    batch smoother's on grid times 1..M with bandwidth M/zeta (the limit
    design is continuous, so it is not snapped), rescaled by that bandwidth,
    and the weight at r = 0 comes from ``_weight_fn``.  The end correction
    then halves the weights at both ends of every window: w_0 at r = 0,
    whose path term vanishes, and w_s = K(0) at r = s.
    """
    M = cfg.grid_M
    dt = 1.0 / M
    if cfg.design is None:
        # k_d = K(-zeta d / M), d = 0..M: the weight at lag d
        k = cfg.kernel.evaluate(-cfg.zeta * np.arange(M + 1) / M)
        # the causal part of the linear convolution of each path with k, as
        # scipy.signal.fftconvolve computes it (a real FFT of the next fast
        # length from 2M + 1), bit for bit
        sums = causal_sums(paths, k)[:, 1:]
        mass, w_0, w_s = np.cumsum(k)[1:], k[1:], k[0]
    else:
        h = M / cfg.zeta
        smoother = SmootherConfig(cfg.kernel, h, design=replace(cfg.design, snap_grid=None))
        num, den = _process_parts(np.arange(1.0, M + 1.0), paths[:, 1:], smoother)
        w_0 = _weight_fn(cfg, cfg.s_grid)(0.0)
        sums, mass, w_s = h * num, h * den + w_0, cfg.kernel.evaluate(0.0)
    # dt * (sums - 0.5 w_s path), one array: the same operations, in place
    num = np.multiply(0.5 * w_s, paths[:, 1:])
    np.subtract(sums, num, out=num)
    num *= dt
    den = cfg.zeta * dt * (mass - 0.5 * w_0 - 0.5 * w_s)
    return num, den


def _null_values(cfg: LimitConfig, paths: np.ndarray) -> np.ndarray:
    """sigma * num / den with entries below s_min masked to NaN."""
    vals, den = _num_den(cfg, paths)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals *= cfg.sigma
        vals /= den
    vals[:, : S_MIN_CELLS - 1] = np.nan
    return vals


def null_limit_process(cfg: LimitConfig, seed) -> np.ndarray:
    """One sampled path of the null limit process on the s-grid {j/grid_M}.

    Entry j-1 is the process at s = j/grid_M; entries below s_min are NaN.
    """
    B = sample_bm(cfg.grid_M, seed)
    return _null_values(cfg, B[None, :])[0]


def _batch_null_values(cfg: LimitConfig, seeds) -> np.ndarray:
    """Null-process values for many paths (rows); used by calibration."""
    return _null_values(cfg, _bm_paths(cfg.grid_M, seeds))


# ---------------------------------------------------------------------------
# limit variance
# ---------------------------------------------------------------------------


def sigma_k_sq(cfg: LimitConfig, s: float) -> float:
    """Variance of the unit-noise null limit process at normed time s.

    Computed from the Brownian covariance min(u, v) as the double integral
    int int K(zeta(u-s)) K(zeta(v-s)) min(u,v) du dv over [0, s]^2, divided
    by the squared weight mass; reduced by symmetry to nested 1-d adaptive
    quadrature.
    """
    if not cfg.s_min < s <= 1.0:
        raise ValueError(f"s must lie in ({cfg.s_min}, 1], got {s!r}")
    breaks = _weight_breaks(cfg, s)
    w = _weight_fn(cfg, s)

    def uw(u):
        return u * w(u)

    def inner(v: float) -> float:
        return _quad(uw, 0.0, v, breaks)

    num = 2.0 * window_integral(cfg, s, inner)
    den = cfg.zeta * _weight_mass(cfg, s)
    return num / den**2


# ---------------------------------------------------------------------------
# drift terms
# ---------------------------------------------------------------------------


def _drift_inner(cfg: LimitConfig):
    """(r -> the drift's inner integral up to normed time r, kinks of that map in r).

    This is the one place that knows the drift's time axis.  Without a design,
    and under a rolled design, which re-weights past records but keeps them on
    the walk's unit times, the map is the closed form M0(zeta r - zeta theta)
    (theta = 0 under cp1).  A fixed design moves the data: the map is
    int_0^r zeta m0(zeta (F^{-1}(u) - F^{-1}(theta))) du over normed time u,
    one quadrature per point.  The kinks, the drift shape's knots pushed
    through the change point (and the design map), guide the outer
    quadrature panels.  The map takes a point or an array of them.
    """
    d, zeta, design = cfg.drift, cfg.zeta, cfg.design
    if design is None or design.mode == "rolling":
        off = zeta * d.theta if d.cp_model == "cp2" else 0.0
        return (lambda r: d.m0.integral(zeta * r - off)), [(off + k) / zeta for k in d.m0.knots()]

    ftheta = float(design.ft_inverse(d.theta))
    # the u where zeta (F^{-1}(u) - F^{-1}(theta)) meets a knot
    u_breaks = [float(design.ft_forward(ftheta + k / zeta)) for k in d.m0.knots()
                if 0.0 <= ftheta + k / zeta <= 1.0]

    def inner(r):
        if np.ndim(r):
            return np.array([inner(x) for x in r])
        if r <= 0.0:
            return 0.0
        return _quad(lambda u: zeta * float(d.m0.value(zeta * (design.ft_inverse(u) - ftheta))),
                     0.0, r, u_breaks)

    return inner, u_breaks


def drift_term(cfg: LimitConfig, s: float) -> float:
    """Deterministic drift component mu(s) of the limit under local drift."""
    if cfg.drift is None:
        raise ValueError("drift_term needs a LimitConfig with a drift")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    inner, inner_breaks = _drift_inner(cfg)
    num = window_integral(cfg, s, inner, inner_breaks)
    if not np.isfinite(num) or abs(num) > OVERFLOW_GUARD:
        raise ValueError("drift integrand is not integrable at this configuration")
    return num / (cfg.zeta**1.5 * _weight_mass(cfg, s))


def _drift_curve(cfg: LimitConfig) -> np.ndarray:
    """Drift term on the whole s-grid via the same trapezoid machinery.

    Matches ``drift_term`` up to the O(1/grid_M) trapezoid error; used for
    sampled alternative paths and for bracketing scans.
    """
    M = cfg.grid_M
    inner, _ = _drift_inner(cfg)
    g = np.asarray(inner(np.arange(M + 1) / M), dtype=float)
    num, den = _num_den(cfg, g[None, :])
    # den carries one factor of zeta; the drift denominator needs zeta^{3/2}
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = num[0] / den / np.sqrt(cfg.zeta)
    curve[: S_MIN_CELLS - 1] = np.nan
    return curve


def alt_limit_process(cfg: LimitConfig, seed) -> np.ndarray:
    """Null limit path plus the drift curve (local-alternative limit).

    With a zero drift shape this equals ``null_limit_process`` for the same
    seed exactly.
    """
    if cfg.drift is None:
        raise ValueError("alt_limit_process needs a LimitConfig with a drift")
    return null_limit_process(cfg, seed) + _drift_curve(cfg)


# ---------------------------------------------------------------------------
# limit stopping objects
# ---------------------------------------------------------------------------


def _first_cell(c: float, a: float, M: int) -> int:
    """The start cell of a stop scan from a on the s-grid {j/M}: the least j >= 1 with
    j/M >= a (up to 1e-9).  Raises unless c is not NaN and a lies in [0, 1)."""
    if np.isnan(c) or not 0.0 <= a < 1.0:
        raise ValueError(f"need c not NaN and a in [0, 1), got c={c!r}, a={a!r}")
    return max(int(np.ceil(a * M - 1e-9)), 1)


def limit_stop_sample(cfg: LimitConfig, c: float, a: float, seed) -> float:
    """First s-grid point >= a where a sampled limit path exceeds c; 1 if none."""
    start = _first_cell(c, a, cfg.grid_M)
    vals = alt_limit_process(cfg, seed) if cfg.drift is not None else null_limit_process(cfg, seed)
    j = int(first_crossings(vals, [c], start)[0])
    return j / cfg.grid_M if j else 1.0


def asymptotic_normed_delay(cfg: LimitConfig, c: float, a: float = 0.0) -> float:
    """First s in [a, 1] where the deterministic drift term exceeds c; 1 if none.

    Grid scan for a bracket, then root refinement against the quadrature
    drift term to tolerance 1e-6.  Each s is evaluated once per call: the
    bracket checks and the root search share one memo of the drift term.
    """
    if cfg.drift is None:
        raise ValueError("asymptotic_normed_delay needs a LimitConfig with a drift")
    M = cfg.grid_M
    start = _first_cell(c, a, M)
    floor = max(a, 1e-6)

    @cache
    def g(s: float) -> float:
        return drift_term(cfg, s) - c

    if g(floor) > 0.0:
        # exceeds already at the first eligible instant; the infimum is a
        return a

    j = int(first_crossings(_drift_curve(cfg), [c], start)[0])
    if not j:
        if not g(1.0) > 0.0:
            return 1.0
        j = M  # crossing hides between the last grid cells
    lo = max(floor, (j - 1) / M)
    hi = j / M
    # trapezoid vs quadrature discrepancies can shift the bracket by a cell
    steps = 0
    while g(lo) > 0.0 and lo - 1.0 / M > floor and steps < 4:
        lo = max(floor, lo - 1.0 / M)
        steps += 1
    steps = 0
    while g(hi) <= 0.0 and hi < 1.0 and steps < 4:
        hi = min(1.0, hi + 1.0 / M)
        steps += 1
    if g(lo) > 0.0:
        return a
    if g(hi) <= 0.0:
        return 1.0
    return float(brentq(g, lo, hi, xtol=1e-7))


def save_path_csv(cfg: LimitConfig, values: np.ndarray, path) -> None:
    """Write a sampled limit path (or drift curve) as an ``s,value`` CSV."""
    if len(values) != cfg.grid_M:
        raise ValueError(f"expected {cfg.grid_M} values on the s-grid, got {len(values)}")
    write_two_columns(path, ("s", "value"), cfg.s_grid, values)


def check_km_condition(
    kernel: KernelSpec,
    m0: GenericAlternative,
    c: float,
    x_max: float = 20.0,
) -> bool:
    """Numerically test the kernel/alternative detectability condition.

    Reports whether I(x) = int_0^x K(s - x) int_0^s m0(r) dr ds exceeds c on
    [0, x_max] while finite.  With K >= 0 and m0 >= 0, I(x) = int_0^x K(-u)
    M0(x - u) du is nondecreasing in x, so I(x_max), or I(0) = 0, decides.
    Divergence (non-finite or beyond the overflow guard, or an integrand
    that raises ArithmeticError or, with warnings as errors, RuntimeWarning)
    reports False rather than raising; any other exception propagates.
    """
    if np.isnan(c) or not 0 < x_max < np.inf:
        raise ValueError(f"need c not NaN and 0 < x_max < inf, got c={c!r}, x_max={x_max!r}")
    try:
        val = window_integral(LimitConfig(zeta=1.0, kernel=kernel), float(x_max), m0.scalar_integral)
    except (ArithmeticError, RuntimeWarning):
        # a divergent integrand: Python float overflow, or numpy's overflow
        # warning when warnings are errors; anything else is a bug and propagates
        return False
    return bool(np.isfinite(val) and abs(val) <= OVERFLOW_GUARD and max(val, 0.0) > c)
