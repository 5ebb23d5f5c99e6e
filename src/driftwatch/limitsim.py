"""Asymptotic objects: Brownian paths, kernel-weighted limit processes,
limit variances, deterministic drift terms, and limit stopping times.

The null limit of the scaled smoother at normed time s is the ratio

    M(s) = sigma * int_0^s K(zeta (r - s)) B(r) dr / (zeta int_0^s K(zeta (r - s)) dr)

with B standard Brownian motion and zeta the horizon-to-bandwidth ratio.
Under slowly vanishing alternatives a deterministic drift term

    mu(s) = int_0^s K(zeta (r - s)) int_0^{zeta r} m0(t - offset) dt dr
            / (zeta^{3/2} int_0^s K(zeta (r - s)) dr)

is added (offset = zeta * theta under the fractional change-point model,
0 under the fixed one).  Generalized time designs replace the kernel factor
by its design-transformed argument.

Paths are discretized on the grid {j / grid_M}; the weighted Brownian
integrals use the trapezoid rule on the same grid, evaluated for all anchor
points at once: through an FFT convolution for stationary kernel arguments,
and through the batch smoother's row blocks under a design.  Below
s_min = 4 / grid_M the discretization is too coarse to be meaningful and
process values are NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.optimize import brentq
from scipy.signal import fftconvolve

from .estimator import SmootherConfig, _process_parts
from .kernels import KernelSpec, _quad, _window_integral, arg_breaks
from .seriesgen import GenericAlternative, TimeDesign, seed_sequence, write_two_columns

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
        if not self.zeta >= 1.0:
            raise ValueError(f"zeta must be >= 1, got {self.zeta!r}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if self.grid_M < 64:
            raise ValueError(f"grid_M must be >= 64, got {self.grid_M!r}")
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
    if grid_M < 1:
        raise ValueError(f"grid_M must be >= 1, got {grid_M!r}")
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


def _weight_fn(cfg: LimitConfig, s):
    """r -> K(arg(r, s)) with the design-transformed argument; ``s`` may be an array."""
    K, zeta = cfg.kernel, cfg.zeta
    design = cfg.design
    if design is None:
        return lambda r: K.evaluate(zeta * (r - s))
    if design.mode == "rolling":
        return lambda r: K.evaluate(
            zeta * s * (design.ft_inverse(np.asarray(r, dtype=float) / s) - 1.0)
        )
    fs = design.ft_inverse(s)
    return lambda r: K.evaluate(zeta * (design.ft_inverse(np.asarray(r, dtype=float)) - fs))


def _weight_breaks(cfg: LimitConfig, s: float) -> list[float]:
    # exact kernel kink locations exist in closed form only without a design
    return [] if cfg.design is not None else arg_breaks(cfg.kernel, cfg.zeta, s)


def _weight_mass(cfg: LimitConfig, s: float) -> float:
    """int_0^s of the (design-transformed) kernel factor; raises if it is not positive."""
    mass = _quad(_weight_fn(cfg, s), 0.0, s, _weight_breaks(cfg, s))
    if mass <= 0.0:
        raise ValueError(f"weight mass vanishes at s = {s}")
    return mass


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
        sums = fftconvolve(paths, k[None, :], axes=1)[:, 1 : M + 1]
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
    f = _weight_fn(cfg, s)
    breaks = _weight_breaks(cfg, s)

    def inner(v: float) -> float:
        return _quad(lambda u: u * f(u), 0.0, v, breaks)

    num = 2.0 * _quad(lambda v: f(v) * inner(v), 0.0, s, breaks)
    den = cfg.zeta * _weight_mass(cfg, s)
    return num / den**2


# ---------------------------------------------------------------------------
# drift terms
# ---------------------------------------------------------------------------


def _drift_offset(cfg: LimitConfig) -> float:
    d = cfg.drift
    return cfg.zeta * d.theta if d.cp_model == "cp2" else 0.0


def _drift_inner(cfg: LimitConfig):
    """(r -> int_0^{zeta r} m0(...) dt, kinks of that map in r).

    The kink locations come from the knots of the drift shape pushed through
    the change-point offset (and, under a fixed design, through the design
    map); they guide the outer quadrature panels.
    """
    d = cfg.drift
    zeta = cfg.zeta
    design = cfg.design
    if design is None:
        off = _drift_offset(cfg)
        return (lambda r: d.m0.integral(zeta * r - off)), [(off + k) / zeta for k in d.m0.knots()]
    if design.mode == "rolling":
        # rolled designs keep the change-point-free inner integral int_0^r m0
        return d.m0.integral, list(d.m0.knots())

    ftheta = float(design.ft_inverse(d.theta))
    # composed-argument jump points: zeta (F^{-1}(t/zeta) - F^{-1}(theta)) = knot
    t_breaks = []
    for k in d.m0.knots():
        v = ftheta + k / zeta
        if 0.0 <= v <= 1.0:
            t_breaks.append(zeta * float(design.ft_forward(v)))

    def inner(r: float) -> float:
        hi = zeta * float(r)
        if hi <= 0.0:
            return 0.0
        return _quad(
            lambda t: d.m0.value(zeta * (design.ft_inverse(t / zeta) - ftheta)),
            0.0, hi, t_breaks,
        )

    return inner, [t / zeta for t in t_breaks]


def drift_term(cfg: LimitConfig, s: float) -> float:
    """Deterministic drift component mu(s) of the limit under local drift."""
    if cfg.drift is None:
        raise ValueError("drift_term needs a LimitConfig with a drift")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    f = _weight_fn(cfg, s)
    inner, inner_breaks = _drift_inner(cfg)
    breaks = _weight_breaks(cfg, s) + inner_breaks
    num = _quad(lambda r: f(r) * inner(r), 0.0, s, breaks)
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
    r = np.arange(M + 1) / M
    g = np.asarray(inner(r) if cfg.design is None or cfg.design.mode == "rolling"
                   else [inner(x) for x in r], dtype=float)
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


def _first_crossing(values: np.ndarray, c: float, a: float, grid_M: int) -> float:
    j0 = max(int(np.ceil(a * grid_M - 1e-9)), S_MIN_CELLS)
    seg = values[j0 - 1 :]
    exceed = seg > c  # NaN compares False
    if np.any(exceed):
        return (j0 + int(np.argmax(exceed))) / grid_M
    return 1.0


def limit_stop_sample(cfg: LimitConfig, c: float, a: float, seed) -> float:
    """First s-grid point >= a where a sampled limit path exceeds c; 1 if none."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must lie in [0, 1), got {a!r}")
    vals = alt_limit_process(cfg, seed) if cfg.drift is not None else null_limit_process(cfg, seed)
    return _first_crossing(vals, c, a, cfg.grid_M)


def asymptotic_normed_delay(cfg: LimitConfig, c: float, a: float = 0.0) -> float:
    """First s in [a, 1] where the deterministic drift term exceeds c; 1 if none.

    Grid scan for a bracket, then root refinement against the quadrature
    drift term to tolerance 1e-6.  Each s is evaluated once per call: the
    bracket checks and the root search share one memo of the drift term.
    """
    if cfg.drift is None:
        raise ValueError("asymptotic_normed_delay needs a LimitConfig with a drift")
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a must lie in [0, 1), got {a!r}")
    M = cfg.grid_M
    floor = max(a, 1e-6)

    @cache
    def g(s: float) -> float:
        return drift_term(cfg, s) - c

    if g(floor) > 0.0:
        # exceeds already at the first eligible instant; the infimum is a
        return a

    curve = _drift_curve(cfg)
    j0 = max(int(np.ceil(a * M - 1e-9)), 1)
    exceed = curve > c  # NaN compares False
    exceed[: j0 - 1] = False
    if np.any(exceed):
        j = int(np.argmax(exceed)) + 1
    elif g(1.0) > 0.0:
        j = M  # crossing hides between the last grid cells
    else:
        return 1.0
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
    n_grid: int = 81,
) -> bool:
    """Numerically test the kernel/alternative detectability condition.

    Evaluates I(x) = int_0^x K(s - x) int_0^s m0(r) dr ds on a grid of x and
    reports whether some I(x) exceeds c while all values stay finite.
    Divergence (non-finite or beyond the overflow guard, or an integrand
    that raises ArithmeticError or, with warnings as errors, RuntimeWarning)
    reports False rather than raising; any other exception propagates.
    """
    xs = np.linspace(0.0, x_max, n_grid)
    vals = np.empty(n_grid)
    for i, x in enumerate(xs):
        try:
            vals[i] = _window_integral(kernel, 1.0, x, m0.integral) if x != 0.0 else 0.0
        except (ArithmeticError, RuntimeWarning):
            # a divergent integrand: Python float overflow, or numpy's overflow
            # warning when warnings are errors; anything else is a bug and propagates
            return False
    if np.any(~np.isfinite(vals)) or np.any(np.abs(vals) > OVERFLOW_GUARD):
        return False
    return bool(np.any(vals > c))
