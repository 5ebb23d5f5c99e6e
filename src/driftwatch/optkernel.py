"""Closed-form optimal detection delay and the matching optimal kernel.

For a drift shape m0 with cumulative M0(r) = int_0^r m0, the best
achievable asymptotic normed delay over all admissible kernels is the first
s where

    int_0^s M0(r)^2 dr / int_0^s M0(r) dr  >  c,

and a kernel attaining it satisfies K*(z) proportional to M0(z/zeta + s*)
on z in [-zeta s*, zeta s*] (a Cauchy-Schwarz equality condition: the
kernel factor must be proportional to M0 along the averaging window).  The
normalizer involves the total mass of M0, so shapes with unbounded mass are
truncated at t_max and the truncation is part of the reported solution.

``verify_optimality`` and ``kernel_comparison_curves`` rank candidate kernels
by their asymptotic normed delays under one drift shape.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np
from scipy.optimize import brentq

from .kernels import KernelSpec, _quad, tabulated_kernel
from .limitsim import LimitConfig, LimitDrift, _drift_curve, asymptotic_normed_delay, window_integral
from .seriesgen import GenericAlternative, ScalarEvaluators, check_count, write_two_columns

SCAN_STEP = 1e-3
DELAY_TOL = 1e-6


@dataclass(frozen=True)
class TruncatedAlternative(ScalarEvaluators):
    """A drift shape forced to zero beyond t_max (finite total mass)."""

    base: GenericAlternative
    t_max: float

    def __post_init__(self):
        if not 0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")

    @property
    def name(self) -> str:
        return f"{self.base.name}|t<={self.t_max:g}"

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.t_max, self.base.value(t), 0.0)

    __call__ = value

    def knots(self) -> list[float]:
        """The base shape's knots below t_max, and t_max, where the shape drops to 0."""
        return [k for k in self.base.knots() if k < self.t_max] + [self.t_max]

    def integral(self, x) -> np.ndarray:
        if isinstance(x, float):
            return self.scalar_integral(x)
        x = np.asarray(x, dtype=float)
        return self.base.integral(np.minimum(x, self.t_max))

    @cached_property
    def scalar_integral(self):
        """``integral`` as a float -> float function, built once: np.minimum(x, t_max)
        on one value (NaN passes) up to the sign of a zero, which the base shape's
        integral maps to 0.0 either way."""
        base, t_max = self.base.scalar_integral, self.t_max
        return lambda x: base(t_max if t_max < x else x)


@dataclass(frozen=True, eq=False)
class OptimalSolution:
    """Optimal delay s*, the kernel tabulation on [-zeta s*, zeta s*], and
    the (truncation-dependent) normalizer."""

    s_star: float
    z: np.ndarray
    kernel_values: np.ndarray
    normalizer: float
    t_max: float
    zeta: float


def _power_integral(m0, u: float, p: int) -> float:
    """int_0^u M0(r)^p dr, on panels cut at the shape's knots, where M0 kinks."""
    m = m0.scalar_integral
    return _quad(lambda r: float(m(r)) ** p, 0.0, u, m0.knots())


def _delay_ratio(m0, s: float) -> float:
    num, den = _power_integral(m0, s, 2), _power_integral(m0, s, 1)
    return num / den if den > 0.0 else 0.0


def optimal_delay(m0: GenericAlternative | TruncatedAlternative, c: float) -> float:
    """First s in [0, 1] where the optimal-kernel delay ratio exceeds c.

    Requires int_0^s M0^2 to be positive and finite on all of (0, 1]
    (checked numerically at the scan scale), so the ratio is positive there
    and every c <= 0 is crossed at s = 0; 1 when there is no crossing.
    With m0 >= 0 (M0 nondecreasing) the ratio R(s) = int_0^s M0^2 / int_0^s M0
    is nondecreasing, so bisecting the scan grid finds the cell that the root
    search brackets; both share one memo of R.  R and s* are on the zeta = 1
    scale: M0(r), not the M0(zeta r) zeta^(-3/2) of ``limitsim.drift_term``.
    """
    probe, full = _power_integral(m0, SCAN_STEP, 2), _power_integral(m0, 1.0, 2)
    if not (probe > 0.0 and np.isfinite(full)):
        raise ValueError(
            "the squared cumulative drift must be positive and finite on (0, 1]; "
            "a drift that vanishes near 0 (or everywhere) has no optimal-delay form"
        )
    if np.isnan(c):
        raise ValueError("the threshold c must not be NaN")
    if c <= 0.0:
        return 0.0

    @cache
    def g(s: float) -> float:
        return _delay_ratio(m0, s) - c

    grid = np.arange(SCAN_STEP, 1.0 + SCAN_STEP / 2, SCAN_STEP).tolist()
    j = bisect_left(grid, True, key=lambda s: g(s) > 0.0)
    if j == len(grid):
        return 1.0
    prev = grid[j - 1] if j else 1e-9
    if g(prev) > 0.0:
        return prev
    return float(brentq(g, prev, grid[j], xtol=DELAY_TOL / 4))


def optimal_kernel(
    m0: GenericAlternative,
    zeta: float,
    c: float,
    t_max: float | None = None,
    n_points: int = 1001,
) -> OptimalSolution:
    """Tabulate the optimal kernel on [-zeta s*, zeta s*]; the threshold c must be > 0.

    The shape is truncated at ``t_max`` (default zeta) so the normalizer
    2 int_0^{t_max} M0(r) dr is finite; the tabulated values are
    M0(z/zeta + s*) / normalizer, nondecreasing in z.  It takes ``n_points >= 3``
    points: the first, z = -zeta s*, holds M0(0) = 0 and ``completed_kernel``
    mirrors it onto the last, so fewer would leave the completed kernel no mass.
    """
    if not 1.0 <= zeta < np.inf:
        raise ValueError(f"zeta must be finite and >= 1, got {zeta!r}")
    t_max = float(zeta) if t_max is None else float(t_max)
    trunc = TruncatedAlternative(m0, t_max)
    check_count("n_points", n_points, 3)
    s_star = optimal_delay(trunc, c)
    if s_star == 0.0:  # c <= 0: crossed at once, so the window [-zeta s*, zeta s*] is a point
        raise ValueError(f"the threshold c must be > 0 for an optimal kernel, got {c!r}")
    normalizer = 2.0 * _power_integral(trunc, t_max, 1)
    if not (np.isfinite(normalizer) and normalizer > 0.0):
        raise ValueError(f"normalizer is degenerate ({normalizer!r}) after truncation")
    z = np.linspace(-zeta * s_star, zeta * s_star, n_points)
    values = np.asarray(trunc.integral(z / zeta + s_star), dtype=float) / normalizer
    return OptimalSolution(
        s_star=s_star, z=z, kernel_values=values, normalizer=normalizer,
        t_max=t_max, zeta=zeta,
    )


def completed_kernel(sol: OptimalSolution) -> KernelSpec:
    """Usable kernel from the solution: mirror the pinned negative half
    (K(z) = K(-|z|)) and renormalize to unit mass."""
    n = len(sol.z)
    half = n // 2
    mirrored = np.concatenate([
        sol.kernel_values[: n - half],
        sol.kernel_values[:half][::-1],
    ])
    mass = np.trapezoid(mirrored, sol.z)
    if mass <= 0.0:
        raise ValueError("completed kernel has no mass; nothing to normalize")
    return tabulated_kernel(sol.z, mirrored / mass)


def tau_ratio(kernel: KernelSpec, m0, zeta: float, s_star: float) -> float:
    """Detection functional int K(zeta(r-s*)) M0(r) dr / int K(zeta(r-s*)) dr."""
    cfg = LimitConfig(zeta=zeta, kernel=kernel)
    num = window_integral(cfg, s_star, m0.scalar_integral)
    den = window_integral(cfg, s_star)
    if den <= 0.0:
        raise ValueError("kernel places no mass on the averaging window")
    return num / den


def _candidate_names(candidates: list[KernelSpec]) -> list[str]:
    """Family names of candidate kernels; the k-th repeat of a family is ``family#k``."""
    families = [k.family for k in candidates]
    names = []
    for i, family in enumerate(families):
        repeat = families[:i].count(family) + 1
        names.append(family if repeat == 1 else f"{family}#{repeat}")
    return names


def _candidate_delays(candidates: list[KernelSpec], m0, zeta: float, c: float,
                      grid_M: int) -> tuple[list[str], list[LimitConfig], list[float]]:
    """Name, cp1 limit configuration under drift shape ``m0`` and asymptotic normed
    delay at threshold ``c`` of each candidate kernel, in order."""
    if not candidates:
        raise ValueError("need at least one candidate kernel")
    cfgs = [LimitConfig(zeta=zeta, kernel=k, grid_M=grid_M, drift=LimitDrift(m0, "cp1"))
            for k in candidates]
    return _candidate_names(candidates), cfgs, [asymptotic_normed_delay(cfg, c) for cfg in cfgs]


@dataclass(frozen=True, eq=False)
class OptimalityReport:
    s_star: float
    delay_bound: float
    completed_delay: float
    candidate_delays: dict
    tolerance: float
    is_optimal: bool
    tau_completed: float
    closed_form_ratio: float
    completed_mean: float


def verify_optimality(
    m0: GenericAlternative,
    zeta: float,
    c: float,
    candidates: list[KernelSpec],
    t_max: float | None = None,
    grid_M: int = 2048,
) -> OptimalityReport:
    """Check that the completed optimal kernel is weakly fastest.

    Computes the asymptotic normed delay for the completed kernel and every
    candidate under the same drift shape, and reports whether the completed
    kernel's delay is within a grid tolerance (2/grid_M) of being smallest.
    Also reports the detection-functional identity at s*: tau of the
    completed kernel against the closed-form delay ratio.  ``delay_bound`` is s*
    on the zeta = 1 scale, so at zeta != 1 ``is_optimal`` does not check it.
    """
    names, cfgs, delays = _candidate_delays(candidates, m0, zeta, c, grid_M)
    sol = optimal_kernel(m0, zeta, c, t_max)
    completed = completed_kernel(sol)
    completed_delay = asymptotic_normed_delay(replace(cfgs[0], kernel=completed), c)

    tol = 2.0 / grid_M
    trunc = TruncatedAlternative(m0, sol.t_max)
    tau_c = tau_ratio(completed, trunc, zeta, sol.s_star)
    closed_form = _delay_ratio(trunc, sol.s_star)
    mean = float(np.trapezoid(sol.z * completed.evaluate(sol.z), sol.z))
    return OptimalityReport(
        s_star=sol.s_star,
        delay_bound=sol.s_star,
        completed_delay=completed_delay,
        candidate_delays=dict(zip(names, delays)),
        tolerance=tol,
        is_optimal=bool(all(completed_delay <= d + tol for d in delays)),
        tau_completed=tau_c,
        closed_form_ratio=closed_form,
        completed_mean=mean,
    )


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
    every candidate, otherwise no crossing exists and 1 is reported.  A
    candidate whose trapezoid weights vanish on the grid (narrower than one
    cell, with K(0) = 0) gets a NaN curve row; its crossing, from the
    quadrature drift term, is still reported.
    """
    names, cfgs, delays = _candidate_delays(candidates, m0, zeta, c, grid_M)
    crossings = np.array(delays)
    return KernelComparison(
        names=names,
        crossings=crossings,
        s_grid=np.arange(1, grid_M + 1) / grid_M,
        curves=np.array([_drift_curve(cfg) for cfg in cfgs]),
        best=names[int(np.argmin(crossings))],
    )


def save_solution_csv(sol: OptimalSolution, path) -> None:
    """Write the raw tabulation as a ``z,k`` CSV (loadable as a tabulated kernel)."""
    write_two_columns(path, ("z", "k"), sol.z, sol.kernel_values)
