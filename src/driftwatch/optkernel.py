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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.optimize import brentq

from .kernels import KernelSpec, _candidate_names, _quad, _window_integral, tabulated_kernel
from .limitsim import LimitConfig, LimitDrift, asymptotic_normed_delay
from .seriesgen import GenericAlternative, write_two_columns

SCAN_STEP = 1e-3
DELAY_TOL = 1e-6


@dataclass(frozen=True)
class TruncatedAlternative:
    """A drift shape forced to zero beyond t_max (finite total mass)."""

    base: GenericAlternative
    t_max: float

    @property
    def name(self) -> str:
        return f"{self.base.name}|t<={self.t_max:g}"

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.t_max, self.base.value(t), 0.0)

    __call__ = value

    def integral(self, x) -> np.ndarray:
        if isinstance(x, float):
            # np.minimum(x, t_max) on one value (NaN passes) up to the sign of a
            # zero, which the base shape's integral maps to 0.0 either way
            return self.base.integral(min(x, self.t_max))
        x = np.asarray(x, dtype=float)
        return self.base.integral(np.minimum(x, self.t_max))


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
    """int_0^u M0(r)^p dr."""
    return _quad(lambda r: float(m0.integral(r)) ** p, 0.0, u)


def _delay_ratio(m0, s: float) -> float:
    num, den = _power_integral(m0, s, 2), _power_integral(m0, s, 1)
    return num / den if den > 0.0 else 0.0


def optimal_delay(m0: GenericAlternative | TruncatedAlternative, c: float) -> float:
    """First s in (0, 1] where the optimal-kernel delay ratio exceeds c.

    Requires int_0^s M0^2 to be positive and finite on all of (0, 1]
    (checked numerically at the scan scale); 1 when there is no crossing.
    Each s is evaluated once per call: the scan and the root search share
    one memo of the delay ratio.
    """
    probe, full = _power_integral(m0, SCAN_STEP, 2), _power_integral(m0, 1.0, 2)
    if not (probe > 0.0 and np.isfinite(full)):
        raise ValueError(
            "the squared cumulative drift must be positive and finite on (0, 1]; "
            "a drift that vanishes near 0 (or everywhere) has no optimal-delay form"
        )
    if c < 0.0:
        return 0.0

    @cache
    def g(s: float) -> float:
        return _delay_ratio(m0, s) - c

    grid = np.arange(SCAN_STEP, 1.0 + SCAN_STEP / 2, SCAN_STEP)
    prev = 1e-9
    for s in grid:
        if g(float(s)) > 0.0:
            if g(prev) > 0.0:
                return float(prev)
            return float(brentq(g, prev, float(s), xtol=DELAY_TOL / 4))
        prev = float(s)
    return 1.0


def optimal_kernel(
    m0: GenericAlternative,
    zeta: float,
    c: float,
    t_max: float | None = None,
    n_points: int = 1001,
) -> OptimalSolution:
    """Tabulate the optimal kernel on [-zeta s*, zeta s*].

    The shape is truncated at ``t_max`` (default zeta) so the normalizer
    2 int_0^{t_max} M0(r) dr is finite; the tabulated values are
    M0(z/zeta + s*) / normalizer, nondecreasing in z.
    """
    if not zeta >= 1.0:
        raise ValueError(f"zeta must be >= 1, got {zeta!r}")
    t_max = float(zeta) if t_max is None else float(t_max)
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    trunc = TruncatedAlternative(m0, t_max)
    s_star = optimal_delay(trunc, c)
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
    num = _window_integral(kernel, zeta, s_star, m0.integral)
    den = _window_integral(kernel, zeta, s_star)
    if den <= 0.0:
        raise ValueError("kernel places no mass on the averaging window")
    return num / den


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
    completed kernel against the closed-form delay ratio.
    """
    if not candidates:
        raise ValueError("need at least one candidate kernel")
    sol = optimal_kernel(m0, zeta, c, t_max)
    completed = completed_kernel(sol)

    def delay_for(kernel: KernelSpec) -> float:
        cfg = LimitConfig(zeta=zeta, kernel=kernel, grid_M=grid_M, drift=LimitDrift(m0, "cp1"))
        return asymptotic_normed_delay(cfg, c)

    completed_delay = delay_for(completed)
    delays = {name: delay_for(k) for name, k in zip(_candidate_names(candidates), candidates)}

    tol = 2.0 / grid_M
    trunc = TruncatedAlternative(m0, sol.t_max)
    tau_c = tau_ratio(completed, trunc, zeta, sol.s_star)
    closed_form = _delay_ratio(trunc, sol.s_star)
    mean = float(np.trapezoid(sol.z * completed.evaluate(sol.z), sol.z))
    return OptimalityReport(
        s_star=sol.s_star,
        delay_bound=sol.s_star,
        completed_delay=completed_delay,
        candidate_delays=delays,
        tolerance=tol,
        is_optimal=bool(all(completed_delay <= d + tol for d in delays.values())),
        tau_completed=tau_c,
        closed_form_ratio=closed_form,
        completed_mean=mean,
    )


def save_solution_csv(sol: OptimalSolution, path) -> None:
    """Write the raw tabulation as a ``z,k`` CSV (loadable as a tabulated kernel)."""
    write_two_columns(path, ("z", "k"), sol.z, sol.kernel_values)
