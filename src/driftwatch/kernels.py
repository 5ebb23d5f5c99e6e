"""Smoothing kernels: evaluation, rescaling, discrete weight sums and limit weight integrals.

A kernel here is a Lipschitz-continuous probability density with mean zero
and finite variance.  Built-in families: standard Gaussian, Epanechnikov
K(z) = (3/4)(1 - z^2) on [-1, 1], and the standardized (unit-variance)
Laplace K(z) = (1/sqrt(2)) exp(-sqrt(2)|z|).  Arbitrary kernels can be
loaded from a two-column CSV (``z,k``) and are linearly interpolated.

Unbounded families are truncated for quadrature and weight sums; the
truncation radii are chosen so the discarded tail mass stays below 1e-14,
which keeps the density/mean checks valid at their 1e-8 tolerance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import integrate

from .seriesgen import _read_two_columns, write_two_columns

# Tail mass beyond the radius must stay below 1e-14:
# Gaussian: 2*Phi(-8) ~ 1.2e-15.  Laplace: exp(-sqrt(2)*24) ~ 1.8e-15.
GAUSSIAN_TRUNCATION = 8.0
LAPLACE_TRUNCATION = 24.0

_SQRT2 = np.sqrt(2.0)
_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)

# quadrature tolerances used throughout the package
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8

_FAMILIES = ("gaussian", "epanechnikov", "laplace", "tabulated")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A smoothing kernel with its support and Lipschitz constant.

    Attributes
    ----------
    family : str
        One of ``gaussian``, ``epanechnikov``, ``laplace``, ``tabulated``.
    support : (float, float)
        Closed interval outside of which the kernel evaluates to 0.  For the
        unbounded families this is the truncation interval.
    lipschitz_bound : float
        Constant L with ``|K(z1) - K(z2)| <= L |z1 - z2|``.
    knots_z, knots_k : ndarray or None
        Interpolation knots, tabulated family only.
    """

    family: str
    support: tuple[float, float]
    lipschitz_bound: float
    knots_z: np.ndarray | None = field(default=None, repr=False)
    knots_k: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def _knots(self) -> tuple[list[float], list[float]]:
        return self.knots_z.tolist(), self.knots_k.tolist()

    def evaluate(self, z) -> np.ndarray:
        """Vectorized K(z); zero outside the support.

        A float argument, one quadrature point, takes a scalar branch that
        applies the same IEEE operations in the same order as the array
        branch, so it returns bit for bit what a one-element array would.
        """
        lo, hi = self.support
        if isinstance(z, float) and self.family in _FAMILIES:
            if not lo <= z <= hi:
                return 0.0
            # np.exp, not math.exp: the two differ in the last bit on some inputs
            if self.family == "gaussian":
                return _GAUSS_NORM * np.exp(-0.5 * z * z)
            if self.family == "epanechnikov":
                return 0.75 * (1.0 - z * z)
            if self.family == "laplace":
                return (1.0 / _SQRT2) * np.exp(-_SQRT2 * abs(z))
            # np.interp's rule: a knot (or the last one) keeps its value, otherwise
            # the left knot's slope; a NaN retries from the right knot, then holds
            zs, ks = self._knots
            j = bisect_right(zs, z) - 1
            if j == len(zs) - 1 or zs[j] == z:
                return ks[j]
            slope = (ks[j + 1] - ks[j]) / (zs[j + 1] - zs[j])
            out = slope * (z - zs[j]) + ks[j]
            if out != out:
                out = slope * (z - zs[j + 1]) + ks[j + 1]
                if out != out and ks[j] == ks[j + 1]:
                    out = ks[j]
            return out
        z = np.asarray(z, dtype=float)
        inside = (z >= lo) & (z <= hi)
        if self.family == "gaussian":
            out = np.where(inside, _GAUSS_NORM * np.exp(-0.5 * z * z), 0.0)
        elif self.family == "epanechnikov":
            out = np.where(inside, 0.75 * (1.0 - z * z), 0.0)
        elif self.family == "laplace":
            out = np.where(inside, (1.0 / _SQRT2) * np.exp(-_SQRT2 * np.abs(z)), 0.0)
        elif self.family == "tabulated":
            out = np.where(inside, np.interp(z, self.knots_z, self.knots_k), 0.0)
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")
        return out

    __call__ = evaluate

    def breakpoints(self) -> np.ndarray:
        """Points where the kernel is not smooth (for quadrature panels)."""
        lo, hi = self.support
        if self.family == "tabulated":
            return np.asarray(self.knots_z, dtype=float)
        if self.family == "laplace":
            return np.array([lo, 0.0, hi])
        return np.array([lo, hi])


def gaussian_kernel() -> KernelSpec:
    # max |K'| attained at z = +-1
    return KernelSpec(
        family="gaussian",
        support=(-GAUSSIAN_TRUNCATION, GAUSSIAN_TRUNCATION),
        lipschitz_bound=_GAUSS_NORM * np.exp(-0.5),
    )


def epanechnikov_kernel() -> KernelSpec:
    return KernelSpec(family="epanechnikov", support=(-1.0, 1.0), lipschitz_bound=1.5)


def laplace_kernel() -> KernelSpec:
    return KernelSpec(
        family="laplace",
        support=(-LAPLACE_TRUNCATION, LAPLACE_TRUNCATION),
        lipschitz_bound=1.0,
    )


def tabulated_kernel(knots_z, knots_k) -> KernelSpec:
    """Kernel linearly interpolated between knots; L is the max slope."""
    z = np.asarray(knots_z, dtype=float)
    k = np.asarray(knots_k, dtype=float)
    if z.ndim != 1 or z.shape != k.shape or len(z) < 2:
        raise ValueError("tabulated kernel needs matching 1-d knot arrays, length >= 2")
    if np.any(~np.isfinite(z)) or np.any(~np.isfinite(k)):
        raise ValueError("tabulated kernel knots must be finite")
    if np.any(np.diff(z) <= 0):
        raise ValueError("tabulated kernel knots must be strictly increasing")
    if np.any(k < 0):
        i = int(np.argmax(k < 0))
        raise ValueError(
            f"tabulated kernel values must be nonnegative, got k={float(k[i])!r} at z={float(z[i])!r}"
        )
    slopes = np.diff(k) / np.diff(z)
    return KernelSpec(
        family="tabulated",
        support=(float(z[0]), float(z[-1])),
        lipschitz_bound=float(np.max(np.abs(slopes))) if len(slopes) else 0.0,
        knots_z=z,
        knots_k=k,
    )


_BUILTINS = {
    "gaussian": gaussian_kernel,
    "epanechnikov": epanechnikov_kernel,
    "laplace": laplace_kernel,
}


def kernel_by_name(name: str) -> KernelSpec:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_BUILTINS)} or load a CSV"
        ) from None


def _candidate_names(candidates: list[KernelSpec]) -> list[str]:
    """Family names of candidate kernels; the k-th repeat of a family is ``family#k``."""
    families = [k.family for k in candidates]
    names = []
    for i, family in enumerate(families):
        repeat = families[:i].count(family) + 1
        names.append(family if repeat == 1 else f"{family}#{repeat}")
    return names


def load_kernel_csv(path) -> KernelSpec:
    """Load a tabulated kernel from a CSV with header ``z,k``."""
    return _read_two_columns(path, ("z", "k"), tabulated_kernel)


def save_kernel_csv(kernel: KernelSpec, path, n_points: int = 512) -> None:
    """Write a kernel as a ``z,k`` CSV (tabulated kernels keep their knots)."""
    if kernel.family == "tabulated":
        z = kernel.knots_z
    else:
        z = np.linspace(kernel.support[0], kernel.support[1], n_points)
    write_two_columns(path, ("z", "k"), z, kernel.evaluate(z))


def eval_kernel(kernel: KernelSpec, z: float) -> float:
    """K(z) for a scalar argument; zero outside the support."""
    if not np.isfinite(z):
        raise ValueError(f"kernel argument must be finite, got {z!r}")
    return float(kernel.evaluate(z))


def eval_rescaled(kernel: KernelSpec, h: float, z: float) -> float:
    """Rescaled kernel K_h(z) = K(z/h)/h for bandwidth h > 0."""
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    return eval_kernel(kernel, z / h) / h


def weight_sum(kernel: KernelSpec, h: float, times, t_now: float) -> float:
    """Discrete weight mass sum_i K_h(t_i - t_now) over the given times."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("weight_sum needs at least one time point")
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    return float(np.sum(kernel.evaluate((times - t_now) / h)) / h)


_MAX_BREAKS = 40


def _quad(f, a, b, breakpoints=()) -> float:
    """Adaptive quadrature with interior breakpoints clipped to (a, b).

    Dense knot sets (tabulated kernels) are subsampled; the adaptive rule
    resolves the remaining mild kinks on its own.
    """
    pts = sorted(p for p in set(breakpoints) if a < p < b)
    if len(pts) > _MAX_BREAKS:
        idx = np.unique(np.linspace(0, len(pts) - 1, _MAX_BREAKS).astype(int))
        pts = [pts[i] for i in idx]
    val, _ = integrate.quad(
        f, a, b, points=pts or None, limit=200, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL
    )
    return val


def arg_breaks(kernel: KernelSpec, zeta: float, s: float) -> list[float]:
    """The r-values where K(zeta (r - s)) loses smoothness (quadrature panels)."""
    return [s + z / zeta for z in kernel.breakpoints()]


def limit_weight_integral(kernel: KernelSpec, zeta: float, s: float) -> float:
    """Continuum weight mass zeta * int_0^s K(zeta (r - s)) dr.

    This is the limit of ``weight_sum`` over an equidistant design 1..n at
    t_now = n when n, h -> infinity with n/h -> zeta.
    """
    if not zeta >= 1:
        raise ValueError(f"zeta must be >= 1, got {zeta!r}")
    if not 0 < s <= 1:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    val = _quad(lambda r: kernel.evaluate(zeta * (r - s)), 0.0, s, arg_breaks(kernel, zeta, s))
    return zeta * val


def validate_kernel(kernel: KernelSpec, seed: int = 0, n_pairs: int = 256) -> dict:
    """Check the probability-density contract; raises ValueError on violation.

    Verifies unit mass and zero mean to 1e-8, finite second moment,
    nonnegativity, and the Lipschitz bound on a random grid of pairs.
    Returns the measured quantities.
    """
    lo, hi = kernel.support
    breaks = kernel.breakpoints()
    mass = _quad(lambda z: kernel.evaluate(z), lo, hi, breaks)
    mean = _quad(lambda z: z * kernel.evaluate(z), lo, hi, breaks)
    second = _quad(lambda z: z * z * kernel.evaluate(z), lo, hi, breaks)
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"kernel mass {mass!r} differs from 1 by more than 1e-8")
    if abs(mean) > 1e-8:
        raise ValueError(f"kernel mean {mean!r} exceeds 1e-8")
    if not np.isfinite(second):
        raise ValueError("kernel second moment is not finite")

    rng = np.random.default_rng(seed)
    z1 = rng.uniform(lo - 1.0, hi + 1.0, n_pairs)
    z2 = rng.uniform(lo - 1.0, hi + 1.0, n_pairs)
    k1, k2 = kernel.evaluate(z1), kernel.evaluate(z2)
    if np.any(k1 < 0) or np.any(k2 < 0):
        raise ValueError("kernel takes negative values")
    lhs = np.abs(k1 - k2)
    rhs = kernel.lipschitz_bound * np.abs(z1 - z2) + 1e-12
    if np.any(lhs > rhs):
        i = int(np.argmax(lhs - rhs))
        raise ValueError(
            f"Lipschitz bound violated at ({z1[i]}, {z2[i]}): "
            f"|dK| = {lhs[i]} > L|dz| = {rhs[i]}"
        )
    return {"mass": mass, "mean": mean, "second_moment": second}
