"""Smoothing kernels: evaluation, rescaling, discrete weight sums and quadrature.

A kernel here is a Lipschitz-continuous probability density with mean zero
and finite variance.  Built-in families: standard Gaussian, Epanechnikov
K(z) = (3/4)(1 - z^2) on [-1, 1], and the standardized (unit-variance)
Laplace K(z) = (1/sqrt(2)) exp(-sqrt(2)|z|).  Arbitrary kernels can be
loaded from a two-column CSV (``z,k``) and are linearly interpolated.

Unbounded families are truncated for quadrature and weight sums; the
truncation radii are chosen so the discarded tail mass stays below 1e-14,
which keeps the density/mean checks valid at their 1e-8 tolerance.  The
limit layer's kernel-window integrals are ``limitsim.window_integral``.

A kernel is its family and, for a tabulated one, its knots; its support and
Lipschitz bound follow, from the family's row of ``_FAMILIES`` or the knots.

Each kernel builds its float -> float evaluator once, ``KernelSpec.scalar``:
the support test and the family's one formula, or for a tabulated kernel
np.interp's rule on the knot lists with per-interval slopes.  It returns
bit for bit what a one-element array would; ``evaluate``'s float branch is
this evaluator, and the limit layer's quadrature integrands call it
directly.  A pickled kernel leaves it out and rebuilds it on first use.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy import integrate

from .seriesgen import (
    ScalarEvaluators, check_count, read_two_columns, seed_sequence, write_two_columns,
)

# Tail mass beyond the radius must stay below 1e-14:
# Gaussian: 2*Phi(-8) ~ 1.2e-15.  Laplace: exp(-sqrt(2)*24) ~ 1.8e-15.
GAUSSIAN_TRUNCATION = 8.0
LAPLACE_TRUNCATION = 24.0

_SQRT2 = np.sqrt(2.0)
_GAUSS_NORM = 1.0 / np.sqrt(2.0 * np.pi)

# quadrature tolerances used throughout the package
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8

# What defines a built-in family: K(z) on the support, for a float or an array
# (np.exp, not math.exp: the two differ in the last bit on some inputs), the
# support (an unbounded family's truncation interval), the Lipschitz bound and
# the interior points where K is not smooth
_Family = namedtuple("_Family", "formula support lipschitz_bound kinks")
_FAMILIES = {
    # max |K'| attained at z = +-1
    "gaussian": _Family(lambda z: _GAUSS_NORM * np.exp(-0.5 * z * z),
                        (-GAUSSIAN_TRUNCATION, GAUSSIAN_TRUNCATION),
                        _GAUSS_NORM * np.exp(-0.5), ()),
    "epanechnikov": _Family(lambda z: 0.75 * (1.0 - z * z), (-1.0, 1.0), 1.5, ()),
    "laplace": _Family(lambda z: (1.0 / _SQRT2) * np.exp(-_SQRT2 * abs(z)),
                       (-LAPLACE_TRUNCATION, LAPLACE_TRUNCATION), 1.0, (0.0,)),
}


@dataclass(frozen=True, eq=False)
class KernelSpec(ScalarEvaluators):
    """A smoothing kernel: its family and, for a tabulated one, its knots, both
    checked when built.  Its support and Lipschitz bound follow from them.

    Attributes
    ----------
    family : str
        One of ``gaussian``, ``epanechnikov``, ``laplace``, ``tabulated``.
    knots_z, knots_k : ndarray or None
        Interpolation knots, tabulated family only; a built-in family rejects them.
    """

    family: str
    knots_z: np.ndarray | None = field(default=None, repr=False)
    knots_k: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family in _FAMILIES:
            if self.knots_z is not None or self.knots_k is not None:
                raise ValueError(f"the {self.family} kernel takes no knots")
            return
        if self.family != "tabulated":
            raise ValueError(f"unknown kernel family {self.family!r}")
        z = np.asarray(self.knots_z, dtype=float)
        k = np.asarray(self.knots_k, dtype=float)
        if z.ndim != 1 or z.shape != k.shape or len(z) < 2:
            raise ValueError("tabulated kernel needs matching 1-d knot arrays, length >= 2")
        if np.any(~np.isfinite(z)) or np.any(~np.isfinite(k)):
            raise ValueError("tabulated kernel knots must be finite")
        if np.any(np.diff(z) <= 0):
            raise ValueError("tabulated kernel knots must be strictly increasing")
        if np.any(k < 0):
            i = int(np.argmax(k < 0))
            raise ValueError(f"tabulated kernel values must be nonnegative, "
                             f"got k={float(k[i])!r} at z={float(z[i])!r}")
        object.__setattr__(self, "knots_z", z)
        object.__setattr__(self, "knots_k", k)

    @cached_property
    def support(self) -> tuple[float, float]:
        """Closed interval outside of which K is 0; a tabulated kernel's knot span."""
        if self.family == "tabulated":
            return float(self.knots_z[0]), float(self.knots_z[-1])
        return _FAMILIES[self.family].support

    @cached_property
    def lipschitz_bound(self) -> float:
        """L with ``|K(z1) - K(z2)| <= L |z1 - z2|``; a tabulated kernel's steepest slope."""
        if self.family == "tabulated":
            return float(np.max(np.abs(np.diff(self.knots_k) / np.diff(self.knots_z))))
        return _FAMILIES[self.family].lipschitz_bound

    def evaluate(self, z) -> np.ndarray:
        """Vectorized K(z); zero outside the support.

        A float argument, one quadrature point, is ``scalar``'s.  An array
        whose arguments all lie in the support goes to the formula as it is;
        otherwise the formula sees 0 outside the support, so it cannot
        overflow there, and the mask sets those entries to 0.
        """
        if isinstance(z, float):
            return self.scalar(z)
        lo, hi = self.support
        z = np.asarray(z, dtype=float)
        if z.size and lo <= z.min() and z.max() <= hi:  # NaN fails both tests
            # np.asarray keeps a 0-d input a 0-d array, as np.where returns it
            return np.asarray(self._formula(z))
        inside = (z >= lo) & (z <= hi)
        return np.where(inside, self._formula(np.where(inside, z, 0.0)), 0.0)

    @property
    def _formula(self):
        """The family's K(z) on the support, one function for a float or an array."""
        if self.family == "tabulated":
            return partial(np.interp, xp=self.knots_z, fp=self.knots_k)
        return _FAMILIES[self.family].formula

    @cached_property
    def scalar(self):
        """K as a float -> float function, built once, which the limit layer's
        quadrature integrands call directly.

        It applies the array branch's IEEE operations in the same order, so it
        returns bit for bit what a one-element array would: the support test,
        then the family's formula.  A tabulated kernel follows np.interp's rule
        on the knot lists instead: a knot (or the last one) keeps its value,
        otherwise the left knot's slope, each slope the same division
        np.interp makes; knots over 1.8e308 apart give NaN, which np.interp
        retries.
        """
        lo, hi = self.support
        formula = self._formula
        if self.family != "tabulated":
            def k(z):
                return formula(z) if lo <= z <= hi else 0.0

            return k
        zs, ks = self.knots_z.tolist(), self.knots_k.tolist()
        slopes = [(k1 - k0) / (z1 - z0) for z0, z1, k0, k1 in zip(zs, zs[1:], ks, ks[1:])]
        j_max = len(zs) - 1

        def k(z):
            if not lo <= z <= hi:
                return 0.0
            j = bisect_right(zs, z) - 1
            if j == j_max or zs[j] == z:
                return ks[j]
            out = slopes[j] * (z - zs[j]) + ks[j]
            return out if out == out else formula(z)

        return k

    __call__ = evaluate

    def breakpoints(self) -> np.ndarray:
        """Points where the kernel is not smooth (for quadrature panels)."""
        if self.family == "tabulated":
            return self.knots_z
        lo, hi = self.support
        return np.array([lo, *_FAMILIES[self.family].kinks, hi])


def gaussian_kernel() -> KernelSpec:
    return KernelSpec("gaussian")


def epanechnikov_kernel() -> KernelSpec:
    return KernelSpec("epanechnikov")


def laplace_kernel() -> KernelSpec:
    return KernelSpec("laplace")


def tabulated_kernel(knots_z, knots_k) -> KernelSpec:
    """Kernel linearly interpolated between knots; L is the max slope."""
    return KernelSpec("tabulated", knots_z, knots_k)


def kernel_by_name(name: str) -> KernelSpec:
    if name not in _FAMILIES:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(_FAMILIES)} or load a CSV")
    return KernelSpec(name)


def load_kernel_csv(path) -> KernelSpec:
    """Load a tabulated kernel from a CSV with header ``z,k``."""
    return read_two_columns(path, ("z", "k"), tabulated_kernel)


def save_kernel_csv(kernel: KernelSpec, path, n_points: int = 512) -> None:
    """Write a kernel as a ``z,k`` CSV: a tabulated kernel's knots, another's values
    at ``n_points >= 2`` evenly spaced points of its support."""
    check_count("n_points", n_points, 2)
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


def check_bandwidth(h) -> None:
    """Raise ValueError unless the bandwidth h is positive and finite."""
    if not 0 < h < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h!r}")


def eval_rescaled(kernel: KernelSpec, h: float, z: float) -> float:
    """Rescaled kernel K_h(z) = K(z/h)/h for bandwidth h > 0."""
    check_bandwidth(h)
    return eval_kernel(kernel, z / h) / h


def weight_sum(kernel: KernelSpec, h: float, times, t_now: float) -> float:
    """Discrete weight mass sum_i K_h(t_i - t_now) over the given times."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not (np.isfinite(times).all() and np.isfinite(t_now)):
        raise ValueError("weight_sum needs at least one time point, all finite, and a finite t_now")
    check_bandwidth(h)
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


def validate_kernel(kernel: KernelSpec, seed: int = 0, n_pairs: int = 256) -> dict:
    """Check the probability-density contract; raises ValueError on violation.

    Verifies unit mass and zero mean to 1e-8, finite second moment,
    nonnegativity, and the Lipschitz bound on a random grid of pairs.
    Returns the measured quantities.  A tabulated kernel's moments are exact
    (Simpson's rule per knot interval); the others use adaptive quadrature.
    """
    check_count("n_pairs", n_pairs)
    lo, hi = kernel.support
    if kernel.family == "tabulated":
        # Simpson's rule on each knot interval is exact for a piecewise-linear K times 1, z or z^2
        z, k = kernel.knots_z, kernel.knots_k
        zm, km = 0.5 * (z[:-1] + z[1:]), 0.5 * (k[:-1] + k[1:])

        def moment(w):
            f = w(z) * k
            return float(np.sum(np.diff(z) / 6.0 * (f[:-1] + 4.0 * w(zm) * km + f[1:])))
    else:
        breaks = kernel.breakpoints()

        def moment(w):
            return _quad(lambda z: w(z) * kernel.evaluate(z), lo, hi, breaks)

    # z * z, not z ** 2: Python's pow rounds differently on some inputs
    mass, mean, second = (moment(w) for w in (lambda z: 1.0, lambda z: z, lambda z: z * z))
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"kernel mass {mass!r} differs from 1 by more than 1e-8")
    if abs(mean) > 1e-8:
        raise ValueError(f"kernel mean {mean!r} exceeds 1e-8")
    if not np.isfinite(second):
        raise ValueError("kernel second moment is not finite")

    rng = np.random.default_rng(seed_sequence(seed))
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
