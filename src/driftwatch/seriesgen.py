"""Synthetic series under the null and under local drift alternatives.

Null model: a random walk Y_0 = 0, Y_n = Y_{n-1} + u_{n-1} with innovations
u that are i.i.d. Gaussian, or GARCH(1,1) draws started from the stationary
regime.  The AR(1) family replaces the unit root with Y_n = a Y_{n-1} + ...,
initialized from its stationary law.  Alternatives add a deterministic drift
increment m(t) = m0((t - t_q)/h_link) * h_link**beta that vanishes before the
change point t_q.

Also provides generalized time designs: a monotone map of [0,1] onto itself
(power family u**(1/gamma) or tabulated) used either rolled at every current
index or fixed once for the whole horizon, with optional snapping to the
finest available time grid.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GARCH_BURN_IN = 500


# ---------------------------------------------------------------------------
# generic alternatives (post-change drift shapes)
# ---------------------------------------------------------------------------


class ScalarEvaluators:
    """Base of the kernels and drift shapes that build float -> float evaluators
    once, as ``cached_property`` values.  Those are closures, which pickle cannot
    carry, so the pickled state leaves every cached property out and a copy
    rebuilds it on first use: process pools carry kernels and shapes."""

    def __getstate__(self):
        cls = type(self)
        return {k: v for k, v in self.__dict__.items()
                if not isinstance(getattr(cls, k, None), cached_property)}


# M0 = int_0^x m0 of the built-in shapes for one float; ``x if x > 0.0 or x != x
# else 0.0`` is np.maximum(x, 0.0) on one value: NaN stays NaN, -0.0 becomes 0.0
_SCALAR_INTEGRALS = {
    "zero": lambda x: 0.0,
    "step": lambda x: x if x > 0.0 or x != x else 0.0,
    "ramp": lambda x: 0.5 * x * x if x > 0.0 or x != x else 0.0,
}


@dataclass(frozen=True, eq=False)
class GenericAlternative(ScalarEvaluators):
    """A drift shape m0 with m0(t) = 0 for t <= 0 and m0 >= 0.

    ``integral(x)`` returns int_0^x m0(t) dt (0 for x <= 0); the built-in
    shapes carry closed forms, tabulated ones integrate their piecewise
    linear interpolant exactly.
    """

    name: str
    knots_t: np.ndarray | None = field(default=None, repr=False)
    knots_m: np.ndarray | None = field(default=None, repr=False)
    _cum: np.ndarray | None = field(default=None, repr=False)

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.name == "zero":
            return np.zeros_like(t)
        if self.name == "step":
            return np.where(t > 0, 1.0, 0.0)
        if self.name == "ramp":
            return np.where(t > 0, t, 0.0)
        if self.name == "tabulated":
            # 0 before the first knot, interpolated inside, last value held beyond
            tk, mk = self.knots_t, self.knots_m
            out = np.interp(t, tk, mk)
            return np.where((t > 0) & (t >= tk[0]), out, 0.0)
        raise ValueError(f"unknown alternative {self.name!r}")

    __call__ = value

    def knots(self) -> list[float]:
        """Arguments where the shape (or its slope) jumps; quadrature hints."""
        if self.name == "zero":
            return []
        if self.name == "tabulated":
            return [0.0, *map(float, self.knots_t)]
        return [0.0]

    def integral(self, x) -> np.ndarray:
        """Cumulative integral int_0^x m0(t) dt.

        A float argument, one quadrature point, is ``scalar_integral``'s.  An
        array is clamped at 0 by np.maximum(x, 0.0).
        """
        if isinstance(x, float):
            return self.scalar_integral(x)
        xp = np.maximum(np.asarray(x, dtype=float), 0.0)
        if self.name == "tabulated":
            t, m, cum = self.knots_t, self.knots_m, self._cum
            xc = np.clip(xp, t[0], None)
            idx = np.clip(np.searchsorted(t, xc, side="right") - 1, 0, len(t) - 2)
            t0, t1 = t[idx], t[idx + 1]
            m0v, m1v = m[idx], m[idx + 1]
            # exact trapezoid of the linear piece from t0 to min(xc, t1)
            end = np.minimum(xc, t1)
            m_end = m0v + (m1v - m0v) * (end - t0) / (t1 - t0)
            partial = (end - t0) * 0.5 * (m0v + m_end)
            tail = np.where(xc > t[-1], (xc - t[-1]) * m[-1], 0.0)
            return np.where(xp <= t[0], 0.0, cum[idx] + partial + tail)
        if self.name == "zero":
            return np.zeros_like(xp)
        if self.name == "step":
            return xp
        if self.name == "ramp":
            return 0.5 * xp * xp
        raise ValueError(f"unknown alternative {self.name!r}")

    @cached_property
    def scalar_integral(self):
        """``integral`` as a float -> float function, built once.

        It returns bit for bit what a one-element array would: a built-in shape
        has one closed form per float, and a tabulated one applies the array
        branch's operations, in the same order, to the knot lists.
        """
        if self.name != "tabulated":
            try:
                return _SCALAR_INTEGRALS[self.name]
            except KeyError:
                raise ValueError(f"unknown alternative {self.name!r}") from None
        t, m, cum = self.knots_t.tolist(), self.knots_m.tolist(), self._cum.tolist()
        t_first, t_last, m_last, j_max = t[0], t[-1], m[-1], len(t) - 2

        def integral(x):
            xp = x if x > 0.0 or x != x else 0.0
            if xp <= t_first:
                return 0.0
            # past the first knot the clip leaves xp as it is; NaN bisects past the last knot
            j = min(bisect_right(t, xp) - 1, j_max)
            t0, t1, m0v, m1v = t[j], t[j + 1], m[j], m[j + 1]
            end = t1 if t1 < xp else xp  # np.minimum(xp, t1): NaN stays NaN
            m_end = m0v + (m1v - m0v) * (end - t0) / (t1 - t0)
            tail = (xp - t_last) * m_last if xp > t_last else 0.0
            return cum[j] + (end - t0) * 0.5 * (m0v + m_end) + tail

        return integral


def tabulated_alternative(knots_t, knots_m) -> GenericAlternative:
    t = np.asarray(knots_t, dtype=float)
    m = np.asarray(knots_m, dtype=float)
    if t.ndim != 1 or t.shape != m.shape or len(t) < 2:
        raise ValueError("tabulated alternative needs matching 1-d knot arrays")
    if np.any(~np.isfinite(t)) or np.any(~np.isfinite(m)):
        raise ValueError("alternative knots must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("alternative knots must be strictly increasing")
    if np.any(m < 0):
        raise ValueError("alternative values must be nonnegative")
    if t[0] < 0:
        raise ValueError("alternative knots must start at t >= 0")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * np.diff(t))])
    return GenericAlternative("tabulated", knots_t=t, knots_m=m, _cum=cum)


_ALTERNATIVES = ("zero", "step", "ramp")


def alternative_by_name(name: str) -> GenericAlternative:
    if name not in _ALTERNATIVES:
        raise ValueError(
            f"unknown alternative {name!r}; choose from {sorted(_ALTERNATIVES)} or load a CSV")
    return GenericAlternative(name)


def load_alternative_csv(path) -> GenericAlternative:
    """Load a tabulated alternative from a CSV with header ``t,m0``."""
    return read_two_columns(path, ("t", "m0"), tabulated_alternative)


# ---------------------------------------------------------------------------
# drift / innovation / series specifications
# ---------------------------------------------------------------------------


def check_count(name: str, value, lo=0, hi=math.inf) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a whole number in [lo, hi].

    The one check on integer parameters: NaN, ±inf and a non-integral float
    such as 2.5 fail alike, where Python would raise TypeError or silently
    truncate; an integral float such as 20.0 passes and is used as it is.
    An int past the float range (a long seed) passes too: ``abs`` compares it exactly.
    """
    if not (lo <= value <= hi and abs(value) < math.inf and value % 1 == 0):
        bound = "" if lo == -math.inf else f" >= {lo}" if hi == math.inf else f" in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class DriftSpec:
    """Local alternative: drift shape, rate exponent, change point, bandwidth link."""

    m0: GenericAlternative
    beta: float
    cp_model: str  # 'cp1' (fixed integer q) or 'cp2' (fraction theta of horizon)
    q: int | None = None
    theta: float | None = None
    h_link: float = 1.0

    def __post_init__(self):
        if not (-1.0 < self.beta <= 0.0):
            raise ValueError(f"beta must lie in (-1, 0], got {self.beta!r}")
        if self.cp_model == "cp1":
            if self.q is None:
                raise ValueError("cp1 needs a positive integer q")
            check_count("q", self.q, 1)
        elif self.cp_model == "cp2":
            if self.theta is None or not (0.0 < self.theta < 1.0):
                raise ValueError("cp2 needs theta in (0, 1)")
        else:
            raise ValueError(f"cp_model must be 'cp1' or 'cp2', got {self.cp_model!r}")
        if not 0 < self.h_link < math.inf:
            raise ValueError(f"h_link must be positive and finite, got {self.h_link!r}")


@dataclass(frozen=True)
class InnovationSpec:
    """Innovation family: iid_normal, ar1 (stationary AR(1) series) or garch11."""

    family: str = "iid_normal"
    sigma: float = 1.0
    ar_a: float | None = None
    garch_alpha0: float | None = None
    garch_alpha1: float | None = None
    garch_beta1: float | None = None

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.family == "iid_normal":
            pass
        elif self.family == "ar1":
            if self.ar_a is None or not abs(self.ar_a) < 1:
                raise ValueError("ar1 needs |a| < 1")
        elif self.family == "garch11":
            a0, a1, b1 = self.garch_alpha0, self.garch_alpha1, self.garch_beta1
            if a0 is None or a1 is None or b1 is None:
                raise ValueError("garch11 needs alpha0, alpha1, beta1")
            if not (math.inf > a0 > 0 and a1 >= 0 and b1 >= 0 and a1 + b1 < 1):
                raise ValueError("garch11 needs a finite alpha0 > 0 and alpha1 + beta1 < 1")
        else:
            raise ValueError(f"unknown innovation family {self.family!r}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered (time, value) observations plus provenance metadata."""

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if np.any(~np.isfinite(values)) or np.any(~np.isfinite(times)):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class TimeDesign:
    """Monotone sampling map of [0,1] onto itself.

    ``gamma`` selects the power family F^{-1}(u) = u**(1/gamma); alternatively
    pass tabulated knots.  ``mode`` is 'rolling' (scheme re-applied at every
    current index) or 'fixed' (scheme set up once for the horizon).
    ``snap_grid`` optionally snaps design times to multiples of a finest
    available spacing (ties resolve to the smaller grid point).
    """

    gamma: float | None = None
    knots_u: np.ndarray | None = field(default=None, repr=False)
    knots_v: np.ndarray | None = field(default=None, repr=False)
    mode: str = "rolling"
    snap_grid: float | None = None

    def __post_init__(self):
        if self.mode not in ("rolling", "fixed"):
            raise ValueError(f"mode must be 'rolling' or 'fixed', got {self.mode!r}")
        if self.gamma is not None:
            if not 0 < self.gamma < math.inf:
                raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        else:
            u = np.asarray(self.knots_u, dtype=float)
            v = np.asarray(self.knots_v, dtype=float)
            if u.shape != v.shape or u.ndim != 1 or u.size == 0:
                raise ValueError("tabulated design needs matching nonempty 1-d knot arrays")
            if np.any(~np.isfinite(u)) or np.any(~np.isfinite(v)):
                raise ValueError("design knots must be finite")
            if abs(v[0]) > 1e-12 or abs(v[-1] - 1.0) > 1e-12:
                raise ValueError("design map must satisfy F^{-1}(0)=0 and F^{-1}(1)=1")
            if np.any(np.diff(u) <= 0) or np.any(np.diff(v) < 0):
                raise ValueError("design map must be nondecreasing")
        if self.snap_grid is not None and not 0 < self.snap_grid < math.inf:
            raise ValueError("snap_grid must be a positive, finite spacing")

    def ft_inverse(self, u) -> np.ndarray:
        """F_T^{-1}(u) with arguments clamped to [0, 1]."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if self.gamma is not None:
            return u ** (1.0 / self.gamma)
        return np.interp(u, self.knots_u, self.knots_v)

    def ft_forward(self, v) -> np.ndarray:
        """Inverse of ``ft_inverse`` (the distribution function itself)."""
        v = np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
        if self.gamma is not None:
            return v**self.gamma
        return np.interp(v, self.knots_v, self.knots_u)

    def snap(self, t) -> np.ndarray:
        """Snap to the nearest grid multiple; exact midpoints go down."""
        if self.snap_grid is None:
            return np.asarray(t, dtype=float)
        g = self.snap_grid
        q = np.asarray(t, dtype=float) / g
        lower = np.floor(q)
        frac = q - lower
        snapped = np.where(frac > 0.5, lower + 1.0, lower)
        return snapped * g


def design_times(design: TimeDesign, n: int, horizon: int) -> np.ndarray:
    """Design time points for current index n under a horizon.

    Rolling mode: t_{n,i} = n F^{-1}(i/n), i = 1..n.  Fixed mode: the first
    n entries of t_{N,i} = N F^{-1}(i/N).  Snapped if the design asks for it.
    """
    check_count("horizon", horizon, 1)
    check_count("n", n, 1, horizon)
    i = np.arange(1, n + 1)
    m = n if design.mode == "rolling" else horizon
    return design.snap(m * design.ft_inverse(i / m))


# ---------------------------------------------------------------------------
# drift evaluation and generation
# ---------------------------------------------------------------------------


def change_point_index(drift: DriftSpec, horizon: int) -> float:
    """Change time t_q: the fixed q under cp1, floor(N * theta) under cp2."""
    check_count("horizon", horizon, 1)
    if drift.cp_model == "cp1":
        return float(drift.q)
    return float(np.floor(horizon * drift.theta))


def drift_value(drift: DriftSpec, t: float, horizon: int | None = None) -> float:
    """Drift increment m0((t - t_q)/h_link) * h_link**beta at time t."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if drift.cp_model == "cp2":
        if horizon is None:
            raise ValueError("cp2 drift needs the horizon to resolve the change point")
        t_q = change_point_index(drift, horizon)
    else:
        t_q = float(drift.q)
    return float(drift.m0.value((t - t_q) / drift.h_link) * drift.h_link**drift.beta)


@dataclass(frozen=True)
class SeriesSpec:
    """What to generate: horizon, innovations, optional drift and time design."""

    N: int
    innovations: InnovationSpec = InnovationSpec()
    drift: DriftSpec | None = None
    design: TimeDesign | None = None

    def __post_init__(self):
        check_count("N", self.N, 2)


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence a seed (an integer >= 0) stands for; a SeedSequence stands for itself."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    check_count("seed", seed)
    return np.random.SeedSequence(int(seed))


def substream(seed: int, *key: int) -> np.random.SeedSequence:
    """Deterministic child stream for (master seed, replicate key...)."""
    check_count("seed", seed)
    return np.random.SeedSequence((int(seed), *[int(k) for k in key]))


def draw_innovations(spec: InnovationSpec, n: int, seed) -> np.ndarray:
    """The raw innovation stream u_0..u_{n-1} a given seed produces.

    GARCH streams are burned in for ``GARCH_BURN_IN`` steps from the
    stationary regime before the returned draws start.  The one-row case of
    ``innovation_rows``.
    """
    check_count("n", n)
    return innovation_rows(spec, n, [seed])[0]


# From this many rows on, the GARCH(1,1) recursion steps over all rows at once.  Over
# 1000 steps one row costs 32 ms that way against 0.2 ms in the Python loop, 64 rows
# 24 against 20 ms and 128 rows 39 against 42 ms (2-core Xeon)
_VECTOR_ROWS = 128
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_TINY = 2.0**-450  # below this the products of the halves can be subnormal


def innovation_rows(spec: InnovationSpec, n: int, seeds) -> np.ndarray:
    """Innovation streams of length n, one row per seed.

    Row i is ``draw_innovations(spec, n, seeds[i])`` bit for bit: each seed's
    normals are drawn from its own stream, and the GARCH(1,1) recursion runs
    the scalar operations in the scalar order.
    """
    # ar1 innovations are the iid disturbances of the AR recursion
    width = n + GARCH_BURN_IN if spec.family == "garch11" else n
    rows = np.empty((len(seeds), width))
    for row, seed in zip(rows, seeds):
        np.random.default_rng(seed_sequence(seed)).standard_normal(out=row)
    if spec.family == "garch11":
        a0, a1, b1 = spec.garch_alpha0, spec.garch_alpha1, spec.garch_beta1
        var = a0 / (1.0 - a1 - b1)
        try:
            if len(seeds) < _VECTOR_ROWS:
                for row in rows:
                    row[:] = _garch_row(row.tolist(), a0, a1, b1, var)
            else:
                rows = _garch_columns(rows.T.copy(), float(a0), float(a1), float(b1), var).T
        except OverflowError:
            raise ValueError(f"garch11 variance overflows with alpha0={a0!r}") from None
        rows = np.ascontiguousarray(rows[:, GARCH_BURN_IN:])
    rows *= spec.sigma
    return rows


def _garch_row(eps: list, a0, a1, b1, var: float) -> list:
    """One GARCH(1,1) path x_t = sqrt(var_t) e_t on Python floats.

    Python floats round as numpy scalars do, only faster.  Keep x ** 2 (C pow,
    as numpy's scalar power): x * x and numpy's array power differ in the last
    bit for some draws and would change seeded GARCH streams.
    """
    out = []
    for e in eps:
        x = math.sqrt(var) * e
        out.append(x)
        var = a0 + a1 * x ** 2 + b1 * var
    return out


def _pow_may_differ(x: np.ndarray, p: np.ndarray, tiny: bool = True) -> np.ndarray:
    """Where Python's ``x ** 2`` may differ from ``p = x * x``.

    C pow may round the exact square x² to another double than p only where x²
    lies near a rounding midpoint.  The residual r = x² - p is exact (Dekker's
    product of Veltkamp halves).  Where |r| <= 0.4 ulp(p), every other double
    lies at least 0.6 ulp from x², so pow returns p as long as its worst-case
    error stays below 0.6 ulp (C pow on glibc stays within about half an ulp;
    ``tests/test_oracles.py`` checks the claim on a million draws).  p is a
    power of two only where x² >= p, so ulp(p) is the gap on the side of x².
    NaN, inf and, unless ``tiny`` is False, squares that could be subnormal
    fail the test and are flagged.
    """
    hi = _SPLIT * x
    hi -= hi - x
    lo = x - hi
    r = hi * hi - p
    r += 2.0 * hi * lo
    r += lo * lo
    ok = np.abs(r, out=r) <= 0.4 * np.spacing(p)
    if tiny:
        ok &= np.abs(x) >= _TINY
    return ~ok


def _garch_columns(eps: np.ndarray, a0: float, a1: float, b1: float, var: float) -> np.ndarray:
    """``_garch_row`` on every column of ``eps`` at once, in place, bit for bit.

    Each step takes p = x * x, and Python's ``x ** 2`` where the two may
    differ (``_pow_may_differ``); an overflowing ``**`` raises OverflowError
    as in the row loop.
    """
    # var never falls below alpha0, so no |x| lies below sqrt(alpha0) min|e|
    tiny = math.sqrt(a0) * float(np.abs(eps).min()) < _TINY
    var = np.full(eps.shape[1], var)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in eps:
            x *= np.sqrt(var)
            p = x * x
            flagged = np.flatnonzero(_pow_may_differ(x, p, tiny))
            if flagged.size:
                p[flagged] = [v ** 2 for v in x[flagged].tolist()]
            p *= a1  # var = a0 + a1 * x ** 2 + b1 * var, in that order
            p += a0
            var *= b1
            var += p
    return eps


def walk_rows(innovations: InnovationSpec, N: int, seeds, drift_inc=0.0) -> np.ndarray:
    """Series values Y_1..Y_N, one row per seed, with drift increments m (scalar or per step).

    Random walks sum Y_n = Y_{n-1} + m_{n-1} + u_{n-1} from Y_0 = 0 over the
    rows u of ``innovation_rows``; ar1 runs Y_n = a Y_{n-1} + m_{n-1} + u_{n-1}
    on Python floats from a stationary Y_0.  Row i is ``generate``'s values on
    ``seeds[i]`` bit for bit: the one place seeds become series values.
    """
    if innovations.family != "ar1":
        walks = innovation_rows(innovations, N, seeds)
        walks += drift_inc  # as in 0.0 + u, a -0.0 draw becomes 0.0
        return np.cumsum(walks, axis=1, out=walks)
    # Y_0 and u draw from what spawn(2) gives, without advancing the caller's sequences
    kids = [[np.random.SeedSequence(s.entropy, pool_size=s.pool_size, spawn_key=s.spawn_key + (i,))
             for i in range(2)] for s in map(seed_sequence, seeds)]
    walks = innovation_rows(innovations, N, [inno_seq for _, inno_seq in kids])
    a, incs = innovations.ar_a, np.broadcast_to(drift_inc, N).tolist()
    for row, (ar_seq, _) in zip(walks, kids):
        y = float(np.random.default_rng(ar_seq).standard_normal() * innovations.sigma
                  / np.sqrt(1.0 - a * a))
        values = []
        for m, e in zip(incs, row.tolist()):
            y = a * y + m + e
            values.append(y)
        row[:] = values
    return walks


def generate(spec: SeriesSpec, seed) -> TimeSeries:
    """Generate a series of length N, deterministic given the seed.

    Its values are the one-row case of ``walk_rows`` with drift increments
    m(t_{n-1}); under the null a random walk's increments are exactly the
    innovation stream of ``draw_innovations``.
    """
    N = spec.N
    inno = spec.innovations
    if spec.design is not None and spec.design.mode == "fixed":
        times = design_times(spec.design, N, N)
        if np.any(np.diff(times) <= 0):
            raise ValueError("fixed design collapses time points; refine snap_grid")
    else:
        # rolling designs re-select past points per current index and do not
        # define a generation axis; data live on the finest (unit) scale
        times = np.arange(1.0, N + 1.0)

    drift_inc = 0.0
    if spec.drift is not None:
        t_prev = np.concatenate([[0.0], times[:-1]])
        q = int(change_point_index(spec.drift, N))
        # under a fixed design the change time is the design-transformed t_q
        fixed = spec.design is not None and spec.design.mode == "fixed"
        t_q = times[q - 1] if fixed and 1 <= q <= N else float(q)
        d = spec.drift
        drift_inc = d.m0.value((t_prev - t_q) / d.h_link) * d.h_link**d.beta

    seed_seq = seed_sequence(seed)
    meta = {"seed": seed_seq.entropy, "family": inno.family, "sigma": inno.sigma, "N": N}
    return TimeSeries(times=times, values=walk_rows(inno, N, [seed_seq], drift_inc)[0], meta=meta)


# ---------------------------------------------------------------------------
# CSV I/O for series
# ---------------------------------------------------------------------------


def save_series_csv(series: TimeSeries, path) -> None:
    write_two_columns(path, ("t", "y"), series.times, series.values)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; bad bytes raise ValueError naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None


def write_two_columns(path, names: tuple[str, str], first, second) -> None:
    """A CSV with header ``names`` and one row of ``repr`` floats per pair (CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows((repr(float(a)), repr(float(b))) for a, b in zip(first, second))


def read_two_columns(path, names: tuple[str, str], build):
    """``build(first, second)`` on the two numeric columns of a UTF-8 CSV whose header
    starts with ``names``; blank lines are skipped and extra columns ignored.

    Bad bytes, malformed CSV, a missing or wrong header, no data rows or a row
    that is not two numbers raise ValueError naming the file and the line; a
    ValueError from ``build`` is re-raised naming the file.
    """
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    rows = []
    try:
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != list(names):
            raise ValueError(f"{path}, line 1: expected header '{','.join(names)}', got {header!r}")
        for row in filter(None, reader):
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}, line {reader.line_num}: expected two numbers, got {row!r}"
                ) from None
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}, line {reader.line_num + 1}: no data rows after the header")
    try:
        return build(*np.array(rows).T.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_series_csv(path) -> TimeSeries:
    return read_two_columns(
        path, ("t", "y"), lambda t, y: TimeSeries(times=t, values=y, meta={"source": str(path)})
    )
