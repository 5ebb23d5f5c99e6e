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
from dataclasses import dataclass, field

import numpy as np

GARCH_BURN_IN = 500


# ---------------------------------------------------------------------------
# generic alternatives (post-change drift shapes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GenericAlternative:
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

        A float argument takes a scalar branch for the closed forms, with
        the array branch's operations: np.maximum(x, 0.0) keeps NaN and
        turns -0.0 into 0.0.
        """
        if isinstance(x, float) and self.name != "tabulated":
            xp = x if x > 0.0 or x != x else 0.0
            if self.name == "zero":
                return 0.0
            if self.name == "step":
                return xp
            if self.name == "ramp":
                return 0.5 * xp * xp
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        if self.name == "zero":
            return np.zeros_like(xp)
        if self.name == "step":
            return xp
        if self.name == "ramp":
            return 0.5 * xp * xp
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
        raise ValueError(f"unknown alternative {self.name!r}")


def zero_alternative() -> GenericAlternative:
    return GenericAlternative("zero")


def step_alternative() -> GenericAlternative:
    return GenericAlternative("step")


def ramp_alternative() -> GenericAlternative:
    return GenericAlternative("ramp")


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


_ALTERNATIVES = {
    "zero": zero_alternative,
    "step": step_alternative,
    "ramp": ramp_alternative,
}


def alternative_by_name(name: str) -> GenericAlternative:
    try:
        return _ALTERNATIVES[name]()
    except KeyError:
        raise ValueError(
            f"unknown alternative {name!r}; choose from {sorted(_ALTERNATIVES)} or load a CSV"
        ) from None


def load_alternative_csv(path) -> GenericAlternative:
    """Load a tabulated alternative from a CSV with header ``t,m0``."""
    return _read_two_columns(path, ("t", "m0"), tabulated_alternative)


# ---------------------------------------------------------------------------
# drift / innovation / series specifications
# ---------------------------------------------------------------------------


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
            if self.q is None or self.q < 1:
                raise ValueError("cp1 needs a positive integer q")
        elif self.cp_model == "cp2":
            if self.theta is None or not (0.0 < self.theta < 1.0):
                raise ValueError("cp2 needs theta in (0, 1)")
        else:
            raise ValueError(f"cp_model must be 'cp1' or 'cp2', got {self.cp_model!r}")
        if not self.h_link > 0:
            raise ValueError(f"h_link must be positive, got {self.h_link!r}")


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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if self.family == "iid_normal":
            pass
        elif self.family == "ar1":
            if self.ar_a is None or not abs(self.ar_a) < 1:
                raise ValueError("ar1 needs |a| < 1")
        elif self.family == "garch11":
            a0, a1, b1 = self.garch_alpha0, self.garch_alpha1, self.garch_beta1
            if a0 is None or a1 is None or b1 is None:
                raise ValueError("garch11 needs alpha0, alpha1, beta1")
            if not (a0 > 0 and a1 >= 0 and b1 >= 0 and a1 + b1 < 1):
                raise ValueError("garch11 needs alpha0 > 0 and alpha1 + beta1 < 1")
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
            if not self.gamma > 0:
                raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        else:
            u = np.asarray(self.knots_u, dtype=float)
            v = np.asarray(self.knots_v, dtype=float)
            if u is None or v is None or u.shape != v.shape or u.ndim != 1:
                raise ValueError("tabulated design needs matching 1-d knot arrays")
            if abs(v[0]) > 1e-12 or abs(v[-1] - 1.0) > 1e-12:
                raise ValueError("design map must satisfy F^{-1}(0)=0 and F^{-1}(1)=1")
            if np.any(np.diff(u) <= 0) or np.any(np.diff(v) < 0):
                raise ValueError("design map must be nondecreasing")
        if self.snap_grid is not None and not self.snap_grid > 0:
            raise ValueError("snap_grid must be a positive spacing")

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
    if not 1 <= n <= horizon:
        raise ValueError(f"need 1 <= n <= horizon, got n={n}, horizon={horizon}")
    if design.mode == "rolling":
        i = np.arange(1, n + 1)
        t = n * design.ft_inverse(i / n)
    else:
        i = np.arange(1, n + 1)
        t = horizon * design.ft_inverse(i / horizon)
    return design.snap(t)


# ---------------------------------------------------------------------------
# drift evaluation and generation
# ---------------------------------------------------------------------------


def change_point_index(drift: DriftSpec, horizon: int) -> float:
    """Change time t_q: the fixed q under cp1, floor(N * theta) under cp2."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    if drift.cp_model == "cp1":
        return float(drift.q)
    return float(np.floor(horizon * drift.theta))


def drift_value(drift: DriftSpec, t: float, horizon: int | None = None) -> float:
    """Drift increment m0((t - t_q)/h_link) * h_link**beta at time t."""
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
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N!r}")


def seed_sequence(seed) -> np.random.SeedSequence:
    """The SeedSequence a seed stands for; a SeedSequence stands for itself."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def substream(seed: int, *key: int) -> np.random.SeedSequence:
    """Deterministic child stream for (master seed, replicate key...)."""
    return np.random.SeedSequence((int(seed), *[int(k) for k in key]))


def draw_innovations(spec: InnovationSpec, n: int, seed) -> np.ndarray:
    """The raw innovation stream u_0..u_{n-1} a given seed produces.

    GARCH streams are burned in for ``GARCH_BURN_IN`` steps from the
    stationary regime before the returned draws start.
    """
    rng = np.random.default_rng(seed_sequence(seed))
    if spec.family == "garch11":
        a0, a1, b1 = spec.garch_alpha0, spec.garch_alpha1, spec.garch_beta1
        eps = rng.standard_normal(GARCH_BURN_IN + n)
        var = a0 / (1.0 - a1 - b1)
        out = []
        # Python floats round as numpy scalars do, only faster.  Keep x ** 2 (C pow,
        # as numpy's scalar power): x * x and numpy's array power differ in the
        # last bit for some draws and would change seeded GARCH streams
        try:
            for e in eps.tolist():
                x = math.sqrt(var) * e
                out.append(x)
                var = a0 + a1 * x ** 2 + b1 * var
        except OverflowError:
            raise ValueError(f"garch11 variance overflows with alpha0={a0!r}") from None
        return spec.sigma * np.array(out[GARCH_BURN_IN:])
    # ar1 innovations are the iid disturbances of the AR recursion
    return spec.sigma * rng.standard_normal(n)


def generate(spec: SeriesSpec, seed) -> TimeSeries:
    """Generate a series of length N, deterministic given the seed.

    Random-walk families follow Y_n = Y_{n-1} + m(t_{n-1}) + u_{n-1} from
    Y_0 = 0; the ar1 family follows Y_n = a Y_{n-1} + m(t_{n-1}) + u_{n-1}
    from a stationary draw of Y_0.  Under the null the increments equal the
    raw innovation stream of ``draw_innovations`` exactly.
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

    seed_seq = seed_sequence(seed)
    ar_seq, inno_seq = None, seed_seq
    if inno.family == "ar1":  # what spawn(2) gives, without advancing the caller's sequence
        ar_seq, inno_seq = (np.random.SeedSequence(seed_seq.entropy, pool_size=seed_seq.pool_size,
                                                   spawn_key=seed_seq.spawn_key + (i,)) for i in range(2))
    u = draw_innovations(inno, N, inno_seq)

    drift_inc = np.zeros(N)
    if spec.drift is not None:
        t_prev = np.concatenate([[0.0], times[:-1]])
        q = int(change_point_index(spec.drift, N))
        # under a fixed design the change time is the design-transformed t_q
        fixed = spec.design is not None and spec.design.mode == "fixed"
        t_q = times[q - 1] if fixed and 1 <= q <= N else float(q)
        d = spec.drift
        drift_inc = d.m0.value((t_prev - t_q) / d.h_link) * d.h_link**d.beta

    if inno.family == "ar1":
        a = inno.ar_a
        y = float(np.random.default_rng(ar_seq).standard_normal() * inno.sigma
                  / np.sqrt(1.0 - a * a))
        values = []
        for m, e in zip(drift_inc.tolist(), u.tolist()):
            y = a * y + m + e
            values.append(y)
    else:
        values = np.cumsum(drift_inc + u)

    meta = {
        "seed": getattr(seed_seq, "entropy", None),
        "family": inno.family,
        "sigma": inno.sigma,
        "N": N,
    }
    return TimeSeries(times=times, values=values, meta=meta)


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


def _read_two_columns(path, names: tuple[str, str], build):
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
    return _read_two_columns(
        path, ("t", "y"), lambda t, y: TimeSeries(times=t, values=y, meta={"source": str(path)})
    )
