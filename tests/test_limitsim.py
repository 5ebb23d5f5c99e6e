import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.stats import norm

import driftwatch as dw
from driftwatch import limitsim
from driftwatch.calibration import _stops_from_values
from driftwatch.limitsim import _batch_null_values, _bm_paths, _drift_curve

G = dw.gaussian_kernel()
E = dw.epanechnikov_kernel()
L = dw.laplace_kernel()

STEP = dw.alternative_by_name("step")
RAMP = dw.alternative_by_name("ramp")
ZERO = dw.alternative_by_name("zero")
TAB = dw.seriesgen.tabulated_alternative([0.0, 0.5, 2.0], [1.0, 0.25, 1.5])
KM_SHAPES = {"zero": ZERO, "step": STEP, "ramp": RAMP, "tabulated": TAB}
# a valid kernel with K(0) = 0 narrower than one cell of a 64-point grid at zeta = 10:
# every lag weight on that grid is 0, so the trapezoid drift curve is NaN throughout
W = 0.02
NARROW = dw.tabulated_kernel([-W, -W / 2, 0.0, W / 2, W], [0.0, 1 / W, 0.0, 1 / W, 0.0])


def test_import_loads_neither_scipy_signal_nor_scipy_stats():
    # both are imported by their one user when it runs, which keeps import
    # time and resident memory down for every command that does not need them
    code = "import sys, driftwatch; print(sorted(m for m in ('scipy.signal', 'scipy.stats') " \
           "if m in sys.modules))"
    src = str(Path(dw.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_bm_starts_at_zero():
    b = dw.sample_bm(128, 3)
    assert b[0] == 0.0
    assert len(b) == 129


def test_bm_moments():
    reps, M = 5000, 64
    end = np.empty(reps)
    mid = np.empty(reps)
    for i in range(reps):
        b = dw.sample_bm(M, dw.substream(55, i))
        end[i] = b[-1]
        mid[i] = b[M // 2]
    assert end.var() == pytest.approx(1.0, rel=0.05)
    assert np.mean(mid * end) == pytest.approx(0.5, rel=0.07)


def test_bm_paths_rows_are_sample_bm():
    seeds = [dw.substream(7, i) for i in range(3)] + [11]
    paths = _bm_paths(256, seeds)
    assert paths.shape == (4, 257)
    for row, seed in zip(paths, seeds):
        assert row.tobytes() == dw.sample_bm(256, seed).tobytes()


def test_batch_null_values_do_not_depend_on_chunking():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128)
    # 150 rows span five FFT batches (estimator.FFT_ROWS), each chunk a different cut of them
    seeds = [dw.substream(3, i) for i in range(150)]
    whole = _batch_null_values(cfg, seeds)
    chunks = [_batch_null_values(cfg, seeds[a:b]) for a, b in ((0, 1), (1, 70), (70, 150))]
    assert whole.tobytes() == np.concatenate(chunks).tobytes()


def test_null_process_trapezoid_oracle():
    # per-anchor trapezoid oracle over the same grid
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=64)
    vals = dw.null_limit_process(cfg, 9)
    b = dw.sample_bm(64, 9)
    r = np.arange(65) / 64
    for j in (4, 17, 40, 64):
        s = j / 64
        f = G.evaluate(2.0 * (r[: j + 1] - s))
        num = np.trapezoid(f * b[: j + 1], dx=1 / 64)
        den = 2.0 * np.trapezoid(f, dx=1 / 64)
        assert vals[j - 1] == pytest.approx(num / den, rel=1e-10)


def test_null_process_masked_below_s_min():
    cfg = dw.LimitConfig(zeta=2.0, kernel=E, grid_M=256)
    vals = dw.null_limit_process(cfg, 1)
    assert np.all(np.isnan(vals[:3]))
    assert np.all(np.isfinite(vals[3:]))


def test_null_process_scales_with_sigma():
    cfg_tiny = dw.LimitConfig(zeta=2.0, kernel=G, sigma=1e-9, grid_M=128)
    vals = dw.null_limit_process(cfg_tiny, 4)
    assert np.nanmax(np.abs(vals)) < 1e-6


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov", "laplace"])
@pytest.mark.parametrize("zeta", [1.0, 2.0, 10.0])
def test_null_process_variance_matches_sigma_k_sq(kernel, zeta):
    from driftwatch.limitsim import _batch_null_values

    cfg = dw.LimitConfig(zeta=zeta, kernel=dw.kernel_by_name(kernel), grid_M=1024)
    reps = 2500
    ends = _batch_null_values(cfg, [dw.substream(77, i) for i in range(reps)])[:, -1]
    target = dw.sigma_k_sq(cfg, 1.0)
    se = target * np.sqrt(2.0 / (reps - 1))
    assert abs(ends.var() - target) < 3 * se


TABLE1_EXAMPLES = [
    (G, 1.0, 0.3775, 0.0005),
    (E, 2.0, 0.1857, 0.0005),
    (L, 10.0, 0.0089, 0.0003),
]


@pytest.mark.parametrize("kernel,zeta,value,tol", TABLE1_EXAMPLES)
def test_sigma_k_sq_reference_values(kernel, zeta, value, tol):
    got = dw.sigma_k_sq(dw.LimitConfig(zeta=zeta, kernel=kernel), 1.0)
    assert got == pytest.approx(value, abs=tol)


def test_sigma_k_sq_single_integral_identity():
    # independent oracle: Var(int f B) = int_0^s (int_u^s f)^2 du
    for kernel, zeta in ((G, 1.5), (E, 3.0)):
        s = 1.0

        def f(r):
            return float(kernel.evaluate(zeta * (r - s)))

        def tail(u):
            val, _ = integrate.quad(f, u, s, limit=200)
            return val

        num, _ = integrate.quad(lambda u: tail(u) ** 2, 0.0, s, limit=200)
        den, _ = integrate.quad(f, 0.0, s, limit=200)
        oracle = num / (zeta * den) ** 2
        got = dw.sigma_k_sq(dw.LimitConfig(zeta=zeta, kernel=kernel), 1.0)
        assert got == pytest.approx(oracle, rel=1e-6)


def test_sigma_k_sq_decreasing_in_zeta():
    for kernel in (G, E, L):
        vals = [dw.sigma_k_sq(dw.LimitConfig(zeta=z, kernel=kernel), 1.0)
                for z in (1.0, 1.5, 2.0, 4.0, 10.0)]
        assert np.all(np.diff(vals) < 0)


def test_sigma_k_sq_domain():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256)
    with pytest.raises(ValueError):
        dw.sigma_k_sq(cfg, cfg.s_min / 2)
    with pytest.raises(ValueError):
        dw.sigma_k_sq(cfg, 1.5)


def test_drift_term_zero_shape():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, drift=dw.LimitDrift(ZERO, "cp1"))
    for s in (0.2, 0.7, 1.0):
        assert dw.drift_term(cfg, s) == 0.0


def test_drift_term_step_quadrature_oracle():
    # cp1 step at zeta=1, s=1: int phi(r-1) r dr / int phi(r-1) dr
    cfg = dw.LimitConfig(zeta=1.0, kernel=G, drift=dw.LimitDrift(STEP, "cp1"))
    num, _ = integrate.quad(lambda r: norm.pdf(r - 1.0) * r, 0.0, 1.0)
    den, _ = integrate.quad(lambda r: norm.pdf(r - 1.0), 0.0, 1.0)
    assert dw.drift_term(cfg, 1.0) == pytest.approx(num / den, rel=1e-8)


def test_drift_term_cp2_boundary_theta():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, drift=dw.LimitDrift(STEP, "cp2", theta=1.0))
    assert dw.drift_term(cfg, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_drift_term_cp2_later_change_is_smaller():
    early = dw.LimitConfig(zeta=2.0, kernel=G, drift=dw.LimitDrift(STEP, "cp2", theta=0.3))
    late = dw.LimitConfig(zeta=2.0, kernel=G, drift=dw.LimitDrift(STEP, "cp2", theta=0.6))
    for s in (0.4, 0.7, 1.0):
        assert dw.drift_term(late, s) <= dw.drift_term(early, s) + 1e-12


def test_drift_curve_matches_quadrature():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=2048,
                         drift=dw.LimitDrift(STEP, "cp2", theta=0.25))
    curve = _drift_curve(cfg)
    for j in (512, 1024, 2048):
        s = j / 2048
        assert curve[j - 1] == pytest.approx(dw.drift_term(cfg, s), abs=2e-4)


def test_fixed_design_drift_curve_converges_to_the_drift_term():
    # the fixed design's inner integral is one quadrature per grid point (and 0 at r = 0)
    drift, td = dw.LimitDrift(STEP, "cp2", theta=0.3), dw.TimeDesign(gamma=2.0, mode="fixed")
    s = np.arange(1, 17) / 16
    cfgs = {M: dw.LimitConfig(zeta=4.0, kernel=G, grid_M=M, design=td, drift=drift)
            for M in (128, 256, 512)}
    exact = np.array([dw.drift_term(cfgs[128], x) for x in s])
    err = {M: np.max(np.abs(_drift_curve(cfg)[(s * M).astype(int) - 1] - exact))
           / np.max(np.abs(exact)) for M, cfg in cfgs.items()}
    assert err[256] < 1e-4 and err[512] < err[128]
    cfg = cfgs[128]
    assert np.array_equal(dw.alt_limit_process(cfg, 7),
                          dw.null_limit_process(cfg, 7) + _drift_curve(cfg), equal_nan=True)


def test_alt_process_zero_drift_identical_to_null():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256, drift=dw.LimitDrift(ZERO, "cp1"))
    cfg_null = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256)
    a = dw.alt_limit_process(cfg, 12)
    n = dw.null_limit_process(cfg_null, 12)
    assert np.array_equal(a[3:], n[3:])


def test_alt_process_mean_matches_drift():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=512,
                         drift=dw.LimitDrift(STEP, "cp1"))
    reps = 4000
    ends = np.array([dw.alt_limit_process(cfg, dw.substream(31, i))[-1] for i in range(reps)])
    mu = dw.drift_term(cfg, 1.0)
    se = ends.std() / np.sqrt(reps)
    assert abs(ends.mean() - mu) < 3 * se


def test_alt_process_tiny_noise_is_deterministic():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, sigma=1e-12, grid_M=256,
                         drift=dw.LimitDrift(STEP, "cp1"))
    vals = dw.alt_limit_process(cfg, 2)
    curve = _drift_curve(cfg)
    assert np.allclose(vals[3:], curve[3:], atol=1e-9)


def test_limit_stop_sample_extremes():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256)
    assert dw.limit_stop_sample(cfg, 1e9, 0.0, 5) == 1.0
    got = dw.limit_stop_sample(cfg, -1e9, 0.5, 5)
    assert 0.5 <= got <= 0.5 + 1.0 / 256 + 1e-12


@pytest.mark.parametrize("c", [-1e9, 0.0, 0.3, 1e9])
def test_limit_stop_sample_is_the_calibration_stop(c):
    # one grid-crossing rule: a sampled stop is calibration's stop of the same path
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256)
    for i in range(10):
        seed = dw.substream(41, i)
        stop = _stops_from_values(_batch_null_values(cfg, [seed]), np.array([c]))[0, 0]
        assert np.float64(dw.limit_stop_sample(cfg, c, 0.0, seed)).tobytes() == stop.tobytes()


def test_limit_stop_sample_monotone_in_threshold():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=512)
    for i in range(20):
        seed = dw.substream(93, i)
        stops = [dw.limit_stop_sample(cfg, c, 0.0, seed) for c in (0.0, 0.1, 0.2, 0.4)]
        assert np.all(np.diff(stops) >= 0)


def test_limit_stop_distribution_stable_across_grids():
    # couple the two resolutions: the 1024-grid path is the pair-summed
    # 2048-grid path, so both stop rules see the same Brownian motion
    zeta, c, reps = 2.0, 0.3, 3000
    cfg_f = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=2048)
    k_f = G.evaluate(-zeta * np.arange(2049) / 2048)
    k_c = G.evaluate(-zeta * np.arange(1025) / 1024)
    from scipy.signal import fftconvolve

    def stops(paths, k, M):
        dt = 1.0 / M
        conv = fftconvolve(paths, k[None, :], axes=1)[:, : M + 1]
        num = dt * (conv - 0.5 * k[0] * paths)
        den = zeta * dt * (np.cumsum(k) - 0.5 * k - 0.5 * k[0])
        vals = num[:, 1:] / den[1:]
        vals[:, :3] = -np.inf
        out = np.empty(len(paths))
        for r in range(len(paths)):
            idx = np.searchsorted(np.maximum.accumulate(vals[r]), c, side="right")
            out[r] = (idx + 1) / M if idx < M else 1.0
        return out

    fine = np.empty((reps, 2049))
    for i in range(reps):
        fine[i] = dw.sample_bm(2048, dw.substream(17, i))
    coarse = fine[:, ::2]
    s_f = stops(fine, k_f, 2048)
    s_c = stops(coarse, k_c, 1024)
    x = np.linspace(0.0, 1.0, 501)
    F_f = np.searchsorted(np.sort(s_f), x, side="right") / reps
    F_c = np.searchsorted(np.sort(s_c), x, side="right") / reps
    assert np.max(np.abs(F_f - F_c)) < 0.01


def test_asymptotic_normed_delay_boundaries():
    cfg = dw.LimitConfig(zeta=1.0, kernel=G, drift=dw.LimitDrift(STEP, "cp1"), grid_M=512)
    assert dw.asymptotic_normed_delay(cfg, -1.0, a=0.3) == 0.3
    cfg_zero = dw.LimitConfig(zeta=1.0, kernel=G, drift=dw.LimitDrift(ZERO, "cp1"), grid_M=512)
    assert dw.asymptotic_normed_delay(cfg_zero, 0.1) == 1.0


def test_asymptotic_normed_delay_dense_scan_oracle():
    cfg = dw.LimitConfig(zeta=1.0, kernel=G, drift=dw.LimitDrift(STEP, "cp1"), grid_M=1024)
    c = 0.5 * dw.drift_term(cfg, 1.0)
    got = dw.asymptotic_normed_delay(cfg, c)
    # locate the crossing on a coarse grid, then resolve at 1e-4
    coarse = np.arange(0.01, 1.0001, 0.01)
    mu = np.array([dw.drift_term(cfg, float(s)) for s in coarse])
    k = int(np.argmax(mu > c))
    dense = np.arange(coarse[k - 1], coarse[k] + 1e-12, 1e-4)
    mu_d = np.array([dw.drift_term(cfg, float(s)) for s in dense])
    oracle = dense[int(np.argmax(mu_d > c))]
    assert abs(got - oracle) <= 1e-4


def test_asymptotic_normed_delay_evaluates_each_s_once(monkeypatch):
    drift_term = limitsim.drift_term
    calls = []

    def counting(cfg, s):
        calls.append(s)
        return drift_term(cfg, s)

    monkeypatch.setattr(limitsim, "drift_term", counting)
    cfg = dw.LimitConfig(zeta=1.0, kernel=G, drift=dw.LimitDrift(STEP, "cp1"), grid_M=256)
    got = dw.asymptotic_normed_delay(cfg, 0.5 * drift_term(cfg, 1.0))
    assert 0.0 < got < 1.0
    assert len(calls) > 2 and len(calls) == len(set(calls))


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_asymptotic_normed_delay_when_the_curve_never_crosses(frac):
    # the curve only guesses the cell; the signs of the quadrature term decide
    cfg = dw.LimitConfig(zeta=10.0, kernel=NARROW, grid_M=64, drift=dw.LimitDrift(STEP))
    assert np.isnan(_drift_curve(cfg)).all()
    c = frac * dw.drift_term(cfg, 1.0)
    root = brentq(lambda s: dw.drift_term(cfg, s) - c, 1e-6, 1.0)
    assert abs(dw.asymptotic_normed_delay(cfg, c) - root) <= 1e-6


def test_vanishing_limit_weights_raise_where_the_finite_chart_would():
    # every lag weight of NARROW on this grid is 0, so the ratio's den is 0 on the
    # whole grid: the sampled values raise at s_min, the first eligible grid index,
    # where they used to be NaN and calibration read "never crosses" (normed ARL 1)
    cfg = dw.LimitConfig(zeta=10.0, kernel=NARROW, grid_M=64)
    alt = dw.LimitConfig(zeta=10.0, kernel=NARROW, grid_M=64, drift=dw.LimitDrift(STEP))
    calls = {
        "arl_curve": lambda: dw.arl_curve(cfg, NARROW, [-1e9, 0.0, 0.5], 100, 1),
        "null_limit_process": lambda: dw.null_limit_process(cfg, 1),
        "alt_limit_process": lambda: dw.alt_limit_process(alt, 1),
        "limit_stop_sample": lambda: dw.limit_stop_sample(cfg, 0.0, 0.0, 1),
    }
    for name, call in calls.items():
        with pytest.raises(dw.DriftwatchError, match="smoothing weights vanish at index 4") as err:
            call()
        assert err.value.index == limitsim.S_MIN_CELLS, name
    # a fixed design that spreads the late time points past the kernel's reach:
    # the weights vanish first at grid index 42
    fixed = dw.LimitConfig(zeta=1.0, kernel=NARROW, grid_M=64,
                           design=dw.TimeDesign(gamma=0.5, mode="fixed"))
    with pytest.raises(dw.DriftwatchError) as err:
        dw.null_limit_process(fixed, 1)
    assert err.value.index == 42
    # the weights do not depend on the path, so the check does not depend on the
    # stops: at threshold -1e9 every path stops at s_min, before index 42, and
    # the limit side still raises there (the finite chart checks up to each stop)
    with pytest.raises(dw.DriftwatchError) as err:
        dw.arl_curve(fixed, NARROW, [-1e9], 100, 1)
    assert err.value.index == 42
    with pytest.raises(dw.DriftwatchError) as err:
        dw.limit_stop_sample(fixed, -1e9, 0.0, 1)
    assert err.value.index == 42
    # built-in kernels have K(0) > 0, so their weights never vanish
    assert np.isfinite(dw.null_limit_process(dw.LimitConfig(zeta=10.0, kernel=G, grid_M=64),
                                             1)[limitsim.S_MIN_CELLS - 1 :]).all()


@pytest.mark.parametrize("a", [0.0, 0.3])
def test_asymptotic_normed_delay_leaves_a_plateau_of_the_drift_term(a):
    # under cp2 the drift term is exactly 0 up to theta, so c = 0 is first exceeded
    # there, although rounding lets the trapezoid curve cross at its first cell
    cfg = dw.LimitConfig(zeta=10.0, kernel=G, drift=dw.LimitDrift(STEP, "cp2", theta=0.5))
    assert abs(dw.asymptotic_normed_delay(cfg, 0.0, a) - 0.5) <= 1e-7


def test_check_km_condition():
    assert not dw.check_km_condition(G, ZERO, 0.1)
    assert dw.check_km_condition(G, STEP, 0.0)
    # ramp at c = 0.1 against a nested-quadrature oracle
    def inner(x):
        val, _ = integrate.quad(lambda t: norm.pdf(t - x) * 0.5 * max(t, 0.0) ** 2, 0.0, x,
                                limit=200)
        return val

    xs = np.linspace(0.0, 20.0, 81)
    oracle = any(inner(float(x)) > 0.1 for x in xs)
    assert dw.check_km_condition(G, RAMP, 0.1) == oracle


def _detectability(kernel, m0, x):
    return limitsim.window_integral(dw.LimitConfig(zeta=1.0, kernel=kernel), x, m0.integral)


def grid_reference(kernel, m0, c, x_max=20.0, n_grid=81):
    """``check_km_condition`` by the detectability integral on a grid of x."""
    xs = np.linspace(0.0, x_max, n_grid)
    vals = np.empty(n_grid)
    for i, x in enumerate(xs):
        try:
            vals[i] = _detectability(kernel, m0, x) if x != 0.0 else 0.0
        except (ArithmeticError, RuntimeWarning):
            return False
    if np.any(~np.isfinite(vals)) or np.any(np.abs(vals) > limitsim.OVERFLOW_GUARD):
        return False
    return bool(np.any(vals > c))


@pytest.mark.parametrize("shape", KM_SHAPES)
@pytest.mark.parametrize("kernel", [G, E], ids=["gaussian", "epanechnikov"])
def test_check_km_condition_equals_the_grid(kernel, shape):
    for c in (-0.5, 0.1, 30.0):
        assert dw.check_km_condition(kernel, KM_SHAPES[shape], c, 5.0) == \
            grid_reference(kernel, KM_SHAPES[shape], c, 5.0), c


def test_check_km_condition_takes_one_integral(monkeypatch):
    window_integral = limitsim.window_integral
    calls = []

    def counting(cfg, s, g=None, breaks=()):
        calls.append(s)
        return window_integral(cfg, s, g, breaks)

    monkeypatch.setattr(limitsim, "window_integral", counting)
    dw.check_km_condition(G, RAMP, 0.1)
    assert calls == [20.0]


@pytest.mark.parametrize("shape", KM_SHAPES)
def test_the_detectability_integral_is_nondecreasing(shape):
    # the premise of the one integral: K >= 0 and m0 >= 0 make
    # I(x) = int_0^x K(-u) M0(x - u) du nondecreasing in x
    completed = dw.completed_kernel(dw.optimal_kernel(RAMP, 1.0, 0.03, n_points=101))
    for kernel in (G, E, completed):
        vals = [_detectability(kernel, KM_SHAPES[shape], x) for x in np.arange(1, 11) * 0.5]
        assert np.all(np.diff([0.0, *vals]) >= 0.0), kernel.family


class _RaisingKernel:
    """A kernel stand-in whose every evaluation raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def breakpoints(self):
        return np.array([-1.0, 1.0])

    def evaluate(self, z):
        raise self.exc

    scalar = evaluate  # the float evaluator that the limit layer's integrands call


def test_check_km_condition_propagates_programming_errors():
    with pytest.raises(TypeError, match="not a divergence"):
        dw.check_km_condition(_RaisingKernel(TypeError("not a divergence")), STEP, 0.1)


@pytest.mark.parametrize("warn", ["error", "ignore"])
def test_check_km_condition_reports_divergence_as_false(warn):
    # beyond the overflow guard, an integrand that overflows (numpy's
    # RuntimeWarning is an exception only when warnings are errors), and
    # one that raises ArithmeticError itself
    huge = dw.seriesgen.tabulated_alternative([0.0, 1.0], [1e200, 1e200])
    overflowing = dw.seriesgen.tabulated_alternative([0.0, 1.0], [1e307, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        assert not dw.check_km_condition(G, huge, 0.1)
        assert not dw.check_km_condition(G, overflowing, 0.1)
        for exc in (OverflowError("exp"), ZeroDivisionError("1/0")):
            assert not dw.check_km_condition(_RaisingKernel(exc), STEP, 0.1)


def test_design_variants_reduce_to_plain():
    td = dw.TimeDesign(gamma=1.0, mode="rolling")
    cfg_d = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128, design=td)
    cfg_p = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128)
    a = dw.null_limit_process(cfg_d, 21)
    b = dw.null_limit_process(cfg_p, 21)
    assert np.allclose(a[3:], b[3:], rtol=1e-10)
    # variance under the uniform rolled design equals the plain variance
    assert dw.sigma_k_sq(cfg_d, 1.0) == pytest.approx(dw.sigma_k_sq(cfg_p, 1.0), rel=1e-8)


def test_fixed_design_drift_reduces_to_plain():
    td = dw.TimeDesign(gamma=1.0, mode="fixed")
    drift = dw.LimitDrift(STEP, "cp2", theta=0.3)
    cfg_d = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128, design=td, drift=drift)
    cfg_p = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128, drift=drift)
    for s in (0.4, 0.8, 1.0):
        assert dw.drift_term(cfg_d, s) == pytest.approx(dw.drift_term(cfg_p, s), rel=1e-6)


def test_rolling_design_drift_at_unit_zeta():
    td = dw.TimeDesign(gamma=1.0, mode="rolling")
    drift = dw.LimitDrift(STEP, "cp1")
    for zeta in (1.0, 2.0, 4.0):
        cfg_d = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=128, design=td, drift=drift)
        cfg_p = dw.LimitConfig(zeta=zeta, kernel=G, grid_M=128, drift=drift)
        for s in (0.5, 1.0):
            assert dw.drift_term(cfg_d, s) == pytest.approx(dw.drift_term(cfg_p, s), rel=1e-8)


# (time design, limit change point, finite change point): the designs pair with
# the change-point models as ``LimitConfig`` requires
LINK_DESIGNS = {
    "plain cp1": (None, ("cp1",), dict(q=1)),
    "plain cp2": (None, ("cp2", 0.3), dict(theta=0.3)),
    "fixed cp2": (dw.TimeDesign(gamma=2.0, mode="fixed"), ("cp2", 0.3), dict(theta=0.3)),
    "rolled cp1": (dw.TimeDesign(gamma=2.0, mode="rolling"), ("cp1",), dict(q=1)),
}


@pytest.mark.parametrize("shape", ["step", "ramp"])
@pytest.mark.parametrize("kernel", [G, E], ids=["gaussian", "epanechnikov"])
@pytest.mark.parametrize("design", list(LINK_DESIGNS))
def test_drift_term_is_the_limit_of_the_scaled_smoother(design, kernel, shape):
    # a pure-drift walk (beta = 0, h_link = h, sigma = 1e-9) under slow-alternative
    # scaling is the drift term up to O(1/h), for every design: the term's time axis
    # and its zeta^{-3/2} both show at zeta = 4
    N, zeta = 2000, 4.0
    td, limit_cp, finite_cp = LINK_DESIGNS[design]
    m0 = dw.alternative_by_name(shape)
    drift = dw.DriftSpec(m0, 0.0, limit_cp[0], h_link=N / zeta, **finite_cp)
    spec = dw.SeriesSpec(N=N, innovations=dw.InnovationSpec(sigma=1e-9), drift=drift, design=td)
    smoother = dw.SmootherConfig(kernel, N / zeta, "slow_alt_scale", td)
    finite = dw.nw_process(dw.generate(spec, 5), smoother) * dw.scaling_factor(smoother, N)
    cfg = dw.LimitConfig(zeta=zeta, kernel=kernel, drift=dw.LimitDrift(m0, *limit_cp), design=td)
    for s in (0.5, 0.75, 1.0):
        assert finite[int(s * N) - 1] == pytest.approx(dw.drift_term(cfg, s), rel=1e-2)


def test_design_pairing_enforced():
    td = dw.TimeDesign(gamma=2.0, mode="rolling")
    with pytest.raises(ValueError):
        dw.LimitConfig(zeta=2.0, kernel=G, design=td,
                       drift=dw.LimitDrift(STEP, "cp2", theta=0.5))


def test_save_path_csv(tmp_path):
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=128)
    vals = dw.null_limit_process(cfg, 4)
    out = tmp_path / "path.csv"
    from driftwatch.limitsim import save_path_csv

    save_path_csv(cfg, vals, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,value"
    assert len(lines) == 129
    # the s-grid has grid_M >= 64 rows; check the exact bytes of the first two
    vals = np.full(128, 0.5)
    vals[1] = -1e-07
    save_path_csv(cfg, vals, out)
    data = out.read_bytes()
    assert data.startswith(b"s,value\r\n0.0078125,0.5\r\n0.015625,-1e-07\r\n0.0234375,0.5\r\n")
    assert data.endswith(b"\r\n1.0,0.5\r\n") and data.count(b"\r\n") == 129


def test_limit_config_validation():
    with pytest.raises(ValueError):
        dw.LimitConfig(zeta=0.5, kernel=G)
    with pytest.raises(ValueError):
        dw.LimitConfig(zeta=2.0, kernel=G, grid_M=32)
    with pytest.raises(ValueError):
        dw.LimitDrift(STEP, "cp2", theta=0.0)
