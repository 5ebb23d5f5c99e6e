import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

import driftwatch as dw
from driftwatch import kernels, limitsim, optkernel
from driftwatch.optkernel import DELAY_TOL, SCAN_STEP, TruncatedAlternative, tau_ratio

STEP = dw.alternative_by_name("step")
RAMP = dw.alternative_by_name("ramp")
# m0 falls, then rises: not monotone itself, while M0 is
TAB = dw.seriesgen.tabulated_alternative([0.0, 0.5, 2.0], [1.0, 0.25, 1.5])
SHAPES = {"step": STEP, "ramp": RAMP, "tabulated": TAB}


def delay_ratio_oracle(m0, s):
    num, _ = integrate.quad(lambda r: float(m0.integral(r)) ** 2, 0.0, s, limit=200)
    den, _ = integrate.quad(lambda r: float(m0.integral(r)), 0.0, s, limit=200)
    return num / den


def test_optimal_delay_ramp_closed_form():
    # ratio(s) = (s^5/20)/(s^3/6) = 0.3 s^2, so crossing 0.03 at sqrt(0.1)
    s = dw.optimal_delay(RAMP, 0.03)
    assert s == pytest.approx(np.sqrt(0.1), abs=1e-6)
    assert delay_ratio_oracle(RAMP, s) == pytest.approx(0.03, abs=1e-6)
    assert delay_ratio_oracle(RAMP, 0.5) == pytest.approx(0.3 * 0.25, rel=1e-9)


def test_optimal_delay_step_closed_form():
    # ratio(s) = (s^3/3)/(s^2/2) = 2s/3, so crossing 0.2 at 0.3
    s = dw.optimal_delay(STEP, 0.2)
    assert s == pytest.approx(0.3, abs=1e-6)
    assert delay_ratio_oracle(STEP, s) == pytest.approx(0.2, abs=1e-6)


def test_optimal_delay_zero_shape_errors():
    with pytest.raises(ValueError):
        dw.optimal_delay(dw.alternative_by_name("zero"), 0.1)


def test_optimal_delay_no_crossing():
    assert dw.optimal_delay(STEP, 10.0) == 1.0


def test_optimal_delay_monotone_in_threshold():
    delays = [dw.optimal_delay(STEP, c) for c in (0.05, 0.1, 0.2, 0.4)]
    assert np.all(np.diff(delays) > 0)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_optimal_delay_scaling_invariance(lam):
    # scaling the shape by lam and the threshold by lam leaves the crossing fixed
    t = np.linspace(0.0, 3.0, 31)
    scaled = dw.seriesgen.tabulated_alternative(t, lam * STEP.value(t + 1e-12))
    base = dw.optimal_delay(STEP, 0.2)
    assert dw.optimal_delay(scaled, lam * 0.2) == pytest.approx(base, abs=1e-5)


def test_optimal_delay_evaluates_each_s_once(monkeypatch):
    delay_ratio = optkernel._delay_ratio
    calls = []

    def counting(m0, s):
        calls.append(s)
        return delay_ratio(m0, s)

    monkeypatch.setattr(optkernel, "_delay_ratio", counting)
    assert dw.optimal_delay(RAMP, 0.03) == pytest.approx(np.sqrt(0.1), abs=1e-6)
    assert len(calls) > 2 and len(calls) == len(set(calls))


def test_optimal_delay_bisects_the_scan_grid(monkeypatch):
    # no crossing: a linear scan evaluates all 1000 grid points, a bisection about log2(1000)
    delay_ratio = optkernel._delay_ratio
    calls = []

    def counting(m0, s):
        calls.append(s)
        return delay_ratio(m0, s)

    monkeypatch.setattr(optkernel, "_delay_ratio", counting)
    assert dw.optimal_delay(STEP, 10.0) == 1.0
    assert len(calls) <= 12


def scan_reference(m0, c):
    """``optimal_delay`` by a linear scan of its grid, with the same root search."""
    probe = optkernel._power_integral(m0, SCAN_STEP, 2)
    if not (probe > 0.0 and np.isfinite(optkernel._power_integral(m0, 1.0, 2))):
        raise ValueError("the squared cumulative drift must be positive and finite on (0, 1]")
    if c <= 0.0:
        return 0.0

    def g(s):
        return optkernel._delay_ratio(m0, s) - c

    grid = np.arange(SCAN_STEP, 1.0 + SCAN_STEP / 2, SCAN_STEP)
    prev = 1e-9
    for s in grid:
        if g(float(s)) > 0.0:
            if g(prev) > 0.0:
                return float(prev)
            return float(brentq(g, prev, float(s), xtol=DELAY_TOL / 4))
        prev = float(s)
    return 1.0


@pytest.mark.parametrize("t_max", [None, 0.3])
@pytest.mark.parametrize("name", SHAPES)
def test_optimal_delay_equals_the_linear_scan(name, t_max):
    m0 = SHAPES[name] if t_max is None else TruncatedAlternative(SHAPES[name], t_max)
    thresholds = [-0.1, 0.0, 0.03, 0.2, 0.6]
    if name == "tabulated":
        # the scan evaluates each grid point up to the crossing, at milliseconds each on
        # this kinked integral: its late crossings would take seconds
        thresholds = thresholds[: 4 if t_max is None else 3]
    for c in thresholds:
        assert dw.optimal_delay(m0, c) == scan_reference(m0, c), c


@pytest.mark.parametrize("t_max", [None, 0.3])
@pytest.mark.parametrize("name", SHAPES)
def test_the_delay_ratio_is_nondecreasing(name, t_max):
    # the premise of the bisection: m0 >= 0 makes R(s) = int_0^s M0^2 / int_0^s M0 nondecreasing
    m0 = SHAPES[name] if t_max is None else TruncatedAlternative(SHAPES[name], t_max)
    ratios = [optkernel._delay_ratio(m0, s) for s in np.arange(1, 21) * 0.05]
    assert np.all(np.diff(ratios) >= 0.0)


def test_truncated_knots_end_at_the_truncation():
    assert TruncatedAlternative(STEP, 0.3).knots() == [0.0, 0.3]
    assert TruncatedAlternative(TAB, 1.0).knots() == [0.0, 0.0, 0.5, 1.0]
    assert TruncatedAlternative(TAB, 0.5).knots() == [0.0, 0.0, 0.5]


def test_the_power_integral_is_cut_at_the_truncation(monkeypatch):
    # M0 of a step truncated at 0.3 kinks there: cut at it, the ratio's two integrals take
    # 84 integrand evaluations (756 left to the adaptive rule), and the ratio
    # (0.3^3/3 + 0.09 * 0.7) / (0.3^2/2 + 0.3 * 0.7) comes out to rounding
    seen = SimpleNamespace(evaluations=0)

    def quad(f, *args, **kwargs):
        def counted(x):
            seen.evaluations += 1
            return f(x)

        return integrate.quad(counted, *args, **kwargs)

    monkeypatch.setattr(kernels, "integrate", SimpleNamespace(quad=quad))
    assert optkernel._delay_ratio(TruncatedAlternative(STEP, 0.3), 1.0) == pytest.approx(
        0.072 / 0.255, rel=1e-15)
    assert seen.evaluations == 84
    # a truncation at the interval's end is no interior breakpoint: the same rule as without it
    seen.evaluations = 0
    trunc = TruncatedAlternative(RAMP, 1.0)
    assert optkernel._power_integral(trunc, 1.0, 2) == kernels._quad(
        lambda r: float(trunc.scalar_integral(r)) ** 2, 0.0, 1.0)
    assert seen.evaluations == 2 * 21


@pytest.mark.parametrize("n_points", [0, 1, 2, math.nan, 3.5])
def test_optimal_kernel_takes_the_three_points_a_completed_kernel_needs(n_points):
    # the first point holds M0(0) = 0, and the completed kernel mirrors it onto the last
    with pytest.raises(ValueError, match="n_points must be an integer >= 3"):
        dw.optimal_kernel(RAMP, 1.0, 0.03, n_points=n_points)


def test_three_points_complete_to_a_triangle():
    sol = dw.optimal_kernel(RAMP, 1.0, 0.03, n_points=3)
    assert dw.completed_kernel(sol).knots_k[[0, 2]].tolist() == [0.0, 0.0]


def test_a_truncation_is_checked_when_built():
    # NaN and +-inf: TABLE in tests/test_nonfinite.py
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            TruncatedAlternative(STEP, t_max)


def test_optimal_kernel_step_example():
    # step, zeta=1, t_max=1, c=0.2: s* = 0.3; quadrature oracle for K*(0)
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    assert sol.s_star == pytest.approx(0.3, abs=1e-6)
    trunc = TruncatedAlternative(STEP, 1.0)
    numer, _ = integrate.quad(lambda t: float(trunc.value(t)), 0.0, sol.s_star)
    normalizer, _ = integrate.quad(lambda r: float(trunc.integral(r)), 0.0, 1.0)
    oracle = numer / (2.0 * normalizer)
    mid = len(sol.z) // 2
    assert sol.kernel_values[mid] == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(0.3, abs=1e-9)
    # boundary and monotonicity
    assert sol.kernel_values[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(sol.kernel_values) >= -1e-15)


@pytest.mark.parametrize("c", [-0.1, -np.inf])
def test_a_negative_threshold_has_no_optimal_kernel(c):
    # crossed at once: s* = 0 would tabulate every knot at z = 0 with value 0,
    # a file that load_kernel_csv rejects
    assert dw.optimal_delay(STEP, c) == 0.0
    with pytest.raises(ValueError, match=r"threshold c must be > 0 for an optimal kernel"):
        dw.optimal_kernel(STEP, 2.0, c)


@pytest.mark.parametrize("m0", [STEP, RAMP], ids=["step", "ramp"])
def test_a_zero_threshold_is_crossed_at_once(m0):
    # the delay ratio is positive on (0, 1], so c = 0 is crossed at s = 0
    assert dw.optimal_delay(m0, 0.0) == 0.0
    with pytest.raises(ValueError, match=r"threshold c must be > 0 for an optimal kernel, got 0.0"):
        dw.optimal_kernel(m0, 2.0, 0.0)


def test_optimal_kernel_default_truncation():
    sol = dw.optimal_kernel(RAMP, 2.0, 0.03)
    assert sol.t_max == 2.0
    assert np.all(sol.kernel_values >= 0)


def test_completed_kernel_is_symmetric_density():
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    k = dw.completed_kernel(sol)
    z = np.linspace(-sol.zeta * sol.s_star, sol.zeta * sol.s_star, 501)
    vals = k.evaluate(z)
    assert np.allclose(vals, vals[::-1], atol=1e-12)
    mass = np.trapezoid(vals, z)
    assert mass == pytest.approx(1.0, abs=1e-6)
    mean = np.trapezoid(z * vals, z)
    assert abs(mean) < 1e-9


@pytest.mark.parametrize("n_points", [1000, 1001])
def test_completed_kernel_mirrors_even_and_odd_tabulations(n_points):
    sol = dw.optimal_kernel(RAMP, 1.0, 0.03, n_points=n_points)
    k = dw.completed_kernel(sol)
    assert np.array_equal(k.knots_k, k.knots_k[::-1])
    assert np.trapezoid(k.knots_k, k.knots_z) == pytest.approx(1.0, abs=1e-12)
    # the pinned half rises to the middle knot(s)
    assert np.all(np.diff(k.knots_k[: n_points - n_points // 2]) >= 0.0)


@pytest.mark.parametrize("zeta", [1.0, 2.0, 4.0])
def test_completed_kernel_passes_the_density_contract(zeta):
    # a piecewise-linear kernel's moments are exact, however many knots it has
    report = dw.validate_kernel(dw.completed_kernel(dw.optimal_kernel(RAMP, zeta, 0.03)))
    assert abs(report["mass"] - 1.0) < 1e-14 and abs(report["mean"]) < 1e-14


def test_tabulated_triangle_moments_are_exact():
    report = dw.validate_kernel(dw.tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    assert report == {"mass": 1.0, "mean": 0.0, "second_moment": 1.0 / 6.0}


def test_tau_identity_for_completed_kernel():
    # tau of the completed kernel equals the closed-form ratio at s*
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    k = dw.completed_kernel(sol)
    trunc = TruncatedAlternative(STEP, 1.0)
    tau = tau_ratio(k, trunc, 1.0, sol.s_star)
    assert tau == pytest.approx(delay_ratio_oracle(trunc, sol.s_star), abs=1e-5)


def test_tau_ratio_rejects_zeta_below_one_as_every_limit_object():
    with pytest.raises(ValueError) as tau:
        tau_ratio(dw.gaussian_kernel(), STEP, 0.5, 0.5)
    with pytest.raises(ValueError) as cfg:
        dw.LimitConfig(zeta=0.5, kernel=dw.gaussian_kernel())
    assert str(tau.value) == str(cfg.value)


def test_cauchy_schwarz_bound():
    # tau(K) <= sqrt(int K^2) sqrt(int M0^2) / int K on [0, s*]
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    s_star, zeta = sol.s_star, 1.0
    for kernel in (dw.gaussian_kernel(), dw.epanechnikov_kernel(), dw.laplace_kernel()):
        tau = tau_ratio(kernel, STEP, zeta, s_star)
        ksq, _ = integrate.quad(
            lambda r: float(kernel.evaluate(zeta * (r - s_star))) ** 2, 0.0, s_star, limit=200
        )
        msq, _ = integrate.quad(lambda r: float(STEP.integral(r)) ** 2, 0.0, s_star, limit=200)
        kint, _ = integrate.quad(
            lambda r: float(kernel.evaluate(zeta * (r - s_star))), 0.0, s_star, limit=200
        )
        assert tau <= np.sqrt(ksq) * np.sqrt(msq) / kint + 1e-12


def test_completed_kernel_delay_evaluates_each_s_once(monkeypatch):
    drift_term = limitsim.drift_term
    calls = []

    def counting(cfg, s):
        calls.append(s)
        return drift_term(cfg, s)

    monkeypatch.setattr(limitsim, "drift_term", counting)
    completed = dw.completed_kernel(dw.optimal_kernel(RAMP, 1.0, 0.03, n_points=101))
    cfg = dw.LimitConfig(zeta=1.0, kernel=completed, grid_M=256, drift=dw.LimitDrift(RAMP, "cp1"))
    assert dw.asymptotic_normed_delay(cfg, 0.03) == pytest.approx(np.sqrt(0.1), abs=2e-2)
    assert len(calls) > 2 and len(calls) == len(set(calls))


def test_verify_optimality_self_candidate():
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    completed = dw.completed_kernel(sol)
    report = dw.verify_optimality(STEP, 1.0, 0.2, [completed], t_max=1.0, grid_M=1024)
    assert report.candidate_delays["tabulated"] == pytest.approx(report.completed_delay, abs=1e-9)
    assert report.is_optimal


def test_verify_optimality_beats_standard_kernels():
    report = dw.verify_optimality(
        STEP, 1.0, 0.2,
        [dw.gaussian_kernel(), dw.epanechnikov_kernel(), dw.laplace_kernel()],
        t_max=1.0, grid_M=1024,
    )
    assert report.is_optimal
    assert report.completed_delay == pytest.approx(report.s_star, abs=2e-3)
    for delay in report.candidate_delays.values():
        assert report.completed_delay <= delay + report.tolerance
    assert report.tau_completed == pytest.approx(report.closed_form_ratio, abs=1e-5)
    assert abs(report.completed_mean) < 1e-9


def test_verify_optimality_names_every_duplicate_candidate():
    report = dw.verify_optimality(STEP, 1.0, 0.2, [dw.gaussian_kernel()] * 3, t_max=1.0,
                                  grid_M=256)
    assert list(report.candidate_delays) == ["gaussian", "gaussian#2", "gaussian#3"]
    assert len(set(report.candidate_delays.values())) == 1


def test_verify_optimality_and_the_comparison_rank_candidates_alike():
    G, E, L = dw.gaussian_kernel(), dw.epanechnikov_kernel(), dw.laplace_kernel()
    candidates = [G, E, L, G]
    report = dw.verify_optimality(STEP, 1.0, 0.2, candidates, t_max=1.0, grid_M=256)
    comp = dw.kernel_comparison_curves(candidates, STEP, 1.0, 0.2, grid_M=256)
    assert list(report.candidate_delays) == comp.names == ["gaussian", "epanechnikov",
                                                           "laplace", "gaussian#2"]
    assert np.array_equal(list(report.candidate_delays.values()), comp.crossings)


def test_verify_optimality_with_a_kernel_narrower_than_a_grid_cell():
    # the candidate's trapezoid drift curve is NaN throughout (every lag weight on the
    # 64-point grid is 0), so its delay comes from the quadrature drift term alone
    w = 0.02
    narrow = dw.tabulated_kernel([-w, -w / 2, 0.0, w / 2, w], [0.0, 1 / w, 0.0, 1 / w, 0.0])
    report = dw.verify_optimality(STEP, 10.0, 0.05, [dw.gaussian_kernel(), narrow], grid_M=64)
    assert report.candidate_delays["tabulated"] == pytest.approx(0.159, abs=1e-3)
    assert report.is_optimal


def test_solution_csv_loadable_as_kernel(tmp_path):
    sol = dw.optimal_kernel(STEP, 1.0, 0.2, t_max=1.0)
    path = tmp_path / "opt.csv"
    dw.save_solution_csv(sol, path)
    k = dw.load_kernel_csv(path)
    assert k.family == "tabulated"
    mid = float(k.evaluate(np.array([0.0]))[0])
    assert mid == pytest.approx(0.3, abs=1e-9)
    two = replace(sol, z=np.array([-0.5, 0.25]), kernel_values=np.array([0.0, 1e-20]))
    dw.save_solution_csv(two, path)
    assert path.read_bytes() == b"z,k\r\n-0.5,0.0\r\n0.25,1e-20\r\n"
