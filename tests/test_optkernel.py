from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import driftwatch as dw
from driftwatch import limitsim, optkernel
from driftwatch.optkernel import TruncatedAlternative, tau_ratio

STEP = dw.alternative_by_name("step")
RAMP = dw.alternative_by_name("ramp")


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
