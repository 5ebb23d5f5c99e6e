import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

import driftwatch as dw
from driftwatch.calibration import _finite_chunk

G = dw.gaussian_kernel()


def test_finite_curve_trivial_thresholds():
    variant = dw.FiniteSampleVariant(N=50, h=25.0)
    table = dw.arl_curve(variant, G, np.array([-5.0, 1e6]), 100, 3)
    assert table.normed_arl[0] == pytest.approx(1 / 50)  # immediate alarm
    assert table.normed_arl[1] == 1.0  # truncation everywhere


def test_limit_curve_trivial_thresholds():
    cfg = dw.LimitConfig(zeta=2.0, kernel=G, grid_M=256)
    table = dw.arl_curve(cfg, G, np.array([-5.0, 1e6]), 100, 3)
    # the first eligible grid point sits at s_min = 4/grid_M
    assert table.normed_arl[0] == pytest.approx(4 / 256)
    assert table.normed_arl[1] == 1.0


def test_common_random_numbers_give_per_replicate_monotonicity():
    variant = dw.FiniteSampleVariant(N=60, h=20.0)
    c_grid = np.linspace(-0.2, 0.6, 9)
    stops = _finite_chunk((variant, G, c_grid, 11, 0, 150))
    assert np.all(np.diff(stops, axis=1) >= 0)


def test_arl_curve_reps_precondition():
    with pytest.raises(ValueError):
        dw.arl_curve(dw.FiniteSampleVariant(N=20, h=10.0), G, np.array([0.1, 0.2]), 50, 1)


@pytest.mark.parametrize("grid", [[], [0.2, 0.1], [0.1, np.nan], [np.nan, 0.1], [0.1, np.inf]],
                         ids=["empty", "decreasing", "ending in NaN", "starting with NaN", "inf"])
def test_every_routine_checks_the_threshold_grid_alike(grid):
    variant = dw.FiniteSampleVariant(N=20, h=10.0)
    with pytest.raises(ValueError) as arl:
        dw.arl_curve(variant, G, grid, 100, 1)
    with pytest.raises(ValueError) as table:
        dw.CalibrationTable(grid, np.full(len(grid), 0.5))
    assert str(table.value) == str(arl.value)
    for coupled in (True, False):
        with pytest.raises(ValueError) as cons:
            dw.conservativeness_check(20, 10.0, G, grid, 100, 1, coupled=coupled, min_grid=64)
        assert str(cons.value) == str(arl.value)


@pytest.mark.parametrize("method", [None, "naive"])
def test_uncoupled_finite_side_is_the_finite_arl_curve(method):
    grid = np.linspace(0.05, 0.5, 5)
    rep = dw.conservativeness_check(60, 20.0, G, grid, 600, 7, variance_method=method,
                                    coupled=False, min_grid=256)
    table = dw.arl_curve(dw.FiniteSampleVariant(60, 20.0, variance_method=method), G, grid, 600, 7)
    assert rep.finite_arl.tobytes() == table.normed_arl.tobytes()
    assert list(rep.meta) == ["N", "h", "zeta", "kernel", "reps", "seed", "coupled", "grid_M"]


@pytest.mark.parametrize("N, h", [(60, 20.0), (50, 7.5)])
def test_coupled_finite_side_is_the_finite_arl_curve(N, h):
    # without a variance method the coupled chunk's finite side is the chart that
    # arl_curve computes over the same walks, so the curves agree bit for bit
    grid = np.linspace(0.05, 0.5, 5)
    rep = dw.conservativeness_check(N, h, G, grid, 600, 7, variance_method=None, min_grid=256)
    table = dw.arl_curve(dw.FiniteSampleVariant(N, h), G, grid, 600, 7)
    assert rep.finite_arl.tobytes() == table.normed_arl.tobytes()


def test_limit_curve_stable_across_seeds():
    cfg = dw.LimitConfig(zeta=3.0, kernel=G, grid_M=1024)
    grid = np.linspace(0.05, 0.6, 6)
    a = dw.arl_curve(cfg, G, grid, 2000, 101).normed_arl
    b = dw.arl_curve(cfg, G, grid, 2000, 202).normed_arl
    assert np.max(np.abs(a - b)) < 0.025


def test_critical_value_exact_and_interpolated():
    table = dw.CalibrationTable(
        thresholds=np.array([0.1, 0.2, 0.3, 0.4]),
        normed_arl=np.array([0.5, 0.7, 0.9, 1.0]),
    )
    assert dw.critical_value_for_arl(table, 0.7) == pytest.approx(0.2)
    # midway target: linear interpolant
    assert dw.critical_value_for_arl(table, 0.8) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        dw.critical_value_for_arl(table, 0.4)


def test_critical_value_flat_segment_rightmost():
    table = dw.CalibrationTable(
        thresholds=np.array([0.1, 0.2, 0.3, 0.4]),
        normed_arl=np.array([0.5, 1.0, 1.0, 1.0]),
    )
    # target 1.0: the largest threshold achieving truncation
    assert dw.critical_value_for_arl(table, 1.0) == pytest.approx(0.4)


def test_critical_value_round_trips_simulated_table():
    variant = dw.FiniteSampleVariant(N=50, h=25.0)
    table = dw.arl_curve(variant, G, np.linspace(0.02, 0.4, 8), 300, 5)
    for j in (1, 4, 6):
        target = float(table.normed_arl[j])
        c = dw.critical_value_for_arl(table, target)
        matches = np.nonzero(table.normed_arl == target)[0]
        assert c == pytest.approx(float(table.thresholds[matches[-1]]))


def test_calibration_table_validation():
    with pytest.raises(ValueError):
        dw.CalibrationTable(thresholds=np.array([0.2, 0.1]), normed_arl=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        dw.CalibrationTable(thresholds=np.array([0.1, 0.2]), normed_arl=np.array([0.7, 0.5]))
    with pytest.raises(ValueError):
        dw.CalibrationTable(thresholds=np.array([0.1, 0.2]), normed_arl=np.array([0.0, 0.5]))


@pytest.mark.parametrize("h", [0, 0.0])
def test_zero_bandwidth_is_rejected_before_any_division(h):
    with pytest.raises(ValueError, match="bandwidth"):
        dw.conservativeness_check(20, h, G, [0.1, 0.5], 100, 1)
    with pytest.raises(ValueError, match="bandwidth"):
        dw.coverage_sim(20, h, G, 0.1, 100, 1)


def test_unknown_variance_method_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown variance method 'bogus'"):
        dw.FiniteSampleVariant(N=20, h=5.0, variance_method="bogus")
    with pytest.raises(ValueError, match="unknown variance method 'bogus'"):
        dw.coverage_sim(20, 5.0, G, 0.1, 100, 1, variance_method="bogus")


def test_a_one_point_horizon_is_rejected_at_construction():
    with pytest.raises(ValueError, match="horizon N must be an integer >= 2, got 1"):
        dw.FiniteSampleVariant(N=1, h=1.0)
    with pytest.raises(ValueError, match="horizon N must be an integer >= 2, got 1"):
        dw.coverage_sim(1, 1.0, G, 0.1, 100, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: dw.arl_curve(dw.FiniteSampleVariant(N=20, h=5.0), G, [0.1], 100, 1, jobs=2.5),
     "jobs must be an integer, got 2.5"),
], ids=["jobs"])
def test_a_count_without_lower_bound_names_none(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("min_grid", [-5, 1, 63])
def test_min_grid_below_64_is_rejected_by_its_own_name(coupled, min_grid):
    # coupled, every min_grid from 1 to 63 used to give a walk of N >= 64 the grid of 64
    with pytest.raises(ValueError, match=f"^min_grid must be an integer >= 64, got {min_grid}$"):
        dw.conservativeness_check(64, 8.0, G, [0.1], 100, 1, coupled=coupled, min_grid=min_grid)


SEEDED_CALLS = {
    "arl_curve": lambda seed: dw.arl_curve(dw.FiniteSampleVariant(N=20, h=5.0), G, [0.1], 1024,
                                           seed, jobs=2),
    "coverage_sim": lambda seed: dw.coverage_sim(20, 5.0, G, 0.1, 1024, seed, jobs=2),
    "conservativeness_check": lambda seed: dw.conservativeness_check(20, 5.0, G, [0.1], 1024,
                                                                     seed, min_grid=64, jobs=2),
}


@pytest.mark.parametrize("name", list(SEEDED_CALLS))
@pytest.mark.parametrize("seed", [2.5, -1, math.nan])
def test_a_bad_seed_is_rejected_before_any_pool_starts(monkeypatch, name, seed):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(dw.calibration, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SEEDED_CALLS[name](seed)


@pytest.mark.parametrize("h, min_grid, match", [(25.0, 2048, "zeta"), (5.0, 32, "min_grid")])
def test_a_coupled_check_rejects_its_limit_config_before_any_chunk(monkeypatch, h, min_grid,
                                                                   match):
    def no_chunk(payload):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(dw.calibration, "_coupled_chunk", no_chunk)
    with pytest.raises(ValueError, match=match):
        dw.conservativeness_check(20, h, G, [0.1], 100, 1, min_grid=min_grid, jobs=2)


def test_coverage_known_sigma_binomial_band():
    cov = dw.coverage_sim(500, 250.0, G, 0.05, 2000, 17, variance_method=None)
    band = 3 * np.sqrt(0.95 * 0.05 / 2000)
    assert abs(cov - 0.95) <= band


def test_coverage_alpha_extreme():
    cov = dw.coverage_sim(100, 50.0, G, 1 - 1e-12, 200, 3, variance_method=None)
    assert cov < 0.05


def test_conservativeness_deterministic_self_comparison():
    # identical variant inputs reproduce identical curves: zero differences
    variant = dw.FiniteSampleVariant(N=60, h=20.0)
    grid = np.linspace(0.05, 0.5, 5)
    a = dw.arl_curve(variant, G, grid, 200, 7).normed_arl
    b = dw.arl_curve(variant, G, grid, 200, 7).normed_arl
    assert np.array_equal(a, b)


def test_conservativeness_report_fields():
    grid = np.linspace(0.1, 0.8, 5)
    rep = dw.conservativeness_check(100, 50.0, G, grid, 200, 7)
    assert rep.meta["coupled"] is True
    assert rep.meta["grid_M"] >= 2048
    assert rep.gaps.shape == (5,)
    assert 0.0 <= rep.frac_nonnegative <= 1.0
    # uncoupled path exercises the independent-substream estimator
    rep2 = dw.conservativeness_check(100, 50.0, G, grid, 200, 7, coupled=False)
    assert rep2.meta["coupled"] is False
    assert np.all(rep2.limit_arl <= 1.0)


def test_worker_count_does_not_change_results():
    variant = dw.FiniteSampleVariant(N=600, h=100.0)
    grid = np.linspace(0.02, 0.3, 4)
    a = dw.arl_curve(variant, G, grid, 1200, 9, jobs=1).normed_arl
    b = dw.arl_curve(variant, G, grid, 1200, 9, jobs=2).normed_arl
    assert np.array_equal(a, b)


def _served_shape(name):
    """A drift shape whose scalar evaluator a quadrature has built."""
    m0 = (dw.alternative_by_name(name) if name == "ramp"
          else dw.seriesgen.tabulated_alternative([0.0, 0.5, 2.0], [1.0, 0.25, 1.5]))
    dw.tau_ratio(G, m0, 1.0, 0.5)
    return m0


def _served_kernel(name):
    """A kernel whose scalar evaluator a quadrature has built."""
    kernel = (dw.completed_kernel(dw.optimal_kernel(dw.alternative_by_name("ramp"), 1.0, 0.03))
              if name == "completed" else dw.kernel_by_name(name))
    dw.limit_weight_integral(kernel, 2.0, 0.5)
    return kernel


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # the completed kernel
@pytest.mark.parametrize("obj, evaluator, call", [
    (lambda: _served_kernel("gaussian"), "scalar", lambda k: dw.limit_weight_integral(k, 2.0, 0.5)),
    (lambda: _served_kernel("completed"), "scalar",
     lambda k: dw.limit_weight_integral(k, 2.0, 0.5)),
    (lambda: _served_shape("ramp"), "scalar_integral", lambda m: dw.tau_ratio(G, m, 1.0, 0.5)),
    (lambda: _served_shape("tabulated"), "scalar_integral",
     lambda m: dw.tau_ratio(G, m, 1.0, 0.5)),
], ids=["gaussian", "completed", "ramp", "tabulated"])
def test_kernels_and_shapes_pickle_after_a_scalar_quadrature(obj, evaluator, call):
    # process pools carry kernels and shapes; their cached evaluators are closures
    original = obj()
    assert evaluator in vars(original)
    copy = pickle.loads(pickle.dumps(original))
    assert evaluator not in vars(copy)
    assert np.float64(call(copy)).tobytes() == np.float64(call(original)).tobytes()


def test_coverage_workers_take_a_kernel_that_served_a_quadrature():
    # coverage_sim takes sigma_k_sq on its kernel before the chunks fan out
    kernel = dw.gaussian_kernel()
    one = dw.coverage_sim(20, 5.0, kernel, 0.1, 1024, 3, jobs=1)
    assert "scalar" in vars(kernel)
    two = dw.coverage_sim(20, 5.0, kernel, 0.1, 1024, 3, jobs=2)
    assert np.float64(one).tobytes() == np.float64(two).tobytes()


def test_kernel_comparison_single_and_duplicates():
    step = dw.alternative_by_name("step")
    single = dw.kernel_comparison_curves([G], step, 2.0, 0.05, grid_M=512)
    assert single.best == "gaussian"
    dup = dw.kernel_comparison_curves([G, G], step, 2.0, 0.05, grid_M=512)
    assert dup.crossings[0] == pytest.approx(dup.crossings[1], abs=1e-12)
    assert dup.names == ["gaussian", "gaussian#2"]
    trip = dw.kernel_comparison_curves([G, G, G], step, 2.0, 0.05, grid_M=512)
    assert trip.names == ["gaussian", "gaussian#2", "gaussian#3"]
    assert np.all(trip.crossings == trip.crossings[0])


def test_kernel_comparison_ranking_matches_dense_scan():
    step = dw.alternative_by_name("step")
    kernels = [G, dw.epanechnikov_kernel(), dw.laplace_kernel()]
    # threshold at half the largest final drift value among candidates
    finals = [
        dw.drift_term(dw.LimitConfig(zeta=2.0, kernel=k, drift=dw.LimitDrift(step, "cp1")), 1.0)
        for k in kernels
    ]
    c = 0.5 * max(finals)
    comp = dw.kernel_comparison_curves(kernels, step, 2.0, c, grid_M=1024)

    def dense_crossing(kernel):
        cfg = dw.LimitConfig(zeta=2.0, kernel=kernel, drift=dw.LimitDrift(step, "cp1"))
        coarse = np.arange(0.02, 1.0001, 0.02)
        mu = np.array([dw.drift_term(cfg, float(s)) for s in coarse])
        if not np.any(mu > c):
            return 1.0
        k = int(np.argmax(mu > c))
        fine = np.arange(coarse[k - 1], coarse[k] + 1e-12, 1e-3)
        mu_f = np.array([dw.drift_term(cfg, float(s)) for s in fine])
        return float(fine[int(np.argmax(mu_f > c))])

    oracle = [dense_crossing(k) for k in kernels]
    assert list(np.argsort(comp.crossings)) == list(np.argsort(oracle))
    assert np.allclose(comp.crossings, oracle, atol=2e-3)


@pytest.mark.parametrize("method", [None, "naive"])
def test_finite_curve_degenerate_first_index(method):
    # K(0) = 0: at unit spacing with h = 10 only index 1 has no weight
    k0 = dw.tabulated_kernel([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0])
    grid = np.linspace(-0.05, 0.1, 8)
    variant = dw.FiniteSampleVariant(N=200, h=10.0, variance_method=method)
    with pytest.raises(dw.DriftwatchError) as err:
        dw.arl_curve(variant, k0, grid, 100, 1)
    assert err.value.index == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = dw.arl_curve(replace(variant, start_fraction=0.05), k0, grid, 100, 1)
    assert np.all(table.normed_arl >= 10 / 200 - 1e-12)  # first eligible index is 10
    assert table.normed_arl[-1] > table.normed_arl[0]
